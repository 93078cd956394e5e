"""Fuzzing the CLI's input boundary: every document ends in a documented exit code.

Documents are small brace or solution tables whose entries are ints around
the label range, bools, floats, nulls, strings or lists, plus valid braces
relabeled so that the identity moves off 0, with one entry replaced by an
alias of a label (-1, true, 2.0, n).  Whatever the document, main returns
one of the documented exit codes and never raises, and a document holding
an entry that is not an int label 0..n-1 never passes.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from braceforge import cli
from braceforge.cli import main
from braceforge.construct import enumerate_braces

# 1 (internal error) is documented too, but it signals a bug in this package
DOCUMENTED = {cli.EXIT_OK, cli.EXIT_CATALOG, cli.EXIT_BOUND, cli.EXIT_VALIDATION,
              cli.EXIT_THEOREM, cli.EXIT_NOT_SOLUBLE, cli.EXIT_IO}
COMMANDS = ("analyze", "decompose")
SMALL_BRACES = [(e.brace.add.table, e.brace.mul.table)
                for n in range(2, 5) for e in enumerate_braces(n)]
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def entries(n: int):
    return st.one_of(st.integers(-2, n + 1), st.booleans(), st.floats(), st.none(),
                     st.text(max_size=2), st.lists(st.integers(0, n), max_size=1))


@st.composite
def raw_documents(draw):
    n = draw(st.integers(1, 4))
    table = st.lists(st.lists(entries(n), min_size=n, max_size=n), min_size=n, max_size=n)
    keys = draw(st.sampled_from([("add", "mul"), ("lambda", "rho")]))
    first = draw(table)
    second = draw(st.one_of(st.just(first), table))
    return dict(zip(keys, (first, second)))


@st.composite
def aliased_documents(draw):
    add, mul = draw(st.sampled_from(SMALL_BRACES))
    n = len(add)
    perm = draw(st.permutations(range(n)).filter(lambda p: p[0] != 0))
    tables = {}
    for key, table in (("add", add), ("mul", mul)):
        moved = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                moved[perm[a]][perm[b]] = perm[table[a][b]]
        tables[key] = moved
    which = draw(st.sampled_from(["add", "mul"]))
    row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    label = tables[which][row][col]
    tables[which][row][col] = draw(st.sampled_from(
        [label - n, bool(label) if label < 2 else -1, float(label), label + n]))
    return tables


def is_label_table(table) -> bool:
    n = len(table)
    return all(type(v) is int and 0 <= v < n for row in table for v in row)


def run_document(data: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for command in COMMANDS:
            code = main([command, str(path)])
            assert code in DOCUMENTED, (command, data, code)
            if code == cli.EXIT_OK:
                assert all(is_label_table(t) for t in data.values()), (command, data)


@given(raw_documents())
@FUZZ
def test_raw_tables_end_in_documented_exit_codes(data):
    run_document(data)


@given(aliased_documents())
@FUZZ
def test_aliased_labels_never_pass(data):
    run_document(data)
