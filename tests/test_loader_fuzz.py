"""Fuzzing the CLI's input boundary: every document ends in a documented exit code.

Documents are small brace or solution tables whose entries are ints around
the label range, bools, floats, nulls, strings or lists, plus valid braces
relabeled so that the identity moves off 0, with one entry replaced by an
alias of a label (-1, true, 2.0, n), plus census braces and their solutions
under corruptions that keep every table Latin and every row a bijection (a
2x2 Latin subsquare flipped in add or mul, or two entries swapped in one
lambda or rho row), so the group, brace and braid laws decide them.  Whatever
the document, main returns one of the documented exit codes and never
raises, a document holding an entry that is not an int label 0..n-1 never
passes, and a Latin-preserving corruption is never refused by the Latin or
bijectivity checks.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from braceforge import cli, jsonio
from braceforge.cli import main
from braceforge.construct import enumerate_braces
from braceforge.errors import (
    BraceAxiomFailed,
    BraidFailed,
    GroupInvalid,
    NotAssociative,
)
from braceforge.ybe import solution_from_brace

# 1 (internal error) is documented too, but it signals a bug in this package
DOCUMENTED = {cli.EXIT_OK, cli.EXIT_CATALOG, cli.EXIT_BOUND, cli.EXIT_VALIDATION,
              cli.EXIT_THEOREM, cli.EXIT_NOT_SOLUBLE, cli.EXIT_IO}
COMMANDS = ("analyze", "decompose")
SMALL_BRACES = [(e.brace.add.table, e.brace.mul.table)
                for n in range(2, 5) for e in enumerate_braces(n)]
LAW_BRACES = [(e.brace.add.table, e.brace.mul.table)
              for n in range(4, 9) for e in enumerate_braces(n)]
LAW_SOLUTIONS = [(S.lambda_tab, S.rho_tab) for n in range(2, 9)
                 for S in (solution_from_brace(e.brace) for e in enumerate_braces(n))]
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


def intercalates(table) -> list[tuple[int, int, int, int]]:
    """(r1, r2, c1, c2) of every 2x2 Latin subsquare off row and column 0."""
    n = len(table)
    return [(r1, r2, c1, c2)
            for r1 in range(1, n) for r2 in range(r1 + 1, n)
            for c1 in range(1, n) for c2 in range(c1 + 1, n)
            if table[r1][c1] == table[r2][c2] and table[r1][c2] == table[r2][c1]]


@st.composite
def law_breaking_documents(draw):
    if draw(st.booleans()):
        add, mul = draw(st.sampled_from(LAW_BRACES))
        tables = {"add": [list(r) for r in add], "mul": [list(r) for r in mul]}
        table = tables[draw(st.sampled_from(["add", "mul"]))]
        quads = intercalates(table)
        if quads:
            r1, r2, c1, c2 = draw(st.sampled_from(quads))
            for r in (r1, r2):
                table[r][c1], table[r][c2] = table[r][c2], table[r][c1]
        return tables
    lam, rho = draw(st.sampled_from(LAW_SOLUTIONS))
    tables = {"lambda": [list(r) for r in lam], "rho": [list(r) for r in rho]}
    m = len(lam)
    row = tables[draw(st.sampled_from(["lambda", "rho"]))][draw(st.integers(0, m - 1))]
    i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
    row[i], row[j] = row[j], row[i]
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


@given(law_breaking_documents())
@FUZZ
def test_latin_preserving_corruptions_reach_the_laws(data):
    try:
        if "lambda" in data:
            jsonio.load_solution_data(data)
        else:
            jsonio.load_brace_data(data)
    except (GroupInvalid, BraceAxiomFailed, BraidFailed) as exc:
        assert isinstance(getattr(exc, "cause", exc),
                          (NotAssociative, BraceAxiomFailed, BraidFailed)), (data, exc)
    run_document(data)
