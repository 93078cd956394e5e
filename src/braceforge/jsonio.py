"""Deterministic JSON formats: groups, braces, solutions, census lines, reports.

Loaders run full validation and refuse silently-invalid input.  Tables whose
identity is not at index 0 are relabeled on load and the permutation used is
recorded in the load report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from .braces import SkewBrace, validate_brace
from .construct import CensusEntry
from .errors import InvalidDocument, NoIdentityAtZero, OutputError
from .groups import FiniteGroup, Perm, validate_group
from .ybe import Solution, validate_solution


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dumps_line(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def read_object(path: str | Path) -> dict:
    """Parse a JSON file; every document format here is an object.

    A document nested too deeply for the parser's recursion is refused as
    InvalidDocument, like any other text that is not an object.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except RecursionError:
        raise InvalidDocument(f"{path} nests JSON too deeply to parse") from None
    if not isinstance(data, dict):
        raise InvalidDocument(f"{path} holds a JSON {type(data).__name__}, not an object")
    return data


@dataclass(frozen=True)
class LoadReport:
    """How a file was brought into canonical form."""

    relabeling: Perm | None  # old index -> new index, None when untouched

    def to_json(self) -> dict:
        return {"relabeling": list(self.relabeling) if self.relabeling else None}


def _square_tables(data: dict, *keys: str) -> list:
    """data[key] for each key, refused unless all are present n x n lists of lists for one n.

    Only the shape is checked, and no validator runs; the validators judge the entries.
    """
    for key in keys:
        if key not in data:
            raise InvalidDocument(f"missing key {key!r}")
    tables = [data[key] for key in keys]
    n = len(tables[0]) if isinstance(tables[0], (list, tuple)) else -1
    for key, table in zip(keys, tables):
        if not (isinstance(table, (list, tuple)) and len(table) == n
                and all(isinstance(row, (list, tuple)) and len(row) == n for row in table)):
            raise InvalidDocument(f"{key!r} is not a square list of lists"
                                  + (f" of the size of {keys[0]!r}" if key != keys[0] else ""))
    return tables


def _check_declared(data: dict, key: str, n: int) -> None:
    """Refuse a declared data[key] that is not an int equal to the table size n."""
    if key in data and (type(data[key]) is not int or data[key] != n):
        raise InvalidDocument(f"declared {key} {json.dumps(data[key])} is not the table size {n}")


def _find_identity(table: Sequence[Sequence[int]]) -> int:
    """The two-sided identity; 0 for an empty table, so the validator refuses it as empty."""
    n = len(table)
    if not n:
        return 0
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            return e
    raise NoIdentityAtZero(-1)


def _relabel(table: Sequence[Sequence[int]], perm: Perm) -> list[list[int]]:
    """Move every entry by perm; an entry that is no label 0..n-1 (-1, true, 1.5, n)
    stays as it is, so the validator refuses it as it would at identity 0."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            v = table[a][b]
            out[perm[a]][perm[b]] = perm[v] if type(v) is int and 0 <= v < n else v
    return out


def _identity_first(*tables: Sequence[Sequence[int]]) -> tuple[tuple, Perm | None]:
    """The tables with the first one's identity moved to 0, and the swap used.

    Every table is relabelled by the swap of 0 and the identity; the
    relabeling is None, and the tables come back as given, when it is at 0.
    """
    e = _find_identity(tables[0])
    if e == 0:
        return tables, None
    perm = list(range(len(tables[0])))
    perm[0], perm[e] = e, 0
    relabeling = tuple(perm)
    return tuple(_relabel(t, relabeling) for t in tables), relabeling


def group_to_json(G: FiniteGroup) -> dict:
    return {"order": G.order, "table": [list(r) for r in G.table]}


def load_group_data(data: dict) -> tuple[FiniteGroup, LoadReport]:
    table, = _square_tables(data, "table")
    _check_declared(data, "order", len(table))
    (table,), relabeling = _identity_first(table)
    return validate_group(table), LoadReport(relabeling)


def load_group(path: str | Path) -> tuple[FiniteGroup, LoadReport]:
    return load_group_data(read_object(path))


def brace_to_json(B: SkewBrace) -> dict:
    return {"order": B.order,
            "add": [list(r) for r in B.add.table],
            "mul": [list(r) for r in B.mul.table]}


def load_brace_data(data: dict) -> tuple[SkewBrace, LoadReport]:
    add, mul = _square_tables(data, "add", "mul")
    _check_declared(data, "order", len(add))
    (add, mul), relabeling = _identity_first(add, mul)
    return validate_brace(add, mul), LoadReport(relabeling)


def load_brace(path: str | Path) -> tuple[SkewBrace, LoadReport]:
    return load_brace_data(read_object(path))


def solution_to_json(S: Solution) -> dict:
    return S.to_json()


def load_solution_data(data: dict) -> Solution:
    lam, rho = _square_tables(data, "lambda", "rho")
    _check_declared(data, "size", len(lam))
    return validate_solution(lam, rho)


def load_solution(path: str | Path) -> Solution:
    return load_solution_data(read_object(path))


def census_entry_to_json(entry: CensusEntry, index: int) -> dict:
    return {
        "index": index,
        "order": entry.order,
        "add_group": {"id": entry.add_group_id, "name": entry.add_group_name},
        "mul_group": {"id": entry.mul_group_id, "name": entry.mul_group_name},
        "add": [list(r) for r in entry.brace.add.table],
        "mul": [list(r) for r in entry.brace.mul.table],
        "provenance": {"phi": [list(entry.provenance.perm(g))
                               for g in entry.brace.elements()]},
    }


def census_to_lines(entries: Sequence[CensusEntry]) -> str:
    return "".join(dumps_line(census_entry_to_json(e, i))
                   for i, e in enumerate(entries))
