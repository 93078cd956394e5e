"""Batch command-line frontend: census, dossiers, theorem sweeps, decompositions.

Exit codes: 0 pass, 2 missing catalog or a command line the parser refuses
(an unknown scope or option, a non-integer --order), 3 bound exceeded or
BRACEFORGE_BOUND not a positive integer (checked at startup, whatever the
command), 4 invalid input (including a document that is not a JSON object,
tables that are not square lists of lists and verify --max-order below 1),
5 theorem violation (the counterexample follows on stderr as JSON, with the
brace it failed on when there is one), 6 not soluble, 7 an output file could
not be written, 1 internal error.  BRACEFORGE_BOUND is the only size setting;
see groups.enumeration_bound.  All output is deterministic.  On a solution
document, decompose reports the <lambda_x, rho_y>-orbit partition, found in
O(m^2) time on m points.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence

from . import jsonio
from .braces import SkewBrace, is_isomorphic
from .catalog import alternating_5
from .construct import (
    CensusEntry,
    enumerate_braces,
    oracle_enumerate_braces,
    simple_inner_regular_subgroups,
)
from .errors import (
    BoundExceeded,
    BraceforgeError,
    BraidFailed,
    CatalogMissing,
    Degenerate,
    EmbeddingIncompatible,
    GroupInvalid,
    GroupValidationError,
    BraceAxiomFailed,
    InvalidBound,
    InvalidDocument,
    NotAnIdeal,
    NotSoluble,
    OutputError,
    SeriesInvalid,
    TheoremViolation,
)
from .groups import _prime_power, enumeration_bound
from .structure import (
    abelian_step,
    all_ideals,
    annihilator_quotient_test,
    chief_series_as_abelian,
    derived_series,
    dossier,
    is_soluble,
    verify_no_proper_subbraces,
    verify_soluble_chief_factors,
)
from .ybe import (
    embedded_multidecomposition,
    ideal_coset_decomposition,
    multidecomposition_from_series,
    orbit_partition,
    r_closed_subsets,
    solution_from_brace,
    verify_multidecomposition,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CATALOG = 2
EXIT_BOUND = 3
EXIT_VALIDATION = 4
EXIT_THEOREM = 5
EXIT_NOT_SOLUBLE = 6
EXIT_IO = 7

VERIFY_SCOPES = ("A", "B", "C", "D", "lemma-GIntG", "prop-central-commut")


def _emit(report: dict, out: str | None) -> None:
    text = jsonio.dumps(report)
    if out:
        jsonio.write_text(out, text)
    else:
        sys.stdout.write(text)


def _json_value(value):
    """value as JSON data: its to_json() when it has one, else lists, ints and strings."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (set, frozenset)):
        value = sorted(value)
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value if value is None or isinstance(value, (bool, int, str)) else str(value)


def _census_range(max_order: int) -> list[CensusEntry]:
    return [entry for n in range(1, max_order + 1) for entry in enumerate_braces(n)]


def cmd_enumerate(args) -> int:
    # the oracle runs first, so an order above its bound fails before any census is written
    oracle = oracle_enumerate_braces(args.order) if args.oracle_check else None
    entries = enumerate_braces(args.order)
    lines = jsonio.census_to_lines(entries)
    summary = f"order {args.order}: {len(entries)} classes\n"
    if args.out:
        jsonio.write_text(args.out, lines)
        notes = sys.stdout
    else:
        sys.stdout.write(lines)
        notes = sys.stderr  # stdout carries the census alone, as JSON lines
    notes.write(summary)
    if oracle is not None:
        if not _same_classes([e.brace for e in entries], oracle):
            sys.stderr.write("oracle cross-check FAILED\n")
            return EXIT_INTERNAL
        notes.write(f"oracle agrees: {len(oracle)} classes\n")
    return EXIT_OK


def _same_classes(left: list[SkewBrace], right: list[SkewBrace]) -> bool:
    if len(left) != len(right):
        return False
    unmatched = list(right)
    for b in left:
        hit = next((i for i, c in enumerate(unmatched)
                    if is_isomorphic(b, c) is not None), None)
        if hit is None:
            return False
        unmatched.pop(hit)
    return True


def cmd_oracle(args) -> int:
    braces = oracle_enumerate_braces(args.order)
    if args.out:
        lines = "".join(jsonio.dumps_line(jsonio.brace_to_json(b)) for b in braces)
        jsonio.write_text(args.out, lines)
    sys.stdout.write(f"order {args.order}: {len(braces)} classes (oracle)\n")
    return EXIT_OK


def cmd_analyze(args) -> int:
    brace, report = jsonio.load_brace(args.input)
    data = dossier(brace)
    data["load"] = report.to_json()
    _emit(data, args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    data = jsonio.read_object(args.input)
    if "lambda" in data or "rho" in data:
        orbits = orbit_partition(jsonio.load_solution_data(data))
        decomposable = len(orbits.blocks) >= 2
        _emit({"input": "solution", "decomposable": decomposable,
               "partition": orbits.to_json() if decomposable else None}, args.out)
        return EXIT_OK
    brace, _ = jsonio.load_brace_data(data)
    # the chief series is the finest canonical abelian series of a soluble brace
    witness = multidecomposition_from_series(brace, chief_series_as_abelian(brace))
    out = witness.to_json()
    out["input"] = "brace"
    out["checks"] = verify_multidecomposition(solution_from_brace(brace), witness)
    _emit(out, args.out)
    return EXIT_OK


def _verify_A(max_order: int) -> dict:
    entries = _census_range(max_order)
    report = verify_no_proper_subbraces([e.brace for e in entries])
    primes = [n for n in range(2, max_order + 1) if _prime_power(n) == n]
    got = sorted(q["order"] for q in report.qualifying)
    if got != primes:
        raise TheoremViolation(
            f"braces without proper subbraces have orders {got}, expected {primes}",
            (got, primes))
    return {"checked": report.checked,
            "qualifying_orders": got,
            "statement": "braces without proper subbraces are exactly the "
                         "trivial braces of prime order"}


def _soluble_sweep(max_order: int, check: Callable[[SkewBrace], dict]) -> dict:
    """Run check on every soluble census brace of order at most max_order."""
    entries = _census_range(max_order)
    soluble = [e.brace for e in entries if is_soluble(e.brace)]
    details = [check(b) for b in soluble]
    return {"checked": len(entries), "soluble": len(soluble), "braces": details}


def _verify_B(max_order: int, exhaustive: bool) -> dict:
    def check(b: SkewBrace) -> dict:
        rep = verify_soluble_chief_factors(b, exhaustive=exhaustive)
        return {"order": b.order,
                "factors": [r.to_json() for r in rep.factor_reports],
                "maximal_subbrace_indices": [i for _, i in rep.maximal_subbrace_indices]}

    return _soluble_sweep(max_order, check)


def _verify_C(max_order: int) -> dict:
    def check(b: SkewBrace) -> dict:
        witness = multidecomposition_from_series(b, derived_series(b))
        corollary = 0
        for ideal in all_ideals(b):
            if ideal == b.carrier():
                continue
            if not abelian_step(b, b.carrier(), ideal):
                ideal_coset_decomposition(b, ideal)
                corollary += 1
        return {"order": b.order, "levels": len(witness.partitions),
                "uniform": witness.uniform, "coset_decompositions": corollary}

    return _soluble_sweep(max_order, check)


def _verify_D(max_order: int) -> dict:
    def check(b: SkewBrace) -> dict:
        series = derived_series(b)
        solution = solution_from_brace(b)
        last_nonzero = series.chain[-2] if len(series.chain) > 1 else series.chain[0]
        identity = list(range(b.order))
        witnesses = 0
        for X in r_closed_subsets(solution):
            if b.order > 1 and not X & last_nonzero:
                continue
            embedded_multidecomposition(solution, X, b, identity, series)
            witnesses += 1
        return {"order": b.order, "subsets": witnesses}

    return _soluble_sweep(max_order, check)


def _verify_lemma_gintg() -> dict:
    G = alternating_5()
    subs = simple_inner_regular_subgroups(G)
    found = [s.assignment for s in subs]
    if len(subs) != 2:
        raise TheoremViolation(f"expected 2 regular subgroups, found {len(subs)}", found)
    identity = tuple(range(G.order))
    flat = tuple(identity for _ in G.elements())
    conj = tuple(tuple(G.conjugate(G.inv(g), x) for x in G.elements())
                 for g in G.elements())
    got = {tuple(s.perm(g) for g in G.elements()) for s in subs}
    if got != {flat, conj}:
        raise TheoremViolation("regular subgroups differ from the expected pair", found)
    return {"group": "A5", "regular_subgroups": 2,
            "witnesses": ["G x 1", "{(a, conj by a^-1)}"]}


def _verify_central_commut(max_order: int) -> dict:
    entries = _census_range(max_order)

    def check(b: SkewBrace) -> int:
        pairs = 0
        ideals = all_ideals(b)
        for I in ideals:
            for J in ideals:
                if J <= I:
                    annihilator_quotient_test(b, I, J)
                    pairs += 1
        return pairs

    return {"checked": len(entries), "ideal_pairs": sum(check(e.brace) for e in entries)}


def cmd_verify(args) -> int:
    max_order = args.max_order if args.max_order is not None else (12 if args.slow else 8)
    if max_order < 1:
        # an empty census would pass vacuously
        sys.stderr.write(f"validation failed: --max-order must be at least 1, got {max_order}\n")
        return EXIT_VALIDATION
    if args.scope == "A":
        body = _verify_A(max_order)
    elif args.scope == "B":
        body = _verify_B(max_order, args.exhaustive_series)
    elif args.scope == "C":
        body = _verify_C(max_order)
    elif args.scope == "D":
        body = _verify_D(max_order)
    elif args.scope == "lemma-GIntG":
        body = _verify_lemma_gintg()
    else:
        body = _verify_central_commut(max_order)
    report = {"scope": args.scope, "max_order": max_order, "pass": True}
    report.update(body)
    _emit(report, args.out)
    sys.stdout.write(f"verify {args.scope}: pass\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braceforge",
        description="Finite skew braces, their structure, and Yang-Baxter solutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="census of all braces of one order")
    p_enum.add_argument("--order", type=int, required=True)
    p_enum.add_argument("--out")
    p_enum.add_argument("--oracle-check", action="store_true")
    p_enum.set_defaults(fn=cmd_enumerate)

    p_oracle = sub.add_parser("oracle", help="independent census by exhaustive scan")
    p_oracle.add_argument("--order", type=int, required=True)
    p_oracle.add_argument("--out")
    p_oracle.set_defaults(fn=cmd_oracle)

    p_analyze = sub.add_parser("analyze", help="structural dossier of a brace file")
    p_analyze.add_argument("input")
    p_analyze.add_argument("--out")
    p_analyze.set_defaults(fn=cmd_analyze)

    p_verify = sub.add_parser("verify", help="run a theorem sweep over the census")
    p_verify.add_argument("scope", choices=VERIFY_SCOPES)
    p_verify.add_argument("--max-order", type=int, default=None)
    p_verify.add_argument("--slow", action="store_true")
    p_verify.add_argument("--exhaustive-series", action="store_true")
    p_verify.add_argument("--out")
    p_verify.set_defaults(fn=cmd_verify)

    p_dec = sub.add_parser("decompose", help="decomposition witness for a brace or solution")
    p_dec.add_argument("input")
    p_dec.add_argument("--out")
    p_dec.set_defaults(fn=cmd_decompose)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        enumeration_bound()  # a bad BRACEFORGE_BOUND fails every command, not only those it limits
        return args.fn(args)
    except CatalogMissing as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CATALOG
    except (BoundExceeded, InvalidBound) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BOUND
    except (GroupValidationError, GroupInvalid, BraceAxiomFailed, Degenerate,
            BraidFailed, NotAnIdeal, SeriesInvalid, EmbeddingIncompatible,
            InvalidDocument, json.JSONDecodeError, UnicodeDecodeError, KeyError,
            OSError) as exc:
        sys.stderr.write(f"validation failed: {exc}\n")
        return EXIT_VALIDATION
    except TheoremViolation as exc:
        sys.stderr.write(f"THEOREM VIOLATION (implementation bug): {exc}\n")
        if exc.counterexample is not None:
            record = {"statement": str(exc), "counterexample": _json_value(exc.counterexample)}
            if exc.brace is not None:
                record["brace"] = jsonio.brace_to_json(exc.brace)
            sys.stderr.write(jsonio.dumps(record))
        return EXIT_THEOREM
    except NotSoluble as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NOT_SOLUBLE
    except OutputError as exc:
        sys.stderr.write(f"I/O error: {exc}\n")
        return EXIT_IO
    except BraceforgeError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
