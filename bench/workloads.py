"""The four benchmark workloads: census, structure, embedded and ingest.

A workload is a closed loop with one client: it issues one op, waits for it,
checks its output, then issues the next.  Ops come in passes; every pass
runs the same label-invariant set of work in a seeded order on seeded
relabellings (`variants` of them, built by `make_inputs` into `inputs` and
cycled over passes), so the amount of work per pass does not depend on the
seed.

Each op is an `Op`: `make` builds fresh, cache-empty arguments (untimed),
`run` is the timed call into braceforge, `check` raises `Mismatch` when the
output is wrong (untimed), and `then`, when set, turns the output into
follow-up ops of the same pass.

Set-up (`setup`, timed as setup_s) is the library's own set-up: the catalog
build and, for structure, embedded and ingest, the census of orders 1..15
that their inputs come from.  Input generation (`make_inputs`) runs once
after it, untimed: it is benchmark code that no library change can move.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

import gen
import tracing

ORDERS = range(1, 16)
# Guarnieri-Vendramin 2017: skew braces of order n up to isomorphism, n = 1..15
CENSUS_CLASSES = (1, 1, 1, 4, 1, 6, 1, 47, 4, 6, 1, 38, 1, 6, 1)
EMBEDDED_MAX_ORDER = 12
SUBSETS_PER_BRACE = 12


class Mismatch(Exception):
    """An op's output differs from the pinned or expected value."""


@dataclass
class Op:
    kind: str
    label: str
    make: Callable[[], tuple]
    run: Callable[..., Any]
    check: Callable[[Any], None]
    then: Callable[[Any], list] | None = None


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def build_catalog(bf) -> tuple[dict, Any]:
    """Rebuild the group catalog with its cached builders cleared; returns ({n: entries}, A5)."""
    for value in list(vars(bf.catalog).values()):
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    return {n: bf.catalog.groups_of_order(n) for n in ORDERS}, bf.catalog.alternating_5()


def build_census(bf) -> dict[int, list[tuple]]:
    """(add, mul) tables of every census brace, by order, in census order."""
    return {n: [(e.brace.add.table, e.brace.mul.table) for e in bf.construct.enumerate_braces(n)]
            for n in ORDERS}


def census_table_problems(classes: dict) -> list[str]:
    """Differences between per-group census class counts and the published table."""
    sums = tuple(sum(classes[str(n)]) for n in ORDERS)
    return [] if sums == CENSUS_CLASSES else [
        f"census classes per order {sums} differ from the published table {CENSUS_CLASSES}"]


def relabel_brace(add, mul, p) -> tuple[tuple, tuple]:
    return gen.frozen(gen.relabel(add, p)), gen.frozen(gen.relabel(mul, p))


def chief_kinds(report) -> list[list]:
    """Sorted [kind, factor order, prime] of the chief factors in a soluble-brace report."""
    return sorted([r.kind, len(r.upper) // len(r.lower), r.p_elementary]
                  for r in report.factor_reports)


def meeting_last_term(B, series, subsets) -> list:
    """The subsets that meet the last nontrivial derived term (all of them at order 1)."""
    last = series.chain[-2] if len(series.chain) > 1 else series.chain[0]
    return [X for X in subsets if B.order == 1 or X & last]


class Workload:
    name = ""
    variants = 4
    setup_reps = 5
    # op_tail_ms percentile: the highest of p95 and p99 that leaves well over ten
    # samples beyond it in a 20 s run, fixed so it cannot jump when the count changes
    tail_percentile = 99

    def __init__(self, bf, pins: dict, seed: int):
        self.bf, self.pins, self.seed = bf, pins, seed
        self.problems: list[str] = []  # pinned-counter failures found outside ops

    def setup(self):
        """The library's set-up, timed; returns what make_inputs needs."""
        raise NotImplementedError

    def make_inputs(self, built) -> None:
        """Seeded inputs, as `variants` lists in self.inputs; untimed."""
        raise NotImplementedError

    def pass_ops(self, p: int) -> list[Op]:
        raise NotImplementedError

    def audit(self) -> list[str]:
        """Pinned counters that need instrumentation; run once, untimed."""
        return []

    def _order(self, p: int, items: list) -> list:
        items = list(items)
        gen.rng(self.seed, self.name, "order", p).shuffle(items)
        return items

    def _relabel_census(self, census, max_order: int) -> None:
        """Set self.braces to (order, index, pin) of each soluble census brace up
        to max_order, and self.inputs to seeded relabellings of their tables."""
        self.braces = []
        for n in ORDERS:
            pins = self.pins["braces"][str(n)]
            if len(pins) != len(census[n]):
                self.problems.append(f"census has {len(census[n])} braces of order {n}, "
                                     f"pins list {len(pins)}")
            if n <= max_order:
                self.braces += [(n, i, pin) for i, pin in enumerate(pins) if pin is not None]
        self.inputs = []
        for v in range(self.variants):
            r = gen.rng(self.seed, self.name, v)
            self.inputs.append([relabel_brace(*census[n][i], gen.perm_fixing_zero(r, n))
                                for n, i, _ in self.braces])


class Census(Workload):
    """enumerate_braces over a relabelled catalog group, one group per op, plus A5."""

    name = "census"
    variants = 8
    setup_reps = 15  # the catalog alone builds in a few tens of milliseconds
    tail_percentile = 95

    def setup(self):
        return build_catalog(self.bf)

    def make_inputs(self, built) -> None:
        catalog, a5 = built
        groups = [(n, e.id, e.group.table) for n in ORDERS for e in catalog[n]]
        self.inputs = []
        for v in range(self.variants):
            r = gen.rng(self.seed, self.name, v)
            tables = [(n, gid, gen.frozen(gen.relabel(t, gen.perm_fixing_zero(r, n))))
                      for n, gid, t in groups]
            a5t = gen.frozen(gen.relabel(a5.table, gen.perm_fixing_zero(r, a5.order)))
            self.inputs.append((tables, a5t, _a5_expected(a5t)))

    def pass_ops(self, p: int) -> list[Op]:
        tables, a5t, a5_expected = self.inputs[p % self.variants]
        ops = [self._census_op(n, gid, t) for n, gid, t in tables]
        ops.append(Op("a5", "A5 inner regular subgroups",
                      lambda: (self.bf.groups.validate_group(a5t),),
                      self.bf.construct.simple_inner_regular_subgroups,
                      lambda out: _check_a5(out, a5_expected)))
        return self._order(p, ops)

    def _census_op(self, n: int, gid: int, table) -> Op:
        bf = self.bf
        want = self.pins["census"]["classes"][str(n)][gid]

        def check(out):
            expect(len(out) == want, f"{len(out)} classes, pinned {want}")
            expect(all(e.brace.add.table == table for e in out), "census brace over another group")

        return Op("census", f"order {n} group {gid}",
                  lambda: (bf.groups.validate_group(table),),
                  lambda G: bf.construct.enumerate_braces(n, extra_groups=[G]),
                  check)

    def audit(self) -> list[str]:
        raw = {n: 0 for n in ORDERS}
        for n, gid, table in self.inputs[0][0]:
            raw[n] += len(self.bf.groups.regular_subgroups(self.bf.groups.validate_group(table)))
        want = {int(k): v for k, v in self.pins["census"]["raw_regular_subgroups"].items()}
        return [] if raw == want else [f"raw regular subgroups per order {raw}, pinned {want}"]


def _a5_expected(table) -> set:
    """The two regular subgroups G x 1 and {(g, conjugation by g^-1)} of Inn-Hol(A5)."""
    n = len(table)
    inv = [row.index(0) for row in table]
    flat = tuple(tuple(range(n)) for _ in range(n))
    conj = tuple(tuple(table[table[inv[g]][x]][g] for x in range(n)) for g in range(n))
    return {flat, conj}


def _check_a5(out, expected) -> None:
    expect(len(out) == 2, f"A5 gave {len(out)} regular subgroups, expected 2")
    got = {tuple(H.perm(g) for g in range(len(H.assignment))) for H in out}
    expect(got == expected, "A5 regular subgroups are not G x 1 and the conjugation one")


class Structure(Workload):
    """Per-brace checks of verify scopes B and C and prop-central-commut."""

    name = "structure"

    def setup(self):
        build_catalog(self.bf)
        return build_census(self.bf)

    def make_inputs(self, built) -> None:
        self._relabel_census(built, max(ORDERS))

    def pass_ops(self, p: int) -> list[Op]:
        tables = self.inputs[p % self.variants]
        ops = []
        for (n, i, pin), (add, mul) in zip(self.braces, tables):
            fresh = (lambda add=add, mul=mul: (self.bf.braces.validate_brace(add, mul),))
            label = f"brace {n}/{i}"
            ops.append(Op("chief", label, fresh, self.bf.structure.verify_soluble_chief_factors,
                          lambda out, pin=pin: _check_chief(out, pin)))
            ops.append(Op("series", label, fresh, self._series,
                          lambda out, pin=pin: expect(out == (True, pin["dl"], pin["cosets"], True),
                                                      f"series op gave {out}")))
            ops.append(Op("central", label, fresh, self._central,
                          lambda out, pin=pin: expect(out == (pin["pairs"], pin["central"]),
                                                      f"central op gave {out}")))
        return self._order(p, ops)

    def _series(self, B):
        """Scope C on one brace: derived-series witness and coset decompositions."""
        bf = self.bf
        witness = bf.ybe.multidecomposition_from_series(B, bf.structure.derived_series(B))
        cosets, blocks_ok = 0, True
        for ideal in bf.structure.all_ideals(B):
            if ideal != B.carrier() and bf.braces.quotient(B, ideal).brace.is_abelian:
                partition = bf.ybe.ideal_coset_decomposition(B, ideal)
                blocks_ok &= len(partition.blocks) == B.order // len(ideal)
                cosets += 1
        return witness.uniform, len(witness.partitions), cosets, blocks_ok

    def _central(self, B):
        """prop-central-commut on one brace: every ideal pair J <= I."""
        ideals = self.bf.structure.all_ideals(B)
        pairs = central = 0
        for I in ideals:
            for J in ideals:
                if J <= I:
                    central += self.bf.structure.annihilator_quotient_test(B, I, J)[0]
                    pairs += 1
        return pairs, central


def _check_chief(report, pin) -> None:
    indices = sorted(index for _, index in report.maximal_subbrace_indices)
    expect(indices == pin["max_index"], f"maximal subbrace indices {indices}")
    kinds = chief_kinds(report)
    expect(kinds == pin["chief"], f"chief factors [kind, order, prime] {kinds}")


class Embedded(Workload):
    """Scope D split into ops: prepare a brace, then one op per r-closed subset."""

    name = "embedded"

    def setup(self):
        build_catalog(self.bf)
        return build_census(self.bf)

    def make_inputs(self, built) -> None:
        self._relabel_census(built, EMBEDDED_MAX_ORDER)

    def pass_ops(self, p: int) -> list[Op]:
        tables = self.inputs[p % self.variants]
        return self._order(p, [self._prepare_op(p, n, i, pin, add, mul)
                               for (n, i, pin), (add, mul) in zip(self.braces, tables)])

    def _prepare_op(self, p, n, i, pin, add, mul) -> Op:
        bf = self.bf

        def run(B):
            series = bf.structure.derived_series(B)
            solution = bf.ybe.solution_from_brace(B)
            return B, series, solution, bf.ybe.r_closed_subsets(solution)

        def check(out):
            B, series, _, subsets = out
            meeting = len(meeting_last_term(B, series, subsets))
            expect(len(subsets) == pin["r_closed"], f"{len(subsets)} r-closed subsets")
            expect(meeting == pin["meeting"], f"{meeting} meet the last term")
            expect(len(series.chain) - 1 == pin["dl"], "derived length")

        def then(out):
            B, series, solution, subsets = out
            candidates = meeting_last_term(B, series, subsets)
            r = gen.rng(self.seed, self.name, "subsets", p, n, i)
            picks = r.sample(range(len(candidates)), min(SUBSETS_PER_BRACE, len(candidates)))
            embed = list(range(B.order))
            return [Op("subset", f"brace {n}/{i} pick {j}",
                       lambda X=candidates[k]: (solution, X, B, embed, series),
                       bf.ybe.embedded_multidecomposition,
                       lambda w, X=candidates[k]: _check_witness(bf, solution, X, w))
                    for j, k in enumerate(picks)]

        return Op("prepare", f"brace {n}/{i}", lambda: (bf.braces.validate_brace(add, mul),),
                  run, check, then)


def _check_witness(bf, solution, X, witness) -> None:
    expect(witness.ground == X, "witness over another subset")
    checks = bf.ybe.verify_multidecomposition(solution, witness)
    expect(checks["ok"], f"verify_multidecomposition: {checks}")


class Ingest(Workload):
    """Parse and load one JSON document per op; a quarter of them are corrupted."""

    name = "ingest"
    variants = len(gen.BRACE_KINDS)  # a full cycle gives every stratum every kind

    def setup(self):
        _, a5 = build_catalog(self.bf)
        return build_census(self.bf), a5

    def make_inputs(self, built) -> None:
        census, a5 = built
        self.inputs = [gen.ingest_docs(census, a5.table, self.seed, v)
                       for v in range(self.variants)]

    def _load(self, text: str):
        bf = self.bf
        data = json.loads(text)
        try:
            if "lambda" in data:
                return bf.jsonio.load_solution_data(data)
            return bf.jsonio.load_brace_data(data)
        except bf.errors.BraceforgeError as exc:
            return exc

    def pass_ops(self, p: int) -> list[Op]:
        return [Op("load", f"{d.label} {d.expect or 'valid'}", lambda d=d: (d.text,), self._load,
                   lambda out, d=d: self._check(d, out))
                for d in self.inputs[p % self.variants]]

    def _check(self, doc: gen.Doc, out) -> None:
        errors = self.bf.errors
        if doc.expect is None:
            expect(not isinstance(out, Exception), f"valid {doc.kind} rejected: {out!r}")
            if doc.kind == "brace":
                brace, report = out
                expect((brace.add.table, brace.mul.table) == doc.tables, "loaded tables differ")
                expect(report.relabeling == doc.relabeling, "wrong identity relabeling")
            else:
                expect((out.lambda_tab, out.rho_tab) == doc.tables, "loaded solution differs")
            return
        kind = doc.expect
        if kind == "braid":
            ok = isinstance(out, errors.BraidFailed)
        elif kind == "brace-law":
            ok = isinstance(out, errors.BraceAxiomFailed)
        else:
            cause = errors.NotClosed if kind.startswith("latin") else errors.NotAssociative
            ok = (isinstance(out, errors.GroupInvalid) and out.which == kind.split("-")[1]
                  and isinstance(out.cause, cause))
        expect(ok, f"{kind} corruption gave {out!r}")

    def validation_counts(self) -> dict[str, int]:
        """Validator calls and rejections over pass 0, counted by wrapping the validators."""
        tracer = tracing.Tracer(span_cap=0)
        saved = tracing.install(tracer)
        try:
            for op in self.pass_ops(0):
                args = op.make()
                tracer.begin_op()
                op.run(*args)
                tracer.end_op()
        finally:
            tracing.uninstall(saved)
        counts = {name: tracer.calls[tracing.INDEX[name]] for name in
                  ("braces.validate_brace", "groups.validate_group", "ybe.validate_solution")}
        counts["rejected"] = int(tracer.metrics(1)["jsonio.rejected"])
        return counts

    def audit(self) -> list[str]:
        got, want = self.validation_counts(), self.pins["ingest"]
        return [] if got == want else [f"ingest validation counts {got}, pinned {want}"]


WORKLOADS = {w.name: w for w in (Census, Structure, Embedded, Ingest)}
