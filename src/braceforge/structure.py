"""Ideal lattice, commutator ideals, solubility, chief series, Frattini theory.

A series is its descending chain of carrier subsets and nothing more.  Abelian
series are checked step by step as they are built, and ybe's series
validation re-checks the chain alone before it builds a witness on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .braces import (
    SkewBrace,
    annihilator,
    classify_subset,
    fix_set,
    kernel_lambda,
    quotient,
    require_ideal,
    socle,
    star,
    sub_brace,
    subbraces,
)
from .errors import InternalInvariant, NotAnIdeal, NotSoluble, TheoremViolation
from .groups import memoised, subgroups, subset_key

ZERO = frozenset({0})


def all_ideals(B: SkewBrace) -> list[frozenset[int]]:
    """Every ideal of B: additive subgroups passing the ideal scans."""
    return [S for S in subgroups(B.add) if classify_subset(B, S).ideal]


def minimal_ideals(B: SkewBrace) -> list[frozenset[int]]:
    """Non-zero ideals containing no other non-zero ideal."""
    ideals = all_ideals(B)
    nonzero = [I for I in ideals if I != ZERO]
    return [I for I in nonzero if not any(J < I for J in nonzero)]


def maximal_ideals(B: SkewBrace) -> list[frozenset[int]]:
    """Proper ideals contained in no other proper ideal."""
    carrier = B.carrier()
    proper = [I for I in all_ideals(B) if I != carrier]
    return [I for I in proper if not any(I < J for J in proper)]


def commutator(B: SkewBrace, I: frozenset[int], J: frozenset[int]) -> frozenset[int]:
    """Smallest ideal containing both group commutators and all ij - (i+j).

    Starting from the additive closure of the generators, alternate closure
    passes (lambda-invariance, additive normality, star absorption, additive
    closure) until the set stabilizes; the carrier is finite so this is a
    fixpoint computation.
    """
    require_ideal(B, I, J)
    gens = set()
    for i in I:
        for j in J:
            gens.add(B.plus(B.plus(B.plus(B.neg(i), B.neg(j)), i), j))
            gens.add(B.times(B.times(B.times(B.tinv(i), B.tinv(j)), i), j))
            gens.add(B.plus(B.times(i, j), B.neg(B.plus(i, j))))
    current = B.add.closure(gens)
    while True:
        grown = set(current)
        for s in current:
            for b in B.elements():
                grown.add(B.lam[b][s])
                grown.add(B.plus(B.plus(b, s), B.neg(b)))
                grown.add(star(B, s, b))
        grown = B.add.closure(grown)
        if grown == current:
            break
        current = frozenset(grown)
    if not classify_subset(B, current).ideal:
        raise InternalInvariant("commutator closure did not reach an ideal")
    return frozenset(current)


def derived_ideal(B: SkewBrace) -> frozenset[int]:
    return commutator(B, B.carrier(), B.carrier())


@dataclass(frozen=True)
class SeriesWitness:
    """A series as its descending chain of carrier subsets; nothing else is stored.

    kind "abelian": each member is an ideal of its predecessor (viewed as a
    standalone brace) with abelian quotient, which ybe's series validation
    re-checks step by step.  kind "chief": each member is an ideal of B and
    each factor is a minimal ideal of the quotient below it.
    """

    kind: str
    chain: tuple[frozenset[int], ...]

    @property
    def terminated(self) -> bool:
        return self.chain[-1] == ZERO

    @property
    def length(self) -> int:
        return len(self.chain) - 1


def abelian_step(B: SkewBrace, upper: frozenset[int], lower: frozenset[int]) -> str | None:
    """None when lower is an ideal of the subbrace upper with abelian quotient, else why not."""
    sb = sub_brace(B, upper)
    local = sb.to_local(lower)
    if not classify_subset(sb.brace, local).ideal:
        return "is not an ideal of"
    return None if quotient(sb.brace, local).brace.is_abelian else "has a non-abelian quotient in"


def _require_abelian_step(B: SkewBrace, upper: frozenset[int], lower: frozenset[int]) -> None:
    problem = abelian_step(B, upper, lower)
    if problem:
        raise InternalInvariant(f"series member {problem} its predecessor")


@memoised
def derived_series(B: SkewBrace) -> SeriesWitness:
    """B, [B,B], [[B,B],[B,B]], ... until stabilization.

    Each term is the commutator ideal of the previous term computed inside it
    as a standalone brace; the witness terminates at {0} exactly when B is
    soluble.
    """
    chain: list[frozenset[int]] = [B.carrier()]
    current = chain[0]
    while current != ZERO:
        sb = sub_brace(B, current)
        nxt = sb.to_global(derived_ideal(sb.brace))
        if nxt == current:
            break
        _require_abelian_step(B, current, nxt)
        chain.append(nxt)
        current = nxt
    return SeriesWitness("abelian", tuple(chain))


def is_soluble(B: SkewBrace) -> bool:
    return derived_series(B).terminated


def derived_length(B: SkewBrace) -> int:
    series = derived_series(B)
    if not series.terminated:
        raise NotSoluble("derived series stabilizes above 0")
    return series.length


def chief_series_as_abelian(B: SkewBrace) -> SeriesWitness:
    """The chief series of a soluble brace, checked step by step as an abelian series.

    Chief factors of a soluble brace are abelian and every member is an ideal
    of the one above it, so the descending chief chain is the finest canonical
    abelian series.
    """
    if not is_soluble(B):
        raise NotSoluble(f"brace of order {B.order} is not soluble")
    chain = chief_series(B).chain
    for upper, lower in zip(chain, chain[1:]):
        _require_abelian_step(B, upper, lower)
    return SeriesWitness("abelian", chain)


def all_abelian_series(B: SkewBrace) -> list[tuple[frozenset[int], ...]]:
    """Every strictly descending abelian ideal series of B, by exhaustion.

    Members at level k are proper ideals of the level-(k-1) subbrace with
    abelian quotient; chains are reported in B's element labels.
    """

    def chains_from(current: frozenset[int]) -> list[tuple[frozenset[int], ...]]:
        if current == ZERO:
            return [(current,)]
        sb = sub_brace(B, current)
        out = []
        for local in all_ideals(sb.brace):
            member = sb.to_global(local)
            if member == current or abelian_step(B, current, member):
                continue
            for tail in chains_from(member):
                out.append((current,) + tail)
        return out

    return chains_from(B.carrier())


def all_chief_series(B: SkewBrace) -> Iterator[SeriesWitness]:
    """Every chief series of B (descending witnesses), lazily, depth first.

    Each level tries the minimal ideals of the current quotient in canonical
    order (by size, then members), so the first series always picks the least.
    """
    carrier = B.carrier()

    def ascend(acc: list[frozenset[int]]) -> Iterator[SeriesWitness]:
        if acc[-1] == carrier:
            yield SeriesWitness("chief", tuple(reversed(acc)))
            return
        q = quotient(B, acc[-1])
        for pick in minimal_ideals(q.brace):
            yield from ascend(acc + [q.preimage(pick)])

    return ascend([ZERO])


@memoised
def chief_series(B: SkewBrace) -> SeriesWitness:
    """The first chief series of all_chief_series: always the least minimal ideal.

    Chief series need not be unique; this one is canonical.
    """
    return next(all_chief_series(B))


def maximal_subbraces(B: SkewBrace) -> list[frozenset[int]]:
    """Maximal elements of the proper-subbrace poset."""
    carrier = B.carrier()
    proper = [S for S in subbraces(B) if S != carrier]
    return [S for S in proper if not any(S < T for T in proper)]


def frattini(B: SkewBrace) -> frozenset[int]:
    """Intersection of all maximal subbraces; B itself when none exist."""
    maxes = maximal_subbraces(B)
    if not maxes:
        return B.carrier()
    out = B.carrier()
    for S in maxes:
        out &= S
    return out


def annihilator_quotient_test(B: SkewBrace, I: frozenset[int],
                              J: frozenset[int]) -> tuple[bool, bool]:
    """(I/J inside the annihilator of B/J, [I,B] inside J); always equal.

    Inequality would contradict the commutator/annihilator correspondence and
    raises InternalInvariant.
    """
    require_ideal(B, I, J)
    if not J <= I:
        raise NotAnIdeal("J must be contained in I")
    q = quotient(B, J)
    central = q.image(I) <= annihilator(q.brace)
    commutes = commutator(B, I, B.carrier()) <= J
    if central != commutes:
        raise InternalInvariant(
            f"annihilator/commutator mismatch: central={central}, commutator={commutes}")
    return central, commutes


@dataclass(frozen=True)
class ChiefFactorReport:
    """Classification of one chief factor upper/lower of B."""

    lower: frozenset[int]
    upper: frozenset[int]
    abelian: bool
    kind: str  # "frattini" | "complemented" | "neither"
    p_elementary: int | None
    complement_witness: frozenset[int] | None  # in B/lower coordinates
    complement_pullback: frozenset[int] | None  # preimage in B
    complements_all_maximal: bool | None

    def to_json(self) -> dict:
        return {
            "lower": sorted(self.lower),
            "upper": sorted(self.upper),
            "abelian": self.abelian,
            "kind": self.kind,
            "p_elementary": self.p_elementary,
            "complement": sorted(self.complement_witness) if self.complement_witness is not None else None,
            "complement_pullback": sorted(self.complement_pullback) if self.complement_pullback is not None else None,
            "complements_all_maximal": self.complements_all_maximal,
        }


def _elementary_abelian_prime(B: SkewBrace, members: frozenset[int]) -> int | None:
    orders = {B.add.element_order(a) for a in members if a != 0}
    if len(orders) != 1:
        return None
    p = orders.pop()
    return p if _prime_power(len(members)) == p else None


def _prime_power(n: int) -> int | None:
    """The prime p when n = p^k with k >= 1, else None."""
    # the least divisor above 1 is prime
    p = next((d for d in range(2, n + 1) if n % d == 0), None)
    if p is None:
        return None
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def classify_chief_factor(B: SkewBrace, lower: frozenset[int],
                          upper: frozenset[int]) -> ChiefFactorReport:
    """Decide Frattini vs complemented for the chief factor upper/lower.

    Works inside Q = B/lower.  An abelian factor that is neither Frattini nor
    complemented contradicts the theory and raises InternalInvariant, as does
    a complement that is not a maximal subbrace.
    """
    q = quotient(B, lower)
    U = q.image(upper)
    if U not in minimal_ideals(q.brace):
        raise NotAnIdeal("upper/lower is not a chief factor")
    factor = sub_brace(q.brace, U).brace
    if not factor.is_abelian:
        return ChiefFactorReport(lower, upper, False, "neither", None, None, None, None)
    p = _elementary_abelian_prime(factor, factor.carrier())
    if U <= frattini(q.brace):
        return ChiefFactorReport(lower, upper, True, "frattini", p, None, None, None)
    carrier = q.brace.carrier()
    complements = []
    for T in subbraces(q.brace):
        if U & T != ZERO:
            continue
        prod = frozenset(q.brace.times(u, t) for u in U for t in T)
        added = frozenset(q.brace.plus(u, t) for u in U for t in T)
        if prod == carrier and added == carrier:
            complements.append(T)
    if not complements:
        raise InternalInvariant("abelian chief factor neither Frattini nor complemented")
    maxes = maximal_subbraces(q.brace)
    all_maximal = all(T in maxes for T in complements)
    if not all_maximal:
        raise InternalInvariant("a complement of a chief factor is not maximal")
    witness = min(complements, key=subset_key)
    return ChiefFactorReport(lower, upper, True, "complemented", p,
                             witness, q.preimage(witness), all_maximal)


@dataclass(frozen=True)
class SolubleStructureReport:
    """Chief-factor classification and maximal-subbrace indices of a soluble brace."""

    order: int
    series: tuple[SeriesWitness, ...]
    factor_reports: tuple[ChiefFactorReport, ...]
    maximal_subbrace_indices: tuple[tuple[tuple[int, ...], int], ...]

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "series": [[sorted(s) for s in w.chain] for w in self.series],
            "factors": [r.to_json() for r in self.factor_reports],
            "maximal_subbraces": [{"members": list(m), "index": i}
                                  for m, i in self.maximal_subbrace_indices],
        }


def verify_soluble_chief_factors(B: SkewBrace, *, exhaustive: bool = False) -> SolubleStructureReport:
    """For a soluble brace: every chief factor is elementary abelian of prime
    power order and Frattini or complemented, and every maximal subbrace has
    prime power index.

    Raises TheoremViolation with the offending data if any part fails.
    """
    if not is_soluble(B):
        raise NotSoluble(f"brace of order {B.order} is not soluble")
    series = tuple(all_chief_series(B)) if exhaustive else (chief_series(B),)
    reports = []
    for witness in series:
        for i in range(len(witness.chain) - 1):
            upper, lower = witness.chain[i], witness.chain[i + 1]
            report = classify_chief_factor(B, lower, upper)
            if not report.abelian:
                raise TheoremViolation("chief factor of a soluble brace is not abelian",
                                       report, B)
            if report.p_elementary is None:
                raise TheoremViolation("chief factor is not elementary abelian",
                                       report, B)
            if report.kind not in ("frattini", "complemented"):
                raise TheoremViolation("chief factor neither Frattini nor complemented",
                                       report, B)
            reports.append(report)
    indices = []
    for S in maximal_subbraces(B):
        index = B.order // len(S)
        if _prime_power(index) is None:
            raise TheoremViolation("maximal subbrace of non-prime-power index",
                                   (sorted(S), index), B)
        indices.append((tuple(sorted(S)), index))
    return SolubleStructureReport(B.order, series, tuple(reports), tuple(indices))


@dataclass(frozen=True)
class SubbraceFreeReport:
    """Braces without intermediate subbraces, with the classification verdict."""

    checked: int
    qualifying: tuple[dict, ...]

    def to_json(self) -> dict:
        return {"checked": self.checked, "qualifying": list(self.qualifying)}


def has_proper_subbrace(B: SkewBrace) -> bool:
    """True when some subbrace differs from both {0} and B."""
    carrier = B.carrier()
    return any(S != carrier and len(S) > 1 for S in subbraces(B))


def verify_no_proper_subbraces(braces: list[SkewBrace]) -> SubbraceFreeReport:
    """Every non-zero brace without proper subbraces must be trivial of prime order.

    Returns the qualifying braces; raises TheoremViolation if one of them is
    not trivial or not of prime order.
    """
    qualifying = []
    for B in braces:
        if B.order == 1 or has_proper_subbrace(B):
            continue
        if not (B.is_trivial and _prime_power(B.order) == B.order):
            raise TheoremViolation(
                "brace without proper subbraces is not trivial of prime order",
                (B.add.table, B.mul.table), B)
        qualifying.append({"order": B.order, "trivial": True})
    return SubbraceFreeReport(len(braces), tuple(qualifying))


@dataclass(frozen=True)
class MaximalSubbraceReport:
    subbrace: frozenset[int]
    annihilator_contained: bool
    is_ideal: bool | None
    quotient_prime_abelian: bool | None

    def to_json(self) -> dict:
        return {"subbrace": sorted(self.subbrace),
                "annihilator_contained": self.annihilator_contained,
                "is_ideal": self.is_ideal,
                "quotient_prime_abelian": self.quotient_prime_abelian}


def verify_maximal_subbrace_dichotomy(B: SkewBrace, S: frozenset[int]) -> MaximalSubbraceReport:
    """Either the annihilator lies in the maximal subbrace S, or S is an ideal
    with abelian quotient of prime order (and then the derived ideal lies in S)."""
    if S not in maximal_subbraces(B):
        raise ValueError(f"{sorted(S)} is not a maximal subbrace")
    if annihilator(B) <= S:
        return MaximalSubbraceReport(S, True, None, None)
    if not classify_subset(B, S).ideal:
        raise TheoremViolation("maximal subbrace avoiding the annihilator is not an ideal",
                               sorted(S), B)
    q = quotient(B, S).brace
    good = q.is_abelian and _prime_power(q.order) == q.order
    if not good:
        raise TheoremViolation("quotient by the maximal subbrace is not prime abelian",
                               sorted(S), B)
    if not derived_ideal(B) <= S:
        raise TheoremViolation("derived ideal not contained in the ideal maximal subbrace",
                               sorted(S), B)
    return MaximalSubbraceReport(S, False, True, True)


def verify_frattini_corollary(B: SkewBrace) -> bool:
    """annihilator(B) intersect derived(B) lies inside frattini(B)."""
    ok = (annihilator(B) & derived_ideal(B)) <= frattini(B)
    if not ok:
        raise TheoremViolation("annihilator-derived intersection escapes the Frattini subbrace",
                               B.order, B)
    return True


def dossier(B: SkewBrace) -> dict:
    """Full structural report of one brace, JSON-ready."""
    soluble = is_soluble(B)
    derived = derived_series(B)
    chief = chief_series(B)
    factor_reports = [classify_chief_factor(B, chief.chain[i + 1], chief.chain[i])
                      for i in range(len(chief.chain) - 1)]
    maxes = maximal_subbraces(B)
    dichotomy = [verify_maximal_subbrace_dichotomy(B, S).to_json() for S in maxes]
    verify_frattini_corollary(B)
    out = {
        "order": B.order,
        "add": [list(r) for r in B.add.table],
        "mul": [list(r) for r in B.mul.table],
        "trivial": B.is_trivial,
        "almost_trivial": B.is_almost_trivial,
        "abelian": B.is_abelian,
        "kernel_lambda": sorted(kernel_lambda(B)),
        "fix": sorted(fix_set(B)),
        "socle": sorted(socle(B)),
        "annihilator": sorted(annihilator(B)),
        "ideals": [sorted(I) for I in all_ideals(B)],
        "minimal_ideals": [sorted(I) for I in minimal_ideals(B)],
        "maximal_ideals": [sorted(I) for I in maximal_ideals(B)],
        "soluble": soluble,
        "derived_length": derived.length if soluble else None,
        "derived_series": [sorted(s) for s in derived.chain],
        "chief_series": [sorted(s) for s in chief.chain],
        "chief_factors": [r.to_json() for r in factor_reports],
        "maximal_subbraces": [{"members": sorted(S), "index": B.order // len(S)}
                              for S in maxes],
        "frattini": sorted(frattini(B)),
        "maximal_subbrace_dichotomy": dichotomy,
    }
    return out
