"""Ideal lattice, commutator ideals, solubility, chief series, Frattini theory.

A series is its descending chain of carrier subsets and nothing more: no label
says what built it.  The derived series is checked step by step as it is
built, chief_series_as_abelian checks the chief series' steps the same way,
and ybe checks each step of any chain before it builds a witness on it.
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
    sub_brace,
    subbraces,
)
from .errors import InternalInvariant, NotAnIdeal, NotSoluble, TheoremViolation
from .groups import (
    _prime_power,
    check_bound,
    enumeration_bound,
    grow_closure,
    closure_with_generators,
    memoised,
    subgroups,
    subset_key,
)

ZERO = frozenset({0})


def all_ideals(B: SkewBrace) -> list[frozenset[int]]:
    """Every ideal of B: additive subgroups passing classify_subset; filtered once per B."""
    check_bound("group order", B.order, enumeration_bound())
    return list(_all_ideals(B))


@memoised
def _all_ideals(B: SkewBrace) -> list[frozenset[int]]:
    return [S for S in subgroups(B.add) if classify_subset(B, S).ideal]


def minimal_ideals(B: SkewBrace) -> list[frozenset[int]]:
    """Non-zero ideals containing no other non-zero ideal; filtered once per B."""
    check_bound("group order", B.order, enumeration_bound())
    return list(_minimal_ideals(B))


@memoised
def _minimal_ideals(B: SkewBrace) -> list[frozenset[int]]:
    nonzero = [I for I in _all_ideals(B) if I != ZERO]
    return [I for I in nonzero if not any(J < I for J in nonzero)]


def maximal_ideals(B: SkewBrace) -> list[frozenset[int]]:
    """Proper ideals contained in no other proper ideal."""
    carrier = B.carrier()
    proper = [I for I in all_ideals(B) if I != carrier]
    return [I for I in proper if not any(I < J for J in proper)]


def commutator(B: SkewBrace, I: frozenset[int], J: frozenset[int]) -> frozenset[int]:
    """Smallest ideal containing both group commutators and all ij - (i+j); memoised on B."""
    require_ideal(B, I, J)
    return _commutator(B, frozenset(I), frozenset(J))


@memoised
def _commutator(B: SkewBrace, I: frozenset[int], J: frozenset[int]) -> frozenset[int]:
    """The ideal generated by the commutator generators, grown by a worklist.

    i runs over all of I, and j only over generators of J: over J's
    additive generators (from closure_with_generators) for -i - j + i + j and
    ij - (i + j), and over its multiplicative ones for i^-1 j^-1 i j.  When
    J = B these are B.add.generators() and B.mul.generators().  Modulo the
    final ideal K, which is normal in (B, +) and in (B, .), each set of j
    that passes is a subgroup: the first two are the j commuting with i in
    (B, +)/K and in (B, .)/K, and ij - (i + j) = i + (i * j) - i is a
    conjugate of i * j = lambda_i(j) - j, where i * (b + c) = i * b + b +
    i * c - b (Cedo-Smoktunowicz-Vendramin, Proc. LMS 2019).  So the
    generators taken span the same ideal as those over all of J.

    They start one additive closure.  Each member's images under lambda_b
    for b among mul.generators(), and under the additive conjugation b + s -
    b and the star s * b for b among add.generators(), are taken once, when
    the member is reached, and an image not yet reached becomes an additive
    generator.  The members are then a left ideal and normal, by the rules
    of braces._classify, and closed under s * b for every b, since for each
    s the b that pass are closed under +.  So they are the least ideal
    holding the generators.
    """
    at, ai = B.add.table, B.add.inverse
    mt, mi = B.mul.table, B.mul.inverse
    lam = B.lam
    add_gens, mul_gens = B.add.generators(), B.mul.generators()
    if len(J) == B.order:
        add_js, mul_js = add_gens, mul_gens
    else:
        add_js, mul_js = closure_with_generators(at, J)[1], closure_with_generators(mt, J)[1]
    members, seen, gens = [0], [True] + [False] * (B.order - 1), []
    for i in I:
        neg_i, inv_i, ri = ai[i], mi[i], mt[i]
        for j in add_js:
            for y in (at[at[at[neg_i][ai[j]]][i]][j], at[ri[j]][ai[at[i][j]]]):
                if not seen[y]:
                    grow_closure(at, members, seen, gens, y)
        for j in mul_js:
            y = mt[mt[mt[inv_i][mi[j]]][i]][j]
            if not seen[y]:
                grow_closure(at, members, seen, gens, y)
    lams = [lam[b] for b in mul_gens]
    conjugators = [(b, at[b], ai[b]) for b in add_gens]
    k = 0
    while k < len(members):
        s = members[k]
        ls = lam[s]
        for lb in lams:
            y = lb[s]
            if not seen[y]:
                grow_closure(at, members, seen, gens, y)
        for b, rb, nb in conjugators:
            for y in (at[rb[s]][nb], at[ls[b]][nb]):
                if not seen[y]:
                    grow_closure(at, members, seen, gens, y)
        k += 1
    current = frozenset(members)
    if not classify_subset(B, current).ideal:
        raise InternalInvariant("commutator closure did not reach an ideal")
    return current


def derived_ideal(B: SkewBrace) -> frozenset[int]:
    return commutator(B, B.carrier(), B.carrier())


@dataclass(frozen=True)
class SeriesWitness:
    """A series as its descending chain of carrier subsets; nothing else is stored.

    The chain is the whole claim: ybe checks each step (an ideal of its
    predecessor, viewed as a standalone brace, with abelian quotient) before
    it builds a witness on it, whether the chain is a derived or a chief series.
    """

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
    return SeriesWitness(tuple(chain))


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
    series = chief_series(B)
    for upper, lower in zip(series.chain, series.chain[1:]):
        _require_abelian_step(B, upper, lower)
    return series


def all_chief_series(B: SkewBrace) -> Iterator[SeriesWitness]:
    """Every chief series of B (descending witnesses), lazily, depth first.

    Each level tries the minimal ideals of the current quotient in canonical
    order (by size, then members), so the first series always picks the least.
    """
    carrier = B.carrier()

    def ascend(acc: list[frozenset[int]]) -> Iterator[SeriesWitness]:
        if acc[-1] == carrier:
            yield SeriesWitness(tuple(reversed(acc)))
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
    """Maximal elements of the proper-subbrace poset; filtered once per B."""
    check_bound("group order", B.order, enumeration_bound())
    return list(_maximal_subbraces(B))


@memoised
def _maximal_subbraces(B: SkewBrace) -> list[frozenset[int]]:
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
