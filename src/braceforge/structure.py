"""Ideal lattice, commutator ideals, solubility, chief series, Frattini theory.

A series is its descending chain of carrier subsets and nothing more: no label
says what built it.  The derived series is checked step by step as it is
built, chief_series_as_abelian checks the chief series' steps the same way,
and ybe checks each step of any chain before it builds a witness on it.

A series member U is a subbrace, a brace in its own right, but every question
about it is answered in B's own tables on U's generators
(braces.subbrace_generators), never on a standalone copy of U or on a
quotient of it.  Each rule that decides a property for B on B's generators
decides it for U on U's: the elements that pass are a subgroup of U, so
passing on U's generators is passing on all of U.  That gives the ideals of
U (braces.classify_within), the least ideal of U holding a set of
commutators (_commutator_ideal), and whether U modulo an ideal is abelian
(abelian_step).  A chief factor over L is found and classified in B's
lattices over L (_minimal_ideals, _maximal_subbraces): by correspondence
(Guarnieri-Vendramin, Math. Comp. 2017) the ideals and subbraces of B/L are
those of B that hold L.  Only annihilator_quotient_test builds a quotient
brace: Ann(B/J) is the side of its equivalence checked against [I, B], so it
stays a separate computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .braces import (
    SkewBrace,
    _left_cosets,
    _subbraces,
    _subgroup_flags,
    annihilator,
    classify_subset,
    classify_within,
    fix_set,
    kernel_lambda,
    quotient,
    require_ideal,
    socle,
    subbrace_generators,
    subbraces,
)
from .errors import InternalInvariant, NotAnIdeal, NotSoluble, TheoremViolation
from .groups import (
    _prime_power,
    _subgroups,
    check_bound,
    enumeration_bound,
    grow_closure,
    memoised,
    subset_key,
)

ZERO = frozenset({0})


def all_ideals(B: SkewBrace) -> list[frozenset[int]]:
    """Every ideal of B: additive subgroups passing classify_subset; filtered once per B."""
    check_bound("group order", B.order, enumeration_bound())
    return list(_all_ideals(B))


@memoised
def _all_ideals(B: SkewBrace) -> list[frozenset[int]]:
    return [S for S, gens in _subgroups(B.add) if _subgroup_flags(B, S, gens).ideal]


def minimal_ideals(B: SkewBrace) -> list[frozenset[int]]:
    """Non-zero ideals containing no other non-zero ideal; filtered once per B."""
    check_bound("group order", B.order, enumeration_bound())
    return list(_minimal_ideals(B, ZERO))


@memoised
def _minimal_ideals(B: SkewBrace, lower: frozenset[int]) -> list[frozenset[int]]:
    """The ideals above lower with no ideal between: the minimal ideals of B/lower, pulled back."""
    above = [I for I in _all_ideals(B) if lower < I]
    return [I for I in above if not any(J < I for J in above)]


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
    """[I, J] by _commutator_ideal, with B as the ambient brace."""
    current = _commutator_ideal(B, I, subbrace_generators(B, J),
                                (B.add.generators(), B.mul.generators()))
    if not classify_subset(B, current).ideal:
        raise InternalInvariant("commutator closure did not reach an ideal")
    return current


def _commutator_ideal(B: SkewBrace, I: frozenset[int],
                      J_gens: tuple[Sequence[int], Sequence[int]],
                      ambient_gens: tuple[Sequence[int], Sequence[int]]) -> frozenset[int]:
    """[I, J] inside a subbrace U of B, grown by a worklist in B's tables.

    I and J are ideals of U; J_gens are J's additive and multiplicative
    generators and ambient_gens U's (braces.subbrace_generators), U = B
    included.  i runs over all of I, and j only over generators of J: over
    J's additive ones for -i - j + i + j and ij - (i + j), and over its
    multiplicative ones for i^-1 j^-1 i j.  Modulo the final ideal K, which
    is normal in (U, +) and in (U, .), each set of j that passes is a
    subgroup: the first two are the j commuting with i in (U, +)/K and in
    (U, .)/K, and ij - (i + j) = i + (i * j) - i is a conjugate of i * j =
    lambda_i(j) - j, where i * (b + c) = i * b + b + i * c - b
    (Cedo-Smoktunowicz-Vendramin, Proc. LMS 2019).  So the generators taken
    span the same ideal as those over all of J.

    They start one additive closure.  Each member's images under lambda_b
    for b among U's multiplicative generators, and under the additive
    conjugation b + s - b and the star s * b for b among U's additive
    generators, are taken once, when the member is reached, and an image
    not yet reached becomes an additive generator.  The members are then a
    left ideal of U and normal in it, by the rules of braces._flags, and
    closed under s * b for every b in U, since for each s the b that pass
    are closed under +.  So they are the least ideal of U holding the
    generators.
    """
    at, ai = B.add.table, B.add.inverse
    mt, mi = B.mul.table, B.mul.inverse
    lam = B.lam
    add_js, mul_js = J_gens
    add_gens, mul_gens = ambient_gens
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
    return frozenset(members)


def derived_ideal(B: SkewBrace) -> frozenset[int]:
    return commutator(B, B.carrier(), B.carrier())


@dataclass(frozen=True)
class SeriesWitness:
    """A series as its descending chain of carrier subsets; nothing else is stored.

    The chain is the whole claim: ybe checks each step (an ideal of its
    predecessor, a brace in its own right, with abelian quotient, by
    abelian_step) before it builds a witness on it, whether the chain is a
    derived or a chief series.
    """

    chain: tuple[frozenset[int], ...]

    @property
    def terminated(self) -> bool:
        return self.chain[-1] == ZERO

    @property
    def length(self) -> int:
        return len(self.chain) - 1


def abelian_step(B: SkewBrace, upper: frozenset[int], lower: frozenset[int]) -> str | None:
    """None when lower is an ideal of the subbrace upper with abelian quotient, else why not.

    Decided in B's tables on upper's generators, with no brace built for
    upper or for the quotient.  lower is an ideal of upper by
    braces.classify_within.  The quotient is abelian, a trivial brace on an
    abelian group, when -b - a + b + a and lambda_a(b) - b lie in lower for
    a, b among upper's additive generators in the first and a among its
    multiplicative ones, b among its additive ones in the second.  That
    suffices because lower is normal and lambda-invariant in upper: the b
    that commute with a given a modulo lower form a subgroup, and so do the
    a central modulo lower; for each a the b with lambda_a(b) - b in lower
    are closed under +, and the a for which that holds for every b are
    closed under the product, by lambda_ac(b) = lambda_a(b + l) for some l
    in lower.  Raises ValueError when upper is not a subbrace.
    """
    if not classify_within(B, upper, lower).ideal:
        return "is not an ideal of"
    at, ai, lam = B.add.table, B.add.inverse, B.lam
    add_gens, mul_gens = subbrace_generators(B, frozenset(upper))
    abelian = (all(at[at[at[ai[b]][ai[a]]][b]][a] in lower for a in add_gens for b in add_gens)
               and all(at[lam[a][b]][ai[b]] in lower for a in mul_gens for b in add_gens))
    return None if abelian else "has a non-abelian quotient in"


def _require_abelian_step(B: SkewBrace, upper: frozenset[int], lower: frozenset[int]) -> None:
    problem = abelian_step(B, upper, lower)
    if problem:
        raise InternalInvariant(f"series member {problem} its predecessor")


@memoised
def derived_series(B: SkewBrace) -> SeriesWitness:
    """B, [B,B], [[B,B],[B,B]], ... until stabilization.

    Each term is the commutator ideal of the previous term U inside U, taken
    by _commutator_ideal in B's tables with U's generators, so no brace is
    built for U; each step is checked by abelian_step.  The witness
    terminates at {0} exactly when B is soluble.
    """
    chain: list[frozenset[int]] = [B.carrier()]
    current = chain[0]
    while current != ZERO:
        gens = subbrace_generators(B, current)
        nxt = _commutator_ideal(B, current, gens, gens)
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

    Each level tries the minimal ideals over the current member, those of the
    quotient by it, in canonical order (by size, then members): the least first.
    """
    check_bound("group order", B.order, enumeration_bound())
    carrier = B.carrier()

    def ascend(acc: list[frozenset[int]]) -> Iterator[SeriesWitness]:
        if acc[-1] == carrier:
            yield SeriesWitness(tuple(reversed(acc)))
            return
        for pick in _minimal_ideals(B, acc[-1]):
            yield from ascend(acc + [pick])

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
    return list(_maximal_subbraces(B, ZERO))


@memoised
def _maximal_subbraces(B: SkewBrace, lower: frozenset[int]) -> list[frozenset[int]]:
    """The maximal proper subbraces holding the ideal lower: those of B/lower, pulled back."""
    carrier = B.carrier()
    proper = [S for S in _subbraces(B) if lower <= S and S != carrier]
    return [S for S in proper if not any(S < T for T in proper)]


def frattini(B: SkewBrace) -> frozenset[int]:
    """Intersection of all maximal subbraces; B itself when none exist."""
    out = B.carrier()
    for S in maximal_subbraces(B):
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
    complement_witness: frozenset[int] | None  # the pullback's coset labels (braces._left_cosets)
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


def _elementary_abelian_prime(B: SkewBrace, lower: frozenset[int],
                              upper: frozenset[int]) -> int | None:
    """p when |upper/lower| is a power of the prime p and p a lies in lower for every a in upper."""
    p, at = _prime_power(len(upper) // len(lower)), B.add.table
    if p is None:
        return None
    for a in upper:
        x = a
        for _ in range(p - 1):
            x = at[x][a]
        if x not in lower:
            return None
    return p


def classify_chief_factor(B: SkewBrace, lower: frozenset[int],
                          upper: frozenset[int]) -> ChiefFactorReport:
    """Decide Frattini vs complemented for the chief factor upper/lower.

    Decided in B's lattices over lower, which are B/lower's by correspondence:
    lower must be an ideal and upper in _minimal_ideals(B, lower), else
    NotAnIdeal.  The witness labels the cosets of the least complement, the
    least in B/lower too, since labels increase with least elements.  An
    abelian factor neither Frattini nor complemented contradicts the theory
    and raises InternalInvariant, as does a non-maximal complement.
    """
    check_bound("group order", B.order, enumeration_bound())
    lower, upper = frozenset(lower), frozenset(upper)
    require_ideal(B, lower)
    if upper not in _minimal_ideals(B, lower):
        raise NotAnIdeal("upper/lower is not a chief factor")
    if abelian_step(B, upper, lower):
        return ChiefFactorReport(lower, upper, False, "neither", None, None, None, None)
    p = _elementary_abelian_prime(B, lower, upper)
    maxes = _maximal_subbraces(B, lower)
    if all(upper <= S for S in maxes):
        return ChiefFactorReport(lower, upper, True, "frattini", p, None, None, None)
    # upper is normal in (B, +) and (B, .): upper + T and upper T have order |upper| |T| / |upper & T|
    complements = [T for T in _subbraces(B)
                   if upper & T == lower and len(upper) * len(T) == B.order * len(lower)]
    if not complements:
        raise InternalInvariant("abelian chief factor neither Frattini nor complemented")
    if not all(T in maxes for T in complements):
        raise InternalInvariant("a complement of a chief factor is not maximal")
    pullback = min(complements, key=subset_key)
    labels = _left_cosets(B.add.table, lambda row: [row[x] for x in lower])[0]
    return ChiefFactorReport(lower, upper, True, "complemented", p,
                             frozenset(labels[t] for t in pullback), pullback, True)


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
    index = B.order // len(S)
    if abelian_step(B, B.carrier(), S) or _prime_power(index) != index:
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
