"""Skew left braces: one carrier, two compatible group operations.

A brace is stored as two Cayley tables sharing identity 0, together with the
materialized lambda table lam[a][b] = -a + a*b.  All higher-level notions
(ideals, socle, quotients, series) read that table.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BraceAxiomFailed,
    GroupInvalid,
    GroupValidationError,
    InternalInvariant,
    NotAnIdeal,
)
from .groups import (
    FiniteGroup,
    Perm,
    _isomorphisms,
    _subgroups,
    check_bound,
    compose,
    enumeration_bound,
    closure_with_generators,
    identity_perm,
    memoised,
    validate_group,
)


class SubsetFlags(NamedTuple):
    subbrace: bool
    left_ideal: bool
    ideal: bool


_NO_FLAGS = SubsetFlags(False, False, False)
_ALL_FLAGS = SubsetFlags(True, True, True)


class SkewBrace:
    """Immutable skew left brace on the carrier 0..order-1."""

    __slots__ = ("order", "add", "mul", "lam", "_cache")

    def __init__(self, add: FiniteGroup, mul: FiniteGroup,
                 lam: tuple[tuple[int, ...], ...]):
        self.order = add.order
        self.add = add
        self.mul = mul
        self.lam = lam
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"SkewBrace(order={self.order})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, SkewBrace)
                and self.add.table == other.add.table
                and self.mul.table == other.mul.table)

    def __hash__(self) -> int:
        return hash((self.add.table, self.mul.table))

    def elements(self) -> range:
        return range(self.order)

    def plus(self, a: int, b: int) -> int:
        return self.add.table[a][b]

    def neg(self, a: int) -> int:
        return self.add.inverse[a]

    def times(self, a: int, b: int) -> int:
        return self.mul.table[a][b]

    def tinv(self, a: int) -> int:
        return self.mul.inverse[a]

    def carrier(self) -> frozenset[int]:
        return frozenset(self.elements())

    @property
    @memoised
    def is_trivial(self) -> bool:
        """Both operations coincide."""
        return self.add.table == self.mul.table

    @property
    @memoised
    def is_almost_trivial(self) -> bool:
        """a*b = b+a for all a, b."""
        return all(self.mul.table[a][b] == self.add.table[b][a]
                   for a in self.elements() for b in self.elements())

    @property
    def is_abelian(self) -> bool:
        """Trivial with abelian group structure; the commutator of B with B is 0."""
        return self.is_trivial and self.add.is_abelian


class NoOrderMatch(GroupValidationError):
    def __init__(self, n1: int, n2: int):
        super().__init__(f"orders differ: {n1} vs {n2}")


def _lambda_table(add: FiniteGroup, mul: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    return tuple(compose(add.table[add.inverse[a]], mul.table[a]) for a in add.elements())


def validate_brace(add_table: Sequence[Sequence[int]],
                   mul_table: Sequence[Sequence[int]]) -> SkewBrace:
    """Validate both groups and the compatibility law a(b+c) = ab - a + ac.

    The law says that every lambda_a: b -> -a + ab is additive, and once both
    groups validate it is proven on generators.  For a fixed a, the b with
    lambda_a(b + c) = lambda_a(b) + lambda_a(c) for all c are closed under +;
    the a whose lambda_a is additive are closed under the product, because
    for them lambda_a lambda_b = lambda_ab.  So the row c -> lambda_a(b + c)
    is compared with c -> lambda_a(b) + lambda_a(c) only for a among
    mul.generators() and b among add.generators(), which validate_group
    has already computed and memoised.  When a row differs, the
    lexicographic scan over all triples names the first witness, so a
    rejection reports the same BraceAxiomFailed as a full scan.
    """
    return _brace_of_groups(_group_of("add", add_table), _group_of("mul", mul_table))


def _group_of(which: str, table: Sequence[Sequence[int]]) -> FiniteGroup:
    """validate_group(table), its failure raised as GroupInvalid naming which table."""
    try:
        return validate_group(table)
    except GroupValidationError as exc:
        raise GroupInvalid(which, exc) from exc


def _brace_of_groups(add: FiniteGroup, mul: FiniteGroup) -> SkewBrace:
    """The brace on two validated groups, once their orders match and the law holds.

    validate_brace's check of the compatibility law, shared with callers that
    validate the additive group once for many product tables.
    """
    if add.order != mul.order:
        raise GroupInvalid("mul", NoOrderMatch(add.order, mul.order))
    lam = _lambda_table(add, mul)
    if not _lambda_additive(add, mul, lam):
        _brace_law_scan(add, mul)
        raise InternalInvariant("the brace law failed on generators but the scan found no witness")
    return SkewBrace(add, mul, lam)


def _lambda_additive(add: FiniteGroup, mul: FiniteGroup,
                     lam: tuple[tuple[int, ...], ...]) -> bool:
    """lambda_a(b + .) == lambda_a(b) + lambda_a(.) as rows, for every pair of generators."""
    at, add_gens = add.table, add.generators()
    for a in mul.generators():
        la = lam[a]
        if any(compose(la, at[b]) != compose(at[la[b]], la) for b in add_gens):
            return False
    return True


def _brace_law_scan(add: FiniteGroup, mul: FiniteGroup) -> None:
    """Raise BraceAxiomFailed at the lexicographically first failing triple, if any."""
    n = add.order
    at, mt, ai = add.table, mul.table, add.inverse
    for a in range(n):
        ma = mt[a]
        neg_a = ai[a]
        for b in range(n):
            rb = at[b]
            rhs_row = at[at[ma[b]][neg_a]]  # (ab - a) + _
            for c in range(n):
                if ma[rb[c]] != rhs_row[ma[c]]:
                    raise BraceAxiomFailed(a, b, c)


def _derived_brace(add_rows: Sequence[Perm], mul_rows: Sequence[Perm]) -> SkewBrace:
    """The brace on tables that are a brace's by construction, with no law re-checked.

    A subbrace of a brace is a brace by definition, and a quotient by an
    ideal is one by Guarnieri-Vendramin (Math. Comp. 2017, Lemma 2.3), so
    their tables need only the inverses, read off as validate_group does,
    and the lambda table.  Generating sets are computed on first use.
    """
    add, mul = (FiniteGroup(tuple(rows), tuple([row.index(0) for row in rows]))
                for rows in (add_rows, mul_rows))
    return SkewBrace(add, mul, _lambda_table(add, mul))


def trivial_brace(G: FiniteGroup) -> SkewBrace:
    """Both operations equal to G's."""
    return SkewBrace(G, G, tuple(identity_perm(G.order) for _ in G.elements()))


def almost_trivial_brace(G: FiniteGroup) -> SkewBrace:
    """Additive group G, multiplication a*b = b+a."""
    mul_table = [[G.table[b][a] for b in G.elements()] for a in G.elements()]
    mul = FiniteGroup(tuple(tuple(r) for r in mul_table), G.inverse,
                      f"{G.name}-op" if G.name else None)
    return SkewBrace(G, mul, _lambda_table(G, mul))


def lambda_map(B: SkewBrace, a: int) -> Perm:
    """The additive automorphism b -> -a + a*b."""
    return B.lam[a]


def star(B: SkewBrace, a: int, b: int) -> int:
    """a * b = lambda_a(b) - b, the ring-multiplication analogue."""
    return B.plus(B.lam[a][b], B.neg(b))


def star_span(B: SkewBrace, X: Iterable[int], Y: Iterable[int]) -> frozenset[int]:
    """Additive subgroup generated by all x*y with x in X, y in Y."""
    gens = {star(B, x, y) for x in X for y in Y}
    return B.add.closure(gens)


def kernel_lambda(B: SkewBrace) -> frozenset[int]:
    """Elements with a*b = a+b for all b; a subbrace."""
    n = B.order
    ident = identity_perm(n)
    out = frozenset(a for a in B.elements() if B.lam[a] == ident)
    if not classify_subset(B, out).subbrace:
        raise InternalInvariant("kernel of lambda is not a subbrace")
    return out


def fix_set(B: SkewBrace) -> frozenset[int]:
    """Common fixed points of every lambda_b; a left ideal.

    lambda_b lambda_c = lambda_bc, so the b whose lambda_b fixes a point form
    a multiplicative subgroup, and only b among mul.generators() are tried.
    """
    lam, gens = B.lam, B.mul.generators()
    out = frozenset(a for a in B.elements() if all(lam[b][a] == a for b in gens))
    if not classify_subset(B, out).left_ideal:
        raise InternalInvariant("fixed-point set is not a left ideal")
    return out


def socle(B: SkewBrace) -> frozenset[int]:
    """Kernel of lambda intersected with the additive centre; an ideal."""
    out = kernel_lambda(B) & B.add.center()
    if not classify_subset(B, out).ideal:
        raise InternalInvariant("socle is not an ideal")
    return out


@memoised
def annihilator(B: SkewBrace) -> frozenset[int]:
    """Elements a with a+b = b+a = ab = ba for all b; an ideal; memoised on B."""
    out = socle(B) & fix_set(B)
    if not classify_subset(B, out).ideal:
        raise InternalInvariant("annihilator is not an ideal")
    return out


def classify_subset(B: SkewBrace, S: Iterable[int]) -> SubsetFlags:
    """Decide subbrace / left ideal / ideal on generators; memoised on B.

    The case U = B of classify_within.  Raises ValueError when a member of S
    is not an element 0..order-1 of B.
    """
    return _classify(B, frozenset(S))


def classify_within(B: SkewBrace, U: Iterable[int], S: Iterable[int]) -> SubsetFlags:
    """The flags of S as a subset of the subbrace U of B, decided in B's tables; memoised on B.

    The rules of _classify with U's generators in place of B's, so no table
    of U is built.  A set with a member outside U has no flags.  Raises
    ValueError when U is not a subbrace of B, or a member of S is not an
    element of B.
    """
    ambient, key = frozenset(U), frozenset(S)
    if not _classify(B, ambient).subbrace:
        raise ValueError(f"{sorted(ambient)} is not a subbrace")
    if len(ambient) == B.order:
        return _classify(B, key)
    return _classify(B, key, ambient)


def subbrace_generators(B: SkewBrace, U: frozenset[int]) -> tuple[Sequence[int], Sequence[int]]:
    """The additive and multiplicative generators of the subbrace U of B.

    B's own generators when U is B; otherwise the generators
    closure_with_generators takes from U in each table, memoised on B per U.
    The caller vouches that U is a subbrace.
    """
    if len(U) == B.order:
        return B.add.generators(), B.mul.generators()
    return _subbrace_generators(B, U)


@memoised
def _subbrace_generators(B: SkewBrace, U: frozenset[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (tuple(closure_with_generators(B.add.table, U)[1]),
            tuple(closure_with_generators(B.mul.table, U)[1]))


@memoised
def _classify(B: SkewBrace, key: frozenset[int],
              ambient: frozenset[int] | None = None) -> SubsetFlags:
    """The flags of key inside the subbrace ambient (all of B when None), decided on generators.

    The ideal conditions are those of Guarnieri-Vendramin (Math. Comp. 2017):
    an ideal of a brace U is an additive subgroup S with lambda_b(S) <= S
    for every b in U, normal in (U, +), with a * b = lambda_a(b) - b in S
    for a in S and every b in U.  S holding 0 is an additive subgroup
    exactly when the closure that closure_with_generators grows from its
    members stays within S, and the growth stops at the first sum outside
    S; call the generators that closure took gens_S.  _subgroup_flags
    passes the generators a subgroup was enumerated from instead.  The rules
    are _flags'.
    """
    n = B.order
    for a in key:
        if not isinstance(a, int) or not 0 <= a < n:
            raise ValueError(f"subset member {a!r} is not an element 0..{n - 1} of the brace")
    if 0 not in key or (ambient is not None and not key <= ambient):
        return _NO_FLAGS
    if len(key) == 1:
        return _ALL_FLAGS
    grown = closure_with_generators(B.add.table, key, within=key)
    if grown is None:
        return _NO_FLAGS
    if ambient is None:
        return _flags(B, key, grown[1], B.add.generators(), B.mul.generators())
    return _flags(B, key, grown[1], *_subbrace_generators(B, ambient))


def _subgroup_flags(B: SkewBrace, S: frozenset[int], gens: Sequence[int]) -> SubsetFlags:
    """classify_subset(B, S) for an additive subgroup S that gens generate, in the same memo entry.

    S is not grown again: gens, from the enumeration of B's subgroups, stand
    in for the generators its closure would take.
    """
    return _classify.cached_or(
        B, lambda: _flags(B, S, gens, B.add.generators(), B.mul.generators()), S)


def _flags(B: SkewBrace, key: frozenset[int], gens: Sequence[int],
           add_gens: Sequence[int], mul_gens: Sequence[int]) -> SubsetFlags:
    """The flags of the additive subgroup key, spanned by gens, inside the
    subbrace U that add_gens and mul_gens generate.

    Every map tried below is additive, so it sends key into key exactly
    when it sends gens into key.

    - Left ideal: lambda_b(s) in key for b among mul_gens and s in gens.
      The b in U with lambda_b(key) <= key form a multiplicative subgroup,
      since lambda_b lambda_c = lambda_bc.
    - Subbrace, asked only when key is no left ideal (a left ideal is one):
      lambda_a(s) in key for every a in key and s in gens, since ab = a +
      lambda_a(b).
    - Normal in (U, +): b + s - b in key for b among add_gens and s in
      gens, since conjugation by b + c is conjugation by b after c.
    - Ideal, for a normal left ideal: lambda_a(b) - b in key for every a in
      key and b among add_gens.  For each a the b that pass are closed
      under +, by a * (b + c) = a * b + b + a * c - b with key normal
      (Cedo-Smoktunowicz-Vendramin, Proc. LMS 2019).
    """
    at, ai, lam = B.add.table, B.add.inverse, B.lam
    if not all(lam[b][s] in key for b in mul_gens for s in gens):
        return SubsetFlags(all(lam[a][s] in key for a in key for s in gens), False, False)
    if not all(at[at[b][s]][ai[b]] in key for b in add_gens for s in gens):
        return SubsetFlags(True, True, False)
    return SubsetFlags(True, True, all(at[lam[a][b]][ai[b]] in key
                                       for a in key for b in add_gens))


def _left_cosets(at: tuple[tuple[int, ...], ...],
                 pick: operator.itemgetter) -> tuple[tuple[int, ...], list[int]]:
    """Label the left cosets a + S of an additive subgroup S by order of their least elements.

    pick gathers S's members from a row.  Walking a upwards, the first
    element not yet labelled is the least of its coset, and the coset is
    its row gathered at S.  Returns the labels and the least elements.
    """
    labels = [-1] * len(at)
    reps: list[int] = []
    for a, row in enumerate(at):
        if labels[a] < 0:
            k = len(reps)
            reps.append(a)
            for x in pick(row):
                labels[x] = k
    return tuple(labels), reps


def require_ideal(B: SkewBrace, *subsets: frozenset[int]) -> None:
    """Raise NotAnIdeal naming the first of the subsets that is not an ideal of B."""
    for S in subsets:
        if not classify_subset(B, S).ideal:
            raise NotAnIdeal(f"{sorted(S)} is not an ideal")


def subbraces(B: SkewBrace) -> list[frozenset[int]]:
    """All subbraces: additive subgroups also closed under the product; filtered once per B."""
    check_bound("group order", B.order, enumeration_bound())
    return list(_subbraces(B))


@memoised
def _subbraces(B: SkewBrace) -> list[frozenset[int]]:
    return [S for S, gens in _subgroups(B.add) if _subgroup_flags(B, S, gens).subbrace]


@dataclass(frozen=True)
class SubBrace:
    """A subbrace extracted as a standalone brace, with its embedding."""

    brace: SkewBrace
    elements: tuple[int, ...]  # elements[local] = global index

    def to_local(self, s: Iterable[int]) -> frozenset[int]:
        pos = {g: i for i, g in enumerate(self.elements)}
        return frozenset(pos[g] for g in s)

    def to_global(self, s: Iterable[int]) -> frozenset[int]:
        return frozenset(self.elements[i] for i in s)


def sub_brace(B: SkewBrace, S: Iterable[int]) -> SubBrace:
    """Re-index a subbrace as a brace in its own right (0 stays at 0); memoised on B."""
    key = frozenset(S)
    if not classify_subset(B, key).subbrace:
        raise ValueError(f"{sorted(key)} is not a subbrace")
    if len(key) == B.order:
        # B is its own whole subbrace; built fresh, since stored in B._cache it
        # would make B reference itself and outlive its last user until a GC pass
        return SubBrace(B, tuple(B.elements()))
    return _sub_brace(B, key)


@memoised
def _sub_brace(B: SkewBrace, key: frozenset[int]) -> SubBrace:
    members = sorted(key)
    pos = [0] * B.order
    for i, g in enumerate(members):
        pos[g] = i
    add = [compose(pos, compose(B.add.table[a], members)) for a in members]
    mul = [compose(pos, compose(B.mul.table[a], members)) for a in members]
    return SubBrace(_derived_brace(add, mul), tuple(members))


@dataclass(frozen=True)
class Quotient:
    """Quotient brace with the projection of the parent carrier onto it."""

    brace: SkewBrace
    projection: tuple[int, ...]      # parent element -> coset index
    representatives: tuple[int, ...]  # coset index -> least parent element

    def image(self, s: Iterable[int]) -> frozenset[int]:
        return frozenset(self.projection[a] for a in s)

    def preimage(self, s: Iterable[int]) -> frozenset[int]:
        wanted = frozenset(s)
        return frozenset(a for a in range(len(self.projection))
                         if self.projection[a] in wanted)


def quotient(B: SkewBrace, I: Iterable[int]) -> Quotient:
    """B modulo an ideal, on least-element coset representatives; memoised on B."""
    ideal = frozenset(I)
    require_ideal(B, ideal)
    if len(ideal) == 1:
        # B is its own quotient by {0}; built fresh for the reason in sub_brace
        identity = tuple(B.elements())
        return Quotient(B, identity, identity)
    return _quotient(B, ideal)


@memoised
def _quotient(B: SkewBrace, ideal: frozenset[int]) -> Quotient:
    """Cosets labelled by _left_cosets; each table row is one rep's row gathered at the reps."""
    projection, reps = _left_cosets(B.add.table, operator.itemgetter(*ideal))
    add = [compose(projection, compose(B.add.table[a], reps)) for a in reps]
    mul = [compose(projection, compose(B.mul.table[a], reps)) for a in reps]
    return Quotient(_derived_brace(add, mul), projection, tuple(reps))


def subbrace_product(B: SkewBrace, S: Iterable[int], I: Iterable[int]) -> frozenset[int]:
    """SI for a subbrace S and ideal I; equals S+I and is a subbrace."""
    s, ideal = frozenset(S), frozenset(I)
    if not classify_subset(B, s).subbrace:
        raise NotAnIdeal(f"{sorted(s)} is not a subbrace")
    require_ideal(B, ideal)
    product = frozenset(B.times(a, y) for a in s for y in ideal)
    additive = frozenset(B.plus(a, y) for a in s for y in ideal)
    if product != additive or not classify_subset(B, product).subbrace:
        raise InternalInvariant("SI != S+I or SI is not a subbrace")
    return product


def direct_product(B1: SkewBrace, B2: SkewBrace) -> SkewBrace:
    """Componentwise operations on pairs (a1, a2) -> a1*|B2| + a2."""
    check_bound("product order", B1.order * B2.order, enumeration_bound())
    n2 = B2.order
    pairs = list(itertools.product(B1.elements(), B2.elements()))
    add = [[B1.plus(a1, b1) * n2 + B2.plus(a2, b2) for b1, b2 in pairs]
           for a1, a2 in pairs]
    mul = [[B1.times(a1, b1) * n2 + B2.times(a2, b2) for b1, b2 in pairs]
           for a1, a2 in pairs]
    return validate_brace(add, mul)


@memoised
def lambda_orbit_sizes(B: SkewBrace) -> tuple[int, ...]:
    """Size of the orbit of each element under all lambda maps."""
    sizes = [0] * B.order
    seen = [False] * B.order
    for a in B.elements():
        if seen[a]:
            continue
        orbit = {a}
        work = [a]
        while work:
            x = work.pop()
            for b in B.elements():
                y = B.lam[b][x]
                if y not in orbit:
                    orbit.add(y)
                    work.append(y)
        for x in orbit:
            sizes[x] = len(orbit)
            seen[x] = True
    return tuple(sizes)


def _brace_signature(B: SkewBrace, a: int) -> tuple[int, int, int]:
    return (B.add.element_order(a), B.mul.element_order(a), lambda_orbit_sizes(B)[a])


def is_isomorphic(B1: SkewBrace, B2: SkewBrace) -> Perm | None:
    """A bijection preserving both operations, or None.

    The first additive isomorphism, pruned by the (additive order,
    multiplicative order, lambda-orbit size) signature, that also preserves
    the product.
    """
    check_bound("brace order", B1.order, enumeration_bound())
    if B1.order != B2.order:
        return None
    sig1 = [_brace_signature(B1, a) for a in B1.elements()]
    sig2 = [_brace_signature(B2, a) for a in B2.elements()]
    if sorted(sig1) != sorted(sig2):
        return None
    m1, m2 = B1.mul.table, B2.mul.table
    return next((f for f in _isomorphisms(B1.add, B2.add, sig1, sig2)
                 if all(f[m1[a][b]] == m2[f[a]][f[b]]
                        for a in B1.elements() for b in B1.elements())), None)
