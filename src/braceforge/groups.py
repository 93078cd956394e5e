"""Finite groups as Cayley tables over element indices 0..n-1, identity at 0.

Everything downstream (braces, holomorphs, the census) works with the same
representation: an immutable n x n table of indices, plus the inverse list.
Enumeration operations carry explicit hard bounds so blow-ups fail loudly.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    BoundExceeded,
    InvalidBound,
    NoIdentityAtZero,
    NoInverse,
    NotAssociative,
    NotClosed,
    NotSimple,
)

Perm = tuple[int, ...]

DEFAULT_GROUP_BOUND = 200
DEFAULT_HOLOMORPH_BOUND = 10000


def _env_bound() -> int | None:
    """BRACEFORGE_BOUND as a positive integer, or None when unset.

    Read on every call, so a changed environment takes effect at once.
    """
    value = os.environ.get("BRACEFORGE_BOUND")
    if not value:
        return None
    try:
        bound = int(value)
    except ValueError:
        bound = 0
    if bound < 1:
        raise InvalidBound(f"BRACEFORGE_BOUND={value!r} is not a positive integer")
    return bound


def enumeration_bound(default: int = DEFAULT_GROUP_BOUND) -> int:
    """Hard bound on group order for enumeration ops; BRACEFORGE_BOUND overrides."""
    return _env_bound() or default


def holomorph_bound(default: int = DEFAULT_HOLOMORPH_BOUND) -> int:
    """Hard bound on the ambient order of a regular-subgroup search."""
    value = _env_bound()
    # keep the default 1:50 ratio between the two bounds when overridden
    return max(default, 50 * value) if value else default


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Function composition: (p . q)(x) = p(q(x))."""
    return tuple(p[q[i]] for i in range(len(q)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def subset_key(s: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key for carrier subsets: size, then sorted members."""
    t = tuple(sorted(s))
    return (len(t), t)


class FiniteGroup:
    """Finite group given by its Cayley table, with identity at index 0."""

    __slots__ = ("order", "table", "inverse", "name", "_cache")

    def __init__(self, table: tuple[tuple[int, ...], ...], inverse: tuple[int, ...],
                 name: str | None = None):
        self.order = len(table)
        self.table = table
        self.inverse = inverse
        self.name = name
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, name={self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inverse[g]]

    def element_order(self, a: int) -> int:
        orders = self._cache.get("orders")
        if orders is None:
            orders = [0] * self.order
            for g in self.elements():
                x, k = g, 1
                while x != 0:
                    x = self.table[x][g]
                    k += 1
                orders[g] = k
            self._cache["orders"] = orders
        return orders[a]

    def order_histogram(self) -> tuple[tuple[int, int], ...]:
        hist: dict[int, int] = {}
        for g in self.elements():
            k = self.element_order(g)
            hist[k] = hist.get(k, 0) + 1
        return tuple(sorted(hist.items()))

    @property
    def is_abelian(self) -> bool:
        flag = self._cache.get("abelian")
        if flag is None:
            flag = all(self.table[a][b] == self.table[b][a]
                       for a in self.elements() for b in self.elements())
            self._cache["abelian"] = flag
        return flag

    def center(self) -> frozenset[int]:
        z = self._cache.get("center")
        if z is None:
            z = frozenset(a for a in self.elements()
                          if all(self.table[a][b] == self.table[b][a]
                                 for b in self.elements()))
            self._cache["center"] = z
        return z

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by seed; finite, so product closure suffices."""
        members = {0}
        members.update(seed)
        work = list(members)
        while work:
            x = work.pop()
            for y in tuple(members):
                for z in (self.table[x][y], self.table[y][x]):
                    if z not in members:
                        members.add(z)
                        work.append(z)
        return frozenset(members)


def _check_latin_with_identity(table: Sequence[Sequence[int]]) -> None:
    """Non-empty square Latin table of ints 0..n-1 with identity at 0, in that order."""
    n = len(table)
    if n < 1:
        raise NotClosed(0, 0, "empty table")
    for a, row in enumerate(table):
        if len(row) != n:
            raise NotClosed(a, len(row), "row has wrong length")
        for b, v in enumerate(row):
            if type(v) is not int or not 0 <= v < n:
                raise NotClosed(a, b, f"entry {v} outside 0..{n - 1}")
    for a in range(n):
        seen: dict[int, int] = {}
        for b in range(n):
            v = table[a][b]
            if v in seen:
                raise NotClosed(a, b, f"duplicate {v} in row (cols {seen[v]},{b})")
            seen[v] = b
    for b in range(n):
        seen = {}
        for a in range(n):
            v = table[a][b]
            if v in seen:
                raise NotClosed(a, b, f"duplicate {v} in column (rows {seen[v]},{a})")
            seen[v] = a
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            raise NoIdentityAtZero(a)


def validate_group(table: Sequence[Sequence[int]], *, name: str | None = None,
                   assoc_bound: int | None = None) -> FiniteGroup:
    """Check the group axioms and return the group, or raise the first failure.

    Checks run in the order: closure/Latin square, identity at 0,
    associativity (exhaustive for order <= assoc_bound), inverses.
    """
    _check_latin_with_identity(table)
    n = len(table)
    limit = assoc_bound if assoc_bound is not None else enumeration_bound()
    if n > limit:
        raise BoundExceeded("group order (associativity scan)", n, limit)
    rows = [tuple(row) for row in table]
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            ab = ra[b]
            rab = rows[ab]
            rb = rows[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    raise NotAssociative(a, b, c)
    inverse = [0] * n
    for a in range(n):
        b = rows[a].index(0)
        if rows[b][a] != 0:
            raise NoInverse(a)
        inverse[a] = b
    return FiniteGroup(tuple(rows), tuple(inverse), name)


def _group_unchecked(table: Sequence[Sequence[int]], name: str | None = None) -> FiniteGroup:
    """Build a group from a table known to be associative (e.g. a holomorph).

    Latin-square and identity checks still run; only the n^3 scan is skipped.
    """
    _check_latin_with_identity(table)
    rows = tuple(tuple(row) for row in table)
    inverse = tuple(row.index(0) for row in rows)
    return FiniteGroup(rows, inverse, name)


def subgroups(G: FiniteGroup, *, bound: int | None = None) -> list[frozenset[int]]:
    """All subgroups of G, canonically ordered (size, then sorted members).

    Enumerated by closing H u {g} for every known subgroup H and g outside it;
    every subgroup arises this way from the trivial one.
    """
    limit = bound if bound is not None else enumeration_bound()
    if G.order > limit:
        raise BoundExceeded("group order", G.order, limit)
    cached = G._cache.get("subgroups")
    if cached is not None:
        return list(cached)
    base = frozenset({0})
    seen = {base}
    frontier = [base]
    while frontier:
        H = frontier.pop()
        for g in G.elements():
            if g in H:
                continue
            K = G.closure(H | {g})
            if K not in seen:
                seen.add(K)
                frontier.append(K)
    out = sorted(seen, key=subset_key)
    G._cache["subgroups"] = out
    return list(out)


def generating_set(G: FiniteGroup) -> tuple[int, ...]:
    """Small deterministic generating set, grown greedily by element index."""
    gens: list[int] = []
    have = frozenset({0})
    for g in G.elements():
        if g not in have:
            gens.append(g)
            have = G.closure(have | {g})
            if len(have) == G.order:
                break
    return tuple(gens)


def is_automorphism(G: FiniteGroup, perm: Sequence[int]) -> bool:
    if sorted(perm) != list(G.elements()) or perm[0] != 0:
        return False
    return all(perm[G.table[a][b]] == G.table[perm[a]][perm[b]]
               for a in G.elements() for b in G.elements())


def _hom_from_generator_images(G: FiniteGroup, H: FiniteGroup, gens: Sequence[int],
                               images: Sequence[int]) -> Perm | None:
    """Bijective homomorphism G -> H sending gens to images, if one exists."""
    n = G.order
    mapping: list[int | None] = [None] * n
    mapping[0] = 0
    queue = [0]
    while queue:
        x = queue.pop()
        fx = mapping[x]
        for g, h in zip(gens, images):
            y = G.table[x][g]
            fy = H.table[fx][h]
            if mapping[y] is None:
                mapping[y] = fy
                queue.append(y)
    if any(v is None for v in mapping) or len(set(mapping)) != n:
        return None
    for a in range(n):
        ma = mapping[a]
        for b in range(n):
            if mapping[G.table[a][b]] != H.table[ma][mapping[b]]:
                return None
    return tuple(mapping)  # type: ignore[arg-type]


def _isomorphisms(G: FiniteGroup, H: FiniteGroup, sig_G: Sequence,
                  sig_H: Sequence) -> Iterator[Perm]:
    """Every isomorphism G -> H that preserves the element signatures sig_G, sig_H.

    Tries each image of generating_set(G) among the elements of H with the
    generator's signature, in lexicographic order of the image tuple.
    """
    gens = generating_set(G)
    candidates = [[h for h in H.elements() if sig_H[h] == sig_G[g]] for g in gens]
    for images in itertools.product(*candidates):
        f = _hom_from_generator_images(G, H, gens, images)
        if f is not None:
            yield f


def _element_orders(G: FiniteGroup) -> list[int]:
    return [G.element_order(g) for g in G.elements()]


def automorphism_group(G: FiniteGroup, *, bound: int | None = None) -> list[Perm]:
    """All automorphisms of G, sorted; generator images pruned by element order."""
    limit = bound if bound is not None else enumeration_bound()
    if G.order > limit:
        raise BoundExceeded("group order", G.order, limit)
    cached = G._cache.get("automorphisms")
    if cached is None:
        orders = _element_orders(G)
        cached = sorted(_isomorphisms(G, G, orders, orders))
        G._cache["automorphisms"] = cached
    return list(cached)


def inner_automorphisms(G: FiniteGroup) -> list[Perm]:
    """Conjugation maps {x -> g x g^-1}, deduplicated and sorted."""
    perms = {tuple(G.conjugate(g, x) for x in G.elements()) for g in G.elements()}
    return sorted(perms)


class PermTable:
    """A list of permutations closed under composition, with index arithmetic.

    Used as the automorphism component of a holomorph: `comp[i][j]` is the
    index of perms[i] o perms[j], and index 0 is the identity.
    """

    __slots__ = ("perms", "index", "comp", "inv")

    def __init__(self, perms: Sequence[Perm]):
        self.perms = tuple(sorted(perms))
        if self.perms[0] != identity_perm(len(self.perms[0])):
            raise ValueError("permutation list must contain the identity")
        self.index = {p: i for i, p in enumerate(self.perms)}
        self.comp = [[self.index[compose(p, q)] for q in self.perms] for p in self.perms]
        self.inv = [self.index[invert(p)] for p in self.perms]

    def __len__(self) -> int:
        return len(self.perms)


def _pair_pool(G: FiniteGroup, ambient: str, bound: int | None) -> PermTable:
    if ambient == "holomorph":
        pool = PermTable(automorphism_group(G))
    elif ambient == "inner":
        pool = PermTable(inner_automorphisms(G))
    else:
        raise ValueError(f"unknown ambient {ambient!r}; use 'holomorph' or 'inner'")
    limit = bound if bound is not None else holomorph_bound()
    total = G.order * len(pool)
    if total > limit:
        raise BoundExceeded("ambient sub-holomorph order", total, limit)
    return pool


def holomorph(G: FiniteGroup, *, bound: int | None = None) -> FiniteGroup:
    """The semidirect product of G by its full automorphism group.

    Pairs (g, phi) are indexed as g*|Aut| + i with (0, id) at index 0 and the
    product (g, phi)(h, psi) = (g phi(h), phi psi).
    """
    pool = _pair_pool(G, "holomorph", bound)
    k = len(pool)
    n = G.order
    table = []
    for g in range(n):
        for i in range(k):
            pi = pool.perms[i]
            ci = pool.comp[i]
            row = [0] * (n * k)
            col = 0
            for h in range(n):
                gh = G.table[g][pi[h]]
                base = gh * k
                for j in range(k):
                    row[col] = base + ci[j]
                    col += 1
            table.append(row)
    name = f"Hol({G.name})" if G.name else None
    return _group_unchecked(table, name)


@dataclass(frozen=True)
class RegularSubgroup:
    """A regular subgroup of a sub-holomorph of G, stored as g -> phi_g.

    `assignment[g]` indexes into `pool` (the ambient automorphism list); the
    subgroup is exactly {(g, pool[assignment[g]]) : g in G}.
    """

    group: FiniteGroup
    pool: tuple[Perm, ...]
    assignment: tuple[int, ...]

    def perm(self, g: int) -> Perm:
        return self.pool[self.assignment[g]]

    def pairs(self) -> list[tuple[int, int]]:
        return [(g, self.assignment[g]) for g in self.group.elements()]

    def multiplication_table(self) -> tuple[tuple[int, ...], ...]:
        """Product law on first coordinates: g * h = g . phi_g(h) in G."""
        G = self.group
        return tuple(tuple(G.table[g][self.perm(g)[h]] for h in G.elements())
                     for g in G.elements())


def regular_subgroups(G: FiniteGroup, ambient: str = "holomorph", *,
                      bound: int | None = None) -> list[RegularSubgroup]:
    """Every regular subgroup of the chosen ambient, canonically ordered.

    Backtracking over the map g -> phi_g: the subgroup law forces
    phi at g.phi_g(h) to equal phi_g o phi_h, so each choice propagates
    through the generated closure.  Partial closures must stay injective on
    first coordinates and have size dividing |G|.
    """
    pool = _pair_pool(G, ambient, bound)
    n = G.order
    comp = pool.comp
    perms = pool.perms
    table = G.table
    results: list[tuple[int, ...]] = []

    def propagate(assign: list[int | None], count: int, fresh: list[int]) -> int:
        """Close assigned pairs under the product; return new count or -1."""
        while fresh:
            k = fresh.pop()
            ak = assign[k]
            pk = perms[ak]
            ck = comp[ak]
            for a in range(n):
                ia = assign[a]
                if ia is None:
                    continue
                # (a, phi_a)(k, phi_k)
                t = table[a][perms[ia][k]]
                want = comp[ia][ak]
                got = assign[t]
                if got is None:
                    assign[t] = want
                    count += 1
                    fresh.append(t)
                elif got != want:
                    return -1
                # (k, phi_k)(a, phi_a)
                t = table[k][pk[a]]
                want = ck[ia]
                got = assign[t]
                if got is None:
                    assign[t] = want
                    count += 1
                    fresh.append(t)
                elif got != want:
                    return -1
        return count

    def search(assign: list[int | None], count: int) -> None:
        if count == n:
            results.append(tuple(assign))  # type: ignore[arg-type]
            return
        g = next(i for i in range(n) if assign[i] is None)
        for choice in range(len(perms)):
            trial = assign.copy()
            trial[g] = choice
            new_count = propagate(trial, count + 1, [g])
            if new_count < 0 or n % new_count != 0:
                continue
            search(trial, new_count)

    start: list[int | None] = [None] * n
    start[0] = 0
    search(start, 1)
    results.sort()
    return [RegularSubgroup(G, perms, r) for r in results]


def group_isomorphism(G1: FiniteGroup, G2: FiniteGroup, *,
                      bound: int | None = None) -> Perm | None:
    """An isomorphism G1 -> G2 as a permutation, or None."""
    limit = bound if bound is not None else enumeration_bound()
    if G1.order > limit:
        raise BoundExceeded("group order", G1.order, limit)
    if G1.order != G2.order or G1.order_histogram() != G2.order_histogram():
        return None
    return next(_isomorphisms(G1, G2, _element_orders(G1), _element_orders(G2)), None)


def normal_closure(G: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    members = set(G.closure(seed))
    work = list(members)
    while work:
        x = work.pop()
        for g in G.elements():
            y = G.conjugate(g, x)
            if y not in members:
                grown = G.closure(members | {y})
                work.extend(grown - members)
                members = set(grown)
    return frozenset(members)


def is_simple(G: FiniteGroup) -> bool:
    """No proper non-trivial normal subgroup (order-1 groups are not simple)."""
    if G.order == 1:
        return False
    return all(len(normal_closure(G, {g})) == G.order for g in range(1, G.order))


def assert_simple_nonabelian(G: FiniteGroup, *, bound: int = 360) -> None:
    if G.order > bound:
        raise BoundExceeded("group order (simplicity scan)", G.order, bound)
    if G.is_abelian:
        raise NotSimple(G.order, "group is abelian")
    if not is_simple(G):
        raise NotSimple(G.order, "proper normal subgroup exists")
