"""Finite groups as Cayley tables over element indices 0..n-1, identity at 0.

Everything downstream (braces, holomorphs, the census) works with the same
representation: an immutable n x n table of indices, plus the inverse list.
Enumeration operations check hard bounds set by BRACEFORGE_BOUND, so blow-ups fail loudly.
"""

from __future__ import annotations

import functools
import operator
import os
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator, Sequence

from .errors import (
    BoundExceeded,
    InternalInvariant,
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
SIMPLICITY_SCAN_MAX_ORDER = 360


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


def enumeration_bound() -> int:
    """Hard bound on group order for enumeration ops: BRACEFORGE_BOUND, else 200."""
    return _env_bound() or DEFAULT_GROUP_BOUND


def holomorph_bound() -> int:
    """Hard bound on a regular-subgroup search's ambient order: max(10000, 50 * BRACEFORGE_BOUND)."""
    value = _env_bound()
    return max(DEFAULT_HOLOMORPH_BOUND, 50 * value) if value else DEFAULT_HOLOMORPH_BOUND


def check_bound(what: str, actual: int, limit: int) -> None:
    """Raise BoundExceeded when actual is above limit."""
    if actual > limit:
        raise BoundExceeded(what, actual, limit)


def check_group_order(n: int) -> None:
    """Raise BoundExceeded when a group of order n is above enumeration_bound()."""
    check_bound("group order (associativity scan)", n, enumeration_bound())


_MISSING = object()


def memoised(fn: Callable) -> Callable:
    """Memoise fn(obj, *args) on obj._cache: the package's one cache policy.

    Objects are immutable and args hashable (subsets as frozensets); errors are
    never cached.  Callers run bound checks, and argument checks that a
    cached key would not prove, before the lookup; a check that fn raises on
    needs no repeat on a hit, since its key never enters the cache.
    `wrapper.cached_or(obj, compute, *args)` reads and fills the same entry,
    running compute() in place of fn on a miss, for a caller that already
    holds what fn would recompute; compute() must return what fn would.
    """
    @functools.wraps(fn)
    def wrapper(obj, *args):
        key = (fn, *args)
        cache = obj._cache
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = fn(obj, *args)
        return value

    def cached_or(obj, compute: Callable[[], object], *args):
        key = (fn, *args)
        cache = obj._cache
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = compute()
        return value

    wrapper.cached_or = cached_or
    return wrapper


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Function composition: (p . q)(x) = p(q(x)), as a tuple.

    The row kernel of the validators: on Cayley-table rows, compose(row(x),
    row(g)) is the row y -> x(gy).  One `operator.itemgetter` call does the
    gather at C speed; it returns a bare entry when given one index, hence
    the guard.
    """
    if len(q) < 2:
        return tuple(p[i] for i in q)
    return operator.itemgetter(*q)(p)


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
        return self._orders()[a]

    @memoised
    def _orders(self) -> list[int]:
        orders = [0] * self.order
        for g in self.elements():
            x, k = g, 1
            while x != 0:
                x = self.table[x][g]
                k += 1
            orders[g] = k
        return orders

    @memoised
    def order_histogram(self) -> tuple[tuple[int, int], ...]:
        hist: dict[int, int] = {}
        for k in self._orders():
            hist[k] = hist.get(k, 0) + 1
        return tuple(sorted(hist.items()))

    @memoised
    def generators(self) -> tuple[int, ...]:
        """generating_set of the table, computed once per group."""
        return generating_set(self.table)

    @property
    @memoised
    def is_abelian(self) -> bool:
        """The generators commute pairwise.

        The elements commuting with a given one form a subgroup, so then
        each generator commutes with all of G, and G is its centre.
        """
        table, gens = self.table, self.generators()
        return all(table[a][b] == table[b][a] for a in gens for b in gens)

    @memoised
    def center(self) -> frozenset[int]:
        """The elements commuting with every generator, n |gens| products.

        The elements commuting with a given one form a subgroup, so one that
        commutes with the generators commutes with all of G.
        """
        table, gens = self.table, self.generators()
        return frozenset(a for a, row in enumerate(table)
                         if all(row[g] == table[g][a] for g in gens))

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by seed, grown by closure_with_generators: O(|K| |gens|) products."""
        return frozenset(closure_with_generators(self.table, seed)[0])


def grow_closure(table: Sequence[Sequence[int]], members: list[int], seen: list[bool],
                 gens: list[int], g: int, within: Container[int] | None = None) -> bool:
    """Make g, not yet a member, the next generator of a closure grown in place.

    `members` lists the elements reached, from [0], `seen[x]` marks them, and
    they are closed under right products by every generator in `gens`.  The
    new generator multiplies every member once, and every new member
    multiplies each generator, so the whole growth costs O(|K| |gens|)
    products.  In a finite group the members form the subgroup the
    generators generate; in any table with identity at 0 they are every
    product of the generators.  Given `within`, the growth stops at the
    first new member outside it and returns False, the closure left part
    grown; otherwise it returns True.
    """
    gens.append(g)
    old = len(members)  # these have met every earlier generator already
    i = 0
    while i < len(members):
        row = table[members[i]]
        for s in (g,) if i < old else gens:
            z = row[s]
            if not seen[z]:
                if within is not None and z not in within:
                    return False
                seen[z] = True
                members.append(z)
        i += 1
    return True


def closure_with_generators(table: Sequence[Sequence[int]], seed: Iterable[int],
                            within: Container[int] | None = None) -> tuple[list[int], list[int]] | None:
    """The closure of seed in table and the generators it was grown from.

    The closure is grown by grow_closure from [0], walking seed in increasing
    order: each element of seed that the closure does not yet hold becomes
    the next generator.  So every element of seed is a product of the
    generators, and in a group no generator lies in the subgroup the earlier
    ones generate.  Given `within`, None is returned as soon as a product
    falls outside it: so a seed holding 0 is a subgroup of a group exactly
    when within=seed returns a closure, which is then the seed.
    """
    members, seen, gens = [0], [True] + [False] * (len(table) - 1), []
    for g in sorted(seed):
        if not seen[g] and not grow_closure(table, members, seen, gens, g, within):
            return None
    return members, gens


def _check_latin_with_identity(table: Sequence[Sequence[int]]) -> None:
    """Non-empty square Latin table of ints 0..n-1 with identity at 0, in that order.

    Whole rows and columns are compared with 0..n-1 as sets first; a table
    they reject goes through the entry-by-entry scan, which names the first
    failure.
    """
    if not _is_latin_with_identity(table):
        _latin_scan(table)
        raise InternalInvariant("the set-based Latin check rejected a table the scan accepts")


def _is_latin_with_identity(table: Sequence[Sequence[int]]) -> bool:
    n = len(table)
    full = set(range(n))
    return (n >= 1
            and all(len(row) == n and set(map(type, row)) == {int} and set(row) == full
                    for row in table)
            and all(set(col) == full for col in zip(*table))
            and list(table[0]) == list(range(n))
            and [row[0] for row in table] == list(range(n)))


def _latin_scan(table: Sequence[Sequence[int]]) -> None:
    """Raise the first failure of the Latin-square and identity checks, if any."""
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


def validate_group(table: Sequence[Sequence[int]], *, name: str | None = None) -> FiniteGroup:
    """Check the group axioms and return the group, or raise the first failure.

    Checks run in the order: closure/Latin square, identity at 0,
    associativity (for order <= enumeration_bound()), inverses.

    Associativity is proven by Light's test on the group's generators(): the
    elements g with (xg)y = x(gy) for all x, y are closed under the product,
    so it is enough that row(xg) == compose(row(x), row(g)) for every x and
    every generator g, |S| n row compares in all.  When the test fails, the
    lexicographic scan over all triples names the first witness, so a
    rejection reports the same NotAssociative as a full scan.  The group is
    built before the test, so the generators it computes stay memoised on
    the group that is returned.
    """
    _check_latin_with_identity(table)
    n = len(table)
    check_group_order(n)
    rows = tuple(tuple(row) for row in table)
    G = FiniteGroup(rows, tuple([row.index(0) for row in rows]), name)
    if not _light_associative(rows, G.generators()):
        _assoc_scan(rows)
        raise InternalInvariant("Light's associativity test rejected a table the scan accepts")
    for a, b in enumerate(G.inverse):
        if rows[b][a] != 0:
            raise NoInverse(a)
    return G


def _light_associative(rows: tuple[tuple[int, ...], ...], gens: Sequence[int]) -> bool:
    """Light's test: row(xg) == row(x) . row(g) for every x and every generator g.

    One itemgetter per generator gathers every row at row(g).  A table of
    order 1 has no generators, so each getter takes at least two indices
    and returns a tuple.
    """
    for g in gens:
        gather = operator.itemgetter(*rows[g])
        if any(rows[row[g]] != gather(row) for row in rows):
            return False
    return True


def _assoc_scan(rows: tuple[tuple[int, ...], ...]) -> None:
    """Raise NotAssociative at the lexicographically first failing triple, if any."""
    n = len(rows)
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            ab = ra[b]
            rab = rows[ab]
            rb = rows[b]
            for c in range(n):
                if rab[c] != ra[rb[c]]:
                    raise NotAssociative(a, b, c)


def _group_unchecked(table: Sequence[Sequence[int]], name: str | None = None) -> FiniteGroup:
    """Build a group from a table known to be associative (e.g. a holomorph).

    Latin-square and identity checks still run; only the n^3 scan is skipped.
    """
    _check_latin_with_identity(table)
    rows = tuple(tuple(row) for row in table)
    inverse = tuple(row.index(0) for row in rows)
    return FiniteGroup(rows, inverse, name)


def subgroups(G: FiniteGroup) -> list[frozenset[int]]:
    """All subgroups of G, canonically ordered (size, then sorted members).

    Enumerated as <H, g> for every known subgroup H and g outside it; every
    subgroup arises this way from the trivial one.  Since <H, hg> = <H, g>,
    one g per right coset Hg is tried, and <H, g> is grown from H's members
    and generators by grow_closure rather than closed from scratch.
    """
    check_bound("group order", G.order, enumeration_bound())
    return [K for K, _ in _subgroups(G)]


@memoised
def _subgroups(G: FiniteGroup) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """subgroups(G), each paired with the generators it was first grown from."""
    table = G.table
    found = {frozenset({0}): ()}
    frontier = [([0], [True] + [False] * (G.order - 1), [])]
    while frontier:
        members, seen, gens = frontier.pop()
        covered = seen.copy()  # the union of the right cosets already tried
        for g in G.elements():
            if covered[g]:
                continue
            for h in members:
                covered[table[h][g]] = True
            grown, grown_seen, grown_gens = members.copy(), seen.copy(), gens.copy()
            grow_closure(table, grown, grown_seen, grown_gens, g)
            K = frozenset(grown)
            if K not in found:
                found[K] = tuple(grown_gens)
                frontier.append((grown, grown_seen, grown_gens))
    return sorted(found.items(), key=lambda item: subset_key(item[0]))


def generating_set(table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Small deterministic generating set of a Cayley table, grown greedily by index.

    The generators closure_with_generators takes from the whole carrier: every element
    that the generators so far do not reach becomes the next generator, and
    one closure is grown, O(n |S|) products in all.  In a group the closure
    is the subgroup the generators generate, so the choice is the one that
    re-closing from scratch makes; in any table with identity at 0 every
    element is a product of the generators.
    """
    return tuple(closure_with_generators(table, range(len(table)))[1])


def _hom_from_generator_images(G: FiniteGroup, H: FiniteGroup, gens: Sequence[int],
                               images: Sequence[int]) -> Perm | None:
    """Bijective homomorphism G -> H sending gens to images, if one exists.

    The map is grown from f(0) = 0 along the edges x -> xg of G's Cayley
    graph on gens, as f(xg) = f(x) h_g, and each edge is checked as it is
    taken: an edge to an element already mapped to another image ends the
    search.  When every edge holds, f(xw) = f(x) f(w) for every word w in
    the generators by induction on its length, and in a finite group every
    element is such a word, so f is a homomorphism with no check over all
    pairs.  Elements the generators do not reach, and a map that is not
    injective, give None.
    """
    n = G.order
    G_table, H_table = G.table, H.table
    edges = tuple(zip(gens, images))
    mapping: list[int | None] = [None] * n
    mapping[0] = 0
    queue = [0]
    while queue:
        x = queue.pop()
        row_x, row_fx = G_table[x], H_table[mapping[x]]  # type: ignore[index]
        for g, h in edges:
            y, fy = row_x[g], row_fx[h]
            got = mapping[y]
            if got is None:
                mapping[y] = fy
                queue.append(y)
            elif got != fy:
                return None
    if None in mapping or len(set(mapping)) != n:
        return None
    return tuple(mapping)  # type: ignore[arg-type]


def _isomorphisms(G: FiniteGroup, H: FiniteGroup, sig_G: Sequence,
                  sig_H: Sequence) -> Iterator[Perm]:
    """Every isomorphism G -> H that preserves the element signatures sig_G, sig_H.

    Tries each image of an irredundant generating set of G among the elements
    of H with the generator's signature, in lexicographic order of the image
    tuple.  Each generator multiplies the number of tuples by the size of its
    candidate list, and the image of one that the others generate is fixed by
    theirs, so such generators are dropped first (see _irredundant).  A map
    that preserves the signatures of all elements sends g_i g_k to h_i h_k
    and g_i^-1 g_k to h_i^-1 h_k, so an image h_k is skipped, before any
    Cayley-graph fill, when h_i h_k, h_k h_i or h_i^-1 h_k, for an image h_i
    already chosen, differs in signature from g_i g_k, g_k g_i or g_i^-1 g_k.
    g_k g_i is redundant for element orders, being conjugate to g_i g_k, but
    not for the brace signatures that is_isomorphic passes.
    """
    gens, tuples = _image_tuples(G, H, sig_G, sig_H)
    for images in tuples:
        f = _hom_from_generator_images(G, H, gens, images)
        if f is not None:
            yield f


def _image_tuples(G: FiniteGroup, H: FiniteGroup, sig_G: Sequence, sig_H: Sequence
                  ) -> tuple[tuple[int, ...], Iterator[tuple[int, ...]]]:
    """The irredundant generators of G, and the image tuples _isomorphisms tries for them.

    For each earlier generator g_i, the image of g_k must give g_i g_k, g_k g_i
    and g_i^-1 g_k images of their signatures: an isomorphism f maps them to
    f(g_i) f(g_k), f(g_k) f(g_i) and f(g_i)^-1 f(g_k).
    """
    gens = _irredundant(G, G.generators())
    table, inverse = G.table, G.inverse
    candidates = [[h for h in H.elements() if sig_H[h] == sig_G[g]] for g in gens]
    pairs = [[(i, sig_G[table[gi][g]], sig_G[table[g][gi]], sig_G[table[inverse[gi]][g]])
              for i, gi in enumerate(gens[:k])]
             for k, g in enumerate(gens)]
    return gens, _pair_consistent_images(H, sig_H, candidates, pairs, ())


def _pair_consistent_images(H: FiniteGroup, sig: Sequence,
                            candidates: Sequence[Sequence[int]], pairs: Sequence[Sequence[tuple]],
                            images: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The extensions of images by one candidate per further generator, in lexicographic
    order, whose products h_i h, h h_i and h_i^-1 h with each image h_i before them have
    the signatures in pairs."""
    k = len(images)
    if k == len(candidates):
        yield images
        return
    table, inverse = H.table, H.inverse
    for h in candidates[k]:
        if all(sig[table[images[i]][h]] == left and sig[table[h][images[i]]] == right
               and sig[table[inverse[images[i]]][h]] == quotient
               for i, left, right, quotient in pairs[k]):
            yield from _pair_consistent_images(H, sig, candidates, pairs, images + (h,))


def _irredundant(G: FiniteGroup, gens: Sequence[int]) -> tuple[int, ...]:
    """gens less each generator, first to last, that the generators still kept generate.

    A generator is dropped only when it lies in the closure of the others, so
    the kept ones still generate what gens did.  Greedy generating sets grow
    by index and often carry such a generator: on some relabellings of A5,
    generating_set returns three.
    """
    kept = list(gens)
    for g in gens:
        rest = [h for h in kept if h != g]
        if g in G.closure(rest):
            kept = rest
    return tuple(kept)


def automorphism_group(G: FiniteGroup) -> list[Perm]:
    """All automorphisms of G, sorted: the closure under composition of those that
    the isomorphism search over generator images finds (see _automorphisms)."""
    check_bound("group order", G.order, enumeration_bound())
    return list(_automorphisms(G))


@memoised
def _automorphisms(G: FiniteGroup) -> list[Perm]:
    """Aut(G) grown as a closure while the image tuples of _isomorphisms are walked.

    A member's key is its tuple of images of the irredundant generators.  An
    automorphism is fixed by its key, and composites of automorphisms are
    automorphisms, so a tuple that is already a member's key is skipped, and
    only the others get a Cayley-graph fill.  Every automorphism's key is
    among the tuples walked, so the closure ends as Aut(G).  Each successful
    fill becomes the next generator of the closure, grown as grow_closure
    grows one: every old member times the new generator once, then every new
    member times each generator.  The key of m o s is m at the key of s, so a
    product is built in full only when it is new.  By Lagrange each growth
    multiplies the closure's size by an integer, which is checked.
    """
    orders = G._orders()
    gens, tuples = _image_tuples(G, G, orders, orders)
    members = [identity_perm(G.order)]
    keys = {gens}
    generators: list[tuple[Perm, tuple[int, ...]]] = []
    for images in tuples:
        if images in keys:
            continue
        f = _hom_from_generator_images(G, G, gens, images)
        if f is None:
            continue
        generators.append((f, images))
        old = len(members)
        i = 0
        while i < len(members):
            m = members[i]
            for s, key_s in generators[-1:] if i < old else generators:
                key = compose(m, key_s)
                if key not in keys:
                    keys.add(key)
                    members.append(compose(m, s))
            i += 1
        if len(members) % old:
            raise InternalInvariant(f"a new automorphism grew the closure from {old} to "
                                    f"{len(members)} members, not a multiple")
    return sorted(members)


class PermTable:
    """A list of permutations closed under composition, with index arithmetic.

    Used as the automorphism component of a holomorph: `comp[i][j]` is the
    index of perms[i] o perms[j], and index 0 is the identity.

    Only the rows of a greedy generating set are composed and hashed.  The
    other rows are reached from the identity as a closure is grown (see
    grow_closure), each as a gather of two known rows: row(s o p) is
    compose(row(s), row(p)).  If the generators' rows stay inside the list,
    the list is closed, since every member is a product of generators.
    """

    __slots__ = ("perms", "index", "comp", "inv")

    def __init__(self, perms: Sequence[Perm]):
        self.perms = tuple(sorted(perms))
        if self.perms[0] != identity_perm(len(self.perms[0])):
            raise ValueError("permutation list must contain the identity")
        self.index = {p: i for i, p in enumerate(self.perms)}
        k = len(self.perms)
        rows: list = [None] * k
        rows[0] = tuple(range(k))
        members, seen, gens = [0], [True] + [False] * (k - 1), []
        for g in range(k):
            if seen[g]:
                continue
            rows[g] = self._composed_row(g)
            gens.append(g)
            old = len(members)
            i = 0
            while i < len(members):
                p = members[i]
                for s in (g,) if i < old else gens:
                    q = rows[s][p]
                    if not seen[q]:
                        seen[q] = True
                        members.append(q)
                        if rows[q] is None:
                            rows[q] = compose(rows[s], rows[p])
                i += 1
        self.comp = rows
        self.inv = [row.index(0) for row in rows]

    def _composed_row(self, i: int) -> tuple[int, ...]:
        index, p = self.index, self.perms[i]
        try:
            return tuple([index[compose(p, q)] for q in self.perms])
        except KeyError:
            raise ValueError("permutation list is not closed under composition") from None

    def __len__(self) -> int:
        return len(self.perms)


def pair_pool(G: FiniteGroup) -> PermTable:
    """Aut(G), the automorphism component of the holomorph, built once per G.

    The bound is checked on G.order * |Aut(G)| before the k x k composition
    table is built or looked up, so an oversized ambient fails at once.
    """
    check_bound("ambient sub-holomorph order", G.order * len(automorphism_group(G)),
                holomorph_bound())
    return _perm_table(G)


@memoised
def _perm_table(G: FiniteGroup) -> PermTable:
    return PermTable(automorphism_group(G))


def _prime_power(n: int) -> int | None:
    """The prime p when n = p^k with k >= 1, else None."""
    # the least divisor above 1 is prime
    p = next((d for d in range(2, n + 1) if n % d == 0), None)
    if p is None:
        return None
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def sylow_indices(G: FiniteGroup) -> tuple[int, ...]:
    """A Sylow p-subgroup P of Aut(G) when |G| = p^m, as sorted indices into
    pair_pool(G); every index when |G| is no prime power.

    A regular subgroup H of Hol(G) has order p^m, and its image in Aut(G) is
    a quotient of H, so a p-group; by Sylow's theorem it lies in a conjugate
    of P.  Conjugating H by an automorphism conjugates its image, so every
    Aut(G)-orbit of regular subgroups meets G x| P.  The bound is checked as
    pair_pool checks it, before the memoised lookup.
    """
    pair_pool(G)
    return _sylow_indices(G)


@memoised
def _sylow_indices(G: FiniteGroup) -> tuple[int, ...]:
    """P grown greedily: each automorphism in index order joins P when <P, x> is a p-group.

    The pass stops once |P| is the p-part of |Aut(G)|, and one pass is
    enough.  Were the final P not Sylow, it would lie properly in a Sylow
    p-subgroup S, and some x in N_S(P) outside P would make <P, x> = P<x> a
    p-group; when x was tried, P was then a subgroup of its final value, so
    <P, x> was a p-group too and x was taken.
    """
    pool = _perm_table(G)
    k = len(pool)
    p = _prime_power(G.order)
    part = 1
    while p is not None and k % (part * p) == 0:
        part *= p
    if p is None or part == k:
        return tuple(range(k))
    members, seen, gens = [0], [True] + [False] * (k - 1), []
    for x in range(k):
        if len(members) == part:
            break
        if seen[x]:
            continue
        old = len(members)
        grow_closure(pool.comp, members, seen, gens, x)
        if part % len(members):  # <P, x> is not a p-group
            for y in members[old:]:
                seen[y] = False
            del members[old:]
            gens.pop()
    if len(members) != part:
        raise InternalInvariant(f"the greedy Sylow {p}-subgroup of Aut has order "
                                f"{len(members)}, not {part}")
    return tuple(sorted(members))


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

    def multiplication_table(self) -> tuple[tuple[int, ...], ...]:
        """Product law on first coordinates: g * h = g . phi_g(h) in G."""
        G = self.group
        return tuple(tuple(map(G.table[g].__getitem__, self.perm(g))) for g in G.elements())


def regular_subgroups(G: FiniteGroup, ambient: str = "holomorph") -> list[RegularSubgroup]:
    """Every regular subgroup of the chosen ambient, canonically ordered.

    The ambient is G x| Aut(G) ("holomorph") or G x| P ("sylow") for the
    Sylow subgroup P of sylow_indices, which is the whole holomorph unless
    |G| is a prime power and |Aut(G)| is not.  Both searches index
    pair_pool(G), and the "sylow" search tries only phi in P; a product of
    pairs whose phi lie in P has its phi in P, so it finds exactly the
    regular subgroups of G x| P, with the assignments the holomorph search
    gives them.

    Backtracking over the map g -> phi_g.  A node is a subgroup K of the
    ambient that is injective on first coordinates: `assign` holds phi at
    each first coordinate of K (None elsewhere), `members` lists K and the
    pairs in `gens` generate it.  The least g outside K is tried with every phi
    for which the cyclic subgroup <(g, phi)> is injective on first
    coordinates and of order dividing |G| (found once per g), and each trial
    closure is grown as grow_closure grows one: every old member times
    (g, phi) once, then every new member times each generator.  Two pairs on
    one first coordinate end the trial, which happens exactly when
    <K, (g, phi)> is not injective on first coordinates; a closure whose
    size does not divide |G| is cut too.

    Dead nodes are cut before any trial.  The first coordinate of
    (m, phi_m)(g, phi) is m . phi_m(g) whatever phi is.  If these |K| points
    are not distinct, every phi fails.  None of them lies in K, since
    (m, phi_m)^-1 (t, phi_t) has first coordinate g when t = m . phi_m(g); so
    when they are distinct the first step assigns them with no conflict check.
    """
    if ambient not in ("holomorph", "sylow"):
        raise ValueError(f"unknown ambient {ambient!r}; use 'holomorph' or 'sylow'")
    pool = pair_pool(G)
    allowed = _sylow_indices(G) if ambient == "sylow" else range(len(pool))
    n = G.order
    comp = pool.comp
    perms = pool.perms
    table = G.table
    results: list[tuple[int, ...]] = []
    assign: list[int | None] = [None] * n
    assign[0] = 0
    members: list[int] = [0]
    gens: list[tuple[int, int]] = []
    cyclic_choices: dict[int, list[int]] = {}

    def choices(g: int) -> list[int]:
        """The phi with <(g, phi)> injective on first coordinates and of order dividing n.

        The powers of (g, phi) are the pairs (x, a) with x <- x . perms[a](g)
        and a <- a o phi: their first coordinates must reach 0 before any
        repeats, at a = id.
        """
        if g not in cyclic_choices:
            ok = cyclic_choices[g] = []
            for c in allowed:
                x, a, seen = g, c, {0}
                while x not in seen:
                    seen.add(x)
                    x, a = table[x][perms[a][g]], comp[a][c]
                if x == 0 and a == 0 and n % len(seen) == 0:
                    ok.append(c)
        return cyclic_choices[g]

    def grow(i: int) -> bool:
        """Close members[i:] under right products by every generator; False on a conflict."""
        while i < len(members):
            x = members[i]
            ax = assign[x]
            px, cx, row = perms[ax], comp[ax], table[x]
            for s, a in gens:
                t = row[px[s]]
                got = assign[t]
                if got is None:
                    assign[t] = cx[a]
                    members.append(t)
                elif got != cx[a]:
                    return False
            i += 1
        return True

    def search() -> None:
        old = len(members)
        if old == n:
            results.append(tuple(assign))  # type: ignore[arg-type]
            return
        g = assign.index(None)
        firsts = [table[m][perms[assign[m]][g]] for m in members]
        if len(set(firsts)) < old:
            return
        rows = [comp[assign[m]] for m in members]
        gens.append((g, 0))
        for choice in choices(g):
            for t, row in zip(firsts, rows):
                assign[t] = row[choice]
            members.extend(firsts)
            gens[-1] = (g, choice)
            if grow(old) and n % len(members) == 0:
                search()
            for i in range(old, len(members)):
                assign[members[i]] = None
            del members[old:]
        gens.pop()

    search()
    results.sort()
    return [RegularSubgroup(G, perms, r) for r in results]


def group_isomorphism(G1: FiniteGroup, G2: FiniteGroup) -> Perm | None:
    """An isomorphism G1 -> G2 as a permutation, or None.

    Element-order histograms are compared first.  The isomorphism returned is
    the first that _isomorphisms finds, so which one it is depends on the
    generating set searched; use it as a witness of existence.
    """
    check_bound("group order", G1.order, enumeration_bound())
    if G1.order != G2.order or G1.order_histogram() != G2.order_histogram():
        return None
    return next(_isomorphisms(G1, G2, G1._orders(), G2._orders()), None)


def normal_closure(G: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    """Least normal subgroup containing seed.

    One closure grows from the seed, and each member's conjugates by the
    generators of G are added once, when it is reached: at the end the
    members form a subgroup N with gNg^-1 inside N for every generator g.
    Then gNg^-1 = N, since both have |N| elements, so N is normal: the g
    with gNg^-1 = N form a subgroup, and it holds the generators.
    """
    table, inverse, conjugators = G.table, G.inverse, G.generators()
    members, seen, gens = [0], [True] + [False] * (G.order - 1), []
    for y in seed:
        if not seen[y]:
            grow_closure(table, members, seen, gens, y)
    k = 0
    while k < len(members):
        x = members[k]
        for g in conjugators:
            y = table[table[g][x]][inverse[g]]
            if not seen[y]:
                grow_closure(table, members, seen, gens, y)
        k += 1
    return frozenset(members)


def is_simple(G: FiniteGroup) -> bool:
    """No proper non-trivial normal subgroup (order-1 groups are not simple).

    Conjugates have the same normal closure, so one element per conjugacy
    class is tried.
    """
    if G.order == 1:
        return False
    covered = {0}
    for g in G.elements():
        if g in covered:
            continue
        if len(normal_closure(G, {g})) != G.order:
            return False
        covered.update(G.conjugate(h, g) for h in G.elements())
    return True


def assert_simple_nonabelian(G: FiniteGroup) -> None:
    check_bound("group order (simplicity scan)", G.order, SIMPLICITY_SCAN_MAX_ORDER)
    if G.is_abelian:
        raise NotSimple(G.order, "group is abelian")
    if not is_simple(G):
        raise NotSimple(G.order, "proper normal subgroup exists")
