"""Slow reference implementations that the tests hold the fast kernels to.

Import as `from reference import ...`: the `pythonpath` setting of pytest in
pyproject.toml puts this directory on sys.path.
"""

import itertools
import random

from braceforge.braces import (
    Quotient,
    SkewBrace,
    SubsetFlags,
    classify_subset,
    quotient,
    star,
    sub_brace,
    subbraces,
    validate_brace,
)
from braceforge.catalog import cyclic, dicyclic, dihedral, direct_product_group
from braceforge.errors import NotAnIdeal
from braceforge.groups import (
    FiniteGroup,
    RegularSubgroup,
    _group_unchecked,
    _hom_from_generator_images,
    _irredundant,
    _prime_power,
    compose,
    group_isomorphism,
    grow_closure,
    pair_pool,
    subset_key,
    validate_group,
)
from braceforge.structure import (
    ZERO,
    ChiefFactorReport,
    SeriesWitness,
    abelian_step,
    all_ideals,
    derived_ideal,
    frattini,
    maximal_subbraces,
    minimal_ideals,
)
from braceforge.ybe import make_partition


def invert(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def is_automorphism(G: FiniteGroup, perm) -> bool:
    if sorted(perm) != list(G.elements()) or perm[0] != 0:
        return False
    return all(perm[G.table[a][b]] == G.table[perm[a]][perm[b]]
               for a in G.elements() for b in G.elements())


def reference_hom_from_generator_images(G: FiniteGroup, H: FiniteGroup, gens, images):
    """Bijective homomorphism G -> H sending gens to images, by a fill and a check of all n^2 pairs."""
    n = G.order
    mapping = [None] * n
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
    return tuple(mapping)


# four of the fourteen groups of order 16, all of them 2-groups
ORDER_16 = [direct_product_group(cyclic(4), cyclic(4)), direct_product_group(cyclic(8), cyclic(2)),
            direct_product_group(dihedral(4), cyclic(2)), direct_product_group(dicyclic(2), cyclic(2))]


# seeds of relabelled_group(alternating_5(), seed); on 4 and 11 generating_set returns three generators
A5_SEEDS = (1, 2, 3, 4, 11)


def relabelled_group(G: FiniteGroup, seed: int) -> FiniteGroup:
    """G relabelled by a seeded permutation that fixes 0, validated afresh."""
    rest = list(range(1, G.order))
    random.Random(seed).shuffle(rest)
    p = [0] + rest
    out = [[0] * G.order for _ in G.elements()]
    for a in G.elements():
        for b in G.elements():
            out[p[a]][p[b]] = p[G.table[a][b]]
    return validate_group(out)


def reference_isomorphisms(G: FiniteGroup, H: FiniteGroup):
    """Every isomorphism G -> H, sorted: every image tuple of the whole greedy
    G.generators(), none dropped, among the elements of equal order.

    Each tuple goes through _hom_from_generator_images, which the tests hold to
    the pairwise check of reference_hom_from_generator_images."""
    gens = G.generators()
    orders_G, orders_H = G._orders(), H._orders()
    candidates = [[h for h in H.elements() if orders_H[h] == orders_G[g]] for g in gens]
    found = (_hom_from_generator_images(G, H, gens, images)
             for images in itertools.product(*candidates))
    return sorted(f for f in found if f is not None)


def reference_unpaired_isomorphisms(G: FiniteGroup, H: FiniteGroup, sig_G, sig_H):
    """_isomorphisms without the check on products of pairs: every image tuple of the
    irredundant generators with the generators' signatures, in lexicographic order."""
    gens = _irredundant(G, G.generators())
    candidates = [[h for h in H.elements() if sig_H[h] == sig_G[g]] for g in gens]
    for images in itertools.product(*candidates):
        f = _hom_from_generator_images(G, H, gens, images)
        if f is not None:
            yield f


def reference_normal_closure(G: FiniteGroup, seed):
    """Least normal subgroup containing seed, each member conjugated by every element of G."""
    table, inverse = G.table, G.inverse
    members, seen, gens = [0], [True] + [False] * (G.order - 1), []
    for y in seed:
        if not seen[y]:
            grow_closure(table, members, seen, gens, y)
    k = 0
    while k < len(members):
        x = members[k]
        for g in G.elements():
            y = table[table[g][x]][inverse[g]]
            if not seen[y]:
                grow_closure(table, members, seen, gens, y)
        k += 1
    return frozenset(members)


def inner_automorphisms(G: FiniteGroup):
    """Conjugation maps {x -> g x g^-1}, deduplicated and sorted."""
    return sorted({tuple(G.conjugate(g, x) for x in G.elements()) for g in G.elements()})


def reference_simple_inner_regular_subgroups(G: FiniteGroup):
    """The exhaustive search of G's inner sub-holomorph, filtered to the subgroups isomorphic to G."""
    pool = tuple(inner_automorphisms(G))
    found = (RegularSubgroup(G, pool, a) for a in reference_regular_subgroups(G, pool))
    return [H for H in found
            if group_isomorphism(_group_unchecked(H.multiplication_table()), G) is not None]


def holomorph(G: FiniteGroup) -> FiniteGroup:
    """The semidirect product of G by its full automorphism group, as one (n k)^2 table.

    Pairs (g, phi) are indexed as g*|Aut| + i with (0, id) at index 0 and the
    product (g, phi)(h, psi) = (g phi(h), phi psi).
    """
    pool = pair_pool(G)
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


def brute_comp(perms):
    """The k x k table of perms[i] o perms[j] indices, every entry composed and hashed."""
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    return [tuple(index[compose(p, q)] for q in perms) for p in perms]


def reference_permutation_table(perms):
    """The Cayley table of a permutation group, every entry composed by hand:
    entry [i][j] is the sorted index of perms[i] o perms[j], x -> p(q(x))."""
    elems = sorted(perms)
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(p[q[i]] for i in range(len(q)))] for q in elems] for p in elems]


def reference_regular_subgroups(G: FiniteGroup, perms):
    """Sorted assignments of the regular subgroups of G x| perms, by full-closure
    propagation; perms is a group of automorphisms, and assignments index it sorted.

    Backtracking over the map g -> phi_g: each new pair is multiplied on both
    sides by every assigned pair, O(|K| n) per step, until the assigned
    pairs are closed.  Partial closures must stay injective on first
    coordinates and have size dividing |G|.
    """
    perms = sorted(perms)
    comp = brute_comp(perms)
    n = G.order
    table = G.table
    results = []

    def propagate(assign, count, fresh):
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

    def search(assign, count):
        if count == n:
            results.append(tuple(assign))
            return
        g = next(i for i in range(n) if assign[i] is None)
        for choice in range(len(perms)):
            trial = assign.copy()
            trial[g] = choice
            new_count = propagate(trial, count + 1, [g])
            if new_count < 0 or n % new_count != 0:
                continue
            search(trial, new_count)

    start = [None] * n
    start[0] = 0
    search(start, 1)
    return sorted(results)


def reference_classify(B: SkewBrace, key: frozenset) -> SubsetFlags:
    """Subbrace / left ideal / ideal flags by definition-level scans over every pair."""
    additive = 0 in key and all(B.plus(a, b) in key for a in key for b in key) \
        and all(B.neg(a) in key for a in key)
    subbrace = additive and all(B.times(a, b) in key for a in key for b in key) \
        and all(B.tinv(a) in key for a in key)
    left_ideal = additive and all(B.lam[b][a] in key
                                  for b in B.elements() for a in key)
    ideal = left_ideal \
        and all(B.plus(B.plus(b, a), B.neg(b)) in key
                for b in B.elements() for a in key) \
        and all(star(B, a, b) in key for a in key for b in B.elements())
    return SubsetFlags(subbrace, left_ideal, ideal)


def reference_center(G: FiniteGroup) -> frozenset:
    """The centre by a scan of every pair of elements."""
    return frozenset(a for a in G.elements()
                     if all(G.table[a][b] == G.table[b][a] for b in G.elements()))


def reference_is_abelian(G: FiniteGroup) -> bool:
    """Commutativity by a scan of every pair of elements."""
    return all(G.table[a][b] == G.table[b][a] for a in G.elements() for b in G.elements())


def reference_fix_set(B: SkewBrace) -> frozenset:
    """The common fixed points of lambda_b for every element b."""
    return frozenset(a for a in B.elements() if all(B.lam[b][a] == a for b in B.elements()))


def reference_brace_rho(B: SkewBrace):
    """rho of the brace solution by definition: rho[b][a] = (lambda_a(b)^-1 a) b, one product at a time."""
    return tuple(tuple(B.times(B.times(B.tinv(B.lam[a][b]), a), b) for a in B.elements())
                 for b in B.elements())


def reference_blocks_swap(solution, blocks):
    """(ok, witness) of the block-swap check by definition: r(x, y) for every x in Xi
    and y in Xj, block pair by block pair, the first failing (Xi, Xj, x, y) named."""
    for bi in blocks:
        for bj in blocks:
            for x in bi:
                for y in bj:
                    u, v = solution.r(x, y)
                    if u not in bj or v not in bi:
                        return False, (sorted(bi), sorted(bj), x, y)
    return True, None


def set_partitions(items):
    """Every partition of the list items, as lists of blocks."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for tail in set_partitions(rest):
        for i in range(len(tail)):
            yield tail[:i] + [[head] + tail[i]] + tail[i + 1:]
        yield [[head]] + tail


def reference_decompositions(solution):
    """Every partition with at least two blocks that block-swaps, by an exhaustive
    walk over the set partitions of the points, each checked by definition."""
    for raw in set_partitions(list(range(solution.size))):
        if len(raw) >= 2 and reference_blocks_swap(solution, raw)[0]:
            yield make_partition(raw)


def reference_classify_within(B: SkewBrace, U: frozenset, S: frozenset) -> SubsetFlags:
    """The flags of S inside the subbrace U, by classify_subset on U rebuilt as a standalone brace."""
    sb = sub_brace(B, U)
    if not S <= U:
        return SubsetFlags(False, False, False)
    return classify_subset(sb.brace, sb.to_local(S))


def reference_abelian_step(B: SkewBrace, upper: frozenset, lower: frozenset):
    """abelian_step on the standalone brace of upper: lower an ideal of it, with abelian quotient brace."""
    sb = sub_brace(B, upper)
    if not reference_classify_within(B, upper, lower).ideal:
        return "is not an ideal of"
    abelian = quotient(sb.brace, sb.to_local(lower)).brace.is_abelian
    return None if abelian else "has a non-abelian quotient in"


def reference_derived_series(B: SkewBrace) -> tuple[frozenset[int], ...]:
    """The derived chain, each term the derived ideal of the standalone brace of the one before."""
    chain = [B.carrier()]
    while chain[-1] != ZERO:
        sb = sub_brace(B, chain[-1])
        nxt = sb.to_global(derived_ideal(sb.brace))
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return tuple(chain)


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


def reference_all_chief_series(B: SkewBrace):
    """Every chief series, depth first: each level pulls back the minimal ideals of the quotient brace by its member."""
    carrier = B.carrier()

    def ascend(acc):
        if acc[-1] == carrier:
            yield SeriesWitness(tuple(reversed(acc)))
            return
        q = quotient(B, acc[-1])
        for pick in minimal_ideals(q.brace):
            yield from ascend(acc + [q.preimage(pick)])

    return ascend([ZERO])


def reference_classify_chief_factor(B: SkewBrace, lower: frozenset, upper: frozenset) -> ChiefFactorReport:
    """The chief factor upper/lower classified inside the quotient brace Q = B/lower, on Q's own lattices."""
    q = quotient(B, lower)
    U = q.image(upper)
    if U not in minimal_ideals(q.brace):
        raise NotAnIdeal("upper/lower is not a chief factor")
    if abelian_step(q.brace, U, ZERO):
        return ChiefFactorReport(lower, upper, False, "neither", None, None, None, None)
    orders = {q.brace.add.element_order(a) for a in U if a != 0}
    p = orders.pop() if len(orders) == 1 else None
    p = p if p is not None and _prime_power(len(U)) == p else None
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
    assert complements, "abelian chief factor neither Frattini nor complemented"
    maxes = maximal_subbraces(q.brace)
    all_maximal = all(T in maxes for T in complements)
    assert all_maximal, "a complement of a chief factor is not maximal"
    witness = min(complements, key=subset_key)
    return ChiefFactorReport(lower, upper, True, "complemented", p,
                             witness, q.preimage(witness), all_maximal)


def reference_quotient(B: SkewBrace, ideal: frozenset) -> Quotient:
    """B modulo an ideal, with a frozenset per coset and a min per element."""
    coset_of = {}
    for a in B.elements():
        if a not in coset_of:
            coset = frozenset(B.plus(a, i) for i in ideal)
            for x in coset:
                coset_of[x] = coset
    reps = sorted({min(c) for c in coset_of.values()})
    index = {r: k for k, r in enumerate(reps)}
    projection = tuple(index[min(coset_of[a])] for a in B.elements())
    add = [[projection[B.plus(a, b)] for b in reps] for a in reps]
    mul = [[projection[B.times(a, b)] for b in reps] for a in reps]
    return Quotient(validate_brace(add, mul), projection, tuple(reps))


def reference_coset_partition(B: SkewBrace, ideal: frozenset, within: frozenset):
    """Both cosets of the ideal built for every b of `within`, one kept per least element."""
    blocks = {}
    for b in within:
        left = frozenset(B.times(b, i) for i in ideal)
        assert left == frozenset(B.plus(b, i) for i in ideal)
        blocks[min(left)] = left
    return make_partition(blocks.values())


def reference_r_closed_subsets(solution):
    """The r-closed subsets by a depth-first search over every point, sorted by subset_key.

    Subsets grow in increasing point order on bit masks; both[x][y] holds the
    points r(x, y) and r(y, x) force and `reach` their union over the pairs of
    X.  A branch is cut when `reach` holds a point at most the last one added
    that is outside X (NextClosure's canonicity test), a node's children stop
    at its least missing point, and X is kept when `reach` lies in X.  No
    output bound.
    """
    n = solution.size
    lam, rho = solution.lambda_tab, solution.rho_tab
    both = [[1 << lam[x][y] | 1 << rho[y][x] | 1 << lam[y][x] | 1 << rho[x][y]
             for y in range(n)] for x in range(n)]
    out = []
    stack = [(0, 0, -1, ())]
    while stack:
        X, reach, last, members = stack.pop()
        missing = reach & ~X
        stop = (missing & -missing).bit_length() if missing else n
        for i in range(last + 1, stop):
            row = both[i]
            grown = reach | row[i]
            for y in members:
                grown |= row[y]
            Xi = X | 1 << i
            missing = grown & ~Xi
            if missing & ((1 << (i + 1)) - 1):
                continue
            path = members + (i,)
            if not missing:
                out.append(path)
            stack.append((Xi, grown, i, path))
    out.sort()
    out.sort(key=len)
    return [frozenset(path) for path in out]
