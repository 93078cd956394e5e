"""Finite group substrate: validation, subgroups, automorphisms, holomorphs."""

import importlib
import inspect
import itertools
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braceforge
from braceforge import groups
from braceforge.catalog import (
    alternating_5,
    alternating_group,
    cyclic,
    dicyclic,
    dihedral,
    direct_product_group,
    groups_of_order,
    symmetric_group,
)
from braceforge.construct import enumerate_braces
from braceforge.errors import (
    BoundExceeded,
    GroupValidationError,
    InternalInvariant,
    NoIdentityAtZero,
    NotAssociative,
    NotClosed,
    NotSimple,
)
from braceforge.groups import (
    PermTable,
    assert_simple_nonabelian,
    automorphism_group,
    compose,
    group_isomorphism,
    identity_perm,
    is_simple,
    pair_pool,
    regular_subgroups,
    subgroups,
    sylow_indices,
    validate_group,
)
from reference import (
    A5_SEEDS,
    ORDER_16,
    brute_comp,
    holomorph,
    inner_automorphisms,
    invert,
    is_automorphism,
    reference_hom_from_generator_images,
    reference_isomorphisms,
    reference_center,
    reference_is_abelian,
    reference_normal_closure,
    reference_regular_subgroups,
    reference_unpaired_isomorphisms,
    relabelled_group,
)


def klein_four():
    return direct_product_group(cyclic(2), cyclic(2))


class TestValidateGroup:
    def test_order_one(self):
        G = validate_group([[0]])
        assert G.order == 1 and G.inverse == (0,)

    def test_cyclic_three(self):
        G = validate_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        assert G.mul(1, 2) == 0 and G.inv(1) == 2

    def test_identity_failure(self):
        with pytest.raises(NoIdentityAtZero):
            validate_group([[1, 0], [0, 1]])

    def test_out_of_range_entry(self):
        with pytest.raises(NotClosed):
            validate_group([[0, 1], [1, 5]])

    def test_associativity_witness(self):
        # Latin square with identity row/column but a broken triple
        table = [[0, 1, 2, 3, 4],
                 [1, 0, 3, 4, 2],
                 [2, 3, 4, 0, 1],
                 [3, 4, 1, 2, 0],
                 [4, 2, 0, 1, 3]]
        with pytest.raises(NotAssociative) as info:
            validate_group(table)
        a, b, c = info.value.witness
        assert table[table[a][b]][c] != table[a][table[b][c]]

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_single_cell_mutations_rejected(self, a, b, delta):
        # changing one cell of a valid table always breaks the Latin property
        table = [list(r) for r in cyclic(4).table]
        new = (table[a][b] + 1 + delta % 3) % 4
        if new == table[a][b]:
            new = (new + 1) % 4
        table[a][b] = new
        with pytest.raises(GroupValidationError):
            validate_group(table)

    def test_bound(self, monkeypatch):
        table = cyclic(20).table
        monkeypatch.setenv("BRACEFORGE_BOUND", "10")
        with pytest.raises(BoundExceeded):
            validate_group(table)


def brute_force_subgroups(G):
    """All subsets that are subgroups, by scanning the whole power set."""
    out = []
    elems = list(G.elements())
    for size in range(1, G.order + 1):
        for sub in itertools.combinations(elems, size):
            s = frozenset(sub)
            if 0 not in s:
                continue
            if all(G.mul(a, b) in s for a in s for b in s) \
                    and all(G.inv(a) in s for a in s):
                out.append(s)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


class TestSubgroups:
    def test_cyclic_four(self):
        assert subgroups(cyclic(4)) == [frozenset({0}), frozenset({0, 2}),
                                        frozenset(range(4))]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_prime_order(self, p):
        assert len(subgroups(cyclic(p))) == 2

    def test_symmetric_three(self):
        assert len(subgroups(symmetric_group(3))) == 6

    @pytest.mark.parametrize("G", [cyclic(8), klein_four(), symmetric_group(3),
                                   dihedral(4), dicyclic(2), alternating_group(4),
                                   dihedral(6), cyclic(16),
                                   direct_product_group(cyclic(4), cyclic(4))])
    def test_against_brute_force(self, G):
        assert subgroups(G) == brute_force_subgroups(G)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_catalog_against_brute_force(self, n):
        for entry in groups_of_order(n):
            assert subgroups(entry.group) == brute_force_subgroups(entry.group), entry.name

    def test_bound(self, monkeypatch):
        G = cyclic(5)
        monkeypatch.setenv("BRACEFORGE_BOUND", "4")
        with pytest.raises(BoundExceeded):
            subgroups(G)

    def test_environment_bound_override(self, monkeypatch):
        monkeypatch.setenv("BRACEFORGE_BOUND", "4")
        fresh = validate_group(cyclic(4).table)  # at the bound, still fine
        assert fresh.order == 4
        with pytest.raises(BoundExceeded):
            validate_group(cyclic(5).table)
        monkeypatch.setenv("BRACEFORGE_BOUND", "3")
        with pytest.raises(BoundExceeded):
            subgroups(fresh)


def brute_force_automorphisms(G):
    """All bijections fixing 0 that preserve the table; feasible for n <= 6."""
    out = []
    for rest in itertools.permutations(range(1, G.order)):
        perm = (0,) + rest
        if all(perm[G.mul(a, b)] == G.mul(perm[a], perm[b])
               for a in G.elements() for b in G.elements()):
            out.append(perm)
    return sorted(out)


class TestAutomorphisms:
    def test_counts(self):
        assert len(automorphism_group(cyclic(4))) == 2
        assert len(automorphism_group(klein_four())) == 6
        assert len(automorphism_group(cyclic(1))) == 1

    @pytest.mark.parametrize("order,name,count", [
        (8, "C8", 4), (8, "C4xC2", 8), (8, "C2xC2xC2", 168), (8, "D4", 8), (8, "Q8", 24),
        (12, "C12", 4), (12, "C6xC2", 12), (12, "D6", 12), (12, "A4", 24), (12, "Dic3", 12),
    ])
    def test_catalog_counts(self, order, name, count):
        [G] = [e.group for e in groups_of_order(order) if e.name == name]
        assert len(automorphism_group(G)) == count

    def test_a5_count(self):
        assert len(automorphism_group(alternating_5())) == 120

    @pytest.mark.parametrize("G", [cyclic(4), cyclic(6), klein_four(),
                                   symmetric_group(3), cyclic(5)])
    def test_against_brute_force(self, G):
        assert automorphism_group(G) == brute_force_automorphisms(G)

    @pytest.mark.parametrize("G", [cyclic(8), symmetric_group(3), dihedral(4),
                                   dicyclic(2)])
    def test_group_closure(self, G):
        auts = automorphism_group(G)
        assert identity_perm(G.order) in auts
        index = set(auts)
        for p in auts:
            assert invert(p) in index
            for q in auts:
                assert compose(p, q) in index
            assert is_automorphism(G, p)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_matches_the_unpruned_search_on_the_catalog(self, n):
        for entry in groups_of_order(n):
            G = entry.group
            assert automorphism_group(G) == reference_isomorphisms(G, G), entry.name

    def test_matches_the_unpruned_search_on_relabelled_a5(self):
        relabellings = [relabelled_group(alternating_5(), seed) for seed in A5_SEEDS]
        assert any(len(G.generators()) == 3 for G in relabellings)
        for G in relabellings:
            auts = automorphism_group(G)
            assert len(auts) == 120 and auts == reference_isomorphisms(G, G)

    @pytest.mark.parametrize("G,count", [
        (ORDER_16[0], 96), (ORDER_16[1], 16), (ORDER_16[2], 64), (ORDER_16[3], 192),
        (direct_product_group(cyclic(5), cyclic(5)), 480),
    ], ids=["C4xC4", "C8xC2", "D4xC2", "Q8xC2", "C5xC5"])
    def test_matches_the_unpruned_search_beyond_the_catalog(self, G, count):
        auts = automorphism_group(G)
        assert len(auts) == count and auts == reference_isomorphisms(G, G)

    def test_every_map_is_an_automorphism_on_relabelled_a5(self):
        for seed in A5_SEEDS:
            G = relabelled_group(alternating_5(), seed)
            assert all(is_automorphism(G, f) for f in automorphism_group(G)), seed

    def test_no_generator_and_one_generator(self):
        # C1 has no generators: the one empty image tuple is the identity's key
        assert automorphism_group(cyclic(1)) == [(0,)]
        G = cyclic(9)
        assert G.generators() == (1,)
        assert automorphism_group(G) == sorted(tuple(k * x % 9 for x in range(9))
                                               for k in (1, 2, 4, 5, 7, 8))

    def test_a_closure_that_breaks_lagrange_raises(self, monkeypatch):
        # a fill that returns the same non-automorphism for the images 2 and 4
        # of C5's generator grows the closure from 3 to 4 members
        monkeypatch.setattr(groups, "_hom_from_generator_images",
                            lambda G, H, gens, images: (0, 2, 3, 1, 4))
        with pytest.raises(InternalInvariant, match="from 3 to 4 members"):
            automorphism_group(cyclic(5))

    def test_inner_abelian_is_trivial(self):
        assert inner_automorphisms(cyclic(4)) == [identity_perm(4)]

    def test_inner_s3(self):
        s3 = symmetric_group(3)
        inner = inner_automorphisms(s3)
        assert len(inner) == 6
        # conjugations compose like the group: alpha_g o alpha_h = alpha_{gh}
        for g in s3.elements():
            ag = tuple(s3.conjugate(g, x) for x in s3.elements())
            for h in s3.elements():
                ah = tuple(s3.conjugate(h, x) for x in s3.elements())
                agh = tuple(s3.conjugate(s3.mul(g, h), x) for x in s3.elements())
                assert compose(ag, ah) == agh

    def test_conjugation_transport(self):
        # f alpha_x f^-1 = alpha_{f(x)} for every automorphism f
        G = symmetric_group(3)
        for f in automorphism_group(G):
            for x in G.elements():
                ax = tuple(G.conjugate(x, y) for y in G.elements())
                lhs = compose(compose(f, ax), invert(f))
                rhs = tuple(G.conjugate(f[x], y) for y in G.elements())
                assert lhs == rhs


class TestHolomorph:
    def test_orders(self):
        assert holomorph(cyclic(3)).order == 6
        assert holomorph(cyclic(1)).order == 1
        assert holomorph(klein_four()).order == 24

    def test_holomorph_is_a_group(self):
        H = holomorph(cyclic(4))
        validate_group(H.table)  # full axiom scan

    def test_bound(self, monkeypatch):
        # |Hol(C2 x C2)| = 24; BRACEFORGE_BOUND cannot bring this limit below 10000
        monkeypatch.setattr(groups, "DEFAULT_HOLOMORPH_BOUND", 20)
        with pytest.raises(BoundExceeded):
            holomorph(klein_four())


def brute_force_regular_subgroups(G):
    """Scan all |G|-subsets of Hol(G) for regular subgroups; tiny G only."""
    H = holomorph(G)
    k = len(automorphism_group(G))
    n = G.order
    found = []
    for sub in itertools.combinations(range(1, H.order), n - 1):
        s = frozenset(sub) | {0}
        if not all(H.mul(a, b) in s for a in s for b in s):
            continue
        firsts = sorted(x // k for x in s)
        if firsts == list(range(n)):
            found.append(tuple(x % k for x in sorted(s, key=lambda x: x // k)))
    return sorted(found)


class TestRegularSubgroups:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prime_cyclic_unique(self, p):
        subs = regular_subgroups(cyclic(p))
        assert len(subs) == 1
        assert subs[0].assignment == tuple(0 for _ in range(p))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_against_subset_scan(self, p):
        got = sorted(s.assignment for s in regular_subgroups(cyclic(p)))
        assert got == brute_force_regular_subgroups(cyclic(p))

    def test_subset_scan_klein(self):
        got = sorted(s.assignment for s in regular_subgroups(klein_four()))
        assert got == brute_force_regular_subgroups(klein_four())

    def test_subset_scan_s3(self):
        # non-abelian ambient: Hol(S3) has 36 elements and 8 regular subgroups
        got = sorted(s.assignment for s in regular_subgroups(symmetric_group(3)))
        assert len(got) == 8
        assert got == brute_force_regular_subgroups(symmetric_group(3))

    def test_trivial_group(self):
        assert len(regular_subgroups(cyclic(1))) == 1

    @pytest.mark.parametrize("ambient", ["inner", "Holomorph"])
    def test_unknown_ambient_refused(self, ambient):
        with pytest.raises(ValueError, match="use 'holomorph' or 'sylow'"):
            regular_subgroups(cyclic(3), ambient)

    def test_first_coordinates_cover(self):
        for sub in regular_subgroups(symmetric_group(3)):
            assert len(sub.assignment) == 6
            table = sub.multiplication_table()
            assert sorted(table[0]) == list(range(6))

    def test_deterministic(self):
        a = [s.assignment for s in regular_subgroups(dihedral(4))]
        b = [s.assignment for s in regular_subgroups(dihedral(4))]
        assert a == b == sorted(a)

    def test_bound(self, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_HOLOMORPH_BOUND", 10)
        with pytest.raises(BoundExceeded):
            regular_subgroups(klein_four())

    @pytest.mark.parametrize("search", [regular_subgroups, holomorph, sylow_indices])
    def test_bound_checked_before_the_table_is_built(self, monkeypatch, search):
        # the k x k composition table of Aut(C2^4) alone would hold 20160^2 entries
        built = []

        def no_table(perms):
            built.append(len(perms))
            raise AssertionError("PermTable built before the bound check")

        monkeypatch.setattr(groups, "PermTable", no_table)
        monkeypatch.setattr(groups, "DEFAULT_HOLOMORPH_BOUND", 10)
        with pytest.raises(BoundExceeded):
            search(klein_four())
        assert built == []


CATALOG = [entry.group for n in range(1, 16) for entry in groups_of_order(n)]


class TestRegularSubgroupsAgainstPropagation:
    """The generator-grown search returns the full-closure propagation's assignments."""

    @pytest.mark.parametrize("G", CATALOG, ids=lambda G: G.name)
    def test_catalog_holomorph(self, G):
        got = [H.assignment for H in regular_subgroups(G)]
        assert got == reference_regular_subgroups(G, automorphism_group(G))

    @pytest.mark.parametrize("G", ORDER_16, ids=["C4xC4", "C8xC2", "D4xC2", "Q8xC2"])
    def test_order_sixteen(self, G):
        got = [H.assignment for H in regular_subgroups(G)]
        assert got == reference_regular_subgroups(G, automorphism_group(G))


P_GROUPS = [G for G in CATALOG + ORDER_16 if groups._prime_power(G.order)]


def p_part(p, k):
    """The largest power of p dividing k."""
    return p * p_part(p, k // p) if k % p == 0 else 1


class TestSylowAmbient:
    """P = sylow_indices(G) and the search of G x| P."""

    @pytest.mark.parametrize("G", P_GROUPS, ids=lambda G: G.name)
    def test_sylow_subgroup(self, G):
        pool = pair_pool(G)
        P = sylow_indices(G)
        k = len(pool)
        part = p_part(groups._prime_power(G.order), k)
        assert len(P) == part
        assert P == tuple(sorted(P)) and P[0] == 0
        members = set(P)
        assert all(pool.comp[x][y] in members for x in P for y in P)
        if part == k:  # |Aut(G)| is a power of p
            assert P == tuple(range(k))

    @pytest.mark.parametrize("G", [cyclic(1), cyclic(6), symmetric_group(3), cyclic(12)],
                             ids=lambda G: G.name)
    def test_every_automorphism_when_the_order_is_no_prime_power(self, G):
        assert sylow_indices(G) == tuple(range(len(automorphism_group(G))))
        got = [H.assignment for H in regular_subgroups(G, "sylow")]
        assert got == [H.assignment for H in regular_subgroups(G)]

    @pytest.mark.parametrize("G", P_GROUPS, ids=lambda G: G.name)
    def test_search_finds_the_regular_subgroups_inside(self, G):
        # the holomorph's regular subgroups whose phi all lie in P, same assignments and order
        members = set(sylow_indices(G))
        inside = [H.assignment for H in regular_subgroups(G) if members.issuperset(H.assignment)]
        assert [H.assignment for H in regular_subgroups(G, "sylow")] == inside

    @pytest.mark.parametrize("name, sylow, whole", [
        ("C2xC2", 2, 4), ("C2xC2xC2", 28, 232), ("Q8", 20, 28), ("C3xC3", 3, 9), ("C9", 3, 3),
        ("C4", 2, 2), ("C8", 6, 6), ("C4xC2", 28, 28), ("D4", 20, 20)])
    def test_raw_counts(self, name, sylow, whole):
        G = next(G for G in P_GROUPS if G.name == name)
        assert len(regular_subgroups(G, "sylow")) == sylow
        assert len(regular_subgroups(G)) == whole

    def test_bound_checked_on_cache_hit(self, monkeypatch):
        G = klein_four()
        assert len(sylow_indices(G)) == 2
        monkeypatch.setattr(groups, "DEFAULT_HOLOMORPH_BOUND", 10)
        with pytest.raises(BoundExceeded):
            sylow_indices(G)


class TestPermTable:
    @pytest.mark.parametrize("G", CATALOG, ids=lambda G: G.name)
    def test_gathered_rows_match_composition(self, G):
        perms = automorphism_group(G)
        pool = PermTable(perms)
        assert pool.comp == brute_comp(perms)
        assert pool.inv == [pool.index[invert(p)] for p in pool.perms]

    def test_a5_inner(self):
        perms = inner_automorphisms(alternating_5())
        assert PermTable(perms).comp == brute_comp(perms)

    def test_missing_identity(self):
        with pytest.raises(ValueError, match="identity"):
            PermTable([(1, 0)])

    def test_not_closed_under_composition(self):
        # the identity and one 3-cycle of S3's points: its square is missing
        with pytest.raises(ValueError, match="not closed under composition"):
            PermTable([(0, 1, 2), (1, 2, 0)])


def pairwise_closure(G, seed):
    """Reference for FiniteGroup.closure: multiply each new member by every member."""
    members = {0}
    members.update(seed)
    work = list(members)
    while work:
        x = work.pop()
        for y in tuple(members):
            for z in (G.table[x][y], G.table[y][x]):
                if z not in members:
                    members.add(z)
                    work.append(z)
    return frozenset(members)


@pytest.mark.parametrize("n", range(1, 16))
def test_closure_matches_the_pairwise_closure(n):
    rng = random.Random(n)
    for entry in groups_of_order(n):
        G = entry.group
        for size in (0, 1, 1, 2, 2, 3, n):
            seed = rng.sample(range(n), min(size, n))
            assert G.closure(seed) == pairwise_closure(G, seed), (entry.name, seed)


@pytest.mark.parametrize("n", range(1, 16))
def test_closure_within_a_set_stops_outside_it(n):
    # None exactly when the closure leaves the set; otherwise the closure
    # and generators of the unbounded growth
    rng = random.Random(n)
    for entry in groups_of_order(n):
        G = entry.group
        for size in (1, 2, 2, 3, 3, n):
            seed = rng.sample(range(n), min(size, n))
            for within in (frozenset(seed) | {0}, G.closure(seed), frozenset(range(n))):
                got = groups.closure_with_generators(G.table, seed, within=within)
                if G.closure(seed) <= within:
                    assert got == groups.closure_with_generators(G.table, seed), (entry.name, seed)
                else:
                    assert got is None, (entry.name, seed, within)


def greedy_generators(G):
    """Reference for generating_set: re-close the subgroup after each new generator."""
    gens = []
    have = frozenset({0})
    for g in G.elements():
        if g not in have:
            gens.append(g)
            have = G.closure(have | {g})
            if len(have) == G.order:
                break
    return tuple(gens)


@pytest.mark.parametrize("n", range(1, 16))
def test_generating_set_matches_the_reclosing_greedy(n):
    for entry in groups_of_order(n):
        G = entry.group
        assert groups.generating_set(G.table) == greedy_generators(G), entry.name


class TestIsomorphism:
    def test_same_group(self):
        assert group_isomorphism(cyclic(6), cyclic(6)) == identity_perm(6)

    def test_distinct_order_four(self):
        assert group_isomorphism(cyclic(4), klein_four()) is None

    def test_s3_is_dihedral_3(self):
        assert group_isomorphism(symmetric_group(3), dihedral(3)) is not None

    def test_c6_is_c2_x_c3(self):
        assert group_isomorphism(cyclic(6),
                                 direct_product_group(cyclic(2), cyclic(3))) is not None


class TestIrredundantGenerators:
    @pytest.mark.parametrize("n", range(1, 16))
    def test_kept_generators_generate_and_none_is_redundant(self, n):
        for entry in groups_of_order(n):
            G = entry.group
            kept = groups._irredundant(G, G.generators())
            assert set(kept) <= set(G.generators()), entry.name
            assert len(G.closure(kept)) == n, entry.name
            for g in kept:
                assert g not in G.closure([h for h in kept if h != g]), entry.name

    def test_drops_the_third_greedy_generator_of_a5(self):
        for seed in A5_SEEDS:
            G = relabelled_group(alternating_5(), seed)
            assert len(groups._irredundant(G, G.generators())) == 2, seed


def is_isomorphism(G, H, f):
    return sorted(f) == list(G.elements()) and all(
        f[G.table[a][b]] == H.table[f[a]][f[b]] for a in G.elements() for b in G.elements())


@pytest.mark.parametrize("n", range(1, 16))
def test_isomorphism_existence_matches_the_unpruned_search(n):
    for e1, e2 in itertools.product(groups_of_order(n), repeat=2):
        found = group_isomorphism(e1.group, e2.group)
        assert (found is None) == (not reference_isomorphisms(e1.group, e2.group)), \
            (e1.name, e2.name)
        assert found is None or is_isomorphism(e1.group, e2.group, found)


class TestPairProductCheck:
    """_isomorphisms skips image tuples whose pairwise products differ in signature."""

    @pytest.mark.parametrize("n", range(1, 16))
    def test_same_maps_in_the_same_order_on_catalog_pairs(self, n):
        for e1, e2 in itertools.product(groups_of_order(n), repeat=2):
            G, H = e1.group, e2.group
            sig_G, sig_H = G._orders(), H._orders()
            assert list(groups._isomorphisms(G, H, sig_G, sig_H)) == \
                list(reference_unpaired_isomorphisms(G, H, sig_G, sig_H)), (e1.name, e2.name)

    def test_same_maps_in_the_same_order_on_relabelled_a5(self):
        A = alternating_5()
        for seed in A5_SEEDS:
            G = relabelled_group(A, seed)
            assert list(groups._isomorphisms(G, A, G._orders(), A._orders())) == \
                list(reference_unpaired_isomorphisms(G, A, G._orders(), A._orders())), seed

    def count_fills(self, monkeypatch):
        calls = []
        original = groups._hom_from_generator_images

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(groups, "_hom_from_generator_images", counting)
        return calls

    def test_aut_a5_fills_only_four_closure_generators(self, monkeypatch):
        # the catalog labelling has three irredundant generators: 4,500 tuples
        # of equal element orders, of which the pair check keeps the 120 maps;
        # the first four fills generate Aut(A5), and every later tuple is the
        # key of a member of their closure
        G = validate_group(alternating_5().table)
        assert len(groups._irredundant(G, G.generators())) == 3
        calls = self.count_fills(monkeypatch)
        assert len(automorphism_group(G)) == 120
        assert len(calls) == 4

    def test_catalog_fill_count(self, monkeypatch):
        catalog = [validate_group(e.group.table) for n in range(1, 16) for e in groups_of_order(n)]
        calls = self.count_fills(monkeypatch)
        assert sum(len(automorphism_group(G)) for G in catalog) == 462
        # 685 by element order alone, 516 with the pair check and one fill per automorphism,
        # 106 with the closure, 98 once g_i^-1 g_k is checked as well
        assert len(calls) == 98

    def test_relabelled_a5_fill_counts(self, monkeypatch):
        # 75, 75, 122, 75 and 3 fills with the products g_i g_k and g_k g_i alone
        calls, fills = self.count_fills(monkeypatch), []
        for seed in A5_SEEDS:
            G = relabelled_group(alternating_5(), seed)
            before = len(calls)
            assert len(automorphism_group(G)) == 120
            fills.append(len(calls) - before)
        assert fills == [3, 3, 2, 3, 3]


def tried_image_tuples(G, H):
    """The generator image tuples _isomorphisms tries: images of equal element order."""
    gens = G.generators()
    orders_G, orders_H = G._orders(), H._orders()
    return gens, itertools.product(*[[h for h in H.elements() if orders_H[h] == orders_G[g]]
                                     for g in gens])


class TestHomFromGeneratorImages:
    @pytest.mark.parametrize("n", range(1, 16))
    def test_matches_the_pairwise_check_on_catalog_pairs(self, n):
        for e1, e2 in itertools.product(groups_of_order(n), repeat=2):
            G, H = e1.group, e2.group
            gens, tuples = tried_image_tuples(G, H)
            for images in tuples:
                assert groups._hom_from_generator_images(G, H, gens, images) == \
                    reference_hom_from_generator_images(G, H, gens, images), (e1.name, e2.name)

    def test_matches_the_pairwise_check_on_a5(self):
        G = alternating_5()
        gens, tuples = tried_image_tuples(G, G)
        found = 0
        for images in tuples:
            f = groups._hom_from_generator_images(G, G, gens, images)
            assert f == reference_hom_from_generator_images(G, G, gens, images)
            found += f is not None
        assert found == 120

    def test_dropped_generator_gives_none(self):
        # C2 with no generators maps to [0, None]: one element short, yet a set of size 2
        assert groups._hom_from_generator_images(cyclic(2), cyclic(2), (), ()) is None
        dropped = 0
        for n in range(2, 16):
            for entry in groups_of_order(n):
                G = entry.group
                gens = G.generators()
                for k in range(len(gens)):
                    rest = gens[:k] + gens[k + 1:]
                    if len(G.closure(rest)) < n:
                        assert groups._hom_from_generator_images(G, G, rest, rest) is None
                        dropped += 1
        assert dropped > 0


def simple_by_every_element(G):
    """Reference for is_simple: the normal closure of every non-identity element."""
    return G.order > 1 and all(len(groups.normal_closure(G, {g})) == G.order
                               for g in range(1, G.order))


@pytest.mark.parametrize("G", [entry.group for n in range(1, 16) for entry in groups_of_order(n)]
                         + [alternating_5()], ids=lambda G: G.name)
def test_normal_closure_matches_conjugation_by_every_element(G):
    for g in G.elements():
        assert groups.normal_closure(G, {g}) == reference_normal_closure(G, {g}), g


class TestSimplicity:
    def test_matches_the_per_element_scan(self):
        catalog = [entry.group for n in range(1, 16) for entry in groups_of_order(n)]
        for G in [alternating_5(), alternating_group(4)] + catalog:
            assert is_simple(G) == simple_by_every_element(G), G.name


    def test_a5_simple(self):
        assert is_simple(alternating_5())
        assert_simple_nonabelian(alternating_5())

    def test_not_simple(self):
        assert not is_simple(alternating_group(4))
        with pytest.raises(NotSimple):
            assert_simple_nonabelian(alternating_group(4))
        with pytest.raises(NotSimple):
            assert_simple_nonabelian(cyclic(5))  # abelian

    def test_scan_bound(self, monkeypatch):
        monkeypatch.setattr(groups, "SIMPLICITY_SCAN_MAX_ORDER", 59)
        with pytest.raises(BoundExceeded):
            assert_simple_nonabelian(alternating_5())


def test_no_per_call_bound_parameters():
    # BRACEFORGE_BOUND and module constants are the only size limits
    names = []
    for info in pkgutil.iter_modules(braceforge.__path__):
        if info.name == "__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(f"braceforge.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or not callable(value) \
                    or not getattr(value, "__module__", "").startswith("braceforge"):
                continue
            try:
                params = inspect.signature(value).parameters
            except ValueError:
                continue  # an exception class that keeps the builtin constructor
            names += [f"{info.name}.{name}({p})" for p in ("bound", "assoc_bound", "identify")
                      if p in params]
    assert names == []


def test_center_and_is_abelian_match_the_pair_scans():
    # both groups of every census brace up to order 15, the catalog, four
    # groups of order 16 and A5, each fresh so nothing is memoised yet
    tables = [G.table for n in range(1, 16) for e in enumerate_braces(n)
              for G in (e.brace.add, e.brace.mul)]
    tables += [entry.group.table for n in range(1, 16) for entry in groups_of_order(n)]
    tables += [G.table for G in ORDER_16 + [alternating_5(), symmetric_group(4)]]
    kinds = set()
    for table in tables:
        G = validate_group(table)
        assert G.center() == reference_center(G)
        assert G.is_abelian == reference_is_abelian(G)
        kinds.add((G.is_abelian, len(G.center()) > 1))
    assert kinds >= {(True, True), (False, True), (False, False)}
