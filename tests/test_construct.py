"""Census construction: regular subgroups to braces, enumeration, the oracle."""

import pytest

from braceforge import braces, construct, groups
from braceforge import catalog as catalog_module
from braceforge.braces import is_isomorphic, validate_brace
from braceforge.catalog import alternating_5, alternating_group, cyclic, groups_of_order, symmetric_group
from braceforge.construct import (
    CensusEntry,
    brace_from_regular_subgroup,
    enumerate_braces,
    enumerate_braces_on,
    oracle_enumerate_braces,
    simple_inner_regular_subgroups,
)
from braceforge.errors import BoundExceeded, InternalInvariant, NotRegular, NotSimple
from braceforge.groups import (
    RegularSubgroup,
    automorphism_group,
    compose,
    identity_perm,
    regular_subgroups,
    validate_group,
)
from reference import (
    A5_SEEDS,
    ORDER_16,
    inner_automorphisms,
    invert,
    is_automorphism,
    reference_regular_subgroups,
    reference_simple_inner_regular_subgroups,
    relabelled_group,
)

# class counts for n <= 6 were produced by oracle_enumerate_braces and are
# pinned here as regression values; 7 and 8 come from the holomorph route
CLASS_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 1, 6: 6, 7: 1, 8: 47}


class TestBraceFromRegularSubgroup:
    def test_identity_assignment_gives_trivial(self):
        s3 = symmetric_group(3)
        H = RegularSubgroup(s3, (identity_perm(6),), tuple(0 for _ in range(6)))
        B = brace_from_regular_subgroup(s3, H)
        assert B.is_trivial

    def test_inner_assignment_gives_almost_trivial(self):
        s3 = symmetric_group(3)
        pool = tuple(sorted({tuple(s3.conjugate(g, x) for x in s3.elements())
                             for g in s3.elements()}))
        index = {p: i for i, p in enumerate(pool)}
        assignment = tuple(index[tuple(s3.conjugate(s3.inv(b), x)
                                       for x in s3.elements())]
                           for b in s3.elements())
        B = brace_from_regular_subgroup(s3, RegularSubgroup(s3, pool, assignment))
        assert B.is_almost_trivial

    def test_prime_order_only_trivial(self):
        for p in (2, 3, 5):
            G = cyclic(p)
            braces = [brace_from_regular_subgroup(G, H)
                      for H in regular_subgroups(G)]
            assert len(braces) == 1 and braces[0].is_trivial

    def test_non_regular_rejected(self):
        G = cyclic(4)
        bad = RegularSubgroup(G, (identity_perm(4),), (0, 0))
        with pytest.raises(NotRegular):
            brace_from_regular_subgroup(G, bad)

    def test_permutation_that_is_no_automorphism_rejected(self):
        # each phi permutes C4 and fixes 0, and the product table is a group,
        # but phi_1 = (1 2 3) is not additive, so the brace law fails
        G = cyclic(4)
        pool = ((0, 1, 2, 3), (0, 2, 3, 1), (0, 2, 1, 3), (0, 3, 2, 1))
        assert not all(is_automorphism(G, p) for p in pool)
        with pytest.raises(NotRegular):
            brace_from_regular_subgroup(G, RegularSubgroup(G, pool, (0, 1, 2, 3)))

    @pytest.mark.parametrize("entry", [-1, 4])
    def test_out_of_range_phi_rejected(self, entry):
        G = cyclic(4)
        pool = (identity_perm(4), (0, 1, 2, entry))
        with pytest.raises(NotRegular):
            brace_from_regular_subgroup(G, RegularSubgroup(G, pool, (0, 1, 0, 0)))


class TestEnumerateBracesOn:
    def test_trivial_group(self):
        entries = enumerate_braces_on(cyclic(1))
        assert len(entries) == 1 and entries[0].brace.order == 1

    def test_one_entry_per_regular_subgroup(self):
        G = symmetric_group(3)
        assert len(enumerate_braces_on(G)) == len(regular_subgroups(G))

    def test_provenance_roundtrip(self):
        # the lambda maps of the brace are exactly the defining assignment
        for entry in enumerate_braces_on(symmetric_group(3)):
            H = entry.provenance
            assert entry.brace.lam == tuple(H.perm(g) for g in range(6))
            assert entry.brace.mul.table == H.multiplication_table()

    def test_entries_validate(self):
        for entry in enumerate_braces_on(cyclic(6)):
            validate_brace(entry.brace.add.table, entry.brace.mul.table)


class TestEnumerateBraces:
    @pytest.mark.parametrize("n,count", sorted(CLASS_COUNTS.items()))
    def test_class_counts(self, n, count):
        assert len(enumerate_braces(n)) == count

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_prime_orders_trivial(self, p):
        entries = enumerate_braces(p)
        assert len(entries) == 1 and entries[0].brace.is_trivial

    def test_pairwise_non_isomorphic_order_six(self):
        braces = [e.brace for e in enumerate_braces(6)]
        for i, a in enumerate(braces):
            for b in braces[i + 1:]:
                assert is_isomorphic(a, b) is None

    def test_group_identification(self):
        for entry in enumerate_braces(4):
            assert entry.add_group_name in ("C4", "C2xC2")
            assert entry.mul_group_name in ("C4", "C2xC2")

    def test_deterministic(self):
        first = [(e.brace.add.table, e.brace.mul.table) for e in enumerate_braces(6)]
        second = [(e.brace.add.table, e.brace.mul.table) for e in enumerate_braces(6)]
        assert first == second

    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_class_keeps_its_least_member(self, n):
        # the orbit of a kept brace: its product table relabeled by every additive automorphism
        raw_total = 0
        for group in groups_of_order(n):
            G = group.group
            raw = {e.brace.mul.table for e in enumerate_braces_on(G)}
            kept = [e.brace.mul.table for e in enumerate_braces(n) if e.add_group_id == group.id]
            orbit_sizes, covered = 0, set()
            for mul in kept:
                orbit = set()
                for f in automorphism_group(G):
                    moved = [[0] * n for _ in range(n)]
                    for a in G.elements():
                        for b in G.elements():
                            moved[f[a]][f[b]] = f[mul[a][b]]
                    orbit.add(tuple(map(tuple, moved)))
                assert mul == min(orbit) and orbit <= raw
                orbit_sizes += len(orbit)
                covered |= orbit
            # orbit-stabiliser: the kept classes' orbits tile the raw regular subgroups
            assert orbit_sizes == len(raw) and covered == raw
            raw_total += len(raw)
        if n == 8:
            assert raw_total == 314


def least_member_filter(G, entries: list[CensusEntry]) -> list[CensusEntry]:
    """Reference for the orbit walk: the raw entries whose product table no
    automorphism of G relabels to a smaller one, in product-table order."""
    n = G.order
    kept = []
    for e in entries:
        mul = e.brace.mul.table
        least = True
        for f in automorphism_group(G):
            moved = [[0] * n for _ in range(n)]
            for a in G.elements():
                for b in G.elements():
                    moved[f[a]][f[b]] = f[mul[a][b]]
            if tuple(map(tuple, moved)) < mul:
                least = False
                break
        if least:
            kept.append(e)
    return sorted(kept, key=lambda e: e.brace.mul.table)


def fields(entries: list[CensusEntry]) -> list[tuple]:
    return [(e.brace.add.table, e.brace.mul.table, e.add_group_id, e.add_group_name,
             e.mul_group_id, e.mul_group_name, e.provenance.assignment) for e in entries]


class TestOrbitCensus:
    @pytest.mark.parametrize("n", range(1, 16))
    def test_matches_per_raw_validation(self, n):
        # every raw subgroup built and validated, then filtered, gives the census field by field
        reference = [e for group in groups_of_order(n)
                     for e in least_member_filter(group.group, enumerate_braces_on(group.group))]
        assert fields(enumerate_braces(n)) == fields(reference)

    @pytest.mark.parametrize("n", [8])
    def test_missing_raw_subgroup_raises(self, monkeypatch, n):
        # drop each group's last raw subgroup: another member of its orbit maps onto it.
        # (A class that meets G x| P once, like each of C2xC2's, leaves no trace when
        # dropped: only the comparison with the holomorph search below can see it.)
        monkeypatch.setattr(construct, "regular_subgroups",
                            lambda G, ambient: regular_subgroups(G, ambient)[:-1])
        with pytest.raises(InternalInvariant):
            enumerate_braces(n)

    @pytest.mark.parametrize("name", ["C2xC2xC2", "Q8"])
    def test_missing_raw_subgroup_in_a_shared_orbit_raises(self, monkeypatch, name):
        # the last raw subgroup's orbit meets G x| P 10 times on C2xC2xC2 and 3 times on Q8
        G = next(e.group for e in groups_of_order(8) if e.name == name)
        monkeypatch.setattr(construct, "regular_subgroups",
                            lambda G, ambient: regular_subgroups(G, ambient)[:-1])
        with pytest.raises(InternalInvariant, match="outside the raw regular subgroups"):
            enumerate_braces(8, extra_groups=[G])

    @pytest.mark.parametrize("n", [8, 12])
    def test_validates_each_group_once_and_each_class(self, monkeypatch, n):
        # each additive group is validated once and no class is; Light's test runs
        # once on each additive group, inside validate_group, and once on each
        # class's product table, as its certificate
        catalog = groups_of_order(n)  # built, and validated, before counting
        calls, light = [], []
        for module in (groups, braces, construct, catalog_module):
            def counting(table, _original=module.validate_group):
                calls.append(table)
                return _original(table)

            monkeypatch.setattr(module, "validate_group", counting)
        for module in (groups, construct):
            def counting_light(rows, gens, _original=module._light_associative):
                light.append(rows)
                return _original(rows, gens)

            monkeypatch.setattr(module, "_light_associative", counting_light)
        census = enumerate_braces(n)
        assert calls == [e.group.table for e in catalog]
        assert light == [t for e in catalog for t in [e.group.table] + [
            c.brace.mul.table for c in census if c.add_group_id == e.id]]

    def test_automorphism_table_built_once_per_group(self, monkeypatch):
        built = []

        class CountingPermTable(groups.PermTable):
            def __init__(self, perms):
                built.append(len(perms))
                super().__init__(perms)

        monkeypatch.setattr(groups, "PermTable", CountingPermTable)
        G = symmetric_group(3)  # a fresh object, so nothing is memoised on it yet
        assert len(enumerate_braces(6, extra_groups=[G])) == 4
        assert built == [6]
        # C2xC2xC2 searches G x| P for |P| = 8 on the one table of Aut(G)
        built.clear()
        G = validate_group(next(e.group for e in groups_of_order(8) if e.name == "C2xC2xC2").table)
        assert len(enumerate_braces(8, extra_groups=[G])) == 8
        assert built == [168]


def swap_adjacent_phi(H: RegularSubgroup) -> RegularSubgroup | None:
    """H with phi swapped at the first g >= 1 where phi_g and phi_{g+1} differ, if any."""
    a = H.assignment
    g = next((g for g in range(1, len(a) - 1) if a[g] != a[g + 1]), None)
    if g is None:
        return None
    swapped = a[:g] + (a[g + 1], a[g]) + a[g + 2:]
    return RegularSubgroup(H.group, H.pool, swapped)


class TestCensusCertificate:
    """A census class is certified by phi_0 = 1 and Light's test on its product table."""

    @pytest.mark.parametrize("n", list(range(1, 16)) + [16])
    def test_entries_equal_the_fully_validated_brace(self, n):
        extra = ORDER_16 if n == 16 else None
        given = ORDER_16 if n == 16 else [e.group for e in groups_of_order(n)]
        census = enumerate_braces(n, extra_groups=extra)
        assert census
        for e in census:
            B = e.brace
            G = given[e.add_group_id]
            checked = validate_brace(B.add.table, B.mul.table)
            assert (B.add.table, B.mul.table, B.add.inverse, B.mul.inverse, B.lam) == \
                (checked.add.table, checked.mul.table, checked.add.inverse,
                 checked.mul.inverse, checked.lam)
            rebuilt = brace_from_regular_subgroup(G, e.provenance)
            assert (rebuilt.add.table, rebuilt.mul.table) == (B.add.table, B.mul.table)

    @staticmethod
    def skip_identification(monkeypatch):
        # on a table that is no group, the element-order walk of _identify_group
        # need not end, so the certificate must stand on its own
        monkeypatch.setattr(construct, "_identify_group", lambda G: (None, None))

    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_swapped_phi_raises(self, monkeypatch, n):
        # the swapped rows are still permutations with identity at 0: only
        # Light's test sees that the pairs are no longer closed
        self.skip_identification(monkeypatch)
        original = construct._orbit_representatives

        def swapped(G, raw):
            out = original(G, raw)
            for k, (_, H) in enumerate(out):
                bad = swap_adjacent_phi(H)
                if bad is not None:
                    out[k] = (bad.multiplication_table(), bad)
                    break
            return out

        monkeypatch.setattr(construct, "_orbit_representatives", swapped)
        with pytest.raises(InternalInvariant, match="not closed under the product"):
            enumerate_braces(n)

    # the classes of each order with two adjacent distinct phi_g, g >= 1
    @pytest.mark.parametrize("n, swappable", [(4, 2), (6, 4), (8, 42), (12, 33)])
    def test_each_swapped_class_is_rejected(self, monkeypatch, n, swappable):
        self.skip_identification(monkeypatch)
        rejected = 0
        for group in groups_of_order(n):
            G = validate_group(group.group.table)
            for _, H in construct._orbit_representatives(G, regular_subgroups(G, "sylow")):
                bad = swap_adjacent_phi(H)
                if bad is not None:
                    with pytest.raises(InternalInvariant, match="not closed"):
                        construct._census_entry(G, bad, bad.multiplication_table(), None, None)
                    rejected += 1
        assert rejected == swappable

    def test_phi_0_not_the_identity_raises(self, monkeypatch):
        self.skip_identification(monkeypatch)
        original = construct._orbit_representatives

        def moved(G, raw):
            out = original(G, raw)
            _, H = out[-1]
            bad = RegularSubgroup(H.group, H.pool, (1,) + H.assignment[1:])
            out[-1] = (bad.multiplication_table(), bad)
            return out

        monkeypatch.setattr(construct, "_orbit_representatives", moved)
        with pytest.raises(InternalInvariant, match="phi_0"):
            enumerate_braces(6)


def least_table_members(G, raw: list[RegularSubgroup]) -> list[RegularSubgroup]:
    """Reference for the orbit walk: min(orbit, key=multiplication_table) for
    each Aut(G)-orbit of the raw subgroups, in product-table order."""
    index = {p: i for i, p in enumerate(raw[0].pool)}
    by_assignment = {H.assignment: H for H in raw}
    orbits = set()
    for H in raw:
        orbit = set()
        for alpha in automorphism_group(G):
            moved = [0] * G.order
            for g in G.elements():
                moved[alpha[g]] = index[compose(compose(alpha, H.perm(g)), invert(alpha))]
            orbit.add(tuple(moved))
        orbits.add(frozenset(orbit))
    kept = [min((by_assignment[m] for m in orbit), key=RegularSubgroup.multiplication_table)
            for orbit in orbits]
    return sorted(kept, key=RegularSubgroup.multiplication_table)


class TestOrbitRepresentatives:
    @pytest.mark.parametrize("n", range(1, 16))
    def test_keeps_the_least_table_of_each_orbit(self, n):
        # the walk from the raw subgroups of G x| P keeps the least member of each
        # orbit of the whole holomorph's regular subgroups
        for entry in groups_of_order(n):
            G = entry.group
            got = construct._orbit_representatives(G, regular_subgroups(G, "sylow"))
            assert all(mul == H.multiplication_table() for mul, H in got), entry.name
            assert [H.assignment for _, H in got] == \
                [H.assignment for H in least_table_members(G, regular_subgroups(G))], entry.name

    # raw[1] is the first of 5 raw subgroups in one class; the last raw subgroup of the
    # holomorph search lies outside G x| P
    @pytest.mark.parametrize("raw, message", [
        (lambda raw: raw[:1] + raw[2:], "outside the raw regular subgroups"),
        (lambda raw: raw + raw[-1:], "the orbits meet 28 raw regular subgroups, not the 29"),
        (lambda raw: raw + regular_subgroups(raw[0].group)[-1:],
         "a raw regular subgroup lies outside G x| P"),
    ], ids=["image-inside-missing", "duplicate", "outside"])
    def test_invariants_on_c2_cubed(self, raw, message):
        G = next(e.group for e in groups_of_order(8) if e.name == "C2xC2xC2")
        with pytest.raises(InternalInvariant, match=message):
            construct._orbit_representatives(G, raw(regular_subgroups(G, "sylow")))

    @pytest.mark.parametrize("n", [8, 12])
    def test_builds_no_table_per_raw_subgroup(self, monkeypatch, n):
        # the sort's table is the brace's: none per orbit member, none built twice
        calls = []
        table = RegularSubgroup.multiplication_table

        def counting(self):
            calls.append(1)
            return table(self)

        monkeypatch.setattr(RegularSubgroup, "multiplication_table", counting)
        classes = len(enumerate_braces(n))
        assert len(calls) == classes


class TestSylowCensus:
    """The census through G x| P gives the entries of the search of the whole holomorph."""

    @pytest.mark.parametrize("G", [e.group for n in range(1, 16) for e in groups_of_order(n)]
                             + ORDER_16, ids=lambda G: G.name)
    def test_same_entries_as_the_holomorph(self, monkeypatch, G):
        sylow = fields(enumerate_braces(G.order, extra_groups=[G]))
        # the whole holomorph searched, and P taken as all of Aut(G) by the orbit walk
        monkeypatch.setattr(construct, "regular_subgroups",
                            lambda G, ambient: regular_subgroups(G, "holomorph"))
        monkeypatch.setattr(construct, "_sylow_indices",
                            lambda G: tuple(range(len(automorphism_group(G)))))
        assert fields(enumerate_braces(G.order, extra_groups=[G])) == sylow
        if G in ORDER_16:
            assert len(sylow) == {"C4xC4": 83, "C8xC2": 66, "D4xC2": 227, "Q8xC2": 118}[G.name]


class TestOracle:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 1), (4, 4)])
    def test_small_counts(self, n, count):
        assert len(oracle_enumerate_braces(n)) == count

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            oracle_enumerate_braces(7)

    def test_validates_each_group_once_and_every_candidate(self, monkeypatch):
        calls = []

        def counting(table):
            calls.append(table)
            return groups.validate_group(table)

        monkeypatch.setattr(construct, "validate_group", counting)
        oracle_enumerate_braces(4)
        assert len(calls) == sum(1 + len(automorphism_group(e.group)) ** 4
                                 for e in groups_of_order(4))

    def test_matches_census_order_four(self):
        oracle = oracle_enumerate_braces(4)
        census = [e.brace for e in enumerate_braces(4)]
        for b in oracle:
            assert sum(1 for c in census if is_isomorphic(b, c) is not None) == 1


class TestSimpleInnerRegularSubgroups:
    def test_rejects_non_simple(self):
        with pytest.raises(NotSimple):
            simple_inner_regular_subgroups(alternating_group(4))
        with pytest.raises(NotSimple):
            simple_inner_regular_subgroups(cyclic(7))

    def test_matches_the_exhaustive_inner_search(self):
        # the same pool, assignments and order as the search of all 62 inner regular subgroups
        a5 = alternating_5()
        assert len(reference_regular_subgroups(a5, inner_automorphisms(a5))) == 62
        relabellings = [relabelled_group(a5, seed) for seed in A5_SEEDS]
        assert any(len(G.generators()) == 3 for G in relabellings)
        for G in [a5] + relabellings:
            got = simple_inner_regular_subgroups(G)
            want = reference_simple_inner_regular_subgroups(G)
            assert [(H.pool, H.assignment) for H in got] == \
                [(H.pool, H.assignment) for H in want]
            assert len(got) == 2

    def test_failed_isomorphism_raises(self, monkeypatch):
        monkeypatch.setattr(construct, "group_isomorphism", lambda G1, G2: None)
        with pytest.raises(InternalInvariant, match="not isomorphic"):
            simple_inner_regular_subgroups(alternating_5())

    @pytest.mark.parametrize("corrupt,message", [
        # a group table isomorphic to A5, but on the conjugation candidate
        # phi at x*s is then not phi_x phi_s
        (lambda t: tuple(zip(*t)), "not closed under the product"),
        (lambda t: (t[0],) * len(t), "not Latin"),
    ])
    def test_failed_table_certificate_raises(self, monkeypatch, corrupt, message):
        table = RegularSubgroup.multiplication_table
        monkeypatch.setattr(RegularSubgroup, "multiplication_table", lambda H: corrupt(table(H)))
        with pytest.raises(InternalInvariant, match=message):
            simple_inner_regular_subgroups(alternating_5())

    def test_ambient_bound_checked_before_any_work(self, monkeypatch):
        def no_work(G):
            raise AssertionError("Aut(G) computed before the bound check")

        monkeypatch.setattr(groups, "DEFAULT_HOLOMORPH_BOUND", 60 * 60 - 1)
        monkeypatch.setattr(construct, "automorphism_group", no_work)
        with pytest.raises(BoundExceeded):
            simple_inner_regular_subgroups(alternating_5())
