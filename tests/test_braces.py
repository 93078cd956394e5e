"""Skew brace algebra: validation, lambda/star, substructures, quotients."""

import random

import pytest

from braceforge import braces
from braceforge.braces import (
    SubsetFlags,
    almost_trivial_brace,
    annihilator,
    classify_subset,
    direct_product,
    fix_set,
    is_isomorphic,
    kernel_lambda,
    lambda_map,
    quotient,
    socle,
    star,
    star_span,
    sub_brace,
    subbrace_product,
    subbraces,
    trivial_brace,
    validate_brace,
)
from braceforge.catalog import cyclic, direct_product_group, symmetric_group
from braceforge.construct import enumerate_braces
from braceforge.errors import BraceAxiomFailed, GroupInvalid, NotAnIdeal
from braceforge.groups import _isomorphisms, identity_perm, subgroups
from braceforge.structure import all_ideals
from reference import (
    is_automorphism,
    reference_classify,
    reference_fix_set,
    reference_quotient,
    reference_unpaired_isomorphisms,
)

S3 = symmetric_group(3)
A3 = frozenset(a for a in S3.elements() if S3.element_order(a) in (1, 3))


def klein_brace():
    return trivial_brace(direct_product_group(cyclic(2), cyclic(2)))


class TestValidateBrace:
    def test_trivial_cyclic(self):
        B = validate_brace(cyclic(3).table, cyclic(3).table)
        assert B.is_trivial and B.is_abelian

    def test_almost_trivial_s3(self):
        B = almost_trivial_brace(S3)
        revalidated = validate_brace(B.add.table, B.mul.table)
        assert revalidated.is_almost_trivial and not revalidated.is_trivial

    def test_klein_multiplication_over_cyclic_addition(self):
        # the unique Klein table with identity 0 happens to satisfy the law
        v4 = direct_product_group(cyclic(2), cyclic(2))
        B = validate_brace(cyclic(4).table, v4.table)
        assert not B.is_trivial

    def test_incompatible_pair_rejected(self):
        # cyclic multiplication relabeled by a non-automorphism breaks the law
        tau = (0, 1, 3, 2)
        add = cyclic(4)
        mul = [[tau[(tau[a] + tau[b]) % 4] for b in range(4)] for a in range(4)]
        with pytest.raises(BraceAxiomFailed) as info:
            validate_brace(add.table, mul)
        a, b, c = info.value.witness
        lhs = mul[a][add.mul(b, c)]
        rhs = add.mul(add.mul(mul[a][b], add.inv(a)), mul[a][c])
        assert lhs != rhs  # witness re-checked from the definition

    def test_bad_group_reported_with_side(self):
        with pytest.raises(GroupInvalid) as info:
            validate_brace([[0, 1], [1, 0]], [[1, 0], [0, 1]])
        assert info.value.which == "mul"

    def test_lambda_cached_consistently(self):
        B = almost_trivial_brace(S3)
        for a in B.elements():
            for b in B.elements():
                assert B.lam[a][b] == B.plus(B.neg(a), B.times(a, b))


class TestLambdaAndStar:
    def test_trivial_lambda_identity(self):
        B = trivial_brace(S3)
        for a in B.elements():
            assert lambda_map(B, a) == identity_perm(6)

    def test_almost_trivial_lambda_is_inner(self):
        B = almost_trivial_brace(S3)
        for a in B.elements():
            conj = tuple(S3.conjugate(S3.inv(a), x) for x in S3.elements())
            assert lambda_map(B, a) == conj

    def test_lambda_at_zero(self):
        for B in (trivial_brace(cyclic(4)), almost_trivial_brace(S3)):
            assert lambda_map(B, 0) == identity_perm(B.order)

    def test_lambda_rows_are_automorphisms(self):
        B = almost_trivial_brace(S3)
        for a in B.elements():
            assert is_automorphism(B.add, B.lam[a])

    def test_star_trivial_is_zero(self):
        B = trivial_brace(cyclic(4))
        assert all(star(B, a, b) == 0 for a in B.elements() for b in B.elements())

    def test_star_zero_arguments(self):
        B = almost_trivial_brace(S3)
        assert all(star(B, 0, b) == 0 for b in B.elements())
        assert all(star(B, a, 0) == 0 for a in B.elements())

    def test_star_almost_trivial_is_commutator(self):
        B = almost_trivial_brace(S3)
        for a in B.elements():
            for b in B.elements():
                comm = S3.mul(S3.mul(S3.mul(S3.inv(a), b), a), S3.inv(b))
                assert star(B, a, b) == comm

    def test_star_span(self):
        B = almost_trivial_brace(S3)
        assert star_span(B, B.elements(), B.elements()) == A3
        assert star_span(B, {0}, B.elements()) == frozenset({0})
        assert star_span(trivial_brace(S3), B.elements(), B.elements()) == frozenset({0})


class TestTrivialityCharacterisations:
    def test_trivial_iff_kernel_is_everything(self):
        from braceforge.construct import enumerate_braces

        for n in range(1, 7):
            for entry in enumerate_braces(n):
                B = entry.brace
                full_kernel = kernel_lambda(B) == B.carrier()
                all_rows_identity = all(B.lam[a] == identity_perm(B.order)
                                        for a in B.elements())
                assert B.is_trivial == full_kernel == all_rows_identity

    def test_almost_trivial_iff_lambda_is_inner(self):
        from braceforge.construct import enumerate_braces

        for n in range(1, 7):
            for entry in enumerate_braces(n):
                B = entry.brace
                inner = all(
                    B.lam[a] == tuple(B.plus(B.plus(B.neg(a), x), a)
                                      for x in B.elements())
                    for a in B.elements())
                assert B.is_almost_trivial == inner


class TestDistinguishedSets:
    def test_kernel(self):
        assert kernel_lambda(trivial_brace(S3)) == frozenset(range(6))
        assert kernel_lambda(almost_trivial_brace(S3)) == frozenset({0})

    def test_trivial_abelian_everything(self):
        B = trivial_brace(cyclic(6))
        assert socle(B) == fix_set(B) == annihilator(B) == frozenset(range(6))

    def test_trivial_s3(self):
        B = trivial_brace(S3)
        assert socle(B) == frozenset({0})
        assert fix_set(B) == frozenset(range(6))
        assert annihilator(B) == frozenset({0})

    def test_almost_trivial_s3_socle(self):
        assert socle(almost_trivial_brace(S3)) == frozenset({0})


class TestClassifySubset:
    def test_extremes_are_ideals(self):
        B = almost_trivial_brace(S3)
        assert classify_subset(B, {0}) == SubsetFlags(True, True, True)
        assert classify_subset(B, B.carrier()) == SubsetFlags(True, True, True)

    def test_examples(self):
        assert classify_subset(trivial_brace(cyclic(4)), {0, 2}).ideal
        assert classify_subset(almost_trivial_brace(S3), A3).ideal

    @pytest.mark.parametrize("B", [trivial_brace(cyclic(8)),
                                   almost_trivial_brace(S3),
                                   trivial_brace(S3), klein_brace()])
    def test_all_subsets_against_definition(self, B):
        for bits in range(1 << B.order):
            S = frozenset(i for i in range(B.order) if bits >> i & 1)
            if not S:
                continue
            assert classify_subset(B, S) == reference_classify(B, S)

    def test_ideal_implies_multiplicative_normality(self):
        # equivalent formulation of the ideal condition
        for B in (almost_trivial_brace(S3), trivial_brace(cyclic(8))):
            for bits in range(1 << B.order):
                S = frozenset(i for i in range(B.order) if bits >> i & 1)
                if not S or not classify_subset(B, S).ideal:
                    continue
                assert all(B.times(B.times(b, a), B.tinv(b)) in S
                           for a in S for b in B.elements())


def census(max_order):
    return [e.brace for n in range(1, max_order + 1) for e in enumerate_braces(n)]


def derived_braces(B):
    """The quotients of B by its ideals and its subbraces, as built and memoised on B."""
    return ([quotient(B, I).brace for I in all_ideals(B)]
            + [sub_brace(B, T).brace for T in subbraces(B)])


def row_classify(B, S):
    """The generator kernel itself, bypassing the memo."""
    return braces._classify.__wrapped__(B, frozenset(S))


def seeded_subsets(n, rng, count=4):
    """Every singleton of 0..n-1, and count seeded random subsets with 0 and count without."""
    out = [frozenset({x}) for x in range(n)]
    for _ in range(count):
        S = frozenset(x for x in range(1, n) if rng.random() < 0.5)
        out += [S | {0}, S] if S else [S | {0}]
    return out


class TestClassifyAgainstReference:
    def test_every_subset_up_to_order_8(self):
        for B in census(8):
            for bits in range(1 << B.order):
                S = frozenset(i for i in range(B.order) if bits >> i & 1)
                assert row_classify(B, S) == reference_classify(B, S), (B, sorted(S))

    def test_every_additive_subgroup_up_to_order_15(self):
        kinds = set()
        for B in census(15):
            for S in subgroups(B.add):
                flags = row_classify(B, S)
                assert flags == reference_classify(B, S), (B, sorted(S))
                kinds.add(flags)
        # subgroups that are no subbrace, subbraces that are no left ideal,
        # left ideals that are no ideal, and ideals all occur
        assert len(kinds) == 4

    def test_quotients_and_subbraces_up_to_order_15(self):
        for B in census(15):
            for D in derived_braces(B):
                for S in subgroups(D.add):
                    assert row_classify(D, S) == reference_classify(D, S), (B, D, sorted(S))

    def test_seeded_subsets_up_to_order_15(self):
        # non-subgroups with 0, sets without 0 and singletons, on every census
        # brace, its quotients and its subbraces
        rng = random.Random(1)
        kinds = set()
        for B in census(15):
            for D in [B] + derived_braces(B):
                for S in seeded_subsets(D.order, rng):
                    flags = row_classify(D, S)
                    assert flags == reference_classify(D, S), (B, D, sorted(S))
                    kinds.add((0 in S, len(S), flags))
        assert (True, 3, SubsetFlags(False, False, False)) in kinds
        assert (False, 3, SubsetFlags(False, False, False)) in kinds

    def test_normal_left_ideal_that_is_no_ideal(self):
        # {0, 3} in the first census brace of order 6 is a left ideal, normal in
        # (B, +), and only the star condition a * b in S rejects it
        B = enumerate_braces(6)[0].brace
        S = frozenset({0, 3})
        assert all(B.plus(B.plus(b, s), B.neg(b)) in S for b in B.elements() for s in S)
        assert any(star(B, a, b) not in S for a in S for b in B.elements())
        assert row_classify(B, S) == SubsetFlags(True, True, False) == reference_classify(B, S)


def test_fix_set_matches_the_scan_up_to_order_15():
    for B in census(15):
        for D in [B] + derived_braces(B):
            assert fix_set(D) == reference_fix_set(D), (B, D)


class TestDerivedBracesByConstruction:
    """Quotients and subbraces are built without validation; the validator agrees."""

    def test_validator_accepts_and_equals_every_derived_brace_up_to_order_15(self):
        checked = 0
        for B in census(15):
            for D in derived_braces(B):
                for E in [D] + derived_braces(D):
                    V = validate_brace(E.add.table, E.mul.table)
                    for built, validated in ((E.add, V.add), (E.mul, V.mul)):
                        assert built.table == validated.table
                        assert built.inverse == validated.inverse
                        assert built.generators() == validated.generators()
                    assert E.lam == V.lam
                    checked += 1
        assert checked == 9014

    def test_generating_sets_wait_for_first_use(self):
        B = almost_trivial_brace(S3)
        for D in (quotient(B, A3).brace, sub_brace(B, A3).brace):
            assert not D.add._cache and not D.mul._cache
            assert D.add.generators() is D.add.generators()


class TestSubsetLabels:
    # -2 would alias element 2 by negative indexing, 4 is past the end
    @pytest.mark.parametrize("S, bad", [({0, 2, -2}, "-2"), ({0, 4}, "4"), ({0, "1"}, "'1'")])
    def test_rejected_on_every_call(self, S, bad):
        B = klein_brace()
        for _ in range(2):
            with pytest.raises(ValueError, match=f"member {bad} is not an element 0..3"):
                classify_subset(B, S)
        assert not any(k[0] is braces._classify.__wrapped__ for k in B._cache)

    @pytest.mark.parametrize("S", [{0, 2, -2}, {0, 4}])
    def test_quotient_and_sub_brace_reject(self, S):
        B = klein_brace()
        with pytest.raises(ValueError, match="is not an element 0..3"):
            quotient(B, S)
        with pytest.raises(ValueError, match="is not an element 0..3"):
            sub_brace(B, S)


class TestQuotient:
    def test_by_zero_is_identity(self):
        B = almost_trivial_brace(S3)
        q = quotient(B, {0})
        assert q.brace == B and q.projection == tuple(range(6))

    def test_by_whole_is_zero_brace(self):
        B = trivial_brace(cyclic(3))
        q = quotient(B, B.carrier())
        assert q.brace.order == 1

    def test_z4_mod_two(self):
        q = quotient(trivial_brace(cyclic(4)), {0, 2})
        assert q.brace == trivial_brace(cyclic(2))
        assert q.representatives == (0, 1)
        assert q.projection == (0, 1, 0, 1)

    def test_every_ideal_up_to_order_15_against_reference(self):
        for B in census(15):
            for I in all_ideals(B):
                if len(I) == 1:
                    continue
                got, want = braces._quotient.__wrapped__(B, I), reference_quotient(B, I)
                assert got.projection == want.projection
                assert got.representatives == want.representatives
                assert got.brace.add.table == want.brace.add.table
                assert got.brace.mul.table == want.brace.mul.table

    def test_rejects_non_ideal(self):
        B = almost_trivial_brace(S3)
        t = next(a for a in B.elements() if S3.element_order(a) == 2)
        with pytest.raises(NotAnIdeal):
            quotient(B, {0, t})


class TestProducts:
    def test_subbrace_product_examples(self):
        B = almost_trivial_brace(S3)
        t = next(a for a in B.elements() if S3.element_order(a) == 2)
        assert subbrace_product(B, {0, t}, A3) == B.carrier()
        assert subbrace_product(B, {0}, A3) == A3
        assert subbrace_product(B, {0, t}, {0}) == frozenset({0, t})

    def test_direct_product_with_zero(self):
        B = almost_trivial_brace(S3)
        P = direct_product(B, trivial_brace(cyclic(1)))
        assert is_isomorphic(P, B) is not None

    def test_c2_times_c3(self):
        P = direct_product(trivial_brace(cyclic(2)), trivial_brace(cyclic(3)))
        assert is_isomorphic(P, trivial_brace(cyclic(6))) is not None

    def test_annihilator_splits(self):
        B1, B2 = trivial_brace(cyclic(2)), almost_trivial_brace(S3)
        P = direct_product(B1, B2)
        lifted = frozenset(a * B2.order + b
                           for a in annihilator(B1) for b in annihilator(B2))
        assert annihilator(P) == lifted


def preserves_products(B1, B2, f):
    return all(f[B1.times(a, b)] == B2.times(f[a], f[b])
               for a in B1.elements() for b in B1.elements())


class TestIsomorphism:
    def test_identity(self):
        B = almost_trivial_brace(S3)
        assert is_isomorphic(B, B) is not None

    def test_distinct_additive_groups(self):
        assert is_isomorphic(trivial_brace(cyclic(4)), klein_brace()) is None

    def test_trivial_vs_almost_trivial_s3(self):
        assert is_isomorphic(trivial_brace(S3), almost_trivial_brace(S3)) is None

    def test_found_map_preserves_both_operations(self):
        P = direct_product(trivial_brace(cyclic(2)), trivial_brace(cyclic(3)))
        Z6 = trivial_brace(cyclic(6))
        f = is_isomorphic(P, Z6)
        for a in P.elements():
            for b in P.elements():
                assert f[P.plus(a, b)] == Z6.plus(f[a], f[b])
                assert f[P.times(a, b)] == Z6.times(f[a], f[b])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_relabelled_census_braces(self, seed):
        from braceforge.construct import enumerate_braces
        rng = random.Random(seed)
        for n in range(1, 9):
            for entry in enumerate_braces(n):
                B = entry.brace
                rest = list(range(1, n))
                rng.shuffle(rest)
                perm = [0] + rest  # the identity stays at 0
                add, mul = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
                for a in range(n):
                    for b in range(n):
                        add[perm[a]][perm[b]] = perm[B.plus(a, b)]
                        mul[perm[a]][perm[b]] = perm[B.times(a, b)]
                C = validate_brace(add, mul)
                f = is_isomorphic(B, C)
                assert f is not None
                for a in range(n):
                    for b in range(n):
                        assert f[B.plus(a, b)] == C.plus(f[a], f[b])
                        assert f[B.times(a, b)] == C.times(f[a], f[b])

    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_brace_isomorphisms_in_the_unpruned_order(self, n):
        # a brace isomorphism keeps the brace signature of every element, so the
        # pair check in _isomorphisms drops none of them: is_isomorphic finds the
        # same maps in the same order, among fewer additive maps
        census = [e.brace for e in enumerate_braces(n)]
        for B1 in census:
            sig1 = [braces._brace_signature(B1, a) for a in B1.elements()]
            for B2 in census:
                if B2.add.table != B1.add.table:
                    continue
                sig2 = [braces._brace_signature(B2, a) for a in B2.elements()]
                pruned = list(_isomorphisms(B1.add, B2.add, sig1, sig2))
                unpruned = list(reference_unpaired_isomorphisms(B1.add, B2.add, sig1, sig2))
                assert set(pruned) <= set(unpruned)
                assert [f for f in pruned if preserves_products(B1, B2, f)] == \
                    [f for f in unpruned if preserves_products(B1, B2, f)]


class TestSubBraceExtraction:
    def test_roundtrip(self):
        B = almost_trivial_brace(S3)
        sb = sub_brace(B, A3)
        assert sb.brace.order == 3
        assert sb.to_global(sb.to_local(A3)) == A3
        # operations agree through the embedding
        for i, gi in enumerate(sb.elements):
            for j, gj in enumerate(sb.elements):
                assert sb.elements[sb.brace.plus(i, j)] == B.plus(gi, gj)
                assert sb.elements[sb.brace.times(i, j)] == B.times(gi, gj)

    def test_subbraces_of_z4(self):
        B = trivial_brace(cyclic(4))
        assert subbraces(B) == [frozenset({0}), frozenset({0, 2}),
                                frozenset(range(4))]
