"""Ideal structure, series, solubility, Frattini theory, theorem checkers."""

import random

import pytest

from braceforge import structure

from braceforge.braces import (
    almost_trivial_brace,
    annihilator,
    classify_subset,
    classify_within,
    direct_product,
    is_isomorphic,
    quotient,
    star,
    sub_brace,
    subbraces,
    trivial_brace,
    validate_brace,
)
from braceforge.catalog import alternating_5, cyclic, direct_product_group, symmetric_group
from braceforge.construct import enumerate_braces
from braceforge.errors import NotAnIdeal, NotSoluble
from braceforge.groups import subgroups
from braceforge.structure import (
    ZERO,
    abelian_step,
    all_chief_series,
    all_ideals,
    annihilator_quotient_test,
    chief_series,
    chief_series_as_abelian,
    classify_chief_factor,
    commutator,
    derived_ideal,
    derived_length,
    derived_series,
    dossier,
    frattini,
    is_soluble,
    maximal_ideals,
    maximal_subbraces,
    minimal_ideals,
    verify_frattini_corollary,
    verify_maximal_subbrace_dichotomy,
    verify_no_proper_subbraces,
    verify_soluble_chief_factors,
)

from braceforge.ybe import coset_partition

from reference import (
    ORDER_16,
    all_abelian_series,
    reference_abelian_step,
    reference_all_chief_series,
    reference_classify_chief_factor,
    reference_classify_within,
    reference_coset_partition,
    reference_derived_series,
)

S3 = symmetric_group(3)
A3 = frozenset({0, 3, 4})


@pytest.fixture(scope="module")
def census6():
    return [e.brace for n in range(1, 7) for e in enumerate_braces(n)]


class TestIdeals:
    def test_prime_cyclic(self):
        assert all_ideals(trivial_brace(cyclic(5))) == [ZERO, frozenset(range(5))]

    def test_trivial_z4(self):
        assert len(all_ideals(trivial_brace(cyclic(4)))) == 3

    def test_almost_trivial_s3(self):
        assert all_ideals(almost_trivial_brace(S3)) == [ZERO, A3, frozenset(range(6))]

    def test_minimal_maximal_two_element_lattice(self):
        B = trivial_brace(cyclic(5))
        assert minimal_ideals(B) == [frozenset(range(5))]
        assert maximal_ideals(B) == [ZERO]

    def test_minimal_maximal_z4(self):
        B = trivial_brace(cyclic(4))
        assert minimal_ideals(B) == [frozenset({0, 2})]
        assert maximal_ideals(B) == [frozenset({0, 2})]

    def test_minimal_maximal_s3(self):
        B = almost_trivial_brace(S3)
        assert minimal_ideals(B) == [A3] and maximal_ideals(B) == [A3]


class TestCommutator:
    def test_with_zero(self):
        B = trivial_brace(cyclic(4))
        assert commutator(B, ZERO, frozenset({0, 2})) == ZERO

    def test_abelian_brace(self):
        B = trivial_brace(cyclic(6))
        assert derived_ideal(B) == ZERO

    def test_trivial_s3(self):
        assert derived_ideal(trivial_brace(S3)) == A3

    def test_requires_ideals(self):
        B = almost_trivial_brace(S3)
        with pytest.raises(NotAnIdeal):
            commutator(B, frozenset({0, 1}), A3)

    def test_symmetric_and_monotone(self, census6):
        for B in census6:
            ideals = all_ideals(B)
            pairs = {(I, J): commutator(B, I, J) for I in ideals for J in ideals}
            for (I, J), value in pairs.items():
                assert value == pairs[(J, I)]
                for I2 in ideals:
                    for J2 in ideals:
                        if I <= I2 and J <= J2:
                            assert value <= pairs[(I2, J2)]


def fixpoint_commutator(B, I, J):
    """Reference for commutator: whole rounds of every closure pass until nothing grows."""
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
            return current
        current = grown


@pytest.mark.parametrize("n", range(1, 16))
def test_commutator_matches_the_round_fixpoint(n):
    # every ideal pair of every quotient of the census braces of order n,
    # the quotient by 0, the brace itself, included
    for k, entry in enumerate(enumerate_braces(n)):
        B = validate_brace(entry.brace.add.table, entry.brace.mul.table)
        for I in all_ideals(B):
            Q = quotient(B, I).brace
            ideals = all_ideals(Q)
            for J in ideals:
                for K in ideals:
                    got = commutator(Q, J, K)
                    assert got == fixpoint_commutator(Q, J, K), (k, sorted(I), sorted(J), sorted(K))
                    assert classify_subset(Q, got).ideal


def test_derived_ideal_needs_the_star_generators():
    # both groups of the first census brace of order 4 are abelian, so its
    # group commutators are all 0; ij - (i + j) alone makes [B, B] = {0, 2}
    B = enumerate_braces(4)[0].brace
    assert B.add.is_abelian and B.mul.is_abelian
    assert derived_ideal(B) == {0, 2} == fixpoint_commutator(B, B.carrier(), B.carrier())


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_commutator_kernel_closes_any_seed_to_the_least_ideal(n):
    # on every census pair of ideals up to order 15 the generators already span
    # an ideal under + alone; single-element seeds need each image the worklist takes
    rng = random.Random(n)
    for entry in enumerate_braces(n):
        B = validate_brace(entry.brace.add.table, entry.brace.mul.table)
        for _ in range(8):
            I, J = frozenset({rng.randrange(n)}), frozenset({rng.randrange(n)})
            assert structure._commutator(B, I, J) == fixpoint_commutator(B, I, J)


def test_commutator_needs_the_images_on_c4_x_c4():
    # order 16: [I, I] is bigger than the additive closure of its generators
    G = direct_product_group(cyclic(4), cyclic(4))
    B = enumerate_braces(16, extra_groups=[G])[2].brace
    I = frozenset(range(0, 16, 2))
    gens = set()
    for i in I:
        for j in I:
            gens.add(B.plus(B.plus(B.plus(B.neg(i), B.neg(j)), i), j))
            gens.add(B.times(B.times(B.times(B.tinv(i), B.tinv(j)), i), j))
            gens.add(B.plus(B.times(i, j), B.neg(B.plus(i, j))))
    assert B.add.closure(gens) == {0, 8}
    assert commutator(B, I, I) == {0, 2, 8, 10} == fixpoint_commutator(B, I, I)


class TestAnnihilatorQuotient:
    def test_equal_ideals(self):
        B = almost_trivial_brace(S3)
        assert annihilator_quotient_test(B, A3, A3) == (True, True)

    def test_abelian_whole(self):
        B = trivial_brace(cyclic(6))
        assert annihilator_quotient_test(B, B.carrier(), ZERO) == (True, True)

    def test_all_nested_pairs_small(self, census6):
        for B in census6:
            ideals = all_ideals(B)
            for I in ideals:
                for J in ideals:
                    if J <= I:
                        a, b = annihilator_quotient_test(B, I, J)
                        assert a == b


class TestDerivedSeries:
    def test_abelian_single_step(self):
        w = derived_series(trivial_brace(cyclic(6)))
        assert [sorted(s) for s in w.chain] == [[0, 1, 2, 3, 4, 5], [0]]
        assert w.length == 1

    def test_trivial_s3(self):
        w = derived_series(trivial_brace(S3))
        assert w.chain == (frozenset(range(6)), A3, ZERO)
        assert derived_length(trivial_brace(S3)) == 2

    def test_zero_brace(self):
        w = derived_series(trivial_brace(cyclic(1)))
        assert w.chain == (ZERO,) and w.length == 0
        assert derived_length(trivial_brace(cyclic(1))) == 0

    def test_a5_not_soluble(self):
        B = trivial_brace(alternating_5())
        assert not is_soluble(B)
        with pytest.raises(NotSoluble):
            derived_length(B)

    def test_soluble_examples(self):
        assert is_soluble(trivial_brace(cyclic(6)))
        assert derived_length(almost_trivial_brace(S3)) == 2


class TestSeriesStepsOnGenerators:
    """Series steps decided in B's tables agree with the standalone-brace route they replace."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_chains_match_the_sub_brace_route(self, n):
        # the derived and chief series of every census brace, order 16 on the
        # ORDER_16 classes; every ordered pair of chain members is a step
        census = enumerate_braces(n, extra_groups=ORDER_16 if n == 16 else None)
        verdicts = set()
        for entry in census:
            B = validate_brace(entry.brace.add.table, entry.brace.mul.table)
            derived = derived_series(B).chain
            assert derived == reference_derived_series(B)
            members = set(derived) | set(chief_series(B).chain)
            for upper in members:
                for lower in members:
                    got = abelian_step(B, upper, lower)
                    assert got == reference_abelian_step(B, upper, lower), (sorted(upper), sorted(lower))
                    verdicts.add(got)
        if n in (8, 12, 16):
            assert verdicts == {None, "is not an ideal of", "has a non-abelian quotient in"}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pairs_match_the_sub_brace_route(self, n):
        # every subbrace U against every additive subgroup of B, inside U or
        # not, and seeded subsets that are no subgroups, inside U and across it
        rng = random.Random(n)
        relative = set()
        for entry in enumerate_braces(n):
            B = validate_brace(entry.brace.add.table, entry.brace.mul.table)
            for U in subbraces(B):
                cases = subgroups(B.add)
                for _ in range(3):
                    cases.append(frozenset({0}) | frozenset(rng.sample(sorted(U), rng.randrange(len(U)))))
                    cases.append(frozenset(rng.sample(range(n), rng.randint(1, n))))
                for S in cases:
                    flags = classify_within(B, U, S)
                    assert flags == reference_classify_within(B, U, S), (sorted(U), sorted(S))
                    assert abelian_step(B, U, S) == reference_abelian_step(B, U, S), (sorted(U), sorted(S))
                    if flags.ideal:
                        assert coset_partition(B, S, within=U) == reference_coset_partition(B, S, U)
                    else:
                        with pytest.raises(NotAnIdeal):
                            coset_partition(B, S, within=U)
                    relative.add((flags.ideal, classify_subset(B, S).ideal))
        if n in (8, 12):
            # some ideals of a subbrace are not ideals of B
            assert (True, False) in relative

    def test_whole_brace_is_classify_subset(self):
        B = enumerate_braces(8)[5].brace
        for S in subgroups(B.add):
            assert classify_within(B, B.carrier(), S) is classify_subset(B, S)

    def test_non_subbrace_ambient_raises(self):
        B = trivial_brace(S3)
        with pytest.raises(ValueError, match=r"^\[0, 1, 3\] is not a subbrace$"):
            classify_within(B, {0, 1, 3}, ZERO)
        with pytest.raises(ValueError, match=r"^\[0, 1, 3\] is not a subbrace$"):
            abelian_step(B, frozenset({0, 1, 3}), ZERO)

    def test_lower_outside_upper_is_not_an_ideal(self):
        # on C4 the subbrace {0, 2} does not hold 1
        B = trivial_brace(cyclic(4))
        assert abelian_step(B, frozenset({0, 2}), frozenset({0, 1})) == "is not an ideal of"
        assert classify_within(B, {0, 2}, {0, 1}) == (False, False, False)


class TestMaximalSubbracesAndFrattini:
    def test_prime_cyclic(self):
        B = trivial_brace(cyclic(5))
        assert maximal_subbraces(B) == [ZERO] and frattini(B) == ZERO

    def test_trivial_z4(self):
        B = trivial_brace(cyclic(4))
        assert maximal_subbraces(B) == [frozenset({0, 2})]
        assert frattini(B) == frozenset({0, 2})

    def test_zero_brace_convention(self):
        B = trivial_brace(cyclic(1))
        assert maximal_subbraces(B) == [] and frattini(B) == ZERO


class TestChiefSeries:
    def test_prime_cyclic(self):
        w = chief_series(trivial_brace(cyclic(5)))
        assert w.chain == (frozenset(range(5)), ZERO)

    def test_trivial_z4(self):
        w = chief_series(trivial_brace(cyclic(4)))
        assert w.chain == (frozenset(range(4)), frozenset({0, 2}), ZERO)

    def test_almost_trivial_s3(self):
        w = chief_series(almost_trivial_brace(S3))
        assert w.chain == (frozenset(range(6)), A3, ZERO)

    def test_zero_brace(self):
        assert chief_series(trivial_brace(cyclic(1))).chain == (ZERO,)

    def test_factors_are_minimal_ideals(self, census6):
        for B in census6:
            w = chief_series(B)
            for i in range(len(w.chain) - 1):
                q = quotient(B, w.chain[i + 1])
                assert q.image(w.chain[i]) in minimal_ideals(q.brace)


class TestClassifyChiefFactor:
    def test_frattini_factor_z4(self):
        r = classify_chief_factor(trivial_brace(cyclic(4)), ZERO, frozenset({0, 2}))
        assert r.kind == "frattini" and r.abelian and r.p_elementary == 2

    def test_complemented_factor_klein(self):
        B = trivial_brace(direct_product_group(cyclic(2), cyclic(2)))
        r = classify_chief_factor(B, ZERO, minimal_ideals(B)[0])
        assert r.kind == "complemented" and r.p_elementary == 2
        assert r.complement_witness is not None

    def test_complemented_factor_s3(self):
        r = classify_chief_factor(almost_trivial_brace(S3), ZERO, A3)
        assert r.kind == "complemented" and r.p_elementary == 3
        assert len(r.complement_witness) == 2

    def test_non_abelian_factor(self):
        B = trivial_brace(alternating_5())
        r = classify_chief_factor(B, ZERO, B.carrier())
        assert not r.abelian and r.kind == "neither"

    def test_rejects_non_chief(self):
        B = trivial_brace(cyclic(4))
        with pytest.raises(NotAnIdeal):
            classify_chief_factor(B, ZERO, B.carrier())

    def test_rejects_upper_not_above_lower(self):
        # {0, 1} and {0, 2} are ideals of C2 x C2, and {0, 2} does not hold {0, 1}
        B = trivial_brace(direct_product_group(cyclic(2), cyclic(2)))
        assert all(classify_subset(B, S).ideal for S in ({0, 1}, {0, 2}))
        with pytest.raises(NotAnIdeal):
            classify_chief_factor(B, frozenset({0, 1}), frozenset({0, 2}))

    def test_rejects_non_ideal_lower(self):
        B = trivial_brace(S3)
        with pytest.raises(NotAnIdeal):
            classify_chief_factor(B, frozenset({0, 1}), B.carrier())


class TestChiefFactorsByCorrespondence:
    """Chief series and factors decided in B's lattices agree with the quotient-brace route they replace."""

    @staticmethod
    def check_factors(B, witness):
        kinds = set()
        for upper, lower in zip(witness.chain, witness.chain[1:]):
            got = classify_chief_factor(B, lower, upper)
            assert got == reference_classify_chief_factor(B, lower, upper), (sorted(lower), sorted(upper))
            if got.kind == "complemented":
                assert got.complement_witness == quotient(B, lower).image(got.complement_pullback)
            kinds.add(got.kind)
        return kinds

    @pytest.mark.parametrize("n", range(1, 16))
    def test_every_chief_series_matches_the_quotient_route(self, n):
        kinds = set()
        for entry in enumerate_braces(n):
            B = validate_brace(entry.brace.add.table, entry.brace.mul.table)
            series = list(all_chief_series(B))
            assert series == list(reference_all_chief_series(B))
            for witness in series:
                kinds |= self.check_factors(B, witness)
        if n in (8, 12):
            assert {"frattini", "complemented"} <= kinds

    def test_order_16_chief_series_match_the_quotient_route(self):
        kinds = set()
        for entry in enumerate_braces(16, extra_groups=ORDER_16):
            B = validate_brace(entry.brace.add.table, entry.brace.mul.table)
            witness = chief_series(B)
            assert witness == next(reference_all_chief_series(B))
            kinds |= self.check_factors(B, witness)
        assert {"frattini", "complemented"} <= kinds


class TestNoProperSubbraces:
    def test_sweep_order_six(self, census6):
        report = verify_no_proper_subbraces(census6)
        assert sorted(q["order"] for q in report.qualifying) == [2, 3, 5]

    def test_z4_has_proper_subbrace(self):
        report = verify_no_proper_subbraces([trivial_brace(cyclic(4))])
        assert report.qualifying == ()


class TestSolubleChiefFactors:
    def test_trivial_c6(self):
        rep = verify_soluble_chief_factors(trivial_brace(cyclic(6)))
        assert sorted(len(r.upper) // len(r.lower) for r in rep.factor_reports) == [2, 3]
        assert sorted(i for _, i in rep.maximal_subbrace_indices) == [2, 3]

    def test_trivial_z4(self):
        rep = verify_soluble_chief_factors(trivial_brace(cyclic(4)))
        assert [i for _, i in rep.maximal_subbrace_indices] == [2]

    def test_almost_trivial_s3(self):
        rep = verify_soluble_chief_factors(almost_trivial_brace(S3))
        assert sorted(i for _, i in rep.maximal_subbrace_indices) == [2, 3, 3, 3]

    def test_exhaustive_mode(self, census6):
        for B in census6:
            if is_soluble(B):
                verify_soluble_chief_factors(B, exhaustive=True)

    def test_rejects_non_soluble(self):
        with pytest.raises(NotSoluble):
            verify_soluble_chief_factors(trivial_brace(alternating_5()))


class TestMaximalSubbraceDichotomy:
    def test_z4_ideal_branch(self):
        B = trivial_brace(cyclic(4))
        r = verify_maximal_subbrace_dichotomy(B, frozenset({0, 2}))
        assert not r.annihilator_contained
        assert r.is_ideal and r.quotient_prime_abelian

    def test_s3_annihilator_branch(self):
        B = almost_trivial_brace(S3)
        for S in maximal_subbraces(B):
            r = verify_maximal_subbrace_dichotomy(B, S)
            assert r.annihilator_contained  # annihilator is {0}

    def test_rejects_non_maximal(self):
        with pytest.raises(ValueError):
            verify_maximal_subbrace_dichotomy(trivial_brace(cyclic(4)), ZERO)

    def test_frattini_corollary(self, census6):
        for B in census6:
            assert verify_frattini_corollary(B)


class TestAbelianSeries:
    def test_exhaustive_contains_derived(self, census6):
        for B in census6:
            found = all_abelian_series(B)
            if is_soluble(B):
                assert derived_series(B).chain in found
            else:
                assert found == []

    def test_derived_is_fastest(self, census6):
        # the derived chain is contained termwise in every abelian series
        for B in census6:
            series_list = all_abelian_series(B)
            if not series_list:
                continue
            dchain = derived_series(B).chain
            for series in series_list:
                padded = dchain + (ZERO,) * (len(series) - len(dchain))
                for i, member in enumerate(series):
                    assert padded[i] <= member
            assert derived_length(B) == min(len(s) - 1 for s in series_list)

    def test_chief_series_as_abelian(self):
        B = trivial_brace(cyclic(6))
        w = chief_series_as_abelian(B)
        assert w == chief_series(B) and w.terminated and w.length == 2
        with pytest.raises(NotSoluble):
            chief_series_as_abelian(trivial_brace(alternating_5()))


class TestSolubilityClosure:
    def test_subbraces_and_quotients(self, census6):
        for B in census6:
            if not is_soluble(B):
                continue
            for S in subbraces(B):
                assert is_soluble(sub_brace(B, S).brace)
            for I in all_ideals(B):
                assert is_soluble(quotient(B, I).brace)

    def test_direct_products(self):
        B1 = almost_trivial_brace(S3)
        B2 = trivial_brace(cyclic(2))
        assert is_soluble(direct_product(B1, B2))

    def test_ideal_extensions(self, census6):
        # soluble ideal with soluble quotient forces solubility
        for B in census6:
            for I in all_ideals(B):
                inner = is_soluble(sub_brace(B, I).brace)
                outer = is_soluble(quotient(B, I).brace)
                if inner and outer:
                    assert is_soluble(B)

    def test_minimal_ideals_of_soluble_are_abelian(self, census6):
        for B in census6:
            if not is_soluble(B):
                continue
            for I in minimal_ideals(B):
                assert sub_brace(B, I).brace.is_abelian

    def test_maximal_ideal_quotients_prime(self, census6):
        for B in census6:
            if not is_soluble(B) or B.order == 1:
                continue
            for I in maximal_ideals(B):
                q = quotient(B, I).brace
                assert q.is_abelian
                assert all(q.order % d for d in range(2, q.order))

    def test_complemented_minimal_ideal_splits(self, census6):
        # a complement avoiding the annihilator forces a direct decomposition
        for B in census6:
            if not is_soluble(B):
                continue
            z = annihilator(B)
            for I in minimal_ideals(B):
                for S in subbraces(B):
                    if I & S != ZERO or z <= S:
                        continue
                    added = frozenset(B.plus(a, s) for a in I for s in S)
                    times = frozenset(B.times(a, s) for a in I for s in S)
                    if added != B.carrier() or times != B.carrier():
                        continue
                    product = direct_product(sub_brace(B, I).brace,
                                             sub_brace(B, S).brace)
                    assert is_isomorphic(B, product) is not None


def test_dossier_fields():
    d = dossier(trivial_brace(cyclic(4)))
    assert d["soluble"] and d["derived_length"] == 1
    assert d["frattini"] == [0, 2]
    assert d["chief_series"] == [[0, 1, 2, 3], [0, 2], [0]]
    assert d["kernel_lambda"] == [0, 1, 2, 3]
    assert d["chief_factors"][0]["kind"] == "complemented"
    assert d["chief_factors"][1]["kind"] == "frattini"
