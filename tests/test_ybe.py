"""Yang-Baxter solutions, decomposability, and multidecomposition witnesses."""

import functools
import itertools
import random

import pytest

from braceforge.braces import quotient, sub_brace, trivial_brace
from braceforge.catalog import alternating_5, cyclic, direct_product_group, symmetric_group
from braceforge.construct import enumerate_braces
from braceforge import ybe
from braceforge.errors import (
    BoundExceeded,
    BraidFailed,
    Degenerate,
    EmbeddingIncompatible,
    HypothesisFailed,
    InternalInvariant,
    NotAnIdeal,
    QuotientNotAbelian,
    SeriesInvalid,
)
from braceforge.groups import subgroups, subset_key
from braceforge.structure import (
    ZERO,
    SeriesWitness,
    abelian_step,
    all_ideals,
    chief_series,
    chief_series_as_abelian,
    derived_series,
    is_soluble,
)
from braceforge.ybe import (
    MultidecompositionWitness,
    Solution,
    coset_partition,
    embedded_multidecomposition,
    flip_solution,
    ideal_coset_decomposition,
    is_partition_decomposable,
    make_partition,
    multidecomposition_from_series,
    orbit_partition,
    r_closed_subsets,
    solution_from_brace,
    validate_solution,
    verify_multidecomposition,
)
from reference import (
    reference_blocks_swap,
    reference_brace_rho,
    reference_coset_partition,
    reference_decompositions,
    reference_r_closed_subsets,
)

S3 = symmetric_group(3)
A3 = frozenset({0, 3, 4})


def r_closed_scan(solution):
    """Reference for r_closed_subsets: test every non-empty subset."""
    out = []
    for bits in range(1, 1 << solution.size):
        X = frozenset(i for i in range(solution.size) if bits >> i & 1)
        if all(solution.lambda_tab[x][y] in X and solution.rho_tab[y][x] in X
               for x in X for y in X):
            out.append(X)
    return sorted(out, key=subset_key)


def embedded_reference(solution, X, B, embed, series):
    """Reference for embedded_multidecomposition: check the series and build
    every coset partition again for each X, as the per-subset path did."""
    chain = series.chain
    assert chain[0] == B.carrier() and chain[-1] == ZERO
    for upper, lower in zip(chain, chain[1:]):
        assert lower < upper and abelian_step(B, upper, lower) is None
    points = frozenset(X)
    n = len(chain) - 1
    if n == 0:
        return MultidecompositionWitness(points, (points,), ())
    meet = sorted(x for x in points if embed[x] in chain[n - 1])
    levels = [points] + [frozenset(x for x in points if embed[x] in chain[j])
                         for j in range(1, n)] + [frozenset({meet[0]})]
    partitions = []
    for j in range(n):
        cosets = coset_partition(B, chain[j + 1], within=chain[j])
        pulled = (frozenset(x for x in levels[j] if embed[x] in block)
                  for block in cosets.blocks)
        partitions.append(make_partition(b for b in pulled if b))
    return MultidecompositionWitness(points, tuple(levels), tuple(partitions))


def z4_two_step_series():
    B = trivial_brace(cyclic(4))
    chain = (frozenset(range(4)), frozenset({0, 2}), ZERO)
    return B, SeriesWitness(chain)


class TestValidateSolution:
    def test_flip(self):
        s = flip_solution(3)
        assert validate_solution(s.lambda_tab, s.rho_tab).is_flip

    def test_no_points_degenerate(self):
        # a group table needs its identity, and a solution needs a point
        with pytest.raises(Degenerate, match="^table shape: empty table$"):
            validate_solution([], [])

    @pytest.mark.parametrize("lam, rho, message", [
        ([[0, 1], [1, 0]], [[0, 1]], "rho has 1 rows, not 2"),
        ([[0, 1], [1]], [[0, 1], [1, 0]], "lambda row 1 has 1 entries, not 2"),
        ([[0, 1], [1, 0]], [[0, 1, 2], [1, 0]], "rho row 0 has 3 entries, not 2"),
    ])
    def test_mis_shaped_tables_name_their_shape(self, lam, rho, message):
        with pytest.raises(Degenerate) as info:
            validate_solution(lam, rho)
        assert str(info.value) == f"table shape: {message}"

    def test_constant_row_degenerate(self):
        bad = ((0, 0, 0), (0, 1, 2), (0, 1, 2))
        good = tuple(tuple(range(3)) for _ in range(3))
        with pytest.raises(Degenerate):
            validate_solution(bad, good)
        with pytest.raises(Degenerate):
            validate_solution(good, bad)

    def test_braid_failure_witnessed(self):
        # bijective rows that break the braid relation (found by search)
        lam = ((0, 1, 2), (0, 1, 2), (0, 1, 2))
        rho = ((0, 1, 2), (0, 1, 2), (0, 2, 1))
        with pytest.raises(BraidFailed) as info:
            validate_solution(lam, rho)
        assert info.value.witness == (1, 1, 2)


class TestSolutionFromBrace:
    def test_trivial_abelian_is_flip(self):
        assert solution_from_brace(trivial_brace(cyclic(5))).is_flip

    def test_trivial_s3_is_conjugation(self):
        s = solution_from_brace(trivial_brace(S3))
        for a in range(6):
            assert s.lambda_tab[a] == tuple(range(6))
            for b in range(6):
                assert s.rho_tab[b][a] == S3.mul(S3.mul(S3.inv(b), a), b)

    def test_zero_brace(self):
        assert solution_from_brace(trivial_brace(cyclic(1))).size == 1

    def test_census_solutions_validate(self):
        # built without validation, since the braid relation holds by theorem
        for n in range(1, 16):
            for entry in enumerate_braces(n):
                s = solution_from_brace(entry.brace)
                assert validate_solution(s.lambda_tab, s.rho_tab) == s


def seeded_blocks(points, rng):
    """The points shuffled and cut at seeded places into blocks, in the order cut."""
    points = list(points)
    rng.shuffle(points)
    blocks, start = [], 0
    while start < len(points):
        end = rng.randint(start + 1, len(points))
        blocks.append(frozenset(points[start:end]))
        start = end
    return blocks


class TestBraceSolutionByRows:
    @pytest.mark.parametrize("n", range(1, 16))
    def test_rho_matches_the_definition_on_census(self, n):
        for entry in enumerate_braces(n):
            B = entry.brace
            s = ybe.solution_from_brace.__wrapped__(B)
            assert s.lambda_tab == B.lam and s.rho_tab == reference_brace_rho(B)

    @pytest.mark.parametrize("n", range(1, 16))
    def test_block_swaps_match_the_scan_on_census(self, n):
        # coset partitions of every ideal, and seeded partitions of the carrier
        # and of seeded subsets of it; rejections name the scan's witness
        rng = random.Random(n)
        verdicts, flips = set(), True
        for entry in enumerate_braces(n):
            B = entry.brace
            s = solution_from_brace(B)
            flips &= s.is_flip
            cases = [coset_partition(B, I).blocks for I in all_ideals(B)]
            for _ in range(6):
                cases.append(seeded_blocks(range(n), rng))
                cases.append(seeded_blocks(rng.sample(range(n), rng.randint(1, n)), rng))
            for blocks in cases:
                got = ybe._blocks_swap_ok(s, blocks)
                assert got == reference_blocks_swap(s, blocks), sorted(map(sorted, blocks))
                verdicts.add(got[0])
        # the flip swaps any blocks
        assert verdicts == ({True} if flips else {True, False})


class TestPartitionDecomposable:
    def test_flip_any_partition(self):
        s = flip_solution(4)
        ok, _ = is_partition_decomposable(s, make_partition([{0, 1}, {2, 3}]))
        assert ok
        ok, _ = is_partition_decomposable(s, make_partition([x] for x in range(4)))
        assert ok

    def test_conjugation_coset_partition(self):
        s = solution_from_brace(trivial_brace(S3))
        ok, _ = is_partition_decomposable(s, make_partition([A3, {1, 2, 5}]))
        assert ok

    def test_failure_witness(self):
        s = solution_from_brace(trivial_brace(S3))
        ok, witness = is_partition_decomposable(
            s, make_partition([{0, 1}, {2, 3, 4, 5}]))
        assert not ok and witness is not None
        bi, bj, x, y = witness
        u, v = s.r(x, y)
        assert u not in frozenset(bj) or v not in frozenset(bi)

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            is_partition_decomposable(flip_solution(3), make_partition([{0, 1}]))


class TestCosetPartition:
    def test_whole_ideal_single_block(self):
        B = trivial_brace(cyclic(4))
        p = coset_partition(B, frozenset({0, 2}), within=frozenset({0, 2}))
        assert p.blocks == (frozenset({0, 2}),)

    def test_zero_ideal_singletons(self):
        B = trivial_brace(cyclic(4))
        p = coset_partition(B, ZERO)
        assert p == make_partition([x] for x in range(4))

    def test_z4_two_blocks(self):
        p = coset_partition(trivial_brace(cyclic(4)), frozenset({0, 2}))
        assert p.blocks == (frozenset({0, 2}), frozenset({1, 3})) and p.uniform

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_reference_on_census(self, n):
        # every ideal of every census brace of order n, and every step of each
        # soluble brace's derived series, against the per-element build
        for entry in enumerate_braces(n):
            B = entry.brace
            for I in all_ideals(B):
                assert coset_partition(B, I) == reference_coset_partition(B, I, B.carrier())
            series = derived_series(B)
            if series.terminated:
                for upper, lower in zip(series.chain, series.chain[1:]):
                    assert (coset_partition(B, lower, within=upper)
                            == reference_coset_partition(B, lower, upper))

    def test_non_ideal_raises(self):
        # an order-2 subgroup of an S3 inside the trivial brace on S3 x C2 is
        # normal neither in that S3 nor in the whole group
        B = trivial_brace(direct_product_group(S3, cyclic(2)))
        within = next(S for S in subgroups(B.add) if len(S) == 6
                      and any(B.plus(a, b) != B.plus(b, a) for a in S for b in S))
        I = frozenset({0, next(a for a in sorted(within) if B.add.element_order(a) == 2)})
        with pytest.raises(NotAnIdeal):
            coset_partition(B, I)
        with pytest.raises(NotAnIdeal) as info:
            coset_partition(B, I, within=within)
        # the message names I by its labels inside the subbrace
        local = sub_brace(B, within).to_local(I)
        assert str(info.value) == f"{sorted(local)} is not an ideal"

    def test_ideal_leaving_the_subbrace_raises(self):
        # on C4 the subbrace {0, 2} does not hold 1, which has no label inside it
        B = trivial_brace(cyclic(4))
        with pytest.raises(NotAnIdeal, match=r"^\[0, 1\] is not inside the subbrace \[0, 2\]$"):
            coset_partition(B, {0, 1}, within={0, 2})

    def test_non_subbrace_within_raises(self):
        B = trivial_brace(cyclic(4))
        with pytest.raises(ValueError, match=r"^\[0, 1\] is not a subbrace$"):
            coset_partition(B, ZERO, within={0, 1})


class TestMultidecomposition:
    def test_abelian_one_level(self):
        B = trivial_brace(cyclic(3))
        w = multidecomposition_from_series(B, derived_series(B))
        assert w.chain == (frozenset(range(3)), ZERO)
        assert w.partitions[0] == make_partition([x] for x in range(3))

    def test_trivial_s3_two_levels(self):
        B = trivial_brace(S3)
        w = multidecomposition_from_series(B, derived_series(B))
        assert w.chain == (frozenset(range(6)), A3, ZERO)
        assert w.uniform
        assert verify_multidecomposition(solution_from_brace(B), w)["ok"]

    def test_z4_supplied_series(self):
        B, series = z4_two_step_series()
        w = multidecomposition_from_series(B, series)
        assert [len(p.blocks) for p in w.partitions] == [2, 2]
        assert w.uniform

    def test_series_validation(self):
        B = trivial_brace(cyclic(4))
        not_terminated = SeriesWitness((B.carrier(),))
        with pytest.raises(SeriesInvalid):
            multidecomposition_from_series(B, not_terminated)
        not_ideal = SeriesWitness((B.carrier(), frozenset({0, 1}), ZERO))
        with pytest.raises(SeriesInvalid):
            multidecomposition_from_series(B, not_ideal)
        # A5 > 0 is a chief series with a non-abelian factor: its chain alone refuses it
        A5 = trivial_brace(alternating_5())
        with pytest.raises(SeriesInvalid):
            multidecomposition_from_series(A5, chief_series(A5))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_chief_series_witness_is_the_decompose_witness(self, n):
        # decompose builds its witness on chief_series_as_abelian; the bare chief series gives it too
        for entry in enumerate_braces(n):
            B = entry.brace
            if is_soluble(B):
                assert (multidecomposition_from_series(B, chief_series(B))
                        == multidecomposition_from_series(B, chief_series_as_abelian(B)))

    def test_tampered_witness_fails_verification(self):
        B = trivial_brace(S3)
        w = multidecomposition_from_series(B, derived_series(B))
        tampered = MultidecompositionWitness(
            w.ground, (w.chain[0], frozenset({0, 1}), w.chain[2]), w.partitions)
        checks = verify_multidecomposition(solution_from_brace(B), tampered)
        assert not checks["ok"]

    @pytest.mark.parametrize("tamper, failing", [
        (lambda w: (w.chain[1], w.chain, w.partitions), {"starts_at_ground"}),
        (lambda w: (w.ground, w.chain, w.partitions[::-1]), {"partitions_cover"}),
        (lambda w: (w.ground, (w.chain[0], frozenset({0, 1}), w.chain[2]), w.partitions),
         {"partitions_cover", "next_is_block"}),
        # r(1, 2) = (2, 5) leaves the level {0, 1, 2}
        (lambda w: (w.ground, (w.chain[0], frozenset({0, 1, 2}), w.chain[2]), w.partitions),
         {"partitions_cover", "next_is_block", "r_closed"}),
        # {0,1} and {2,3,4,5} are no cosets and the conjugation solution does not swap them
        (lambda w: (w.ground, w.chain, (make_partition([{0, 1}, {2, 3, 4, 5}]), w.partitions[1])),
         {"next_is_block", "block_swap"}),
    ])
    def test_tampering_fails_exactly_its_clauses(self, tamper, failing):
        B = trivial_brace(S3)
        w = multidecomposition_from_series(B, derived_series(B))
        checks = verify_multidecomposition(solution_from_brace(B),
                                           MultidecompositionWitness(*tamper(w)))
        assert {name for name, ok in checks.items() if not ok} == failing | {"ok"}
        assert len(checks) == 9


class TestIdealCosetDecomposition:
    def test_c6_index_two(self):
        p = ideal_coset_decomposition(trivial_brace(cyclic(6)), frozenset({0, 2, 4}))
        assert len(p.blocks) == 2 and p.uniform

    def test_z4(self):
        p = ideal_coset_decomposition(trivial_brace(cyclic(4)), frozenset({0, 2}))
        assert len(p.blocks) == 2

    def test_whole_brace_rejected(self):
        B = trivial_brace(cyclic(6))
        with pytest.raises(ValueError):
            ideal_coset_decomposition(B, B.carrier())

    def test_non_abelian_quotient_rejected(self):
        with pytest.raises(QuotientNotAbelian):
            ideal_coset_decomposition(trivial_brace(S3), ZERO)

    def test_non_ideal_rejected(self):
        # {0, 1} is a subgroup of S3 that is not normal
        B = trivial_brace(S3)
        with pytest.raises(NotAnIdeal, match=r"^\[0, 1\] is not an ideal$"):
            ideal_coset_decomposition(B, frozenset({0, 1}))


class TestEmbedded:
    def test_identity_embedding_matches_series_route(self):
        B = trivial_brace(S3)
        series = derived_series(B)
        s = solution_from_brace(B)
        w = embedded_multidecomposition(s, range(6), B, list(range(6)), series)
        assert w.chain == multidecomposition_from_series(B, series).chain

    def test_z4_subset(self):
        B, series = z4_two_step_series()
        s = solution_from_brace(B)
        w = embedded_multidecomposition(s, {0, 2}, B, list(range(4)), series)
        assert w.chain == (frozenset({0, 2}), frozenset({0, 2}), ZERO)
        assert [len(p.blocks) for p in w.partitions] == [1, 2]

    def test_final_point_is_least(self):
        B, series = z4_two_step_series()
        s = solution_from_brace(B)
        w = embedded_multidecomposition(s, {1, 2, 3, 0}, B, list(range(4)), series)
        assert w.chain[-1] == ZERO  # 0 is the least point of X meeting {0,2}

    def test_hypothesis_failure(self):
        B, series = z4_two_step_series()
        s = solution_from_brace(B)
        with pytest.raises(HypothesisFailed):
            embedded_multidecomposition(s, {1, 3}, B, list(range(4)), series)

    def test_non_injective_embedding(self):
        B = trivial_brace(cyclic(4))
        s = solution_from_brace(B)
        with pytest.raises(EmbeddingIncompatible):
            embedded_multidecomposition(s, {0, 1}, B, [0, 0, 2, 3],
                                        derived_series(B))

    def test_incompatible_images(self):
        # points 1,2 of the flip on C4 sent to non-commuting points of S3
        B = trivial_brace(S3)
        s = flip_solution(3)
        with pytest.raises(EmbeddingIncompatible):
            embedded_multidecomposition(s, {0, 1, 2}, B, [0, 1, 2],
                                        derived_series(B))

    def test_zero_brace(self):
        B = trivial_brace(cyclic(1))
        s = solution_from_brace(B)
        w = embedded_multidecomposition(s, {0}, B, [0], derived_series(B))
        assert w.chain == (ZERO,) and w.partitions == ()

    @pytest.mark.parametrize("embed, point", [([0, 1], 2), ({0: 0}, 2)])
    def test_missing_image_names_the_point(self, embed, point):
        B, series = z4_two_step_series()
        with pytest.raises(EmbeddingIncompatible) as info:
            embedded_multidecomposition(solution_from_brace(B), {0, 2}, B, embed, series)
        assert info.value.witness == point and f"point {point}" in str(info.value)

    @pytest.mark.parametrize("embed, point", [([0, 1, True, 3], 2), ([0, 1, 2.0, 3], 2),
                                              ([False, 1, 2, 3], 0)])
    def test_image_that_is_not_an_int_rejected(self, embed, point):
        # True, False and 2.0 compare equal to the ints 1, 0 and 2
        B, series = z4_two_step_series()
        with pytest.raises(EmbeddingIncompatible) as info:
            embedded_multidecomposition(solution_from_brace(B), {0, 2}, B, embed, series)
        assert info.value.witness == point and "not an int" in str(info.value)

    @pytest.mark.parametrize("X", [{0, 1.0}, {0, True}, {0, 4}, {-1, 0}])
    def test_point_outside_the_ground_set_rejected(self, X):
        # 1.0 and True compare equal to the point 1, but are not points
        B, series = z4_two_step_series()
        with pytest.raises(EmbeddingIncompatible, match="^X must be a non-empty subset of the ground set$"):
            embedded_multidecomposition(solution_from_brace(B), X, B, range(4), series)

    @pytest.mark.parametrize("embed", [[0, 4, 2, 3], [0, -1, 2, 3]])
    def test_image_outside_the_carrier_rejected(self, embed):
        B, series = z4_two_step_series()
        with pytest.raises(EmbeddingIncompatible, match="^embedding leaves the brace carrier$"):
            embedded_multidecomposition(solution_from_brace(B), {0, 1}, B, embed, series)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference_on_census(self, n):
        # every r-closed subset meeting the last derived term of every soluble
        # census brace of order n: shared series cosets give the same witness
        for entry in enumerate_braces(n):
            B = entry.brace
            series = derived_series(B)
            if not series.terminated:
                continue
            s = solution_from_brace(B)
            identity = list(range(n))
            last_nonzero = series.chain[-2] if n > 1 else ZERO
            for X in r_closed_subsets(s):
                if X & last_nonzero:
                    want = embedded_reference(s, X, B, identity, series)
                    assert embedded_multidecomposition(s, X, B, identity, series) == want


def relabelled(solution, perm):
    """The solution carried to new points: point x stands for perm[x]."""
    inv = [0] * len(perm)
    for x, image in enumerate(perm):
        inv[image] = x
    m = solution.size
    lam = [[inv[solution.lambda_tab[perm[x]][perm[y]]] for y in range(m)] for x in range(m)]
    rho = [[inv[solution.rho_tab[perm[y]][perm[x]]] for x in range(m)] for y in range(m)]
    return validate_solution(lam, rho)


class TestRestrictionLemma:
    """Witnesses whose block swaps come from the series check pass the full re-check."""

    def test_equal_tables_and_relabelled_solutions(self):
        # a copy with equal tables under the identity skips the intertwining;
        # a relabelled copy under a permutation embedding checks it pair by pair
        for B in (e.brace for n in range(2, 9) for e in enumerate_braces(n)):
            series = derived_series(B)
            if not series.terminated:
                continue
            s = solution_from_brace(B)
            copy = Solution(s.size, tuple(tuple(list(r)) for r in s.lambda_tab),
                            tuple(tuple(list(r)) for r in s.rho_tab))
            assert copy is not s and copy.lambda_tab is not s.lambda_tab and copy == s
            perm = [(3 * x + 1) % B.order if B.order % 3 else B.order - 1 - x
                    for x in range(B.order)]
            moved = relabelled(s, perm)
            back = {image: x for x, image in enumerate(perm)}
            identity = list(range(B.order))
            for X in r_closed_subsets(s):
                if not X & series.chain[-2]:
                    continue
                w = embedded_multidecomposition(s, X, B, identity, series)
                w_copy = embedded_multidecomposition(copy, X, B, identity, series)
                assert w_copy == w and verify_multidecomposition(copy, w_copy)["ok"]
                Y = frozenset(back[b] for b in X)
                w_moved = embedded_multidecomposition(moved, Y, B, perm, series)
                assert verify_multidecomposition(moved, w_moved)["ok"]
                # carried back to the brace, the levels and blocks are the same;
                # the final point is the least of the last level in each labelling
                chain = [frozenset(perm[y] for y in level) for level in w_moved.chain]
                assert chain[:-1] == list(w.chain[:-1])
                assert len(chain[-1]) == 1 and chain[-1] <= w.chain[-2]
                assert [make_partition({perm[y] for y in block} for block in p.blocks)
                        for p in w_moved.partitions] == list(w.partitions)

    def test_subset_that_is_not_r_closed_rejected(self):
        # in the conjugation solution on S3, r(1, 2) = (2, 5): the two
        # transpositions 1 and 2 conjugate to the third
        B = trivial_brace(S3)
        series = derived_series(B)
        s = solution_from_brace(B)
        with pytest.raises(EmbeddingIncompatible, match="not r-closed") as info:
            embedded_multidecomposition(s, {1, 2}, B, range(6), series)
        assert info.value.witness == (1, 2)
        perm = [5, 4, 3, 2, 1, 0]
        with pytest.raises(EmbeddingIncompatible, match="not r-closed") as info:
            embedded_multidecomposition(relabelled(s, perm), {4, 3}, B, perm, series)
        assert info.value.witness == (3, 4)

    def test_brace_solution_under_another_embedding_is_checked_pairwise(self):
        # swapping 0 and 1 is no automorphism of S3: r(1, 2) = (2, 5) lands
        # on (2, 5), but the brace solution gives r(0, 2) = (2, 0)
        B = trivial_brace(S3)
        with pytest.raises(EmbeddingIncompatible, match="disagree on images"):
            embedded_multidecomposition(solution_from_brace(B), range(6), B,
                                        [1, 0, 2, 3, 4, 5], derived_series(B))

    def test_cosets_that_do_not_block_swap_raise(self, monkeypatch):
        # the conjugation solution on S3 does not swap the blocks {0,1} and
        # {2,3,4,5}; the series check names the step and the failing pair
        B = trivial_brace(S3)
        series = derived_series(B)
        bad = make_partition([{0, 1}, {2, 3, 4, 5}])
        monkeypatch.setattr(ybe, "coset_partition", lambda B, I, within=None: bad)
        with pytest.raises(InternalInvariant, match=r"step 0: .* do not block-swap"):
            embedded_multidecomposition(solution_from_brace(B), B.carrier(), B,
                                        range(6), series)
        with pytest.raises(InternalInvariant):
            ybe._series_cosets(B, series)


def relabelled_solution(s, seed):
    """s with its points moved by a seeded permutation."""
    perm = list(range(s.size))
    random.Random(seed).shuffle(perm)
    lam = [[0] * s.size for _ in range(s.size)]
    rho = [[0] * s.size for _ in range(s.size)]
    for x in range(s.size):
        for y in range(s.size):
            lam[perm[x]][perm[y]] = perm[s.lambda_tab[x][y]]
            rho[perm[y]][perm[x]] = perm[s.rho_tab[y][x]]
    return Solution(s.size, tuple(map(tuple, lam)), tuple(map(tuple, rho)))


def maps_with_bijective_rows(m):
    """Every pair of tables on m points whose rows are permutations; no braid relation asked."""
    tables = list(itertools.product(itertools.permutations(range(m)), repeat=m))
    return [Solution(m, lam, rho) for lam in tables for rho in tables]


def seeded_map(m, rng):
    """Tables with bijective rows on m points: the flip on a seeded set F joined with
    random rows on the rest, then some rows' entries swapped, which ties F to the rest."""
    free = set(rng.sample(range(m), rng.randrange(m + 1)))
    core = [x for x in range(m) if x not in free]

    def table():
        rows = []
        for y in range(m):
            row = list(range(m))
            if y not in free:
                for z, w in zip(core, rng.sample(core, len(core))):
                    row[z] = w
            if rng.random() < 0.15:
                a, b = rng.sample(range(m), 2)
                row[a], row[b] = row[b], row[a]
            rows.append(tuple(row))
        return tuple(rows)

    return Solution(m, table(), table())


def free_point_conditions(s):
    """For each point x: (x is forced by a pair without x, a pair with x forces a point
    outside the pair).  A point is free exactly when both are False."""
    m, lam, rho = s.size, s.lambda_tab, s.rho_tab

    def forced(y, z):
        return {lam[y][z], rho[z][y], lam[z][y], rho[y][z]}

    return [(any(x in forced(y, z) for y in range(m) for z in range(m) if x not in (y, z)),
             any(forced(x, z) - {x, z} for z in range(m)))
            for x in range(m)]


class TestRClosedSubsets:
    """The search over the core, joined with the free points, returns exactly the list
    of the 2^n scan and of the search over every point, order included."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_scan_on_census(self, n):
        # every census brace of order n, soluble or not
        for entry in enumerate_braces(n):
            s = solution_from_brace(entry.brace)
            assert r_closed_subsets(s) == r_closed_scan(s)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_scan_on_flip(self, m):
        got = r_closed_subsets(flip_solution(m))
        assert got == r_closed_scan(flip_solution(m))
        assert len(got) == (1 << m) - 1

    def test_matches_scan_on_conjugation(self):
        s = solution_from_brace(trivial_brace(S3))
        assert r_closed_subsets(s) == r_closed_scan(s)

    @pytest.mark.parametrize("n", range(13, 16))
    def test_matches_the_search_over_every_point_on_census(self, n):
        for entry in enumerate_braces(n):
            s = solution_from_brace(entry.brace)
            assert r_closed_subsets(s) == reference_r_closed_subsets(s)
            assert free_point_conditions(s)[0] == (False, False)  # the identity is free

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 14])
    def test_matches_the_search_over_every_point_on_relabelled_census(self, n):
        # relabelling moves the free point 0 and interleaves free and core points
        for i, entry in enumerate(enumerate_braces(n)):
            s = relabelled_solution(solution_from_brace(entry.brace), 100 * n + i)
            assert r_closed_subsets(s) == reference_r_closed_subsets(s)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_scan_on_every_map_with_bijective_rows(self, m):
        kinds = set()
        for s in maps_with_bijective_rows(m):
            assert r_closed_subsets(s) == r_closed_scan(s), (s.lambda_tab, s.rho_tab)
            if len(kinds) < 4:
                kinds.update(free_point_conditions(s))
        if m == 3:
            # points that fail exactly one of the two conditions, each way round
            assert {(True, False), (False, True)} <= kinds

    @pytest.mark.parametrize("m", range(4, 9))
    def test_matches_scan_on_seeded_maps(self, m):
        rng = random.Random(m)
        kinds, mixed = set(), 0
        for _ in range(60):
            s = seeded_map(m, rng)
            got = r_closed_subsets(s)
            assert got == r_closed_scan(s), (s.lambda_tab, s.rho_tab)
            conditions = free_point_conditions(s)
            kinds.update(conditions)
            free = conditions.count((False, False))
            cores = (len(got) + 1) >> free  # the empty core included
            mixed += free > 0 and cores > 2
        assert {(True, False), (False, True), (False, False)} <= kinds
        assert mixed > 0  # some maps join several cores with free points

    def test_flip_past_the_bound_raises_before_any_subset_is_built(self, monkeypatch):
        def no_subsets(*args):
            raise AssertionError("a subset was built")

        monkeypatch.setattr(ybe.itertools, "combinations", no_subsets)
        with pytest.raises(BoundExceeded) as info:
            r_closed_subsets(flip_solution(40))
        assert info.value.actual == ybe.R_CLOSED_MAX_SUBSETS + 1

    def test_bound_counts_cores_times_free_subsets(self, monkeypatch):
        # a census brace of order 8 with 4 free points and 4 closed sets of
        # the core, the empty one included: 4 * 2^4 - 1 = 63 closed sets
        s = next(s for s in map(solution_from_brace, (e.brace for e in enumerate_braces(8)))
                 if free_point_conditions(s).count((False, False)) == 4)
        assert len(r_closed_subsets(s)) == 63
        monkeypatch.setattr(ybe, "R_CLOSED_MAX_SUBSETS", 63)
        assert len(r_closed_subsets(s)) == 63
        for limit in (62, 20, 14):  # 15 = 2^4 - 1 passes 14 before the core search
            monkeypatch.setattr(ybe, "R_CLOSED_MAX_SUBSETS", limit)
            with pytest.raises(BoundExceeded) as info:
                r_closed_subsets(s)
            assert info.value.actual == limit + 1

    def test_output_bound(self):
        # the least flip whose 2^m - 1 closed subsets pass the bound
        m = ybe.R_CLOSED_MAX_SUBSETS.bit_length()
        assert (1 << (m - 1)) - 1 <= ybe.R_CLOSED_MAX_SUBSETS < (1 << m) - 1
        assert ybe.R_CLOSED_MAX_SUBSETS >= (1 << 16) - 1  # an order-16 flip still runs
        with pytest.raises(BoundExceeded) as info:
            r_closed_subsets(flip_solution(m))
        assert info.value.actual == ybe.R_CLOSED_MAX_SUBSETS + 1


@functools.cache
def solutions_up_to_three_points():
    """All 71 solutions on 1-3 points: every pair of tables with bijective rows
    that validate_solution accepts."""
    out = []
    for m in (1, 2, 3):
        for s in maps_with_bijective_rows(m):
            try:
                out.append(validate_solution(s.lambda_tab, s.rho_tab))
            except BraidFailed:
                pass
    return out


ORBIT_FAMILIES = {
    "up-to-3-points": solutions_up_to_three_points,
    "census-up-to-5": lambda: [solution_from_brace(e.brace) for n in range(1, 6)
                               for e in enumerate_braces(n)],
    "flips-up-to-5": lambda: [flip_solution(m) for m in range(1, 6)],
}


class TestOrbitPartition:
    """The orbit partition against the exhaustive walk over set partitions."""

    def test_counts(self):
        solutions = solutions_up_to_three_points()
        assert [sum(s.size == m for s in solutions) for m in (1, 2, 3)] == [1, 4, 66]
        assert sum(len(orbit_partition(s).blocks) >= 2 for s in solutions) == 47

    @pytest.mark.parametrize("family", ORBIT_FAMILIES)
    def test_matches_the_set_partition_walk(self, family):
        for s in ORBIT_FAMILIES[family]():
            orbits = orbit_partition(s)
            assert is_partition_decomposable(s, orbits) == (True, None)
            found = list(reference_decompositions(s))
            assert (len(orbits.blocks) >= 2) == bool(found)
            for partition in found:  # each block a union of orbits
                assert all(any(o <= b for b in partition.blocks) for o in orbits.blocks)

    def test_census_solutions_fix_zero(self):
        # lambda_a(0) = 0 and rho_b(0) = 0 in every brace, so {0} is an orbit
        for n in range(1, 16):
            for e in enumerate_braces(n):
                s = solution_from_brace(e.brace)
                orbits = orbit_partition(s)
                assert orbits.blocks[0] == {0}
                assert is_partition_decomposable(s, orbits)[0]


class TestExhaustiveCrossChecks:
    def test_r_closed_subsets_flip(self):
        # every non-empty subset is r-closed for the flip
        assert len(r_closed_subsets(flip_solution(3))) == 7

    def test_r_closed_subsets_conjugation(self):
        s = solution_from_brace(trivial_brace(S3))
        for X in r_closed_subsets(s):
            assert all(s.lambda_tab[x][y] in X and s.rho_tab[y][x] in X
                       for x in X for y in X)

    def test_find_decomposition_matches_corollary(self):
        # braces of order <= 5 with a proper abelian-quotient ideal are
        # decomposable, and the orbits and the exhaustive search must agree
        for n in range(2, 6):
            for entry in enumerate_braces(n):
                B = entry.brace
                if not is_soluble(B):
                    continue
                s = solution_from_brace(B)
                witnessed = any(
                    ideal_coset_decomposition(B, I) is not None
                    for I in all_ideals(B)
                    if I != B.carrier() and quotient(B, I).brace.is_abelian)
                if witnessed:
                    assert len(orbit_partition(s).blocks) >= 2
                    assert next(reference_decompositions(s), None) is not None

    def test_non_soluble_input_not_required(self):
        # the A5 brace is not soluble; its derived series never terminates
        B = trivial_brace(alternating_5())
        assert not derived_series(B).terminated
