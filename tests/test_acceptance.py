"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (integer tables); the census up to order 8 is built once
per session and shared.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import pytest

from braceforge.braces import is_isomorphic, quotient, validate_brace
from braceforge.catalog import alternating_5, cyclic
from braceforge.cli import main
from braceforge.construct import (
    enumerate_braces,
    oracle_enumerate_braces,
    simple_inner_regular_subgroups,
)
from braceforge.groups import group_isomorphism, identity_perm
from braceforge.structure import (
    ZERO,
    all_ideals,
    annihilator_quotient_test,
    derived_series,
    has_proper_subbrace,
    is_soluble,
    verify_no_proper_subbraces,
    verify_soluble_chief_factors,
)
from braceforge.ybe import (
    embedded_multidecomposition,
    ideal_coset_decomposition,
    multidecomposition_from_series,
    r_closed_subsets,
    solution_from_brace,
    validate_solution,
    verify_multidecomposition,
)
from reference import all_abelian_series, is_automorphism

MAX_ORDER = 8
SLOW_ORDER = 12


@pytest.fixture(scope="session")
def census():
    by_order = {n: enumerate_braces(n) for n in range(1, MAX_ORDER + 1)}
    return by_order


@pytest.fixture(scope="session")
def braces(census):
    return [e.brace for n in sorted(census) for e in census[n]]


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_01_axiom_suite(braces):
    """Brace law, lambda homomorphism, and both product identities, exactly."""
    for B in braces:
        validate_brace(B.add.table, B.mul.table)  # full triple scan
        n = B.order
        for a in range(n):
            assert is_automorphism(B.add, B.lam[a])
            for b in range(n):
                composed = tuple(B.lam[a][B.lam[b][x]] for x in range(n))
                assert B.lam[B.times(a, b)] == composed
                assert B.times(a, b) == B.plus(a, B.lam[a][b])
                assert B.plus(a, b) == B.times(a, B.lam[B.tinv(a)][b])
    report(1, f"axioms hold for all {len(braces)} braces of order <= {MAX_ORDER}")


def test_criterion_02_oracle_equivalence(census):
    """Holomorph census equals the exhaustive lambda-scan census for n <= 6."""
    for n in range(1, 7):
        from_census = [e.brace for e in census[n]]
        from_oracle = oracle_enumerate_braces(n)
        assert len(from_census) == len(from_oracle), n
        unmatched = list(from_oracle)
        for b in from_census:
            hit = next(i for i, c in enumerate(unmatched)
                       if is_isomorphic(b, c) is not None)
            unmatched.pop(hit)
        assert not unmatched
    report(2, "census and oracle agree as isomorphism-class sets for n = 1..6")


def test_criterion_03_no_proper_subbraces(braces):
    """Qualifying braces are exactly the trivial ones of prime order."""
    rep = verify_no_proper_subbraces(braces)
    assert sorted(q["order"] for q in rep.qualifying) == [2, 3, 5, 7]
    qualifying = [B for B in braces if B.order > 1 and not has_proper_subbrace(B)]
    for B in qualifying:
        assert B.is_trivial
        assert group_isomorphism(B.add, cyclic(B.order)) is not None
    # the wider sweep behind the CLI --slow flag
    slow = [e.brace for n in range(1, SLOW_ORDER + 1) for e in enumerate_braces(n)]
    rep_slow = verify_no_proper_subbraces(slow)
    assert sorted(q["order"] for q in rep_slow.qualifying) == [2, 3, 5, 7, 11]
    report(3, "no-proper-subbrace braces are {trivial C2,C3,C5,C7} "
              "(+C11 at order <= 12)")


def test_criterion_04_chief_factor_sweep(braces):
    """Soluble braces: factors elementary abelian, Frattini or complemented,
    and maximal subbraces of prime power index."""
    soluble = [B for B in braces if is_soluble(B)]
    for B in soluble:
        rep = verify_soluble_chief_factors(B)
        for r in rep.factor_reports:
            assert r.abelian and r.p_elementary is not None
            assert r.kind in ("frattini", "complemented")
    report(4, f"chief structure verified for all {len(soluble)} soluble braces")


def test_criterion_05_uniform_multidecomposition(braces):
    """Derived series gives a verified uniform witness; every abelian-quotient
    ideal gives a verified uniform coset decomposition."""
    soluble = [B for B in braces if is_soluble(B)]
    cosets = 0
    for B in soluble:
        witness = multidecomposition_from_series(B, derived_series(B))
        assert witness.uniform and len(witness.chain[-1]) == 1
        checks = verify_multidecomposition(solution_from_brace(B), witness)
        assert checks["ok"]
        for I in all_ideals(B):
            if I == B.carrier() or not quotient(B, I).brace.is_abelian:
                continue
            partition = ideal_coset_decomposition(B, I)
            assert partition.uniform
            assert len(partition.blocks) == B.order // len(I)
            cosets += 1
    report(5, f"uniform witnesses for {len(soluble)} soluble braces, "
              f"{cosets} coset decompositions")


def test_criterion_06_embedded_witnesses():
    """Every r-closed subset meeting the last non-zero derived term embeds,
    and its witness passes every clause, block swaps included (order <= 12)."""
    slow = [e.brace for n in range(1, SLOW_ORDER + 1) for e in enumerate_braces(n)]
    soluble = [B for B in slow if is_soluble(B)]
    total = 0
    for B in soluble:
        series = derived_series(B)
        solution = solution_from_brace(B)
        identity = list(range(B.order))
        last_nonzero = series.chain[-2] if len(series.chain) > 1 else series.chain[0]
        for X in r_closed_subsets(solution):
            if B.order > 1 and not X & last_nonzero:
                continue
            witness = embedded_multidecomposition(solution, X, B, identity, series)
            assert witness.chain[0] == X and len(witness.chain[-1]) == 1
            assert verify_multidecomposition(solution, witness)["ok"]
            total += 1
    assert total > 10_000
    report(6, f"embedded witnesses verified for {total} (brace, subset) pairs")


def test_criterion_07_inner_regular_subgroups_a5():
    """Exactly the two expected regular subgroups in the inner sub-holomorph."""
    G = alternating_5()
    subs = simple_inner_regular_subgroups(G)
    assert len(subs) == 2
    flat = tuple(identity_perm(60) for _ in G.elements())
    conj = tuple(tuple(G.conjugate(G.inv(g), x) for x in G.elements())
                 for g in G.elements())
    found = {tuple(s.perm(g) for g in G.elements()) for s in subs}
    assert found == {flat, conj}
    report(7, "A5 inner sub-holomorph has exactly the two expected "
              "regular subgroups")


def test_criterion_08_annihilator_commutator_equivalence(braces):
    """The two sides of the centrality test coincide on every nested pair."""
    pairs = 0
    for B in braces:
        ideals = all_ideals(B)
        for I in ideals:
            for J in ideals:
                if J <= I:
                    central, commutes = annihilator_quotient_test(B, I, J)
                    assert central == commutes
                    pairs += 1
    report(8, f"centrality and commutator containment agree on {pairs} pairs")


def test_criterion_09_abelian_series_bound(braces):
    """The derived chain refines every abelian series; its length is minimal."""
    checked = 0
    for B in braces:
        series_list = all_abelian_series(B)
        derived = derived_series(B)
        if not series_list:
            assert not is_soluble(B)
            continue
        for series in series_list:
            for i, member in enumerate(series):
                d_i = derived.chain[i] if i < len(derived.chain) else ZERO
                assert d_i <= member
            checked += 1
        assert derived.length == min(len(s) - 1 for s in series_list)
    report(9, f"derived series minimal among {checked} abelian series")


def test_criterion_10_brace_solutions_valid(braces):
    """Non-degeneracy and the braid relation for every census brace solution."""
    for B in braces:
        s = solution_from_brace(B)
        validate_solution(s.lambda_tab, s.rho_tab)  # full m^3 scan
    report(10, f"braid relation holds for all {len(braces)} brace solutions")


def test_criterion_11_determinism(tmp_path):
    """Two runs of the same verify command write byte-identical reports."""
    for scope in ("A", "C"):
        a = tmp_path / f"{scope}_1.json"
        b = tmp_path / f"{scope}_2.json"
        assert main(["verify", scope, "--max-order", "6", "--out", str(a)]) == 0
        assert main(["verify", scope, "--max-order", "6", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    report(11, "verify A and C reports byte-identical across two runs")
