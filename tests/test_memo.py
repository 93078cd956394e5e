"""Memoisation on the parent object: derived braces, series and the brace solution."""

import gc
import json
import sys

import pytest

from braceforge import braces, groups, structure, ybe
from braceforge.braces import (
    annihilator,
    classify_subset,
    quotient,
    sub_brace,
    subbraces,
    trivial_brace,
    validate_brace,
)
from braceforge.catalog import cyclic, symmetric_group
from braceforge.cli import main
from braceforge.construct import enumerate_braces
from braceforge.errors import BoundExceeded, NotAnIdeal, SeriesInvalid
from braceforge.groups import FiniteGroup, subgroups, validate_group
from braceforge.structure import (
    SeriesWitness,
    abelian_step,
    all_ideals,
    annihilator_quotient_test,
    chief_series,
    commutator,
    derived_series,
    dossier,
    is_soluble,
    maximal_subbraces,
    minimal_ideals,
    verify_maximal_subbrace_dichotomy,
    verify_soluble_chief_factors,
)
from braceforge.ybe import (
    embedded_multidecomposition,
    ideal_coset_decomposition,
    multidecomposition_from_series,
    r_closed_subsets,
    solution_from_brace,
)


@pytest.fixture(scope="module")
def census8():
    return [e.brace for n in range(1, 9) for e in enumerate_braces(n)]


def tables(B):
    return B.add.table, B.mul.table


class TestSameObject:
    def test_sub_brace(self):
        B = trivial_brace(cyclic(8))
        first = sub_brace(B, [0, 2, 4, 6])
        assert sub_brace(B, frozenset({0, 2, 4, 6})) is first
        assert sub_brace(B, (6, 4, 2, 0)) is first

    def test_quotient(self):
        B = trivial_brace(cyclic(8))
        assert quotient(B, {0, 4}) is quotient(B, [4, 0])

    def test_solution_and_series(self):
        B = trivial_brace(cyclic(6))
        assert solution_from_brace(B) is solution_from_brace(B)
        assert derived_series(B) is derived_series(B)
        assert chief_series(B) is chief_series(B)

    def test_lists_are_fresh(self):
        B = trivial_brace(cyclic(8))
        subbraces(B).clear()
        all_ideals(B).clear()
        assert len(subbraces(B)) == len(all_ideals(B)) == 4


def reaches(value, target) -> bool:
    """Whether target is reachable from value through object references."""
    seen, stack = set(), [value]
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if id(obj) in seen or isinstance(obj, (type, type(gc))) or callable(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


def embed_all(B, series):
    """Embedded witnesses of every r-closed subset meeting the last series member."""
    s = solution_from_brace(B)
    last_nonzero = series.chain[-2]
    for X in r_closed_subsets(s):
        if X & last_nonzero:
            embedded_multidecomposition(s, X, B, list(range(B.order)), series)


class TestSeriesCosets:
    def test_invalid_series_raises_on_every_call(self):
        B = trivial_brace(cyclic(4))
        not_ideal = SeriesWitness((B.carrier(), frozenset({0, 1}), frozenset({0})))
        for _ in range(3):
            with pytest.raises(SeriesInvalid):
                embedded_multidecomposition(solution_from_brace(B), {0}, B, range(4), not_ideal)

    def test_no_new_cache_value_references_b(self, census8):
        for B in census8:
            if B.order == 1 or not is_soluble(B):
                continue
            series = derived_series(B)
            before = set(B._cache)
            embed_all(B, series)
            new = [v for k, v in B._cache.items() if k not in before]
            assert new and not any(reaches(v, B) for v in new)


class TestCommutator:
    def test_same_object(self):
        B = trivial_brace(symmetric_group(3))
        first = commutator(B, B.carrier(), B.carrier())
        assert first == frozenset({0, 3, 4})
        assert commutator(B, frozenset(range(6)), frozenset(B.elements())) is first

    def test_no_cache_value_references_b(self, census8):
        for B in census8:
            before = set(B._cache)
            ideals = all_ideals(B)
            for I in ideals:
                for J in ideals:
                    commutator(B, I, J)
            new = {k: v for k, v in B._cache.items() if k not in before}
            assert new and not any(reaches(k, B) or reaches(v, B) for k, v in new.items())

    def test_non_ideal_raises_before_the_lookup(self):
        B = trivial_brace(cyclic(4))
        bad, kernel = frozenset({0, 1}), structure._commutator.__wrapped__
        for _ in range(2):
            with pytest.raises(NotAnIdeal):
                commutator(B, bad, B.carrier())
        assert not any(k[0] is kernel for k in B._cache)
        # a planted entry is never reached: the ideal check comes first
        B._cache[(kernel, bad, B.carrier())] = frozenset({0})
        with pytest.raises(NotAnIdeal):
            commutator(B, bad, B.carrier())


class TestAnnihilatorAndGenerators:
    def test_same_object(self):
        B = validate_brace(symmetric_group(3).table, symmetric_group(3).table)
        assert annihilator(B) is annihilator(B)
        G = validate_group(symmetric_group(3).table)
        assert G.generators() is G.generators() == groups.generating_set(G.table)

    def test_no_cache_value_references_its_owner(self, census8):
        for B in census8:
            fresh = validate_brace(B.add.table, B.mul.table)
            for G in (fresh.add, fresh.mul):
                assert G._cache and not any(reaches(v, G) for v in G._cache.values())
            before = set(fresh._cache)
            annihilator(fresh)
            new = [v for k, v in fresh._cache.items() if k not in before]
            assert new and not any(reaches(v, fresh) for v in new)

    def test_annihilator_errors_are_not_cached(self, monkeypatch):
        B = trivial_brace(cyclic(4))

        def failing(B):
            raise RuntimeError("socle failed")

        monkeypatch.setattr(braces, "socle", failing)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                annihilator(B)
        assert not any(k[0] is annihilator.__wrapped__ for k in B._cache)
        monkeypatch.undo()
        assert annihilator(B) == B.carrier()

    def test_generators_errors_are_not_cached(self, monkeypatch):
        G = FiniteGroup(cyclic(4).table, cyclic(4).inverse)

        def failing(table):
            raise RuntimeError("generating_set failed")

        monkeypatch.setattr(groups, "generating_set", failing)
        for _ in range(2):
            with pytest.raises(RuntimeError):
                G.generators()
        assert not G._cache
        monkeypatch.undo()
        assert G.generators() == (1,)


def test_validate_brace_computes_each_generating_set_once(census8):
    # a profile hook sees every call of the function, under whatever name a
    # module imported it
    code, calls = groups.generating_set.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_locals["table"])

    for B in census8:
        calls.clear()
        sys.setprofile(profile)
        try:
            validate_brace(B.add.table, B.mul.table)
        finally:
            sys.setprofile(None)
        # Light's test on each table computes it; the brace law reads both
        assert calls == [B.add.table, B.mul.table]


class TestChecksOnEveryCall:
    def test_non_subbrace_raises_twice(self):
        B = trivial_brace(cyclic(4))
        for _ in range(2):
            with pytest.raises(ValueError):
                sub_brace(B, {0, 1})

    def test_non_ideal_raises_twice(self):
        B = trivial_brace(cyclic(4))
        for _ in range(2):
            with pytest.raises(NotAnIdeal):
                quotient(B, {0, 1})

    @pytest.mark.parametrize("fn", [subbraces, all_ideals])
    def test_bound_checked_on_cache_hit(self, fn, monkeypatch):
        B, fresh = trivial_brace(cyclic(8)), trivial_brace(cyclic(8))
        assert len(fn(B)) == 4
        monkeypatch.setenv("BRACEFORGE_BOUND", "1")
        with pytest.raises(BoundExceeded):
            fn(B)
        with pytest.raises(BoundExceeded):
            fn(fresh)


def test_memoised_objects_match_fresh_copies(census8):
    # memoised sub_brace/quotient results equal ones built on a cache-empty copy
    for B in census8:
        dossier(B)  # fills the caches along every code path the dossier takes
        fresh = validate_brace(B.add.table, B.mul.table)
        for S in subbraces(B):
            got, want = sub_brace(B, S), sub_brace(fresh, S)
            assert got.elements == want.elements
            assert tables(got.brace) == tables(want.brace)
        for I in all_ideals(B):
            got, want = quotient(B, I), quotient(fresh, I)
            assert got.projection == want.projection
            assert got.representatives == want.representatives
            assert tables(got.brace) == tables(want.brace)


def test_whole_brace_is_not_copied(monkeypatch):
    # B is its own whole subbrace and its own quotient by {0}
    B = trivial_brace(symmetric_group(3))
    orders = []
    original = braces._derived_brace

    def counting(add_rows, mul_rows):
        orders.append(len(add_rows))
        return original(add_rows, mul_rows)

    monkeypatch.setattr(braces, "_derived_brace", counting)
    derived_series(B)
    assert orders == []  # each step is decided in B's tables: no brace for A3 or S3/A3
    assert sub_brace(B, B.carrier()).brace is B and quotient(B, {0}).brace is B
    # neither is stored on B, where it would make B reference itself
    assert all(getattr(v, "brace", None) is not B for v in B._cache.values())


def test_series_path_builds_no_derived_brace(monkeypatch, census8):
    # derived_series, the first embedding, every chief series with its factors,
    # scope C's checks and the maximal-subbrace dichotomy decide each step in
    # B's own tables
    calls = []
    original = braces._derived_brace

    def counting(add_rows, mul_rows):
        calls.append(len(add_rows))
        return original(add_rows, mul_rows)

    monkeypatch.setattr(braces, "_derived_brace", counting)
    steps = 0
    for B in census8[1:]:  # past the zero brace, every census brace to order 8 is soluble
        fresh = validate_brace(B.add.table, B.mul.table)
        series = derived_series(fresh)
        steps += series.length
        solution = solution_from_brace(fresh)
        X = next(X for X in r_closed_subsets(solution) if X & series.chain[-2])
        embedded_multidecomposition(solution, X, fresh, range(fresh.order), series)
        steps += len(verify_soluble_chief_factors(fresh, exhaustive=True).factor_reports)
        multidecomposition_from_series(fresh, series)
        for ideal in all_ideals(fresh):
            if ideal != fresh.carrier() and not abelian_step(fresh, fresh.carrier(), ideal):
                ideal_coset_decomposition(fresh, ideal)
                steps += 1
        for S in maximal_subbraces(fresh):
            verify_maximal_subbrace_dichotomy(fresh, S)
    assert steps > 3 * len(census8) and calls == []


@pytest.mark.parametrize("fn", [all_ideals, minimal_ideals, maximal_subbraces])
def test_bound_read_once_per_call(fn, monkeypatch):
    # the public list reads BRACEFORGE_BOUND at entry; what it builds on does not
    code, reads = groups._env_bound.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            reads.append(frame.f_code)

    for B in (enumerate_braces(8)[5].brace, trivial_brace(symmetric_group(3))):
        fresh = validate_brace(B.add.table, B.mul.table)
        for _ in range(2):
            reads.clear()
            sys.setprofile(profile)
            try:
                fn(fresh)
            finally:
                sys.setprofile(None)
            assert len(reads) == 1


def test_subgroup_flags_are_the_classify_subset_entries(census8):
    # all_ideals and subbraces flag each subgroup from the generators it was
    # enumerated from, into the entry classify_subset reads: one per subgroup
    kernel = braces._classify.__wrapped__
    for B in census8:
        fresh = validate_brace(B.add.table, B.mul.table)
        all_ideals(fresh)
        subbraces(fresh)
        entries = {k[1:]: v for k, v in fresh._cache.items() if k[0] is kernel}
        assert entries.keys() == {(S,) for S in subgroups(fresh.add)}
        assert not any(isinstance(v, braces.SubsetFlags) for k, v in fresh._cache.items()
                       if k[0] is not kernel)
        for S in subgroups(fresh.add):
            assert classify_subset(fresh, S) is entries[(S,)] == kernel(fresh, S)


def test_verify_d_builds_each_brace_solution_once(monkeypatch, tmp_path):
    validated = []
    original = ybe.validate_solution

    def counting(lambda_tab, rho_tab):
        validated.append((lambda_tab, rho_tab))
        return original(lambda_tab, rho_tab)

    monkeypatch.setattr(ybe, "validate_solution", counting)
    # the profile hook sees the memoised body run, not the cache hits
    code, built = solution_from_brace.__wrapped__.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            built.append(frame.f_locals["B"])

    out = tmp_path / "d.json"
    sys.setprofile(profile)
    try:
        status = main(["verify", "D", "--max-order", "8", "--out", str(out)])
    finally:
        sys.setprofile(None)
    assert status == 0
    # every soluble brace needs its solution, so the total pins one build each;
    # a brace's solution satisfies the braid relation by theorem and is not re-validated
    soluble = json.loads(out.read_text())["soluble"]
    assert soluble > 0 and len(built) == soluble and not validated


def test_verify_d_builds_each_series_step_once(monkeypatch, tmp_path):
    calls = []
    original = ybe.coset_partition

    def counting(B, I, within=None):
        calls.append(B)
        return original(B, I, within)

    monkeypatch.setattr(ybe, "coset_partition", counting)
    out = tmp_path / "d.json"
    assert main(["verify", "D", "--max-order", "8", "--out", str(out)]) == 0
    # one call per step of each soluble brace's derived series, however many
    # subsets share it
    steps = [len(derived_series(e.brace).chain) - 1
             for n in range(1, 9) for e in enumerate_braces(n) if is_soluble(e.brace)]
    assert sum(steps) > len(steps) and len(calls) == sum(steps)
    assert len(set(map(id, calls))) == sum(1 for k in steps if k)


def test_derived_objects_are_not_revalidated(monkeypatch):
    # quotients, subbraces and the brace solution are braces and solutions by
    # theorem, so scopes B, C, D and prop-central-commut validate nothing past
    # the input brace
    entry = next(e for e in enumerate_braces(12)
                 if not e.brace.is_trivial and is_soluble(e.brace)
                 and len(derived_series(e.brace).chain) > 2)
    B = validate_brace(entry.brace.add.table, entry.brace.mul.table)
    calls = []
    for module, name in ((braces, "validate_brace"), (groups, "validate_group"),
                         (ybe, "validate_solution")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    verify_soluble_chief_factors(B)
    multidecomposition_from_series(B, derived_series(B))
    ideals = all_ideals(B)
    pairs = [(I, J) for I in ideals for J in ideals if J <= I]
    for I, J in pairs:
        annihilator_quotient_test(B, I, J)
    series = derived_series(B)
    solution = solution_from_brace(B)
    X = next(X for X in r_closed_subsets(solution) if X & series.chain[-2] and len(X) > 1)
    embedded_multidecomposition(solution, X, B, range(B.order), series)
    # the walk did build derived braces, and none was validated
    assert len(pairs) > len(ideals) > 2
    assert any(isinstance(v, (braces.SubBrace, braces.Quotient)) for v in B._cache.values())
    assert calls == []
