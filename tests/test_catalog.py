"""Built-in group catalog: validity, completeness of names, non-isomorphism,
permutation tables, one build per group and the size limit."""

import hashlib
import itertools

import pytest

from braceforge import catalog
from braceforge.catalog import (
    MAX_CATALOG_ORDER,
    alternating_5,
    alternating_group,
    cyclic,
    dicyclic,
    dihedral,
    direct_product_group,
    groups_of_order,
    symmetric_group,
)
from braceforge.cli import main
from braceforge.errors import BoundExceeded, CatalogMissing
from braceforge.groups import group_isomorphism, validate_group

from reference import reference_permutation_table

# sha256 of repr([(name, table) for every catalog group of orders 1..15] + [("A5", table)])
CATALOG_DIGEST = "635e1d98f48e1b65d292d8028c1df7a62b29cd3ffd5bacc1ef160d2262e81141"

EXPECTED_NAMES = {
    1: ["C1"], 2: ["C2"], 3: ["C3"], 4: ["C4", "C2xC2"], 5: ["C5"],
    6: ["C6", "S3"], 7: ["C7"],
    8: ["C8", "C4xC2", "C2xC2xC2", "D4", "Q8"],
    9: ["C9", "C3xC3"], 10: ["C10", "D5"], 11: ["C11"],
    12: ["C12", "C6xC2", "D6", "A4", "Dic3"], 13: ["C13"],
    14: ["C14", "D7"], 15: ["C15"],
}


@pytest.mark.parametrize("n", list(range(1, MAX_CATALOG_ORDER + 1)))
def test_catalog_entries(n):
    entries = groups_of_order(n)
    assert [e.name for e in entries] == EXPECTED_NAMES[n]
    for e in entries:
        assert e.group.order == n
        validate_group(e.group.table)  # full axiom re-scan


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_pairwise_non_isomorphic(n):
    entries = groups_of_order(n)
    for i, a in enumerate(entries):
        for b in entries[i + 1:]:
            assert group_isomorphism(a.group, b.group) is None, (a.name, b.name)


def test_missing_order():
    with pytest.raises(CatalogMissing):
        groups_of_order(16)


def test_alternating_five():
    G = alternating_5()
    assert G.order == 60
    assert not G.is_abelian
    # 1 identity, 15 double transpositions, 20 three-cycles, 24 five-cycles
    assert G.order_histogram() == ((1, 1), (2, 15), (3, 20), (5, 24))


def clear_catalog():
    for value in vars(catalog).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


def even(p):
    return sum(1 for i, j in itertools.combinations(range(len(p)), 2) if p[i] > p[j]) % 2 == 0


@pytest.mark.parametrize("perms, name", [
    (list(itertools.permutations(range(3))), "S3"),
    (list(itertools.permutations(range(4))), "S4"),
    ([p for p in itertools.permutations(range(4)) if even(p)], "A4"),
    ([p for p in itertools.permutations(range(5)) if even(p)], "A5"),
], ids=["S3", "S4", "A4", "A5"])
def test_permutation_table_matches_reference(perms, name):
    G = catalog._permutation_group(list(reversed(perms)), name)
    assert G.name == name
    assert [list(row) for row in G.table] == reference_permutation_table(perms)


def test_catalog_digest():
    entries = [(e.name, e.group.table) for n in range(1, MAX_CATALOG_ORDER + 1)
               for e in groups_of_order(n)]
    entries.append(("A5", alternating_5().table))
    assert hashlib.sha256(repr(entries).encode()).hexdigest() == CATALOG_DIGEST


def test_each_catalog_group_validated_once(monkeypatch):
    calls = []

    def counting(table, **kwargs):
        calls.append(len(table))
        return validate_group(table, **kwargs)

    monkeypatch.setattr(catalog, "validate_group", counting)
    clear_catalog()
    entries = [e for n in range(1, MAX_CATALOG_ORDER + 1) for e in groups_of_order(n)]
    alternating_5()
    assert len(entries) + 1 == len(calls) == 29
    assert sorted(calls) == sorted([e.group.order for e in entries] + [60])


@pytest.mark.parametrize("build, args, order", [
    (cyclic, (9,), 9),
    (dihedral, (5,), 10),
    (dicyclic, (3,), 12),
    (direct_product_group, (cyclic(4), cyclic(4)), 16),
    (symmetric_group, (4,), 24),
    (alternating_group, (4,), 12),
], ids=["cyclic", "dihedral", "dicyclic", "direct-product", "symmetric", "alternating"])
def test_constructor_checks_bound_before_building(monkeypatch, build, args, order):
    def unreachable(*args, **kwargs):
        raise AssertionError("built a table over the bound")

    monkeypatch.setenv("BRACEFORGE_BOUND", "8")
    for name in ("validate_group", "PermTable"):
        monkeypatch.setattr(catalog, name, unreachable)
    monkeypatch.setattr(itertools, "permutations", unreachable)
    with pytest.raises(BoundExceeded) as info:
        build(*args)
    assert str(info.value) == f"group order (associativity scan) = {order} exceeds the configured bound 8"


def test_small_bound_builds_only_requested_orders(monkeypatch, tmp_path, capsys):
    assert main(["enumerate", "--order", "4", "--out", str(tmp_path / "free")]) == 0
    free_out = capsys.readouterr().out
    monkeypatch.setenv("BRACEFORGE_BOUND", "8")
    clear_catalog()  # rebuild the catalog under the bound
    assert main(["enumerate", "--order", "4", "--out", str(tmp_path / "bounded")]) == 0
    assert capsys.readouterr().out == free_out
    assert (tmp_path / "bounded").read_bytes() == (tmp_path / "free").read_bytes()
    assert main(["enumerate", "--order", "9"]) == 3
    assert "= 9 exceeds the configured bound 8" in capsys.readouterr().err
