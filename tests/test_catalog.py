"""Built-in group catalog: validity, completeness of names, non-isomorphism."""

import pytest

from braceforge import catalog
from braceforge.catalog import MAX_CATALOG_ORDER, alternating_5, groups_of_order
from braceforge.cli import main
from braceforge.errors import CatalogMissing
from braceforge.groups import group_isomorphism, validate_group

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


def test_small_bound_builds_only_requested_orders(monkeypatch, tmp_path, capsys):
    assert main(["enumerate", "--order", "4", "--out", str(tmp_path / "free")]) == 0
    free_out = capsys.readouterr().out
    monkeypatch.setenv("BRACEFORGE_BOUND", "8")
    for value in vars(catalog).values():  # rebuild the catalog under the bound
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    assert main(["enumerate", "--order", "4", "--out", str(tmp_path / "bounded")]) == 0
    assert capsys.readouterr().out == free_out
    assert (tmp_path / "bounded").read_bytes() == (tmp_path / "free").read_bytes()
    assert main(["enumerate", "--order", "9"]) == 3
    assert "= 9 exceeds the configured bound 8" in capsys.readouterr().err
