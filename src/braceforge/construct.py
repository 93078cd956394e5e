"""Brace construction from regular subgroups, and the order-n census.

A brace on an additive group G is the same thing as a regular subgroup of
Hol(G): the subgroup {(b, lambda_b)} recovers the brace via bc = b + phi_b(c).
The census enumerates every regular subgroup for every additive group of the
given order and deduplicates up to brace isomorphism.  An independent oracle
re-derives the small censuses by scanning all maps from G into Aut(G).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import catalog
from .braces import SkewBrace, is_isomorphic, validate_brace
from .errors import (
    BraceAxiomFailed,
    GroupInvalid,
    InternalInvariant,
    NotRegular,
)
from .groups import (
    FiniteGroup,
    RegularSubgroup,
    _group_unchecked,
    assert_simple_nonabelian,
    automorphism_group,
    check_bound,
    group_isomorphism,
    invert,
    is_automorphism,
    regular_subgroups,
)

ORACLE_MAX_ORDER = 6


@dataclass(frozen=True)
class CensusEntry:
    """One skew brace of the census with its construction provenance."""

    brace: SkewBrace
    add_group_id: int | None
    add_group_name: str | None
    mul_group_id: int | None
    mul_group_name: str | None
    provenance: RegularSubgroup

    @property
    def order(self) -> int:
        return self.brace.order


def brace_from_regular_subgroup(G: FiniteGroup, H: RegularSubgroup) -> SkewBrace:
    """The brace with additive group G and bc = b + phi_b(c); fully re-validated."""
    if H.group is not G and H.group.table != G.table:
        raise NotRegular("subgroup does not live over the given group")
    if len(H.assignment) != G.order:
        raise NotRegular("assignment does not cover the carrier")
    for g in G.elements():
        if not is_automorphism(G, H.perm(g)):
            raise NotRegular(f"phi_{g} is not an automorphism")
    mul = H.multiplication_table()
    try:
        return validate_brace(G.table, mul)
    except GroupInvalid as exc:
        raise NotRegular(f"pair map is not closed: {exc}") from exc


def _identify_group(G: FiniteGroup) -> tuple[int | None, str | None]:
    if G.order > catalog.MAX_CATALOG_ORDER:
        return None, None
    for entry in catalog.groups_of_order(G.order):
        if group_isomorphism(G, entry.group) is not None:
            return entry.id, entry.name
    return None, None


def enumerate_braces_on(G: FiniteGroup) -> list[CensusEntry]:
    """One entry per regular subgroup of Hol(G), canonically ordered."""
    entries = []
    add_id, add_name = _identify_group(G)
    for H in regular_subgroups(G, "holomorph"):
        brace = brace_from_regular_subgroup(G, H)
        if brace.lam != tuple(H.perm(g) for g in G.elements()):
            raise InternalInvariant("lambda maps differ from the defining subgroup")
        mul_id, mul_name = _identify_group(brace.mul)
        entries.append(CensusEntry(brace, add_id, add_name, mul_id, mul_name, H))
    return entries


def _is_canonical(G: FiniteGroup, brace: SkewBrace) -> bool:
    """True when no automorphism of G relabels the product table to a smaller one.

    Relabeling by an additive automorphism leaves the addition table fixed, so
    the relabeled product tables are those of the braces over G isomorphic to
    this one.  Each relabeling is compared row by row, and the first smaller
    one ends the test.
    """
    mul = brace.mul.table
    for f in automorphism_group(G):
        finv = invert(f)
        for a in G.elements():
            row = tuple(f[mul[finv[a]][finv[b]]] for b in G.elements())
            if row != mul[a]:
                if row < mul[a]:
                    return False
                break
    return True


def enumerate_braces(n: int, *,
                     extra_groups: list[FiniteGroup] | None = None) -> list[CensusEntry]:
    """All skew braces of order n up to isomorphism, deterministically ordered.

    Every relabeling of a brace by an automorphism of its additive group is
    again a regular subgroup, so each isomorphism class over that group is
    represented by its one member whose product table is the least of the
    class; the census keeps exactly the raw braces that pass this test
    (_is_canonical), ordered by product table.  Braces over distinct additive
    groups are never isomorphic, so the test runs per group.
    """
    if extra_groups is not None:
        groups = list(enumerate(extra_groups))
        named = [(i, g.name or f"order{n}#{i}", g) for i, g in groups]
    else:
        named = [(e.id, e.name, e.group) for e in catalog.groups_of_order(n)]
    census: list[CensusEntry] = []
    for gid, gname, G in named:
        if G.order != n:
            raise ValueError(f"catalog group {gname} has order {G.order}, not {n}")
        chosen = sorted((e for e in enumerate_braces_on(G) if _is_canonical(G, e.brace)),
                        key=lambda e: e.brace.mul.table)
        for entry in chosen:
            census.append(CensusEntry(entry.brace, gid, gname,
                                      entry.mul_group_id, entry.mul_group_name,
                                      entry.provenance))
    return census


def oracle_enumerate_braces(n: int) -> list[SkewBrace]:
    """Independent census for n <= 6: scan every map lambda: G -> Aut(G).

    A candidate map defines bc = b + lambda_b(c); tables that form a group
    satisfying the brace law are kept and deduplicated by pairwise
    isomorphism search.  Deliberately brute force.
    """
    check_bound("oracle order", n, ORACLE_MAX_ORDER)
    found: list[SkewBrace] = []
    for entry in catalog.groups_of_order(n):
        G = entry.group
        auts = automorphism_group(G)
        for choice in itertools.product(range(len(auts)), repeat=n):
            mul = [[G.table[b][auts[choice[b]][c]] for c in G.elements()]
                   for b in G.elements()]
            try:
                brace = validate_brace(G.table, mul)
            except (GroupInvalid, BraceAxiomFailed):
                continue
            if not any(b.add.table == brace.add.table
                       and is_isomorphic(b, brace) is not None for b in found):
                found.append(brace)
    return found


def simple_inner_regular_subgroups(G: FiniteGroup) -> list[RegularSubgroup]:
    """Regular subgroups of the inner sub-holomorph of G isomorphic to G.

    G must be simple and non-abelian.  For such G these are exactly two:
    the all-identity assignment and g -> conjugation by g^{-1}.
    """
    assert_simple_nonabelian(G)
    target_hist = G.order_histogram()
    out = []
    for H in regular_subgroups(G, "inner"):
        K = _group_unchecked(H.multiplication_table())
        if K.order_histogram() != target_hist:
            continue
        if group_isomorphism(K, G) is not None:
            out.append(H)
    return out
