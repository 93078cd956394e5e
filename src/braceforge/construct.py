"""Brace construction from regular subgroups, and the order-n census.

A brace on an additive group G is the same thing as a regular subgroup of
Hol(G): the subgroup {(b, lambda_b)} recovers the brace via bc = b + phi_b(c).
The census enumerates every regular subgroup for every additive group of the
given order and keeps one per orbit of the additive automorphism group, which
is one per brace isomorphism class.  An independent oracle
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
    compose,
    group_isomorphism,
    pair_pool,
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
    # phi_g need only permute G: the brace law makes lambda_g = phi_g additive
    carrier = set(G.elements())
    for g in G.elements():
        if len(H.perm(g)) != G.order or set(H.perm(g)) != carrier:
            raise NotRegular(f"phi_{g} is not a permutation of the carrier")
    mul = H.multiplication_table()
    try:
        return validate_brace(G.table, mul)
    except (GroupInvalid, BraceAxiomFailed) as exc:
        raise NotRegular(f"pair map is not a regular subgroup: {exc}") from exc


def _identify_group(G: FiniteGroup) -> tuple[int | None, str | None]:
    if G.order > catalog.MAX_CATALOG_ORDER:
        return None, None
    for entry in catalog.groups_of_order(G.order):
        if group_isomorphism(G, entry.group) is not None:
            return entry.id, entry.name
    return None, None


def _census_entry(G: FiniteGroup, H: RegularSubgroup, add_id: int | None,
                  add_name: str | None) -> CensusEntry:
    brace = brace_from_regular_subgroup(G, H)
    if brace.lam != tuple(H.perm(g) for g in G.elements()):
        raise InternalInvariant("lambda maps differ from the defining subgroup")
    mul_id, mul_name = _identify_group(brace.mul)
    return CensusEntry(brace, add_id, add_name, mul_id, mul_name, H)


def enumerate_braces_on(G: FiniteGroup) -> list[CensusEntry]:
    """One fully validated entry per regular subgroup of Hol(G), canonically ordered."""
    add_id, add_name = _identify_group(G)
    return [_census_entry(G, H, add_id, add_name) for H in regular_subgroups(G, "holomorph")]


def _orbit_representatives(G: FiniteGroup,
                            raw: list[RegularSubgroup]) -> list[RegularSubgroup]:
    """One member of each Aut(G)-orbit of the raw regular subgroups over G.

    alpha in Aut(G) acts by alpha.(g, phi_g) = (alpha(g), alpha phi_g alpha^-1),
    which relabels the brace by the additive automorphism alpha; so the orbits
    are the isomorphism classes of braces over G.  The raw subgroups are walked
    in sorted order, and at the first one not yet seen its whole orbit is
    marked seen and the member with the least product table is kept.
    Returned in the order of their product tables.

    The least table is found without building one per member.  Row g of the
    table is G.table[g] composed with phi_g, so it depends on the assignment
    at g alone, and distinct phi_g give distinct rows: two members' tables
    first differ at the first g where their assignments differ, and only
    those two rows are built and compared.  Distinct members therefore have
    distinct tables, and the least one does not depend on the walk's order.

    Three invariants are checked, each raising InternalInvariant: every orbit
    image is a raw subgroup, |orbit| * |stabiliser| = |Aut(G)| for each class,
    and the orbit sizes sum to the raw count.
    """
    pool = pair_pool(G, "holomorph")
    perms, comp, inv = pool.perms, pool.comp, pool.inv
    by_assignment = {H.assignment: H for H in raw}
    seen: set[tuple[int, ...]] = set()
    kept = []
    covered = 0
    for H in raw:
        a = H.assignment
        if a in seen:
            continue
        orbit = set()
        stabiliser = 0
        for ci, j in zip(comp, inv):
            # phi at alpha(g) is alpha phi_g alpha^-1, and perms[j] is alpha^-1
            moved = tuple([comp[ci[a[g]]][j] for g in perms[j]])
            if moved not in by_assignment:
                raise InternalInvariant("an automorphism moves a regular subgroup "
                                        "outside the raw regular subgroups")
            orbit.add(moved)
            stabiliser += moved == a
        if len(orbit) * stabiliser != len(perms):
            raise InternalInvariant(f"orbit {len(orbit)} times stabiliser {stabiliser} "
                                    f"is not |Aut| = {len(perms)}")
        seen |= orbit
        covered += len(orbit)
        least = a
        for m in orbit:
            if m == least:
                continue
            g = next(g for g, (x, y) in enumerate(zip(m, least)) if x != y)
            row = G.table[g]
            if compose(row, perms[m[g]]) < compose(row, perms[least[g]]):
                least = m
        kept.append(by_assignment[least])
    if covered != len(raw):
        raise InternalInvariant(f"orbit sizes sum to {covered}, not to the "
                                f"{len(raw)} raw regular subgroups")
    return sorted(kept, key=RegularSubgroup.multiplication_table)


def enumerate_braces(n: int, *,
                     extra_groups: list[FiniteGroup] | None = None) -> list[CensusEntry]:
    """All skew braces of order n up to isomorphism, deterministically ordered.

    Braces over distinct additive groups are never isomorphic, and two braces
    over G are isomorphic exactly when an automorphism of G relabels one into
    the other: the classes are the Aut(G)-orbits of the regular subgroups of
    Hol(G).  _orbit_representatives keeps the member of each orbit with the
    least product table; only these representatives are built, validated and
    identified, in product-table order.  Every other member is a relabelling
    of a validated brace by an additive automorphism, proven so by the orbit
    walk's invariants; enumerate_braces_on still builds and validates every
    raw subgroup, and the tests compare the two.
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
        for H in _orbit_representatives(G, regular_subgroups(G, "holomorph")):
            census.append(_census_entry(G, H, gid, gname))
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
    the all-identity assignment and g -> conjugation by g^{-1}.  A subgroup
    whose element-order histogram, read off its pairs, differs from G's is
    not isomorphic to G: RegularSubgroup.fits_histogram counts down from G's
    histogram and rejects at the first order with no count left.  Only the
    others get a product table, which is Latin-checked and tested by
    group_isomorphism.
    """
    assert_simple_nonabelian(G)
    target_hist = G.order_histogram()
    out = []
    for H in regular_subgroups(G, "inner"):
        if not H.fits_histogram(target_hist):
            continue
        if group_isomorphism(_group_unchecked(H.multiplication_table()), G) is not None:
            out.append(H)
    return out
