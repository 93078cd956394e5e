"""Brace construction from regular subgroups, and the order-n census.

A brace on an additive group G is the same thing as a regular subgroup of
Hol(G): the subgroup {(b, lambda_b)} recovers the brace via bc = b + phi_b(c).
The census keeps one regular subgroup per orbit of the additive automorphism
group, which is one per brace isomorphism class, for every additive group of
the given order; it searches only G x| P for a Sylow subgroup P of Aut(G)
when |G| is a prime power, since every orbit meets it.  Each class's brace is
built from its representative's pairs, certified by phi_0 = 1 and Light's
associativity test on its product table (see _census_entry);
brace_from_regular_subgroup and enumerate_braces_on validate in full.  An
independent oracle re-derives the small censuses by scanning all maps from G
into Aut(G).
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from typing import Iterator

from . import catalog
from .braces import SkewBrace, _brace_of_groups, _group_of, is_isomorphic, validate_brace
from .errors import (
    BraceAxiomFailed,
    GroupInvalid,
    GroupValidationError,
    InternalInvariant,
    NotRegular,
)
from .groups import (
    FiniteGroup,
    RegularSubgroup,
    _group_unchecked,
    _light_associative,
    _sylow_indices,
    assert_simple_nonabelian,
    automorphism_group,
    check_bound,
    compose,
    group_isomorphism,
    holomorph_bound,
    pair_pool,
    regular_subgroups,
    validate_group,
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
    _check_pairs(G, H)
    with _not_regular():
        return validate_brace(G.table, H.multiplication_table())


def _check_pairs(G: FiniteGroup, H: RegularSubgroup) -> None:
    """Raise NotRegular unless H lives over G and every phi_g permutes G."""
    if H.group is not G and H.group.table != G.table:
        raise NotRegular("subgroup does not live over the given group")
    if len(H.assignment) != G.order:
        raise NotRegular("assignment does not cover the carrier")
    # phi_g need only permute G: the brace law makes lambda_g = phi_g additive
    carrier = set(G.elements())
    for g in G.elements():
        if len(H.perm(g)) != G.order or set(H.perm(g)) != carrier:
            raise NotRegular(f"phi_{g} is not a permutation of the carrier")


@contextlib.contextmanager
def _not_regular() -> Iterator[None]:
    """Re-raise a failure of the brace validation as NotRegular."""
    try:
        yield
    except (GroupInvalid, BraceAxiomFailed) as exc:
        raise NotRegular(f"pair map is not a regular subgroup: {exc}") from exc


def _identify_group(G: FiniteGroup) -> tuple[int | None, str | None]:
    if G.order > catalog.MAX_CATALOG_ORDER:
        return None, None
    for entry in catalog.groups_of_order(G.order):
        if group_isomorphism(G, entry.group) is not None:
            return entry.id, entry.name
    return None, None


def _census_entry(add: FiniteGroup, H: RegularSubgroup, mul: tuple[tuple[int, ...], ...],
                  add_id: int | None, add_name: str | None) -> CensusEntry:
    """The census entry of H, built from its product table mul with one certificate.

    add is the caller's once-validated copy of H's group, and every phi_g is
    a member of automorphism_group(add), so row g of mul, add's row g
    composed with phi_g, is a permutation, and lambda_g = -g + g*_ = phi_g.
    Two facts remain, each raising InternalInvariant when it fails.  Row 0
    of mul is phi_0, and every phi_g fixes 0, so 0 is the identity of mul
    exactly when phi_0 is.  Light's test on mul's generators proves
    associativity, which for mul[g][h] = g + phi_g(h) says phi_{gh} =
    phi_g phi_h: H is closed under the holomorph product.  A finite monoid
    whose left translations are bijections is a group, so the columns need
    no scan, and the brace law holds because every phi_g is additive.  The
    generators the test computes stay memoised for _identify_group.
    """
    if mul[0] != tuple(add.elements()):
        raise InternalInvariant("phi_0 of a census representative is not the identity")
    group = FiniteGroup(mul, tuple([row.index(0) for row in mul]))
    if not _light_associative(mul, group.generators()):
        raise InternalInvariant("a census representative is not closed under the product")
    brace = SkewBrace(add, group, tuple(H.perm(g) for g in add.elements()))
    mul_id, mul_name = _identify_group(group)
    return CensusEntry(brace, add_id, add_name, mul_id, mul_name, H)


def enumerate_braces_on(G: FiniteGroup) -> list[CensusEntry]:
    """One entry per regular subgroup of Hol(G), canonically ordered, each built by
    brace_from_regular_subgroup, which validates both tables and the brace law."""
    with _not_regular():
        _group_of("add", G.table)  # a malformed G fails here, before the search
    add_id, add_name = _identify_group(G)
    entries = []
    for H in regular_subgroups(G, "holomorph"):
        brace = brace_from_regular_subgroup(G, H)
        entries.append(CensusEntry(brace, add_id, add_name, *_identify_group(brace.mul), H))
    return entries


def _orbit_representatives(G: FiniteGroup, raw: list[RegularSubgroup]
                           ) -> list[tuple[tuple[tuple[int, ...], ...], RegularSubgroup]]:
    """One member of each Aut(G)-orbit of regular subgroups of Hol(G), with its product table.

    raw is regular_subgroups(G, "sylow"): the regular subgroups of G x| P for
    the Sylow subgroup P of sylow_indices, which every orbit meets.
    alpha in Aut(G) acts by alpha.(g, phi_g) = (alpha(g), alpha phi_g alpha^-1),
    which relabels the brace by the additive automorphism alpha; so the orbits
    are the isomorphism classes of braces over G.  The raw subgroups are walked
    in sorted order, and at the first one not yet seen every automorphism is
    applied to it, its raw images are marked seen, and the member of the whole
    orbit with the least product table is kept; it may lie outside G x| P, and
    is then built on the same pool.  Returned as (product table, member) pairs
    in the order of their tables, each table built once.

    The least table is found without building one per member.  Row g of the
    table is G.table[g] composed with phi_g, so it depends on the assignment
    at g alone, and distinct phi_g give distinct rows: two members' tables
    first differ at the first g where their assignments differ, and only
    those two rows are built and compared.  Distinct members therefore have
    distinct tables, and the least one does not depend on the walk's order.

    These invariants are checked, each raising InternalInvariant: every raw
    subgroup lies in G x| P, every orbit image whose phi all lie in P is raw,
    |orbit| * |stabiliser| = |Aut(G)| for each class, and the raw subgroups
    the orbits meet sum to the raw count.  When P is all of Aut(G) these are
    the checks of a walk over the whole holomorph.
    """
    pool = pair_pool(G)
    perms, comp, inv = pool.perms, pool.comp, pool.inv
    sylow = _sylow_indices(G)
    # Aut(G) less P, built only when P is proper
    outside = set(range(len(perms))).difference(sylow) if len(sylow) < len(perms) else set()
    by_assignment = {H.assignment: H for H in raw}
    if outside and not all(outside.isdisjoint(a) for a in by_assignment):
        raise InternalInvariant("a raw regular subgroup lies outside G x| P")
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
            if moved not in by_assignment and outside.isdisjoint(moved):
                raise InternalInvariant("an automorphism moves a regular subgroup into "
                                        "G x| P outside the raw regular subgroups")
            orbit.add(moved)
            stabiliser += moved == a
        if len(orbit) * stabiliser != len(perms):
            raise InternalInvariant(f"orbit {len(orbit)} times stabiliser {stabiliser} "
                                    f"is not |Aut| = {len(perms)}")
        met = orbit.intersection(by_assignment)
        seen |= met
        covered += len(met)
        least = a
        for m in orbit:
            if m == least:
                continue
            g = next(g for g, (x, y) in enumerate(zip(m, least)) if x != y)
            row = G.table[g]
            if compose(row, perms[m[g]]) < compose(row, perms[least[g]]):
                least = m
        kept.append(by_assignment.get(least) or RegularSubgroup(G, perms, least))
    if covered != len(raw):
        raise InternalInvariant(f"the orbits meet {covered} raw regular subgroups, not the "
                                f"{len(raw)} found in G x| P")
    return sorted([(H.multiplication_table(), H) for H in kept], key=lambda pair: pair[0])


def enumerate_braces(n: int, *,
                     extra_groups: list[FiniteGroup] | None = None) -> list[CensusEntry]:
    """All skew braces of order n up to isomorphism, deterministically ordered.

    Braces over distinct additive groups are never isomorphic, and two braces
    over G are isomorphic exactly when an automorphism of G relabels one into
    the other: the classes are the Aut(G)-orbits of the regular subgroups of
    Hol(G).  Every orbit meets G x| P for the Sylow subgroup P of
    groups.sylow_indices (all of Aut(G) unless |G| is a prime power), so
    regular_subgroups(G, "sylow") is searched, and _orbit_representatives
    applies all of Aut(G) to it and keeps the member of each whole orbit with
    the least product table; only these representatives are built into
    braces and identified, in product-table order.  G is validated once; each
    representative's brace is built from its pairs and certified by
    _census_entry's two checks, phi_0 = 1 and Light's test on its product
    table.  Every other member is a relabelling of a certified brace by an
    additive automorphism, proven so by the orbit walk's invariants;
    enumerate_braces_on still builds and fully validates every regular
    subgroup of the whole holomorph, and the tests compare the two.
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
        with _not_regular():
            add = _group_of("add", G.table)  # once for every brace built on G
        for mul, H in _orbit_representatives(G, regular_subgroups(G, "sylow")):
            census.append(_census_entry(add, H, mul, gid, gname))
    return census


def oracle_enumerate_braces(n: int) -> list[SkewBrace]:
    """Independent census for n <= 6: scan every map lambda: G -> Aut(G).

    A candidate map defines bc = b + lambda_b(c); tables that form a group
    satisfying the brace law are kept and deduplicated by pairwise
    isomorphism search.  Deliberately brute force.  Each catalog group is
    validated once; each candidate's product table is validated and checked
    against the brace law as validate_brace does.
    """
    check_bound("oracle order", n, ORACLE_MAX_ORDER)
    found: list[SkewBrace] = []
    for entry in catalog.groups_of_order(n):
        G = validate_group(entry.group.table)
        auts = automorphism_group(G)
        for choice in itertools.product(range(len(auts)), repeat=n):
            mul = [[G.table[b][auts[choice[b]][c]] for c in G.elements()]
                   for b in G.elements()]
            try:
                brace = _brace_of_groups(G, validate_group(mul))
            except (GroupValidationError, BraceAxiomFailed):
                continue
            if not any(b.add.table == brace.add.table
                       and is_isomorphic(b, brace) is not None for b in found):
                found.append(brace)
    return found


def simple_inner_regular_subgroups(G: FiniteGroup) -> list[RegularSubgroup]:
    """Regular subgroups of the inner sub-holomorph of G isomorphic to G.

    G must be simple and non-abelian; these are then exactly two: the
    all-identity assignment and g -> conjugation by g^-1.  They are found
    through Aut(G) instead of a search of the ambient.  Since Z(G) = 1, the
    map (g, iota_c) -> (gc, c) is an isomorphism from G x| Inn(G) onto
    G x G.  For a subgroup H isomorphic to G, the kernel of each projection
    is normal in the simple H, so it is trivial or all of H.  H is
    therefore G x 1 (every phi_g the identity), or {(c^-1, iota_c)}, or,
    with both projections injective, the preimage of the graph
    {(f(c), c)} of some f in Aut(G): {(f(c) c^-1, iota_c)}, which is
    regular exactly when c -> f(c) c^-1 is a bijection.  Every f is tried.

    Every candidate keeps its certificates, each failure raising
    InternalInvariant: its product table is Latin-checked by
    _group_unchecked, the pairs are closed under right products by the
    table's generators, which makes them a subgroup, and group_isomorphism
    finds an isomorphism onto G.  The pool is the sorted list of inner
    automorphisms, and the subgroups come in the order of their assignments.
    """
    assert_simple_nonabelian(G)
    # Z(G) = 1, so |Inn(G)| = |G|: the ambient's order is checked before any work
    check_bound("ambient sub-holomorph order", G.order * G.order, holomorph_bound())
    table, inverse, n = G.table, G.inverse, G.order
    columns = list(zip(*table))  # columns[d] is x -> xd, so iota_c is columns[c^-1] . row c
    inner = [compose(columns[inverse[c]], table[c]) for c in G.elements()]
    pool = tuple(sorted(inner))
    index = {p: i for i, p in enumerate(pool)}
    iota = [index[p] for p in inner]  # the pool index of conjugation by c
    candidates = [tuple(iota[0] for _ in G.elements()),
                  tuple(iota[inverse[g]] for g in G.elements())]
    for f in automorphism_group(G):
        assignment: list[int | None] = [None] * n
        for c in G.elements():
            assignment[table[f[c]][inverse[c]]] = iota[c]
        if None not in assignment:
            candidates.append(tuple(assignment))  # type: ignore[arg-type]
    out = []
    for assignment in sorted(candidates):
        H = RegularSubgroup(G, pool, assignment)
        try:
            T = _group_unchecked(H.multiplication_table())
        except GroupValidationError as exc:
            raise InternalInvariant(f"a candidate's product table is not Latin: {exc}") from exc
        phi = [pool[a] for a in assignment]
        if any(phi[row[s]] != compose(phi[x], phi[s])
               for s in T.generators() for x, row in enumerate(T.table)):
            raise InternalInvariant("a candidate's pairs are not closed under the product")
        if group_isomorphism(T, G) is None:
            raise InternalInvariant("a candidate regular subgroup is not isomorphic to G")
        out.append(H)
    return out
