"""Built-in catalog of all groups of order <= 15 up to isomorphism, plus A5.

Tables are produced from standard constructions (cyclic, dihedral, dicyclic,
symmetric, alternating, direct products) and run through the full validator,
so a broken constructor cannot ship a bad table.  A permutation group's table
is the composition table of groups.PermTable, the kernel that also builds the
holomorph's automorphism component.  A direct product in the catalog takes
its factors from the catalog's own groups of smaller order, so each catalog
group is built and validated once.  Every constructor checks the order it is
about to build against enumeration_bound() before it allocates anything.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

from .errors import CatalogMissing
from .groups import FiniteGroup, PermTable, check_group_order, validate_group

MAX_CATALOG_ORDER = 15


def cyclic(n: int) -> FiniteGroup:
    check_group_order(n)
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return validate_group(table, name=f"C{n}")


def direct_product_group(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    n2 = H.order
    size = G.order * n2
    check_group_order(size)
    table = [[0] * size for _ in range(size)]
    for a1, a2 in itertools.product(G.elements(), H.elements()):
        row = table[a1 * n2 + a2]
        for b1, b2 in itertools.product(G.elements(), H.elements()):
            row[b1 * n2 + b2] = G.table[a1][b1] * n2 + H.table[a2][b2]
    return validate_group(table, name=f"{G.name}x{H.name}")


def _two_coset_group(r: int, mul: Callable, name: str) -> FiniteGroup:
    """Order 2r on the elements a^i b^j -> 2i + j, where <a> has order r and
    mul(i, j, k, l) is the (i, j) of a^i b^j * a^k b^l."""
    size = 2 * r
    check_group_order(size)
    table = [[0] * size for _ in range(size)]
    for i in range(r):
        for j in range(2):
            for k in range(r):
                for l in range(2):
                    ri, rj = mul(i, j, k, l)
                    table[2 * i + j][2 * k + l] = 2 * ri + rj
    return validate_group(table, name=name)


def dihedral(m: int) -> FiniteGroup:
    """Order 2m: <a, b | a^m = b^2 = 1, b a b = a^-1>."""
    def mul(i, j, k, l):
        if j == 0:
            return ((i + k) % m, l)
        return ((i - k) % m, 1 - l)

    return _two_coset_group(m, mul, f"D{m}")


def dicyclic(m: int) -> FiniteGroup:
    """Order 4m: <a, b | a^2m = 1, b^2 = a^m, b a b^-1 = a^-1>."""
    def mul(i, j, k, l):
        if j == 0:
            return ((i + k) % (2 * m), l)
        if l == 0:
            return ((i - k) % (2 * m), 1)
        return ((i - k + m) % (2 * m), 0)

    return _two_coset_group(2 * m, mul, f"Dic{m}" if m != 2 else "Q8")


def _permutation_group(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    """Element i is the i-th of the sorted perms; i * j is the element p_i o p_j."""
    return validate_group(PermTable(perms).comp, name=name)


def symmetric_group(n: int) -> FiniteGroup:
    check_group_order(math.factorial(n))
    return _permutation_group(list(itertools.permutations(range(n))), f"S{n}")


def _parity(p: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2


def alternating_group(n: int) -> FiniteGroup:
    check_group_order(math.factorial(n) // 2)
    perms = [p for p in itertools.permutations(range(n)) if _parity(p) == 0]
    return _permutation_group(perms, f"A{n}")


@dataclass(frozen=True)
class CatalogGroup:
    id: int
    name: str
    group: FiniteGroup


def _built(n: int, i: int) -> FiniteGroup:
    """Catalog group i of order n, a direct-product factor: built once, then shared."""
    return _catalog_of_order(n)[i].group


# Built one order at a time on first use, so a small BRACEFORGE_BOUND limits
# only the orders that are asked for; a product's factors have smaller orders.
_CONSTRUCTIONS: dict[int, Callable[[], list[FiniteGroup]]] = {
    1: lambda: [cyclic(1)],
    2: lambda: [cyclic(2)],
    3: lambda: [cyclic(3)],
    4: lambda: [cyclic(4), direct_product_group(_built(2, 0), _built(2, 0))],
    5: lambda: [cyclic(5)],
    6: lambda: [cyclic(6), symmetric_group(3)],
    7: lambda: [cyclic(7)],
    8: lambda: [cyclic(8), direct_product_group(_built(4, 0), _built(2, 0)),
                direct_product_group(_built(4, 1), _built(2, 0)), dihedral(4), dicyclic(2)],
    9: lambda: [cyclic(9), direct_product_group(_built(3, 0), _built(3, 0))],
    10: lambda: [cyclic(10), dihedral(5)],
    11: lambda: [cyclic(11)],
    12: lambda: [cyclic(12), direct_product_group(_built(6, 0), _built(2, 0)),
                 dihedral(6), alternating_group(4), dicyclic(3)],
    13: lambda: [cyclic(13)],
    14: lambda: [cyclic(14), dihedral(7)],
    15: lambda: [cyclic(15)],
}


@cache
def _catalog_of_order(n: int) -> tuple[CatalogGroup, ...]:
    return tuple(CatalogGroup(i, g.name or f"order{n}#{i}", g)
                 for i, g in enumerate(_CONSTRUCTIONS[n]()))


def groups_of_order(n: int) -> list[CatalogGroup]:
    """All groups of order n up to isomorphism, for n <= 15."""
    if n not in _CONSTRUCTIONS:
        raise CatalogMissing(n)
    return list(_catalog_of_order(n))


@cache
def alternating_5() -> FiniteGroup:
    """A5 as a Cayley table on its 60 even permutations (identity at 0)."""
    return alternating_group(5)
