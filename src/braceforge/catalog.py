"""Built-in catalog of all groups of order <= 15 up to isomorphism, plus A5.

Tables are produced from standard constructions (cyclic, dihedral, dicyclic,
alternating, direct products) and run through the full validator, so a broken
constructor cannot ship a bad table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Callable

from .errors import CatalogMissing
from .groups import FiniteGroup, validate_group

MAX_CATALOG_ORDER = 15


def cyclic(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return validate_group(table, name=f"C{n}")


def direct_product_group(G: FiniteGroup, H: FiniteGroup, name: str | None = None) -> FiniteGroup:
    n2 = H.order
    size = G.order * n2
    table = [[0] * size for _ in range(size)]
    for a1, a2 in itertools.product(G.elements(), H.elements()):
        row = table[a1 * n2 + a2]
        for b1, b2 in itertools.product(G.elements(), H.elements()):
            row[b1 * n2 + b2] = G.table[a1][b1] * n2 + H.table[a2][b2]
    return validate_group(table, name=name or f"{G.name}x{H.name}")


def dihedral(m: int) -> FiniteGroup:
    """Order 2m: <a, b | a^m = b^2 = 1, b a b = a^-1>, element a^i b^j -> 2i + j."""
    def mul(i, j, k, l):
        if j == 0:
            return ((i + k) % m, l)
        return ((i - k) % m, 1 - l)

    size = 2 * m
    table = [[0] * size for _ in range(size)]
    for i in range(m):
        for j in range(2):
            for k in range(m):
                for l in range(2):
                    ri, rj = mul(i, j, k, l)
                    table[2 * i + j][2 * k + l] = 2 * ri + rj
    return validate_group(table, name=f"D{m}")


def dicyclic(m: int) -> FiniteGroup:
    """Order 4m: <a, b | a^2m = 1, b^2 = a^m, b a b^-1 = a^-1>, a^i b^j -> 2i + j."""
    def mul(i, j, k, l):
        if j == 0:
            return ((i + k) % (2 * m), l)
        if l == 0:
            return ((i - k) % (2 * m), 1)
        return ((i - k + m) % (2 * m), 0)

    size = 4 * m
    table = [[0] * size for _ in range(size)]
    for i in range(2 * m):
        for j in range(2):
            for k in range(2 * m):
                for l in range(2):
                    ri, rj = mul(i, j, k, l)
                    table[2 * i + j][2 * k + l] = 2 * ri + rj
    return validate_group(table, name=f"Dic{m}" if m != 2 else "Q8")


def _permutation_group(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    elems = sorted(perms)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[tuple(p[q[i]] for i in range(len(q)))] for q in elems] for p in elems]
    return validate_group(table, name=name)


def symmetric_group(n: int) -> FiniteGroup:
    return _permutation_group([p for p in itertools.permutations(range(n))], f"S{n}")


def _parity(p: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2


def alternating_group(n: int) -> FiniteGroup:
    perms = [p for p in itertools.permutations(range(n)) if _parity(p) == 0]
    return _permutation_group(perms, f"A{n}")


@dataclass(frozen=True)
class CatalogGroup:
    id: int
    name: str
    group: FiniteGroup


# Built one order at a time on first use, so a small BRACEFORGE_BOUND limits
# only the orders that are asked for.
_CONSTRUCTIONS: dict[int, Callable[[], list[FiniteGroup]]] = {
    1: lambda: [cyclic(1)],
    2: lambda: [cyclic(2)],
    3: lambda: [cyclic(3)],
    4: lambda: [cyclic(4), direct_product_group(cyclic(2), cyclic(2))],
    5: lambda: [cyclic(5)],
    6: lambda: [cyclic(6), symmetric_group(3)],
    7: lambda: [cyclic(7)],
    8: lambda: [cyclic(8), direct_product_group(cyclic(4), cyclic(2)),
                direct_product_group(direct_product_group(cyclic(2), cyclic(2)), cyclic(2),
                                     name="C2xC2xC2"),
                dihedral(4), dicyclic(2)],
    9: lambda: [cyclic(9), direct_product_group(cyclic(3), cyclic(3))],
    10: lambda: [cyclic(10), dihedral(5)],
    11: lambda: [cyclic(11)],
    12: lambda: [cyclic(12), direct_product_group(cyclic(6), cyclic(2)),
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
