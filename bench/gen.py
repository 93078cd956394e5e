"""Seeded inputs for the braceforge benchmark.

Everything here is plain Python over Cayley tables (lists of rows of element
indices); nothing imports braceforge, so the inputs do not depend on the code
under test.  All randomness comes from `rng(seed, ...)`: the same seed and
path give the same stream in every process and on every Python build.

Inputs are relabellings of census objects, so every label-invariant count of
the original (census classes, raw regular subgroups, ideal pairs, r-closed
subsets) is preserved and can be pinned exactly.

Corruptions break one axiom, and always the first one the loaders check
among the intact ones:

- ``latin-add`` / ``latin-mul``: one entry of the table copies another entry
  of its row (a literal single-entry edit).
- ``assoc-add`` / ``assoc-mul``: two rows swap their entries on one cycle of
  the column map between them.  A single-entry edit always breaks the Latin
  property first, so this Latin trade is the smallest edit that keeps the
  table a Latin square with its identity and breaks associativity.
- ``brace-law``: two non-identity labels are swapped in the multiplicative
  table only; both tables stay groups and a(b+c) = ab - a + ac fails.
- ``braid``: two entries of one lambda row are swapped; every component map
  stays a bijection and the braid relation fails.

Each corruption is confirmed by finding a witness of the broken axiom near
the edit before the document is emitted; an edit without one is redrawn.
"""

from __future__ import annotations

import json
import random

Table = list  # list of rows, each a list of ints


def rng(seed: int, *path) -> random.Random:
    """Independent deterministic stream for one purpose of one seed."""
    return random.Random("braceforge-bench/" + "/".join(str(p) for p in (seed,) + path))


def perm_fixing_zero(r: random.Random, n: int) -> list[int]:
    rest = list(range(1, n))
    r.shuffle(rest)
    return [0] + rest


def perm_moving_zero(r: random.Random, n: int) -> list[int]:
    """Random permutation p with p[0] != 0 (when n > 1), so the identity moves."""
    p = list(range(n))
    r.shuffle(p)
    if n > 1 and p[0] == 0:
        k = 1 + r.randrange(n - 1)
        p[0], p[k] = p[k], p[0]
    return p


def relabel(table, p) -> Table:
    """The table of the same operation after renaming every element x to p[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        target = out[p[a]]
        for b, v in enumerate(row):
            target[p[b]] = p[v]
    return out


def frozen(table) -> tuple:
    return tuple(tuple(row) for row in table)


def swap_identity_perm(n: int, e: int) -> tuple[int, ...]:
    """The transposition (0 e) that the loaders apply to move the identity to 0."""
    p = list(range(n))
    p[0], p[e] = e, 0
    return tuple(p)


def lambda_table(add, mul) -> Table:
    """lambda_a(b) = -a + ab, for tables with identity at 0."""
    neg = [row.index(0) for row in add]
    return [[add[neg[a]][mul[a][b]] for b in range(len(add))] for a in range(len(add))]


def brace_solution(add, mul) -> tuple[Table, Table]:
    """Tables of r(a, b) = (lambda_a(b), lambda_a(b)^-1 a b): lam[a][b], rho[b][a]."""
    n = len(add)
    lam = lambda_table(add, mul)
    minv = [row.index(0) for row in mul]
    rho = [[mul[mul[minv[lam[a][b]]][a]][b] for a in range(n)] for b in range(n)]
    return lam, rho


def product_tables(add1, mul1, add2, mul2) -> tuple[Table, Table]:
    """Direct product of two braces on pairs (a1, a2) -> a1 * |B2| + a2."""
    n1, n2 = len(add1), len(add2)
    add, mul = [], []
    for a1 in range(n1):
        for a2 in range(n2):
            add.append([add1[a1][b1] * n2 + add2[a2][b2] for b1 in range(n1) for b2 in range(n2)])
            mul.append([mul1[a1][b1] * n2 + mul2[a2][b2] for b1 in range(n1) for b2 in range(n2)])
    return add, mul


def identity_of(table) -> int:
    n = len(table)
    return next(e for e in range(n)
                if all(table[e][a] == a and table[a][e] == a for a in range(n)))


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


# --- corruptions ------------------------------------------------------------


def corrupt_latin(r: random.Random, table: Table, e: int) -> Table | None:
    n = len(table)
    if n < 3:
        return None
    a = r.choice([x for x in range(n) if x != e])
    b, b2 = r.sample([x for x in range(n) if x != e], 2)
    out = [row[:] for row in table]
    out[a][b] = out[a][b2]
    return out


def _assoc_witness(t: Table, rows: tuple[int, int]) -> bool:
    """A triple (x, y, z) with (xy)z != x(yz) where x or y is one of the edited rows."""
    n = len(t)
    for x, ys in [(x, range(n)) for x in rows] + [(x, rows) for x in range(n)]:
        tx = t[x]
        for y in ys:
            txy, ty = t[tx[y]], t[y]
            if any(txy[z] != tx[ty[z]] for z in range(n)):
                return True
    return False


def corrupt_assoc(r: random.Random, table: Table, e: int) -> Table | None:
    """Swap rows a, a2 on one cycle of the column map that avoids column e."""
    n = len(table)
    if n < 4 or is_prime(n):
        return None
    rows = [x for x in range(n) if x != e]
    for _ in range(16):
        a, a2 = r.sample(rows, 2)
        col_in_a2 = {v: c for c, v in enumerate(table[a2])}
        seen: set[int] = set()
        cycles = []
        for c in range(n):
            cycle = []
            while c not in seen:
                seen.add(c)
                cycle.append(c)
                c = col_in_a2[table[a][c]]
            if cycle and e not in cycle:
                cycles.append(cycle)
        if not cycles:
            continue
        out = [row[:] for row in table]
        for c in r.choice(cycles):
            out[a][c], out[a2][c] = table[a2][c], table[a][c]
        if _assoc_witness(out, (a, a2)):
            return out
    return None


def _brace_law_witness(r: random.Random, add: Table, mul: Table) -> bool:
    """A random triple where a(b+c) = ab - a + ac fails, within 4 n^2 draws."""
    n = len(add)
    e = identity_of(add)
    neg = [row.index(e) for row in add]
    for _ in range(4 * n * n):
        a, b, c = r.randrange(n), r.randrange(n), r.randrange(n)
        if mul[a][add[b][c]] != add[add[mul[a][b]][neg[a]]][mul[a][c]]:
            return True
    return False


def corrupt_brace_law(r: random.Random, add: Table, mul: Table, e: int) -> Table | None:
    """Swap two non-identity labels in the multiplicative table only."""
    n = len(add)
    if n < 3:
        return None
    others = [x for x in range(n) if x != e]
    for _ in range(16):
        u, v = r.sample(others, 2)
        tau = list(range(n))
        tau[u], tau[v] = v, u
        out = relabel(mul, tau)
        if _brace_law_witness(r, add, out):
            return out
    return None


def _braid_witness(lam: Table, rho: Table, edited: int) -> bool:
    """A triple with the edited point first or second where the braid relation fails."""
    m = len(lam)

    def r(x, y):
        return lam[x][y], rho[y][x]

    for x, y in [(edited, y) for y in range(m)] + [(x, edited) for x in range(m)]:
        for z in range(m):
            a, b = r(x, y)
            b, c = r(b, z)
            a, b = r(a, b)
            d, e = r(y, z)
            x2, d = r(x, d)
            d, e2 = r(d, e)
            if (a, b, c) != (x2, d, e2):
                return True
    return False


def corrupt_braid(r: random.Random, lam: Table, rho: Table) -> Table | None:
    """Swap two entries of one lambda row."""
    m = len(lam)
    if m < 2:
        return None
    for _ in range(16):
        x = r.randrange(m)
        y1, y2 = r.sample(range(m), 2)
        out = [row[:] for row in lam]
        out[x][y1], out[x][y2] = out[x][y2], out[x][y1]
        if _braid_witness(out, rho, x):
            return out
    return None


# --- ingest documents -------------------------------------------------------

BRACE_KINDS = ("latin-add", "latin-mul", "assoc-add", "assoc-mul", "brace-law")
SOLUTION_KINDS = ("braid",)
CORRUPT_SHARE = 4  # one document in four is corrupted

# (|B1|, |B2|) of the direct products fed to the loaders, orders 16..64;
# the first PRODUCT_SOLUTIONS of them also give solution documents.
PRODUCTS = ((4, 4), (2, 8), (3, 6), (2, 10), (4, 5), (2, 12), (3, 8), (3, 9), (5, 6),
            (2, 15), (4, 8), (6, 6), (3, 12), (5, 8), (3, 15), (4, 12), (7, 7), (7, 8),
            (5, 12), (8, 8))
PRODUCT_SOLUTIONS = 11


class Doc:
    """One loader input and the verdict a correct loader must reach on it.

    `expect` is None for a valid document, else the corruption kind.  For a
    valid brace, `tables` holds the (add, mul) tables the loader must return
    and `relabeling` the identity swap it must report; for a valid solution,
    `tables` holds (lambda, rho).
    """

    __slots__ = ("label", "kind", "size", "text", "expect", "tables", "relabeling")

    def __init__(self, label, kind, size, text, expect, tables, relabeling):
        self.label, self.kind, self.size = label, kind, size
        self.text, self.expect = text, expect
        self.tables, self.relabeling = tables, relabeling


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


class _Base:
    """A valid object before relabelling: ('brace', add, mul) or ('solution', lam, rho)."""

    __slots__ = ("label", "kind", "t1", "t2")

    def __init__(self, label, kind, t1, t2):
        self.label, self.kind, self.t1, self.t2 = label, kind, t1, t2

    @property
    def size(self) -> int:
        return len(self.t1)


def ingest_bases(census: dict[int, list[tuple]], a5_table, seed: int, variant: int) -> list[list[_Base]]:
    """The four document classes of one pass: small and large braces and solutions.

    `census[n]` lists (add, mul) tables of the census braces of order n.
    Product factors are drawn from the census by the seed.
    """
    r = rng(seed, "ingest-products", variant)
    small_b, small_s, large_b, large_s = [], [], [], []
    for n in sorted(census):
        for i, (add, mul) in enumerate(census[n]):
            small_b.append(_Base(f"brace {n}/{i}", "brace", add, mul))
            if n >= 2:
                small_s.append(_Base(f"solution {n}/{i}", "solution", *brace_solution(add, mul)))
    for k, (n1, n2) in enumerate(PRODUCTS):
        i1, i2 = r.randrange(len(census[n1])), r.randrange(len(census[n2]))
        add, mul = product_tables(*census[n1][i1], *census[n2][i2])
        label = f"{n1}/{i1} x {n2}/{i2}"
        large_b.append(_Base("brace " + label, "brace", add, mul))
        if k < PRODUCT_SOLUTIONS:
            large_s.append(_Base("solution " + label, "solution", *brace_solution(add, mul)))
    large_b.append(_Base("brace A5 trivial", "brace", a5_table, a5_table))
    return [small_b, large_b, small_s, large_s]


def _corrupt(r: random.Random, kind: str, t1: Table, t2: Table, e: int):
    """(t1, t2) with the corruption applied, or None when it does not apply."""
    if kind == "latin-add":
        out = corrupt_latin(r, t1, e)
        return out and (out, t2)
    if kind == "latin-mul":
        out = corrupt_latin(r, t2, e)
        return out and (t1, out)
    if kind == "assoc-add":
        out = corrupt_assoc(r, t1, e)
        return out and (out, t2)
    if kind == "assoc-mul":
        out = corrupt_assoc(r, t2, e)
        return out and (t1, out)
    if kind == "brace-law":
        out = corrupt_brace_law(r, t1, t2, e)
        return out and (t1, out)
    out = corrupt_braid(r, t1, t2)
    return out and (out, t2)


def ingest_docs(census, a5_table, seed: int, variant: int) -> list[Doc]:
    """Every loader document of one pass, in a seeded order.

    Each class is sorted by size and cut into strata of about CORRUPT_SHARE
    documents.  In variant v, stratum s corrupts its document v (cyclically)
    with kind s + v (modulo the number of kinds); the seed draws the edit.
    Which documents are corrupted therefore depends on the variant only, and
    over len(kinds) consecutive variants every stratum gets every kind once,
    so the cost of a cycle of passes does not depend on the seed.
    """
    docs: list[Doc] = []
    for c, bases in enumerate(ingest_bases(census, a5_table, seed, variant)):
        r = rng(seed, "ingest", variant, c)
        bases = sorted(bases, key=lambda b: (b.size, b.label))
        kinds = BRACE_KINDS if bases[0].kind == "brace" else SOLUTION_KINDS
        strata = max(1, len(bases) // CORRUPT_SHARE)
        plan: dict[int, tuple] = {}
        for s in range(strata):
            kind = kinds[(s + variant) % len(kinds)]
            lo, hi = s * len(bases) // strata, (s + 1) * len(bases) // strata
            first = lo + variant % (hi - lo)
            # fall back to the next documents if the kind does not apply
            for i in list(range(first, len(bases))) + list(range(first)):
                if i in plan:
                    continue
                p = perm_moving_zero(r, bases[i].size)
                got = _corrupt(r, kind, relabel(bases[i].t1, p), relabel(bases[i].t2, p), p[0])
                if got:
                    plan[i] = (kind, p) + got
                    break
            else:
                raise RuntimeError(f"no document takes a {kind} corruption")
        for i, b in enumerate(bases):
            if i in plan:
                kind, p, t1, t2 = plan[i]
                docs.append(_doc(b, p, t1, t2, kind))
            else:
                p = perm_moving_zero(r, b.size)
                docs.append(_doc(b, p, relabel(b.t1, p), relabel(b.t2, p), None))
    rng(seed, "ingest-order", variant).shuffle(docs)
    return docs


def _doc(b: _Base, p, t1, t2, expect) -> Doc:
    n = b.size
    if b.kind == "brace":
        text = _dump({"order": n, "add": t1, "mul": t2})
        tables = relabeling = None
        if expect is None:
            swap = swap_identity_perm(n, p[0]) if p[0] != 0 else None
            back = [swap[x] for x in p] if swap else p
            tables = (frozen(relabel(b.t1, back)), frozen(relabel(b.t2, back)))
            relabeling = swap
        return Doc(b.label, "brace", n, text, expect, tables, relabeling)
    text = _dump({"size": n, "lambda": t1, "rho": t2})
    tables = (frozen(t1), frozen(t2)) if expect is None else None
    return Doc(b.label, "solution", n, text, expect, tables, None)
