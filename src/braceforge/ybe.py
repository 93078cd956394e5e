"""Finite set-theoretic Yang-Baxter solutions and their decompositions.

A solution on m points is the pair of index tables of
r(x, y) = (lambda_x(y), rho_y(x)).  `validate_solution` decides the braid
relation and non-degeneracy exactly, where a solution enters from outside;
the solution of a brace has both by theorem and is built without them.

The braid relation is decided by Soloviev's criterion (Non-unitary
set-theoretical solutions to the quantum Yang-Baxter equation, Math. Res.
Lett. 7, 2000).  With sigma_y(x) = lambda_y(rho_{lambda_x^-1(y)}(x)), the
second output of J r J^-1 for J(x, y) = (x, lambda_x(y)), a map whose
lambda_x are bijections satisfies r12 r23 r12 = r23 r12 r23 exactly when

  (1) lambda_x lambda_y = lambda_{lambda_x(y)} lambda_{rho_y(x)},
  (2) sigma_z sigma_y = sigma_{sigma_z(y)} sigma_z,
  (3) lambda_x sigma_z = sigma_{lambda_x(z)} lambda_x

for all points.  (1) is the first output of the braid relation.  Given (1),
conjugating by the bijection J3(x, y, z) = (x, lambda_x(y),
lambda_x lambda_y(z)) turns r12 into (x, y, z) -> (y, sigma_y(x), z); then
the middle output of the conjugated relation is (3), and given (3) the last
output is (2).

(2) involves z only through the row sigma_z and (3) involves x only through
the row lambda_x, so each is checked once per distinct row; (1) reads
rho_y(x), so it is checked once per point.  Each composition of two distinct
rows is built once: a brace solution has one lambda row per element of
lambda(B), and its sigma rows repeat in the same way.

A solution is decomposable exactly when <lambda_x, rho_y> has at least two
orbits; `orbit_partition` finds them in O(m^2) time.

Decomposition witnesses are nested chains of subsets with coset
partitions.  The block swaps of a series' cosets are checked once
per (brace, series) on the whole carrier; every r-closed subset inherits
them by the restriction lemma, so each subset's witness checks only its own
r-closure, intertwining and structure.  `verify_multidecomposition`
re-checks every clause of any witness.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .braces import SkewBrace, classify_within
from .errors import (
    BoundExceeded,
    BraidFailed,
    Degenerate,
    EmbeddingIncompatible,
    HypothesisFailed,
    InternalInvariant,
    NotAnIdeal,
    QuotientNotAbelian,
    SeriesInvalid,
)
from .structure import SeriesWitness, ZERO, abelian_step
from .groups import compose, memoised, subset_key

# r_closed_subsets stops past this many subsets: above every order-16 flip (2^16 - 1)
R_CLOSED_MAX_SUBSETS = 100_000


@dataclass(frozen=True)
class Solution:
    """Non-degenerate solution given by its two component tables.

    lambda_tab[x][y] is the first output of r(x, y) and rho_tab[y][x] the
    second, so rows of both tables are bijections of the ground set.
    """

    size: int
    lambda_tab: tuple[tuple[int, ...], ...]
    rho_tab: tuple[tuple[int, ...], ...]

    def r(self, x: int, y: int) -> tuple[int, int]:
        return (self.lambda_tab[x][y], self.rho_tab[y][x])

    def ground(self) -> frozenset[int]:
        return frozenset(range(self.size))

    @property
    def is_flip(self) -> bool:
        return all(self.r(x, y) == (y, x)
                   for x in range(self.size) for y in range(self.size))

    def to_json(self) -> dict:
        return {"size": self.size,
                "lambda": [list(r) for r in self.lambda_tab],
                "rho": [list(r) for r in self.rho_tab]}


def validate_solution(lambda_tab: Sequence[Sequence[int]],
                      rho_tab: Sequence[Sequence[int]]) -> Solution:
    """Check the shape, bijectivity of every component map and the braid relation.

    A solution needs at least one point, as a group table needs its identity:
    empty tables raise Degenerate, as do tables that are not m x m.

    The braid relation is accepted by identities (1)-(3) of the module
    docstring, exact for a map whose rows are bijections, compared as whole
    rows of composed permutations (`_braid_criterion`).  Each composition of
    two distinct lambda or sigma rows is built once: with d_lambda and d_sigma
    distinct rows that is d_lambda^2 + d_sigma^2 + 2 d_lambda d_sigma of
    them, 4 m^2 when every row is distinct.  Only a rejection runs the
    lexicographic scan over the triples (`_braid_scan`), which raises
    BraidFailed at the first failing one; when it finds none,
    InternalInvariant is raised.
    """
    m = len(lambda_tab)
    if m == 0:
        raise Degenerate("table shape", 0, "empty table")
    for which, tab in (("lambda", lambda_tab), ("rho", rho_tab)):
        if len(tab) != m:
            raise Degenerate("table shape", len(tab), f"{which} has {len(tab)} rows, not {m}")
        for x, row in enumerate(tab):
            if len(row) != m:
                raise Degenerate("table shape", x,
                                 f"{which} row {x} has {len(row)} entries, not {m}")
    full = set(range(m))
    for which, tab in (("lambda", lambda_tab), ("rho", rho_tab)):
        for x, row in enumerate(tab):
            # bool and float entries compare equal to ints, and lists cannot be
            # hashed, so the type is checked first
            if set(map(type, row)) != {int} or set(row) != full:
                raise Degenerate(which, x)
    lam = tuple(tuple(r) for r in lambda_tab)
    rho = tuple(tuple(r) for r in rho_tab)
    if not _braid_criterion(lam, rho):
        _braid_scan(lam, rho)
        raise InternalInvariant("the braid criterion failed but the scan found no witness")
    return Solution(m, lam, rho)


def _braid_criterion(lam: tuple[tuple[int, ...], ...], rho: tuple[tuple[int, ...], ...]) -> bool:
    """Whether identities (1)-(3) of the module docstring hold; lambda's rows are bijections.

    The rows of lambda and of sigma are indexed by first appearance
    (`_row_index`), and every product of two distinct rows is built once,
    by `_row_products`.  With d_lambda and d_sigma distinct rows that is
    d_lambda^2 + d_sigma^2 + 2 d_lambda d_sigma gathers of length m, plus
    O(m) gathers of row references; when every row is distinct it is the
    4 m^2 compositions that checking each identity point by point builds.
    (2) involves z only through sigma_z and (3) involves x only through
    lambda_x, so each is checked once per distinct row, as two rows over y
    of references into the products.  (1) reads rho_y(x), so it is checked
    once per point x.  Each table of products is dropped before the next one
    is built, and the products sigma_z o lambda_x are built per lambda row as
    they are compared, so at most one table is alive at a time: a live table
    of m^2 products costs the garbage collector more than products freed as
    they go.
    """
    m = len(lam)
    if m < 2:
        return True  # the only bijective tables on one point are the flip
    lid, lam_rows = _row_index(lam)
    at_lam = operator.itemgetter(*lid)
    lam_through = [operator.itemgetter(*row) for row in lam_rows]
    # (1) for each x as rows over y: firsts[i][y] = lam_rows[i] o lambda_y, so
    # lambda_x lambda_y is firsts[lid[x]][y] and lambda_{lambda_x(y)}
    # lambda_{rho_y(x)} is entry rho_y(x) of the row for the point lambda_x(y)
    firsts = [at_lam(row) for row in zip(*_row_products(lam_rows, lam_through))]
    by_point = at_lam(firsts)
    get = operator.getitem
    for i, cols in zip(lid, zip(*rho)):
        if firsts[i] != tuple(map(get, lam_through[i](by_point), cols)):
            return False
    del firsts, by_point
    # sig[y][x] = sigma_y(x): row x of rho's transpose, rho_t[x][y] = rho_y(x),
    # is read through lambda_x^-1 (the points sorted by their lambda_x
    # image), then column y of the result through lambda_y
    inverses = [sorted(range(m), key=row.__getitem__) for row in lam_rows]
    sig = tuple(map(compose, lam, zip(*map(compose, zip(*rho), at_lam(inverses)))))
    sid, sig_rows = _row_index(sig)
    at_sig = operator.itemgetter(*sid)
    sig_through = [operator.itemgetter(*row) for row in sig_rows]
    # (2) for each distinct sigma_z and (3) for each distinct lambda_x, as f:
    # over y, f sigma_y against sigma_{f(y)} f; ss[k][j] = sig_rows[j] o sig_rows[k]
    ss = list(_row_products(sig_rows, sig_through))
    if not all(at_sig(before) == g(at_sig(after))
               for before, after, g in zip(zip(*ss), ss, sig_through)):
        return False
    del ss
    lam_sig = zip(*_row_products(lam_rows, sig_through))  # [i][k] = lam_rows[i] o sig_rows[k]
    sig_lam = _row_products(sig_rows, lam_through)  # [i][k] = sig_rows[k] o lam_rows[i]
    return all(at_sig(before) == g(at_sig(after))
               for before, after, g in zip(lam_sig, sig_lam, lam_through))


def _row_index(table: Sequence[tuple[int, ...]]) -> tuple[list[int], list[tuple[int, ...]]]:
    """Each row's index among the distinct rows, and those rows in order of first appearance."""
    index: dict[tuple[int, ...], int] = {}
    ids = [index.setdefault(row, len(index)) for row in table]
    return ids, list(index)


def _row_products(lefts: Sequence[tuple[int, ...]],
                  rights: Iterable[operator.itemgetter]) -> Iterator[list[tuple[int, ...]]]:
    """Row j is [lefts[i] o r_j for each i], where rights[j] is the `operator.itemgetter` of r_j.

    Every row product of `_braid_criterion` is built here: each right
    factor's gather is mapped over the left rows.  The rows come one at a
    time, so a caller that compares them as they come never holds the table.
    """
    return (list(map(g, lefts)) for g in rights)


def _braid_scan(lam: tuple[tuple[int, ...], ...], rho: tuple[tuple[int, ...], ...]) -> None:
    """Raise BraidFailed at the lexicographically first failing triple, if any.

    With (a, b) = r(x, y), d = lambda_y(z), e = rho_z(y) and d2 = rho_d(x),
    r12 r23 r12 sends (x, y, z) to (lam[a][lam[b][z]], rho[lam[b][z]][a],
    rho[z][b]) and r23 r12 r23 sends it to (lam[x][d], lam[d2][e], rho[e][d2]).
    """
    m = len(lam)
    rho_t = tuple(zip(*rho))  # rho_t[y][z] = rho[z][y], the second output of r(y, z)
    for x in range(m):
        lam_x, rho_x = lam[x], rho_t[x]
        for y in range(m):
            lam_y, rho_y = lam[y], rho_t[y]
            a, b = lam_x[y], rho_x[y]
            lam_a, lam_b, rho_a, rho_b = lam[a], lam[b], rho_t[a], rho_t[b]
            for z in range(m):
                bz, d, e = lam_b[z], lam_y[z], rho_y[z]
                d2 = rho_x[d]
                if lam_a[bz] != lam_x[d] or rho_a[bz] != lam[d2][e] or rho_b[z] != rho_t[d2][e]:
                    raise BraidFailed(x, y, z)


def flip_solution(m: int) -> Solution:
    """r(x, y) = (y, x)."""
    lam = tuple(tuple(range(m)) for _ in range(m))
    return Solution(m, lam, lam)


@memoised
def solution_from_brace(B: SkewBrace) -> Solution:
    """The solution r(a, b) = (lambda_a(b), lambda_a(b)^{-1} a b) on B; memoised on B.

    It is non-degenerate and satisfies the braid relation by theorem
    (Guarnieri-Vendramin, Math. Comp. 2017, Theorem 3.1), so it is built
    without `validate_solution`.  Column a of rho, b -> lambda_a(b)^-1 (ab),
    is read off two table rows at once: the inverse of each entry of the row
    lambda_a, times the matching entry of the row of a.  The columns are
    then transposed into rho's rows.
    """
    mt, mi = B.mul.table, B.mul.inverse
    columns = [[mt[mi[lab]][ab] for lab, ab in zip(la, ma)] for la, ma in zip(B.lam, mt)]
    return Solution(B.order, B.lam, tuple(zip(*columns)))


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty blocks covering the ground set."""

    ground: frozenset[int]
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        union: set[int] = set()
        for b in self.blocks:
            if not b or (union & b):
                raise ValueError("blocks must be non-empty and disjoint")
            union |= b
        if union != set(self.ground):
            raise ValueError("blocks must cover the ground set")

    @property
    def uniform(self) -> bool:
        sizes = {len(b) for b in self.blocks}
        return len(sizes) <= 1

    def to_json(self) -> dict:
        return {"blocks": [sorted(b) for b in self.blocks], "uniform": self.uniform}


def make_partition(blocks: Iterable[Iterable[int]]) -> Partition:
    bs = tuple(sorted((frozenset(b) for b in blocks), key=subset_key))
    ground = frozenset(x for b in bs for x in b)
    return Partition(ground, bs)


def _blocks_swap_ok(solution: Solution, blocks: Sequence[frozenset[int]]) -> tuple[bool, tuple | None]:
    """r(Xi x Xj) lands in Xj x Xi for every ordered block pair."""
    for bi in blocks:
        for bj in blocks:
            for x in bi:
                for y in bj:
                    u, v = solution.r(x, y)
                    if u not in bj or v not in bi:
                        return False, (sorted(bi), sorted(bj), x, y)
    return True, None


def is_partition_decomposable(solution: Solution, partition: Partition) -> tuple[bool, tuple | None]:
    """Block-swap check of the whole solution against the partition.

    Images have the right cardinality automatically because r is bijective, so
    containment of every r(Xi x Xj) in Xj x Xi is equivalent to equality.
    """
    if partition.ground != solution.ground():
        raise ValueError("partition does not cover the solution's ground set")
    return _blocks_swap_ok(solution, partition.blocks)


def _check_r_closed_count(cores: list, free: list) -> None:
    """Raise BoundExceeded once the cores found so far, each joined with every
    subset of the free points, give more than R_CLOSED_MAX_SUBSETS non-empty sets.

    The count is arithmetic, so nothing is built first; like a search that
    stops at the first subset past the bound, it reports R_CLOSED_MAX_SUBSETS + 1.
    """
    if (len(cores) << len(free)) - 1 > R_CLOSED_MAX_SUBSETS:
        raise BoundExceeded("r-closed subsets", R_CLOSED_MAX_SUBSETS + 1, R_CLOSED_MAX_SUBSETS)


def r_closed_subsets(solution: Solution) -> list[frozenset[int]]:
    """All non-empty subsets X with r(X x X) inside X x X, sorted by subset_key.

    both[y][z] holds the four points r(y, z) and r(z, y) force.  A point x is
    free when no pair without x forces x and no pair with x forces a point
    outside the pair; one pass over the pairs (y = z included) marks every
    point that is not, by OR-ing the pair and its forced points wherever a
    pair forces a point outside itself.  With F the free points and K the
    rest, the closed sets are exactly the non-empty C | S with C closed inside
    K or empty and S any subset of F: pairs inside K force nothing in F, and a
    pair that meets F forces nothing outside itself, so X is closed exactly
    when X & K is.  So only K is searched, and each core C is joined with
    every subset of F.

    The search is a depth-first search over subsets of K grown in increasing
    point order, on bit masks; `reach` is the union of both[y][z] over the
    pairs of the current set, and never leaves K.  Invariant: every point of
    `reach` at most the last point added lies in the set.  Later steps add
    only larger points, so a branch that breaks it can never become closed
    and is cut (NextClosure's canonicity test, Ganter 1984); the set is a core
    when all of `reach` lies in it.  Every prefix of a closed set keeps the
    invariant, so no core is lost.

    The flip solution on m points has every point free and 2^m - 1 closed
    subsets, so the output is bounded.  With k non-empty cores there are
    (k + 1) * 2^|F| - 1 closed sets, and BoundExceeded is raised as soon as
    that count passes R_CLOSED_MAX_SUBSETS: before the search when 2^|F| - 1
    does, and otherwise as the cores are found, before any set is built.
    """
    n = solution.size
    lam, rho = solution.lambda_tab, solution.rho_tab
    both = [[1 << lam[y][z] | 1 << rho[z][y] | 1 << lam[z][y] | 1 << rho[y][z]
             for z in range(n)] for y in range(n)]
    tied = 0  # the points that are not free
    for y in range(n):
        row = both[y]
        for z in range(y, n):
            pair = 1 << y | 1 << z
            if row[z] & ~pair:
                tied |= row[z] | pair
    core = [x for x in range(n) if tied >> x & 1]
    free = [x for x in range(n) if not tied >> x & 1]
    cores = [()]
    _check_r_closed_count(cores, free)
    # (X, reach, next position in core, members of X in order); a recursive
    # closure would be a function-cell reference cycle that keeps `cores`
    # alive until a full collection
    stack = [(0, 0, 0, ())]
    while stack:
        X, reach, start, members = stack.pop()
        missing = reach & ~X
        # a child past the least missing point would skip it for good
        stop = (missing & -missing).bit_length() if missing else n
        for p in range(start, len(core)):
            i = core[p]
            if i >= stop:
                break
            row = both[i]
            grown = reach | row[i]
            for y in members:
                grown |= row[y]
            Xi = X | 1 << i
            missing = grown & ~Xi
            if missing & ((1 << (i + 1)) - 1):
                continue
            path = members + (i,)
            if not missing:
                cores.append(path)
                _check_r_closed_count(cores, free)
            stack.append((Xi, grown, p + 1, path))
    # for one core C the sets C | S come in subset_key order as S runs
    # through combinations(free, k), since the least point where two of them
    # differ is free; a size that more than one core reaches sorts their runs
    by_size: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for C in cores:
        by_size[len(C)].append(C)
    out: list[frozenset[int]] = []
    for size in range(1, n + 1):
        runs = [map(frozenset, map(C.__add__, itertools.combinations(free, size - c)))
                for c in range(max(0, size - len(free)), size + 1) for C in by_size[c]]
        out.extend(runs[0] if len(runs) == 1 else sorted(itertools.chain(*runs), key=sorted))
    return out


def orbit_partition(solution: Solution) -> Partition:
    """The orbits of <lambda_x, rho_y>, by one union-find pass over both tables.

    r(Xi x Xj) lies in Xj x Xi for all blocks exactly when every lambda_x and
    rho_y maps each block into itself, so the decompositions are exactly the
    coarsenings of this partition (Etingof-Schedler-Soloviev, Duke Math. J.
    100, 1999): the solution decomposes when it has at least two orbits.
    """
    parent = list(range(solution.size))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # row x of lambda is y -> lambda_x(y), row y of rho is x -> rho_y(x)
    for row in itertools.chain(solution.lambda_tab, solution.rho_tab):
        for x, y in enumerate(row):
            a, b = root(x), root(y)
            if a != b:
                parent[max(a, b)] = min(a, b)
    orbits: dict[int, list[int]] = {}
    for x in range(solution.size):
        orbits.setdefault(root(x), []).append(x)
    return make_partition(orbits.values())


def coset_partition(B: SkewBrace, I: Iterable[int], within: Iterable[int] | None = None) -> Partition:
    """Left multiplicative cosets of the ideal I inside the subbrace `within`.

    I is checked to be an ideal of `within` by braces.classify_within, in
    B's tables on the generators of `within`, so no brace is built for it.
    For an ideal these cosets agree with the additive cosets; the equality
    is asserted rather than assumed, once per coset.  Walking b upwards, the
    first element not yet placed is the least of its coset, and each coset
    is built from its rows once.  Uniform by Lagrange.  A non-ideal raises
    NotAnIdeal, whose message names I by its labels inside the subbrace
    `within` (the positions of its elements in sorted order), not by the
    labels of B, or, when I leaves `within`, says so.  A `within` that is
    not a subbrace raises ValueError.
    """
    scope = frozenset(within) if within is not None else B.carrier()
    ideal = frozenset(I)
    if not classify_within(B, scope, ideal).ideal:
        if not ideal <= scope:
            raise NotAnIdeal(f"{sorted(ideal)} is not inside the subbrace {sorted(scope)}")
        position = {g: k for k, g in enumerate(sorted(scope))}
        raise NotAnIdeal(f"{sorted(position[g] for g in ideal)} is not an ideal")
    members = sorted(ideal)
    blocks = []
    placed: set[int] = set()
    for b in sorted(scope):
        if b in placed:
            continue
        left = frozenset(map(B.mul.table[b].__getitem__, members))
        if left != frozenset(map(B.add.table[b].__getitem__, members)):
            raise InternalInvariant("multiplicative and additive cosets differ")
        placed |= left
        blocks.append(left)
    partition = make_partition(blocks)
    if not partition.uniform:
        raise InternalInvariant("coset partition is not uniform")
    return partition


@dataclass(frozen=True)
class MultidecompositionWitness:
    """Chain X = X0 >= X1 >= ... >= Xn with |Xn| = 1 and per-level partitions.

    Level i certifies that (Xi, r restricted) is decomposable along
    partitions[i], with X_{i+1} one of the blocks.
    """

    ground: frozenset[int]
    chain: tuple[frozenset[int], ...]
    partitions: tuple[Partition, ...]

    @property
    def uniform(self) -> bool:
        return all(p.uniform for p in self.partitions)

    def to_json(self) -> dict:
        return {"ground": sorted(self.ground),
                "chain": [sorted(s) for s in self.chain],
                "partitions": [p.to_json() for p in self.partitions],
                "uniform": self.uniform}


def _witness_structure(witness: MultidecompositionWitness) -> dict:
    """The clauses of a witness that do not involve r, as per-check booleans.

    A partition whose ground is not its level fails partitions_cover and is
    left out of next_is_block.
    """
    chain, partitions = witness.chain, witness.partitions
    covered = [(part, chain[i + 1]) for i, part in enumerate(partitions)
               if part.ground == chain[i]]
    return {
        "starts_at_ground": bool(chain) and chain[0] == witness.ground,
        "ends_in_singleton": bool(chain) and len(chain[-1]) == 1,
        "levels_match": len(partitions) == len(chain) - 1,
        "descending": all(chain[i + 1] <= chain[i] for i in range(len(chain) - 1)),
        "partitions_cover": len(covered) == len(partitions),
        "next_is_block": all(lower in part.blocks for part, lower in covered),
    }


def verify_multidecomposition(solution: Solution,
                              witness: MultidecompositionWitness) -> dict:
    """Re-check every clause of the witness; returns per-check booleans."""
    chain, partitions = witness.chain, witness.partitions
    checks = _witness_structure(witness)
    lam, rho = solution.lambda_tab, solution.rho_tab
    checks["r_closed"] = all(lam[x][y] in X and rho[y][x] in X
                             for X in chain[:len(partitions)] for x in X for y in X)
    checks["block_swap"] = all(_blocks_swap_ok(solution, part.blocks)[0]
                               for part, X in zip(partitions, chain) if part.ground == X)
    checks["ok"] = all(checks.values())
    return checks


@memoised
def _series_cosets(B: SkewBrace, series: SeriesWitness) -> tuple[tuple[int, ...], ...]:
    """The series' chain, checked step by step, as its steps cut into coset labels.

    A chain can carry a witness exactly when it descends strictly from the
    carrier to 0 and each member is an ideal of its predecessor with abelian
    quotient; those checks alone decide it, whatever built the chain.  Step j
    labels each element of member j with the index of its coset of
    member j + 1 (blocks in subset_key order), and every element outside
    member j with -1.  Each step's cosets are checked here, once, to
    block-swap for the brace solution; InternalInvariant names the step and
    the first failing pair otherwise.  Both the step checks (abelian_step)
    and the cosets (coset_partition with within=member j) are decided in B's
    tables on the generators of member j, so no brace is built here.
    """
    chain = series.chain
    if not chain or chain[0] != B.carrier() or chain[-1] != ZERO:
        raise SeriesInvalid("series must descend from the whole brace to 0")
    for i in range(len(chain) - 1):
        if not chain[i + 1] < chain[i]:
            raise SeriesInvalid(f"chain is not strictly descending at step {i}")
        problem = abelian_step(B, chain[i], chain[i + 1])
        if problem:
            raise SeriesInvalid(f"member {i + 1} {problem} member {i}")
    solution = solution_from_brace(B)
    steps = []
    for j in range(len(chain) - 1):
        cosets = coset_partition(B, chain[j + 1], within=chain[j])
        ok, failure = _blocks_swap_ok(solution, cosets.blocks)
        if not ok:
            raise InternalInvariant(
                f"step {j}: the cosets of member {j + 1} in member {j} do not "
                f"block-swap (blocks, x, y) = {failure}")
        labels = [-1] * B.order
        for k, block in enumerate(cosets.blocks):
            for e in block:
                labels[e] = k
        steps.append(tuple(labels))
    return tuple(steps)


def multidecomposition_from_series(B: SkewBrace, series: SeriesWitness) -> MultidecompositionWitness:
    """Uniform multidecomposition of the brace solution along an abelian series.

    The embedded witness of the whole carrier under the identity map: level k
    partitions the series member I_k into the cosets of I_{k+1}, whose block
    swaps are checked once per (B, series) by `_series_cosets`.
    """
    witness = embedded_multidecomposition(solution_from_brace(B), B.carrier(), B,
                                          range(B.order), series)
    if not witness.uniform:
        raise InternalInvariant("series witness is not uniform")
    return witness


def ideal_coset_decomposition(B: SkewBrace, I: Iterable[int]) -> Partition:
    """Uniform decomposition of the brace solution into cosets of a proper
    ideal with abelian quotient; the block count is the index of the ideal."""
    ideal = frozenset(I)
    if ideal == B.carrier():
        raise ValueError("the ideal must be proper")
    partition = coset_partition(B, ideal)  # NotAnIdeal on a non-ideal
    if abelian_step(B, B.carrier(), ideal):
        raise QuotientNotAbelian(f"quotient by {sorted(ideal)} is not abelian")
    solution = solution_from_brace(B)
    ok, witness = is_partition_decomposable(solution, partition)
    if not ok or not partition.uniform:
        raise InternalInvariant(f"coset partition not decomposable: {witness}")
    if len(partition.blocks) != B.order // len(ideal):
        raise InternalInvariant("block count differs from the ideal's index")
    return partition


def embedded_multidecomposition(solution: Solution, X: Iterable[int], B: SkewBrace,
                                embed: Mapping[int, int] | Sequence[int],
                                series: SeriesWitness) -> MultidecompositionWitness:
    """Multidecomposition of an r-closed subset X embedded in a soluble brace.

    The embedding must be injective, give every point of X an int image in
    the brace carrier, and intertwine r with the brace solution on images,
    and X must meet the last non-zero series member.  Levels follow the
    series through the embedding: X_j collects the points landing in I_j,
    partitioned by coset intersections with empty blocks dropped.  The result
    need not be uniform.

    The block swaps follow from the restriction lemma.  `_series_cosets`
    checks once per (B, series) that the cosets C of I_{j+1} in I_j
    block-swap for the brace solution.  For r-closed X, each level X_j is
    r-closed (ideals are), and r(X_a x X_b) lies in (C_b x C_a) intersected
    with X_j x X_j, that is in X_b x X_a.  So per X only r-closure and the
    intertwining are checked, pair by pair through the embedding; when the
    solution has the brace solution's tables and the embedding is the
    identity on X, the intertwining holds trivially and is skipped.  The
    witness's structural clauses (`_witness_structure`) are checked before it
    is returned; `verify_multidecomposition` re-checks every clause, block
    swaps included, for callers that want it.
    """
    points = frozenset(X)
    # True and 1.0 compare equal to 1 but are not points
    if not points or not all(type(x) is int and 0 <= x < solution.size for x in points):
        raise EmbeddingIncompatible("X must be a non-empty subset of the ground set")
    members = sorted(points)
    emap = {}
    for x in members:
        try:
            image = embed[x]
        except (IndexError, KeyError):
            raise EmbeddingIncompatible(f"embedding has no image for point {x}", x) from None
        # True and 2.0 compare equal to ints but are not brace elements
        if type(image) is not int:
            raise EmbeddingIncompatible(f"image {image!r} of point {x} is not an int", x)
        emap[x] = image
    if len(set(emap.values())) != len(points):
        raise EmbeddingIncompatible("embedding is not injective")
    if not all(0 <= image < B.order for image in emap.values()):
        raise EmbeddingIncompatible("embedding leaves the brace carrier")
    brace_solution = solution_from_brace(B)
    # the brace solution's tables under the identity intertwine with themselves
    identity = solution == brace_solution and list(emap.values()) == members
    lam, rho = solution.lambda_tab, solution.rho_tab
    for x in members:
        for y in members:
            u, v = lam[x][y], rho[y][x]
            if u not in points or v not in points:
                raise EmbeddingIncompatible("X is not r-closed", (x, y))
            if not identity and brace_solution.r(emap[x], emap[y]) != (emap[u], emap[v]):
                raise EmbeddingIncompatible(
                    "solution and brace solution disagree on images", (x, y))
    steps = _series_cosets(B, series)
    if not steps:
        # zero brace: injectivity already forces X to be a single point
        return MultidecompositionWitness(points, (points,), ())
    levels, partitions, level = [points], [], members
    for labels in steps:
        # one pass over the level, in point order: each point goes to the block
        # of its image's coset, and the coset holding 0 is the next level
        blocks: dict[int, list[int]] = {}
        for x in level:
            blocks.setdefault(labels[emap[x]], []).append(x)
        # blocks open at their least points, and disjoint blocks of one size
        # differ there, so ordering them by size alone gives subset_key order
        ordered = sorted(blocks.values(), key=len)
        partitions.append(Partition(levels[-1], tuple(map(frozenset, ordered))))
        level = blocks.get(labels[0], [])
        levels.append(frozenset(level))
    if not levels[-2]:
        raise HypothesisFailed("X misses the last non-zero series member")
    levels[-1] = frozenset({min(levels[-2])})
    witness = MultidecompositionWitness(points, tuple(levels), tuple(partitions))
    checks = _witness_structure(witness)
    if not all(checks.values()):
        raise InternalInvariant(f"embedded witness failed verification: {checks}")
    return witness
