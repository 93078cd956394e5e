"""The group, brace and braid validators against the full scans they replaced.

validate_group and validate_brace prove their laws on generators and whole
rows, validate_solution the braid relation by three identities between
permutations, and each runs a lexicographic scan only to name the first
witness of a rejection.  The scans over every triple are kept here as
the references assoc_scan, brace_law_scan and braid_scan.  On every input
each validator must reach the reference's verdict: the same tables when it
accepts, and the same exception type, message, witness and cause type when it
rejects.
"""

import itertools
import json
import random

import pytest

from braceforge import braces, cli, groups, jsonio, ybe
from braceforge.braces import NoOrderMatch, validate_brace
from braceforge.catalog import symmetric_group
from braceforge.cli import main
from braceforge.construct import enumerate_braces
from braceforge.errors import (
    BraceAxiomFailed,
    BraceforgeError,
    BraidFailed,
    Degenerate,
    GroupInvalid,
    GroupValidationError,
    InternalInvariant,
    NoInverse,
    NotAssociative,
)
from braceforge.groups import compose, generating_set, validate_group
from braceforge.ybe import flip_solution, solution_from_brace, validate_solution

CENSUS = [e.brace for n in range(1, 13) for e in enumerate_braces(n)]
ROUNDS = 4  # seeded corruptions drawn per census brace
S3 = symmetric_group(3)
# (|B1|, |B2|) of the seeded direct products whose solutions have 16 to 30 points
PRODUCT_ORDERS = ((2, 8), (3, 6), (2, 10), (4, 5), (2, 12), (3, 8), (3, 9), (5, 6))


def large_braces():
    """The census braces of orders 13 to 15 and a seeded direct product of
    census braces for each pair of PRODUCT_ORDERS."""
    rng = random.Random(14)
    out = [e.brace for n in range(13, 16) for e in enumerate_braces(n)]
    for orders in PRODUCT_ORDERS:
        out.append(braces.direct_product(*(rng.choice(enumerate_braces(n)).brace for n in orders)))
    return out


def assoc_scan(table):
    """Reference for validate_group: the entry-by-entry Latin and identity
    check, every triple in lexicographic order, then the inverses."""
    groups._latin_scan(table)
    n = len(table)
    rows = tuple(tuple(row) for row in table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    raise NotAssociative(a, b, c)
    inverse = []
    for a in range(n):
        b = rows[a].index(0)
        if rows[b][a] != 0:
            raise NoInverse(a)
        inverse.append(b)
    return rows, tuple(inverse)


def brace_law_scan(add_table, mul_table):
    """Reference for validate_brace: both groups by assoc_scan, then
    a(b+c) = ab - a + ac on every triple in lexicographic order."""
    try:
        at, ai = assoc_scan(add_table)
    except GroupValidationError as exc:
        raise GroupInvalid("add", exc) from exc
    try:
        mt, _ = assoc_scan(mul_table)
    except GroupValidationError as exc:
        raise GroupInvalid("mul", exc) from exc
    n = len(at)
    if len(mt) != n:
        raise GroupInvalid("mul", NoOrderMatch(n, len(mt)))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mt[a][at[b][c]] != at[at[mt[a][b]][ai[a]]][mt[a][c]]:
                    raise BraceAxiomFailed(a, b, c)
    lam = tuple(tuple(at[ai[a]][mt[a][b]] for b in range(n)) for a in range(n))
    return at, mt, lam


def braid_scan(lambda_tab, rho_tab):
    """Reference for validate_solution on two m x m tables, m >= 1: bijectivity
    of every row, then r12 r23 r12 = r23 r12 r23 on every triple in
    lexicographic order."""
    m = len(lambda_tab)
    for which, tab in (("lambda", lambda_tab), ("rho", rho_tab)):
        for x, row in enumerate(tab):
            if any(type(v) is not int for v in row) or set(row) != set(range(m)):
                raise Degenerate(which, x)
    lam = tuple(tuple(r) for r in lambda_tab)
    rho = tuple(tuple(r) for r in rho_tab)

    def r(x, y):
        return lam[x][y], rho[y][x]

    for x in range(m):
        for y in range(m):
            for z in range(m):
                a, b = r(x, y)
                b, c = r(b, z)
                a, b = r(a, b)
                d, e = r(y, z)
                x2, d = r(x, d)
                d, e2 = r(d, e)
                if (a, b, c) != (x2, d, e2):
                    raise BraidFailed(x, y, z)
    return lam, rho


def verdict(run):
    """("ok", what run returns), or the exception's type, message, witness and cause type."""
    try:
        return "ok", run()
    except BraceforgeError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "witness", None),
                type(getattr(exc, "cause", None)).__name__)


def group_verdict(table):
    def run():
        G = validate_group(table)
        return G.table, G.inverse
    return verdict(run)


def brace_verdict(add, mul):
    def run():
        B = validate_brace(add, mul)
        return B.add.table, B.mul.table, B.lam
    return verdict(run)


def solution_verdict(lam, rho):
    def run():
        S = validate_solution(lam, rho)
        return S.lambda_tab, S.rho_tab
    return verdict(run)


def intercalate_swap(rng, table):
    """The table with a random 2x2 Latin subsquare off row and column 0
    flipped, so it stays Latin with identity 0; None when there is none."""
    n = len(table)
    quads = [(r1, r2, c1, c2)
             for r1 in range(1, n) for r2 in range(r1 + 1, n)
             for c1 in range(1, n) for c2 in range(c1 + 1, n)
             if table[r1][c1] == table[r2][c2] and table[r1][c2] == table[r2][c1]]
    if not quads:
        return None
    r1, r2, c1, c2 = rng.choice(quads)
    out = [list(row) for row in table]
    for r in (r1, r2):
        out[r][c1], out[r][c2] = out[r][c2], out[r][c1]
    return out


def relabelled(table, tau):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[tau[a]][tau[b]] = tau[table[a][b]]
    return out


def row_swap(rng, table):
    """The table with two entries of one random row swapped."""
    out = [list(row) for row in table]
    row = rng.randrange(len(out))
    i, j = rng.sample(range(len(out)), 2)
    out[row][i], out[row][j] = out[row][j], out[row][i]
    return out


def repeated_row_split(rng, table):
    """The table with two entries swapped in one copy of a row that occurs
    more than once, so the copy leaves its class of equal rows; None when
    every row is distinct."""
    rows = [tuple(row) for row in table]
    repeated = [x for x, row in enumerate(rows) if rows.count(row) > 1]
    if not repeated:
        return None
    out = [list(row) for row in table]
    x = rng.choice(repeated)
    i, j = rng.sample(range(len(out)), 2)
    out[x][i], out[x][j] = out[x][j], out[x][i]
    return out


def later_copy_swap(rng, rho, lam):
    """rho with rho_y(x) and rho_y(x') swapped in one random row y, where x
    and x' each share their lambda row with an earlier point when two such
    points exist.  Only the rho columns of x and x' change, at one entry each."""
    later = [x for x, row in enumerate(lam) if tuple(row) in map(tuple, lam[:x])]
    i, j = rng.sample(later if len(later) > 1 else range(len(rho)), 2)
    out = [list(row) for row in rho]
    y = rng.randrange(len(out))
    out[y][i], out[y][j] = out[y][j], out[y][i]
    return out


def distinct_rows(S):
    """(d_lambda, d_sigma): the numbers of distinct lambda and sigma rows of a
    solution, with sigma_y(x) = lambda_y(rho_{lambda_x^-1(y)}(x))."""
    m, lam, rho = S.size, S.lambda_tab, S.rho_tab
    inv = [[row.index(v) for v in range(m)] for row in lam]
    sig = {tuple(lam[y][rho[inv[x][y]][x]] for x in range(m)) for y in range(m)}
    return len(set(lam)), len(sig)


def kinds(verdicts):
    return {v[0] for v in verdicts}


class TestDifferential:
    def test_census_groups_and_braces(self):
        for B in CENSUS:
            for table in (B.add.table, B.mul.table):
                assert group_verdict(table) == verdict(lambda: assoc_scan(table))
            assert brace_verdict(B.add.table, B.mul.table) == \
                verdict(lambda: brace_law_scan(B.add.table, B.mul.table))

    def test_census_solutions(self):
        for B in CENSUS:
            S = solution_from_brace(B)
            assert solution_verdict(S.lambda_tab, S.rho_tab) == \
                verdict(lambda: braid_scan(S.lambda_tab, S.rho_tab))

    def test_intercalate_swaps(self):
        rng = random.Random(9)
        seen = []
        for B in CENSUS * ROUNDS:
            for which in ("add", "mul"):
                table = intercalate_swap(rng, getattr(B, which).table)
                if table is None:
                    continue
                got = group_verdict(table)
                assert got == verdict(lambda: assoc_scan(table)), table
                add, mul = (table, B.mul.table) if which == "add" else (B.add.table, table)
                got_brace = brace_verdict(add, mul)
                assert got_brace == verdict(lambda: brace_law_scan(add, mul)), (add, mul)
                seen.append(got)
        assert len(seen) > 100 and "NotAssociative" in kinds(seen)

    def test_mul_relabelled_by_a_permutation_fixing_zero(self):
        rng = random.Random(10)
        seen = []
        for B in CENSUS * ROUNDS:
            tau = [0] + rng.sample(range(1, B.order), B.order - 1)
            mul = relabelled(B.mul.table, tau)
            got = brace_verdict(B.add.table, mul)
            assert got == verdict(lambda: brace_law_scan(B.add.table, mul)), (B.add.table, mul)
            seen.append(got)
        assert {"ok", "BraceAxiomFailed"} <= kinds(seen)

    def test_entry_swaps_in_lambda_and_rho_rows(self):
        # the census solutions up to 12 points, then solutions on 13 to 30
        rng = random.Random(11)
        large = large_braces()
        assert {B.order for B in large} == set(range(13, 16)) | {a * b for a, b in PRODUCT_ORDERS}
        seen = []
        for B in CENSUS * ROUNDS + large * ROUNDS:
            if B.order < 2:
                continue
            S = solution_from_brace(B)
            lam, rho = S.lambda_tab, S.rho_tab
            if rng.random() < 0.5:
                lam = row_swap(rng, lam)
            else:
                rho = row_swap(rng, rho)
            got = solution_verdict(lam, rho)
            assert got == verdict(lambda: braid_scan(lam, rho)), (lam, rho)
            seen.append(got)
        assert "BraidFailed" in kinds(seen)
        witnesses = [v[2] for v in seen if v[0] == "BraidFailed"]
        assert any(x > 0 for x, _, _ in witnesses) and any(z > 0 for _, _, z in witnesses)

    def test_split_lambda_classes_and_rho_edits_at_later_copies(self):
        # (2) and (3) are checked once per distinct row and (1) once per point:
        # split a class of equal lambda rows, or edit rho at points whose
        # lambda row an earlier point already has, on the census solutions up
        # to 15 points and the products up to 30 points; solutions whose rows
        # are all distinct take a lambda row swap instead
        rng = random.Random(15)
        seen, all_distinct = [], 0
        for B in CENSUS + large_braces():
            if B.order < 2:
                continue
            S = solution_from_brace(B)
            if distinct_rows(S) == (S.size, S.size):
                all_distinct += 1
                assert solution_verdict(S.lambda_tab, S.rho_tab) == \
                    verdict(lambda: braid_scan(S.lambda_tab, S.rho_tab))
            split = repeated_row_split(rng, S.lambda_tab) or row_swap(rng, S.lambda_tab)
            for lam, rho in ((split, S.rho_tab),
                             (S.lambda_tab, later_copy_swap(rng, S.rho_tab, S.lambda_tab))):
                got = solution_verdict(lam, rho)
                assert got == verdict(lambda: braid_scan(lam, rho)), (lam, rho)
                seen.append(got)
        assert all_distinct == 5  # census 6/3, 10/3, 12/22, 12/27 and 14/3
        assert {"ok", "BraidFailed"} <= kinds(seen)

    def test_every_map_with_bijective_rows_on_up_to_three_points(self):
        seen = []
        for m in (1, 2, 3):
            tables = list(itertools.product(itertools.permutations(range(m)), repeat=m))
            for lam in tables:
                for rho in tables:
                    got = solution_verdict(lam, rho)
                    assert got == verdict(lambda: braid_scan(lam, rho)), (lam, rho)
                    seen.append(got[0])
        assert len(seen) == 1 + 16 + 46656
        assert set(seen) == {"ok", "BraidFailed"}

    def test_seeded_maps_on_four_to_six_points(self):
        # random rows; r(x, y) = (f(y), g(x)), a solution exactly when f and g
        # commute; and relabelled census solutions, half with two entries of
        # one row swapped
        rng = random.Random(13)
        small = [B for B in CENSUS if 4 <= B.order <= 6]
        seen = []
        for _ in range(400):
            m = rng.randrange(4, 7)
            perms = [tuple(rng.sample(range(m), m)) for _ in range(2 * m)]
            lam, rho = perms[:m], perms[m:]
            f, g = perms[0], rng.choice([perms[1], compose(perms[0], perms[0])])
            S = solution_from_brace(rng.choice(small))
            tau = rng.sample(range(S.size), S.size)
            back = [tau.index(v) for v in range(S.size)]
            # tau r (tau^-1 x tau^-1): lambda'_x(y) = tau(lambda_{tau^-1 x}(tau^-1 y))
            lam2 = [[tau[S.lambda_tab[back[x]][back[y]]] for y in range(S.size)]
                    for x in range(S.size)]
            rho2 = [[tau[S.rho_tab[back[y]][back[x]]] for x in range(S.size)]
                    for y in range(S.size)]
            if rng.random() < 0.5:
                lam2, rho2 = (row_swap(rng, lam2), rho2) if rng.random() < 0.5 \
                    else (lam2, row_swap(rng, rho2))
            for lam, rho in ((lam, rho), ([f] * m, [g] * m), (lam2, rho2)):
                got = solution_verdict(lam, rho)
                assert got == verdict(lambda: braid_scan(lam, rho)), (lam, rho)
                seen.append(got)
        assert {"ok", "BraidFailed"} <= kinds(seen)

    def test_single_entries_replaced_and_rows_swapped(self):
        rng = random.Random(12)
        seen = []
        for B in CENSUS * ROUNDS:
            n = B.order
            table = [list(row) for row in B.add.table]
            a, b = rng.randrange(n), rng.randrange(n)
            if n > 2 and rng.random() < 0.3:
                a = a or 1
                b = b or 2
                table[a], table[b] = table[b], table[a]
            else:
                table[a][b] = rng.choice([-1, n, True, 1.5, rng.randrange(n)])
            got = group_verdict(table)
            assert got == verdict(lambda: assoc_scan(table)), table
            seen.append(got)
        assert {"NotClosed", "NoIdentityAtZero"} <= kinds(seen)

    def test_failure_only_at_a_later_generator(self):
        # S3 with the intercalate at rows 2, 3 and columns 2, 4 flipped: Light's
        # test passes for the first generator and fails for the second
        table = [list(r) for r in S3.table]
        for r in (2, 3):
            table[r][2], table[r][4] = table[r][4], table[r][2]
        rows = tuple(tuple(r) for r in table)
        passes = [all(rows[row[g]] == compose(row, rows[g]) for row in rows)
                  for g in generating_set(rows)]
        assert passes[0] and not all(passes)
        got = group_verdict(table)
        assert got == verdict(lambda: assoc_scan(table))
        assert got[0] == "NotAssociative"


class TestRowProducts:
    """`_braid_criterion` builds each composition of two distinct rows once,
    d_lambda^2 + d_sigma^2 + 2 d_lambda d_sigma in all, every one through
    `ybe._row_products`."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = []
        real = ybe._row_products

        def counting(lefts, rights):
            for row in real(lefts, rights):
                counts.append(len(row))
                yield row

        monkeypatch.setattr(ybe, "_row_products", counting)
        return counts

    @pytest.mark.parametrize("m", range(2, 31))
    def test_flip_builds_four(self, built, m):
        S = flip_solution(m)
        assert validate_solution(S.lambda_tab, S.rho_tab) == S
        assert sum(built) == 4

    def test_census_solution_of_order_12(self, built):
        S = solution_from_brace(enumerate_braces(12)[15].brace)
        assert distinct_rows(S) == (3, 6)
        assert validate_solution(S.lambda_tab, S.rho_tab) == S
        assert sum(built) == 81  # 3^2 + 6^2 + 2 * 3 * 6, against 4 * 12^2 point by point

    def test_all_rows_distinct(self, built):
        S = solution_from_brace(enumerate_braces(14)[3].brace)
        assert distinct_rows(S) == (14, 14)
        assert validate_solution(S.lambda_tab, S.rho_tab) == S
        assert sum(built) == 4 * 14 * 14


KERNELS = pytest.mark.parametrize("module, kernel", [
    (groups, "_is_latin_with_identity"),
    (groups, "_light_associative"),
    (braces, "_lambda_additive"),
    (ybe, "_braid_criterion"),
])


@KERNELS
def test_kernel_that_rejects_a_valid_input_is_an_internal_error(monkeypatch, tmp_path, capsys,
                                                                module, kernel):
    B = CENSUS[-1]
    S = solution_from_brace(B)
    monkeypatch.setattr(module, kernel, lambda *args: False)
    if module is ybe:
        with pytest.raises(InternalInvariant):
            validate_solution(S.lambda_tab, S.rho_tab)
        command, document = "decompose", S.to_json()
    else:
        with pytest.raises(InternalInvariant):
            validate_brace(B.add.table, B.mul.table)
        command, document = "analyze", jsonio.brace_to_json(B)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main([command, str(path)]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("internal error: ")


def test_valid_solutions_never_run_the_rejection_kernels(monkeypatch):
    def refuse(*args):
        raise AssertionError("a rejection kernel ran on a valid solution")

    monkeypatch.setattr(ybe, "_braid_scan", refuse)
    for B in CENSUS:
        S = solution_from_brace(B)
        assert validate_solution(S.lambda_tab, S.rho_tab) == S
