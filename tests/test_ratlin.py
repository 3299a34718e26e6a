import random
from fractions import Fraction
from math import gcd

import pytest

import assigncoh.ratlin
from assigncoh.ratlin import (
    RatMatrix,
    _preimage,
    kernel_basis,
    rank,
    rref,
    solve,
    sparse_echelon,
    sparse_kernel,
)
from oracles import brute_rank, reference_kernel, reference_rref, reference_solve


def test_rref_identity():
    res = rref(RatMatrix.identity(2))
    assert res.rank == 2
    assert res.pivot_cols == (0, 1)
    assert res.matrix == RatMatrix.identity(2)


def test_rref_zero():
    res = rref(RatMatrix.zeros(2, 2))
    assert res.rank == 0
    assert res.pivot_cols == ()


def test_rref_proportional_rows():
    res = rref(RatMatrix.from_rows([[1, 2], [2, 4]]))
    assert res.rank == 1
    assert res.pivot_cols == (0,)
    assert res.matrix.row(0) == [Fraction(1), Fraction(2)]


def test_rref_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        m = RatMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
        )
        once = rref(m).matrix
        assert rref(once).matrix == once


def test_kernel_identity_empty():
    assert kernel_basis(RatMatrix.identity(3)) == []


def test_kernel_one_constraint():
    assert kernel_basis(RatMatrix.from_rows([[1, -1]])) == [
        [Fraction(1), Fraction(1)]
    ]


def test_kernel_zero_matrix():
    basis = kernel_basis(RatMatrix.zeros(2, 3))
    assert basis == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_solve_identity():
    x = solve(RatMatrix.identity(2), [3, Fraction(1, 2)])
    assert x == [Fraction(3), Fraction(1, 2)]


def test_solve_free_variable_zeroed():
    assert solve(RatMatrix.from_rows([[1, 1]]), [5]) == [Fraction(5), Fraction(0)]


def test_solve_inconsistent():
    assert solve(RatMatrix.from_rows([[0]]), [1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(RatMatrix.identity(2), [1, 2, 3])


def test_rank_transpose_and_nullity_random():
    rng = random.Random(7)
    for _ in range(120):
        r = rng.randint(0, 4)
        c = rng.randint(0, 4)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(c)]
                for _ in range(r)]
        m = RatMatrix.from_rows(rows) if r else RatMatrix.zeros(0, c)
        assert rank(m) == brute_rank(rows)
        assert rank(m) == rank(m.transpose())
        assert rank(m) + len(kernel_basis(m)) == c


def test_solve_result_exact_random():
    rng = random.Random(13)
    for _ in range(80):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = RatMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        )
        x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(c)]
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b


def test_matrix_algebra():
    a = RatMatrix.from_rows([[1, 2], [0, 1]])
    b = RatMatrix.from_rows([[1, 0], [3, 1]])
    assert (a @ b) == RatMatrix.from_rows([[7, 2], [3, 1]])
    assert a + b == RatMatrix.from_rows([[2, 2], [3, 2]])
    assert RatMatrix.zeros(2, 2).is_zero()
    assert not a.is_zero()
    assert a.transpose().transpose() == a
    assert RatMatrix.diagonal([2, 3]).row(1) == [0, 3]


def _of_rank(rng, m, n, r):
    """An m x n matrix of rank r with some fractional rows: B @ C, B m x r, C r x n."""
    while True:
        b = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]
        c = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        rows = [[Fraction(sum(x * y for x, y in zip(brow, col)), rng.choice((1, 1, 2, 3)))
                 for col in zip(*c)] if c else [Fraction(0)] * n for brow in b]
        if brute_rank(rows) == r:
            return rows


def test_preimage_and_solve_match_reference_solve_seeded():
    # maps injective, surjective, both or neither, with 0-row and 0-column
    # ones among them; right-hand sides in the image and arbitrary ones
    rng = random.Random(29)
    seen = set()
    for _ in range(400):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        r = rng.randint(0, min(m, n))
        rows = _of_rank(rng, m, n, r)
        a = RatMatrix(m, n, rows)
        pre = _preimage([{j: x for j, x in enumerate(row) if x} for row in rows], n)
        assert len(pre) == m
        x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        arbitrary = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
        for b in (a.apply(x0), arbitrary):
            ref = reference_solve(rows, n, b)
            x = [sum((y * image.get(j, 0) for y, image in zip(b, pre)), Fraction(0))
                 for j in range(n)]
            assert solve(a, b) == ref
            if ref is None:
                assert a.apply(x) != b
            else:
                assert x == ref
            seen.add((r == n, r == m, m == 0, n == 0, ref is None))
    for injective in (False, True):
        for surjective in (False, True):
            assert any(k[:2] == (injective, surjective) for k in seen)
    assert any(k[2] and not k[3] for k in seen) and any(k[3] and not k[2] for k in seen)
    assert any(k[4] for k in seen) and any(not k[4] for k in seen)


def _sparse_pm1(rng, nrows, ncols):
    """About three entries of +1 or -1 per row, like a cochain differential."""
    rows = [[0] * ncols for _ in range(nrows)]
    for row in rows:
        for _ in range(rng.randint(0, 4)):
            row[rng.randrange(ncols)] = rng.choice((-1, 1))
    return rows


def _fractional(rng, nrows, ncols):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.4 else 0
             for _ in range(ncols)] for _ in range(nrows)]


def _all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


def _check_against_reference(rng, rows, ncols):
    m = RatMatrix(len(rows), ncols, [[Fraction(x) for x in r] for r in rows])
    ref_matrix, ref_rank, ref_pivots = reference_rref(rows, ncols)
    res = rref(m)
    assert (res.matrix.data, res.rank, res.pivot_cols) == (ref_matrix, ref_rank, ref_pivots)
    assert rank(m) == ref_rank
    kernel = kernel_basis(m)
    assert kernel == reference_kernel(rows, ncols)
    assert _all_fractions(res.matrix.data) and _all_fractions(kernel)
    x0 = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
    consistent = m.apply(x0)
    arbitrary = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in rows]
    for b in (consistent, arbitrary):
        x = solve(m, b)
        assert x == reference_solve(rows, ncols, b)
        assert x is None or _all_fractions([x])
    assert solve(m, consistent) is not None


def test_kernel_matches_dense_reference_randomized():
    rng = random.Random(2)
    cases = [([], 0), ([], 5), ([[]] * 4, 0), ([[0] * 6] * 3, 6)]
    for _ in range(25):
        r, c = rng.randint(1, 40), rng.randint(1, 60)
        cases.append((_sparse_pm1(rng, r, c), c))
    for _ in range(40):
        r, c = rng.randint(1, 8), rng.randint(1, 10)
        cases.append((_fractional(rng, r, c), c))
    for rows, ncols in cases:
        _check_against_reference(rng, rows, ncols)
        # the pivot row is chosen by sparsity; row order must not show
        shuffled = list(rows)
        rng.shuffle(shuffled)
        _check_against_reference(rng, shuffled, ncols)
        assert reference_rref(shuffled, ncols) == reference_rref(rows, ncols)


def _dense_int(rng, nrows, ncols, density):
    return [[rng.randint(-7, 7) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]


def _check_integer_echelon(rows, ncols):
    """The integer rows are the RREF rows scaled to primitive, positive pivots."""
    sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
    red, pivots = sparse_echelon(sparse, ncols)
    ref_matrix, _, ref_pivots = reference_rref(rows, ncols)
    assert pivots == ref_pivots
    for row, c, ref in zip(red, pivots, ref_matrix):
        assert all(type(x) is int and x for x in row.values())
        assert row[c] > 0
        assert gcd(*row.values()) == 1
        assert [Fraction(row.get(j, 0), row[c]) for j in range(ncols)] == ref
    # an integer kernel vector per free column: positive there, zero at the
    # other free columns, and annihilated by every input row
    free = [f for f in range(ncols) if f not in pivots]
    kernel = sparse_kernel(red, pivots, ncols)
    assert len(kernel) == len(free)
    for f, vec in zip(free, kernel):
        assert vec[f] > 0 and all(j == f or j in pivots for j in vec)
        assert all(type(x) is int for x in vec.values())
        assert all(sum(r.get(j, 0) * x for j, x in vec.items()) == 0 for r in sparse)


def test_fraction_free_elimination_matches_reference_randomized():
    rng = random.Random(5)
    cases = []
    for _ in range(60):
        r, c = rng.randint(1, 9), rng.randint(1, 10)
        cases.append(_dense_int(rng, r, c, rng.choice((0.3, 0.6, 1.0))))
    for _ in range(30):
        r, c = rng.randint(2, 8), rng.randint(1, 9)
        rows = _dense_int(rng, r, c, 0.7)
        # rows sharing a common factor, a zero row and a repeated row
        rows = [[rng.randint(2, 6) * x for x in row] for row in rows]
        rows.insert(rng.randrange(len(rows) + 1), [0] * c)
        rows.append([3 * x for x in rng.choice(rows)])
        cases.append(rows)
    for _ in range(30):
        r, c = rng.randint(1, 8), rng.randint(1, 10)
        cases.append(_fractional(rng, r, c))
    non_unit = 0
    for rows in cases:
        ncols = len(rows[0])
        for order in (rows, rng.sample(rows, len(rows))):
            _check_against_reference(rng, order, ncols)
            _check_integer_echelon(order, ncols)
        sparse = [{j: x for j, x in enumerate(r) if x} for r in rows]
        red, pivots = sparse_echelon(sparse, ncols)
        non_unit += any(row[c] != 1 for row, c in zip(red, pivots))
    assert non_unit >= 20
