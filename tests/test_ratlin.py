import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

import assigncoh.ratlin
from assigncoh import (
    block_scaling_matrix, build_polytope, build_product, differential_matrix, homotopy_L,
    preset_polytope,
)
from assigncoh.cochain import _Complex
from assigncoh.ratlin import (
    RatMatrix,
    _apply,
    _back,
    _combine,
    _forward,
    _normalize,
    _preimage,
    _rank,
    _solutions,
    _transpose,
    kernel_basis,
    rank,
    rref,
    solve,
    sparse_echelon,
    sparse_kernel,
    sparse_rref,
)
from oracles import (
    brute_rank,
    dense_apply,
    dense_matmul,
    dense_transpose,
    interleaved_echelon,
    reference_kernel,
    reference_rref,
    reference_solve,
)
from spaces import cp2, s4, s4_chain


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


def test_product_apply_and_transpose_match_dense_loops_seeded():
    # `@`, `apply` and `transpose` go through the sparse row kernel
    # (`_mul`, `_apply`, `_transpose`); the dense loops they replaced are
    # the reference, on shapes with no rows or no columns too, and `apply`
    # still takes int and string entries.  `_combine` on the transpose is
    # `_apply` by columns: the same dict, keys ascending, ints where integral
    rng = random.Random(43)
    seen = {"fraction": 0, "cancelled": 0}

    def rand(m, n):
        return RatMatrix.from_rows(
            [[Fraction(rng.choice((0, 0, 0, 1, -1, 2)), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(m)]) if m else RatMatrix.zeros(0, n)

    for _ in range(300):
        m, k, n = (rng.randint(0, 5) for _ in range(3))
        a, b = rand(m, k), rand(k, n)
        product = a @ b
        assert product == dense_matmul(a, b)
        assert product.shape() == (m, n)
        assert all(type(x) is Fraction for row in product.data for x in row)
        t = a.transpose()
        assert t == dense_transpose(a) and t.shape() == (k, m)
        vec = [rng.choice((0, 1, -2, "1/2", Fraction(-3, 4))) for _ in range(k)]
        out = a.apply(vec)
        assert out == dense_apply(a, vec)
        assert all(type(x) is Fraction for x in out)
        rows = [{j: x for j, x in enumerate(row) if x} for row in a.data]
        coeffs = {j: Fraction(x) for j, x in enumerate(vec) if Fraction(x)}
        by_cols = _combine(_transpose(rows, k), coeffs)
        by_rows = _apply(rows, coeffs)
        assert by_cols == by_rows and list(by_cols) == sorted(by_rows)
        assert by_cols == {i: x for i, x in enumerate(out) if x}
        assert all(type(x) is int for x in by_cols.values() if x.denominator == 1)
        seen["fraction"] += any(type(x) is Fraction for x in by_cols.values())
        # a row whose products are not all zero but sum to zero is dropped
        seen["cancelled"] += sum(
            1 for i, row in enumerate(rows) if i not in by_cols
            and any(j in coeffs for j in row))
    assert seen["fraction"] and seen["cancelled"]
    # the entries at column 0 cancel; keys come out ascending
    assert _combine([{1: 1, 0: 2}, {0: -2, 2: Fraction(1, 2)}], {0: 1, 1: 1}) == {
        1: 1, 2: Fraction(1, 2)}
    assert list(_combine([{2: 1}, {0: 1}], {0: 1, 1: 1})) == [0, 2]
    with pytest.raises(ValueError, match="shape mismatch"):
        rand(2, 3) @ rand(2, 3)
    with pytest.raises(ValueError, match="vector length"):
        rand(2, 3).apply([1, 2])


def test_dense_and_row_built_matrices_are_one_value_seeded():
    # a matrix built from dense rows (the constructor with ints and
    # Fractions, from_rows with numeric strings) and the same matrix built
    # from sparse rows (explicit zeros, Fraction(n, 1) entries) compare,
    # hash, read and compute alike, 0 x n and n x 0 shapes among them; the
    # eliminations match the dense references
    rng = random.Random(89)
    seen = {"empty": 0, "explicit zero": 0, "integral Fraction": 0}
    for _ in range(300):
        m, n, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 4)
        dense = [[Fraction(rng.choice((0, 0, 0, 1, -1, 2, 3)), rng.choice((1, 1, 2, 3)))
                  for _ in range(n)] for _ in range(m)]
        sparse = [{j: x if x.denominator != 1 or rng.random() < 0.5 else x.numerator
                   for j, x in enumerate(row) if x or rng.random() < 0.3} for row in dense]
        seen["empty"] += not (m and n)
        seen["explicit zero"] += any(not x for row in sparse for x in row.values())
        seen["integral Fraction"] += any(type(x) is Fraction and x.denominator == 1 and x
                                         for row in sparse for x in row.values())
        by_rows = RatMatrix.from_sparse(sparse, n)
        built = [
            RatMatrix(m, n, [[x.numerator if x.denominator == 1 else x for x in row]
                             for row in dense]),
            RatMatrix.from_rows([[str(x) for x in row] for row in dense])
            if m else RatMatrix(0, n, []),
        ]
        other = RatMatrix.from_rows(
            [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(m)]) if m else RatMatrix.zeros(0, n)
        right = RatMatrix.from_sparse(
            [{j: rng.randint(-2, 2) for j in range(k) if rng.random() < 0.5}
             for _ in range(n)], k)
        vec = [rng.choice((0, 1, -2, "1/2", Fraction(-3, 4))) for _ in range(n)]
        text = "; ".join(" ".join(str(x) for x in row) for row in dense)
        for a in built:
            assert a == by_rows and hash(a) == hash(by_rows)
            assert a.data == dense and by_rows.data == dense
            assert all(type(x) is Fraction for row in a.data for x in row)
            assert [a.row(i) for i in range(m)] == [by_rows.row(i) for i in range(m)] == dense
            assert repr(a) == repr(by_rows) == (
                f"RatMatrix[{text}]" if m * n <= 36 else f"RatMatrix({m}x{n})")
            assert a.transpose() == by_rows.transpose() == dense_transpose(a)
            assert a @ right == by_rows @ right == dense_matmul(a, right)
            total = a + other
            assert total == by_rows + other
            assert total.data == [[x + y for x, y in zip(r, s)]
                                  for r, s in zip(dense, other.data)]
            assert a.apply(vec) == by_rows.apply(vec) == dense_apply(a, vec)
            assert a.is_zero() == by_rows.is_zero() == (not any(map(any, dense)))
        res = rref(by_rows)
        assert (res.matrix.data, res.rank, res.pivot_cols) == reference_rref(dense, n)
        assert rank(by_rows) == res.rank
        assert kernel_basis(by_rows) == reference_kernel(dense, n)
        for b in (by_rows.apply([Fraction(rng.randint(-2, 2)) for _ in range(n)]),
                  [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m)]):
            x = solve(by_rows, b)
            assert x == reference_solve(dense, n, b)
            assert x is None or _all_fractions([x])
    assert all(seen.values()), seen
    for stray in (2, -1):
        with pytest.raises(IndexError):
            RatMatrix.from_sparse([{stray: 1}], 2)


def test_chain_level_maps_build_no_dense_data_until_read():
    # d_1 of square x square is 2744 x 1000: its dense rows alone would take
    # 8 bytes a slot.  The differentials, the homotopy L and their products
    # and sum stay sparse rows, and `data` is built on its first read
    square = build_polytope(preset_polytope("square"))
    _, v = build_product(square, square)
    tracemalloc.start()
    try:
        d0, d1 = (differential_matrix(v, k, strict=False) for k in (0, 1))
        lhs = d0 @ homotopy_L(v, 1) + homotopy_L(v, 2) @ d1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d1.shape() == (2744, 1000)
    assert peak < 8 * d1.rows * d1.cols / 4
    assert lhs == block_scaling_matrix(v, 1)
    data = lhs.data
    assert data is lhs.data and len(data) == lhs.rows
    assert all(len(row) == lhs.cols and all(type(x) is Fraction for x in row) for row in data)
    assert [{j: x for j, x in enumerate(row) if x} for row in data] == [
        {j: x for j, x in enumerate(lhs.row(i)) if x} for i in range(lhs.rows)]
    with pytest.raises(AttributeError):
        lhs.data = data


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


def test_solutions_match_reference_solve_seeded():
    # one elimination for several right-hand sides at once, some in the
    # column space and some not, over maps of every rank with 0-row and
    # 0-column ones among them: each b inside gets reference_solve's
    # solution as a sparse map, and outside holds exactly the others
    rng = random.Random(31)
    seen = set()
    for _ in range(300):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        r = rng.randint(0, min(m, n))
        rows = _of_rank(rng, m, n, r)
        a = RatMatrix(m, n, rows)
        rhs = [a.apply([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)])
               if rng.random() < 0.5 else
               [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
               for _ in range(rng.randint(1, 4))]
        aug = [{j: x for j, x in enumerate(row + [b[i] for b in rhs]) if x}
               for i, row in enumerate(rows)]
        xs, outside = _solutions(aug, n, len(rhs))
        assert len(xs) == len(rhs) and outside <= set(range(len(rhs)))
        for k, b in enumerate(rhs):
            ref = reference_solve(rows, n, b)
            assert (k in outside) == (ref is None)
            if ref is not None:
                assert set(xs[k]) <= set(range(n)) and all(xs[k].values())
                assert [xs[k].get(j, 0) for j in range(n)] == ref
        seen.add((r < min(m, n), m == 0, n == 0, 0 < len(outside) < len(rhs)))
    assert any(k[0] and k[3] for k in seen)   # rank-deficient, b inside and outside
    assert any(k[1] and not k[2] for k in seen) and any(k[2] and not k[1] for k in seen)


def test_preimage_rows_solve_every_image_seeded():
    # A (sum_k b[k] * row k) = b for every b in the column space: the
    # columns of A, which span it, and random images
    rng = random.Random(37)
    for _ in range(200):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        rows = [{j: x for j, x in enumerate(row) if x}
                for row in _of_rank(rng, m, n, rng.randint(0, min(m, n)))]
        pre = _preimage(rows, n)
        images = _transpose(rows, n) + [
            _apply(rows, {j: rng.randint(-3, 3) for j in range(n)}) for _ in range(3)]
        for b in images:
            assert _apply(rows, _combine(pre, b)) == b


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
    # the free columns are the non-pivot columns in ascending order, with an
    # integer kernel vector each: positive there, zero at the other free
    # columns, and annihilated by every input row
    free, kernel = sparse_kernel(red, pivots, ncols)
    assert free == [f for f in range(ncols) if f not in pivots]
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


def _sparse_small_ints(rng, nrows, ncols):
    """Rows with entries in -3..3, with zero rows and repeated rows."""
    rows = [{j: rng.choice((-3, -2, -1, 1, 2, 3))
             for j in rng.sample(range(ncols), rng.randint(0, min(ncols, 6)))}
            for _ in range(nrows)]
    for _ in range(rng.randint(0, 2)):
        rows.insert(rng.randrange(len(rows) + 1), {})
        rows.append(dict(rng.choice(rows)))
    return rows


def _differentials(rng):
    """d_k of seeded complexes, and the transposes, rows shuffled."""
    for make in (cp2, s4, lambda: s4_chain(3)):
        _, v = make()
        for strict in (True, False):
            cx = _Complex(v, strict)
            for k in range(3):
                n = cx.basis(k).total_dim
                for rows, ncols in ((cx.d(k), n), (_transpose(cx.d(k), n), len(cx.d(k)))):
                    yield rng.sample(rows, len(rows)), ncols


def test_two_pass_echelon_matches_interleaved_seeded():
    """Forward then back pass: the one-pass Gauss-Jordan's rows and pivots, byte for byte."""
    rng = random.Random(41)
    cases = list(_differentials(rng))
    for _ in range(150):
        ncols = rng.randint(1, 40)
        cases.append((_sparse_small_ints(rng, rng.randint(1, 30), ncols), ncols))
    non_unit = back = 0
    for rows, ncols in cases:
        before = [dict(r) for r in rows]
        red, pivots = sparse_echelon(rows, ncols)
        assert rows == before
        assert (red, pivots) == interleaved_echelon(rows, ncols)
        assert _rank(rows, ncols) == len(pivots)
        non_unit += any(row[c] != 1 for row, c in zip(red, pivots))
        # the forward pass leaves entries above some pivot for the back pass
        back += any(_forward(rows, ncols)[3])
    assert non_unit >= 30 and back >= 30


def _typed(rows):
    """Sparse rows as sorted (column, type, entry) lists: 1 and Fraction(1) differ."""
    return [[(j, type(x), x) for j, x in sorted(row.items())] for row in rows]


def test_right_to_left_kernel_is_its_own_rref_seeded():
    """After a right-to-left `_forward`, `_back` and `sparse_kernel`, the
    kernel normalized at its free columns is `sparse_rref` of the
    left-to-right kernel: rows (entry types included) and pivots, on int
    and Fraction rows with zero and repeated rows, and with no columns."""
    rng = random.Random(47)
    cases = [([], 0), ([{}], 0), ([{}, {}], 3)]
    for _ in range(200):
        ncols = rng.randint(1, 30)
        rows = _sparse_small_ints(rng, rng.randint(1, 20), ncols)
        if rng.random() < 0.5:
            rows = [{j: Fraction(x, rng.randint(1, 4)) for j, x in row.items()} for row in rows]
        cases.append((rows, ncols))
    fractions = 0
    for rows, ncols in cases:
        free, kernel = sparse_kernel(*_back(*_forward(rows, ncols, -1)), ncols)
        red, pivots = sparse_rref(sparse_kernel(*sparse_echelon(rows, ncols), ncols)[1], ncols)
        assert (_typed(_normalize(kernel, free)), tuple(free)) == (_typed(red), pivots)
        fractions += any(type(x) is Fraction for r in red for x in r.values())
    assert fractions >= 30


@pytest.mark.parametrize("make, message", [
    (lambda: RatMatrix(-1, 0, []), "negative matrix dimensions"),
    (lambda: RatMatrix(2, 1, [[1]]), "matrix data does not match declared shape"),
    (lambda: RatMatrix.from_rows([[1]]) + RatMatrix.from_rows([[1, 2]]),
     "shape mismatch for sum"),
], ids=["negative-dims", "data-off-the-shape", "sum-of-two-shapes"])
def test_matrix_refusals_name_their_fault(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert info.value.args == (message,)
