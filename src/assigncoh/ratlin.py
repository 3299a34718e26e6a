"""Exact linear algebra over the rationals.

Everything in the package reduces to rank / kernel / solve questions.  The
large matrices are cochain differentials: a few nonzeros per row, nearly
all of them +1 or -1.  So one sparse Gauss-Jordan kernel does every
elimination, in two passes that share one row-clearing step (`_clear`):
`_forward` clears each pivot column below the pivot and yields the rank,
and `_back` clears it above.  `sparse_echelon` runs both; rank-only
callers (`_rank`, `rank`) stop after the forward pass, and so does a
cohomology degree with no classes, whose dimension comes from the forward
pass on d_k with the image's pivot columns pinned to zero
(`cochain._CohomologyData`).  `sparse_rref` divides the rows of
`sparse_echelon` by their pivots, and `rref`, `rank`, `kernel_basis` and
`solve` are thin wrappers that run on a `RatMatrix`'s sparse rows.  Every
solution is read off one `sparse_rref` of an augmented matrix
[A | b_0 ... b_{r-1}] by `_solutions`: `solve` eliminates [A | b], the
preimage map `_preimage` [A | I], and `momentpoly` a support's weights
beside its terms' covectors.  It is also the package's only
arithmetic on sparse rows (`Rows`): `_mul` (a `_combine` of b's rows per
row of a), `_apply`, `_transpose`, `_sub_scaled` and `_identity_rows`,
which `RatMatrix`'s `@`, `+`, `apply` and `transpose` wrap as well.  Given a
matrix's transpose, `_combine` is `_apply` by columns: it reads only the
columns where the vector is nonzero.

Canonical outputs, relied on by golden tests elsewhere:

* Columns are scanned left to right.  The reduced row echelon form for a
  fixed column order is unique, so the choice of pivot row is free: the
  kernel takes the unused row with the fewest nonzeros (lowest index on
  ties) to keep fill-in low, and the result is the same for any order of
  the input rows.
* `kernel_basis` parametrizes by the free columns in ascending order; the
  basis vector for free column f has entry 1 in slot f and zeros in the
  other free slots.
* `solve` returns the particular solution with every free variable zero.

Arithmetic: the elimination is fraction-free (integer-preserving, after
Bareiss).  Each input row is scaled to a primitive integer row, a row is
reduced by a pivot p with entry f by cross-multiplication,
(p/g)*row - (f/g)*pivot_row for g = gcd(p, f), and a row reduced by a
pivot other than 1 is divided by its content again.  Pivots stay positive
ints, and no Fraction is created inside the loop.  Each row is divided by
its pivot once, at the public boundary: `sparse_rref` keeps entries ints
where integral, and every dense value of a `RatMatrix` holds Fractions.
Scaling a row keeps its support, so the pivot rows and the fill-in are
those of division-based elimination, and the RREF is the same.  The
forward pass updates unused rows only, exactly as a one-pass Gauss-Jordan
elimination does, so both choose the same pivots; the RREF is unique and
each output row is primitive with a positive pivot, so the two passes
give the one-pass output entry for entry.

>>> m = RatMatrix.from_rows([[1, -1]])
>>> kernel_basis(m)
[[Fraction(1, 1), Fraction(1, 1)]]
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

# column -> nonzero entry, an int while integral and a Fraction otherwise
SparseRow = Dict[int, object]
Rows = List[SparseRow]  # a matrix as its sparse rows

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _exact(x):
    """x as an int when it is integral, otherwise unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _coef(x):
    """x (an int, a Fraction or a numeric string) as an int where integral, else a Fraction."""
    return x if type(x) is int else _exact(_frac(x))


def _integer(x) -> int:
    """int(x) for an integral x; ValueError naming x for any other value.

    An int, an integral Fraction, float or Decimal, or an integer string
    converts as int() converts it; int() would truncate 1.5 to 1.

    >>> _integer(Fraction(4, 2)), _integer(2.0), _integer("2")
    (2, 2, 2)
    >>> _integer(Fraction(3, 2))
    Traceback (most recent call last):
    ...
    ValueError: non-integral entry Fraction(3, 2)
    """
    if type(x) is int:
        return x
    n = int(x)
    if n != x and not isinstance(x, (str, bytes)):
        raise ValueError(f"non-integral entry {x!r}")
    return n


def _normal(row: SparseRow, cols: int) -> SparseRow:
    """A new row of row's nonzero entries as `_coef`s; IndexError off range(cols)."""
    if row and not (min(row) >= 0 and max(row) < cols):
        raise IndexError(f"a column of {sorted(row)} lies outside range({cols})")
    return {j: y for j, x in row.items() if (y := _coef(x))}


def _dense(row: SparseRow, n: int) -> List[Fraction]:
    """The sparse row as a list of n Fractions."""
    out = [_ZERO] * n
    for j, x in row.items():
        out[j] = _frac(x)
    return out


def _identity_rows(n: int) -> Rows:
    return [{i: 1} for i in range(n)]


def _combine(rows: Rows, coeffs: SparseRow) -> SparseRow:
    """sum_k coeffs[k] * rows[k], ints kept where integral and columns ascending.

    Given the columns of a matrix as rows (its `_transpose`), this is the
    matrix times coeffs, `_apply` by columns: it reads only the columns
    where coeffs is nonzero.

    >>> _combine([{0: 1}, {0: -1, 1: 2}], {0: 3, 1: 3})
    {1: 6}
    """
    acc: SparseRow = {}
    for k, x in coeffs.items():
        for j, y in rows[k].items():
            acc[j] = acc.get(j, 0) + x * y
    return {j: _exact(acc[j]) for j in sorted(acc) if acc[j]}


def _mul(a: Rows, b: Rows) -> Rows:
    """The rows of a @ b, ints kept where integral and columns ascending.

    >>> _mul([{0: 1, 1: 2}], [{1: Fraction(1, 2)}, {0: 3, 1: Fraction(1, 4)}])
    [{0: 6, 1: 1}]
    """
    return [_combine(b, arow) for arow in a]


def _transpose(rows: Rows, ncols: int) -> Rows:
    """The rows of the transpose of the matrix with these rows and ncols columns.

    >>> _transpose([{0: 1, 2: 5}, {1: -1}], 3)
    [{0: 1}, {1: -1}, {0: 5}]
    """
    out: Rows = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _apply(rows: Rows, vec: SparseRow) -> SparseRow:
    """Sparse rows times a sparse vector, zero entries dropped.

    >>> _apply([{0: 1, 1: -1}, {1: 2}], {0: 3, 1: 3})
    {1: 6}
    """
    out: SparseRow = {}
    for i, row in enumerate(rows):
        s = sum(x * vec[j] for j, x in row.items() if j in vec)
        if s:
            out[i] = s
    return out


def _sub_scaled(out: SparseRow, c, row: SparseRow) -> None:
    """out -= c * row, in place, dropping entries that cancel."""
    for j, y in row.items():
        z = out.get(j, 0) - c * y
        if z:
            out[j] = z
        else:
            del out[j]


class RatMatrix:
    """Immutable-by-convention matrix kept as its sparse rows (`_rows`); `data`,
    its dense rows of Fractions, is a read-only view built on first read."""

    __slots__ = ("rows", "cols", "_rows", "_data")

    def __init__(self, rows: int, cols: int, data: list):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("matrix data does not match declared shape")
        self.rows, self.cols, self._data = rows, cols, None
        self._rows = [_normal(dict(enumerate(r)), cols) for r in data]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RatMatrix":
        data = [list(row) for row in rows]
        return cls(len(data), len(data[0]) if data else 0, data)

    @classmethod
    def from_sparse(cls, rows: Sequence[SparseRow], cols: int) -> "RatMatrix":
        """The matrix with these rows, given as column -> value maps."""
        m = cls(0, cols, [])  # refuses a negative cols
        m._rows = [_normal(row, cols) for row in rows]
        m.rows = len(m._rows)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [[0] * cols] * rows)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls.from_sparse(_identity_rows(n), n)

    @classmethod
    def diagonal(cls, values: Sequence) -> "RatMatrix":
        return cls.from_sparse([{i: x} for i, x in enumerate(values)], len(values))

    @property
    def data(self) -> list:
        if self._data is None:
            self._data = [_dense(row, self.cols) for row in self._rows]
        return self._data

    def row(self, i: int) -> list:
        return _dense(self._rows[i], self.cols)

    def transpose(self) -> "RatMatrix":
        return RatMatrix.from_sparse(_transpose(self._rows, self.cols), self.rows)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.shape() == other.shape() and self._rows == other._rows

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._rows)))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.shape()} @ {other.shape()}"
            )
        return RatMatrix.from_sparse(_mul(self._rows, other._rows), other.cols)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape() != other.shape():
            raise ValueError("shape mismatch for sum")
        return RatMatrix.from_sparse(
            [_combine(pair, {0: 1, 1: 1}) for pair in zip(self._rows, other._rows)], self.cols)

    def apply(self, vec: Sequence) -> list:
        """Matrix-vector product, returning a plain list of Fractions."""
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != column count {self.cols}")
        return _dense(_apply(self._rows, _normal(dict(enumerate(vec)), self.cols)), self.rows)

    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def __repr__(self):
        if self.rows * self.cols > 36:
            return f"RatMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RatMatrix[{body}]"


def _integral(row: SparseRow) -> Tuple[SparseRow, int]:
    """(m*row with int entries, m) for m the lcm of the entries' denominators.

    Creates no Fraction; the row itself comes back when it is all ints.
    """
    m = 0
    for x in row.values():
        if type(x) is not int:
            m = lcm(m or 1, x.denominator)
    if not m:
        return row, 1
    return {j: x * m if type(x) is int else x.numerator * (m // x.denominator)
            for j, x in row.items()}, m


def _primitive(row: SparseRow) -> SparseRow:
    """A new dict: the row scaled to integers, then divided by its content."""
    ints, _ = _integral(row)
    g = gcd(*ints.values())
    if g > 1:
        return {j: x // g for j, x in ints.items()}
    return dict(ints) if ints is row else ints


def _clear(work: List[SparseRow], targets: Sequence[int], c: int, prow: SparseRow,
           at: Optional[List[set]] = None) -> None:
    """Clear column c, in place, from the integer rows work[i], i in targets.

    prow is the pivot row, with a positive entry p at c.  With f a row's
    entry at c and g = gcd(p, f), the row becomes (p/g)*row - (f/g)*prow,
    divided by its content when p != 1.  When at is given, at[j] gains or
    loses i where column j of row i fills in or cancels.
    """
    p = prow[c]
    tail = [(j, x) for j, x in prow.items() if j != c]
    for i in targets:
        row = work[i]
        f = row.pop(c)
        if p != 1:
            g = gcd(p, f)
            f //= g
            a = p // g
            if a != 1:
                for j in row:
                    row[j] *= a
        for j, x in tail:
            y = row.get(j)
            if y is None:
                row[j] = -f * x
                if at is not None:
                    at[j].add(i)
            else:
                y -= f * x
                if y:
                    row[j] = y
                else:
                    del row[j]
                    if at is not None:
                        at[j].discard(i)
        if p != 1:
            g = gcd(*row.values())
            if g != 1:
                for j in row:
                    row[j] //= g


def _forward(rows: Sequence[SparseRow],
             ncols: int) -> Tuple[List[SparseRow], List[int], List[int], List[List[int]]]:
    """The forward pass of `sparse_echelon`: (rows, pivots, order, earlier).

    Each row is scaled to a primitive integer row; columns are scanned left
    to right.  The pivot row for a column is the unused row with the fewest
    nonzeros, lowest index on ties; its sign is flipped to make the pivot
    positive, it is divided by its content, and `_clear` clears the column
    from every other unused row.  A pivot row is never updated after it is
    chosen, so it is zero left of its pivot but not yet at later pivot
    columns.  pivots lists the pivot columns and order the pivot rows; for
    each pivot, earlier lists the earlier pivot rows with an entry at its
    column, the rows `_back` clears there.  len(pivots) is the rank.
    """
    work = [_primitive(r) for r in rows]
    at: List[Optional[set]] = [set() for _ in range(ncols)]  # column -> rows with a nonzero there
    for i, r in enumerate(work):
        for j in r:
            at[j].add(i)
    used = bytearray(len(work))
    pivots: List[int] = []
    order: List[int] = []
    above: List[List[int]] = []
    for c in range(ncols):
        hits = at[c]
        # unused rows are zero left of c, and pivot rows are no longer
        # updated, so the index of column c is never read or updated again
        at[c] = None
        best, best_len = -1, 0
        earlier, below = [], []
        for i in hits:
            if used[i]:
                earlier.append(i)
                continue
            below.append(i)
            n = len(work[i])
            if best < 0 or n < best_len or (n == best_len and i < best):
                best, best_len = i, n
        if best < 0:
            continue
        used[best] = 1
        prow = work[best]
        p = prow[c]
        if p < 0:
            prow = work[best] = {j: -x for j, x in prow.items()}
            p = -p
        if p != 1:
            g = gcd(*prow.values())
            if g != 1:
                prow = work[best] = {j: x // g for j, x in prow.items()}
        if len(below) > 1:
            below.remove(best)
            _clear(work, below, c, prow, at)
        pivots.append(c)
        order.append(best)
        above.append(earlier)
    return work, pivots, order, above


def _back(work: List[SparseRow], pivots: List[int], order: List[int],
          above: List[List[int]]) -> Tuple[List[SparseRow], Tuple[int, ...]]:
    """Back-substitution after `_forward`: the output of `sparse_echelon`.

    From the last pivot to the first, the pivot row is divided by its
    content and `_clear` clears its column from the earlier pivot rows the
    forward pass recorded.  That row is already zero at every other pivot column
    (left of its pivot since the forward pass, right of it since the later
    steps), so the pass fills in no pivot column and needs no index.
    """
    for c, i, earlier in zip(reversed(pivots), reversed(order), reversed(above)):
        prow = work[i]
        # a unit-pivot step can leave a common factor in an earlier row
        if prow[c] != 1:
            g = gcd(*prow.values())
            if g != 1:
                prow = work[i] = {j: x // g for j, x in prow.items()}
        if earlier:
            _clear(work, earlier, c, prow)
    return [work[i] for i in order], tuple(pivots)


def _rank(rows: Sequence[SparseRow], ncols: int) -> int:
    """Rank of sparse rows: the forward pass alone."""
    return len(_forward(rows, ncols)[1])


def sparse_echelon(rows: Sequence[SparseRow],
                   ncols: int) -> Tuple[List[SparseRow], Tuple[int, ...]]:
    """Fraction-free reduced echelon form: (integer pivot rows, pivot columns).

    Rows hold nonzero entries only and are not modified.  `_forward`
    eliminates below the pivots and `_back` above them.  Scaling a row
    keeps its support, so the pivot rows and the fill-in are those of
    division-based elimination.  Returns the nonzero rows in pivot order,
    row i primitive with a positive entry in column ``pivots[i]`` and zero
    in the other pivot columns: row i of the RREF times that entry.

    >>> sparse_echelon([{0: 2, 1: 1, 2: 3}, {0: 4, 1: 3, 2: 1}], 3)
    ([{0: 1, 2: 4}, {1: 1, 2: -5}], (0, 1))
    >>> sparse_echelon([{0: 2, 1: 1, 2: 3}, {0: 4, 1: 2, 2: 1}], 3)
    ([{0: 2, 1: 1}, {2: 1}], (0, 2))
    """
    return _back(*_forward(rows, ncols))


def _normalize(red: Sequence[SparseRow], pivots: Sequence[int]) -> List[SparseRow]:
    """Rows of `sparse_echelon` divided by their pivots: the RREF rows.

    Entries stay ints where integral; this is the one division by a pivot.
    """
    out = []
    for row, c in zip(red, pivots):
        p = row[c]
        if p == 1:
            out.append(row)
            continue
        norm = {}
        for j, x in row.items():
            q, r = divmod(x, p)
            norm[j] = Fraction(x, p) if r else q
        out.append(norm)
    return out


def sparse_rref(rows: Sequence[SparseRow],
                ncols: int) -> Tuple[List[SparseRow], Tuple[int, ...]]:
    """Reduced row echelon form of sparse rows: (pivot rows, pivot columns).

    `sparse_echelon` with each row divided by its pivot: row i has its
    leading 1 in column ``pivots[i]`` and entries that are ints where
    integral, Fractions otherwise.

    >>> sparse_rref([{0: 2, 1: 1}, {0: 4, 1: 2}], 2)
    ([{0: 1, 1: Fraction(1, 2)}], (0,))
    >>> sparse_rref([{0: 2, 1: 1}, {0: 4, 1: 3}], 2)
    ([{0: 1}, {1: 1}], (0, 1))
    """
    red, pivots = sparse_echelon(rows, ncols)
    return _normalize(red, pivots), pivots


def sparse_kernel(red: Sequence[SparseRow], pivots: Sequence[int],
                  ncols: int) -> List[SparseRow]:
    """Integer right-kernel basis from the output of `sparse_echelon`.

    One vector per free column f, in ascending order: a positive entry m
    at f (the lcm of the pivots of the rows with an entry at f), zero at
    the other free columns, and -(m/p)*x in pivot slot ``pivots[i]`` where
    row i has pivot p and entry x at f.  Divided by m, it is the canonical
    vector with entry 1 at f.
    """
    pivot_set = set(pivots)
    at: Dict[int, list] = {f: [] for f in range(ncols) if f not in pivot_set}
    for row, c in zip(red, pivots):
        p = row[c]
        for j, x in row.items():
            if j != c:
                at[j].append((c, p, x))
    basis = []
    for f, entries in at.items():
        m = lcm(*(p for _, p, _ in entries))
        vec = {f: m}
        for c, p, x in entries:
            vec[c] = -x * (m // p)
        basis.append(vec)
    return basis


class RrefResult(NamedTuple):
    matrix: RatMatrix
    rank: int
    pivot_cols: tuple


def rref(m: RatMatrix) -> RrefResult:
    """Reduced row echelon form; zero rows come last."""
    red, pivots = sparse_rref(m._rows, m.cols)
    zero_rows = [{}] * (m.rows - len(red))
    return RrefResult(RatMatrix.from_sparse(red + zero_rows, m.cols), len(pivots), pivots)


def rank(m: RatMatrix) -> int:
    return _rank(m._rows, m.cols)


def kernel_basis(m: RatMatrix) -> list:
    """Canonical basis of the right kernel, one vector per free column."""
    red, pivots = sparse_echelon(m._rows, m.cols)
    pivot_set = set(pivots)
    free = [f for f in range(m.cols) if f not in pivot_set]
    return [_dense(v, m.cols) for v in _normalize(sparse_kernel(red, pivots, m.cols), free)]


def _solutions(rows: Sequence[SparseRow], ncols: int,
               nrhs: int) -> Tuple[List[SparseRow], set]:
    """(solutions, outside) of A x = b_k for the rows of [A | b_0 ... b_{nrhs-1}].

    Column ncols + k of the rows holds b_k.  One `sparse_rref` of those
    columns gives, for each k, the solution with every free variable zero:
    its entry at the pivot column p of A is the row with pivot p read at
    column ncols + k.  outside holds the k with b_k outside A's column
    space, those with an entry on a row whose pivot is a right-hand side
    column; their solutions mean nothing.

    >>> _solutions([{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6, 3: 1}], 2, 2)[1]
    {1}
    >>> _solutions([{0: 2, 1: 4, 2: 3}, {0: 1, 1: 2, 2: Fraction(3, 2)}], 2, 1)
    ([{0: Fraction(3, 2)}], set())
    """
    red, pivots = sparse_rref(rows, ncols + nrhs)
    rank = bisect_left(pivots, ncols)
    out: List[SparseRow] = [{} for _ in range(nrhs)]
    for row, p in zip(red[:rank], pivots):
        for j, x in row.items():
            if j >= ncols:
                out[j - ncols][p] = x
    return out, {j - ncols for row in red[rank:] for j in row}


def _preimage(rows: Sequence[SparseRow], ncols: int) -> List[SparseRow]:
    """A preimage map of the matrix with these rows and ncols columns, as image rows.

    Row k is the image of e_k: `_solutions` of [rows | I].  For b in the
    column space, sum_k b[k] * (row k) solves rows @ x = b with every free
    variable zero, as `solve` does; for any other b it is no solution.
    """
    return _solutions([{**row, ncols + k: 1} for k, row in enumerate(rows)],
                      ncols, len(rows))[0]


def solve(a: RatMatrix, b: Sequence) -> Optional[list]:
    """One exact solution of a x = b (free variables zero), or None.

    Read off one `_solutions` of the single augmented column [a | b].
    """
    if len(b) != a.rows:
        raise ValueError(f"rhs length {len(b)} != row count {a.rows}")
    aug = [{**row, a.cols: y} if (y := _coef(x)) else row for row, x in zip(a._rows, b)]
    xs, outside = _solutions(aug, a.cols, 1)
    return None if outside else _dense(xs[0], a.cols)
