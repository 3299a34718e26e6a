"""Independent oracles used by the tests.

Everything here but `d_squared_witness`, `_composes_to_zero`,
`reference_from_cover_maps`, `interleaved_echelon`, `_reduce` and
`ReferenceCohomologyData` is written
against the mathematical definitions directly, without the package's
code, so agreement is meaningful: plain Gaussian elimination for ranks,
the dense first-nonzero Gauss-Jordan elimination as the reference for
RREF, kernel and solve, a column elimination with a unimodular transform
as the reference for saturated lattices, brute-force tuple enumeration
and cover relations, a from-scratch assembly of the cochain
differential, a dense walk over every strict triple for the functor
laws, and one dense loop each for the block scaling, the homotopies L
and Q and the pullback.  `d_squared_witness` multiplies the package's
own assembled differentials, and `_composes_to_zero` multiplies d_k by
d_{k-1} of one degree, on any complex: they are the references that the
rule `coeffsys.square_failures` (a degree refuses where a tuple ends in a
failing triple) is gated against, for `check` and for every complex that
`cochain` builds, and they fail when the assembly's signs are off.
`_composes_to_zero` is the package's former refusal test, moved here
verbatim once `cochain` took that verdict from `square_failures`.
`reference_from_cover_maps` is the eager composition loop that
`CoefficientSystem.from_cover_maps` once ran: the reference for the pairs
the system now composes on first use.  Its products are `dense_matmul`,
the dense loop `RatMatrix.__matmul__` ran before `@` went through the
sparse row kernel (`ratlin._mul`), so the reference does not run the code
under test; `dense_apply` and `dense_transpose` are the former loops of
`RatMatrix.apply` and `RatMatrix.transpose`, kept for the same reason.
`interleaved_echelon` and `ReferenceCohomologyData` are the package's own
former one-pass elimination and one-pass cohomology at a degree, kept as
the references that the two-pass kernel and the dims-first cohomology
must match byte for byte.  `_reduce`, the cross-multiplied reduction of a
cocycle against the image that `ReferenceCohomologyData` runs, is the
package's former `cochain._reduce`, moved here verbatim once `cochain`
took its classes from one elimination with the image's pivots pinned.
`plus_terms` adds terms to a `ScalarPoly` through the package's own
constructor, which drops zeros and keeps ints where integral.
"""

from fractions import Fraction
from itertools import product
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from assigncoh.cochain import _Complex
from assigncoh.momentpoly import ScalarPoly
from assigncoh.ratlin import (
    RatMatrix,
    Rows,
    SparseRow,
    _integral,
    _normalize,
    _primitive,
    _sub_scaled,
    _transpose,
    sparse_kernel,
)

_ZERO = Fraction(0)


def brute_rank(rows):
    """Row count after forward elimination; no echelon normalization."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                for c in range(col, ncols):
                    m[r][c] -= factor * m[rank][c]
        rank += 1
    return rank


def reference_rref(rows, ncols):
    """Dense Gauss-Jordan with first-nonzero pivoting: (matrix, rank, pivots).

    The reduced row echelon form for a fixed column order is unique, so
    any correct elimination must return exactly this matrix, with the zero
    rows last.
    """
    data = [[Fraction(x) for x in row] for row in rows]
    nrows = len(data)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if data[i][c]), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = 1 / data[r][c]
        data[r] = [x * inv for x in data[r]]
        for i in range(nrows):
            f = data[i][c]
            if i != r and f:
                data[i] = [a - f * b for a, b in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
    return data, len(pivots), tuple(pivots)


def reference_kernel(rows, ncols):
    """Kernel basis from reference_rref: one vector per free column, ascending."""
    red, _, pivots = reference_rref(rows, ncols)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def reference_solve(rows, ncols, b):
    """Solution of rows x = b with free variables zero, or None."""
    aug = [list(row) + [x] for row, x in zip(rows, b)]
    red, _, pivots = reference_rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return x


def interleaved_echelon(rows: Sequence[SparseRow],
                        ncols: int) -> Tuple[List[SparseRow], Tuple[int, ...]]:
    """Fraction-free reduced echelon form: (integer pivot rows, pivot columns).

    The one-pass Gauss-Jordan elimination `ratlin.sparse_echelon` ran
    before it was split into a forward and a back pass: every other row,
    earlier pivot rows included, is cleared as each pivot is chosen.

    Rows hold nonzero entries only and are not modified.  Each row is first
    scaled to a primitive integer row.  Columns are scanned left to right.
    The pivot row for a column is the unused row with the fewest nonzeros,
    lowest index on ties; its sign is flipped to make the pivot p positive,
    and every other row with an entry f in the pivot column becomes
    (p/g)*row - (f/g)*pivot_row with g = gcd(p, f).  Scaling a row keeps its
    support, so the pivot rows and the fill-in are those of division-based
    elimination.  Returns the nonzero rows in pivot order, row i primitive
    with a positive entry in column ``pivots[i]`` and zero in the other
    pivot columns: row i of the RREF times that entry.

    """
    work = [_primitive(r) for r in rows]
    at: List[Optional[set]] = [set() for _ in range(ncols)]  # column -> rows with a nonzero there
    for i, r in enumerate(work):
        for j in r:
            at[j].add(i)
    used = bytearray(len(work))
    pivots: List[int] = []
    order: List[int] = []
    for c in range(ncols):
        hits = at[c]
        # unused rows are zero left of c, so every later pivot row is zero
        # in column c and its index is never read or updated again
        at[c] = None
        best, best_len = -1, 0
        for i in hits:
            if not used[i]:
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
                p //= g
        tail = [(j, x) for j, x in prow.items() if j != c]
        for i in hits:
            if i == best:
                continue
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
                    at[j].add(i)
                else:
                    y -= f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        at[j].discard(i)
            if p != 1:
                g = gcd(*row.values())
                if g != 1:
                    for j in row:
                        row[j] //= g
        pivots.append(c)
        order.append(best)
    out = []
    for i, c in zip(order, pivots):
        row = work[i]
        # a unit-pivot step can leave a common factor in an earlier row
        if row[c] != 1:
            g = gcd(*row.values())
            if g != 1:
                row = {j: x // g for j, x in row.items()}
        out.append(row)
    return out, tuple(pivots)


def _reference_int_kernel(rows, n):
    """Basis of {x in Z^n : rows @ x = 0}; the result lattice is saturated.

    Column elimination with gcd pivoting against an identity transform: the
    transform columns that end up annihilated by every row span the kernel.
    """
    a = [list(r) for r in rows]
    # transform kept column-major: u[j] is the j-th column
    u = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    acols = [[a[i][j] for i in range(len(a))] for j in range(n)]
    frontier = 0
    for r in range(len(rows)):
        while True:
            live = [j for j in range(frontier, n) if acols[j][r]]
            if not live:
                break
            jmin = min(live, key=lambda j: abs(acols[j][r]))
            acols[frontier], acols[jmin] = acols[jmin], acols[frontier]
            u[frontier], u[jmin] = u[jmin], u[frontier]
            pv = acols[frontier][r]
            done = True
            for j in range(frontier + 1, n):
                cj = acols[j][r]
                if cj:
                    q = cj // pv
                    if q:
                        acols[j] = [x - q * y for x, y in zip(acols[j], acols[frontier])]
                        u[j] = [x - q * y for x, y in zip(u[j], u[frontier])]
                    if acols[j][r]:
                        done = False
            if done:
                frontier += 1
                break
    return [list(u[j]) for j in range(frontier, n)]


def _reference_hermite_rows(rows):
    """Unique Hermite-normal-form basis (as rows) of the lattice the rows span."""
    h = [list(r) for r in rows]
    m = len(h)
    if m == 0:
        return ()
    n = len(h[0])
    r = 0
    for c in range(n):
        while True:
            live = [i for i in range(r, m) if h[i][c]]
            if not live:
                break
            imin = min(live, key=lambda i: abs(h[i][c]))
            h[r], h[imin] = h[imin], h[r]
            pv = h[r][c]
            done = True
            for i in range(r + 1, m):
                if h[i][c]:
                    q = h[i][c] // pv
                    if q:
                        h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    if h[i][c]:
                        done = False
            if done:
                break
        if r < m and h[r][c]:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            r += 1
            if r == m:
                break
    return tuple(tuple(row) for row in h[:r])


def reference_span(n, vectors):
    """Hermite basis rows of the saturated lattice the vectors span in Z^n.

    The saturation is the kernel of the kernel, each kernel from the column
    elimination above; _reference_hermite_rows then canonicalizes it.
    """
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return ()
    perp = _reference_int_kernel(rows, n)
    if not perp:
        sat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    else:
        sat = _reference_int_kernel(perp, n)
    return _reference_hermite_rows(sat)


def brute_tuples(ids, leq, k, strict):
    """All order-compatible (k+1)-tuples, by filtering the full product."""
    out = []
    for t in product(sorted(ids), repeat=k + 1):
        good = True
        for a, b in zip(t, t[1:]):
            if strict:
                if a == b or not leq(a, b):
                    good = False
                    break
            elif not leq(a, b):
                good = False
                break
        if good:
            out.append(t)
    return out


def brute_covers(ids, leq):
    """Pairs x < y with no z strictly between them (the transitive reduction)."""
    ids = sorted(ids)
    return [
        (x, y) for x in ids for y in ids
        if x != y and leq(x, y)
        and not any(z not in (x, y) and leq(x, z) and leq(z, y) for z in ids)
    ]


def brute_assignment_dim(ids, leq, dims, proj_rows):
    """dim of { per-stratum values | proj(x,y) v(x) = v(y) for all x < y }.

    proj_rows(x, y) must return the projection as a list of row lists.
    """
    order = sorted(ids)
    offset = {}
    total = 0
    for x in order:
        offset[x] = total
        total += dims[x]
    rows = []
    for x in order:
        for y in order:
            if x == y or not leq(x, y):
                continue
            p = proj_rows(x, y)
            for r in range(dims[y]):
                row = [Fraction(0)] * total
                for c in range(dims[x]):
                    row[offset[x] + c] = Fraction(p[r][c])
                row[offset[y] + r] -= 1
                rows.append(row)
    return total - brute_rank(rows)


def brute_functor_violations(ids, leq, dims, proj_rows):
    """(identity violations, composition violations), sorted, by a dense walk.

    A stratum x violates the identity law when proj(x, x) is not the
    identity; a strict triple x < y < z violates composition when
    proj(y, z) proj(x, y) != proj(x, z).  Every stratum and every triple
    is checked.  proj_rows(x, y) must return the projection as row lists.
    """
    order = sorted(ids)

    def proj(x, y):
        return [[Fraction(e) for e in row] for row in proj_rows(x, y)]

    def mul(a, b, ncols):
        return [[sum((r[k] * b[k][j] for k in range(len(b))), Fraction(0))
                 for j in range(ncols)] for r in a]

    identity = [x for x in order if proj(x, x) != [
        [Fraction(int(i == j)) for j in range(dims[x])] for i in range(dims[x])]]
    composition = [
        (x, y, z) for x in order for y in order for z in order
        if x != y and y != z and leq(x, y) and leq(y, z)
        and mul(proj(y, z), proj(x, y), dims[x]) != proj(x, z)]
    return identity, composition


def _basis(ids, leq, dims, k, strict):
    tuples = [t for t in brute_tuples(ids, leq, k, strict) if dims[t[-1]] > 0]
    offsets = {}
    total = 0
    for t in tuples:
        offsets[t] = total
        total += dims[t[-1]]
    return tuples, offsets, total


def brute_differential(ids, leq, dims, proj_rows, k, strict):
    """Matrix of d: C^k -> C^{k+1} assembled straight from the formula."""
    src_t, src_off, src_dim = _basis(ids, leq, dims, k, strict)
    dst_t, dst_off, dst_dim = _basis(ids, leq, dims, k + 1, strict)
    mat = [[Fraction(0)] * src_dim for _ in range(dst_dim)]
    for t in dst_t:
        base = dst_off[t]
        w = dims[t[-1]]
        for ell in range(len(t) - 1):
            face = t[:ell] + t[ell + 1:]
            if face in src_off:
                sign = -1 if ell % 2 else 1
                for r in range(w):
                    mat[base + r][src_off[face] + r] += sign
        face = t[:-1]
        if face in src_off:
            sign = -1 if (len(t) - 1) % 2 else 1
            p = proj_rows(t[-2], t[-1])
            for r in range(w):
                for c in range(dims[t[-2]]):
                    mat[base + r][src_off[face] + c] += sign * Fraction(p[r][c])
    return mat, src_dim, dst_dim


def brute_cohomology_dim(ids, leq, dims, proj_rows, k, strict):
    """dim ker d_k - rank d_{k-1}, everything recomputed from scratch."""
    d_k, src_dim, _ = brute_differential(ids, leq, dims, proj_rows, k, strict)
    nullity = src_dim - brute_rank(d_k)
    if k == 0:
        return nullity
    d_prev, _, _ = brute_differential(ids, leq, dims, proj_rows, k - 1, strict)
    return nullity - brute_rank(d_prev)


def system_adapter(system):
    """(ids, leq, dims, proj_rows) tuple for a package CoefficientSystem."""
    space = system.space
    dims = dict(system.dims)

    def proj_rows(x, y):
        m = system.proj(x, y)
        return [list(m.row(i)) for i in range(m.rows)]

    return list(space.ids), space.leq, dims, proj_rows


def d_squared_witness(v, max_degree, strict=True):
    """First degree k <= max_degree with d_{k+1} d_k != 0, or None.

    The two sparse differentials are composed row by row, stopping at the
    first nonzero row of the product.
    """
    cx = _Complex(v, strict)
    for k in range(max_degree + 1):
        lo = cx.d(k)
        for row in cx.d(k + 1):
            acc = {}
            for j, x in row.items():
                for i, y in lo[j].items():
                    acc[i] = acc.get(i, 0) + x * y
            if any(acc.values()):
                return k
    return None


def _composes_to_zero(d_in_t: Rows, d_out: Rows, ncols: int) -> bool:
    """Whether d_k d_{k-1} = 0, given the rows of d_k and of d_{k-1}'s transpose.

    Each image vector d_{k-1} e_i goes through d_k by the columns of d_k;
    the walk stops at the first nonzero product.
    """
    cols = _transpose(d_out, ncols)
    for vec in d_in_t:
        acc: SparseRow = {}
        for j, y in vec.items():
            for r, x in cols[j].items():
                acc[r] = acc.get(r, 0) + x * y
        if any(acc.values()):
            return False
    return True


def dense_matmul(self: RatMatrix, other: RatMatrix) -> RatMatrix:
    """self @ other by the dense loop `RatMatrix.__matmul__` once ran, verbatim."""
    if self.cols != other.rows:
        raise ValueError(
            f"shape mismatch for product: {self.shape()} @ {other.shape()}"
        )
    out = [[_ZERO] * other.cols for _ in range(self.rows)]
    for i in range(self.rows):
        srow = self.data[i]
        orow = out[i]
        for k in range(self.cols):
            a = srow[k]
            if not a:
                continue
            brow = other.data[k]
            for j in range(other.cols):
                b = brow[j]
                if b:
                    orow[j] += a * b
    return RatMatrix(self.rows, other.cols, out)


def dense_apply(m: RatMatrix, vec) -> List[Fraction]:
    """m applied to a vector, by the dense loop `RatMatrix.apply` once ran."""
    if len(vec) != m.cols:
        raise ValueError(f"vector length {len(vec)} != column count {m.cols}")
    out = []
    for i in range(m.rows):
        srow = m.data[i]
        acc = _ZERO
        for j, v in enumerate(vec):
            if v:
                acc += srow[j] * Fraction(v)
        out.append(acc)
    return out


def dense_transpose(m: RatMatrix) -> RatMatrix:
    """The transpose, by the dense loop `RatMatrix.transpose` once ran."""
    data = [[m.data[i][j] for i in range(m.rows)] for j in range(m.cols)]
    return RatMatrix(m.cols, m.rows, data)


def reference_from_cover_maps(space, dims, cover_maps, explicit=None):
    """Every weakly comparable pair's projection, composed eagerly.

    Each pair is composed along the first path a walk up from its lower
    end reaches it by, in the order of shrinking upset, then id; entries in
    explicit override the result afterwards.
    """
    proj = {}
    for x in space.ids:
        proj[(x, x)] = RatMatrix.identity(dims[x])
    succ = {x: [] for x in space.ids}
    for x, y in space.covers:
        succ[x].append(y)
        proj[(x, y)] = cover_maps[(x, y)]
    # strata sorted by shrinking upset is a linear extension of the order,
    # so proj[(x, y)] is composed by the time the walk above x reaches y
    topo = sorted(space.ids, key=lambda x: (-len(space.upset(x)), x))
    position = {y: i for i, y in enumerate(topo)}
    for x in space.ids:
        for y in sorted(space.above(x), key=position.__getitem__):
            for z in sorted(succ[y]):
                if (x, z) not in proj:
                    proj[(x, z)] = dense_matmul(proj[(y, z)], proj[(x, y)])
    if explicit:
        for pair, m in explicit.items():
            proj[pair] = m
    return proj


# ---------------------------------------------------------------------------
# dense chain-level operators on weak tuples, one dense loop each.  A basis
# is read through its `tuples`, `offsets` and `block_dims` only.

def _by_tuple(basis):
    return {t: off for t, off in zip(basis.tuples, basis.offsets)}


def _zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def _runs(t):
    out = []
    for x in t:
        if out and out[-1][0] == x:
            out[-1] = (x, out[-1][1] + 1)
        else:
            out.append((x, 1))
    return out


def reference_block_scaling(basis):
    """Diagonal matrix: each tuple's coordinates times its runs of length > 1."""
    diag = []
    for t, w in zip(basis.tuples, basis.block_dims):
        diag.extend([Fraction(sum(1 for _, m in _runs(t) if m > 1))] * w)
    mat = _zeros(len(diag), len(diag))
    for i, c in enumerate(diag):
        mat[i][i] = c
    return mat


def reference_homotopy_L(src, dst):
    """Matrix of L from degree k (src) to degree k-1 (dst).

    The j-th summand repeats the j-th run of the tuple once more, with sign
    (-1)^(length of the runs before it).
    """
    col = _by_tuple(src)
    mat = _zeros(sum(dst.block_dims), sum(src.block_dims))
    for t, r0, w in zip(dst.tuples, dst.offsets, dst.block_dims):
        if w == 0:
            continue
        runs = _runs(t)
        prefix = 0
        for j, (_, m) in enumerate(runs):
            fat = []
            for jj, (y, mm) in enumerate(runs):
                fat.extend([y] * (mm + 1 if jj == j else mm))
            c0 = col.get(tuple(fat))
            if c0 is not None:
                s = Fraction(1) if prefix % 2 == 0 else Fraction(-1)
                for i in range(w):
                    mat[r0 + i][c0 + i] += s
            prefix += m
    return mat


def reference_homotopy_Q(src, dst, x0):
    """Matrix of Q from degree k (src) to degree k-1 (dst): prepend x0."""
    col = _by_tuple(src)
    mat = _zeros(sum(dst.block_dims), sum(src.block_dims))
    for t, r0, w in zip(dst.tuples, dst.offsets, dst.block_dims):
        c0 = col.get((x0,) + t)
        if w == 0 or c0 is None:
            continue
        for i in range(w):
            mat[r0 + i][c0 + i] += Fraction(1)
    return mat


def reference_pullback(src, dst, image, bridge_rows):
    """Matrix of the pullback from target cochains (dst) to source cochains (src).

    image maps a source stratum to its target stratum, and bridge_rows(x)
    gives the rows of the matrix carrying the value at image(x) to x.
    """
    col = _by_tuple(dst)
    mat = _zeros(sum(src.block_dims), sum(dst.block_dims))
    for t, r0, w in zip(src.tuples, src.offsets, src.block_dims):
        c0 = col.get(tuple(image(x) for x in t))
        if w == 0 or c0 is None:
            continue
        for i, brow in enumerate(bridge_rows(t[-1])):
            for j, x in enumerate(brow):
                if x:
                    mat[r0 + i][c0 + j] += x
    return mat


def _reduce(vec: SparseRow, at: Dict[int, SparseRow]) -> Tuple[SparseRow, int]:
    """(s*vec minus a combination of the rows in at, s): vec reduced, cross-multiplied.

    at maps pivot columns to integer echelon rows (`sparse_echelon`), each
    zero at the other pivots, and vec has integer entries.  The result is
    zero at every pivot; s > 0 collects the row scalings, so no division
    happens and the entries stay ints.
    """
    out = dict(vec)
    s = 1
    for c in [c for c in vec if c in at]:
        row = at[c]
        p, f = row[c], out[c]
        if p != 1:
            g = gcd(p, f)
            f //= g
            a = p // g
            if a != 1:
                for j in out:
                    out[j] *= a
                s *= a
        _sub_scaled(out, f, row)
    return out, s


class ReferenceCohomologyData:
    """Kernel, image and canonical representatives at one degree, in one pass.

    The body `cochain._CohomologyData` had before it took dimensions from
    ranks first, with `interleaved_echelon` for every elimination: the
    cocycles are the kernel of d_k, each is reduced against the image, and
    the representatives are the echelon form of what remains.
    """

    def __init__(self, d_in_t, d_out, dim_chain):
        self.dim_chain = dim_chain
        self.cocycles = sparse_kernel(*interleaved_echelon(d_out, dim_chain), dim_chain)
        im_rows, im_pivots = interleaved_echelon(d_in_t, dim_chain)
        self.im_rank = len(im_pivots)
        self._im_at = dict(zip(im_pivots, im_rows))
        reduced = [_reduce(z, self._im_at)[0] for z in self.cocycles]
        rep_rows, self.rep_pivots = interleaved_echelon(reduced, dim_chain)
        self._rep_at = dict(zip(self.rep_pivots, rep_rows))
        self._rep_rows = _normalize(rep_rows, self.rep_pivots)
        self.dim = len(self.rep_pivots)

    def class_coords(self, vec):
        """Coordinates of a cocycle's class over the canonical representatives.

        Raises ValueError when vec is not a cocycle.
        """
        vec, m = _integral(vec)
        red, s = _reduce(vec, self._im_at)
        # the reduced cocycles are exactly the span of the representatives
        if _reduce(red, self._rep_at)[0]:
            raise ValueError("vector does not represent a cohomology class here")
        return [Fraction(red.get(p, 0), s * m) for p in self.rep_pivots]


def plus_terms(s: ScalarPoly, terms) -> ScalarPoly:
    """s plus the {key: coefficient} terms, normalized by the constructor."""
    out = dict(s.terms)
    for key, c in terms.items():
        out[key] = out.get(key, 0) + c
    return ScalarPoly(s.d, out)
