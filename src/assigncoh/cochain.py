"""Cochain complexes on ordered stratum tuples and their cohomology.

A degree-k cochain assigns to each weakly increasing (k+1)-tuple of strata
a value in the coefficient space of the tuple's top stratum.  The
differential alternates over dropped entries; dropping the top entry costs
a projection:

    (d phi)(X0,...,X_{k+1}) =
        sum_{l=0}^{k} (-1)^l phi(...,X_{l-1},X_{l+1},...)
        + (-1)^{k+1} proj(X_k,X_{k+1}) phi(X0,...,X_k)

The reduced complex keeps only strictly increasing tuples; it computes the
same cohomology, which the homotopy operators in this module certify
degree by degree.  In degree 0 the strict, unfiltered complex takes its
cocycles (the assignments) from the rows of d_0 at the system's cut pairs
(`CoefficientSystem._cut`: the covers and explicit entries, from which
every other pair is composed): they have the kernel of d_0, hence the
same reduced echelon form and the same canonical representatives.  The
differential d_0 itself stays whole, for degree 1 and the connecting
maps.  Relative complexes (cochains vanishing on tuples inside a chosen
stratum subset) reuse the same assembly with a tuple filter.

One routine, `_assemble`, assembles every chain-level operator: the
differential, the block scaling, the homotopies L and Q and the pullback
each list, for a tuple, the tuples it reaches with a sign and a block, and
`_assemble` writes those blocks into sparse rows.  It is the only code that
looks up faces.

Both long exact sequences, of a pair and of a short exact sequence of
coefficient systems, come from one routine given the three complexes and
the sequence's stratum maps f and g; a pair has none, and its blocks move
unchanged.  Each chain map acts on one tuple's block at a time, through
per-stratum rows at the tuple's top stratum: the image rows of f or g, or
of a preimage map of f or g (`ratlin._preimage`), built once per stratum.
The block map `_carry` does that, and `pullback` uses it for its change
of basis.  Beside the public accessors (`ChainBasis.block`,
`Cochain.value_on`), `_assemble` and `_carry` are the only code that looks
up blocks by tuple.  The routine checks that every connecting value lies
in the image of the first complex, builds the induced maps on canonical
representatives as sparse image rows, then checks exactness node by node.

A cochain is a sparse vector (column -> nonzero entry, ints where
integral) from assembly to the connecting map: differentials, kernels,
representatives and both long exact sequences work on such rows, and
the two passes of `ratlin.sparse_echelon` do every elimination,
fraction-free.  A degree's dimension is a rank, from the forward pass on
d_k with the image's pivot columns pinned to zero; a degree k >= 1 where
d_k d_{k-1} != 0 has no cohomology and raises ValueError.  Only a degree
with classes takes the kernel, whose RREF is the representatives.  Dense
lists of Fractions appear only in public values (`Cochain`,
`differential_matrix`, the homotopy operators, pullbacks), converted once
when they are returned.
Kernel/image bookkeeping is canonical: representatives come from reduced
row echelon forms, so equal inputs give byte-equal outputs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coeffsys import (
    CoefficientSystem,
    SystemMorphism,
    _check_subset,
    _mul,
    check_functor,
    moment_system,
    ses_check,
)
from .errors import (
    InvalidMorphismError,
    NotExactError,
    NoUniqueMinimumError,
)
from .ratlin import (
    RatMatrix,
    SparseRow,
    _back,
    _forward,
    _frac,
    _normalize,
    _preimage,
    _rank,
    sparse_kernel,
    sparse_rref,
)
from .stratposet import PosetMap, chains, minimal_strata, poset_morphism_check

_ZERO = Fraction(0)


class ChainBasis:
    """Ordered tuples of one degree with coordinate offsets for their blocks.

    Tuples whose top stratum has dimension zero stay in the list (they are
    legitimate chains) but contribute no coordinates.
    """

    def __init__(self, system: CoefficientSystem, degree: int, strict: bool,
                 tuples: Sequence[Tuple[str, ...]]):
        self.system = system
        self.degree = degree
        self.strict = strict
        self.tuples = tuple(tuples)
        offsets = []
        dims = []
        pos = 0
        for t in self.tuples:
            offsets.append(pos)
            d = system.dims[t[-1]]
            dims.append(d)
            pos += d
        self.offsets = tuple(offsets)
        self.block_dims = tuple(dims)
        self.total_dim = pos
        self.index = {t: i for i, t in enumerate(self.tuples)}

    def block(self, t: Tuple[str, ...]) -> Optional[Tuple[int, int]]:
        """(offset, width) of a tuple's coordinate block, or None."""
        i = self.index.get(t)
        if i is None:
            return None
        return (self.offsets[i], self.block_dims[i])


class Cochain:
    """A vector in one chain space, addressable by tuple."""

    def __init__(self, basis: ChainBasis, coords: Sequence):
        if len(coords) != basis.total_dim:
            raise ValueError(
                f"coordinate length {len(coords)} != chain dimension {basis.total_dim}"
            )
        self.basis = basis
        self.coords = tuple(_frac(c) for c in coords)

    def value_on(self, t: Tuple[str, ...]) -> List[Fraction]:
        if len(t) != self.basis.degree + 1:
            raise ValueError(f"tuple length {len(t)} != degree+1")
        blk = self.basis.block(tuple(t))
        if blk is None:
            return [_ZERO] * self.basis.system.dims[t[-1]]
        off, w = blk
        return list(self.coords[off:off + w])

    def as_dict(self) -> Dict[Tuple[str, ...], List[Fraction]]:
        out = {}
        for t, off, w in zip(self.basis.tuples, self.basis.offsets, self.basis.block_dims):
            vals = list(self.coords[off:off + w])
            if any(vals):
                out[t] = vals
        return out

    def __repr__(self):
        return f"Cochain(degree={self.basis.degree}, {self.as_dict()})"


def _filtered_tuples(ts: Sequence[Tuple[str, ...]], support) -> Sequence[Tuple[str, ...]]:
    if support is None:
        return ts
    kind, nset = support
    if kind == "rel":
        return [t for t in ts if any(x not in nset for x in t)]
    if kind == "sub":
        return [t for t in ts if all(x in nset for x in t)]
    raise ValueError(f"unknown support kind {kind!r}")


def chain_basis(v: CoefficientSystem, k: int, strict: bool = True, support=None) -> ChainBasis:
    return ChainBasis(v, k, strict, _filtered_tuples(chains(v.space, k, strict), support))


def chain_space_dim(v: CoefficientSystem, k: int, strict: bool = True) -> int:
    return chain_basis(v, k, strict).total_dim


Rows = List[SparseRow]


def _assemble(rows_of: ChainBasis, cols_of: ChainBasis, terms) -> Rows:
    """Sparse rows of a chain-level operator, one per coordinate of rows_of.

    For each tuple t of rows_of, terms(t) lists (u, sign, block): sign times
    block (a projection's sparse rows, or None for the identity) goes into
    the rows of t at the columns of u in cols_of.  Tuples that cols_of
    lacks are skipped, and entries that cancel (repeated faces of a weak
    tuple) are dropped.
    """
    index, offsets = cols_of.index, cols_of.offsets
    rows: Rows = []
    for t, w in zip(rows_of.tuples, rows_of.block_dims):
        if not w:
            continue
        block = [{} for _ in range(w)]
        for u, s, m in terms(t):
            i = index.get(u)
            if i is None:
                continue
            c0 = offsets[i]
            if m is None:
                for c, row in enumerate(block, c0):
                    row[c] = row.get(c, 0) + s
                continue
            for row, mrow in zip(block, m):
                for c, x in mrow.items():
                    c += c0
                    row[c] = row.get(c, 0) + s * x
        rows.extend(row if all(row.values()) else {c: x for c, x in row.items() if x}
                    for row in block)
    return rows


def _differential(v: CoefficientSystem, src: ChainBasis, dst: ChainBasis) -> Rows:
    """Sparse rows of d from src to dst, one per coordinate of dst.

    Faces keeping the top stratum are identity blocks with alternating
    sign; dropping the top stratum projects the value.
    """
    proj = v._rows

    def terms(t):
        n = len(t) - 1
        out = [(t[:i] + t[i + 1:], -1 if i & 1 else 1, None) for i in range(n)]
        out.append((t[:-1], -1 if n & 1 else 1, proj(t[-2], t[-1])))
        return out

    return _assemble(dst, src, terms)


def _transpose(rows: Rows, ncols: int) -> Rows:
    out: Rows = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _apply(rows: Rows, vec: SparseRow) -> SparseRow:
    """Sparse rows times a sparse vector, zero entries dropped."""
    out: SparseRow = {}
    for i, row in enumerate(rows):
        s = sum(x * vec[j] for j, x in row.items() if j in vec)
        if s:
            out[i] = s
    return out


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


def _sub_scaled(out: SparseRow, c, row: SparseRow) -> None:
    """out -= c * row, in place, dropping entries that cancel."""
    for j, y in row.items():
        z = out.get(j, 0) - c * y
        if z:
            out[j] = z
        else:
            del out[j]


def differential_matrix(v: CoefficientSystem, k: int, strict: bool = True) -> RatMatrix:
    """Matrix of d from degree k to degree k+1 in the chosen complex."""
    src = chain_basis(v, k, strict)
    return RatMatrix.from_sparse(
        _differential(v, src, chain_basis(v, k + 1, strict)), src.total_dim
    )


class _CohomologyData:
    """Kernel, image, and canonical representatives at one degree of a complex.

    d_out holds the sparse rows of d_k and d_in_t those of the transpose of
    d_{k-1} (no rows in degree 0); dim_chain is dim C^k, and d_k d_{k-1} = 0
    (`_Complex.data` refuses other degrees).  The forward pass of
    `ratlin.sparse_echelon` on d_in_t gives the image's rank and pivot
    columns P.  The cocycles that vanish on P, W = ker [d_k ; e_p, p in P],
    complement the image in ker d_k, so dim H^k = dim C^k - rank of those
    pinned rows.  Only when dim > 0 does the canonical pass run: the back
    pass, the kernel W (`cocycles`, else None) and its RREF, the canonical
    representatives.
    """

    def __init__(self, d_in_t: Rows, d_out: Rows, dim_chain: int):
        self.dim_chain = dim_chain
        self._im = _forward(d_in_t, dim_chain)
        pins = self._im[1]
        self.im_rank = len(pins)
        pinned = _forward(d_out + [{p: 1} for p in pins], dim_chain)
        self.dim = dim_chain - len(pinned[1])
        self.dim_cocycles = self.dim + self.im_rank
        self.cocycles, self._rep_rows, self.rep_pivots = None, [], ()
        if self.dim:
            self.cocycles = sparse_kernel(*_back(*pinned), dim_chain)
            self._rep_rows, self.rep_pivots = sparse_rref(self.cocycles, dim_chain)

    @cached_property
    def _im_at(self) -> Dict[int, SparseRow]:
        """The image's RREF rows by pivot column, built on first use: only
        `class_coords`, for the long exact sequences, reads them."""
        rows, pivots = _back(*self._im)
        return dict(zip(pivots, _normalize(rows, pivots)))

    def class_coords(self, vec: SparseRow) -> List[Fraction]:
        """Coordinates of a cocycle's class over the canonical representatives.

        A cocycle is sum_{p in P} vec[p] * (image row p) + w, w in W.  Raises
        ValueError when vec is not a cocycle.
        """
        out = dict(vec)
        for p in [p for p in vec if p in self._im_at]:
            _sub_scaled(out, vec[p], self._im_at[p])
        coords = [out.get(q, 0) for q in self.rep_pivots]
        for c, row in zip(coords, self._rep_rows):
            if c:
                _sub_scaled(out, c, row)
        if out:
            raise ValueError("vector does not represent a cohomology class here")
        return [_frac(c) for c in coords]


@dataclass
class CohomologyResult:
    degree: int
    dim: int
    representatives: List[Cochain]
    diagnostics: Dict[str, int]


class _Complex:
    """Lazy basis/differential/cohomology cache for one filtered complex.

    A complex with a support can filter the tuples of `whole`, the
    unfiltered complex of the same system, instead of enumerating chains.
    """

    def __init__(self, v: CoefficientSystem, strict: bool = True, support=None,
                 whole: Optional["_Complex"] = None):
        self.v = v
        self.strict = strict
        self.support = support
        self.whole = whole
        self._bases: Dict[int, ChainBasis] = {}
        self._ds: Dict[int, Rows] = {}
        self._data: Dict[int, _CohomologyData] = {}

    def basis(self, k: int) -> ChainBasis:
        if k not in self._bases:
            ts = (self.whole.basis(k).tuples if self.whole is not None
                  else chains(self.v.space, k, self.strict))
            self._bases[k] = ChainBasis(self.v, k, self.strict,
                                        _filtered_tuples(ts, self.support))
        return self._bases[k]

    def d(self, k: int) -> Rows:
        if k not in self._ds:
            self._ds[k] = _differential(self.v, self.basis(k), self.basis(k + 1))
        return self._ds[k]

    def data(self, k: int) -> _CohomologyData:
        if k not in self._data:
            src = self.basis(k)
            if k > 0:
                d_in_t, d_out = _transpose(self.d(k - 1), self.basis(k - 1).total_dim), self.d(k)
                if not _composes_to_zero(d_in_t, d_out, src.total_dim):
                    raise ValueError(f"degree {k} has no cohomology: d_{k} d_{k - 1} != 0, "
                                     "so the system fails the functor laws (see `check`)")
            elif self.strict and self.support is None:
                # the rows of d_0 at the system's cut pairs have its kernel
                d_in_t, d_out = [], _differential(
                    self.v, src, ChainBasis(self.v, 1, True, self.v._cut))
            else:
                d_in_t, d_out = [], self.d(0)
            self._data[k] = _CohomologyData(d_in_t, d_out, src.total_dim)
        return self._data[k]

    def result(self, k: int) -> CohomologyResult:
        data = self.data(k)
        basis = self.basis(k)
        reps = [Cochain(basis, r)
                for r in RatMatrix.from_sparse(data._rep_rows, basis.total_dim).data]
        diag = {
            "dim_chain": data.dim_chain,
            "dim_cocycles": data.dim_cocycles,
            "rank_coboundaries": data.im_rank,
        }
        return CohomologyResult(k, data.dim, reps, diag)


def cohomology(v: CoefficientSystem, k: int, strict: bool = True) -> CohomologyResult:
    """Cohomology at degree k with canonical echelon representatives.

    Raises ValueError in a degree k >= 1 where d_k d_{k-1} != 0.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    return _Complex(v, strict).result(k)


def assignment_space_dim(v: CoefficientSystem) -> int:
    return cohomology(v, 0, strict=True).dim


def euler_characteristic(v: CoefficientSystem) -> int:
    """Alternating sum of reduced chain dimensions, by counting chains.

    N_k(y), the number of strict chains of k+1 strata ending at y, is 1 for
    k = 0 and the sum of N_{k-1}(x) over x < y; the result is
    sum_k (-1)^k sum_y dim V(y) N_k(y).  No chain is enumerated.
    """
    space = v.space
    counts = dict.fromkeys(space.ids, 1)
    total, sign = 0, 1
    while any(counts.values()):
        total += sign * sum(v.dims[y] * n for y, n in counts.items())
        counts = {y: sum(counts[x] for x in space.below(y)) for y in space.ids}
        sign = -sign
    return total


# ---------------------------------------------------------------------------
# homotopy operators on the full complex

def repeated_block_count(t: Tuple[str, ...]) -> int:
    """Number of run-length blocks of length > 1 in the tuple."""
    return sum(len(list(run)) > 1 for _, run in groupby(t))


def block_scaling_matrix(v: CoefficientSystem, k: int) -> RatMatrix:
    """Diagonal operator scaling each degree-k tuple by its repeated blocks."""
    basis = chain_basis(v, k, strict=False)
    rows = _assemble(basis, basis, lambda t: [(t, repeated_block_count(t), None)])
    return RatMatrix.from_sparse(rows, basis.total_dim)


def homotopy_L(v: CoefficientSystem, k: int) -> RatMatrix:
    """Degree-lowering operator fattening one block at a time, full complex.

    On a tuple with blocks X0^(m0) ... Xl^(ml) the j-th summand repeats Xj
    once more and carries sign (-1)^(m0+...+m_{j-1}).  Together with the
    differential it satisfies dL + Ld = block scaling, which is the exact
    identity the reduction to strict tuples rests on.
    """
    if k < 1:
        raise ValueError("homotopy_L is defined for degree >= 1")
    src = chain_basis(v, k, strict=False)
    dst = chain_basis(v, k - 1, strict=False)

    def terms(t):
        # block j starts at i: repeat t[i] there
        return [(t[:i] + t[i:i + 1] + t[i:], -1 if i & 1 else 1, None)
                for i in range(len(t)) if i == 0 or t[i] != t[i - 1]]

    return RatMatrix.from_sparse(_assemble(dst, src, terms), src.total_dim)


def homotopy_Q(v: CoefficientSystem, k: int) -> RatMatrix:
    """Contraction prepending the unique minimal stratum, full complex.

    Satisfies dQ + Qd = identity in every degree >= 1, which collapses the
    cohomology of a space with a unique minimal stratum onto that stratum's
    coefficient space.
    """
    if k < 1:
        raise ValueError("homotopy_Q is defined for degree >= 1")
    minima = minimal_strata(v.space)
    if len(minima) != 1:
        raise NoUniqueMinimumError(minima)
    x0 = minima[0]
    src = chain_basis(v, k, strict=False)
    dst = chain_basis(v, k - 1, strict=False)
    rows = _assemble(dst, src, lambda t: [((x0,) + t, 1, None)])
    return RatMatrix.from_sparse(rows, src.total_dim)


# ---------------------------------------------------------------------------
# relative complexes and long exact sequences

def relative_cohomology(
    v: CoefficientSystem, n: Iterable[str], k: int, strict: bool = True
) -> CohomologyResult:
    """Cohomology of cochains vanishing on tuples lying entirely inside n.

    Raises ValueError in a degree k >= 1 where this complex's d_k d_{k-1} != 0.
    """
    nset = _check_subset(v.space, n)
    return _Complex(v, strict, support=("rel", nset)).result(k)


def _carry(vec: SparseRow, src: ChainBasis, dst: ChainBasis,
           blocks: Optional[Dict[str, Rows]] = None) -> SparseRow:
    """The block map: vec's blocks carried to the same tuples of dst.

    Tuples that dst lacks are dropped.  With blocks, each block goes
    through the rows blocks[x] at the tuple's top stratum x, one row per
    coordinate of the block: the image of that basis vector.  Empty blocks
    share the offset of the next block.
    """
    at: Dict[int, SparseRow] = {}
    for j, x in vec.items():
        i = bisect_right(src.offsets, j) - 1
        at.setdefault(i, {})[j - src.offsets[i]] = x
    out: SparseRow = {}
    for i, blk in at.items():
        t = src.tuples[i]
        o = dst.block(t)
        if o is None:
            continue
        if blocks is not None:
            blk = _mul([blk], blocks[t[-1]])[0]
        out.update((o[0] + r, x) for r, x in blk.items())
    return out


@dataclass
class ExactSequenceReport:
    """Dims and map ranks of a three-term-per-degree long sequence."""

    node_names: List[str]
    node_dims: List[int]
    map_ranks: List[int]
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def dims_by_degree(self) -> List[Tuple[int, ...]]:
        out = []
        for i in range(0, len(self.node_dims), 3):
            out.append(tuple(self.node_dims[i:i + 3]))
        return out


def _exactness_walk(node_names, node_dims, maps) -> ExactSequenceReport:
    """Check ker = im at every node of 0 -> N0 -> N1 -> ... -> 0.

    maps[i] sends node i to node i+1, as image rows (of node i's basis); the
    virtual maps into node 0 and out of the last node are zero.  Exactness
    at a node is composition zero plus the rank count rank(in) + rank(out) = dim.
    """
    failures = []
    ranks = [_rank(m, node_dims[i + 1]) for i, m in enumerate(maps)]
    for i, name in enumerate(node_names):
        rin = ranks[i - 1] if i > 0 else 0
        rout = ranks[i] if i < len(maps) else 0
        if 0 < i < len(maps) and any(_mul(maps[i - 1], maps[i])):
            failures.append(f"composition through {name} is nonzero")
        if rin + rout != node_dims[i]:
            failures.append(
                f"rank mismatch at {name}: in {rin} + out {rout} != dim {node_dims[i]}"
            )
    return ExactSequenceReport(list(node_names), list(node_dims), ranks, failures)


def _induced_rows(target: _CohomologyData, images: Iterable[SparseRow]) -> Rows:
    """Image rows of an induced map: the class coordinates in target of each cocycle."""
    return [{i: x for i, x in enumerate(target.class_coords(vec)) if x} for vec in images]


def _long_exact_sequence(labels, a: _Complex, b: _Complex, c: _Complex,
                         f: Optional[SystemMorphism] = None,
                         g: Optional[SystemMorphism] = None) -> ExactSequenceReport:
    """Long exact cohomology sequence of a short exact sequence 0 -> a -> b -> c -> 0.

    labels names the three terms.  The chain maps act on each tuple's block
    alone (`_carry`): i carries a into b through the stratum maps f and p
    carries b into c through g; with no maps, as for a pair, every block
    moves unchanged.  The connecting map lifts a cocycle of c through g's
    preimage map (free variables zero), applies d_b and retracts through
    f's; carrying the retracted value back through i must give d_b of the
    lift again.  Degrees run to one past the last nonzero chain space of b,
    beyond which everything is zero.  The induced maps need cocycles to
    stay cocycles, which holds only for functors (`_require_functors`).
    """
    top = 0
    while b.basis(top + 1).tuples:
        top += 1
    # image rows of f and g and of their preimage maps at each stratum; None for a pair
    f_img, f_pre, g_img, g_pre = (
        h and {x: make(rows, h.source.dims[x]) for x, rows in h._rows.items()}
        for h in (f, g) for make in (_transpose, _preimage))

    def connect(k, r):
        w = _apply(b.d(k), _carry(r, c.basis(k), b.basis(k), g_pre))
        lo, hi = a.basis(k + 1), b.basis(k + 1)
        back = _carry(w, hi, lo, f_pre)
        if _carry(back, lo, hi, f_img) != w:
            raise AssertionError(
                f"connecting value in degree {k + 1} leaves the image of {labels[0]}"
            )
        return back

    names: List[str] = []
    dims: List[int] = []
    maps: List[Rows] = []
    for k in range(top + 2):
        ha, hb, hc = a.data(k), b.data(k), c.data(k)
        ba, bb, bc = a.basis(k), b.basis(k), c.basis(k)
        names += [f"H^{k}({label})" for label in labels]
        dims += [ha.dim, hb.dim, hc.dim]
        maps.append(_induced_rows(hb, (_carry(r, ba, bb, f_img) for r in ha._rep_rows)))
        maps.append(_induced_rows(hc, (_carry(r, bb, bc, g_img) for r in hb._rep_rows)))
        if k <= top:
            maps.append(_induced_rows(a.data(k + 1), (connect(k, r) for r in hc._rep_rows)))
    return _exactness_walk(names, dims, maps)


def _require_functors(*systems: CoefficientSystem) -> None:
    """Raise ValueError naming the first functor-law violation of the systems."""
    for v in {id(v): v for v in systems}.values():
        report = check_functor(v)
        if not report.ok:
            bad = report.composition_violations or report.identity_violations
            raise ValueError(
                f"long exact sequence needs a functor: functor laws fail at {bad[0]}"
            )


def les_pair_check(v: CoefficientSystem, n: Iterable[str]) -> ExactSequenceReport:
    """Long exact sequence of the pair: relative, absolute, then subset terms.

    The relative complex (cochains vanishing on n) includes into the full
    one, which restricts to tuples inside n.  Connecting maps extend a
    subset cocycle by zero and apply the ambient differential.  A system
    failing the functor laws raises ValueError naming its first violation.
    """
    nset = _check_subset(v.space, n)
    _require_functors(v)
    return _les_pair(v, nset)


def _les_pair(v: CoefficientSystem, nset: frozenset) -> ExactSequenceReport:
    """`les_pair_check` for a checked subset of a system known to be a functor."""
    full = _Complex(v, True)
    rel = _Complex(v, True, support=("rel", nset), whole=full)
    sub = _Complex(v, True, support=("sub", nset), whole=full)
    return _long_exact_sequence(("pair", "space", "subset"), rel, full, sub)


def les_coefficients_check(f: SystemMorphism, g: SystemMorphism) -> ExactSequenceReport:
    """Long exact sequence induced by a short exact sequence of systems.

    Raises NotExactError unless ses_check passes stratum by stratum, then
    ValueError naming the first functor-law violation of the three systems.
    The connecting map lifts through g (any preimage), applies the middle
    differential, and pulls back through f (unique by injectivity).
    """
    report = ses_check(f, g)
    if not report.ok:
        raise NotExactError(f"not a short exact sequence: {report}")
    _require_functors(f.source, f.target, g.target)
    return _long_exact_sequence(("sub", "total", "quotient"), _Complex(f.source, True),
                                _Complex(f.target, True), _Complex(g.target, True), f, g)


# ---------------------------------------------------------------------------
# functoriality along poset maps

def _bridge_rows(f: PosetMap, v_target: CoefficientSystem,
                 v_source: CoefficientSystem) -> Dict[str, Rows]:
    """Per-stratum rows carrying target values to source values.

    In stabilizer coordinates the bridge is restriction of functionals
    along the inclusion stab_source(X) <= stab_target(f(X)), as integer
    rows (`_coordinate_rows`); with an all-zero target system they are empty.
    """
    src_space, tgt_space = f.source, f.target
    zero_target = all(d == 0 for d in v_target.dims.values())
    if not zero_target:
        for y in tgt_space.ids:
            if v_target.dims[y] != tgt_space.stabilizer(y).dim:
                raise ValueError(
                    "pullback needs stabilizer coordinates on the target "
                    "(or an all-zero target system)"
                )
        for x in src_space.ids:
            if v_source.dims[x] != src_space.stabilizer(x).dim:
                raise ValueError("pullback needs stabilizer coordinates on the source")
    bridges = {}
    for x in src_space.ids:
        if zero_target:
            bridges[x] = [{}] * v_source.dims[x]
            continue
        rows = tgt_space.stabilizer(f(x))._coordinate_rows(src_space.stabilizer(x))
        if rows is None:
            raise AssertionError(f"stabilizer inclusion fails at {x!r}")
        bridges[x] = rows
    return bridges


def _pullback_rows(f: PosetMap, v_target: CoefficientSystem,
                   v_source: CoefficientSystem, src: ChainBasis, dst: ChainBasis) -> Rows:
    """Sparse rows of the pullback from dst (target cochains) to src."""
    report = poset_morphism_check(dict(f.mapping), f.source, f.target)
    if not report.ok:
        raise InvalidMorphismError(
            f"not a morphism of stratified spaces: {report}"
        )
    bridges = _bridge_rows(f, v_target, v_source)
    return _assemble(src, dst, lambda t: [(tuple(map(f, t)), 1, bridges[t[-1]])])


def pullback_matrix(
    f: PosetMap,
    v_target: CoefficientSystem,
    k: int,
    v_source: Optional[CoefficientSystem] = None,
) -> RatMatrix:
    """Matrix of the pullback on full degree-k cochains."""
    if v_source is None:
        v_source = moment_system(f.source)
    dst = chain_basis(v_target, k, strict=False)
    rows = _pullback_rows(f, v_target, v_source, chain_basis(v_source, k, strict=False), dst)
    return RatMatrix.from_sparse(rows, dst.total_dim)


def pullback(
    f: PosetMap,
    v_target: CoefficientSystem,
    phi: Cochain,
    v_source: Optional[CoefficientSystem] = None,
) -> Cochain:
    """Pull a cochain on the target back along f, on the full complex.

    A cochain handed over on the strict basis is read as the full-complex
    cochain vanishing on tuples with repeats.
    """
    if v_source is None:
        v_source = moment_system(f.source)
    k = phi.basis.degree
    dst = chain_basis(v_target, k, strict=False)
    coords = {j: x for j, x in enumerate(phi.coords) if x}
    vec = _carry(coords, phi.basis, dst)
    if len(vec) != len(coords):
        raise ValueError("cochain has support outside the full basis")
    src = chain_basis(v_source, k, strict=False)
    out = _apply(_pullback_rows(f, v_target, v_source, src, dst), vec)
    return Cochain(src, [out.get(i, 0) for i in range(src.total_dim)])
