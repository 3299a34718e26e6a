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
degree by degree.  In degree 0 the strict complex, unfiltered or
relative, takes its cocycles (the assignments) from the rows of d_0 at
the system's cut (`CoefficientSystem._cut`), which have d_0's kernel and
so its canonical representatives, while d_0 stays whole for degree 1 and
the connecting maps.

The components of the lower covers (`stratposet._components`) give R
(`_forest`), a minimal projective resolution of the constant functor, to
the degree its caller reads; its cells end in their strata as chains do.
HA^k is Ext^k(Q, V), which any projective resolution computes, and
Hom(R, V) has one block per cell, not per chain: `_Complex` given R's
cells is that complex, with the same bases, assembly, sharing and block
maps as on chains.  A degree k >= 1 of a functor reads dim H^k off it
and builds the order complex only where dim H^k > 0.  Hom(R, -) is
exact, so a short exact sequence of functors gives one of complexes on
R's cells, where the coefficient sequence runs.  Degree 0, systems off
the functor laws and the command line's `--complex both` cross-check
stay on the order complex (`_order_complex`, the cross-check's one
route), whose `result` counts a functor's full complex above the top
degree.

Cochains vanishing on the tuples inside a stratum subset N filter the
space's own complex by a support, so every cochain returned here is one
of the caller's system.  For a down-closed N a tuple lies inside N
exactly when its top stratum does, so relative cohomology and the pair's
sequence filter R's cells by their strata (those at strata of N are N's
own resolution, and their boundaries stay in N); for any other N they
filter the order complex's chains.

The chain differential writes each row from the tuple's faces, building
no pair of faces that cancel (`_differential`).  That rule belongs to
chains alone, so one routine, `_assemble`, serves every other
chain-level operator: R's boundaries, the block scaling, the homotopies
L and Q and the pullback each list, for a tuple, the tuples it reaches
with a sign and a block, and `_assemble` writes those blocks into sparse
rows.  The two are the only code that looks up faces.

Both long exact sequences, of a pair and of a short exact sequence of
coefficient systems, come from one routine given the three complexes and
the sequence's stratum maps f and g; a pair has none, and its blocks move
unchanged.  Each chain map acts on one tuple's block at a time, through
per-stratum rows at the tuple's top stratum: the image rows of f or g, or
of a preimage map of f or g (`ratlin._preimage`), built once per stratum.
The block map `_carry` does that, and `pullback` uses it for its change
of basis.  Beside the public accessors (`ChainBasis.block`,
`Cochain.value_on`), the face lookups and `_carry` are the only code
that looks up blocks by tuple.  The routine checks that every connecting
value lies in the image of the first complex, builds the induced maps on
canonical representatives as sparse image rows, then checks exactness
node by node.
No coboundary is built or reduced twice: a pair's relative and subset
complexes share the space's complex wherever theirs equal it (`_Complex`),
and the connecting map applies d_k by columns (`ratlin._combine` on the
transpose that the image pass of degree k+1 builds anyway).

A cochain is a sparse vector (column -> nonzero entry, ints where
integral) from assembly to the connecting map, and so are the class
coordinates of the induced maps: differentials, kernels,
representatives and both long exact sequences work on such rows, and
the two passes of `ratlin.sparse_echelon` do every elimination,
fraction-free.  A degree k >= 1 where d_k d_{k-1} != 0 has no cohomology
and raises ValueError before anything is assembled: some failing triple
(a, b, c) (`coeffsys.square_failures`, none for a functor) extends a kept
tuple of degree k-1 that ends at a, with b and c in N for a subset
complex.  A weak tuple can repeat its first entry, so the full complex
reads its tuples of degree at most 1, and no refusal builds a basis above
degree k-1.  A degree's dimension is a rank, and only a degree with
classes takes the kernel, whose RREF is the representatives, so equal
inputs give byte-equal outputs (`_CohomologyData`).
A `Cochain` keeps its sparse row as well: the representatives and
pullbacks are wrapped as they come.  One split
(`ChainBasis._split`) decides which block holds a column; the printed
blocks (`Cochain._nonzero_blocks`) and `_carry` read only the row's columns.
Dense lists of Fractions appear only in public values: `Cochain.coords`,
built on first access, `value_on` and `as_dict`, and the matrices of
`differential_matrix`, the homotopy operators and `pullback_matrix`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coeffsys import (
    CoefficientSystem,
    SystemMorphism,
    _check_subset,
    _down_closed,
    moment_system,
    ses_check,
    square_failures,
)
from .errors import (
    InvalidMorphismError,
    NotExactError,
    NoUniqueMinimumError,
    SystemMismatchError,
    UnknownIdError,
)
from .ratlin import (
    RatMatrix,
    Rows,
    SparseRow,
    _ZERO,
    _apply,
    _back,
    _combine,
    _dense,
    _exact,
    _forward,
    _frac,
    _mul,
    _normal,
    _normalize,
    _preimage,
    _primitive,
    _rank,
    _sub_scaled,
    _transpose,
    sparse_echelon,
    sparse_kernel,
    sparse_rref,
)
from .stratposet import PosetMap, StratSpace, _components, chains, minimal_strata, poset_morphism_check


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

    def _split(self, row: SparseRow) -> Dict[int, SparseRow]:
        """A sparse row's entries as block index -> {position: entry}; the
        last block at offset <= j holds column j (zero-width blocks share
        the next block's offset)."""
        out: Dict[int, SparseRow] = {}
        for j, x in row.items():
            i = bisect_right(self.offsets, j) - 1
            out.setdefault(i, {})[j - self.offsets[i]] = x
        return out

    def block(self, t: Tuple[str, ...]) -> Optional[Tuple[int, int]]:
        """(offset, width) of a tuple's coordinate block, or None."""
        i = self.index.get(t)
        if i is None:
            return None
        return (self.offsets[i], self.block_dims[i])


class Cochain:
    """A vector in one chain space, addressable by tuple.

    It keeps its sparse row (column -> nonzero entry, an int or a Fraction);
    `coords`, `value_on` and `as_dict` give Fractions, and `coords` is built
    on first access.
    """

    def __init__(self, basis: ChainBasis, coords: Sequence):
        if len(coords) != basis.total_dim:
            raise ValueError(
                f"coordinate length {len(coords)} != chain dimension {basis.total_dim}"
            )
        self.basis = basis
        self._row = _normal(dict(enumerate(coords)), basis.total_dim)

    @classmethod
    def _from_row(cls, basis: ChainBasis, row: SparseRow) -> "Cochain":
        """The cochain of a sparse row of basis's space, kept as it is."""
        c = cls.__new__(cls)
        c.basis, c._row = basis, row
        return c

    @cached_property
    def coords(self) -> Tuple[Fraction, ...]:
        return tuple(_dense(self._row, self.basis.total_dim))

    def _nonzero_blocks(self):
        """(tuple, its block's entries, 0 where none) of each block the row
        touches, in column order."""
        b = self.basis
        for i, blk in sorted(b._split(self._row).items()):
            yield b.tuples[i], [blk.get(r, 0) for r in range(b.block_dims[i])]

    def value_on(self, t: Tuple[str, ...]) -> List[Fraction]:
        """The block at t: zero for a tuple of known ids that is no chain here."""
        if len(t) != self.basis.degree + 1:
            raise ValueError(f"tuple length {len(t)} != degree+1")
        blk = self.basis.block(tuple(t))
        if blk is None:
            dims = self.basis.system.dims
            for x in t:
                if x not in dims:
                    raise UnknownIdError(x)
            return [_ZERO] * dims[t[-1]]
        off, w = blk
        return [_frac(self._row.get(j, _ZERO)) for j in range(off, off + w)]

    def as_dict(self) -> Dict[Tuple[str, ...], List[Fraction]]:
        return {t: [_frac(x) for x in vals] for t, vals in self._nonzero_blocks()}

    def __repr__(self):
        return f"Cochain(degree={self.basis.degree}, {self.as_dict()})"


def _filtered_tuples(ts: Sequence[Tuple[str, ...]], support,
                     cells: bool = False) -> Sequence[Tuple[str, ...]]:
    """The tuples a support keeps: "rel" those not inside its stratum set
    N, "sub" those inside.  A chain is inside N when all its strata are
    (its top is read first: most chains end outside N); a cell of R, whose
    entries nest, when its stratum t[-1] is, which for the down-closed N
    that R serves is the same rule."""
    if support is None:
        return ts
    kind, nset = support
    inside = lambda t: t[-1] in nset and (cells or all(x in nset for x in t))
    if kind == "rel":
        return [t for t in ts if not inside(t)]
    if kind == "sub":
        return [t for t in ts if inside(t)]
    raise AssertionError(f"unknown support kind {kind!r}")


def chain_basis(v: CoefficientSystem, k: int, strict: bool = True) -> ChainBasis:
    return ChainBasis(v, k, strict, chains(v.space, k, strict))


def _chain_counts(space: StratSpace):
    """S_0, S_1, ...: S_i(y) strict chains of i+1 strata end at y, with
    S_0(y) = 1 and S_i(y) the sum of S_{i-1}(x) over x < y, up to the top
    degree, the last i with a chain.  A weak chain of k+1 strata ending at
    y repeats the entries of a strict one of i+1 strata, C(k, i) ways, so
    it counts N_k(y) = sum_i S_i(y) C(k, i)."""
    lower = {y: space.below(y) for y in space.ids}
    c = dict.fromkeys(lower, 1)
    while any(c.values()):
        yield c
        c = {y: sum(c[x] for x in xs) for y, xs in lower.items()}


def _chain_sizes(v: CoefficientSystem, last: int, nset: frozenset = frozenset()) -> List[int]:
    """T_0, ..., T_m, m the lesser of last and the top degree: T_i =
    sum_y dim V(y) S_i(y) (`_chain_counts`) over y outside nset, the
    dimensions of the reduced complex relative to a down-closed nset."""
    return [sum(v.dims[y] * n for y, n in c.items() if y not in nset)
            for _, c in zip(range(last + 1), _chain_counts(v.space))]


def _chain_dim(sizes: List[int], k: int, strict: bool) -> int:
    """dim C^k from `_chain_sizes(v, k)`: T_k, or sum_i T_i C(k, i) on the full complex."""
    if strict:
        return sizes[k] if k < len(sizes) else 0
    return sum(t * comb(k, i) for i, t in enumerate(sizes))


def _alternating(xs: Sequence[int], k: int) -> int:
    """sum_{j<k} (-1)^(k-1-j) xs[j], xs zero beyond its end."""
    return sum(-x if (k - 1 - j) & 1 else x for j, x in enumerate(xs[:k]))


def _alternating_binomials(k: int, i: int) -> int:
    """sum_{j<k} (-1)^(k-1-j) C(j, i), in closed form: 2^(i+1) times it is
    sum_{t<=i} (-1)^(i-t) C(k, t) 2^t + (-1)^(i+1+k)."""
    total = sum((-1) ** (i - t) * comb(k, t) * 2 ** t for t in range(i + 1))
    return (total + (-1) ** ((i + 1 + k) & 1)) >> (i + 1)


def _from_counts(sizes: List[int], dims: List[int], k: int, strict: bool) -> CohomologyResult:
    """The result of a degree k with dim H^k = 0, from the chain sizes
    (`_chain_sizes`) and dim H^j for j < k (zero beyond dims' end): rank
    d_{k-1} is the alternating sum of dim C^j - dim H^j over j < k, in
    closed form on the full complex (`_alternating_binomials`)."""
    chain = (_alternating(sizes, k) if strict else
             sum(t * _alternating_binomials(k, i) for i, t in enumerate(sizes)))
    rank = chain - _alternating(dims, k)
    return CohomologyResult(k, 0, [], {"dim_chain": _chain_dim(sizes, k, strict),
                                       "dim_cocycles": rank, "rank_coboundaries": rank})


def chain_space_dim(v: CoefficientSystem, k: int, strict: bool = True) -> int:
    """dim C^k = sum_y dim V(y) N_k(y), by counting chains (`_chain_dim`)."""
    if k < 0:
        raise ValueError("chain degree must be >= 0")
    return _chain_dim(_chain_sizes(v, k), k, strict)


def _assemble(rows_of: ChainBasis, cols_of: ChainBasis, terms) -> Rows:
    """Sparse rows of a chain-level operator, one per coordinate of rows_of.

    For each tuple t of rows_of, terms(t) lists (u, sign, block): sign times
    block (a projection's sparse rows, or None for the identity) goes into
    the rows of t at the columns of u in cols_of.  Tuples that cols_of
    lacks are skipped, and zero entries (a block scaling of 0) are dropped.
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


def _differential(v: CoefficientSystem, src: ChainBasis, dst: ChainBasis,
                  bounds: Optional[Dict[tuple, Dict[tuple, int]]] = None) -> Rows:
    """Sparse rows of d from src to dst, one per coordinate of dst.

    On R's cells (`_forest`'s bounds) `_assemble` writes each cell f's
    block at each cell c of its boundary: the coefficient times
    proj(c[-1], f[-1]).  On chains each row is written once from the
    tuple t's faces.  Face i < n = len(t) - 1 is an identity block of sign
    (-1)^i; where t[i] == t[i+1] and i+1 < n, faces i and i+1 are one tuple
    of opposite signs, and neither is built.  The top face costs
    proj(t[-2], t[-1]), which off the identity law need not cancel face
    n-1 when t[-2] == t[-1]; it alone can meet another face, so its
    entries are added and zeros dropped.  Faces src lacks are skipped.
    """
    proj = v._rows
    if bounds is not None:
        return _assemble(dst, src, lambda f: [(c, a, proj(c[-1], f[-1]))
                                              for c, a in bounds[f].items()])
    index, offsets = src.index, src.offsets
    rows: Rows = []
    for t, w in zip(dst.tuples, dst.block_dims):
        if not w:
            continue
        n = len(t) - 1
        faces = []                    # (offset, sign) of each identity block
        i = 0
        while i < n:
            if i + 1 < n and t[i] == t[i + 1]:
                i += 2
                continue
            j = index.get(t[:i] + t[i + 1:])
            if j is not None:
                faces.append((offsets[j], -1 if i & 1 else 1))
            i += 1
        j = index.get(t[:-1])
        top, c0 = ([{}] * w, 0) if j is None else (proj(t[-2], t[-1]), offsets[j])
        s = -1 if n & 1 else 1
        for r, prow in enumerate(top):
            row = {c + r: s0 for c, s0 in faces}
            for c, x in prow.items():
                c += c0
                x = row.pop(c, 0) + s * x
                if x:
                    row[c] = x
            rows.append(row)
    return rows


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
    representatives.  With no image a right-to-left pinned pass makes W,
    divided at its free columns, that RREF.
    """

    def __init__(self, d_in_t: Rows, d_out: Rows, dim_chain: int):
        self.dim_chain = dim_chain
        self._im = _forward(d_in_t, dim_chain)
        pins = self._im[1]
        self.im_rank = len(pins)
        pinned = _forward(d_out + [{p: 1} for p in pins], dim_chain, 1 if pins else -1)
        self.dim = dim_chain - len(pinned[1])
        self.dim_cocycles = self.dim + self.im_rank
        self.cocycles, self._rep_rows, self.rep_pivots = None, [], ()
        if self.dim:
            free, self.cocycles = sparse_kernel(*_back(*pinned), dim_chain)
            self._rep_rows, self.rep_pivots = (
                sparse_rref(self.cocycles, dim_chain) if pins
                else (_normalize(self.cocycles, free), tuple(free)))

    @cached_property
    def _im_at(self) -> Dict[int, SparseRow]:
        """The image's RREF rows by pivot column, built on first use: only
        `class_coords`, for the long exact sequences, reads them."""
        rows, pivots = _back(*self._im)
        return dict(zip(pivots, _normalize(rows, pivots)))

    def class_coords(self, vec: SparseRow) -> list:
        """Coordinates of a cocycle's class over the canonical representatives.

        A cocycle is sum_{p in P} vec[p] * (image row p) + w, w in W.  The
        coordinates are ints where integral, Fractions otherwise, as in
        `sparse_rref`.  Raises ValueError when vec is not a cocycle.
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
        return [_exact(c) for c in coords]


@dataclass
class CohomologyResult:
    degree: int
    dim: int
    representatives: List[Cochain]
    diagnostics: Dict[str, int]


class _Complex:
    """Lazy basis/differential/cohomology cache for one complex.

    Its tuples are the chains of the order complex or, given resolution,
    the cells and boundaries of R that `_forest` returns, built to every
    degree the caller reads: then it is Hom(R, V), strict.  A support
    filters the tuples (`_filtered_tuples`), on R's cells only for a
    down-closed subset.  A complex with a `whole`, an unfiltered complex of
    the same kind on the same system, reads its tuples from whole's instead
    of enumerating them.  It shares whole's values wherever they are its
    own (`_keeps`): a basis where the filter keeps every tuple, d_k and its
    transpose where bases k and k+1 are whole's, and the cohomology data of
    degree k where bases k-1, k and k+1 are.  For a pair on an antichain,
    such as the minimal strata, that is every d_k with k >= 1 and every
    degree k >= 2.
    """

    def __init__(self, v: CoefficientSystem, strict: bool = True, support=None,
                 whole: Optional["_Complex"] = None, resolution=None):
        self.v = v
        self.strict = strict
        self.support = support
        self.whole = whole
        self.resolution = whole.resolution if whole is not None else resolution
        self._bases: Dict[int, ChainBasis] = {}
        self._ds: Dict[int, Rows] = {}
        self._dts: Dict[int, Rows] = {}
        self._data: Dict[int, _CohomologyData] = {}

    def basis(self, k: int) -> ChainBasis:
        if k not in self._bases:
            whole = self.whole and self.whole.basis(k)
            ts = whole.tuples if whole is not None else (
                self.resolution[0][k] if self.resolution is not None
                else chains(self.v.space, k, self.strict))
            ts = _filtered_tuples(ts, self.support, self.resolution is not None)
            # a filtered basis is a sublist of whole's: equal lengths, equal lists
            self._bases[k] = (whole if whole is not None and len(ts) == len(whole.tuples)
                              else ChainBasis(self.v, k, self.strict, ts))
        return self._bases[k]

    def _keeps(self, *ks: int) -> bool:
        """Whether the bases of degrees ks are whole's: the filter kept every tuple."""
        return self.whole is not None and all(
            self.basis(k) is self.whole.basis(k) for k in ks)

    def d(self, k: int) -> Rows:
        if k not in self._ds:
            self._ds[k] = (self.whole.d(k) if self._keeps(k, k + 1)
                           else _differential(self.v, self.basis(k), self.basis(k + 1),
                                              self.resolution and self.resolution[1]))
        return self._ds[k]

    def d_t(self, k: int) -> Rows:
        """The rows of the transpose of d_k: column j of d_k as row j."""
        if k not in self._dts:
            self._dts[k] = (self.whole.d_t(k) if self._keeps(k, k + 1)
                            else _transpose(self.d(k), self.basis(k).total_dim))
        return self._dts[k]

    def data(self, k: int) -> _CohomologyData:
        if k not in self._data and self._keeps(*range(max(k - 1, 0), k + 2)):
            # d_{k-1} and d_k are whole's, so is everything computed from them
            self._data[k] = self.whole.data(k)
        if k not in self._data:
            if k > 0:
                # a failing triple (a, b, c) decides where a kept p of degree k-1
                # ends at a: p + (b, c) is kept ("sub": where b, c lie in N); a weak
                # p can repeat its first entry, so degree 1 answers every degree
                bad = square_failures(self.v, self.strict)
                ends = bad and {p[-1] for p in self.basis(
                    k - 1 if self.strict else min(k - 1, 1)).tuples}
                sub = self.support and self.support[0] == "sub" and self.support[1]
                if any(a in ends and (not sub or b in sub and c in sub) for a, b, c in bad):
                    raise ValueError(f"degree {k} has no cohomology: d_{k} d_{k - 1} != 0, "
                                     "so the system fails the functor laws (see `check`)")
                d_in_t, d_out = self.d_t(k - 1), self.d(k)
            elif self.strict and self.resolution is None and (self.support or ("rel",))[0] == "rel":
                # rows of d_0 at the system's cut, with d_0's kernel (empty inside N)
                d_in_t, d_out = [], _differential(self.v, self.basis(0),
                                                  ChainBasis(self.v, 1, True, self.v._cut))
            else:
                d_in_t, d_out = [], self.d(0)
            self._data[k] = _CohomologyData(d_in_t, d_out, self.basis(k).total_dim)
        return self._data[k]

    def result(self, k: int) -> CohomologyResult:
        """Degree k from `data(k)`; above the top degree a functor's full
        complex is counted (`_from_counts`), dim H^k = 0, from the reduced
        complex with this support."""
        if k < 0:
            raise ValueError("degree must be >= 0")
        if not self.strict and k > (top := _top_degree(self.v.space)) and self.v._report.ok:
            reduced = _Complex(self.v, True, support=self.support)
            return _from_counts([reduced.basis(j).total_dim for j in range(top + 1)],
                                [reduced.data(j).dim for j in range(top + 1)], k, False)
        data, basis = self.data(k), self.basis(k)
        return CohomologyResult(k, data.dim, [Cochain._from_row(basis, r) for r in data._rep_rows],
                                {"dim_chain": data.dim_chain, "dim_cocycles": data.dim_cocycles,
                                 "rank_coboundaries": data.im_rank})


def _forest(space: StratSpace, degree: int):
    """(cells, bounds) of R to degree >= 1, in `_components` order.

    cells[j] lists the j-cells, each a tuple ending in its stratum; bounds
    maps each cell of degree >= 1 to its boundary (cell -> coefficient).
    Each minimal stratum m has a 0-cell (m,).  At any other z, each
    component beyond the first adds the 1-cell (a, b, z) with boundary
    a - b, a and b the names of the first component and of this one.  Each degree d >= 2 takes one step: a finder gives a
    basis of the cycles on the (d-1)-cells below z, one per closing face,
    nonzero there and zero at the other closing faces (`_tree_cycles` at
    d = 2, where a union-find is faster; `_kernel_cycles` above).  One
    forward pass of the d-cell boundaries below z, read on the closing
    faces, pins some; each other closing face c adds the d-cell (c, z)
    bounded by its cycle.  No cycle at z involves the (d-1)-cells at z:
    their boundaries are independent of those below z.
    """
    comps = _components(space)
    at = {}    # stratum -> its j-cells, j = 0..degree
    cells = ([(z,) for z, p in comps.items() if not p],) + tuple([] for _ in range(degree))
    bounds = {}
    for z, parts in comps.items():
        mine = at[z] = [[] for _ in cells]
        if not parts:
            continue
        below = space.below(z)
        a, *rest = parts
        mine[1] = [(a, b, z) for b in rest]
        for c in mine[1]:
            bounds[c] = {(a,): 1, (c[1],): -1}
        cells[1].extend(mine[1])
        for d in range(2, degree + 1):
            faces = [c for x in below for c in at[x][d - 1]]
            if not faces:
                continue
            closing, cycle = (_tree_cycles if d == 2 else _kernel_cycles)(faces, bounds)
            col = {c: j for j, c in enumerate(closing)}
            rows = [{col[c]: x for c, x in bounds[f].items() if c in col}
                    for x in below for f in at[x][d]]
            pins = set(_forward(rows, len(closing))[1])
            for j, c in enumerate(closing):
                if j not in pins:
                    bounds[c, z] = cycle(j)
                    mine[d].append((c, z))
            cells[d].extend(mine[d])
    return cells, bounds


def _tree_cycles(faces, bounds):
    """(closing, cycle) on 1-cells: closing lists the faces that close a
    cycle of a spanning forest (a union-find over their ends, c[0] and
    c[1], so bounds is not read), and cycle(j) is closing[j]'s fundamental
    cycle, 1 at closing[j] and the signed tree path between its ends."""
    parent: Dict[str, str] = {}
    tree: Dict[str, list] = {}    # vertex -> (neighbour, 1-cell, sign of the step)
    closing = []
    for c in faces:
        ra, rb = c[0], c[1]
        while ra in parent:
            ra = parent[ra]
        while rb in parent:
            rb = parent[rb]
        if ra == rb:
            closing.append(c)
            continue
        parent[ra] = rb
        tree.setdefault(c[1], []).append((c[0], c, 1))
        tree.setdefault(c[0], []).append((c[1], c, -1))

    def cycle(j):
        c = closing[j]
        prev, queue = {c[0]: None}, [c[0]]
        for u in queue:
            for w, e, s in tree.get(u, ()):
                if w not in prev:
                    prev[w] = (u, e, s)
                    queue.append(w)
        path, w = {c: 1}, c[1]
        while prev[w]:
            w, e, s = prev[w]
            path[e] = s
        return path

    return closing, cycle


def _kernel_cycles(faces, bounds):
    """(closing, cycle) on cells of any degree: the kernel of the boundary on
    faces has one vector per free column; closing lists the free columns'
    faces, and cycle(j) is the j-th vector made primitive."""
    trans: Dict[tuple, SparseRow] = {}    # a face of the faces -> its row of the boundary's transpose
    for j, c in enumerate(faces):
        for e, x in bounds[c].items():
            trans.setdefault(e, {})[j] = x
    free, kernel = sparse_kernel(*sparse_echelon(list(trans.values()), len(faces)), len(faces))
    return ([faces[j] for j in free],
            lambda i: {faces[j]: x for j, x in _primitive(kernel[i]).items()})


def _resolution_dims(v: CoefficientSystem, k: int, support=None) -> List[int]:
    """dim H^0, ..., dim H^k of a functor from Hom(R, V), R built to degree k+1.

    Its cochains are those of `_Complex` on R's cells, filtered by a
    down-closed support's strata; R is exact, so dim H^j is
    dim C^j - rank delta_j - rank delta_{j-1}.
    """
    cx = _Complex(v, True, support=support, resolution=_forest(v.space, k + 1))
    dims = [cx.basis(j).total_dim for j in range(k + 1)]
    ranks = [_rank(cx.d(j), n) for j, n in enumerate(dims)]
    return [n - r - (ranks[j - 1] if j else 0) for j, (n, r) in enumerate(zip(dims, ranks))]


def _cohomology(v: CoefficientSystem, nset: frozenset, k: int, strict: bool) -> CohomologyResult:
    """Degree k of v's complex relative to nset (absolute for an empty nset).

    A degree k >= 1 of a functor (`check_functor(v).ok`) relative to a
    down-closed nset takes its dimension from R (`_resolution_dims`),
    which has no cell, and so no class, beyond the order complex's top
    degree (a cell at z of degree d comes from the homology of the chains
    below z in degree d - 1).  Where dim H^k is 0 the diagnostics come
    from chain counts (`_from_counts`); elsewhere the order complex
    answers (`_order_complex`).
    """
    if k > 0 and v._report.ok and _down_closed(v.space, nset):
        sizes = _chain_sizes(v, k, nset)
        dims = _resolution_dims(v, len(sizes) - 1, ("rel", nset) if nset else None)
        if len(dims) <= k or not dims[k]:
            return _from_counts(sizes, dims, k, strict)
    return _order_complex(v, nset, k, strict)


def _order_complex(v: CoefficientSystem, nset: frozenset, k: int, strict: bool) -> CohomologyResult:
    """Degree k of v's order complex relative to nset (absolute for an empty
    nset), in any degree and for any subset: `_cohomology`'s last route and
    the whole of the command line's `--complex both` cross-check."""
    return _Complex(v, strict, support=("rel", nset) if nset else None).result(k)


def cohomology(v: CoefficientSystem, k: int, strict: bool = True) -> CohomologyResult:
    """Cohomology at degree k with canonical echelon representatives
    (`_cohomology`).  Raises ValueError for k < 0 and in a degree where
    d_k d_{k-1} != 0.
    """
    return _cohomology(v, frozenset(), k, strict)


def assignment_space_dim(v: CoefficientSystem) -> int:
    return cohomology(v, 0, strict=True).dim


def euler_characteristic(v: CoefficientSystem) -> int:
    """Alternating sum of reduced chain dimensions, sum_k (-1)^k dim C^k
    (`_chain_sizes`; the top degree is below the number of strata)."""
    return sum(-c if k & 1 else c for k, c in enumerate(_chain_sizes(v, len(v.space.ids))))


def _top_degree(space: StratSpace) -> int:
    """The order complex's top degree: the last k with a strict chain of k+1
    strata, from `_chain_counts`."""
    return sum(1 for _ in _chain_counts(space)) - 1


# ---------------------------------------------------------------------------
# homotopy operators on the full complex

def repeated_block_count(t: Tuple[str, ...]) -> int:
    """Number of run-length blocks of length > 1 in the tuple."""
    return sum(len(list(run)) > 1 for _, run in groupby(t))


def _full_operator(v: CoefficientSystem, k: int, lower: int, terms) -> RatMatrix:
    """Matrix of the operator from full degree-k cochains to degree k - lower
    whose rows `_assemble` writes from terms, given each target tuple."""
    src = chain_basis(v, k, strict=False)
    dst = chain_basis(v, k - lower, strict=False)
    return RatMatrix.from_sparse(_assemble(dst, src, terms), src.total_dim)


def block_scaling_matrix(v: CoefficientSystem, k: int) -> RatMatrix:
    """Diagonal operator scaling each degree-k tuple by its repeated blocks."""
    return _full_operator(v, k, 0, lambda t: [(t, repeated_block_count(t), None)])


def homotopy_L(v: CoefficientSystem, k: int) -> RatMatrix:
    """Degree-lowering operator fattening one block at a time, full complex.

    On a tuple with blocks X0^(m0) ... Xl^(ml) the j-th summand repeats Xj
    once more and carries sign (-1)^(m0+...+m_{j-1}).  Together with the
    differential it satisfies dL + Ld = block scaling, which is the exact
    identity the reduction to strict tuples rests on.
    """
    if k < 1:
        raise ValueError("homotopy_L is defined for degree >= 1")
    # block j starts at i: repeat t[i] there
    return _full_operator(v, k, 1, lambda t: [
        (t[:i] + t[i:i + 1] + t[i:], -1 if i & 1 else 1, None)
        for i in range(len(t)) if i == 0 or t[i] != t[i - 1]])


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
    return _full_operator(v, k, 1, lambda t: [(minima + t, 1, None)])


# ---------------------------------------------------------------------------
# relative complexes and long exact sequences

def relative_cohomology(v: CoefficientSystem, n: Iterable[str], k: int,
                        strict: bool = True) -> CohomologyResult:
    """Cohomology of cochains vanishing on tuples lying entirely inside n.

    This complex filters v's own (`_cohomology`, from R in a degree k >= 1
    of a functor where n is down-closed), so its representatives are
    cochains of v that vanish inside n.  Raises ValueError for k < 0 and where this complex's
    d_k d_{k-1} != 0.
    """
    return _cohomology(v, _check_subset(v.space, n), k, strict)


def _carry(vec: SparseRow, src: ChainBasis, dst: ChainBasis,
           blocks: Optional[Dict[str, Rows]] = None) -> SparseRow:
    """The block map: vec's blocks carried to the same tuples of dst.

    Tuples that dst lacks are dropped.  Without blocks both bases are of
    one system; with blocks, each block goes through the rows blocks[x] at
    the tuple's top stratum x, one row per coordinate of the block: the
    image of that basis vector.  The blocks are vec's split
    (`ChainBasis._split`).
    """
    if blocks is None and src.tuples == dst.tuples:
        return dict(vec)
    out: SparseRow = {}
    for i, blk in src._split(vec).items():
        t = src.tuples[i]
        o = dst.block(t)
        if o is None:
            continue
        if blocks is not None:
            blk = _combine(blocks[t[-1]], blk)
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


def _induced_rows(name: str, target: _CohomologyData, images: Iterable[SparseRow]) -> Rows:
    """Image rows of an induced map: the class coordinates in target (node
    name) of each cocycle; an image off the cocycles is a program fault."""
    try:
        return [{i: x for i, x in enumerate(target.class_coords(vec)) if x} for vec in images]
    except ValueError as exc:
        raise AssertionError(f"induced image off the cocycles of {name}") from exc


def _long_exact_sequence(labels, top: int, a: _Complex, b: _Complex, c: _Complex,
                         f: Optional[SystemMorphism] = None,
                         g: Optional[SystemMorphism] = None) -> ExactSequenceReport:
    """Long exact cohomology sequence of a short exact sequence 0 -> a -> b -> c -> 0.

    labels names the three terms.  The chain maps act on each tuple's block
    alone (`_carry`): i carries a into b through the stratum maps f and p
    carries b into c through g; with no maps, as for a pair, every block
    moves unchanged.  The connecting map lifts a cocycle of c through g's
    preimage map (free variables zero), applies d_b and retracts through
    f's; carrying the retracted value back through i must give d_b of the
    lift again.  d_b applies by columns, from b's cached transpose of d_k
    (`_Complex.d_t`), so only the lift's columns are read.  Degrees run to
    one past top, the last nonzero chain space of the order complex
    (`_top_degree`), beyond which everything is zero, on either kind of
    complex, so the nodes are the same; on R's cells, R is built to
    top + 2 for the last d_k.  The induced maps need cocycles to stay
    cocycles, which holds only for functors (`_require_functors`).
    """
    # image rows of f and g and of their preimage maps at each stratum; None for a pair
    f_img, f_pre, g_img, g_pre = (
        h and {x: make(rows, h.source.dims[x]) for x, rows in h._rows.items()}
        for h in (f, g) for make in (_transpose, _preimage))

    def connect(k, r):
        w = _combine(b.d_t(k), _carry(r, c.basis(k), b.basis(k), g_pre))
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
        maps.append(_induced_rows(names[-2], hb, (_carry(r, ba, bb, f_img) for r in ha._rep_rows)))
        maps.append(_induced_rows(names[-1], hc, (_carry(r, bb, bc, g_img) for r in hb._rep_rows)))
        if k <= top:
            maps.append(_induced_rows(f"H^{k + 1}({labels[0]})", a.data(k + 1),
                                      (connect(k, r) for r in hc._rep_rows)))
    return _exactness_walk(names, dims, maps)


def _require_functors(*systems: CoefficientSystem) -> None:
    """Raise ValueError naming the first functor-law violation of the systems."""
    for v in {id(v): v for v in systems}.values():
        report = v._report
        if not report.ok:
            bad = report.composition_violations or report.identity_violations
            raise ValueError(
                f"long exact sequence needs a functor: functor laws fail at {bad[0]}"
            )


def les_pair_check(v: CoefficientSystem, n: Iterable[str]) -> ExactSequenceReport:
    """Long exact sequence of the pair: relative, absolute, then subset terms.

    The relative complex (cochains vanishing on n) includes into the full
    one, which restricts to tuples inside n.  Connecting maps extend a
    subset cocycle by zero and apply the ambient differential.  Both
    filter the space's complex (`_filtered_tuples`): Hom(R, V) for a
    down-closed n (no stratum outside n below one in n), the order complex
    for any other.  A system failing the functor laws raises ValueError
    naming its first violation.
    """
    space = v.space
    nset = _check_subset(space, n)
    _require_functors(v)
    top = _top_degree(space)
    full = (_Complex(v, True, resolution=_forest(space, top + 2)) if _down_closed(space, nset)
            else _Complex(v, True))
    rel, sub = (_Complex(v, True, support=(kind, nset), whole=full) for kind in ("rel", "sub"))
    return _long_exact_sequence(("pair", "space", "subset"), top, rel, full, sub)


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
    # the three functors share one poset, so they share one R
    space = f.target.space
    top = _top_degree(space)
    res = _forest(space, top + 2)
    return _long_exact_sequence(("sub", "total", "quotient"), top,
                                *(_Complex(w, True, resolution=res)
                                  for w in (f.source, f.target, g.target)), f, g)


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
                raise SystemMismatchError(
                    "pullback needs stabilizer coordinates on the target "
                    f"(or an all-zero target system), unlike at {y!r}"
                )
        for x in src_space.ids:
            if v_source.dims[x] != src_space.stabilizer(x).dim:
                raise SystemMismatchError(
                    f"pullback needs stabilizer coordinates on the source, unlike at {x!r}")
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


def _pullback(f: PosetMap, v_target: CoefficientSystem, k: int,
              v_source: Optional[CoefficientSystem]) -> Tuple[ChainBasis, ChainBasis, Rows]:
    """(src, dst, rows): the full degree-k bases of v_source (by default
    f.source's moment system) and of v_target, and the sparse rows of the
    pullback from dst to src."""
    if v_source is None:
        v_source = moment_system(f.source)
    dst = chain_basis(v_target, k, strict=False)
    src = chain_basis(v_source, k, strict=False)
    report = poset_morphism_check(dict(f.mapping), f.source, f.target)
    if not report.ok:
        raise InvalidMorphismError(f"not a morphism of stratified spaces: {report}")
    bridges = _bridge_rows(f, v_target, v_source)
    return src, dst, _assemble(src, dst, lambda t: [(tuple(map(f, t)), 1, bridges[t[-1]])])


def pullback_matrix(
    f: PosetMap,
    v_target: CoefficientSystem,
    k: int,
    v_source: Optional[CoefficientSystem] = None,
) -> RatMatrix:
    """Matrix of the pullback on full degree-k cochains."""
    _, dst, rows = _pullback(f, v_target, k, v_source)
    return RatMatrix.from_sparse(rows, dst.total_dim)


def pullback(
    f: PosetMap,
    v_target: CoefficientSystem,
    phi: Cochain,
    v_source: Optional[CoefficientSystem] = None,
) -> Cochain:
    """Pull a cochain of v_target back along f, on the full complex.

    A cochain on the strict basis, or on a relative one
    (`relative_cohomology`), is read as the full-complex cochain vanishing
    on the tuples its basis lacks.  Raises SystemMismatchError for a
    cochain of another system, naming the first stratum of other dims.
    """
    if phi.basis.system.space is not v_target.space:
        raise SystemMismatchError("pullback of a cochain on another space")
    for x in v_target.space.ids:
        if phi.basis.system.dims[x] != v_target.dims[x]:
            raise SystemMismatchError(f"pullback of a cochain of another system, unlike at {x!r}")
    src, dst, rows = _pullback(f, v_target, phi.basis.degree, v_source)
    return Cochain._from_row(src, _apply(rows, _carry(phi._row, phi.basis, dst)))
