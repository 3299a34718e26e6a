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
same reduced echelon form and the same canonical representatives.  A
system whose clean functor report is known without a walk (a moment
system) needs only the forest cut, one lower cover per component of each
stratum (`_forest`): the covers below a stratum z carry the values of the
minimal strata, and two covers that share a minimal stratum agree at z.
The differential d_0 itself stays whole, for degree 1 and the connecting
maps.  Relative complexes (cochains vanishing on tuples inside a chosen
stratum subset) reuse the same assembly with a tuple filter.

The same pass over the poset builds R, a minimal projective resolution of
the constant functor, to the degree its caller reads; its cells end in
their strata as chains do.  HA^k is Ext^k(Q, V), which any projective
resolution computes, and Hom(R, V) has one block per cell, not per chain:
`_Complex` given R's cells is that complex, with the same bases,
assembly, sharing and block maps as on chains.  `cohomology` in a degree
k >= 1 of a functor reads dim H^k off it (`_resolution_dims`) and builds
the order complex only where dim H^k > 0, for the canonical
representatives.  Hom(R, -) is exact, so a short exact sequence of
functors gives one of complexes on R's cells: the coefficient sequence
always runs there, and so does the pair's for a down-closed subset N,
whose relative and subset complexes are those of v off N and v on N.
Degree 0, relative cohomology, the pair's sequence off a down-closed
subset, systems off the functor laws and the command line's `--complex
both` cross-check stay on the order complex.

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
No coboundary is built or reduced twice: a pair's relative and subset
complexes share the space's complex wherever theirs equal it (`_Complex`),
and the connecting map applies d_k by columns (`ratlin._combine` on the
transpose of d_k, which the image pass of degree k+1 builds anyway), so it
reads only the columns where the lift is nonzero.

A cochain is a sparse vector (column -> nonzero entry, ints where
integral) from assembly to the connecting map, and so are the class
coordinates of the induced maps: differentials, kernels,
representatives and both long exact sequences work on such rows, and
the two passes of `ratlin.sparse_echelon` do every elimination,
fraction-free.  A degree k >= 1 where d_k d_{k-1} != 0 has no cohomology
and raises ValueError before anything is assembled: some tuple t of
degree k+1 ends in a failing triple (`coeffsys.square_failures`, none for
a functor) and keeps t[:-2] in degree k-1.  A degree's dimension is a
rank, from the forward pass on d_k with the image's pivot columns pinned
to zero.  Only a degree with classes takes the kernel, whose RREF is the
representatives.  A `Cochain` keeps its sparse row as well: the
representatives and pullbacks are wrapped as they come, and the command
line prints their blocks from the row's exact entries (`Cochain._blocks`).
Dense lists of Fractions appear only in public values: `Cochain.coords`,
built on first access, `value_on` and `as_dict`, and the matrices of
`differential_matrix`, the homotopy operators and `pullback_matrix`.
Kernel/image bookkeeping is canonical: representatives come from reduced
row echelon forms, so equal inputs give byte-equal outputs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby, islice, takewhile, zip_longest
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coeffsys import (
    CoefficientSystem,
    SystemMorphism,
    _check_subset,
    moment_system,
    ses_check,
    square_failures,
)
from .errors import (
    InvalidMorphismError,
    NotExactError,
    NoUniqueMinimumError,
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
from .stratposet import PosetMap, StratSpace, chains, minimal_strata, poset_morphism_check


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

    def _blocks(self):
        """(tuple, its block's entries) for every tuple of the basis, in order;
        the entries are those of the sparse row, 0 where it has none."""
        row = self._row
        for t, off, w in zip(self.basis.tuples, self.basis.offsets, self.basis.block_dims):
            yield t, [row.get(j, 0) for j in range(off, off + w)]

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
        return {t: [_frac(x) for x in vals] for t, vals in self._blocks() if any(vals)}

    def __repr__(self):
        return f"Cochain(degree={self.basis.degree}, {self.as_dict()})"


def _filtered_tuples(ts: Sequence[Tuple[str, ...]], support,
                     cells: bool = False) -> Sequence[Tuple[str, ...]]:
    """The tuples a support keeps: "rel" those not inside its stratum set
    N, "sub" those inside.  A chain is inside N when all its strata are; a
    cell of R, when its stratum (its last entry) is, which for a
    down-closed N is the same filter on chains."""
    if support is None:
        return ts
    kind, nset = support
    inside = (lambda t: t[-1] in nset) if cells else (lambda t: all(x in nset for x in t))
    if kind == "rel":
        return [t for t in ts if not inside(t)]
    if kind == "sub":
        return [t for t in ts if inside(t)]
    raise ValueError(f"unknown support kind {kind!r}")


def chain_basis(v: CoefficientSystem, k: int, strict: bool = True, support=None) -> ChainBasis:
    return ChainBasis(v, k, strict, _filtered_tuples(chains(v.space, k, strict), support))


def _chain_counts(space: StratSpace, strict: bool):
    """N_0, N_1, ...: N_k(y) chains of k+1 strata end at y, with N_0(y) = 1 and
    N_k(y) the sum of N_{k-1}(x) over x < y (strict) or x <= y (weak)."""
    counts = dict.fromkeys(space.ids, 1)
    while True:
        yield counts
        counts = {y: sum(counts[x] for x in space.below(y)) + (0 if strict else counts[y])
                  for y in space.ids}


def chain_space_dim(v: CoefficientSystem, k: int, strict: bool = True) -> int:
    """dim C^k = sum_y dim V(y) N_k(y), by counting chains (`_chain_counts`)."""
    if k < 0:
        raise ValueError("chain degree must be >= 0")
    counts = next(islice(_chain_counts(v.space, strict), k, None))
    return sum(v.dims[y] * n for y, n in counts.items())


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


def _differential(v: CoefficientSystem, src: ChainBasis, dst: ChainBasis,
                  bounds: Optional[Dict[tuple, Dict[tuple, int]]] = None) -> Rows:
    """Sparse rows of d from src to dst, one per coordinate of dst.

    Faces keeping the top stratum are identity blocks with alternating
    sign; dropping the top stratum projects the value.  On R's cells, with
    their boundaries (`_forest`), the block of a cell f at y at each cell c
    of its boundary, at x, is the coefficient times proj(x, y).
    """
    proj = v._rows
    if bounds is not None:
        return _assemble(dst, src, lambda f: [(c, a, proj(c[-1], f[-1]))
                                              for c, a in bounds[f].items()])

    def terms(t):
        n = len(t) - 1
        out = [(t[:i] + t[i + 1:], -1 if i & 1 else 1, None) for i in range(n)]
        out.append((t[:-1], -1 if n & 1 else 1, proj(t[-2], t[-1])))
        return out

    return _assemble(dst, src, terms)


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
    """Lazy basis/differential/cohomology cache for one filtered complex.

    Its tuples are the chains of the order complex or, given resolution,
    the cells and boundaries of R that `_forest` returns, built to every
    degree the caller reads: then it is Hom(R, V), strict, and its
    supports read the cells' strata (`_filtered_tuples`).  A complex with
    a support can filter the tuples of `whole`, the unfiltered complex of
    the same system and kind, instead of enumerating them.  It then
    shares whole's values wherever they are its own (`_keeps`): a basis
    that keeps all of whole's tuples, d_k and its transpose where bases k
    and k+1 do, and the cohomology data of degree k where bases k-1, k
    and k+1 do.  For a pair on an antichain, such as the minimal strata,
    that is every d_k with k >= 1 and every degree k >= 2.
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
            cells = self.resolution is not None
            if self.whole is None:
                ts = self.resolution[0][k] if cells else chains(self.v.space, k, self.strict)
                ts = _filtered_tuples(ts, self.support, cells)
            else:
                whole = self.whole.basis(k)
                ts = _filtered_tuples(whole.tuples, self.support, cells)
                # a filtered basis is a sublist of whole's: equal lengths, equal lists
                if len(ts) == len(whole.tuples):
                    self._bases[k] = whole
                    return whole
            self._bases[k] = ChainBasis(self.v, k, self.strict, ts)
        return self._bases[k]

    def _keeps(self, *ks: int) -> bool:
        """Whether the bases of degrees ks keep all of whole's tuples, and so are whole's."""
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
            src = self.basis(k)
            if k > 0:
                bad = square_failures(self.v, self.strict)
                if bad and any(t[-3:] in bad and t[:-2] in self.basis(k - 1).index
                               for t in self.basis(k + 1).tuples):
                    raise ValueError(f"degree {k} has no cohomology: d_{k} d_{k - 1} != 0, "
                                     "so the system fails the functor laws (see `check`)")
                d_in_t, d_out = self.d_t(k - 1), self.d(k)
            elif self.strict and self.support is None and self.resolution is None:
                # rows of d_0 with its kernel: the forest cut of a functor
                # known without a walk, else the system's cut pairs
                known = vars(self.v).get("_report")
                cut = _forest(self.v.space)[0] if known and known.ok else self.v._cut
                d_in_t, d_out = [], _differential(self.v, src, ChainBasis(self.v, 1, True, cut))
            else:
                d_in_t, d_out = [], self.d(0)
            self._data[k] = _CohomologyData(d_in_t, d_out, src.total_dim)
        return self._data[k]

    def result(self, k: int) -> CohomologyResult:
        if k < 0:
            raise ValueError("degree must be >= 0")
        data = self.data(k)
        basis = self.basis(k)
        reps = [Cochain._from_row(basis, r) for r in data._rep_rows]
        diag = {
            "dim_chain": data.dim_chain,
            "dim_cocycles": data.dim_cocycles,
            "rank_coboundaries": data.im_rank,
        }
        return CohomologyResult(k, data.dim, reps, diag)


def _forest(space: StratSpace, degree: int = 1):
    """One pass over the strata by (len(below), id): (cut, cells, bounds).

    R is the minimal resolution of the constant functor, built to degree
    (at least 1): cells[j] lists the j-cells, each a tuple ending in its
    stratum, and bounds maps each cell of degree >= 1 to its boundary
    (cell -> coefficient).  Each minimal stratum m has a 0-cell (m,).  At
    any other z, the lower covers fall into components, two covers joined
    when a minimal stratum lies below both (bitmasks of the minimal strata
    below each stratum).  cut lists one cover y of each component as the
    pair (y, z), sorted: a functor's assignments need no other
    (`_Complex.data`).  Each component beyond the first adds the 1-cell
    (a, b, z) with boundary a - b, a and b the first minimal strata below
    the first component and below this one.  In degree 2, the 1-cells below
    z that close a cycle of a spanning forest (a union-find) are the
    columns of the 2-cell boundaries below z; after one forward pass, each
    such 1-cell c off the pivots adds the 2-cell (c, z), whose boundary is
    c's fundamental cycle.  In each degree d >= 3, the kernel of the
    boundary on the (d-1)-cells below z (`sparse_echelon` of the transposed
    boundary rows, then `sparse_kernel`: one vector per free column) holds
    the boundaries of the d-cells below z; read on the free columns, one
    forward pass on those leaves the free columns c off its pivots, and
    each adds the d-cell (c, z) whose boundary is c's kernel vector made
    primitive.  The cells at z have boundaries independent of those below
    z, so the kernel at z never involves them.
    """
    mask: Dict[str, int] = {}         # stratum -> the minimal strata at or below it
    at: Dict[str, List[list]] = {}    # stratum -> its j-cells, j = 0..degree
    cut: List[Tuple[str, str]] = []
    cells: Tuple[list, ...] = tuple([] for _ in range(degree + 1))
    bounds: Dict[tuple, Dict[tuple, int]] = {}
    for z in sorted(space.ids, key=lambda z: (len(space.below(z)), z)):
        below = space.below(z)
        mine = at[z] = [[] for _ in cells]
        if not below:
            mask[z] = 1 << len(cells[0])
            cells[0].append((z,))
            continue
        parts: Dict[int, str] = {}    # a component's minimal strata -> one of its covers
        for y in space.lower_covers(z):
            m, first = mask[y], y
            for p in [p for p in parts if p & m]:
                m |= p
                first = parts.pop(p)
            parts[m] = first
        cut += [(y, z) for y in parts.values()]
        # each part's first minimal stratum: its lowest bit
        a, *rest = (cells[0][(p & -p).bit_length() - 1][0] for p in parts)
        mine[1] = [(a, b, z) for b in rest]
        for c in mine[1]:
            bounds[c] = {(a,): 1, (c[1],): -1}
        cells[1].extend(mine[1])
        mask[z] = sum(parts)          # the parts are disjoint
        if degree < 2:
            continue
        parent: Dict[str, str] = {}
        tree: Dict[str, list] = {}    # vertex -> (neighbour, 1-cell, sign of the step)
        closing = []                  # 1-cells closing a cycle
        for c in (c for x in below for c in at[x][1]):
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
        col = {c: j for j, c in enumerate(closing)}
        rows = [{col[c]: x for c, x in bounds[f].items() if c in col}
                for x in below for f in at[x][2]]
        pins = set(_forward(rows, len(closing))[1])
        for c in closing:
            if col[c] in pins:
                continue
            # the tree path from c[0] to c[1] closes c into a cycle
            prev, queue = {c[0]: None}, [c[0]]
            for u in queue:
                for w, e, s in tree.get(u, ()):
                    if w not in prev:
                        prev[w] = (u, e, s)
                        queue.append(w)
            cycle, w = {c: 1}, c[1]
            while prev[w]:
                w, e, s = prev[w]
                cycle[e] = s
            bounds[(c, z)] = cycle
            mine[2].append((c, z))
        cells[2].extend(mine[2])
        for d in range(3, degree + 1):
            faces = [c for x in below for c in at[x][d - 1]]
            if not faces:
                continue
            trans: Dict[tuple, SparseRow] = {}    # (d-2)-cell -> its row of the boundary's transpose
            for j, c in enumerate(faces):
                for e, x in bounds[c].items():
                    trans.setdefault(e, {})[j] = x
            red, pivots = sparse_echelon(list(trans.values()), len(faces))
            pinned = set(pivots)
            free = [j for j in range(len(faces)) if j not in pinned]
            slot = {faces[j]: i for i, j in enumerate(free)}
            rows = [{slot[c]: x for c, x in bounds[f].items() if c in slot}
                    for x in below for f in at[x][d]]
            pins = set(_forward(rows, len(free))[1])
            for i, vec in enumerate(sparse_kernel(red, pivots, len(faces))):
                if i not in pins:
                    cell = (faces[free[i]], z)
                    bounds[cell] = {faces[j]: x for j, x in _primitive(vec).items()}
                    mine[d].append(cell)
            cells[d].extend(mine[d])
    return sorted(cut), cells, bounds


def _resolution_dims(v: CoefficientSystem, k: int) -> List[int]:
    """dim H^0, ..., dim H^k of a functor from Hom(R, V), R built to degree k+1.

    Its cochains are those of `_Complex` on R's cells; R is exact, so
    dim H^j is dim C^j - rank delta_j - rank delta_{j-1}.
    """
    cx = _Complex(v, True, resolution=_forest(v.space, k + 1)[1:])
    dims = [cx.basis(j).total_dim for j in range(k + 1)]
    ranks = [_rank(cx.d(j), n) for j, n in enumerate(dims)]
    return [n - r - (ranks[j - 1] if j else 0) for j, (n, r) in enumerate(zip(dims, ranks))]


def cohomology(v: CoefficientSystem, k: int, strict: bool = True) -> CohomologyResult:
    """Cohomology at degree k with canonical echelon representatives.

    A degree k >= 1 of a functor (`check_functor(v).ok`) takes its
    dimension from the resolution (`_resolution_dims`), which has no cell,
    and so no class, in a degree beyond the number of strata.  Where
    dim H^k is 0 the diagnostics come from chain counts: rank d_j =
    dim C^j - dim H^j - rank d_{j-1}.  Only where dim H^k > 0 is the order
    complex built, for the representatives.  Degree 0 and every other
    system use the order complex.  Raises ValueError for k < 0 and in a
    degree where d_k d_{k-1} != 0.
    """
    if k > 0 and v._report.ok:
        dims = _resolution_dims(v, min(k, len(v.space.ids)))
        if len(dims) <= k or not dims[k]:
            sizes = list(islice(_chain_dims(v, strict), k + 1))  # dim C^0..C^k, to the last chain
            rank = 0
            for c, h in zip_longest(sizes[:k], dims[:k], fillvalue=0):
                rank = c - h - rank
            return CohomologyResult(k, 0, [], {"dim_chain": sizes[k] if k < len(sizes) else 0,
                                               "dim_cocycles": rank, "rank_coboundaries": rank})
    return _Complex(v, strict).result(k)


def assignment_space_dim(v: CoefficientSystem) -> int:
    return cohomology(v, 0, strict=True).dim


def _chain_dims(v: CoefficientSystem, strict: bool):
    """dim C^0, dim C^1, ..., sum_y dim V(y) N_k(y) from `_chain_counts`, up to
    the first k with no chain (never, on the full complex)."""
    counts = takewhile(lambda c: any(c.values()), _chain_counts(v.space, strict))
    return (sum(v.dims[y] * n for y, n in c.items()) for c in counts)


def euler_characteristic(v: CoefficientSystem) -> int:
    """Alternating sum of reduced chain dimensions, sum_k (-1)^k dim C^k (`_chain_dims`)."""
    return sum((-1) ** k * c for k, c in enumerate(_chain_dims(v, True)))


def _top_degree(space: StratSpace) -> int:
    """The order complex's top degree: the last k with a strict chain of k+1
    strata, from `_chain_counts`."""
    return sum(1 for _ in takewhile(lambda c: any(c.values()), _chain_counts(space, True))) - 1


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

    Raises ValueError for k < 0 and where this complex's d_k d_{k-1} != 0.
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
    if blocks is None and src.tuples == dst.tuples:
        return dict(vec)
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
    lift again.  d_b applies by columns, from b's cached transpose of d_k
    (`_Complex.d_t`), so only the lift's columns are read.  Degrees run to
    one past the last nonzero chain space of b, beyond which everything is
    zero; that degree is the order complex's (`_top_degree`) on either
    kind of complex, so the nodes are the same.  The induced maps need
    cocycles to stay cocycles, which holds only for functors
    (`_require_functors`).
    """
    top = _top_degree(b.v.space)
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
        maps.append(_induced_rows(hb, (_carry(r, ba, bb, f_img) for r in ha._rep_rows)))
        maps.append(_induced_rows(hc, (_carry(r, bb, bc, g_img) for r in hb._rep_rows)))
        if k <= top:
            maps.append(_induced_rows(a.data(k + 1), (connect(k, r) for r in hc._rep_rows)))
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
    subset cocycle by zero and apply the ambient differential.  For a
    down-closed n (no stratum outside n below one in n) the relative and
    subset complexes are those of the functors v off n and v on n, which
    Hom(R, V) computes on R's cells (`_les_resolution`); any other n stays on
    the order complex.  A system failing the functor laws raises
    ValueError naming its first violation.
    """
    space = v.space
    nset = _check_subset(space, n)
    _require_functors(v)
    down = all(x in nset for y in nset for x in space.below(y))
    full = _Complex(v, True, resolution=_les_resolution(space) if down else None)
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
    # the three functors share one poset, so they share one R
    res = _les_resolution(f.target.space)
    return _long_exact_sequence(("sub", "total", "quotient"),
                                *(_Complex(w, True, resolution=res)
                                  for w in (f.source, f.target, g.target)), f, g)


def _les_resolution(space: StratSpace):
    """R's cells and boundaries to every degree a long exact sequence reads:
    `_long_exact_sequence` runs d_k to one past the top degree."""
    return _forest(space, _top_degree(space) + 2)[1:]


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
    vec = _carry(phi._row, phi.basis, dst)
    if len(vec) != len(phi._row):
        raise ValueError("cochain has support outside the full basis")
    src = chain_basis(v_source, k, strict=False)
    return Cochain._from_row(src, _apply(_pullback_rows(f, v_target, v_source, src, dst), vec))
