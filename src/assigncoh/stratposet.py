"""Stratification posets with torus stabilizer data.

A space here is a finite poset of stratum ids, ordered by "is in the
closure of", together with an integer subalgebra of the torus Lie algebra
attached to each stratum.  Along every cover X < Y the stabilizer of Y
must sit inside the stabilizer of X with strictly smaller dimension.

Subalgebras are stored in a canonical form (Hermite basis of the saturated
lattice spanned by the input vectors) so that equality of subspaces is
equality of tuples and spaces built from different generating sets merge
identically.  The same form answers inclusion: coordinates of one
subalgebra over another (Subalgebra.coordinates_of) are read off by
reducing against the echelon basis pivot by pivot, in integers, with no
rational elimination.

StratSpace.from_covers takes any acyclic relation, keeps only its immediate
pairs as the covers, and computes the order and inclusion facts once (upsets,
strict upsets and downsets, lower covers, cover coordinates); coeffsys,
cochain and builders read them from the space instead of deriving them again.
The route of covers (`StratSpace._route`) and the components of each
stratum's lower covers, named by their first minimal strata
(`_components`), are decided here.
Most strata share a stabilizer, so each distinct stabilizer pair along the
covers is validated and solved once per load, and its rows are shared by
every cover with that pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import CycleError, StabilizerMonotonicityError, UnknownIdError
from .ratlin import RatMatrix, SparseRow, _integer


# ---------------------------------------------------------------------------
# integer lattice helpers
#
# One integer elimination, _hermite_rows, does both lattice jobs: the kernel
# of an integer matrix (_int_kernel) and, as the kernel of that kernel, the
# saturation of a span (Subalgebra.span).

def _int_kernel(rows: Sequence[Sequence[int]], n: int) -> Tuple[Tuple[int, ...], ...]:
    """Hermite basis of the lattice {x in Z^n : rows @ x = 0}, which is saturated.

    The rows of [rows^T | I_n] span the vectors (rows @ c, c) for c in Z^n.
    Their Hermite form is echelon, so its rows that vanish on the first
    len(rows) columns span exactly those with rows @ c = 0, and their last
    n columns are already the Hermite basis of the kernel lattice.
    """
    m = len(rows)
    h = _hermite_rows(
        [[r[j] for r in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    )
    return tuple(row[m:] for row in h if not any(row[:m]))


def _hermite_rows(rows: List[List[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Unique Hermite-normal-form basis (as rows) of the lattice the rows span.

    Echelon with positive pivots and the entries above each pivot in
    [0, pivot); this is the package's only integer elimination.
    """
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


class Subalgebra:
    """Rational subspace of the torus Lie algebra, canonically presented.

    The stored basis is the Hermite basis of the saturation of the span of
    the input vectors, so two Subalgebra objects are equal exactly when
    they describe the same rational subspace.
    """

    __slots__ = ("ambient_dim", "basis_rows")

    def __init__(self, ambient_dim: int, basis_rows: Tuple[Tuple[int, ...], ...]):
        self.ambient_dim = ambient_dim
        self.basis_rows = basis_rows

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "Subalgebra":
        """Canonical subalgebra spanned by integer vectors.

        The saturation of the span is the kernel of its kernel, and
        _int_kernel returns the Hermite basis of that lattice.  Rows in
        reduced echelon form with unit pivots (an exact O(rows x ambient_dim)
        check) span a saturated lattice and are its Hermite basis already.

        >>> Subalgebra.span(2, [[2, 2]]).basis_rows
        ((1, 1),)
        >>> Subalgebra.span(2, [[1, 1], [1, -1]]).basis_rows
        ((1, 0), (0, 1))
        >>> Subalgebra.span(2, [[0, 0]]).basis_rows
        ()
        >>> Subalgebra.span(3, [[1, 0, 2], [0, 1, -1]]).basis_rows
        ((1, 0, 2), (0, 1, -1))
        """
        rows = []
        for v in vectors:
            v = tuple(map(_integer, v))
            if len(v) != ambient_dim:
                raise ValueError(
                    f"vector length {len(v)} != ambient dimension {ambient_dim}"
                )
            rows.append(v)
        leads = [next((j for j, x in enumerate(v) if x), None) for v in rows]
        if (None not in leads and all(a < b for a, b in zip(leads, leads[1:]))
                and all(v[j] == 1 and sum(1 for u in rows if u[j]) == 1
                        for v, j in zip(rows, leads))):
            return cls(ambient_dim, tuple(rows))
        return cls(ambient_dim, _int_kernel(_int_kernel(rows, ambient_dim), ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subalgebra":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subalgebra":
        """The whole algebra; the identity rows are its Hermite basis."""
        return cls(
            ambient_dim,
            tuple(tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim)),
        )

    @property
    def dim(self) -> int:
        return len(self.basis_rows)

    def coordinates_of(self, other: "Subalgebra") -> Optional[RatMatrix]:
        """Basis of other over this basis, one row each (other.dim x self.dim).

        None when other does not lie inside this subalgebra.

        >>> plane = Subalgebra.span(3, [[1, 0, 0], [0, 1, 0]])
        >>> plane.coordinates_of(Subalgebra.span(3, [[2, 4, 0]])).data
        [[Fraction(1, 1), Fraction(2, 1)]]
        >>> plane.coordinates_of(Subalgebra.span(3, [[0, 1, 1]])) is None
        True
        """
        rows = self._coordinate_rows(other)
        return None if rows is None else RatMatrix.from_sparse(rows, self.dim)

    def _coordinate_rows(self, other: "Subalgebra") -> Optional[List[SparseRow]]:
        """coordinates_of as sparse integer rows (basis index -> coefficient).

        Each row of other is reduced against the basis pivot by pivot, in
        order: the basis is echelon, so the coefficient of basis row i is
        the residual at pivot i divided by that pivot.  The lattice is
        saturated, so a vector of the span has integer coordinates; a
        nonzero remainder or a nonzero final residual means the vector lies
        outside the span.

        >>> Subalgebra.span(3, [[1, 0, 0], [0, 1, 0]])._coordinate_rows(
        ...     Subalgebra.span(3, [[2, 4, 0]]))
        [{0: 1, 1: 2}]
        """
        if self.ambient_dim != other.ambient_dim or other.dim > self.dim:
            return None
        pivots = [next(j for j, x in enumerate(b) if x) for b in self.basis_rows]
        rows = []
        for v in other.basis_rows:
            coords = {}
            for i, (b, p) in enumerate(zip(self.basis_rows, pivots)):
                q, rem = divmod(v[p], b[p])
                if rem:
                    return None
                if q:
                    v = [x - q * y for x, y in zip(v, b)]
                    coords[i] = q
            if any(v):
                return None
            rows.append(coords)
        return rows

    def contains(self, other: "Subalgebra") -> bool:
        return self._coordinate_rows(other) is not None

    def __eq__(self, other):
        if not isinstance(other, Subalgebra):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis_rows == other.basis_rows

    def __hash__(self):
        return hash((self.ambient_dim, self.basis_rows))

    def __repr__(self):
        return f"Subalgebra(dim={self.dim}/{self.ambient_dim}, basis={self.basis_rows})"


# ---------------------------------------------------------------------------
# the poset

class StratSpace:
    """Finite stratification poset with a stabilizer subalgebra per stratum.

    from_covers stores the upsets (leq, upset), the sorted strict upsets
    and downsets (above, below), the lower covers in route order
    (lower_covers, _route) and each cover's coordinates as sparse integer
    rows (cover_coords, which moment_system keeps as its cover maps).
    Every pair in covers is immediate: no stratum lies strictly between
    its ends.  coeffsys checks assignments and the functor laws on the
    covers alone, which rests on that.
    """

    def __init__(self, torus_dim, ids, stabilizers, cover_coords, upsets):
        self.torus_dim = torus_dim
        self.ids = ids                    # sorted tuple of stratum ids
        self.stabilizers = stabilizers    # id -> Subalgebra
        self.cover_coords = cover_coords  # (lower, upper) -> integer rows, sorted
        self.covers = tuple(cover_coords)
        self._upsets = upsets             # id -> frozenset of ids weakly above
        self._above = {x: tuple(sorted(s - {x})) for x, s in upsets.items()}
        self._below = {x: [] for x in ids}      # id -> ids strictly below, sorted
        self._covered = {x: [] for x in ids}    # id -> lower covers, route order
        for x in ids:
            for y in self._above[x]:
                self._below[y].append(x)
        for x, y in self.covers:
            self._covered[y].append(x)
        for xs in self._covered.values():
            xs.sort(key=lambda x: (-len(upsets[x]), x))

    @classmethod
    def from_covers(
        cls,
        torus_dim: int,
        strata: Mapping[str, Subalgebra],
        covers: Iterable[Tuple[str, str]],
    ) -> "StratSpace":
        """The space whose covers are the immediate pairs of `covers`.

        Raises UnknownIdError for an unknown id, CycleError for a cycle, and
        StabilizerMonotonicityError at the first cover in sorted order whose
        upper stabilizer is not inside the lower one with a strictly smaller
        dimension.  Each distinct (lower, upper) stabilizer pair is checked
        and solved once; covers with that pair share its rows, which no
        reader mutates.
        """
        stabilizers = dict(strata)
        ids = tuple(sorted(stabilizers))
        if not ids:
            raise ValueError("a space needs at least one stratum")
        for x, s in stabilizers.items():
            if s.ambient_dim != torus_dim:
                raise ValueError(
                    f"stratum {x!r}: stabilizer ambient dim {s.ambient_dim} != torus dim {torus_dim}"
                )
        cover_list = []
        for x, y in covers:
            if x not in stabilizers:
                raise UnknownIdError(x)
            if y not in stabilizers:
                raise UnknownIdError(y)
            cover_list.append((x, y))
        cover_list = sorted(set(cover_list))

        # topological order first; leftovers witness a cycle.  Any order gives
        # the same upsets and the same leftovers, so a plain stack will do.
        succ = {x: [] for x in ids}
        indeg = {x: 0 for x in ids}
        for x, y in cover_list:
            succ[x].append(y)
            indeg[y] += 1
        stack = [x for x in ids if indeg[x] == 0]
        order = []
        while stack:
            x = stack.pop()
            order.append(x)
            for y in succ[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    stack.append(y)
        if len(order) != len(ids):
            raise CycleError(sorted(x for x in ids if indeg[x] > 0))

        # (x, y) is implied when y lies in the upset of another successor z of
        # x, which comes first in topological order: so walking the successors
        # in that order, y is implied when the upsets kept so far hold it
        rank = {x: i for i, x in enumerate(order)}
        upsets = {x: {x} for x in ids}
        kept = set()
        for x in reversed(order):
            up = upsets[x]
            for y in sorted(succ[x], key=rank.__getitem__):
                if y not in up:
                    kept.add((x, y))
                    up |= upsets[y]
        upsets = {x: frozenset(s) for x, s in upsets.items()}

        # inclusion and a strict dimension drop are transitive, so the kept
        # pairs carry every check an implied pair would add.  Each distinct
        # stabilizer gets a class number, and each (lower class, upper class)
        # pair is checked and solved at its first cover; a failing pair raises
        # there, so only passing pairs are memoized.
        klass = {}
        of = {x: klass.setdefault(s.basis_rows, len(klass)) for x, s in stabilizers.items()}
        solved = {}
        cover_coords = {}
        for x, y in filter(kept.__contains__, cover_list):
            key = (of[x], of[y])
            m = solved.get(key)
            if m is None:
                sx, sy = stabilizers[x], stabilizers[y]
                m = sx._coordinate_rows(sy)
                if m is None:
                    raise StabilizerMonotonicityError(
                        (x, y), "stabilizer of the upper stratum is not inside the lower one"
                    )
                if sy.dim >= sx.dim:
                    raise StabilizerMonotonicityError(
                        (x, y), "stabilizer dimension does not strictly decrease"
                    )
                solved[key] = m
            cover_coords[(x, y)] = m
        return cls(torus_dim, ids, stabilizers, cover_coords, upsets)

    def leq(self, x: str, y: str) -> bool:
        """True when x is weakly below y (x in the closure order below y)."""
        if x not in self._upsets:
            raise UnknownIdError(x)
        if y not in self.stabilizers:
            raise UnknownIdError(y)
        return y in self._upsets[x]

    def above(self, x: str) -> Tuple[str, ...]:
        """Ids strictly above x, sorted."""
        return self._above[x]

    def below(self, x: str) -> List[str]:
        """Ids strictly below x, sorted."""
        return self._below[x]

    def lower_covers(self, x: str) -> List[str]:
        """The strata x covers, by shrinking upset, then id: a linear extension."""
        return self._covered[x]

    def _route(self, x: str, z: str) -> str:
        """The first of lower_covers(z) weakly above x, for x < z: the step
        every composed proj(x, z) and every pushed value takes into z."""
        up = self._upsets[x]
        return next(y for y in self._covered[z] if y in up)

    def upset(self, x: str) -> frozenset:
        if x not in self._upsets:
            raise UnknownIdError(x)
        return self._upsets[x]

    def stabilizer(self, x: str) -> Subalgebra:
        try:
            return self.stabilizers[x]
        except KeyError:
            raise UnknownIdError(x) from None

    def comparable_pairs(self) -> List[Tuple[str, str]]:
        """All ordered pairs (x, y) with x strictly below y."""
        return [(x, y) for x in self.ids for y in self.above(x)]

    def __repr__(self):
        return f"StratSpace(torus_dim={self.torus_dim}, strata={len(self.ids)}, covers={len(self.covers)})"


def minimal_strata(space: StratSpace) -> Tuple[str, ...]:
    """Sorted ids with nothing strictly below them."""
    return tuple(x for x in space.ids if not space.below(x))


def _components(space: StratSpace) -> Dict[str, Dict[str, str]]:
    """Each stratum's lower covers in components, by (len(below), id).

    Two covers are joined when a minimal stratum lies below both (bit i of
    a mask is the i-th minimal stratum by id).  Each stratum maps to {a
    component's first minimal stratum: the cover the walk keeps for it};
    a minimal stratum has none.
    """
    minima = minimal_strata(space)
    mask: Dict[str, int] = {}         # stratum -> the minimal strata at or below it
    out = {}
    for z in sorted(space.ids, key=lambda z: (len(space.below(z)), z)):
        parts = {}
        for y in space.lower_covers(z):
            m, first = mask[y], y
            for p in [p for p in parts if p & m]:
                m |= p
                first = parts.pop(p)
            parts[m] = first
        # the parts are disjoint; minimal strata come first, one bit each
        mask[z] = sum(parts) or 1 << len(mask)
        out[z] = {minima[(p & -p).bit_length() - 1]: y for p, y in parts.items()}
    return out


def chains(space: StratSpace, k: int, strict: bool) -> List[Tuple[str, ...]]:
    """All (k+1)-tuples X0 <= ... <= Xk, lexicographic in sorted-id order.

    With strict=True consecutive entries must differ; repeats are allowed
    otherwise.  k = 0 gives the singleton tuples either way.  Extending each
    chain of degree k-1, in order, by sorted strata keeps the order.
    """
    if k < 0:
        raise ValueError("chain degree must be >= 0")
    step = space._above if strict else {x: tuple(sorted(space.upset(x))) for x in space.ids}
    out = [(x,) for x in space.ids]
    for _ in range(k):
        if not out:
            break
        out = [t + (y,) for t in out for y in step[t[-1]]]
    return out


@dataclass(frozen=True)
class PosetMap:
    """A map of stratum ids between two spaces over the same torus."""

    source: StratSpace
    target: StratSpace
    mapping: Mapping[str, str]

    def __call__(self, x: str) -> str:
        try:
            return self.mapping[x]
        except KeyError:
            raise UnknownIdError(x) from None


@dataclass(frozen=True)
class MorphismReport:
    monotonicity_violations: Tuple[Tuple[str, str], ...]
    stabilizer_violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.monotonicity_violations and not self.stabilizer_violations


def poset_morphism_check(
    f: Mapping[str, str], source: StratSpace, target: StratSpace
) -> MorphismReport:
    """Check order preservation and stabilizer inclusion stratum by stratum.

    f must be total on the source ids and land in the target ids; a partial
    or dangling map raises UnknownIdError rather than being reported.
    """
    for x in source.ids:
        if x not in f:
            raise UnknownIdError(x)
    for x, fx in f.items():
        if x not in source.stabilizers:
            raise UnknownIdError(x)
        if fx not in target.stabilizers:
            raise UnknownIdError(fx)
    mono = []
    for x, y in source.comparable_pairs():
        if not target.leq(f[x], f[y]):
            mono.append((x, y))
    stab = []
    for x in source.ids:
        if not target.stabilizer(f[x]).contains(source.stabilizer(x)):
            stab.append(x)
    return MorphismReport(tuple(mono), tuple(stab))
