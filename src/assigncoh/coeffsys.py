"""Coefficient systems on a stratification poset.

A system attaches a finite-dimensional rational space to every stratum and
a projection matrix to every comparable pair, contravariantly: data on a
stratum pushes to the strata whose closures contain it.  The distinguished
example is the moment system, whose space at X is spanned by the canonical
stabilizer basis of X, with projections given by restriction of
functionals.

A projection for X below Y is dims(Y) x dims(X), acting on coordinate
columns.  A system keeps its matrices as sparse rows, one per coordinate
of Y, with int entries where integral and Fractions only where a
denominator remains, in two tables.  `_explicit` holds the explicit
entries of a description (every pair, when the constructor is given them
all) and serves public values only.  `_at` holds the identity rows and the
cover maps; every other pair is composed from them on first use, along
the route `space.lower_covers` fixes, and memoized there.  The readers in
this package (the differential, the functor and d^2 checks, sub/quotient
systems, assignments) take those rows; `proj` builds the public
`RatMatrix` of Fractions on demand.

Because every other pair is composed from the cover maps, a family of
values with a_y = proj(x, y) a_x on every cover and every explicit
non-identity entry has it on every comparable pair.  A system records
those pairs once, as its cut, which follows from the two tables, and the
assignments (degree-0 cocycles) are solved on the cut alone.  An explicit
entry on a cover pair (`from_cover_maps` accepts one, a description file
cannot give one) overrides that pair's public value but not the
compositions, so then the cut is every comparable pair.  Likewise
check_functor tests composition on the cover squares
proj(y, z) proj(x, y) = proj(x, z), y a lower cover of z and x < y, which
give every strict triple by induction along covers.

>>> from assigncoh.builders import build_linear_rep
>>> space, v = build_linear_rep([(1, 0), (0, 1)])
>>> space.covers[0], v._rows(*space.covers[0])
(('c', 'c_1'), [{1: 1}])
>>> all(type(x) is int for p in v.pairs() for row in v._rows(*p) for x in row.values())
True
>>> from assigncoh.builders import SpaceDescription, build_from_description
>>> desc = SpaceDescription.from_json_dict({
...     "torus_dim": 1, "covers": [["a", "b"]], "dims": {"a": 1, "b": 1},
...     "strata": [{"id": "a", "stabilizer": [[1]]}, {"id": "b", "stabilizer": []}],
...     "projections": [{"pair": ["a", "b"], "matrix": [["1/2"]]}]})
>>> _, w = build_from_description(desc)
>>> w._rows("a", "b")
[{0: Fraction(1, 2)}]
>>> w.proj("b", "b").data, w.proj("a", "b").data
([[Fraction(1, 1)]], [[Fraction(1, 2)]])
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import NotOpenError, NotUnionOfStrataError, UnknownIdError
from .ratlin import RatMatrix, SparseRow, _exact, _sparse, sparse_echelon
from .stratposet import StratSpace

# a projection as sparse rows, one per coordinate of the upper stratum
Rows = List[SparseRow]

_ZERO = Fraction(0)


def _identity_rows(n: int) -> Rows:
    return [{i: 1} for i in range(n)]


def _mul(a: Rows, b: Rows) -> Rows:
    """The rows of a @ b, ints kept where integral and columns ascending."""
    out = []
    for arow in a:
        acc: SparseRow = {}
        for k, x in arow.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: _exact(acc[j]) for j in sorted(acc) if acc[j]})
    return out


def _push(rows: Rows, vec) -> Tuple:
    """The rows applied to a vector of Fractions, as a tuple of Fractions."""
    return tuple(sum((x * vec[j] for j, x in row.items()), _ZERO) for row in rows)


def _check_shapes(space: StratSpace, dims: Mapping[str, int], proj, pairs) -> None:
    """Check dims against the space and proj's matrix at each of pairs.

    Runs before any matrix is built from dims or composed from proj.
    """
    for x in space.ids:
        if x not in dims:
            raise UnknownIdError(x)
        if dims[x] < 0:
            raise ValueError(f"negative dimension at {x!r}")
    for x in dims:
        if x not in space.stabilizers:
            raise UnknownIdError(x)
    for x, y in pairs:
        m = proj.get((x, y))
        if m is None:
            raise ValueError(f"missing projection for pair ({x!r}, {y!r})")
        if m.shape() != (dims[y], dims[x]):
            raise ValueError(
                f"projection ({x!r}, {y!r}) has shape {m.shape()}, "
                f"expected ({dims[y]}, {dims[x]})"
            )


def _check_comparable(space: StratSpace, pairs) -> None:
    """Raise ValueError at the first of pairs (sorted) that is not weakly comparable."""
    extra = sorted(p for p in pairs
                   if p[0] not in space.stabilizers or p[1] not in space.upset(p[0]))
    if extra:
        x, y = extra[0]
        raise ValueError(
            f"projection given for pair ({x!r}, {y!r}), which is not comparable"
        )


class CoefficientSystem:
    """Dimensions and projection matrices over a StratSpace.

    Two tables of rows: _explicit, the explicit entries, gives public values
    only; _at holds the identities, the cover maps and their compositions
    along the route space.lower_covers fixes, never an explicit entry.  The
    cut follows from the two (see _keep).

    The constructor checks shapes and presence only; whether the data is
    actually functorial (identities and path-independent compositions) is
    the business of check_functor, so that deliberately perturbed systems
    can be loaded and then diagnosed.
    """

    def __init__(
        self,
        space: StratSpace,
        dims: Mapping[str, int],
        proj: Mapping[Tuple[str, str], RatMatrix],
    ):
        _check_shapes(space, dims, proj, [(x, x) for x in space.ids] + space.comparable_pairs())
        _check_comparable(space, proj)
        self._keep(space, dims, {}, {pair: _sparse(m) for pair, m in proj.items()})

    def _keep(self, space: StratSpace, dims: Mapping[str, int],
              covers: Mapping[Tuple[str, str], Rows],
              explicit: Dict[Tuple[str, str], Rows]) -> None:
        """Store the tables and the cut, the pairs whose conditions cut out
        the assignments (`cochain._Complex.data(0)`): the covers and explicit
        non-identity entries, or every comparable pair once an explicit
        entry hides a cover map that the compositions still use.
        """
        self.space = space
        self.dims = dict(dims)
        self._at = {(x, x): _identity_rows(dims[x]) for x in space.ids}
        self._at.update(covers)
        self._explicit = explicit
        if any(p in covers for p in explicit):
            self._cut = space.comparable_pairs()
        else:
            self._cut = sorted(set(covers).union(p for p in explicit if p[0] != p[1]))

    @classmethod
    def _of_rows(cls, space: StratSpace, dims: Mapping[str, int],
                 covers: Mapping[Tuple[str, str], Rows],
                 explicit: Dict[Tuple[str, str], Rows]) -> "CoefficientSystem":
        """A system from its cover maps and explicit entries, as rows."""
        v = cls.__new__(cls)
        v._keep(space, dims, covers, explicit)
        return v

    @classmethod
    def from_cover_maps(
        cls,
        space: StratSpace,
        dims: Mapping[str, int],
        cover_maps: Mapping[Tuple[str, str], RatMatrix],
        explicit: Optional[Mapping[Tuple[str, str], RatMatrix]] = None,
    ) -> "CoefficientSystem":
        """Fill all comparable pairs by composing cover maps along one path.

        The path is the route space.lower_covers fixes, so the result is
        deterministic; if different paths disagree the construction keeps
        that one and check_functor will name a violating triple.  Entries
        in `explicit` override the public value of their pair, never a
        step of another pair's composition.  Pairs are composed on first
        use (see _compose).
        """
        _check_shapes(space, dims, cover_maps, space.covers)
        explicit = dict(explicit or {})
        order = sorted(explicit, key=lambda p: (p[0] != p[1], p))
        _check_shapes(space, dims, explicit,
                      [p for p in order if p[0] in space.stabilizers
                       and p[1] in space.upset(p[0])])
        _check_comparable(space, explicit)
        return cls._of_rows(
            space, dims, {c: _sparse(cover_maps[c]) for c in space.covers},
            {pair: _sparse(m) for pair, m in explicit.items()})

    def _rows(self, x: str, y: str) -> Rows:
        """proj(x, y) as rows: the explicit entry, else the path; x <= y."""
        rows = self._explicit.get((x, y))
        return self._path(x, y) if rows is None else rows

    def _path(self, x: str, z: str) -> Rows:
        """The identity or cover map at (x, z), or its composition, memoized."""
        rows = self._at.get((x, z))
        if rows is None:
            rows = self._at[(x, z)] = self._compose(x, z)
        return rows

    def _compose(self, x: str, z: str) -> Rows:
        """proj(x, z) for x < z not a cover: cover(y, z) @ path(x, y).

        y is the first of space.lower_covers(z) above x (x itself is no
        lower cover of z here): the first path a walk up from x along the
        linear extension those lists are sorted by reaches z by.
        """
        up = self.space.upset(x)
        y = next(y for y in self.space.lower_covers(z) if y in up)
        return _mul(self._at[(y, z)], self._path(x, y))

    def proj(self, x: str, y: str) -> RatMatrix:
        if x not in self.dims:
            raise UnknownIdError(x)
        if y not in self.dims:
            raise UnknownIdError(y)
        if y not in self.space.upset(x):
            raise ValueError(f"strata {x!r} and {y!r} are not comparable")
        return RatMatrix.from_sparse(self._rows(x, y), self.dims[x])

    def pairs(self) -> List[Tuple[str, str]]:
        return sorted([(x, x) for x in self.space.ids] + self.space.comparable_pairs())

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __repr__(self):
        return f"CoefficientSystem(dims={self.dims})"


def moment_system(space: StratSpace) -> CoefficientSystem:
    """System with V(X) coordinatized by the canonical stabilizer basis of X.

    For X below Y the stabilizer of Y sits inside the stabilizer of X, so
    each basis vector of Y expands uniquely over the basis of X; those
    coefficient rows form the projection, which is exactly restriction of
    linear functionals in stabilizer coordinates.  Only the covers are
    solved, once, when the space is loaded (StratSpace.cover_coords, integer
    rows that the system keeps as they are): the other pairs are composed
    from them on first use, as from_cover_maps would.  Along X < Y < Z,
    expanding the basis of Z over Y and then over X gives an expansion of
    Z over X, and that expansion is unique, so every composed projection
    equals the one a direct solve would give.
    """
    dims = {x: space.stabilizer(x).dim for x in space.ids}
    return CoefficientSystem._of_rows(space, dims, space.cover_coords, {})


@dataclass(frozen=True)
class FunctorReport:
    identity_violations: Tuple[str, ...]
    composition_violations: Tuple[Tuple[str, str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.identity_violations and not self.composition_violations


def check_functor(v: CoefficientSystem) -> FunctorReport:
    """Verify the identity and composition laws of the system.

    The composition law on every strict triple follows from the cover
    squares proj(y, z) proj(x, y) = proj(x, z), y a lower cover of z and
    x < y, by induction along covers: for y < w < z with w a lower cover
    of z, proj(y, z) proj(x, y) = proj(w, z) proj(y, w) proj(x, y)
    = proj(w, z) proj(x, w) = proj(x, z).  So the squares are checked
    first, walking each y's strict downset, and every strict triple is
    walked only when a square fails, to list every violation.
    """
    space = v.space
    rows = v._rows
    bad_id = [x for x in space.ids if rows(x, x) != _identity_rows(v.dims[x])]
    if all(_mul(rows(y, z), rows(x, y)) == rows(x, z)
           for y, z in space.covers for x in space.below(y)):
        return FunctorReport(tuple(bad_id), ())
    bad_comp = []
    for x, y in space.comparable_pairs():
        first = rows(x, y)
        for z in space.above(y):
            if _mul(rows(y, z), first) != rows(x, z):
                bad_comp.append((x, y, z))
    return FunctorReport(tuple(bad_id), tuple(bad_comp))


def weak_square_zero(v: CoefficientSystem, report: FunctorReport) -> bool:
    """Whether d^2 = 0 on the weak-tuple complex, read off v's functor report.

    It holds exactly when D(a, b, c) = proj(b, c) proj(a, b) - proj(a, c)
    vanishes on every weak triple (README, `check`).  On a strict triple that
    is a composition law; a triple with a repeat repeats b, and can fail only
    where P = proj(b, b) is not the identity.
    """
    if report.composition_violations:
        return False
    space = v.space
    for x in report.identity_violations:
        p = v._rows(x, x)
        outs = [v._rows(x, c) for c in space.above(x)]
        ins = [v._rows(a, x) for a in space.below(x)]
        if (_mul(p, p) != p or any(_mul(m, p) != m for m in outs)
                or any(_mul(p, m) != m for m in ins)):
            return False
    return True


def _check_subset(space: StratSpace, n: Iterable[str]) -> frozenset:
    n = frozenset(n)
    bad = sorted(x for x in n if x not in space.stabilizers)
    if bad:
        raise NotUnionOfStrataError(bad)
    return n


def _closure_direction(space: StratSpace, n: frozenset) -> str:
    """'up', 'down', 'both', or raise NotOpenError with an escape witness.

    Order-closed subsets in either direction are exactly the ones for
    which zeroing projections across the boundary stays functorial: a
    violating triple X <= Y <= Z needs Y inside and X, Z outside, which
    one-sided closure forbids.
    """
    up_witness = next(
        ((x, y) for x in sorted(n) for y in space.above(x) if y not in n), None
    )
    down = all(space.upset(x).isdisjoint(n) for x in space.ids if x not in n)
    if up_witness is None and down:
        return "both"
    if up_witness is None:
        return "up"
    if down:
        return "down"
    raise NotOpenError(up_witness)


def _kept_on(v: CoefficientSystem, keep: frozenset) -> CoefficientSystem:
    """v on the strata of keep, zero elsewhere: projections touching the rest vanish."""
    dims = {x: (v.dims[x] if x in keep else 0) for x in v.space.ids}
    rows = {}
    for x, y in v.pairs():
        if x in keep and y in keep:
            rows[(x, y)] = v._rows(x, y)
        else:
            rows[(x, y)] = [{}] * dims[y]
    return CoefficientSystem._of_rows(v.space, dims, {}, rows)


def quotient_system(v: CoefficientSystem, n: Iterable[str]) -> CoefficientSystem:
    """Zero the system on n: dims drop to 0 on n, crossing projections vanish.

    n must be order-closed upward or downward inside the space; otherwise
    the zeroed data would fail the composition law and NotOpenError names
    an escaping pair.
    """
    nset = _check_subset(v.space, n)
    _closure_direction(v.space, nset)
    return _kept_on(v, frozenset(v.space.ids) - nset)


def restriction_system(v: CoefficientSystem, n: Iterable[str]) -> CoefficientSystem:
    """Keep the system on n only; complementary construction to quotient_system."""
    nset = _check_subset(v.space, n)
    _closure_direction(v.space, nset)
    return _kept_on(v, nset)


class SystemMorphism:
    """Stratum-wise linear maps commuting with the projections.

    Naturality is part of the type: construction fails on a non-commuting
    square, naming the pair.
    """

    def __init__(
        self,
        source: CoefficientSystem,
        target: CoefficientSystem,
        maps: Mapping[str, RatMatrix],
    ):
        if source.space is not target.space:
            raise ValueError("source and target systems live on different spaces")
        space = source.space
        for x in space.ids:
            m = maps.get(x)
            if m is None:
                raise UnknownIdError(x)
            if m.shape() != (target.dims[x], source.dims[x]):
                raise ValueError(
                    f"map at {x!r} has shape {m.shape()}, expected "
                    f"({target.dims[x]}, {source.dims[x]})"
                )
        rows = {x: _sparse(maps[x]) for x in space.ids}
        for x, y in space.comparable_pairs():
            if _mul(rows[y], source._rows(x, y)) != _mul(target._rows(x, y), rows[x]):
                raise ValueError(f"naturality square fails at pair ({x!r}, {y!r})")
        self.source = source
        self.target = target
        self.maps = dict(maps)
        self._rows = rows  # sparse, one row per target coordinate (ses_check, cochain)

    def map_at(self, x: str) -> RatMatrix:
        return self.maps[x]

    @classmethod
    def identity(cls, v: CoefficientSystem) -> "SystemMorphism":
        return cls(v, v, {x: RatMatrix.identity(v.dims[x]) for x in v.space.ids})

    @classmethod
    def zero(cls, source: CoefficientSystem, target: CoefficientSystem) -> "SystemMorphism":
        return cls(
            source,
            target,
            {x: RatMatrix.zeros(target.dims[x], source.dims[x]) for x in source.space.ids},
        )


@dataclass(frozen=True)
class SesReport:
    injective_failures: Tuple[str, ...]
    surjective_failures: Tuple[str, ...]
    middle_failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not (
            self.injective_failures or self.surjective_failures or self.middle_failures
        )


def ses_check(f: SystemMorphism, g: SystemMorphism) -> SesReport:
    """Stratum-wise exactness of 0 -> f.source -> f.target -> g.target -> 0."""
    if f.target is not g.source:
        raise ValueError("middle systems of the sequence differ")
    inj, surj, mid = [], [], []
    for x in f.source.space.ids:
        rf, rg = (len(sparse_echelon(h._rows[x], h.source.dims[x])[1]) for h in (f, g))
        if rf != f.source.dims[x]:
            inj.append(x)
        if rg != g.target.dims[x]:
            surj.append(x)
        if any(_mul(g._rows[x], f._rows[x])) or rf + rg != f.target.dims[x]:
            mid.append(x)
    return SesReport(tuple(inj), tuple(surj), tuple(mid))


def pair_ses(
    v: CoefficientSystem, n: Iterable[str]
) -> Tuple[SystemMorphism, SystemMorphism]:
    """The natural short exact sequence splitting v across the subset n.

    For downward-closed n the part supported off n is the subsystem and the
    part on n is the quotient; for upward-closed n the roles swap.  Either
    way the stratum-wise maps are identities and zero maps.
    """
    nset = _check_subset(v.space, n)
    direction = _closure_direction(v.space, nset)
    off_part = quotient_system(v, nset)   # supported off n
    on_part = restriction_system(v, nset)  # supported on n
    if direction in ("down", "both"):
        sub, quot = off_part, on_part
    else:
        sub, quot = on_part, off_part

    def block(rows, cols):
        if rows == cols:
            return RatMatrix.identity(rows)
        return RatMatrix.zeros(rows, cols)

    inc = SystemMorphism(
        sub, v, {x: block(v.dims[x], sub.dims[x]) for x in v.space.ids}
    )
    prj = SystemMorphism(
        v, quot, {x: block(quot.dims[x], v.dims[x]) for x in v.space.ids}
    )
    return inc, prj
