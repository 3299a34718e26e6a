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
systems, assignments) take those rows; a `RatMatrix` shares them both
ways (`proj`, the constructors).  Every product of rows here is
`ratlin._mul`: the row arithmetic lives in `ratlin` alone.

Every pair in `space.covers` is immediate (`StratSpace.from_covers` keeps
no implied pair), and no explicit entry sits on a cover, so every other
pair is composed from the cover maps: a family of values with
a_y = proj(x, y) a_x on every cover and every explicit non-identity entry
has it on every comparable pair.  A system records those pairs once, as
its cut, and the assignments (degree-0 cocycles) are solved on the cut
alone.  A moment system satisfies the functor laws by construction and
carries the empty report from the start; on any other system
check_functor tests composition on the cover squares
proj(y, z) proj(x, y) = proj(x, z), y a lower cover of z and x < y, which
give every strict triple by induction along covers, once per system.  The
report is kept, and square_failures reads off it the triples on which every
cochain complex's d^2 = 0 fails (README, `check`).

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
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import NotOpenError, NotUnionOfStrataError, UnknownIdError
from .ratlin import RatMatrix, Rows, _identity_rows, _mul, _rank
from .stratposet import StratSpace


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
    along the route space.lower_covers fixes, never an explicit entry.  No
    pair is in both, and the cut follows from the two (see _keep).

    The constructor checks shapes and presence only; whether the data is
    actually functorial (identities and path-independent compositions) is
    the business of check_functor, so that deliberately perturbed systems
    can be loaded and then diagnosed; the report is kept (_report), and
    moment_system sets it when it builds a system.
    """

    def __init__(
        self,
        space: StratSpace,
        dims: Mapping[str, int],
        proj: Mapping[Tuple[str, str], RatMatrix],
    ):
        _check_shapes(space, dims, proj, [(x, x) for x in space.ids] + space.comparable_pairs())
        _check_comparable(space, proj)
        self._keep(space, dims, {}, {pair: m._rows for pair, m in proj.items()})

    def _keep(self, space: StratSpace, dims: Mapping[str, int],
              covers: Mapping[Tuple[str, str], Rows],
              explicit: Dict[Tuple[str, str], Rows]) -> None:
        """Store the tables and the cut, the pairs whose conditions cut out
        the assignments (`cochain._Complex.data(0)`): the covers and the
        explicit non-identity entries.
        """
        self.space = space
        self.dims = dict(dims)
        self._at = {(x, x): _identity_rows(dims[x]) for x in space.ids}
        self._at.update(covers)
        self._explicit = explicit
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
        in `explicit` give the public value of their pair, never a step of
        another pair's composition; a cover's map belongs in `cover_maps`,
        and an explicit entry on a cover raises ValueError.  Likewise every
        key of `cover_maps` must be a cover: the first other key in sorted
        order raises UnknownIdError for an unknown id, else ValueError.
        Pairs are composed on first use (see _compose).
        """
        _check_shapes(space, dims, cover_maps, space.covers)
        stray = min((p for p in cover_maps if p not in space.cover_coords), default=None)
        if stray:
            for x in stray:
                if x not in space.stabilizers:
                    raise UnknownIdError(x)
            raise ValueError(f"cover_maps entry on the non-cover pair {stray}")
        explicit = dict(explicit or {})
        on_cover = min((p for p in explicit if p in space.cover_coords), default=None)
        if on_cover:
            raise ValueError(f"explicit entry on the cover pair {on_cover}; pass it in cover_maps")
        order = sorted(explicit, key=lambda p: (p[0] != p[1], p))
        _check_shapes(space, dims, explicit,
                      [p for p in order if p[0] in space.stabilizers
                       and p[1] in space.upset(p[0])])
        _check_comparable(space, explicit)
        return cls._of_rows(
            space, dims, {c: cover_maps[c]._rows for c in space.covers},
            {pair: m._rows for pair, m in explicit.items()})

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

    @cached_property
    def _report(self) -> FunctorReport:
        """The functor laws, walked on first use and kept (`check_functor`)."""
        return _walk_laws(self)

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
    equals the one a direct solve would give.  So the functor laws hold by
    construction, and the system carries the empty report (check_functor)
    instead of walking them.
    """
    dims = {x: space.stabilizer(x).dim for x in space.ids}
    v = CoefficientSystem._of_rows(space, dims, space.cover_coords, {})
    v._report = FunctorReport((), ())
    return v


def _is_moment_system(space: StratSpace, v: CoefficientSystem) -> bool:
    """Whether v is space's moment system: the stabilizer dimensions, no
    explicit entry, and the rows of space.cover_coords on every cover."""
    return (v.dims == {x: space.stabilizer(x).dim for x in space.ids}
            and not v._explicit
            and all(v._at.get(c) == rows for c, rows in space.cover_coords.items()))


@dataclass(frozen=True)
class FunctorReport:
    identity_violations: Tuple[str, ...]
    composition_violations: Tuple[Tuple[str, str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.identity_violations and not self.composition_violations


def check_functor(v: CoefficientSystem) -> FunctorReport:
    """Verify the identity and composition laws of the system.

    A moment system's report is empty by construction (moment_system).
    Any other system never changes, so its laws are walked once
    (`_walk_laws`) and kept.
    """
    return v._report


def _walk_laws(v: CoefficientSystem) -> FunctorReport:
    """The functor report of v, a system that is not a moment system.

    The composition law on every strict triple follows from the cover
    squares proj(y, z) proj(x, y) = proj(x, z), y a lower cover of z and
    x < y, by induction along covers: for y < w < z with w a lower cover
    of z, proj(y, z) proj(x, y) = proj(w, z) proj(y, w) proj(x, y)
    = proj(w, z) proj(x, w) = proj(x, z).  So the squares are checked
    first, and every strict triple is walked only when a square fails, to
    list every violation.
    """
    space, rows = v.space, v._rows
    bad_id = [x for x in space.ids if rows(x, x) != _identity_rows(v.dims[x])]

    def squares_hold() -> bool:
        for y, z in space.covers:
            for x in space.below(y):
                if _mul(rows(y, z), rows(x, y)) != rows(x, z):
                    return False
        return True

    if squares_hold():
        return FunctorReport(tuple(bad_id), ())
    bad_comp = []
    for x, y in space.comparable_pairs():
        first = rows(x, y)
        for z in space.above(y):
            if _mul(rows(y, z), first) != rows(x, z):
                bad_comp.append((x, y, z))
    return FunctorReport(tuple(bad_id), tuple(bad_comp))


def square_failures(v: CoefficientSystem, strict: bool) -> frozenset:
    """The triples of the complex where D(a, b, c) = proj(b, c) proj(a, b) - proj(a, c) != 0.

    d_k d_{k-1} has the block -D(t[-3:]) at (t, t[:-2]) and no other nonzero
    block (README, `check`).  On a strict triple D = 0 is a composition law; a
    weak triple with a repeat repeats its middle x, and fails only where
    P = proj(x, x) is not the identity: (x, x, x) where P P != P, (x, x, c)
    where proj(x, c) P != proj(x, c), (a, x, x) where P proj(a, x) != proj(a, x).
    """
    rows, space = v._rows, v.space
    bad = set(v._report.composition_violations)
    for x in () if strict else v._report.identity_violations:
        p = rows(x, x)
        if _mul(p, p) != p:
            bad.add((x, x, x))
        bad.update((x, x, c) for c in space.above(x) if _mul(rows(x, c), p) != rows(x, c))
        bad.update((a, x, x) for a in space.below(x) if _mul(p, rows(a, x)) != rows(a, x))
    return frozenset(bad)


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
    """Stratum-wise linear maps commuting with the projections, one per stratum.

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
        mismatched = set(maps).symmetric_difference(space.ids)
        if mismatched:
            raise UnknownIdError(min(mismatched))
        for x, m in sorted(maps.items()):
            if m.shape() != (target.dims[x], source.dims[x]):
                raise ValueError(
                    f"map at {x!r} has shape {m.shape()}, expected "
                    f"({target.dims[x]}, {source.dims[x]})"
                )
        rows = {x: maps[x]._rows for x in space.ids}
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
        rf, rg = (_rank(h._rows[x], h.source.dims[x]) for h in (f, g))
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
    # n is checked once: these are quotient_system(v, n) and restriction_system(v, n)
    off_part = _kept_on(v, frozenset(v.space.ids) - nset)   # supported off n
    on_part = _kept_on(v, nset)                               # supported on n
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
