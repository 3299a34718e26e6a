"""Coefficient systems on a stratification poset.

A system attaches a finite-dimensional rational space to every stratum and
a projection matrix to every comparable pair, contravariantly: data on a
stratum pushes to the strata whose closures contain it.  The distinguished
example is the moment system, whose space at X is spanned by the canonical
stabilizer basis of X, with projections given by restriction of
functionals.

Projection matrices are stored for every weakly comparable pair, shaped
dims(Y) x dims(X) for X below Y, acting on coordinate columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import NotOpenError, NotUnionOfStrataError, UnknownIdError
from .ratlin import RatMatrix, rank
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


class CoefficientSystem:
    """Dimensions and projection matrices over a StratSpace.

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
        pairs = [(x, x) for x in space.ids] + space.comparable_pairs()
        _check_shapes(space, dims, proj, pairs)
        self.space = space
        self.dims = dict(dims)
        self._proj = dict(proj)
        extra = sorted(set(self._proj) - set(pairs))
        if extra:
            x, y = extra[0]
            raise ValueError(
                f"projection given for pair ({x!r}, {y!r}), which is not comparable"
            )

    @classmethod
    def from_cover_maps(
        cls,
        space: StratSpace,
        dims: Mapping[str, int],
        cover_maps: Mapping[Tuple[str, str], RatMatrix],
        explicit: Optional[Mapping[Tuple[str, str], RatMatrix]] = None,
    ) -> "CoefficientSystem":
        """Fill all comparable pairs by composing cover maps along one path.

        Composition walks covers in a fixed order, so the result is
        deterministic; if different paths disagree the construction keeps
        the first and check_functor will name a violating triple.  Entries
        in `explicit` override anything composed.
        """
        _check_shapes(space, dims, cover_maps, space.covers)
        proj: Dict[Tuple[str, str], RatMatrix] = {}
        for x in space.ids:
            proj[(x, x)] = RatMatrix.identity(dims[x])
        succ: Dict[str, List[str]] = {x: [] for x in space.ids}
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
                        proj[(x, z)] = proj[(y, z)] @ proj[(x, y)]
        if explicit:
            for pair, m in explicit.items():
                proj[pair] = m
        return cls(space, dims, proj)

    def proj(self, x: str, y: str) -> RatMatrix:
        if x not in self.dims:
            raise UnknownIdError(x)
        if y not in self.dims:
            raise UnknownIdError(y)
        try:
            return self._proj[(x, y)]
        except KeyError:
            raise ValueError(f"strata {x!r} and {y!r} are not comparable") from None

    def pairs(self) -> List[Tuple[str, str]]:
        return sorted(self._proj)

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
    solved, once, when the space is loaded (StratSpace.cover_coords): the
    other pairs are composed from them by from_cover_maps.
    Along X < Y < Z, expanding the basis of Z over Y and then over X gives
    an expansion of Z over X, and that expansion is unique, so every
    composed projection equals the one a direct solve would give.
    """
    dims = {x: space.stabilizer(x).dim for x in space.ids}
    return CoefficientSystem.from_cover_maps(space, dims, space.cover_coords)


@dataclass(frozen=True)
class FunctorReport:
    identity_violations: Tuple[str, ...]
    composition_violations: Tuple[Tuple[str, str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.identity_violations and not self.composition_violations


def check_functor(v: CoefficientSystem) -> FunctorReport:
    """Exhaustively verify identity and composition laws of the system."""
    space = v.space
    bad_id = []
    for x in space.ids:
        if v.proj(x, x) != RatMatrix.identity(v.dims[x]):
            bad_id.append(x)
    bad_comp = []
    for x, y in space.comparable_pairs():
        for z in space.above(y):
            if v.proj(y, z) @ v.proj(x, y) != v.proj(x, z):
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
        p = v.proj(x, x)
        outs = [v.proj(x, c) for c in space.above(x)]
        ins = [v.proj(a, x) for a in space.ids if a != x and space.leq(a, x)]
        if p @ p != p or any(m @ p != m for m in outs) or any(p @ m != m for m in ins):
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
    proj = {}
    for x, y in v.pairs():
        if x in keep and y in keep:
            proj[(x, y)] = v.proj(x, y)
        else:
            proj[(x, y)] = RatMatrix.zeros(dims[y], dims[x])
    return CoefficientSystem(v.space, dims, proj)


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
        for x, y in space.comparable_pairs():
            left = maps[y] @ source.proj(x, y)
            right = target.proj(x, y) @ maps[x]
            if left != right:
                raise ValueError(f"naturality square fails at pair ({x!r}, {y!r})")
        self.source = source
        self.target = target
        self.maps = dict(maps)

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
        fx, gx = f.map_at(x), g.map_at(x)
        rf, rg = rank(fx), rank(gx)
        if rf != f.source.dims[x]:
            inj.append(x)
        if rg != g.target.dims[x]:
            surj.append(x)
        if not (gx @ fx).is_zero() or rf + rg != f.target.dims[x]:
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
