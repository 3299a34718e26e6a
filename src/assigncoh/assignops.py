"""Assignments: compatible families of per-stratum values.

An assignment picks a value in V(X) for every stratum X so that whenever X
lies below Y the value at X projects onto the value at Y.  These are
exactly the degree-zero cocycles, and for moment coefficients they are the
combinatorial shadows of abstract moment maps.

Because projections always point up the order, an assignment is determined
by (and can be rebuilt from) an order-compatible choice of values at the
minimal strata alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .coeffsys import CoefficientSystem
from .cochain import cohomology
from .errors import (
    BrokenProjectionError,
    IncompatibleMinimalValuesError,
    MissingMinimalValueError,
    UnknownIdError,
)
from .ratlin import SparseRow, _apply, _frac, _normal
from .stratposet import minimal_strata


@dataclass
class AssignmentVector:
    """Values on every stratum, in that stratum's coefficient coordinates."""

    system: CoefficientSystem
    values: Dict[str, Tuple[Fraction, ...]]

    def __post_init__(self):
        space = self.system.space
        vals = {}
        for x in space.ids:
            if x not in self.values:
                raise UnknownIdError(x)
            v = tuple(_frac(c) for c in self.values[x])
            if len(v) != self.system.dims[x]:
                raise ValueError(
                    f"value at {x!r} has length {len(v)}, expected {self.system.dims[x]}"
                )
            vals[x] = v
        for x in self.values:
            if x not in space.stabilizers:
                raise UnknownIdError(x)
        self.values = vals

    def value(self, x: str) -> Tuple[Fraction, ...]:
        return self.values[x]


@dataclass
class MinimalAssignment:
    """Values on the minimal strata only."""

    values: Dict[str, Tuple[Fraction, ...]]


@dataclass(frozen=True)
class AssignmentReport:
    violations: Tuple[Tuple[Tuple[str, str], Tuple[Fraction, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def is_assignment(v: CoefficientSystem, candidate: AssignmentVector) -> AssignmentReport:
    """List every comparable pair where projection misses the upper value.

    Each violation carries the residual proj(value at X) - value at Y.
    """
    bad = []
    for x, y in v.space.comparable_pairs():
        pushed = _apply(v._rows(x, y), {j: c for j, c in enumerate(candidate.value(x)) if c})
        residual = [_frac(pushed.get(i, 0)) - b for i, b in enumerate(candidate.value(y))]
        if any(residual):
            bad.append(((x, y), tuple(residual)))
    return AssignmentReport(tuple(bad))


def _basis_values(v: CoefficientSystem) -> List[Dict[str, list]]:
    """The canonical basis vectors' values at every stratum, as exact entries:
    ints where integral, Fractions otherwise (`Cochain._blocks`)."""
    return [{t[0]: vals for t, vals in rep._blocks()}
            for rep in cohomology(v, 0, strict=True).representatives]


def assignment_basis(v: CoefficientSystem) -> List[AssignmentVector]:
    """Canonical basis of the assignment space (degree-zero cohomology)."""
    return [AssignmentVector(v, values) for values in _basis_values(v)]


def restrict_to_minimal(a: AssignmentVector) -> MinimalAssignment:
    minima = minimal_strata(a.system.space)
    return MinimalAssignment({x: a.value(x) for x in minima})


def extend_minimal(v: CoefficientSystem, m: MinimalAssignment) -> AssignmentVector:
    """Rebuild the full assignment from its minimal-stratum values.

    Every stratum Y lies above some minimal stratum, and all minimal strata
    below Y must push the same value to Y; a disagreement raises
    IncompatibleMinimalValuesError naming the first offending triple; its
    subclass BrokenProjectionError names the first pair of the system's cut
    (`CoefficientSystem._cut`) the values break, as where the functor laws fail.
    """
    space = v.space
    minima = minimal_strata(space)
    given = set(m.values)
    missing = [x for x in minima if x not in given]
    extra = sorted(given - set(minima))
    if missing or extra:
        raise MissingMinimalValueError(missing, extra)
    for x in minima:
        val = m.values[x]
        if len(val) != v.dims[x]:
            raise ValueError(
                f"value at {x!r} has length {len(val)}, expected {v.dims[x]}"
            )

    values: Dict[str, SparseRow] = {}
    origin: Dict[str, str] = {}
    for x in minima:
        values[x] = _normal(dict(enumerate(m.values[x])), v.dims[x])
        origin[x] = x
    for x in minima:
        for y in space.above(x):
            pushed = _apply(v._rows(x, y), values[x])
            if y in values:
                if values[y] != pushed:
                    raise IncompatibleMinimalValuesError((origin[y], x, y))
            else:
                values[y] = pushed
                origin[y] = x
    for x, y in v._cut:
        if _apply(v._rows(x, y), values[x]) != values[y]:
            raise BrokenProjectionError((x, y))
    return AssignmentVector(v, {y: [vec.get(i, 0) for i in range(v.dims[y])]
                                for y, vec in values.items()})
