"""Exception types shared across the package.

Every validation failure carries enough context (ids, pairs, positions) to
locate the offending datum; callers that want a report instead of an
exception should use the check_* / *_check entry points.
"""


class CycleError(ValueError):
    """Cover relation of a stratification poset contains a directed cycle."""

    def __init__(self, cycle_ids):
        self.cycle_ids = tuple(cycle_ids)
        super().__init__(f"cover relation is cyclic through {self.cycle_ids}")


class StabilizerMonotonicityError(ValueError):
    """A cover pair whose stabilizers fail nested strict descent."""

    def __init__(self, pair, reason):
        self.pair = tuple(pair)
        super().__init__(f"cover {self.pair}: {reason}")


class UnknownIdError(KeyError):
    """A stratum id that is not declared in the space."""

    def __init__(self, stratum_id):
        self.stratum_id = stratum_id
        super().__init__(f"unknown stratum id {stratum_id!r}")


class NotOpenError(ValueError):
    """Stratum subset is not closed under the order in either direction."""

    def __init__(self, pair):
        self.pair = tuple(pair)
        x, y = self.pair
        super().__init__(
            f"subset is not order-closed: {x!r} is inside, {y!r} outside, {x!r} <= {y!r}"
        )


class NotUnionOfStrataError(ValueError):
    """A subset request mentions ids outside the space."""

    def __init__(self, bad_ids):
        self.bad_ids = tuple(bad_ids)
        super().__init__(f"ids are not strata of the space: {self.bad_ids}")


class NoUniqueMinimumError(ValueError):
    """Operation needs a unique minimal stratum but the space has several."""

    def __init__(self, minima):
        self.minima = tuple(minima)
        super().__init__(f"space has minimal strata {self.minima}, need exactly one")


class NotExactError(ValueError):
    """A claimed short exact sequence of coefficient systems is not exact."""


class InvalidMorphismError(ValueError):
    """A poset map failing monotonicity or stabilizer inclusion."""


class SystemMismatchError(ValueError):
    """Coefficient systems, or a cochain and a system, that do not fit together."""


class IncompatibleMinimalValuesError(ValueError):
    """Minimal-stratum values that disagree after projection: witness (x0, x1, y)."""

    def __init__(self, witness):
        self.witness = tuple(witness)
        x0, x1, y = self.witness
        super().__init__(f"values at minimal strata {x0!r} and {x1!r} disagree on {y!r}")


class BrokenProjectionError(IncompatibleMinimalValuesError):
    """Extended values that break proj(x, y) at a pair of the system's cut."""

    def __init__(self, pair):
        self.pair = tuple(pair)
        x, y = self.pair
        ValueError.__init__(self, f"extended values break the projection from {x!r} to {y!r}")


class MissingMinimalValueError(ValueError):
    """extend_minimal input does not cover exactly the minimal strata."""

    def __init__(self, missing, extra):
        self.missing = tuple(missing)
        self.extra = tuple(extra)
        super().__init__(
            f"minimal values mismatch: missing {self.missing}, extraneous {self.extra}"
        )


class MalformedPolytopeError(ValueError):
    """Polytope data violating simplicity or normal independence at a vertex."""


class DescriptionError(ValueError):
    """Malformed space description (schema level, before any validation)."""


class ParseError(SyntaxError):
    """Syntax error in polynomial text, with a character position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(ValueError):
    """Coefficient vector length or variable index out of range for the weights."""


class NonzeroConstantTermError(ValueError):
    """Polynomial has a constant term; the vanishing-at-origin normalization fails."""


class ConditionFailedError(ValueError):
    """Membership criterion failed; carries the failing monomials."""

    def __init__(self, failing):
        self.failing = tuple(failing)
        super().__init__(f"criterion fails at monomials {self.failing}")
