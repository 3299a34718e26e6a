"""Assignments: degree-zero cocycles and their minimal-stratum encoding."""

from fractions import Fraction

import pytest

from assigncoh import (
    AssignmentVector,
    IncompatibleMinimalValuesError,
    MinimalAssignment,
    MissingMinimalValueError,
    UnknownIdError,
    assignment_basis,
    build_polytope,
    build_product,
    build_sphere_product,
    cohomology,
    extend_minimal,
    is_assignment,
    preset_polytope,
    quotient_system,
    restrict_to_minimal,
)

from oracles import brute_assignment_dim, system_adapter
from spaces import cp2, s4, s4_chain, zero_system

S6 = build_sphere_product(2, [(1, 0), (0, 1), (1, -1)])


def _zero(n):
    return tuple([Fraction(0)] * n)


# ---------------------------------------------------------------------------
# assignment space dimensions

def test_cp2_basis_size():
    _, v = cp2()
    basis = assignment_basis(v)
    assert len(basis) == 3
    for a in basis:
        assert is_assignment(v, a).ok


def test_s4_basis_has_equal_pole_values():
    _, v = s4()
    basis = assignment_basis(v)
    assert len(basis) == 2
    for a in basis:
        assert a.value("polN") == a.value("polS")


def test_zero_system_has_empty_basis():
    space, _ = cp2()
    assert assignment_basis(zero_system(space)) == []


@pytest.mark.parametrize("make", [cp2, s4, lambda: S6,
                                  lambda: s4_chain(2), lambda: s4_chain(3)])
def test_basis_size_matches_degree_zero_cohomology(make):
    _, v = make()
    assert len(assignment_basis(v)) == cohomology(v, 0).dim


@pytest.mark.parametrize("make", [cp2, s4, lambda: S6, lambda: s4_chain(2)])
def test_basis_size_matches_brute_oracle(make):
    _, v = make()
    ids, leq, dims, proj_rows = system_adapter(v)
    assert len(assignment_basis(v)) == brute_assignment_dim(
        ids, leq, dims, proj_rows)


def test_chained_spheres_keep_two_dimensions():
    # gluing spheres pole to pole never adds global degrees of freedom
    for k in (1, 2, 4):
        _, v = s4_chain(k)
        assert len(assignment_basis(v)) == 2


# ---------------------------------------------------------------------------
# is_assignment

def test_violation_reports_pair_and_residual():
    _, v = cp2()
    candidate = AssignmentVector(v, {
        "p1": (0, 0), "p2": (1, 0), "p3": (0, 2),
        "e12": (0,), "e13": (0,), "e23": (1,), "open": (),
    })
    report = is_assignment(v, candidate)
    assert not report.ok
    assert report.violations == ((("p3", "e23"), (Fraction(1),)),)


def test_zero_candidate_is_an_assignment():
    _, v = cp2()
    zero = AssignmentVector(v, {x: _zero(v.dims[x]) for x in v.space.ids})
    assert is_assignment(v, zero).ok


def test_a_candidate_of_another_system_is_read_as_this_one():
    # a candidate built on the square's quotient off its vertices has width 0
    # there: it raises, where the same values padded with zeros are read
    space, v = build_polytope(preset_polytope("square"))
    w = quotient_system(v, ["interior", "left", "right", "top", "bottom"])
    values = {x: ((1, 0) if x == "v00" else _zero(w.dims[x])) for x in space.ids}
    with pytest.raises(ValueError, match="length 0, expected 1"):
        is_assignment(v, AssignmentVector(w, values))
    padded = AssignmentVector(v, {x: values[x] or _zero(v.dims[x]) for x in space.ids})
    assert not is_assignment(v, padded).ok


def test_is_assignment_composes_no_pair():
    # the values are pushed up the order: no composed pair is kept
    cube = build_polytope(preset_polytope("cube"))
    _, v = build_product(cube, cube)
    zero = AssignmentVector(v, {x: _zero(v.dims[x]) for x in v.space.ids})
    kept = len(v._at)
    assert is_assignment(v, zero).ok
    assert len(v._at) == kept


def test_vector_validation():
    _, v = cp2()
    values = {x: _zero(v.dims[x]) for x in v.space.ids}
    with pytest.raises(UnknownIdError):
        AssignmentVector(v, {k: w for k, w in values.items() if k != "p1"})
    with pytest.raises(UnknownIdError):
        AssignmentVector(v, dict(values, ghost=(0,)))
    with pytest.raises(ValueError):
        AssignmentVector(v, dict(values, e12=(0, 0)))


def test_vector_coerces_to_fractions():
    _, v = cp2()
    a = AssignmentVector(v, {
        "p1": ("1/2", 0), "p2": (0, 0), "p3": (0, 0),
        "e12": (0,), "e13": (0,), "e23": (0,), "open": (),
    })
    assert a.value("p1") == (Fraction(1, 2), Fraction(0))


# ---------------------------------------------------------------------------
# extension from minimal strata

def test_extend_compatible_values():
    _, v = cp2()
    m = MinimalAssignment({"p1": (0, 0), "p2": (1, 0), "p3": (0, 1)})
    a = extend_minimal(v, m)
    assert is_assignment(v, a).ok
    assert a.value("e12") == (Fraction(0),)
    assert a.value("e13") == (Fraction(0),)
    assert a.value("e23") == (Fraction(1),)
    assert a.value("open") == ()


def test_extend_incompatible_values_names_witness():
    _, v = cp2()
    m = MinimalAssignment({"p1": (0, 0), "p2": (1, 0), "p3": (0, 2)})
    with pytest.raises(IncompatibleMinimalValuesError) as exc:
        extend_minimal(v, m)
    assert exc.value.witness == ("p2", "p3", "e23")


def test_extend_requires_exactly_the_minima():
    _, v = cp2()
    with pytest.raises(MissingMinimalValueError) as exc:
        extend_minimal(v, MinimalAssignment({"p1": (0, 0), "p2": (0, 0)}))
    assert exc.value.missing == ("p3",)
    assert exc.value.extra == ()
    with pytest.raises(MissingMinimalValueError) as exc:
        extend_minimal(v, MinimalAssignment({
            "p1": (0, 0), "p2": (0, 0), "p3": (0, 0), "e12": (0,)}))
    assert exc.value.missing == ()
    assert exc.value.extra == ("e12",)


def test_extend_rejects_wrong_value_length():
    _, v = cp2()
    m = MinimalAssignment({"p1": (0, 0, 0), "p2": (0, 0), "p3": (0, 0)})
    with pytest.raises(ValueError):
        extend_minimal(v, m)


def test_extend_zero_system():
    space, _ = cp2()
    v = zero_system(space)
    a = extend_minimal(v, MinimalAssignment({"p1": (), "p2": (), "p3": ()}))
    assert is_assignment(v, a).ok
    assert all(a.value(x) == () for x in space.ids)


# ---------------------------------------------------------------------------
# roundtrips

@pytest.mark.parametrize("make", [cp2, s4, lambda: S6])
def test_minimal_roundtrip_on_basis(make):
    _, v = make()
    for a in assignment_basis(v):
        m = restrict_to_minimal(a)
        b = extend_minimal(v, m)
        assert b.values == a.values


def test_roundtrip_starting_from_minimal_values():
    _, v = cp2()
    m = MinimalAssignment({"p1": (5, 7), "p2": (5, 7), "p3": (5, 7)})
    a = extend_minimal(v, m)
    assert restrict_to_minimal(a).values == {
        x: tuple(Fraction(c) for c in w) for x, w in m.values.items()
    }


def test_constant_values_extend_on_equal_stabilizer_minima():
    # all minimal stabilizers of cp2 are the full algebra, so a constant
    # functional is automatically compatible
    _, v = cp2()
    m = MinimalAssignment({p: (4, -9) for p in ("p1", "p2", "p3")})
    a = extend_minimal(v, m)
    assert is_assignment(v, a).ok
    assert a.value("e23") == (Fraction(-5),)
