"""Builders: linear representations, sphere products, polytopes, products,
and the serializable space description."""

import itertools
import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from assigncoh import (
    DescriptionError,
    MalformedPolytopeError,
    PolytopeData,
    SpaceDescription,
    Subalgebra,
    UnknownIdError,
    WeightMatrix,
    assignment_space_dim,
    build_from_description,
    build_linear_rep,
    build_polytope,
    build_product,
    build_sphere_product,
    cohomology,
    minimal_strata,
    preset_polytope,
)
from assigncoh.builders import _kernel_subalgebra
from assigncoh.stratposet import StratSpace

from oracles import brute_covers
from spaces import cp2, free_stratum, s4, two_stratum


def _stab_histogram(space):
    hist = {}
    for x in space.ids:
        d = space.stabilizer(x).dim
        hist[d] = hist.get(d, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# weight matrices

def test_weight_matrix_from_rows():
    w = WeightMatrix.from_rows([(1, 0), (0, 1)])
    assert w.torus_dim == 2
    assert w.count == 2
    with pytest.raises(ValueError):
        WeightMatrix.from_rows([])
    with pytest.raises(ValueError):
        WeightMatrix.from_rows([(1, 0), (1,)])


# ---------------------------------------------------------------------------
# linear representations

def test_opposite_weights_on_a_circle():
    space, v = build_linear_rep([(1,), (-1,)])
    # both axes and the dense cell share the trivial stabilizer and merge
    assert space.ids == ("c", "c_1")
    assert [space.stabilizer(x).dim for x in space.ids] == [1, 0]
    assert cohomology(v, 0).dim == 1
    assert cohomology(v, 1).dim == 0


def test_standard_torus_representation():
    space, v = build_linear_rep([(1, 0), (0, 1)])
    assert space.ids == ("c", "c_1", "c_1_2", "c_2")
    assert space.stabilizer("c_1") == Subalgebra.span(2, [(0, 1)])
    assert space.stabilizer("c_2") == Subalgebra.span(2, [(1, 0)])
    assert cohomology(v, 0).dim == 2
    assert cohomology(v, 1).dim == 0


def test_trivial_weight_collapses_everything():
    space, v = build_linear_rep([(0,)])
    assert space.ids == ("c",)
    assert cohomology(v, 0).dim == 1


def test_origin_is_always_the_unique_minimum():
    for rows in ([(3,)], [(1, 1), (2, -1)], [(1, 0, 0), (0, 1, 1), (1, 1, 1)]):
        space, v = build_linear_rep(rows)
        assert minimal_strata(space) == ("c",)
        assert space.stabilizer("c").dim == len(rows[0])
        # unique minimum forces all higher cohomology to vanish
        assert cohomology(v, 1).dim == 0
        assert cohomology(v, 2).dim == 0
        assert cohomology(v, 0).dim == len(rows[0])


def test_linear_rep_strata_are_the_merged_groups_of_equal_kernels_seeded():
    """With zero and repeated weights, cells S and S + {j} with equal kernels
    merge: each stratum, named by its first cell c_S, has the kernel of the
    weights in S, and the strata are the groups of step-related cells with
    equal kernels, counted here by a flood over the subsets."""
    rng = random.Random(37)
    merged = 0
    for _ in range(40):
        n, d = rng.randint(1, 3), rng.randint(1, 5)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(d)]
        if rng.random() < 0.5:
            rows[rng.randrange(d)] = (0,) * n
        if d > 1:
            rows[rng.randrange(d)] = rows[rng.randrange(d)]
        space, _ = build_linear_rep(rows)
        subsets = [s for r in range(d + 1) for s in itertools.combinations(range(d), r)]
        kernel = {s: _kernel_subalgebra(n, [rows[i] for i in s]) for s in subsets}
        firsts, seen = [], set()
        for s in subsets:
            if s in seen:
                continue
            group, todo = [], [s]
            seen.add(s)
            while todo:
                t = todo.pop()
                group.append("c" + "".join(f"_{i + 1}" for i in t))
                for u in (tuple(sorted(set(t) ^ {j})) for j in range(d)):
                    if u not in seen and kernel[u] == kernel[t]:
                        seen.add(u)
                        todo.append(u)
            firsts.append(min(group))
        assert len(space.ids) == len(firsts), rows
        assert list(space.ids) == sorted(firsts), rows
        for x in space.ids:
            cell = tuple(int(i) - 1 for i in x.split("_")[1:])
            assert space.stabilizer(x) == kernel[cell], (rows, x)
        merged += len(space.ids) < 2 ** d
    assert merged >= 20


# ---------------------------------------------------------------------------
# sphere products

def test_three_spheres_structure():
    space, v = build_sphere_product(2, [(1, 0), (0, 1), (1, -1)])
    assert len(space.ids) == 21
    assert _stab_histogram(space) == {2: 8, 1: 12, 0: 1}
    assert len(space.covers) == 36
    assert cohomology(v, 0).dim == 5
    assert cohomology(v, 1).dim == 1


def test_deep_cells_merge_under_the_first_member_name():
    space, _ = build_sphere_product(2, [(1, 0), (0, 1), (1, -1)])
    assert "NOO" in space.ids
    assert "OOO" not in space.ids


def test_two_spheres():
    space, v = build_sphere_product(2, [(1, 0), (0, 1)])
    assert len(space.ids) == 9
    assert cohomology(v, 0).dim == 4


def test_single_sphere():
    space, v = build_sphere_product(1, [(1,)])
    assert space.ids == ("N", "O", "S")
    assert assignment_space_dim(v) == 2


def test_sphere_product_stabilizers_match_per_cell_kernels_seeded():
    """Each stratum of a sphere product, named by its first cell, has that
    cell's stabilizer: the common kernel of the weights at its O positions."""
    rng = random.Random(31)
    for _ in range(40):
        n, d = rng.randint(1, 3), rng.randint(1, 4)
        lam = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(d)]
        space, _ = build_sphere_product(n, lam)
        for x in space.ids:
            rows = [lam[j] for j in range(d) if x[j] == "O"]
            assert space.stabilizer(x) == _kernel_subalgebra(n, rows), (lam, x)


def test_sphere_product_input_validation():
    with pytest.raises(ValueError):
        build_sphere_product(2, [])
    with pytest.raises(ValueError):
        build_sphere_product(2, [(1, 0), (1,)])


# ---------------------------------------------------------------------------
# polytopes

@pytest.mark.parametrize("name,faces,adim", [
    ("segment", 3, 2),
    ("triangle", 7, 3),
    ("square", 9, 4),
    ("pentagon", 11, 5),
    ("cube", 27, 6),
])
def test_preset_polytopes(name, faces, adim):
    space, v = build_polytope(preset_polytope(name))
    assert len(space.ids) == faces
    assert assignment_space_dim(v) == adim


def test_unknown_preset_name():
    with pytest.raises(ValueError):
        preset_polytope("dodecahedron")


def test_square_face_poset():
    space, _ = build_polytope(preset_polytope("square"))
    assert _stab_histogram(space) == {2: 4, 1: 4, 0: 1}
    assert len(space.covers) == 12
    assert "interior" in space.ids
    # edges keep the name of their facet
    for e in ("left", "right", "top", "bottom"):
        assert space.stabilizer(e).dim == 1


def test_square_matches_the_sphere_product_combinatorially():
    poly, _ = build_polytope(preset_polytope("square"))
    spheres, _ = build_sphere_product(2, [(1, 0), (0, 1)])
    assert len(poly.ids) == len(spheres.ids)
    assert _stab_histogram(poly) == _stab_histogram(spheres)
    assert len(poly.covers) == len(spheres.covers)


def test_polytope_validation():
    with pytest.raises(MalformedPolytopeError):
        build_polytope(PolytopeData.make(2, [("a", (1, 0)), ("a", (0, 1))], []))
    with pytest.raises(MalformedPolytopeError):
        build_polytope(PolytopeData.make(
            2, [("a", (1, 0, 0)), ("b", (0, 1))], [("v", ("a", "b"))]))
    with pytest.raises(MalformedPolytopeError):
        build_polytope(PolytopeData.make(
            2, [("a", (1, 0)), ("b", (0, 1))], [("v", ("a",))]))
    with pytest.raises(MalformedPolytopeError):
        build_polytope(PolytopeData.make(
            2, [("a", (1, 0)), ("b", (2, 0))], [("v", ("a", "b"))]))
    with pytest.raises(MalformedPolytopeError):
        build_polytope(PolytopeData.make(
            2, [("a", (1, 0)), ("b", (0, 1))], [("v", ("a", "ghost"))]))
    with pytest.raises(MalformedPolytopeError):
        build_polytope(PolytopeData.make(
            2,
            [("a", (1, 0)), ("b", (0, 1))],
            [("v", ("a", "b")), ("w", ("b", "a"))]))
    with pytest.raises(MalformedPolytopeError):
        build_polytope(PolytopeData.make(2, [("a", (1, 0))], []))


# ---------------------------------------------------------------------------
# products

def test_product_of_single_spheres_is_the_two_sphere_product():
    sphere = build_sphere_product(1, [(1,)])
    space, v = build_product(sphere, sphere)
    direct, w = build_sphere_product(2, [(1, 0), (0, 1)])
    assert len(space.ids) == len(direct.ids)
    assert _stab_histogram(space) == _stab_histogram(direct)
    assert assignment_space_dim(v) == assignment_space_dim(w) == 4


def test_product_assignment_dims_add():
    tri = build_polytope(preset_polytope("triangle"))
    space, v = build_product(tri, tri)
    assert len(space.ids) == 49
    assert assignment_space_dim(v) == 6


def test_product_with_a_free_stratum():
    space, v = build_product(cp2(), free_stratum())
    assert len(space.ids) == 7
    assert assignment_space_dim(v) == 3


def test_product_refuses_a_factor_that_is_not_its_moment_system():
    """A factor system with other dims, an explicit entry or other cover rows
    than its space's moment system raises ValueError naming the first such
    factor; the moment system given as dims and cover projections builds the
    same product as the space's own."""
    space, v = cp2()
    seg = build_polytope(preset_polytope("segment"))

    def given(dims, projections):
        desc = SpaceDescription.from_space(space)
        desc.dims, desc.projections = dims, projections
        return build_from_description(desc)

    moment = [(x, y, [list(r) for r in v.proj(x, y).data]) for x, y in space.covers]
    same = build_product(given(v.dims, moment), seg)[0]
    assert (SpaceDescription.from_space(same).to_json_dict()
            == SpaceDescription.from_space(build_product((space, v), seg)[0]).to_json_dict())
    i = next(i for i, (_, _, m) in enumerate(moment) if m)   # a cover with rows
    x, y, m = moment[i]
    halved = moment[:i] + [(x, y, [[e * Fraction(1, 2) for e in r] for r in m])] + moment[i + 1:]
    explicit = moment + [("p1", "open", [])]
    constant = [(x, y, [[1]]) for x, y in space.covers]
    for bad in (given(v.dims, halved), given(v.dims, explicit),
                given(dict.fromkeys(space.ids, 1), constant)):
        with pytest.raises(ValueError, match="^the left factor's system is not the moment"):
            build_product(bad, seg)
        with pytest.raises(ValueError, match="^the right factor's system is not the moment"):
            build_product(seg, bad)
        with pytest.raises(ValueError, match="^the left factor's"):
            build_product(bad, bad)


def test_product_id_collision():
    def discrete(ids, n):
        return StratSpace.from_covers(
            n, {x: Subalgebra.zero(n) for x in ids}, [])

    from assigncoh import moment_system
    s1 = discrete(["x", "x*y"], 1)
    s2 = discrete(["y*z", "z"], 1)
    with pytest.raises(ValueError):
        build_product((s1, moment_system(s1)), (s2, moment_system(s2)))


def _built(kind):
    if kind == "linear-rep":   # opposite weights: cells merge
        return build_linear_rep([(1, 0), (-1, 0), (0, 1), (1, 1)])
    if kind == "sphere-product":   # 27 cells merge into 21 strata
        return build_sphere_product(2, [(1, 0), (0, 1), (1, -1)])
    if kind == "product":
        return build_product(build_polytope(preset_polytope("square")),
                             build_polytope(preset_polytope("segment")))
    return build_polytope(preset_polytope(kind))


@pytest.mark.parametrize("kind", ["linear-rep", "sphere-product", "segment", "triangle",
                                  "square", "pentagon", "cube", "product"])
def test_covers_are_the_transitive_reduction(kind):
    space, _ = _built(kind)
    assert list(space.covers) == brute_covers(space.ids, space.leq)


# ---------------------------------------------------------------------------
# descriptions

def test_description_roundtrip_through_json():
    space, _ = cp2()
    desc = SpaceDescription.from_space(space)
    blob = json.dumps(desc.to_json_dict(), sort_keys=True)
    back = SpaceDescription.from_json_dict(json.loads(blob))
    rebuilt, v = build_from_description(back)
    assert rebuilt.ids == space.ids
    assert rebuilt.covers == space.covers
    for x in space.ids:
        assert rebuilt.stabilizer(x) == space.stabilizer(x)
    assert cohomology(v, 0).dim == 3


def test_description_of_s4_file():
    space, _ = s4()
    desc = SpaceDescription.from_space(space)
    _, v = build_from_description(desc)
    assert assignment_space_dim(v) == 2


def test_description_with_explicit_system():
    space, _ = two_stratum()
    desc = SpaceDescription.from_space(space)
    desc.dims = {"pt": 2, "open": 1}
    desc.projections = [("pt", "open", [[1, 1]])]
    _, v = build_from_description(desc)
    assert v.dims == {"pt": 2, "open": 1}
    assert [list(r) for r in v.proj("pt", "open").data] == [[1, 1]]


def test_description_validation():
    with pytest.raises(DescriptionError):
        SpaceDescription.from_json_dict([])
    with pytest.raises(DescriptionError):
        SpaceDescription.from_json_dict({"strata": []})
    with pytest.raises(DescriptionError):
        SpaceDescription.from_json_dict(
            {"torus_dim": 1, "strata": [{"noid": "x"}]})
    with pytest.raises(DescriptionError):
        SpaceDescription.from_json_dict(
            {"torus_dim": 1, "strata": [], "covers": [["a"]]})
    with pytest.raises(DescriptionError):
        SpaceDescription.from_json_dict(
            {"torus_dim": 1, "strata": [], "dims": 7})
    with pytest.raises(DescriptionError):
        SpaceDescription.from_json_dict(
            {"torus_dim": 1, "strata": [],
             "projections": [{"pair": ["a", "b"], "matrix": [["x"]]}]})


def test_description_duplicate_id():
    desc = SpaceDescription(1, [("a", []), ("a", [])], [])
    with pytest.raises(DescriptionError):
        build_from_description(desc)


def test_description_dims_must_cover_all_strata():
    space, _ = two_stratum()
    desc = SpaceDescription.from_space(space)
    desc.dims = {"pt": 2}
    desc.projections = []
    with pytest.raises(DescriptionError):
        build_from_description(desc)


def test_description_projection_unknown_stratum():
    space, _ = two_stratum()
    desc = SpaceDescription.from_space(space)
    desc.dims = {"pt": 1, "open": 1}
    desc.projections = [("pt", "ghost", [[1]])]
    with pytest.raises(UnknownIdError):
        build_from_description(desc)


def test_description_projection_on_non_comparable_pair():
    # two incomparable strata, and a comparable pair given upside down
    flat = SpaceDescription(1, [("a", [[1]]), ("b", [[1]])], [], {"a": 1, "b": 1},
                            [("a", "b", [[1]])])
    with pytest.raises(ValueError, match=r"\('a', 'b'\), which is not comparable"):
        build_from_description(flat)
    space, _ = two_stratum()
    desc = SpaceDescription.from_space(space)
    desc.dims = {"pt": 1, "open": 1}
    desc.projections = [("pt", "open", [[1]]), ("open", "pt", [[1]])]
    with pytest.raises(ValueError, match=r"\('open', 'pt'\), which is not comparable"):
        build_from_description(desc)


# each constructor given the entry x in the row [x, 1] (a spanning vector,
# a weight, a factor's weight, a facet normal), and what it gives for x = 2
_INTEGER_ENTRY = {
    "Subalgebra.span": (lambda x: Subalgebra.span(2, [[x, 1]]).basis_rows, ((2, 1),)),
    "WeightMatrix.from_rows": (lambda x: WeightMatrix.from_rows([[x, 1]]).rows, ((2, 1),)),
    "build_sphere_product": (
        lambda x: build_sphere_product(2, [[x, 1]])[0].stabilizers["O"].basis_rows,
        ((1, -2),)),
    "PolytopeData.make": (
        lambda x: PolytopeData.make(2, [("a", [x, 1]), ("b", [0, 1])],
                                    [("v", ["a", "b"])]).facets[0][1],
        (2, 1)),
    # the dimension too: 2 builds the square
    "PolytopeData.make-dim": (
        lambda x: build_polytope(PolytopeData.make(
            x, preset_polytope("square").facets, preset_polytope("square").vertices))[0].ids,
        build_polytope(preset_polytope("square"))[0].ids),
}


@pytest.mark.parametrize("make,expected", _INTEGER_ENTRY.values(), ids=_INTEGER_ENTRY.keys())
def test_constructors_refuse_non_integral_entries(make, expected):
    # int() would truncate each of these and build another space silently
    for x in (1.5, Fraction(3, 2), Fraction(5, 2), Decimal("2.5")):
        with pytest.raises(ValueError) as exc:
            make(x)
        assert repr(x) in str(exc.value)
    for x in (2, 2.0, Fraction(4, 2), "2"):
        assert make(x) == expected
