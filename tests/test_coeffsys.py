import pytest

from assigncoh import (
    CoefficientSystem,
    RatMatrix,
    SpaceDescription,
    StratSpace,
    Subalgebra,
    SystemMorphism,
    build_from_description,
    build_polytope,
    build_product,
    build_sphere_product,
    check_functor,
    cohomology,
    moment_system,
    pair_ses,
    preset_polytope,
    quotient_system,
    restriction_system,
    ses_check,
)
from assigncoh.errors import NotOpenError, NotUnionOfStrataError
from oracles import brute_cohomology_dim, system_adapter
from spaces import CP2_FIXED, cp2, free_stratum, zero_system


def single_sphere():
    space = StratSpace.from_covers(
        1,
        {"N": Subalgebra.full(1), "S": Subalgebra.full(1), "O": Subalgebra.zero(1)},
        [("N", "O"), ("S", "O")],
    )
    return space, moment_system(space)


def test_moment_dims_cp2():
    space, v = cp2()
    assert v.dims == {"p1": 2, "p2": 2, "p3": 2, "e12": 1, "e13": 1, "e23": 1, "open": 0}
    # functional restriction: value on the edge's stabilizer generator
    assert v.proj("p1", "e12") == RatMatrix.from_rows([[0, 1]])
    assert v.proj("p1", "e13") == RatMatrix.from_rows([[1, 0]])
    assert v.proj("p2", "e23") == RatMatrix.from_rows([[1, 1]])


def test_moment_dims_circle_sphere():
    _, v = single_sphere()
    assert v.dims == {"N": 1, "S": 1, "O": 0}


def test_moment_zero_on_free_stratum():
    _, v = free_stratum()
    assert v.dims == {"only": 0}
    assert v.total_dim() == 0


def test_functor_laws_hold_for_moment_systems():
    for make in (cp2, single_sphere):
        _, v = make()
        rep = check_functor(v)
        assert rep.ok
        assert rep.identity_violations == ()
        assert rep.composition_violations == ()


def flag_chain():
    """Three-stratum chain with stabilizer dims 3 > 2 > 1 in a 3-torus."""
    space = StratSpace.from_covers(
        3,
        {
            "bot": Subalgebra.full(3),
            "mid": Subalgebra.span(3, [[1, 0, 0], [0, 1, 0]]),
            "top": Subalgebra.span(3, [[1, 0, 0]]),
        },
        [("bot", "mid"), ("mid", "top")],
    )
    return space, moment_system(space)


def test_functor_perturbed_projection_named():
    space, v = flag_chain()
    proj = {pair: v.proj(*pair) for pair in v.pairs()}
    proj[("bot", "mid")] = RatMatrix.from_rows([[1, 0, 1], [0, 1, 0]])
    perturbed = CoefficientSystem(space, dict(v.dims), proj)
    rep = check_functor(perturbed)
    assert not rep.ok
    assert ("bot", "mid", "top") in rep.composition_violations


def test_functor_perturbed_identity_named():
    space, v = flag_chain()
    proj = {pair: v.proj(*pair) for pair in v.pairs()}
    proj[("mid", "mid")] = RatMatrix.from_rows([[1, 1], [0, 1]])
    perturbed = CoefficientSystem(space, dict(v.dims), proj)
    rep = check_functor(perturbed)
    assert not rep.ok
    assert "mid" in rep.identity_violations


def test_functor_zero_system():
    space, _ = cp2()
    assert check_functor(zero_system(space)).ok


def test_quotient_empty_and_full():
    space, v = cp2()
    q0 = quotient_system(v, frozenset())
    assert q0.dims == v.dims
    for pair in v.pairs():
        assert q0.proj(*pair) == v.proj(*pair)
    qall = quotient_system(v, frozenset(space.ids))
    assert all(d == 0 for d in qall.dims.values())


def test_quotient_open_subset_of_cp2():
    space, v = cp2()
    n = frozenset({"e12", "e13", "e23", "open"})    # upward closed
    q = quotient_system(v, n)
    assert q.dims == {"p1": 2, "p2": 2, "p3": 2, "e12": 0, "e13": 0, "e23": 0, "open": 0}
    assert check_functor(q).ok
    res = cohomology(q, 0, strict=True)
    assert res.dim == 6
    ids, leq, dims, proj_rows = system_adapter(q)
    assert brute_cohomology_dim(ids, leq, dims, proj_rows, 0, True) == 6


def test_quotient_closed_subset_accepted():
    # order-closed downward works as well: the complement is open
    space, v = cp2()
    q = quotient_system(v, CP2_FIXED)
    assert q.dims["p1"] == 0 and q.dims["e12"] == 1
    assert check_functor(q).ok


def test_restriction_empty_full_and_open():
    space, v = cp2()
    r0 = restriction_system(v, frozenset())
    assert all(d == 0 for d in r0.dims.values())
    rall = restriction_system(v, frozenset(space.ids))
    assert rall.dims == v.dims
    n = frozenset({"e12", "e13", "e23", "open"})
    r = restriction_system(v, n)
    assert r.dims == {"p1": 0, "p2": 0, "p3": 0, "e12": 1, "e13": 1, "e23": 1, "open": 0}
    assert check_functor(r).ok


def test_not_open_error_witness():
    space, v = cp2()
    with pytest.raises(NotOpenError) as exc:
        quotient_system(v, frozenset({"e12"}))
    assert exc.value.pair == ("e12", "open")
    with pytest.raises(NotOpenError):
        restriction_system(v, frozenset({"e12"}))


def test_subset_must_be_union_of_strata():
    _, v = cp2()
    with pytest.raises(NotUnionOfStrataError) as exc:
        quotient_system(v, frozenset({"nope"}))
    assert exc.value.bad_ids == ("nope",)


def test_pair_ses_exact_both_closure_directions():
    space, v = cp2()
    for n in (frozenset({"e12", "e13", "e23", "open"}), CP2_FIXED, frozenset(),
              frozenset(space.ids)):
        f, g = pair_ses(v, n)
        rep = ses_check(f, g)
        assert rep.ok, (sorted(n), rep)


def test_ses_identity_then_zero_fails_surjectivity():
    _, v = cp2()
    f = SystemMorphism.identity(v)
    g = SystemMorphism.zero(v, v)
    rep = ses_check(f, g)
    assert not rep.ok
    assert "p1" in rep.surjective_failures


def test_ses_zero_systems_exact():
    space, _ = cp2()
    z = zero_system(space)
    f = SystemMorphism.identity(z)
    g = SystemMorphism.zero(z, z)
    assert ses_check(f, g).ok


def test_morphism_naturality_enforced():
    space, v = cp2()
    blocks = {x: RatMatrix.identity(v.dims[x]) for x in space.ids}
    SystemMorphism(v, v, blocks)
    blocks["e12"] = RatMatrix.from_rows([[2]])   # breaks the (p1, e12) square
    with pytest.raises(ValueError) as exc:
        SystemMorphism(v, v, blocks)
    assert "e12" in str(exc.value)


def test_from_cover_maps_reproduces_moment_system():
    """moment_system composes cover maps; each pair must still be the direct
    expansion of the upper stabilizer basis over the lower one.  The product
    strata take the direct sums of the factors' bases as they come, which
    must be the canonical basis Subalgebra.span gives."""
    cube = build_polytope(preset_polytope("cube"))
    segment = build_polytope(preset_polytope("segment"))
    square = build_polytope(preset_polytope("square"))
    for left, right in ((cube, square), (cube, segment)):
        product, _ = build_product(left, right)
        s1, s2 = left[0], right[0]
        n1, n2 = s1.torus_dim, s2.torus_dim
        for a in s1.ids:
            for b in s2.ids:
                rows = [list(r) + [0] * n2 for r in s1.stabilizer(a).basis_rows]
                rows += [[0] * n1 + list(r) for r in s2.stabilizer(b).basis_rows]
                assert product.stabilizer(f"{a}*{b}") == Subalgebra.span(n1 + n2, rows)
    for space, _ in (cp2(), cube, build_product(cube, segment)):
        v = moment_system(space)
        pairs = [(x, x) for x in space.ids] + space.comparable_pairs()
        assert sorted(pairs) == v.pairs()
        for x, y in pairs:
            direct = space.stabilizer(x).coordinates_of(space.stabilizer(y))
            assert v.proj(x, y) == direct


@pytest.mark.parametrize("kind", ["cube*square", "merged spheres^4"])
def test_loading_solves_each_cover_once(monkeypatch, kind):
    """from_covers keeps each cover's coordinates; moment_system solves nothing."""
    if kind == "cube*square":
        built = build_product(build_polytope(preset_polytope("cube")),
                              build_polytope(preset_polytope("square")))
    else:
        built = build_sphere_product(3, [(1, -1, 1), (-1, 1, 0), (-1, 1, 1), (1, -1, 0)])
    desc = SpaceDescription.from_space(built[0])
    calls = []
    solve = Subalgebra.coordinates_of

    def counted(self, other):
        calls.append((self, other))
        return solve(self, other)

    monkeypatch.setattr(Subalgebra, "coordinates_of", counted)
    space, v = build_from_description(desc)
    monkeypatch.undo()
    assert len(calls) == len(space.covers) > 0
    assert tuple(space.cover_coords) == space.covers == tuple(sorted(space.covers))
    for (x, y), m in space.cover_coords.items():
        assert m == space.stabilizer(x).coordinates_of(space.stabilizer(y))
        assert v.proj(x, y) == m


def test_from_cover_maps_missing_cover():
    space, v = cp2()
    cover_maps = {c: v.proj(*c) for c in space.covers}
    cover_maps.pop(("p1", "e12"))
    with pytest.raises(ValueError):
        CoefficientSystem.from_cover_maps(space, dict(v.dims), cover_maps)
