import ast
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from assigncoh import (
    CoefficientSystem,
    RatMatrix,
    SpaceDescription,
    StratSpace,
    Subalgebra,
    SystemMorphism,
    assignment_basis,
    build_from_description,
    build_linear_rep,
    build_polytope,
    build_product,
    build_sphere_product,
    MinimalAssignment,
    check_functor,
    cohomology,
    extend_minimal,
    moment_system,
    pair_ses,
    preset_polytope,
    quotient_system,
    restriction_system,
    ses_check,
)
import assigncoh.cli
import assigncoh.coeffsys
from assigncoh.cochain import _CohomologyData, _Complex
from assigncoh.coeffsys import FunctorReport, SesReport
from assigncoh.errors import (
    IncompatibleMinimalValuesError, NotOpenError, NotUnionOfStrataError, UnknownIdError,
)
from assigncoh.ratlin import _apply, _mul
from assigncoh.stratposet import _components, minimal_strata
from oracles import (
    brute_assignment_dim,
    brute_cohomology_dim,
    brute_functor_violations,
    per_pair_naturality,
    reference_from_cover_maps,
    system_adapter,
)
from spaces import (
    CP2_FIXED, cp2, cube_broken_on_a_face, free_stratum, s4, s4_chain, truncated, two_stratum,
    zero_system,
)


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


def fork():
    """o below a, a below b and c, both below z, and c below w too.

    c's upset is the larger, so the route of (o, z) and of (a, z) runs
    through c, though b comes first by id.
    """
    space = StratSpace.from_covers(
        3,
        {"o": Subalgebra.full(3), "a": Subalgebra.span(3, [[1, 0, 0], [0, 1, 0]]),
         "b": Subalgebra.span(3, [[1, 0, 0]]), "c": Subalgebra.span(3, [[0, 1, 0]]),
         "w": Subalgebra.zero(3), "z": Subalgebra.zero(3)},
        [("o", "a"), ("a", "b"), ("a", "c"), ("b", "z"), ("c", "z"), ("c", "w")],
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


def test_pair_ses_parts_are_the_quotient_and_restriction():
    # pair_ses checks n once and builds both parts itself: they are the
    # systems quotient_system and restriction_system give, and a bad n
    # raises what those raise
    space, v = cp2()

    def same(a, b):
        return a.dims == b.dims and all(a._rows(x, y) == b._rows(x, y) for x, y in v.pairs())

    for n, down in ((CP2_FIXED, True), (frozenset({"e12", "e13", "e23", "open"}), False),
                    (frozenset(), True), (frozenset(space.ids), True)):
        f, g = pair_ses(v, iter(n))
        off, on = quotient_system(v, n), restriction_system(v, n)
        sub, quot = (off, on) if down else (on, off)
        assert f.target is v and g.source is v
        assert same(f.source, sub) and same(g.target, quot)
    for n in ({"nope", "e12"}, {"e12"}):
        with pytest.raises((NotUnionOfStrataError, NotOpenError)) as exc:
            pair_ses(v, n)
        with pytest.raises(type(exc.value)) as ref:
            quotient_system(v, n)
        assert str(exc.value) == str(ref.value)


def _kept_on_all_pairs(v, keep):
    """v on keep and zero elsewhere, from every pair's matrix."""
    dims = {x: v.dims[x] if x in keep else 0 for x in v.space.ids}
    return CoefficientSystem(v.space, dims, {
        (x, y): v.proj(x, y) if x in keep and y in keep else RatMatrix.zeros(dims[y], dims[x])
        for x, y in v.pairs()})


def _explicit_square():
    """The square as dims, cover projections and explicit entries on two of
    its vertex -> interior pairs, as in the fuzz test."""
    space, v = build_polytope(preset_polytope("square"))
    desc = SpaceDescription.from_space(space).to_json_dict()
    desc["dims"] = dict(v.dims)
    desc["projections"] = [
        {"pair": [x, y], "matrix": [[str(e) for e in row] for row in v.proj(x, y).data]}
        for x, y in [*space.covers, ("v00", "interior"), ("v01", "interior")]]
    return build_from_description(SpaceDescription.from_json_dict(desc))


def test_kept_on_matches_the_all_pairs_construction():
    """`_kept_on` builds from the cover maps and composes the rest on first
    use; on every up-closed and down-closed subset its dims, every
    projection and its functor report are those of the system built from
    all pairs, on and off the functor laws."""
    space, v = cp2()
    broken = {p: v.proj(*p) for p in v.pairs()}
    broken[("p1", "e12")] = RatMatrix.from_rows([[2, 2]])
    systems = [cp2(), build_polytope(preset_polytope("cube")), _explicit_square(),
               (space, CoefficientSystem(space, v.dims, {p: v.proj(*p) for p in v.pairs()})),
               (space, CoefficientSystem(space, v.dims, broken)), cube_broken_on_a_face()[:2]]
    seen = 0
    for space, w in systems:
        keeps = {frozenset(), frozenset(space.ids)}
        for z in space.ids:
            keeps |= {frozenset(space.below(z)), frozenset(space.below(z)) | {z},
                      space.upset(z), space.upset(z) - {z}}
        for keep in keeps:
            got, want = assigncoh.coeffsys._kept_on(w, keep), _kept_on_all_pairs(w, keep)
            assert got.dims == want.dims
            assert all(got.proj(*p) == want.proj(*p) for p in w.pairs()), sorted(keep)
            assert check_functor(got) == check_functor(want)
            seen += not check_functor(got).ok
    assert seen


def test_kept_on_takes_only_a_known_clean_report(monkeypatch):
    """An order-closed quotient or restriction of a functor whose clean
    report is known walks no law; one whose report is unknown walks its
    own, and so does one of a system whose laws fail, which may be clean."""
    walks = []
    walk = assigncoh.coeffsys._walk_laws

    def counting(v):
        walks.append(v)
        return walk(v)

    monkeypatch.setattr(assigncoh.coeffsys, "_walk_laws", counting)
    space, v = cp2()
    nonfixed = frozenset(space.ids) - CP2_FIXED
    for n in (CP2_FIXED, nonfixed):
        assert check_functor(quotient_system(v, n)).ok
        assert check_functor(restriction_system(v, n)).ok
    assert walks == []
    generic = CoefficientSystem(space, v.dims, {p: v.proj(*p) for p in v.pairs()})
    assert check_functor(quotient_system(generic, CP2_FIXED)).ok
    assert len(walks) == 1
    _, bad, nset = cube_broken_on_a_face()
    assert not check_functor(bad).ok
    assert check_functor(quotient_system(bad, nset)).ok
    assert not check_functor(restriction_system(bad, nset)).ok
    assert len(walks) == 4


def test_a_pair_in_both_tables_reads_its_explicit_rows():
    """A pair may sit in both `_at` and `_explicit`: the constructor's
    explicit entries cover every comparable pair, identities included, and
    `_kept_on` copies the covers inside its kept set into `_at` while
    keeping their explicit entries.  `_rows` reads the explicit rows there,
    also where they differ from `_at`'s (an identity entry of 2)."""
    space, v = build_polytope(preset_polytope("square"))
    proj = {p: v.proj(*p) for p in v.pairs()}
    doubled = {**proj, ("v00", "v00"): RatMatrix.from_rows([[2, 0], [0, 2]])}
    seen = set()
    for given in (proj, doubled):
        w = CoefficientSystem(space, v.dims, given)
        for u in (w, assigncoh.coeffsys._kept_on(w, frozenset(space.ids) - {"v00"}),
                  assigncoh.coeffsys._kept_on(w, frozenset(space.ids) - {"interior"})):
            both = u._at.keys() & u._explicit.keys()
            assert all(u._rows(*p) is u._explicit[p] for p in both)
            seen |= both
    assert {("v00", "v00"), ("v01", "left"), ("left", "interior")} <= seen
    doubled_rows = CoefficientSystem(space, v.dims, doubled)._rows("v00", "v00")
    assert doubled_rows == [{0: 2}, {1: 2}]


def test_ses_identity_then_zero_fails_surjectivity():
    _, v = cp2()
    f = SystemMorphism.identity(v)
    g = SystemMorphism.zero(v, v)
    rep = ses_check(f, g)
    assert not rep.ok
    assert "p1" in rep.surjective_failures


def test_ses_zero_then_identity_fails_injectivity():
    # every stratum of positive dimension loses its values; open has none
    _, v = cp2()
    rep = ses_check(SystemMorphism.zero(v, v), SystemMorphism.identity(v))
    assert rep == SesReport(("e12", "e13", "e23", "p1", "p2", "p3"), (), ())


def test_ses_refuses_differing_middles():
    # an equal system built again is another middle: the check reads identity
    space, v = cp2()
    with pytest.raises(ValueError, match="^middle systems of the sequence differ$"):
        ses_check(SystemMorphism.identity(v), SystemMorphism.identity(moment_system(space)))


def test_morphism_refuses_a_block_of_the_wrong_shape():
    space, v = cp2()
    blocks = {x: RatMatrix.identity(v.dims[x]) for x in space.ids}
    blocks["e13"] = RatMatrix.identity(2)
    with pytest.raises(ValueError) as exc:
        SystemMorphism(v, v, blocks)
    assert str(exc.value) == "map at 'e13' has shape (2, 2), expected (1, 1)"


def test_proj_refuses_unknown_ids_and_incomparable_pairs():
    _, v = cp2()
    for x, y in (("ghost", "open"), ("p1", "ghost")):
        with pytest.raises(UnknownIdError) as exc:
            v.proj(x, y)
        assert exc.value.stratum_id == "ghost"
    for x, y in (("p1", "p2"), ("e12", "p1")):
        with pytest.raises(ValueError) as exc:
            v.proj(x, y)
        assert str(exc.value) == f"strata {x!r} and {y!r} are not comparable"


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


def test_morphism_refuses_a_key_that_is_no_stratum():
    # like from_cover_maps, the first stray key in sorted order is named
    space, v = cp2()
    blocks = {x: RatMatrix.identity(v.dims[x]) for x in space.ids}
    for stray in (["zzz"], ["zzz", "aaa"]):
        maps = dict(blocks, **{x: RatMatrix.identity(1) for x in stray})
        with pytest.raises(UnknownIdError) as exc:
            SystemMorphism(v, v, maps)
        assert exc.value.stratum_id == min(stray)
    missing = {x: m for x, m in blocks.items() if x != "e12"}
    with pytest.raises(UnknownIdError, match="e12"):
        SystemMorphism(v, v, missing)
    assert SystemMorphism(v, v, blocks).maps == blocks


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
    """Loading canonicalizes each distinct generator list once and solves each
    distinct (lower, upper) stabilizer pair once, fewer than the covers;
    from_covers keeps each cover's coordinates as integer rows; moment_system
    solves nothing and keeps those rows as its cover maps."""
    if kind == "cube*square":
        built = build_product(build_polytope(preset_polytope("cube")),
                              build_polytope(preset_polytope("square")))
    else:
        built = build_sphere_product(3, [(1, -1, 1), (-1, 1, 0), (-1, 1, 1), (1, -1, 0)])
    desc = SpaceDescription.from_space(built[0])
    calls, spans = [], []
    solve, span = Subalgebra._coordinate_rows, Subalgebra.span.__func__

    def counted(self, other):
        calls.append((self.basis_rows, other.basis_rows))
        return solve(self, other)

    def counted_span(cls, n, vectors):
        spans.append(tuple(map(tuple, vectors)))
        return span(cls, n, spans[-1])

    monkeypatch.setattr(Subalgebra, "_coordinate_rows", counted)
    monkeypatch.setattr(Subalgebra, "span", classmethod(counted_span))
    space, v = build_from_description(desc)
    monkeypatch.undo()
    pairs = {(space.stabilizer(x).basis_rows, space.stabilizer(y).basis_rows)
             for x, y in space.covers}
    assert sorted(calls) == sorted(pairs)
    assert 0 < len(calls) < len(space.covers)
    lists = {tuple(map(tuple, basis)) for _, basis in desc.strata}
    assert sorted(spans) == sorted(lists)
    assert len(spans) < len(desc.strata)
    assert tuple(space.cover_coords) == space.covers == tuple(sorted(space.covers))
    for (x, y), m in space.cover_coords.items():
        assert all(type(q) is int for row in m for q in row.values())
        direct = space.stabilizer(x).coordinates_of(space.stabilizer(y))
        assert RatMatrix.from_sparse(m, v.dims[x]) == direct
        assert v.proj(x, y) == direct
        assert v._rows(x, y) is m


@pytest.mark.parametrize("kind", ["cube*square", "spheres^4"])
def test_shared_cover_rows_stay_intact(kind):
    """Covers with the same stabilizer pair share one list of rows; the law
    walk, cohomology and extension must leave every cover's rows as solved."""
    if kind == "cube*square":
        space, v = build_product(build_polytope(preset_polytope("cube")),
                                 build_polytope(preset_polytope("square")))
    else:
        space, v = build_sphere_product(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        assert len(space.ids) == 73
    rows = list(space.cover_coords.values())
    assert len({id(m) for m in rows}) < len(rows)
    assert check_functor(v).ok
    cohomology(v, 1)
    a = assignment_basis(v)[-1]
    minimal = MinimalAssignment({x: a.value(x) for x in minimal_strata(space)})
    assert extend_minimal(v, minimal).values == a.values
    for (x, y), m in space.cover_coords.items():
        assert m == space.stabilizer(x)._coordinate_rows(space.stabilizer(y))
        assert v._rows(x, y) is m


def test_from_cover_maps_missing_cover():
    space, v = cp2()
    cover_maps = {c: v.proj(*c) for c in space.covers}
    cover_maps.pop(("p1", "e12"))
    with pytest.raises(ValueError):
        CoefficientSystem.from_cover_maps(space, dict(v.dims), cover_maps)


def test_from_cover_maps_refuses_an_explicit_entry_on_a_cover():
    """A cover's map goes in cover_maps: an explicit entry there would hide it
    from the cut while the compositions still use it."""
    space, v = cp2()
    cover_maps = {c: v.proj(*c) for c in space.covers}
    explicit = {("p1", "open"): v.proj("p1", "open"),
                ("p2", "e23"): RatMatrix.from_rows([[2, 0]])}
    with pytest.raises(ValueError) as exc:
        CoefficientSystem.from_cover_maps(space, dict(v.dims), cover_maps, explicit)
    assert str(exc.value) == ("explicit entry on the cover pair ('p2', 'e23'); "
                              "pass it in cover_maps")
    del explicit[("p2", "e23")]
    w = CoefficientSystem.from_cover_maps(space, dict(v.dims), cover_maps, explicit)
    assert w._cut == sorted(space.covers + (("p1", "open"),))


def test_from_cover_maps_refuses_a_non_cover_pair():
    """Every key of cover_maps is a cover: an implied pair, an incomparable
    pair or an unknown id raises at the first such key in sorted order."""
    space, v = cp2()
    cover_maps = {c: v.proj(*c) for c in space.covers}
    cases = [
        ({("p1", "open"): v.proj("p1", "open")}, ValueError, ("p1", "open")),
        ({("p1", "open"): RatMatrix.from_rows([[5, 7]])}, ValueError, ("p1", "open")),
        ({("p1", "open"): RatMatrix.from_rows([[5, 7]]),
          ("e12", "e13"): RatMatrix.from_rows([[1]])}, ValueError, ("e12", "e13")),
        ({("p1", "ghost"): RatMatrix.from_rows([[1, 0]]),
          ("p2", "open"): v.proj("p2", "open")}, UnknownIdError, "ghost"),
        ({("e12", "e13"): RatMatrix.from_rows([[1]]),
          ("ghost", "open"): RatMatrix.zeros(0, 1)}, ValueError, ("e12", "e13")),
    ]
    for extra, error, witness in cases:
        with pytest.raises(error) as exc:
            CoefficientSystem.from_cover_maps(space, dict(v.dims), {**cover_maps, **extra})
        if error is ValueError:
            assert str(exc.value) == f"cover_maps entry on the non-cover pair {witness}"
        else:
            assert exc.value.stratum_id == witness
    w = CoefficientSystem.from_cover_maps(space, dict(v.dims), cover_maps)
    assert w.proj("p1", "open") == v.proj("p1", "open")


# ---------------------------------------------------------------------------
# pairs composed on first use


def _gate_spaces():
    """Small moment spaces with chains of up to four strata."""
    square = build_polytope(preset_polytope("square"))
    segment = build_polytope(preset_polytope("segment"))
    spheres = build_sphere_product(3, [(1, -1, 1), (-1, 1, 0), (-1, 1, 1)])
    return [cp2()[0], s4()[0], build_polytope(preset_polytope("cube"))[0],
            build_product(square, segment)[0], spheres[0]]


def _described(space, dims, covers, explicit):
    """The system of a description file with these dims and projections."""
    obj = SpaceDescription.from_space(space).to_json_dict()
    obj["dims"] = dims
    obj["projections"] = [
        {"pair": list(p), "matrix": [[str(e) for e in row] for row in m.data]}
        for p, m in list(covers.items()) + list(explicit.items())]
    return build_from_description(SpaceDescription.from_json_dict(obj))[1]


def _random_explicit(rng, space, dims, count):
    longer = [p for p in space.comparable_pairs() if p not in space.cover_coords]
    return {p: _random_matrix(rng, dims[p[1]], dims[p[0]])
            for p in rng.sample(longer, min(count, len(longer)))}


def _reference_cases(rng):
    """(system, space, dims, cover maps, explicit) with the reference inputs.

    Moment systems, the constant system Q^2, and description systems with
    random cover maps, whose cover squares disagree, and explicit entries on
    random pairs that are not covers.  On the fork, the order of the lower
    covers decides which cover square a composed pair takes.
    """
    for space in _gate_spaces() + [fork()[0]]:
        v = moment_system(space)
        covers = {c: RatMatrix.from_sparse(space.cover_coords[c], v.dims[c[0]])
                  for c in space.covers}
        yield v, space, v.dims, covers, None
        two = dict.fromkeys(space.ids, 2)
        ones = {c: RatMatrix.identity(2) for c in space.covers}
        yield CoefficientSystem.from_cover_maps(space, two, ones), space, two, ones, None
        for _ in range(3):
            dims = {x: rng.randint(0, 2) for x in space.ids}
            covers = {(x, y): _random_matrix(rng, dims[y], dims[x]) for x, y in space.covers}
            explicit = _random_explicit(rng, space, dims, 3)
            yield _described(space, dims, covers, explicit), space, dims, covers, explicit


def _random_matrix(rng, rows, cols):
    return RatMatrix(rows, cols, [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                                   for _ in range(cols)] for _ in range(rows)])


def test_lazy_pairs_match_eager_composition_seeded():
    """Every pair, read in a random order, is the pair the eager loop composed."""
    rng = random.Random(97)
    disagree = 0
    for v, space, dims, covers, explicit in _reference_cases(rng):
        ref = reference_from_cover_maps(space, dims, covers, explicit)
        assert v.pairs() == sorted(ref)
        order = v.pairs()
        rng.shuffle(order)
        for x, y in order:
            m = v.proj(x, y)
            assert m == ref[(x, y)], (x, y)
            assert all(type(e) is Fraction for row in m.data for e in row)
        disagree += not check_functor(v).ok
    assert disagree >= 10


def test_rows_are_ints_where_integral():
    """Moment rows hold ints; a description's 1/2 stays a Fraction in its rows."""
    space = build_product(build_polytope(preset_polytope("cube")),
                          build_polytope(preset_polytope("segment")))[0]
    v = moment_system(space)
    assert all(type(e) is int for p in v.pairs() for row in v._rows(*p) for e in row.values())
    plane = cp2()[0]
    obj = SpaceDescription.from_space(plane).to_json_dict()
    obj["dims"] = dict.fromkeys(plane.ids, 1)
    obj["projections"] = [{"pair": ["p1", "e12"], "matrix": [["1/2"]]},
                          {"pair": ["p1", "open"], "matrix": [["3"]]}]
    obj["projections"] += [{"pair": list(c), "matrix": [["1"]]}
                           for c in plane.covers if c != ("p1", "e12")]
    _, w = build_from_description(SpaceDescription.from_json_dict(obj))
    assert w._rows("p1", "e12") == [{0: Fraction(1, 2)}]
    assert type(w._rows("p1", "e12")[0][0]) is Fraction
    assert type(w._rows("p1", "open")[0][0]) is int
    assert w.proj("p1", "open").data == [[Fraction(3)]]
    assert all(type(e) is Fraction for p in w.pairs() for row in w.proj(*p).data for e in row)


# ---------------------------------------------------------------------------
# degree 0 from the cut pairs, composition laws from cover squares


def _cut_cases(rng):
    """Systems for the degree-0 and functor-law gates.

    Per space: descriptions with random cover maps and 0-6 random explicit
    entries on pairs that are not covers.  Then, for the moment system and
    the constant system Q: the system itself; descriptions with its cover
    maps and explicit entries on longer pairs, one equal to the composed
    value, one on a diagonal pair, and one on a pair that no square of
    three covers contains, where only a square with a longer lower side
    sees a violation.
    """
    for space in _gate_spaces() + [flag_chain()[0]]:
        for count in range(7):
            dims = {x: rng.randint(0, 2) for x in space.ids}
            covers = {(x, y): _random_matrix(rng, dims[y], dims[x]) for x, y in space.covers}
            yield _described(space, dims, covers, _random_explicit(rng, space, dims, count))
        one = dict.fromkeys(space.ids, 1)
        for v in (moment_system(space), CoefficientSystem.from_cover_maps(
                space, one, {c: RatMatrix.identity(1) for c in space.covers})):
            yield v
            covers = {c: v.proj(*c) for c in space.covers}
            far = [(x, z) for x, z in space.comparable_pairs()
                   if v.dims[z] and (x, z) not in covers and not any(
                       (x, y) in covers and (y, z) in covers for y in space.ids)]
            for count in (1, 3):
                explicit = _random_explicit(rng, space, v.dims, count)
                kept = rng.choice(sorted(explicit))
                explicit[kept] = v.proj(*kept)
                if count == 3:
                    x = rng.choice([x for x in space.ids if v.dims[x]])
                    explicit[(x, x)] = _random_matrix(rng, v.dims[x], v.dims[x])
                yield _described(space, v.dims, covers, explicit)
            if far:
                x, z = rng.choice(far)
                yield _described(space, v.dims, covers,
                                 {(x, z): _random_matrix(rng, v.dims[z], v.dims[x])})


def test_pushed_values_are_the_rows_applied_seeded():
    """`_pushed(x, value)` gives (y, `_rows(x, y)` applied to value) for each
    y above x, in `space.above` order: on `_cut_cases` (Fraction explicit
    entries, perturbed systems), on the systems built from every pair's
    matrix and their `_kept_on` children, and on moment systems.  Counts
    the pairs (x, z) whose cover route passes a y where the explicit entry
    (x, y) gives another value than the route: the route must not step
    through it."""
    rng = random.Random(42)
    systems = []
    for v in _cut_cases(rng):
        w = CoefficientSystem(v.space, v.dims, {p: v.proj(*p) for p in v.pairs()})
        z = rng.choice(v.space.ids)
        systems += [v, w, assigncoh.coeffsys._kept_on(w, frozenset(v.space.below(z))),
                    assigncoh.coeffsys._kept_on(w, v.space.upset(z))]
    systems += [moment_system(space) for space in _gate_spaces()]
    shadowed = 0
    for v in systems:
        space = v.space
        for x in space.ids:
            value = {j: c for j in range(v.dims[x])
                     if (c := Fraction(rng.randint(-3, 3), rng.randint(1, 3)))}
            got = list(v._pushed(x, value))
            assert got == [(y, _apply(v._rows(x, y), value)) for y in space.above(x)]
            for z in space.above(x):
                y = z
                while (x, z) not in v._explicit and y != x:
                    y = space._route(x, y)
                    explicit = v._explicit.get((x, y))
                    shadowed += y != x and explicit is not None and (
                        _apply(explicit, value) != _apply(v._path(x, y), value))
    assert (len(systems), shadowed) == (4 * 80 + 5, 7)


def test_degree_zero_from_cut_pairs_matches_d0_seeded():
    """H^0 from the rows at the cut pairs is H^0 of the whole d_0, byte for byte.

    The cut holds the covers and the explicit non-identity entries.
    """
    rng = random.Random(16)
    fewer = every = 0
    for v in _cut_cases(rng):
        cx = _Complex(v, True)
        data = cx.data(0)
        assert 0 not in cx._ds  # d_0 itself was not assembled
        ref = _CohomologyData([], cx.d(0), cx.basis(0).total_dim)
        assert data.cocycles == ref.cocycles
        assert (data._rep_rows, data.rep_pivots) == (ref._rep_rows, ref.rep_pivots)
        assert data.dim == brute_assignment_dim(*system_adapter(v))
        fewer += len(v._cut) < len(v.space.comparable_pairs())
        every += v._cut == v.space.comparable_pairs()
    assert fewer >= 30 and every >= 5


def test_cut_is_the_forest_cut_exactly_when_a_clean_report_is_known_seeded():
    """`_cut` is the forest cut (each component's kept cover at each stratum,
    `_components`, sorted) when the system's clean functor report is known
    at its first read, and the covers with the explicit non-identity
    entries otherwise.  Moment systems and their `_kept_on` and quotient
    children take the forest cut.  A description with `projections` keeps
    the cover cut when read before its laws are walked, and a fresh copy
    takes the forest cut after a clean walk.  `_cut_cases`' systems are
    read after the walk: a perturbed one keeps the cover cut."""
    rng = random.Random(83)

    def forest(space):
        return sorted((y, z) for z, parts in _components(space).items() for y in parts.values())

    def covers(v):
        return sorted(set(v.space.covers).union(p for p in v._explicit if p[0] != p[1]))

    seen = Counter()
    for space in _gate_spaces():
        v = moment_system(space)
        z = rng.choice([x for x in space.ids if space.below(x)])
        low = frozenset(space.below(z))
        for w in (v, quotient_system(v, low), restriction_system(v, space.upset(z)),
                  assigncoh.coeffsys._kept_on(v, frozenset(space.ids) - low)):
            assert w._cut == forest(space)
        longer = [p for p in space.comparable_pairs() if p not in space.cover_coords]
        explicit = {p: v.proj(*p) for p in rng.sample(longer, min(2, len(longer)))}
        cover_maps = {c: v.proj(*c) for c in space.covers}
        before, after = (_described(space, v.dims, cover_maps, explicit) for _ in range(2))
        cut = before._cut
        assert check_functor(before).ok and check_functor(after).ok
        assert before._cut == cut == covers(before)
        assert after._cut == forest(space)
        seen["differ"] += forest(space) != covers(before)
    for v in _cut_cases(rng):
        ok = check_functor(v).ok
        assert v._cut == (forest(v.space) if ok else covers(v))
        seen["perturbed" if not ok else "clean"] += forest(v.space) != covers(v)
    assert seen == {"differ": 5, "perturbed": 41, "clean": 36}, seen


def test_check_functor_multiplies_each_cover_square_once(monkeypatch):
    """When every cover square holds, walking the laws makes one product per
    square and keeps no composed pair.

    Each x pushes its identity rows up (`_pushed`, one product per stratum
    above x), and each square (x, y, z), (y, z) a cover and x < y, reads
    only the cover's rows and multiplies them once by the rows pushed to y.
    That holds for a from_cover_maps copy of the cube's moment system and
    for the copy with an explicit entry on every pair.  The moment system
    itself carries its report from the start and multiplies nothing.
    """
    space, v = build_polytope(preset_polytope("cube"))
    covers = {c: RatMatrix.from_sparse(space.cover_coords[c], v.dims[c[0]])
              for c in space.covers}
    copy = CoefficientSystem.from_cover_maps(space, v.dims, covers)
    explicit = CoefficientSystem(space, v.dims, {p: v.proj(*p) for p in v.pairs()})
    squares = sum(len(space.below(y)) for y, _ in space.covers)
    pairs = len(space.comparable_pairs())
    read = CoefficientSystem._rows
    for w, walked in ((copy, True), (explicit, True), (v, False)):
        kept = len(w._at)
        calls, reads = [], []
        monkeypatch.setattr(assigncoh.coeffsys, "_mul", lambda a, b: calls.append(1) or _mul(a, b))
        monkeypatch.setattr(CoefficientSystem, "_rows",
                            lambda self, x, y: reads.append((x, y)) or read(self, x, y))
        assert check_functor(w).ok
        monkeypatch.undo()
        assert len(w._at) == kept
        assert all(x == y or (x, y) in space.cover_coords for x, y in reads)
        assert sum(x != y for x, y in reads) == (squares if walked else 0)
        assert len(calls) == ((squares + pairs) if walked else 0)
    # the walk over every strict triple would make more products
    assert squares < sum(len(space.above(y)) for _, y in space.comparable_pairs())


def test_check_functor_matches_dense_triple_walk_seeded():
    """check_functor names exactly the violations a walk over every triple finds."""
    rng = random.Random(61)
    failing = passing = 0
    for v in _cut_cases(rng):
        identity, composition = brute_functor_violations(*system_adapter(v))
        report = check_functor(v)
        assert report.identity_violations == tuple(identity)
        assert report.composition_violations == tuple(composition)
        failing += bool(composition)
        passing += not composition
    assert failing >= 20 and passing >= 5


def _built_moment_systems(rng):
    """Moment systems from every builder, on fixed and on seeded random input."""
    yield from (make()[1] for make in (cp2, s4, two_stratum, free_stratum, flag_chain, fork))
    yield s4_chain(3)[1]
    for space in _gate_spaces():
        yield moment_system(space)
        yield build_from_description(SpaceDescription.from_space(space))[1]
    for _ in range(4):
        n = rng.randint(1, 3)
        weights = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        yield build_linear_rep(weights)[1]
        yield build_sphere_product(n, [tuple(rng.randint(-2, 2) for _ in range(n))
                                       for _ in range(rng.randint(1, 3))])[1]
        polytope = build_polytope(truncated(preset_polytope(rng.choice(
            ["triangle", "square", "pentagon", "cube"])), rng, rng.randint(1, 3)))
        yield polytope[1]
        yield build_product(polytope, build_polytope(preset_polytope(rng.choice(
            ["segment", "triangle"]))))[1]


def test_moment_systems_arrive_certified_and_pass_the_law_walk_seeded():
    """A moment system carries the empty functor report from its builder, and
    walking its laws finds that report: the certificate is the walk's answer."""
    rng = random.Random(26)
    empty = FunctorReport((), ())
    count = 0
    for v in _built_moment_systems(rng):
        assert vars(v)["_report"] == empty
        assert assigncoh.coeffsys._walk_laws(v) == empty
        count += 1
    assert count == 33


def _record_compositions(monkeypatch):
    seen = []
    compose = CoefficientSystem._compose

    def recorded(self, x, z):
        seen.append((x, z))
        return compose(self, x, z)

    monkeypatch.setattr(CoefficientSystem, "_compose", recorded)
    return seen


def _write_space(tmp_path, name, space):
    path = tmp_path / name
    path.write_text(json.dumps(SpaceDescription.from_space(space).to_json_dict()))
    return str(path)


def test_loading_and_building_a_product_compose_no_pair(monkeypatch, tmp_path, capsys):
    left = _write_space(tmp_path, "cube.json", build_polytope(preset_polytope("cube"))[0])
    right = _write_space(tmp_path, "square.json",
                         build_polytope(preset_polytope("square"))[0])
    out = tmp_path / "product.json"
    seen = _record_compositions(monkeypatch)
    argv = ["build", "product", "--left", left, "--right", right, "--out", str(out)]
    assert assigncoh.cli.main(argv) == 0
    capsys.readouterr()
    space, v = build_from_description(SpaceDescription.from_json_dict(json.loads(out.read_text())))
    assert len(space.ids) == 243
    assert seen == []
    covers = set(space.covers)
    v.proj(*next(p for p in space.comparable_pairs() if p not in covers))
    assert len(seen) == 1


def _functional_values(space, xi):
    return {x: [sum(a * b for a, b in zip(xi, r)) for r in space.stabilizer(x).basis_rows]
            for x in space.ids}


def test_extend_composes_no_pair(monkeypatch):
    # the values are pushed along the cover route as vectors: no projection
    # matrix is composed, not even from a minimal stratum
    space, _ = build_product(build_polytope(preset_polytope("cube")),
                             build_polytope(preset_polytope("square")))
    v = moment_system(space)
    minima = minimal_strata(space)
    values = _functional_values(space, (3, -1, 2, 5, -7))
    seen = _record_compositions(monkeypatch)
    full = extend_minimal(v, MinimalAssignment({x: values[x] for x in minima}))
    assert seen == []
    assert full.values == {x: tuple(Fraction(c) for c in values[x]) for x in space.ids}


def _eager_extend_witness(space, proj, values):
    """The triple the walk of extend_minimal names, on eagerly composed pairs."""
    minima = minimal_strata(space)
    pushed, origin = {x: values[x] for x in minima}, {x: x for x in minima}
    for x in minima:
        for y in space.above(x):
            val = proj[(x, y)].apply(values[x])
            if y not in pushed:
                pushed[y], origin[y] = val, x
            elif pushed[y] != val:
                return (origin[y], x, y)
    return None


def test_incompatible_minimal_values_name_the_eager_triple(tmp_path, capsys):
    rng = random.Random(5)
    space, _ = build_product(build_polytope(preset_polytope("cube")),
                             build_polytope(preset_polytope("segment")))
    path = _write_space(tmp_path, "space.json", space)
    v = moment_system(space)
    ref = reference_from_cover_maps(space, v.dims, {
        c: RatMatrix.from_sparse(space.cover_coords[c], v.dims[c[0]]) for c in space.covers})
    minima = minimal_strata(space)
    for _ in range(4):
        values = _functional_values(space, [rng.randint(-3, 3) for _ in range(4)])
        values = {x: [Fraction(c) for c in values[x]] for x in minima}
        bad = rng.choice(minima)
        values[bad][rng.randrange(len(values[bad]))] += Fraction(1, 2)
        triple = _eager_extend_witness(space, ref, values)
        assert triple is not None
        (tmp_path / "values.json").write_text(json.dumps(
            {"values": {x: [str(c) for c in vals] for x, vals in values.items()}}))
        argv = ["--json", "extend", path, "--values", str(tmp_path / "values.json")]
        assert assigncoh.cli.main(argv) == assigncoh.cli.EXIT_INCOMPATIBLE
        out = capsys.readouterr()
        message = str(IncompatibleMinimalValuesError(triple))
        assert json.loads(out.out)["error"] == {
            "type": "IncompatibleMinimalValuesError", "message": message}
        assert out.err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# morphisms checked on the pairs their systems are given on


def _pair_named(exc):
    """The pair a naturality refusal names."""
    return ast.literal_eval(str(exc).rsplit(" at pair ", 1)[1])


def _identity_maps(v):
    return {x: RatMatrix.identity(v.dims[x]) for x in v.space.ids}


def _entry_off_the_route():
    """The cube's moment copy from its cover maps and the copy whose
    explicit (vertex, face) entry is doubled (`cube_broken_on_a_face`):
    their cover maps are equal, and the entry differs from its route."""
    space, broken, _ = cube_broken_on_a_face()
    plain = CoefficientSystem.from_cover_maps(
        space, broken.dims, {c: broken.proj(*c) for c in space.covers})
    return plain, broken


def _morphism_cases(rng):
    """(source, target, stratum maps) for the naturality gate.

    The identity maps of moment systems, of `_cut_cases`' descriptions, of
    the constructor's systems (every pair explicit, one identity entry
    doubled) and of a `_kept_on` child of each; the two maps of `pair_ses`
    across that child's kept set; and identity blocks between two systems
    whose one explicit entry off a cover differs, on either side.
    """
    systems = [moment_system(space) for space in _gate_spaces()] + list(_cut_cases(rng))
    for w in systems[::4]:
        proj = {p: w.proj(*p) for p in w.pairs()}
        x = rng.choice([x for x in w.space.ids if w.dims[x]])
        proj[(x, x)] = proj[(x, x)] + proj[(x, x)]
        systems.append(CoefficientSystem(w.space, w.dims, proj))
    for v in systems:
        space = v.space
        yield v, v, _identity_maps(v)
        z = rng.choice([x for x in space.ids if space.below(x)])
        keep = rng.choice([frozenset(space.below(z)), space.upset(z)])
        child = assigncoh.coeffsys._kept_on(v, keep)
        yield child, child, _identity_maps(child)
        for f in pair_ses(v, keep):
            yield f.source, f.target, f.maps
    plain, broken = _entry_off_the_route()
    yield plain, broken, _identity_maps(plain)
    yield broken, plain, _identity_maps(plain)


def _map_variants(rng, space, maps):
    """maps, each stratum's block scaled by 1, 2 or -1, and maps with one
    stratum's block replaced by a random matrix."""
    yield maps
    scale = {x: rng.choice((1, 2, -1)) for x in space.ids}
    yield {x: RatMatrix(*m.shape(), [[scale[x] * e for e in row] for row in m.data])
           for x, m in maps.items()}
    x = rng.choice(space.ids)
    yield {**maps, x: _random_matrix(rng, *maps[x].shape())}


def test_morphism_naturality_matches_the_per_pair_walk_seeded():
    """A `SystemMorphism` accepts or refuses its maps exactly where the walk
    over every comparable pair (`per_pair_naturality`) does.  A refusal
    names the first pair, in the sorted union of the two systems' given
    pairs (`_given`), where the square fails.  Some refused maps commute
    on every cover, and some on every pair the source is given on: the
    identity blocks across an explicit entry off its route, which the
    target holds, and which the source holds."""
    rng = random.Random(44)
    seen = Counter()
    for source, target, base in _morphism_cases(rng):
        given = sorted(set(source._given) | set(target._given))
        for maps in _map_variants(rng, source.space, base):
            try:
                SystemMorphism(source, target, maps)
            except ValueError as exc:
                failing = [(x, y) for x, y in given
                           if maps[y] @ source.proj(x, y) != target.proj(x, y) @ maps[x]]
                assert failing and _pair_named(exc) == failing[0]
                with pytest.raises(ValueError, match="naturality square fails"):
                    per_pair_naturality(source, target, maps)
                seen["refused"] += 1
                seen["off the covers"] += not set(failing) & set(source.space.covers)
                seen["off the source's pairs"] += not set(failing) & set(source._given)
            else:
                per_pair_naturality(source, target, maps)
                seen["accepted"] += 1
    assert seen["refused"] >= 300 and seen["accepted"] >= 600, seen
    assert seen["off the covers"] >= 2 and seen["off the source's pairs"] >= 1, seen


def test_morphisms_compose_no_pair(monkeypatch):
    """Building a morphism reads only the pairs its systems are given on: on
    cube x cube neither the identity nor the two maps of the pair sequence
    on the minimal strata compose a pair or grow the system's `_at`."""
    cube = build_polytope(preset_polytope("cube"))
    space, v = build_product(cube, cube)
    kept = len(v._at)
    seen = _record_compositions(monkeypatch)
    SystemMorphism.identity(v)
    assert len(v._at) == kept
    pair_ses(v, minimal_strata(space))
    assert len(v._at) == kept
    assert seen == []


def test_zero_morphism_refuses_systems_on_different_spaces():
    """`SystemMorphism.zero` between systems on two spaces raises the
    constructor's ValueError, whether or not the spaces share their ids."""
    _, cube = build_polytope(preset_polytope("cube"))
    _, square = build_polytope(preset_polytope("square"))
    _, other_cube = build_polytope(preset_polytope("cube"))
    for source, target in ((cube, square), (square, cube), (cube, other_cube)):
        with pytest.raises(ValueError, match="different spaces"):
            SystemMorphism.zero(source, target)
