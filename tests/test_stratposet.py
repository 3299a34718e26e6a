import random

import pytest

import assigncoh.stratposet
from assigncoh import PosetMap, RatMatrix, StratSpace, Subalgebra, chains, minimal_strata, poset_morphism_check
from assigncoh import (
    SpaceDescription,
    build_from_description,
    build_linear_rep,
    build_polytope,
    build_product,
    build_sphere_product,
    preset_polytope,
)
from assigncoh.errors import CycleError, StabilizerMonotonicityError, UnknownIdError
from assigncoh.stratposet import _int_kernel
from oracles import brute_covers, brute_rank, brute_tuples, reference_solve, reference_span
from spaces import cp2, s4, two_stratum


def test_two_stratum_space_valid():
    space, _ = two_stratum()
    assert space.ids == ("open", "pt")
    assert space.leq("pt", "open")
    assert not space.leq("open", "pt")
    assert space.stabilizer("pt").dim == 1
    assert space.stabilizer("open").dim == 0


def test_cycle_rejected():
    strata = {"a": Subalgebra.full(1), "b": Subalgebra.zero(1)}
    with pytest.raises(CycleError):
        StratSpace.from_covers(1, strata, [("a", "b"), ("b", "a")])


def test_stabilizer_growth_rejected():
    # open below fixed: stabilizer would grow along the cover
    strata = {"a": Subalgebra.zero(1), "b": Subalgebra.full(1)}
    with pytest.raises(StabilizerMonotonicityError) as exc:
        StratSpace.from_covers(1, strata, [("a", "b")])
    assert exc.value.pair == ("a", "b")


def test_equal_stabilizer_cover_rejected():
    strata = {"a": Subalgebra.full(1), "b": Subalgebra.full(1)}
    with pytest.raises(StabilizerMonotonicityError):
        StratSpace.from_covers(1, strata, [("a", "b")])


def _reduction(ids, relation):
    """The transitive reduction of an acyclic relation, by brute force."""
    up = {x: {x} for x in ids}
    for x, y in relation:
        up[x].add(y)
    for z in ids:
        for x in ids:
            if z in up[x]:
                up[x] |= up[z]
    return brute_covers(ids, lambda a, b: b in up[a])


def _first_bad_cover(strata, relation):
    """(pair, message) of the first cover in sorted order whose stabilizers
    are not nested with a strict dimension drop, one cover at a time; None
    when every cover passes."""
    for x, y in _reduction(sorted(strata), relation):
        if _reference_coordinates(strata[x], strata[y]) is None:
            reason = "stabilizer of the upper stratum is not inside the lower one"
        elif strata[y].dim >= strata[x].dim:
            reason = "stabilizer dimension does not strictly decrease"
        else:
            continue
        return (x, y), f"cover {(x, y)}: {reason}"
    return None


# generator lists on T^2: [[2, 0]] and [[1, 0]] span the same line, and
# [[1, 1], [0, 1]] the whole algebra, so distinct lists share a stabilizer
_POOL = ([], [[1, 0]], [[2, 0]], [[0, 1]], [[1, 1]], [[1, 0], [0, 1]], [[1, 1], [0, 1]])


def _witness_cases(rng):
    """Hand-made failing descriptions, then seeded random acyclic relations."""
    line, other, full = [[1, 0]], [[0, 1]], [[1, 0], [0, 1]]
    yield {"a": line, "b": other, "c": line, "d": other}, [("c", "d"), ("a", "b")]
    yield {"a": line, "b": [[2, 0]], "c": line, "d": other}, [("a", "b"), ("c", "d")]
    yield {"a": full, "b": line, "c": full, "d": line, "e": full, "f": full,
           "g": line, "h": line}, [("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")]
    for _ in range(300):
        names = rng.sample("abcdefgh", rng.randint(2, 7))
        rel = [(x, y) for i, x in enumerate(names) for y in names[i + 1:]
               if rng.random() < 0.35]
        yield {x: rng.choice(_POOL) for x in names}, rel


def test_first_failing_cover_matches_a_per_cover_walk_seeded():
    """Covers sharing a stabilizer pair share one verdict; the raised pair and
    message are still those of the first failing cover in sorted order, and
    a space that loads has every cover's coordinates."""
    rng = random.Random(41)
    seen = {"inside": 0, "dimension": 0, "shared": 0, "loaded": 0}
    for gens, rel in _witness_cases(rng):
        desc = SpaceDescription(2, sorted(gens.items()), rel)
        strata = {x: Subalgebra.span(2, g) for x, g in gens.items()}
        expected = _first_bad_cover(strata, rel)
        if expected is None:
            space, _ = build_from_description(desc)
            for (x, y), m in space.cover_coords.items():
                assert [[row.get(i, 0) for i in range(strata[x].dim)] for row in m] == \
                    _reference_coordinates(strata[x], strata[y])
            seen["loaded"] += 1
            continue
        with pytest.raises(StabilizerMonotonicityError) as exc:
            build_from_description(desc)
        assert (exc.value.pair, str(exc.value)) == expected
        seen["inside" if "inside" in expected[1] else "dimension"] += 1
        x, y = expected[0]
        seen["shared"] += sum((strata[a], strata[b]) == (strata[x], strata[y])
                              for a, b in _reduction(sorted(strata), rel)) > 1
    assert min(seen.values()) >= 10, seen


def test_unknown_cover_endpoint():
    with pytest.raises(UnknownIdError):
        StratSpace.from_covers(1, {"a": Subalgebra.full(1)}, [("a", "ghost")])


def test_chains_cp2_strict_degree_one():
    space, _ = cp2()
    got = chains(space, 1, strict=True)
    assert len(got) == 12
    assert got == brute_tuples(space.ids, space.leq, 1, strict=True)


def test_chains_degree_zero():
    space, _ = cp2()
    assert chains(space, 0, strict=True) == [(x,) for x in sorted(space.ids)]


def test_chains_single_stratum():
    space = StratSpace.from_covers(1, {"x": Subalgebra.zero(1)}, [])
    assert chains(space, 1, strict=True) == []
    assert chains(space, 1, strict=False) == [("x", "x")]


def test_chains_match_brute_force_non_strict():
    space, _ = cp2()
    for k in (1, 2):
        assert chains(space, k, strict=False) == brute_tuples(
            space.ids, space.leq, k, strict=False
        )


_CHAIN_SPACES = {
    "cp2": lambda: cp2()[0],
    "cube": lambda: build_polytope(preset_polytope("cube"))[0],
    "square*segment": lambda: build_product(
        build_polytope(preset_polytope("square")), build_polytope(preset_polytope("segment"))
    )[0],
    # merged (S^2)^4 over T^3, weights in {-1, 0, 1}: 45 strata, as in the elim benchmark
    "spheres^4": lambda: build_sphere_product(
        3, [(-1, -1, -1), (-1, -1, -1), (-1, -1, 0), (0, -1, 1)]
    )[0],
}


@pytest.mark.parametrize("name", sorted(_CHAIN_SPACES))
def test_chains_match_brute_force_through_degree_three(name):
    space = _CHAIN_SPACES[name]()
    for k in range(4):
        weak = brute_tuples(space.ids, space.leq, k, strict=False)
        assert chains(space, k, strict=False) == weak
        # a strict chain is a weak one without repeated neighbours; filtering
        # saves a second pass over all (k+1)-tuples of the 45 strata
        strict = [t for t in weak if all(a != b for a, b in zip(t, t[1:]))]
        assert chains(space, k, strict=True) == strict


def test_strict_chains_vanish_beyond_stratum_count():
    space, _ = two_stratum()
    for k in range(2, 5):
        assert chains(space, k, strict=True) == []


def test_minimal_strata():
    space, _ = cp2()
    assert minimal_strata(space) == ("p1", "p2", "p3")
    discrete = StratSpace.from_covers(
        1, {"a": Subalgebra.zero(1), "b": Subalgebra.zero(1)}, []
    )
    assert minimal_strata(discrete) == ("a", "b")


def _built_spaces(rng):
    """Builders' spaces, cp2 and s4, and products of the small ones."""
    built = [build_polytope(preset_polytope(name))
             for name in ("segment", "triangle", "square", "pentagon", "cube")]
    built += [cp2(), s4()]
    for _ in range(3):
        n = rng.randint(1, 3)
        built.append(build_linear_rep(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]))
        built.append(build_sphere_product(
            2, [(rng.randint(-1, 1), rng.choice((-1, 1))) for _ in range(rng.randint(1, 3))]))
    small = [b for b in built if len(b[0].ids) <= 12]
    for _ in range(4):
        built.append(build_product(*rng.sample(small, 2)))
    return [space for space, _ in built]


def _order_spaces(rng):
    """The built spaces, then a description whose covers list also names a
    pair two covers compose."""
    yield from _built_spaces(rng)
    obj = SpaceDescription.from_space(cp2()[0]).to_json_dict()
    obj["covers"].append(["p1", "open"])
    yield build_from_description(SpaceDescription.from_json_dict(obj))[0]


def test_order_tables_match_brute_force_seeded():
    """covers, below, lower_covers and minimal_strata against leq alone."""
    rng = random.Random(17)
    for space in _order_spaces(rng):
        ids, leq = space.ids, space.leq
        hasse = brute_covers(ids, leq)
        assert space.covers == tuple(sorted(hasse))
        for x in ids:
            assert space.below(x) == sorted(a for a in ids if a != x and leq(a, x))
            lower = space.lower_covers(x)
            assert sorted(lower) == sorted(a for a, b in space.covers if b == x)
            keys = [(-len(space.upset(a)), a) for a in lower]
            assert keys == sorted(keys)
        assert minimal_strata(space) == tuple(
            x for x in ids if not any(a != x and leq(a, x) for a in ids))
    assert "p1" not in space.lower_covers("open")


def test_implied_pairs_leave_the_order_tables_unchanged_seeded():
    """A covers list padded with random implied pairs, in any order, loads the
    same space: the same covers, lower covers, downsets and cover coordinates."""
    rng = random.Random(23)
    padded = 0
    for space in _built_spaces(rng):
        implied = [p for p in space.comparable_pairs() if p not in space.cover_coords]
        relation = list(space.covers) + rng.sample(implied, min(len(implied), 8))
        rng.shuffle(relation)
        again = StratSpace.from_covers(space.torus_dim, space.stabilizers, relation)
        assert again.covers == space.covers
        assert again.cover_coords == space.cover_coords
        for x in space.ids:
            assert again.lower_covers(x) == space.lower_covers(x)
            assert again.below(x) == space.below(x)
        padded += len(relation) > len(space.covers)
    assert padded >= 10


def test_morphism_identity_ok():
    space, _ = cp2()
    rep = poset_morphism_check({x: x for x in space.ids}, space, space)
    assert rep.ok
    assert rep.monotonicity_violations == ()
    assert rep.stabilizer_violations == ()


def test_morphism_collapse_to_minimum():
    space, _ = two_stratum()
    # everything to the unique minimum: monotone, and stab(x) <= stab(pt) holds
    rep = poset_morphism_check({x: "pt" for x in space.ids}, space, space)
    assert rep.ok


def test_morphism_violations_reported():
    space, _ = cp2()
    f = {x: x for x in space.ids}
    f["p1"] = "open"   # sends a vertex above its own edge's image
    f["e12"] = "p2"
    rep = poset_morphism_check(f, space, space)
    assert not rep.ok
    assert ("p1", "e12") in rep.monotonicity_violations
    assert "p1" in rep.stabilizer_violations


def test_morphism_requires_total_map():
    space, _ = cp2()
    with pytest.raises(UnknownIdError):
        poset_morphism_check({"p1": "p1"}, space, space)


def test_posetmap_call():
    space, _ = cp2()
    f = PosetMap(space, space, {x: x for x in space.ids})
    assert f("p1") == "p1"


def test_subalgebra_saturation():
    # index-two sublattice spans the same rational line
    assert Subalgebra.span(1, [[2]]) == Subalgebra.span(1, [[1]])
    assert Subalgebra.span(2, [[2, 4]]) == Subalgebra.span(2, [[1, 2]])


def test_subalgebra_canonical_under_unimodular_mixes():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        base = Subalgebra.span(n, rows)
        mixed = [list(r) for r in rows]
        for _ in range(6):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                c = rng.randint(-3, 3)
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
            elif rng.random() < 0.5:
                mixed[i] = [-a for a in mixed[i]]
        assert Subalgebra.span(n, mixed) == base


def _generator_set(rng, case, n):
    """Random integer generators in Z^n of one kind: 0 empty, 1 with zero
    rows, 2 with dependent rows, 3 full rank, otherwise plain random."""
    def vec():
        return [rng.randint(-3, 3) for _ in range(n)]
    if case == 0:
        return []
    rows = [vec() for _ in range(rng.randint(1, n + 1))]
    if case == 1:
        for _ in range(rng.randint(1, 2)):
            rows.insert(rng.randrange(len(rows) + 1), [0] * n)
    elif case == 2:
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            c, e = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([c * x + e * y for x, y in zip(a, b)])
    elif case == 3:
        while brute_rank(rows) < n:
            rows.append(vec())
    return rows


def test_span_matches_reference_randomized():
    rng = random.Random(41)
    for trial in range(1200):
        n = rng.randint(1, 6)
        rows = _generator_set(rng, trial % 5, n)
        r = brute_rank(rows)
        assert Subalgebra.span(n, rows).basis_rows == reference_span(n, rows)
        kernel = _int_kernel(rows, n)
        assert len(kernel) == n - r
        assert Subalgebra.span(n, kernel).basis_rows == kernel
        for x in kernel:
            assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)


def _near_canonical(rng, n):
    """A canonical basis as span gives it, often edited so that it is not."""
    rows = [list(r) for r in Subalgebra.span(n, _generator_set(rng, rng.randrange(5), n)).basis_rows]
    edit = rng.randrange(7)
    if rows and edit == 1:          # a leading entry other than 1
        i = rng.randrange(len(rows))
        rows[i] = [rng.choice((2, -1)) * x for x in rows[i]]
    elif rows and edit == 2:        # a repeated row
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    elif edit == 3:                 # a zero row
        rows.insert(rng.randrange(len(rows) + 1), [0] * n)
    elif len(rows) > 1 and edit == 4:   # leading columns out of order
        i = rng.randrange(len(rows) - 1)
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    elif len(rows) > 1 and edit == 5:   # a nonzero entry in another row's leading column
        i, j = rng.sample(range(len(rows)), 2)
        rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
    return rows


def test_canonical_span_equals_span_randomized():
    rng = random.Random(61)
    fixed = [(2, [[2, 1]]), (2, [[2, 2]]), (3, [[1, 0, 0], [0, 0, 0], [0, 1, 0]]),
             (2, [[1, 0], [1, 0]]), (2, [[1, 1], [0, 1]]), (2, []), (3, [[0, 1, 5]])]
    cases = fixed + [(n, _near_canonical(rng, n))
                     for n in (rng.randint(1, 6) for _ in range(1500))]
    # span takes a reduced echelon basis with unit pivots as it comes: it
    # must still be the reference Hermite basis
    taken = 0
    for n, rows in cases + [(0, []), (0, [[]])]:
        expected = reference_span(n, rows)
        assert Subalgebra.span(n, rows).basis_rows == expected
        assert Subalgebra.span(n, iter(rows)).basis_rows == expected
        taken += expected == tuple(map(tuple, rows))
    assert 300 < taken < len(cases) - 300
    for n, rows in ((2, [[1, 0, 0]]), (2, [[2, 2], [1]])):
        with pytest.raises(ValueError, match="ambient dimension"):
            Subalgebra.span(n, rows)


def test_subalgebra_contains():
    h = Subalgebra.span(2, [[1, 1]])
    assert h.contains(Subalgebra.zero(2))
    assert Subalgebra.full(2).contains(h)
    assert not h.contains(Subalgebra.full(2))
    assert Subalgebra.full(2).coordinates_of(h) == RatMatrix.from_rows([[1, 1]])
    assert h.coordinates_of(Subalgebra.zero(2)) == RatMatrix.zeros(0, 1)
    assert h.coordinates_of(Subalgebra.full(2)) is None
    assert h.coordinates_of(Subalgebra.span(2, [[1, -1]])) is None
    assert h.coordinates_of(Subalgebra.span(3, [[1, 1, 0]])) is None
    plane = Subalgebra.span(3, [[1, 0, 0], [0, 1, 0]])
    assert plane.coordinates_of(Subalgebra.span(3, [[2, 4, 0]])) == RatMatrix.from_rows([[1, 2]])
    assert plane.coordinates_of(plane) == RatMatrix.identity(2)
    assert Subalgebra.full(3) == Subalgebra.span(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def _reference_coordinates(big, small):
    """Rows of small over the basis of big by reference_solve, or None."""
    if big.ambient_dim != small.ambient_dim:
        return None
    columns = [[b[i] for b in big.basis_rows] for i in range(big.ambient_dim)]
    rows = []
    for v in small.basis_rows:
        c = reference_solve(columns, big.dim, list(v))
        if c is None:
            return None
        rows.append(c)
    return rows


def test_coordinates_of_matches_reference_solve_randomized():
    rng = random.Random(59)
    kinds = {"contained": 0, "not contained": 0, "ambient mismatch": 0}
    for trial in range(1500):
        n = rng.randint(0, 5)
        big = Subalgebra.span(n, _generator_set(rng, trial % 5, n))
        case = trial % 3
        if case < 2:
            # integer combinations of the basis are contained; case 1 adds
            # one random vector, which mostly is not
            gens = []
            for _ in range(rng.randint(0, big.dim + 1)):
                c = [rng.randint(-3, 3) for _ in big.basis_rows]
                gens.append([sum(a * b[i] for a, b in zip(c, big.basis_rows)) for i in range(n)])
            if case == 1:
                gens.insert(rng.randint(0, len(gens)), [rng.randint(-3, 3) for _ in range(n)])
            small = Subalgebra.span(n, gens)
        else:
            m = rng.choice([k for k in range(6) if k != n])
            small = Subalgebra.span(m, _generator_set(rng, trial % 5, m))
        expected = _reference_coordinates(big, small)
        got = big.coordinates_of(small)
        if expected is None:
            assert got is None
            assert not big.contains(small)
            kinds["ambient mismatch" if case == 2 else "not contained"] += 1
        else:
            assert got is not None and got.shape() == (small.dim, big.dim)
            assert got.data == expected
            assert big.contains(small)
            kinds["contained"] += 1
        if case == 0:
            assert expected is not None
    assert min(kinds.values()) >= 150, kinds
