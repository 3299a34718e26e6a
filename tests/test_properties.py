"""Seeded randomized suites for the structural laws.

Each suite runs at least 200 drawn cases (100 for the polynomial sampling
oracle, which does exact complex evaluations on top).  Everything is pinned
to fixed seeds; no case is ever skipped silently.
"""

import itertools
import random
from fractions import Fraction

import pytest

from assigncoh import (
    AssignmentVector,
    CoefficientSystem,
    FormCoefficients,
    IncompatibleMinimalValuesError,
    MinimalAssignment,
    MomentPolynomial,
    RatMatrix,
    ScalarPoly,
    StratSpace,
    Subalgebra,
    WeightMatrix,
    assignment_basis,
    assignment_space_dim,
    build_linear_rep,
    build_polytope,
    build_product,
    build_sphere_product,
    chain_space_dim,
    chains,
    check_functor,
    check_moment_condition,
    cohomology,
    decompose,
    differential_matrix,
    euler_characteristic,
    extend_minimal,
    is_assignment,
    les_coefficients_check,
    les_pair_check,
    minimal_strata,
    moment_system,
    pair_ses,
    preset_polytope,
    recombine,
    relative_cohomology,
    restrict_to_minimal,
    verify_decomposition,
)
from assigncoh.coeffsys import _closure_direction
from assigncoh.errors import NotOpenError

from oracles import brute_covers, plus_terms
from spaces import cp2, s4, two_stratum


# ---------------------------------------------------------------------------
# random generators

def _random_weight_rows(rng, n, d):
    rows = []
    for _ in range(d):
        row = [rng.randint(-2, 2) for _ in range(n)]
        rows.append(tuple(row))
    return rows


def _random_builder_output(rng):
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        return build_linear_rep(_random_weight_rows(rng, n, d))
    if kind == 1:
        n = rng.randint(1, 2)
        d = rng.randint(1, 3)
        rows = _random_weight_rows(rng, n, d)
        # a zero weight leaves that sphere pointwise fixed; keep at least
        # one moving factor for variety
        if all(x == 0 for x in rows[0]):
            rows[0] = (1,) + rows[0][1:]
        return build_sphere_product(n, rows)
    if kind == 2:
        name = rng.choice(("segment", "triangle", "square", "pentagon"))
        return build_polytope(preset_polytope(name))
    return rng.choice((cp2, s4, two_stratum))()


def _random_tree_system(rng):
    """Generic (non-moment) coefficient system on a random tree poset."""
    m = rng.randint(2, 6)
    parent = {i: rng.randrange(i) for i in range(1, m)}
    depth = {0: 0}
    for i in range(1, m):
        depth[i] = depth[parent[i]] + 1
    n = max(depth.values()) + 1
    strata = {}
    for i in range(m):
        rows = [[1 if c == r else 0 for c in range(n)]
                for r in range(n - depth[i])]
        strata[f"s{i}"] = (Subalgebra.span(n, rows)
                           if rows else Subalgebra.zero(n))
    covers = [(f"s{parent[i]}", f"s{i}") for i in range(1, m)]
    space = StratSpace.from_covers(n, strata, covers)
    dims = {x: rng.randint(0, 2) for x in space.ids}
    cover_maps = {}
    for x, y in space.covers:
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(dims[x])]
                for _ in range(dims[y])]
        cover_maps[(x, y)] = RatMatrix(dims[y], dims[x], rows)
    return CoefficientSystem.from_cover_maps(space, dims, cover_maps)


# ---------------------------------------------------------------------------
# suite 1: d^2 = 0

def test_differential_squares_to_zero_randomized():
    rng = random.Random(11)
    cases = 0
    for _ in range(100):
        _, v = _random_builder_output(rng)
        for strict in (True, False):
            d0 = differential_matrix(v, 0, strict=strict)
            d1 = differential_matrix(v, 1, strict=strict)
            assert (d1 @ d0).is_zero()
            cases += 1
    for _ in range(100):
        v = _random_tree_system(rng)
        assert check_functor(v).ok
        for k in (0, 1):
            dk = differential_matrix(v, k, strict=False)
            dk1 = differential_matrix(v, k + 1, strict=False)
            assert (dk1 @ dk).is_zero()
            cases += 1
    assert cases >= 200


# ---------------------------------------------------------------------------
# suite 2: functor laws on builder outputs

def test_builder_outputs_are_functors_randomized():
    rng = random.Random(23)
    cases = 0
    for _ in range(160):
        space, v = _random_builder_output(rng)
        report = check_functor(v)
        assert report.ok, report
        cases += 1
    for _ in range(40):
        a = _random_builder_output(rng)
        b = _random_builder_output(rng)
        if len(a[0].ids) * len(b[0].ids) > 40:
            b = build_polytope(preset_polytope("segment"))
        _, v = build_product(a, b)
        assert check_functor(v).ok
        cases += 1
    assert cases >= 200


# ---------------------------------------------------------------------------
# suite 3: assignments restrict/extend bijectively

def test_extend_restrict_roundtrip_randomized():
    rng = random.Random(37)
    cases = 0
    pool = [cp2(), s4(), two_stratum(),
            build_sphere_product(2, [(1, 0), (0, 1)]),
            build_polytope(preset_polytope("triangle")),
            build_linear_rep([(1, 0), (0, 1), (1, 1)])]
    bases = [(v, assignment_basis(v)) for _, v in pool]
    for _ in range(120):
        v, basis = bases[rng.randrange(len(bases))]
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in basis]
        values = {
            x: tuple(sum(c * b.value(x)[i] for c, b in zip(coeffs, basis))
                     for i in range(v.dims[x]))
            for x in v.space.ids
        }
        a = AssignmentVector(v, values)
        assert is_assignment(v, a).ok
        again = extend_minimal(v, restrict_to_minimal(a))
        assert again.values == a.values
        cases += 1
    for _ in range(80):
        v, _ = bases[rng.randrange(len(bases))]
        minima = restrict_to_minimal(
            AssignmentVector(v, {x: (Fraction(0),) * v.dims[x]
                                 for x in v.space.ids})).values
        guess = MinimalAssignment({
            x: tuple(Fraction(rng.randint(-2, 2)) for _ in vals)
            for x, vals in minima.items()
        })
        try:
            a = extend_minimal(v, guess)
        except IncompatibleMinimalValuesError as e:
            x0, x1, y = e.witness
            p0 = v.proj(x0, y).apply(list(guess.values[x0]))
            p1 = v.proj(x1, y).apply(list(guess.values[x1]))
            assert p0 != p1
        else:
            assert is_assignment(v, a).ok
            assert restrict_to_minimal(a).values == {
                x: tuple(Fraction(c) for c in vals)
                for x, vals in guess.values.items()
            }
        cases += 1
    assert cases >= 200


# ---------------------------------------------------------------------------
# suite 4: products add assignment dimensions

def test_product_dimension_formula_randomized():
    rng = random.Random(53)
    factors = [
        build_polytope(preset_polytope("segment")),
        build_polytope(preset_polytope("triangle")),
        build_sphere_product(1, [(1,)]),
        build_linear_rep([(1,), (-1,)]),
        build_linear_rep([(1, 0), (0, 1)]),
        two_stratum(),
        cp2(),
        s4(),
    ]
    dims = [assignment_space_dim(v) for _, v in factors]
    cases = 0
    for _ in range(200):
        i, j = rng.randrange(len(factors)), rng.randrange(len(factors))
        if len(factors[i][0].ids) * len(factors[j][0].ids) > 30:
            j = 0
        _, v = build_product(factors[i], factors[j])
        assert assignment_space_dim(v) == dims[i] + dims[j]
        cases += 1
    assert cases >= 200


def _enumerated_euler(v):
    # enumerates every strict chain, independently of the counter under test
    total, k = 0, 0
    while True:
        tuples = chains(v.space, k, True)
        if not tuples:
            return total
        total += (-1) ** k * sum(v.dims[t[-1]] for t in tuples)
        k += 1


def test_counted_euler_characteristic_matches_enumeration_randomized():
    rng = random.Random(61)
    cases = 0
    for _ in range(100):
        _, v = _random_builder_output(rng)
        assert euler_characteristic(v) == _enumerated_euler(v)
        v = _random_tree_system(rng)
        assert euler_characteristic(v) == _enumerated_euler(v)
        cases += 2
    _, v = build_product(build_polytope(preset_polytope("cube")),
                         build_polytope(preset_polytope("square")))
    assert euler_characteristic(v) == _enumerated_euler(v)
    assert cases >= 200


# ---------------------------------------------------------------------------
# suite 5: pair sequences stay exact

def _random_closed_subset(rng, space):
    seeds = [x for x in space.ids if rng.random() < 0.4]
    if rng.random() < 0.5:
        closed = set()
        for x in seeds:
            closed.update(y for y in space.ids if space.leq(x, y))
        return closed, "up"
    closed = set()
    for x in seeds:
        closed.update(y for y in space.ids if space.leq(y, x))
    return closed, "down"


def _pair_pool():
    return [cp2(), s4(), two_stratum(),
            build_polytope(preset_polytope("triangle")),
            build_polytope(preset_polytope("square")),
            build_linear_rep([(1, 0), (0, 1)]),
            build_sphere_product(2, [(1, 0), (0, 1)])]


def test_pair_sequences_are_exact_randomized():
    rng = random.Random(71)
    pool = _pair_pool()
    cases = 0
    while cases < 200:
        space, v = pool[rng.randrange(len(pool))]
        n, _direction = _random_closed_subset(rng, space)
        f, g = pair_ses(v, n)
        report = les_coefficients_check(f, g)
        assert report.ok, (sorted(n), report.failures)
        # off n as the subsystem, n as the quotient: the sequence of the pair
        if _closure_direction(space, frozenset(n)) == "down":
            assert les_pair_check(v, n).node_dims == report.node_dims, sorted(n)
        cases += 1
    assert cases >= 200


def test_pair_sequences_of_arbitrary_subsets_randomized():
    # the cochains vanishing on tuples inside n form a subcomplex for any
    # subset n, closed or not, so the sequence of the pair is always exact;
    # its terms must be the relative and absolute cohomology computed alone
    rng = random.Random(73)
    pool = _pair_pool()
    cases = unclosed = 0
    while cases < 200:
        space, v = pool[rng.randrange(len(pool))]
        n = {x for x in space.ids if rng.random() < 0.5}
        report = les_pair_check(v, n)
        assert report.ok, (sorted(n), report.failures)
        for k, (pair_dim, space_dim, _) in enumerate(report.dims_by_degree()):
            assert pair_dim == relative_cohomology(v, n, k).dim, (sorted(n), k)
            assert space_dim == cohomology(v, k).dim, (sorted(n), k)
        up = all(space.upset(x) <= n for x in n)
        down = all(space.upset(x).isdisjoint(n) for x in space.ids if x not in n)
        unclosed += not (up or down)
        cases += 1
    assert unclosed >= 50


def _brute_direction(space, n):
    """_closure_direction from the definitions; an escaping pair when neither."""
    below = [(x, y) for x in space.ids for y in space.ids if x != y and space.leq(x, y)]
    up = all(y in n for x, y in below if x in n)
    down = all(x in n for x, y in below if y in n)
    if up or down:
        return "both" if up and down else "up" if up else "down"
    return min((x, y) for x, y in below if x in n and y not in n)


def test_closure_direction_and_minimal_strata_match_brute_force_randomized():
    rng = random.Random(79)
    pool = _pair_pool()
    outcomes = set()
    for case in range(240):
        space, _ = pool[rng.randrange(len(pool))]
        if case % 2:
            n = _random_closed_subset(rng, space)[0]
        else:
            n = {x for x in space.ids if rng.random() < 0.5}
        n = frozenset(n)
        expected = _brute_direction(space, n)
        if isinstance(expected, tuple):
            with pytest.raises(NotOpenError) as exc:
                _closure_direction(space, n)
            assert exc.value.pair == expected, sorted(n)
            outcomes.add("witness")
        else:
            assert _closure_direction(space, n) == expected, sorted(n)
            outcomes.add(expected)
        # minimal strata of the order the space induces on n (or on all of it)
        ids = sorted(n or space.ids)
        sub = StratSpace.from_covers(
            space.torus_dim, {x: space.stabilizer(x) for x in ids}, brute_covers(ids, space.leq)
        )
        assert minimal_strata(sub) == tuple(
            x for x in ids if not any(y != x and space.leq(y, x) for y in ids)
        ), ids
    assert outcomes == {"up", "down", "both", "witness"}


# ---------------------------------------------------------------------------
# suite 6: polynomial splitting, with an exact sampling oracle

def _random_scalar_poly(rng, d):
    terms = {}
    for _ in range(rng.randint(0, 2)):
        k = tuple(rng.randint(0, 2) for _ in range(d))
        l = tuple(rng.randint(0, 2) for _ in range(d))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if c:
            terms[(k, l)] = terms.get((k, l), Fraction(0)) + c
    return ScalarPoly(d, {k: c for k, c in terms.items() if c})


def _random_form(rng):
    n = rng.randint(1, 3)
    d = rng.randint(1, 3)
    w = WeightMatrix.from_rows(_random_weight_rows(rng, n, d))
    pairs = tuple(
        (_random_scalar_poly(rng, d), _random_scalar_poly(rng, d))
        for _ in range(d)
    )
    return FormCoefficients(w, pairs)


def _kernel_rows(rows, n):
    """Rational kernel basis by plain elimination, independent of the package."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _conj(a):
    return (a[0], -a[1])


def _evaluate_component(p, xi, point):
    """Sum over terms of (beta . xi) z^k zbar^l at an exact complex point."""
    total = (Fraction(0), Fraction(0))
    for (k, l), beta in p.terms.items():
        scalar = sum(b * x for b, x in zip(beta, xi))
        if not scalar:
            continue
        val = (Fraction(1), Fraction(0))
        for i, e in enumerate(k):
            for _ in range(e):
                val = _cmul(val, point[i])
        for i, e in enumerate(l):
            for _ in range(e):
                val = _cmul(val, _conj(point[i]))
        total = (total[0] + scalar * val[0], total[1] + scalar * val[1])
    return total


def _sampling_oracle(rng, p):
    """Check that every stabilizer direction of every cell kills p there."""
    n = p.weights.torus_dim
    d = p.weights.count
    for cell in itertools.chain.from_iterable(
            itertools.combinations(range(d), r) for r in range(d + 1)):
        rows = [p.weights.rows[i] for i in cell]
        for xi in _kernel_rows(rows, n):
            for _ in range(10):
                point = [
                    (Fraction(rng.randint(1, 5), rng.randint(1, 3)),
                     Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                    if i in cell else (Fraction(0), Fraction(0))
                    for i in range(d)
                ]
                assert _evaluate_component(p, xi, point) == (
                    Fraction(0), Fraction(0))


def test_recombined_polynomials_split_and_vanish_randomized():
    rng = random.Random(97)
    cases = 0
    for _ in range(110):
        fc = _random_form(rng)
        p = recombine(fc)
        assert check_moment_condition(p).ok
        out = decompose(p)
        assert verify_decomposition(p, out)
        if p.weights.count <= 3:
            _sampling_oracle(rng, p)
        cases += 1
    assert cases >= 100


def test_sampling_oracle_spots_a_genuine_failure():
    w = WeightMatrix.from_rows([(0,)], torus_dim=1)
    p = MomentPolynomial(w, {((1,), (0,)): (Fraction(1),)})
    report = check_moment_condition(p)
    assert report.failing == (((1,), (0,)),)
    # the stabilizer of the moving cell is everything; evaluation is nonzero
    xi = (Fraction(1),)
    value = _evaluate_component(p, xi, [(Fraction(1), Fraction(0))])
    assert value != (Fraction(0), Fraction(0))


def test_recombination_is_additive_randomized():
    rng = random.Random(131)
    for _ in range(100):
        n = rng.randint(1, 2)
        d = rng.randint(1, 2)
        w = WeightMatrix.from_rows(_random_weight_rows(rng, n, d))
        fa = FormCoefficients(w, tuple(
            (_random_scalar_poly(rng, d), _random_scalar_poly(rng, d))
            for _ in range(d)))
        fb = FormCoefficients(w, tuple(
            (_random_scalar_poly(rng, d), _random_scalar_poly(rng, d))
            for _ in range(d)))
        merged = []
        for (f1, g1), (f2, g2) in zip(fa.pairs, fb.pairs):
            merged.append((plus_terms(f1, f2.terms), plus_terms(g1, g2.terms)))
        assert recombine(FormCoefficients(w, tuple(merged))) == \
            recombine(fa).add(recombine(fb))


# ---------------------------------------------------------------------------
# suite 7: full and reduced complexes agree in every degree

def _random_small_system(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return build_linear_rep(_random_weight_rows(rng, rng.randint(1, 2), rng.randint(1, 3)))
    if kind == 1:
        rows = _random_weight_rows(rng, 2, rng.randint(1, 3))
        if all(x == 0 for x in rows[0]):
            rows[0] = (1, rows[0][1])
        return build_sphere_product(2, rows)
    polygon = rng.choice(("triangle", "square", "pentagon"))
    return build_product(build_polytope(preset_polytope(polygon)),
                         build_polytope(preset_polytope("segment")))


def test_full_equals_reduced_in_every_degree_randomized():
    # weak tuples repeat entries, so the full chain spaces never vanish;
    # the degrees run to one past the last nonzero reduced chain space,
    # where the reduced dim is 0 and the full dim must be 0 too
    rng = random.Random(83)
    cases = higher = 0
    while cases < 200:
        _, v = _random_small_system(rng)
        top = max((k for k in range(len(v.space.ids)) if chain_space_dim(v, k)), default=-1)
        for k in range(top + 2):
            dim = cohomology(v, k).dim
            assert cohomology(v, k, strict=False).dim == dim, k
            higher += k > 0 and dim > 0
            cases += 1
    assert cases >= 200 and higher
