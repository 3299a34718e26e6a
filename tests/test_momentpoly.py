"""Moment polynomials: parsing, membership criterion, one-form cofactors."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from assigncoh import (
    ArityError,
    ConditionFailedError,
    FormCoefficients,
    MomentPolynomial,
    NonzeroConstantTermError,
    ParseError,
    ScalarPoly,
    WeightMatrix,
    check_moment_condition,
    decompose,
    parse_poly,
    recombine,
    verify_decomposition,
)
from assigncoh.momentpoly import _solve
from oracles import (
    brute_rank,
    per_support_cofactors,
    per_support_solve,
    plus_terms,
    reference_solve,
)

W1 = WeightMatrix.from_rows([(1,)])
W2 = WeightMatrix.from_rows([(1,), (-1,)])
WSTD = WeightMatrix.from_rows([(1, 0), (0, 1)])


# ---------------------------------------------------------------------------
# parsing

def test_parse_single_term():
    p = parse_poly("[1] z1 zb1", W1)
    assert p.terms == {((1,), (1,)): (Fraction(1),)}


def test_parse_merges_repeated_monomials():
    p = parse_poly("[1] z1 + [2] z1", W1)
    assert p.terms == {((1,), (0,)): (Fraction(3),)}
    q = parse_poly("[1] z1 - [1] z1", W1)
    assert q.is_zero()


def test_parse_rational_vectors_signs_and_powers():
    p = parse_poly("[-1/2, 3] z1^2 zb2 - [0, 1/4] * z2", WSTD)
    assert p.terms == {
        ((2, 0), (0, 1)): (Fraction(-1, 2), Fraction(3)),
        ((0, 1), (0, 0)): (Fraction(0), Fraction(-1, 4)),
    }


def test_parse_leading_sign_and_constant():
    p = parse_poly("-[1] z1 + [2] z1", W1)
    assert p.terms == {((1,), (0,)): (Fraction(1),)}
    c = parse_poly("[5]", W1)
    assert c.terms == {((0,), (0,)): (Fraction(5),)}


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("[1/2 z1", W1)
    assert "expected ']', found 'z1'" in str(exc.value)
    assert "position 5" in str(exc.value)
    assert exc.value.position == 5
    assert issubclass(ParseError, SyntaxError)


def test_parse_error_unexpected_character():
    with pytest.raises(ParseError):
        parse_poly("[1] w1", W1)
    with pytest.raises(ParseError):
        parse_poly("", W1)
    with pytest.raises(ParseError):
        parse_poly("[1] z1 +", W1)


@pytest.mark.parametrize("text, message, position", [
    ("[1] z1 + #", "unexpected character '#'", 9),
    ("[1] z", "unexpected character 'z'", 4),
    ("", "expected '[', found 'end of input'", 0),
    ("[1/0] z1", "zero denominator", 3),
    ("[1] z1^", "expected 'num', found 'end of input'", 7),
    # longer than the interpreter's integer digit limit (4300 by default)
    ("[" + "9" * 5000 + "] z1", "integer literal of 5000 digits is too long", 1),
    ("[1] z1^" + "9" * 5000, "integer literal of 5000 digits is too long", 7),
    ("[1/" + "9" * 5000 + "] z1", "integer literal of 5000 digits is too long", 3),
    ("[1] z" + "9" * 5000, "integer literal of 5000 digits is too long", 4),
    # a bad character wins over an earlier syntax or arity error
    ("[1/0] z1 #", "unexpected character '#'", 9),
    ("[1, 2] z1 + [1] z1 w", "unexpected character 'w'", 19),
    # the grammar is ASCII: no other digits, no other spaces
    ("[\u0663] z1", "unexpected character '\u0663'", 1),
    ("[1]\u00a0z1", "unexpected character '\\xa0'", 3),
], ids=["character", "variable", "empty", "denominator", "exponent",
        "long-numerator", "long-exponent", "long-denominator", "long-index",
        "bad-after-syntax-error", "bad-after-arity-error", "arabic-indic-digit",
        "no-break-space"])
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_poly(text, W1)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_parse_ignores_surrounding_whitespace():
    assert parse_poly("  [1] z1  ", W1) == parse_poly("[1] z1", W1)


def test_parse_zero_denominator():
    with pytest.raises(ParseError):
        parse_poly("[1/0] z1", W1)


def test_parse_arity_errors():
    with pytest.raises(ArityError):
        parse_poly("[1, 2] z1", W1)          # vector too long
    with pytest.raises(ArityError):
        parse_poly("[1] z3", WSTD)           # no third variable
    with pytest.raises(ArityError):
        parse_poly("[1] zb9", W2)


def _exact_types(values):
    """Every value is an int, or a Fraction with a denominator other than 1."""
    return all(
        type(x) is int or (type(x) is Fraction and x.denominator != 1) for x in values
    )


def test_coefficients_are_ints_where_integral():
    p = parse_poly("[4/2, 3] z1 + [1/2, 0] z2 + [1/2, 0] z2 + [-1/3, 1] zb1", WSTD)
    assert p.terms == {
        ((1, 0), (0, 0)): (2, 3),
        ((0, 1), (0, 0)): (1, 0),
        ((0, 0), (1, 0)): (Fraction(-1, 3), 1),
    }
    assert all(_exact_types(v) for v in p.terms.values())
    built = MomentPolynomial(WSTD, {((1, 0), (0, 0)): (Fraction(6, 3), "1/2"),
                                    ((0, 1), (0, 0)): (True, 2.0)})
    assert built.terms == {((1, 0), (0, 0)): (2, Fraction(1, 2)), ((0, 1), (0, 0)): (1, 2)}
    assert all(_exact_types(v) for v in built.terms.values())
    assert all(_exact_types(v) for v in p.scale(Fraction(3)).terms.values())
    assert all(_exact_types(v) for v in p.scale("3/2").terms.values())
    s = ScalarPoly(2, {((1, 0), (0, 0)): Fraction(4, 2), ((0, 1), (0, 0)): Fraction(1, 2)})
    assert _exact_types(s.terms.values())
    s = plus_terms(s, {((0, 1), (0, 0)): Fraction(1, 2)})
    assert s.terms == {((1, 0), (0, 0)): 2, ((0, 1), (0, 0)): 1}
    assert _exact_types(s.terms.values())


def test_decompose_and_recombine_keep_the_convention():
    # opposite weights: z1 z2 has solutions with a denominator, others do not
    w = WeightMatrix.from_rows([(2,), (-2,), (1,)])
    p = parse_poly("[3] z1 zb1 + [1] z1 zb3 + [3] z3^2 + [6] z1 z3 zb2", w)
    fc = decompose(p)
    values = [c for pair in fc.pairs for poly in pair for c in poly.terms.values()]
    assert any(type(c) is Fraction for c in values) and any(type(c) is int for c in values)
    assert _exact_types(values)
    back = recombine(fc)
    assert back == p
    assert all(_exact_types(v) for v in back.terms.values())


def _noisy_text(rng, p: MomentPolynomial) -> str:
    """p printed the long way round: random ASCII whitespace, signs, '*'s,
    split powers, unreduced fractions, repeated monomials and zero terms."""
    n, d = p.weights.torus_dim, p.weights.count

    def ws():
        return rng.choice(["", "", " ", "  ", "\t", "\n"])

    def rational(x):
        signs = [rng.choice("+-") for _ in range(rng.randint(0, 3))]
        if signs.count("-") % 2 != (x < 0):
            signs.append("-")
        x, m = abs(Fraction(x)), rng.choice([1, 1, 2, 3])
        body = f"{x.numerator * m}/{x.denominator * m}"
        if x.denominator == 1 and m == 1 and rng.random() < 0.7:
            body = str(x.numerator)
        return ws().join(signs + [body])

    def factors(name, e):
        while e:
            part = rng.randint(1, e)
            e -= part
            power = ws() + "^" + ws() + str(part) if part > 1 or rng.random() < 0.3 else ""
            yield ws() + rng.choice(["", "*" + ws()]) + name + power

    pieces = []
    for (k, l), vec in p.terms.items():
        parts = [vec]
        if rng.random() < 0.3:        # the same monomial twice: the parts merge
            half = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            parts = [half, [x - h for x, h in zip(vec, half)]]
        for part in parts:
            pieces.append((k, l, part))
    if not pieces or rng.random() < 0.5:     # a zero vector drops its term
        pieces.append(((rng.randint(0, 2),) * d, (0,) * d, [0] * n))
    rng.shuffle(pieces)
    out = []
    for t, (k, l, vec) in enumerate(pieces):
        negate = rng.random() < 0.5
        if t or rng.random() < 0.5:
            out.append(ws() + ("-" if negate else "+") + ws())
        else:
            negate = False
        entries = [rational(-x if negate else x) for x in vec]
        out.append("[" + ws() + (ws() + "," + ws()).join(entries) + ws() + "]")
        for i in range(d):
            out.extend(factors(f"z{i + 1}", k[i]))
            out.extend(factors(f"zb{i + 1}", l[i]))
    return "".join(out) + ws()


def test_text_roundtrip():
    texts = [
        "[1] z1 zb1",
        "[-1/2, 3] z1^2 zb2 + [0, 1/4] z2",
        "[2, 0] z1 z2 + [0, 2] zb1 zb2",
    ]
    for s in texts:
        w = W1 if s == texts[0] else WSTD
        p = parse_poly(s, w)
        assert parse_poly(p.to_text(), w) == p
    # random polynomials, each printed three ways, parse back to themselves;
    # those whose terms lie in the span also decompose and recombine
    rng = random.Random(22)
    decomposed = 0
    for _ in range(200):
        n, d = rng.randint(1, 3), rng.randint(1, 4)
        w = WeightMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)], torus_dim=n
        )
        terms = {}
        for _ in range(rng.randint(1, 6)):
            key = (tuple(rng.randint(0, 3) for _ in range(d)),
                   tuple(rng.randint(0, 2) for _ in range(d)))
            support = [i for i in range(d) if key[0][i] or key[1][i]]
            if support and rng.random() < 0.7:
                c = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in support}
                terms[key] = [sum(c[i] * w.rows[i][r] for i in support) for r in range(n)]
            else:
                terms[key] = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
        p = MomentPolynomial(w, terms)
        assert parse_poly(p.to_text(), w) == p
        for _ in range(3):
            text = _noisy_text(rng, p)
            assert parse_poly(text, w) == p, text
        zero = ((0,) * d, (0,) * d)
        if zero not in p.terms and check_moment_condition(p).ok:
            fc = decompose(p)
            assert verify_decomposition(p, fc)
            # the cofactors are polynomials: no exponent below zero
            assert all(min(k + l) >= 0 for pair in fc.pairs for poly in pair
                       for k, l in poly.terms)
            decomposed += 1
    assert decomposed > 50


def test_zero_poly_text():
    assert MomentPolynomial(WSTD, {}).to_text() == "[0,0]"
    p = parse_poly("[0, 0] z1", WSTD)
    assert p.is_zero()


def test_add_scale():
    p = parse_poly("[1] z1", W1)
    q = parse_poly("[1] zb1", W1)
    assert p.add(q).to_text() == "[1] zb1 + [1] z1"
    assert p.scale(Fraction(-1)).add(p).is_zero()
    with pytest.raises(ValueError):
        p.add(parse_poly("[1, 0] z1", WSTD))


# ---------------------------------------------------------------------------
# membership criterion

def test_norm_square_passes():
    p = parse_poly("[1] z1 zb1", W1)
    assert check_moment_condition(p).ok


def test_trivial_weight_fails_at_the_named_monomial():
    w = WeightMatrix.from_rows([(0,)], torus_dim=1)
    p = MomentPolynomial(w, {((1,), (0,)): (Fraction(1),)})
    report = check_moment_condition(p)
    assert not report.ok
    assert report.failing == (((1,), (0,)),)


def test_mixed_term_with_opposite_weights_passes():
    p = parse_poly("[1] z1 z2", W2)
    assert check_moment_condition(p).ok


def test_term_outside_the_span_fails():
    # z1 carries weight (1,0); a (0,1) coefficient cannot come from it
    p = parse_poly("[0, 1] z1", WSTD)
    report = check_moment_condition(p)
    assert report.failing == (((1, 0), (0, 0)),)


def test_criterion_matches_brute_rank_randomized():
    # a term fails exactly when its covector raises the rank of its weights;
    # decompose names the same terms, or reproduces p when there are none
    rng = random.Random(67)
    passed = failed = 0
    for _ in range(300):
        n, d = rng.randint(1, 3), rng.randint(1, 4)
        w = WeightMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)], torus_dim=n
        )
        terms = {}
        for _ in range(rng.randint(1, 6)):
            key = ((0,) * d, (0,) * d)
            while key == ((0,) * d, (0,) * d):
                key = (tuple(rng.randint(0, 2) for _ in range(d)),
                       tuple(rng.randint(0, 1) for _ in range(d)))
            support = [i for i in range(d) if key[0][i] or key[1][i]]
            if rng.random() < 0.5:
                # a rational combination of the supported weights: in the span
                c = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in support}
                vec = [sum(c[i] * w.rows[i][r] for i in support) for r in range(n)]
            else:
                vec = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            terms[key] = vec
        p = MomentPolynomial(w, terms)
        expected = []
        solutions = {key: lam for _, group, lams in _solve(p)
                     for key, lam in zip(group, lams)}
        for key in sorted(p.terms):
            rows = [w.rows[i] for i in range(d) if key[0][i] or key[1][i]]
            if brute_rank(rows + [p.terms[key]]) != brute_rank(rows):
                expected.append(key)
            # terms sharing a support are solved together; each must still
            # get its own solve's coefficients
            cols = [[row[r] for row in rows] for r in range(n)]
            lam = solutions[key]
            dense = None if lam is None else [lam.get(j, 0) for j in range(len(rows))]
            assert dense == reference_solve(cols, len(rows), p.terms[key])
        assert check_moment_condition(p).failing == tuple(expected)
        if expected:
            with pytest.raises(ConditionFailedError) as exc:
                decompose(p)
            assert exc.value.failing == tuple(expected)
        else:
            assert verify_decomposition(p, decompose(p))
        failed += len(expected)
        passed += len(p.terms) - len(expected)
    assert passed > 100 and failed > 100


def _random_weights(rng, n, d):
    """Rows in -2..2; now and then a zero row, or a row a multiple of another."""
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)]
    if rng.random() < 0.3:
        rows[rng.randrange(d)] = [0] * n
    if d > 1 and rng.random() < 0.4:
        i, j = rng.sample(range(d), 2)
        m = rng.choice((-2, -1, 2))
        rows[i] = [m * x for x in rows[j]]
    return WeightMatrix.from_rows(rows, torus_dim=n)


def _random_poly(rng, w, count):
    """count draws of a term: mostly in the span of its support's weights,
    else a random covector, which fails unless it happens to lie there."""
    n, d = w.torus_dim, w.count
    zero = ((0,) * d, (0,) * d)
    terms = {}
    for _ in range(count):
        key = zero
        while key == zero:
            key = (tuple(rng.randint(0, 2) for _ in range(d)),
                   tuple(rng.randint(0, 1) for _ in range(d)))
        support = [i for i in range(d) if key[0][i] or key[1][i]]
        if rng.random() < 0.7:
            c = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in support}
            terms[key] = [sum(c[i] * w.rows[i][r] for i in support) for r in range(n)]
        else:
            terms[key] = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
    return MomentPolynomial(w, terms)


def _typed(groups):
    """key -> (support, solution with each entry's type), from `_solve`'s groups."""
    return {key: (support, None if lam is None else {j: (type(x), x) for j, x in lam.items()})
            for support, group, lams in groups for key, lam in zip(group, lams)}


def test_one_elimination_matches_one_per_support_seeded():
    # the block-diagonal system of the whole polynomial gives each term the
    # solution of its own support's system: same values and types, the same
    # failing terms and the same cofactor texts
    rng = random.Random(35)
    seen = Counter()
    for _ in range(1000):
        w = _random_weights(rng, rng.randint(1, 3), rng.randint(1, 5))
        p = _random_poly(rng, w, rng.randint(1, 10))
        ref = per_support_solve(p)
        expected = _typed(ref)
        assert _typed(_solve(p)) == expected
        failing = tuple(sorted(key for key, (_, lam) in expected.items() if lam is None))
        assert check_moment_condition(p).failing == failing
        if failing:
            with pytest.raises(ConditionFailedError) as exc:
                decompose(p)
            assert exc.value.failing == failing
            seen["failing"] += 1
        else:
            texts = {}      # shared, as `decompose` on the command line shares it
            pairs = [(f.to_text(texts), g.to_text(texts)) for f, g in decompose(p).pairs]
            assert pairs == [(f.to_text(), g.to_text()) for f, g in per_support_cofactors(p)]
            assert p.to_text(texts) == p.to_text()
            seen["ok"] += 1
        seen["blocks"] += len(ref) > 1
        seen["shared support"] += any(len(group) > 1 for _, group, _ in ref)
        seen["fraction"] += any(t is Fraction for _, lam in expected.values()
                                for t, _ in (lam or {}).values())
    assert min(seen.values()) > 100, seen


def _corrupted(rng, fc, kind):
    """fc with one change of the given kind to a random cofactor term."""
    w, pairs = fc.weights, [list(pair) for pair in fc.pairs]
    if kind == "weights":
        rows = [list(r) for r in w.rows]
        if rng.random() < 0.5:
            rows[rng.randrange(len(rows))][rng.randrange(w.torus_dim)] += 1
        return FormCoefficients(WeightMatrix.from_rows(rows, torus_dim=w.torus_dim),
                                fc.pairs)
    spots = [(j, side) for j, pair in enumerate(pairs) for side in (0, 1) if pair[side].terms]
    if kind == "same" or not spots:
        return fc
    j, side = rng.choice(spots)
    terms = dict(pairs[j][side].terms)
    key = rng.choice(sorted(terms))
    c = terms.pop(key)
    if kind == "coefficient":
        terms[key] = c + rng.choice((1, -1, Fraction(1, 2)))
    elif kind == "moved":
        k, l = key
        i = rng.randrange(len(k))
        terms[(k, l[:i] + (l[i] + 1,) + l[i + 1:])] = c
    pairs[j][side] = ScalarPoly(pairs[j][side].d, terms)
    return FormCoefficients(w, tuple(map(tuple, pairs)))


def test_verify_decomposition_agrees_with_recombine_seeded():
    # weights in -1..1 give zero and opposite rows, so recombined vectors
    # cancel to zero; every corruption must read as recombine(fc) == p does
    rng = random.Random(36)
    seen = Counter()
    for _ in range(1000):
        n, d = rng.randint(1, 2), rng.randint(1, 3)
        w = WeightMatrix.from_rows([[rng.randint(-1, 1) for _ in range(n)] for _ in range(d)],
                                   torus_dim=n)

        def cofactor():
            return ScalarPoly(d, {
                (tuple(rng.randint(0, 1) for _ in range(d)),
                 tuple(rng.randint(0, 1) for _ in range(d))):
                Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                for _ in range(rng.randint(0, 3))})

        fc = FormCoefficients(w, tuple((cofactor(), cofactor()) for _ in range(d)))
        p = recombine(fc)
        kind = rng.choice(["same", "coefficient", "moved", "dropped", "weights"])
        bad = _corrupted(rng, fc, kind)
        truth = recombine(bad) == p
        assert verify_decomposition(p, bad) is truth, (kind, p, bad)
        seen[kind, truth] += 1
    assert all(seen[kind, truth] > 20 for kind in ("coefficient", "moved", "dropped", "weights")
               for truth in (False, True)), seen
    assert seen["same", True] > 100 and not seen["same", False]


def test_constant_term_is_rejected():
    p = parse_poly("[1] + [1] z1", W1)
    with pytest.raises(NonzeroConstantTermError):
        check_moment_condition(p)


# ---------------------------------------------------------------------------
# decomposition

def test_decompose_norm_square():
    p = parse_poly("[1] z1 zb1", W1)
    fc = decompose(p)
    f1, g1 = fc.pairs[0]
    assert f1.to_text() == "zb1"
    assert g1.is_zero()
    assert verify_decomposition(p, fc)


def test_decompose_sum_of_norm_squares():
    w = WeightMatrix.from_rows([(1,), (1,)], torus_dim=1)
    p = MomentPolynomial(w, {
        ((1, 0), (1, 0)): (Fraction(1),),
        ((0, 1), (0, 1)): (Fraction(1),),
    })
    fc = decompose(p)
    assert fc.pairs[0][0].to_text() == "zb1"
    assert fc.pairs[1][0].to_text() == "zb2"
    assert all(g.is_zero() for _, g in fc.pairs)
    assert verify_decomposition(p, fc)


def test_decompose_mixed_term_prefers_low_index():
    p = parse_poly("[1] z1 z2", W2)
    fc = decompose(p)
    assert [f.to_text() for f, _ in fc.pairs] == ["z2", "0"]
    assert all(g.is_zero() for _, g in fc.pairs)
    assert verify_decomposition(p, fc)


def test_decompose_antiholomorphic_term():
    p = parse_poly("[1] zb1", W1)
    fc = decompose(p)
    f1, g1 = fc.pairs[0]
    assert f1.is_zero()
    assert g1.to_text() == "1"
    assert verify_decomposition(p, fc)


def test_decompose_raises_with_failing_monomials():
    p = parse_poly("[0, 1] z1", WSTD)
    with pytest.raises(ConditionFailedError) as exc:
        decompose(p)
    assert exc.value.failing == (((1, 0), (0, 0)),)


def test_one_form_text():
    p = parse_poly("[1] z1 z2", W2)
    fc = decompose(p)
    assert fc.one_form_text() == (
        "mu = -sqrt(-1) * [ (z2) dz1 - (0) dzb1 + (0) dz2 - (0) dzb2 ]"
    )


def test_verify_rejects_wrong_cofactors():
    p = parse_poly("[1] z1 zb1", W1)
    zero = ScalarPoly(1)
    bad = FormCoefficients(W1, ((zero, zero),))
    assert not verify_decomposition(p, bad)
    assert verify_decomposition(MomentPolynomial(W1, {}), bad)


@pytest.mark.parametrize("delta", [1, Fraction(1, 2)])
def test_verify_rejects_one_cofactor_off(delta):
    p = parse_poly("[3] z1 zb1 + [2] z1^2 zb1 + [1] zb1", W1)
    fc = decompose(p)
    assert verify_decomposition(p, fc)
    (f1, g1), = fc.pairs
    key = min(f1.terms)
    assert type(f1.terms[key]) is int
    bad = plus_terms(f1, {key: delta})
    assert not verify_decomposition(p, FormCoefficients(W1, ((bad, g1),)))


def test_hand_built_symmetric_split_verifies():
    # z1 zb1 also splits evenly: f1 = zb1/2, g1 = z1/2
    p = parse_poly("[1] z1 zb1", W1)
    f1 = ScalarPoly(1, {((0,), (1,)): Fraction(1, 2)})
    g1 = ScalarPoly(1, {((1,), (0,)): Fraction(1, 2)})
    fc = FormCoefficients(W1, ((f1, g1),))
    assert verify_decomposition(p, fc)


def test_recombine_is_linear():
    p = parse_poly("[1] z1 zb1 + [2] z1^2 zb1", W1)
    fc = decompose(p)
    doubled = FormCoefficients(W1, tuple(
        (ScalarPoly(1, {k: 2 * c for k, c in f.terms.items()}),
         ScalarPoly(1, {k: 2 * c for k, c in g.terms.items()}))
        for f, g in fc.pairs
    ))
    assert recombine(doubled) == p.scale(2)


@pytest.mark.parametrize("make, error, message", [
    (lambda: MomentPolynomial(WSTD, {((1, 0), (0, 0)): (1,)}), ArityError,
     "coefficient has length 1, expected 2"),
    (lambda: parse_poly("[1,0] z1 * 2", WSTD), ParseError,
     "expected 'var', found '2' (at position 11)"),
], ids=["coefficient-length", "product-without-a-variable"])
def test_polynomial_refusals_name_their_fault(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert info.value.args == (message,)
