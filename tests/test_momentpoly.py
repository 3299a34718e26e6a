"""Moment polynomials: parsing, membership criterion, one-form cofactors."""

import random
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
from oracles import brute_rank, plus_terms, reference_solve

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
