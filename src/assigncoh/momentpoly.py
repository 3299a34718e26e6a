"""Polynomial moment data for linear torus actions.

A moment polynomial collects terms beta * z^k * zbar^l with rational
covector coefficients beta.  The membership criterion asks each beta to lie
in the span of the weights of the variables actually present in its
monomial; when it holds the polynomial splits as
sum_j (z_j f_j + zbar_j g_j) alpha_j with scalar polynomial cofactors.
Both questions are answered by one elimination per monomial support: the
criterion fails exactly at the monomials whose covector has no solution
over those weights, and the solutions of the others (smallest-index
pivots, free variables zero) are the cofactor coefficients.

Coefficients follow the convention of `ratlin.sparse_rref`: an int where
the value is integral, a `Fraction` only where a denominator remains, never
`Fraction(n, 1)`.  Values compare and hash equal either way, and
`str(3) == str(Fraction(3))`, so the texts do not depend on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .builders import WeightMatrix
from .errors import (
    ArityError,
    ConditionFailedError,
    NonzeroConstantTermError,
    ParseError,
)
from .ratlin import _exact, sparse_rref

ExpPair = Tuple[Tuple[int, ...], Tuple[int, ...]]   # (k, l) exponent vectors


def _coef(x):
    """x as an exact coefficient: an int where integral, else a Fraction."""
    return x if type(x) is int else _exact(Fraction(x))


def _exp_text(k: Sequence[int], l: Sequence[int]) -> str:
    parts = []
    for i, e in enumerate(k):
        if e == 1:
            parts.append(f"z{i + 1}")
        elif e > 1:
            parts.append(f"z{i + 1}^{e}")
    for i, e in enumerate(l):
        if e == 1:
            parts.append(f"zb{i + 1}")
        elif e > 1:
            parts.append(f"zb{i + 1}^{e}")
    return " ".join(parts)


class MomentPolynomial:
    """Finitely many terms (k, l) -> beta, zero coefficients dropped."""

    __slots__ = ("weights", "terms")

    def __init__(self, weights: WeightMatrix, terms: Dict[ExpPair, Sequence[Fraction]]):
        self.weights = weights
        clean = {}
        for key, vec in terms.items():
            v = tuple(map(_coef, vec))
            if len(v) != weights.torus_dim:
                raise ArityError(
                    f"coefficient has length {len(v)}, expected {weights.torus_dim}"
                )
            if any(v):
                clean[key] = v
        self.terms = clean

    def __eq__(self, other):
        return (
            isinstance(other, MomentPolynomial)
            and self.weights == other.weights
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.weights, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"MomentPolynomial({self.to_text()!r})"

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "MomentPolynomial") -> "MomentPolynomial":
        if self.weights != other.weights:
            raise ValueError("polynomials over different weight matrices")
        out = dict(self.terms)
        for key, vec in other.terms.items():
            cur = out.get(key)
            out[key] = vec if cur is None else tuple(a + b for a, b in zip(cur, vec))
        return MomentPolynomial(self.weights, out)

    def scale(self, c) -> "MomentPolynomial":
        c = _coef(c)
        return MomentPolynomial(
            self.weights,
            {key: tuple(c * x for x in vec) for key, vec in self.terms.items()},
        )

    def to_text(self) -> str:
        if not self.terms:
            n = self.weights.torus_dim
            return "[" + ",".join(["0"] * n) + "]"
        chunks = []
        for (k, l) in sorted(self.terms):
            vec = self.terms[(k, l)]
            head = "[" + ",".join(str(x) for x in vec) + "]"
            tail = _exp_text(k, l)
            chunks.append(head + (" " + tail if tail else ""))
        return " + ".join(chunks)


class ScalarPoly:
    """Rational-coefficient polynomial in z, zbar; used for the cofactors."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: Optional[Dict[ExpPair, Fraction]] = None):
        self.d = d
        self.terms = {
            key: _coef(c) for key, c in (terms or {}).items() if c != 0
        }

    def __eq__(self, other):
        return isinstance(other, ScalarPoly) and self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"ScalarPoly({self.to_text()!r})"

    def is_zero(self) -> bool:
        return not self.terms

    def added(self, key: ExpPair, c: Fraction) -> None:
        cur = self.terms.get(key, 0) + c
        if cur == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = _exact(cur)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (k, l) in sorted(self.terms):
            c = self.terms[(k, l)]
            tail = _exp_text(k, l)
            if not tail:
                chunks.append(str(c))
            elif c == 1:
                chunks.append(tail)
            elif c == -1:
                chunks.append("-" + tail)
            else:
                chunks.append(f"{c} {tail}")
        return " + ".join(chunks)


@dataclass(frozen=True)
class FormCoefficients:
    """Cofactor pairs (f_j, g_j), one per complex coordinate."""

    weights: WeightMatrix
    pairs: Tuple[Tuple[ScalarPoly, ScalarPoly], ...]

    def one_form_text(self) -> str:
        """Invariant primitive one-form, written out coordinate by coordinate."""
        return _one_form((f.to_text(), g.to_text()) for f, g in self.pairs)


def _one_form(texts) -> str:
    """The one-form from the texts (f_j, g_j) of the cofactor pairs."""
    inner = [f"({f}) dz{j + 1} - ({g}) dzb{j + 1}" for j, (f, g) in enumerate(texts)]
    return "mu = -sqrt(-1) * [ " + " + ".join(inner) + " ]"


# ---------------------------------------------------------------------------
# parsing

# every non-space character starts a match, so the matches tile the text
_TOKEN = re.compile(
    r"\s*(?:(?P<var>zb?\d+)|(?P<num>\d+)|(?P<punct>[\[\],+\-*/^])|(?P<bad>\S))"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, at = m.group(kind), m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", at)
        tokens.append((value if kind == "punct" else kind, value, at))
    tokens.append(("end", "", len(text)))
    return tokens


def _int(digits: str, at: int) -> int:
    try:
        return int(digits)
    except ValueError:   # more digits than the interpreter converts
        raise ParseError(f"integer literal of {len(digits)} digits is too long", at) from None


class _Parser:
    def __init__(self, text: str, weights: WeightMatrix):
        self.tokens = _tokenize(text)
        self.i = 0
        self.weights = weights

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        self.i += 1
        return tok

    def number(self) -> int:
        _, digits, at = self.take("num")
        return _int(digits, at)

    def rational(self):
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        value = self.number()
        if self.peek()[0] == "/":
            self.take()
            at = self.peek()[2]
            den = self.number()
            if den == 0:
                raise ParseError("zero denominator", at)
            value = Fraction(value, den)
        return sign * value

    def vector(self) -> tuple:
        open_tok = self.take("[")
        entries = []
        if self.peek()[0] != "]":
            entries.append(self.rational())
            while self.peek()[0] == ",":
                self.take()
                entries.append(self.rational())
        self.take("]")
        if len(entries) != self.weights.torus_dim:
            raise ArityError(
                f"coefficient vector has length {len(entries)}, "
                f"expected {self.weights.torus_dim} (at position {open_tok[2]})"
            )
        return tuple(entries)

    def term(self) -> Tuple[ExpPair, tuple]:
        vec = self.vector()
        d = self.weights.count
        k, l = [0] * d, [0] * d
        while self.peek()[0] in ("*", "var"):
            if self.peek()[0] == "*":
                self.take()
            var_tok = self.take("var")
            name = var_tok[1]
            conj = name.startswith("zb")
            idx = _int(name[2:] if conj else name[1:], var_tok[2])
            if not 1 <= idx <= d:
                raise ArityError(
                    f"variable {name} out of range for {d} coordinates "
                    f"(at position {var_tok[2]})"
                )
            exp = 1
            if self.peek()[0] == "^":
                self.take()
                exp = self.number()
            (l if conj else k)[idx - 1] += exp
        return (tuple(k), tuple(l)), vec

    def poly(self) -> MomentPolynomial:
        terms: Dict[ExpPair, list] = {}

        def absorb(sign: int):
            key, vec = self.term()
            cur = terms.setdefault(key, [0] * self.weights.torus_dim)
            for j, x in enumerate(vec):
                cur[j] += sign * x
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        absorb(sign)
        while self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
            absorb(sign)
        self.take("end")
        return MomentPolynomial(self.weights, {k: tuple(v) for k, v in terms.items()})


def parse_poly(text: str, weights: WeightMatrix) -> MomentPolynomial:
    """Parse `[c,...] z1^a zb2^b + ...`; raises ParseError or ArityError."""
    return _Parser(text, weights).poly()


# ---------------------------------------------------------------------------
# criterion and decomposition

@dataclass(frozen=True)
class MomentReport:
    """Outcome of the per-monomial span test."""

    failing: Tuple[ExpPair, ...]

    @property
    def ok(self) -> bool:
        return not self.failing


def _support(key: ExpPair) -> List[int]:
    k, l = key
    return [i for i in range(len(k)) if k[i] or l[i]]


def _solutions(p: MomentPolynomial) -> List[Tuple[ExpPair, Optional[List[Fraction]]]]:
    """One elimination per monomial support, keys sorted: (key, coefficients).

    The coefficients express the term's covector over the weights of the
    monomial's variables, with smallest-index pivots and free variables
    zero; they are None when the covector lies outside the span of those
    weights.  All terms on one support are solved together: the weight
    columns come first and each term's covector is one more column, so a
    term fails exactly when its column is nonzero on a row whose pivot is
    not a weight column, and otherwise its solution is that column read
    at the pivot rows.
    """
    d, n = p.weights.count, p.weights.torus_dim
    if ((0,) * d, (0,) * d) in p.terms:
        raise NonzeroConstantTermError(
            "polynomial has a nonzero constant term; it must vanish at the origin"
        )
    by_support: Dict[Tuple[int, ...], List[ExpPair]] = {}
    for key in sorted(p.terms):
        by_support.setdefault(tuple(_support(key)), []).append(key)
    solutions = {}
    for support, keys in by_support.items():
        m = len(support)
        rows = []
        for r in range(n):
            row = {c: p.weights.rows[i][r] for c, i in enumerate(support)}
            row.update((m + t, p.terms[key][r]) for t, key in enumerate(keys))
            rows.append({c: x for c, x in row.items() if x})
        red, pivots = sparse_rref(rows, m + len(keys))
        rank = sum(1 for c in pivots if c < m)
        for t, key in enumerate(keys):
            c = m + t
            if any(c in row for row in red[rank:]):
                solutions[key] = None
                continue
            lam = [0] * m
            for row, piv in zip(red[:rank], pivots):
                lam[piv] = row.get(c, 0)
            solutions[key] = lam
    return [(key, solutions[key]) for key in sorted(p.terms)]


def check_moment_condition(p: MomentPolynomial) -> MomentReport:
    """Each coefficient must lie in the span of its monomial's weights."""
    return MomentReport(tuple(key for key, lam in _solutions(p) if lam is None))


def decompose(p: MomentPolynomial) -> FormCoefficients:
    """Split p as sum_j (z_j f_j + zbar_j g_j) alpha_j.

    Per monomial the coefficient is solved over the supported weights with
    smallest-index pivots and free variables zero; each contribution factors
    out z_i when possible, zbar_i otherwise.
    """
    solutions = _solutions(p)
    failing = tuple(key for key, lam in solutions if lam is None)
    if failing:
        raise ConditionFailedError(failing)
    d = p.weights.count
    fs = [ScalarPoly(d) for _ in range(d)]
    gs = [ScalarPoly(d) for _ in range(d)]
    for key, lam in solutions:
        k, l = key
        for pos, i in enumerate(_support(key)):
            if lam[pos] == 0:
                continue
            if k[i] > 0:
                smaller = tuple(e - (j == i) for j, e in enumerate(k))
                fs[i].added((smaller, l), lam[pos])
            else:
                smaller = tuple(e - (j == i) for j, e in enumerate(l))
                gs[i].added((k, smaller), lam[pos])
    return FormCoefficients(p.weights, tuple(zip(fs, gs)))


def recombine(fc: FormCoefficients) -> MomentPolynomial:
    """Expand sum_j (z_j f_j + zbar_j g_j) alpha_j back into a polynomial."""
    w = fc.weights
    terms: Dict[ExpPair, list] = {}

    def bump(key: ExpPair, c, alpha: Sequence[int]):
        cur = terms.setdefault(key, [0] * w.torus_dim)
        for r in range(w.torus_dim):
            cur[r] += c * alpha[r]

    for j, (f, g) in enumerate(fc.pairs):
        alpha = w.rows[j]
        for (k, l), c in f.terms.items():
            bigger = tuple(e + (i == j) for i, e in enumerate(k))
            bump((bigger, l), c, alpha)
        for (k, l), c in g.terms.items():
            bigger = tuple(e + (i == j) for i, e in enumerate(l))
            bump((k, bigger), c, alpha)
    return MomentPolynomial(w, {key: tuple(v) for key, v in terms.items()})


def verify_decomposition(p: MomentPolynomial, fc: FormCoefficients) -> bool:
    """Exact term-map comparison of p against the recombined cofactors."""
    return fc.weights == p.weights and recombine(fc) == p
