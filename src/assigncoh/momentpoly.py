"""Polynomial moment data for linear torus actions.

A moment polynomial collects terms beta * z^k * zbar^l with rational
covector coefficients beta.  The membership criterion asks each beta to lie
in the span of the weights of the variables actually present in its
monomial; when it holds the polynomial splits as
sum_j (z_j f_j + zbar_j g_j) alpha_j with scalar polynomial cofactors.
Both questions are answered by one elimination per polynomial
(`ratlin._solutions`, the package's one solve, on a block-diagonal system
with one block per monomial support): the criterion fails exactly at the
monomials whose covector has no solution over those weights, and the
solutions of the others (smallest-index pivots, free variables zero, kept
as sparse maps) are the cofactor coefficients.

The path of `decompose` does each exact step once.  `parse_poly` splits
the text with one `findall` pass and walks the token strings by index; a
character position is worked out only on the way to an error, by scanning
the text again.  It reads each variable token once per call and builds
each coefficient in the convention below, so the polynomial is normalized
again only where two terms share a monomial.  Each support is computed
once.  Each monomial of a cofactor comes from exactly one term, so its
coefficient is assigned, not summed.  `verify_decomposition` compares the
recombined terms with p's as they stand, and the texts of psi and the
cofactors can share one table of monomial texts.

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
from .ratlin import SparseRow, _coef, _solutions

ExpPair = Tuple[Tuple[int, ...], Tuple[int, ...]]   # (k, l) exponent vectors


def _exp_text(k: Sequence[int], l: Sequence[int]) -> str:
    parts = []
    for i, e in enumerate(k, 1):
        if e > 0:
            parts.append(f"z{i}^{e}" if e > 1 else f"z{i}")
    for i, e in enumerate(l, 1):
        if e > 0:
            parts.append(f"zb{i}^{e}" if e > 1 else f"zb{i}")
    return " ".join(parts)


class MomentPolynomial:
    """Finitely many terms (k, l) -> beta, zero coefficients dropped."""

    __slots__ = ("weights", "terms")

    def __init__(self, weights: WeightMatrix, terms: Dict[ExpPair, Sequence[Fraction]]):
        self.weights = weights
        clean = {}
        for key, vec in terms.items():
            v = tuple([x if type(x) is int else _coef(x) for x in vec])
            if len(v) != weights.torus_dim:
                raise ArityError(
                    f"coefficient has length {len(v)}, expected {weights.torus_dim}"
                )
            if any(v):
                clean[key] = v
        self.terms = clean

    @classmethod
    def _of_clean(cls, weights: WeightMatrix,
                  terms: Dict[ExpPair, Tuple]) -> "MomentPolynomial":
        """A polynomial from terms already as the constructor keeps them:
        tuples of torus_dim coefficients in the convention, none all zero."""
        p = cls.__new__(cls)
        p.weights, p.terms = weights, terms
        return p

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

    def to_text(self, texts: Optional[Dict[ExpPair, str]] = None) -> str:
        """The polynomial as `parse_poly` reads it, terms sorted.

        texts maps a monomial to its text and gains each one rendered here,
        so callers that render several polynomials can share one.
        """
        if not self.terms:
            n = self.weights.torus_dim
            return "[" + ",".join(["0"] * n) + "]"
        if texts is None:
            texts = {}
        chunks = []
        for key in sorted(self.terms):
            tail = texts.get(key)
            if tail is None:
                tail = texts[key] = _exp_text(*key)
            head = "[" + ",".join(map(str, self.terms[key])) + "]"
            chunks.append(head + " " + tail if tail else head)
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

    def to_text(self, texts: Optional[Dict[ExpPair, str]] = None) -> str:
        """The polynomial, terms sorted; texts as for `MomentPolynomial.to_text`."""
        if not self.terms:
            return "0"
        if texts is None:
            texts = {}
        chunks = []
        for key in sorted(self.terms):
            c = str(self.terms[key])      # "1" exactly when c == 1, int or Fraction
            tail = texts.get(key)
            if tail is None:
                tail = texts[key] = _exp_text(*key)
            if not tail:
                chunks.append(c)
            elif c == "1":
                chunks.append(tail)
            elif c == "-1":
                chunks.append("-" + tail)
            else:
                chunks.append(c + " " + tail)
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

# one alternative per kind of token: a variable, a number, a punctuation
# mark, or any other character but ASCII whitespace, which is a token of its
# own and always an error; so the tokens tile the text up to whitespace
_TOKEN = re.compile(r"zb?\d+|\d+|[\[\],+\-*/^]|\S", re.ASCII)
_GOOD_CHARS = "[],+-*/^0123456789"    # the one-character tokens that are no error
_DIGITS = frozenset("0123456789")


def _at(text: str, i: int) -> int:
    """Character position of token i of text, len(text) for the end.

    Called only on the way to an error.  A bad character anywhere in the
    text is the error to report, before any syntax or arity error, so this
    raises it in place of returning.
    """
    at = len(text)
    for j, m in enumerate(_TOKEN.finditer(text)):
        s = m.group()
        if len(s) == 1 and s not in _GOOD_CHARS:
            raise ParseError(f"unexpected character {s!r}", m.start()) from None
        if j == i:
            at = m.start()
    return at


def _expected(text: str, toks: List[str], i: int, kind: str) -> ParseError:
    return ParseError(f"expected {kind!r}, found {toks[i] or 'end of input'!r}", _at(text, i))


def _too_long(text: str, digits: str, i: int) -> ParseError:
    # int() refuses more digits than the interpreter's limit
    return ParseError(f"integer literal of {len(digits)} digits is too long", _at(text, i))


def _number(text: str, toks: List[str], i: int) -> int:
    """Token i as an int; a ParseError unless it is a number int() converts."""
    t = toks[i]
    if t[:1] not in _DIGITS:
        raise _expected(text, toks, i, "num")
    try:
        return int(t)
    except ValueError:
        raise _too_long(text, t, i) from None


def parse_poly(text: str, weights: WeightMatrix) -> MomentPolynomial:
    """Parse `[c,...] z1^a zb2^b + ...`; raises ParseError or ArityError.

    The grammar, token by token (ASCII whitespace between tokens is free):

        poly     := [sign] term (sign term)*
        term     := '[' [rational (',' rational)*] ']' (['*'] var ['^' int])*
        rational := sign* int ['/' int]
        var      := 'z' int | 'zb' int
    """
    toks = _TOKEN.findall(text)
    toks.append("")                  # the end of the input
    n, d = weights.torus_dim, weights.count
    terms: Dict[ExpPair, Sequence] = {}
    merged = False
    names: Dict[str, Tuple[bool, int]] = {}   # variable token -> (conj, index)
    t = toks[0]
    i = 1 if t == "+" or t == "-" else 0
    sign = -1 if t == "-" else 1
    while True:
        if toks[i] != "[":
            raise _expected(text, toks, i, "[")
        start = i
        i += 1
        vec = []
        if toks[i] != "]":
            while True:
                s, t = sign, toks[i]
                while t == "+" or t == "-":
                    if t == "-":
                        s = -s
                    i += 1
                    t = toks[i]
                x = _number(text, toks, i)
                i += 1
                if toks[i] == "/":
                    i += 1
                    den = _number(text, toks, i)
                    if not den:
                        raise ParseError("zero denominator", _at(text, i))
                    q, r = divmod(x, den)
                    x = Fraction(x, den) if r else q
                    i += 1
                vec.append(s * x)
                if toks[i] != ",":
                    break
                i += 1
        if toks[i] != "]":
            raise _expected(text, toks, i, "]")
        i += 1
        if len(vec) != n:
            raise ArityError(f"coefficient vector has length {len(vec)}, "
                             f"expected {n} (at position {_at(text, start)})")
        k, l = [0] * d, [0] * d
        t = toks[i]
        while t == "*" or (len(t) > 1 and t[0] == "z"):
            if t == "*":
                i += 1
                t = toks[i]
                if not (len(t) > 1 and t[0] == "z"):
                    raise _expected(text, toks, i, "var")
            var = names.get(t)
            if var is None:
                conj = t[1] == "b"
                digits = t[2:] if conj else t[1:]
                try:
                    idx = int(digits)
                except ValueError:
                    raise _too_long(text, digits, i) from None
                if not 1 <= idx <= d:
                    raise ArityError(f"variable {t} out of range for {d} coordinates "
                                     f"(at position {_at(text, i)})")
                var = names[t] = (conj, idx - 1)
            i += 1
            exp = 1
            if toks[i] == "^":
                i += 1
                exp = _number(text, toks, i)
                i += 1
            (l if var[0] else k)[var[1]] += exp
            t = toks[i]
        if any(vec):
            key = (tuple(k), tuple(l))
            cur = terms.get(key)
            if cur is None:
                terms[key] = tuple(vec)
            else:
                terms[key] = [a + b for a, b in zip(cur, vec)]
                merged = True
        if t == "+" or t == "-":
            sign = -1 if t == "-" else 1
            i += 1
        elif t:
            raise _expected(text, toks, i, "end")
        elif merged:
            # a sum can cancel, or leave an integral Fraction
            return MomentPolynomial(weights, terms)
        else:
            return MomentPolynomial._of_clean(weights, terms)


# ---------------------------------------------------------------------------
# criterion and decomposition

@dataclass(frozen=True)
class MomentReport:
    """Outcome of the per-monomial span test."""

    failing: Tuple[ExpPair, ...]

    @property
    def ok(self) -> bool:
        return not self.failing


# (support, keys, solutions): the terms on one monomial support and, per
# term, its coefficients over the weights of that support (position in the
# support -> nonzero coefficient), or None
_Group = Tuple[Tuple[int, ...], List[ExpPair], List[Optional[SparseRow]]]


def _solve(p: MomentPolynomial) -> List[_Group]:
    """One elimination for the whole polynomial; a group per monomial support.

    The coefficients express the term's covector over the weights of the
    monomial's variables, with smallest-index pivots and free variables
    zero; they are None when the covector lies outside the span of those
    weights.  Every term is solved in one `ratlin._solutions` call on a
    block-diagonal system: the weight columns of every support come first,
    in support order, then one right-hand side column per term, and each
    support contributes torus_dim rows with entries in its own columns
    only.  The RREF of a block-diagonal matrix is the RREF of each block,
    so each term gets the solution of its own support's system; its keys
    are shifted back by the block's column offset.
    """
    d, n = p.weights.count, p.weights.torus_dim
    if ((0,) * d, (0,) * d) in p.terms:
        raise NonzeroConstantTermError(
            "polynomial has a nonzero constant term; it must vanish at the origin"
        )
    by_support: Dict[Tuple[int, ...], List[ExpPair]] = {}
    for key in p.terms:
        k, l = key
        by_support.setdefault(tuple([i for i in range(d) if k[i] or l[i]]), []).append(key)
    wrows, terms = p.weights.rows, p.terms
    width = sum(map(len, by_support))
    rows: List[SparseRow] = []
    offset, col = 0, width       # the block's first weight column and first term column
    for support, group in by_support.items():
        for r in range(n):
            row = {offset + j: x for j, i in enumerate(support) if (x := wrows[i][r])}
            for t, key in enumerate(group, col):
                if x := terms[key][r]:
                    row[t] = x
            rows.append(row)
        offset += len(support)
        col += len(group)
    lams, outside = _solutions(rows, width, len(terms))
    groups = []
    offset, t = 0, 0
    for support, group in by_support.items():
        groups.append((support, group, [
            None if u in outside else {c - offset: x for c, x in lams[u].items()}
            for u in range(t, t + len(group))]))
        offset += len(support)
        t += len(group)
    return groups


def _failing(groups: List[_Group]) -> Tuple[ExpPair, ...]:
    """The sorted keys of the terms `_solve` found no coefficients for."""
    return tuple(sorted(key for _, group, lams in groups
                        for key, lam in zip(group, lams) if lam is None))


def check_moment_condition(p: MomentPolynomial) -> MomentReport:
    """Each coefficient must lie in the span of its monomial's weights."""
    return MomentReport(_failing(_solve(p)))


def decompose(p: MomentPolynomial) -> FormCoefficients:
    """Split p as sum_j (z_j f_j + zbar_j g_j) alpha_j.

    Per monomial the coefficient is solved over the supported weights with
    smallest-index pivots and free variables zero; each contribution factors
    out z_i when possible, zbar_i otherwise.  So each monomial of f_i comes
    from the one term with k = k' + e_i, and each monomial of g_i from the
    one term with l = l' + e_i and k_i = 0: every cofactor coefficient is
    assigned once, never summed.
    """
    groups = _solve(p)
    failing = _failing(groups)
    if failing:
        raise ConditionFailedError(failing)
    d = p.weights.count
    fs = [ScalarPoly(d) for _ in range(d)]
    gs = [ScalarPoly(d) for _ in range(d)]
    f_terms = [f.terms for f in fs]
    g_terms = [g.terms for g in gs]
    for support, group, lams in groups:
        for (k, l), lam in zip(group, lams):
            for j, c in lam.items():
                i = support[j]
                if k[i] > 0:
                    smaller = list(k)
                    smaller[i] -= 1
                    f_terms[i][(tuple(smaller), l)] = c
                else:
                    smaller = list(l)
                    smaller[i] -= 1
                    g_terms[i][(k, tuple(smaller))] = c
    return FormCoefficients(p.weights, tuple(zip(fs, gs)))


def _recombined(fc: FormCoefficients) -> Dict[ExpPair, Tuple]:
    """The terms of sum_j (z_j f_j + zbar_j g_j) alpha_j, as sums: a vector
    can be zero, and an entry a Fraction with denominator 1."""
    w = fc.weights
    terms: Dict[ExpPair, Tuple] = {}
    for j, (f, g) in enumerate(fc.pairs):
        alpha = w.rows[j]
        for (k, l), c in f.terms.items():
            bigger = list(k)
            bigger[j] += 1
            key = (tuple(bigger), l)
            cur = terms.get(key)
            terms[key] = (tuple([c * a for a in alpha]) if cur is None
                          else tuple([x + c * a for x, a in zip(cur, alpha)]))
        for (k, l), c in g.terms.items():
            bigger = list(l)
            bigger[j] += 1
            key = (k, tuple(bigger))
            cur = terms.get(key)
            terms[key] = (tuple([c * a for a in alpha]) if cur is None
                          else tuple([x + c * a for x, a in zip(cur, alpha)]))
    return terms


def recombine(fc: FormCoefficients) -> MomentPolynomial:
    """Expand sum_j (z_j f_j + zbar_j g_j) alpha_j back into a polynomial."""
    return MomentPolynomial(fc.weights, _recombined(fc))


def verify_decomposition(p: MomentPolynomial, fc: FormCoefficients) -> bool:
    """Exact term-map comparison of p against the recombined cofactors.

    The truth value of recombine(fc) == p, with no polynomial built: the
    recombined terms that are not zero are p's keys, with equal vectors
    (an int and a Fraction compare equal).
    """
    if fc.weights != p.weights:
        return False
    got, want = _recombined(fc), p.terms
    for key, vec in got.items():
        w = want.get(key)
        if w is None:
            if any(vec):
                return False
        elif w != vec:
            return False
    return got.keys() >= want.keys()
