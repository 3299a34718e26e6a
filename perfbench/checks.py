"""Checks of one op's result that need no reference output.

``check_op`` returns a list of problems; an empty list is a pass.  It
verifies the exit code, that no traceback escaped, that the ``--json``
report parses, the flags a correct run must report (full/reduced
agreement, functor laws, d^2 = 0, LES exactness), and, where cheap, the
numbers themselves against ``oracle``: dims and Euler characteristics of
small spaces, strata counts of builds, extended values against the
functional they came from, and decompositions recombined term by term.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from fractions import Fraction
from typing import Dict, List

import oracle

_VAR = re.compile(r"(zb|z)(\d+)(?:\^(\d+))?$")


def _monomial(tokens, d: int):
    k, l = [0] * d, [0] * d
    for tok in tokens:
        m = _VAR.match(tok)
        if m is None:
            raise ValueError(f"bad monomial token {tok!r}")
        (l if m.group(1) == "zb" else k)[int(m.group(2)) - 1] += int(m.group(3) or 1)
    return tuple(k), tuple(l)


def _scalar_terms(text: str, d: int) -> Dict:
    """Parse ScalarPoly text such as ``1 + -3 zb2 z1^2 + -z4``."""
    out = {}
    if text == "0":
        return out
    for chunk in text.split(" + "):
        tokens = chunk.split(" ")
        head = tokens[0]
        if head.lstrip("-").startswith("z"):
            coef = Fraction(-1 if head.startswith("-") else 1)
            tokens[0] = head.lstrip("-")
        else:
            coef = Fraction(head)
            tokens = tokens[1:]
        out[_monomial(tokens, d)] = coef
    return out


def _vector_terms(text: str, d: int) -> Dict:
    """Parse MomentPolynomial text such as ``[1,-2] z1 zb2 + [0,3] z3``."""
    out = {}
    for chunk in text.split(" + "):
        vec, _, tail = chunk.partition("] ")
        out[_monomial(tail.split() if tail else [], d)] = tuple(
            Fraction(x) for x in vec.lstrip("[").rstrip("]").split(","))
    return out


def _recombines(report: dict, weights: List[List[int]]) -> bool:
    """sum_j (z_j f_j + zbar_j g_j) alpha_j equals psi, term by term."""
    d, n = len(weights), len(weights[0])
    total = defaultdict(lambda: [Fraction(0)] * n)
    for j, (f, g) in enumerate(zip(report["f"], report["g"])):
        for text, conj in ((f, False), (g, True)):
            for (k, l), c in _scalar_terms(text, d).items():
                k, l = list(k), list(l)
                (l if conj else k)[j] += 1
                acc = total[(tuple(k), tuple(l))]
                for r in range(n):
                    acc[r] += c * weights[j][r]
    got = {key: tuple(v) for key, v in total.items() if any(v)}
    return got == _vector_terms(report["psi"], d)


def _weights_arg(argv: List[str]) -> List[List[int]]:
    text = next(a for a in argv if a.startswith("--weights=")).split("=", 1)[1]
    return [[int(x) for x in row.split(",")] for row in text.split(";")]


class SpaceCache:
    """Parsed input spaces, shared by every op that reads the same file."""

    def __init__(self):
        self._spaces: Dict[str, oracle.SpaceFile] = {}

    def get(self, name: str) -> oracle.SpaceFile:
        if name not in self._spaces:
            with open(name, encoding="utf-8") as fh:
                self._spaces[name] = oracle.SpaceFile(fh.read())
        return self._spaces[name]


def check_op(op, code, out: str, err: str, spaces: SpaceCache) -> List[str]:
    problems = []
    if code != op.expect:
        problems.append(f"exit code {code}, expected {op.expect}")
    if "Traceback" in err:
        problems.append("traceback on stderr")
    try:
        report = json.loads(out)
    except json.JSONDecodeError as e:
        return problems + [f"stdout is not JSON ({e})"]
    if problems:
        return problems
    try:
        return _check_report(op, report, err, spaces)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
        return [f"report lacks the expected fields ({e!r})"]


def _check_report(op, report: dict, err: str, spaces: SpaceCache) -> List[str]:
    problems = []
    c = op.check
    kind = c.get("kind")
    if op.expect != 0:
        if report.get("exit_code") != op.expect or "error" not in report:
            problems.append("error report does not carry the exit code")
        if not err.startswith("error:"):
            problems.append("stderr does not start with 'error:'")
    elif kind == "cohomology":
        blocks = report["results"]
        for name, blk in blocks.items():
            if len(blk["representatives"]) != blk["dim"]:
                problems.append(f"{name}: {len(blk['representatives'])} representatives "
                                f"for dim {blk['dim']}")
        if c.get("both") and not (report.get("agreement") is True
                                  and blocks["full"]["dim"] == blocks["reduced"]["dim"]):
            problems.append("full and reduced complexes disagree")
        if c.get("oracle"):
            want = spaces.get(c["space"]).cohomology_dim(c["degree"])
            if blocks["reduced"]["dim"] != want:
                problems.append(f"dim {blocks['reduced']['dim']}, brute force gives {want}")
    elif kind == "assignments":
        if len(report["basis"]) != report["dim"]:
            problems.append("basis length differs from dim")
        if c.get("oracle"):
            want = spaces.get(c["space"]).cohomology_dim(0)
            if report["dim"] != want:
                problems.append(f"dim A {report['dim']}, brute force gives {want}")
    elif kind == "check":
        if not report["functor"]["ok"]:
            problems.append("functor laws reported violated")
        if not report["d_squared_zero"]["ok"]:
            problems.append("d^2 = 0 reported violated")
        if "les" in report and not report["les"]["ok"]:
            problems.append("LES reported not exact")
        if c.get("oracle") and "euler_characteristic" in report:
            want = spaces.get(c["space"]).euler()
            if report["euler_characteristic"] != want:
                problems.append(f"euler {report['euler_characteristic']}, brute force {want}")
    elif kind == "build":
        if report["strata"] != c["strata"]:
            problems.append(f"{report['strata']} strata, expected {c['strata']}")
    elif kind == "extend":
        space = spaces.get(c["space"])
        want = {x: [str(sum(a * b for a, b in zip(c["xi"], row))) for row in space.rows[x]]
                for x in space.ids}
        if report["assignment"] != want:
            problems.append("extended values differ from the functional's values")
    elif kind == "decompose":
        if report["condition"] != "ok" or not _recombines(report, _weights_arg(op.argv)):
            problems.append("cofactors do not recombine to psi")
    return problems
