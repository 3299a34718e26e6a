"""Seeded generators for the three benchmark workloads.

Each generator draws from ``random.Random(f"{workload}:{seed}")``, builds
its input files with the package's own builders, and returns them with
the ordered list of CLI operations ("ops") that read them.  One seed always
gives the same bytes and the same ops.  The seed changes which spaces are
drawn, never the size mix: every slot of a workload has a fixed command
and a fixed strata band.  ``elim`` draws again when a draw falls outside
its band; the other workloads build their spaces inside the band and
check that they are.

Weight rows go to the CLI as ``--weights=<rows>`` / ``--lambdas=<rows>``:
argparse would read a separate value that starts with ``-`` (such as
``-1,0;0,1``) as an option and exit with code 2.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import oracle

PRESET_STRATA = {"segment": 3, "triangle": 7, "square": 9, "pentagon": 11, "cube": 27}


@dataclass
class Op:
    """One CLI call: argv for ``assigncoh.cli.main`` and what to expect of it.

    Paths in argv are relative to the work directory.  ``check`` holds the
    reference-free expectations that ``checks.check_op`` verifies.
    """

    argv: List[str]
    expect: int = 0
    check: Dict = field(default_factory=dict)


class _Gen:
    """Collects the files and ops of one workload."""

    def __init__(self, api):
        self.api = api
        self.files: Dict[str, bytes] = {}
        self.ops: List[Op] = []

    def space_file(self, prefix: str, space) -> str:
        desc = self.api.SpaceDescription.from_space(space)
        name = f"{prefix}{len(self.files):03d}.space"
        self.files[name] = (json.dumps(desc.to_json_dict(), sort_keys=True, indent=2)
                            + "\n").encode()
        return name

    def json_file(self, prefix: str, obj) -> str:
        name = f"{prefix}{len(self.files):03d}.json"
        self.files[name] = (json.dumps(obj, sort_keys=True) + "\n").encode()
        return name

    def op(self, argv: List[str], expect: int = 0, **check) -> None:
        self.ops.append(Op(["--json"] + argv, expect, check))


def _rows_arg(rows) -> str:
    return ";".join(",".join(str(x) for x in r) for r in rows)


def _draw_rows(rng, count: int, dim: int, span: int = 2) -> List[List[int]]:
    while True:
        rows = [[rng.randint(-span, span) for _ in range(dim)] for _ in range(count)]
        if all(any(r) for r in rows):
            return rows


def _unimodular_variant(rng, rows: List[List[int]]) -> List[List[int]]:
    """rows @ M for M = I plus or minus one unit off the diagonal, in random
    order and with random signs.

    M is in GL(n, Z), so the ranks of all row subsets, and with them the
    strata count, are unchanged.
    """
    n = len(rows[0])
    i, j = rng.sample(range(n), 2)
    m = [[int(r == c) for c in range(n)] for r in range(n)]
    m[i][j] = rng.choice((-1, 1))
    out = [[sum(row[k] * m[k][c] for k in range(n)) for c in range(n)] for row in rows]
    rng.shuffle(out)
    return [[-x for x in r] if rng.random() < 0.5 else r for r in out]


# ---------------------------------------------------------------------------
# elim: one large exact elimination per op

S5_LAMBDAS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]]

# (ops, sphere factors, strata, command); all over the 3-torus.  Sorted by
# cost, the blocks put op_s.p50 inside the 73-strata degree-0 block and
# op_s.p90 inside the 73-strata degree-1 block, away from block edges.
# The 73-strata spaces (generic weights) vary least in cost from draw to
# draw, which keeps those percentiles steady across seeds.
ELIM_SLOTS: Tuple[Tuple[int, int, int, str], ...] = (
    (3, 4, 45, "h0"), (3, 4, 45, "assignments"),
    (5, 4, 73, "h0"), (4, 4, 73, "assignments"),
    (4, 4, 73, "h1"),
    (1, 5, 153, "assignments"),
)

ORACLE_MAX_STRATA = 45


def gen_elim(api, rng) -> _Gen:
    g = _Gen(api)
    seen = set()
    for count, factors, strata, cmd in ELIM_SLOTS:
        for _ in range(count):
            while True:
                if factors == 5:
                    lam = _unimodular_variant(rng, S5_LAMBDAS)
                else:
                    lam = _draw_rows(rng, factors, 3, span=1)
                    if oracle.sphere_product_strata(lam) != strata:
                        continue
                space, _ = api.build_sphere_product(3, lam)
                if len(space.ids) != strata:
                    raise RuntimeError(f"sphere product {lam} has {len(space.ids)} strata, "
                                       f"expected {strata}")
                name = g.space_file("e", space)
                if g.files[name] in seen:   # no two ops read the same file
                    del g.files[name]
                    continue
                seen.add(g.files[name])
                break
            small = strata <= ORACLE_MAX_STRATA
            if cmd == "assignments":
                g.op(["assignments", name], kind="assignments", space=name, oracle=small)
            else:
                deg = cmd[1]
                g.op(["cohomology", name, "--degree", deg], kind="cohomology",
                     space=name, degree=int(deg), oracle=small)
    rng.shuffle(g.ops)
    return g


# ---------------------------------------------------------------------------
# full: the weak-tuple complex and the checks, on spaces of at most ~30 strata

def _polytope(api, name):
    return api.build_polytope(api.preset_polytope(name))


def _full_t3(api, rng):
    """27 strata over the 3-torus: the cube, its product forms, or (S^2)^3."""
    kind = rng.choice(("cube", "square*segment", "segment*square", "segment^3", "spheres"))
    if kind == "cube":
        return _polytope(api, "cube")
    if kind == "spheres":
        return api.build_sphere_product(3, _generic_rows(rng, 3, 3))
    seg = _polytope(api, "segment")
    if kind == "segment^3":
        return api.build_product(api.build_product(seg, seg), seg)
    sq = _polytope(api, "square")
    return api.build_product(sq, seg) if kind == "square*segment" else api.build_product(seg, sq)


def _full_prism(polygon: str):
    def make(api, rng):
        left, right = _polytope(api, polygon), _polytope(api, "segment")
        if rng.random() < 0.5:
            left, right = right, left
        return api.build_product(left, right)
    return make


def _generic_rows(rng, count: int, dim: int) -> List[List[int]]:
    """Rows of which every dim-subset is linearly independent."""
    while True:
        rows = _draw_rows(rng, count, dim)
        if all(oracle.rank(sub) == dim for sub in itertools.combinations(rows, dim)):
            return rows


def _full_t2(kind: str):
    """Small spaces over the 2-torus with a fixed strata count per kind."""
    def make(api, rng):
        if kind == "spheres":
            return api.build_sphere_product(2, _generic_rows(rng, 3, 2))
        count = {"rep3": 3, "rep4": 4}[kind]
        return api.build_linear_rep(api.WeightMatrix.from_rows(_generic_rows(rng, count, 2)))
    return make


# (spaces, maker, strata band); every space gets the three full-workload ops.
# Sorted by cost, the 54 ops on the CP^2-like linear reps and (S^2)^3 over
# the 2-torus hold op_s.p50, and the 16 checks on the 3-torus spaces and
# the pentagon prism hold op_s.p90.
FULL_SLOTS: Tuple[Tuple[int, Callable, Tuple[int, int]], ...] = (
    (7, _full_t3, (27, 27)),
    (2, _full_prism("triangle"), (21, 21)),
    (1, _full_prism("pentagon"), (33, 33)),
    (6, _full_t2("rep3"), (5, 5)),
    (6, _full_t2("rep4"), (6, 6)),
    (6, _full_t2("spheres"), (21, 21)),
)


def _minimal(space) -> List[str]:
    """Strata with nothing below them (the fixed points of these spaces)."""
    below = {y for x in space.ids for y in space.upset(x) if y != x}
    return [x for x in space.ids if x not in below]


def gen_full(api, rng) -> _Gen:
    g = _Gen(api)
    for count, make, (lo, hi) in FULL_SLOTS:
        for _ in range(count):
            space, _ = make(api, rng)
            if not lo <= len(space.ids) <= hi:
                raise RuntimeError(f"full-workload space with {len(space.ids)} strata")
            name = g.space_file("f", space)
            g.op(["check", name, "--euler"], kind="check", space=name, oracle=True)
            g.op(["check", name, "--les", ",".join(_minimal(space))], kind="check", space=name)
            g.op(["cohomology", name, "--complex", "both", "--degree", "1"],
                 kind="cohomology", space=name, degree=1, both=True, oracle=True)
    rng.shuffle(g.ops)
    return g


# ---------------------------------------------------------------------------
# light: many small, load-heavy commands and deliberately invalid inputs

def _xi_values(space, xi) -> Dict[str, List[str]]:
    """Moment values of the functional xi on each stratum's stabilizer rows."""
    return {x: [str(sum(a * b for a, b in zip(xi, row)))
                for row in space.stabilizer(x).basis_rows]
            for x in _minimal(space)}


def _poly_text(rng, weights, nterms: int, outside: bool = False) -> str:
    """nterms distinct monomials; each coefficient lies in its weights' span.

    With outside=True one single-variable term gets a coefficient off the
    line of its weight, so the moment condition fails there.
    """
    d, n = len(weights), len(weights[0])
    seen, terms = set(), []
    while len(terms) < nterms:
        k, l = [0] * d, [0] * d
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(d)
            (k if rng.random() < 0.5 else l)[i] += 1
        key = (tuple(k), tuple(l))
        if key in seen:
            continue
        seen.add(key)
        support = [i for i in range(d) if k[i] or l[i]]
        coef = [0] * n
        for i in support:
            c = rng.randint(-3, 3)
            coef = [a + c * w for a, w in zip(coef, weights[i])]
        if not any(coef):
            coef = list(weights[support[0]])
        terms.append((coef, k, l))
    if outside:
        i = rng.randrange(d)
        k, l = [0] * d, [0] * d
        k[i] = 2
        coef = list(weights[i])
        j = next(j for j in range(n) if oracle.rank([weights[i], [int(r == j) for r in range(n)]]) == 2)
        coef[j] += 1
        terms = [t for t in terms if (tuple(t[1]), tuple(t[2])) != (tuple(k), tuple(l))]
        terms.insert(rng.randrange(len(terms) + 1), (coef, k, l))

    def mono(k, l):
        parts = [f"z{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(k) if e]
        parts += [f"zb{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(l) if e]
        return " ".join(parts)

    return " + ".join(f"[{','.join(map(str, c))}] {mono(k, l)}" for c, k, l in terms)


# (ops, terms, coordinates, torus dim).  Sorted by cost, the 34 small
# builds and invalid ops come first, the 100-term block holds op_s.p50 and
# the 300-term block op_s.p90; product builds and extends are the top 5.
LIGHT_DECOMPOSE = ((36, 100, 4, 2), (8, 200, 5, 2), (11, 300, 6, 3))
LIGHT_SMALL_BUILDS = 24
LIGHT_EXTENDS = {"square": 2, "pentagon": 1}   # per product with that factor


def gen_light(api, rng) -> _Gen:
    g = _Gen(api)
    factors = {}
    for poly in ("square", "pentagon"):
        factors[poly] = (g.space_file("l", _polytope(api, poly)[0]), PRESET_STRATA[poly])

    # large product builds (243 and 297 strata) and extends on the same products
    for poly in ("square", "pentagon"):
        t3 = g.space_file("l", _full_t3(api, rng)[0])
        left, right = (t3, factors[poly][0])
        if rng.random() < 0.5:
            left, right = right, left
        strata = 27 * factors[poly][1]
        g.op(["build", "product", "--left", left, "--right", right,
              "--out", f"out{len(g.ops):03d}.space"], kind="build", strata=strata)
    for poly in ("square", "pentagon"):
        product = api.build_product(_full_t3(api, rng), _polytope(api, poly))[0]
        name = g.space_file("l", product)
        for _ in range(LIGHT_EXTENDS[poly]):
            xi = [rng.randint(-5, 5) for _ in range(product.torus_dim)]
            values = g.json_file("v", {"values": _xi_values(product, xi)})
            g.op(["extend", name, "--values", values], kind="extend", space=name, xi=xi)

    # small builds of every kind
    for i in range(LIGHT_SMALL_BUILDS):
        out = f"out{len(g.ops):03d}.space"
        kind = ("linear-rep", "sphere-product", "polytope")[i % 3]
        if kind == "linear-rep":
            n = rng.choice((2, 3))
            w = _draw_rows(rng, rng.choice((3, 4)), n)
            g.op(["build", "linear-rep", f"--weights={_rows_arg(w)}", "--out", out],
                 kind="build", strata=oracle.linear_rep_strata(w))
        elif kind == "sphere-product":
            n = rng.choice((2, 3))
            lam = _draw_rows(rng, 3, n)
            g.op(["build", "sphere-product", "--n", str(n), f"--lambdas={_rows_arg(lam)}",
                  "--out", out], kind="build", strata=oracle.sphere_product_strata(lam))
        else:
            preset = rng.choice(sorted(PRESET_STRATA))
            g.op(["build", "polytope", f"--{preset}", "--out", out],
                 kind="build", strata=PRESET_STRATA[preset])

    # moment polynomials of 100 to 300 terms
    for count, nterms, d, n in LIGHT_DECOMPOSE:
        for _ in range(count):
            w = _generic_rows(rng, d, n)
            g.op(["decompose", f"--weights={_rows_arg(w)}", "--psi", _poly_text(rng, w, nterms)],
                 kind="decompose")

    # deliberately invalid inputs, each with its documented exit code
    small = [_full_t3(api, rng)[0] for _ in range(3)]
    names = [g.space_file("l", space) for space in small]
    for name in names:
        text = g.files[name]
        broken = f"bad{len(g.files):03d}.space"
        g.files[broken] = text[: rng.randrange(1, len(text) - 2)]
        g.op([rng.choice(("assignments", "check")), broken], expect=1, kind="error")
    for _ in range(2):
        ids = [f"s{i}" for i in range(rng.randint(3, 6))]
        cyc = [[ids[i], ids[(i + 1) % len(ids)]] for i in range(len(ids))]
        obj = {"torus_dim": 1, "strata": [{"id": x, "stabilizer": [[1]]} for x in ids],
               "covers": cyc}
        g.op(["assignments", g.json_file("cyc", obj)], expect=2, kind="error")
    for name, space in zip(names, small):
        xi = [rng.randint(-5, 5) for _ in range(space.torus_dim)]
        values = _xi_values(space, xi)
        x = rng.choice(sorted(values))
        j = rng.randrange(len(values[x]))
        values[x][j] = str(int(values[x][j]) + rng.choice((-1, 1)))
        g.op(["extend", name, "--values", g.json_file("v", {"values": values})],
             expect=4, kind="error")
    for _ in range(2):
        w = _generic_rows(rng, 4, 2)
        g.op(["decompose", f"--weights={_rows_arg(w)}",
              "--psi", _poly_text(rng, w, 100, outside=True)], expect=5, kind="error")
    rng.shuffle(g.ops)
    return g


GENERATORS = {"elim": gen_elim, "full": gen_full, "light": gen_light}


def generate(api, workload: str, seed: int) -> Tuple[Dict[str, bytes], List[Op]]:
    g = GENERATORS[workload](api, random.Random(f"{workload}:{seed}"))
    return g.files, g.ops
