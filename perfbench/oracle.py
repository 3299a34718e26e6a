"""Brute-force checks written from the definitions, independent of assigncoh.

Only the standard library is used: Gaussian elimination over
``fractions.Fraction`` for ranks, the strata counts of the builders' cell
merges, and the reduced cochain complex of a moment system assembled
straight from a ``.space`` file, in the style of ``tests/oracles.py``.
The benchmark runs these outside its timed region, on the small
operations only.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple


def rank(rows: Sequence[Sequence]) -> int:
    """Row rank by forward elimination; no echelon normalization."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        for i in range(r + 1, len(m)):
            f = m[i][col]
            if f:
                f *= inv
                row, prow = m[i], m[r]
                for c in range(col, ncols):
                    if prow[c]:
                        row[c] -= f * prow[c]
        r += 1
        if r == len(m):
            break
    return r


def _merged_cells(cells, relations, span_rank) -> int:
    """Number of groups after merging related cells whose spans agree."""
    parent = {c: c for c in cells}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for lo, hi in relations:
        if span_rank(lo) == span_rank(hi):
            parent[find(lo)] = find(hi)
    return len({find(c) for c in cells})


def _subset_ranks(rows) -> Dict[frozenset, int]:
    idx = range(len(rows))
    return {
        frozenset(s): rank([rows[i] for i in s]) if s else 0
        for r in range(len(rows) + 1)
        for s in itertools.combinations(idx, r)
    }


def sphere_product_strata(lambdas: Sequence[Sequence[int]]) -> int:
    """Strata of a product of rotated two-spheres, by merging equal stabilizers."""
    d = len(lambdas)
    ranks = _subset_ranks(lambdas)
    cells = list(itertools.product("NOS", repeat=d))
    relations = [
        (c, c[:j] + ("O",) + c[j + 1:])
        for c in cells for j in range(d) if c[j] != "O"
    ]
    return _merged_cells(
        cells, relations,
        lambda c: ranks[frozenset(j for j in range(d) if c[j] == "O")],
    )


def linear_rep_strata(weights: Sequence[Sequence[int]]) -> int:
    """Strata of a linear torus representation with the given weights."""
    d = len(weights)
    ranks = _subset_ranks(weights)
    cells = [frozenset(s) for r in range(d + 1) for s in itertools.combinations(range(d), r)]
    relations = [(c, c | {j}) for c in cells for j in range(d) if j not in c]
    return _merged_cells(cells, relations, lambda c: ranks[c])


def _solve_coords(basis: List[List[int]], v: Sequence[int]) -> List[Fraction]:
    """Coefficients c with sum_i c_i basis[i] = v (basis rows independent)."""
    k, n = len(basis), len(v)
    aug = [[Fraction(basis[i][r]) for i in range(k)] + [Fraction(v[r])] for r in range(n)]
    pivots = []
    r = 0
    for col in range(k):
        p = next((i for i in range(r, n) if aug[i][col]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    if any(aug[i][k] for i in range(r, n)) or len(pivots) != k:
        raise ValueError("stabilizer rows are not nested as a basis")
    return [aug[i][k] for i in range(k)]


class SpaceFile:
    """A ``.space`` file with its moment system, read without assigncoh."""

    def __init__(self, text: str):
        obj = json.loads(text)
        self.rows = {s["id"]: [list(map(int, r)) for r in s.get("stabilizer", [])]
                     for s in obj["strata"]}
        self.ids = sorted(self.rows)
        for x, rows in self.rows.items():
            if rank(rows) != len(rows):
                raise ValueError(f"stabilizer rows of {x!r} are dependent")
        above = {x: {y for a, y in obj.get("covers", []) if a == x} for x in self.ids}
        self.upset = {}
        for x in self.ids:
            seen, todo = {x}, [x]
            while todo:
                for y in above[todo.pop()]:
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            self.upset[x] = seen
        self._proj: Dict[Tuple[str, str], List[List[Fraction]]] = {}

    def dim(self, x: str) -> int:
        return len(self.rows[x])

    def proj(self, x: str, y: str) -> List[List[Fraction]]:
        """Rows of stab(y) in the basis of stab(x): the moment projection."""
        key = (x, y)
        if key not in self._proj:
            self._proj[key] = [_solve_coords(self.rows[x], v) for v in self.rows[y]]
        return self._proj[key]

    def strict_chains(self, k: int) -> List[Tuple[str, ...]]:
        out = [(x,) for x in self.ids]
        for _ in range(k):
            out = [t + (y,) for t in out for y in sorted(self.upset[t[-1]]) if y != t[-1]]
        return out

    def _basis(self, k: int):
        offsets, total = {}, 0
        for t in self.strict_chains(k):
            if self.dim(t[-1]):
                offsets[t] = total
                total += self.dim(t[-1])
        return offsets, total

    def differential(self, k: int) -> List[List[Fraction]]:
        """d: C^k -> C^{k+1} of the reduced complex, straight from the formula."""
        src, src_dim = self._basis(k)
        dst, dst_dim = self._basis(k + 1)
        mat = [[Fraction(0)] * src_dim for _ in range(dst_dim)]
        for t, base in dst.items():
            w = self.dim(t[-1])
            for ell in range(len(t) - 1):
                face = t[:ell] + t[ell + 1:]
                if face in src:
                    for r in range(w):
                        mat[base + r][src[face] + r] += -1 if ell % 2 else 1
            face = t[:-1]
            if face in src:
                sign = -1 if (len(t) - 1) % 2 else 1
                p = self.proj(t[-2], t[-1])
                for r in range(w):
                    for c in range(self.dim(t[-2])):
                        mat[base + r][src[face] + c] += sign * p[r][c]
        return mat

    def cohomology_dim(self, k: int) -> int:
        _, dim_k = self._basis(k)
        out = dim_k - rank(self.differential(k))
        if k > 0:
            out -= rank(self.differential(k - 1))
        return out

    def euler(self) -> int:
        total, k = 0, 0
        while True:
            chains = self.strict_chains(k)
            if not chains:
                return total
            total += (-1) ** k * sum(self.dim(t[-1]) for t in chains)
            k += 1
