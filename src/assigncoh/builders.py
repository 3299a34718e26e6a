"""Constructors for standard stratified spaces.

Each builder enumerates the orbit-type cells of a concrete torus action,
attaches infinitesimal stabilizers, merges comparable cells whose
stabilizers agree (one stratum per connected group of such cells), and
returns the resulting poset with its moment coefficient system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .coeffsys import CoefficientSystem, _check_shapes, _is_moment_system, moment_system
from .errors import MalformedPolytopeError, UnknownIdError
from .errors import DescriptionError
from .ratlin import RatMatrix, _integer, rank
from .stratposet import StratSpace, Subalgebra, _int_kernel


@dataclass(frozen=True)
class WeightMatrix:
    """Integer weight covectors of a torus action, one row per coordinate."""

    torus_dim: int
    rows: Tuple[Tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], torus_dim: Optional[int] = None):
        rs = tuple(tuple(map(_integer, r)) for r in rows)
        if not rs:
            raise ValueError("need at least one weight row")
        n = torus_dim if torus_dim is not None else len(rs[0])
        for r in rs:
            if len(r) != n:
                raise ValueError(f"weight row {r} has length {len(r)}, expected {n}")
        return cls(n, rs)

    @property
    def count(self) -> int:
        return len(self.rows)


def _kernel_subalgebra(n: int, rows: List[Sequence[int]]) -> Subalgebra:
    """Common kernel of integer covectors, as a canonical subalgebra.

    A kernel lattice is saturated and _int_kernel returns its Hermite basis,
    which is already the canonical form Subalgebra.span would give.
    """
    return Subalgebra(n, _int_kernel(rows, n))


def _orbit_space(
    n: int,
    weights: Sequence[Sequence[int]],
    cells: Mapping[str, Tuple[int, ...]],
    steps: Sequence[Tuple[str, str]],
) -> Tuple[StratSpace, CoefficientSystem]:
    """Orbit-type space of cells and its moment system.

    cells maps each cell name to the indices of its active weights, whose
    common kernel is the cell's stabilizer (taken once per distinct active
    set); steps are the (lower, upper) cell pairs where upper switches one
    more weight on.  Step-related cells with equal stabilizers merge, one
    stratum per connected group, under the group's smallest cell name: the
    union-find root, since a union hangs the larger root under the smaller.
    """
    kernels = {}
    stab = {}
    for c, active in cells.items():
        kernel = kernels.get(active)
        if kernel is None:
            kernel = kernels[active] = _kernel_subalgebra(n, [weights[i] for i in active])
        stab[c] = kernel
    parent = {c: c for c in cells}

    def find(c: str) -> str:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for lo, hi in steps:
        if stab[lo] == stab[hi]:
            a, b = find(lo), find(hi)
            parent[max(a, b)] = min(a, b)
    # a step joins two strata exactly where it changes the stabilizer
    strata = {root: stab[root] for root in map(find, cells)}
    covers = [(find(lo), find(hi)) for lo, hi in steps if stab[lo] != stab[hi]]
    space = StratSpace.from_covers(n, strata, covers)
    return space, moment_system(space)


def build_linear_rep(weights: WeightMatrix) -> Tuple[StratSpace, CoefficientSystem]:
    """Linear torus action on complex coordinates with the given weights.

    Cells are indexed by the set of nonzero coordinates; the stabilizer is
    the common kernel of the active weights, and a cell degenerates into
    another by switching coordinates off.
    """
    if not isinstance(weights, WeightMatrix):
        weights = WeightMatrix.from_rows(weights)
    d = weights.count

    def cell_name(subset: Tuple[int, ...]) -> str:
        return "c" + "".join(f"_{i + 1}" for i in subset)

    cells = {cell_name(s): s for r in range(d + 1) for s in itertools.combinations(range(d), r)}
    steps = [(name, cell_name(tuple(sorted(s + (j,)))))
             for name, s in cells.items() for j in range(d) if j not in s]
    return _orbit_space(weights.torus_dim, weights.rows, cells, steps)


def build_sphere_product(
    n: int, lambdas: Iterable[Sequence[int]]
) -> Tuple[StratSpace, CoefficientSystem]:
    """Product of two-spheres, the j-th rotated with weight lambda_j.

    Each factor contributes the cells N, S (poles) and O (the open strip
    between them); the stabilizer of a product cell is the common kernel
    of the weights at its O positions.
    """
    lam = [tuple(map(_integer, row)) for row in lambdas]
    if not lam:
        raise ValueError("need at least one sphere factor")
    for row in lam:
        if len(row) != n:
            raise ValueError(f"weight row {row} has length {len(row)}, expected {n}")
    d = len(lam)
    cells = {c: tuple(j for j in range(d) if c[j] == "O")
             for c in map("".join, itertools.product("NOS", repeat=d))}
    steps = [(c, c[:j] + "O" + c[j + 1:]) for c in cells for j in range(d) if c[j] != "O"]
    return _orbit_space(n, lam, cells, steps)


@dataclass(frozen=True)
class PolytopeData:
    """Simple polytope described by facet normals and vertex-facet incidence."""

    dim: int
    facets: Tuple[Tuple[str, Tuple[int, ...]], ...]   # (facet id, inward normal)
    vertices: Tuple[Tuple[str, Tuple[str, ...]], ...]  # (vertex id, facet ids)

    @classmethod
    def make(cls, dim, facets, vertices) -> "PolytopeData":
        fs = tuple((str(fid), tuple(map(_integer, nrm))) for fid, nrm in facets)
        vs = tuple((str(vid), tuple(str(f) for f in fids)) for vid, fids in vertices)
        return cls(_integer(dim), fs, vs)

    @classmethod
    def from_json_dict(cls, obj) -> "PolytopeData":
        """Polytope from a parsed JSON file, without make's conversions:
        KeyError, TypeError or ValueError unless `dim` and the normal entries
        are JSON integers, the ids JSON strings and the lists JSON arrays."""
        fs = [(_json_str(fid), tuple(map(_json_int, _json_list(nrm))))
              for fid, nrm in map(_json_list, _json_list(obj["facets"]))]
        vs = [(_json_str(vid), tuple(map(_json_str, _json_list(fids))))
              for vid, fids in map(_json_list, _json_list(obj["vertices"]))]
        return cls(_json_int(obj["dim"]), tuple(fs), tuple(vs))


def build_polytope(data: PolytopeData) -> Tuple[StratSpace, CoefficientSystem]:
    """Face poset of a simple polytope as a toric stratification.

    Faces are cut out by subsets of the facets through a vertex; the
    stabilizer of a face is spanned by the normals of the facets containing
    it.  Simplicity is enforced at the vertices: exactly dim facets with
    linearly independent normals each.
    """
    n = data.dim
    normals = {}
    for fid, nrm in data.facets:
        if fid in normals:
            raise MalformedPolytopeError(f"duplicate facet id {fid!r}")
        if len(nrm) != n:
            raise MalformedPolytopeError(f"facet {fid!r}: normal has wrong length")
        normals[fid] = nrm
    vfacets: Dict[str, frozenset] = {}
    for vid, fids in data.vertices:
        if vid in vfacets or vid in normals:
            raise MalformedPolytopeError(f"duplicate id {vid!r}")
        for f in fids:
            if f not in normals:
                raise MalformedPolytopeError(f"vertex {vid!r} uses unknown facet {f!r}")
        if len(set(fids)) != n:
            raise MalformedPolytopeError(
                f"vertex {vid!r} lies on {len(set(fids))} facets, expected {n}"
            )
        if rank(RatMatrix.from_rows([normals[f] for f in fids])) != n:
            raise MalformedPolytopeError(
                f"vertex {vid!r}: facet normals are linearly dependent"
            )
        vfacets[vid] = frozenset(fids)
    if not vfacets:
        raise MalformedPolytopeError("polytope needs at least one vertex")
    seen = {}
    for vid, fs in vfacets.items():
        if fs in seen:
            raise MalformedPolytopeError(
                f"vertices {seen[fs]!r} and {vid!r} lie on the same facets"
            )
        seen[fs] = vid

    # every face is the set of vertices sharing a facet subset taken at a vertex
    faces: Dict[frozenset, frozenset] = {}   # vertex set -> facet set of the face
    for vid, fs in vfacets.items():
        for r in range(n + 1):
            for sub in itertools.combinations(sorted(fs), r):
                vs = frozenset(w for w, wf in vfacets.items() if wf.issuperset(sub))
                common = frozenset.intersection(*(vfacets[w] for w in vs))
                faces[vs] = common

    def face_id(vs: frozenset, fs: frozenset) -> str:
        if len(vs) == 1:
            return next(iter(vs))
        if not fs:
            return "interior"
        return "|".join(sorted(fs))

    strata = {}
    members = {}
    for vs, fs in faces.items():
        fid = face_id(vs, fs)
        if fid in strata:
            raise MalformedPolytopeError(f"face id collision at {fid!r}")
        strata[fid] = Subalgebra.span(n, [normals[f] for f in fs])
        members[fid] = vs
    order = [(a, b) for a in strata for b in strata if members[a] < members[b]]
    space = StratSpace.from_covers(n, strata, order)
    return space, moment_system(space)


def preset_polytope(name: str) -> PolytopeData:
    """Named standard polytopes used by the command line interface."""
    if name == "segment":
        return PolytopeData.make(
            1,
            [("left", (1,)), ("right", (-1,))],
            [("v0", ("left",)), ("v1", ("right",))],
        )
    if name == "triangle":
        return PolytopeData.make(
            2,
            [("a", (1, 0)), ("b", (0, 1)), ("c", (-1, -1))],
            [("v0", ("a", "b")), ("v1", ("b", "c")), ("v2", ("a", "c"))],
        )
    if name == "square":
        return PolytopeData.make(
            2,
            [("left", (1, 0)), ("bottom", (0, 1)), ("right", (-1, 0)), ("top", (0, -1))],
            [
                ("v00", ("left", "bottom")),
                ("v01", ("left", "top")),
                ("v10", ("right", "bottom")),
                ("v11", ("right", "top")),
            ],
        )
    if name == "pentagon":
        # square with one corner cut by the facet x + y <= const
        return PolytopeData.make(
            2,
            [
                ("left", (1, 0)),
                ("bottom", (0, 1)),
                ("right", (-1, 0)),
                ("top", (0, -1)),
                ("cut", (-1, -1)),
            ],
            [
                ("v00", ("left", "bottom")),
                ("v01", ("left", "top")),
                ("v10", ("right", "bottom")),
                ("vt", ("top", "cut")),
                ("vr", ("right", "cut")),
            ],
        )
    if name == "cube":
        facets = [
            ("x0", (1, 0, 0)),
            ("x1", (-1, 0, 0)),
            ("y0", (0, 1, 0)),
            ("y1", (0, -1, 0)),
            ("z0", (0, 0, 1)),
            ("z1", (0, 0, -1)),
        ]
        vertices = []
        for i, j, k in itertools.product((0, 1), repeat=3):
            vertices.append((f"v{i}{j}{k}", (f"x{i}", f"y{j}", f"z{k}")))
        return PolytopeData.make(3, facets, vertices)
    raise ValueError(f"unknown polytope preset {name!r}")


def build_product(
    s1: Tuple[StratSpace, CoefficientSystem],
    s2: Tuple[StratSpace, CoefficientSystem],
) -> Tuple[StratSpace, CoefficientSystem]:
    """Product action: strata are pairs, stabilizers are direct sums.

    Both inputs must carry their moment systems (ValueError names the first
    factor, left for s1 and right for s2, that does not); the result carries
    the moment system of the product, whose blocks restrict to the factors.
    The block-diagonal rows of two Hermite bases are echelon with positive
    pivots and zeros above the second block's pivots, and a direct sum of
    saturated lattices is saturated, so they are already the canonical
    basis of the direct sum.
    """
    for side, (space, system) in (("left", s1), ("right", s2)):
        if not _is_moment_system(space, system):
            raise ValueError(f"the {side} factor's system is not the moment system of its space")
    space1, space2 = s1[0], s2[0]
    n1, n2 = space1.torus_dim, space2.torus_dim
    strata = {}
    for a in space1.ids:
        ra = tuple(r + (0,) * n2 for r in space1.stabilizer(a).basis_rows)
        for b in space2.ids:
            rb = tuple((0,) * n1 + r for r in space2.stabilizer(b).basis_rows)
            name = f"{a}*{b}"
            if name in strata:
                raise ValueError(f"product id collision at {name!r}")
            strata[name] = Subalgebra(n1 + n2, ra + rb)
    covers = []
    for a, b in space1.covers:
        for c in space2.ids:
            covers.append((f"{a}*{c}", f"{b}*{c}"))
    for c, d in space2.covers:
        for a in space1.ids:
            covers.append((f"{a}*{c}", f"{a}*{d}"))
    space = StratSpace.from_covers(n1 + n2, strata, covers)
    return space, moment_system(space)


# ---------------------------------------------------------------------------
# serializable description

def _json_int(x) -> int:
    """x when it is a JSON integer; ValueError for anything else.

    Floats (1.5, or 1e400, which JSON reads as infinity) and booleans are
    not integers, however int() would round or convert them.
    """
    if type(x) is not int:   # bool is a subclass of int
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _json_list(x) -> list:
    """x when it is a JSON array; TypeError otherwise (iterating "12" gives a row)."""
    if not isinstance(x, list):
        raise TypeError(f"expected an array, got {x!r}")
    return x


def _json_str(x) -> str:
    """x when it is a JSON string; TypeError for anything else.

    Stratum ids are names: str() would turn null, 1.5 or a list into one.
    """
    if not isinstance(x, str):
        raise TypeError(f"expected a string, got {x!r}")
    return x


@dataclass
class SpaceDescription:
    """JSON-facing description of a space, with an optional explicit system.

    Stabilizer generators need not be canonical; they are canonicalized on
    construction.  When `dims`/`projections` are present they define a
    generic coefficient system (projections at least on all cover pairs,
    other comparable pairs filled in by composition); otherwise the moment
    system is used.
    """

    torus_dim: int
    strata: List[Tuple[str, List[List[int]]]]
    covers: List[Tuple[str, str]]
    dims: Optional[Dict[str, int]] = None
    projections: Optional[List[Tuple[str, str, List[List[Fraction]]]]] = None

    @classmethod
    def from_json_dict(cls, obj) -> "SpaceDescription":
        if not isinstance(obj, dict):
            raise DescriptionError("top level must be an object")
        try:
            torus_dim = _json_int(obj["torus_dim"])
            strata_raw = obj["strata"]
            covers_raw = obj.get("covers", [])
        except (KeyError, TypeError, ValueError) as e:
            raise DescriptionError(f"missing or malformed field: {e}") from None
        if torus_dim < 0:
            raise DescriptionError(f"torus_dim must be >= 0, got {torus_dim}")
        if not isinstance(strata_raw, list) or not isinstance(covers_raw, list):
            raise DescriptionError("strata and covers must be arrays")
        strata = []
        for s in strata_raw:
            try:
                sid = _json_str(s["id"])
                basis = [[_json_int(x) for x in row] for row in s.get("stabilizer", [])]
            except (KeyError, TypeError, ValueError):
                raise DescriptionError(f"malformed stratum entry: {s!r}") from None
            strata.append((sid, basis))
        covers = []
        for c in covers_raw:
            if not isinstance(c, (list, tuple)) or len(c) != 2 or not all(
                    isinstance(e, str) for e in c):
                raise DescriptionError(f"malformed cover entry: {c!r}")
            covers.append((c[0], c[1]))
        dims = None
        if "dims" in obj:
            try:
                dims = {str(k): _json_int(v) for k, v in obj["dims"].items()}
            except (AttributeError, TypeError, ValueError):
                raise DescriptionError("malformed dims table") from None
        projections = None
        if "projections" in obj:
            projections = []
            if not isinstance(obj["projections"], list):
                raise DescriptionError("projections must be an array")
            for p in obj["projections"]:
                try:
                    x, y = _json_list(p["pair"])
                    x, y = _json_str(x), _json_str(y)
                    mat = [[Fraction(str(e)) for e in _json_list(row)]
                           for row in _json_list(p["matrix"])]
                except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
                    raise DescriptionError(f"malformed projection entry: {p!r}") from None
                projections.append((x, y, mat))
        return cls(torus_dim, strata, covers, dims, projections)

    def to_json_dict(self) -> dict:
        out = {
            "torus_dim": self.torus_dim,
            "strata": [
                {"id": sid, "stabilizer": [list(r) for r in rows]}
                for sid, rows in self.strata
            ],
            "covers": [list(c) for c in self.covers],
        }
        if self.dims is not None:
            out["dims"] = dict(sorted(self.dims.items()))
        if self.projections is not None:
            out["projections"] = [
                {"pair": [x, y], "matrix": [[str(e) for e in row] for row in mat]}
                for x, y, mat in self.projections
            ]
        return out

    @classmethod
    def from_space(cls, space: StratSpace) -> "SpaceDescription":
        return cls(
            torus_dim=space.torus_dim,
            strata=[
                (x, [list(r) for r in space.stabilizer(x).basis_rows])
                for x in space.ids
            ],
            covers=[list(c) for c in space.covers],
        )


def build_from_description(desc: SpaceDescription) -> Tuple[StratSpace, CoefficientSystem]:
    """Space and system from a description; moment system unless dims given.

    Strata with the same generator list share one canonical Subalgebra, and
    from_covers validates and solves each distinct stabilizer pair once.
    """
    if desc.dims is None and desc.projections is not None:
        raise DescriptionError("projections need a dims table")
    strata = {}
    spans = {}   # generator list -> its canonical subalgebra, shared by the strata
    for sid, basis in desc.strata:
        if sid in strata:
            raise DescriptionError(f"duplicate stratum id {sid!r}")
        key = tuple(map(tuple, basis))
        s = spans.get(key)
        if s is None:
            s = spans[key] = Subalgebra.span(desc.torus_dim, basis)
        strata[sid] = s
    space = StratSpace.from_covers(desc.torus_dim, strata, desc.covers)
    if desc.dims is None:
        return space, moment_system(space)
    for x in space.ids:
        if x not in desc.dims:
            raise DescriptionError(f"dims table misses stratum {x!r}")
    _check_shapes(space, desc.dims, {}, ())  # before any zero block is built
    covers = set(space.covers)
    cover_maps = {}
    explicit = {}
    for x, y, mat in desc.projections or []:
        if x not in strata or y not in strata:
            raise UnknownIdError(x if x not in strata else y)
        if (x, y) in cover_maps or (x, y) in explicit:
            raise DescriptionError(f"duplicate projection for pair ({x!r}, {y!r})")
        # [] has no rows to give its width: the 0-row matrix on V(x)
        m = RatMatrix.from_rows(mat) if mat else RatMatrix.zeros(0, desc.dims[x])
        if (x, y) in covers:
            cover_maps[(x, y)] = m
        else:
            explicit[(x, y)] = m
    system = CoefficientSystem.from_cover_maps(space, desc.dims, cover_maps, explicit)
    return space, system
