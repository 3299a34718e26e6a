"""Hand-entered example spaces reused across test modules."""

from assigncoh import (
    CoefficientSystem, PolytopeData, RatMatrix, StratSpace, Subalgebra, build_polytope,
    moment_system, preset_polytope,
)


def cp2():
    """Three fixed points, three edges, one open stratum under a 2-torus.

    Edge stabilizers span (0,1), (1,0), (1,1); each fixed point sits on the
    two edges whose stabilizer lines it contains.
    """
    strata = {
        "p1": Subalgebra.full(2),
        "p2": Subalgebra.full(2),
        "p3": Subalgebra.full(2),
        "e12": Subalgebra.span(2, [[0, 1]]),
        "e13": Subalgebra.span(2, [[1, 0]]),
        "e23": Subalgebra.span(2, [[1, 1]]),
        "open": Subalgebra.zero(2),
    }
    covers = [
        ("p1", "e12"), ("p2", "e12"),
        ("p1", "e13"), ("p3", "e13"),
        ("p2", "e23"), ("p3", "e23"),
        ("e12", "open"), ("e13", "open"), ("e23", "open"),
    ]
    space = StratSpace.from_covers(2, strata, covers)
    return space, moment_system(space)


CP2_FIXED = frozenset({"p1", "p2", "p3"})


def s4():
    """Two fixed poles joined by two invariant two-spheres and an open part."""
    strata = {
        "polN": Subalgebra.full(2),
        "polS": Subalgebra.full(2),
        "sph1": Subalgebra.span(2, [[0, 1]]),
        "sph2": Subalgebra.span(2, [[1, 0]]),
        "open": Subalgebra.zero(2),
    }
    covers = [
        ("polN", "sph1"), ("polS", "sph1"),
        ("polN", "sph2"), ("polS", "sph2"),
        ("sph1", "open"), ("sph2", "open"),
    ]
    space = StratSpace.from_covers(2, strata, covers)
    return space, moment_system(space)


def s4_chain(blocks):
    """Chain of plumbed four-sphere blocks sharing consecutive fixed points.

    Block i joins fixed point i to fixed point i+1 through two spheres and
    one open stratum, alternating which weight line stabilizes which sphere.
    """
    strata = {}
    covers = []
    for i in range(blocks + 1):
        strata[f"f{i}"] = Subalgebra.full(2)
    for i in range(blocks):
        a = Subalgebra.span(2, [[0, 1]] if i % 2 == 0 else [[1, 0]])
        b = Subalgebra.span(2, [[1, 0]] if i % 2 == 0 else [[0, 1]])
        strata[f"sA{i}"] = a
        strata[f"sB{i}"] = b
        strata[f"op{i}"] = Subalgebra.zero(2)
        covers += [
            (f"f{i}", f"sA{i}"), (f"f{i + 1}", f"sA{i}"),
            (f"f{i}", f"sB{i}"), (f"f{i + 1}", f"sB{i}"),
            (f"sA{i}", f"op{i}"), (f"sB{i}", f"op{i}"),
        ]
    space = StratSpace.from_covers(2, strata, covers)
    return space, moment_system(space)


def two_stratum():
    """Fixed point below a free open stratum for a circle."""
    space = StratSpace.from_covers(
        1,
        {"pt": Subalgebra.full(1), "open": Subalgebra.zero(1)},
        [("pt", "open")],
    )
    return space, moment_system(space)


def free_stratum():
    """Single stratum, trivial stabilizer: the zero moment system."""
    space = StratSpace.from_covers(1, {"only": Subalgebra.zero(1)}, [])
    return space, moment_system(space)


def zero_system(space):
    """The zero coefficient system over any space."""
    dims = {x: 0 for x in space.ids}
    proj = {}
    for x, y in space.comparable_pairs():
        proj[(x, y)] = RatMatrix.zeros(0, 0)
    for x in space.ids:
        proj[(x, x)] = RatMatrix.zeros(0, 0)
    return CoefficientSystem(space, dims, proj)


def cube_broken_on_a_face():
    """The cube's moment system with the explicit entry of one (vertex,
    face) pair doubled: its laws fail only inside that face's closed
    downset.  Returns the space, the system and that downset."""
    space, cube = build_polytope(preset_polytope("cube"))
    face = next(x for x in space.ids if space.stabilizer(x).dim == 1)
    vertex = space.below(face)[0]
    explicit = {(vertex, face): RatMatrix.from_rows(
        [[2 * x for x in row] for row in cube.proj(vertex, face).data])}
    v = CoefficientSystem.from_cover_maps(
        space, cube.dims, {c: cube.proj(*c) for c in space.covers}, explicit)
    return space, v, frozenset(space.below(face)) | {face}


def truncated(data, rng, cuts):
    """The simple polytope left after cutting `cuts` random vertices off data.

    Cutting vertex v adds a facet whose inward normal is the sum of the
    normals of the facets through v, and replaces v by one vertex per facet
    F through v, on v's other facets and the new one.  The normals at every
    vertex stay independent, so the result is simple, with one more facet
    per cut.  Needs dim >= 2, where every facet through v keeps a vertex.
    """
    normals = dict(data.facets)
    vertices = dict(data.vertices)
    for k in range(cuts):
        v = rng.choice(sorted(vertices))
        fs = vertices.pop(v)
        cut = f"t{k}"
        normals[cut] = tuple(map(sum, zip(*(normals[f] for f in fs))))
        for f in fs:
            vertices[f"{v}-{f}"] = tuple(g for g in fs if g != f) + (cut,)
    return PolytopeData.make(data.dim, normals.items(), vertices.items())
