"""Cochain complexes, cohomology, homotopies, relative/LES machinery."""

import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from assigncoh import (
    AssignmentVector,
    CoefficientSystem,
    IncompatibleMinimalValuesError,
    MinimalAssignment,
    SystemMismatchError,
    NoUniqueMinimumError,
    build_polytope,
    NotExactError,
    NotUnionOfStrataError,
    PosetMap,
    RatMatrix,
    SpaceDescription,
    StratSpace,
    Subalgebra,
    SystemMorphism,
    assignment_basis,
    block_scaling_matrix,
    build_from_description,
    build_linear_rep,
    build_product,
    build_sphere_product,
    chain_basis,
    chain_space_dim,
    chains,
    check_functor,
    cohomology,
    differential_matrix,
    euler_characteristic,
    extend_minimal,
    homotopy_L,
    homotopy_Q,
    is_assignment,
    les_coefficients_check,
    les_pair_check,
    minimal_strata,
    moment_system,
    pair_ses,
    preset_polytope,
    pullback,
    pullback_matrix,
    quotient_system,
    relative_cohomology,
    ses_check,
)
import assigncoh.cochain
import assigncoh.stratposet
from assigncoh.cochain import (
    ChainBasis,
    Cochain,
    CohomologyResult,
    _CohomologyData,
    _Complex,
    _carry,
    _differential,
    _exactness_walk,
)
from assigncoh.coeffsys import _kept_on, square_failures
from assigncoh.errors import BrokenProjectionError, InvalidMorphismError, UnknownIdError
from assigncoh.ratlin import (
    _apply, _combine, _forward, _transpose, sparse_echelon, sparse_kernel, sparse_rref,
)
from assigncoh.stratposet import MorphismReport, poset_morphism_check

from oracles import (
    ReferenceCohomologyData,
    _composes_to_zero,
    brute_cohomology_dim,
    brute_differential,
    brute_rank,
    d_squared_witness,
    dense_blocks,
    kernel_forest,
    pair_sequence_on_kept_systems,
    per_pair_extend,
    per_pair_violations,
    reference_block_scaling,
    reference_chain_differential,
    reference_homotopy_L,
    reference_homotopy_Q,
    reference_pullback,
    relative_on_kept_system,
    system_adapter,
)
from spaces import (
    CP2_FIXED,
    cp2,
    cube_broken_on_a_face,
    free_stratum,
    s4,
    s4_chain,
    truncated,
    two_stratum,
    zero_system,
)
from test_coeffsys import _cut_cases
from test_ratlin import _typed

S6 = build_sphere_product(2, [(1, 0), (0, 1), (1, -1)])


def _poly(name):
    return build_polytope(preset_polytope(name))


def _nullity(m):
    return m.cols - brute_rank([list(r) for r in m.data])


# ---------------------------------------------------------------------------
# differentials

@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("make", [cp2, lambda: S6])
def test_d_squared_is_zero(make, strict):
    _, v = make()
    for k in range(4):
        d0 = differential_matrix(v, k, strict=strict)
        d1 = differential_matrix(v, k + 1, strict=strict)
        assert (d1 @ d0).is_zero()


def test_d_squared_witness_matches_dense_product():
    space, v = cp2()
    proj = {pair: v.proj(*pair) for pair in v.pairs()}
    # a non-identity self-projection breaks d^2 = 0 on weak tuples only
    proj[("e12", "e12")] = RatMatrix.from_rows([[2]])
    bad = CoefficientSystem(space, v.dims, proj)
    for system in (v, bad):
        for strict in (True, False):
            dense = next((k for k in range(3) if not (
                differential_matrix(system, k + 1, strict=strict)
                @ differential_matrix(system, k, strict=strict)).is_zero()), None)
            assert d_squared_witness(system, 2, strict=strict) == dense
    assert d_squared_witness(bad, 2, strict=False) == 0


def _constant_system(space, n):
    """The constant functor Q^n: every tuple has a nonzero block."""
    return CoefficientSystem.from_cover_maps(
        space, dict.fromkeys(space.ids, n),
        {pair: RatMatrix.identity(n) for pair in space.covers})


def _with(v, blocks):
    """v with the given projection blocks replaced."""
    proj = {pair: v.proj(*pair) for pair in v.pairs()}
    proj.update(blocks)
    return CoefficientSystem(v.space, v.dims, proj)


def _perturbed(rng, v, pairs):
    """v with a new random block on one of `pairs` whose two strata have nonzero dim."""
    x, y = rng.choice([(x, y) for x, y in pairs if v.dims[x] and v.dims[y]])
    new = v.proj(x, y)
    while new == v.proj(x, y):
        new = RatMatrix(v.dims[y], v.dims[x],
                        [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                          for _ in range(v.dims[x])] for _ in range(v.dims[y])])
    return _with(v, {(x, y): new})


def test_idempotent_identity_breaks_the_functor_laws_but_not_d_squared():
    # proj(open, open) = P with P^2 = P, and every map into open lands in the
    # image of P: D(a, open, open), D(a, a, open) and D(open, open, open) vanish
    space, _ = cp2()
    v = _constant_system(space, 2)
    p = RatMatrix.from_rows([[1, 0], [0, 0]])
    w = _with(v, {(x, y): p for x, y in v.pairs() if y == "open"})
    report = check_functor(w)
    assert report.identity_violations == ("open",)
    assert not report.composition_violations
    assert not square_failures(w, strict=False)
    for strict in (False, True):
        assert d_squared_witness(w, 3, strict=strict) is None


def test_closed_form_reads_each_repeat_product():
    # each case breaks exactly one of P P = P, proj(x, c) P = proj(x, c) and
    # P proj(a, x) = proj(a, x), or none, at the one identity violation x
    space, _ = cp2()
    v = _constant_system(space, 2)
    p = RatMatrix.from_rows([[1, 0], [0, 0]])
    nil = RatMatrix.from_rows([[0, 1], [0, 0]])
    zero = RatMatrix.zeros(2, 2)
    cases = {
        # nothing leaves the top stratum and only zero maps enter it
        "square": ({("open", "open"): nil}
                   | {(a, "open"): zero for a in space.ids if a != "open"}, False),
        "into": ({("open", "open"): p}, False),
        # nothing enters the minimal stratum p1
        "out of": ({("p1", "p1"): p}, False),
        "none": ({("p1", "p1"): p} | {("p1", c): p for c in space.above("p1")}, True),
    }
    for name, (blocks, ok) in cases.items():
        w = _with(v, blocks)
        report = check_functor(w)
        assert report.identity_violations and not report.composition_violations, name
        assert (not square_failures(w, strict=False)) == ok, name
        assert (d_squared_witness(w, 3, strict=False) is None) == ok, name


@pytest.mark.parametrize("make", [
    lambda: _poly("cube"), cp2, lambda: S6,
    lambda: build_product(_poly("square"), _poly("segment")),
], ids=["cube", "cp2", "s6", "square*segment"])
def test_degree_zero_witness_decides_degrees_zero_to_three_seeded(make):
    # every non-cancelling block of d_{k+1} d_k is +-D(x_k, x_{k+1}, x_{k+2}),
    # and that triple is a tuple of degree 2: `check` reads the D blocks off
    # the functor report (square_failures), and the assembled product
    # through degree 3 is the reference for that verdict and for the strict
    # complex's degree-0 witness
    rng = random.Random(97)
    space, moment = make()
    identities = [(x, x) for x in space.ids]
    others = space.comparable_pairs()
    kinds = {"identity": [identities], "composition": [others],
             "mixed": [identities, others]}
    seen = Counter()
    for base in (moment, _constant_system(space, 2)):
        cases = [("none", base)]
        for kind, groups in kinds.items():
            for _ in range(3):
                w = base
                for pairs in groups:
                    w = _perturbed(rng, w, pairs)
                cases.append((kind, w))
        for kind, w in cases:
            weak = d_squared_witness(w, 3, strict=False)
            assert (not square_failures(w, strict=False)) == (weak is None), kind
            strict = d_squared_witness(w, 3, strict=True)
            assert d_squared_witness(w, 0, strict=True) == strict, kind
            seen[kind, False, weak] += 1
            seen[kind, True, strict] += 1
    # perturbations do break d^2; the strict complex never reads proj(x, x)
    assert seen["identity", False, 0] and seen["composition", False, 0]
    assert seen["mixed", False, 0] and seen["composition", True, 0]
    assert not seen["identity", True, 0]
    assert seen["none", False, None] == seen["none", True, None] == 2


@pytest.mark.parametrize("make", [
    lambda: _poly("cube"), cp2, lambda: S6,
    lambda: build_product(_poly("square"), _poly("segment")),
], ids=["cube", "cp2", "s6", "square*segment"])
def test_square_failures_decide_every_degree_of_every_complex_seeded(make, monkeypatch):
    # `_Complex.data` refuses degree k >= 1 where a tuple t of degree k+1
    # ends in a failing triple and keeps t[:-2] (`square_failures`); the
    # assembled product d_k d_{k-1} (`_composes_to_zero`) is the reference,
    # on strict and weak complexes with no support, "rel" and "sub".  Only
    # the verdict is compared, so no degree is eliminated.  The failing
    # triples themselves are the dense walk over every triple of degree 2.
    monkeypatch.setattr(assigncoh.cochain, "_CohomologyData", lambda *args: None)
    rng = random.Random(53)
    space, moment = make()
    identities = [(x, x) for x in space.ids]
    others = space.comparable_pairs()
    kinds = {"identity": [identities], "composition": [others],
             "mixed": [identities, others]}
    seen = Counter()
    for base in (moment, _constant_system(space, 2)):
        cases = [("none", base)]
        for kind, groups in kinds.items():
            for _ in range(3):
                w = base
                for pairs in groups:
                    w = _perturbed(rng, w, pairs)
                cases.append((kind, w))
        for kind, w in cases:
            nset = frozenset(rng.sample(space.ids, len(space.ids) // 2))
            answers = {}
            for strict in (True, False):
                assert square_failures(w, strict) == {
                    (a, b, c) for a, b, c in chains(space, 2, strict)
                    if w.proj(b, c) @ w.proj(a, b) != w.proj(a, c)}, (kind, strict)
                whole = _Complex(w, strict)
                for support in (None, ("rel", nset), ("sub", nset)):
                    cx = whole if support is None else _Complex(w, strict, support, whole)
                    for k in (1, 2, 3):
                        zero = _composes_to_zero(
                            _transpose(cx.d(k - 1), cx.basis(k - 1).total_dim),
                            cx.d(k), cx.basis(k).total_dim)
                        try:
                            cx.data(k)
                        except ValueError as e:
                            assert f"degree {k} has no cohomology" in str(e)
                            answered = False
                        else:
                            answered = True
                        assert answered == zero, (kind, strict, support, k)
                        answers[strict, support and support[0], k] = zero
                        seen["cases"] += 1
                        seen["refused"] += not zero
                        seen["answers with failing triples"] += (
                            zero and bool(square_failures(w, strict)))
                    assert cx.data(0) is None
            for k in (1, 2, 3):
                seen["identity fault: weak refuses, strict answers"] += (
                    kind == "identity" and answers[True, None, k]
                    and not answers[False, None, k])
                seen["rel answers, whole refuses"] += sum(
                    answers[strict, "rel", k] and not answers[strict, None, k]
                    for strict in (True, False))
    assert seen["cases"] == 360 and seen["refused"]
    assert seen["identity fault: weak refuses, strict answers"]
    assert seen["rel answers, whole refuses"]
    assert seen["answers with failing triples"]


def test_full_complex_refuses_off_the_laws_before_any_tuple(monkeypatch):
    """The full complex refuses a degree k >= 1 from the failing triples and
    the weak tuples of degree at most 1: a failing (a, b, c) decides where a
    kept weak (x, a) ends at a, since (x,)*(k-1) + (a, b, c) is kept with it
    ("sub": where b and c lie in N).  On the cube broken on a face, alone,
    relative to the face's upset and on the face's closed downset, weak
    chains above degree 1 are refused here, so degree 10**6 must be refused
    without enumerating any."""
    space, v, downset = cube_broken_on_a_face()
    assert square_failures(v, False)
    top = assigncoh.cochain._top_degree(space)
    face = next(x for x in space.ids if space.stabilizer(x).dim == 1)
    upset = space.upset(face)
    enumerate_chains = assigncoh.cochain.chains

    def bounded(space, k, strict):
        assert strict or k <= 1, f"weak chains of degree {k} enumerated"
        return enumerate_chains(space, k, strict)

    monkeypatch.setattr(assigncoh.cochain, "chains", bounded)
    for k in (1, top + 2, 10 ** 6):
        asks = [lambda: _Complex(v, False).result(k), lambda: cohomology(v, k, strict=False),
                lambda: _Complex(v, False, ("rel", upset)).result(k),
                lambda: relative_cohomology(v, upset, k, strict=False),
                lambda: _Complex(v, False, ("sub", downset)).result(k)]
        for ask in asks:
            with pytest.raises(ValueError, match=f"^degree {k} has no cohomology: "):
                ask()


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_differential_matches_brute_oracle(k, strict):
    _, v = cp2()
    ids, leq, dims, proj_rows = system_adapter(v)
    ours = differential_matrix(v, k, strict=strict)
    theirs, src_dim, dst_dim = brute_differential(ids, leq, dims, proj_rows, k, strict)
    assert (ours.rows, ours.cols) == (dst_dim, src_dim)
    assert [list(r) for r in ours.data] == theirs


@pytest.mark.parametrize("make", [cp2, lambda: _poly("cube"), lambda: S6],
                         ids=["cp2", "cube", "s6"])
def test_chain_differential_matches_one_term_per_face_seeded(make):
    """The rows `_differential` writes from each tuple's faces, building no
    face that cancels, equal those of one `_assemble` term per face
    (`reference_chain_differential`): on both complexes, with no support,
    "rel" and "sub", in degrees 0-3 and on degree 0's cut rows, for the
    moment system, the constant Q^2, a system with blocks of width 0 and
    systems off the identity and composition laws."""
    rng = random.Random(61)
    space, moment = make()
    identities = [(x, x) for x in space.ids]
    systems = [moment, _constant_system(space, 2), _random_dims_system(rng, space)]
    systems += [_perturbed(rng, w, identities) for w in systems]
    systems.append(_perturbed(rng, systems[1], space.comparable_pairs()))
    assert all(check_functor(w).identity_violations for w in systems[3:6])
    rows = Counter()
    for v in systems:
        nset = frozenset(rng.sample(space.ids, len(space.ids) // 2))
        for strict in (True, False):
            for support in (None, ("rel", nset), ("sub", nset)):
                cx = _Complex(v, strict, support)
                for k in range(4):
                    src, dst = cx.basis(k), cx.basis(k + 1)
                    got = _differential(v, src, dst)
                    assert got == reference_chain_differential(v, src, dst), (strict, support, k)
                    rows[strict] += sum(map(bool, got))
        src, cut = _Complex(v).basis(0), ChainBasis(v, 1, True, v._cut)
        assert _differential(v, src, cut) == reference_chain_differential(v, src, cut)
    assert rows[True] and rows[False]


def test_zero_system_has_zero_chain_spaces():
    space, _ = cp2()
    v = zero_system(space)
    for k in range(3):
        assert chain_space_dim(v, k, strict=True) == 0
        assert chain_space_dim(v, k, strict=False) == 0
        d = differential_matrix(v, k, strict=False)
        assert d.rows == 0 and d.cols == 0


def test_two_stratum_space():
    _, v = two_stratum()
    # d0 on the strict complex lands in a zero space: one fixed point of
    # weight (1) inside the open stratum pins nothing.
    d0 = differential_matrix(v, 0, strict=True)
    assert d0.rows == 0 and d0.cols == 1
    assert cohomology(v, 0).dim == 1
    assert cohomology(v, 0, strict=False).dim == 1
    assert cohomology(v, 1).dim == 0


# ---------------------------------------------------------------------------
# cohomology dimensions

def test_cp2_cohomology_dims():
    _, v = cp2()
    assert [cohomology(v, k).dim for k in range(3)] == [3, 0, 0]


def test_cp2_matches_brute_oracle():
    _, v = cp2()
    ids, leq, dims, proj_rows = system_adapter(v)
    for k in range(3):
        want = brute_cohomology_dim(ids, leq, dims, proj_rows, k, strict=True)
        assert cohomology(v, k).dim == want


def test_three_sphere_product_dims():
    _, v = S6
    assert chain_space_dim(v, 0) == 28
    assert chain_space_dim(v, 1) == 24
    assert cohomology(v, 0).dim == 5
    assert cohomology(v, 1).dim == 1


def test_triangle_higher_degrees_vanish():
    _, v = _poly("triangle")
    assert cohomology(v, 0).dim == 3
    for k in (1, 2, 3):
        assert cohomology(v, k).dim == 0


def test_negative_degree_rejected():
    _, v = cp2()
    with pytest.raises(ValueError):
        cohomology(v, -1)


def test_representatives_are_cocycles():
    _, v = S6
    res = cohomology(v, 1)
    d1 = differential_matrix(v, 1, strict=True)
    assert len(res.representatives) == res.dim
    for rep in res.representatives:
        assert isinstance(rep, Cochain)
        assert all(c == 0 for c in d1.apply(rep.coords))
    assert res.diagnostics["dim_chain"] == 24


def test_value_on_an_unknown_id_names_it():
    _, v = _poly("square")
    rep = cohomology(v, 0).representatives[0]
    assert rep.value_on(("v00",)) == rep.as_dict().get(("v00",), [0, 0])
    for cochain, t in ((rep, ("nope",)),
                       (Cochain(chain_basis(v, 1), [0] * chain_space_dim(v, 1)), ("v00", "nope"))):
        with pytest.raises(UnknownIdError) as exc:
            cochain.value_on(t)
        assert exc.value.stratum_id == "nope"
    # a tuple of known ids that is no chain has the zero value
    assert Cochain(chain_basis(v, 1), [1] * chain_space_dim(v, 1)).value_on(
        ("v00", "v11")) == [0, 0]


def _cp2_zero():
    space, _ = cp2()
    return space, zero_system(space)


@pytest.mark.parametrize("make", [cp2, s4, lambda: s4_chain(2), two_stratum, free_stratum,
                                  _cp2_zero])
def test_sparse_and_dense_cochains_read_alike_seeded(make):
    """A cochain kept as its sparse row reads as one built from dense coordinates.

    On degrees 0-2 of both complexes: the representatives, which `result`
    wraps without densifying, against the dense rows of their RREF, and
    seeded rows of ints and Fractions; every block is checked against a
    slice of the dense coordinates.
    """
    rng = random.Random(28)
    _, v = make()
    for strict in (True, False):
        cx = _Complex(v, strict)
        for k in range(3):
            basis = cx.basis(k)
            n = basis.total_dim
            rows = [dict(r) for r in cx.data(k)._rep_rows]
            rows += [{j: rng.choice((1, -2, Fraction(3, 4), Fraction(-5, 3)))
                      for j in rng.sample(range(n), rng.randint(0, min(n, 5)))}
                     for _ in range(4)]
            sparse_reps = cx.result(k).representatives
            assert [rep._row for rep in sparse_reps] == rows[:len(sparse_reps)]
            for row in rows:
                dense = [Fraction(row.get(j, 0)) for j in range(n)]
                mixed = [row.get(j, 0) for j in range(n)]  # ints and Fractions
                for c in (Cochain._from_row(basis, row), Cochain(basis, dense),
                          Cochain(basis, mixed)):
                    assert c.coords == tuple(dense)
                    assert all(type(x) is Fraction for x in c.coords)
                    want = {}
                    for t, off, w in zip(basis.tuples, basis.offsets, basis.block_dims):
                        assert c.value_on(t) == dense[off:off + w]
                        assert all(type(x) is Fraction for x in c.value_on(t))
                        if any(dense[off:off + w]):
                            want[t] = dense[off:off + w]
                    assert c.as_dict() == want
                    assert all(type(x) is Fraction for vals in c.as_dict().values()
                               for x in vals)
                    assert repr(c) == f"Cochain(degree={k}, {want})"


def test_nonzero_blocks_are_the_dense_walks_nonzero_blocks_seeded():
    """`Cochain._nonzero_blocks` finds each block from the row's columns
    (`ChainBasis._split`); it gives exactly the blocks of the dense walk
    (`oracles.dense_blocks`) that are not all zero, in basis order.  The bases: both complexes, R's cells, a
    relative basis filtered from the chains and one of v off a down-closed
    subset, on moment systems (width 0 at the open strata) and systems
    with blocks of width 0 anywhere; the rows: representatives and seeded
    rows, some at the first column of a block."""
    rng = random.Random(31)
    walked = Counter()
    for make in (cp2, s4, lambda: _poly("cube"), lambda: S6):
        space, moment = make()
        for v in (moment, _random_dims_system(rng, space)):
            nset = frozenset(rng.sample(space.ids, len(space.ids) // 2))
            down = frozenset(space.below(rng.choice(space.ids)))
            complexes = [_Complex(v, True), _Complex(v, False),
                         _Complex(v, True, resolution=assigncoh.cochain._forest(space, 3)),
                         _Complex(v, False, support=("rel", nset)),
                         _Complex(quotient_system(v, down), True)]
            for cx in complexes:
                for k in range(3):
                    basis = cx.basis(k)
                    n = basis.total_dim
                    starts = [off for off, w in zip(basis.offsets, basis.block_dims) if w]
                    # a system off the functor laws has no classes to read
                    rows = list(cx.data(k)._rep_rows) if check_functor(v).ok else []
                    rows += [{j: rng.choice((1, -2, Fraction(3, 4)))
                              for j in rng.sample(range(n), rng.randint(0, min(n, 4)))
                              + rng.sample(starts, min(len(starts), 2))}
                             for _ in range(3)]
                    walked["zero-width"] += 0 in basis.block_dims
                    for row in rows:
                        c = Cochain._from_row(basis, row)
                        want = [(t, vals) for t, vals in dense_blocks(c) if any(vals)]
                        assert list(c._nonzero_blocks()) == want
                        walked["blocks"] += len(want)
    assert walked["zero-width"] and walked["blocks"]


def test_euler_characteristics():
    _, v2 = cp2()
    _, v6 = S6
    assert euler_characteristic(v2) == 3
    assert euler_characteristic(v6) == 4
    space, _ = cp2()
    assert euler_characteristic(zero_system(space)) == 0


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "weak"])
def test_counted_chain_dims_match_enumeration_seeded(strict):
    # chain_space_dim counts chains ending at each stratum; the chains that
    # `chains` enumerates, weighted by the top stratum's dim, are the reference
    rng = random.Random(29)
    makers = [cp2, s4, two_stratum, free_stratum, lambda: _poly("cube"), lambda: S6,
              lambda: build_product(_poly("square"), _poly("segment"))]
    for make in makers:
        space, v = make()
        for w in (v, _random_dims_system(rng, space), _random_dims_system(rng, space)):
            for k in range(5):
                want = sum(w.dims[t[-1]] for t in chains(space, k, strict))
                assert chain_space_dim(w, k, strict) == want, (k, strict)
    with pytest.raises(ValueError, match="chain degree must be >= 0"):
        chain_space_dim(v, -1, strict)


def _weak_counts(space):
    """N_0, N_1, ...: the weak chains of k+1 strata ending at each stratum,
    by the recurrence N_k(y) = sum over x <= y of N_{k-1}(x)."""
    counts = dict.fromkeys(space.ids, 1)
    while True:
        yield counts
        counts = {y: sum(counts[x] for x in space.below(y)) + counts[y] for y in space.ids}


@pytest.mark.parametrize("make", [cp2, s4, lambda: s4_chain(2), two_stratum, free_stratum,
                                  _cp2_zero])
def test_chain_counts_in_closed_form_match_the_recurrences(make):
    """dim C^k = sum_i T_i C(k, i) on the full complex, and the alternating
    sum behind `cohomology`'s rank_coboundaries in closed form, agree with
    the weak recurrence and the rank recurrence rank d_k = dim C^k -
    dim H^k - rank d_{k-1} for k <= 30, on both complexes."""
    space, v = make()
    h = [cohomology(v, k).dim for k in range(31)]
    for strict in (True, False):
        if strict:
            counts = [Counter(t[-1] for t in chains(space, k, True)) for k in range(31)]
        else:
            counts = [c for c, _ in zip(_weak_counts(space), range(31))]
        sizes = [sum(v.dims[y] * n for y, n in c.items()) for c in counts]
        rank = 0
        for k in range(31):
            assert chain_space_dim(v, k, strict) == sizes[k], (strict, k)
            if k:
                diag = cohomology(v, k, strict).diagnostics
                assert diag == {"dim_chain": sizes[k], "dim_cocycles": rank + h[k],
                                "rank_coboundaries": rank}, (strict, k)
            rank = sizes[k] - h[k] - rank


def test_counted_chain_dims_reach_large_degrees():
    cube = _poly("cube")
    _, cc = build_product(cube, cube)
    assert chain_space_dim(cc, 2, strict=False) == 201_684
    assert chain_space_dim(cube[1], 1000, strict=False) == 24_072_054
    assert chain_space_dim(cube[1], 1000, strict=True) == 0


@pytest.mark.parametrize("make", [
    lambda: _poly("cube"), cp2, lambda: S6,
    lambda: build_product(_poly("square"), _poly("segment")),
], ids=["cube", "cp2", "s6", "square*segment"])
def test_every_successful_extend_is_an_assignment_seeded(make):
    # on a perturbed system the pushes from the minimal strata can agree and
    # still break a projection higher up: extend_minimal then refuses on the
    # system's cut, naming the pair, and whatever it returns is an assignment
    rng = random.Random(71)
    space, moment = make()
    minima = minimal_strata(space)
    others = space.comparable_pairs()
    seen = Counter()
    for base in (moment, _constant_system(space, 2)):
        basis = assignment_basis(base)
        for _ in range(5):
            w = _perturbed(rng, base, others)
            for _ in range(4):
                coeffs = [rng.randint(-2, 2) for _ in basis]
                values = {x: tuple(sum(c * a.value(x)[i] for c, a in zip(coeffs, basis))
                                   for i in range(base.dims[x])) for x in minima}
                try:
                    a = extend_minimal(w, MinimalAssignment(values))
                except BrokenProjectionError as e:
                    assert e.pair in w._cut
                    seen["cut"] += 1
                except IncompatibleMinimalValuesError:
                    seen["pushes"] += 1
                else:
                    assert is_assignment(w, a).ok
                    seen["ok"] += 1
    assert seen["ok"] and seen["cut"], seen


def _explicit_on_covers(rng, v, pairs):
    """v rebuilt from its cover maps, with one cover map or one explicit entry
    on a pair of `pairs` that is no cover replaced by a random block."""
    space = v.space
    covers = {c: v.proj(*c) for c in space.covers}
    x, y = rng.choice([(x, y) for x, y in pairs if v.dims[x] and v.dims[y]])
    new = RatMatrix(v.dims[y], v.dims[x],
                    [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                      for _ in range(v.dims[x])] for _ in range(v.dims[y])])
    if (x, y) in covers:
        covers[(x, y)] = new
        return CoefficientSystem.from_cover_maps(space, v.dims, covers)
    return CoefficientSystem.from_cover_maps(space, v.dims, covers, {(x, y): new})


@pytest.mark.parametrize("make", [
    lambda: _poly("cube"), cp2, lambda: S6,
    lambda: build_product(_poly("square"), _poly("segment")),
], ids=["cube", "cp2", "s6", "square*segment"])
def test_extend_matches_the_per_pair_walk_seeded(make):
    # values pushed along the cover route against each pair's rows applied to
    # the minimal value, on the systems of the test above and on systems
    # built from cover maps with an explicit entry or a changed cover map,
    # where the route and the explicit entry differ
    rng = random.Random(72)
    space, moment = make()
    minima = minimal_strata(space)
    from_minima = [(x, y) for x in minima for y in space.above(x)]
    seen = Counter()
    for base in (moment, _constant_system(space, 2)):
        basis = assignment_basis(base)
        systems = [base]
        for _ in range(4):
            systems += [_perturbed(rng, base, space.comparable_pairs()),
                        _explicit_on_covers(rng, base, from_minima),
                        _explicit_on_covers(rng, base, space.comparable_pairs())]
        for w in systems:
            for _ in range(4):
                coeffs = [rng.randint(-2, 2) for _ in basis]
                values = {x: tuple(sum(c * a.value(x)[i] for c, a in zip(coeffs, basis))
                                   for i in range(base.dims[x])) for x in minima}
                try:
                    ref = per_pair_extend(w, values)
                except BrokenProjectionError as e:
                    expected = ("cut", e.pair)
                except IncompatibleMinimalValuesError as e:
                    expected = ("pushes", e.witness)
                else:
                    expected = ("ok", {y: tuple(Fraction(vec.get(i, 0)) for i in range(w.dims[y]))
                                       for y, vec in ref.items()})
                try:
                    got = ("ok", extend_minimal(w, MinimalAssignment(values)).values)
                except BrokenProjectionError as e:
                    got = ("cut", e.pair)
                except IncompatibleMinimalValuesError as e:
                    got = ("pushes", e.witness)
                assert got == expected
                seen[expected[0]] += 1
    assert seen["ok"] and seen["cut"] and seen["pushes"], seen


@pytest.mark.parametrize("make", [
    lambda: _poly("cube"), cp2, lambda: S6,
    lambda: build_product(_poly("square"), _poly("segment")),
], ids=["cube", "cp2", "s6", "square*segment"])
def test_is_assignment_matches_the_per_pair_walk_seeded(make):
    # the violations from the pushed values against those from every pair's
    # rows, in order, on the systems of the test above: random values, the
    # base system's assignments, and those with one stratum's value changed
    rng = random.Random(73)
    space, moment = make()
    seen = Counter()
    for base in (moment, _constant_system(space, 2)):
        basis = assignment_basis(base)
        systems = [base]
        for _ in range(3):
            systems += [_perturbed(rng, base, space.comparable_pairs()),
                        _explicit_on_covers(rng, base, space.comparable_pairs())]
        for w in systems:
            for _ in range(3):
                coeffs = [rng.randint(-2, 2) for _ in basis]
                sums = {x: [sum(c * a.value(x)[i] for c, a in zip(coeffs, basis))
                            for i in range(base.dims[x])] for x in space.ids}
                changed = rng.choice([x for x in space.ids if base.dims[x]])
                for values in ({x: [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                                    for _ in range(base.dims[x])] for x in space.ids},
                               sums, {**sums, changed: [c + 1 for c in sums[changed]]}):
                    candidate = AssignmentVector(w, values)
                    want = per_pair_violations(w, candidate)
                    assert is_assignment(w, candidate).violations == want
                    seen["ok" if not want else "bad"] += 1
    assert seen["ok"] and seen["bad"], seen


# ---------------------------------------------------------------------------
# homotopy operators and full/reduced comparison

@pytest.mark.parametrize("make", [cp2, lambda: S6])
@pytest.mark.parametrize("k", [1, 2])
def test_fattening_homotopy_identity(make, k):
    _, v = make()
    d_prev = differential_matrix(v, k - 1, strict=False)
    d_here = differential_matrix(v, k, strict=False)
    lhs = d_prev @ homotopy_L(v, k) + homotopy_L(v, k + 1) @ d_here
    assert lhs == block_scaling_matrix(v, k)


def test_block_scaling_kills_strict_tuples():
    _, v = cp2()
    basis = chain_basis(v, 1, strict=False)
    m = block_scaling_matrix(v, 1)
    for t, off, w in zip(basis.tuples, basis.offsets, basis.block_dims):
        for i in range(w):
            want = 0 if len(set(t)) == len(t) else None
            if want == 0:
                assert m.data[off + i][off + i] == 0
            else:
                assert m.data[off + i][off + i] > 0


@pytest.mark.parametrize("make", [cp2, s4, lambda: S6,
                                  lambda: _poly("square")])
def test_full_equals_reduced(make):
    _, v = make()
    for k in range(4):
        assert cohomology(v, k, strict=False).dim == cohomology(v, k).dim


def test_simple_polytopes_have_one_class_per_facet_and_none_above_seeded():
    """A simple d-polytope with f facets has HA^0 = f and HA^k = 0 for 1 <= k <= d+1.

    V(F) is the linear functions on the span of F's cone in the normal fan,
    so the moment system is the degree-1 part of the sheaf of piecewise
    polynomials on that simplicial fan: HA^0 is the piecewise-linear
    functions, one value per ray, and the sheaf is flabby (Barthel,
    Brasselet, Fieseler and Kaup, Tohoku Math. J. 2002; Brion 1997).  Checked
    on both complexes, over vertex truncations and products, which are
    simple polytopes too.
    """
    rng = random.Random(44)
    polytopes = [truncated(preset_polytope(name), rng, cuts) for name, cuts in
                 (("square", 3), ("triangle", 4), ("cube", 1), ("cube", 3), ("cube", 6))]
    cases = [(build_polytope(p), len(p.facets), p.dim) for p in polytopes]
    for left, right in ((polytopes[0], preset_polytope("segment")),
                        (truncated(preset_polytope("triangle"), rng, 1),
                         preset_polytope("square"))):
        cases.append((build_product(build_polytope(left), build_polytope(right)),
                      len(left.facets) + len(right.facets), left.dim + right.dim))
    assert max(len(space.ids) for (space, _), _, _ in cases) == 81
    for (_, v), f, d in cases:
        for strict in (True, False):
            cx = _Complex(v, strict)
            assert [cx.data(k).dim for k in range(d + 2)] == [f] + [0] * (d + 1)


@pytest.mark.parametrize("weights", [[(1,), (-1,)], [(1, 0), (0, 1)],
                                     [(1, 2), (1, 0), (0, 1)]])
@pytest.mark.parametrize("k", [1, 2])
def test_contraction_homotopy_identity(weights, k):
    _, v = build_linear_rep(weights)
    d_prev = differential_matrix(v, k - 1, strict=False)
    d_here = differential_matrix(v, k, strict=False)
    lhs = d_prev @ homotopy_Q(v, k) + homotopy_Q(v, k + 1) @ d_here
    assert lhs == RatMatrix.identity(chain_space_dim(v, k, strict=False))


def test_contraction_needs_unique_minimum():
    _, v = cp2()
    with pytest.raises(NoUniqueMinimumError):
        homotopy_Q(v, 1)


def test_homotopies_reject_degree_zero():
    _, v = cp2()
    with pytest.raises(ValueError):
        homotopy_L(v, 0)
    _, w = build_linear_rep([(1,)])
    with pytest.raises(ValueError):
        homotopy_Q(w, 0)


def _dense_fractions(m):
    assert all(type(x) is Fraction for row in m.data for x in row)
    return m.data


def _random_dims_system(rng, space):
    """Dims 0-3 and random rational cover maps: blocks of every width, empty ones too."""
    dims = {x: rng.randint(0, 3) for x in space.ids}
    maps = {(x, y): RatMatrix(dims[y], dims[x],
                              [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                                for _ in range(dims[x])] for _ in range(dims[y])])
            for x, y in space.covers}
    return CoefficientSystem.from_cover_maps(space, dims, maps)


def test_homotopies_and_block_scaling_match_dense_reference_seeded():
    rng = random.Random(89)
    makers = [cp2, s4, lambda: s4_chain(2), two_stratum, free_stratum,
              lambda: build_linear_rep([(1, 2), (1, 0), (0, 1)])]
    checked_q = 0
    for make in makers:
        space, v = make()
        minima = [x for x in space.ids
                  if not any(y != x and space.leq(y, x) for y in space.ids)]
        for w in (v, zero_system(space), _random_dims_system(rng, space),
                  _random_dims_system(rng, space)):
            for k in (1, 2, 3):
                src = chain_basis(w, k, strict=False)
                dst = chain_basis(w, k - 1, strict=False)
                assert _dense_fractions(block_scaling_matrix(w, k)) == \
                    reference_block_scaling(src)
                assert _dense_fractions(homotopy_L(w, k)) == reference_homotopy_L(src, dst)
                if len(minima) == 1:
                    assert _dense_fractions(homotopy_Q(w, k)) == \
                        reference_homotopy_Q(src, dst, minima[0])
                    checked_q += 1
                else:
                    with pytest.raises(NoUniqueMinimumError):
                        homotopy_Q(w, k)
    assert checked_q == 3 * 4 * 3


# ---------------------------------------------------------------------------
# relative cohomology

def test_relative_to_fixed_points():
    _, v = cp2()
    dims = [relative_cohomology(v, CP2_FIXED, k).dim for k in range(3)]
    assert dims == [0, 3, 0]


def test_relative_to_empty_subset_is_absolute():
    _, v = cp2()
    for k in range(3):
        assert relative_cohomology(v, (), k).dim == cohomology(v, k).dim


def test_relative_to_everything_vanishes():
    space, v = cp2()
    for k in range(3):
        assert relative_cohomology(v, space.ids, k).dim == 0


def test_relative_rejects_unknown_strata():
    _, v = cp2()
    with pytest.raises(NotUnionOfStrataError) as exc:
        relative_cohomology(v, ["p1", "ghost"], 0)
    assert "ghost" in str(exc.value)


def test_relative_equals_quotient_for_down_closed_subset():
    # tuples avoiding a down-closed subset are exactly the tuples whose
    # top carries a nonzero quotient space, so the complexes coincide
    _, v = cp2()
    q = quotient_system(v, CP2_FIXED)
    rel = _Complex(v, True, support=("rel", CP2_FIXED))
    for k in range(3):
        assert rel.data(k).dim == cohomology(q, k).dim


def _same_result(got, want):
    return ((got.dim, got.diagnostics, [r._row for r in got.representatives])
            == (want.dim, want.diagnostics, [r._row for r in want.representatives]))


def test_relative_cohomology_matches_the_filtered_complex_seeded():
    """For a down-closed N `relative_cohomology` answers from R where it
    can; it gives the filtered order complex's dimension, diagnostics and
    representative rows in degrees 0..3 on both complexes (the full one
    above degree 1 only on spaces of at most 30 strata, for time), and so
    does the cohomology of v off N (`oracles.relative_on_kept_system`).
    N is the minimal strata, a stratum's strict or closed downset, the
    empty set or every stratum."""
    rng = random.Random(89)
    cases = list(_forest_cases(rng))
    cases = rng.sample(cases, 24) + [_elim_class_sphere_product()[1]]
    kinds = Counter()
    for v in cases:
        space = v.space
        z = rng.choice([x for x in space.ids if space.below(x)])
        subsets = {"minimal": frozenset(minimal_strata(space)),
                   "strict downset": frozenset(space.below(z)),
                   "closed downset": frozenset(space.below(z)) | {z},
                   "empty": frozenset(), "all": frozenset(space.ids)}
        for kind in ("minimal", rng.choice(sorted(subsets))):
            nset = subsets[kind]
            for strict in (True, False):
                want = _Complex(v, strict, support=("rel", nset))
                top = 3 if strict or len(space.ids) <= 30 else 1
                for k in range(top + 1):
                    got = relative_cohomology(v, nset, k, strict)
                    assert _same_result(got, _enumerated(want, k)), (kind, strict, k)
                    assert _same_result(got, relative_on_kept_system(v, nset, k, strict))
                    kinds[kind] += bool(got.dim)
    assert set(kinds) == {"minimal", "strict downset", "closed downset", "empty", "all"}
    assert kinds["minimal"] and kinds["closed downset"]


def _enumerated(cx, k):
    """Degree k of cx read off its enumerated complex (`_Complex.data`), as
    `_Complex.result` reads it at or below the top degree."""
    data = cx.data(k)
    return CohomologyResult(k, data.dim, [Cochain._from_row(cx.basis(k), r) for r in data._rep_rows],
                            {"dim_chain": data.dim_chain, "dim_cocycles": data.dim_cocycles,
                             "rank_coboundaries": data.im_rank})


def _recording_weak_chains(monkeypatch):
    """Record in the returned list, for each chain enumeration, whether it is weak."""
    weak = []
    enumerate_chains = assigncoh.cochain.chains

    def recording(space, k, strict):
        weak.append(not strict)
        return enumerate_chains(space, k, strict)

    monkeypatch.setattr(assigncoh.cochain, "chains", recording)
    return weak


def test_full_complex_beyond_the_top_degree_is_counted_seeded(monkeypatch):
    """`_Complex.result` counts a functor's full complex in degrees
    top+1..top+3, with no support, an up-closed one or a mixed one,
    enumerating no weak chain: the enumerated complex's dim and diagnostics,
    and no representative.  The top degree itself is enumerated: the
    crown's constant system has a class there."""
    rng = random.Random(47)
    crown = _crown()[0]
    cases = [cp2(), s4(), _poly("square"), _poly("triangle"), _poly("cube"), S6,
             (crown, _constant(crown))]
    classes = 0
    for space, v in cases:
        assert check_functor(v).ok
        top = assigncoh.cochain._top_degree(space)
        z = rng.choice([x for x in space.ids if space.below(x)])
        supports = [None, ("rel", space.upset(z)),
                    ("rel", frozenset(rng.sample(space.ids, len(space.ids) // 2)))]
        for support in supports:
            want = _Complex(v, False, support=support)
            for k in range(top, top + 4):
                with monkeypatch.context() as m:
                    weak = _recording_weak_chains(m)
                    got = _Complex(v, False, support=support).result(k)
                assert _same_result(got, _enumerated(want, k)), (support, k)
                assert any(weak) == (k == top)
                classes += bool(got.dim)
    assert classes


def test_full_complex_of_a_non_functor_beyond_the_top_degree_is_enumerated():
    """Only a functor's full complex is counted above the top degree: the
    cube with one doubled entry fails a composition law, and its full
    complex, alone or relative to a face's upset, has weak chains that end
    in the failing triple in every degree above the top, so each is refused
    (off the failing triples and the weak tuples of degree at most 1)."""
    space, v, _ = cube_broken_on_a_face()
    top = assigncoh.cochain._top_degree(space)
    face = next(x for x in space.ids if space.stabilizer(x).dim == 1)
    for support in (None, ("rel", space.upset(face))):
        for k in (top + 1, top + 2):
            with pytest.raises(ValueError, match=f"degree {k} has no cohomology"):
                _Complex(v, False, support=support).result(k)


def test_full_relative_cohomology_beyond_the_top_degree_from_counts_seeded(monkeypatch):
    """Relative to a subset that is not down-closed, degrees top+1..top+3 of
    a functor's full complex come from counts, enumerating no weak chain:
    dim 0 and the diagnostics of the enumerated full relative complex, on
    up-closed and mixed subsets."""
    rng = random.Random(43)
    cases = [cp2(), s4(), two_stratum(), _poly("square"), _poly("triangle"), _poly("cube"), S6]
    kinds = Counter()
    for space, v in cases:
        top = assigncoh.cochain._top_degree(space)
        z = rng.choice([x for x in space.ids if space.below(x)])
        subsets = {"up-closed": space.upset(z), "strict upset": space.upset(z) - {z},
                   "mixed": frozenset(rng.sample(space.ids, len(space.ids) // 2))}
        for kind, nset in subsets.items():
            if assigncoh.coeffsys._down_closed(space, nset):
                continue
            want = _Complex(v, False, support=("rel", nset))
            for k in range(top + 1, top + 4):
                with monkeypatch.context() as m:
                    weak = _recording_weak_chains(m)
                    got = relative_cohomology(v, nset, k, strict=False)
                assert _same_result(got, _enumerated(want, k)), (kind, k)
                assert not any(weak)
                kinds[kind] += 1
    assert kinds["up-closed"] and kinds["mixed"]


def test_relative_cohomology_answers_a_law_violation_inside_the_subset():
    """A system whose laws fail only inside a down-closed N has no
    cohomology in degree 1, yet its relative groups, read off the order
    complex, are those of v off N, a functor: the filtered complex never
    reaches the failing triple."""
    _, v, nset = cube_broken_on_a_face()
    assert not check_functor(v).ok
    assert all(set(t) <= nset for t in check_functor(v).composition_violations)
    with pytest.raises(ValueError, match="no cohomology"):
        cohomology(v, 1)
    assert check_functor(quotient_system(v, nset)).ok
    for strict in (True, False):
        want = _Complex(v, strict, support=("rel", nset))
        for k in range(3):
            assert _same_result(relative_cohomology(v, nset, k, strict), want.result(k))


def test_relative_representatives_are_cochains_of_the_system_itself():
    """A relative representative is a cochain of v on the filtered basis:
    its value at a stratum of a down-closed N is that stratum's zero, as
    for an N that is not down-closed, not an empty block of v off N."""
    space, v = _poly("square")
    for nset in ({"v00"}, {"v00", "interior"}):
        rep = relative_cohomology(v, nset, 0).representatives[0]
        assert rep.basis.system is v
        assert rep.value_on(("v00",)) == [0, 0]


def test_relative_degree_zero_reads_the_cut_seeded():
    """Degree 0 of a strict relative complex takes its rows at the system's
    cut (a pair inside N gives empty rows) and has d_0's kernel, so the
    data d_0 gives, byte for byte, without assembling d_0; a subset complex
    takes d_0 itself.  On functors and on `_cut_cases`, whose cut is the
    pairs they are given; N is a closed downset, a closed upset or a random
    half of the strata."""
    rng = random.Random(101)
    systems = rng.sample(list(_forest_cases(rng)), 20) + list(_cut_cases(random.Random(16)))
    seen = Counter()
    for v in systems:
        space = v.space
        z = rng.choice(space.ids)
        subsets = {"down": frozenset(space.below(z)) | {z}, "up": space.upset(z),
                   "mixed": frozenset(rng.sample(space.ids, len(space.ids) // 2))}
        for kind, nset in subsets.items():
            for support in (("rel", nset), ("sub", nset)):
                cx = _Complex(v, True, support=support)
                data = cx.data(0)
                assert (0 in cx._ds) == (support[0] == "sub")
                ref = _CohomologyData([], cx.d(0), cx.basis(0).total_dim)
                assert (data.dim, data.dim_cocycles, data.im_rank) == (
                    ref.dim, ref.dim_cocycles, ref.im_rank), (kind, support[0])
                assert (_typed(data._rep_rows), data.rep_pivots) == (
                    _typed(ref._rep_rows), ref.rep_pivots)
                seen[kind] += data.dim > 0
    assert all(seen[kind] >= 20 for kind in ("down", "up", "mixed")), seen


def test_relative_differs_from_quotient_for_up_closed_subset():
    space, v = cp2()
    nonfixed = [x for x in space.ids if x not in CP2_FIXED]
    q = quotient_system(v, nonfixed)
    assert relative_cohomology(v, nonfixed, 0).dim == 0
    assert cohomology(q, 0).dim == 6


# ---------------------------------------------------------------------------
# long exact sequences

def test_les_pair_fixed_points():
    _, v = cp2()
    rep = les_pair_check(v, CP2_FIXED)
    assert rep.ok
    rows = rep.dims_by_degree()
    assert rows[0] == (0, 3, 6)
    assert rows[1] == (3, 0, 0)
    assert all(r == (0, 0, 0) for r in rows[2:])


def test_les_pair_empty_subset():
    _, v = cp2()
    rep = les_pair_check(v, ())
    assert rep.ok
    for pair_dim, space_dim, sub_dim in rep.dims_by_degree():
        assert pair_dim == space_dim
        assert sub_dim == 0


def test_les_pair_square_vertices():
    space, v = _poly("square")
    vertices = [x for x in space.ids if space.stabilizer(x).dim == 2]
    assert len(vertices) == 4
    rep = les_pair_check(v, vertices)
    assert rep.ok
    assert rep.dims_by_degree()[0] == (0, 4, 8)


def test_les_pair_rejects_unknown_strata():
    _, v = cp2()
    with pytest.raises(NotUnionOfStrataError):
        les_pair_check(v, ["nope"])


def test_les_pair_enumerates_each_degree_once(monkeypatch):
    # off a down-closed subset the relative and subset complexes filter the
    # full complex's tuples; on a down-closed one the sequence runs on R's
    # cells and enumerates no chain
    space, v = build_product(_poly("square"), _poly("segment"))
    n = [x for x in space.ids if space.stabilizer(x).dim == 2]
    nset = frozenset(n)
    assert any(y not in nset for x in n for y in space.below(x))
    expected = []
    for k in range(5):
        expected += [relative_cohomology(v, n, k).dim, cohomology(v, k).dim,
                     _Complex(v, True, support=("sub", nset)).data(k).dim]
    calls = []
    chains = assigncoh.cochain.chains

    def counting(space, k, strict):
        calls.append(k)
        return chains(space, k, strict)

    monkeypatch.setattr(assigncoh.cochain, "chains", counting)
    rep = les_pair_check(v, n)
    assert rep.ok
    assert rep.node_dims == expected
    # degrees 0..4 carry nodes; degree 5 closes the last differential
    assert sorted(Counter(calls).items()) == [(k, 1) for k in range(6)]
    del calls[:]
    vertices = [x for x in space.ids if space.stabilizer(x).dim == 3]
    assert les_pair_check(v, vertices).ok
    assert calls == []


def _les_pair_unshared(v, nset):
    """The pair's sequence with relative and subset complexes that filter
    chains themselves, sharing nothing with the space's complex."""
    rel = _Complex(v, True, support=("rel", nset))
    sub = _Complex(v, True, support=("sub", nset))
    return assigncoh.cochain._long_exact_sequence(
        ("pair", "space", "subset"), assigncoh.cochain._top_degree(v.space),
        rel, _Complex(v, True), sub)


def _les_pair_spaces(rng):
    """Hand-made spaces, a square x segment and two random products of polygons."""
    spaces = [cp2(), s4(), s4_chain(2), S6, _poly("cube"),
              build_product(_poly("square"), _poly("segment"))]
    for _ in range(2):
        spaces.append(build_product(_poly(rng.choice(("segment", "triangle", "square"))),
                                    _poly(rng.choice(("segment", "triangle")))))
    return spaces


def test_les_pair_sharing_matches_unshared_complexes_seeded(monkeypatch):
    # a pair's complexes take the space's bases, d_k and cohomology data
    # wherever their own would equal them; on every kind of subset the
    # sequence is the one built with nothing shared.  On the maximal strata,
    # an antichain that is up-closed and so stays on the order complex, the
    # relative complex keeps every tuple of degree >= 1, so sharing leaves
    # no nonempty differential assembled twice
    rng = random.Random(61)
    spaces = _les_pair_spaces(rng)
    assembled = []
    differential = assigncoh.cochain._differential

    def counting(v, src, dst, bounds=None):
        if src.tuples:
            assembled.append((src.tuples, dst.tuples))
        return differential(v, src, dst, bounds)

    monkeypatch.setattr(assigncoh.cochain, "_differential", counting)
    seen = 0
    for space, v in spaces:
        ids = space.ids
        minimal = frozenset(minimal_strata(space))
        top = rng.choice([x for x in ids if x not in minimal])
        low = rng.choice(sorted(minimal))
        subsets = {"empty": frozenset(), "all": frozenset(ids), "antichain": minimal,
                   "down-closed": frozenset(space.below(top)) | {top},
                   "up-closed": space.upset(low),
                   "maximal": frozenset(x for x in ids if space.upset(x) == {x})}
        for kind, nset in subsets.items():
            del assembled[:]
            rep = les_pair_check(v, nset)
            shared = list(assembled)
            del assembled[:]
            ref = _les_pair_unshared(v, nset)
            assert (rep.node_names, rep.node_dims, rep.map_ranks, rep.failures) == (
                ref.node_names, ref.node_dims, ref.map_ranks, ref.failures), kind
            assert rep.ok
            if kind == "maximal":
                assert len(set(shared)) == len(shared) < len(assembled)
                assert len(set(assembled)) < len(assembled)
            seen += any(rep.node_dims[3::3])
    # some pair has classes above degree 0, where the sharing starts
    assert seen


def test_les_pair_on_down_closed_subsets_matches_the_kept_systems_seeded():
    """On a down-closed subset the pair's complexes filter the space's
    complex on R by the cells' strata, and the sequence is the one on v off
    and v on the subset (`oracles.pair_sequence_on_kept_systems`): node
    names, dims, map ranks and failures.  Systems: the moment systems of
    the sharing test's spaces and a sample of `_forest_cases`; subsets: the
    minimal strata, a random stratum's closed and strict downsets, the empty
    set and every stratum."""
    rng = random.Random(73)
    systems = [v for _, v in _les_pair_spaces(rng)]
    systems += rng.sample(list(_forest_cases(rng)), 14)
    seen = 0
    for v in systems:
        space = v.space
        z = rng.choice(space.ids)
        for nset in (frozenset(minimal_strata(space)), frozenset(space.below(z)) | {z},
                     frozenset(space.below(z)), frozenset(), frozenset(space.ids)):
            rep = les_pair_check(v, nset)
            ref = pair_sequence_on_kept_systems(v, nset)
            assert (rep.node_names, rep.node_dims, rep.map_ranks, rep.failures) == (
                ref.node_names, ref.node_dims, ref.map_ranks, ref.failures)
            seen += any(rep.node_dims[3:])
    # some pair has a class above degree 0
    assert seen


def test_les_pair_builds_no_system(monkeypatch):
    # a pair's complexes and the relative groups hold v itself on either
    # model: on a down-closed subset they filter R's cells by their strata
    space, v = cp2()

    def refused(*args):
        raise AssertionError("a system was built")

    monkeypatch.setattr(CoefficientSystem, "_keep", refused)
    rep = les_pair_check(v, CP2_FIXED)
    assert rep.ok
    assert rep.dims_by_degree()[:2] == [(0, 3, 6), (3, 0, 0)]
    nonfixed = frozenset(space.ids) - CP2_FIXED
    assert [relative_cohomology(v, n, k).dim for n in (CP2_FIXED, nonfixed)
            for k in range(3)] == [0, 3, 0, 0, 0, 0]


def _random_sparse(rng, n):
    vec = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for j in range(n)
           if rng.random() < 0.4}
    return {j: x for j, x in vec.items() if x}


def _elim_class_sphere_product():
    # an (S^2)^4 over T^3 with weights in {-1, 0, 1}, like the elim
    # workload's; its degree-1 image has pivots other than 1 in
    # fraction-free elimination, and dim H^1 = 3
    return build_sphere_product(3, [(1, -1, 1), (-1, 1, 0), (-1, 1, 1), (1, -1, 0)])


def _cube_relative_to_vertices():
    space, v = _poly("cube")
    vertices = frozenset(x for x in space.ids if space.stabilizer(x).dim == 3)
    return _Complex(v, True, support=("rel", vertices))


@pytest.mark.parametrize("make, k, non_unit_image", [
    (lambda: _Complex(_elim_class_sphere_product()[1], True), 1, True),
    (lambda: _Complex(_poly("cube")[1], True), 0, False),
    (_cube_relative_to_vertices, 1, False),
], ids=["sphere-product", "cube", "cube-rel-vertices"])
def test_class_coords_round_trip(make, k, non_unit_image):
    cx = make()
    data = cx.data(k)
    assert data.dim > 0
    # a pivot other than 1 in the fraction-free image leaves a Fraction in its RREF
    assert any(type(x) is Fraction
               for row in data._im_at.values() for x in row.values()) == non_unit_image
    rng = random.Random(17)
    reps = cx.result(k).representatives
    for j, rep in enumerate(reps):
        vec = {i: x for i, x in enumerate(rep.coords) if x}
        unit = [Fraction(int(i == j)) for i in range(data.dim)]
        assert data.class_coords(vec) == unit
        if k > 0:
            for _ in range(3):
                bd = _apply(cx.d(k - 1), _random_sparse(rng, cx.basis(k - 1).total_dim))
                moved = {i: vec.get(i, 0) + bd.get(i, 0) for i in vec.keys() | bd.keys()}
                moved = {i: x for i, x in moved.items() if x}
                assert moved != vec
                assert data.class_coords(moved) == unit
        # a coordinate whose column of d_k is nonzero breaks the cocycle
        col = next(iter(cx.d(k)[0]))
        broken = dict(vec)
        broken[col] = broken.get(col, 0) + 1
        with pytest.raises(ValueError):
            data.class_coords(broken)


def _class_outcome(data, vec):
    try:
        return data.class_coords(vec)
    except ValueError:
        return "not a cocycle"


def _dims_first_cases(rng):
    """Complexes of moment systems, their perturbations, and relative supports."""
    for space, v in (cp2(), s4(), s4_chain(2), _poly("cube"), S6,
                     _elim_class_sphere_product()):
        others = space.comparable_pairs()
        systems = [v, _perturbed(rng, v, others), _perturbed(rng, v, others)]
        minimal = frozenset(x for x in space.ids if not space.below(x))
        for w in systems:
            for strict in (True, False):
                yield _Complex(w, strict)
            yield _Complex(w, True, support=("rel", minimal))
            yield _Complex(w, False, support=("rel", frozenset(rng.sample(space.ids, 2))))


def test_dims_first_matches_one_pass_cohomology_seeded():
    """Pinned image pivots, canonical pass only when dim H^k > 0: the one-pass values.

    A degree where d_k d_{k-1} != 0 (a perturbed system) has no cohomology
    and raises ValueError.  Every other degree gives the reference's values
    byte for byte, also on a system off the functor laws whose complex
    still squares to zero there.
    """
    rng = random.Random(31)
    seen = Counter()
    for cx in _dims_first_cases(random.Random(29)):
        functor = check_functor(cx.v).ok
        for k in range(4):
            n = cx.basis(k).total_dim
            d_in_t = _transpose(cx.d(k - 1), cx.basis(k - 1).total_dim) if k else []
            if any(_apply(cx.d(k), r) for r in d_in_t):
                with pytest.raises(ValueError, match=f"degree {k} has no cohomology"):
                    cx.data(k)
                seen["refused"] += 1
                continue
            data, ref = cx.data(k), ReferenceCohomologyData(d_in_t, cx.d(k), n)
            assert (data.dim, data.dim_cocycles, data.im_rank) == (
                ref.dim, len(ref.cocycles), ref.im_rank)
            assert (data._rep_rows, data.rep_pivots) == (ref._rep_rows, ref.rep_pivots)
            assert (data.cocycles is None) == (not data.dim)
            seen["skipped" if data.cocycles is None else "canonical"] += 1
            seen["computed off the functor laws"] += k > 0 and not functor
            vectors = [{i: x for i, x in enumerate(row) if x}
                       for row in RatMatrix.from_sparse(data._rep_rows, n).data]
            vectors.append({})
            for vec in vectors:
                if k:
                    bd = _apply(cx.d(k - 1), _random_sparse(rng, cx.basis(k - 1).total_dim))
                    vec = {i: vec.get(i, 0) + bd.get(i, 0) for i in vec.keys() | bd.keys()}
                    vec = {i: x for i, x in vec.items() if x}
                assert _class_outcome(data, vec) == _class_outcome(ref, vec)
            if cx.d(k) and not data.dim:
                # H^k = 0: a vector off the kernel of d_k is no cocycle
                broken = {next(iter(row)): 1 for row in cx.d(k) if row}
                assert _class_outcome(ref, broken) == "not a cocycle"
                with pytest.raises(ValueError):
                    data.class_coords(broken)
    assert seen["skipped"] >= 20 and seen["canonical"] >= 20 and seen["refused"]
    assert seen["computed off the functor laws"]


def test_degree_one_of_the_cube_runs_no_kernel(monkeypatch):
    calls = Counter()

    def counted(*args):
        calls["kernel"] += 1
        return sparse_kernel(*args)

    sparse_kernel = assigncoh.cochain.sparse_kernel
    monkeypatch.setattr(assigncoh.cochain, "sparse_kernel", counted)
    space, _ = _poly("cube")
    assert cohomology(moment_system(space), 1).dim == 0
    assert not calls
    assert cohomology(moment_system(space), 0).dim > 0 and calls["kernel"] == 1


def _elim_systems(monkeypatch):
    """The systems of the 20 spaces of the benchmark's `elim` workload, seed 0."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    files, _ = workloads.generate(assigncoh, "elim", 0)
    return [build_from_description(SpaceDescription.from_json_dict(json.loads(data)))[1]
            for data in files.values()]


def test_degree_zero_representatives_are_the_rref_of_the_kernel_seeded(monkeypatch):
    """Degree 0 reads its representatives off one right-to-left pass: they
    are `sparse_rref` of d_0's left-to-right kernel, rows (entry types
    included) and pivots.  On functors (`_forest_cases`), descriptions with
    Fraction projections (`_cut_cases`) and the `elim` spaces: the strict
    and weak complexes, and the strict complex of v kept on an order-closed
    subset (`_kept_on`)."""
    rng = random.Random(67)
    systems = (list(_forest_cases(random.Random(59))) + list(_cut_cases(random.Random(16)))
               + _elim_systems(monkeypatch))
    seen = Counter()
    for v in systems:
        space = v.space
        z = rng.choice(space.ids)
        keep = frozenset(rng.choice((space.below, space.above))(z)) | {z}
        for cx in (_Complex(v, True), _Complex(v, False), _Complex(_kept_on(v, keep), True)):
            n = cx.basis(0).total_dim
            red, pivots = sparse_rref(sparse_kernel(*sparse_echelon(cx.d(0), n), n)[1], n)
            data = cx.data(0)
            assert (_typed(data._rep_rows), data.rep_pivots) == (_typed(red), pivots)
            seen["classes"] += data.dim > 0
            seen["fractions"] += any(type(x) is Fraction for r in red for x in r.values())
    assert len(systems) >= 180 and seen["classes"] >= 350 and seen["fractions"] >= 100, seen


def test_degree_zero_runs_one_elimination(monkeypatch):
    """`data(0)` with classes runs `_forward` on nonempty rows once and no
    `sparse_rref`; a degree with an image still takes the RREF of its
    cocycles."""
    calls = Counter()

    def counted_forward(rows, *args):
        calls["forward"] += any(rows)
        return _forward(rows, *args)

    def refused(*args):
        raise AssertionError("degree 0 took a second elimination")

    def counted_rref(*args):
        calls["rref"] += 1
        return sparse_rref(*args)

    monkeypatch.setattr(assigncoh.cochain, "_forward", counted_forward)
    monkeypatch.setattr(assigncoh.cochain, "sparse_rref", refused)
    spheres = _elim_class_sphere_product()[1]
    for v in (_poly("cube")[1], spheres):
        for strict in (True, False):
            calls.clear()
            assert _Complex(v, strict).data(0).dim > 0 and calls["forward"] == 1
    monkeypatch.setattr(assigncoh.cochain, "sparse_rref", counted_rref)
    assert _Complex(spheres, True).data(1).dim > 0 and calls["rref"] == 1


@pytest.mark.parametrize("make", [cp2, lambda: S6])
def test_sparse_apply_matches_dense_differential(make):
    # connecting maps multiply sparse rows by sparse vectors; the product
    # must be the public dense matrix applied to the same vector
    _, v = make()
    rng = random.Random(11)
    for k in range(3):
        d = differential_matrix(v, k)
        rows = _differential(v, chain_basis(v, k), chain_basis(v, k + 1))
        for _ in range(10):
            vec = _random_sparse(rng, d.cols)
            dense = d.apply([vec.get(j, 0) for j in range(d.cols)])
            assert _apply(rows, vec) == {i: x for i, x in enumerate(dense) if x}


def test_move_splits_cochains_into_relative_and_subset_parts():
    # every tuple lies in exactly one of the relative and subset bases, and
    # an entry keeps its tuple and its place in the block
    space, v = cp2()
    n = {"p1", "p2", "e12", "e23", "open"}
    rng = random.Random(13)
    for k in range(3):
        full = chain_basis(v, k)
        rel = _Complex(v, True, support=("rel", n)).basis(k)
        sub = _Complex(v, True, support=("sub", n)).basis(k)
        for _ in range(10):
            vec = _random_sparse(rng, full.total_dim)
            parts = [(b, _carry(vec, full, b)) for b in (rel, sub)]
            assert sum(len(w) for _, w in parts) == len(vec)
            whole = Cochain(full, [vec.get(j, 0) for j in range(full.total_dim)])
            back = {}
            for b, w in parts:
                part = Cochain(b, [w.get(j, 0) for j in range(b.total_dim)])
                for t in b.tuples:
                    assert part.value_on(t) == whole.value_on(t)
                back.update(_carry(w, b, full))
            assert back == vec


def test_les_coefficients_reproduces_pair_sequence():
    space, v = cp2()
    nonfixed = [x for x in space.ids if x not in CP2_FIXED]
    f, g = pair_ses(v, nonfixed)
    rep = les_coefficients_check(f, g)
    assert rep.ok
    pair_rep = les_pair_check(v, CP2_FIXED)
    n = min(len(rep.node_dims), len(pair_rep.node_dims))
    assert rep.node_dims[:n] == pair_rep.node_dims[:n]
    assert rep.dims_by_degree()[0] == (0, 3, 6)
    assert rep.dims_by_degree()[1] == (3, 0, 0)


def test_both_long_exact_sequences_agree_on_down_closed_subsets_seeded():
    # for a down-closed N the relative complex is the complex of
    # quotient_system(v, N) and the subset complex that of
    # restriction_system(v, N), so the pair's sequence and the one pair_ses
    # induces have the same dims and ranks at every node
    rng = random.Random(71)
    spaces = [cp2(), s4(), s4_chain(2), two_stratum(), S6, _poly("cube"),
              build_product(_poly("square"), _poly("segment")),
              build_product(_poly("triangle"), _poly("segment"))]
    seen = 0
    for space, v in spaces:
        ids = space.ids
        top = rng.choice(ids)
        for nset in (frozenset(minimal_strata(space)),
                     frozenset(space.below(top)) | {top}, frozenset()):
            pair = les_pair_check(v, nset)
            coeff = les_coefficients_check(*pair_ses(v, nset))
            assert (coeff.node_dims, coeff.map_ranks) == (pair.node_dims, pair.map_ranks), (
                ids, sorted(nset))
            assert pair.ok and coeff.ok
            seen += any(pair.map_ranks)
    assert seen


def _bidiagonal(n, inverse=False):
    # T = 2I + N, N the shift above the diagonal; T^-1 = sum_k (-N)^k / 2^(k+1)
    if inverse:
        return RatMatrix.from_rows(
            [[Fraction((-1) ** (j - i), 2 ** (j - i + 1)) if j >= i else 0 for j in range(n)]
             for i in range(n)])
    return RatMatrix.from_rows(
        [[2 if j == i else int(j == i + 1) for j in range(n)] for i in range(n)])


def test_les_coefficients_through_non_identity_stratum_maps():
    # pair_ses with its middle system conjugated by T at each stratum:
    # f becomes T and g becomes g T^-1, neither identities nor zeros, and
    # the sequence keeps its dims and ranks
    space, v = cp2()
    nonfixed = [x for x in space.ids if x not in CP2_FIXED]
    f, g = pair_ses(v, nonfixed)
    t = {x: _bidiagonal(v.dims[x]) for x in space.ids}
    t_inv = {x: _bidiagonal(v.dims[x], inverse=True) for x in space.ids}
    assert all(t[x] @ t_inv[x] == RatMatrix.identity(v.dims[x]) for x in space.ids)
    w = CoefficientSystem(space, dict(v.dims),
                          {(x, y): t[y] @ v.proj(x, y) @ t_inv[x] for x, y in v.pairs()})
    f2 = SystemMorphism(f.source, w, {x: t[x] @ f.map_at(x) for x in space.ids})
    g2 = SystemMorphism(w, g.target, {x: g.map_at(x) @ t_inv[x] for x in space.ids})
    maps = [f2.map_at(x) for x in space.ids] + [g2.map_at(x) for x in space.ids]
    assert not any(m.is_zero() or m == RatMatrix.identity(m.rows) for m in maps
                   if m.rows and m.cols)
    rep = les_coefficients_check(f2, g2)
    plain = les_coefficients_check(f, g)
    assert rep.ok
    assert rep.node_dims == plain.node_dims
    assert rep.map_ranks == plain.map_ranks
    assert rep.dims_by_degree()[:2] == [(0, 3, 6), (3, 0, 0)]


def _connecting_value_all_ones(monkeypatch):
    # d_b(lift(r)) is the connecting map's product by columns (`_combine`
    # on the transpose of d_b, called from `connect`; the block map calls
    # it too); make it 1 at every row some column reaches, which in a
    # strict complex is every coordinate of the next chain space
    def ones(cols, vec):
        if sys._getframe(1).f_code.co_name != "connect":
            return _combine(cols, vec)
        return dict.fromkeys(sorted({i for c in cols for i in c}), 1)

    monkeypatch.setattr(assigncoh.cochain, "_combine", ones)


def test_les_pair_connecting_check_fires(monkeypatch):
    # tuples inside the subset, such as (p1, e12), are not relative chains
    _, v = cp2()
    n = {"p1", "p2", "e12"}
    assert les_pair_check(v, n).ok
    _connecting_value_all_ones(monkeypatch)
    with pytest.raises(AssertionError, match="connecting value in degree 1"):
        les_pair_check(v, n)


def test_les_pair_induced_image_off_the_cocycles_is_a_program_fault(monkeypatch):
    # a chain map of functors sends cocycles to cocycles: an induced image
    # that is none ends in an AssertionError naming the node, never in the
    # ValueError of a user's input
    _, v = cp2()
    n = {"p1", "p2", "e12"}
    induced = assigncoh.cochain._induced_rows
    moved = []

    def corrupt(name, target, images):
        images = list(images)
        if images and not moved:
            moved.append(name)
            images[0] = {j + 1: x for j, x in images[0].items()}
        return induced(name, target, images)

    monkeypatch.setattr(assigncoh.cochain, "_induced_rows", corrupt)
    with pytest.raises(AssertionError, match=r"induced image off the cocycles of H\^0\(subset\)"):
        les_pair_check(v, n)
    assert moved == ["H^0(subset)"]


def test_les_coefficients_connecting_check_fires(monkeypatch):
    space, v = cp2()
    f = SystemMorphism.zero(zero_system(space), v)
    g = SystemMorphism.identity(v)
    assert les_coefficients_check(f, g).ok
    _connecting_value_all_ones(monkeypatch)
    with pytest.raises(AssertionError, match="connecting value in degree 1"):
        les_coefficients_check(f, g)


def test_les_coefficients_identity_then_zero():
    space, v = cp2()
    z = zero_system(space)
    f = SystemMorphism.identity(v)
    g = SystemMorphism.zero(v, z)
    rep = les_coefficients_check(f, g)
    assert rep.ok
    assert rep.dims_by_degree()[0] == (3, 3, 0)


def test_les_coefficients_zero_then_identity():
    space, v = cp2()
    z = zero_system(space)
    f = SystemMorphism.zero(z, v)
    g = SystemMorphism.identity(v)
    rep = les_coefficients_check(f, g)
    assert rep.ok
    assert rep.dims_by_degree()[0] == (0, 3, 3)


def test_exactness_walk_reports_both_failures():
    # maps as image rows, one per basis vector of the source node
    one = [{0: 1}]
    rep = _exactness_walk(["A", "B", "C"], [1, 1, 1], [one, one])
    assert not rep.ok
    assert rep.map_ranks == [1, 1]
    assert rep.failures == [
        "composition through B is nonzero",
        "rank mismatch at B: in 1 + out 1 != dim 1",
    ]
    # 0 -> Q -> Q -> 0 -> 0 is exact
    rep = _exactness_walk(["A", "B", "C"], [1, 1, 0], [one, [{}]])
    assert rep.ok
    # a zero map leaves both ends uncovered
    rep = _exactness_walk(["A", "B"], [1, 1], [[{}]])
    assert rep.failures == [
        "rank mismatch at A: in 0 + out 0 != dim 1",
        "rank mismatch at B: in 0 + out 0 != dim 1",
    ]


def test_les_coefficients_rejects_inexact_input():
    _, v = cp2()
    f = SystemMorphism.identity(v)
    g = SystemMorphism.identity(v)
    assert not ses_check(f, g).ok
    with pytest.raises(NotExactError):
        les_coefficients_check(f, g)


# ---------------------------------------------------------------------------
# pullback along poset maps

def test_pullback_along_identity():
    space, v = cp2()
    f = PosetMap(space, space, {x: x for x in space.ids})
    for k in range(2):
        m = pullback_matrix(f, v, k)
        assert m == RatMatrix.identity(m.rows)


def _segment_into_triangle():
    tri_space, tri_v = _poly("triangle")
    # one edge of the triangle with its two endpoints, plus the interior
    ids = ["v0", "v1", "b", "interior"]
    stabs = {x: tri_space.stabilizer(x) for x in ids}
    seg = StratSpace.from_covers(
        2, stabs, [("v0", "b"), ("v1", "b"), ("b", "interior")]
    )
    f = PosetMap(seg, tri_space, {x: x for x in ids})
    return f, tri_v, moment_system(seg)


def test_pullback_is_a_chain_map():
    f, tri_v, seg_v = _segment_into_triangle()
    for k in range(2):
        lhs = pullback_matrix(f, tri_v, k + 1, seg_v) @ differential_matrix(
            tri_v, k, strict=False)
        rhs = differential_matrix(seg_v, k, strict=False) @ pullback_matrix(
            f, tri_v, k, seg_v)
        assert lhs == rhs


def test_pullback_sends_cocycles_to_cocycles():
    f, tri_v, seg_v = _segment_into_triangle()
    for rep in cohomology(tri_v, 0).representatives:
        full = chain_basis(tri_v, 0, strict=False)
        phi = Cochain(full, list(rep.coords))
        psi = pullback(f, tri_v, phi, seg_v)
        d0 = differential_matrix(seg_v, 0, strict=False)
        assert all(c == 0 for c in d0.apply(psi.coords))


def test_pullback_rejects_support_outside_the_full_basis():
    f, tri_v, seg_v = _segment_into_triangle()
    _, v = cp2()
    foreign = chain_basis(v, 0)
    phi = Cochain(foreign, [1] * foreign.total_dim)
    with pytest.raises(SystemMismatchError, match="another space"):
        pullback(f, tri_v, phi, seg_v)


def test_pullback_refuses_a_cochain_of_another_system():
    """A cochain of another system on the same space is refused up front,
    naming the first stratum whose dims differ: copied block by block it
    would read as [1, 0] at each fixed point of the moment system."""
    space, v = cp2()
    ones = CoefficientSystem.from_cover_maps(
        space, {x: int(x != "open") for x in space.ids},
        {(x, y): RatMatrix.identity(1) if y != "open" else RatMatrix.zeros(0, 1)
         for x, y in space.covers})
    identity = PosetMap(space, space, {x: x for x in space.ids})
    basis = chain_basis(ones, 0)
    with pytest.raises(SystemMismatchError) as exc:
        pullback(identity, v, Cochain(basis, [1] * basis.total_dim), v)
    assert str(exc.value) == "pullback of a cochain of another system, unlike at 'p1'"


def test_pullback_of_a_relative_representative():
    """A representative relative to a down-closed subset is a cochain of v
    on a filtered basis; along the identity it pulls back to itself,
    zero on the tuples its basis lacks."""
    space, v = cp2()
    identity = PosetMap(space, space, {x: x for x in space.ids})
    for k in (0, 1):
        for rep in relative_cohomology(v, CP2_FIXED, k).representatives:
            psi = pullback(identity, v, rep, v)
            assert psi.as_dict() == rep.as_dict()
            assert all(psi.value_on(t) == rep.value_on(t) for t in psi.basis.tuples)


def test_pullback_refuses_a_map_that_is_not_a_morphism():
    # swapping two fixed points sends p1 < e13 and p2 < e23 to incomparable pairs
    space, v = cp2()
    swap = PosetMap(space, space, {x: {"p1": "p2", "p2": "p1"}.get(x, x) for x in space.ids})
    report = MorphismReport((("p1", "e13"), ("p2", "e23")), ())
    assert poset_morphism_check(dict(swap.mapping), space, space) == report
    phi = Cochain(chain_basis(v, 0, strict=False), [0] * chain_space_dim(v, 0, strict=False))
    for call in (lambda: pullback_matrix(swap, v, 0), lambda: pullback(swap, v, phi)):
        with pytest.raises(InvalidMorphismError) as exc:
            call()
        assert str(exc.value) == f"not a morphism of stratified spaces: {report}"


def test_pullback_refuses_systems_off_stabilizer_coordinates():
    # the constant system has dimension 1 at every stratum; cp2's fixed
    # points have a stabilizer of dimension 2 and its open stratum one of 0
    space, v = cp2()
    identity = PosetMap(space, space, {x: x for x in space.ids})
    constant = _constant(space)
    with pytest.raises(SystemMismatchError) as exc:
        pullback_matrix(identity, constant, 0, v)
    assert str(exc.value) == ("pullback needs stabilizer coordinates on the target "
                              "(or an all-zero target system), unlike at 'open'")
    with pytest.raises(SystemMismatchError) as exc:
        pullback_matrix(identity, v, 0, constant)
    assert str(exc.value) == "pullback needs stabilizer coordinates on the source, unlike at 'open'"


def test_pullback_collapse_to_point():
    space, v = cp2()
    point = StratSpace.from_covers(
        2, {"pt": Subalgebra.full(2)}, []
    )
    f = PosetMap(space, point, {x: "pt" for x in space.ids})
    m = pullback_matrix(f, zero_system(point), 0, v)
    assert (m.rows, m.cols) == (9, 0)


def _pullback_cases():
    space, v = cp2()
    identity = PosetMap(space, space, {x: x for x in space.ids})
    point = StratSpace.from_covers(2, {"pt": Subalgebra.full(2)}, [])
    collapse = PosetMap(space, point, {x: "pt" for x in space.ids})
    f, tri_v, seg_v = _segment_into_triangle()
    # the maps above have identity or empty bridges; onto the point's own
    # moment system the edges' bridges are 1x2
    return [(identity, v, v, (0, 1, 2)), (f, tri_v, seg_v, (0, 1, 2)),
            (collapse, zero_system(point), v, (0, 1)),
            (collapse, moment_system(point), v, (0, 1, 2))]


def test_pullback_matches_dense_reference_seeded():
    rng = random.Random(97)
    for f, v_target, v_source, degrees in _pullback_cases():
        bridges = assigncoh.cochain._bridge_rows(f, v_target, v_source)

        def bridge(x):
            return [[row.get(j, 0) for j in range(v_target.dims[f(x)])] for row in bridges[x]]

        for k in degrees:
            src = chain_basis(v_source, k, strict=False)
            dst = chain_basis(v_target, k, strict=False)
            ref = reference_pullback(src, dst, f, bridge)
            assert _dense_fractions(pullback_matrix(f, v_target, k, v_source)) == ref
            for _ in range(3):
                coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for _ in range(dst.total_dim)]
                psi = pullback(f, v_target, Cochain(dst, coords), v_source)
                assert psi.basis.tuples == src.tuples
                assert list(psi.coords) == [sum((a * b for a, b in zip(row, coords)),
                                                Fraction(0)) for row in ref]
                assert all(type(x) is Fraction for x in psi.coords)


# ---------------------------------------------------------------------------
# products against the Kunneth formula


def _crown():
    """Fixed points a1, a2, each below b1 = <(1, 0)> and b2 = <(0, 1)>: the
    order complex is a circle."""
    return build_from_description(SpaceDescription.from_json_dict({
        "torus_dim": 2,
        "strata": [{"id": "a1", "stabilizer": [[1, 0], [0, 1]]},
                   {"id": "a2", "stabilizer": [[1, 0], [0, 1]]},
                   {"id": "b1", "stabilizer": [[1, 0]]}, {"id": "b2", "stabilizer": [[0, 1]]}],
        "covers": [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"]]}))


def _constant(space):
    """The constant system Q: dims 1, identity cover maps."""
    return CoefficientSystem.from_cover_maps(
        space, dict.fromkeys(space.ids, 1), {c: RatMatrix.identity(1) for c in space.covers})


def _kunneth_factors():
    factors = [build_polytope(preset_polytope(name))
               for name in ("segment", "triangle", "square")]
    factors += [build_sphere_product(1, [[1]]), build_linear_rep([(1, 0), (0, 1), (1, 1)]),
                _crown()]
    return factors


def test_product_cohomology_matches_the_kunneth_formula():
    """The moment system of P x Q is pi_1^* V_1 + pi_2^* V_2, so in degree k
    dim H^k(P x Q) = sum_{i+j=k} h^i(P; V_1) h^j(Q; Q) + h^i(P; Q) h^j(Q; V_2).

    The crown's order complex is a circle (H^1(crown; Q) = 1), so products
    with it have classes above degree 0.
    """
    factors = _kunneth_factors()
    degrees = range(4)

    def dims(v):
        # one complex per system across the degrees, as cohomology(v, k).dim each
        cx = _Complex(v, True)
        return [cx.data(k).dim for k in degrees]

    moment = [dims(v) for _, v in factors]
    constant = [dims(_constant(space)) for space, _ in factors]
    assert constant[-1] == [1, 1, 0, 0]
    above_zero = 0
    for p, left in enumerate(factors):
        for q, right in enumerate(factors):
            got = dims(build_product(left, right)[1])
            expected = [sum(moment[p][i] * constant[q][k - i] + constant[p][i] * moment[q][k - i]
                            for i in range(k + 1)) for k in degrees]
            assert got == expected, (p, q)
            above_zero += any(got[1:])
    assert above_zero == 11


# ---------------------------------------------------------------------------
# the forest pass: the forest cut of degree 0 and the resolution's degree 1

def _gauged_constant(space, rng):
    """The constant system Q in a random gauge g: proj(x, y) = g(y)/g(x),
    a functor isomorphic to Q whose maps are not all 1."""
    g = {x: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for x in space.ids}
    return CoefficientSystem.from_cover_maps(
        space, dict.fromkeys(space.ids, 1),
        {(x, y): RatMatrix.from_rows([[g[y] / g[x]]]) for x, y in space.covers})


def _forest_cases(rng):
    """The moment system and a gauged constant system of the Kunneth test's
    factors and of all their products."""
    factors = _kunneth_factors()
    for space, v in factors + [build_product(a, b) for a in factors for b in factors]:
        yield v
        yield _gauged_constant(space, rng)


def _deep_sphere_product():
    """An (S^2)^4 over T^3 (45 strata) where one stratum carries three of
    R's degree-3 cells."""
    return build_sphere_product(3, [(1, -1, 1), (-1, 0, 0), (1, -1, 0), (-1, 1, -1)])


def test_resolution_matches_the_order_complex_in_degrees_zero_to_three_seeded():
    """R (`_forest`) gives dim H^0..H^3 of the order complex, and
    `cohomology` in degrees 1..3 gives the order complex's result on both
    complexes: dimension, the three diagnostics and the representatives
    (the full complex above degree 1 only on spaces of at most 30 strata,
    for time).  Both long exact sequences on R give the order complex's
    nodes, ranks and failures: the pair's on down-closed subsets and the
    one `pair_ses` induces on each of them."""
    rng = random.Random(53)
    deep = _deep_sphere_product()
    crown3 = build_product(build_product(_crown(), _crown()), _crown())[0]
    cases = list(_forest_cases(rng)) + [
        deep[1], build_sphere_product(3, [(0, 0, -1), (0, 1, 1), (-1, -1, 1), (1, 0, -1)])[1],
        _constant(crown3), _gauged_constant(crown3, rng)]
    seen = Counter()
    for v in cases:
        dims = assigncoh.cochain._resolution_dims(v, 3)
        for strict in (True, False):
            cx = _Complex(v, strict)
            top = 3 if strict or len(v.space.ids) <= 30 else 1
            assert dims[:top + 1] == [cx.data(k).dim for k in range(top + 1)]
            for k in range(1, top + 1):
                want, got = _enumerated(cx, k), cohomology(v, k, strict)
                assert (got.dim, got.diagnostics) == (want.dim, want.diagnostics)
                assert ([r._row for r in got.representatives]
                        == [r._row for r in want.representatives])
        seen.update(k for k in range(1, 4) if dims[k])
    assert seen == {1: 25, 2: 4, 3: 2}
    cells, _ = assigncoh.cochain._forest(deep[0], 3)
    assert max(Counter(c[-1] for c in cells[3]).values()) == 3
    spaces = [deep, build_product(_poly("triangle"), two_stratum()),
              build_product(_poly("square"), _crown())]
    sequences = 0
    for space, v in spaces:
        z = rng.choice([x for x in space.ids if space.below(x)])
        for nset in (frozenset(minimal_strata(space)), frozenset(space.below(z)),
                     frozenset(space.below(z)) | {z}, frozenset(), frozenset(space.ids)):
            ref = _les_pair_unshared(v, nset)
            want = (ref.node_names, ref.node_dims, ref.map_ranks, ref.failures)
            rep = les_pair_check(v, nset)
            assert (rep.node_names, rep.node_dims, rep.map_ranks, rep.failures) == want
            coeff = les_coefficients_check(*pair_ses(v, nset))
            assert (coeff.node_dims, coeff.map_ranks, coeff.failures) == want[1:]
            sequences += rep.ok and any(rep.node_dims[3:])
    assert sequences >= 9


def test_forest_cut_has_the_kernel_of_the_system_cut_seeded():
    """Degree 0 of a functor whose report is known runs on its cut, the
    forest cut (one cover per component, `CoefficientSystem._cut`): the
    same canonical rows and pivots as the rows at every cover, from fewer
    rows."""
    fewer = 0
    for v in _forest_cases(random.Random(59)):
        assert check_functor(v).ok
        n = chain_space_dim(v, 0)
        basis = chain_basis(v, 0)
        ref = assigncoh.cochain._CohomologyData(
            [], _differential(v, basis, ChainBasis(v, 1, True, v.space.covers)), n)
        got = _Complex(v, True).data(0)
        assert (got.dim, got._rep_rows, got.rep_pivots) == (ref.dim, ref._rep_rows, ref.rep_pivots)
        assert set(v._cut) <= set(v.space.covers)
        fewer += len(v._cut) < len(v.space.covers)
    assert fewer >= 40


def _sphere_products_over_t3(rng):
    """The deep (S^2)^4 and four seeded (S^2)^4 spaces over T^3."""
    return [_deep_sphere_product()[0]] + [
        build_sphere_product(3, [[rng.randint(-1, 1) for _ in range(3)] for _ in range(4)])[0]
        for _ in range(4)]


def test_components_join_covers_that_share_a_minimal_stratum_seeded():
    """`_components` against brute force: at each stratum, in (len(below),
    id) order, two lower covers are in one component when the minimal
    strata at or below them meet, closed transitively.  Each component's
    key is the first minimal stratum by id at or below it, and its kept
    cover is one of its covers (the walk keeps the cover of
    the last part a merge pops, not always its first in `lower_covers`
    order; the forest cut depends on that choice, so it stays as it is).
    On the spaces of `_forest_cases` and (S^2)^4 spaces over T^3."""
    rng = random.Random(71)
    spaces = list({id(v.space): v.space for v in _forest_cases(rng)}.values())
    spaces += _sphere_products_over_t3(rng)
    joined = 0
    for space in spaces:
        comps = assigncoh.stratposet._components(space)
        assert list(comps) == sorted(space.ids, key=lambda z: (len(space.below(z)), z))
        minima = sorted(minimal_strata(space))
        low = {y: {m for m in minima if m == y or m in space.below(y)} for y in space.ids}
        for z, parts in comps.items():
            groups = [[y] for y in space.lower_covers(z)]
            while True:
                meet = next(((g, h) for g in groups for h in groups if g is not h
                             and any(low[x] & low[y] for x in g for y in h)), None)
                if meet is None:
                    break
                groups.remove(meet[1])
                meet[0].extend(meet[1])
            want = {min(set().union(*(low[y] for y in g))): g for g in groups}
            assert set(parts) == set(want)
            assert all(y in want[m] for m, y in parts.items())
            assert bool(parts) == bool(space.below(z))
            joined += sum(len(g) > 1 for g in groups)
    assert joined == 443


def test_resolution_and_forest_cut_digests_are_unchanged():
    """SHA-256 of R to the top degree + 2 (the cells in order, the
    boundaries sorted by repr) and of the forest cut (the moment system's
    `_cut`) on cube x square and s7, as the single pass over the poset
    gave them before `_forest` and the cut were split: a regression guard
    for any rewrite of the walk."""
    cases = {
        "cube x square": (build_product(_poly("cube"), _poly("square"))[0],
                          "c52b6aab5de43e3aee6727d7bec5d3b4b4fd43230af44bbdc77c3a8b75d33397",
                          "c57aa0a7b475080ece1f12a364bf07a8ff4bf321ed82ee5662af7c97e26b70cf"),
        "s7": (build_sphere_product(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0],
                                        [0, 1, 1], [1, 0, 1], [1, 1, 1]])[0],
               "8502ea5b630c0dc860ca6bf22b27564137fe156f8ad2893c458838c89fea039c",
               "40e3bbbfe424f6935cb3c653173ffae8fff895e0b8745dd2febb41c6d2d67f94"),
    }
    for name, (space, want_r, want_cut) in cases.items():
        cells, bounds = assigncoh.cochain._forest(space, assigncoh.cochain._top_degree(space) + 2)
        canon = repr((cells, sorted(repr((c, sorted(b.items()))) for c, b in bounds.items())))
        cut = repr(moment_system(space)._cut)
        assert hashlib.sha256(canon.encode()).hexdigest() == want_r, name
        assert hashlib.sha256(cut.encode()).hexdigest() == want_cut, name


def test_forest_union_find_is_the_kernel_step_from_degree_two_seeded():
    """`_forest`'s degree-2 union-find gives the cells and boundaries of
    the kernel step run from d = 2 (`oracles.kernel_forest`), in degrees
    2 and 3: on the spaces of `_forest_cases`, the deep (S^2)^4 and seeded
    (S^2)^4 spaces over T^3."""
    rng = random.Random(61)
    spaces = list({id(v.space): v.space for v in _forest_cases(rng)}.values())
    spaces += _sphere_products_over_t3(rng)
    two_cells = 0
    for space in spaces:
        for degree in (2, 3):
            got = assigncoh.cochain._forest(space, degree)
            assert got == kernel_forest(space, degree)
        two_cells += len(got[0][2])
    assert two_cells == 276


def test_both_cycle_finders_agree_on_one_cells_and_r_ends_at_the_top_degree_seeded():
    """At every stratum z, `_tree_cycles` and `_kernel_cycles` on the 1-cells
    below z (in `_forest`'s order) return the same closing faces and the
    same cycle for each; and `_forest(space, top + 2)` has no cell above
    the order complex's top degree: on the spaces of `_forest_cases`, the
    deep (S^2)^4 and seeded (S^2)^4 spaces over T^3."""
    rng = random.Random(67)
    spaces = list({id(v.space): v.space for v in _forest_cases(rng)}.values())
    spaces += _sphere_products_over_t3(rng)
    closing = reaches_top = 0
    for space in spaces:
        top = assigncoh.cochain._top_degree(space)
        cells, bounds = assigncoh.cochain._forest(space, top + 2)
        assert not any(cells[top + 1:])
        reaches_top += bool(cells[top])
        at = {}
        for c in cells[1]:
            at.setdefault(c[-1], []).append(c)
        for z in space.ids:
            faces = [c for x in space.below(z) for c in at.get(x, ())]
            tree, tree_cycle = assigncoh.cochain._tree_cycles(faces, bounds)
            kernel, kernel_cycle = assigncoh.cochain._kernel_cycles(faces, bounds)
            assert tree == kernel
            assert all(tree_cycle(j) == kernel_cycle(j) for j in range(len(tree)))
            closing += len(tree)
    assert (closing, reaches_top) == (621, 35)


def test_an_unknown_support_kind_is_a_program_fault():
    """The support kinds are internal, so an unknown one is a bug: it raises
    AssertionError, which the command line does not read as a user's
    validation error (a bare ValueError exits 2)."""
    with pytest.raises(AssertionError, match="unknown support kind 'both'"):
        assigncoh.cochain._filtered_tuples([("m",)], ("both", frozenset({"m"})))


def test_systems_off_the_laws_keep_the_order_complex(monkeypatch):
    """A system whose laws fail, or whose report is not yet known, never
    reaches the forest pass in degree 0; degree 1 walks the report and then
    refuses, or answers, on the order complex as before.  A zero identity
    map with no failing square is a weak complex with fewer assignments."""

    def refuse(*args, **kwargs):
        raise AssertionError("the forest pass ran")

    chain = build_from_description(SpaceDescription.from_json_dict({
        "torus_dim": 2, "covers": [["m", "a"], ["a", "b"]],
        "strata": [{"id": "m", "stabilizer": [[1, 0], [0, 1]]},
                   {"id": "a", "stabilizer": [[1, 0]]}, {"id": "b", "stabilizer": []}],
        "dims": {"m": 1, "a": 1, "b": 1},
        "projections": [{"pair": ["m", "a"], "matrix": [["1"]]},
                        {"pair": ["a", "b"], "matrix": [["1"]]},
                        {"pair": ["m", "b"], "matrix": [["2"]]}]}))[1]
    point = build_from_description(SpaceDescription.from_json_dict({
        "torus_dim": 1, "covers": [], "strata": [{"id": "a", "stabilizer": [[1]]}],
        "dims": {"a": 1}, "projections": [{"pair": ["a", "a"], "matrix": [["0"]]}]}))[1]
    monkeypatch.setattr(assigncoh.cochain, "_forest", refuse)
    assert cohomology(chain, 0).dim == 0
    assert check_functor(chain).composition_violations == (("m", "a", "b"),)
    assert cohomology(chain, 0).dim == 0
    for strict in (True, False):
        with pytest.raises(ValueError, match="degree 1 has no cohomology"):
            cohomology(chain, 1, strict)
    assert [cohomology(point, 0, strict).dim for strict in (True, False)] == [1, 0]
    full = cohomology(point, 1, strict=False)
    assert (full.dim, full.diagnostics) == (
        0, {"dim_chain": 1, "dim_cocycles": 1, "rank_coboundaries": 1})


def test_cube_times_cube_meets_the_simple_polytope_oracle_through_the_resolution(monkeypatch):
    """HA^0 = 12 facets and HA^1 = 0 on cube x cube (729 strata), with no
    order-complex chain above degree 0: degree 1 is answered by R alone."""
    degrees = []
    enumerate_chains = assigncoh.cochain.chains

    def counted(space, k, strict):
        degrees.append(k)
        return enumerate_chains(space, k, strict)

    monkeypatch.setattr(assigncoh.cochain, "chains", counted)
    _, v = build_product(_poly("cube"), _poly("cube"))
    assert cohomology(v, 0).dim == 12
    for strict in (True, False):
        res = cohomology(v, 1, strict)
        assert (res.dim, res.representatives) == (0, [])
        assert res.diagnostics["dim_chain"] == chain_space_dim(v, 1, strict)
        assert res.diagnostics["rank_coboundaries"] == chain_space_dim(v, 0) - 12
    assert degrees == [0]


@pytest.mark.parametrize("ask, message", [
    (lambda b: Cochain(b, [0, 0]), "coordinate length 2 != chain dimension 1"),
    (lambda b: Cochain(b, [1]).value_on(("pt", "open")), "tuple length 2 != degree+1"),
], ids=["coordinates-off-the-basis", "tuple-of-another-degree"])
def test_cochain_refusals_name_their_fault(ask, message):
    _, v = two_stratum()
    with pytest.raises(ValueError) as info:
        ask(chain_basis(v, 0))
    assert info.value.args == (message,)
