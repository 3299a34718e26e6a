"""A catalogue of mutants: small deliberate faults that the tests must catch.

Each entry names a module of `src/assigncoh`, an exact source snippet that
occurs once in it, the snippet's replacement, and the tests expected to
fail (pytest node ids, relative to the repository root).
`tests/run_mutants.py` applies each mutant to a temporary copy of `src/`
and runs only those tests; `tests/test_mutants.py` checks that every
snippet still occurs exactly once, so a refactor that removes a target
must update or retire its entry.

An entry with ``survives=True`` is a known equivalent mutant: it changes
no result, only cost, so no test can kill it.  The runner expects its
named tests to pass.
"""

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    module: str            # file name under src/assigncoh
    snippet: str           # occurs exactly once in the module
    replacement: str
    killers: Tuple[str, ...]
    survives: bool = False
    note: str = ""


MUTANTS = (
    Mutant(
        "image-pivots-not-pinned",
        "cochain.py",
        "pinned = _forward(d_out + [{p: 1} for p in pins], dim_chain)",
        "pinned = _forward(d_out, dim_chain)",
        ("tests/test_acceptance.py::test_acceptance_1_cp2_dimensions",
         "tests/test_cochain.py::test_dims_first_matches_one_pass_cohomology_seeded",
         "tests/test_bench_reference.py::test_seed0_matches_recorded_digests[elim]"),
        note="dim H^k would read dim ker d_k",
    ),
    Mutant(
        "no-refusal-where-d-squared-is-not-zero",
        "cochain.py",
        "if not _composes_to_zero(d_in_t, d_out, src.total_dim):",
        "if False:",
        ("tests/test_cochain.py::test_dims_first_matches_one_pass_cohomology_seeded",
         "tests/test_cli.py::test_cohomology_refuses_where_d_squared_is_not_zero"),
    ),
    Mutant(
        "class-coords-skip-the-image",
        "cochain.py",
        "for p in [p for p in vec if p in self._im_at]:",
        "for p in []:",
        ("tests/test_cochain.py::test_class_coords_round_trip[sphere-product]",
         "tests/test_cochain.py::test_les_pair_fixed_points"),
    ),
    Mutant(
        "canonical-pass-only-above-one-class",
        "cochain.py",
        "        if self.dim:\n",
        "        if self.dim > 1:\n",
        ("tests/test_cochain.py::test_representatives_are_cocycles",
         "tests/test_cochain.py::test_dims_first_matches_one_pass_cohomology_seeded"),
    ),
    Mutant(
        "top-face-sign-flipped-from-degree-2",
        "cochain.py",
        "out.append((t[:-1], -1 if n & 1 else 1, proj(t[-2], t[-1])))",
        "out.append((t[:-1], (-1 if n & 1 else 1) * (-1 if n >= 3 else 1), "
        "proj(t[-2], t[-1])))",
        ("tests/test_cochain.py::test_d_squared_is_zero",
         "tests/test_cochain.py::test_degree_zero_witness_decides_degrees_zero_to_three_seeded"),
    ),
    Mutant(
        "normalize-without-division",
        "ratlin.py",
        "norm[j] = Fraction(x, p) if r else q",
        "norm[j] = x",
        ("tests/test_ratlin.py::test_fraction_free_elimination_matches_reference_randomized",
         "tests/test_imports.py::test_module_doctest[ratlin]"),
    ),
    Mutant(
        "clear-without-gcd-of-pivot-and-entry",
        "ratlin.py",
        "            g = gcd(p, f)\n            f //= g\n",
        "            g = 1\n            f //= g\n",
        ("tests/test_ratlin.py::test_fraction_free_elimination_matches_reference_randomized",
         "tests/test_ratlin.py::test_two_pass_echelon_matches_interleaved_seeded"),
        survives=True,
        note="the content division after each non-unit-pivot step removes the "
             "extra factor g, and primitive echelon rows are unique",
    ),
    Mutant(
        "closed-form-ignores-identity-violations",
        "coeffsys.py",
        "    if report.composition_violations:\n        return False\n",
        "    return not report.composition_violations\n",
        ("tests/test_cochain.py::test_degree_zero_witness_decides_degrees_zero_to_three_seeded",),
    ),
    Mutant(
        "compose-through-the-last-lower-cover",
        "coeffsys.py",
        "y = next(y for y in self.space.lower_covers(z) if y in up)",
        "y = [y for y in self.space.lower_covers(z) if y in up][-1]",
        ("tests/test_coeffsys.py::test_lazy_pairs_match_eager_composition_seeded",),
    ),
    Mutant(
        "lower-covers-sorted-by-id-alone",
        "stratposet.py",
        "xs.sort(key=lambda x: (-len(upsets[x]), x))",
        "xs.sort()",
        ("tests/test_coeffsys.py::test_lazy_pairs_match_eager_composition_seeded",
         "tests/test_stratposet.py::test_order_tables_match_brute_force_seeded"),
    ),
    Mutant(
        "rows-prefer-the-path-over-explicit-entries",
        "coeffsys.py",
        "        rows = self._explicit.get((x, y))\n"
        "        return self._path(x, y) if rows is None else rows\n",
        "        rows = self._at.get((x, y), self._explicit.get((x, y)))\n"
        "        return self._path(x, y) if rows is None else rows\n",
        ("tests/test_coeffsys.py::test_lazy_pairs_match_eager_composition_seeded",
         "tests/test_coeffsys.py::test_check_functor_matches_dense_triple_walk_seeded"),
    ),
    Mutant(
        "cut-without-the-overridden-cover-fallback",
        "coeffsys.py",
        "if any(p in covers for p in explicit):",
        "if False:",
        ("tests/test_coeffsys.py::test_degree_zero_from_cut_pairs_matches_d0_seeded",),
    ),
    Mutant(
        "square-skip-ignores-explicit-entries",
        "coeffsys.py",
        "                        if not (explicit and any(\n"
        "                                p in explicit for p in ((x, y), (y, z), (x, z)))):\n"
        "                            continue\n",
        "                        continue\n",
        ("tests/test_coeffsys.py::test_check_functor_matches_dense_triple_walk_seeded",),
    ),
    Mutant(
        "square-skip-on-the-non-route-squares",
        "coeffsys.py",
        "                    if x not in routed:\n                        routed.add(x)\n",
        "                    if x in routed or routed.add(x):\n",
        ("tests/test_coeffsys.py::test_check_functor_matches_dense_triple_walk_seeded",
         "tests/test_coeffsys.py::test_check_functor_skips_the_squares_composed_through_their_route"),
    ),
    Mutant(
        "square-skip-disabled",
        "coeffsys.py",
        "                    if x not in routed:\n",
        "                    if x in routed:\n",
        ("tests/test_coeffsys.py::test_check_functor_skips_the_squares_composed_through_their_route",),
        note="every square is multiplied: correct but slower, so only the count test sees it",
    ),
    Mutant(
        "every-square-skipped",
        "coeffsys.py",
        "                    if _mul(rows(y, z), rows(x, y)) != rows(x, z):\n"
        "                        return False\n",
        "                    continue\n",
        ("tests/test_coeffsys.py::test_check_functor_matches_dense_triple_walk_seeded",),
    ),
)
