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
        "pinned = _forward(d_out + [{p: 1} for p in pins], dim_chain, 1 if pins else -1)",
        "pinned = _forward(d_out, dim_chain, 1 if pins else -1)",
        ("tests/test_acceptance.py::test_acceptance_2_relative_cp2",
         "tests/test_cochain.py::test_dims_first_matches_one_pass_cohomology_seeded",
         "tests/test_bench_reference.py::test_seed0_matches_recorded_digests[full]"),
        note="dim H^k would read dim ker d_k; a degree k >= 1 of a functor, as in "
             "every degree-1 op of elim and the toric vanishing test, is read off the "
             "resolution and never sees it",
    ),
    Mutant(
        "degree-zero-scans-left-to-right",
        "cochain.py",
        "dim_chain, 1 if pins else -1)",
        "dim_chain, 1)",
        ("tests/test_cochain.py::test_degree_zero_representatives_are_the_rref_of_the_kernel_seeded",
         "tests/test_cochain.py::test_dims_first_matches_one_pass_cohomology_seeded",
         "tests/test_bench_reference.py::test_seed0_matches_recorded_digests[elim]"),
        note="the kernel read as its own RREF would lead at a pivot column, not at "
             "its free column",
    ),
    Mutant(
        "degree-zero-takes-the-second-elimination",
        "cochain.py",
        "sparse_rref(self.cocycles, dim_chain) if pins",
        "sparse_rref(self.cocycles, dim_chain) if True",
        ("tests/test_cochain.py::test_degree_zero_runs_one_elimination",),
        note="the same bytes from a second elimination: only the guard sees it",
    ),
    Mutant(
        "no-refusal-where-d-squared-is-not-zero",
        "cochain.py",
        "if bad and any(t[-3:] in bad",
        "if False and any(t[-3:] in bad",
        ("tests/test_cochain.py::test_dims_first_matches_one_pass_cohomology_seeded",
         "tests/test_cochain.py::test_square_failures_decide_every_degree_of_every_complex_seeded",
         "tests/test_cli.py::test_cohomology_refuses_where_d_squared_is_not_zero"),
    ),
    Mutant(
        "refusal-without-the-prefix-test",
        "cochain.py",
        "t[-3:] in bad and t[:-2] in self.basis(k - 1).index",
        "t[-3:] in bad",
        ("tests/test_cochain.py::test_square_failures_decide_every_degree_of_every_complex_seeded",),
        note="a relative or subset complex would refuse where t[:-2] is no chain of it",
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
        "sharing-window-without-k-minus-1",
        "cochain.py",
        "self._keeps(*range(max(k - 1, 0), k + 2))",
        "self._keeps(*range(k, k + 2))",
        ("tests/test_cochain.py::test_les_pair_fixed_points",
         "tests/test_cochain.py::test_les_pair_sharing_matches_unshared_complexes_seeded"),
        note="a relative complex would take the space's cohomology in a degree "
             "whose incoming differential it does not share",
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
        "s = -1 if n & 1 else 1",
        "s = (-1 if n & 1 else 1) * (-1 if n >= 3 else 1)",
        ("tests/test_cochain.py::test_d_squared_is_zero",
         "tests/test_cochain.py::test_degree_zero_witness_decides_degrees_zero_to_three_seeded",
         "tests/test_cochain.py::test_chain_differential_matches_one_term_per_face_seeded"),
    ),
    Mutant(
        "cancelling-pair-reaches-the-top-face",
        "cochain.py",
        "if i + 1 < n and t[i] == t[i + 1]:",
        "if t[i] == t[i + 1]:",
        ("tests/test_cochain.py::test_chain_differential_matches_one_term_per_face_seeded",
         "tests/test_cochain.py::test_d_squared_is_zero[cp2-False]",
         "tests/test_bench_reference.py::test_seed0_matches_recorded_digests[full]"),
        note="a repeat at the top would drop identity face n-1 and keep proj(x, x) alone",
    ),
    Mutant(
        "empty-elimination-when-any-row-is-empty",
        "ratlin.py",
        "if not any(rows):",
        "if not all(rows):",
        ("tests/test_ratlin.py::test_fraction_free_elimination_matches_reference_randomized",
         "tests/test_cochain.py::test_full_equals_reduced[cp2]",
         "tests/test_bench_reference.py::test_seed0_matches_recorded_digests[light]"),
        note="one empty row would end the elimination with rank 0",
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
        "for x in () if strict else v._report.identity_violations:",
        "for x in ():",
        ("tests/test_cochain.py::test_degree_zero_witness_decides_degrees_zero_to_three_seeded",
         "tests/test_cochain.py::test_square_failures_decide_every_degree_of_every_complex_seeded"),
    ),
    Mutant(
        "identity-triples-on-strict-complexes",
        "coeffsys.py",
        "() if strict else v._report.identity_violations",
        "v._report.identity_violations",
        ("tests/test_cochain.py::test_square_failures_decide_every_degree_of_every_complex_seeded",),
        note="no strict tuple ends in a repeat, so no refusal changes: only "
             "the gate's dense walk over the triples sees the extra ones",
    ),
    Mutant(
        "repeat-family-x-x-x-omitted",
        "coeffsys.py",
        "        if _mul(p, p) != p:\n",
        "        if False:\n",
        ("tests/test_cochain.py::test_closed_form_reads_each_repeat_product",
         "tests/test_cochain.py::test_square_failures_decide_every_degree_of_every_complex_seeded"),
    ),
    Mutant(
        "repeat-family-x-x-c-omitted",
        "coeffsys.py",
        "bad.update((x, x, c) for c in space.above(x)",
        "bad.update((x, x, c) for c in ()",
        ("tests/test_cochain.py::test_closed_form_reads_each_repeat_product",
         "tests/test_cochain.py::test_square_failures_decide_every_degree_of_every_complex_seeded"),
    ),
    Mutant(
        "repeat-family-a-x-x-omitted",
        "coeffsys.py",
        "bad.update((a, x, x) for a in space.below(x)",
        "bad.update((a, x, x) for a in ()",
        ("tests/test_cochain.py::test_closed_form_reads_each_repeat_product",
         "tests/test_cochain.py::test_square_failures_decide_every_degree_of_every_complex_seeded"),
    ),
    Mutant(
        "functor-report-not-kept",
        "coeffsys.py",
        "    @cached_property\n    def _report(",
        "    @property\n    def _report(",
        ("tests/test_cli.py::test_check_les_checks_the_functor_laws_once",),
        note="every reader would walk the laws again, and moment_system could not "
             "set its report",
    ),
    Mutant(
        "compose-through-the-last-lower-cover",
        "stratposet.py",
        "return next(y for y in self._covered[z] if y in up)",
        "return [y for y in self._covered[z] if y in up][-1]",
        ("tests/test_coeffsys.py::test_lazy_pairs_match_eager_composition_seeded",),
        note="`_compose` and `extend` take the one route, so they move together and "
             "agree; only the eager composition along the first cover sees it",
    ),
    Mutant(
        "from-covers-keeps-implied-pairs",
        "stratposet.py",
        "                if y not in up:\n",
        "                if True:\n",
        ("tests/test_stratposet.py::test_order_tables_match_brute_force_seeded",
         "tests/test_stratposet.py::test_implied_pairs_leave_the_order_tables_unchanged_seeded"),
        note="a listed implied pair would count as a cover; check still walks "
             "the square its projection breaks, so only the order tables show it",
    ),
    Mutant(
        "implied-check-in-id-order",
        "stratposet.py",
        "for y in sorted(succ[x], key=rank.__getitem__):",
        "for y in succ[x]:",
        ("tests/test_stratposet.py::test_implied_pairs_leave_the_order_tables_unchanged_seeded",),
        note="an implied pair listed before the pair that composes it would be kept",
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
        "explicit-entry-on-a-cover-accepted",
        "coeffsys.py",
        "if on_cover:",
        "if False:",
        ("tests/test_coeffsys.py::test_from_cover_maps_refuses_an_explicit_entry_on_a_cover",),
        note="the entry would hide the cover's map from the cut while the "
             "compositions still use it",
    ),
    Mutant(
        "every-square-skipped",
        "coeffsys.py",
        "                    if y in p and _mul(rows(y, z), p[y]) != p[z]:\n"
        "                        return False\n",
        "                    continue\n",
        ("tests/test_coeffsys.py::test_check_functor_matches_dense_triple_walk_seeded",),
        note="retargeted to the squares read off the pushed rows",
    ),
    Mutant(
        "square-walk-disabled",
        "coeffsys.py",
        "if squares_hold():",
        "if False:",
        ("tests/test_coeffsys.py::test_check_functor_multiplies_each_cover_square_once",),
        note="every strict triple is multiplied: correct but slower, so only the count test sees it",
    ),
    Mutant(
        "certificate-on-every-system",
        "coeffsys.py",
        "        v._keep(space, dims, covers, explicit)\n",
        "        v._keep(space, dims, covers, explicit)\n        v._report = FunctorReport((), ())\n",
        ("tests/test_coeffsys.py::test_check_functor_matches_dense_triple_walk_seeded",),
        note="a system with user-given projections would pass check without a walk",
    ),
    Mutant(
        "cover-coordinate-off-by-one",
        "stratposet.py",
        "                    coords[i] = q\n",
        "                    coords[i] = q + (i == 1)\n",
        ("tests/test_cochain.py::test_simple_polytopes_have_one_class_per_facet_and_none_above_seeded",
         "tests/test_coeffsys.py::test_moment_systems_arrive_certified_and_pass_the_law_walk_seeded",
         "tests/test_cochain.py::test_forest_cut_has_the_kernel_of_the_system_cut_seeded",
         "tests/test_bench_reference.py::test_seed0_matches_recorded_digests[elim]",
         "tests/test_stratposet.py::test_coordinates_of_matches_reference_solve_randomized"),
        note="the second coordinate of every cover map with one is off by one, so "
             "the moment system breaks its laws behind its certificate; 41 tests of "
             "the whole suite fail, the polytope oracle and the law walk on moment "
             "systems among them",
    ),
    Mutant(
        "extend-skips-the-cut-check",
        "assignops.py",
        "        if _apply(v._rows(x, y), values[x]) != values[y]:\n"
        "            raise BrokenProjectionError((x, y))\n",
        "        pass\n",
        ("tests/test_cli.py::test_extend_checks_the_cut_of_a_system_that_breaks_the_functor_laws",
         "tests/test_cochain.py::test_every_successful_extend_is_an_assignment_seeded"),
        note="on a system that breaks the functor laws extend would print a non-assignment",
    ),
    Mutant(
        "extend-pushes-through-an-explicit-entry",
        "coeffsys.py",
        "yield y, push(y) if rows is None else apply(rows, value)",
        "yield y, push(y) if rows is None else path.setdefault(y, apply(rows, value))",
        ("tests/test_coeffsys.py::test_pushed_values_are_the_rows_applied_seeded",
         "tests/test_cochain.py::test_extend_matches_the_per_pair_walk_seeded[cube]",
         "tests/test_cochain.py::test_extend_matches_the_per_pair_walk_seeded[square*segment]"),
        note="retargeted from `extend_minimal`'s push into `_pushed`: a stratum above "
             "an explicit entry (x, y) would take the entry's value as the step of its "
             "route, where proj composes the cover maps",
    ),
    Mutant(
        "naturality-on-covers-only",
        "coeffsys.py",
        "for x, y in sorted(set(source._given).union(target._given)):",
        "for x, y in space.covers:",
        ("tests/test_coeffsys.py::test_morphism_naturality_matches_the_per_pair_walk_seeded",),
        note="a map that commutes on every cover but not at an explicit entry off "
             "a cover would be accepted",
    ),
    Mutant(
        "naturality-on-the-source-given-pairs-only",
        "coeffsys.py",
        "for x, y in sorted(set(source._given).union(target._given)):",
        "for x, y in source._given:",
        ("tests/test_coeffsys.py::test_morphism_naturality_matches_the_per_pair_walk_seeded",),
        note="a target's explicit entry that leaves the route would go unchecked",
    ),
    Mutant(
        "is-assignment-checks-minimal-strata-only",
        "assignops.py",
        "    for x in v.space.ids:\n",
        "    for x in minimal_strata(v.space):\n",
        ("tests/test_cochain.py::test_is_assignment_matches_the_per_pair_walk_seeded",),
        note="a violation between two strata above the minimal ones would go unreported",
    ),
    Mutant(
        "is-assignment-trusts-a-foreign-candidate",
        "assignops.py",
        "values = AssignmentVector(v, candidate.values).values",
        "values = candidate.values",
        ("tests/test_assignops.py::test_a_candidate_of_another_system_is_read_as_this_one",),
        note="a candidate with fewer coordinates than v would be compared only on the "
             "coordinates it has",
    ),
    Mutant(
        "weak-chain-counter-with-the-strict-step",
        "cochain.py",
        "return sum(t * comb(k, i) for i, t in enumerate(sizes))",
        "return sizes[k] if k < len(sizes) else 0",
        ("tests/test_cochain.py::test_counted_chain_dims_match_enumeration_seeded[weak]",
         "tests/test_cochain.py::test_counted_chain_dims_reach_large_degrees",
         "tests/test_cochain.py::test_chain_counts_in_closed_form_match_the_recurrences",
         "tests/test_cli.py::test_huge_degrees_are_answered_from_counts"),
        note="retargeted from the weak recurrence, which the closed form replaced: "
             "the full complex's dim C^k would be the reduced one's",
    ),
    Mutant(
        "column-product-sign-flipped",
        "ratlin.py",
        "acc[j] = acc.get(j, 0) + x * y",
        "acc[j] = acc.get(j, 0) - x * y",
        ("tests/test_ratlin.py::test_product_apply_and_transpose_match_dense_loops_seeded",),
    ),
    Mutant(
        "transpose-wrapper-swaps-the-shape",
        "ratlin.py",
        "return RatMatrix.from_sparse(_transpose(self._rows, self.cols), self.rows)",
        "return RatMatrix.from_sparse(_transpose(self._rows, self.cols), self.cols)",
        ("tests/test_ratlin.py::test_product_apply_and_transpose_match_dense_loops_seeded",),
    ),
    Mutant(
        "from-sparse-keeps-zero-entries",
        "ratlin.py",
        "return {j: y for j, x in row.items() if (y := _coef(x))}",
        "return {j: _coef(x) for j, x in row.items()}",
        ("tests/test_ratlin.py::test_dense_and_row_built_matrices_are_one_value_seeded",
         "tests/test_ratlin.py::test_matrix_algebra"),
        note="a matrix given an explicit zero would differ, in == and hash, "
             "from the same matrix without it",
    ),
    Mutant(
        "data-view-columns-from-the-row-count",
        "ratlin.py",
        "self._data = [_dense(row, self.cols) for row in self._rows]",
        "self._data = [_dense(row, self.rows) for row in self._rows]",
        ("tests/test_ratlin.py::test_dense_and_row_built_matrices_are_one_value_seeded",
         "tests/test_cochain.py::test_pullback_matches_dense_reference_seeded"),
        note="the dense rows of a non-square matrix would have the wrong length",
    ),
    Mutant(
        "solutions-rank-counts-the-first-rhs-pivot",
        "ratlin.py",
        "rank = bisect_left(pivots, ncols)",
        "rank = sum(1 for c in pivots if c <= ncols)",
        ("tests/test_ratlin.py::test_solutions_match_reference_solve_seeded",
         "tests/test_ratlin.py::test_solve_inconsistent",
         "tests/test_ratlin.py::test_preimage_and_solve_match_reference_solve_seeded",
         "tests/test_momentpoly.py::test_criterion_matches_brute_rank_randomized"),
        note="a b_0 outside the column space would read as solved, with an "
             "entry in its own column",
    ),
    Mutant(
        "solutions-outside-skips-the-first-rhs-pivot-row",
        "ratlin.py",
        "for row in red[rank:] for j in row}",
        "for row in red[rank + 1:] for j in row}",
        ("tests/test_ratlin.py::test_solutions_match_reference_solve_seeded",
         "tests/test_ratlin.py::test_solve_inconsistent",
         "tests/test_momentpoly.py::test_criterion_matches_brute_rank_randomized",
         "tests/test_imports.py::test_module_doctest[ratlin]",
         "tests/test_bench_reference.py::test_seed0_matches_recorded_digests[light]"),
        note="the right-hand sides seen only on the first row past the rank "
             "would read as solved",
    ),
    Mutant(
        "parse-error-position-of-the-next-token",
        "momentpoly.py",
        "        if j == i:\n            at = m.start()\n",
        "        if j == i + 1:\n            at = m.start()\n",
        ("tests/test_momentpoly.py::test_parse_error_messages_and_positions",),
        note="every syntax and arity error would point one token too far",
    ),
    Mutant(
        "cofactor-factors-z-where-k-is-zero",
        "momentpoly.py",
        "if k[i] > 0:",
        "if k[i] >= 0:",
        ("tests/test_momentpoly.py::test_decompose_antiholomorphic_term",
         "tests/test_momentpoly.py::test_text_roundtrip",
         "tests/test_bench_reference.py::test_seed0_matches_recorded_digests[light]"),
        note="z^-1 zbar-terms land in f; recombine adds the exponent back, so "
             "verify_decomposition still holds and only the texts show it",
    ),
    Mutant(
        "batched-solve-block-offset-off-by-one",
        "momentpoly.py",
        "row = {offset + j: x for j, i in enumerate(support) if (x := wrows[i][r])}",
        "row = {offset + j + 1: x for j, i in enumerate(support) if (x := wrows[i][r])}",
        ("tests/test_momentpoly.py::test_one_elimination_matches_one_per_support_seeded",
         "tests/test_momentpoly.py::test_criterion_matches_brute_rank_randomized",
         "tests/test_momentpoly.py::test_decompose_mixed_term_prefers_low_index",
         "tests/test_bench_reference.py::test_seed0_matches_recorded_digests[light]"),
        note="each support's weights would sit one column late in the block-diagonal "
             "system, the last one on the first term's column",
    ),
    Mutant(
        "verify-ignores-terms-missing-from-the-recombination",
        "momentpoly.py",
        "return got.keys() >= want.keys()",
        "return True",
        ("tests/test_momentpoly.py::test_verify_decomposition_agrees_with_recombine_seeded",
         "tests/test_momentpoly.py::test_verify_rejects_wrong_cofactors"),
        note="cofactors that recombine to p with some terms left out would pass",
    ),
    Mutant(
        "report-writer-key-separator-without-space",
        "cli.py",
        '_quote(k) + ": " + (',
        '_quote(k) + ":" + (',
        ("tests/test_cli.py::test_json_writer_matches_json_dumps_seeded",),
        note="every --json report and built space file would lose the space after each key",
    ),
    Mutant(
        "sparse-block-offset-off-by-one",
        "cochain.py",
        "out.setdefault(i, {})[j - self.offsets[i]] = x",
        "out.setdefault(i, {})[j - self.offsets[i] - 1] = x",
        ("tests/test_assignops.py::test_minimal_roundtrip_on_basis[cp2]",
         "tests/test_cli.py::test_assignments_tables_are_the_basis_vectors_as_text",
         "tests/test_bench_reference.py::test_seed0_matches_recorded_digests[elim]"),
        note="the split would read every block one coordinate late, so `assignments` "
             "would print each stratum's value shifted",
    ),
    Mutant(
        "nonzero-block-of-a-column-by-bisect-left",
        "cochain.py",
        "i = bisect_right(self.offsets, j) - 1",
        "i = bisect_right(self.offsets, j - 1) - 1",
        ("tests/test_cochain.py::test_nonzero_blocks_are_the_dense_walks_nonzero_blocks_seeded",
         "tests/test_cochain.py::test_sparse_and_dense_cochains_read_alike_seeded[cp2]",
         "tests/test_bench_reference.py::test_seed0_matches_recorded_digests[full]"),
        note="bisect_left on integer offsets: a column at a block's first coordinate "
             "would land in the block before, a zero-width one where blocks share the offset",
    ),
    Mutant(
        "split-without-the-block-offset",
        "cochain.py",
        "[j - self.offsets[i]] = x",
        "[j] = x",
        ("tests/test_cochain.py::test_move_splits_cochains_into_relative_and_subset_parts",
         "tests/test_cochain.py::test_les_coefficients_through_non_identity_stratum_maps",
         "tests/test_cochain.py::test_resolution_matches_the_order_complex_in_degrees_zero_to_three_seeded"),
        note="a block's positions would be its columns, so the block map `_carry` "
             "would write every block but the first past its end, or drop it",
    ),
    Mutant(
        "parser-registers-only-the-named-subcommands",
        "cli.py",
        "p = sub.add_parser(name, help=help_text, built=name in named)",
        "p = sub.add_parser(name, help=help_text, built=True) if name in named else None",
        ("tests/test_cli.py::test_parser_for_argv_matches_the_parser_for_every_name",),
        note="help, the usage {...} line and the invalid choice list would "
             "name only the subcommands in argv",
    ),
    Mutant(
        "cover-memo-keyed-by-upper-class",
        "stratposet.py",
        "key = (of[x], of[y])",
        "key = of[y]",
        ("tests/test_coeffsys.py::test_loading_solves_each_cover_once[cube*square]",
         "tests/test_coeffsys.py::test_shared_cover_rows_stay_intact[cube*square]",
         "tests/test_stratposet.py::test_first_failing_cover_matches_a_per_cover_walk_seeded"),
        note="covers with one upper stabilizer would share the first lower "
             "stabilizer's rows and verdict",
    ),
    Mutant(
        "sphere-kernel-keyed-by-open-count",
        "builders.py",
        "kernel = kernels.get(active)\n        if kernel is None:\n"
        "            kernel = kernels[active] =",
        "kernel = kernels.get(len(active))\n        if kernel is None:\n"
        "            kernel = kernels[len(active)] =",
        ("tests/test_builders.py::test_sphere_product_stabilizers_match_per_cell_kernels_seeded",
         "tests/test_builders.py::test_linear_rep_strata_are_the_merged_groups_of_equal_kernels_seeded"),
        note="cells with as many active weights (open factors, nonzero "
             "coordinates) would share the first one's kernel",
    ),
    Mutant(
        "merged-stratum-named-by-its-largest-cell",
        "builders.py",
        "parent[max(a, b)] = min(a, b)",
        "parent[min(a, b)] = max(a, b)",
        ("tests/test_builders.py::test_linear_rep_strata_are_the_merged_groups_of_equal_kernels_seeded",
         "tests/test_builders.py::test_deep_cells_merge_under_the_first_member_name",
         "tests/test_builders.py::test_opposite_weights_on_a_circle",
         "tests/test_builders.py::test_trivial_weight_collapses_everything"),
        note="a merged stratum would take the largest cell name of its group",
    ),
    Mutant(
        "resolution-2-cell-boundary-coefficient-negated",
        "cochain.py",
        "path, w = {c: 1}, c[1]",
        "path, w = {c: -1}, c[1]",
        ("tests/test_cochain.py::test_resolution_matches_the_order_complex_in_degrees_zero_to_three_seeded",
         "tests/test_cochain.py::test_both_cycle_finders_agree_on_one_cells_and_r_ends_at_the_top_degree_seeded"),
        note="a 2-cell's boundary would be no cycle, and rank delta_1 and dim H^1 change",
    ),
    Mutant(
        "forest-cut-keeps-only-the-first-cover",
        "coeffsys.py",
        "for y in parts.values())",
        "for y in self.space.lower_covers(z)[:1])",
        ("tests/test_cochain.py::test_forest_cut_has_the_kernel_of_the_system_cut_seeded",
         "tests/test_cochain.py::test_resolution_and_forest_cut_digests_are_unchanged",
         "tests/test_coeffsys.py::test_cut_is_the_forest_cut_exactly_when_a_clean_report_is_known_seeded",
         "tests/test_coeffsys.py::test_degree_zero_from_cut_pairs_matches_d0_seeded",
         "tests/test_bench_reference.py::test_seed0_matches_recorded_digests[elim]"),
        note="with components ignored, a moment system's degree 0 would gain "
             "vectors that break the dropped covers; 74 tests of the whole suite fail",
    ),
    Mutant(
        "cut-ignores-the-report",
        "coeffsys.py",
        "if _known_clean(self):",
        "if True:",
        ("tests/test_coeffsys.py::test_cut_is_the_forest_cut_exactly_when_a_clean_report_is_known_seeded",
         "tests/test_coeffsys.py::test_degree_zero_from_cut_pairs_matches_d0_seeded",
         "tests/test_coeffsys.py::test_from_cover_maps_refuses_an_explicit_entry_on_a_cover",
         "tests/test_cochain.py::test_dims_first_matches_one_pass_cohomology_seeded",
         "tests/test_cochain.py::test_systems_off_the_laws_keep_the_order_complex",
         "tests/test_cochain.py::test_every_successful_extend_is_an_assignment_seeded[cube]",
         "tests/test_cochain.py::test_every_successful_extend_is_an_assignment_seeded[s6]",
         "tests/test_cochain.py::test_every_successful_extend_is_an_assignment_seeded[square*segment]",
         "tests/test_cochain.py::test_extend_matches_the_per_pair_walk_seeded[s6]",
         "tests/test_cli.py::test_extend_checks_the_cut_of_a_system_that_breaks_the_functor_laws"),
        note="a system off the functor laws would take the forest cut, so its degree 0 "
             "would gain vectors and extend would check too few pairs",
    ),
    Mutant(
        "minimal-stratum-bit-shifted",
        "stratposet.py",
        "mask[z] = sum(parts) or 1 << len(mask)",
        "mask[z] = sum(parts) or 1 << len(mask) + 1",
        ("tests/test_cochain.py::test_components_join_covers_that_share_a_minimal_stratum_seeded",
         "tests/test_cochain.py::test_resolution_and_forest_cut_digests_are_unchanged",
         "tests/test_cochain.py::test_resolution_matches_the_order_complex_in_degrees_zero_to_three_seeded",
         "tests/test_cochain.py::test_cube_times_cube_meets_the_simple_polytope_oracle_through_the_resolution"),
        note="the components stay the same, but each lowest bit would name the next "
             "minimal stratum, and the last one indexes past the end: `_components` "
             "decodes the names itself, so it raises on every space with a stratum "
             "above a minimal one; 159 tests of the whole suite fail (75 while `_forest` "
             "decoded them)",
    ),
    Mutant(
        "component-named-by-its-highest-bit",
        "stratposet.py",
        "minima[(p & -p).bit_length() - 1]",
        "minima[p.bit_length() - 1]",
        ("tests/test_cochain.py::test_components_join_covers_that_share_a_minimal_stratum_seeded",),
        note="a component would be named by its last minimal stratum; R would stay a "
             "resolution with other 1-cell names, and on the digest test's spaces every "
             "stratum with two or more components has one minimal stratum in each, so "
             "only the components test sees it",
    ),
    Mutant(
        "kernel-free-columns-reversed",
        "ratlin.py",
        "return list(at), basis",
        "return list(at)[::-1], basis",
        ("tests/test_ratlin.py::test_fraction_free_elimination_matches_reference_randomized",
         "tests/test_ratlin.py::test_kernel_matches_dense_reference_randomized",
         "tests/test_cochain.py::test_both_cycle_finders_agree_on_one_cells_and_r_ends_at_the_top_degree_seeded",
         "tests/test_cochain.py::test_resolution_and_forest_cut_digests_are_unchanged"),
        note="each kernel vector would be paired with another free column: "
             "`kernel_basis` would normalize by the wrong entry and `_kernel_cycles` "
             "would bound a cell by another face's cycle; the cohomology data, which "
             "reads only the vectors, would not change",
    ),
    Mutant(
        "new-1-cell-joins-a-component-to-itself",
        "cochain.py",
        "mine[1] = [(a, b, z) for b in rest]",
        "mine[1] = [(b, b, z) for b in rest]",
        ("tests/test_cochain.py::test_resolution_matches_the_order_complex_in_degrees_zero_to_three_seeded",
         "tests/test_cochain.py::test_cube_times_cube_meets_the_simple_polytope_oracle_through_the_resolution"),
        note="the 1-cell (b, b, z) would have the boundary -b in place of a - b, "
             "so R is no resolution and its H^0 and H^1 change",
    ),
    Mutant(
        "pair-sequence-on-the-resolution-for-every-subset",
        "cochain.py",
        "if _down_closed(space, nset)\n",
        "if True\n",
        ("tests/test_cochain.py::test_les_pair_enumerates_each_degree_once",
         "tests/test_cochain.py::test_les_pair_sharing_matches_unshared_complexes_seeded",
         "tests/test_properties.py::test_pair_sequences_of_arbitrary_subsets_randomized"),
        note="off a down-closed subset a chain can leave the subset below its top "
             "stratum, so R's cells filtered by their strata are not the pair's "
             "relative and subset complexes",
    ),
    Mutant(
        "cell-inside-by-all-entries",
        "cochain.py",
        "(lambda t: t[-1] in nset) if cells",
        "(lambda t: all(x in nset for x in t)) if cells",
        ("tests/test_cochain.py::test_les_pair_on_down_closed_subsets_matches_the_kept_systems_seeded",
         "tests/test_cochain.py::test_les_pair_sharing_matches_unshared_complexes_seeded",
         "tests/test_cochain.py::test_resolution_matches_the_order_complex_in_degrees_zero_to_three_seeded"),
        note="a cell of degree >= 2 nests a cell, which is no stratum, so the subset "
             "complex would drop every such cell and the relative complex keep it",
    ),
    Mutant(
        "kept-on-inherits-a-failing-report",
        "coeffsys.py",
        "return known is not None and known.ok",
        "return known is not None",
        ("tests/test_coeffsys.py::test_kept_on_takes_only_a_known_clean_report",
         "tests/test_coeffsys.py::test_cut_is_the_forest_cut_exactly_when_a_clean_report_is_known_seeded",
         "tests/test_cochain.py::test_relative_cohomology_answers_a_law_violation_inside_the_subset",
         "tests/test_cochain.py::test_dims_first_matches_one_pass_cohomology_seeded",
         "tests/test_cli.py::test_les_on_non_functorial_system_names_the_violation"),
        note="v off a subset holding every failing triple would keep v's violations, "
             "so its relative groups would be refused; a system whose failing report "
             "is known would take the forest cut in degree 0 and extend",
    ),
    Mutant(
        "carry-writes-into-a-zero-width-block",
        "cochain.py",
        "if o is None or not o[1]:",
        "if o is None:",
        ("tests/test_cochain.py::test_carry_between_bases_of_other_widths_drops_the_zero_width_blocks",
         "tests/test_cochain.py::test_les_pair_on_down_closed_subsets_matches_the_kept_systems_seeded"),
        note="a cell's entries would land in the next block of a complex that is "
             "zero at that cell's stratum; a pair's complexes share one system, so "
             "only bases of two systems, as in the kept-systems reference, reach it",
    ),
    Mutant(
        "carry-copies-between-bases-of-other-widths",
        "cochain.py",
        "src.tuples == dst.tuples and src.block_dims == dst.block_dims",
        "src.tuples == dst.tuples",
        ("tests/test_cochain.py::test_carry_between_bases_of_other_widths_drops_the_zero_width_blocks",
         "tests/test_cochain.py::test_les_pair_on_down_closed_subsets_matches_the_kept_systems_seeded"),
        note="a cochain would be copied as it is between bases of v and of v off or "
             "on a subset, whose offsets differ",
    ),
    Mutant(
        "relative-through-the-quotient-for-every-subset",
        "cochain.py",
        "    if _down_closed(v.space, nset):\n        return cohomology(",
        "    if True:\n        return cohomology(",
        ("tests/test_cochain.py::test_relative_differs_from_quotient_for_up_closed_subset",
         "tests/test_cochain.py::test_les_pair_enumerates_each_degree_once",
         "tests/test_properties.py::test_pair_sequences_of_arbitrary_subsets_randomized"),
        note="v off a subset that is not down-closed is no quotient of the pair",
    ),
    Mutant(
        "alternating-binomials-last-sign-flipped",
        "cochain.py",
        "(-1) ** ((i + 1 + k) & 1)",
        "(-1) ** ((i + k) & 1)",
        ("tests/test_cochain.py::test_chain_counts_in_closed_form_match_the_recurrences",
         "tests/test_cli.py::test_huge_degrees_are_answered_from_counts",
         "tests/test_cli.py::test_cohomology_without_classes_enumerates_no_chain"),
        note="rank_coboundaries of the full complex would change in a degree "
             "without classes",
    ),
    Mutant(
        "resolution-stops-one-degree-early",
        "cochain.py",
        "for d in range(2, degree + 1):",
        "for d in range(2, degree):",
        ("tests/test_cochain.py::test_resolution_matches_the_order_complex_in_degrees_zero_to_three_seeded",),
        note="R's top degree would have no cells, so its H is C^k - rank delta_{k-1}",
    ),
    Mutant(
        "resolution-cell-boundary-free-entry-negated",
        "cochain.py",
        "lambda i: {faces[j]: x for j, x in _primitive(kernel[i]).items()}",
        "lambda i: {faces[j]: -x if j == free[i] else x for j, x in _primitive(kernel[i]).items()}",
        ("tests/test_cochain.py::test_resolution_matches_the_order_complex_in_degrees_zero_to_three_seeded",
         "tests/test_cochain.py::test_both_cycle_finders_agree_on_one_cells_and_r_ends_at_the_top_degree_seeded"),
        note="a cell of degree >= 3 would have a boundary off the kernel; negating a "
             "whole boundary only changes the cell's sign, which changes no result",
    ),
    Mutant(
        "cycle-finder-union-find-beyond-degree-two",
        "cochain.py",
        "(_tree_cycles if d == 2 else _kernel_cycles)",
        "(_tree_cycles if d <= 3 else _kernel_cycles)",
        ("tests/test_cochain.py::test_resolution_matches_the_order_complex_in_degrees_zero_to_three_seeded",
         "tests/test_cochain.py::test_forest_union_find_is_the_kernel_step_from_degree_two_seeded",
         "tests/test_cochain.py::test_both_cycle_finders_agree_on_one_cells_and_r_ends_at_the_top_degree_seeded"),
        note="the union-find would read a 2-cell (c, y) as an edge from c to y, so "
             "R's 3-cells would miss classes of the 2-cells below their strata",
    ),
    Mutant(
        "complex-both-answered-through-the-resolution",
        "cli.py",
        "    elif both:\n",
        "    elif False:\n",
        ("tests/test_cli.py::test_cohomology_both_builds_both_order_complexes",
         "tests/test_cli.py::test_cohomology_both_counts_the_full_complex_above_the_top"),
        note="the cross-check would read degree 1 off the resolution instead of "
             "building both order complexes",
    ),
    Mutant(
        "counted-for-a-non-functor",
        "cochain.py",
        "k > (top := _top_degree(self.v.space)) and self.v._report.ok:",
        "k > (top := _top_degree(self.v.space)):",
        ("tests/test_cochain.py::test_full_complex_of_a_non_functor_beyond_the_top_degree_is_enumerated",
         "tests/test_cochain.py::test_systems_off_the_laws_keep_the_order_complex"),
        note="a system off the functor laws would read dim 0 above the top degree, "
             "where its full complex has d^2 != 0",
    ),
    Mutant(
        "counted-at-the-top-degree",
        "cochain.py",
        "not self.strict and k > (top",
        "not self.strict and k >= (top",
        ("tests/test_cochain.py::test_full_complex_beyond_the_top_degree_is_counted_seeded",
         "tests/test_cochain.py::test_resolution_matches_the_order_complex_in_degrees_zero_to_three_seeded",
         "tests/test_properties.py::test_full_equals_reduced_in_every_degree_randomized"),
        note="the top degree would read dim 0 wherever the full complex has a class there",
    ),
)
