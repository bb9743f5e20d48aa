"""Mutation harness: named source mutants against the test suite.

Run from anywhere, with the interpreter that runs the tests:

    python3 tools/mutants.py               # every mutant
    python3 tools/mutants.py NAME [NAME]   # only the named ones

Each mutant is one exact string replacement in a module of
``src/monofloer/``, applied to a fresh temporary copy of ``src/``; the
string must occur exactly once, so a mutant that no longer matches the
source stops the run instead of passing silently.  For each mutant the
harness runs the test files the mutant names, then, if they all pass, the
whole test suite; the mutant is killed when either run fails.  A mutant
marked equivalent carries the reason it cannot be killed.  One line per
mutant goes to stderr; the last line of output is one JSON object:

    {"killed": K, "survived": S, "survivors": [...], "equivalent": [...]}

where ``equivalent`` lists the mutants run that are marked equivalent.  The
exit status is 1 when a mutant not marked equivalent survives.  Tests that
start a child interpreter (``test_a_wide_grading_span_is_refused_at_once``,
``test_module_entry_point``) put the imported package's directory on its
path, so the child runs the mutated copy too.  A killed mutant costs its
named tests, a survivor the whole suite as well (about half a minute); the
full list takes a few minutes.  The harness is not part of the test suite;
``tools/test_mutants.py`` tests it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str  # the file under src/monofloer/
    old: str
    new: str
    tests: tuple[str, ...]  # test files or test ids, from the repository root
    equivalent: str | None = None  # why no test can kill it


def _drop(name, module, condition, tests, equivalent=None):
    """The mutant that never takes a branch: condition is its exact line,
    such as '    if x:', followed by the start of the next line where the
    line alone is not unique, and the mutant reads '    if False:'."""
    head, _, rest = condition.partition("if ")
    test = rest.split(":\n", 1)
    tail = ":\n" + test[1] if len(test) > 1 else ":"
    return Mutant(name, module, condition, head + "if False" + tail,
                  tests, equivalent)


MUTANTS = (
    # windowed checks that skip the first degree of their window
    Mutant("d2-from-lo-plus-1", "complexes.py",
           ".is_zero() for n in range(lo, hi + 1))",
           ".is_zero() for n in range(lo + 1, hi + 1))",
           ("tests/test_properties.py::"
            "test_d_squared_checks_the_first_degree_of_its_window",)),
    Mutant("u-from-lo-plus-1", "actions.py",
           "    for n in range(lo, hi + 1):\n        matrices = (",
           "    for n in range(lo + 1, hi + 1):\n        matrices = (",
           ("tests/test_actions.py::"
            "test_u_homotopy_checks_the_first_degree_of_its_window",)),
    Mutant("u-skips-by-content", "actions.py",
           "all(map(operator.is_, matrices,",
           "all(map(operator.eq, matrices,",
           ("tests/test_actions.py",),
           equivalent="a degree whose six matrices equal the template "
                      "selections by content has the template's verdict"),
    # the table of kept powers, the pairing rule and the template proofs
    Mutant("plus-powers-from-1", "complexes.py",
           "    Flavor.PLUS: (0, math.inf),",
           "    Flavor.PLUS: (1, math.inf),",
           ("tests/test_properties.py",)),
    Mutant("hat-keeps-only-etas", "complexes.py",
           "    if flavor is Flavor.NONEQUIVARIANT:\n        return range(",
           "    if flavor in (Flavor.NONEQUIVARIANT, Flavor.HAT):\n"
           "        return range(",
           ("tests/test_properties.py",)),
    # each kept set is one range of the layout, cut by bisect
    Mutant("kept-range-start-off-by-one", "complexes.py",
           "    return range(bisect_left(layout, n // 2 - high, "
           "key=_lowered),",
           "    return range(bisect_left(layout, n // 2 - high, "
           "key=_lowered) + 1,",
           ("tests/test_properties.py::"
            "test_kept_is_the_powers_rule_on_the_pool",)),
    Mutant("kept-range-stop-off-by-one", "complexes.py",
           "                 bisect_right(layout, n // 2 - low, "
           "key=_lowered))",
           "                 bisect_right(layout, n // 2 - low, "
           "key=_lowered) - 1)",
           ("tests/test_properties.py::"
            "test_kept_is_the_powers_rule_on_the_pool",)),
    Mutant("noneq-keeps-theta", "complexes.py",
           "bisect_left(layout, n, key=_grading) + (n == 0),",
           "bisect_left(layout, n, key=_grading),",
           ("tests/test_properties.py::"
            "test_kept_is_the_powers_rule_on_the_pool",)),
    # the basis order, stated once in the layout
    Mutant("layout-theta-leads-the-odd-slice", "complexes.py",
           "    return tuple(sorted(((KIND_THETA, None, 0, 0),) "
           "* (1 - parity)",
           "    return tuple(sorted(((KIND_THETA, None, 0, 0),) * parity",
           ("tests/test_spectral.py::"
            "test_filtrations_match_the_oracle_at_both_parities",)),
    # the pair rule of the reductions and the critical positions at its edge
    Mutant("pair-rule-keeps-the-edge", "complexes.py",
           "and low < s[3] + n // 2 <= high",
           "and low <= s[3] + n // 2 <= high",
           ("tests/test_properties.py::"
            "test_kept_and_pairs_match_the_oracle_on_the_pool",)),
    Mutant("critical-edge-off-by-one", "complexes.py",
           "    edge = [a for grading in (n - 2 * low, n - 2 * high - 1)",
           "    edge = [a for grading in (n - 2 * low - 2, n - 2 * high - 1)",
           ("tests/test_properties.py::"
            "test_kept_and_pairs_match_the_oracle_on_the_pool",)),
    Mutant("d2-one-parity", "complexes.py",
           "            for parity in (0, 1)):",
           "            for parity in (0,)):",
           ("tests/test_properties.py",)),
    Mutant("d2-ignores-lemma", "complexes.py",
           "    if _restricts(data, flavor, _image_terms, 1) and all(",
           "    if all(",
           ("tests/test_properties.py",)),
    Mutant("lemma-no-noneq-clause", "complexes.py",
           "                    flavor is Flavor.NONEQUIVARIANT and kind ==",
           "                    False and kind ==",
           ("tests/test_properties.py",)),
    Mutant("u-ignores-template-identity", "actions.py",
           "        _homotopy_on_templates(data)\n",
           "        True\n",
           ("tests/test_properties.py",)),
    # the pairing and chain-map proofs on the templates, and their skips
    Mutant("pairing-template-wrong-parity", "duality.py",
           "        pairing = _pairing_template(data, rev, p)\n",
           "        pairing = _pairing_template(data, rev, 1 - p)\n",
           ("tests/test_duality.py::"
            "test_adjointness_forms_four_products_once",)),
    Mutant("pairing-lemma-ignores-powers", "duality.py",
           "theirs[j][2] == -1 - ours[i][2] for",
           "True for",
           ("tests/test_duality.py::"
            "test_partners_one_power_off_fail_the_proof_and_the_scan",)),
    Mutant("pairing-skip-without-is", "duality.py",
           "                is not _selection(data, _pairing_template,",
           "                is None and _selection(data, _pairing_template,",
           ("tests/test_duality.py::"
            "test_adjointness_fails_at_a_degree_far_outside_the_band",)),
    Mutant("commutation-skip-without-is", "homology.py",
           "        if proved and mat is selected(n) and mat_prev is "
           "selected(n - 1):",
           "        if proved:",
           ("tests/test_homology.py::"
            "test_a_replaced_slice_of_a_proved_map_is_still_checked",
            "tests/test_sequences.py::"
            "test_les_hat_rejects_a_u_that_is_not_a_chain_map")),
    Mutant("identity-map-unnamed", "homology.py",
           "    return ChainMapSlice(flavor, flavor, 0, matrices, (_same, 0))",
           "    return ChainMapSlice(flavor, flavor, 0, matrices)",
           ("tests/test_homology.py::"
            "test_a_second_induced_identity_forms_no_commutation_product",)),
    Mutant("adjointness-ignores-hat-slices", "duality.py",
           "    reading = {m + d for m, hat in unproved "
           "for d in range(3 - hat)}",
           "    reading = {m + d for m, hat in unproved if not hat\n"
           "               for d in range(3)}",
           ("tests/test_duality.py::"
            "test_a_replaced_hat_pairing_is_checked",)),
    Mutant("certify-first-degree-only", "complexes.py",
           "        if (reads := (n % 2, kept, below, here)) in seen:",
           "        if (reads := (n % 2, kept, below, here)) and seen:",
           ("tests/test_complexes.py::"
            "test_certificate_rejects_a_broken_reduction",)),
    Mutant("commutation-ignores-interval-order", "homology.py",
           "                s <= t for s, t in zip(",
           "                True for s, t in zip(",
           ("tests/test_homology.py::"
            "test_named_maps_that_are_not_chain_maps_are_scanned",)),
    Mutant("commutation-ignores-shift", "homology.py",
           "    if shift + drop not in (0, -2) or not (",
           "    if not (",
           ("tests/test_homology.py::"
            "test_named_maps_that_are_not_chain_maps_are_scanned",)),
    # the certificate and the filtration checks
    Mutant("certify-skips-d-f", "complexes.py",
           "(\"D f = f D'\", lambda: _on_template(columns, here.f, over, "
           "under)\n             == below.f.mul(here.differential)),",
           "(\"D f = f D'\", lambda: True),",
           ("tests/test_complexes.py",)),
    Mutant("certify-skips-g-d", "complexes.py",
           "(\"g D = D' g\", lambda: _on_template(rows, below.g, under, "
           "over,\n                                                "
           "left=True)\n             == here.differential.mul(here.g)),",
           "(\"g D = D' g\", lambda: True),",
           ("tests/test_complexes.py",)),
    # a template product read at every position its lines reach
    Mutant("template-product-keeps-every-row", "complexes.py",
           "        for r, w in lines.get(source[i], {}).items() "
           "if r in target]",
           "        for r, w in lines.get(source[i], {}).items()]",
           ("tests/test_complexes.py::"
            "test_template_products_are_the_products_of_the_selections",)),
    Mutant("certify-skips-g-f", "complexes.py",
           "lambda: _sums_to_identity(here.g.mul(here.f))",
           "lambda: True",
           ("tests/test_complexes.py::"
            "test_certificate_rejects_a_phantom_critical_generator",)),
    # the matching check and the unit blocks that pin the Morse data
    Mutant("matching-accepts-any-pair-entry", "complexes.py",
           "    return all(line.get(i) == -1 and all(",
           "    return all(i in line and all(",
           ("tests/test_complexes.py::"
            "test_a_pair_whose_entry_is_not_minus_one_fails_the_matching",)),
    Mutant("matching-triangularity-unchecked", "complexes.py",
           "        down[r][0] > rank for r in line if r in down and r != i)",
           "        True for r in line if r in down and r != i)",
           ("tests/test_complexes.py::"
            "test_a_cyclic_matching_fails_the_matching",)),
    Mutant("certify-critical-unchecked", "complexes.py",
           "             lambda: here.critical == crit),",
           "             lambda: True),",
           ("tests/test_complexes.py::"
            "test_certificate_rejects_critical_positions_that_a_pair_uses",)),
    Mutant("certify-f-ignores-u", "complexes.py",
           "                if not tops(over[i])} == units),",
           "                if i in crit} == units),",
           ("tests/test_complexes.py::"
            "test_a_homotopic_f_or_g_fails_its_unit_block",)),
    Mutant("certify-g-ignores-m", "complexes.py",
           "                if not bottoms(over[j])} == units),",
           "                if j in crit} == units),",
           ("tests/test_complexes.py::"
            "test_a_homotopic_f_or_g_fails_its_unit_block",)),
    # the filtration check on D's parity templates and the pairs' steps
    _drop("filtration-unchecked", "spectral.py",
          "        if any(rows[i][3] > cols[j][3]\n"
          "               for i, j, _ in "
          "_template(data, _image_terms, 1, p).entries):",
          ("tests/test_spectral.py::"
           "test_a_template_entry_that_raises_filtration_fails",)),
    _drop("filtration-pairs-unchecked", "spectral.py",
          "        if any(rows[i][3] != grading\n"
          "               for grading, i, _, _ in "
          "_lines(data, p)[3].values()):",
          ("tests/test_spectral.py::"
           "test_a_pair_across_two_filtrations_fails",)),
    Mutant("composite-ignores-torsion", "spectral.py",
           "orders[i] and v % orders[i] == 0",
           "orders[i] and True",
           ("tests/test_spectral.py",)),
    # the spectral pages: which cells are built, the shared zeros, the
    # walk's live keys and its order, and the d-squared check's reads of the
    # page's own tables
    Mutant("live-reads-positions", "spectral.py",
           "    return (_positions if r == 0 else _critical_positions)"
           "(data, flavor, n)",
           "    return _positions(data, flavor, n)",
           ("tests/test_spectral.py::"
            "test_pages_build_only_the_cells_with_a_generator",
            "tests/test_spectral.py::"
            "test_page_zero_and_trivial_cells_build_no_presentation")),
    Mutant("empty-source-zero-drops-target-rows", "spectral.py",
           "    return _zero(data, rows, cols)",
           "    return _zero(data, rows if cols else 0, cols)",
           ("tests/test_spectral.py::"
            "test_pages_keep_every_cell_and_differential_shape",)),
    Mutant("dr-built-with-one-empty-end", "spectral.py",
           "    if rows and cols:",
           "    if rows or cols:",
           ("tests/test_spectral.py::"
            "test_pages_build_only_the_cells_with_a_generator",)),
    Mutant("follow-from-previous-page", "spectral.py",
           "            follow = diffs.get((p - r, q + r - 1))",
           "            follow = (pages[-1].differentials if pages "
           "else diffs).get(\n"
           "                (p - r, q + r - 1))",
           ("tests/test_spectral.py::"
            "test_the_d_squared_check_composes_each_cell_with_its_follower",)),
    Mutant("orders-of-the-follow-source", "spectral.py",
           "_orders(data, flavor, r, p - 2 * r, n - 2)",
           "_orders(data, flavor, r, p - r, n - 1)",
           ("tests/test_spectral.py::"
            "test_the_d_squared_check_composes_each_cell_with_its_follower",)),
    Mutant("follow-below-the-grid-skipped", "spectral.py",
           "                follow = _dr_matrix(data, flavor, r, p - r, n - 1)",
           "                follow = _zero(data, 0, mat.rows)",
           ("tests/test_spectral.py::"
            "test_the_d_squared_check_composes_each_cell_with_its_follower",)),
    Mutant("live-pair-composite-skipped", "spectral.py",
           "sorted(cells.keys() & live)",
           "sorted(cells.keys() & live, reverse=True)",
           ("tests/test_spectral.py::"
            "test_pages_walk_only_their_live_cells",)),
    Mutant("zero-shape-from-the-source-only", "spectral.py",
           "_generators_at(data, flavor, r, n - 1))",
           "())",
           ("tests/test_spectral.py::"
            "test_pages_keep_every_cell_and_differential_shape",)),
    # the filtration-bounded columns and rows of _a_lattice: a prefix and a
    # suffix of the critical positions, cut by bisect
    Mutant("a-lattice-prefix-off-by-one", "spectral.py",
           "    low = range(bisect_right(source, p))",
           "    low = range(bisect_left(source, p))",
           ("tests/test_spectral.py::"
            "test_plus_pages_match_the_dense_oracle",)),
    Mutant("a-lattice-suffix-off-by-one", "spectral.py",
           "    high = range(bisect_right(target, p - r), len(target))",
           "    high = range(bisect_left(target, p - r), len(target))",
           ("tests/test_spectral.py::"
            "test_plus_pages_match_the_dense_oracle",)),
    _drop("composite-shape-unchecked", "spectral.py",
          "    if second.cols != first.rows:",
          ("tests/test_spectral.py::"
           "test_composite_of_maps_that_do_not_compose_fails",)),
    # the one cut of every flavored map: its rows at degree n + shift
    Mutant("cut-ignores-shift", "complexes.py",
           "_kept(data, target, n + shift)",
           "_kept(data, target, n - drop)",
           ("tests/test_properties.py::"
            "test_every_chain_level_matrix_is_a_selection",)),
    # the band's padding around the gradings
    Mutant("band-pads-2-below", "complexes.py",
           "    return min(gradings) - 3, max(gradings) + 4",
           "    return min(gradings) - 2, max(gradings) + 4",
           ("tests/test_complexes.py", "tests/test_homology.py")),
    Mutant("band-pads-3-above", "complexes.py",
           "    return min(gradings) - 3, max(gradings) + 4",
           "    return min(gradings) - 3, max(gradings) + 3",
           ("tests/test_complexes.py", "tests/test_homology.py")),
    Mutant("is-perfect-accepts-minus-one", "duality.py",
           "        v == 1 for (_, _, v) in mat.entries)",
           "        v in (1, -1) for (_, _, v) in mat.entries)",
           ("tests/test_duality.py",)),
    # the report emitter's group memo
    Mutant("group-memo-ignores-indentation", "cli.py",
           "key = obj.free_rank, obj.torsion, pad",
           "key = obj.free_rank, obj.torsion",
           ("tests/test_cli.py",)),
    Mutant("group-memo-ignores-torsion", "cli.py",
           "key = obj.free_rank, obj.torsion, pad",
           "key = obj.free_rank, pad",
           ("tests/test_cli.py",)),
    # the dense Smith routine
    Mutant("pivot-largest", "intlinalg.py",
           "if x and (best is None or abs(x) < best):",
           "if x and (best is None or abs(x) > best):",
           ("tests/test_intlinalg.py",)),
    _drop("pivot-sign-unnormalised", "intlinalg.py",
          "                if a[k][k] < 0:",
          ("tests/test_intlinalg.py",)),
    Mutant("divisibility-fixup-skipped", "intlinalg.py",
           "                if p == 1:\n",
           "                if True:\n",
           ("tests/test_intlinalg.py",)),
    Mutant("inverse-update-sign-flipped", "intlinalg.py",
           "    inverse[t] = [x + q * y for",
           "    inverse[t] = [x - q * y for",
           ("tests/test_intlinalg.py",)),
    Mutant("kernel-one-line-early", "intlinalg.py",
           "    basis, pre = f.v[f.rank:], f.v_inv[f.rank:]",
           "    basis, pre = f.v[f.rank - 1:], f.v_inv[f.rank - 1:]",
           ("tests/test_intlinalg.py",)),
    # refusals, each with its check dropped; the first two are named by
    # tests that run the command line in a child interpreter
    _drop("window-span-unchecked", "complexes.py",
          "    if hi - lo + 1 > MAX_WINDOW_DEGREES:\n"
          "        raise InvalidInput(f\"the dataset's",
          ("tests/test_cli.py::test_a_wide_grading_span_is_refused_at_once",)),
    _drop("module-entry-point-dropped", "cli.py",
          "if __name__ == \"__main__\":",
          ("tests/test_cli.py::test_module_entry_point",)),
    _drop("lift-escape-unchecked", "sequences.py",
          "        if vectors != back.mul(restrict.mul(vectors)):",
          ("tests/test_sequences.py",)),
    _drop("lift-dependence-unchecked", "sequences.py",
          "        if not target.is_zero_class(col):",
          ("tests/test_sequences.py",)),
    _drop("obstruction-torsion-unchecked", "spectral.py",
          "        if gen.order != 0 and value != 0:",
          ("tests/test_spectral.py",)),
    Mutant("certify-shape-error-raises", "complexes.py",
           "            try:\n"
           "                ok = holds()\n"
           "            except (IndexError, ValueError):  # shapes that do "
           "not fit\n"
           "                ok = False\n",
           "            ok = holds()\n",
           ("tests/test_complexes.py",)),
    Mutant("identity-shape-unchecked", "complexes.py",
           "    return mat == SparseIntMatrix.identity(mat.rows)",
           "    return mat.entries == SparseIntMatrix.identity("
           "mat.rows).entries",
           ("tests/test_complexes.py::"
            "test_only_a_square_sum_is_the_identity",)),
    _drop("parse-root-unchecked", "data.py",
          "    if not isinstance(doc, dict):",
          ("tests/test_data.py",)),
    _drop("parse-points-array-unchecked", "data.py",
          "    if not isinstance(doc[\"points\"], list):",
          ("tests/test_data.py",)),
    _drop("parse-points-entry-unchecked", "data.py",
          "        if not isinstance(item, dict):\n"
          "            raise SchemaError(\"points entries",
          ("tests/test_data.py",)),
    _drop("parse-coefficients-array-unchecked", "data.py",
          "        if not isinstance(doc[key], list):",
          ("tests/test_data.py",)),
    _drop("parse-coefficients-entry-unchecked", "data.py",
          "            if not isinstance(item, dict):\n"
          "                raise SchemaError(f\"{key} entries",
          ("tests/test_data.py",)),
    _drop("duplicate-coefficient-unchecked", "data.py",
          "                if (src, dst) in seen:",
          ("tests/test_data.py",)),
    _drop("point-order-unchecked", "data.py",
          "        if list(self.points) != sorted(self.points, "
          "key=lambda p: p.id):",
          ("tests/test_data.py",)),
    _drop("stored-zero-unchecked", "data.py",
          "                if value == 0:\n"
          "                    raise SchemaError(\"stored zero",
          ("tests/test_data.py",)),
    _drop("coefficient-order-unchecked", "data.py",
          "            if list(coeffs) != sorted(coeffs):",
          ("tests/test_data.py",)),
    _drop("trailing-window-unchecked", "cli.py",
          "            if value is None:",
          ("tests/test_cli.py",)),
)


def _apply(mutant: Mutant, src: Path) -> None:
    path = src / "monofloer" / mutant.module
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        sys.exit(f"mutant {mutant.name}: its string occurs {found} times "
                 f"in {mutant.module}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def _passes(src: Path, targets: tuple[str, ...]) -> bool:
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *targets],
        cwd=ROOT, env=env, capture_output=True, check=False)
    return done.returncode == 0


def run(mutants) -> dict:
    killed, survivors = 0, []
    for mutant in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            _apply(mutant, src)
            survived = _passes(src, mutant.tests) and _passes(src, ())
        verdict = "survived" if survived else "killed"
        if mutant.equivalent:
            verdict += f" (equivalent: {mutant.equivalent})"
        print(f"{mutant.name}: {verdict}", file=sys.stderr)
        if survived:
            survivors.append(mutant.name)
        else:
            killed += 1
    return {"killed": killed, "survived": len(survivors),
            "survivors": survivors,
            "equivalent": [m.name for m in mutants if m.equivalent]}


def main(names: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(unknown)}")
    mutants = [by_name[name] for name in names] if names else list(MUTANTS)
    summary = run(mutants)
    print(json.dumps(summary))
    equivalent = set(summary["equivalent"])
    return 1 if any(name not in equivalent
                    for name in summary["survivors"]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
