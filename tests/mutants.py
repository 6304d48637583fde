"""Committed mutants: small wrong edits that named tests must catch.

Each entry gives a file, an exact old text, the new text that replaces it,
and the test ids that must fail with it. Run from anywhere:

    python tests/mutants.py

Every entry is applied to its own temporary copy of the repository, with
``PYTHONPATH`` pointing at the copy's ``src`` and ``XDG_CACHE_HOME`` at a
temporary directory (so a mutated C file is never built into the user's
cache), and only its tests run there. The script exits 1 if an old
text is not found exactly once, if a mutant survives (one of its tests
passes, is skipped or is not found), or if the control entry, a harmless
edit, does not pass every test the mutants name. The mutants of the C
file need a C compiler. pytest does not collect this file: its name does not
start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


_STREAMS = "tests/test_stats.py::TestStreams::"
# the row whose second block's base wraps to 0
_WRAP_ROW = ("test_blocked_fill_matches_the_scalar_stream_bitwise"
             "[18446744073709551615-18446744073709486079-65541-2]")
_ROD_ORACLE = "tests/test_rod.py::test_table_driven_kernel_matches_the_nested_where_reference"
_ROD_PARITY = "tests/test_rod.py::test_c_and_numpy_count_steps_agree_on_edge_inputs"
_FRAMECHECK_PIN = "tests/test_cli.py::TestFramecheck::test_out_bytes_are_pinned"
_RECORDS = "tests/test_stats.py::TestRunTrials::test_records_replay_their_trials"
_BLOCK_WALK = ("tests/test_stats.py::TestRunTrials::"
               "test_block_walk_counts_as_one_whole_array_kernel_call")
_PINNED = "tests/test_cli.py::test_simulate_counts_are_pinned"
_PARTNER = ("tests/test_cli.py::TestInputHandling::"
            "test_direction_sweep_partner_does_not_depend_on_the_row_scale")
_CSV_DIGITS = "tests/test_cli.py::test_csv_floats_carry_12_significant_digits"
_ROD_TABLES = "tests/test_golden_analytic.py::test_rod_tables_are_bit_identical"
_STAGES = "tests/test_golden_analytic.py::test_stages_and_cosines_are_bit_identical"
_ANGLES = "tests/test_cli.py::TestSweep::test_angles_are_linspace_bit_for_bit"
_CANONICAL = "tests/test_golden_analytic.py::test_canonical_rays_are_bit_identical"
_NON_FINITE = ("tests/test_stats.py::TestRunTrials::"
               "test_non_finite_state_or_direction_rejected_by_name")
_DECIDES = "tests/test_disk.py::test_filtered_kernel_decides_as_the_one_pass_reference"
_PLANTED = "tests/test_disk.py::test_filtered_kernel_matches_the_reference_on_planted_crossings"
_DOMAIN = "tests/test_disk.py::test_out_of_domain_and_strided_draws_get_the_float64_counts"
_MEMO = "tests/test_rod.py::TestTreeMemo::"
_CONTEXTUAL = "tests/test_rod.py::test_outcomes_are_contextual_where_quantum_probabilities_are_not"
_FRAME_FUNCTION = ("tests/test_quantum.py::"
                   "test_of_the_weight_families_only_sin_squared_gives_a_frame_function")
_REPLICA = "tests/test_geometry.py::test_random_frames_equal_the_exact_fma_replica"
_EDGE_DRAWS = "tests/test_geometry.py::test_edge_draws_give_the_replica_frame"
_DOT_PARITY = "tests/test_geometry.py::test_native_and_python_dots_equal_the_replica"
_DOT_GAUSSIAN = "tests/test_geometry.py::test_native_dot_is_the_chain_on_gaussian_vectors"
_SIGN_PARITY = "tests/test_geometry.py::test_c_and_python_bodies_give_the_same_canonical_rows"
_SWEEP_STATES = "tests/test_cli.py::TestSweep::test_sweep_states_are_the_array_route_bit_for_bit"
_SKEW_ONLY = "tests/test_geometry.py::test_random_frame_draws_again_only_on_skew_rows"

MUTANTS = (
    Mutant(
        "numpy fill: block base one trial early",
        "src/bornsim/streams.py",
        "_mix64_array(offsets[:m] + ((start + a + 1) * GOLDEN & _MASK))",
        "_mix64_array(offsets[:m] + ((start + a) * GOLDEN & _MASK))",
        (_STREAMS + "test_scalar_and_vector_draws_are_bitwise_identical",
         _STREAMS + _WRAP_ROW,
         "tests/test_golden_counts.py::test_numpy_fallback_counts_match_the_recorded_ones"
         "[rod-quantum-seed0-N999]"),
    ),
    Mutant(
        "numpy fill: 52-bit draws (>> 12)",
        "src/bornsim/streams.py",
        "_mix64_array(state + ((k + 1) * GOLDEN & _MASK)) >> 11",
        "_mix64_array(state + ((k + 1) * GOLDEN & _MASK)) >> 12",
        (_STREAMS + "test_scalar_and_vector_draws_are_bitwise_identical",
         _STREAMS + _WRAP_ROW),
    ),
    Mutant(
        "native fill: block offset a + 1",
        "src/bornsim/_native.c",
        "uint64_t first = base + (uint64_t)a * GOLDEN;",
        "uint64_t first = base + (uint64_t)(a + 1) * GOLDEN;",
        (_STREAMS + "test_scalar_and_vector_draws_are_bitwise_identical",
         _STREAMS + _WRAP_ROW,
         "tests/test_golden_counts.py::test_counts_match_the_recorded_ones"
         "[rod-quantum-seed0-N999]"),
    ),
    Mutant(
        "disk: no float64 recheck near the boundary (_MARGIN = 0.0)",
        "src/bornsim/disk.py",
        "_MARGIN = 2.0**-12",
        "_MARGIN = 0.0",
        (_DECIDES + "[native]", _PLANTED + "[native-65536]"),
    ),
    Mutant(
        "disk numpy path: exact ties counted up (<= 0.0 -> < 0.0)",
        "src/bornsim/disk.py",
        "_t_dot_q(u1, u2, *dots) <= 0.0",
        "_t_dot_q(u1, u2, *dots) < 0.0",
        (_DECIDES + "[numpy]", _PLANTED + "[numpy-65535]"),
    ),
    Mutant(
        "disk C pass: decides the trials near the boundary itself (near test t == 0.0)",
        "src/bornsim/_native.c",
        "below += t < -margin;\n            close += fabs(t) <= margin;",
        "below += t < 0.0;\n            close += t == 0.0;",
        (_DECIDES + "[native]", _PLANTED + "[native-1]", _PLANTED + "[native-65536]"),
    ),
    Mutant(
        "disk C pass: cos(phi) not negated in quadrant 1 (k > 1.5)",
        "src/bornsim/_native.c",
        "*c = k > 0.5 && k < 2.5 ? -cp : cp;",
        "*c = k > 1.5 && k < 2.5 ? -cp : cp;",
        ("tests/test_disk.py::test_c_trig_stays_inside_the_kernel_margin",
         _DECIDES + "[native]",
         _PINNED + "[ks-native]",
         _PINNED + "[ks-far-native]",
         _PINNED + "[ks-far-in-plane-native]"),
    ),
    Mutant(
        "disk C pass: out-of-domain lanes not sent to the float64 formula",
        "src/bornsim/_native.c",
        "            if (!(x >= 0.0 && x <= 1.0 && y >= 0.0 && y <= 1.0))\n"
        "                t = 0.0;\n",
        "",
        (_DOMAIN + "[native]",),
    ),
    Mutant(
        "rod kernel numpy path: u1 == t1 counted in slot 2 (u1 >= t1)",
        "src/bornsim/rod.py",
        "hi = u1 > t1",
        "hi = u1 >= t1",
        (_ROD_ORACLE + "[numpy]",),
    ),
    Mutant(
        "rod kernel numpy path: slot-1 pick mask drops the slot-2 exclusion ((u2 <= r1) & ~lo)",
        "src/bornsim/rod.py",
        "(u2 <= r1) > (lo | hi)",
        "(u2 <= r1) & ~lo",
        (_ROD_ORACLE + "[numpy]",
         "tests/test_rod.py::test_counts_equal_the_sum_of_one_trial_calls[numpy]",
         _PINNED + "[rod-lone-tie-variant-numpy]"),
    ),
    Mutant(
        "rod_count: u1 == t1 counted in slot 2 (x >= t1)",
        "src/bornsim/_native.c",
        "hi = x > t1;",
        "hi = x >= t1;",
        (_ROD_ORACLE + "[native]", _ROD_PARITY),
    ),
    Mutant(
        "rod_count: slot 1 picked without excluding slot 2 (!lo)",
        "src/bornsim/_native.c",
        "k1 += (y <= r1) & !(lo | hi);",
        "k1 += (y <= r1) & !lo;",
        (_ROD_ORACLE + "[native]",
         _ROD_PARITY,
         "tests/test_golden_counts.py::test_counts_match_the_recorded_ones"
         "[rod-quantum-seed0-N999]"),
    ),
    Mutant(
        "sphere_count takes > for >=, so a tie b == c goes to o1",
        "src/bornsim/_native.c",
        "k += 2.0 * u[i] - 1.0 >= c;",
        "k += 2.0 * u[i] - 1.0 > c;",
        ("tests/test_sphere.py::TestSampler::test_tie_break_goes_to_o2",
         "tests/test_sphere.py::test_c_and_numpy_count_steps_agree_on_edge_inputs"),
    ),
    Mutant(
        "record takes the first label, not the one its trial counts on",
        "src/bornsim/stats.py",
        "model.labels[kernel(u).tolist().index(1)]",
        "model.labels[0]",
        tuple(_RECORDS + case for case in ("[sphere2d-measurement0]", "[ks-measurement1]",
                                           "[rod-measurement2]")),
    ),
    Mutant(
        "rod tree, degenerate fallback: in-plane cosine of axis k read from axis j (c[j] / norm)",
        "src/bornsim/rod.py",
        "min(c[k] / norm, 1.0)",
        "min(c[j] / norm, 1.0)",
        (_ROD_TABLES + "[quantum]", _ROD_TABLES + "[uniform-variant]"),
    ),
    Mutant(
        "rod tree: every first break takes the in-plane cosines from the ray's own",
        "src/bornsim/rod.py",
        "if norm < DEGENERATE_EPS:",
        "if True:",
        (_ROD_TABLES + "[quantum]",
         _STAGES,
         _FRAMECHECK_PIN + "[rod-uniform-variant]"),
    ),
    Mutant(
        "rod tree: no degenerate fallback, a ray on the first-broken axis is projected",
        "src/bornsim/rod.py",
        "if norm < DEGENERATE_EPS:",
        "if norm < 0.0:",
        (_STAGES, _ROD_TABLES + "[quantum]", _ROD_TABLES + "[uniform-variant]"),
    ),
    Mutant(
        "rod tree, degenerate fallback: zero cross dots divided by their zero norm",
        "src/bornsim/rod.py",
        "    if norm == 0.0:\n        return [_EVEN, _EVEN]\n",
        "",
        ("tests/test_rod.py::TestStage2::test_ray_on_an_axis_with_zero_cross_dots_splits_evenly",
         _MEMO + "test_a_hit_is_the_fresh_tree_bit_for_bit"),
    ),
    Mutant(
        "rod tree memo: unbounded, one entry kept per (ray, frame, weight)",
        "src/bornsim/rod.py",
        "@functools.lru_cache(maxsize=1)",
        "@functools.lru_cache(maxsize=None)",
        ("tests/test_cli.py::TestSweep::test_rod_sweep_computes_one_tree_per_point_and_keeps_one",),
    ),
    Mutant(
        "rod tree memo: keyed by frame and weight only, so a new ray reads the old tree",
        "src/bornsim/rod.py",
        "@functools.lru_cache(maxsize=1)\ndef _tree(",
        "def _ray_blind(tree):\n"
        "    kept = {}\n"
        "\n"
        "    def memo(p, e, w):\n"
        "        if (e, w) not in kept:\n"
        "            kept.clear()\n"
        "            kept[e, w] = tree(p, e, w)\n"
        "        return kept[e, w]\n"
        "\n"
        "    memo.cache_clear = kept.clear\n"
        "    return memo\n"
        "\n"
        "\n"
        "@_ray_blind\n"
        "def _tree(",
        (_MEMO + "test_a_change_of_ray_frame_or_weight_gives_the_fresh_tree",),
    ),
    Mutant(
        "rod table memo: keyed by ray and frame only, so a new weight reads the old table",
        "src/bornsim/rod.py",
        "@functools.lru_cache(maxsize=1)\ndef _tree(",
        "def _weight_blind(tree):\n"
        "    kept = {}\n"
        "\n"
        "    def memo(p, e, w):\n"
        "        if (p, e) not in kept:\n"
        "            kept.clear()\n"
        "            kept[p, e] = tree(p, e, w)\n"
        "        return kept[p, e]\n"
        "\n"
        "    memo.cache_clear = kept.clear\n"
        "    return memo\n"
        "\n"
        "\n"
        "@_weight_blind\n"
        "def _tree(",
        (_MEMO + "test_a_change_of_ray_frame_or_weight_gives_the_fresh_tree",),
    ),
    Mutant(
        "Born rule: one matrix-vector product, not the Gleason measure of each axis",
        "src/bornsim/quantum.py",
        "tuple(measure(e, i) for i in range(3))",
        "tuple(float(a * a) for a in e.matrix @ psi.array)",
        ("tests/test_quantum.py::TestBorn::test_equals_the_gleason_measure_bitwise",),
    ),
    Mutant(
        "rod thresholds: no tie-2 guard on t1, so a rounded u1 > t1 breaks ineligible tie 2",
        "src/bornsim/rod.py",
        "    if s1[2] == 0.0:\n        t1 = 2.0\n",
        "    if False:\n        t1 = 2.0\n",
        (_ROD_ORACLE + "[numpy]",),
    ),
    Mutant(
        "rod thresholds: no pj != 0.0 guard, so u2 = 0.0 breaks an ineligible tie",
        "src/bornsim/rod.py",
        "*(pj if pj != 0.0 else -1.0 for pj, _ in s2)",
        "*(pj for pj, _ in s2)",
        (_ROD_ORACLE + "[numpy]",
         "tests/test_rod.py::TestSampler::test_boundary_uniforms_never_select_zero_weight"),
    ),
    Mutant(
        "rod tree: a first break of zero weight gets the stage-2 pair (1.0, 0.0)",
        "src/bornsim/rod.py",
        "else (0.0, 0.0) for x in s1)",
        "else (1.0, 0.0) for x in s1)",
        ("tests/test_rod.py::TestStage1::test_eigenstate_splits_evenly_over_other_axes",
         "tests/test_rod.py::TestAnalytic::test_eigenstate_any_weight"),
    ),
    Mutant(
        "rod stage 1: no abs, so a -0.0 first-break weight gives -0.0 paths",
        "src/bornsim/rod.py",
        "return abs(w0) / total, abs(w1) / total, abs(w2) / total",
        "return w0 / total, w1 / total, w2 / total",
        ("tests/test_rod.py::TestAnalytic::test_eigenstate_any_weight",),
    ),
    Mutant(
        "rod stage 2: no abs, so a -0.0 second-break weight gives -0.0 paths",
        "src/bornsim/rod.py",
        "return abs(wj) / total, abs(wk) / total",
        "return wj / total, wk / total",
        ("tests/test_rod.py::TestAnalytic::test_eigenstate_any_weight",),
    ),
    Mutant(
        "rod paths: listed in reverse second-break order, not the count step's",
        "src/bornsim/rod.py",
        "for second in OTHER_AXES[first])",
        "for second in reversed(OTHER_AXES[first]))",
        (_ROD_ORACLE + "[numpy]",
         "tests/test_rod.py::test_path_counts_match_the_paper_path_identity",
         "tests/test_rod.py::TestAnalytic::test_matches_independent_tree_oracle_on_random_inputs",
         "tests/test_golden_analytic.py::test_rod_tables_are_bit_identical[quantum]"),
    ),
    Mutant(
        "rod thresholds: ineligible tie 1 at t1 = -1.0, not t0",
        "src/bornsim/rod.py",
        "t1 = s1[0] + s1[1] if s1[1] != 0.0 else t0",
        "t1 = s1[0] + s1[1] if s1[1] != 0.0 else -1.0",
        (_ROD_ORACLE + "[numpy]",
         "tests/test_cli.py::TestSweep::test_random_frame_reaches_the_angle_zero_endpoint[rod-1]"),
    ),
    Mutant(
        "ks kernel: azimuth read from draw 0 (u2=u[0])",
        "src/bornsim/models.py",
        "disk.up_indices(dots, u1=u[0], u2=u[1])",
        "disk.up_indices(dots, u1=u[0], u2=u[0])",
        ("tests/test_golden_counts.py::test_counts_match_the_recorded_ones[ks-quantum-seed0-N999]",
         "tests/test_golden_counts.py::test_numpy_fallback_counts_match_the_recorded_ones"
         "[ks-quantum-seed101-N262145]",
         "tests/test_cli.py::TestSimulate::test_csv_bytes_are_reproducible"),
    ),
    Mutant(
        "Gram-Schmidt on Python floats: the projection dot as a plain sum, not the fma chain",
        "src/bornsim/geometry.py",
        "d = _dot(w, b)",
        "d = x * b[0] + y * b[1] + z * b[2]",
        ("tests/test_golden_analytic.py::test_orthonormal_frames_are_bit_identical",
         _REPLICA + "[numpy-3]"),
    ),
    Mutant(
        "Python _fma: a * b + c rounded twice (no TwoProduct and fsum)",
        "src/bornsim/geometry.py",
        "    s = math.fsum((p, e, c))\n    return s if s else p + c\n",
        "    return p + c\n",
        (_REPLICA + "[numpy-3]", _DOT_PARITY, _DOT_GAUSSIAN),
    ),
    Mutant(
        "Python _dot: the innermost fma taken as the bare product (a -0.0 product stays -0.0)",
        "src/bornsim/geometry.py",
        "        s = _fma(u[0], v[0], 0.0)\n",
        "        pass\n",
        (_EDGE_DRAWS + "[numpy-signed-zeros]", _EDGE_DRAWS + "[numpy-signed-zeros-first-axis]"),
    ),
    Mutant(
        "random_frame C body: ddot3 as a plain sum, not the fma chain",
        "src/bornsim/_native.c",
        "return fma(a[2], b[2], fma(a[1], b[1], fma(a[0], b[0], 0.0)));",
        "return a[0] * b[0] + a[1] * b[1] + a[2] * b[2];",
        (_REPLICA + "[native-3]", _EDGE_DRAWS + "[native-signed-zeros]",
         "tests/test_golden_analytic.py::test_random_frames_are_bit_identical[seed0]"),
    ),
    Mutant(
        "native dot takes its terms in the order 1, 0, 2",
        "src/bornsim/_native.c",
        "    return PyFloat_FromDouble(ddot3(u, v));",
        "    double u1[3] = {u[1], u[0], u[2]}, v1[3] = {v[1], v[0], v[2]};\n"
        "    return PyFloat_FromDouble(ddot3(u1, v1));",
        (_DOT_PARITY, _DOT_GAUSSIAN),
    ),
    Mutant(
        "fill wrapper keeps the GIL",
        "src/bornsim/_native.c",
        "    Py_BEGIN_ALLOW_THREADS\n"
        "    trial_uniforms(out.buf, seed, base, out.shape[1], out.shape[0]);\n"
        "    Py_END_ALLOW_THREADS\n",
        "    trial_uniforms(out.buf, seed, base, out.shape[1], out.shape[0]);\n",
        ("tests/test_streams_native.py::"
         "test_the_main_thread_runs_python_while_a_native_fill_runs",),
    ),
    Mutant(
        "random_frame C body: one Gram-Schmidt pass, not two",
        "src/bornsim/_native.c",
        "for (int pass = 0; pass < 2; pass++)",
        "for (int pass = 0; pass < 1; pass++)",
        (_REPLICA + "[native-3]",
         "tests/test_golden_analytic.py::test_random_frames_are_bit_identical[seed0]",
         _FRAMECHECK_PIN + "[gleason]"),
    ),
    Mutant(
        "rod marginal: every axis reads outcome 0 (probs[0])",
        "src/bornsim/rod.py",
        "return rod_analytic(p, frame, w)[0].probs[axis]",
        "return rod_analytic(p, frame, w)[0].probs[0]",
        ("tests/test_quantum.py::TestFrameAdditivity::"
         "test_quantum_rod_marginal_is_additive_and_equals_born",
         _FRAMECHECK_PIN + "[rod-uniform-variant]",
         "tests/test_cli.py::TestFramecheck::test_rod_variant_reports"),
    ),
    Mutant(
        "rod tree: second in-plane cosine taken against axis j (_dot(q, rows[j]))",
        "src/bornsim/rod.py",
        "_dot(q, rows[k])",
        "_dot(q, rows[j])",
        ("tests/test_golden_analytic.py::test_rod_tables_are_bit_identical[quantum]",
         "tests/test_rod.py::TestStage2::test_in_plane_eigenstate_breaks_other_tie",
         _FRAMECHECK_PIN + "[rod-uniform-variant]"),
    ),
    Mutant(
        "direction_cosines: the terms in the order 0, 1, 2, not the gemv's 1, 0, 2",
        "src/bornsim/geometry.py",
        "    v = r.y, r.x, r.z\n"
        "    return tuple(min(abs(_dot((a1, a0, a2), v)), 1.0)",
        "    v = r.x, r.y, r.z\n"
        "    return tuple(min(abs(_dot((a0, a1, a2), v)), 1.0)",
        (_ROD_TABLES + "[quantum]", _ROD_TABLES + "[uniform-variant]", _STAGES,
         _FRAMECHECK_PIN + "[rod-quantum]", _FRAMECHECK_PIN + "[rod-uniform-variant]",
         "tests/test_geometry.py::TestDirectionCosines::"
         "test_equals_the_exact_fma_gemv_replica_on_every_kernel"),
    ),
    Mutant(
        "Gleason measure: the dot as a plain sum, not the fma chain",
        "src/bornsim/quantum.py",
        "a = _dot(frame.rows[axis], v)",
        "a = sum(x * y for x, y in zip(frame.rows[axis], v))",
        ("tests/test_quantum.py::TestGleasonMeasure::"
         "test_equals_the_exact_fma_replica_on_every_kernel",),
    ),
    Mutant(
        "rotate_frame_about_axis: the frame returned unrotated",
        "src/bornsim/geometry.py",
        "    return Frame(tuple(_canonical(*_unit_components(r)) for r in rows))",
        "    return e",
        tuple(_CONTEXTUAL + case for case in ("[pi-over-7]", "[pi-over-4]", "[1.2]"))
        + (_FRAME_FUNCTION,),
    ),
    Mutant(
        "random_frame Python body: rows without the sign rule",
        "src/bornsim/geometry.py",
        "        return tuple(_canonical(*axis) for axis in _gram_schmidt(g))",
        "        return tuple(_gram_schmidt(g))",
        (_SIGN_PARITY, _REPLICA + "[numpy-3]", _EDGE_DRAWS + "[numpy-signed-zeros-first-axis]"),
    ),
    Mutant(
        "C random_frame skips the sign rule",
        "src/bornsim/_native.c",
        "    for (int r = 0; r < 3; r++)\n        canonical(out + 3 * r);\n",
        "",
        (_SIGN_PARITY, _REPLICA + "[native-3]",
         "tests/test_golden_analytic.py::test_random_frames_are_bit_identical[seed0]"),
    ),
    Mutant(
        "rod analytic: the paths folded into the outcomes in reverse order",
        "src/bornsim/rod.py",
        "for k, pr in zip(_OUTCOMES, path_probs):",
        "for k, pr in zip(reversed(_OUTCOMES), path_probs):",
        (_FRAME_FUNCTION,
         "tests/test_rod.py::TestAnalytic::test_born_agreement_and_path_identity"),
    ),
    Mutant(
        "canonicalize: always divides by the norm, even one that is 1 to working precision",
        "src/bornsim/geometry.py",
        "    if abs(n - 1.0) <= 1e-14:\n",
        "    if False:\n",
        (_CANONICAL,),
    ),
    Mutant(
        "Frame: a NaN |cos| passes the orthogonality check (d > ORTHO_TOL)",
        "src/bornsim/geometry.py",
        "if not d <= ORTHO_TOL:",
        "if d > ORTHO_TOL:",
        ("tests/test_geometry.py::TestFrames::test_frame_rejects_a_nan_axis",),
    ),
    Mutant(
        "Frame: a row that is not unit is accepted",
        "src/bornsim/geometry.py",
        "            if abs(n - 1.0) > NORM_TOL:",
        "            if False:",
        ("tests/test_geometry.py::TestFrames::test_frame_rejects_a_row_that_is_not_unit",),
    ),
    Mutant(
        "Frame: a row that is not canonical is accepted",
        "src/bornsim/geometry.py",
        "            if x <= COMPONENT_EPS and _canonical(x, y, z) != row:",
        "            if False:",
        ("tests/test_geometry.py::TestFrames::test_frame_rejects_a_row_that_is_not_canonical",),
    ),
    Mutant(
        "Frame: the sign rule read from the first component alone, not the first beyond 1e-12",
        "src/bornsim/geometry.py",
        "            if x <= COMPONENT_EPS and _canonical(x, y, z) != row:",
        "            if x < 0.0:",
        ("tests/test_geometry.py::TestFrames::test_frame_rejects_a_row_that_is_not_canonical",),
    ),
    Mutant(
        "rod stage 1: a NaN weight total passes the guard (total <= 0.0)",
        "src/bornsim/rod.py",
        "    if not total > 0.0:  # NaN fails too\n"
        "        raise ValueError(\"degenerate frame/state",
        "    if total <= 0.0:\n"
        "        raise ValueError(\"degenerate frame/state",
        ("tests/test_rod.py::TestStage1::test_nan_weights_rejected",),
    ),
    Mutant(
        "rod stage 2: a NaN weight total passes the guard (total <= 0.0)",
        "src/bornsim/rod.py",
        "    if not total > 0.0:  # NaN fails too\n"
        "        raise ValueError(\"degenerate projection",
        "    if total <= 0.0:\n"
        "        raise ValueError(\"degenerate projection",
        ("tests/test_rod.py::TestStage2::test_nan_weights_rejected",),
    ),
    Mutant(
        "runner: a non-finite state or direction is not rejected",
        "src/bornsim/stats.py",
        "if not all(map(math.isfinite, (v.x, v.y, v.z))):",
        "if False:",
        tuple(_NON_FINITE + case for case in ("[nan-sphere2d-state]", "[nan-ks-state]",
                                              "[nan-sphere2d-direction]",
                                              "[inf-ks-direction]")),
    ),
    Mutant(
        "sweep partner: second row not made orthogonal to the direction",
        "src/bornsim/cli.py",
        "second - (second @ u) * u",
        "second",
        (_PARTNER + "[row1-1e-10]",
         _PARTNER + "[row1-1]",
         _PARTNER + "[row1-parallel]"),
    ),
    Mutant(
        "sweep angles: the last point at (steps - 1) * step, not pi/2",
        "src/bornsim/cli.py",
        "    for i in range(steps - 1):\n        yield i * step\n    yield math.pi / 2\n",
        "    for i in range(steps):\n        yield i * step\n",
        (_ANGLES + "[26]", _ANGLES + "[201]"),
    ),
    Mutant(
        "CSV rule: float cells written unformatted, not with 12 significant digits",
        "src/bornsim/cli.py",
        "_fmt(v) if isinstance(v, float) else v",
        "v",
        (_CSV_DIGITS + "[analytic]",
         _CSV_DIGITS + "[simulate]",
         _PARTNER + "[row1-1]",
         _FRAMECHECK_PIN + "[gleason]"),
    ),
    Mutant(
        "config: every key of the file converted, not only the command's",
        "src/bornsim/cli.py",
        "    for name in names:\n        opt = OPTIONS[name]\n"
        "        text = getattr(args, name)\n",
        "    for name in dict.fromkeys((*names, *config)):\n        opt = OPTIONS[name]\n"
        "        text = getattr(args, name, None)\n",
        ("tests/test_cli.py::TestOptionSets::"
         "test_analytic_ignores_config_values_and_seed_it_does_not_read",
         "tests/test_cli.py::TestOptionSets::test_framecheck_ignores_a_config_workers_value"),
    ),
    Mutant(
        "runner: each block slice one trial short",
        "src/bornsim/stats.py",
        "counts += kernel(u[:, lo : lo + _BLOCK])",
        "counts += kernel(u[:, lo : lo + _BLOCK - 1])",
        tuple(_BLOCK_WALK + case for case in ("[sphere2d-1-65536]", "[ks-2-327681]",
                                              "[rod-1-65537]")),
    ),
    Mutant(
        "runner: every worker steps one chunk, not one per worker (stride _CHUNK)",
        "src/bornsim/stats.py",
        "threads * _CHUNK)",
        "_CHUNK)",
        ("tests/test_stats.py::TestRunTrials::test_worker_count_does_not_change_counts",
         _BLOCK_WALK + "[rod-2-327681]",
         _PINNED + "[rod-numpy]"),
    ),
    Mutant(
        "fold_paths swaps two outcome pairs",
        "src/bornsim/rod.py",
        "(c[_I0] + c[_J0], c[_I1] + c[_J1],",
        "(c[_I1] + c[_J1], c[_I0] + c[_J0],",
        ("tests/test_rod.py::test_fold_paths_is_the_one_hot_matmul",
         "tests/test_rod.py::test_path_counts_match_the_paper_path_identity"),
    ),
    Mutant(
        "sweep state not renormalized",
        "src/bornsim/cli.py",
        "state = state_vector([ca * a + sa * b for a, b in uw])",
        "state = UnitVector(*[ca * a + sa * b for a, b in uw])",
        tuple(_SWEEP_STATES + case for case in ("[sphere2d-identity]", "[ks-random3]",
                                                "[rod-huge-and-tiny-rows]",
                                                "[ks-direction]")),
    ),
    Mutant(
        "random_frame: redraws on every ValueError, not only on skew rows",
        "src/bornsim/geometry.py",
        "except NotOrthogonalError:  # any other row error",
        "except ValueError:  # any other row error",
        tuple(_SKEW_ONLY + case for case in ("[not-unit-python]", "[not-canonical-c]")),
    ),
)

# a harmless edit: every test the mutants name must still pass with it, so
# that a kill is the mutant's doing and not the copy's
CONTROL = Mutant(
    "control: a comment reworded",
    "src/bornsim/streams.py",
    "# trial t = start + a + i of the block at a: (t + 1) * GOLDEN is",
    "# for trial t = start + a + i of the block at a, (t + 1) * GOLDEN is",
    tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "*.egg-info", "build", ".bench_out", ".bench_build")
_OUTCOMES = ("PASSED", "FAILED", "ERROR")


def run_entry(mutant: Mutant) -> dict[str, str] | None:
    """The outcome of each of ``mutant``'s tests in a mutated copy.

    None if the old text is not in the file exactly once.
    """
    with tempfile.TemporaryDirectory(prefix="bornsim-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        path = copy / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return None
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   XDG_CACHE_HOME=str(Path(tmp) / "cache"))
        # the copy's package must be the one imported, not an installed one
        where = subprocess.run([sys.executable, "-c", "import bornsim; print(bornsim.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).is_relative_to(copy):
            raise SystemExit(f"bornsim imports from {where.stdout.strip()}, not from the copy")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA",
                               "-p", "no:cacheprovider", *mutant.tests],
                              cwd=copy, env=env, capture_output=True, text=True)
    outcomes = dict.fromkeys(mutant.tests, "not run")
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        test = rest.split(" - ")[0]
        if word in _OUTCOMES and test in outcomes:
            outcomes[test] = word
    return outcomes


def main() -> int:
    began = time.perf_counter()
    bad = 0
    for mutant in (*MUTANTS, CONTROL):
        t0 = time.perf_counter()
        outcomes = run_entry(mutant)
        took = f"{time.perf_counter() - t0:.1f} s"
        if outcomes is None:
            bad += 1
            print(f"MISSING   {mutant.name}: old text not found exactly once in {mutant.file}")
            continue
        want = ("PASSED",) if mutant is CONTROL else ("FAILED", "ERROR")
        wrong = {t: o for t, o in outcomes.items() if o not in want}
        if mutant is CONTROL:
            verdict = "PASSED" if not wrong else "KILLED"
        else:
            verdict = "killed" if not wrong else "SURVIVED"
        print(f"{verdict:9} {mutant.name} ({len(outcomes)} tests, {took})")
        for test, outcome in wrong.items():
            print(f"          {outcome}: {test}")
        bad += bool(wrong)
    print(f"{len(MUTANTS)} mutants and 1 control, {bad} wrong, "
          f"{time.perf_counter() - began:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
