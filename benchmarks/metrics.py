"""Names, units and meaning of every metric the benchmark reports.

END_TO_END and PER_LAYER are the lists ``BENCHMARK.json`` must repeat (a
test checks it). Each per-layer entry records, before any change is
measured, which end-to-end metric it should move and on which workloads, so
a later change can cite the prediction by metric name.

A pass runs the workload's configs (or refit) once; its wall time is the
user's time to result. Printed and stored but not gated: ``wall_s`` (median
pass wall), ``wall_s_tail`` (the highest percentile with at least ten
passes beyond it, absent below 20 passes), the pass count, and
``failed_frac`` (failed / attempted operations; the gated form is the
``attempted`` and ``failed`` counts of the result line, since a metric that
is 0 on correct code cannot carry a relative bound). The gate on time to
result is ``trials_per_s``, trials of all untraced passes over their summed
wall: on a 2-vCPU VM whose speed drifts over minutes, the ten-seed quartile
spread of the median pass wall reached 0.28, above the largest bound a
metric may carry, while this rate stayed at or below 0.20.

Per-layer times come from the traced passes and are per pass. Self times
are per thread: on spectral_pool ``experiments.run.self_s`` includes the
wait for the pool, and layer self times summed over the pool threads can
exceed the wall. ``trace.accounted_frac`` is the self time of spans on the
thread that runs the pass over the traced wall, so near 1 means the spans
cover the pass. Counts are read off returned objects and repeat exactly.
"""
from __future__ import annotations

WORKLOADS = ("spectral", "spectral_pool", "calibration", "lab_mix")

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("trials_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_SPECTRAL = "wall_s on spectral and spectral_pool; no change on calibration or lab_mix"
_SPECTRAL_COUNTS = "wall_s and failed_frac on spectral"
_SAMPLING = "wall_s on calibration and lab_mix (about a tenth of spectral)"
_CALIBRATION = "wall_s and peak_rss_mb on calibration; no change on lab_mix"
_EMPIRICAL = "wall_s on calibration and lab_mix"
_EXACT = "wall_s on lab_mix and calibration"
_PROFILE = "wall_s on lab_mix, a small share of calibration"
_NETS = "wall_s on lab_mix"
_RUNNER = "wall_s on spectral_pool and lab_mix"
_TRACE = "none: checks that the trace is cheap and covers the traced wall"

CONFIG_NAMES = (
    "e1_rademacher",
    "e1_gaussian",
    "e2_gaussian",
    "e2_rademacher",
    "e3",
    "e6",
    "e4",
    "e2b",
)

# name, unit, better, predicted end-to-end effect
PER_LAYER = (
    ("matrices.spectral_summary.calls", "count", "lower", _SPECTRAL),
    ("matrices.spectral_summary.self_s", "s", "lower", _SPECTRAL),
    ("matrices.spectral_summary.p50_ms", "ms", "lower", _SPECTRAL),
    ("matrices.spectral_summary.p90_ms", "ms", "lower", _SPECTRAL),
    ("matrices.spectral_summary.n50.p50_ms", "ms", "lower", _SPECTRAL),
    ("matrices.spectral_summary.n100.p50_ms", "ms", "lower", _SPECTRAL),
    ("matrices.spectral_summary.n200.p50_ms", "ms", "lower", _SPECTRAL),
    ("matrices.spectral_summary.n400.p50_ms", "ms", "lower", _SPECTRAL),
    ("matrices.operator_norm.self_s", "s", "lower", _SPECTRAL),
    ("matrices.op_norm_iters.p50", "count", "lower", _SPECTRAL_COUNTS),
    ("matrices.op_norm_iters.max", "count", "lower", _SPECTRAL_COUNTS),
    ("matrices.sigma_min_iters.p50", "count", "lower", _SPECTRAL_COUNTS),
    ("matrices.sigma_min_iters.max", "count", "lower", _SPECTRAL_COUNTS),
    ("matrices.nonconverged", "count", "lower", _SPECTRAL_COUNTS),
    ("matrices.singular", "count", "lower", _SPECTRAL_COUNTS),
    ("matrices.gflop_computed", "GFLOP", "lower", _SPECTRAL_COUNTS),
    ("matrices.sample_matrix.self_s", "s", "lower", _SAMPLING),
    ("distributions.sample.calls", "count", "lower", _SAMPLING),
    ("distributions.sample.self_s", "s", "lower", _SAMPLING),
    ("distributions.sample.entries", "count", "lower", _SAMPLING),
    ("distributions.sample.mb_computed", "MB", "lower", _SAMPLING),
    ("calibration.fit_all.self_s", "s", "lower", _CALIBRATION),
    ("calibration.evaluate_query.calls", "count", "lower", _CALIBRATION),
    ("calibration.evaluate_query.self_s", "s", "lower", _CALIBRATION),
    ("calibration.mc_sets_drawn", "count", "lower", _CALIBRATION),
    ("calibration.mc_sets_distinct", "count", "lower", _CALIBRATION),
    ("calibration.mc_useful_ratio", "ratio", "higher", _CALIBRATION),
    ("small_ball.empirical_sup_concentration.calls", "count", "lower", _EMPIRICAL),
    ("small_ball.empirical_sup_concentration.self_s", "s", "lower", _EMPIRICAL),
    ("small_ball.exact_concentration.calls", "count", "lower", _EXACT),
    ("small_ball.exact_concentration.self_s", "s", "lower", _EXACT),
    ("small_ball.exact_concentration.enumeration_share", "ratio", "higher", _EXACT),
    ("small_ball.exact_concentration.atoms_max", "count", "lower", _EXACT),
    ("small_ball.exact_concentration.cells_max", "count", "lower", _EXACT),
    ("small_ball.exact_concentration.error_radius_max", "prob", "lower", _EXACT),
    ("small_ball.esseen_bound.self_s", "s", "lower", _EXACT),
    ("small_ball.esseen_bound.quad_err_max", "abs", "lower", _EXACT),
    ("small_ball.halasz_profile_bound.self_s", "s", "lower", _EXACT),
    ("small_ball.halasz_integral_bound.self_s", "s", "lower", _EXACT),
    ("small_ball.berry_esseen_bound.self_s", "s", "lower", _EXACT),
    ("sphere_profile.classify_profile.calls", "count", "lower", _PROFILE),
    ("sphere_profile.classify_profile.self_s", "s", "lower", _PROFILE),
    ("sphere_profile.sample_spread_direction.calls", "count", "lower", _PROFILE),
    ("sphere_profile.regular_accept_ratio", "ratio", "higher", _PROFILE),
    ("sphere_profile.min_half_subset_ssq.self_s", "s", "lower", _PROFILE),
    ("sphere_profile.sample_allocation.self_s", "s", "lower", _PROFILE),
    ("nets.greedy_estimate.calls", "count", "lower", _NETS),
    ("nets.greedy_estimate.self_s", "s", "lower", _NETS),
    ("experiments.run.self_s", "s", "lower", _RUNNER),
    ("experiments.emit.self_s", "s", "lower", _RUNNER),
    *((f"experiments.run.{name}.wall_s", "s", "lower", _RUNNER) for name in CONFIG_NAMES),
    ("trace.overhead_frac", "ratio", "lower", _TRACE),
    ("trace.accounted_frac", "ratio", "higher", _TRACE),
)
