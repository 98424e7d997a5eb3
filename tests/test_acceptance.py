"""Acceptance gate for the shipped artifact.

Each test covers one release criterion and prints a single
``[criterion k] PASS/FAIL`` line with the measured numbers, then asserts.
Heavy experiment configs run once in a module-scoped fixture; the
determinism criterion reruns each of them twice more, once as is and once
forced onto one core, so E1/E2's threaded trials are compared with truly
serial runs. Rows are a pure function
of (config, trial index).
"""
import math
import time

import numpy as np
import pytest

from oracles import (
    dkw_bound,
    edelman_cdf,
    exhaustive_min_ssq,
    jacobi_singular_values,
    ks_distance,
)
from rmlab import calibration, constants, experiments
from rmlab.distributions import GAUSSIAN, RADEMACHER, UNIFORM_SYM, discrete
from rmlab.experiments import ExperimentConfig, emit, run
from rmlab.matrices import sample_matrix, spectral_summary
from rmlab.nets import greedy_estimate, volumetric_bound, vp_entropy_bound
from rmlab.rng import derive_stream
from rmlab.small_ball import SmallBallQuery, exact_concentration
from rmlab.sphere_profile import PartitionParams, min_half_subset_ssq, sample_peaked_direction

ROOT2 = math.sqrt(2.0)
SKEW = discrete(((-2.0, 0.2), (0.5, 0.8)))
LAZY = discrete(((-ROOT2, 0.25), (0.0, 0.5), (ROOT2, 0.25)))

ACCEPTANCE_CONFIGS = {
    "e1_rademacher": ExperimentConfig(
        experiment="E1_sigma_min_tail",
        dist=RADEMACHER,
        n_list=(50, 100, 200, 400),
        trials=200,
        master_seed=101,
    ),
    "e1_gaussian": ExperimentConfig(
        experiment="E1_sigma_min_tail",
        dist=GAUSSIAN,
        n_list=(50, 100, 200, 400),
        trials=200,
        master_seed=102,
    ),
    "e2_gaussian": ExperimentConfig(
        experiment="E2_op_norm", dist=GAUSSIAN, n_list=(200,), trials=500, master_seed=103
    ),
    "e2_rademacher": ExperimentConfig(
        experiment="E2_op_norm", dist=RADEMACHER, n_list=(200,), trials=500, master_seed=104
    ),
    "e2b": ExperimentConfig(
        experiment="E2b_peaked", dist=RADEMACHER, n_list=(100, 200), trials=2000, master_seed=105
    ),
    "e3": ExperimentConfig(
        experiment="E3_regular_smallball",
        dist=RADEMACHER,
        n_list=(64,),
        trials=20,
        master_seed=106,
        params={"delta": 0.004, "q": 4.0},
    ),
    "e4": ExperimentConfig(
        experiment="E4_allocation",
        n_list=(1000,),
        trials=1000,
        master_seed=107,
        params={"l": 1000, "k": 1000},
    ),
    "e6": ExperimentConfig(
        experiment="E6_bound_calibration",
        n_list=(1,),
        trials=1,
        master_seed=constants.VALIDATION_SEED,
        params={"per_bound": 50},
    ),
}


# E5 has no statistical criterion of its own, so it is not in
# ACCEPTANCE_CONFIGS, but criterion 9 holds its rows to the same
# determinism contract.
E5_DETERMINISM_CONFIG = ExperimentConfig(
    experiment="E5_profile_census",
    n_list=(32, 64),
    trials=50,
    master_seed=108,
    params={"delta": 0.003, "q": 2.0},
)


@pytest.fixture(scope="module")
def results():
    return {name: run(cfg) for name, cfg in ACCEPTANCE_CONFIGS.items()}


def _report(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_oracle_equivalence(capsys):
    start = time.perf_counter()

    # minimal half-subset sum of squares vs exhaustive enumeration
    rng = derive_stream(202608, 0)
    ssq_checked = ssq_bad = 0
    while ssq_checked < 2000:
        bins = int(rng.integers(1, 6))
        occ = tuple(int(v) for v in rng.integers(0, 5, size=bins))
        total = sum(occ)
        if not 1 <= total <= 12:
            continue
        keep = int(rng.integers(1, total + 1))
        got, kept = min_half_subset_ssq(occ, keep)
        if got != exhaustive_min_ssq(list(occ), keep) or sum(kept) != keep:
            ssq_bad += 1
        ssq_checked += 1

    # enumeration vs convolution on shared finite-support queries
    rng = derive_stream(202608, 1)
    laws = (RADEMACHER, SKEW, LAZY)
    conv_checked = conv_bad = 0
    for i in range(200):
        m = int(rng.integers(2, 9))
        q = SmallBallQuery(
            x=rng.uniform(0.5, 1.5, size=m),
            dist=laws[i % 3],
            v=float(rng.uniform(-0.5, 0.5)),
            t=float(rng.uniform(0.3, 1.0)),
        )
        enum = exact_concentration(q, path="enumerate")
        conv = exact_concentration(q, path="convolve")
        # the enumeration's value lies in the grid's ci, and the two cis overlap
        (enum_lo, enum_hi), (conv_lo, conv_hi) = enum.ci, conv.ci
        if not (conv_lo <= enum.value <= conv_hi and enum_lo <= conv_hi and conv_lo <= enum_hi):
            conv_bad += 1
        conv_checked += 1

    # extreme singular values vs the Jacobi oracle; LAPACK's error is about
    # c * n * eps * sigma_max, and n * eps * sigma_max is under 1e-14 at n <= 6
    spec_tol = 1e-12
    dists = (RADEMACHER, GAUSSIAN, UNIFORM_SYM)
    spec_checked = spec_bad = 0
    for i in range(100):
        n = 2 + i % 5
        ms = sample_matrix(dists[i % 3], n, 5000 + i)
        summ = spectral_summary(ms)
        svals = jacobi_singular_values(ms.entries)
        if summ.singular_flag:
            # an exact zero sits below the oracle's sqrt(eigenvalue) resolution
            floor = math.sqrt(np.finfo(float).eps) * float(svals[-1])
            ok = svals[0] <= floor and abs(summ.op_norm - svals[-1]) <= spec_tol
        else:
            ok = abs(summ.op_norm - svals[-1]) <= spec_tol and abs(summ.sigma_min - svals[0]) <= spec_tol
        spec_bad += 0 if ok else 1
        spec_checked += 1

    elapsed = time.perf_counter() - start
    ok = ssq_bad == 0 and conv_bad == 0 and spec_bad == 0 and elapsed < 60.0
    _report(
        capsys,
        1,
        ok,
        f"min-ssq exact {ssq_checked - ssq_bad}/{ssq_checked}, "
        f"enumeration-vs-convolution {conv_checked - conv_bad}/{conv_checked} inside "
        f"the grid's ci, spectral-vs-Jacobi {spec_checked - spec_bad}/{spec_checked} "
        f"at {spec_tol:g}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_sigma_min_tail(capsys, results):
    details = []
    ok = True
    for name in ("e1_rademacher", "e1_gaussian"):
        res = results[name]
        eps = res.summary["eps"]
        per_n = res.summary["per_n"]
        worst_freq = max(stats["tail"]["freq"] for stats in per_n.values())
        tail_count = sum(stats["tail"]["count"] for stats in per_n.values())
        medians = {n: stats["sigma_sqrt_n"]["p50"] for n, stats in per_n.items()}
        ok &= worst_freq <= eps and all(0.2 <= med <= 3.0 for med in medians.values())
        med_lo, med_hi = min(medians.values()), max(medians.values())
        details.append(
            f"{res.config.dist.kind}: tail count {tail_count}, max freq "
            f"{worst_freq:.4f} <= {eps}, medians(sigma_min*sqrt(n)) in "
            f"[{med_lo:.3f}, {med_hi:.3f}]"
        )
    runtime = results["e1_rademacher"].runtime_seconds + results["e1_gaussian"].runtime_seconds
    ok &= runtime <= 900.0
    _report(capsys, 2, ok, "; ".join(details) + f"; {runtime:.1f}s (<= 900s)")


def test_criterion_3_operator_norm(capsys, results):
    details = []
    ok = True
    for name in ("e2_gaussian", "e2_rademacher"):
        res = results[name]
        stats = res.summary["per_n"]["200"]
        ok &= stats["exceed"]["freq"] <= 0.01
        # op_norm/sqrt(n) tends to 2 (Bai-Yin). At finite n it fluctuates on
        # the Tracy-Widom scale 2^(-2/3) n^(-2/3) around 2, and the TW1 median
        # is -1.27, so the median sits near 2 - 0.023 = 1.977 at n = 200
        # (measured: 1.973 gaussian, 1.966 rademacher). The band fails an
        # op_norm that is 4 percent off.
        median = stats["op_norm_over_sqrt_n"]["p50"]
        ok &= 1.9 <= median <= 2.05
        details.append(
            f"{res.config.dist.kind}: {stats['exceed']['count']}/500 above "
            f"2.5*sqrt(n), freq {stats['exceed']['freq']:.4f} <= 0.01, "
            f"median op_norm/sqrt(n) {median:.3f} in [1.9, 2.05]"
        )
    runtime = results["e2_gaussian"].runtime_seconds + results["e2_rademacher"].runtime_seconds
    ok &= runtime <= 600.0
    _report(capsys, 3, ok, "; ".join(details) + f"; {runtime:.1f}s (<= 600s)")


def test_criterion_4_peaked_direction(capsys, results):
    res = results["e2b"]
    small_100 = res.summary["per_n"]["100"]["small"]
    small_200 = res.summary["per_n"]["200"]["small"]
    ok = (
        small_100["freq"] < 0.01
        and small_200["freq"] <= small_100["ci95"][1]
        and res.runtime_seconds <= 300.0
    )
    _report(
        capsys,
        4,
        ok,
        f"two-spike |Ax| <= 0.3*sqrt(n): n=100 freq {small_100['freq']:.4f} < 0.01 "
        f"(ci95 hi {small_100['ci95'][1]:.4f}), n=200 freq {small_200['freq']:.4f} "
        f"did not increase beyond it; {res.runtime_seconds:.1f}s (<= 300s)",
    )


def test_criterion_5_bound_domination(capsys, results):
    res = results["e6"]
    per_bound = res.summary["per_bound"]
    n_queries = sum(v["count"] for v in per_bound.values())
    all_dominated = res.summary["all_dominated"] and n_queries == 200
    recorded = all(
        per_bound[b]["constant"] == constants.FITTED[b]
        and per_bound[b]["frozen_raw"] == constants.FITTED_RAW[b]
        for b in per_bound
    )
    stability = calibration.stability_report()
    max_drift = max(v["max_rel_drift"] for v in stability.values())
    stable = all(v["stable"] for v in stability.values())
    ok = all_dominated and recorded and stable and res.runtime_seconds <= 600.0
    fractions = ", ".join(
        f"{b}={v['dominated']['count']}/{v['count']}" for b, v in per_bound.items()
    )
    _report(
        capsys,
        5,
        ok,
        f"validation domination on {n_queries} queries: {fractions}; constants "
        f"recorded and frozen; reseeded refits drift at most {max_drift:.1%} "
        f"(<= 20%); {res.runtime_seconds:.1f}s (<= 600s)",
    )


def test_criterion_6_halasz_linear_decay(capsys, results):
    res = results["e3"]
    s = res.summary
    ok = (
        len(s["per_vector"]) == 20
        and s["min_slope"] >= 0.0
        and s["min_r_squared"] >= 0.9
        and s["all_under_bound"]
        and res.runtime_seconds <= 600.0
    )
    _report(
        capsys,
        6,
        ok,
        f"20 regular vectors at n=64: min slope {s['min_slope']:.3f} >= 0, "
        f"min R^2 {s['min_r_squared']:.4f} >= 0.9, max Q(t)/(C*q*t) "
        f"{s['max_ratio_vs_bound']:.3f} <= 1; {res.runtime_seconds:.1f}s (<= 600s)",
    )


def test_criterion_7_allocation(capsys, results):
    res = results["e4"]
    s = res.summary
    ok = (
        s["stat"]["p99"] <= 4.0
        and s["exceed_reference"]["count"] == 0
        and res.runtime_seconds <= 120.0
    )
    _report(
        capsys,
        7,
        ok,
        f"l=k=1000, 1000 trials: stat p99 {s['stat']['p99']:.3f} <= 4, max "
        f"{s['stat']['max']:.3f}, exceedances of reference 65536: "
        f"{s['exceed_reference']['count']}; {res.runtime_seconds:.1f}s (<= 120s)",
    )


def _ball_points(n: int, count: int, rng) -> np.ndarray:
    g = rng.standard_normal((count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / n)


def net_checks() -> list[tuple[str, np.ndarray, float, float]]:
    """Criterion 8's 50 point sets as (label, points, eps, formula bound).

    The greedy net of each set at radius eps must have a log-count at most
    the formula's log-covering bound.
    """
    out = []
    # unit-ball covers at radius t vs the volumetric formula
    for n in range(2, 9):
        for t in (0.4, 0.5, 0.6, 0.8, 1.0):
            pts = _ball_points(n, 400, derive_stream(5150 + n, int(t * 10)))
            bound = volumetric_bound(n, "euclidean_ball", "euclidean_ball", t)
            out.append((f"ball n={n} t={t}", pts, t, bound))
    # peaked-direction covers at radius 2r vs the entropy formula
    for n in (4, 5, 6, 7, 8):
        for r, R in ((0.3, 1.15), (0.4, 1.3), (0.45, 1.5)):
            rng = derive_stream(6160 + n, int(100 * r))
            params = PartitionParams(r=r, R=R)
            pts = np.array([sample_peaked_direction(n, params, rng) for _ in range(200)])
            out.append((f"peaked n={n} r={r}", pts, 2.0 * r, vp_entropy_bound(n, r, R)))
    return out


def test_criterion_8_greedy_vs_formula_bounds(capsys):
    start = time.perf_counter()
    checked = bad = 0
    for _, pts, eps, bound in net_checks():
        est = greedy_estimate(pts, metric="l2", eps=eps)
        bad += 0 if est.log_count <= bound else 1
        checked += 1

    elapsed = time.perf_counter() - start
    ok = checked == 50 and bad == 0 and elapsed <= 120.0
    _report(
        capsys,
        8,
        ok,
        f"greedy net within formula bound on {checked - bad}/{checked} configs "
        f"at n <= 8; {elapsed:.1f}s (<= 120s)",
    )


def test_criterion_9_determinism(capsys, results, monkeypatch):
    configs = {**ACCEPTANCE_CONFIGS, "e5": E5_DETERMINISM_CONFIG}
    mismatched = []
    for name, cfg in configs.items():
        base = emit(results[name] if name in results else run(cfg), format="csv")
        rerun = emit(run(cfg), format="csv")
        with monkeypatch.context() as patch:
            patch.setattr("rmlab.rng.usable_cores", lambda: 1)
            one_core = emit(run(cfg), format="csv")
        if not (base == rerun == one_core):
            mismatched.append(name)
    ok = not mismatched
    _report(
        capsys,
        9,
        ok,
        f"CSV byte-identical across two runs and a one-core run for all "
        f"{len(configs)} configs"
        + (f"; mismatches: {', '.join(mismatched)}" if mismatched else ""),
    )


# Criterion 10: E1 against Edelman's law. For Gaussian entries
# P(sqrt(n) sigma_min <= x) -> 1 - exp(-x^2/2 - x) (Edelman 1988), and
# Tao-Vu (2010) carry that limit to Rademacher entries at a rate n^(-c)
# with no explicit constant. Each law's rows, pooled over n (800 values),
# are held to a KS tolerance: Gaussian to the DKW 95% radius (0.048 at 800),
# Rademacher to that radius plus 0.032 for its finite-n universality error.
# Measured on the acceptance rows: KS 0.022 gaussian, 0.032 rademacher;
# sigma_min scaled by 0.8 or 1.2 reads 0.09-0.11, and fails.
EDELMAN_SLACK = {"gaussian": 0.0, "rademacher": 0.032}


def _edelman_ks(res, scale: float = 1.0) -> tuple[float, float]:
    """(KS distance of the pooled sqrt(n) * scale * sigma_min, its tolerance)."""
    ks = ks_distance([scale * row[4] * math.sqrt(row[1]) for row in res.rows], edelman_cdf)
    return ks, dkw_bound(len(res.rows)) + EDELMAN_SLACK[res.config.dist.kind]


def test_criterion_10_edelman_law(capsys, results):
    details = []
    ok = True
    for name in ("e1_rademacher", "e1_gaussian"):
        ks, tol = _edelman_ks(results[name])
        ok &= ks <= tol
        details.append(f"{results[name].config.dist.kind}: KS {ks:.4f} <= {tol:.4f}")
    _report(
        capsys,
        10,
        ok,
        "sqrt(n) sigma_min pooled over n vs 1 - exp(-x^2/2 - x): " + "; ".join(details),
    )


@pytest.mark.parametrize("scale", [0.8, 1.2])
def test_edelman_check_fails_on_scaled_sigma_min(results, scale):
    for name in ("e1_rademacher", "e1_gaussian"):
        ks, tol = _edelman_ks(results[name], scale)
        assert ks > tol, (name, scale, ks, tol)
