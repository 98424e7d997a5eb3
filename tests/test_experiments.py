import csv
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.special import chdtrc

from oracles import allocation_min_ssq_law
from rmlab import calibration, constants, experiments, matrices, sphere_profile
from rmlab.distributions import GAUSSIAN, RADEMACHER, discrete, parse_dist_spec, sample
from rmlab.errors import ConfigError, RegimeError
from rmlab.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    emit,
    parse_config,
    recompute_summary,
    run,
)
from rmlab.matrices import sample_matrix, spectral_summary
from rmlab.rng import STREAM_ENTRIES, derive_stream, derive_substream_seed, usable_cores


# -------------------------------------------------------------------- config


def test_experiment_names():
    assert EXPERIMENTS == (
        "E1_sigma_min_tail",
        "E2_op_norm",
        "E2b_peaked",
        "E3_regular_smallball",
        "E4_allocation",
        "E5_profile_census",
        "E6_bound_calibration",
    )


@pytest.mark.parametrize(
    "field",
    [
        {"n_list": (8.9,)},
        {"n_list": (16, 8.5)},
        {"n_list": ("x",)},
        {"n_list": (float("inf"),)},
        {"trials": True},
        {"master_seed": False},
    ],
)
def test_config_rejects_a_truncated_dimension_or_a_bool(field):
    """int() would turn 8.9 into 8 and True into 1 without a word."""
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="E1_sigma_min_tail", **field)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="E9_unknown")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="E1_sigma_min_tail", trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="E1_sigma_min_tail", n_list=())
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="E1_sigma_min_tail", n_list=(0,))
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="E1_sigma_min_tail", master_seed=-1)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="E1_sigma_min_tail", master_seed=2**64)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="E1_sigma_min_tail", dist="rademacher")
    cfg = ExperimentConfig(experiment="E1_sigma_min_tail", params={"eps": 0.2})
    assert cfg.param("eps") == 0.2
    assert cfg.param("coeff", 1.0) == 1.0


CONFIG_TEXT = """\
# tail experiment
experiment = E1_sigma_min_tail
dist = gaussian

n_list = 8,16
trials = 3
master_seed = 11
params.eps = 0.1
params.note = fast
"""


def test_parse_config_round_trip():
    cfg = parse_config(CONFIG_TEXT)
    assert cfg.experiment == "E1_sigma_min_tail"
    assert cfg.dist is GAUSSIAN
    assert cfg.n_list == (8, 16)
    assert cfg.trials == 3
    assert cfg.master_seed == 11
    assert cfg.params == {"eps": 0.1, "note": "fast"}


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("experiment = E1_sigma_min_tail\nbogus_key = 3")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just words")
    with pytest.raises(ConfigError):
        parse_config("dist = gaussian")  # experiment missing
    with pytest.raises(ConfigError):
        parse_config("experiment = E1_sigma_min_tail\nn_list = a,b")
    with pytest.raises(ConfigError):
        parse_config("experiment = E1_sigma_min_tail\ndist = cauchy")


def test_parse_config_overrides():
    # a later line for the same key wins
    cfg = parse_config(CONFIG_TEXT + "trials = 5\nparams.eps = 0.2\n")
    assert cfg.trials == 5
    assert cfg.params["eps"] == 0.2
    assert cfg.params["note"] == "fast"


# ------------------------------------------------------------------ runners


E1_CFG = ExperimentConfig(
    experiment="E1_sigma_min_tail", dist=RADEMACHER, n_list=(8, 16), trials=3, master_seed=5
)


def test_e1_rows_and_summary():
    res = run(E1_CFG)
    assert res.columns == (
        "trial", "n", "dist", "seed", "sigma_min", "op_norm", "singular_flag",
    )
    assert len(res.rows) == 6
    assert [r[0] for r in res.rows] == list(range(6))
    # recompute one row end to end
    idx, n = 2, res.rows[2][1]
    seed = derive_substream_seed(5, idx)
    summ = spectral_summary(sample_matrix(RADEMACHER, n, seed))
    assert res.rows[2] == (idx, n, "rademacher", seed, summ.sigma_min, summ.op_norm, int(summ.singular_flag))
    for r in res.rows:
        assert r[4] <= r[5]  # sigma_min <= op_norm
        assert len(r) == len(res.columns)
    assert set(res.summary["per_n"]) == {"8", "16"}
    block = res.summary["per_n"]["16"]
    assert block["tail_threshold"] == pytest.approx(0.1 * 1.0 * 16**-1.5)
    assert 0 <= block["tail"]["freq"] <= 1
    assert res.summary["experiment"] == "E1_sigma_min_tail"
    assert res.summary["runtime_seconds"] >= 0


WORKER_CFGS = (
    E1_CFG,
    # n = 2..6 Rademacher matrices are often exactly singular
    ExperimentConfig(
        experiment="E1_sigma_min_tail", dist=RADEMACHER, n_list=(2, 3, 4, 5, 6), trials=20, master_seed=31
    ),
    ExperimentConfig(experiment="E1_sigma_min_tail", dist=GAUSSIAN, n_list=(5, 40), trials=10, master_seed=32),
    ExperimentConfig(experiment="E2_op_norm", dist=GAUSSIAN, n_list=(40,), trials=20, master_seed=33),
    # 200k sums of 64 signs: E3's trials run on the pool too, so its rows
    # must not move with the usable cores either
    ExperimentConfig(
        experiment="E3_regular_smallball",
        dist=RADEMACHER,
        n_list=(64,),
        trials=3,
        master_seed=34,
        params={"delta": 0.004, "q": 4.0},
    ),
)


def _one_core(monkeypatch) -> None:
    """Make the package's one thread pool, rmlab.rng.thread_map, see one
    usable core, so every pooled path (E1/E2's and E3's trials, the
    calibration's sample sets) runs serially."""
    monkeypatch.setattr("rmlab.rng.usable_cores", lambda: 1)


def test_serial_parallel_identical_rows(monkeypatch):
    pooled = usable_cores() > 1 and matrices.svd_releases_gil()
    for cfg in WORKER_CFGS:
        callers = set()

        def traced(fn):
            def inner(*args, **kwargs):
                callers.add(threading.get_ident())
                return fn(*args, **kwargs)

            return inner

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with monkeypatch.context() as patch:
                patch.setattr(experiments, "spectral_summary", traced(experiments.spectral_summary))
                patch.setattr(experiments, "operator_norm", traced(experiments.operator_norm))
                patch.setattr(calibration, "sample_regular_vector", traced(calibration.sample_regular_vector))
                threaded = run(cfg)
            with monkeypatch.context() as patch:
                _one_core(patch)
                serial = run(cfg)
            with monkeypatch.context() as patch:
                patch.setattr(matrices, "_openblas", lambda: None)
                fallback = run(cfg)
        assert [str(w.message) for w in caught] == []
        assert serial.rows == threaded.rows == fallback.rows
        assert emit(serial) == emit(threaded) == emit(fallback)
        if pooled:
            assert len(callers) > 1, cfg.experiment  # the threaded run did use the pool
    singular = [r[6] for r in run(WORKER_CFGS[1]).rows]
    assert 0 < sum(singular) < len(singular)


@pytest.mark.skipif(not matrices.svd_releases_gil(), reason="E1/E2 trials run serially here")
def test_threaded_trials_start_largest_matrix_first(monkeypatch):
    submitted = []

    class Recording(ThreadPoolExecutor):
        def submit(self, fn, payload):
            submitted.append(payload)
            return super().submit(fn, payload)

    cfg = ExperimentConfig(experiment="E1_sigma_min_tail", dist=GAUSSIAN, n_list=(5, 40, 20), trials=3, master_seed=35)
    want = run(cfg)
    monkeypatch.setattr("rmlab.rng.usable_cores", lambda: 2)
    monkeypatch.setattr("rmlab.rng.ThreadPoolExecutor", Recording)
    got = run(cfg)
    assert [n for _, n in submitted] == [40] * 3 + [20] * 3 + [5] * 3
    # ties keep task order, and the rows come back in task order
    assert [i for i, _ in submitted] == [3, 4, 5, 6, 7, 8, 0, 1, 2]
    assert got.rows == want.rows


def test_threaded_trial_errors_name_the_first_failing_trial(monkeypatch):
    def failing_summary(A):
        if A.seed in bad_seeds:
            raise RegimeError(f"seed {A.seed}")
        return spectral_summary(A)

    cfg = WORKER_CFGS[2]
    bad_seeds = {derive_substream_seed(cfg.master_seed, i) for i in (7, 3, 15)}
    monkeypatch.setattr(experiments, "spectral_summary", failing_summary)
    with pytest.raises(RegimeError, match=r"^trial 3: "):
        run(cfg)


@pytest.mark.parametrize("workers", [0, -3, 1.5, True])
def test_run_rejects_bad_workers(workers):
    with pytest.raises(ConfigError):
        run(E1_CFG, workers=workers)


def test_e2_rows():
    cfg = ExperimentConfig(experiment="E2_op_norm", dist=GAUSSIAN, n_list=(16,), trials=4, master_seed=6)
    res = run(cfg)
    assert res.columns == ("trial", "n", "dist", "seed", "op_norm", "exceed_flag")
    assert len(res.rows) == 4
    for r in res.rows:
        assert r[5] == int(r[4] > 2.5 * 4.0)
    assert res.summary["per_n"]["16"]["threshold"] == pytest.approx(10.0)


def test_e2b_rows_match_direct_computation():
    """Each row's |Ax| is, bit for bit, the fixed-order formula on its own
    trial's n x 2 block: the first two columns of A, drawn from the trial's
    entry stream; and it is the Euclidean norm of A x to rounding."""
    for dist in (RADEMACHER, GAUSSIAN):
        cfg = ExperimentConfig(experiment="E2b_peaked", dist=dist, n_list=(16,), trials=3, master_seed=7)
        res = run(cfg)
        assert res.columns == ("trial", "n", "dist", "seed", "ax_norm", "small_flag")
        for idx, r in enumerate(res.rows):
            assert r[3] == derive_substream_seed(7, idx)
            block = sample(dist, derive_stream(r[3], STREAM_ENTRIES), size=(16, 2))
            v = block[:, 0] * (1.0 / math.sqrt(2.0)) + block[:, 1] * (1.0 / math.sqrt(2.0))
            assert r[4] == math.sqrt(np.add.reduce(v * v))
            assert r[4] == pytest.approx(float(np.linalg.norm(block.sum(axis=1))) / math.sqrt(2.0), rel=1e-14)
            assert r[5] == int(r[4] <= 0.3 * 4.0)
        assert res.summary["spikes"] == 2


@pytest.mark.parametrize("dist", [RADEMACHER, GAUSSIAN], ids=["rademacher", "gaussian"])
def test_e2b_norm_has_the_two_spike_law(dist):
    """With x = (e_1 + e_2)/sqrt(2), |Ax|^2 is exactly chi-square with n
    degrees of freedom for Gaussian entries, and |Ax|^2 / 2 counts the rows
    whose two signs agree, Binomial(n, 1/2), for Rademacher ones. Over 2000
    trials at n = 200 the mean must lie within 4 standard errors of n
    (Gaussian) or n/2 (Rademacher), a bound fixed before the run. A column
    drawn twice doubles the Gaussian mean and takes every Rademacher count to
    n; a sampler with P(+1) = 0.55 makes signs agree with probability 0.505,
    z about 6."""
    n, trials = 200, 2000
    cfg = ExperimentConfig(experiment="E2b_peaked", dist=dist, n_list=(n,), trials=trials, master_seed=2027)
    sq = np.array([r[4] for r in run(cfg).rows]) ** 2
    if dist is RADEMACHER:
        stat, mean, var = sq / 2.0, n / 2.0, n / 4.0
        assert np.abs(stat - np.round(stat)).max() < 1e-9
    else:
        stat, mean, var = sq, float(n), 2.0 * n
    z = (stat.mean() - mean) / math.sqrt(var / trials)
    assert abs(z) <= 4.0, z


_E2B_PORTABLE_CONFIGS = [
    f"experiment=E2b_peaked\ndist={dist}\nn_list={n_list}\ntrials={trials}\nmaster_seed=31"
    for dist in ("rademacher", "gaussian")
    for n_list, trials in (("16", 50), ("100,200", 20))
]


def _blas_kernel_is_switchable() -> bool:
    """numpy's bundled OpenBLAS is bound, built with DYNAMIC_ARCH (so
    OPENBLAS_CORETYPE picks its kernel at load) and the CPU runs AVX2, which
    the Haswell kernel needs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    blas = matrices._openblas()
    return blas is not None and "DYNAMIC_ARCH" in blas.config.split() and bool(umath.__cpu_features__.get("AVX2"))


@pytest.mark.skipif(not _blas_kernel_is_switchable(), reason="no DYNAMIC_ARCH OpenBLAS or no AVX2")
def test_e2b_rows_do_not_depend_on_the_blas_kernel():
    """E2b computes |Ax| with elementwise numpy operations in a fixed order,
    not BLAS, so a process on OpenBLAS's Haswell kernel writes the same CSV
    bytes as this one: Rademacher and Gaussian, at n = 16 and n = 100, 200.
    A gemv or a BLAS norm on this path differs in the last digits."""
    expected = [emit(run(parse_config(text)), format="csv") for text in _E2B_PORTABLE_CONFIGS]
    code = (
        "import sys\n"
        "from rmlab.experiments import emit, parse_config, run\n"
        "for text in sys.argv[1:]:\n"
        "    sys.stdout.write(emit(run(parse_config(text)), format='csv') + '\\0')\n"
    )
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Haswell",
        "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    }
    out = subprocess.run(
        [sys.executable, "-c", code, *_E2B_PORTABLE_CONFIGS], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\0")[:-1] == expected


def test_e3_rows_and_summary():
    cfg = ExperimentConfig(
        experiment="E3_regular_smallball",
        n_list=(16,),
        trials=2,
        master_seed=106,
        params={"delta": 0.016, "q": 4.0},
    )
    res = run(cfg)
    assert res.columns == (
        "trial", "n", "dist", "seed", "t", "q_hat", "min_ssq", "threshold",
    )
    assert len(res.rows) == 16  # 2 vectors x 8 window widths
    for idx in (0, 1):
        sub = [r for r in res.rows if r[0] == idx]
        ts = [r[4] for r in sub]
        assert ts == pytest.approx([m * 0.016 for m in range(1, 9)])
        qs = [r[5] for r in sub]
        assert qs == sorted(qs)  # sup-concentration grows with the window
        assert len({r[6] for r in sub}) == 1  # one profile per vector
        assert all(r[6] <= r[7] for r in sub)  # regular vectors only
    s = res.summary
    assert set(s["per_vector"]) == {"0", "1"}
    assert s["min_slope"] > 0
    assert 0 <= s["min_r_squared"] <= 1
    assert s["constant"] == constants.FITTED["regular_smallball"]
    assert isinstance(s["all_under_bound"], bool)


def test_e3_rejects_multiple_dimensions():
    cfg = ExperimentConfig(
        experiment="E3_regular_smallball",
        n_list=(16, 32),
        trials=1,
        params={"delta": 0.016, "q": 4.0},
    )
    with pytest.raises(ConfigError):
        run(cfg)


def test_e3_requires_delta_and_q():
    cfg = ExperimentConfig(experiment="E3_regular_smallball", n_list=(16,), trials=1)
    with pytest.raises(ConfigError):
        run(cfg)


@pytest.mark.parametrize("params, key", [({}, "delta"), ({"delta": 0.003}, "q")])
def test_e5_requires_delta_and_q(params, key):
    cfg = ExperimentConfig(experiment="E5_profile_census", n_list=(16,), trials=1, params=params)
    with pytest.raises(ConfigError, match=f"requires params.{key}"):
        run(cfg)


def test_e3_regime_error_carries_trial_index():
    cfg = ExperimentConfig(
        experiment="E3_regular_smallball",
        n_list=(16,),
        trials=1,
        master_seed=3,
        params={"delta": 0.016, "q": 1.5},
    )
    # threshold 1.5 * 4^2.5 * 0.016 = 0.768 < 2, so nothing classifies regular
    with pytest.raises(RegimeError, match="trial 0"):
        run(cfg)


def test_e4_rows_single_bin():
    cfg = ExperimentConfig(
        experiment="E4_allocation", n_list=(10,), trials=2, master_seed=8,
        params={"l": 10, "k": 1},
    )
    res = run(cfg)
    assert res.columns == ("trial", "l", "k", "seed", "min_ssq", "stat")
    # k=1 forces occupancy (l,), keep=5, ssq=25, stat = 25*1/100 = 0.25
    for r in res.rows:
        assert (r[1], r[2], r[4]) == (10, 1, 25)
        assert r[5] == 0.25
    for key in ("p50", "p90", "p99", "max"):
        assert res.summary["stat"][key] == 0.25
    assert res.summary["reference_c_half"] == 65536.0
    assert res.summary["exceed_reference"]["count"] == 0


@pytest.mark.parametrize("l, k", [(7, 5), (8, 3), (9, 4)])
def test_e4_min_ssq_follows_its_exact_law(l, k):
    """At small l the law of min_ssq over ceil(l/2) kept draws is exact (see
    allocation_min_ssq_law). Pearson's chi-square over 4000 trials, with tail
    atoms whose expected count is below 5 merged into the atom before them,
    gives p >= 1e-3. Keeping floor(l/2) instead moves the support at (7, 5)
    from {4, 6, 8, 10, 16} to {3, 5, 9}."""
    trials = 4000
    law = allocation_min_ssq_law(l, k, math.ceil(l / 2))
    cfg = ExperimentConfig(
        experiment="E4_allocation", n_list=(l,), trials=trials, master_seed=41, params={"l": l, "k": k}
    )
    seen = [r[4] for r in run(cfg).rows]
    assert set(seen) <= set(law)
    atoms = sorted(law)
    expected = [trials * law[a] for a in atoms]
    observed = [seen.count(a) for a in atoms]
    while expected[-1] < 5.0:
        tail_expected, tail_observed = expected.pop(), observed.pop()
        expected[-1] += tail_expected
        observed[-1] += tail_observed
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    assert chdtrc(len(expected) - 1, chi2) >= 1e-3, (observed, expected)


@pytest.mark.parametrize("k, lo, hi", [(500, 0.29, 0.345), (100, 0.25, 0.2526)])
def test_e4_median_stat_at_the_acceptance_scale(k, lo, hi):
    """At l = 1000 and 1000 trials, criterion 7's scale, where k = l pins
    every stat at 0.5, the median stat at k = 500 and k = 100 must lie in a
    fixed interval. The stat is min_ssq k / l^2, and by Cauchy-Schwarz the
    500 kept draws spread over b nonempty bins have min_ssq >= 500^2 / b: at
    k = 100 every trial reads at least 0.25, and at least 0.2526 when one
    bin can never be drawn. Correct draws give a median of 0.251, draws over
    k - 1 bins 0.2538 or more. At k = 500 the interval holds every single
    trial's stat seen (0.299-0.333 over 300 seeds, 0.292-0.339 over this
    config's trials); the median reads 0.317-0.318 at 21 seeds."""
    cfg = ExperimentConfig(
        experiment="E4_allocation", n_list=(1000,), trials=1000, master_seed=107, params={"l": 1000, "k": k}
    )
    median = run(cfg).summary["stat"]["p50"]
    assert lo <= median < hi, median


@pytest.mark.parametrize("l, k, key", [(5, 10, "k"), (0, 1, "l"), (10, 0, "k")])
def test_e4_rejects_sizes_before_any_trial(l, k, key, monkeypatch):
    """sample_allocation needs 1 <= k <= l; the config fails before it is called."""
    calls = []
    monkeypatch.setattr(experiments, "sample_allocation", lambda *a: calls.append(a))
    cfg = ExperimentConfig(experiment="E4_allocation", n_list=(10,), params={"l": l, "k": k})
    with pytest.raises(ConfigError, match=f"params.{key}="):
        run(cfg)
    assert calls == []


def test_e4_uses_a_single_dimension_before_any_trial(monkeypatch):
    """l defaults to the first n, so a second n would be dropped unread."""
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "sample_allocation", no_trial)
    cfg = ExperimentConfig(experiment="E4_allocation", n_list=(100, 200), trials=2)
    with pytest.raises(ConfigError, match="single dimension"):
        run(cfg)


def test_e5_census_peaked_regime():
    cfg = ExperimentConfig(
        experiment="E5_profile_census", n_list=(64,), trials=6, master_seed=9,
        params={"delta": 0.003, "q": 2.0, "r": 0.9, "R": 1.3},
    )
    res = run(cfg)
    assert res.columns == (
        "trial", "n", "dist", "seed", "sphere_class", "verdict", "min_ssq",
    )
    # uniform directions at n=64 under (r=0.9, R=1.3) are all peaked
    for r in res.rows:
        assert r[4] == "V_P" and r[5] == "peaked"
        assert math.isnan(r[6])
    assert res.summary["per_n"]["64"]["peaked"]["freq"] == 1.0


def test_e5_census_spread_regime(monkeypatch):
    cfg = ExperimentConfig(
        experiment="E5_profile_census", n_list=(32,), trials=4, master_seed=9,
        params={"delta": 0.003, "q": 2.0},  # default wide partition (0.25, 40)
    )
    classified = []

    def counting(x, params, inner=sphere_profile.classify_sphere):
        classified.append(1)
        return inner(x, params)

    monkeypatch.setattr(experiments, "classify_sphere", counting)
    monkeypatch.setattr(sphere_profile, "classify_sphere", counting)
    res = run(cfg)
    # each direction's sphere class is computed once, then its profile
    assert len(classified) == cfg.trials
    monkeypatch.undo()
    for r in res.rows:
        idx = r[0]
        g = experiments.derive_stream(cfg.master_seed, idx).standard_normal(32)
        params = sphere_profile.PartitionParams(r=constants.DEFAULT_R_LOWER, R=constants.DEFAULT_R_UPPER)
        cls = sphere_profile.classify_profile(g / np.linalg.norm(g), params, 0.003, 2.0)
        assert (r[5], r[6]) == (cls.verdict, cls.min_ssq)
    for r in res.rows:
        assert r[4] == "V_S"
        assert r[5] in ("regular", "singular")
        assert not math.isnan(r[6])


@pytest.mark.parametrize("per_bound", [0, -3])
def test_e6_rejects_per_bound_below_one(per_bound):
    cfg = ExperimentConfig(
        experiment="E6_bound_calibration", n_list=(1,), trials=1,
        master_seed=constants.VALIDATION_SEED, params={"per_bound": per_bound},
    )
    with pytest.raises(ConfigError, match="params.per_bound"):
        run(cfg)


def test_e6_rejects_trials_other_than_one():
    # each corpus query runs once, so any trials but 1 cannot be honoured
    cfg = ExperimentConfig(
        experiment="E6_bound_calibration", n_list=(1,), trials=3,
        master_seed=constants.VALIDATION_SEED, params={"per_bound": 2},
    )
    with pytest.raises(ConfigError, match="trials=3"):
        run(cfg)


def test_e6_rows_and_summary():
    cfg = ExperimentConfig(
        experiment="E6_bound_calibration", n_list=(1,), trials=1,
        master_seed=constants.VALIDATION_SEED, params={"per_bound": 2},
    )
    res = run(cfg)
    assert res.columns == (
        "trial", "bound", "dist", "m", "exact", "bound_value", "ratio", "dominated",
    )
    assert len(res.rows) == 8
    assert [r[1] for r in res.rows] == (
        ["esseen"] * 2 + ["halasz_profile"] * 2 + ["halasz_integral"] * 2 + ["berry_esseen"] * 2
    )
    for r in res.rows:
        assert r[7] == 1
    assert res.summary["all_dominated"] is True
    assert res.summary["margin"] == 1.25
    for bound, info in res.summary["per_bound"].items():
        assert info["count"] == 2
        assert info["dominated"]["freq"] == 1.0
        assert info["max_ratio"] <= constants.FITTED[bound]
    # the two bounds with a proven constant report how far the fit is below it
    assert {b for b, info in res.summary["per_bound"].items() if "fitted_over_proven" in info} == {
        "esseen", "berry_esseen"
    }
    for bound in ("esseen", "berry_esseen"):
        ratio = res.summary["per_bound"][bound]["fitted_over_proven"]
        assert ratio == constants.FITTED[bound] / constants.PROVEN[bound] < 1.0


def test_e6_computes_each_distinct_exact_value_once_per_run(monkeypatch):
    """The validation corpora repeat some (x, law, v, t) (the two Halasz
    corpora share their structured queries): E6 computes each distinct exact
    value once per run, a second run computes them again, and every row
    holds the query's own evaluate_query values."""
    seed, per_bound = constants.VALIDATION_SEED, 30
    cfg = ExperimentConfig(
        experiment="E6_bound_calibration", master_seed=seed, params={"per_bound": per_bound}
    )
    queries = [
        q for b in calibration.DOMINATION_BOUNDS for q in calibration.build_corpus(b, seed, per_bound)
    ]
    keys = {(q.x.tobytes(), q.dist, np.array([q.v, q.t]).tobytes()) for q in queries}
    calls = []
    real = calibration.exact_value

    def counting(query):
        calls.append(query)
        return real(query)

    monkeypatch.setattr(calibration, "exact_value", counting)
    res = run(cfg)
    assert len(calls) == len(keys) < len(queries) == len(res.rows)
    assert emit(run(cfg)) == emit(res)
    assert len(calls) == 2 * len(keys)
    monkeypatch.undo()
    for row, q in zip(res.rows, queries):
        single = calibration.evaluate_query(q)
        assert (row[1], row[4], row[5]) == (q.bound, single.exact, single.bound_value)


def test_e6_rows_are_the_fit_over_the_validation_corpora():
    """E6 is one trial: its rows are fit_bounds(DOMINATION_BOUNDS, seed,
    per_bound)'s results in corpus order, trial the running query index."""
    seed, per_bound = constants.VALIDATION_SEED, 8
    cfg = ExperimentConfig(
        experiment="E6_bound_calibration", master_seed=seed, params={"per_bound": per_bound}
    )
    res = run(cfg)
    fits = calibration.fit_bounds(calibration.DOMINATION_BOUNDS, seed, per_bound)
    assert list(fits) == list(calibration.DOMINATION_BOUNDS)
    results = [r for report in fits.values() for r in report.results]
    assert [row[0] for row in res.rows] == list(range(len(results))) == list(range(4 * per_bound))
    for row, r in zip(res.rows, results):
        q = r.query
        dominated = int(r.exact <= constants.FITTED[q.bound] * r.bound_value * (1.0 + 1e-12))
        assert row[1:] == (q.bound, q.dist.spec_string(), q.x.size, r.exact, r.bound_value, r.ratio, dominated)


def test_e6_regime_error_names_its_one_trial(monkeypatch):
    """A RegimeError at any corpus query of E6 reads as one from trial 0."""
    calls = []
    real = calibration.exact_value

    def failing_fifth(query):
        calls.append(query)
        if len(calls) == 5:
            raise RegimeError("no exact value")
        return real(query)

    monkeypatch.setattr(calibration, "exact_value", failing_fifth)
    cfg = ExperimentConfig(
        experiment="E6_bound_calibration", master_seed=constants.VALIDATION_SEED, params={"per_bound": 4}
    )
    with pytest.raises(RegimeError, match=r"^trial 0: no exact value$"):
        run(cfg)


# ------------------------------------------------------------ emit and summary


def test_recompute_summary_matches():
    res = run(E1_CFG)
    recomputed = recompute_summary(res)
    original = dict(res.summary)
    original.pop("runtime_seconds")
    assert recomputed == original


def test_emit_csv_layout_and_determinism():
    res = run(E1_CFG)
    text = emit(res)
    lines = text.splitlines()
    assert lines[0] == f"# artifact={constants.ARTIFACT_NAME}/{constants.ARTIFACT_VERSION}"
    assert lines[1].startswith("# config experiment=E1_sigma_min_tail ")
    assert "master_seed=5" in lines[1]
    assert lines[2] == ",".join(res.columns)
    assert len(lines) == 3 + len(res.rows)
    assert text.endswith("\n")
    # float cells are repr() and survive the round trip exactly
    first = lines[3].split(",")
    assert float(first[4]) == res.rows[0][4]
    assert len(first) == len(res.columns)
    # byte identity across a re-run of the same config
    again = emit(run(E1_CFG))
    assert again == text


# a law whose spec string holds commas, so its dist cell must be quoted
_SPREAD_LAW = discrete([(-math.sqrt(2.0), 0.25), (0.0, 0.5), (math.sqrt(2.0), 0.25)])
SMALL_CFGS = (
    ExperimentConfig(experiment="E1_sigma_min_tail", dist=_SPREAD_LAW, n_list=(8,), trials=2, master_seed=1),
    ExperimentConfig(experiment="E2_op_norm", dist=_SPREAD_LAW, n_list=(8,), trials=2, master_seed=1),
    ExperimentConfig(experiment="E2b_peaked", dist=_SPREAD_LAW, n_list=(8,), trials=2, master_seed=1),
    ExperimentConfig(
        experiment="E3_regular_smallball", dist=_SPREAD_LAW, n_list=(16,), trials=1, master_seed=106,
        params={"delta": 0.016, "q": 4.0},
    ),
    ExperimentConfig(experiment="E4_allocation", n_list=(10,), trials=2, master_seed=8),
    ExperimentConfig(
        experiment="E5_profile_census", dist=_SPREAD_LAW, n_list=(32,), trials=2, master_seed=9,
        params={"delta": 0.003, "q": 2.0},
    ),
    # the first 8 queries per bound include discrete laws
    ExperimentConfig(
        experiment="E6_bound_calibration", master_seed=constants.VALIDATION_SEED, params={"per_bound": 8},
    ),
)


@pytest.mark.parametrize("cfg", SMALL_CFGS, ids=lambda cfg: cfg.experiment)
def test_emit_csv_rows_parse_to_the_header_width(cfg):
    res = run(cfg)
    lines = emit(res).splitlines()
    table = list(csv.reader(lines[2:]))
    assert tuple(table[0]) == res.columns
    assert len(table) == 1 + len(res.rows)
    assert all(len(cells) == len(res.columns) for cells in table[1:])
    if "dist" in res.columns:  # E4 has no dist column
        at = res.columns.index("dist")
        dists = [row[at] for row in res.rows]
        assert [cells[at] for cells in table[1:]] == dists
        assert all(parse_dist_spec(d).spec_string() == d for d in dists)
        assert any("," in d for d in dists)  # the config exercises the quoting


def test_emit_json_shape():
    res = run(E1_CFG)
    payload = json.loads(emit(res, format="json"))
    assert payload["artifact"] == {
        "name": constants.ARTIFACT_NAME, "version": constants.ARTIFACT_VERSION,
    }
    assert payload["config"]["experiment"] == "E1_sigma_min_tail"
    assert payload["config"]["n_list"] == [8, 16]
    assert payload["summary"]["per_n"]["8"]["tail"]["count"] >= 0
    # identical up to the wall-clock entry
    second = json.loads(emit(run(E1_CFG), format="json"))
    payload["summary"].pop("runtime_seconds")
    second["summary"].pop("runtime_seconds")
    assert payload == second


def test_emit_writes_file_and_maps_errors(tmp_path):
    res = run(E1_CFG)
    out = tmp_path / "rows.csv"
    text = emit(res, path=str(out))
    assert out.read_text(encoding="utf-8") == text
    with pytest.raises(OSError, match="cannot write"):
        emit(res, path=str(tmp_path / "missing" / "rows.csv"))
    with pytest.raises(ValueError):
        emit(res, format="yaml")


def test_run_rejects_params_the_experiment_does_not_read():
    cfg = ExperimentConfig(experiment="E2_op_norm", n_list=(8,), params={"coef": 0.1})
    with pytest.raises(ConfigError, match="coef"):
        run(cfg)


@pytest.mark.parametrize(
    "experiment, key, value",
    [
        ("E2b_peaked", "spikes", 2.7),
        ("E2b_peaked", "spikes", True),
        ("E2b_peaked", "coeff", "abc"),
        ("E2b_peaked", "coeff", float("nan")),
        ("E1_sigma_min_tail", "eps", float("inf")),
        ("E6_bound_calibration", "per_bound", float("inf")),
    ],
)
def test_params_must_have_their_type(experiment, key, value):
    """An int param is a positive integer and a float param a finite number;
    anything else fails naming the key instead of being rounded or cast."""
    params = {"delta": 0.016, "q": 4.0} if experiment == "E3_regular_smallball" else {}
    cfg = ExperimentConfig(experiment=experiment, n_list=(4,), trials=1, params={**params, key: value})
    with pytest.raises(ConfigError, match=f"params.{key}="):
        run(cfg)


def test_params_are_resolved_to_their_types():
    """An integral float runs as its int and an int as a float: the summary
    carries the typed values, the result the caller's config."""
    cfg = ExperimentConfig(experiment="E2b_peaked", n_list=(4,), trials=2, params={"spikes": 2.0, "coeff": 1})
    res = run(cfg)
    assert res.config is cfg
    assert type(res.summary["spikes"]) is int and type(res.summary["coeff"]) is float
    assert recompute_summary(res) == {k: v for k, v in res.summary.items() if k != "runtime_seconds"}
    assert res.rows == run(ExperimentConfig(experiment="E2b_peaked", n_list=(4,), trials=2, params={"coeff": 1.0})).rows


def test_config_error_for_bad_spike_count(monkeypatch):
    """spikes above the smallest n fails before any trial draws its block."""
    def no_block(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "sample", no_block)
    cfg = ExperimentConfig(
        experiment="E2b_peaked", n_list=(300, 4), trials=50, params={"spikes": 9}
    )
    with pytest.raises(ConfigError, match="params.spikes=9"):
        run(cfg)


# Each case carries a fixed number in its id, so deleting a case renames no other.
_PROFILE_PARAM_CASES = [
    (6, "E5_profile_census", {"r": -0.5}, "r"),
    (7, "E5_profile_census", {"R": 0.5}, "R"),
    (8, "E3_regular_smallball", {"q": 0.5}, "q"),
    (9, "E5_profile_census", {"q": 1.0}, "q"),
    (10, "E3_regular_smallball", {"delta": 0.0}, "delta"),
    (11, "E5_profile_census", {"delta": -0.004}, "delta"),
]


@pytest.mark.parametrize(
    "experiment, bad, key",
    [
        pytest.param(experiment, bad, key, id=f"{experiment}-bad{i}-{key}")
        for i, experiment, bad, key in _PROFILE_PARAM_CASES
    ],
)
def test_partition_params_are_checked_before_any_trial(experiment, bad, key, monkeypatch):
    """delta > 0, q > 1 and E5's 0 < r < 1 < R fail naming the key before
    any trial draws a vector."""
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "derive_stream", no_trial)
    cfg = ExperimentConfig(
        experiment=experiment, n_list=(64,), trials=2, params={"delta": 0.004, "q": 4.0, **bad}
    )
    with pytest.raises(ConfigError, match=f"params.{key}="):
        run(cfg)


@pytest.mark.parametrize(
    "experiment, key",
    [
        ("E1_sigma_min_tail", "coeff"),
        ("E3_regular_smallball", "r"),
        ("E3_regular_smallball", "R"),
        ("E3_regular_smallball", "band_lo"),
        ("E3_regular_smallball", "band_hi"),
        ("E3_regular_smallball", "t_steps"),
        ("E3_regular_smallball", "mc_samples"),
        ("E3_regular_smallball", "max_tries"),
    ],
)
def test_fixed_values_are_not_params(experiment, key):
    """E1's threshold is eps * n^(-3/2) and E3 draws and sums in
    calibration's regime, so E1's coeff and E3's partition, band, windows,
    sample size and draw limit are unknown keys, and the error lists the keys
    the experiment reads."""
    params = {"delta": 0.004, "q": 4.0} if experiment == "E3_regular_smallball" else {}
    reads = ", ".join(experiments.PARAMS[experiment])
    cfg = ExperimentConfig(experiment=experiment, n_list=(64,), params={**params, key: 1.0})
    with pytest.raises(ConfigError, match=f"has no params {key}; it reads {reads}$"):
        run(cfg)


def test_e3_checks_the_halasz_regime_before_any_trial(monkeypatch):
    """delta = 0.02 > r/(4 pi sqrt(n)) = 0.9/(4 pi 8) at n = 64 fails before
    any trial draws a vector, not after REG_MAX_TRIES rejected draws."""
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "derive_stream", no_trial)
    cfg = ExperimentConfig(
        experiment="E3_regular_smallball", n_list=(64,), trials=2, params={"delta": 0.02, "q": 4.0}
    )
    with pytest.raises(RegimeError, match="params.delta=0.02") as exc:
        run(cfg)
    assert repr(0.9 / (4.0 * math.pi * 8.0)) in str(exc.value)
