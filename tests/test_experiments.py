import json
import math
import threading
import warnings

import numpy as np
import pytest

from rmlab import constants, experiments, matrices, small_ball
from rmlab.distributions import GAUSSIAN, RADEMACHER
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
from rmlab.rng import derive_substream_seed, usable_cores


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
    assert cfg.require("eps") == 0.2
    with pytest.raises(ConfigError):
        cfg.require("coeff")


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
        "trial", "n", "dist", "seed", "sigma_min", "op_norm", "singular_flag", "elapsed_ms",
    )
    assert len(res.rows) == 6
    assert [r[0] for r in res.rows] == list(range(6))
    # recompute one row end to end
    idx, n = 2, res.rows[2][1]
    seed = derive_substream_seed(5, idx)
    summ = spectral_summary(sample_matrix(RADEMACHER, n, seed))
    assert res.rows[2] == (idx, n, "rademacher", seed, summ.sigma_min, summ.op_norm, int(summ.singular_flag), 0)
    for r in res.rows:
        assert r[4] <= r[5]  # sigma_min <= op_norm
        assert r[7] == 0
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
    # 20k sums of 64 signs: on two or more cores the Rademacher MC sum loop
    # splits each block across threads
    ExperimentConfig(
        experiment="E3_regular_smallball",
        dist=RADEMACHER,
        n_list=(64,),
        trials=3,
        master_seed=34,
        params={"delta": 0.004, "q": 4.0, "mc_samples": 20_000, "t_steps": 3},
    ),
)


def _one_core(monkeypatch) -> None:
    """Make every threaded part of the package (E1/E2's trials and the
    Rademacher MC sum loop) see one usable core, so it runs serially."""
    monkeypatch.setattr(experiments, "usable_cores", lambda: 1)
    monkeypatch.setattr(small_ball, "usable_cores", lambda: 1)


def test_serial_parallel_identical_rows(monkeypatch):
    callers = set()

    def traced_summary(A, inner=experiments.spectral_summary):
        callers.add(threading.get_ident())
        return inner(A)

    for cfg in WORKER_CFGS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with monkeypatch.context() as patch:
                patch.setattr(experiments, "spectral_summary", traced_summary)
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
    if usable_cores() > 1 and matrices.svd_releases_gil():
        assert len(callers) > 1  # the threaded runs did use the pool
    singular = [r[6] for r in run(WORKER_CFGS[1]).rows]
    assert 0 < sum(singular) < len(singular)


@pytest.mark.skipif(not matrices.svd_releases_gil(), reason="E1/E2 trials run serially here")
def test_threaded_trials_start_largest_matrix_first(monkeypatch):
    submitted = []

    class Recording(experiments.ThreadPoolExecutor):
        def submit(self, fn, payload):
            submitted.append(payload)
            return super().submit(fn, payload)

    cfg = ExperimentConfig(experiment="E1_sigma_min_tail", dist=GAUSSIAN, n_list=(5, 40, 20), trials=3, master_seed=35)
    want = run(cfg)
    monkeypatch.setattr(experiments, "usable_cores", lambda: 2)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", Recording)
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
    assert res.columns == ("trial", "n", "dist", "seed", "op_norm", "exceed_flag", "elapsed_ms")
    assert len(res.rows) == 4
    for r in res.rows:
        assert r[5] == int(r[4] > 2.5 * 4.0)
    assert res.summary["per_n"]["16"]["threshold"] == pytest.approx(10.0)


def test_e2b_rows_match_direct_computation():
    cfg = ExperimentConfig(experiment="E2b_peaked", dist=RADEMACHER, n_list=(16,), trials=3, master_seed=7)
    res = run(cfg)
    assert res.columns == ("trial", "n", "dist", "seed", "ax_norm", "small_flag", "elapsed_ms")
    spike = np.zeros(16)
    spike[:2] = 1.0 / math.sqrt(2.0)
    for idx, r in enumerate(res.rows):
        A = sample_matrix(RADEMACHER, 16, derive_substream_seed(7, idx))
        assert r[4] == pytest.approx(float(np.linalg.norm(A.entries @ spike)), rel=1e-15)
        assert r[5] == int(r[4] <= 0.3 * 4.0)
    assert res.summary["spikes"] == 2


def test_e3_rows_and_summary():
    cfg = ExperimentConfig(
        experiment="E3_regular_smallball",
        n_list=(16,),
        trials=2,
        master_seed=106,
        params={"delta": 0.016, "q": 4.0, "mc_samples": 20_000},
    )
    res = run(cfg)
    assert res.columns == (
        "trial", "n", "dist", "seed", "t", "q_hat", "min_ssq", "threshold", "elapsed_ms",
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


@pytest.mark.parametrize("key", ["mc_samples", "t_steps", "max_tries"])
def test_e3_rejects_counts_below_one(key):
    cfg = ExperimentConfig(
        experiment="E3_regular_smallball",
        n_list=(16,),
        trials=1,
        params={"delta": 0.016, "q": 4.0, key: 0},
    )
    with pytest.raises(ConfigError, match=f"params.{key}"):
        run(cfg)


def test_e3_regime_error_carries_trial_index():
    cfg = ExperimentConfig(
        experiment="E3_regular_smallball",
        n_list=(16,),
        trials=1,
        master_seed=3,
        params={"delta": 0.016, "q": 1.5, "max_tries": 1},
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
    assert res.columns == ("trial", "l", "k", "seed", "min_ssq", "stat", "elapsed_ms")
    # k=1 forces occupancy (l,), keep=5, ssq=25, stat = 25*1/100 = 0.25
    for r in res.rows:
        assert (r[1], r[2], r[4]) == (10, 1, 25)
        assert r[5] == 0.25
    for key in ("p50", "p90", "p99", "max"):
        assert res.summary["stat"][key] == 0.25
    assert res.summary["reference_c_half"] == 65536.0
    assert res.summary["exceed_reference"]["count"] == 0


def test_e5_census_peaked_regime():
    cfg = ExperimentConfig(
        experiment="E5_profile_census", n_list=(64,), trials=6, master_seed=9,
        params={"delta": 0.003, "q": 2.0, "r": 0.9, "R": 1.3},
    )
    res = run(cfg)
    assert res.columns == (
        "trial", "n", "dist", "seed", "sphere_class", "verdict", "min_ssq", "elapsed_ms",
    )
    # uniform directions at n=64 under (r=0.9, R=1.3) are all peaked
    for r in res.rows:
        assert r[4] == "V_P" and r[5] == "peaked"
        assert math.isnan(r[6])
    assert res.summary["per_n"]["64"]["peaked"]["freq"] == 1.0


def test_e5_census_spread_regime():
    cfg = ExperimentConfig(
        experiment="E5_profile_census", n_list=(32,), trials=4, master_seed=9,
        params={"delta": 0.003, "q": 2.0},  # default wide partition (0.25, 40)
    )
    res = run(cfg)
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
        "trial", "bound", "dist", "m", "exact", "bound_value", "ratio", "dominated", "elapsed_ms",
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
    assert first[7] == "0"
    # byte identity across a re-run of the same config
    again = emit(run(E1_CFG))
    assert again == text


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


def test_config_error_for_bad_spike_count():
    cfg = ExperimentConfig(
        experiment="E2b_peaked", n_list=(4,), trials=1, params={"spikes": 9}
    )
    with pytest.raises(ConfigError):
        run(cfg)
