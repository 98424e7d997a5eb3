"""The four workloads: inputs built from a seed, one timed pass, the layer
wrappers, and the correctness checks run after the timed region.

Sizes are the acceptance configs of ``tests/test_acceptance.py`` with fewer
trials, keeping each config's dimensions, laws and mix of code paths.

The seed picks the order in which a pass runs its configs, the rows checked
against LAPACK, and the master seeds of the lab_mix inputs whose cost does
not depend on the draw (E4, E2b, the greedy-net point sets). The spectral
configs keep their acceptance master seeds: the cost of one matrix depends
on its power-iteration count, which varies by a factor of two between
matrices, so a seed-drawn matrix set at these sizes would move the pass time
by more than any bound. E3, E6 and the calibration refit keep their frozen
seeds because their correctness predicates are claimed only there.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np
from scipy.linalg import svdvals

from rmlab import calibration, constants, experiments, nets
from rmlab.distributions import GAUSSIAN, RADEMACHER
from rmlab.errors import RegimeError
from rmlab.experiments import ExperimentConfig
from rmlab.matrices import sample_matrix
from rmlab.rng import derive_stream, derive_substream_seed
from rmlab.sphere_profile import PartitionParams, sample_peaked_direction

E1_TRIALS = 4  # per dimension
E2_TRIALS = 10
POOL_WORKERS = 2
E3_TRIALS = 2
E6_PER_BOUND = 30
E4_TRIALS = 100
E2B_TRIALS = 200
# The timed refit uses a prefix of the frozen corpus (every corpus is built
# in sequence from its seed), so several refits fit in one run; one untimed
# refit at the frozen size checks FITTED_RAW.
CALIBRATION_PER_BOUND = 20
FROZEN_PER_BOUND = 60

# Relative agreement of the iterative extreme singular values with LAPACK's
# svdvals. Slowly converging power iterations stop up to about 1e-8 away at
# n <= 400 (sigma_min within 1e-10), so 1e-6 leaves a hundredfold margin
# while a wrong value is still caught.
SVD_RTOL = 1e-6
FITTED_RAW_ATOL = 1e-8
E4_P99_MAX = 4.0

E1_DIMS = (50, 100, 200, 400)
FAILED = "failed"  # fingerprint of an output that raised RegimeError

def _config(name: str, experiment, dist, n_list, trials, seed, params=None) -> tuple[str, ExperimentConfig]:
    return name, ExperimentConfig(
        experiment=experiment, dist=dist, n_list=n_list, trials=trials, master_seed=seed, params=params or {}
    )


def _shuffled(items: list, seed: int) -> list:
    random.Random(seed).shuffle(items)
    return items


def spectral_configs(seed: int) -> list[tuple[str, ExperimentConfig]]:
    return _shuffled(
        [
            _config("e1_rademacher", "E1_sigma_min_tail", RADEMACHER, E1_DIMS, E1_TRIALS, 101),
            _config("e1_gaussian", "E1_sigma_min_tail", GAUSSIAN, E1_DIMS, E1_TRIALS, 102),
            _config("e2_gaussian", "E2_op_norm", GAUSSIAN, (200,), E2_TRIALS, 103),
            _config("e2_rademacher", "E2_op_norm", RADEMACHER, (200,), E2_TRIALS, 104),
        ],
        seed,
    )


def pool_configs() -> list[tuple[str, ExperimentConfig]]:
    return [_config("e1_gaussian", "E1_sigma_min_tail", GAUSSIAN, E1_DIMS, E1_TRIALS, 102)]


def lab_configs(seed: int) -> list[tuple[str, ExperimentConfig]]:
    return _shuffled(
        [
            _config("e3", "E3_regular_smallball", RADEMACHER, (64,), E3_TRIALS, 106, {"delta": 0.004, "q": 4.0}),
            _config(
                "e6", "E6_bound_calibration", RADEMACHER, (1,), 1, constants.VALIDATION_SEED, {"per_bound": E6_PER_BOUND}
            ),
            _config("e4", "E4_allocation", RADEMACHER, (1000,), E4_TRIALS, derive_substream_seed(seed, 4), {"l": 1000, "k": 1000}),
            _config("e2b", "E2b_peaked", RADEMACHER, (100, 200), E2B_TRIALS, derive_substream_seed(seed, 5)),
        ],
        seed,
    )


def task_count(config: ExperimentConfig) -> int:
    """Trials one run of the config performs (E6: corpus queries)."""
    if config.experiment == "E6_bound_calibration":
        return len(calibration.DOMINATION_BOUNDS) * int(config.param("per_bound", 50))
    if config.experiment in ("E3_regular_smallball", "E4_allocation"):
        return config.trials
    return config.trials * len(config.n_list)


# ------------------------------------------------------------- greedy nets


@dataclass(frozen=True, eq=False)
class NetCheck:
    label: str
    points: np.ndarray
    eps: float
    bound: float  # formula log-covering bound the greedy net must not exceed


def _ball_points(n: int, count: int, rng) -> np.ndarray:
    g = rng.standard_normal((count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / n)


def net_checks(seed: int) -> list[NetCheck]:
    """The 50 configurations of acceptance criterion 8, points drawn from seed."""
    out = []
    for n in range(2, 9):
        for t in (0.4, 0.5, 0.6, 0.8, 1.0):
            pts = _ball_points(n, 400, derive_stream(seed, 1000 * n + int(t * 10)))
            bound = nets.volumetric_bound(n, "euclidean_ball", "euclidean_ball", t)
            out.append(NetCheck(f"ball n={n} t={t}", pts, t, bound))
    for n in (4, 5, 6, 7, 8):
        for r, R in ((0.3, 1.15), (0.4, 1.3), (0.45, 1.5)):
            rng = derive_stream(seed, 2000 * n + int(100 * r))
            params = PartitionParams(r=r, R=R)
            pts = np.array([sample_peaked_direction(n, params, rng) for _ in range(200)])
            out.append(NetCheck(f"peaked n={n} r={r}", pts, 2.0 * r, nets.vp_entropy_bound(n, r, R)))
    return out


# ----------------------------------------------------------------- workloads


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Workload:
    """One workload: run_pass is timed; fingerprint and check are not.

    run_pass(walls) returns the pass outputs by key and records the wall
    time of each experiments.run call in walls. An output is a RegimeError
    when that part of the pass raised one; tasks gives the trials it lost.
    """

    tasks: dict[str, int]
    run_pass: Callable[[dict], dict]
    warm_up: Callable[[], object]
    check: Callable[[dict], list[Check]]

    @property
    def trials_per_pass(self) -> int:
        return sum(self.tasks.values())


def _run_configs(configs, walls: dict, workers: int = 1) -> dict:
    out = {}
    for name, cfg in configs:
        start = perf_counter()
        try:
            result = experiments.run(cfg, workers=workers)
        except RegimeError as exc:
            out[name] = exc
            continue
        walls[name] = perf_counter() - start
        out[name] = (result, experiments.emit(result, format="csv"))
    return out


def fingerprint(outputs: dict) -> dict[str, str]:
    """SHA-256 of each output: the CSV for a config, a repr otherwise."""
    digests = {}
    for key, value in outputs.items():
        if isinstance(value, RegimeError):
            digests[key] = FAILED
            continue
        text = value[1] if isinstance(value, tuple) else repr(value)
        digests[key] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def check_digests(per_pass: list[dict[str, str]], reference: dict[str, str]) -> list[Check]:
    """Every pass must reproduce the reference digest of every output."""
    out = []
    for key in sorted(reference):
        seen = {d.get(key) for d in per_pass}
        ok = seen == {reference[key]} and reference[key] != FAILED
        out.append(Check(f"digest:{key}", ok, f"{len(seen)} distinct digest(s) over {len(per_pass)} passes"))
    return out


def spectral_rows(result) -> list[tuple]:
    """(dist, n, seed, sigma_min or None, op_norm, singular) per row."""
    cols = result.columns
    get = {c: i for i, c in enumerate(cols)}
    rows = []
    for row in result.rows:
        sigma = row[get["sigma_min"]] if "sigma_min" in get else None
        singular = bool(row[get["singular_flag"]]) if "singular_flag" in get else False
        rows.append((result.config.dist, row[get["n"]], row[get["seed"]], sigma, row[get["op_norm"]], singular))
    return rows


def pick_rows(rows: list[tuple], seed: int) -> list[tuple]:
    """One seed-chosen row per dimension."""
    rng = random.Random(seed)
    by_n: dict[int, list] = {}
    for row in rows:
        by_n.setdefault(row[1], []).append(row)
    return [rng.choice(by_n[n]) for n in sorted(by_n)]


def check_svdvals(rows: list[tuple], rtol: float = SVD_RTOL) -> list[str]:
    """Compare rows against svdvals of the regenerated matrix; returns the
    rows that disagree. A singular row must have LAPACK sigma_min at most
    n^2 * 1e-12 * max|a_ij|, which the LU pivot rule that flagged it implies."""
    bad = []
    for dist, n, seed, sigma, op_norm, singular in rows:
        entries = sample_matrix(dist, n, seed).entries
        s = svdvals(entries)
        ok = abs(op_norm - s[0]) <= rtol * s[0]
        if sigma is not None:
            if singular:
                ok &= s[-1] <= n * n * 1e-12 * float(np.max(np.abs(entries)))
            else:
                ok &= abs(sigma - s[-1]) <= rtol * s[-1]
        if not ok:
            bad.append(f"n={n} seed={seed}: got ({sigma}, {op_norm}), svdvals ({s[-1]}, {s[0]})")
    return bad


def _svd_checks(outputs: dict, seed: int) -> list[Check]:
    out = []
    for key, value in sorted(outputs.items()):
        if isinstance(value, RegimeError):
            continue
        rows = pick_rows(spectral_rows(value[0]), seed)
        bad = check_svdvals(rows)
        out.append(Check(f"svdvals:{key}", not bad, "; ".join(bad) or f"{len(rows)} rows within {SVD_RTOL:g}"))
    return out


def _summary(outputs: dict, key: str) -> dict | None:
    value = outputs.get(key)
    return None if isinstance(value, RegimeError) or value is None else value[0].summary


def _lab_checks(outputs: dict, checks: list[NetCheck]) -> list[Check]:
    out = []
    e3, e6, e4 = (_summary(outputs, k) for k in ("e3", "e6", "e4"))
    out.append(Check("e3:all_under_bound", bool(e3 and e3["all_under_bound"]), f"max ratio {e3 and e3['max_ratio_vs_bound']}"))
    out.append(Check("e6:all_dominated", bool(e6 and e6["all_dominated"]), "validation corpus prefix"))
    p99 = e4["stat"]["p99"] if e4 else float("inf")
    out.append(Check("e4:p99", p99 <= E4_P99_MAX, f"p99 {p99:.3f} <= {E4_P99_MAX}"))
    over = [c.label for c, log_count in zip(checks, outputs["nets"]) if log_count > c.bound]
    out.append(Check("nets:formula_bounds", not over, ", ".join(over) or f"{len(checks)} greedy nets within bound"))
    return out


def _calibration_checks(frozen: dict, outputs: dict) -> list[Check]:
    out = []
    for bound, raw in frozen.items():
        expected = constants.FITTED_RAW[bound]
        out.append(Check(f"fitted_raw:{bound}", abs(raw - expected) <= FITTED_RAW_ATOL, f"{raw!r} vs {expected!r}"))
    raws = outputs["fit_all"]
    ok = not isinstance(raws, RegimeError) and all(
        raws[b] <= constants.FITTED_RAW[b] + FITTED_RAW_ATOL for b in calibration.BOUNDS
    )
    out.append(Check("prefix_raw_within_frozen", ok, f"per_bound={CALIBRATION_PER_BOUND} refit {raws!r}"))
    return out


def fit_raws(per_bound: int) -> tuple[dict, dict]:
    """One calibration refit: the raw constant and every (exact, bound)
    pair per bound, so the fingerprint covers the whole refit."""
    reports = calibration.fit_all(constants.CALIBRATION_SEED, per_bound)
    return {b: r.raw for b, r in reports.items()}, {
        b: [(q.exact, q.bound_value) for q in r.results] for b, r in reports.items()
    }


def build(name: str, seed: int) -> Workload:
    """Inputs for one workload; everything here counts as set-up time."""
    if name in ("spectral", "spectral_pool"):
        pool = name == "spectral_pool"
        configs = pool_configs() if pool else spectral_configs(seed)
        workers = POOL_WORKERS if pool else 1

        def run_pass(walls):
            return _run_configs(configs, walls, workers)

        def check(outputs):
            out = _svd_checks(outputs, seed)
            if pool:
                serial = experiments.emit(experiments.run(configs[0][1]), format="csv")
                value = outputs["e1_gaussian"]
                same = not isinstance(value, RegimeError) and value[1] == serial
                out.append(Check("pool_equals_serial:e1_gaussian", same, "CSV byte-identical to workers=1"))
            return out

        return Workload({k: task_count(c) for k, c in configs}, run_pass, lambda: run_pass({}), check)

    if name == "calibration":
        frozen: dict = {}

        def warm_up():
            frozen.update(fit_raws(FROZEN_PER_BOUND)[0])

        def run_pass(walls):
            try:
                raws, pairs = fit_raws(CALIBRATION_PER_BOUND)
            except RegimeError as exc:
                return {"fit_all": exc}
            return {"fit_all": raws, "pairs": pairs}

        tasks = {"fit_all": len(calibration.BOUNDS) * CALIBRATION_PER_BOUND}
        return Workload(tasks, run_pass, warm_up, lambda outputs: _calibration_checks(frozen, outputs))

    if name == "lab_mix":
        configs = lab_configs(seed)
        checks = net_checks(seed)

        def run_pass(walls):
            out = _run_configs(configs, walls)
            out["nets"] = [nets.greedy_estimate(c.points, metric="l2", eps=c.eps).log_count for c in checks]
            return out

        tasks = {k: task_count(c) for k, c in configs}
        tasks["nets"] = len(checks)
        return Workload(tasks, run_pass, lambda: run_pass({}), lambda outputs: _lab_checks(outputs, checks))

    raise ValueError(f"unknown workload {name!r}")


# ------------------------------------------------------------ layer wrappers


def _matrix_n(args, kwargs) -> int:
    A = args[0] if args else kwargs["A"]
    return int(A.n) if hasattr(A, "n") else int(np.shape(A)[0])


def _add(c: dict, key: str, value) -> None:
    c[key] = c.get(key, 0) + value


def _observe_summary(res, args, kwargs, c) -> None:
    n = _matrix_n(args, kwargs)
    c.setdefault("op_iters", []).append(res.op_norm_iterations)
    c.setdefault("sigma_iters", []).append(res.sigma_min_iterations)
    _add(c, "nonconverged", int(not (res.op_norm_converged and res.sigma_min_converged)))
    _add(c, "singular", int(res.singular_flag))
    # power iteration: two matvecs of 2n^2 flops; LU 2n^3/3; each inverse
    # iteration two triangular solve pairs of 2n^2 flops
    flops = 4 * n * n * res.op_norm_iterations + 2 * n**3 / 3 + 4 * n * n * res.sigma_min_iterations
    _add(c, "gflop", flops / 1e9)


def _observe_op_norm(res, args, kwargs, c) -> None:
    n = _matrix_n(args, kwargs)
    c.setdefault("op_iters", []).append(res.iterations)
    _add(c, "nonconverged", int(not res.converged))
    _add(c, "gflop", 4 * n * n * res.iterations / 1e9)


def _observe_sample(res, args, kwargs, c) -> None:
    _add(c, "sample_entries", int(np.size(res)))


def _observe_query(res, args, kwargs, c) -> None:
    q = args[0] if args else kwargs["query"]
    if q.bound == "regular_smallball":
        _add(c, "mc_drawn", 1)
        c.setdefault("mc_keys", set()).add((q.x.tobytes(), q.mc_seed))


def _observe_exact(res, args, kwargs, c) -> None:
    meta = res.metadata
    if meta["path"] == "enumeration":
        _add(c, "enumerated", 1)
        c["atoms_max"] = max(c.get("atoms_max", 0), meta["atoms"])
    else:
        c["cells_max"] = max(c.get("cells_max", 0), meta["cells"])
        c["radius_max"] = max(c.get("radius_max", 0.0), meta["error_radius"])


def _observe_esseen(res, args, kwargs, c) -> None:
    c["quad_err_max"] = max(c.get("quad_err_max", 0.0), res.metadata["quad_abs_error"])


def _observe_classify(res, args, kwargs, c) -> None:
    _add(c, "accepted", int(res.verdict == "regular" and res.halasz_regime))


def _sub_n(args, kwargs) -> str:
    return f"n{_matrix_n(args, kwargs)}"


# (module attribute callers look the function up by, span name, observer, sub-key)
WRAPS = (
    ("rmlab.experiments.run", "experiments.run", None, None),
    ("rmlab.experiments.emit", "experiments.emit", None, None),
    ("rmlab.experiments.spectral_summary", "matrices.spectral_summary", _observe_summary, _sub_n),
    ("rmlab.experiments.operator_norm", "matrices.operator_norm", _observe_op_norm, None),
    ("rmlab.experiments.sample_matrix", "matrices.sample_matrix", None, None),
    ("rmlab.experiments.sample", "distributions.sample", _observe_sample, None),
    ("rmlab.matrices.sample", "distributions.sample", _observe_sample, None),
    ("rmlab.calibration.sample", "distributions.sample", _observe_sample, None),
    ("rmlab.experiments.empirical_sup_concentration", "small_ball.empirical_sup_concentration", None, None),
    ("rmlab.calibration.empirical_sup_concentration", "small_ball.empirical_sup_concentration", None, None),
    ("rmlab.experiments.classify_profile", "sphere_profile.classify_profile", _observe_classify, None),
    ("rmlab.calibration.classify_profile", "sphere_profile.classify_profile", _observe_classify, None),
    ("rmlab.sphere_profile.sample_spread_direction", "sphere_profile.sample_spread_direction", None, None),
    ("rmlab.calibration.sample_spread_direction", "sphere_profile.sample_spread_direction", None, None),
    ("rmlab.experiments.min_half_subset_ssq", "sphere_profile.min_half_subset_ssq", None, None),
    ("rmlab.experiments.sample_allocation", "sphere_profile.sample_allocation", None, None),
    ("rmlab.calibration.fit_all", "calibration.fit_all", None, None),
    ("rmlab.calibration.evaluate_query", "calibration.evaluate_query", _observe_query, None),
    ("rmlab.calibration.exact_concentration", "small_ball.exact_concentration", _observe_exact, None),
    ("rmlab.calibration.esseen_bound", "small_ball.esseen_bound", _observe_esseen, None),
    ("rmlab.calibration.halasz_profile_bound", "small_ball.halasz_profile_bound", None, None),
    ("rmlab.calibration.halasz_integral_bound", "small_ball.halasz_integral_bound", None, None),
    ("rmlab.calibration.berry_esseen_bound", "small_ball.berry_esseen_bound", None, None),
    ("rmlab.nets.greedy_estimate", "nets.greedy_estimate", None, None),
)


def install(tracer) -> None:
    for target, name, observe, sub in WRAPS:
        tracer.wrap(target, name, observe, sub)
