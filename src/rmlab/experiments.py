"""Config-driven experiment runner.

Seven experiment families assemble the library into verifiable statistical
claims: extreme singular-value tails (E1), operator-norm tails (E2), peaked
directions (E2b), the linear small-ball law on regular vectors (E3),
allocation concentration (E4), a sphere-partition census (E5), and bound
calibration audits (E6).

Every family has the same shape, one `_Experiment` entry in `_RUNNERS`:
its CSV columns; the params keys it reads, which are the only ones run()
accepts; tasks(config), the list of task payloads in trial-index order,
each led by its trial index; run(config, payload), the rows of one task;
and summarize(config, rows), the JSON summary built from the rows alone.

Determinism contract: rows must be a pure function of (config, trial index).
Trial i draws from an RNG stream derived from (master_seed, i) by a fixed
64-bit mix. run() keeps rows in task order: E1's and E2's trials, which
spend their time in the GIL-free LAPACK call of rmlab.matrices, run on one
thread per usable core, started largest matrix first; every other family,
and E1/E2 where that call is not available, runs its trials serially.
Re-emitting a result yields byte-identical CSV. Wall-clock runtime lives
only in the JSON summary and is excluded from that contract.
"""
from __future__ import annotations

import functools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import calibration, constants, matrices
from .distributions import EntryDistribution, RADEMACHER, parse_dist_spec
from .distributions import sample  # unused here; benchmarks/workloads.py wraps this name
from .errors import ConfigError, RegimeError
from .matrices import operator_norm, sample_matrix, spectral_summary
from .rng import derive_stream, derive_substream_seed, usable_cores
from .small_ball import clopper_pearson, empirical_sup_concentration, sample_sums
from .sphere_profile import (
    PartitionParams,
    classify_profile,
    classify_sphere,
    min_half_subset_ssq,
    sample_allocation,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "derive_stream",
    "emit",
    "parse_config",
    "run",
]

EXPERIMENTS = (
    "E1_sigma_min_tail",
    "E2_op_norm",
    "E2b_peaked",
    "E3_regular_smallball",
    "E4_allocation",
    "E5_profile_census",
    "E6_bound_calibration",
)

_MAX_SEED = 2**64


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    experiment: str
    dist: EntryDistribution = RADEMACHER
    n_list: tuple[int, ...] = (100,)
    trials: int = 1
    master_seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if type(self.trials) is not int or self.trials < 1:
            raise ConfigError(f"trials={self.trials!r} must be a positive integer")
        try:
            n_list = tuple(int(n) for n in self.n_list)
        except (TypeError, ValueError, OverflowError):
            n_list = ()
        if not n_list or n_list != tuple(self.n_list) or any(n < 1 for n in n_list):
            raise ConfigError(f"n_list={self.n_list!r} must be nonempty positive dimensions")
        object.__setattr__(self, "n_list", n_list)
        if type(self.master_seed) is not int or not 0 <= self.master_seed < _MAX_SEED:
            raise ConfigError(f"master_seed={self.master_seed!r} must be a 64-bit integer")
        if not isinstance(self.dist, EntryDistribution):
            raise ConfigError("dist must be an EntryDistribution")

    def param(self, key: str, default=None):
        return self.params.get(key, default)

    def require(self, key: str):
        if key not in self.params:
            raise ConfigError(f"experiment {self.experiment} requires params.{key}")
        return self.params[key]


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary: dict
    runtime_seconds: float


# -------------------------------------------------------------- config files


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_config(text: str) -> ExperimentConfig:
    """Flat key=value config text; keys match ExperimentConfig fields, with
    experiment-specific entries spelled params.<name>. A later line for the
    same key wins over an earlier one."""
    fields: dict = {}
    params: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("params."):
            params[key[len("params.") :]] = _parse_scalar(value)
        elif key in ("experiment", "dist", "n_list", "trials", "master_seed"):
            fields[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if "experiment" not in fields:
        raise ConfigError("missing required key: experiment")
    try:
        kwargs = {"experiment": fields["experiment"], "params": params}
        if "dist" in fields:
            kwargs["dist"] = parse_dist_spec(fields["dist"])
        if "trials" in fields:
            kwargs["trials"] = int(fields["trials"])
        if "master_seed" in fields:
            kwargs["master_seed"] = int(fields["master_seed"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if "n_list" in fields:
        try:
            kwargs["n_list"] = tuple(int(part) for part in fields["n_list"].split(",") if part.strip())
        except ValueError as exc:
            raise ConfigError(f"bad dimension list {fields['n_list']!r}") from exc
    return ExperimentConfig(**kwargs)


# ------------------------------------------------------------------ summaries

_QUANTS = (("p05", 0.05), ("p25", 0.25), ("p50", 0.50), ("p75", 0.75), ("p95", 0.95))


def _quantiles(values) -> dict:
    arr = np.asarray(values, dtype=float)
    out = {name: float(np.quantile(arr, q)) for name, q in _QUANTS}
    out["mean"] = float(arr.mean())
    return out


def _freq(count: int, total: int) -> dict:
    lo, hi = clopper_pearson(count, total)
    return {"count": int(count), "freq": count / total, "ci95": [lo, hi]}


def _per_n(config, rows, entry) -> dict:
    """One summary entry per dimension: entry(n, the rows with n in column 1)."""
    return {str(n): entry(n, [r for r in rows if r[1] == n]) for n in config.n_list}


def _linfit(ts, qs) -> dict:
    t = np.asarray(ts, dtype=float)
    y = np.asarray(qs, dtype=float)
    tbar, ybar = t.mean(), y.mean()
    stt = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (y - ybar)) / stt)
    intercept = float(ybar - slope * tbar)
    resid = y - (slope * t + intercept)
    sst = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - float(np.sum(resid**2)) / sst
    return {"slope": slope, "intercept": intercept, "r_squared": r2}


# ---------------------------------------------------------------- experiments


def _spike_vector(n: int, spikes: int) -> np.ndarray:
    if not 1 <= spikes <= n:
        raise ConfigError(f"spike count {spikes} outside 1..{n}")
    x = np.zeros(n)
    x[:spikes] = 1.0 / math.sqrt(spikes)
    return x


def _tasks_matrix(config: ExperimentConfig):
    return [(i, n) for i, n in enumerate(n for n in config.n_list for _ in range(config.trials))]


def _tasks_trials(config: ExperimentConfig):
    return [(i,) for i in range(config.trials)]


def _run_e1(config, payload):
    idx, n = payload
    seed = derive_substream_seed(config.master_seed, idx)
    summ = spectral_summary(sample_matrix(config.dist, n, seed))
    return [
        (
            idx,
            n,
            config.dist.spec_string(),
            seed,
            summ.sigma_min,
            summ.op_norm,
            int(summ.singular_flag),
            0,
        )
    ]


def _summary_e1(config, rows):
    eps = float(config.param("eps", constants.SIGMA_TAIL_EPS))
    coeff = float(config.param("coeff", constants.SIGMA_TAIL_COEFF))

    def entry(n, sub):
        sigmas = np.array([r[4] for r in sub])
        thr = eps * coeff * n**-1.5
        return {
            "tail_threshold": thr,
            "tail": _freq(int(np.count_nonzero(sigmas < thr)), len(sub)),
            "singular_count": int(sum(r[6] for r in sub)),
            "sigma_sqrt_n": _quantiles(sigmas * math.sqrt(n)),
            "sigma_n32_p05": float(np.quantile(sigmas * n**1.5, 0.05)),
        }

    return {"eps": eps, "coeff": coeff, "per_n": _per_n(config, rows, entry)}


def _run_e2(config, payload):
    idx, n = payload
    seed = derive_substream_seed(config.master_seed, idx)
    coeff = float(config.param("coeff", constants.OP_NORM_COEFF))
    rep = operator_norm(sample_matrix(config.dist, n, seed))
    exceed = int(rep.value > coeff * math.sqrt(n))
    return [(idx, n, config.dist.spec_string(), seed, rep.value, exceed, 0)]


def _norm_per_n(config, rows, coeff, flag_key, ratio_key) -> dict:
    """E2/E2b per-n entries: a norm in column 4 and its 0/1 flag against
    coeff * sqrt(n) in column 5."""

    def entry(n, sub):
        return {
            "threshold": coeff * math.sqrt(n),
            flag_key: _freq(int(sum(r[5] for r in sub)), len(sub)),
            ratio_key: _quantiles(np.array([r[4] for r in sub]) / math.sqrt(n)),
        }

    return _per_n(config, rows, entry)


def _summary_e2(config, rows):
    coeff = float(config.param("coeff", constants.OP_NORM_COEFF))
    per_n = _norm_per_n(config, rows, coeff, "exceed", "op_norm_over_sqrt_n")
    return {"coeff": coeff, "per_n": per_n}


def _run_e2b(config, payload):
    idx, n = payload
    seed = derive_substream_seed(config.master_seed, idx)
    spikes = int(config.param("spikes", 2))
    coeff = float(config.param("coeff", constants.PEAKED_NORM_COEFF))
    A = sample_matrix(config.dist, n, seed)
    ax = float(np.linalg.norm(A.entries @ _spike_vector(n, spikes)))
    small = int(ax <= coeff * math.sqrt(n))
    return [(idx, n, config.dist.spec_string(), seed, ax, small, 0)]


def _summary_e2b(config, rows):
    coeff = float(config.param("coeff", constants.PEAKED_NORM_COEFF))
    per_n = _norm_per_n(config, rows, coeff, "small", "ax_over_sqrt_n")
    return {"coeff": coeff, "spikes": int(config.param("spikes", 2)), "per_n": per_n}


def _e3_settings(config):
    delta = float(config.require("delta"))
    q = float(config.require("q"))
    reg = calibration.REG_PARAMS
    params = PartitionParams(r=float(config.param("r", reg.r)), R=float(config.param("R", reg.R)))
    lo, hi = calibration.REG_BAND
    band = (float(config.param("band_lo", lo)), float(config.param("band_hi", hi)))
    return delta, q, params, band


def _tasks_e3(config):
    if len(config.n_list) != 1:
        raise ConfigError("E3 uses a single dimension in n_list")
    for key in ("mc_samples", "t_steps", "max_tries"):
        if key in config.params and int(config.params[key]) < 1:
            raise ConfigError(f"params.{key}={config.params[key]!r} must be at least 1")
    return _tasks_trials(config)


def _run_e3(config, payload):
    idx = payload[0]
    n = config.n_list[0]
    delta, q, params, band = _e3_settings(config)
    t_steps = int(config.param("t_steps", 8))
    mc = int(config.param("mc_samples", 200_000))
    max_tries = int(config.param("max_tries", calibration.REG_MAX_TRIES))
    rng = derive_stream(config.master_seed, idx)
    x, cls = calibration.sample_regular_vector(
        rng, delta, q, n=n, params=params, band=band, max_tries=max_tries
    )
    sums = np.concatenate(list(sample_sums(config.dist, x, mc, rng)))
    seed = derive_substream_seed(config.master_seed, idx)
    ts = [mult * delta for mult in range(1, t_steps + 1)]
    q_hats = empirical_sup_concentration(sums, ts).tolist()
    return [
        (idx, n, config.dist.spec_string(), seed, t, q_hat, cls.min_ssq, cls.threshold, 0)
        for t, q_hat in zip(ts, q_hats)
    ]


def _summary_e3(config, rows):
    delta, q, _, _ = _e3_settings(config)
    c_fit = constants.FITTED["regular_smallball"]
    per_vector = {}
    ratios = []
    for idx in sorted({r[0] for r in rows}):
        sub = sorted((r for r in rows if r[0] == idx), key=lambda r: r[4])
        ts = [r[4] for r in sub]
        qs = [r[5] for r in sub]
        fit = _linfit(ts, qs)
        vec_ratios = [qh / (c_fit * q * t) for t, qh in zip(ts, qs)]
        ratios.extend(vec_ratios)
        fit["max_ratio_vs_bound"] = max(vec_ratios)
        per_vector[str(idx)] = fit
    return {
        "delta": delta,
        "q": q,
        "constant": c_fit,
        "per_vector": per_vector,
        "min_slope": min(v["slope"] for v in per_vector.values()),
        "min_r_squared": min(v["r_squared"] for v in per_vector.values()),
        "max_ratio_vs_bound": max(ratios),
        "all_under_bound": bool(max(ratios) <= 1.0),
    }


def _e4_sizes(config):
    l = int(config.param("l", config.n_list[0]))
    k = int(config.param("k", l))
    return l, k


def _run_e4(config, payload):
    idx = payload[0]
    l, k = _e4_sizes(config)
    seed = derive_substream_seed(config.master_seed, idx)
    instance = sample_allocation(l, k, derive_stream(config.master_seed, idx))
    min_ssq, _ = min_half_subset_ssq(instance.occupancy, math.ceil(l / 2))
    stat = min_ssq * k / l**2
    return [(idx, l, k, seed, min_ssq, stat, 0)]


def _summary_e4(config, rows):
    l, k = _e4_sizes(config)
    stats = np.array([r[5] for r in rows])
    exceed = int(np.count_nonzero(stats >= constants.ALLOCATION_C_HALF))
    qs = _quantiles(stats)
    qs["p90"] = float(np.quantile(stats, 0.90))
    qs["p99"] = float(np.quantile(stats, 0.99))
    qs["max"] = float(stats.max())
    return {
        "l": l,
        "k": k,
        "stat": qs,
        "reference_c_half": constants.ALLOCATION_C_HALF,
        "exceed_reference": _freq(exceed, len(rows)),
    }


def _e5_settings(config):
    params = PartitionParams(
        r=float(config.param("r", constants.DEFAULT_R_LOWER)),
        R=float(config.param("R", constants.DEFAULT_R_UPPER)),
    )
    return float(config.require("delta")), float(config.require("q")), params


def _run_e5(config, payload):
    idx, n = payload
    delta, q, params = _e5_settings(config)
    rng = derive_stream(config.master_seed, idx)
    seed = derive_substream_seed(config.master_seed, idx)
    # census over uniform sphere directions, independent of config.dist
    while True:
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
        if norm > 0:
            break
    x = g / norm
    sphere_class, _ = classify_sphere(x, params)
    if sphere_class == "V_P":
        verdict, min_ssq = "peaked", float("nan")
    else:
        cls = classify_profile(x, params, delta, q)
        verdict, min_ssq = cls.verdict, cls.min_ssq
    return [(idx, n, config.dist.spec_string(), seed, sphere_class, verdict, min_ssq, 0)]


def _summary_e5(config, rows):
    delta, q, params = _e5_settings(config)

    def entry(n, sub):
        verdicts = [r[5] for r in sub]
        return {name: _freq(verdicts.count(name), len(sub)) for name in ("peaked", "regular", "singular")}

    per_n = _per_n(config, rows, entry)
    return {"delta": delta, "q": q, "r": params.r, "R": params.R, "per_n": per_n}


def _tasks_e6(config):
    """One task per validation query. The corpora fix their own sizes and
    laws, so n_list and dist are not read, and each query runs once."""
    if config.trials != 1:
        raise ConfigError(f"trials={config.trials!r} must be 1: E6 runs each corpus query once")
    per_bound = int(config.param("per_bound", 50))
    if per_bound < 1:
        raise ConfigError(f"params.per_bound={config.params['per_bound']!r} must be at least 1")
    queries = []
    for bound in calibration.DOMINATION_BOUNDS:
        queries.extend(calibration.build_corpus(bound, config.master_seed, per_bound))
    return list(enumerate(queries))


def _run_e6(config, payload):
    idx, query = payload
    res = calibration.evaluate_query(query)
    c = constants.FITTED[query.bound]
    dominated = int(res.exact <= c * res.bound_value * (1.0 + 1e-12))
    return [
        (
            idx,
            query.bound,
            query.dist.spec_string(),
            query.x.size,
            res.exact,
            res.bound_value,
            res.ratio,
            dominated,
            0,
        )
    ]


def _summary_e6(config, rows):
    per_bound = {}
    for bound in calibration.DOMINATION_BOUNDS:
        sub = [r for r in rows if r[1] == bound]
        per_bound[bound] = {
            "constant": constants.FITTED[bound],
            "frozen_raw": constants.FITTED_RAW[bound],
            "count": len(sub),
            "dominated": _freq(int(sum(r[7] for r in sub)), len(sub)),
            "max_ratio": max(r[6] for r in sub),
        }
    return {
        "margin": constants.CALIBRATION_MARGIN,
        "per_bound": per_bound,
        "all_dominated": all(
            v["dominated"]["count"] == v["count"] for v in per_bound.values()
        ),
    }


@dataclass(frozen=True)
class _Experiment:
    """One experiment family; the module docstring gives the contract."""

    columns: tuple[str, ...]
    params: tuple[str, ...]
    tasks: Callable[[ExperimentConfig], list]
    run: Callable[[ExperimentConfig, tuple], list]
    summarize: Callable[[ExperimentConfig, tuple], dict]
    # the tasks, payloads (trial, n), spend their time in
    # matrices.spectral_summary, outside the GIL
    gil_free: bool = False


_RUNNERS = {
    "E1_sigma_min_tail": _Experiment(
        columns=("trial", "n", "dist", "seed", "sigma_min", "op_norm", "singular_flag", "elapsed_ms"),
        params=("eps", "coeff"),
        tasks=_tasks_matrix, run=_run_e1, summarize=_summary_e1, gil_free=True,
    ),
    "E2_op_norm": _Experiment(
        columns=("trial", "n", "dist", "seed", "op_norm", "exceed_flag", "elapsed_ms"),
        params=("coeff",),
        tasks=_tasks_matrix, run=_run_e2, summarize=_summary_e2, gil_free=True,
    ),
    "E2b_peaked": _Experiment(
        columns=("trial", "n", "dist", "seed", "ax_norm", "small_flag", "elapsed_ms"),
        params=("spikes", "coeff"),
        tasks=_tasks_matrix, run=_run_e2b, summarize=_summary_e2b,
    ),
    "E3_regular_smallball": _Experiment(
        columns=("trial", "n", "dist", "seed", "t", "q_hat", "min_ssq", "threshold", "elapsed_ms"),
        params=("delta", "q", "r", "R", "band_lo", "band_hi", "t_steps", "mc_samples", "max_tries"),
        tasks=_tasks_e3, run=_run_e3, summarize=_summary_e3,
    ),
    "E4_allocation": _Experiment(
        columns=("trial", "l", "k", "seed", "min_ssq", "stat", "elapsed_ms"),
        params=("l", "k"),
        tasks=_tasks_trials, run=_run_e4, summarize=_summary_e4,
    ),
    "E5_profile_census": _Experiment(
        columns=("trial", "n", "dist", "seed", "sphere_class", "verdict", "min_ssq", "elapsed_ms"),
        params=("delta", "q", "r", "R"),
        tasks=_tasks_matrix, run=_run_e5, summarize=_summary_e5,
    ),
    "E6_bound_calibration": _Experiment(
        columns=("trial", "bound", "dist", "m", "exact", "bound_value", "ratio", "dominated", "elapsed_ms"),
        params=("per_bound",),
        tasks=_tasks_e6, run=_run_e6, summarize=_summary_e6,
    ),
}


def _trial(spec: _Experiment, config: ExperimentConfig, payload: tuple) -> list:
    try:
        return spec.run(config, payload)
    except RegimeError as exc:
        raise RegimeError(f"trial {payload[0]}: {exc}") from exc


def _map_trials(spec: _Experiment, config: ExperimentConfig, tasks: list):
    """Each task's rows, in task order."""
    one = functools.partial(_trial, spec, config)
    threads = min(usable_cores(), len(tasks)) if spec.gil_free else 1
    if threads < 2 or not matrices.svd_releases_gil():
        return map(one, tasks)
    # the largest matrices first, so that the threads finish together on the
    # smallest ones instead of one thread idling through the last large one
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i][1])
    # one BLAS thread per pool thread (rmlab.matrices gives the timings); a
    # task holds its one matrix only while it runs, a thread one copy buffer
    with matrices.one_blas_thread() as init, ThreadPoolExecutor(threads, initializer=init) as pool:
        futures = {i: pool.submit(one, tasks[i]) for i in order}
        # collected in task order, so an error names the first failing trial
        return [futures[i].result() for i in range(len(tasks))]


def run(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Execute every trial of the config and assemble rows plus summary.

    Raises ConfigError for a params key the experiment does not read.

    Rows are concatenated in the order tasks(config) lists the trials. E1's
    and E2's trials run on one thread per usable core, largest matrices
    first, when rmlab.matrices has its GIL-free LAPACK call, other trials
    serially on the calling thread. A trial error names the first failing
    trial in task order. workers must be a positive integer; it is accepted
    for compatibility and does not change how trials run.
    """
    if type(workers) is not int or workers < 1:
        raise ConfigError(f"workers={workers!r} must be a positive integer")
    spec = _RUNNERS[config.experiment]
    unknown = sorted(set(config.params) - set(spec.params))
    if unknown:
        raise ConfigError(
            f"experiment {config.experiment} has no params {', '.join(unknown)}; "
            f"it reads {', '.join(spec.params)}"
        )
    tasks = spec.tasks(config)
    start = time.perf_counter()
    rows = tuple(row for part in _map_trials(spec, config, tasks) for row in part)
    runtime = time.perf_counter() - start
    summary = {"experiment": config.experiment, **spec.summarize(config, rows)}
    summary["runtime_seconds"] = runtime
    return ExperimentResult(
        config=config, columns=spec.columns, rows=rows, summary=summary, runtime_seconds=runtime
    )


def recompute_summary(result: ExperimentResult) -> dict:
    """Summary rebuilt from (config, rows) alone; equals result.summary up to
    the runtime_seconds entry."""
    summarize = _RUNNERS[result.config.experiment].summarize
    return {"experiment": result.config.experiment, **summarize(result.config, result.rows)}


# -------------------------------------------------------------------- emit


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def config_echo(config: ExperimentConfig) -> dict:
    return {
        "experiment": config.experiment,
        "dist": config.dist.spec_string(),
        "n_list": list(config.n_list),
        "trials": config.trials,
        "master_seed": config.master_seed,
        "params": {k: config.params[k] for k in sorted(config.params)},
    }


def _config_line(config: ExperimentConfig) -> str:
    parts = [
        f"experiment={config.experiment}",
        f"dist={config.dist.spec_string()}",
        "n_list=" + ",".join(str(n) for n in config.n_list),
        f"trials={config.trials}",
        f"master_seed={config.master_seed}",
    ]
    parts += [f"params.{k}={_format_cell(config.params[k])}" for k in sorted(config.params)]
    return " ".join(parts)


def emit(result: ExperimentResult, format: str = "csv", path: str | None = None) -> str:
    """Serialize a result; returns the text and writes it to path if given.

    CSV carries the per-trial rows (deterministic bytes); JSON carries the
    summary. Both embed the config echo and artifact version.
    """
    if format == "csv":
        lines = [
            f"# artifact={constants.ARTIFACT_NAME}/{constants.ARTIFACT_VERSION}",
            f"# config {_config_line(result.config)}",
            ",".join(result.columns),
        ]
        lines += [",".join(_format_cell(v) for v in row) for row in result.rows]
        text = "\n".join(lines) + "\n"
    elif format == "json":
        text = (
            json.dumps(
                {
                    "artifact": {
                        "name": constants.ARTIFACT_NAME,
                        "version": constants.ARTIFACT_VERSION,
                    },
                    "config": config_echo(result.config),
                    "summary": result.summary,
                },
                sort_keys=True,
                indent=2,
                allow_nan=True,
            )
            + "\n"
        )
    else:
        raise ValueError(f"unknown format {format!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
    return text
