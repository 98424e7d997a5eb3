"""Config-driven experiment runner.

Seven experiment families assemble the library into verifiable statistical
claims: extreme singular-value tails (E1), operator-norm tails (E2), peaked
directions (E2b), the linear small-ball law on regular vectors (E3),
allocation concentration (E4), a sphere-partition census (E5), and bound
calibration audits (E6).

Every family has the same shape, one `_Experiment` entry in `_RUNNERS`:
its CSV columns; its params, each key with its type and default, the only
keys run() accepts; tasks(config), the list of task payloads in trial-index
order, each led by its trial index; run(config, payload), the rows of one
task; and summarize(config, rows), the JSON summary built from the rows
alone. These three get the config with its params complete and typed. E6
is one task, a calibration.fit_bounds call over its validation corpora,
with one row per corpus query.

Determinism contract: rows must be a pure function of (config, trial index).
Trial i draws from an RNG stream derived from (master_seed, i) by a fixed
64-bit mix. run() keeps rows in task order: E1's and E2's trials, which
spend their time in the GIL-free LAPACK call of rmlab.matrices, and E3's,
which spend theirs in numpy's GIL-free Monte Carlo draw, sort and window
scan, run on one thread per usable core (rmlab.rng.thread_map), started
largest matrix first; every other family, and E1/E2/E3 where that LAPACK
call is not available, runs its trials serially.
Re-emitting a result yields byte-identical CSV. Wall-clock runtime lives
only in the JSON summary and is excluded from that contract.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import calibration, constants, matrices
from .distributions import EntryDistribution, RADEMACHER, parse_dist_spec
from .distributions import sample
from .errors import ConfigError, RegimeError
from .matrices import operator_norm, sample_matrix, spectral_summary
from .rng import STREAM_ENTRIES, derive_stream, derive_substream_seed, thread_map
from .small_ball import clopper_pearson, empirical_sup_concentration, sample_sums
from .sphere_profile import (
    PartitionParams,
    _classify_spread,
    classify_sphere,
    min_half_subset_ssq,
    sample_allocation,
)
from .sphere_profile import classify_profile  # unused here; benchmarks/workloads.py wraps this name

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "PARAMS",
    "derive_stream",
    "emit",
    "parse_config",
    "run",
]

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


def _check_profile(config: ExperimentConfig) -> None:
    """ConfigError unless delta > 0 and q > 1."""
    p = config.params
    if not p["delta"] > 0.0:
        raise ConfigError(f"params.delta={p['delta']!r} must be positive")
    if not p["q"] > 1.0:
        raise ConfigError(f"params.q={p['q']!r} must be > 1")


def _tasks_matrix(config: ExperimentConfig):
    return [(i, n) for i, n in enumerate(n for n in config.n_list for _ in range(config.trials))]


def _tasks_e2b(config):
    spikes, n = config.params["spikes"], min(config.n_list)
    if spikes > n:
        raise ConfigError(f"params.spikes={spikes} must be at most the smallest n, {n}")
    return _tasks_matrix(config)


def _tasks_trials(config: ExperimentConfig):
    return [(i,) for i in range(config.trials)]


def _run_e1(config, payload):
    idx, n = payload
    seed = derive_substream_seed(config.master_seed, idx)
    summ = spectral_summary(sample_matrix(config.dist, n, seed))
    flag = int(summ.singular_flag)
    return [(idx, n, config.dist.spec_string(), seed, summ.sigma_min, summ.op_norm, flag)]


def _summary_e1(config, rows):
    eps = config.params["eps"]

    def entry(n, sub):
        sigmas = np.array([r[4] for r in sub])
        thr = eps * n**-1.5
        return {
            "tail_threshold": thr,
            "tail": _freq(int(np.count_nonzero(sigmas < thr)), len(sub)),
            "singular_count": int(sum(r[6] for r in sub)),
            "sigma_sqrt_n": _quantiles(sigmas * math.sqrt(n)),
            "sigma_n32_p05": float(np.quantile(sigmas * n**1.5, 0.05)),
        }

    return {"eps": eps, "per_n": _per_n(config, rows, entry)}


def _run_e2(config, payload):
    idx, n = payload
    seed = derive_substream_seed(config.master_seed, idx)
    rep = operator_norm(sample_matrix(config.dist, n, seed))
    exceed = int(rep.value > config.params["coeff"] * math.sqrt(n))
    return [(idx, n, config.dist.spec_string(), seed, rep.value, exceed)]


def _norm_per_n(config, rows, flag_key, ratio_key) -> dict:
    """E2/E2b per-n entries: a norm in column 4 and its 0/1 flag against
    params.coeff * sqrt(n) in column 5."""

    def entry(n, sub):
        return {
            "threshold": config.params["coeff"] * math.sqrt(n),
            flag_key: _freq(int(sum(r[5] for r in sub)), len(sub)),
            ratio_key: _quantiles(np.array([r[4] for r in sub]) / math.sqrt(n)),
        }

    return _per_n(config, rows, entry)


def _summary_e2(config, rows):
    per_n = _norm_per_n(config, rows, "exceed", "op_norm_over_sqrt_n")
    return {"coeff": config.params["coeff"], "per_n": per_n}


def _run_e2b(config, payload):
    """|Ax| for x = (1, ..., 1, 0, ..., 0)/sqrt(spikes): Ax reads only the
    first `spikes` columns of A, so only that n x spikes block is drawn.
    Fixed-order elementwise numpy (no BLAS) keeps the bytes independent of
    the BLAS kernel."""
    idx, n = payload
    seed = derive_substream_seed(config.master_seed, idx)
    spikes = config.params["spikes"]
    block = sample(config.dist, derive_stream(seed, STREAM_ENTRIES), size=(n, spikes))
    scale = 1.0 / math.sqrt(spikes)
    v = block[:, 0] * scale
    for j in range(1, spikes):
        v += block[:, j] * scale
    ax = math.sqrt(np.add.reduce(v * v))
    small = int(ax <= config.params["coeff"] * math.sqrt(n))
    return [(idx, n, config.dist.spec_string(), seed, ax, small)]


def _summary_e2b(config, rows):
    per_n = _norm_per_n(config, rows, "small", "ax_over_sqrt_n")
    return {"coeff": config.params["coeff"], "spikes": config.params["spikes"], "per_n": per_n}


def _tasks_e3(config):
    if len(config.n_list) != 1:
        raise ConfigError("E3 uses a single dimension in n_list")
    _check_profile(config)
    calibration.check_halasz_regime(config.n_list[0], config.params["delta"], "params.delta")
    return _tasks_matrix(config)


def _run_e3(config, payload):
    idx, n = payload
    p = config.params
    rng = derive_stream(config.master_seed, idx)
    x, cls = calibration.sample_regular_vector(rng, p["delta"], p["q"], n=n)
    sums = sample_sums(config.dist, x, calibration.REG_MC_SAMPLES, rng)
    seed = derive_substream_seed(config.master_seed, idx)
    # the windows delta .. 8 delta that FITTED["regular_smallball"] was fitted on
    ts = [mult * p["delta"] for mult in range(1, 9)]
    q_hats = empirical_sup_concentration(sums, ts, sort_in_place=True).tolist()
    return [
        (idx, n, config.dist.spec_string(), seed, t, q_hat, cls.min_ssq, cls.threshold)
        for t, q_hat in zip(ts, q_hats)
    ]


def _summary_e3(config, rows):
    delta, q = config.params["delta"], config.params["q"]
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


def _tasks_e4(config):
    if len(config.n_list) != 1:
        raise ConfigError("E4 uses a single dimension in n_list")
    l, k = config.params["l"], config.params["k"]
    if k > l:
        raise ConfigError(f"params.k={k} must be at most params.l={l}")
    return _tasks_trials(config)


def _run_e4(config, payload):
    idx = payload[0]
    l, k = config.params["l"], config.params["k"]
    seed = derive_substream_seed(config.master_seed, idx)
    occupancy = sample_allocation(l, k, derive_stream(config.master_seed, idx))
    min_ssq, _ = min_half_subset_ssq(occupancy, math.ceil(l / 2))
    stat = min_ssq * k / l**2
    return [(idx, l, k, seed, min_ssq, stat)]


def _summary_e4(config, rows):
    l, k = config.params["l"], config.params["k"]
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


def _tasks_e5(config):
    _check_profile(config)
    p = config.params
    if not 0.0 < p["r"] < 1.0:
        raise ConfigError(f"params.r={p['r']!r} must be in (0, 1)")
    if not p["R"] > 1.0:
        raise ConfigError(f"params.R={p['R']!r} must be > 1")
    return _tasks_matrix(config)


def _run_e5(config, payload):
    idx, n = payload
    p = config.params
    params = PartitionParams(r=p["r"], R=p["R"])
    rng = derive_stream(config.master_seed, idx)
    seed = derive_substream_seed(config.master_seed, idx)
    # census over uniform sphere directions, independent of config.dist
    while True:
        g = rng.standard_normal(n)
        norm = np.linalg.norm(g)
        if norm > 0:
            break
    x = g / norm
    sphere_class, sigma = classify_sphere(x, params)
    if sphere_class == "V_P":
        verdict, min_ssq = "peaked", float("nan")
    else:
        cls = _classify_spread(x, sigma, params, p["delta"], p["q"])
        verdict, min_ssq = cls.verdict, cls.min_ssq
    return [(idx, n, config.dist.spec_string(), seed, sphere_class, verdict, min_ssq)]


def _summary_e5(config, rows):
    def entry(n, sub):
        verdicts = [r[5] for r in sub]
        return {name: _freq(verdicts.count(name), len(sub)) for name in ("peaked", "regular", "singular")}

    p = config.params
    return {"delta": p["delta"], "q": p["q"], "r": p["r"], "R": p["R"], "per_n": _per_n(config, rows, entry)}


def _tasks_e6(config):
    """One task: the fit over the validation corpora. The corpora fix their
    own sizes and laws, so n_list and dist are not read."""
    if config.trials != 1:
        raise ConfigError(f"trials={config.trials!r} must be 1: E6 runs each corpus query once")
    return [(0,)]


def _run_e6(config, payload):
    """One row per validation query, in corpus order, from one fit_bounds
    call, whose table of exact values computes an (x, law, v, t) that the
    corpora repeat once; trial is the query's running index."""
    fits = calibration.fit_bounds(calibration.DOMINATION_BOUNDS, config.master_seed, config.params["per_bound"])
    results = (res for report in fits.values() for res in report.results)
    rows = []
    for idx, res in enumerate(results):
        query = res.query
        dominated = int(res.exact <= constants.FITTED[query.bound] * res.bound_value * (1.0 + 1e-12))
        rows.append((idx, query.bound, query.dist.spec_string(), query.x.size,
                     res.exact, res.bound_value, res.ratio, dominated))
    return rows


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
        if bound in constants.PROVEN:
            # how much tighter the fitted constant is than the proven one
            per_bound[bound]["fitted_over_proven"] = constants.FITTED[bound] / constants.PROVEN[bound]
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
    # key -> (int or float, default); a default of None makes the key
    # required, a callable derives it from (config, the params before it)
    params: dict[str, tuple[type, object]]
    tasks: Callable[[ExperimentConfig], list]
    run: Callable[[ExperimentConfig, tuple], list]
    summarize: Callable[[ExperimentConfig, tuple], dict]
    # the tasks, payloads (trial, n), spend their time outside the GIL: in
    # matrices.spectral_summary (E1/E2) or in the Monte Carlo draw, sort and
    # window scan (E3). E2b stays serial: its trials are short and Python
    # heavy, and on thread_map 400 of them (n = 100 and 200) took 28 ms
    # against 18 ms serially (2 vCPUs), the threads handing the GIL back and
    # forth
    gil_free: bool = False


_RUNNERS = {
    "E1_sigma_min_tail": _Experiment(
        columns=("trial", "n", "dist", "seed", "sigma_min", "op_norm", "singular_flag"),
        params={"eps": (float, constants.SIGMA_TAIL_EPS)},
        tasks=_tasks_matrix, run=_run_e1, summarize=_summary_e1, gil_free=True,
    ),
    "E2_op_norm": _Experiment(
        columns=("trial", "n", "dist", "seed", "op_norm", "exceed_flag"),
        params={"coeff": (float, constants.OP_NORM_COEFF)},
        tasks=_tasks_matrix, run=_run_e2, summarize=_summary_e2, gil_free=True,
    ),
    "E2b_peaked": _Experiment(
        columns=("trial", "n", "dist", "seed", "ax_norm", "small_flag"),
        params={"spikes": (int, 2), "coeff": (float, constants.PEAKED_NORM_COEFF)},
        tasks=_tasks_e2b, run=_run_e2b, summarize=_summary_e2b,
    ),
    "E3_regular_smallball": _Experiment(
        columns=("trial", "n", "dist", "seed", "t", "q_hat", "min_ssq", "threshold"),
        params={"delta": (float, None), "q": (float, None)},
        tasks=_tasks_e3, run=_run_e3, summarize=_summary_e3, gil_free=True,
    ),
    "E4_allocation": _Experiment(
        columns=("trial", "l", "k", "seed", "min_ssq", "stat"),
        params={"l": (int, lambda config, p: config.n_list[0]), "k": (int, lambda config, p: p["l"])},
        tasks=_tasks_e4, run=_run_e4, summarize=_summary_e4,
    ),
    "E5_profile_census": _Experiment(
        columns=("trial", "n", "dist", "seed", "sphere_class", "verdict", "min_ssq"),
        params={"delta": (float, None), "q": (float, None),
                "r": (float, constants.DEFAULT_R_LOWER), "R": (float, constants.DEFAULT_R_UPPER)},
        tasks=_tasks_e5, run=_run_e5, summarize=_summary_e5,
    ),
    "E6_bound_calibration": _Experiment(
        columns=("trial", "bound", "dist", "m", "exact", "bound_value", "ratio", "dominated"),
        params={"per_bound": (int, 50)},
        tasks=_tasks_e6, run=_run_e6, summarize=_summary_e6,
    ),
}

EXPERIMENTS = tuple(_RUNNERS)
PARAMS = {name: spec.params for name, spec in _RUNNERS.items()}


def _typed(key: str, kind: type, value):
    """value as kind: an int param is a positive integer, a float param finite."""
    try:
        out = kind(value)
        fits = out == value and (out >= 1 if kind is int else math.isfinite(out))
    except (TypeError, ValueError, OverflowError):
        fits = False
    if not fits or isinstance(value, bool):
        what = "a positive integer" if kind is int else "a finite number"
        raise ConfigError(f"params.{key}={value!r} must be {what}")
    return out


def _resolve(config: ExperimentConfig) -> ExperimentConfig:
    """config with every param of its experiment present and typed.

    Raises ConfigError for a params key the experiment does not read, a
    missing key that has no default, and a value of the wrong type."""
    spec = _RUNNERS[config.experiment]
    if unknown := sorted(set(config.params) - set(spec.params)):
        extra, known = ", ".join(unknown), ", ".join(spec.params)
        raise ConfigError(f"experiment {config.experiment} has no params {extra}; it reads {known}")
    params = {}
    for key, (kind, default) in spec.params.items():
        if key in config.params:
            value = config.params[key]
        elif default is None:
            raise ConfigError(f"experiment {config.experiment} requires params.{key}")
        else:
            value = default(config, params) if callable(default) else default
        params[key] = _typed(key, kind, value)
    return replace(config, params=params)


def _trial(spec: _Experiment, config: ExperimentConfig, payload: tuple) -> list:
    try:
        return spec.run(config, payload)
    except RegimeError as exc:
        raise RegimeError(f"trial {payload[0]}: {exc}") from exc


def _map_trials(spec: _Experiment, config: ExperimentConfig, tasks: list):
    """Each task's rows, in task order."""
    one = functools.partial(_trial, spec, config)
    if not spec.gil_free or not matrices.svd_releases_gil():
        return map(one, tasks)
    # the largest matrices first, so that the threads finish together on the
    # smallest ones instead of one thread idling through the last large one
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i][1])
    # one BLAS thread while the pool runs (rmlab.matrices gives the timings);
    # OpenBLAS's count is process-wide, so the pool threads need no setup,
    # and a task holds its one matrix only while it runs
    return thread_map(one, tasks, order, matrices.one_blas_thread)


def run(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Execute every trial of the config and assemble rows plus summary.

    Raises ConfigError for a params key the experiment does not read, a
    missing required one, or a value that is not of its type (an int param
    is a positive integer, a float param finite).

    Rows are concatenated in the order tasks(config) lists the trials. E1's,
    E2's and E3's trials run on one thread per usable core, largest matrices
    first, when rmlab.matrices has its GIL-free LAPACK call, other trials
    serially on the calling thread. A trial error names the first failing
    trial in task order. workers must be a positive integer; it is accepted
    for compatibility and does not change how trials run.
    """
    if type(workers) is not int or workers < 1:
        raise ConfigError(f"workers={workers!r} must be a positive integer")
    spec = _RUNNERS[config.experiment]
    resolved = _resolve(config)
    tasks = spec.tasks(resolved)
    start = time.perf_counter()
    rows = tuple(row for part in _map_trials(spec, resolved, tasks) for row in part)
    runtime = time.perf_counter() - start
    summary = {"experiment": config.experiment, **spec.summarize(resolved, rows)}
    summary["runtime_seconds"] = runtime
    return ExperimentResult(
        config=config, columns=spec.columns, rows=rows, summary=summary, runtime_seconds=runtime
    )


def recompute_summary(result: ExperimentResult) -> dict:
    """Summary rebuilt from (config, rows) alone; equals result.summary up to
    the runtime_seconds entry."""
    summarize = _RUNNERS[result.config.experiment].summarize
    return {"experiment": result.config.experiment, **summarize(_resolve(result.config), result.rows)}


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
        out = io.StringIO()
        out.write(f"# artifact={constants.ARTIFACT_NAME}/{constants.ARTIFACT_VERSION}\n")
        out.write(f"# config {_config_line(result.config)}\n")
        # minimal quoting: only a cell holding a comma, quote or line break,
        # such as a discrete law's spec, is quoted
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(result.columns)
        writer.writerows([_format_cell(v) for v in row] for row in result.rows)
        text = out.getvalue()
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
        raise ConfigError(f"unknown format {format!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
    return text
