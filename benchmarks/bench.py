"""rmlab benchmark: four seeded workloads timed end to end, and a traced run
that splits the time across the library's layers.

    python3 benchmarks/bench.py --workload spectral --seed 1 --seconds 20 --trace 0
    python3 benchmarks/bench.py --workload all --seed 1 --seconds 20 --out base.json
    python3 benchmarks/bench.py --compare base.json new.json

One workload is a closed loop in this process: a pass runs the workload's
configs (or refit) once, and the next pass starts when it ends, until the
time is up. Set-up is timed in fresh interpreters. With ``--trace 1`` the
first half of the time runs untraced and the second half traced, and the
result line carries the per-layer metrics. Correctness checks run after the
timed passes; a failed check makes the result incorrect and the exit code 1.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. ``--out`` also writes the full result (env,
end-to-end and per-layer metrics, per-config walls, checks). ``--workload
all`` runs every workload untraced and traced in child processes and writes
one combined file, which ``--compare`` reads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

import metrics  # noqa: E402
from tracer import Tracer, aggregate, self_times  # noqa: E402

# Set-up is probed half before and half after the timed passes, so its
# median samples the machine over the same stretch as the passes do.
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 170


def _import_workloads():
    """Import the workloads module, which imports rmlab from this checkout."""
    if not (SRC / "rmlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no rmlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rmlab
    import workloads

    if SRC.resolve() not in Path(rmlab.__file__).resolve().parents:
        raise SystemExit(f"error: rmlab imported from {rmlab.__file__}, not {SRC}")
    return workloads


# ------------------------------------------------------------------- set-up


def probe_setup(name: str, seed: int) -> float:
    """Import rmlab and build the workload's inputs; returns the seconds."""
    start = perf_counter()
    _import_workloads().build(name, seed)
    return perf_counter() - start


def measure_setup(name: str, seed: int, repeats: int) -> list[float]:
    """Set-up seconds of fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", name, "--seed", str(seed)]
    out = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# -------------------------------------------------------------------- env


def _blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, as found (never set)."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def env_block() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# ------------------------------------------------------------- measurement


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def tail(walls: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it; None when that would not exceed the median."""
    if len(walls) < 20:
        return None
    pct = 100.0 * (1.0 - 10.0 / len(walls))
    return pct, _percentile(walls, pct)


def run_passes(workload, tracer: Tracer, budget: float, trace: bool, fingerprint):
    """Closed loop: passes back to back while the next one is predicted to
    fit the budget. With trace, passes alternate untraced and traced (at
    least one of each), so drift during the run affects both alike.

    Returns the passes and the last pass's outputs; earlier outputs are
    dropped once fingerprinted, so memory does not grow with the pass count.
    """
    passes: list[dict] = []
    start = perf_counter()
    last = 0.0
    while len(passes) < 1 + trace or perf_counter() - start + last <= budget:
        tracer.timing = trace and len(passes) % 2 == 1
        tracer.begin(len(passes))
        walls: dict = {}
        t0 = perf_counter()
        outputs = workload.run_pass(walls)
        last = perf_counter() - t0
        counters = tracer.take_counters()
        passes.append(
            {"wall": last, "traced": tracer.timing, "walls": walls, "counters": counters, "digests": fingerprint(outputs)}
        )
    tracer.timing = False
    return passes, outputs


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = _import_workloads()
    workload = wl.build(name, seed)
    setup = measure_setup(name, seed, SETUP_REPEATS // 2)
    with Tracer() as tracer:
        wl.install(tracer)
        workload.warm_up()
        tracer.take_counters()
        passes, outputs = run_passes(workload, tracer, seconds, trace, wl.fingerprint)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setup += measure_setup(name, seed, SETUP_REPEATS - SETUP_REPEATS // 2)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    digests = [p["digests"] for p in passes]
    checks = wl.check_digests(digests, digests[0]) + workload.check(outputs)

    failed_trials = sum(workload.tasks[key] for d in digests for key, value in d.items() if value == wl.FAILED)
    nonconverged = sum(p["counters"].get("nonconverged", 0) for p in passes)
    failed_checks = sum(not c.ok for c in checks)
    attempted = workload.trials_per_pass * len(passes) + len(checks)
    failed = failed_trials + nonconverged + failed_checks

    walls = [p["wall"] for p in untraced]
    values = {
        "trials_per_s": workload.trials_per_pass * len(walls) / sum(walls),
        "setup_s": _median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    end_to_end = {name: {"value": values[name], "unit": unit} for name, unit, *_ in metrics.END_TO_END}
    tail_pct = tail(walls)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "reported": {
            "wall_s": {"value": _median(walls), "unit": "s"},
            "wall_s_tail": None if tail_pct is None else {"value": tail_pct[1], "unit": "s", "percentile": tail_pct[0]},
            "passes": {"value": len(walls), "unit": "count"},
            "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        },
        "samples": {"setup_s": setup, "pass_walls_s": walls},
        "configs": {
            key: _median([p["walls"][key] for p in untraced if key in p["walls"]])
            for key in sorted({key for p in untraced for key in p["walls"]})
        },
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
    }
    if trace:
        result["per_layer"] = per_layer(traced, untraced, result["configs"], tracer)
    return result


def per_layer(traced: list[dict], untraced: list[dict], configs: dict, tracer: Tracer) -> dict:
    spans = tracer.spans  # only traced passes record spans
    agg = aggregate(spans, len(traced))
    counters = traced[-1]["counters"]
    calls = counters.get("calls", {})

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    summary_ms = agg.get("matrices.spectral_summary", {"ms": [], "by_sub": {}})
    op_iters = counters.get("op_iters", [])
    sigma_iters = counters.get("sigma_iters", [])
    mc_drawn = counters.get("mc_drawn", 0)
    mc_distinct = len(counters.get("mc_keys", ()))
    exact_calls = calls.get("small_ball.exact_concentration", 0)
    spread_calls = calls.get("sphere_profile.sample_spread_direction", 0)
    entries = counters.get("sample_entries", 0)

    values = {
        "matrices.spectral_summary.calls": calls.get("matrices.spectral_summary", 0),
        "matrices.spectral_summary.self_s": self_s("matrices.spectral_summary"),
        "matrices.spectral_summary.p50_ms": _percentile(summary_ms["ms"], 50),
        "matrices.spectral_summary.p90_ms": _percentile(summary_ms["ms"], 90),
        **{
            f"matrices.spectral_summary.n{n}.p50_ms": _percentile(summary_ms["by_sub"].get(f"n{n}", []), 50)
            for n in (50, 100, 200, 400)
        },
        "matrices.operator_norm.self_s": self_s("matrices.operator_norm"),
        "matrices.op_norm_iters.p50": _percentile(op_iters, 50),
        "matrices.op_norm_iters.max": max(op_iters, default=0),
        "matrices.sigma_min_iters.p50": _percentile(sigma_iters, 50),
        "matrices.sigma_min_iters.max": max(sigma_iters, default=0),
        "matrices.nonconverged": counters.get("nonconverged", 0),
        "matrices.singular": counters.get("singular", 0),
        "matrices.gflop_computed": counters.get("gflop", 0.0),
        "matrices.sample_matrix.self_s": self_s("matrices.sample_matrix"),
        "distributions.sample.calls": calls.get("distributions.sample", 0),
        "distributions.sample.self_s": self_s("distributions.sample"),
        "distributions.sample.entries": entries,
        "distributions.sample.mb_computed": 8 * entries / 1e6,
        "calibration.fit_all.self_s": self_s("calibration.fit_all"),
        "calibration.evaluate_query.calls": calls.get("calibration.evaluate_query", 0),
        "calibration.evaluate_query.self_s": self_s("calibration.evaluate_query"),
        "calibration.mc_sets_drawn": mc_drawn,
        "calibration.mc_sets_distinct": mc_distinct,
        "calibration.mc_useful_ratio": mc_distinct / mc_drawn if mc_drawn else 0.0,
        "small_ball.empirical_sup_concentration.calls": calls.get("small_ball.empirical_sup_concentration", 0),
        "small_ball.empirical_sup_concentration.self_s": self_s("small_ball.empirical_sup_concentration"),
        "small_ball.exact_concentration.calls": exact_calls,
        "small_ball.exact_concentration.self_s": self_s("small_ball.exact_concentration"),
        "small_ball.exact_concentration.enumeration_share": (
            counters.get("enumerated", 0) / exact_calls if exact_calls else 0.0
        ),
        "small_ball.exact_concentration.atoms_max": counters.get("atoms_max", 0),
        "small_ball.exact_concentration.cells_max": counters.get("cells_max", 0),
        "small_ball.exact_concentration.error_radius_max": counters.get("radius_max", 0.0),
        "small_ball.esseen_bound.self_s": self_s("small_ball.esseen_bound"),
        "small_ball.esseen_bound.quad_err_max": counters.get("quad_err_max", 0.0),
        "small_ball.halasz_profile_bound.self_s": self_s("small_ball.halasz_profile_bound"),
        "small_ball.halasz_integral_bound.self_s": self_s("small_ball.halasz_integral_bound"),
        "small_ball.berry_esseen_bound.self_s": self_s("small_ball.berry_esseen_bound"),
        "sphere_profile.classify_profile.calls": calls.get("sphere_profile.classify_profile", 0),
        "sphere_profile.classify_profile.self_s": self_s("sphere_profile.classify_profile"),
        "sphere_profile.sample_spread_direction.calls": spread_calls,
        "sphere_profile.regular_accept_ratio": counters.get("accepted", 0) / spread_calls if spread_calls else 0.0,
        "sphere_profile.min_half_subset_ssq.self_s": self_s("sphere_profile.min_half_subset_ssq"),
        "sphere_profile.sample_allocation.self_s": self_s("sphere_profile.sample_allocation"),
        "nets.greedy_estimate.calls": calls.get("nets.greedy_estimate", 0),
        "nets.greedy_estimate.self_s": self_s("nets.greedy_estimate"),
        "experiments.run.self_s": self_s("experiments.run"),
        "experiments.emit.self_s": self_s("experiments.emit"),
        **{f"experiments.run.{key}.wall_s": configs.get(key, 0.0) for key in metrics.CONFIG_NAMES},
        "trace.overhead_frac": _median([p["wall"] for p in traced]) / _median([p["wall"] for p in untraced]) - 1.0,
        "trace.accounted_frac": _main_thread_self(spans) / sum(p["wall"] for p in traced),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in metrics.PER_LAYER}


def _main_thread_self(spans) -> float:
    main = threading.main_thread().ident
    own = self_times(spans)
    return sum(own[s.span_id] for s in spans if s.thread == main)


# ------------------------------------------------------------------ output


def result_line(result: dict) -> dict:
    chosen = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": chosen}


def print_table(result: dict) -> None:
    name = result["workload"]
    reported = result["reported"]
    for metric, entry in {**result["end_to_end"], "wall_s": reported["wall_s"]}.items():
        print(f"{name:14s} {metric:26s} {entry['value']:14.6g} {entry['unit']}")
    t = reported["wall_s_tail"]
    tail_text = "n/a (fewer than 20 passes)" if t is None else f"{t['value']:.6g} s at p{t['percentile']:.1f}"
    print(f"{name:14s} {'wall_s_tail':26s} {tail_text}; {reported['passes']['value']} passes")
    frac = reported["failed_frac"]["value"]
    print(f"{name:14s} {'failed_frac':26s} {frac:14.6g} ratio ({result['failed']}/{result['attempted']})")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"{name:14s} CHECK FAILED {check['name']}: {check['detail']}")


def compare(path_a: str, path_b: str) -> None:
    """Print every metric of two result files as B/A with both bases."""
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (path_a, path_b))
    print(f"# A = {path_a}\n# B = {path_b}")
    for name in metrics.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        for section in ("end_to_end", "reported", "per_layer"):
            for metric, entry in wa.get(section, {}).items():
                other = wb.get(section, {}).get(metric)
                if entry is None or other is None:
                    continue
                va, vb = entry["value"], other["value"]
                ratio = f"{vb / va:.4f}" if va else "n/a"
                print(f"{name:14s} {metric:50s} A={va:<12.6g} B={vb:<12.6g} B/A={ratio} {entry['unit']}")
    for label, doc in (("A", a), ("B", b)):
        scaling = pool_scaling(doc)
        text = "n/a" if scaling is None else f"{scaling[0]:.4f} ({scaling[1]:.6g} s / {scaling[2]:.6g} s)"
        print(f"pool scaling {label}: spectral_pool wall_s / spectral experiments.run.e1_gaussian.wall_s = {text}")


def pool_scaling(doc: dict):
    try:
        pool = doc["workloads"]["spectral_pool"]["reported"]["wall_s"]["value"]
        serial = doc["workloads"]["spectral"]["configs"]["e1_gaussian"]
    except KeyError:
        return None
    return pool / serial, pool, serial


def run_all(seed: int, seconds: float, out: Path) -> int:
    """Every workload untraced and traced, each in its own process."""
    out.parent.mkdir(parents=True, exist_ok=True)
    combined = {"env": None, "seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for name in metrics.WORKLOADS:
        merged = {}
        for trace in (0, 1):
            part = out.with_name(f"{out.stem}.{name}.trace{trace}.json")
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(seconds), "--trace", str(trace), "--out", str(part)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            if not part.is_file():
                continue
            doc = json.loads(part.read_text(encoding="utf-8"))
            part.unlink()
            combined["env"] = doc["env"]
            result = doc["workloads"][name]
            if trace:
                merged["per_layer"] = result["per_layer"]
                merged["checks_traced_run"] = result["checks"]
            else:
                merged.update(result)
        combined["workloads"][name] = merged
    out.write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    scaling = pool_scaling(combined)
    if scaling is not None:
        print(f"pool scaling: spectral_pool wall_s / spectral e1_gaussian run wall = {scaling[0]:.4f}")
    print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out or BENCH_DIR / "out" / f"all-seed{args.seed}.json")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env = env_block()
    print("env " + json.dumps(env, sort_keys=True))
    print_table(result)
    if args.out:
        doc = {"env": env, "seed": args.seed, "seconds": args.seconds, "workloads": {args.workload: result}}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
