"""Tests of the benchmark itself: python3 -m pytest benchmarks -q"""
import json
import shutil
import subprocess
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
import metrics  # noqa: E402
from tracer import Tracer, aggregate, self_times  # noqa: E402

wl = bench._import_workloads()
ROOT = BENCH_DIR.parent


def test_benchmark_json_repeats_the_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert tuple(w["name"] for w in spec["workloads"]) == metrics.WORKLOADS
    assert [tuple(m.values()) for m in spec["end_to_end"]] == [tuple(m) for m in metrics.END_TO_END]
    assert [tuple(m.values()) for m in spec["per_layer"]] == [tuple(m[:3]) for m in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_minimal_pass_emits_every_metric_with_its_unit(workload, tmp_path):
    out = tmp_path / "result.json"
    cmd = [sys.executable, str(BENCH_DIR / "bench.py"), "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "0", "--trace", "1", "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m[0]: m[1] for m in metrics.PER_LAYER}

    result = json.loads(out.read_text(encoding="utf-8"))["workloads"][workload]
    untraced_line = bench.result_line({**result, "trace": 0})
    assert {k: v["unit"] for k, v in untraced_line["metrics"].items()} == {m[0]: m[1] for m in metrics.END_TO_END}
    assert all(v["value"] > 0 for v in untraced_line["metrics"].values())
    assert result["reported"]["wall_s"]["value"] > 0
    for name in ("env ", "wall_s ", "trials_per_s ", "setup_s ", "peak_rss_mb ", "failed_frac "):
        assert name in proc.stdout


def test_tampered_digest_fails_the_check():
    per_pass = [{"e1": "abc"}, {"e1": "abc"}]
    assert all(c.ok for c in wl.check_digests(per_pass, {"e1": "abc"}))
    assert not any(c.ok for c in wl.check_digests(per_pass, {"e1": "abd"}))
    assert not any(c.ok for c in wl.check_digests([{"e1": "abc"}, {"e1": "abd"}], {"e1": "abc"}))


def test_svdvals_check_catches_a_tampered_value_or_tolerance():
    cfg = wl.ExperimentConfig("E1_sigma_min_tail", wl.GAUSSIAN, (20, 40), 2, 7)
    rows = wl.spectral_rows(wl.experiments.run(cfg))
    assert wl.check_svdvals(rows) == []

    dist, n, seed, sigma, op_norm, singular = rows[0]
    nudged = [(dist, n, seed, sigma * (1 + 1e-4), op_norm, singular)] + rows[1:]
    assert len(wl.check_svdvals(nudged)) == 1
    flagged = [(dist, n, seed, 0.0, op_norm, True)] + rows[1:]
    assert len(wl.check_svdvals(flagged)) == 1
    assert wl.check_svdvals(rows, rtol=0.0)


def test_pool_spans_are_attributed_per_thread():
    layer = types.ModuleType("bench_fake_layer")

    def inner(x):
        time.sleep(0.0005)
        return x

    def outer(x):
        return sum(layer.inner(x) for _ in range(3))

    layer.inner, layer.outer = inner, outer
    sys.modules[layer.__name__] = layer
    calls = 400
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with Tracer() as tracer:
            tracer.wrap("bench_fake_layer.inner", "fake.inner")
            tracer.wrap("bench_fake_layer.outer", "fake.outer")
            tracer.timing = True
            tracer.begin(0)
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(layer.outer, range(calls)))
            counters = tracer.take_counters()
    finally:
        sys.setswitchinterval(interval)
        del sys.modules[layer.__name__]
    assert layer.outer is outer and layer.inner is inner
    assert results == [3 * x for x in range(calls)]
    assert counters["calls"] == {"fake.outer": calls, "fake.inner": 3 * calls}

    spans = tracer.spans
    by_id = {s.span_id: s for s in spans}
    assert len(by_id) == len(spans) == 4 * calls
    for s in spans:
        if s.name == "fake.inner":
            parent = by_id[s.parent_id]
            assert parent.name == "fake.outer" and parent.thread == s.thread
            assert parent.start <= s.start and s.end <= parent.end
        else:
            assert s.parent_id is None
    own = self_times(spans)
    assert min(own.values()) >= 0.0
    agg = aggregate(spans, 1)
    total = sum(s.duration for s in spans if s.name == "fake.outer")
    assert agg["fake.outer"]["self_s"] + agg["fake.inner"]["self_s"] == pytest.approx(total)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "benchmarks").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "benchmarks")
    cmd = [sys.executable, "benchmarks/bench.py", "--workload", "spectral", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_prints_ratios_and_pool_scaling(tmp_path, capsys):
    def doc(wall, pool_wall):
        return {
            "workloads": {
                "spectral": {"reported": {"wall_s": {"value": wall, "unit": "s"}}, "configs": {"e1_gaussian": wall / 4}},
                "spectral_pool": {"reported": {"wall_s": {"value": pool_wall, "unit": "s"}}, "configs": {}},
            }
        }

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc(2.0, 0.6)))
    b.write_text(json.dumps(doc(1.0, 0.6)))
    bench.compare(str(a), str(b))
    out = capsys.readouterr().out
    assert "A=2" in out and "B=1" in out and "B/A=0.5000" in out
    assert "pool scaling A: spectral_pool wall_s / spectral experiments.run.e1_gaussian.wall_s = 1.2000" in out
    assert "pool scaling B" in out and "= 2.4000" in out


def test_tracer_restores_on_error():
    layer = types.ModuleType("bench_fake_layer2")
    layer.f = lambda: 1 / 0
    original = layer.f
    sys.modules[layer.__name__] = layer
    try:
        with pytest.raises(ZeroDivisionError):
            with Tracer() as tracer:
                tracer.wrap("bench_fake_layer2.f", "fake.f")
                tracer.timing = True
                layer.f()
        assert layer.f is original
    finally:
        del sys.modules[layer.__name__]
