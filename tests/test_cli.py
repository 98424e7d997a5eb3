import json
import math

import pytest

from rmlab import constants
from rmlab.cli import main

E4_ARGS = [
    "run", "--experiment", "E4_allocation", "--trials", "2", "--seed", "8",
    "--param", "l=10", "--param", "k=1",
]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert constants.ARTIFACT_NAME in out
    assert constants.ARTIFACT_VERSION in out


def test_run_emits_csv_to_stdout(capsys):
    code = main(["run", "--experiment", "E2_op_norm", "--n", "8", "--trials", "2", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == f"# artifact={constants.ARTIFACT_NAME}/{constants.ARTIFACT_VERSION}"
    assert lines[2] == "trial,n,dist,seed,op_norm,exceed_flag,elapsed_ms"
    assert len(lines) == 5


def test_run_emits_json_summary(capsys):
    code = main(E4_ARGS + ["--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["experiment"] == "E4_allocation"
    assert payload["summary"]["stat"]["max"] == pytest.approx(0.25)


def test_run_writes_output_file(tmp_path, capsys):
    out = tmp_path / "alloc.csv"
    code = main(E4_ARGS + ["--out", str(out)])
    assert code == 0
    assert "2 rows" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").startswith("# artifact=")


def test_run_with_config_file_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "experiment = E2b_peaked\nn_list = 8\ntrials = 4\nmaster_seed = 2\n",
        encoding="utf-8",
    )
    code = main(["run", "--config", str(cfg), "--trials", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # overridden to a single trial
    assert "trials=1" in lines[1]


def test_run_requires_experiment_or_config(capsys):
    assert main(["run"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_experiment_exits_2(capsys):
    assert main(["run", "--experiment", "E9_wat"]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_dist_exits_2(capsys):
    assert main(["run", "--experiment", "E2_op_norm", "--dist", "cauchy"]) == 2


def test_bad_param_syntax_exits_2(capsys):
    assert main(["run", "--experiment", "E4_allocation", "--param", "l10"]) == 2


def test_unknown_param_exits_2(capsys):
    argv = ["run", "--experiment", "E2_op_norm", "--n", "8", "--param", "coef=0.1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "coef" in err


def test_flag_with_line_break_exits_2(capsys):
    # each flag becomes one config line; a line break would add a line of its own
    assert main(["run", "--experiment", "E2_op_norm", "--dist", "gaussian\ntrials=5"]) == 2
    assert main(["run", "--experiment", "E4_allocation", "--param", "l=10\rk=1"]) == 2
    assert main(["op-norm", "--dist", "gaussian\nn_list=4", "--trials", "1"]) == 2
    assert capsys.readouterr().err.count("contains a line break") == 3


def test_zero_workers_exits_2(capsys):
    assert main(E4_ARGS + ["--workers", "0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_regime_violation_exits_3(capsys):
    code = main([
        "nets", "--check", "grid", "--n", "25", "--delta", "0.01",
        "--r", "0.9", "--R", "1.3", "--l", "6",
    ])
    assert code == 3
    assert "regime violation" in capsys.readouterr().err


def test_unwritable_output_exits_4(tmp_path, capsys):
    out = tmp_path / "no_dir" / "x.csv"
    assert main(E4_ARGS + ["--out", str(out)]) == 4
    assert "io error" in capsys.readouterr().err


def test_sigma_min_shortcut(capsys):
    code = main(["sigma-min", "--n", "8", "--trials", "2", "--seed", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("trial,n,dist,seed,sigma_min")
    assert "params.eps=0.1" in lines[1]


def test_peaked_shortcut(capsys):
    code = main(["peaked", "--n", "8", "--trials", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["spikes"] == 2


def test_allocation_shortcut(capsys):
    code = main(["allocation", "--l", "10", "--k", "1", "--trials", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["stat"]["p99"] == pytest.approx(0.25)


def test_profile_command(tmp_path, capsys):
    vec = tmp_path / "x.txt"
    vec.write_text("\n".join(["0.125"] * 64) + "\n", encoding="utf-8")
    code = main([
        "profile", "--x", str(vec), "--delta", "0.004", "--q", "4.0",
        "--r", "0.9", "--R", "1.3",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "singular"
    assert payload["min_ssq"] == 64
    assert payload["sphere_class"] == "V_S"


def test_profile_at_a_bin_rounding_edge(tmp_path, capsys):
    # n=225, delta=0.001: r/(2 sqrt(n)) / delta rounds across 30
    vec = tmp_path / "x.txt"
    vec.write_text("\n".join([repr(1.0 / 15.0)] * 225) + "\n", encoding="utf-8")
    code = main([
        "profile", "--x", str(vec), "--delta", "0.001", "--q", "4",
        "--r", "0.9", "--R", "1.3",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k0"] == 30 and payload["sphere_class"] == "V_S"


def test_profile_peaked_vector_exits_3(tmp_path, capsys):
    vec = tmp_path / "spike.txt"
    vec.write_text("1.0\n" + "\n".join(["0.0"] * 63) + "\n", encoding="utf-8")
    code = main([
        "profile", "--x", str(vec), "--delta", "0.004", "--q", "4.0",
        "--r", "0.9", "--R", "1.3",
    ])
    assert code == 3


def test_small_ball_exact(tmp_path, capsys):
    vec = tmp_path / "x.txt"
    w = 1.0 / math.sqrt(2.0)
    vec.write_text(f"{w!r}\n{w!r}\n", encoding="utf-8")
    code = main([
        "small-ball", "--x", str(vec), "--dist", "rademacher", "--t", "0.1",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.5)
    assert payload["method"] == "exact"


def test_small_ball_halasz_needs_delta(tmp_path, capsys):
    vec = tmp_path / "x.txt"
    vec.write_text("1.0\n1.0\n", encoding="utf-8")
    code = main([
        "small-ball", "--x", str(vec), "--dist", "rademacher", "--t", "0.1",
        "--method", "halasz_profile",
    ])
    assert code == 2


def test_small_ball_empty_vector_exits_2(tmp_path, capsys):
    vec = tmp_path / "x.txt"
    vec.write_text("\n", encoding="utf-8")
    code = main([
        "small-ball", "--x", str(vec), "--dist", "rademacher", "--t", "0.1",
    ])
    assert code == 2


def test_nets_volumetric(capsys):
    code = main(["nets", "--check", "volumetric", "--n", "2", "--t", "0.5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["log_count"] == pytest.approx(math.log(36.0))
    assert payload["kind"] == "volumetric_formula"
    assert payload["params"] == {"n": 2, "K": "euclidean_ball", "D": "euclidean_ball", "t": 0.5}
    assert set(payload) == {"log_count", "kind", "params"}


def test_nets_vp(capsys):
    code = main(["nets", "--check", "vp", "--n", "100", "--r", "0.25", "--R", "10"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["log_count"] == pytest.approx(10.0 * math.log(120.0))
    assert payload["kind"] == "vp_entropy_formula"
    assert payload["params"] == {"n": 100, "r": 0.25, "R": 10.0}


def test_nets_grid(capsys):
    code = main([
        "nets", "--check", "grid", "--n", "25", "--delta", "0.05",
        "--r", "0.9", "--R", "1.3", "--l", "6",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["log_count"] == pytest.approx(6.0 * math.log(8.0))
    assert payload["kind"] == "singular_grid_formula"
    assert payload["params"] == {
        "n": 25, "delta": 0.05, "r": 0.9, "R": 1.3, "j_set": [0, 1, 2, 3, 4, 5], "k0": 1, "k": 4,
    }
    assert payload["centers"] == pytest.approx([0.075, 0.125, 0.175, 0.225, 0.275])


def test_nets_grid_needs_index_set(capsys):
    assert main(["nets", "--check", "grid", "--n", "25", "--delta", "0.05"]) == 2


def test_nets_grid_needs_delta(capsys):
    assert main(["nets", "--check", "grid", "--n", "25", "--l", "6"]) == 2
    assert "--delta" in capsys.readouterr().err
