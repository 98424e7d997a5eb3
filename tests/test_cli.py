import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import product_concentration
from rmlab import cli, constants
from rmlab.cli import _build_parser, main

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
    assert lines[2] == "trial,n,dist,seed,op_norm,exceed_flag"
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


def test_e6_trials_exits_2(capsys):
    args = ["run", "--experiment", "E6_bound_calibration", "--param", "per_bound=1"]
    assert main(args + ["--trials", "3"]) == 2
    assert "trials=3" in capsys.readouterr().err


def test_regime_violation_exits_3(capsys):
    code = main([
        "nets", "--check", "grid", "--n", "25", "--delta", "0.01",
        "--r", "0.9", "--R", "1.3", "--l", "6",
    ])
    assert code == 3
    assert "regime violation" in capsys.readouterr().err


# coordinate files for the bad-input cases, written to the working directory
VECTORS = {
    "x.txt": b"0.6\n0.8\n",
    "abc.txt": b"0.6\nabc\n",
    "ones3.txt": b"1\n1\n1\n",
    "long.txt": b"0.2\n" * 64,
    "latin1.txt": b"0.6\n\xe9\n",
    "nan.txt": b"0.6\nnan\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        "small-ball --x abc.txt --dist rademacher --t 0.1",
        "small-ball --x latin1.txt --dist rademacher --t 0.1",
        "small-ball --x x.txt --dist rademacher --t -1",
        "small-ball --x x.txt --dist discrete:1:abc --t 0.1",
        "small-ball --x x.txt --dist rademacher --t 0.1 --method monte_carlo --trials 50",
        "small-ball --x ones3.txt --dist rademacher --t 0.1 --method halasz_integral --delta -0.01 --a 0.5",
        "small-ball --x ones3.txt --dist rademacher --t 0.1 --method halasz_integral --delta 0 --a 0.5",
        "profile --x long.txt --delta 0.004 --q 4.0 --r 0.9 --R 1.3",
        "nets --check volumetric --n 0",
        "nets --check grid --n 0 --delta 0.1 --l 2 --r 0.5 --R 2",
        "nets --check grid --n -4 --delta 0.1 --l 2 --r 0.5 --R 2",
        "nets --check vp --n 0 --r 0.7 --R 40",
        "nets --check grid --n 25 --delta 0.05 --r 0.9 --R 1.3 --j 1,a",
    ],
)
def test_bad_input_is_a_config_error(argv, tmp_path, capsys, monkeypatch):
    """Inputs that a catch-all ValueError branch once sent to exit 2 raise
    ConfigError where they are checked."""
    monkeypatch.chdir(tmp_path)
    for name, data in VECTORS.items():
        (tmp_path / name).write_bytes(data)
    assert main(argv.split()) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        ("nets --check vp --n 10 --r 0.25 --R nan", "R=nan"),
        ("nets --check vp --n 10 --r 0.25 --R inf", "R=inf"),
        ("nets --check vp --n 10 --r nan", "r=nan"),
        ("nets --check grid --n 25 --delta nan --l 6 --r 0.9 --R 1.3", "delta=nan"),
        ("profile --x x.txt --delta 0.01 --q 4 --r 0.5 --R inf", "R=inf"),
        ("profile --x x.txt --delta 0.01 --q inf", "Q=inf"),
        ("profile --x x.txt --delta nan --q 4", "delta=nan must be"),
        ("profile --x x.txt --delta inf --q 4", "delta=inf must be"),
        ("small-ball --x ones3.txt --dist rademacher --t 0.1 --method halasz_profile --delta nan", "delta=nan"),
        ("small-ball --x nan.txt --dist rademacher --t 0.1 --method halasz_profile --delta 0.01", "x must be finite"),
        ("small-ball --x x.txt --dist rademacher --t 0.1 --method halasz_integral --delta 0.01 --a inf", "a=inf"),
        ("nets --check volumetric --n 2 --t inf", "t=inf"),
    ],
)
def test_non_finite_input_is_a_config_error(argv, named, tmp_path, capsys, monkeypatch):
    """A nan or inf is rejected by name before any hypothesis check runs,
    instead of giving a nan or inf answer, a regime violation or a traceback."""
    monkeypatch.chdir(tmp_path)
    for name, data in VECTORS.items():
        (tmp_path / name).write_bytes(data)
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err


def test_a_plain_value_error_is_a_bug_with_exit_1(monkeypatch, capsys):
    """Only ConfigError, RegimeError and OSError have exit codes of their own;
    a numpy error or a library bug propagates and exits 1 with its traceback."""
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast")

    monkeypatch.setattr(cli, "run", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["sigma-min", "--n", "4", "--trials", "1"])
    assert capsys.readouterr().err == ""

    code = (
        "import sys\n"
        "from rmlab import cli\n"
        "def broken(*args, **kwargs):\n"
        "    raise ValueError('operands could not be broadcast')\n"
        "cli.run = broken\n"
        "sys.exit(cli.main(['sigma-min', '--n', '4', '--trials', '1']))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 1
    assert out.stderr.startswith("Traceback")
    assert out.stderr.rstrip().endswith("ValueError: operands could not be broadcast")
    assert "config error" not in out.stderr


def test_unwritable_output_exits_4(tmp_path, capsys):
    out = tmp_path / "no_dir" / "x.csv"
    assert main(E4_ARGS + ["--out", str(out)]) == 4
    assert "io error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, trials, config, header",
    [
        (
            "sigma-min", 200,
            "experiment=E1_sigma_min_tail dist=rademacher n_list=200 trials=2 master_seed=0 params.eps=0.1",
            "trial,n,dist,seed,sigma_min,op_norm,singular_flag",
        ),
        (
            "op-norm", 500,
            "experiment=E2_op_norm dist=gaussian n_list=200 trials=2 master_seed=0 params.coeff=2.5",
            "trial,n,dist,seed,op_norm,exceed_flag",
        ),
        (
            "peaked", 2000,
            "experiment=E2b_peaked dist=rademacher n_list=100 trials=2 master_seed=0"
            " params.coeff=0.3 params.spikes=2",
            "trial,n,dist,seed,ax_norm,small_flag",
        ),
        (
            "allocation", 1000,
            "experiment=E4_allocation dist=rademacher n_list=1000 trials=2 master_seed=0"
            " params.k=1000 params.l=1000",
            "trial,l,k,seed,min_ssq,stat",
        ),
    ],
)
def test_shortcut_defaults(command, trials, config, header, capsys):
    assert _build_parser().parse_args([command]).trials == trials
    assert main([command, "--trials", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"# config {config}"
    assert lines[2] == header
    assert len(lines) == 5


def test_run_rejects_a_truncated_param(capsys):
    code = main(["run", "--experiment", "E2b_peaked", "--n", "8", "--trials", "1", "--param", "spikes=2.7"])
    assert code == 2
    assert "params.spikes" in capsys.readouterr().err


def test_sigma_min_has_no_coeff_flag(capsys):
    # E1's event is sigma_min < eps * n^(-3/2): eps is its one threshold flag
    with pytest.raises(SystemExit) as exc:
        main(["sigma-min", "--coeff", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --coeff 2" in capsys.readouterr().err


def test_allocation_has_no_dist_flag(capsys):
    # E4 throws balls into urns and never draws from an entry law
    with pytest.raises(SystemExit) as exc:
        main(["allocation", "--dist", "gaussian"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dist gaussian" in capsys.readouterr().err


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


def test_small_ball_exact_on_a_generic_vector(tmp_path, capsys):
    # logs of distinct primes: no signed sum of them vanishes, so every sign
    # pattern is its own atom
    x = [(-1) ** j * math.log(p) for j, p in enumerate((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))]
    vec = tmp_path / "x.txt"
    vec.write_text("".join(f"{w!r}\n" for w in x), encoding="utf-8")
    code = main([
        "small-ball", "--x", str(vec), "--dist", "rademacher", "--v", "0.2", "--t", "0.5",
        "--method", "exact",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "exact"
    meta = payload["metadata"]
    assert (meta["path"], meta["atoms"]) == ("enumeration", 2**12)
    expected = product_concentration([-1.0, 1.0], [0.5, 0.5], np.array(x), 0.2, 0.5)
    assert payload["value"] > 0.0
    assert payload["value"] == pytest.approx(expected, abs=1e-12)
    # the split enumeration's interval: no sum lies near an edge here
    lo, hi = payload["ci"]
    assert meta["error_radius"] == 0.0
    assert lo <= expected <= hi and hi - lo <= 4.0 * meta["mass_error"] + 1e-15


def test_small_ball_monte_carlo(tmp_path, capsys):
    vec = tmp_path / "x.txt"
    vec.write_text("0.5\n-1.25\n0.75\n1.0\n0.3\n", encoding="utf-8")
    args = [
        "small-ball", "--x", str(vec), "--dist", "rademacher", "--t", "0.6",
        "--method", "monte_carlo", "--trials", "5000", "--seed", "17",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["method"] == "monte_carlo"
    assert payload["metadata"]["trials"] == 5000
    assert payload["value"] == payload["metadata"]["count"] / 5000
    lo, hi = payload["ci"]
    assert lo <= payload["value"] <= hi
    assert main(args) == 0
    assert capsys.readouterr().out == out
    assert main(args[:-1] + ["18"]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["count"] != payload["metadata"]["count"]


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


@pytest.mark.parametrize(
    "r, R, code",
    [("1.5", "40", 2), ("-0.1", "40", 2), ("0.25", "1.0", 2), ("0.7", "40", 3)],
)
def test_nets_vp_checks_the_partition_domain_before_r_below_half(r, R, code, capsys):
    """An r or R outside 0 < r < 1 < R is a config error (exit 2); r in
    [1/2, 1) is a regime violation of the bound's hypothesis (exit 3)."""
    assert main(["nets", "--check", "vp", "--n", "10", "--r", r, "--R", R]) == code
    err = capsys.readouterr().err
    assert ("config error" in err) == (code == 2)


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
