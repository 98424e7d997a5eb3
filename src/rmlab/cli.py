"""Command-line entry points.

`rmlab run --config <file>` executes any experiment config; shortcuts
(sigma-min, op-norm, peaked, allocation) cover the common ones. The
profile / small-ball / nets commands expose the corresponding library
calls with JSON output.

Exit codes: 0 success, 1 any other error (a bug), with traceback, 2 config
error, 3 regime violation, 4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import constants
from .distributions import parse_dist_spec
from .errors import ConfigError, RegimeError
from .experiments import PARAMS, ExperimentConfig, emit, parse_config, run
from .nets import (
    SINGULAR_GRID,
    VOLUMETRIC,
    VP_ENTROPY,
    singular_grid_net,
    volumetric_bound,
    vp_entropy_bound,
)
from .rng import derive_stream
from .small_ball import (
    SmallBallQuery,
    berry_esseen_bound,
    esseen_bound,
    exact_concentration,
    halasz_integral_bound,
    halasz_profile_bound,
    monte_carlo_concentration,
)
from .sphere_profile import PartitionParams, classify_profile


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None


def _read_vector(path: str) -> np.ndarray:
    text = _read_text(path)
    try:
        values = [float(line) for line in text.split("\n") if line.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad coordinate in {path}: {exc}") from None
    if not values:
        raise ConfigError(f"no coordinates in {path}")
    return np.array(values)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, default=float))


def _config(pairs, text: str = "") -> ExperimentConfig:
    """parse_config over text followed by one key=value line per pair, so a
    flag wins over the same key in the config file."""
    lines = [text]
    for key, value in pairs:
        line = f"{key}={value}"
        if line.splitlines() != [line]:  # a line break would smuggle in another key
            raise ConfigError(f"{key} value {value!r} contains a line break")
        lines.append(line)
    return parse_config("\n".join(lines))


def _run_and_emit(config: ExperimentConfig, args) -> int:
    result = run(config, workers=args.workers)
    if args.out:
        emit(result, args.format, args.out)
        print(f"{config.experiment}: {len(result.rows)} rows -> {args.out}")
    else:
        sys.stdout.write(emit(result, args.format))
    return 0


def _cmd_run(args) -> int:
    flags = (
        ("experiment", args.experiment),
        ("dist", args.dist),
        ("n_list", args.n),
        ("trials", args.trials),
        ("master_seed", args.seed),
    )
    pairs = [(key, value) for key, value in flags if value not in (None, "")]
    for item in args.param or []:
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs.append((f"params.{key.strip()}", value))
    text = _read_text(args.config) if args.config else ""
    return _run_and_emit(_config(pairs, text), args)


def _cmd_shortcut(args) -> int:
    """`run` with the experiment fixed by the subcommand; allocation has no
    --dist, E4 reads none, and no --n, its one dimension is --l."""
    if args.experiment == "E4_allocation":
        pairs = [("n_list", args.l)]
    else:
        pairs = [("dist", args.dist), ("n_list", args.n)]
    pairs += [("experiment", args.experiment), ("trials", args.trials), ("master_seed", args.seed)]
    pairs += [(f"params.{key}", getattr(args, key)) for key in PARAMS[args.experiment]]
    return _run_and_emit(_config(pairs), args)


def _cmd_profile(args) -> int:
    x = _read_vector(args.x)
    params = PartitionParams(r=args.r, R=args.R)
    cls = classify_profile(x, params, args.delta, args.q)
    _print_json(cls.to_json_dict())
    return 0


def _cmd_small_ball(args) -> int:
    x = _read_vector(args.x)
    dist = parse_dist_spec(args.dist)
    method = args.method
    if method == "halasz_profile":
        if args.delta is None:
            raise ConfigError("halasz_profile needs --delta")
        est = halasz_profile_bound(x, args.delta)
    elif method == "halasz_integral":
        if args.delta is None or args.a is None:
            raise ConfigError("halasz_integral needs --delta and --a")
        est = halasz_integral_bound(x, dist, args.delta, args.a)
    else:
        q = SmallBallQuery(x=x, dist=dist, v=args.v, t=args.t)
        if method == "monte_carlo":
            est = monte_carlo_concentration(q, args.trials, derive_stream(args.seed, 0))
        elif method == "esseen":
            est = esseen_bound(q)
        elif method == "berry_esseen":
            est = berry_esseen_bound(q)
        else:
            est = exact_concentration(q, path="auto" if method == "exact" else method)
    _print_json(
        {
            "value": est.value,
            "method": est.method,
            "ci": list(est.ci) if est.ci is not None else None,
            "metadata": est.metadata,
        }
    )
    return 0


def _cmd_nets(args) -> int:
    if args.check == "volumetric":
        payload = {
            "log_count": volumetric_bound(args.n, args.K, args.D, args.t),
            "kind": VOLUMETRIC,
            "params": {"n": args.n, "K": args.K, "D": args.D, "t": args.t},
        }
    elif args.check == "vp":
        payload = {
            "log_count": vp_entropy_bound(args.n, args.r, args.R),
            "kind": VP_ENTROPY,
            "params": {"n": args.n, "r": args.r, "R": args.R},
        }
    else:
        if args.j:
            try:
                j_set = tuple(int(part) for part in args.j.split(",") if part.strip())
            except ValueError:
                raise ConfigError(f"--j {args.j!r} must be comma-separated integers") from None
        elif args.l is not None:
            j_set = tuple(range(args.l))
        else:
            raise ConfigError("grid check needs --j or --l")
        if args.delta is None:
            raise ConfigError("grid check needs --delta")
        net = singular_grid_net(args.n, args.delta, args.r, args.R, j_set)
        payload = {
            "log_count": net.log_cardinality,
            "kind": SINGULAR_GRID,
            "params": {
                "n": args.n,
                "delta": args.delta,
                "r": args.r,
                "R": args.R,
                "j_set": list(net.j_set),
                "k0": net.k0,
                "k": net.k,
            },
            "centers": [float(c) for c in net.centers],
        }
    _print_json(payload)
    return 0


def _add_output_flags(p) -> None:
    p.add_argument("--out", help="output file path (stdout when omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility and ignored; E1/E2 use one thread per usable core",
    )


# command, experiment, help, default --n (None: the one dimension is --l),
# default trials, default dist (None: no --dist, E4 reads none); each param's
# flag has its experiments.PARAMS type and default, but allocation's --l/--k,
# derived there, default to 1000
_SHORTCUTS = (
    ("sigma-min", "E1_sigma_min_tail", "smallest singular value tail (E1)", "200", 200, "rademacher"),
    ("op-norm", "E2_op_norm", "operator norm tail (E2)", "200", 500, "gaussian"),
    ("peaked", "E2b_peaked", "peaked-direction image norm (E2b)", "100", 2000, "rademacher"),
    ("allocation", "E4_allocation", "balls-in-urns concentration (E4)", None, 1000, None),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmlab",
        description="Random-matrix and small-ball probability laboratory",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"{constants.ARTIFACT_NAME} {constants.ARTIFACT_VERSION}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--experiment")
    p.add_argument("--dist")
    p.add_argument("--n", help="comma-separated dimensions")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_run)

    for command, experiment, text, n, trials, dist in _SHORTCUTS:
        p = sub.add_parser(command, help=text)
        if n is not None:
            p.add_argument("--n", default=n)
        p.add_argument("--trials", type=int, default=trials)
        if dist is not None:
            p.add_argument("--dist", default=dist)
        p.add_argument("--seed", type=int, default=0)
        for key, (kind, default) in PARAMS[experiment].items():
            p.add_argument(f"--{key}", type=kind, default=1000 if callable(default) else default)
        _add_output_flags(p)
        p.set_defaults(func=_cmd_shortcut, experiment=experiment)

    p = sub.add_parser("profile", help="classify a unit vector's delta-profile")
    p.add_argument("--x", required=True, help="file with one coordinate per line")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--r", type=float, default=constants.DEFAULT_R_LOWER)
    p.add_argument("--R", type=float, default=constants.DEFAULT_R_UPPER)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("small-ball", help="concentration estimates and bounds")
    p.add_argument("--x", required=True, help="file with one coordinate per line")
    p.add_argument("--dist", required=True)
    p.add_argument("--v", type=float, default=0.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument(
        "--method",
        default="exact",
        choices=(
            "exact",
            "enumerate",
            "convolve",
            "monte_carlo",
            "esseen",
            "berry_esseen",
            "halasz_profile",
            "halasz_integral",
        ),
    )
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float)
    p.add_argument("--a", type=float)
    p.set_defaults(func=_cmd_small_ball)

    p = sub.add_parser("nets", help="covering formulas and constructions")
    p.add_argument("--check", required=True, choices=("volumetric", "vp", "grid"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", default="euclidean_ball", choices=("euclidean_ball", "cube"))
    p.add_argument("--D", default="euclidean_ball", choices=("euclidean_ball", "cube"))
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--r", type=float, default=constants.DEFAULT_R_LOWER)
    p.add_argument("--R", type=float, default=constants.DEFAULT_R_UPPER)
    p.add_argument("--delta", type=float)
    p.add_argument("--j", help="comma-separated coordinate indices")
    p.add_argument("--l", type=int, help="use the first L coordinates as the index set")
    p.set_defaults(func=_cmd_nets)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
