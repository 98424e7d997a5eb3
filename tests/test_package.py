"""Every exported name, and every name the benchmark wraps, resolves.

A deletion that strands an entry of ``__all__`` or a target of
``benchmarks/workloads.py:WRAPS`` fails here rather than only when the
benchmark runs.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmlab
import rmlab.experiments

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def _wrap_targets() -> list[str]:
    """First field of each WRAPS entry, read from the source without importing it."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets
        ):
            return [ast.literal_eval(entry.elts[0]) for entry in node.value.elts]
    raise AssertionError(f"no WRAPS assignment in {WORKLOADS}")


@pytest.mark.parametrize("module", [rmlab, rmlab.experiments], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_benchmark_wrap_targets_resolve():
    targets = _wrap_targets()
    assert targets
    missing = []
    for target in targets:
        module_name, attr = target.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(target)
    assert not missing, f"WRAPS targets missing: {missing}"


_HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse")
_ESSEEN_AND_E6 = """
import numpy as np
from rmlab import constants
from rmlab.distributions import RADEMACHER
from rmlab.experiments import ExperimentConfig, run
from rmlab.small_ball import SmallBallQuery, esseen_bound
esseen_bound(SmallBallQuery(x=np.ones(3), dist=RADEMACHER, v=0.0, t=0.5))
run(ExperimentConfig(experiment="E6_bound_calibration", trials=1,
                     master_seed=constants.VALIDATION_SEED, params={"per_bound": 2}))
"""


@pytest.mark.parametrize("work", ["import rmlab", _ESSEEN_AND_E6], ids=["import", "esseen_and_e6"])
def test_import_leaves_scipy_integrate_unloaded(work):
    """Importing the package, and integrating: esseen_bound calls QUADPACK's
    compiled qagse by path, so neither loads scipy.integrate, nor the
    optimize and sparse packages that its __init__ imports."""
    src = str(Path(rmlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"{work}\nimport sys\nprint([m for m in {_HEAVY_SCIPY!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_src_raises_no_bare_value_error_and_asserts_nothing():
    """Input checks raise ConfigError or RegimeError, which the CLI maps to
    exits 2 and 3; a bare ValueError would exit 1 as a bug. An assert
    statement is stripped by python -O, so a check must raise instead."""
    paths = sorted(Path(rmlab.__file__).resolve().parent.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(f"{path.name}:{node.lineno}: raise ValueError")
    assert not found, found
