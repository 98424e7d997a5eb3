import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmlab.cli import main
from rmlab.errors import RegimeError
from rmlab.nets import (
    GREEDY,
    SINGULAR_GRID,
    VOLUMETRIC,
    CoveringEstimate,
    greedy_estimate,
    greedy_net,
    log_volume,
    occupied_fraction,
    singular_grid_net,
    volumetric_bound,
    vp_entropy_bound,
)
from rmlab.rng import derive_stream

BALL = "euclidean_ball"
CUBE = "cube"


# ------------------------------------------------------------------- volumes


def test_log_volume_closed_forms():
    assert log_volume(CUBE, 3) == pytest.approx(math.log(8.0))
    assert log_volume(BALL, 2) == pytest.approx(math.log(math.pi))
    assert log_volume(BALL, 3) == pytest.approx(math.log(4.0 * math.pi / 3.0))
    assert log_volume(BALL, 2, scale=0.5) == pytest.approx(math.log(math.pi / 4.0))
    with pytest.raises(ValueError):
        log_volume("simplex", 2)


def test_volumetric_bound_frozen_values():
    assert volumetric_bound(2, BALL, BALL, 0.5) == pytest.approx(math.log(36.0))
    assert volumetric_bound(7, BALL, BALL, 1.0) == pytest.approx(7.0 * math.log(3.0))
    assert volumetric_bound(1, BALL, BALL, 1.0 / 3.0) == pytest.approx(math.log(9.0))
    assert volumetric_bound(3, CUBE, CUBE, 0.5) == pytest.approx(3.0 * math.log(6.0))
    # ball inside the cube: inradius 1
    assert volumetric_bound(2, CUBE, BALL, 1.0) == pytest.approx(
        math.log(36.0 / math.pi)
    )


def test_volumetric_bound_containment_gate():
    # cube of half-side t fits in the unit ball only while t sqrt(n) <= 1
    assert volumetric_bound(4, BALL, CUBE, 0.5) > 0
    with pytest.raises(RegimeError):
        volumetric_bound(4, BALL, CUBE, 0.6)
    with pytest.raises(RegimeError):
        volumetric_bound(3, BALL, BALL, 1.2)
    with pytest.raises(ValueError):
        volumetric_bound(3, BALL, BALL, 0.0)
    with pytest.raises(ValueError):
        volumetric_bound(0, BALL, BALL, 0.5)
    with pytest.raises(ValueError):
        volumetric_bound(3, "simplex", BALL, 0.5)


@given(
    n=st.integers(min_value=1, max_value=12),
    t1=st.floats(min_value=0.05, max_value=1.0),
    t2=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_volumetric_bound_monotone_in_t(n, t1, t2):
    lo, hi = sorted((t1, t2))
    assert volumetric_bound(n, BALL, BALL, lo) >= volumetric_bound(n, BALL, BALL, hi)


def test_volumetric_estimate_wraps_bound(capsys):
    # `rmlab nets --check volumetric` reports volumetric_bound as it stands
    assert main(["nets", "--check", "volumetric", "--n", "2", "--t", "0.5"]) == 0
    est = json.loads(capsys.readouterr().out)
    assert est["kind"] == VOLUMETRIC
    assert est["log_count"] == volumetric_bound(2, BALL, BALL, 0.5)
    assert est["log_count"] == pytest.approx(math.log(36.0))
    assert est["params"] == {"n": 2, "K": BALL, "D": BALL, "t": 0.5}
    assert "realization" not in est


# ------------------------------------------------------------------- entropy


def test_vp_entropy_frozen_value():
    assert vp_entropy_bound(100, 0.25, 10.0) == pytest.approx(10.0 * math.log(120.0))


def test_vp_entropy_validation():
    with pytest.raises(RegimeError):
        vp_entropy_bound(10, 0.5, 2.0)
    with pytest.raises(ValueError):
        vp_entropy_bound(10, -0.1, 2.0)
    with pytest.raises(ValueError):
        vp_entropy_bound(10, 0.25, 1.0)
    with pytest.raises(ValueError):
        vp_entropy_bound(0, 0.25, 2.0)


def test_covering_estimate_validation():
    with pytest.raises(ValueError):
        CoveringEstimate(log_count=1.0, kind="magic")
    with pytest.raises(ValueError):
        CoveringEstimate(log_count=-0.5, kind=VOLUMETRIC)


# ----------------------------------------------------------------- grid nets


GRID_ARGS = dict(n=25, delta=0.05, r=0.9, R=1.3, j_set=tuple(range(6)))


def test_singular_grid_net_frozen_instance():
    net = singular_grid_net(**GRID_ARGS)
    assert (net.k0, net.k, net.l) == (1, 4, 6)
    assert np.allclose(net.centers, [0.075, 0.125, 0.175, 0.225, 0.275])
    assert net.log_cardinality == pytest.approx(6.0 * math.log(8.0))
    # per-coordinate count: 2k signed centers
    assert math.exp(net.log_cardinality / net.l) == pytest.approx(8.0)


def test_singular_grid_net_regime_gates():
    bad = dict(GRID_ARGS)
    bad["delta"] = 0.01  # below (2 R^3 / r^2) n^(-3/2)
    with pytest.raises(RegimeError):
        singular_grid_net(**bad)
    bad["delta"] = 0.3  # above n^(-1/2)
    with pytest.raises(RegimeError):
        singular_grid_net(**bad)
    small = dict(GRID_ARGS)
    small["j_set"] = (0, 1, 2, 3, 4)  # below m = 6
    with pytest.raises(RegimeError):
        singular_grid_net(**small)
    dup = dict(GRID_ARGS)
    dup["j_set"] = (0, 0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        singular_grid_net(**dup)
    oob = dict(GRID_ARGS)
    oob["j_set"] = (0, 1, 2, 3, 4, 25)
    with pytest.raises(ValueError):
        singular_grid_net(**oob)


def test_grid_snap_and_cells():
    net = singular_grid_net(**GRID_ARGS)
    y = np.full(25, 0.13)
    snapped = net.snap(y)
    assert np.allclose(snapped[:6], 0.125)
    assert np.allclose(snapped[6:], 0.13)  # untouched outside j_set
    y_neg = -y
    assert np.allclose(net.snap(y_neg)[:6], -0.125)
    assert net.cell_index(y) != net.cell_index(y_neg)
    # snapping moves annulus coordinates by at most delta/2
    rng = derive_stream(41, 0)
    z = np.zeros(25)
    z[:6] = rng.uniform(0.9 / 10.0, 1.3 / 5.0, size=6) * rng.choice([-1.0, 1.0], size=6)
    err = np.abs(net.snap(z)[:6] - z[:6])
    assert np.all(err <= 0.05 / 2.0 + 1e-12)


def test_occupied_fraction_counts_cells():
    net = singular_grid_net(**GRID_ARGS)
    a = np.full(25, 0.13)
    b = np.full(25, 0.131)  # same cells as a
    c = np.full(25, 0.18)
    frac = occupied_fraction([a, b, c], net)
    assert frac == pytest.approx(2.0 / math.exp(net.log_cardinality))


def test_grid_estimate_wraps_net(capsys):
    # `rmlab nets --check grid` reports the fields of singular_grid_net as they stand
    argv = ["nets", "--check", "grid", "--n", "25", "--delta", "0.05", "--r", "0.9", "--R", "1.3"]
    assert main(argv + ["--j", "0,1,2,3,4,5"]) == 0
    est = json.loads(capsys.readouterr().out)
    net = singular_grid_net(**GRID_ARGS)
    assert est["kind"] == SINGULAR_GRID
    assert est["log_count"] == net.log_cardinality
    assert est["log_count"] == pytest.approx(6.0 * math.log(8.0))
    assert est["params"]["k"] == net.k == 4 and est["params"]["k0"] == net.k0 == 1
    assert est["params"]["j_set"] == list(net.j_set)
    assert est["centers"] == [float(c) for c in net.centers]


# ---------------------------------------------------------------- greedy nets


def test_greedy_net_frozen_cases():
    assert greedy_net(np.array([[1.0, 2.0]]), eps=1.0).shape == (1, 2)
    two = greedy_net(np.array([[0.0, 0.0], [3.0, 0.0]]), eps=1.0)
    assert two.shape == (2, 2)
    near = greedy_net(np.array([[0.0, 0.0], [0.9, 0.9]]), metric="linf", eps=1.0)
    assert near.shape == (1, 2)


def test_greedy_net_rejects_non_finite_points():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            greedy_net(np.array([[0.0, 0.0], [bad, 1.0]]), eps=1.0)


def test_greedy_net_interval():
    pts = np.linspace(-1.0, 1.0, 2001)[:, None]
    net = greedy_net(pts, eps=1.0 / 3.0)
    assert 3 <= net.shape[0] <= 9
    dists = np.min(np.abs(pts - net.T), axis=1)
    assert np.max(dists) <= 1.0 / 3.0


def test_greedy_net_circle_within_volumetric():
    theta = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    est = greedy_estimate(pts, eps=0.5)
    assert est.kind == GREEDY
    assert est.log_count <= volumetric_bound(2, BALL, BALL, 0.5)
    assert math.exp(est.log_count) <= 36.0
    assert est.realization is not None
    assert est.params["n_points"] == 1000


def test_greedy_net_covers_its_input():
    rng = derive_stream(42, 0)
    pts = rng.standard_normal((500, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    net = greedy_net(pts, eps=0.4)
    d = np.sqrt(((pts[:, None, :] - net[None, :, :]) ** 2).sum(axis=2))
    assert np.max(d.min(axis=1)) <= 0.4
    # centers are pairwise separated by more than eps
    if net.shape[0] > 1:
        dd = np.sqrt(((net[:, None, :] - net[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(dd, np.inf)
        assert dd.min() > 0.4


def test_greedy_estimate_drops_large_dim_realization():
    rng = derive_stream(42, 1)
    pts = rng.standard_normal((50, 9))
    est = greedy_estimate(pts, eps=10.0)
    assert est.realization is None
    assert est.log_count == 0.0  # one center suffices at huge eps


def test_greedy_net_validation():
    with pytest.raises(ValueError):
        greedy_net(np.ones((2, 2)), metric="l1")
    with pytest.raises(ValueError):
        greedy_net(np.ones((2, 2)), eps=0.0)
    with pytest.raises(ValueError):
        greedy_net(np.empty((0, 2)))


def test_greedy_linf_within_cube_volumetric():
    # points in the side-2 cube, linf radius 1/2: compare against the
    # volumetric bound with D = cube
    rng = derive_stream(42, 2)
    pts = rng.uniform(-1.0, 1.0, size=(400, 2))
    est = greedy_estimate(pts, metric="linf", eps=0.5)
    assert est.log_count <= volumetric_bound(2, CUBE, CUBE, 0.5)
