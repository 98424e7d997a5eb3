import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exhaustive_min_ssq
from rmlab import constants
from rmlab.errors import ConfigError, RegimeError
from rmlab.experiments import ExperimentConfig, run
from rmlab.rng import derive_stream
from rmlab.sphere_profile import (
    PartitionParams,
    ProfileContext,
    classify_profile,
    classify_sphere,
    delta_profile,
    min_half_subset_ssq,
    sample_allocation,
    sample_peaked_direction,
    sample_spread_direction,
)

PARAMS = PartitionParams(r=0.9, R=1.3)


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ------------------------------------------------------------------ geometry


def test_partition_params_validation():
    with pytest.raises(ValueError):
        PartitionParams(r=1.0, R=2.0)
    with pytest.raises(ValueError):
        PartitionParams(r=0.5, R=1.0)
    with pytest.raises(ValueError):
        PartitionParams(r=-0.1, R=2.0)
    default = PartitionParams()
    assert default.r == constants.DEFAULT_R_LOWER
    assert default.R == constants.DEFAULT_R_UPPER


def test_profile_context_frozen_instance():
    # hand-computed: a = 0.9/16 = 0.05625, so k0 = ceil(14.0625) - 1 = 14;
    # k = ceil(0.85 / 0.032) = 27; m = ceil(0.2396... * 64) = 16
    ctx = ProfileContext.from_params(64, 0.004, PARAMS)
    assert (ctx.k0, ctx.k, ctx.m) == (14, 27, 16)
    a = PARAMS.r / (2.0 * math.sqrt(64))
    assert ctx.k0 * ctx.delta < a <= (ctx.k0 + 1) * ctx.delta
    assert (ctx.k0 + ctx.k + 1) * ctx.delta >= PARAMS.R / math.sqrt(64)


@pytest.mark.parametrize("n, delta", [(225, 0.001), (900, 0.003), (625, 0.003), (2500, 0.003)])
def test_profile_context_rounding_edges(n, delta):
    # a / delta rounds across an integer here: up at n=225 and 900, down at
    # n=625 and 2500, where k0 * delta == a in floating point
    ctx = ProfileContext.from_params(n, delta, PARAMS)
    a = PARAMS.r / (2.0 * math.sqrt(n))
    assert ctx.k0 * delta < a <= (ctx.k0 + 1) * delta
    assert (ctx.k0 + ctx.k + 1) * delta >= PARAMS.R / math.sqrt(n)


def test_profile_context_validation():
    with pytest.raises(ValueError):
        ProfileContext.from_params(0, 0.01, PARAMS)
    with pytest.raises(ValueError):
        ProfileContext.from_params(16, 0.0, PARAMS)
    for delta in (1e-20, 1e-310):
        with pytest.raises(ValueError, match="too fine"):
            ProfileContext.from_params(225, delta, PARAMS)


def test_classify_sphere_peaked_and_spread():
    n = 16
    spike = np.zeros(n)
    spike[0] = 0.95
    rest = math.sqrt(1.0 - 0.95**2) / math.sqrt(n - 1)
    spike[1:] = rest
    cls, sigma = classify_sphere(spike, PARAMS)
    assert cls == "V_P"
    assert list(sigma) == list(range(1, n))

    flat = np.full(n, 0.25)
    cls, sigma = classify_sphere(flat, PARAMS)
    assert cls == "V_S"
    assert sigma.size == n


def test_classify_sphere_rejects_non_unit():
    with pytest.raises(ValueError):
        classify_sphere(np.ones(4), PARAMS)


def test_j_set_flat_vector():
    x = np.full(16, 0.25)
    assert classify_profile(x, PARAMS, delta=0.004, Q=4.0).j_set == tuple(range(16))


def test_j_set_sign_invariance():
    rng = derive_stream(17, 0)
    x = sample_spread_direction(32, PARAMS, rng)
    out = classify_profile(x, PARAMS, delta=0.004, Q=4.0)
    assert out.j_set == classify_profile(-x, PARAMS, delta=0.004, Q=4.0).j_set


# ------------------------------------------------------------------- profile


def test_delta_profile_binning_rules():
    p = delta_profile([0.05, 0.1, 0.1, 0.25], 0.1)
    assert p.below_count == 3
    assert p.counts == {2: 1}
    assert p.sum_squares() == 1
    # exact boundary k*delta goes to bin k-1
    assert delta_profile([0.2], 0.1).counts == {1: 1}
    assert delta_profile([-0.15], 0.1).counts == {1: 1}
    with pytest.raises(ValueError):
        delta_profile([0.1], 0.0)
    with pytest.raises(ConfigError, match="positive"):  # was an empty profile
        delta_profile([0.1], math.nan)


# ---------------------------------------------------------- exact minimizer


def test_min_half_subset_ssq_frozen_examples():
    assert min_half_subset_ssq((5, 3, 2), 5) == (9, (2, 2, 1))
    assert min_half_subset_ssq((4,), 2)[0] == 4
    assert min_half_subset_ssq((1, 1, 1, 1), 2)[0] == 2


def test_min_half_subset_ssq_edge_cases():
    assert min_half_subset_ssq((3, 3), 0) == (0, (0, 0))
    assert min_half_subset_ssq((), 0) == (0, ())
    assert min_half_subset_ssq((2, 2), 4) == (8, (2, 2))
    with pytest.raises(ValueError):
        min_half_subset_ssq((2, 2), 5)
    with pytest.raises(ValueError):
        min_half_subset_ssq((2, -1), 1)
    with pytest.raises(ValueError):
        min_half_subset_ssq((2, 2), -1)


def test_min_half_subset_ssq_integer_arrays_and_past_int64():
    """An integer array gives the list's answer in Python ints, and a minimum
    past 2^63 is exact rather than wrapped."""
    for dtype in (np.uint8, np.int32, np.int64, bool):
        occ = np.array([5, 3, 0, 2, 1], dtype=dtype)
        got = min_half_subset_ssq(occ, 4)
        assert got == min_half_subset_ssq(occ.tolist(), 4)
        assert all(type(v) is int for v in (got[0], *got[1]))
    big = 3 * 10**9
    assert min_half_subset_ssq(np.array([big, big]), 2 * big) == (2 * big**2, (big, big))


@pytest.mark.parametrize(
    "occ",
    [[2.7, 3.9], np.array([2.7, 3.9]), (2, 0.5), [math.nan, 1], [math.inf, 1], ["2", 3]],
    ids=["list", "float_array", "tuple", "nan", "inf", "str"],
)
def test_min_half_subset_ssq_rejects_fractional_counts(occ):
    """Fractional counts were truncated: [2.7, 3.9] solved for (2, 3)."""
    with pytest.raises(ConfigError, match="must be integers"):
        min_half_subset_ssq(occ, 4)


def test_min_half_subset_ssq_takes_whole_floats():
    assert min_half_subset_ssq([2.0, 3.0], 4) == min_half_subset_ssq([2, 3], 4) == (8, (2, 2))
    assert min_half_subset_ssq(np.array([2.0, 3.0]), 4) == (8, (2, 2))


def test_min_half_subset_ssq_kept_is_feasible():
    occ = (7, 1, 4, 0, 2)
    ssq, kept = min_half_subset_ssq(occ, 9)
    assert sum(kept) == 9
    assert all(0 <= c <= o for c, o in zip(kept, occ))
    assert ssq == sum(c * c for c in kept)


@given(
    occ=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
    keep_frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_min_half_subset_ssq_matches_exhaustive(occ, keep_frac):
    keep = int(round(keep_frac * sum(occ)))
    greedy, kept = min_half_subset_ssq(occ, keep)
    assert greedy == exhaustive_min_ssq(tuple(occ), keep)
    assert sum(kept) == keep


# ---------------------------------------------------------------- classifier


def test_classify_profile_regular_spread_vector():
    x = sample_spread_direction(64, PARAMS, derive_stream(8, 0))
    out = classify_profile(x, PARAMS, delta=0.004, Q=4.0)
    assert out.sphere_class == "V_S"
    assert out.verdict == "regular"
    assert out.halasz_regime
    assert out.min_ssq <= out.threshold
    assert out.threshold == pytest.approx(4.0 * out.context.m**2.5 * 0.004)
    assert sum(out.kept_per_bin.values()) == math.ceil(out.context.m / 2)
    assert out.min_ssq == sum(c * c for c in out.kept_per_bin.values())
    assert set(out.kept_per_bin) <= set(out.profile.counts)


def test_classify_profile_singular_one_bin_vector():
    # every coordinate lands in a single bin so the minimizer cannot spread
    x = np.full(64, 0.125)
    out = classify_profile(x, PARAMS, delta=0.004, Q=4.0)
    assert out.profile.counts == {31: 64}
    assert out.min_ssq == 64  # keep = 8, all in one bin
    assert out.verdict == "singular"
    assert out.min_ssq > out.threshold


def test_classify_profile_rejects_bad_inputs():
    x = np.full(64, 0.125)
    with pytest.raises(ValueError):
        classify_profile(x, PARAMS, delta=0.004, Q=1.0)
    # nan compares false both ways, so these once gave a verdict
    with pytest.raises(ConfigError, match="must be > 1"):
        classify_profile(x, PARAMS, delta=0.004, Q=math.nan)
    with pytest.raises(ConfigError, match="non-unit"):
        classify_profile(np.where(np.arange(64) == 0, math.nan, x), PARAMS, delta=0.004, Q=4.0)
    spike = np.zeros(64)
    spike[0] = 1.0
    with pytest.raises(RegimeError):
        classify_profile(spike, PARAMS, delta=0.004, Q=4.0)


def test_classify_profile_coarse_delta_raises():
    # delta above every |x_j| empties the profile on J
    x = np.full(16, 0.25)
    with pytest.raises(RegimeError):
        classify_profile(x, PARAMS, delta=0.3, Q=4.0)


def test_classify_profile_flags_out_of_regime_delta():
    # r/(4 pi sqrt(16)) = 0.0179...; delta = 0.02 sits above it
    x = np.full(16, 0.25)
    out = classify_profile(x, PARAMS, delta=0.02, Q=4.0)
    assert not out.halasz_regime
    assert out.verdict == "singular"  # 4 > 4 * 4**2.5 * 0.02 = 2.56


def test_classification_json_round_trip():
    x = sample_spread_direction(64, PARAMS, derive_stream(8, 1))
    out = classify_profile(x, PARAMS, delta=0.004, Q=4.0)
    d = json.loads(json.dumps(out.to_json_dict()))
    assert d["verdict"] == out.verdict
    assert d["min_ssq"] == out.min_ssq
    assert d["m"] == out.context.m
    assert d["halasz_regime"] == out.halasz_regime


# ---------------------------------------------------------------- allocation


def test_sample_allocation_counts():
    occupancy = sample_allocation(20, 6, derive_stream(9, 0))
    assert occupancy.sum() == 20
    assert occupancy.size == 6
    assert occupancy.min() >= 0
    with pytest.raises(ValueError):
        sample_allocation(5, 6, derive_stream(9, 1))
    with pytest.raises(ValueError):
        sample_allocation(5, 0, derive_stream(9, 2))


def test_allocation_experiment_single_bin():
    # k=1 forces occupancy (l,), keep=5, ssq=25, stat = 25*1/100 = 0.25
    res = run(ExperimentConfig(
        experiment="E4_allocation", n_list=(10,), trials=3, master_seed=10,
        params={"l": 10, "k": 1},
    ))
    assert [r[5] for r in res.rows] == [0.25, 0.25, 0.25]
    stats = res.summary["stat"]
    assert {key: stats[key] for key in ("p50", "p90", "p99", "max")} == {
        "p50": 0.25, "p90": 0.25, "p99": 0.25, "max": 0.25,
    }
    assert res.summary["reference_c_half"] == 65536.0
    for i in range(3):
        occupancy = sample_allocation(10, 1, derive_stream(10, i))
        assert occupancy.tolist() == [10]
        assert min_half_subset_ssq(occupancy, 5) == (25, (5,))


def test_allocation_reference_constant():
    assert constants.ALLOCATION_C_HALF == 0.5**-16 == 65536.0


# ------------------------------------------------------------------ samplers


def test_sample_spread_direction_properties():
    n = 64
    for idx in range(5):
        x = sample_spread_direction(n, PARAMS, derive_stream(11, idx))
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert classify_sphere(x, PARAMS)[0] == "V_S"
        ax = np.abs(x)
        assert np.all(ax >= PARAMS.r / (2 * math.sqrt(n)))
        assert np.all(ax <= PARAMS.R / math.sqrt(n))


def test_sample_spread_direction_band_validation():
    # the band (0.9, 1.1) must sit inside (r/2, R)
    with pytest.raises(ValueError):
        sample_spread_direction(16, PartitionParams(r=0.9, R=1.1), derive_stream(11, 9))


def test_sample_peaked_direction_properties():
    n = 64
    for idx in range(5):
        x = sample_peaked_direction(n, PARAMS, derive_stream(12, idx))
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        assert classify_sphere(x, PARAMS)[0] == "V_P"
        assert np.max(np.abs(x)) > PARAMS.R / math.sqrt(n)


def test_sample_peaked_direction_needs_room():
    with pytest.raises(RegimeError):
        sample_peaked_direction(1, PARAMS, derive_stream(12, 9))
