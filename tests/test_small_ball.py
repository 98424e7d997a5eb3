import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import product_concentration, window_sup_probability
from test_distributions import _philox_state
from rmlab import calibration, constants, small_ball
from rmlab.distributions import GAUSSIAN, RADEMACHER, discrete
from rmlab.errors import RegimeError
from rmlab.rng import derive_stream
from rmlab.small_ball import (
    ConcentrationEstimate,
    SmallBallQuery,
    berry_esseen_bound,
    clopper_pearson,
    empirical_sup_concentration,
    esseen_bound,
    exact_concentration,
    halasz_integral_bound,
    halasz_profile_bound,
    monte_carlo_concentration,
    sample_sums,
)

SQRT2 = math.sqrt(2.0)
SKEW = discrete(((-2.0, 0.2), (0.5, 0.8)))


def rademacher_query(x, v=0.0, t=0.5) -> SmallBallQuery:
    return SmallBallQuery(x=np.asarray(x, dtype=float), dist=RADEMACHER, v=v, t=t)


# ---------------------------------------------------------------- containers


def test_query_validation():
    with pytest.raises(ValueError):
        SmallBallQuery(x=np.array([]), dist=RADEMACHER, v=0.0, t=0.5)
    with pytest.raises(ValueError):
        SmallBallQuery(x=np.zeros(3), dist=RADEMACHER, v=0.0, t=0.5)
    with pytest.raises(ValueError):
        SmallBallQuery(x=np.ones(3), dist=RADEMACHER, v=0.0, t=0.0)
    with pytest.raises(ValueError):
        SmallBallQuery(x=np.ones(3), dist=RADEMACHER, v=math.inf, t=0.5)
    with pytest.raises(ValueError):
        SmallBallQuery(x=np.ones((2, 2)), dist=RADEMACHER, v=0.0, t=0.5)


def test_estimate_validation():
    with pytest.raises(ValueError):
        ConcentrationEstimate(value=0.5, method="bogus")
    with pytest.raises(ValueError):
        ConcentrationEstimate(value=1.5, method="exact")
    with pytest.raises(ValueError):
        ConcentrationEstimate(value=-0.1, method="esseen_bound")
    with pytest.raises(ValueError):
        ConcentrationEstimate(value=0.5, method="monte_carlo", ci=(0.6, 0.9))
    # bound values above 1 are legitimate
    assert ConcentrationEstimate(value=2.0, method="esseen_bound").value == 2.0


def test_clopper_pearson_reference():
    lo, hi = clopper_pearson(5, 10)
    assert lo == pytest.approx(0.187086, abs=1e-5)
    assert hi == pytest.approx(0.812914, abs=1e-5)
    assert clopper_pearson(0, 20)[0] == 0.0
    assert clopper_pearson(20, 20)[1] == 1.0
    with pytest.raises(ValueError):
        clopper_pearson(5, 4)


# -------------------------------------------------------------- exact oracles


def test_exact_concentration_frozen_values():
    q = rademacher_query([1 / SQRT2, 1 / SQRT2], v=0.0, t=0.1)
    assert exact_concentration(q).value == pytest.approx(0.5, abs=1e-15)
    q = rademacher_query([0.5, 0.5, 0.5, 0.5], v=0.0, t=0.5)
    assert exact_concentration(q).value == pytest.approx(0.375, abs=1e-15)
    q = rademacher_query([1.0], v=1.0, t=0.5)
    assert exact_concentration(q).value == pytest.approx(0.5, abs=1e-15)


def test_exact_concentration_enumeration_merges_lattice():
    q = rademacher_query(np.ones(30), v=0.0, t=1.0)
    out = exact_concentration(q, path="enumerate")
    assert out.method == "exact"
    assert out.metadata["atoms"] == 31  # lattice sums merge to m+1 atoms
    # central binomial term: P(S_30 = 0) = C(30,15)/2^30
    assert out.value == pytest.approx(math.comb(30, 15) / 2**30, rel=1e-12)


def test_exact_concentration_convolution_brackets_truth():
    q = rademacher_query([1 / SQRT2, 1 / SQRT2], v=0.0, t=0.1)
    out = exact_concentration(q, path="convolve")
    assert out.method == "convolution"
    lo, hi = out.ci
    assert lo <= 0.5 <= hi
    assert out.metadata["error_radius"] < 0.01
    assert out.value == pytest.approx(0.5, abs=out.metadata["error_radius"] + 1e-15)


def test_exact_concentration_auto_falls_back_to_grid():
    # incommensurate weights do not merge, so enumeration blows its budget
    rng = derive_stream(31, 0)
    x = rng.uniform(0.9, 1.1, size=22)
    out = exact_concentration(SmallBallQuery(x=x, dist=RADEMACHER, v=0.0, t=1.0))
    assert out.method == "convolution"
    mc = monte_carlo_concentration(
        SmallBallQuery(x=x, dist=RADEMACHER, v=0.0, t=1.0), 20_000, derive_stream(31, 1)
    )
    lo, hi = out.ci
    assert mc.ci[0] - 0.01 <= hi and lo <= mc.ci[1] + 0.01


def test_exact_concentration_rejects_continuous_and_bad_path():
    q = SmallBallQuery(x=np.ones(3), dist=GAUSSIAN, v=0.0, t=0.5)
    with pytest.raises(RegimeError):
        exact_concentration(q)
    with pytest.raises(ValueError):
        exact_concentration(rademacher_query([1.0]), path="fft")


@given(
    weights=st.lists(
        st.floats(min_value=0.1, max_value=2.0, allow_nan=False), min_size=1, max_size=6
    ),
    v=st.floats(min_value=-2.0, max_value=2.0),
    t=st.floats(min_value=0.05, max_value=1.5),
)
@settings(max_examples=150, deadline=None)
def test_exact_concentration_matches_product_oracle(weights, v, t):
    q = SmallBallQuery(x=np.array(weights), dist=SKEW, v=v, t=t)
    out = exact_concentration(q, path="enumerate")
    vals = [a[0] for a in SKEW.atoms]
    probs = [a[1] for a in SKEW.atoms]
    expected = product_concentration(vals, probs, np.array(weights), v, t)
    assert out.value == pytest.approx(expected, abs=1e-12)


FINITE_LAWS = (RADEMACHER, calibration.D3, calibration.D4, SKEW)


@given(
    dist=st.sampled_from(FINITE_LAWS),
    weights=st.lists(
        st.floats(min_value=0.1, max_value=2.0) | st.floats(min_value=-2.0, max_value=-0.1),
        min_size=1,
        max_size=8,
    ),
    repeat=st.booleans(),
    zeros=st.integers(min_value=0, max_value=2),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
@example(dist=SKEW, weights=[0.3, 1.7, -0.9], repeat=False, zeros=0, data=None)
@example(dist=calibration.D3, weights=[0.3, 1.7, -0.9], repeat=True, zeros=1, data=None)
def test_exact_enumeration_equals_the_merging_law_bit_for_bit(dist, weights, repeat, zeros, data):
    """Generic weights take the distinct-sums path; a repeated weight makes
    sums that tie in exact arithmetic, and a float tie falls back to merging.
    Either way the value and atom count are those of _atom_law_of_sum, bit
    for bit. Windows are centred on an atom with an edge exactly on another
    atom, or drawn freely."""
    if repeat:
        weights = weights + weights[:1]
    x = np.array(weights[:1] + [0.0] * zeros + weights[1:])
    vals, probs = small_ball._atom_law_of_sum(x[x != 0.0], dist, small_ball._ENUM_LIMIT)
    if data is None:
        v, t = float(vals[1]), float(abs(vals[-1] - vals[1]))
    elif data.draw(st.booleans(), label="on_atoms"):
        i, j = (data.draw(st.integers(0, vals.size - 1), label=k) for k in "ij")
        v = float(vals[i])
        t = float(abs(vals[j] - vals[i])) or 0.5
    else:
        v = data.draw(st.floats(min_value=-4.0, max_value=4.0), label="v")
        t = data.draw(st.floats(min_value=0.01, max_value=3.0), label="t")
    out = exact_concentration(SmallBallQuery(x=x, dist=dist, v=v, t=t))
    expected = float(probs[np.abs(vals - v) < t].sum())
    assert out.value.hex() == expected.hex()
    assert out.metadata == {"path": "enumeration", "atoms": vals.size}


@pytest.mark.parametrize("m", [8, 12, 16])
@pytest.mark.parametrize("t", [0.5, 1.0])
def test_exact_enumeration_adds_skew_window_mass_in_sum_order(m, t):
    """SKEW atom probabilities differ in size, so adding the window's mass in
    any order but the merged law's changes the last bits."""
    x = derive_stream(37, m).uniform(0.5, 2.0, m)
    vals, probs = small_ball._atom_law_of_sum(x, SKEW, small_ball._ENUM_LIMIT)
    out = exact_concentration(SmallBallQuery(x=x, dist=SKEW, v=0.0, t=t))
    assert out.value.hex() == float(probs[np.abs(vals) < t].sum()).hex()
    assert out.metadata["atoms"] == vals.size == 2**m


def test_distinct_sums_path_runs_on_generic_weights_only():
    generic = np.log([2.0, 3.0, 5.0, 7.0]) * [1.0, -1.0, 1.0, 1.0]
    for dist in FINITE_LAWS:
        sums, probs = small_ball._distinct_sums(generic, dist)
        vals, merged = small_ball._atom_law_of_sum(generic, dist, small_ball._ENUM_LIMIT)
        order = np.argsort(sums)
        assert sums[order].tobytes() == vals.tobytes()
        assert probs[order].tobytes() == merged.tobytes()
    # two equal leading weights tie (0 + w s) + w s' with (0 + w s') + w s;
    # lattice vectors are not tried
    assert small_ball._distinct_sums(np.array([0.3, 0.3, 1.7]), SKEW) is None
    assert small_ball._distinct_sums(np.ones(5), SKEW) is None
    assert small_ball._distinct_sums(np.array([0.5, -1.5, 1.0]), SKEW) is None
    # more patterns than the trial limit
    assert small_ball._distinct_sums(derive_stream(36, 0).uniform(0.5, 2.0, 21), RADEMACHER) is None


@pytest.mark.parametrize(
    "x, dist, atoms",
    [
        (np.ones(12), RADEMACHER, 13),
        (np.ones(12), SKEW, 13),
        (np.arange(1.0, 9.0), RADEMACHER, 37),
        (np.arange(1.0, 9.0) * 0.25, RADEMACHER, 37),
        (np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]), RADEMACHER, 13),
    ],
)
def test_lattice_vectors_report_merged_atom_counts(x, dist, atoms):
    out = exact_concentration(SmallBallQuery(x=x, dist=dist, v=0.0, t=0.5))
    assert out.metadata == {"path": "enumeration", "atoms": atoms}


def test_monte_carlo_concentration_brackets_exact():
    q = rademacher_query([1 / SQRT2, 1 / SQRT2], v=0.0, t=0.1)
    out = monte_carlo_concentration(q, 10_000, derive_stream(32, 0))
    lo, hi = out.ci
    assert lo <= 0.5 <= hi
    assert out.metadata["count"] == round(out.value * 10_000)
    with pytest.raises(ValueError):
        monte_carlo_concentration(q, 99, derive_stream(32, 1))


def test_monte_carlo_deterministic_given_stream():
    q = SmallBallQuery(x=np.ones(5), dist=GAUSSIAN, v=0.0, t=1.0)
    a = monte_carlo_concentration(q, 5_000, derive_stream(33, 0))
    b = monte_carlo_concentration(q, 5_000, derive_stream(33, 0))
    assert a.value == b.value and a.ci == b.ci


def _table_order_sums(signs, x):
    """Row sums of signs @ x in the order sample_sums documents: left to right
    within each group of 8 coordinates, then the groups left to right."""
    total = None
    for g in range(0, x.size, 8):
        group = signs[:, g] * x[g]
        for j in range(g + 1, min(g + 8, x.size)):
            group = group + signs[:, j] * x[j]
        total = group if total is None else total + group
    return total


@pytest.mark.parametrize("n", [5, 63, 64, 4999])
def test_sample_sums_match_table_order_for_any_part_count(n, monkeypatch):
    """Rademacher sums, block by block, equal sums of 2 * integers(0, 2) - 1
    signs in the documented table order bit for bit, for 1, 2 or 3 parts, with
    or without os.sched_getaffinity, and with a half-word pending or not, and
    the stream ends where integers leaves it. A wrong or shifted sign moves a
    sum by 2|x_j|, so the signs are the integers(0, 2) draws."""
    x = derive_stream(34, n).uniform(-1.0, 1.0, size=n)
    block = 5_000_000 // n
    ref_chunk = max(1, 2**20 // n)
    for prefix, count in enumerate((block - 1, block, block + 1, 2 * block + 3)):
        ref = derive_stream(35, count)
        ref.integers(0, 2, size=prefix)  # an odd prefix leaves a half-word pending
        want, checked = [], 0
        for start in range(0, count, ref_chunk):
            signs = 2.0 * ref.integers(0, 2, size=(min(ref_chunk, count - start), n)) - 1.0
            want.append(_table_order_sums(signs, x))
            # (d) within n * eps * sum|x_j| of the exactly rounded sum
            for row in range(0, signs.shape[0], 97):
                exact = math.fsum((signs[row] * x).tolist())
                assert abs(want[-1][row] - exact) <= n * 2.0**-52 * np.abs(x).sum()
                checked += 1
        assert checked > 0
        want = np.concatenate(want)
        # (c) 1, 2 and 3 parts: the usable cores, and a part size of one row;
        # without os.sched_getaffinity (macOS, Windows) os.cpu_count() parts
        monkeypatch.setattr(small_ball, "_PART_MIN_SIGNS", 1)
        for cores in (1, 2, 3, "cpu_count"):
            if cores == "cpu_count":
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
                monkeypatch.setattr(os, "cpu_count", lambda: 2)
            else:
                usable = set(range(cores))
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=usable: c, raising=False)
            got_rng = derive_stream(35, count)
            got_rng.integers(0, 2, size=prefix)
            got = list(sample_sums(RADEMACHER, x, count, got_rng))
            assert [s.size for s in got] == [min(block, count - i) for i in range(0, count, block)]
            # (b) the table-order sums, bit for bit; (a) the stream ends where integers left it
            assert np.concatenate(got).tobytes() == want.tobytes()
            assert _philox_state(got_rng) == _philox_state(ref)
            probe = derive_stream(35, count)
            probe.bit_generator.state = ref.bit_generator.state
            assert got_rng.integers(0, 2, size=3).tolist() == probe.integers(0, 2, size=3).tolist()


_GAUSSIAN_SUMS_HASH = """
import hashlib
import numpy as np
from rmlab.distributions import GAUSSIAN
from rmlab.rng import derive_stream
from rmlab.small_ball import sample_sums
x = derive_stream(4, 1).uniform(-1.0, 1.0, 64)
sums = np.concatenate(list(sample_sums(GAUSSIAN, x, 200_000, derive_stream(4, 0))))
print(hashlib.sha256(sums.tobytes()).hexdigest())
"""


def test_gaussian_sample_sums_do_not_depend_on_blas_threads():
    """A BLAS matrix-vector product splits rows across threads and changes
    the last bits of some sums with the thread count; sample_sums must not."""
    src = str(Path(small_ball.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        out = subprocess.run(
            [sys.executable, "-c", _GAUSSIAN_SUMS_HASH],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_empirical_sup_concentration_frozen_and_oracle():
    assert empirical_sup_concentration([0.0, 1.9], 1.0) == 1.0
    assert empirical_sup_concentration([0.0, 3.0], 1.0) == 0.5
    samples = derive_stream(34, 0).standard_normal(300)
    for t in (0.05, 0.3, 1.0):
        assert empirical_sup_concentration(samples, t) == pytest.approx(
            window_sup_probability(samples, t), abs=1e-15
        )
    with pytest.raises(ValueError):
        empirical_sup_concentration(samples, 0.0)


def test_empirical_sup_monotone_in_t():
    samples = derive_stream(34, 1).standard_normal(500)
    vals = [empirical_sup_concentration(samples, t) for t in (0.1, 0.2, 0.4, 0.8)]
    assert vals == sorted(vals)


@pytest.mark.parametrize("t", [math.nan, -1.0])
def test_empirical_sup_rejects_t_not_positive(t):
    with pytest.raises(ValueError, match="positive"):
        empirical_sup_concentration([0.0, 1.0], t)


@pytest.mark.parametrize("samples", [[], np.zeros((2, 3)), np.float64(1.0)])
def test_empirical_sup_rejects_empty_or_not_1d_samples(samples):
    with pytest.raises(ValueError, match="nonempty 1-d"):
        empirical_sup_concentration(samples, 0.5)


@pytest.mark.parametrize(
    "samples", [[0.0, math.nan], [math.nan], [0.0, math.inf], [-math.inf, 0.0, 1.0]]
)
def test_empirical_sup_rejects_nonfinite_samples(samples):
    with pytest.raises(ValueError, match="finite"):
        empirical_sup_concentration(samples, 0.5)


def test_empirical_sup_infinite_window_holds_everything():
    assert empirical_sup_concentration([-3.0, 0.0, 2.5], math.inf) == 1.0


@st.composite
def _window_samples(draw):
    """1 to 400 samples, so sizes below, at and across several 64-anchor
    scan blocks appear; lattice samples (multiples of 0.25: ties, and
    windows ending exactly on a sample) or continuous ones."""
    size = draw(st.integers(min_value=1, max_value=400))
    if draw(st.booleans()):
        half = draw(st.integers(min_value=0, max_value=60))
        ints = st.integers(min_value=-half, max_value=half)
        return [0.25 * k for k in draw(st.lists(ints, min_size=size, max_size=size))]
    reals = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    return draw(st.lists(reals, min_size=size, max_size=size))


@given(
    samples=_window_samples(),
    t=st.one_of(
        st.floats(min_value=1e-9, max_value=50.0),
        st.integers(min_value=1, max_value=200).map(lambda k: 0.125 * k),
    ),
)
@settings(max_examples=200, deadline=None)
def test_empirical_sup_matches_window_oracle(samples, t):
    assert empirical_sup_concentration(samples, t) == window_sup_probability(samples, t)


@given(
    samples=_window_samples(),
    windows=st.lists(
        st.one_of(
            st.floats(min_value=1e-9, max_value=50.0),
            st.integers(min_value=1, max_value=200).map(lambda k: 0.125 * k),
            st.just(math.inf),
        ),
        min_size=1,
        max_size=10,
    ),
)
@example(samples=[0.0, 0.25, 3.0], windows=[2.0, 0.125, 2.0, math.inf, 0.125])
@settings(max_examples=200, deadline=None)
def test_empirical_sup_array_of_windows_equals_scalar_calls(samples, windows):
    got = empirical_sup_concentration(samples, np.array(windows))
    assert isinstance(got, np.ndarray) and got.shape == (len(windows),)
    scalar = [empirical_sup_concentration(samples, t) for t in windows]
    assert all(isinstance(q, float) for q in scalar)
    assert got.tobytes() == np.array(scalar).tobytes()


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_empirical_sup_rejects_one_bad_window_in_an_array(bad):
    with pytest.raises(ValueError, match="positive"):
        empirical_sup_concentration([0.0, 1.0], [0.5, bad, 1.0])


@pytest.mark.parametrize("peak", [0, 62, 63, 64, 127, 190])
def test_empirical_sup_finds_a_peak_anchored_at_any_index(peak):
    # 8 close samples after `peak` isolated ones: the densest window is anchored
    # at sorted index `peak` only, including when that is a 64-anchor block end
    samples = np.concatenate([10.0 * np.arange(peak), 5000.0 + 0.01 * np.arange(8), [9e3]])
    samples = derive_stream(36, peak).permutation(samples)
    assert empirical_sup_concentration(samples, 0.5) == 8 / samples.size
    assert window_sup_probability(samples, 0.5) == 8 / samples.size


def _full_window_scan(s, t):
    s = np.sort(s)
    return float(np.max(np.searchsorted(s, s + 2.0 * t) - np.arange(s.size))) / s.size


def test_empirical_sup_matches_full_scan_on_mc_sums():
    query = calibration.build_corpus("regular_smallball", constants.CALIBRATION_SEED, 1)[0]
    sums = calibration._mc_sums(query)
    assert sums.size == 200_000
    for mult in range(1, 9):
        t = mult * query.delta
        assert empirical_sup_concentration(sums, t) == _full_window_scan(sums, t)


@pytest.mark.parametrize("kind", ["uniform", "grid"])
def test_empirical_sup_matches_full_scan_on_flat_samples(kind):
    # flat densities leave few or (on the evenly spaced grid) no blocks to skip
    rng = derive_stream(35, 0)
    if kind == "uniform":
        samples = rng.uniform(-1.0, 1.0, 200_000)
    else:
        samples = rng.permutation(0.25 * np.arange(200_000))
    for t in (1e-6, 0.002, 0.25, 0.5, 3.0, 1e6):
        assert empirical_sup_concentration(samples, t) == _full_window_scan(samples, t)


# ------------------------------------------------------------------ the bounds


def test_esseen_bound_frozen_integral():
    # prod |cos(s)| over [-pi/2, pi/2] integrates to exactly 2
    out = esseen_bound(rademacher_query([1.0], t=1.0))
    assert out.value == pytest.approx(2.0, abs=1e-7)
    assert out.metadata["c_esseen"] == 1.0
    assert out.metadata["converged"]


def test_esseen_bound_gaussian_closed_form():
    # integrand exp(-s^2/(2 t^2) * |x|^2); frozen via erf
    from scipy.special import erf

    t = 0.7
    out = esseen_bound(SmallBallQuery(x=np.array([1.0]), dist=GAUSSIAN, v=0.0, t=t))
    sigma = 1.0 / t
    expected = math.sqrt(2.0 * math.pi) / sigma * erf(math.pi * sigma / (2.0 * SQRT2))
    assert out.value == pytest.approx(float(expected), abs=1e-7)


def test_esseen_bound_dominates_exact_with_fitted_constant():
    c = constants.FITTED["esseen"]
    for x, t in (([1.0], 1.01), ([1 / SQRT2, 1 / SQRT2], 0.1), ([0.5] * 4, 0.5)):
        q = rademacher_query(x, t=t)
        assert exact_concentration(q).value <= c * esseen_bound(q).value + 1e-12


def test_halasz_integral_bound_all_ones_closed_form():
    # S_delta is m/4 on a single window of length 2 pi delta, so the bound
    # reduces to pi / (8 sqrt(m))
    for m in (4, 16):
        out = halasz_integral_bound(np.ones(m), RADEMACHER, 0.01, 0.999)
        assert out.value == pytest.approx(math.pi / (8.0 * math.sqrt(m)), rel=1e-12)
        assert out.metadata["exponential_term"] == "omitted"
    assert out.metadata["segments"] >= 1


def test_halasz_integral_bound_regime_errors():
    x = np.ones(4)
    with pytest.raises(RegimeError):
        halasz_integral_bound(x, RADEMACHER, 0.2, 0.999)  # delta >= a/(2 pi)
    with pytest.raises(RegimeError):
        halasz_integral_bound(x, RADEMACHER, 0.01, 1.5)  # a above min |x_j|
    with pytest.raises(RegimeError):
        halasz_integral_bound(x, GAUSSIAN, 0.01, 0.999)  # continuous law
    with pytest.raises(ValueError):
        halasz_integral_bound(x, RADEMACHER, 0.01, 0.0)
    # SKEW scaled so the positive atom cannot clear the level
    with pytest.raises(RegimeError):
        halasz_integral_bound(np.ones(4), SKEW, 0.01, 0.7)


def test_halasz_profile_bound_frozen_value():
    x = np.array([1.01, 1.05, 1.08, 2.05])
    out = halasz_profile_bound(x, 0.1)
    assert out.metadata["profile_counts"] == {10: 3, 20: 1}
    assert out.value == pytest.approx(10.0 / 32.0, abs=1e-15)
    assert out.metadata["m"] == 4
    assert out.metadata["a"] == pytest.approx(1.01)


def test_halasz_profile_bound_regime_errors():
    with pytest.raises(RegimeError):
        halasz_profile_bound(np.array([0.0, 1.0]), 0.01)
    with pytest.raises(RegimeError):
        halasz_profile_bound(np.ones(4), 0.2)


def test_halasz_bounds_dominate_exact_with_fitted_constants():
    x = np.ones(16)
    q = SmallBallQuery(x=x, dist=RADEMACHER, v=0.0, t=0.01)
    exact = exact_concentration(q).value
    delta = 0.01
    prof = constants.FITTED["halasz_profile"] * halasz_profile_bound(x, delta).value
    integ = (
        constants.FITTED["halasz_integral"]
        * halasz_integral_bound(x, RADEMACHER, delta, 0.999).value
    )
    assert exact <= prof + 1e-12
    assert exact <= integ + 1e-12


def test_berry_esseen_bound_frozen_value():
    from scipy.special import ndtr

    q = rademacher_query([0.5] * 4, v=0.0, t=0.5)
    out = berry_esseen_bound(q)
    gauss = float(ndtr(0.5) - ndtr(-0.5))
    assert out.metadata["gaussian_mass"] == pytest.approx(gauss, abs=1e-12)
    assert out.metadata["be_error"] == pytest.approx(1.0, abs=1e-12)
    assert out.value == pytest.approx(gauss + 1.0, abs=1e-12)
    assert out.metadata["r"] == pytest.approx(1.0)
    assert out.metadata["R"] == pytest.approx(1.0)


def test_berry_esseen_bound_regime_errors():
    with pytest.raises(RegimeError, match="sqrt"):
        berry_esseen_bound(rademacher_query([0.5] * 4, t=0.1))  # t < 0.5/sqrt(m)
    out = berry_esseen_bound(rademacher_query([0.5] * 4, t=0.25))  # t = 0.5/sqrt(m)
    assert out.metadata["t_lower"] == pytest.approx(0.25)
    with pytest.raises(RegimeError, match="min"):
        berry_esseen_bound(rademacher_query([0.5, 0.5, 0.0, 0.5]))  # a zero weight


def test_berry_esseen_dominates_exact_with_fitted_constant():
    c = constants.FITTED["berry_esseen"]
    for m in (16, 64):
        x = np.full(m, 1.0 / math.sqrt(m))
        for t in (0.5, 1.0):
            q = SmallBallQuery(x=x, dist=RADEMACHER, v=0.0, t=t / math.sqrt(m))
            exact = exact_concentration(q).value
            assert exact <= c * berry_esseen_bound(q).value + 1e-12
