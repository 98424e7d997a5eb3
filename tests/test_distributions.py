import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmlab.distributions import (
    EntryDistribution,
    GAUSSIAN,
    RADEMACHER,
    UNIFORM_SYM,
    abs_third_moment,
    cdf,
    char_fn,
    discrete,
    parse_dist_spec,
    sample,
)
from rmlab.rng import derive_stream

SQRT3 = math.sqrt(3.0)
SKEW = discrete(((-2.0, 0.2), (0.5, 0.8)))
LAZY = discrete(((-math.sqrt(2.0), 0.25), (0.0, 0.5), (math.sqrt(2.0), 0.25)))
ALL_LAWS = (RADEMACHER, GAUSSIAN, UNIFORM_SYM, SKEW, LAZY)


# ---------------------------------------------------------------- validation


def test_discrete_law_validation():
    with pytest.raises(ValueError):
        EntryDistribution("bogus")
    with pytest.raises(ValueError):
        EntryDistribution("rademacher", atoms=((1.0, 1.0),))
    with pytest.raises(ValueError):
        discrete(((-1.0, 0.5),))  # single atom
    with pytest.raises(ValueError):
        discrete(((-1.0, 0.5), (-1.0, 0.5)))  # duplicate values
    with pytest.raises(ValueError):
        discrete(((-1.0, 0.6), (1.0, 0.6)))  # probs sum to 1.2
    with pytest.raises(ValueError):
        discrete(((-1.0, 0.25), (1.0, 0.75)))  # mean 0.5
    with pytest.raises(ValueError):
        discrete(((-2.0, 0.5), (2.0, 0.5)))  # variance 4
    with pytest.raises(ValueError):
        discrete(((-1.0, -0.5), (1.0, 1.5)))  # negative prob


def test_parse_dist_spec_round_trip():
    assert parse_dist_spec("rademacher") is RADEMACHER
    assert parse_dist_spec("gaussian") is GAUSSIAN
    assert parse_dist_spec("uniform") is UNIFORM_SYM
    d = parse_dist_spec("discrete:-2:0.2,0.5:0.8")
    assert d.atoms == ((-2.0, 0.2), (0.5, 0.8))
    assert parse_dist_spec(d.spec_string()) == d
    with pytest.raises(ValueError):
        parse_dist_spec("cauchy")
    with pytest.raises(ValueError):
        parse_dist_spec("discrete:1:0.5:oops")


# ------------------------------------------------------------------ sampling


def test_sample_support():
    rng = derive_stream(1, 0)
    assert set(np.unique(sample(RADEMACHER, rng, size=500))) <= {-1.0, 1.0}
    u = sample(UNIFORM_SYM, rng, size=500)
    assert np.all(u >= -SQRT3) and np.all(u <= SQRT3)
    s = sample(SKEW, rng, size=500)
    assert set(np.unique(s)) <= {-2.0, 0.5}
    assert isinstance(sample(GAUSSIAN, rng), float)


def test_sample_determinism():
    a = sample(GAUSSIAN, derive_stream(42, 3), size=64)
    b = sample(GAUSSIAN, derive_stream(42, 3), size=64)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dist", ALL_LAWS, ids=lambda d: d.spec_string()[:12])
def test_mean_zero_variance_one(dist):
    n = 1_000_000
    draws = sample(dist, derive_stream(7, 0), size=n)
    # 4-sigma bands; var(sample mean)=1/n, var(sample var) ~ (E b^4 - 1)/n <= kurtosis cap
    assert abs(draws.mean()) < 4.0 / math.sqrt(n)
    fourth = float(np.mean(draws**4))
    assert abs(draws.var() - 1.0) < 4.0 * math.sqrt(max(fourth - 1.0, 0.1) / n)


@pytest.mark.parametrize("dist", (GAUSSIAN, UNIFORM_SYM), ids=("gaussian", "uniform"))
def test_empirical_cdf_matches_analytic(dist):
    n = 1_000_000
    draws = np.sort(sample(dist, derive_stream(13, 1), size=n))
    for level in np.linspace(0.04, 0.96, 20):
        q = draws[int(level * n)]
        p = cdf(dist, q)
        se = math.sqrt(level * (1 - level) / n)
        assert abs(p - level) <= 3.0 * se + 2.0 / n


def test_discrete_atom_frequencies():
    n = 200_000
    draws = sample(SKEW, derive_stream(13, 2), size=n)
    for value, prob in SKEW.atoms:
        freq = np.count_nonzero(draws == value) / n
        assert abs(freq - prob) < 4.0 * math.sqrt(prob * (1 - prob) / n)


def _philox_state(rng):
    st = rng.bit_generator.state
    return (
        tuple(st["state"]["counter"]),
        tuple(st["buffer"]),
        st["buffer_pos"],
        st["has_uint32"],
        st["uinteger"],
    )


# Edges of the sign reader: a pending half-word read before the first chunk,
# 2**15 signs per chunk of Philox words, and empty draws with a half pending.
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    prefix=st.integers(min_value=0, max_value=3),
    size=st.one_of(
        st.none(),
        st.integers(min_value=0, max_value=70_000),
        st.tuples(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=67)),
    ),
)
@example(seed=5, prefix=1, size=None)
@example(seed=5, prefix=1, size=0)
@example(seed=5, prefix=1, size=(0, 67))
@example(seed=5, prefix=0, size=2**15)
@example(seed=5, prefix=1, size=2**15 + 1)
@example(seed=5, prefix=3, size=(491, 67))
@settings(max_examples=150, deadline=None)
def test_rademacher_sample_is_integers_bit_for_bit(seed, prefix, size):
    """sample(RADEMACHER) equals 2 * integers(0, 2) - 1 byte for byte and leaves
    the stream where integers leaves it, pending half-word included."""
    ref, got = derive_stream(seed, 0), derive_stream(seed, 0)
    # a prefix of 1 or 3 entries leaves a 32-bit half-word pending
    assert np.array_equal(ref.integers(0, 2, size=prefix), got.integers(0, 2, size=prefix))
    want = 2.0 * ref.integers(0, 2, size=size) - 1.0
    have = sample(RADEMACHER, got, size=size)
    if size is None:
        assert isinstance(have, float)
        want, have = np.float64(want), np.float64(have)
    assert have.shape == want.shape and have.dtype == want.dtype
    assert have.tobytes() == want.tobytes()
    assert _philox_state(got) == _philox_state(ref)
    assert got.integers(0, 2**40, size=3).tolist() == ref.integers(0, 2**40, size=3).tolist()
    assert got.random(size=2).tobytes() == ref.random(size=2).tobytes()
    assert got.integers(0, 2) == ref.integers(0, 2)
    assert got.integers(0, 2, size=3).tolist() == ref.integers(0, 2, size=3).tolist()


# ---------------------------------------------------- characteristic function


def test_char_fn_frozen_values():
    assert char_fn(RADEMACHER, math.pi) == pytest.approx(-1.0, abs=1e-15)
    assert char_fn(GAUSSIAN, 0.0) == 1.0
    # sinc closed form sin(sqrt(3) t) / (sqrt(3) t) at t=1
    assert char_fn(UNIFORM_SYM, 1.0) == pytest.approx(0.5698600991825139, abs=1e-12)


def test_char_fn_uniform_against_numerical_integration():
    ts = np.linspace(-5.0, 5.0, 41)
    xs = np.linspace(-SQRT3, SQRT3, 20001)
    for t in ts:
        numeric = np.trapezoid(np.cos(xs * t), xs) / (2.0 * SQRT3)
        assert char_fn(UNIFORM_SYM, t) == pytest.approx(numeric, abs=1e-6)


def test_char_fn_asymmetric_magnitude():
    # |E exp(i b t)| assembled from real/imag parts, cross-checked directly
    for t in (0.3, 1.0, 2.7):
        expected = abs(sum(p * np.exp(1j * v * t) for v, p in SKEW.atoms))
        assert char_fn(SKEW, t) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("dist", ALL_LAWS, ids=lambda d: d.spec_string()[:12])
def test_char_fn_bounded_by_one(dist):
    ts = derive_stream(99, 0).uniform(-100.0, 100.0, size=10_000)
    vals = char_fn(dist, ts)
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)
    assert char_fn(dist, 0.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "dist", (RADEMACHER, GAUSSIAN, UNIFORM_SYM, LAZY), ids=("rad", "gauss", "unif", "lazy")
)
def test_char_fn_symmetric_laws_are_even(dist):
    ts = np.linspace(0.1, 50.0, 200)
    assert np.array_equal(char_fn(dist, ts), char_fn(dist, -ts))


def test_char_fn_rejects_non_finite():
    with pytest.raises(ValueError):
        char_fn(RADEMACHER, math.inf)


@given(t=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_char_fn_magnitude_property(t):
    for dist in (RADEMACHER, SKEW, LAZY):
        assert abs(char_fn(dist, t)) <= 1.0 + 1e-12


# -------------------------------------------------------------------- moments


def test_abs_third_moment_closed_forms():
    assert abs_third_moment(RADEMACHER) == 1.0
    assert abs_third_moment(GAUSSIAN) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi))
    assert abs_third_moment(UNIFORM_SYM) == pytest.approx(3.0 * SQRT3 / 4.0)
    assert abs_third_moment(SKEW) == pytest.approx(0.2 * 8.0 + 0.8 * 0.125)
