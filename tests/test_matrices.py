import math

import numpy as np
import pytest

from oracles import (
    dense_operator_norm,
    gauss_jordan_inverse,
    jacobi_singular_values,
)
from rmlab.distributions import GAUSSIAN, RADEMACHER, UNIFORM_SYM
from rmlab.matrices import (
    operator_norm,
    sample_matrix,
    spectral_summary,
)

EPS = float(np.finfo(float).eps)
# LAPACK's error is about c * n * eps * sigma_max; n * eps * sigma_max is
# under 1e-14 for these n <= 6 matrices, so 1e-12 leaves room for c ~ 100
# (the largest gap seen against the oracle is 9.1e-15)
ORACLE_TOL = 1e-12


def test_sample_matrix_shape_and_determinism():
    m = sample_matrix(RADEMACHER, 10, seed=3)
    assert m.entries.shape == (10, 10)
    assert m.n == 10 and m.seed == 3 and m.dist is RADEMACHER
    again = sample_matrix(RADEMACHER, 10, seed=3)
    assert np.array_equal(m.entries, again.entries)
    other = sample_matrix(RADEMACHER, 10, seed=4)
    assert not np.array_equal(m.entries, other.entries)


def test_sample_matrix_row_major_fill():
    # entries come from one stream in row-major order
    from rmlab.distributions import sample
    from rmlab.rng import STREAM_ENTRIES, derive_stream

    m = sample_matrix(GAUSSIAN, 6, seed=11)
    flat = sample(GAUSSIAN, derive_stream(11, STREAM_ENTRIES), size=36)
    assert np.array_equal(m.entries.ravel(), flat)


def test_sample_matrix_dimension_bounds():
    with pytest.raises(ValueError):
        sample_matrix(GAUSSIAN, 0, seed=1)
    with pytest.raises(ValueError):
        sample_matrix(GAUSSIAN, 4097, seed=1)
    assert sample_matrix(GAUSSIAN, 1, seed=1).entries.shape == (1, 1)


def test_operator_norm_known_matrices():
    assert operator_norm(np.eye(5)).value == pytest.approx(1.0, rel=1e-15)
    d = np.diag([3.0, -7.0, 0.5])
    assert operator_norm(d).value == pytest.approx(7.0, rel=1e-15)
    # rank-1: norm is |u||v|
    u = np.array([1.0, 2.0, 2.0])
    r1 = np.outer(u, u)
    assert operator_norm(r1).value == pytest.approx(9.0, rel=1e-14)


def test_smallest_singular_value_known_matrices():
    d = np.diag([3.0, -7.0, 0.5])
    rep = spectral_summary(d)
    assert rep.sigma_min == pytest.approx(0.5, rel=1e-15)
    assert not rep.singular_flag
    sing = spectral_summary(np.outer([1.0, 2.0], [3.0, 4.0]))
    assert sing.singular_flag and sing.sigma_min == 0.0
    zero = spectral_summary(np.zeros((4, 4)))
    assert zero.singular_flag and zero.sigma_min == 0.0


def test_singular_flag_rule_both_sides():
    # n = 2, sigma_max = 1: flagged exactly when sigma_min <= 2 * eps
    above = spectral_summary(np.diag([1.0, 3.0 * EPS]))
    assert not above.singular_flag and above.sigma_min == 3.0 * EPS
    for t in (2.0 * EPS, EPS):
        below = spectral_summary(np.diag([1.0, t]))
        assert below.singular_flag and below.sigma_min == 0.0
        assert below.op_norm == 1.0


def test_sigma_min_times_inverse_norm_is_one():
    # sigma_min(A) * ||A^{-1}|| = 1 for invertible A
    m = sample_matrix(GAUSSIAN, 5, seed=21)
    inv = gauss_jordan_inverse(m.entries)
    assert np.allclose(inv @ m.entries, np.eye(5), atol=1e-10)
    sigma = spectral_summary(m).sigma_min
    inv_norm = operator_norm(inv).value
    assert sigma * inv_norm == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("c", (2.0, -3.0))
def test_scaling_equivariance(c):
    entries = sample_matrix(UNIFORM_SYM, 5, seed=33).entries
    base = spectral_summary(entries)
    scaled = spectral_summary(c * entries)
    assert scaled.op_norm == pytest.approx(abs(c) * base.op_norm, rel=1e-14)
    assert scaled.sigma_min == pytest.approx(abs(c) * base.sigma_min, rel=1e-14)
    assert not scaled.singular_flag
    # the singular rule is relative to sigma_max, so no scale unflags a
    # singular matrix or flags a regular one
    for scale in (c * 1e-300, c * 1e300):
        assert spectral_summary(scale * np.ones((3, 3))).singular_flag
        assert not spectral_summary(scale * np.eye(3)).singular_flag


def test_extreme_singular_values_match_jacobi_oracle():
    # 100 matrices, n <= 6, full spectrum from two-sided Jacobi on A^T A
    count = 0
    for seed in range(100):
        n = 2 + seed % 5
        dist = (RADEMACHER, GAUSSIAN, UNIFORM_SYM)[seed % 3]
        m = sample_matrix(dist, n, seed=1000 + seed)
        svals = jacobi_singular_values(m.entries)
        summary = spectral_summary(m)
        assert summary.op_norm == pytest.approx(float(svals[-1]), abs=ORACLE_TOL)
        if summary.singular_flag:
            # the oracle's sqrt(eigenvalue) floor for an exact zero
            assert float(svals[0]) <= math.sqrt(EPS) * float(svals[-1])
        else:
            assert summary.sigma_min == pytest.approx(float(svals[0]), abs=ORACLE_TOL)
        count += 1
    assert count == 100


def test_operator_norm_matches_power_oracle():
    for seed in (5, 6, 7):
        m = sample_matrix(GAUSSIAN, 12, seed=seed)
        assert operator_norm(m).value == pytest.approx(
            dense_operator_norm(m.entries), rel=1e-12
        )


def test_reports_expose_iteration_diagnostics():
    # one direct LAPACK call: no iterations, always converged
    m = sample_matrix(GAUSSIAN, 8, seed=2)
    top = operator_norm(m)
    assert top.iterations == 0 and top.converged
    s = spectral_summary(m)
    assert s.op_norm == top.value
    assert s.op_norm_iterations == 0 and s.sigma_min_iterations == 0
    assert s.op_norm_converged and s.sigma_min_converged
    assert 0.0 < s.sigma_min <= s.op_norm


def test_same_seed_same_summary():
    a = spectral_summary(sample_matrix(RADEMACHER, 20, seed=77))
    b = spectral_summary(sample_matrix(RADEMACHER, 20, seed=77))
    assert a == b


def test_rejects_non_square():
    for solver in (operator_norm, spectral_summary):
        for bad in (np.ones((2, 3)), np.ones(4), np.zeros((0, 0))):
            with pytest.raises(ValueError):
                solver(bad)


def test_rademacher_singular_2x2_detected():
    # [[1,1],[1,1]] is singular; the rank-revealing rule must flag it
    rep = spectral_summary(np.ones((2, 2)))
    assert rep.singular_flag
