import ctypes
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    dense_operator_norm,
    gauss_jordan_inverse,
    jacobi_singular_values,
)
from rmlab import matrices
from rmlab.distributions import GAUSSIAN, RADEMACHER, UNIFORM_SYM
from rmlab.errors import ConfigError
from rmlab.matrices import (
    operator_norm,
    sample_matrix,
    spectral_summary,
    svd_releases_gil,
)
from rmlab.rng import thread_map

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
    with pytest.raises(ConfigError):
        sample_matrix(GAUSSIAN, 0, seed=1)
    with pytest.raises(ConfigError):
        sample_matrix(GAUSSIAN, 4097, seed=1)
    assert sample_matrix(GAUSSIAN, 1, seed=1).entries.shape == (1, 1)
    assert np.array_equal(sample_matrix(GAUSSIAN, np.int64(3), seed=np.uint64(1)).entries,
                          sample_matrix(GAUSSIAN, 3, seed=1).entries)


@pytest.mark.parametrize(
    "dist, n, seed",
    [(GAUSSIAN, 2.5, 1), (GAUSSIAN, True, 1), (GAUSSIAN, "4", 1), ("gaussian", 4, 1),
     (None, 4, 1), (GAUSSIAN, 4, 1.5), (GAUSSIAN, 4, None), (GAUSSIAN, 4, False)],
)
def test_sample_matrix_rejects_bad_input(dist, n, seed):
    with pytest.raises(ConfigError):
        sample_matrix(dist, n, seed)


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
        for bad in (np.ones((2, 3)), np.ones(4), np.zeros((0, 0)), 3.0, [[1.0, 2.0], [3.0]]):
            with pytest.raises(ConfigError):
                solver(bad)


def test_rejects_non_finite_or_non_numeric_entries():
    for bad in ([[1.0, "x"], [0.0, 1.0]], np.array([[1.0, np.nan], [0.0, 1.0]]), np.diag([1.0, np.inf])):
        with pytest.raises(ConfigError):
            spectral_summary(bad)


def test_rademacher_singular_2x2_detected():
    # [[1,1],[1,1]] is singular; the rank-revealing rule must flag it
    rep = spectral_summary(np.ones((2, 2)))
    assert rep.singular_flag


# ----------------------------------------------- the ctypes LAPACK binding

needs_binding = pytest.mark.skipif(
    not svd_releases_gil(), reason="numpy does not bundle an ILP64 OpenBLAS here"
)


def _bits(op_norm: float, sigma_min: float, singular_flag: bool) -> tuple:
    return np.float64(op_norm).tobytes(), np.float64(sigma_min).tobytes(), bool(singular_flag)


def _summary_bits(summary) -> tuple:
    return _bits(summary.op_norm, summary.sigma_min, summary.singular_flag)


def _binding_values(entries) -> np.ndarray:
    return matrices._gesdd_values(matrices._openblas().gesdd, entries)


@needs_binding
@pytest.mark.parametrize("dist", (GAUSSIAN, RADEMACHER))
@pytest.mark.parametrize("n", (1, 2, 3, 7, 50, 100, 200))
def test_binding_equals_numpy_svd_bit_for_bit(dist, n):
    flagged = 0
    for seed in range(12 if n <= 7 else 2):
        m = sample_matrix(dist, n, seed=500 + seed)
        s = np.linalg.svd(m.entries, compute_uv=False)
        assert _binding_values(m.entries).tobytes() == s.tobytes()
        singular = s[-1] <= n * EPS * s[0]
        summary = spectral_summary(m)
        assert _summary_bits(summary) == _bits(s[0], 0.0 if singular else s[-1], singular)
        flagged += summary.singular_flag
    if dist is RADEMACHER and n in (2, 3):
        # small Rademacher matrices are often exactly singular
        assert flagged > 0


@needs_binding
def test_binding_layouts_and_dtypes_give_the_same_values():
    base = sample_matrix(RADEMACHER, 30, seed=8).entries
    want = np.linalg.svd(base, compute_uv=False).tobytes()
    wide = np.zeros((60, 90))
    wide[::2, ::3] = base
    for variant in (base.astype(np.int64), np.asfortranarray(base), wide[::2, ::3], base.tolist()):
        assert _binding_values(np.asarray(variant, dtype=float)).tobytes() == want
        assert spectral_summary(variant) == spectral_summary(base)
    # the input is copied, never overwritten
    kept = base.copy()
    spectral_summary(base)
    assert np.array_equal(base, kept)


@needs_binding
def test_binding_from_four_threads_at_once():
    """Four threads at once, each through several sizes, shrinking and
    growing, under one BLAS thread: the values are bit-identical to
    np.linalg.svd on one thread, and the inputs are left untouched."""
    mats = [sample_matrix(GAUSSIAN, 120, seed=s).entries for s in range(8)]
    mats += [sample_matrix(GAUSSIAN, n, seed=n).entries for n in (60, 7, 1, 60, 90, 30)]
    kept = [m.copy() for m in mats]
    want = [np.linalg.svd(m, compute_uv=False).tobytes() for m in mats]
    barrier = threading.Barrier(4, timeout=60)
    got = [None] * 4

    def worker(k):
        barrier.wait()
        got[k] = [[_binding_values(m).tobytes() for m in mats] for _ in range(3)]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with matrices.one_blas_thread():
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want] * 3] * 4
    assert all(np.array_equal(m, k) for m, k in zip(mats, kept))


def _blas_thread_count():
    """OpenBLAS's own reading of its thread count, or None when the bundled
    library has no such symbol."""
    path = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*"))[0]
    getter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
    if getter is not None:
        getter.argtypes, getter.restype = [], ctypes.c_int
    return getter


@needs_binding
def test_pool_threads_run_one_blas_thread_without_setup(monkeypatch):
    """The pool threads get no setup of their own: OpenBLAS's count is
    process-wide, so the one_blas_thread around the pool is enough."""
    get_threads = _blas_thread_count()
    if get_threads is None:
        pytest.skip("the bundled OpenBLAS cannot report its thread count")
    set_threads = matrices._openblas().set_threads
    monkeypatch.setattr("rmlab.rng.usable_cores", lambda: 2)
    caller = threading.get_ident()
    before = set_threads(2)
    try:
        counts = thread_map(
            lambda _: (threading.get_ident() != caller, get_threads()),
            list(range(4)),
            pool_setup=matrices.one_blas_thread,
        )
        assert counts == [(True, 1)] * 4
        assert get_threads() == 2
    finally:
        set_threads(before)


@needs_binding
def test_one_blas_thread_restores_the_thread_count():
    set_threads = matrices._openblas().set_threads
    before = set_threads(2)
    try:
        with matrices.one_blas_thread():
            assert set_threads(1) == 1
        assert set_threads(2) == 2
    finally:
        set_threads(before)


@pytest.mark.parametrize("dist, n", [(GAUSSIAN, 40), (RADEMACHER, 3), (RADEMACHER, 40)])
def test_forced_fallback_returns_the_same_values(dist, n, monkeypatch):
    mats = [sample_matrix(dist, n, seed=s) for s in range(6)]
    want = [spectral_summary(m) for m in mats]
    monkeypatch.setattr(matrices, "_openblas", lambda: None)
    assert not svd_releases_gil()
    assert [_summary_bits(spectral_summary(m)) for m in mats] == [_summary_bits(w) for w in want]


def test_lapack_failure_is_a_runtime_error_not_a_config_error(monkeypatch):
    """A nonzero LAPACK info is a numerical failure, not bad input: it must
    not be a ValueError, the base of ConfigError and RegimeError."""
    m = sample_matrix(GAUSSIAN, 5, seed=1)

    def failing_gesdd(*args):
        args[13].value = 2  # info: the bidiagonal SVD did not converge

    monkeypatch.setattr(matrices, "_openblas", lambda: matrices._OpenBLAS(failing_gesdd, lambda k: 1))
    with pytest.raises(RuntimeError, match="info=2") as caught:
        spectral_summary(m)
    assert not isinstance(caught.value, ValueError)

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(matrices, "_openblas", lambda: None)
    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(RuntimeError, match="did not converge") as caught:
        spectral_summary(m)
    assert not isinstance(caught.value, ValueError)
