"""Square random matrices and their two extreme singular values.

The experiments only ever need the largest and smallest singular value.
Each matrix costs one singular-values-only LAPACK call (dgesdd with
jobz='N'): sigma_max = s[0] and sigma_min = s[-1]. The call is backward
stable, so each computed singular value is within about c * n * eps *
sigma_max of the exact one. A matrix is flagged singular by the
rank-revealing rule sigma_min <= n * eps * sigma_max, and a flagged matrix
reports sigma_min = 0.

The driver is fixed by measurement. Serially, on 2 x86_64 vCPUs, the
benchmark's spectral workload ran at a median 141 trials/s through
numpy.linalg.svd, against 138 for scipy's gesdd and 135 for its gesvd, and
all three returned bit-identical values; but all three hold the GIL for the
whole call, so threads ran one matrix at a time. So dgesdd is called
directly through ctypes, which releases the GIL, in the ILP64 OpenBLAS that
numpy's wheels bundle. It gets the column-major copy and the optimal
workspace that numpy.linalg.svd(..., compute_uv=False) passes to the same
routine, and returns the same values bit for bit. experiments.run() maps
E1's and E2's trials over rmlab.rng.thread_map's threads, one per usable
core, each running BLAS on one thread: on the same 2 vCPUs, 16 400 x 400 matrices took 0.31 s on one
thread, 0.36 s on two threads with OpenBLAS's own threads, and 0.16 s on
two threads with one BLAS thread each. The pool threads need no setup of
their own: numpy's OpenBLAS is the pthreads build, whose thread count is
process-wide, so one_blas_thread sets it once around the pool. The
library is loaded on first use.
Where it, its symbols or its 64-bit-integer build are missing (numpy built
against macOS Accelerate or a system BLAS), the values come from
numpy.linalg.svd and run() keeps those trials serial.
"""
from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .distributions import EntryDistribution, sample
from .errors import ConfigError
from .rng import STREAM_ENTRIES, derive_stream

_N_MAX = 4096
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MatrixSample:
    n: int
    entries: np.ndarray
    dist: EntryDistribution
    seed: int


@dataclass(frozen=True)
class NormReport:
    value: float
    # A direct LAPACK call does not iterate; the iteration diagnostics are
    # constants kept for callers that read them (benchmarks/workloads.py).
    iterations: ClassVar[int] = 0
    converged: ClassVar[bool] = True


@dataclass(frozen=True)
class SpectralSummary:
    op_norm: float
    sigma_min: float
    singular_flag: bool
    # constant iteration diagnostics, as in NormReport
    op_norm_iterations: ClassVar[int] = 0
    sigma_min_iterations: ClassVar[int] = 0
    op_norm_converged: ClassVar[bool] = True
    sigma_min_converged: ClassVar[bool] = True


class _OpenBLAS(NamedTuple):
    gesdd: Callable
    set_threads: Callable[[int], int]
    config: str  # the build and the kernel in use, e.g. "... DYNAMIC_ARCH NO_AFFINITY SkylakeX ..."


_INT = ctypes.POINTER(ctypes.c_int64)
_BUF = ctypes.c_void_p
# jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, iwork, info, and the
# hidden length of the Fortran character argument jobz
_GESDD_ARGS = [
    ctypes.c_char_p, _INT, _INT, _BUF, _INT, _BUF, _BUF, _INT, _BUF, _INT, _BUF, _INT, _BUF, _INT, ctypes.c_size_t
]


@functools.cache
def _openblas() -> _OpenBLAS | None:
    """dgesdd, the thread-count setter and the config string of numpy's
    bundled ILP64 OpenBLAS, or None when the library, a symbol or USE64BITINT
    is missing."""
    found = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*"))
    try:
        lib = ctypes.CDLL(str(found[0]))  # the copy numpy already loaded
        config, gesdd = lib.scipy_openblas_get_config64_, lib.scipy_dgesdd_64_
        set_threads = lib.openblas_set_num_threads_local
    except (IndexError, OSError, AttributeError):
        return None
    config.argtypes, config.restype = [], ctypes.c_char_p
    if b"USE64BITINT" not in config().split():
        return None
    gesdd.argtypes, gesdd.restype = _GESDD_ARGS, None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
    return _OpenBLAS(gesdd, set_threads, config().decode().strip())


def svd_releases_gil() -> bool:
    """True when singular values come from the ctypes dgesdd, which runs
    outside the GIL; False on the numpy.linalg.svd fallback."""
    return _openblas() is not None


# held while a block runs with one BLAS thread, so that two such blocks on
# different threads cannot restore each other's thread count out of order
_ONE_BLAS_THREAD = threading.Lock()


@contextmanager
def one_blas_thread():
    """Run BLAS on one thread inside the block, in every thread of the
    process. Needs svd_releases_gil(). OpenBLAS's pthreads build keeps the
    count process-wide, so the threads of a pool entered in the block need
    no setup of their own, and the count in force before is restored on
    exit."""
    set_threads = _openblas().set_threads
    with _ONE_BLAS_THREAD:
        previous = set_threads(1)
        try:
            yield
        finally:
            set_threads(previous)


def _gesdd_values(gesdd: Callable, entries: np.ndarray) -> np.ndarray:
    """Singular values of a square float matrix, descending: a workspace
    query, then dgesdd with jobz='N' on a column-major copy."""
    a = np.array(entries, dtype=np.float64, order="F")  # a copy: gesdd overwrites it
    n = a.shape[0]
    s = np.empty(n)
    iwork = np.empty(8 * n, dtype=np.int64)
    dim, one, info = ctypes.c_int64(n), ctypes.c_int64(1), ctypes.c_int64(0)
    unused = ctypes.c_double()  # u and vt, not referenced for jobz='N'

    def call(work, lwork: int) -> None:
        gesdd(b"N", dim, dim, a.ctypes.data, dim, s.ctypes.data, ctypes.byref(unused), one,
              ctypes.byref(unused), one, work, ctypes.c_int64(lwork), iwork.ctypes.data, info, 1)
        if info.value:
            raise RuntimeError(f"LAPACK dgesdd returned info={info.value} for a {n}x{n} matrix")

    query = ctypes.c_double()
    call(ctypes.byref(query), -1)
    work = np.empty(max(1, int(query.value)))
    call(work.ctypes.data, work.size)
    return s


def sample_matrix(dist: EntryDistribution, n: int, seed: int) -> MatrixSample:
    """n x n matrix of i.i.d. draws, filled row-major from a seed-derived stream."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 1 <= n <= _N_MAX:
        raise ConfigError(f"dimension n={n!r} must be an integer in [1, {_N_MAX}]")
    if not isinstance(dist, EntryDistribution):
        raise ConfigError(f"dist={dist!r} must be an EntryDistribution")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"seed={seed!r} must be an integer")
    rng = derive_stream(int(seed), STREAM_ENTRIES)
    entries = sample(dist, rng, size=(int(n), int(n)))  # C-order fill is row-major
    return MatrixSample(n=int(n), entries=entries, dist=dist, seed=seed)


def spectral_summary(A) -> SpectralSummary:
    """Both extreme singular values of a MatrixSample or square array.

    sigma_min is reported as 0 with singular_flag set when
    sigma_min <= n * eps * sigma_max. Raises ConfigError for anything but a
    nonempty square matrix of finite reals, and RuntimeError when LAPACK
    reports a failure.
    """
    try:
        entries = A.entries if isinstance(A, MatrixSample) else np.asarray(A, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"expected a real square matrix: {exc}") from exc
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or not entries.size:
        raise ConfigError("expected a nonempty square matrix")
    if not np.isfinite(entries).all():
        raise ConfigError("matrix has a non-finite entry")
    lapack = _openblas()
    if lapack is not None:
        s = _gesdd_values(lapack.gesdd, entries)
    else:
        try:
            s = np.linalg.svd(entries, compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"LAPACK SVD failed: {exc}") from exc
    top, bottom = float(s[0]), float(s[-1])
    singular = bottom <= entries.shape[0] * _EPS * top
    return SpectralSummary(op_norm=top, sigma_min=0.0 if singular else bottom, singular_flag=singular)


def operator_norm(A) -> NormReport:
    """Largest singular value."""
    return NormReport(spectral_summary(A).op_norm)
