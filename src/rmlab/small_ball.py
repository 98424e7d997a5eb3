"""Small-ball (Levy concentration) probabilities of weighted sums.

The central quantity is P(|sum_j beta_j x_j - v| < t) for i.i.d. entries
beta_j, a weight vector x, center v, and half-width t. This module provides

  - exact oracles for finite-support laws (enumeration and grid convolution
    with a rigorous error radius),
  - one Monte Carlo sum loop (`sample_sums`) and an estimator on it with
    exact binomial confidence intervals,
  - four upper-bound mechanisms: the characteristic-function integral bound,
    the pair-difference integral and profile bounds, and the
    Gaussian-comparison (Berry-Esseen) bound.

All bounds are computed constant-free; the unnamed absolute constants in
front of them are fitted once by `rmlab.calibration` and frozen in
`rmlab.constants`.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv, ndtr

from . import constants
from .distributions import (
    EntryDistribution,
    _read_top_bits,
    abs_third_moment,
    char_fn,
    sample,
    symmetrized_atoms,
)
from .errors import RegimeError
from .rng import RngStream, usable_cores
from .sphere_profile import delta_profile

_ENUM_LIMIT = 2**24
_ENUM_TRIAL_LIMIT = 2**20
_CONV_CELL_LIMIT = 2**26
_SCAN_BLOCK = 64
# Signs below which a part is not worth a thread (about 1 ms of Philox), and
# signs per chunk of a part (about 1 MB of buffers per thread); at least 256
# rows per chunk keep the adds, one numpy call per 8 coordinates, cheap.
_PART_MIN_SIGNS = 1 << 18
_CHUNK_SIGNS = 1 << 17
_CHUNK_MIN_ROWS = 256

PROBABILITY_METHODS = frozenset({"exact", "convolution", "monte_carlo"})
BOUND_METHODS = frozenset(
    {
        "esseen_bound",
        "halasz_profile_bound",
        "halasz_integral_bound",
        "berry_esseen_bound",
    }
)
METHODS = PROBABILITY_METHODS | BOUND_METHODS


@dataclass(frozen=True, eq=False)
class SmallBallQuery:
    x: np.ndarray
    dist: EntryDistribution
    v: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.x.ndim != 1 or self.x.size == 0:
            raise ValueError("x must be a nonempty 1-d weight vector")
        if not np.all(np.isfinite(self.x)) or not np.any(self.x != 0.0):
            raise ValueError("x must be finite and nonzero")
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise ValueError(f"t={self.t} must be a positive real")
        if not math.isfinite(self.v):
            raise ValueError("v must be finite")


@dataclass(frozen=True, eq=False)
class ConcentrationEstimate:
    value: float
    method: str
    ci: tuple[float, float] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method in PROBABILITY_METHODS:
            if not (-1e-12 <= self.value <= 1.0 + 1e-12):
                raise ValueError(f"probability {self.value!r} outside [0, 1]")
        elif self.value < 0.0:
            raise ValueError("bound value must be nonnegative")
        if self.ci is not None:
            lo, hi = self.ci
            if not (lo <= self.value + 1e-12 and self.value - 1e-12 <= hi):
                raise ValueError(f"ci {self.ci!r} does not bracket value {self.value!r}")


def clopper_pearson(count: int, trials: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial confidence interval for count successes in trials."""
    if not 0 <= count <= trials or trials < 1:
        raise ValueError("need 0 <= count <= trials, trials >= 1")
    lo = 0.0 if count == 0 else float(betaincinv(count, trials - count + 1, alpha / 2))
    hi = 1.0 if count == trials else float(betaincinv(count + 1, trials - count, 1 - alpha / 2))
    return lo, hi


# --------------------------------------------------------------- exact oracles


def _atom_law_of_sum(weights: np.ndarray, dist: EntryDistribution, budget: int):
    """Exact atom law of sum_j beta_j x_j by iterated convolution with merging.

    The running atom count is capped by budget: lattice-like weight vectors
    stay small after merging even when support^m is astronomical, so the cap
    is checked against actual growth rather than the worst case.
    """
    sup = dist.support()
    sup_probs = dist.support_probs()
    vals = np.array([0.0])
    probs = np.array([1.0])
    for w in weights:
        if vals.size * sup.size > budget:
            raise RegimeError("enumeration would exceed the atom budget")
        new_vals = (vals[:, None] + w * sup[None, :]).ravel()
        new_probs = (probs[:, None] * sup_probs[None, :]).ravel()
        vals, inverse = np.unique(new_vals, return_inverse=True)
        probs = np.zeros_like(vals)
        np.add.at(probs, inverse, new_probs)
    return vals, probs


def _distinct_sums(weights: np.ndarray, dist: EntryDistribution):
    """All support^m pattern sums and their probabilities, unmerged, or None.

    Pattern (s_1, ..., s_m) gets the sum ((0 + w_1 s_1) + w_2 s_2) + ... and
    the probability ((1 p_1) p_2) ..., the float operations of
    _atom_law_of_sum, built by in-place doubling. If no two sums are equal
    (-0.0 against 0.0 counts as equal), no step of _atom_law_of_sum merged
    anything, so its vals and probs are these sums sorted and their
    probabilities in that order. None when support^m exceeds
    _ENUM_TRIAL_LIMIT, when every weight is an integer multiple of the
    smallest |w| (a lattice vector, whose sums merge at once), or on a tie.
    """
    sup = dist.support()
    sup_probs = dist.support_probs()
    size = sup.size ** weights.size
    ratios = weights / np.min(np.abs(weights))
    if size > _ENUM_TRIAL_LIMIT or np.all(ratios == np.rint(ratios)):
        return None
    sums = np.empty(size)
    probs = np.empty(size)
    sums[0], probs[0] = 0.0, 1.0
    done = 1
    for w in weights:
        # atom k's patterns go to block k; block 0 overwrites the prefix it reads, so it is last
        for k in range(sup.size - 1, -1, -1):
            block = slice(k * done, (k + 1) * done)
            np.add(sums[:done], w * sup[k], out=sums[block])
            np.multiply(probs[:done], sup_probs[k], out=probs[block])
        done *= sup.size
    ordered = np.sort(sums)
    if np.any(ordered[1:] == ordered[:-1]):
        return None
    return sums, probs


def _convolve_on_grid(weights: np.ndarray, dist: EntryDistribution, h: float):
    """Grid pmf of the sum at resolution h; returns (origin_index, pmf array).

    Each term's atoms are attributed to the nearest grid multiple of h with
    halves rounded up, so a single term is displaced by at most h/2 and the
    full sum by at most len(weights) * h / 2.
    """
    sup = dist.support()
    sup_probs = dist.support_probs()
    pmf = np.array([1.0])
    origin = 0
    for w in weights:
        idxs = np.floor(w * sup / h + 0.5).astype(np.int64)
        span = int(idxs.max() - idxs.min())
        new_len = pmf.size + span
        if new_len > _CONV_CELL_LIMIT:
            raise RegimeError("instance too large for both exact paths")
        new = np.zeros(new_len)
        base = idxs - idxs.min()
        for p_s, off in zip(sup_probs, base):
            new[off : off + pmf.size] += p_s * pmf
        pmf = new
        origin += int(idxs.min())
    return origin, pmf


def exact_concentration(q: SmallBallQuery, path: str = "auto") -> ConcentrationEstimate:
    """Exact P(|sum beta_j x_j - v| < t) for finite-support laws.

    path='enumerate' builds the exact atom law in one of two ways. When
    support^m <= 2^20 and the weights are not all integer multiples of the
    smallest |w|, _distinct_sums computes every pattern's sum once and sorts
    the sums once; if no two tie, that is the atom law. Otherwise (a lattice
    vector, a tie, or more patterns) _atom_law_of_sum convolves term by term
    and merges equal sums after each term, and the merged atom count must
    stay within 2^24 as terms accumulate. Both give the same value bit for
    bit, and metadata["atoms"] is the atom count of the law.

    path='convolve' uses a grid at resolution h = t / (100 m), which keeps
    the accumulated placement drift m*h/2 well under the window scale; the
    returned metadata carries a rigorous error radius (the grid mass within
    drift+h of the window boundary) and the ci field brackets the true value
    by that radius.

    path='auto' tries enumeration first, with the merged atom budget cut to
    2^20, and falls back to the grid.
    """
    if not q.dist.finite_support:
        raise RegimeError("continuous dist rejected; use monte_carlo_concentration")
    if path not in ("auto", "enumerate", "convolve"):
        raise ValueError(f"unknown path {path!r}")
    weights = q.x[q.x != 0.0]
    m = weights.size
    if path != "convolve":
        atoms = None
        distinct = _distinct_sums(weights, q.dist)
        if distinct is not None:
            sums, probs = distinct
            inside = np.abs(sums - q.v) < q.t
            # the merged law's in-window probabilities, in the order of their sums
            value, atoms = probs[inside][np.argsort(sums[inside])].sum(), sums.size
        else:
            # lattice-like weights merge to few atoms, so attempt enumeration
            # with a reduced budget before falling back to the grid
            budget = _ENUM_LIMIT if path == "enumerate" else _ENUM_TRIAL_LIMIT
            try:
                vals, probs = _atom_law_of_sum(weights, q.dist, budget)
            except RegimeError:
                if path == "enumerate":
                    raise
            else:
                value, atoms = probs[np.abs(vals - q.v) < q.t].sum(), vals.size
        if atoms is not None:
            return ConcentrationEstimate(
                value=float(value),
                method="exact",
                metadata={"path": "enumeration", "atoms": int(atoms)},
            )
    h = q.t / (100.0 * m)
    origin, pmf = _convolve_on_grid(weights, q.dist, h)
    grid = (np.arange(pmf.size) + origin) * h
    dist_to_v = np.abs(grid - q.v)
    value = float(pmf[dist_to_v < q.t].sum())
    drift = m * h / 2.0
    radius = float(pmf[np.abs(dist_to_v - q.t) <= drift + h].sum())
    return ConcentrationEstimate(
        value=value,
        method="convolution",
        ci=(max(0.0, value - radius), min(1.0, value + radius)),
        metadata={
            "path": "convolution",
            "h": h,
            "drift_bound": drift,
            "error_radius": radius,
            "cells": int(pmf.size),
        },
    )


def _philox_ahead(state: dict, halves: int) -> np.random.Philox:
    """A new Philox left where reading `halves` half-words from a Philox in
    `state` (see distributions._read_top_bits) leaves it, pending half-word
    included. Only the last word read is computed; the rest are skipped by
    counter arithmetic."""
    bg = np.random.Philox(0)
    bg.state = state
    fresh = halves - state["has_uint32"]
    end = bg.state
    if fresh > 0:
        skip = (fresh - 1) // 2
        over = skip - (4 - state["buffer_pos"])  # words past the buffer, 4 per counter step
        if over > 0:
            bg.advance(over // 4)
            skip = over % 4
        bg.random_raw(skip)
        last = int(bg.random_raw())
        end = bg.state
        end["uinteger"] = last >> 32
    end["has_uint32"] = fresh % 2
    bg.state = end
    return bg


def _sign_tables(x: np.ndarray) -> np.ndarray:
    """T[g, c] = sum over k = 0..7, added in that order, of x[8g+k] if bit k
    of c is set, else -x[8g+k]. x is padded with zeros to a multiple of 8; a
    padded coordinate's bit is always 0, and adding -0.0 changes no sum."""
    padded = np.zeros(-(-x.size // 8) * 8)
    padded[: x.size] = x
    padded = padded.reshape(-1, 8)
    signs = 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1.0
    tables = padded[:, :1] * signs[:, 0]
    for k in range(1, 8):
        tables += padded[:, k : k + 1] * signs[:, k]
    return tables


def _rows_sums(bg, tables: np.ndarray, n: int, out: np.ndarray) -> None:
    """Write into out the sums of out.size rows of n signs read from bg."""
    state = bg.state
    tail = (state["has_uint32"], state["uinteger"])
    groups = tables.shape[0]
    rows_per = min(out.size, max(_CHUNK_MIN_ROWS, _CHUNK_SIGNS // n))
    # reused across chunks; rows padded with zero bits to whole bytes pack flat
    bits = np.empty(rows_per * n, dtype=bool)
    padded = np.zeros((rows_per, 8 * groups), dtype=bool)
    index = np.empty(groups * rows_per, dtype=np.intp)
    terms = np.empty(groups * rows_per)
    offsets = 256 * np.arange(groups)[:, None]
    for start in range(0, out.size, rows_per):
        rows = min(rows_per, out.size - start)
        tail = _read_top_bits(bg, bits[: rows * n], tail)
        padded[:rows, :n] = bits[: rows * n].reshape(rows, n)
        packed = np.packbits(padded[:rows], bitorder="little").reshape(rows, groups)
        # row g of group_terms holds T[g, b_g] of every row, so each add is contiguous
        group_index = index[: groups * rows].reshape(groups, rows)
        np.add(packed.T, offsets, out=group_index)
        group_terms = terms[: groups * rows].reshape(groups, rows)
        np.take(tables, group_index, out=group_terms, mode="clip")
        acc = out[start : start + rows]
        acc[:] = group_terms[0]
        for term in group_terms[1:]:
            acc += term


def _rademacher_sums(rng: RngStream, tables: np.ndarray, n: int, rows: int) -> np.ndarray:
    state = rng.bit_generator.state
    parts = max(1, min(usable_cores(), rows // -(-_PART_MIN_SIGNS // n)))
    bounds = [rows * k // parts for k in range(parts + 1)]
    sums = np.empty(rows)
    jobs = [
        (_philox_ahead(state, lo * n), tables, n, sums[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    # threads start on submit only, so a single part starts none
    with ThreadPoolExecutor(max(1, parts - 1)) as pool:
        futures = [pool.submit(_rows_sums, *job) for job in jobs[1:]]
        _rows_sums(*jobs[0])
        for future in futures:
            future.result()
    rng.bit_generator.state = _philox_ahead(state, rows * n).state
    return sums


def sample_sums(dist: EntryDistribution, x, count: int, rng: RngStream):
    """Yield the sums draws @ x of count i.i.d. entry vectors, one block at a time.

    A block holds at most 5e6 entries, and each yielded array of sums is
    fresh. Other laws draw the block with sample() and reduce each row
    against x with np.einsum, whose loop is numpy's own, not BLAS; a row's
    sum depends on the row and x alone, not on the block's row count or the
    BLAS thread count.

    Rademacher blocks hold no float signs. The signs are those of
    2 * rng.integers(0, 2, (rows, n)) - 1, and rng is left where that call
    leaves it. Coordinate 8g+k of a row goes to bit k of its sign byte b_g,
    and the row's sum is ((T[0, b_0] + T[1, b_1]) + T[2, b_2]) + ..., added
    left to right, with the tables T of _sign_tables built once per call.
    A block's rows are split into contiguous parts, at most one per usable
    core and each of at least _PART_MIN_SIGNS signs; each part reads its own
    Philox, placed at its first word by counter arithmetic, and the main
    thread computes one part. So the sums depend on the stream and x alone,
    not on the block size, the part count or the BLAS library.
    """
    n = x.size
    block = max(1, 5_000_000 // n)
    tables = _sign_tables(x) if dist.kind == "rademacher" else None
    for done in range(0, count, block):
        b = min(block, count - done)
        if tables is None:
            yield np.einsum("ij,j->i", sample(dist, rng, size=(b, n)), x)
        else:
            yield _rademacher_sums(rng, tables, n, b)


def monte_carlo_concentration(
    q: SmallBallQuery, trials: int, rng: RngStream
) -> ConcentrationEstimate:
    """Monte Carlo estimate with an exact-coverage 95 percent binomial ci."""
    if trials < 100:
        raise ValueError(f"trials={trials} < 100")
    count = sum(
        int(np.count_nonzero(np.abs(sums - q.v) < q.t))
        for sums in sample_sums(q.dist, q.x, trials, rng)
    )
    value = count / trials
    return ConcentrationEstimate(
        value=value,
        method="monte_carlo",
        ci=clopper_pearson(count, trials),
        metadata={"trials": trials, "count": count},
    )


def empirical_sup_concentration(samples, t):
    """Empirical sup over v of P(|S - v| < t) from a sample of S.

    Every open window of width 2t over the sample coincides with some
    half-open window anchored at a sample point, so the sliding maximum over
    anchored windows is the exact concentration function of the empirical
    measure. Monotone in t by construction.

    t is one window (a float is returned) or a 1-d array of windows (an
    array of one value per window is returned, each equal to the scalar
    call's). The sample is sorted once for all of them.

    With s sorted, anchor i counts hi(i) - i samples, hi(i) =
    searchsorted(s, s[i] + 2t). hi never decreases, so every anchor of a
    block [a, b] of _SCAN_BLOCK = 64 anchors counts at most hi(b) - a, and
    the count at each block end is exact. The scan counts the block ends
    first and then every anchor of the blocks whose bound reaches the best
    block-end count; the answer is the full scan's, bit for bit. When every
    block-end count is within 63 of the best (an evenly spaced sample, say),
    no block is skipped and the cost is the full scan plus n/64 lookups.
    """
    windows = np.asarray(t, dtype=float)
    if windows.ndim > 1 or not np.all(windows > 0):
        raise ValueError(f"t={t!r} must be positive, one window or a 1-d array of them")
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("samples must be a nonempty 1-d array")
    s = np.sort(s)
    # sorting puts -inf first and +inf and nan last
    if not (np.isfinite(s[0]) and np.isfinite(s[-1])):
        raise ValueError("samples must be finite")
    starts = np.arange(0, s.size, _SCAN_BLOCK)
    ends = np.minimum(starts + (_SCAN_BLOCK - 1), s.size - 1)
    q_hat = []
    for width in 2.0 * windows.reshape(-1):
        hi_end = np.searchsorted(s, s[ends] + width, side="left")
        # the block holding the best block end always passes, so its end is rescanned
        open_starts = starts[hi_end - starts >= np.max(hi_end - ends)]
        anchors = np.minimum((open_starts[:, None] + np.arange(_SCAN_BLOCK)).ravel(), s.size - 1)
        hi = np.searchsorted(s, s[anchors] + width, side="left")
        q_hat.append(float(np.max(hi - anchors)) / s.size)
    return q_hat[0] if windows.ndim == 0 else np.array(q_hat)


# ----------------------------------------------------------------- the bounds


def esseen_bound(q: SmallBallQuery) -> ConcentrationEstimate:
    """Characteristic-function integral bound.

    Returns c_E * integral over [-pi/2, pi/2] of prod_j |phi(x_j s / t)| ds
    with c_E = 1 reported separately in the metadata, so comparators can fit
    the constant. Adaptive quadrature at absolute tolerance 1e-8.
    """
    # the only integration in the package; importing scipy.integrate costs about 0.2 s
    from scipy.integrate import quad

    weights = q.x[q.x != 0.0]

    def integrand(s: float) -> float:
        return float(np.prod(np.abs(char_fn(q.dist, weights * (s / q.t)))))

    out = quad(
        integrand, -math.pi / 2.0, math.pi / 2.0, epsabs=1e-8, limit=400, full_output=1
    )
    integral, quad_err = out[0], out[1]
    c_esseen = 1.0
    meta = {
        "c_esseen": c_esseen,
        "integral": float(integral),
        "quad_abs_error": float(quad_err),
        "converged": bool(quad_err <= 1e-6),
    }
    return ConcentrationEstimate(
        value=c_esseen * float(integral), method="esseen_bound", metadata=meta
    )


def halasz_integral_bound(
    x, dist: EntryDistribution, delta: float, a: float
) -> ConcentrationEstimate:
    """Integral form of the pair-difference bound.

    Returns (1 / (m^{5/2} delta)) * integral_{3a/2}^{Y_max} S_delta(y)^2 dy,
    where Y_max = 2 max|x_j| * (support radius) + pi*delta, beyond which the
    integrand vanishes. S_delta is a step function of y for finite-support
    laws, so the integral is computed exactly by a breakpoint sweep. The
    additive exponentially small term of the source bound is omitted and
    recorded in metadata.
    """
    x = np.asarray(x, dtype=float)
    m = x.size
    if a <= 0:
        raise ValueError("a must be positive")
    if not dist.finite_support:
        raise RegimeError("finite-support law required for the piecewise-exact integral")
    if not (delta < a / (2.0 * math.pi)):
        raise RegimeError(f"delta {delta} >= a/(2 pi) = {a / (2.0 * math.pi)}")
    if np.any(np.abs(x) < a):
        raise RegimeError(f"min |x_j| = {np.min(np.abs(x))} < a = {a}")
    # two-sided positivity of each term at level a
    sup = dist.support()
    sup_probs = dist.support_probs()
    for w in x:
        xi = w * sup
        if sup_probs[xi > a].sum() <= 0 or sup_probs[xi < -a].sum() <= 0:
            raise RegimeError(f"P(x_j beta > a) or P(x_j beta < -a) vanishes at x_j={w}")

    dvals, dprobs = symmetrized_atoms(dist)
    centers = np.multiply.outer(x, dvals).ravel()
    weights_ = np.broadcast_to(dprobs, (m, dvals.size)).ravel()
    half = math.pi * delta
    y_lo = 1.5 * a
    y_max = 2.0 * float(np.max(np.abs(x))) * dist.support_radius() + half
    if y_lo >= y_max:
        integral = 0.0
        segments = 0
    else:
        cuts = np.concatenate([centers - half, centers + half, [y_lo, y_max]])
        cuts = np.unique(np.clip(cuts, y_lo, y_max))
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        lens = np.diff(cuts)
        inside = (np.abs(mids[None, :] - centers[:, None]) <= half)
        s_vals = weights_ @ inside
        integral = float(np.sum(s_vals**2 * lens))
        segments = int(mids.size)
    value = integral / (m**2.5 * delta)
    return ConcentrationEstimate(
        value=value,
        method="halasz_integral_bound",
        metadata={
            "integral": integral,
            "y_max": y_max,
            "segments": segments,
            "exponential_term": "omitted",
        },
    )


def halasz_profile_bound(x, delta: float) -> ConcentrationEstimate:
    """Profile form of the pair-difference bound: sum_k P_k(x, delta)^2 / m^{5/2}.

    Requires comparable weights (a = min|x_j| positive, spread ratio
    reported) and delta < a/(2 pi); constant-free, the comparator constant
    is fitted by calibration.
    """
    x = np.asarray(x, dtype=float)
    m = x.size
    ax = np.abs(x)
    a = float(np.min(ax))
    if a <= 0.0:
        raise RegimeError("min |x_j| = 0; positive weights required")
    if not (delta < a / (2.0 * math.pi)):
        raise RegimeError(f"delta {delta} >= a/(2 pi) = {a / (2.0 * math.pi)}")
    cbar = float(np.max(ax)) / a
    profile = delta_profile(x, delta)
    if profile.below_count:
        raise RegimeError(f"{profile.below_count} weights at or below delta {delta}")
    value = profile.sum_squares() / m**2.5
    return ConcentrationEstimate(
        value=value,
        method="halasz_profile_bound",
        metadata={
            "a": a,
            "cbar": cbar,
            "profile_counts": dict(sorted(profile.counts.items())),
            "m": m,
        },
    )


def berry_esseen_bound(q: SmallBallQuery) -> ConcentrationEstimate:
    """Gaussian-comparison bound: window mass under the CLT plus third-moment error.

    value = [Phi((v+t)/|x|) - Phi((v-t)/|x|)] + 2 * sum|x_j|^3 E|beta|^3 / |x|^3,
    the one-sided CDF comparison applied at both window endpoints with the
    universal constant set to 1. The comparable-weights regime
    r/sqrt(m) <= |x_j| <= R/sqrt(m) is read off x (r and R are echoed), and
    the window must satisfy t >= BERRY_ESSEEN_T_LOWER/sqrt(m).
    """
    x = q.x
    m = x.size
    ax = np.abs(x)
    sq = math.sqrt(m)
    r = float(np.min(ax)) * sq
    R = float(np.max(ax)) * sq
    if r == 0.0:
        raise RegimeError("min |x_j| = 0; positive weights required")
    coeff = constants.BERRY_ESSEEN_T_LOWER
    t_min = coeff / sq
    if q.t < t_min:
        raise RegimeError(f"t = {q.t} < {coeff}/sqrt(m) = {t_min}")
    A = float(np.linalg.norm(x))
    gaussian_mass = float(ndtr((q.v + q.t) / A) - ndtr((q.v - q.t) / A))
    be_error = 2.0 * float(np.sum(ax**3)) * abs_third_moment(q.dist) / A**3
    return ConcentrationEstimate(
        value=gaussian_mass + be_error,
        method="berry_esseen_bound",
        metadata={
            "gaussian_mass": gaussian_mass,
            "be_error": be_error,
            "universal_constant": 1.0,
            "r": r,
            "R": R,
            "t_lower": t_min,
        },
    )

