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

import functools
import math
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
from scipy.special import betaincinv, ndtr

from . import constants
from .distributions import (
    EntryDistribution,
    _char_fn_of,
    abs_third_moment,
    sample,
)
from .errors import ConfigError, RegimeError
from .rng import RngStream
from .sphere_profile import delta_profile

_ENUM_LIMIT = 2**24
_ENUM_TRIAL_LIMIT = 2**20
_CONV_CELL_LIMIT = 2**26
_SCAN_BLOCK = 64
# Pattern sums per slice of the enumeration's window scan and tie check
_SCAN_CHUNK = 1 << 14
# Rademacher Monte Carlo rows per chunk, and raw words per chunk at most.
# Per row a chunk holds its Philox words, one term and the table index that
# np.take casts a group's sign bytes to (336 KiB at n <= 64): fewer, larger
# chunks would hand the GIL between pool threads less often but hold more.
_CHUNK_ROWS = 14 << 10
_CHUNK_WORDS = 1 << 17
# where scipy keeps its compiled QUADPACK module, scipy.integrate._quadpack
_QUADPACK_DIR = Path(scipy.__file__).parent / "integrate"

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
            raise ConfigError("x must be a nonempty 1-d weight vector")
        if not np.all(np.isfinite(self.x)) or not np.any(self.x != 0.0):
            raise ConfigError("x must be finite and nonzero")
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise ConfigError(f"t={self.t} must be a positive real")
        if not math.isfinite(self.v):
            raise ConfigError("v must be finite")


@dataclass(frozen=True, eq=False)
class ConcentrationEstimate:
    value: float
    method: str
    ci: tuple[float, float] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.method in PROBABILITY_METHODS:
            if not (-1e-12 <= self.value <= 1.0 + 1e-12):
                raise ConfigError(f"probability {self.value!r} outside [0, 1]")
        elif self.value < 0.0:
            raise ConfigError("bound value must be nonnegative")
        if self.ci is not None:
            lo, hi = self.ci
            if not (lo <= self.value + 1e-12 and self.value - 1e-12 <= hi):
                raise ConfigError(f"ci {self.ci!r} does not bracket value {self.value!r}")


def clopper_pearson(count: int, trials: int) -> tuple[float, float]:
    """Exact 95% binomial confidence interval for count successes in trials."""
    if not 0 <= count <= trials or trials < 1:
        raise ConfigError("need 0 <= count <= trials, trials >= 1")
    lo = 0.0 if count == 0 else float(betaincinv(count, trials - count + 1, 0.025))
    hi = 1.0 if count == trials else float(betaincinv(count + 1, trials - count, 0.975))
    return lo, hi


# --------------------------------------------------------------- exact oracles


def _atom_law_of_sum(weights: np.ndarray, dist: EntryDistribution, budget: int):
    """Exact atom law of sum_j beta_j x_j by iterated convolution with merging.

    The running atom count is capped by budget: lattice-like weight vectors
    stay small after merging even when support^m is astronomical, so the cap
    is checked against actual growth rather than the worst case. Equal sums
    (-0.0 against 0.0 counts as equal) merge into the first of them in
    pattern order, and their probabilities are added from 0.0 in that order.
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
        # stable, so each atom's patterns stay in pattern order
        order = np.argsort(new_vals, kind="stable")
        new_vals = new_vals[order]
        first = np.empty(new_vals.size, dtype=bool)
        first[0] = True
        np.not_equal(new_vals[1:], new_vals[:-1], out=first[1:])
        vals = new_vals[first]
        probs = np.bincount(np.cumsum(first) - 1, weights=new_probs[order])
    return vals, probs


def _distinct_sums(weights: np.ndarray, dist: EntryDistribution):
    """All support^m pattern sums, unmerged, or None.

    Digit j of pattern p in base |support| is the atom s_j of weight w_j
    (j = 0 .. m-1), and the pattern's sum is ((0 + w_0 s_0) + w_1 s_1) + ...,
    the float operations of _atom_law_of_sum, built by in-place doubling.
    None when support^m exceeds _ENUM_TRIAL_LIMIT, or when every weight is
    an integer multiple of the smallest |w| (a lattice vector, whose sums
    merge at once).
    """
    sup = dist.support()
    size = sup.size ** weights.size
    ratios = weights / np.min(np.abs(weights))
    if size > _ENUM_TRIAL_LIMIT or np.all(ratios == np.rint(ratios)):
        return None
    sums = np.empty(size)
    sums[0] = 0.0
    done = 1
    for w in weights:
        # atom k's patterns go to block k; block 0 overwrites the prefix it reads, so it is last
        for k in range(sup.size - 1, -1, -1):
            np.add(sums[:done], w * sup[k], out=sums[k * done : (k + 1) * done])
        done *= sup.size
    return sums


def _pattern_probs(index: np.ndarray, sup_probs: np.ndarray, m: int) -> np.ndarray:
    """The probabilities ((1 p(s_0)) p(s_1)) ... p(s_{m-1}) of the patterns
    at index (digits as in _distinct_sums), multiplied left to right, the
    float operations of _atom_law_of_sum."""
    probs = np.ones(index.size)
    # in slices, so that the digit temporaries stay small
    for start in range(0, index.size, _SCAN_CHUNK):
        part = probs[start : start + _SCAN_CHUNK]
        rest = index[start : start + _SCAN_CHUNK].copy()
        for _ in range(m):
            part *= sup_probs[rest % sup_probs.size]
            rest //= sup_probs.size
    return probs


def _distinct_window_mass(weights: np.ndarray, dist: EntryDistribution, v: float, t: float):
    """(P(|S - v| < t), atom count) from the unmerged pattern sums, or None.

    If no two pattern sums are equal (-0.0 against 0.0 counts as equal), no
    step of _atom_law_of_sum merged anything, so its atoms are the sorted
    sums with their pattern probabilities, and adding the in-window
    probabilities in the order of their sums gives its value bit for bit.
    The in-window patterns are found in slices of _SCAN_CHUNK sums, the sums
    are then sorted in place for the tie check, and each in-window
    probability is rebuilt from its pattern index. None where _distinct_sums
    is None, and on a tie.
    """
    sums = _distinct_sums(weights, dist)
    if sums is None:
        return None
    inside = np.concatenate(
        [
            start + np.flatnonzero(np.abs(sums[start : start + _SCAN_CHUNK] - v) < t)
            for start in range(0, sums.size, _SCAN_CHUNK)
        ]
    )
    inside_sums = sums[inside]
    sums.sort()
    for start in range(0, sums.size - 1, _SCAN_CHUNK):
        chunk = sums[start : start + _SCAN_CHUNK + 1]
        if np.any(chunk[1:] == chunk[:-1]):
            return None
    order = np.argsort(inside_sums)
    del inside_sums
    inside = inside[order]
    return _pattern_probs(inside, dist.support_probs(), weights.size).sum(), sums.size


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
    the sums once; if no two tie, that is the atom law. This path holds one
    float per pattern (8 B, 8 MiB at 2^20 patterns), about 24 B per pattern
    inside the window and fixed-size scan slices; it stores no per-pattern
    probability, but rebuilds each in-window one from its pattern. Otherwise
    (a lattice vector, a tie, or more patterns) _atom_law_of_sum convolves
    term by term and merges equal sums after each term, and the merged atom
    count must stay within 2^24 as terms accumulate. Both give the same
    value bit for bit, and metadata["atoms"] is the atom count of the law.

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
        raise ConfigError(f"unknown path {path!r}")
    weights = q.x[q.x != 0.0]
    m = weights.size
    if path != "convolve":
        atoms = None
        distinct = _distinct_window_mass(weights, q.dist, q.v, q.t)
        if distinct is not None:
            value, atoms = distinct
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


def _sign_tables(x: np.ndarray) -> np.ndarray:
    """T[g, c] = sum over k = 0..7, added in that order, of x[8g+k] if bit k
    of c is set, else -x[8g+k]. x is padded with zeros to a multiple of 8; a
    padded coordinate adds +0.0 or -0.0, which changes no sum's value."""
    padded = np.zeros(-(-x.size // 8) * 8)
    padded[: x.size] = x
    padded = padded.reshape(-1, 8)
    signs = 2.0 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1.0
    tables = padded[:, :1] * signs[:, 0]
    for k in range(1, 8):
        tables += padded[:, k : k + 1] * signs[:, k]
    return tables


def _rademacher_sums(rng: RngStream, tables: np.ndarray, n: int, rows: int) -> np.ndarray:
    """Sums of `rows` rows of n signs, each row read from its own
    ceil(n/64) Philox words (see sample_sums)."""
    words = -(-n // 64)
    groups = tables.shape[0]
    rows_per = max(1, min(rows, _CHUNK_ROWS, _CHUNK_WORDS // words))
    # reused across chunks: one group's terms for every row of the chunk
    term = np.empty(rows_per)
    sums = np.empty(rows)
    for start in range(0, rows, rows_per):
        chunk = min(rows_per, rows - start)
        raw = rng.bit_generator.random_raw(chunk * words)
        sign_bytes = raw.astype("<u8", copy=False).view(np.uint8).reshape(chunk, 8 * words)
        acc = sums[start : start + chunk]
        # group 0's terms start the sums; each later group's are added
        np.take(tables[0], sign_bytes[:, 0], out=acc, mode="clip")
        for g in range(1, groups):
            np.take(tables[g], sign_bytes[:, g], out=term[:chunk], mode="clip")
            acc += term[:chunk]
        # the next chunk's words are drawn while these would still be held
        del raw, sign_bytes
    return sums


def sample_sums(dist: EntryDistribution, x, count: int, rng: RngStream) -> np.ndarray:
    """The sums draws @ x of count i.i.d. entry vectors, as one fresh array.

    The sums array is the only count-sized allocation. Other laws draw
    blocks of at most 5e6 entries with sample() and reduce each block's rows
    against x with np.einsum into their slice of it; einsum's loop is
    numpy's own, not BLAS, so a row's sum depends on the row and x alone,
    not on the block's row count or the BLAS thread count.

    Rademacher rows hold no float signs. Each row reads its own ceil(n/64)
    words with rng.bit_generator.random_raw, so the call leaves rng
    count * ceil(n/64) words on, with a pending 32-bit half-word kept for
    the next integers() call. Byte g of a row's words, viewed little-endian,
    is its sign byte b_g: bit k set means +x[8g+k], else -x[8g+k]. A bit
    past coordinate n - 1 adds a signed zero, and the bytes after
    b_{ceil(n/8)-1} are not read. The row's sum is
    ((T[0, b_0] + T[1, b_1]) + T[2, b_2]) + ..., added left to right, with
    the tables T of _sign_tables built once per call. So the sums depend on
    the stream and x alone, not on the chunk size or the BLAS library. They
    are not the sums of sample() rows, which read one half-word per sign.
    """
    n = x.size
    if dist.kind == "rademacher":
        return _rademacher_sums(rng, _sign_tables(x), n, count)
    block = max(1, 5_000_000 // n)
    sums = np.empty(count)
    for done in range(0, count, block):
        b = min(block, count - done)
        np.einsum("ij,j->i", sample(dist, rng, size=(b, n)), x, out=sums[done : done + b])
    return sums


def monte_carlo_concentration(
    q: SmallBallQuery, trials: int, rng: RngStream
) -> ConcentrationEstimate:
    """Monte Carlo estimate with an exact-coverage 95 percent binomial ci."""
    if trials < 100:
        raise ConfigError(f"trials={trials} < 100")
    sums = sample_sums(q.dist, q.x, trials, rng)
    count = int(np.count_nonzero(np.abs(sums - q.v) < q.t))
    value = count / trials
    return ConcentrationEstimate(
        value=value,
        method="monte_carlo",
        ci=clopper_pearson(count, trials),
        metadata={"trials": trials, "count": count},
    )


def empirical_sup_concentration(samples, t, sort_in_place: bool = False):
    """Empirical sup over v of P(|S - v| < t) from a sample of S.

    Every open window of width 2t over the sample coincides with some
    half-open window anchored at a sample point, so the sliding maximum over
    anchored windows is the exact concentration function of the empirical
    measure. Monotone in t by construction.

    t is one window (a float is returned) or a 1-d array of windows (an
    array of one value per window is returned, each equal to the scalar
    call's). The sample is sorted once for all of them: into a copy, or,
    with sort_in_place and a float64 samples array, in place, which leaves
    the caller's array sorted and allocates nothing of the sample's size.
    Either way the sample must be finite and nonempty and every window
    positive (ConfigError).

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
        raise ConfigError(f"t={t!r} must be positive, one window or a 1-d array of them")
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ConfigError("samples must be a nonempty 1-d array")
    if sort_in_place:
        s.sort()
    else:
        s = np.sort(s)
    # sorting puts -inf first and +inf and nan last
    if not (np.isfinite(s[0]) and np.isfinite(s[-1])):
        raise ConfigError("samples must be finite")
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


@functools.cache
def _qagse() -> Callable:
    """QUADPACK's qagse, the routine scipy.integrate.quad runs on a finite
    interval, loaded once per process from scipy's compiled module by path.
    Importing scipy.integrate itself would load optimize, sparse, spatial
    and fft with it: about 250 modules and 18 MB. Where the module cannot be
    loaded or lacks _qagse, this is the public quad, whose positional
    arguments are the same: (func, a, b, args, full_output, epsabs, epsrel,
    limit). _qagse is private to scipy, so a later release may change its
    arguments or its return tuple without the load failing; the guard is
    test_esseen_bound_matches_the_char_fn_integrand_bit_for_bit in
    tests/test_small_ball.py, which holds this route to the public quad bit
    for bit."""
    name = "scipy.integrate._quadpack"
    for suffix in EXTENSION_SUFFIXES:
        loader = ExtensionFileLoader(name, str(_QUADPACK_DIR / f"_quadpack{suffix}"))
        try:
            module = module_from_spec(spec_from_loader(name, loader))
            loader.exec_module(module)
            return module._qagse
        except (ImportError, AttributeError):
            continue
    from scipy.integrate import quad

    return quad


def esseen_bound(q: SmallBallQuery) -> ConcentrationEstimate:
    """Characteristic-function integral bound.

    Returns c_E * integral over [-pi/2, pi/2] of prod_j |phi(x_j s / t)| ds
    with c_E = 1 reported separately in the metadata, so comparators can fit
    the constant. The integral is QUADPACK's adaptive qagse at absolute
    tolerance 1e-8, relative tolerance 1.49e-8 and at most 400 subintervals,
    called directly from scipy's compiled module (see _qagse), or through
    scipy.integrate.quad where that module cannot be loaded: the same
    compiled code with the same arguments, so the same value and error bit
    for bit.
    """
    weights = q.x[q.x != 0.0]
    # |s| <= pi/2, so every point's arguments are finite when the ends' are
    if not np.all(np.isfinite(weights * (math.pi / 2.0 / q.t))):
        raise ConfigError("char_fn requires finite t")
    phi = _char_fn_of(q.dist)

    def integrand(s: float) -> float:
        return float(np.prod(np.abs(phi(weights * (s / q.t)))))

    # args, full_output, epsabs, epsrel and limit, in quad's positional order
    out = _qagse()(integrand, -math.pi / 2.0, math.pi / 2.0, (), 1, 1e-8, 1.49e-8, 400)
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
    if not np.all(np.isfinite(x)):
        raise ConfigError("x must be finite")
    if not 0.0 < a < math.inf:
        raise ConfigError(f"a must be positive and finite, got a={a}")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ConfigError(f"delta={delta} must be a positive real")
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

    # the law of beta - beta'
    dvals, dprobs = _atom_law_of_sum(np.array([1.0, -1.0]), dist, sup.size**2)
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
    if not np.all(np.isfinite(x)):
        raise ConfigError("x must be finite")
    ax = np.abs(x)
    a = float(np.min(ax))
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ConfigError(f"delta={delta} must be a positive real")
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

