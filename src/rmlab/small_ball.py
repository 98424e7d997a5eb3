"""Small-ball (Levy concentration) probabilities of weighted sums.

The central quantity is P(|sum_j beta_j x_j - v| < t) for i.i.d. entries
beta_j, a weight vector x, center v, and half-width t. This module provides

  - exact oracles for finite-support laws (enumeration and grid convolution
    with a rigorous error radius),
  - one Monte Carlo sum loop (`sample_sums`) and an estimator on it with
    exact binomial confidence intervals,
  - four upper-bound mechanisms: the characteristic-function integral bound,
    the pair-difference integral and profile bounds, the Gaussian-comparison
    (Berry-Esseen) bound, plus the product-space tensorization formula.

All bounds are computed constant-free; the unnamed absolute constants in
front of them are fitted once by `rmlab.calibration` and frozen in
`rmlab.constants`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import betaincinv, ndtr

from . import constants
from .distributions import (
    EntryDistribution,
    abs_third_moment,
    char_fn,
    sample,
    symmetrized_atoms,
)
from .errors import RegimeError
from .rng import RngStream
from .sphere_profile import delta_profile

_ENUM_LIMIT = 2**24
_ENUM_TRIAL_LIMIT = 2**20
_CONV_CELL_LIMIT = 2**26

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

    path='enumerate' builds the exact atom law (the merged atom count must
    stay within 2^24 as terms accumulate). path='convolve' uses a grid at
    resolution h = t / (100 m), which keeps the accumulated placement drift
    m*h/2 well under the window scale; the returned metadata carries a
    rigorous error radius (the grid mass within drift+h of the window
    boundary) and the ci field brackets the true value by that radius.
    path='auto' prefers enumeration when feasible.
    """
    if not q.dist.finite_support:
        raise RegimeError("continuous dist rejected; use monte_carlo_concentration")
    if path not in ("auto", "enumerate", "convolve"):
        raise ValueError(f"unknown path {path!r}")
    weights = q.x[q.x != 0.0]
    m = weights.size
    if path != "convolve":
        # lattice-like weights merge to few atoms, so attempt enumeration
        # with a reduced budget before falling back to the grid
        budget = _ENUM_LIMIT if path == "enumerate" else _ENUM_TRIAL_LIMIT
        try:
            vals, probs = _atom_law_of_sum(weights, q.dist, budget)
        except RegimeError:
            if path == "enumerate":
                raise
        else:
            value = float(probs[np.abs(vals - q.v) < q.t].sum())
            return ConcentrationEstimate(
                value=value,
                method="exact",
                metadata={"path": "enumeration", "atoms": int(vals.size)},
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


def sample_sums(dist: EntryDistribution, x, count: int, rng: RngStream):
    """Yield the sums draws @ x of count i.i.d. entry vectors, one block at a time.

    A block draws at most 5e6 entries. The values of draws @ x can change in
    the last bit when the block's row count changes, so every Monte Carlo
    caller goes through this one loop.
    """
    n = x.size
    block = max(1, 5_000_000 // n)
    done = 0
    while done < count:
        b = min(block, count - done)
        yield sample(dist, rng, size=(b, n)) @ x
        done += b


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


def empirical_sup_concentration(samples, t: float) -> float:
    """Empirical sup over v of P(|S - v| < t) from a sample of S.

    Every open window of width 2t over the sample coincides with some
    half-open window anchored at a sample point, so the sliding maximum over
    anchored windows is the exact concentration function of the empirical
    measure. Monotone in t by construction.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    s = np.sort(np.asarray(samples, dtype=float))
    hi = np.searchsorted(s, s + 2.0 * t, side="left")
    return float(np.max(hi - np.arange(s.size))) / s.size


# ----------------------------------------------------------------- the bounds


def esseen_bound(q: SmallBallQuery) -> ConcentrationEstimate:
    """Characteristic-function integral bound.

    Returns c_E * integral over [-pi/2, pi/2] of prod_j |phi(x_j s / t)| ds
    with c_E = 1 reported separately in the metadata, so comparators can fit
    the constant. Adaptive quadrature at absolute tolerance 1e-8.
    """
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


def s_delta(
    x,
    dist: EntryDistribution,
    delta: float,
    y: float,
    trials: int = 200_000,
    rng: RngStream | None = None,
    return_ci: bool = False,
):
    """Pair-difference window count S_delta(y).

    S_delta(y) = sum_j P(x_j (beta_j - beta_j') in [y - pi*delta, y + pi*delta]),
    with beta' an independent copy. Exact via the symmetrized atom law for
    finite-support laws; Monte Carlo (optionally with a normal-approximation
    ci) for continuous laws, which require an rng.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=float)
    lo = y - math.pi * delta
    hi = y + math.pi * delta
    if dist.finite_support:
        dvals, dprobs = symmetrized_atoms(dist)
        total = 0.0
        for w in x:
            scaled = w * dvals
            total += float(dprobs[(scaled >= lo) & (scaled <= hi)].sum())
        return (total, (total, total)) if return_ci else total
    if rng is None:
        raise ValueError("continuous dist needs an rng for the Monte Carlo path")
    total = 0.0
    var = 0.0
    for w in x:
        diffs = w * (sample(dist, rng, size=trials) - sample(dist, rng, size=trials))
        p_hat = float(np.count_nonzero((diffs >= lo) & (diffs <= hi))) / trials
        total += p_hat
        var += p_hat * (1.0 - p_hat) / trials
    if not return_ci:
        return total
    half = 1.96 * math.sqrt(var)
    return total, (max(0.0, total - half), total + half)


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


def berry_esseen_bound(
    q: SmallBallQuery,
    r: float | None = None,
    R: float | None = None,
    t_lower_coeff: float | None = None,
) -> ConcentrationEstimate:
    """Gaussian-comparison bound: window mass under the CLT plus third-moment error.

    value = [Phi((v+t)/|x|) - Phi((v-t)/|x|)] + 2 * sum|x_j|^3 E|beta|^3 / |x|^3,
    the one-sided CDF comparison applied at both window endpoints with the
    universal constant set to 1. Valid in the comparable-weights regime
    r/sqrt(m) <= |x_j| <= R/sqrt(m) and for windows t >= coeff/sqrt(m); when
    (r, R) are not declared they are inferred from x and echoed.
    """
    x = q.x
    m = x.size
    ax = np.abs(x)
    sq = math.sqrt(m)
    inferred = r is None and R is None
    if inferred:
        r = float(np.min(ax)) * sq
        R = float(np.max(ax)) * sq
    if r is None or R is None or not (0.0 < r <= R):
        raise ValueError("need 0 < r <= R")
    slack = 1e-12
    if np.any(ax < r / sq - slack) or np.any(ax > R / sq + slack):
        raise RegimeError(
            f"weights outside [r/sqrt(m), R/sqrt(m)] = [{r / sq}, {R / sq}]"
        )
    coeff = constants.BERRY_ESSEEN_T_LOWER if t_lower_coeff is None else t_lower_coeff
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
            "r_R_inferred": inferred,
            "t_lower": t_min,
        },
    )


def tensorization_bound(L: float, delta: float, n: int, coeff: float | None = None) -> float:
    """Product-space bound (coeff * L * delta)^n for an n-vector of independent
    coordinates each with one-dimensional small-ball constant L."""
    if L <= 0 or delta <= 0:
        raise ValueError("L and delta must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    c = constants.TENSORIZATION_COEFF if coeff is None else coeff
    return float((c * L * delta) ** n)
