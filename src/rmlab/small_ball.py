"""Small-ball (Levy concentration) probabilities of weighted sums.

The central quantity is P(|sum_j beta_j x_j - v| < t) for i.i.d. entries
beta_j, a weight vector x, center v, and half-width t. This module provides

  - exact oracles for finite-support laws (split enumeration, the atom law
    of lattice vectors on integer keys and grid convolution, each with a
    rigorous error radius, and a float merge of the sums of other laws),
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

import contextlib
import functools
import math
from contextvars import ContextVar
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
# cells of one integer-key law array, and the smallest pattern probability
# that the key route lets a term product reach (far above float underflow)
_KEY_SPAN_LIMIT = 2**20
_PROB_FLOOR = 2.0**-1000
_SCAN_BLOCK = 64
_UNIT = 2.0**-53
# Rademacher Monte Carlo rows per chunk, and raw words per chunk at most.
# Per row a chunk holds its Philox words, one term and the table index that
# np.take casts a group's sign bytes to (336 KiB at n <= 64): fewer, larger
# chunks would hand the GIL between pool threads less often but hold more.
_CHUNK_ROWS = 14 << 10
_CHUNK_WORDS = 1 << 17
# the merged atom laws of the innermost law_table() block, per thread
_LAWS: ContextVar[dict | None] = ContextVar("rmlab_small_ball_laws", default=None)
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


def _multiples_of(values: np.ndarray, unit) -> bool:
    """Whether every value is an integer multiple of unit, exactly: np.fmod
    returns the exact remainder."""
    return not np.fmod(values, unit).any()


@functools.lru_cache(maxsize=64)
def _atom_keys(dist: EntryDistribution):
    """(z, s0, probs) with dist.support() = z * s0 exactly, z an integer
    list and s0 = min nonzero |atom|, and the atoms' probabilities as a
    list; or None when an atom is not an integer multiple of s0. Read once
    per law."""
    sup = dist.support()
    s0 = float(np.min(np.abs(sup[sup != 0.0])))
    if not _multiples_of(sup, s0):
        return None
    return (sup / s0).astype(np.int64).tolist(), s0, dist.support_probs().tolist()


def _lattice_keys(weights: np.ndarray, dist: EntryDistribution):
    """(r, z, unit, probs) with weights = r * w0 exactly, r an integer list,
    w0 = min|w|, unit = fl(w0 s0) and z, s0, probs from _atom_keys; or None
    when the law's atoms or the weights are not integer multiples, when the
    sum's key range would exceed _KEY_SPAN_LIMIT cells, or when a pattern
    probability could underflow to 0, where a reachable key would look
    unreached."""
    atoms = _atom_keys(dist)
    w0 = np.minimum.reduce(np.abs(weights))
    if atoms is None or not _multiples_of(weights, w0):
        return None
    z, s0, probs = atoms
    r = weights / w0
    span = np.add.reduce(np.abs(r)) * (z[-1] - z[0])
    if span >= _KEY_SPAN_LIMIT or min(probs) ** weights.size < _PROB_FLOOR:
        return None
    return r.astype(np.int64).tolist(), z, float(w0 * s0), probs


def _float_merged_law(weights: np.ndarray, sup: np.ndarray, sup_probs: np.ndarray, budget: int):
    """The atom law of sum_j beta_j x_j with equal float sums merged after
    each term (see _atom_law_of_sum)."""
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


def _key_law(r: list, z: list, unit: float, sup_probs: list, budget: int):
    """The atom law of sum_j r_j z(beta_j), on integer keys: one zeroed
    array over the key range per term and one slice-add per atom. A key's
    contributions are added in the order of the keys they come from, lowest
    first, which is the float merge's pattern order: for r_j > 0 the
    largest z first, for r_j < 0 the smallest first."""
    probs = np.array([1.0])
    lo = 0
    for rj in r:
        # a key array of n cells holds at most n reachable atoms
        if probs.size * len(z) > budget and np.count_nonzero(probs) * len(z) > budget:
            raise RegimeError("enumeration would exceed the atom budget")
        steps = [rj * zk for zk in z]
        first = min(steps)
        new = np.zeros(probs.size + max(steps) - first)
        atoms = range(len(z) - 1, -1, -1) if rj > 0 else range(len(z))
        for k in atoms:
            off = steps[k] - first
            new[off : off + probs.size] += sup_probs[k] * probs
        probs = new
        lo += first
    keys = np.flatnonzero(probs)
    return (keys + lo) * unit, probs[keys]


def _atom_law_of_sum(weights: np.ndarray, dist: EntryDistribution, budget: int):
    """Exact atom law (vals ascending, probs) of sum_j beta_j x_j.

    Two routes. When every weight is an integer multiple r_j of w0 = min|w|
    and every atom one z_k of s0 = min nonzero |atom| (_lattice_keys), the
    sum is convolved on the integer keys sum_j r_j z_k (_key_law). The law
    has one atom per reachable key, the true law of the float weights and
    atoms, and an atom's value fl(key fl(w0 s0)) is rounded twice, within
    gamma_2 of the exact atom. Its probabilities are added in the float
    merge's order, so where every float sum is exact (integer-valued
    lattices, all Rademacher lattice vectors of the corpora) the two routes
    give the same law bit for bit. A law with no integer key (weights or
    atoms that are not integer multiples, as on generic weights), or whose
    keys _lattice_keys turns down, keeps the float merge: the sum is
    convolved term by term and sums that are equal as floats merge into the
    first of them in pattern order (-0.0 and 0.0 are equal), their
    probabilities added from 0.0 in that order. Its atoms are float sums,
    off the exact ones by the rounding of each addition, and a lattice whose
    float sums round apart is merged into too many atoms: 16 terms of law D4
    (atoms -sqrt 2, 0, sqrt 2) on ones(16) give 79 atoms, against the 33 of
    the key route. exact_concentration gives the errors of the window mass.

    The budget caps the reachable atom count: a term that would take it
    past the budget raises RegimeError. Lattice-like weight vectors stay
    small even when support^m is astronomical, so the cap is checked against
    actual growth rather than the worst case.
    """
    keys = _lattice_keys(weights, dist)
    if keys is None:
        return _float_merged_law(weights, dist.support(), dist.support_probs(), budget)
    return _key_law(*keys, budget)


def _merged_law(weights: np.ndarray, dist: EntryDistribution, budget: int):
    """(vals, probs, keyed): _atom_law_of_sum(weights, dist, budget) and
    whether it took the integer-key route, built once per key inside a
    law_table() block on this thread and taken from the block's table after
    that; outside any block, built at every call."""
    table = _LAWS.get()
    key = (weights.tobytes(), dist, budget)
    if table is not None and key in table:
        return table[key]
    law = (
        *_atom_law_of_sum(weights, dist, budget),
        _lattice_keys(weights, dist) is not None,
    )
    if table is not None:
        table[key] = law
    return law


@contextlib.contextmanager
def law_table():
    """A block in which each merged atom law (weights, law, budget) that
    exact_concentration or halasz_integral_bound asks for is built once, on
    this thread, and dropped at the block's end: no law outlives it."""
    token = _LAWS.set({})
    try:
        yield
    finally:
        _LAWS.reset(token)


def _half_patterns(weights: np.ndarray, sup: np.ndarray, sup_probs: np.ndarray):
    """The sums and probabilities of every pattern of atoms on weights.

    Digit j of pattern p in base |support| is the atom s_j of weight w_j, its
    sum is ((0 + w_0 s_0) + w_1 s_1) + ..., added left to right, and its
    probability ((1 p(s_0)) p(s_1)) ..., multiplied left to right; both are
    built by in-place doubling.
    """
    size = sup.size ** weights.size
    sums = np.empty(size)
    probs = np.empty(size)
    sums[0], probs[0] = 0.0, 1.0
    done = 1
    for w in weights:
        # atom k's patterns go to block k; block 0 overwrites the prefix it reads, so it is last
        for k in range(sup.size - 1, -1, -1):
            np.add(sums[:done], w * sup[k], out=sums[k * done : (k + 1) * done])
            np.multiply(probs[:done], sup_probs[k], out=probs[k * done : (k + 1) * done])
        done *= sup.size
    return sums, probs


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _split_window_mass(weights: np.ndarray, dist: EntryDistribution, v: float, t: float):
    """(P(|S - v| < t), error radius, sum error e, mass error) from the
    patterns of the two halves of the weights, or None when support^m
    exceeds _ENUM_TRIAL_LIMIT or every weight is an integer multiple of the
    smallest |w| (a lattice vector, whose sums merge at once).

    The first floor(m/2) weights give the left sums a with probabilities p,
    the last ceil(m/2) the right sums b, sorted, with the cumulative
    probabilities C (C[0] = 0). Left pattern L counts the right patterns
    with key_lo(L) < b < key_hi(L), keys fl(fl(v -+ t) - a_L), found by two
    searchsorted calls, and the value is sum_L p_L (C[hi_L] - C[lo_L]). See
    exact_concentration for e, the radius and the mass error.
    """
    m = weights.size
    if _multiples_of(weights, np.minimum.reduce(np.abs(weights))):
        return None
    sup = dist.support()
    if sup.size**m > _ENUM_TRIAL_LIMIT:
        return None
    sup_probs = dist.support_probs()
    left, left_probs = _half_patterns(weights[: m // 2], sup, sup_probs)
    right, right_probs = _half_patterns(weights[m // 2 :], sup, sup_probs)
    order = np.argsort(right, kind="stable")
    right = right[order]
    cum = np.zeros(right.size + 1)
    np.cumsum(right_probs[order], out=cum[1:])
    key_lo = (v - t) - left
    key_hi = (v + t) - left
    lo = np.searchsorted(right, key_lo, side="right")
    # the keys coincide when t is below the float spacing near v - a_L: no pattern counts
    hi = np.maximum(np.searchsorted(right, key_hi, side="left"), lo)
    value = np.add.reduce(left_probs * (cum[hi] - cum[lo]))
    rounding = _gamma(m + 2) * (math.fsum(np.abs(weights)) * float(np.max(np.abs(sup))) + abs(v) + t)
    e = 3.0 * rounding
    # the bands around the two edges, [lo_a, lo_b) and [hi_a, hi_b), overlap when t < e
    lo_a = np.searchsorted(right, key_lo - e, side="left")
    lo_b = np.searchsorted(right, key_lo + e, side="right")
    hi_a = np.maximum(np.searchsorted(right, key_hi - e, side="left"), lo_b)
    hi_b = np.maximum(np.searchsorted(right, key_hi + e, side="right"), hi_a)
    radius = np.add.reduce(left_probs * ((cum[lo_b] - cum[lo_a]) + (cum[hi_b] - cum[hi_a])))
    mass_error = 2.0 * _gamma(left.size + 2 * right.size + 3 * m + 4)
    return float(value), float(radius), e, mass_error


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

    path='enumerate' takes one of three routes, each with its error.

    Split: when support^m <= 2^20 and the weights are not all integer
    multiples of the smallest |w|, the split enumeration (Horowitz and
    Sahni, J. ACM 1974) sums and weighs every pattern of the first
    floor(m/2) weights and, apart, of the last ceil(m/2); it sorts the right
    sums b with their cumulative probabilities C and adds
    sum_L p_L (C[hi_L] - C[lo_L]) over the left patterns, with lo_L and hi_L
    from searchsorted on the keys fl(fl(v -+ t) - a_L). It holds
    O(support^(m/2)) floats at any window width (about 150 KB at 2^20
    patterns), and metadata["atoms"] is the pattern count support^m.

    Integer keys: otherwise, when every weight is an integer multiple of
    w0 = min|w| and every atom one of s0 = min nonzero |atom| (a lattice
    vector and a lattice law, as all lattice queries of the calibration
    corpora are), _atom_law_of_sum convolves on integer keys: one atom per
    reachable key k, of value fl(k fl(w0 s0)), and the window adds the
    atoms with fl(|fl(val - v)|) < t. metadata["atoms"] is the atom count.

    Float merge: any other law (weights or atoms off one integer lattice
    with more than 2^20 patterns, or a lattice of more than 2^20 keys, or
    one whose pattern probabilities could underflow) is convolved term by
    term with equal float sums merged after each term. Its atoms are float
    sums, not the law's, so it returns no interval. The merged atom count
    must stay within 2^24 as terms accumulate; metadata["atoms"] is that
    count.

    The split and integer-key routes return an interval, from rounding
    bounds with u = 2^-53 and gamma_k = k u / (1 - k u) (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, sec. 3.1 and 4.2). Let
    W = sum_j |w_j| max|s| and B = |v| + t.

    On the split route, a half's sum of k products is off its exact value
    by at most gamma_k times its W, and fl(fl(v - t) - a_L) is off
    v - t - a_L by at most gamma_2 (B + W). So b_R - key_L = (S - edge) + D
    with |D| <= gamma_ceil(m/2) W + gamma_2 (B + W) <= rho =
    gamma_(m+2) (W + B): a pattern counted by this route on the wrong side
    of an edge has its exact sum S within rho of that edge. rho also bounds
    a left-to-right evaluation of the whole sum compared as
    |fl(S - v)| < t, the float merge's, so a pattern that it and this route
    decide differently lies within rho of an edge too, and its split
    position b_R - key_L within 2 rho. metadata["sum_error"] is e = 3 rho,
    which leaves rho for the rounding of the band keys key_L -+ e and of rho
    itself, and metadata["error_radius"] is the mass of the patterns whose
    split position lies within e of either edge's key. The masses, with n_L
    and n_R patterns per half: a pattern probability is within
    gamma_ceil(m/2) of its exact product, each cumulative sum C[k] within
    gamma_(n_R + m) of the right mass before k, and after the difference,
    the product with p_L and the sum over the left patterns (any order:
    gamma_(n_L)), value and radius are each within
    mass_error = 2 gamma_(n_L + 2 n_R + 3m + 4) of their exact masses.

    On the integer-key route the exact atom is a = k w0 s0, as w_j = r_j w0
    and s = z s0 hold exactly. fl(w0 s0) and fl(k fl(w0 s0)) round once
    each, so the value is within gamma_2 |a| of a, and the difference
    fl(val - v) rounds once more: it is within gamma_3 (|a| + |v|) <=
    rho = gamma_3 (W + |v|) of a - v, and an atom decided on the wrong side
    has its exact value within rho of an edge. metadata["sum_error"] is
    e = 3 rho, which leaves rho for the rounding of fl(|fl(val - v)| - t)
    and of e, and metadata["error_radius"] is the mass of the atoms with
    |fl(|fl(val - v)| - t)| <= e. An atom's probability adds products of m
    support probabilities with at most m |support| roundings, and the window
    sums at most n atoms, so value and radius are within
    mass_error = 2 gamma_(m |support| + n) of their exact masses.

    On both, the factor 2 bounds the total pattern mass, as a law's
    probabilities sum to 1 within 1e-12. So the exact value lies in the ci,
    value -+ (radius + 2 mass_error), cut at 0 below; above it is not cut at
    1, since a law's float probabilities may sum to a little more than 1.

    path='convolve' uses a grid at resolution h = t / (100 m), which keeps
    the accumulated placement drift m*h/2 well under the window scale; the
    returned metadata carries a rigorous error radius (the grid mass within
    drift+h of the window boundary) and the ci field brackets the true value
    by that radius.

    path='auto' tries enumeration first, with the atom budget of the
    integer-key and float-merge routes cut to 2^20, and falls back to the
    grid. Inside a law_table() block an atom law is built once for all of
    the block's windows.
    """
    if not q.dist.finite_support:
        raise RegimeError("continuous dist rejected; use monte_carlo_concentration")
    if path not in ("auto", "enumerate", "convolve"):
        raise ConfigError(f"unknown path {path!r}")
    weights = q.x[q.x != 0.0]
    m = weights.size
    if path != "convolve":
        split = _split_window_mass(weights, q.dist, q.v, q.t)
        if split is not None:
            value, radius, e, mass_error = split
            width = radius + 2.0 * mass_error
            return ConcentrationEstimate(
                value=value,
                method="exact",
                ci=(max(0.0, value - width), value + width),
                metadata={
                    "path": "enumeration",
                    "atoms": q.dist.support().size ** m,
                    "sum_error": e,
                    "error_radius": radius,
                    "mass_error": mass_error,
                },
            )
        # lattice-like weights merge to few atoms, so attempt enumeration
        # with a reduced budget before falling back to the grid
        budget = _ENUM_LIMIT if path == "enumerate" else _ENUM_TRIAL_LIMIT
        try:
            vals, probs, keyed = _merged_law(weights, q.dist, budget)
        except RegimeError:
            if path == "enumerate":
                raise
        else:
            gap = np.abs(vals - q.v)
            value = float(probs[gap < q.t].sum())
            if not keyed:
                return ConcentrationEstimate(
                    value=value, method="exact", metadata={"path": "enumeration", "atoms": vals.size}
                )
            z, s0, _ = _atom_keys(q.dist)
            e = 3.0 * _gamma(3) * (math.fsum(np.abs(weights)) * s0 * max(-z[0], z[-1]) + abs(q.v))
            radius = float(probs[np.abs(gap - q.t) <= e].sum())
            mass_error = 2.0 * _gamma(m * len(z) + vals.size)
            width = radius + 2.0 * mass_error
            return ConcentrationEstimate(
                value=value,
                method="exact",
                ci=(max(0.0, value - width), value + width),
                metadata={
                    "path": "enumeration",
                    "atoms": vals.size,
                    "sum_error": e,
                    "error_radius": radius,
                    "mass_error": mass_error,
                },
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


def euclidean_norm(x: np.ndarray) -> float:
    """|x|, its squares summed by numpy's own add loop in a fixed order, not
    by BLAS, so the value does not depend on the BLAS kernel."""
    return math.sqrt(np.add.reduce(x * x))


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
        return float(np.multiply.reduce(np.abs(phi(weights * (s / q.t)))))

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
    # two-sided positivity of each term at level a; every atom has positive mass
    sup = dist.support()
    terms = np.multiply.outer(x, sup)
    two_sided = (np.maximum.reduce(terms, axis=1) > a) & (np.minimum.reduce(terms, axis=1) < -a)
    if not two_sided.all():
        w = x[np.argmin(two_sided)]
        raise RegimeError(f"P(x_j beta > a) or P(x_j beta < -a) vanishes at x_j={w}")

    # the law of beta - beta'
    dvals, dprobs, _ = _merged_law(np.array([1.0, -1.0]), dist, sup.size**2)
    centers = np.multiply.outer(x, dvals)
    half = math.pi * delta
    y_lo = 1.5 * a
    y_max = 2.0 * float(np.max(np.abs(x))) * dist.support_radius() + half
    if y_lo >= y_max:
        integral = 0.0
        segments = 0
    else:
        cuts = np.concatenate([(centers - half).ravel(), (centers + half).ravel(), [y_lo, y_max]])
        cuts = np.unique(np.clip(cuts, y_lo, y_max))
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        lens = np.diff(cuts)
        inside = np.abs(mids - centers[:, :, None]) <= half
        # per segment, the count of weights whose difference atom k covers it, times its mass
        s_vals = np.add.reduce(dprobs[:, None] * np.add.reduce(inside, axis=0), axis=0)
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
    A = euclidean_norm(x)
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

