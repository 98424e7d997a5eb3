"""Sphere partition, bin profiles, and the exact regular/singular classifier.

A unit vector is split by coordinate size: V_P (mass concentrated on a few
large coordinates) versus V_S (spread). Spread vectors get a bin profile of
their mid-sized coordinates at resolution delta, and an exact integer
minimizer decides whether some half-subset of those coordinates has a flat
enough profile (regular) or not (singular). The same minimizer drives the
balls-in-urns concentration experiment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .distributions import RADEMACHER, sample
from .errors import ConfigError, RegimeError
from .rng import RngStream

_UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class PartitionParams:
    """Split parameters r < 1 < R (defaults: the recorded config values) and
    the thresholds they set at dimension n, each computed only here."""

    r: float = constants.DEFAULT_R_LOWER
    R: float = constants.DEFAULT_R_UPPER

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise ConfigError(f"r={self.r} must be in (0, 1)")
        if not 1.0 < self.R < math.inf:
            raise ConfigError(f"R={self.R} must be > 1 and finite")

    def floor(self, n: int) -> float:
        """Annulus floor r/(2 sqrt(n)), the least |x_j| counted in J(x)."""
        return self.r / (2.0 * math.sqrt(n))

    def cap(self, n: int) -> float:
        """Coordinate cap R/sqrt(n): sigma(x) and J(x) hold the |x_j| at most this."""
        return self.R / math.sqrt(n)

    def m(self, n: int) -> int:
        """Least size ceil(r^2 n / (2 R^2)) of J(x) for a spread vector x."""
        return math.ceil((self.r**2 / (2.0 * self.R**2)) * n)

    def halasz_ceiling(self, n: int) -> float:
        """Largest delta of the Halasz regime, r/(4 pi sqrt(n))."""
        return self.r / (4.0 * math.pi * math.sqrt(n))


@dataclass(frozen=True)
class ProfileContext:
    """Bin geometry at dimension n and resolution delta.

    k0 is the largest integer with k0*delta < r/(2 sqrt(n)); the k+1
    consecutive bins (j*delta, (j+1)*delta], j = k0..k0+k, cover the annulus
    [r/(2 sqrt(n)), R/sqrt(n)]; m is the guaranteed annulus population
    ceil(r^2/(2 R^2) * n).
    """

    n: int
    delta: float
    k0: int
    k: int
    m: int

    @classmethod
    def from_params(cls, n: int, delta: float, params: PartitionParams) -> "ProfileContext":
        if n < 1:
            raise ConfigError("n must be >= 1")
        if not 0.0 < delta < math.inf:
            raise ConfigError(f"delta={delta} must be positive and finite")
        a = params.floor(n)
        if not math.isfinite(a / delta):
            raise ConfigError(f"delta={delta} too fine: r/(2 sqrt(n)) / delta overflows")
        k0 = max(0, math.ceil(a / delta) - 1)
        # a / delta can round across an integer (n=225, delta=0.001); one step
        # makes k0 * delta < a <= (k0 + 1) * delta hold in floating point
        if k0 > 0 and k0 * delta >= a:
            k0 -= 1
        elif (k0 + 1) * delta < a:
            k0 += 1
        k = math.ceil((params.R - params.r / 2.0) / (math.sqrt(n) * delta))
        m = params.m(n)
        # either check fails only when delta is too fine for floats to
        # resolve bins of width delta
        if not k0 * delta < a <= (k0 + 1) * delta:
            raise ConfigError(f"delta={delta} too fine: bin k0={k0} misses r/(2 sqrt(n))={a}")
        if (k0 + k + 1) * delta < params.cap(n):
            raise ConfigError(f"delta={delta} too fine: bins up to {k0 + k} stop short of R/sqrt(n)")
        return cls(n=n, delta=delta, k0=k0, k=k, m=m)


@dataclass(frozen=True)
class DeltaProfile:
    """Bin counts of |x_j| at resolution delta.

    counts[k] = |{j : |x_j| in (k*delta, (k+1)*delta]}| for k >= 1; only
    nonzero bins are stored. Coordinates with |x_j| <= delta are excluded
    from the profile and reported in below_count.
    """

    delta: float
    counts: dict[int, int]
    below_count: int

    def sum_squares(self) -> int:
        return sum(c * c for c in self.counts.values())


@dataclass(frozen=True)
class ProfileClassification:
    sphere_class: str            # "V_P" | "V_S"
    sigma_set: tuple[int, ...]
    j_set: tuple[int, ...]
    min_ssq: int
    verdict: str                 # "regular" | "singular"
    threshold: float
    kept_per_bin: dict[int, int]
    profile: DeltaProfile
    context: ProfileContext
    halasz_regime: bool          # False when delta > r/(4 pi sqrt(n))

    def to_json_dict(self) -> dict:
        return {
            "sphere_class": self.sphere_class,
            "sigma_set": list(self.sigma_set),
            "j_set": list(self.j_set),
            "min_ssq": self.min_ssq,
            "verdict": self.verdict,
            "threshold": self.threshold,
            "kept_per_bin": {str(k): v for k, v in sorted(self.kept_per_bin.items())},
            "profile_counts": {str(k): v for k, v in sorted(self.profile.counts.items())},
            "below_count": self.profile.below_count,
            "n": self.context.n,
            "delta": self.context.delta,
            "k0": self.context.k0,
            "k": self.context.k,
            "m": self.context.m,
            "halasz_regime": self.halasz_regime,
        }


def _check_unit(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not abs(np.linalg.norm(x) - 1.0) <= _UNIT_NORM_TOL:  # a nan fails too
        raise ConfigError(f"non-unit input: |x| = {np.linalg.norm(x)!r}")
    return x


def classify_sphere(x, params: PartitionParams) -> tuple[str, np.ndarray]:
    """Assign a unit vector to V_P or V_S.

    sigma(x) = {i : |x_i| <= R/sqrt(n)}; the vector is peaked (V_P) when the
    mass on sigma(x) is below r, else spread (V_S). Indices are 0-based.
    """
    x = _check_unit(x)
    sigma = np.flatnonzero(np.abs(x) <= params.cap(x.size))
    small_mass = float(np.linalg.norm(x[sigma])) if sigma.size else 0.0
    cls = "V_P" if small_mass < params.r else "V_S"
    return cls, sigma


def delta_profile(x, delta: float) -> DeltaProfile:
    """Bin counts of |x_j| over (k*delta, (k+1)*delta], k >= 1.

    A coordinate exactly at a bin boundary k*delta lands in bin k-1
    (half-open on the left).
    """
    if not delta > 0:
        raise ConfigError("delta must be positive")
    ax = np.abs(np.asarray(x, dtype=float))
    below = int(np.count_nonzero(ax <= delta))
    big = ax[ax > delta]
    bins = np.ceil(big / delta).astype(int) - 1
    counts: dict[int, int] = {}
    for b in bins:
        counts[int(b)] = counts.get(int(b), 0) + 1
    return DeltaProfile(delta=delta, counts=counts, below_count=below)


def min_half_subset_ssq(occupancy, keep: int) -> tuple[int, tuple[int, ...]]:
    """Exact minimum of sum c_i^2 over integers 0 <= c_i <= occupancy_i, sum c_i = keep.

    Water filling, exact for separable convex objectives: L is the smallest
    level with sum min(occupancy_i, L) >= keep; every bin takes
    min(occupancy_i, L - 1) and the remaining units go one each to the
    lowest-index bins with occupancy_i >= L. Returns (min_ssq, kept_per_bin)
    with kept_per_bin aligned to the input order, all Python ints.
    ConfigError for a count that is not an integer (2.0 is one, 2.7 is not).
    """
    integral = isinstance(occupancy, np.ndarray) and np.can_cast(occupancy.dtype, np.int64)
    if integral and occupancy.ndim == 1:
        occ = occupancy.astype(np.int64)
    else:
        counts = list(occupancy)
        try:
            ints = [int(c) for c in counts]
        except (TypeError, ValueError, OverflowError):  # nan, inf, not a number
            ints = None
        if ints != counts:
            raise ConfigError("occupancy counts must be integers")
        occ = np.array(ints, dtype=np.int64)
    if np.any(occ < 0):
        raise ConfigError("occupancy counts must be nonnegative")
    if keep < 0:
        raise ConfigError("keep must be nonnegative")
    total = int(occ.sum())
    if keep > total:
        raise ConfigError(f"infeasible: keep={keep} > total occupancy {total}")
    lo, hi = 0, int(occ.max(initial=0))
    while lo < hi:
        mid = (lo + hi) // 2
        if int(np.minimum(occ, mid).sum()) >= keep:
            hi = mid
        else:
            lo = mid + 1
    counts = np.minimum(occ, max(lo - 1, 0))
    counts[np.flatnonzero(occ >= lo)[: keep - int(counts.sum())]] += 1
    kept = tuple(counts.tolist())
    # sum c_i^2 <= max c_i * keep, so below 2^63 no int64 square or sum wraps
    if lo * int(keep) < 2**63:
        return int(np.dot(counts, counts)), kept
    return sum(c * c for c in kept), kept


def classify_profile(
    x,
    params: PartitionParams,
    delta: float,
    Q: float,
) -> ProfileClassification:
    """Exact regular/singular decision for a spread unit vector.

    Restricts x to J(x) = {j : r/(2 sqrt(n)) <= |x_j| <= R/sqrt(n)}, bins
    those coordinates at resolution delta, and
    minimizes sum of squared bin counts over subsets of ceil(m/2)
    coordinates (bin-level minimization is exact because coordinates
    sharing a bin are interchangeable). Verdict is regular iff the minimum
    is <= Q * m^(5/2) * delta.

    delta above r/(4 pi sqrt(n)) is allowed but flagged via halasz_regime,
    since the downstream bounds need that inequality.
    """
    if not 1.0 < Q < math.inf:
        raise ConfigError(f"Q={Q} must be > 1 and finite")
    sphere_class, sigma = classify_sphere(x, params)  # checks that x is a unit vector
    if sphere_class == "V_P":
        raise RegimeError("x is in V_P; profile classification applies to V_S only")
    return _classify_spread(np.asarray(x, dtype=float), sigma, params, delta, Q)


def _classify_spread(x: np.ndarray, sigma: np.ndarray, params, delta: float, Q: float) -> ProfileClassification:
    """classify_profile of a unit float vector x that classify_sphere has
    already put in V_S with the set sigma; Q is > 1 and finite."""
    n = x.size
    ctx = ProfileContext.from_params(n, delta, params)
    ax = np.abs(x)
    J = np.flatnonzero((ax >= params.floor(n)) & (ax <= params.cap(n)))
    if J.size < ctx.m:  # the partition geometry rules this out for a V_S vector
        raise AssertionError(f"internal consistency: |J(x)| = {J.size} < m = {ctx.m}")
    profile = delta_profile(x[J], delta)
    halasz_regime = delta <= params.halasz_ceiling(n)

    bin_keys = sorted(profile.counts)
    occupancy = [profile.counts[b] for b in bin_keys]
    keep = math.ceil(ctx.m / 2)
    if keep > sum(occupancy):
        # only reachable outside the flagged regime boundary, where
        # coordinates of J may fall below delta and leave the profile
        raise RegimeError(
            f"only {sum(occupancy)} binned coordinates on J(x) but ceil(m/2)={keep};"
            " delta too coarse for this vector"
        )
    min_ssq, kept = min_half_subset_ssq(occupancy, keep)
    threshold = Q * ctx.m**2.5 * delta
    return ProfileClassification(
        sphere_class="V_S",
        sigma_set=tuple(int(i) for i in sigma),
        j_set=tuple(int(i) for i in J),
        min_ssq=int(min_ssq),
        verdict="regular" if min_ssq <= threshold else "singular",
        threshold=float(threshold),
        kept_per_bin={b: c for b, c in zip(bin_keys, kept) if c > 0},
        profile=profile,
        context=ctx,
        halasz_regime=halasz_regime,
    )


# ---- allocation experiment (balls in urns) ----------------------------------


def sample_allocation(l: int, k: int, rng: RngStream) -> np.ndarray:
    """Occupancy of l i.i.d. uniform draws over k bins: k nonnegative counts
    summing to l."""
    if not (1 <= k <= l):
        raise ConfigError(f"need 1 <= k <= l, got k={k}, l={l}")
    return np.bincount(rng.integers(0, k, size=l), minlength=k)


# ---- direction samplers ------------------------------------------------------


def sample_spread_direction(n: int, params: PartitionParams, rng: RngStream) -> np.ndarray:
    """Unit vector in V_S with every |x_j| near 1/sqrt(n).

    Magnitudes are drawn uniformly from (0.9, 1.1)/sqrt(n), the band that
    FITTED["regular_smallball"] was fitted in, with random signs, and the
    vector is normalized. ConfigError unless the band sits strictly inside
    (r/2, R), i.e. R > 1.1, so normalization drift cannot leave the annulus.
    """
    lo, hi = 0.9, 1.1
    if not (params.r / 2.0 < lo < hi < params.R):
        raise ConfigError(f"band ({lo}, {hi}) not inside (r/2, R) = ({params.r/2}, {params.R})")
    mags = rng.uniform(lo / math.sqrt(n), hi / math.sqrt(n), size=n)
    signs = sample(RADEMACHER, rng, size=n)
    x = mags * signs
    x /= np.linalg.norm(x)
    cls, _ = classify_sphere(x, params)
    if cls != "V_S":
        raise AssertionError("spread sampler produced a V_P vector")
    return x


def sample_peaked_direction(
    n: int, params: PartitionParams, rng: RngStream
) -> np.ndarray:
    """Unit vector in V_P: one spike above R/sqrt(n) plus small residual mass."""
    rho = rng.uniform(0.0, 0.9 * params.r)
    spike = math.sqrt(1.0 - rho**2)
    if spike <= params.cap(n):
        raise RegimeError(f"n={n} too small: spike {spike:.4f} <= R/sqrt(n) = {params.cap(n):.4f}")
    j = int(rng.integers(0, n))
    x = np.zeros(n)
    if n > 1 and rho > 0:
        g = rng.standard_normal(n - 1)
        g *= rho / np.linalg.norm(g)
        x[np.arange(n) != j] = g
    sign = 1.0 if rng.integers(0, 2) else -1.0
    x[j] = sign * spike
    x /= np.linalg.norm(x)
    cls, _ = classify_sphere(x, params)
    if cls != "V_P":
        raise AssertionError("peaked sampler produced a V_S vector")
    return x
