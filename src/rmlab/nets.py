"""Covering-number formulas and explicit net constructions.

Three closed-form bounds (volumetric, spread-vector entropy, signed grid for
singular-profile coordinates) plus a farthest-point greedy constructor that
builds actual covers, so every formula can be cross-checked against a
concrete net.

The greedy constructor holds the points transposed, one C-contiguous row
per coordinate, and makes one pass of whole-row numpy calls over them per
new center into buffers allocated once; it never forms an N x N distance
array. Its l2 distance adds squared coordinate differences in coordinate
order, which for n >= 8 can differ in the last bits from numpy's pairwise
row sum (see `greedy_net`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, RegimeError
from .sphere_profile import PartitionParams, ProfileContext

VOLUMETRIC = "volumetric_formula"
VP_ENTROPY = "vp_entropy_formula"
SINGULAR_GRID = "singular_grid_formula"
GREEDY = "greedy_construction"
KINDS = frozenset({VOLUMETRIC, VP_ENTROPY, SINGULAR_GRID, GREEDY})


@dataclass(frozen=True, eq=False)
class CoveringEstimate:
    log_count: float
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}")
        if self.log_count < 0.0:
            raise ConfigError(f"log_count {self.log_count} < 0")


def log_volume(shape: str, n: int, scale: float = 1.0) -> float:
    """Natural-log volume of scale * (unit euclidean ball or side-2 cube)."""
    if shape == "euclidean_ball":
        base = (n / 2.0) * math.log(math.pi) - float(gammaln(n / 2.0 + 1.0))
    elif shape == "cube":
        base = n * math.log(2.0)
    else:
        raise ConfigError(f"unknown shape {shape!r}")
    return base + n * math.log(scale)


def _contains_scaled(K: str, D: str, t: float, n: int) -> bool:
    """Exact containment t*D subset of K for the two supported shapes."""
    if K == D:
        return t <= 1.0
    if D == "cube":  # circumradius t*sqrt(n) must fit inside the unit ball
        return t * math.sqrt(n) <= 1.0
    return t <= 1.0  # ball of radius t inside the side-2 cube (inradius 1)


def volumetric_bound(n: int, K: str, D: str, t: float) -> float:
    """log of the volumetric covering bound N(K, tD) <= 3^n |K| / |tD|."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    if not 0.0 < t < math.inf:
        raise ConfigError(f"t must be positive and finite, got t={t}")
    for shape in (K, D):
        if shape not in ("euclidean_ball", "cube"):
            raise ConfigError(f"unknown shape {shape!r}")
    if not _contains_scaled(K, D, t, n):
        raise RegimeError(f"t*D with t={t} is not contained in K ({D} in {K}, n={n})")
    return n * math.log(3.0) + log_volume(K, n) - log_volume(D, n, scale=t)


def vp_entropy_bound(n: int, r: float, R: float) -> float:
    """Entropy bound (n/R) ln(3R/r) for nets over almost-flat directions;
    ConfigError unless n >= 1 or outside PartitionParams's domain,
    RegimeError unless r < 1/2."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    PartitionParams(r=r, R=R)
    if not r < 0.5:
        raise RegimeError(f"r = {r} >= 1/2")
    return (n / R) * math.log(3.0 * R / r)


@dataclass(frozen=True, eq=False)
class GridNet:
    """Signed interval-center grid over the coordinates in j_set.

    Magnitude grid points are the centers (i + 1/2)*delta of the intervals
    (i*delta, (i+1)*delta] for i = k0 .. k0+k; each covered coordinate takes
    one center with either sign. The cardinality formula counts (2k)^l with
    l = |j_set|.
    """

    j_set: tuple[int, ...]
    delta: float
    centers: np.ndarray
    k0: int
    k: int
    log_cardinality: float


def singular_grid_net(n: int, delta: float, r: float, R: float, j_set) -> GridNet:
    """Grid net for vectors whose j_set magnitudes lie in [r/(2 sqrt n), R/sqrt n].

    Valid for (2R^3/r^2) n^{-3/2} <= delta <= n^{-1/2}; requires
    |j_set| >= m with m from the partition context. j_set is checked first:
    ConfigError for a non-integer (2.0 is one, 2.7 is not), repeated or
    out-of-range index.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    try:
        given = list(j_set)
        ints = [int(j) for j in given]
    except (TypeError, ValueError, OverflowError):  # not a sequence, nan, inf, not a number
        ints = None
    if ints is None or ints != given:
        raise ConfigError(f"j_set={j_set!r} must be a sequence of integer indices")
    j_set = tuple(ints)
    if len(set(j_set)) != len(j_set):
        raise ConfigError("j_set has repeated indices")
    if any(j < 0 or j >= n for j in j_set):
        raise ConfigError("j_set indices out of range")
    params = PartitionParams(r=r, R=R)
    if not 0.0 < delta < math.inf:
        raise ConfigError(f"delta={delta} must be positive and finite")
    lo = (2.0 * R**3 / r**2) * n**-1.5
    hi = n**-0.5
    if not (lo <= delta <= hi):
        raise RegimeError(
            f"delta = {delta} outside [(2R^3/r^2) n^(-3/2), n^(-1/2)] = [{lo}, {hi}]"
        )
    ctx = ProfileContext.from_params(n, delta, params)
    if len(j_set) < ctx.m:
        raise RegimeError(f"|j_set| = {len(j_set)} < m = {ctx.m}")
    idx = np.arange(ctx.k0, ctx.k0 + ctx.k + 1)
    centers = (idx + 0.5) * delta
    log_card = len(j_set) * math.log(2.0 * ctx.k)
    return GridNet(
        j_set=j_set,
        delta=delta,
        centers=centers,
        k0=ctx.k0,
        k=ctx.k,
        log_cardinality=log_card,
    )


def greedy_net(points, metric: str = "l2", eps: float = 1.0) -> np.ndarray:
    """Farthest-point greedy cover of the input points at radius eps.

    Deterministic: starts from the first point, repeatedly adds the point
    farthest from the chosen centers (the first index of the maximum) until
    everything is within eps, and returns the chosen rows of points.

    The points are held once transposed, as a C-contiguous (n, N) array, so
    each new center costs one pass of whole-row numpy calls over n rows of
    length N into buffers allocated once: no N x N array is formed. The l2
    distance adds the squared coordinate differences in coordinate order.
    For n < 8 that is bit for bit numpy's row sum; for n >= 8 the row sum is
    pairwise and its last bits can differ, which changes a pick only at an
    exact tie or where a distance rounds across eps. linf is exact.
    """
    if metric not in ("l2", "linf"):
        raise ConfigError(f"unknown metric {metric!r}")
    if not eps > 0:  # no distance is <= nan, so the loop below would not end
        raise ConfigError("eps must be positive")
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.ndim != 2:
        raise ConfigError(f"points must be a 1-D or 2-D array, got shape {points.shape}")
    if points.size == 0:
        raise ConfigError("points must be nonempty")
    if not np.all(np.isfinite(points)):
        # a NaN distance never drops to eps, so the loop below would not end
        raise ConfigError("points must be finite")
    cols = np.ascontiguousarray(points.T)
    diff = np.empty_like(cols)
    row = np.empty(cols.shape[1])
    dists = np.full(cols.shape[1], np.inf)
    chosen = []
    far = 0
    while True:
        chosen.append(far)
        np.subtract(cols, cols[:, far : far + 1], out=diff)
        if metric == "l2":
            np.multiply(diff, diff, out=diff)
            np.add.reduce(diff, axis=0, out=row)
            np.sqrt(row, out=row)
        else:
            np.abs(diff, out=diff)
            np.maximum.reduce(diff, axis=0, out=row)
        np.minimum(dists, row, out=dists)
        far = int(dists.argmax())
        if dists[far] <= eps:
            return points[chosen]


def greedy_estimate(points, metric: str = "l2", eps: float = 1.0) -> CoveringEstimate:
    net = greedy_net(points, metric=metric, eps=eps)
    return CoveringEstimate(
        log_count=math.log(net.shape[0]),
        kind=GREEDY,
        params={"metric": metric, "eps": eps, "n_points": int(np.asarray(points).shape[0])},
    )
