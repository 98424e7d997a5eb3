"""Covering-number formulas and explicit net constructions.

Three closed-form bounds (volumetric, spread-vector entropy, signed grid for
singular-profile coordinates) plus a farthest-point greedy constructor that
realizes actual covers at small dimension so every formula can be
cross-checked against a concrete net.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import RegimeError
from .sphere_profile import PartitionParams, ProfileContext

VOLUMETRIC = "volumetric_formula"
VP_ENTROPY = "vp_entropy_formula"
SINGULAR_GRID = "singular_grid_formula"
GREEDY = "greedy_construction"
KINDS = frozenset({VOLUMETRIC, VP_ENTROPY, SINGULAR_GRID, GREEDY})

_REALIZATION_DIM_MAX = 8


@dataclass(frozen=True, eq=False)
class CoveringEstimate:
    log_count: float
    kind: str
    params: dict = field(default_factory=dict)
    realization: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.log_count < 0.0:
            raise ValueError(f"log_count {self.log_count} < 0")


def log_volume(shape: str, n: int, scale: float = 1.0) -> float:
    """Natural-log volume of scale * (unit euclidean ball or side-2 cube)."""
    if shape == "euclidean_ball":
        base = (n / 2.0) * math.log(math.pi) - float(gammaln(n / 2.0 + 1.0))
    elif shape == "cube":
        base = n * math.log(2.0)
    else:
        raise ValueError(f"unknown shape {shape!r}")
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
        raise ValueError("n must be >= 1")
    if t <= 0:
        raise ValueError("t must be positive")
    for shape in (K, D):
        if shape not in ("euclidean_ball", "cube"):
            raise ValueError(f"unknown shape {shape!r}")
    if not _contains_scaled(K, D, t, n):
        raise RegimeError(f"t*D with t={t} is not contained in K ({D} in {K}, n={n})")
    return n * math.log(3.0) + log_volume(K, n) - log_volume(D, n, scale=t)


def vp_entropy_bound(n: int, r: float, R: float) -> float:
    """Entropy bound (n/R) ln(3R/r) for nets over almost-flat directions."""
    if not r < 0.5:
        raise RegimeError(f"r = {r} >= 1/2")
    if r <= 0 or R <= 1.0:
        raise ValueError("need 0 < r < 1/2 and R > 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n / R) * math.log(3.0 * R / r)


@dataclass(frozen=True, eq=False)
class GridNet:
    """Signed interval-center grid over the coordinates in j_set.

    Magnitude grid points are the centers (i + 1/2)*delta of the intervals
    (i*delta, (i+1)*delta] for i = k0 .. k0+k; each covered coordinate takes
    one center with either sign. The cardinality formula counts (2k)^l.
    """

    j_set: tuple[int, ...]
    delta: float
    centers: np.ndarray
    k0: int
    k: int
    log_cardinality: float

    @property
    def l(self) -> int:
        return len(self.j_set)

    def snap(self, y: np.ndarray) -> np.ndarray:
        """Nearest signed grid point, coordinate-wise over j_set; other
        coordinates pass through unchanged."""
        out = np.array(y, dtype=float)
        for j in self.j_set:
            idx = int(np.argmin(np.abs(self.centers - abs(out[j]))))
            sign = -1.0 if out[j] < 0 else 1.0
            out[j] = sign * self.centers[idx]
        return out

    def cell_index(self, y: np.ndarray) -> tuple:
        """Hashable identity of the grid point y snaps to."""
        key = []
        for j in self.j_set:
            idx = int(np.argmin(np.abs(self.centers - abs(y[j]))))
            key.append((idx, y[j] < 0))
        return tuple(key)


def singular_grid_net(n: int, delta: float, r: float, R: float, j_set) -> GridNet:
    """Grid net for vectors whose j_set magnitudes lie in [r/(2 sqrt n), R/sqrt n].

    Valid for (2R^3/r^2) n^{-3/2} <= delta <= n^{-1/2}; requires
    |j_set| >= m with m from the partition context.
    """
    params = PartitionParams(r=r, R=R)
    lo = (2.0 * R**3 / r**2) * n**-1.5
    hi = n**-0.5
    if not (lo <= delta <= hi):
        raise RegimeError(
            f"delta = {delta} outside [(2R^3/r^2) n^(-3/2), n^(-1/2)] = [{lo}, {hi}]"
        )
    ctx = ProfileContext.from_params(n, delta, params)
    j_set = tuple(int(j) for j in j_set)
    if len(set(j_set)) != len(j_set):
        raise ValueError("j_set has repeated indices")
    if any(j < 0 or j >= n for j in j_set):
        raise ValueError("j_set indices out of range")
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


def occupied_fraction(points: np.ndarray, net: GridNet) -> float:
    """Fraction of the formula cardinality (2k)^l actually hit when snapping
    the given points onto the grid."""
    cells = {net.cell_index(np.asarray(p, dtype=float)) for p in points}
    return len(cells) / math.exp(net.log_cardinality)


def _pairwise_dist(points: np.ndarray, center: np.ndarray, metric: str) -> np.ndarray:
    diff = points - center
    if metric == "l2":
        return np.sqrt(np.sum(diff * diff, axis=1))
    return np.max(np.abs(diff), axis=1)


def greedy_net(points, metric: str = "l2", eps: float = 1.0) -> np.ndarray:
    """Farthest-point greedy cover of the input points at radius eps.

    Deterministic: starts from the first point, repeatedly adds the point
    farthest from the chosen centers until everything is within eps.
    """
    if metric not in ("l2", "linf"):
        raise ValueError(f"unknown metric {metric!r}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    if points.size == 0:
        raise ValueError("points must be nonempty")
    if not np.all(np.isfinite(points)):
        # a NaN distance never drops to eps, so the loop below would not end
        raise ValueError("points must be finite")
    chosen = [0]
    dists = _pairwise_dist(points, points[0], metric)
    while True:
        far = int(np.argmax(dists))
        if dists[far] <= eps:
            break
        chosen.append(far)
        dists = np.minimum(dists, _pairwise_dist(points, points[far], metric))
    return points[chosen]


def greedy_estimate(points, metric: str = "l2", eps: float = 1.0) -> CoveringEstimate:
    net = greedy_net(points, metric=metric, eps=eps)
    keep = net.shape[1] <= _REALIZATION_DIM_MAX
    return CoveringEstimate(
        log_count=math.log(net.shape[0]),
        kind=GREEDY,
        params={"metric": metric, "eps": eps, "n_points": int(np.asarray(points).shape[0])},
        realization=net if keep else None,
    )
