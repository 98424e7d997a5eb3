"""Calibrate-then-freeze fitting of the unnamed constants in the bounds.

Each bound mechanism is constant-free; this module pairs it with an exact
(or deterministically estimated) concentration value over a seeded corpus,
fits the constant as the maximal ratio exact/bound (fit_bounds), and checks
that the frozen constants (raw fit times a safety margin, recorded in
`rmlab.constants`) dominate a disjoint validation corpus: E6 is one
fit_bounds call over the validation corpora of DOMINATION_BOUNDS.

Corpora mix deterministic near-envelope structures (all-equal weights,
arithmetic progressions, two-scale vectors - the shapes that maximize the
ratio) with seeded random queries. The structured part is identical across
seeds, which is what makes the fit stable under reseeding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import constants
from .distributions import (
    EntryDistribution,
    GAUSSIAN,
    RADEMACHER,
    discrete,
    sample,
)
from .errors import ConfigError, RegimeError
from .rng import derive_stream, derive_substream_seed, thread_map
from .small_ball import (
    SmallBallQuery,
    berry_esseen_bound,
    empirical_sup_concentration,
    esseen_bound,
    euclidean_norm,
    exact_concentration,
    halasz_integral_bound,
    halasz_profile_bound,
    law_table,
    sample_sums,
)
from .sphere_profile import PartitionParams, classify_profile, sample_spread_direction

BOUNDS = (
    "esseen",
    "halasz_profile",
    "halasz_integral",
    "berry_esseen",
    "regular_smallball",
)
DOMINATION_BOUNDS = BOUNDS[:4]

_BOUND_STREAM = {name: 100 + i for i, name in enumerate(BOUNDS)}

# mean-zero variance-one finite laws used alongside rademacher/gaussian
D3 = discrete(((-math.sqrt(1.5), 1 / 3), (0.0, 1 / 3), (math.sqrt(1.5), 1 / 3)))
D4 = discrete(((-math.sqrt(2.0), 0.25), (0.0, 0.5), (math.sqrt(2.0), 0.25)))
SKEW = discrete(((-2.0, 0.2), (0.5, 0.8)))


@dataclass(frozen=True, eq=False)
class BoundQuery:
    bound: str
    dist: EntryDistribution
    x: np.ndarray
    v: float
    t: float
    delta: float | None = None
    a: float | None = None
    q_reg: float | None = None
    tag: str = "random"
    mc_seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.bound not in BOUNDS:
            raise ConfigError(f"unknown bound {self.bound!r}")


@dataclass(frozen=True, eq=False)
class QueryResult:
    query: BoundQuery
    exact: float
    bound_value: float

    @property
    def ratio(self) -> float:
        if self.exact == 0.0:
            return 0.0
        return self.exact / self.bound_value


@dataclass(frozen=True, eq=False)
class FitReport:
    bound: str
    seed: int
    raw: float
    results: tuple[QueryResult, ...]


def _mc_values(group: list[BoundQuery]) -> list[float]:
    """The Monte Carlo values of regular-vector queries that share (x, law,
    mc_seed), one per window t: the REG_MC_SAMPLES sums drawn from
    derive_stream(mc_seed, 0), one fresh array (1.6 MB), sorted in place and
    scanned at every window of the group."""
    first = group[0]
    sums = sample_sums(first.dist, first.x, REG_MC_SAMPLES, derive_stream(first.mc_seed, 0))
    return empirical_sup_concentration(sums, [q.t for q in group], sort_in_place=True).tolist()


def exact_value(query: BoundQuery) -> float:
    """Exact (or deterministic-estimator) concentration paired with a query.

    RegimeError for a law with neither finite support nor a closed form
    (only the Gaussian window mass is closed form here)."""
    if query.bound == "regular_smallball":
        return _mc_values([query])[0]
    if not query.dist.finite_support:
        if query.dist.kind != "gaussian":
            raise RegimeError(f"no exact window mass for the {query.dist.spec_string()} law")
        A = euclidean_norm(query.x)
        return float(ndtr((query.v + query.t) / A) - ndtr((query.v - query.t) / A))
    return exact_concentration(
        SmallBallQuery(x=query.x, dist=query.dist, v=query.v, t=query.t)
    ).value


def bound_value(query: BoundQuery) -> float:
    if query.bound == "esseen":
        return esseen_bound(
            SmallBallQuery(x=query.x, dist=query.dist, v=query.v, t=query.t)
        ).value
    if query.bound == "halasz_profile":
        return halasz_profile_bound(query.x, query.delta).value
    if query.bound == "halasz_integral":
        return halasz_integral_bound(query.x, query.dist, query.delta, query.a).value
    if query.bound == "berry_esseen":
        return berry_esseen_bound(
            SmallBallQuery(x=query.x, dist=query.dist, v=query.v, t=query.t)
        ).value
    return float(query.q_reg) * query.t


def _checked_bound(query: BoundQuery) -> float:
    b = bound_value(query)
    if not b > 0.0:
        raise RegimeError(f"degenerate corpus query: bound value {b} for {query.bound}")
    return b


def evaluate_query(query: BoundQuery) -> QueryResult:
    b = _checked_bound(query)
    return QueryResult(query=query, exact=exact_value(query), bound_value=b)


def _evaluate(queries: list[BoundQuery], exact: dict) -> tuple[QueryResult, ...]:
    """The QueryResult of each query, in order. A finite-law or Gaussian
    (x, law, v, t) already in exact, the caller's table, takes its exact
    value from there; a first-seen one goes through evaluate_query and into
    the table. A regular-vector query's bound is checked first; then each
    (x, law, mc_seed) group's sample is drawn once for all of its windows, on
    thread_map's threads, so one array of sums per thread is alive at a time."""
    # a QueryResult, or a regular-vector query's bound until its group is drawn
    out: list = []
    groups: dict[tuple, list[int]] = {}
    for i, q in enumerate(queries):
        if q.bound == "regular_smallball":
            out.append(_checked_bound(q))
            groups.setdefault((q.x.tobytes(), q.dist, q.mc_seed), []).append(i)
            continue
        key = (q.x.tobytes(), q.dist, np.array([q.v, q.t]).tobytes())
        if key in exact:
            out.append(QueryResult(q, exact[key], _checked_bound(q)))
        else:
            out.append(evaluate_query(q))
            exact[key] = out[-1].exact
    sets = list(groups.values())
    drawn = thread_map(_mc_values, [[queries[i] for i in members] for members in sets])
    for members, values in zip(sets, drawn):
        for i, value in zip(members, values):
            out[i] = QueryResult(queries[i], value, out[i])
    return tuple(out)


# ------------------------------------------------------------------- corpora


def _structured_esseen() -> list[BoundQuery]:
    out = []
    for m in (1, 2, 3, 4, 6, 8):
        # window just past the full range of the sum: exact probability 1
        out.append(
            BoundQuery(
                "esseen", RADEMACHER, np.ones(m), 0.0, m + 1e-3, tag="envelope"
            )
        )
    for t in (1.001, 1.5, 3.0):
        out.append(BoundQuery("esseen", RADEMACHER, np.ones(1), 0.0, t, tag="envelope"))
    for t in (0.05, 1.0, 3.0):
        out.append(BoundQuery("esseen", GAUSSIAN, np.ones(1), 0.0, t, tag="envelope"))
    out.append(BoundQuery("esseen", GAUSSIAN, np.ones(1), 1.0, 1.0, tag="envelope"))
    return out


def _random_esseen(rng, count: int) -> list[BoundQuery]:
    pool = (RADEMACHER, D3, D4, SKEW, GAUSSIAN)
    out = []
    for _ in range(count):
        m = int(rng.integers(1, 11))
        dist = pool[int(rng.integers(0, len(pool)))]
        if rng.integers(0, 2):
            mags = np.ones(m)
        else:
            mags = rng.uniform(0.5, 2.0, size=m)
        x = mags * sample(RADEMACHER, rng, size=m)
        scale = euclidean_norm(x)
        t = float(rng.uniform(0.2, 2.0)) * scale
        v = 0.0 if rng.integers(0, 2) else float(rng.uniform(-scale, scale))
        out.append(BoundQuery("esseen", dist, x, v, t))
    return out


def _halasz_vectors() -> list[tuple[str, np.ndarray, EntryDistribution]]:
    cases = []
    for m in (2, 4, 8, 16, 32, 64):
        cases.append(("all_ones", np.ones(m), RADEMACHER))
    for m in (4, 16):
        cases.append(("all_ones_lazy", np.ones(m), D4))
    for m in (3, 4, 7, 8, 11, 12, 15, 31, 63):
        cases.append(("progression", np.arange(1.0, m + 1.0), RADEMACHER))
    for m in (4, 8, 16):
        half = m // 2
        cases.append(("two_scale", np.concatenate([np.ones(half), 2 * np.ones(half)]), RADEMACHER))
    return cases


def _structured_halasz(bound: str) -> list[BoundQuery]:
    out = []
    for tag, x, dist in _halasz_vectors():
        delta = 0.01
        a = 0.999 * float(np.min(np.abs(x)))
        out.append(
            BoundQuery(
                bound, dist, x, 0.0, delta, delta=delta, a=a, tag=tag
            )
        )
    return out


def _two_sided_reach(dist: EntryDistribution) -> float:
    """Largest level (per unit weight) with mass strictly above and below."""
    sup = dist.support()
    pos, neg = sup[sup > 0], sup[sup < 0]
    if pos.size == 0 or neg.size == 0:
        raise RegimeError("law must have atoms of both signs")
    return float(min(pos.max(), -neg.min()))


def _random_halasz(bound: str, rng, count: int) -> list[BoundQuery]:
    pool = (RADEMACHER, SKEW)
    out = []
    for _ in range(count):
        m = int(rng.integers(4, 21))
        dist = pool[int(rng.integers(0, len(pool)))]
        band = 1.2 if rng.integers(0, 2) else 3.0
        mags = rng.uniform(1.0, band, size=m)
        x = mags * sample(RADEMACHER, rng, size=m)
        # level a must stay two-sided reachable per term and below min|x_j|
        a = 0.999 * min(1.0, _two_sided_reach(dist)) * float(np.min(mags))
        delta = float(rng.uniform(0.2, 0.9)) * a / (2.0 * math.pi)
        v = 0.0 if rng.integers(0, 2) else float(rng.uniform(-2.0, 2.0))
        out.append(BoundQuery(bound, dist, x, v, delta, delta=delta, a=a))
    return out


def _structured_berry() -> list[BoundQuery]:
    out = []
    for m in (4, 16, 64):
        x = np.ones(m) / math.sqrt(m)
        for dist in (RADEMACHER, D4):
            for t in (0.5 / math.sqrt(m), 1.0 / math.sqrt(m), 2.0 / math.sqrt(m), 0.5):
                for v in (0.0, 0.3):
                    out.append(BoundQuery("berry_esseen", dist, x, v, t, tag="grid"))
    out.append(BoundQuery("berry_esseen", GAUSSIAN, np.ones(4) / 2.0, 0.0, 0.7, tag="grid"))
    return out


def _random_berry(rng, count: int) -> list[BoundQuery]:
    pool = (RADEMACHER, SKEW, GAUSSIAN)
    out = []
    for _ in range(count):
        dist = pool[int(rng.integers(0, len(pool)))]
        m = int(rng.integers(4, 33)) if dist is GAUSSIAN else int(rng.integers(4, 21))
        mags = rng.uniform(1.0, 2.0, size=m)
        x = mags * sample(RADEMACHER, rng, size=m)
        x = x / euclidean_norm(x)
        t = float(rng.uniform(0.5, 5.0)) / math.sqrt(m)
        v = float(rng.uniform(0.0, 1.0))
        out.append(BoundQuery("berry_esseen", dist, x, v, t))
    return out


# Regular-vector regime of E3 and of the corpus below: the partition, the
# draws per vector and the Monte Carlo sums per query that
# FITTED["regular_smallball"] was fitted at; sample_spread_direction fixes
# the band.
REG_PARAMS = PartitionParams(r=0.9, R=1.3)
REG_MAX_TRIES = 200
REG_MC_SAMPLES = 200_000
_REG_N = 64


def check_halasz_regime(n: int, delta: float, name: str = "delta") -> None:
    """RegimeError unless delta <= r/(4 pi sqrt(n)) at r = REG_PARAMS.r, the
    Halasz regime that the regular-vector small-ball bound needs; ConfigError
    unless delta is positive and finite. name labels delta in the message."""
    if not 0.0 < delta < math.inf:
        raise ConfigError(f"{name}={delta!r} must be positive and finite")
    bound = REG_PARAMS.halasz_ceiling(n)
    if not delta <= bound:
        raise RegimeError(
            f"{name}={delta!r} outside the Halasz regime delta <= r/(4 pi sqrt(n))"
            f" = {REG_PARAMS.r}/(4 pi sqrt({n})) = {bound!r}"
        )


def sample_regular_vector(rng, delta: float, q: float, n: int = _REG_N):
    """Spread direction of REG_PARAMS, drawn by sample_spread_direction, that
    classify_profile calls regular, with its classification.

    The Halasz condition does not depend on the draw, so check_halasz_regime
    runs once, before the first draw; RegimeError from it, or after
    REG_MAX_TRIES rejected draws."""
    check_halasz_regime(n, delta)
    for _ in range(REG_MAX_TRIES):
        x = sample_spread_direction(n, REG_PARAMS, rng)
        cls = classify_profile(x, REG_PARAMS, delta, q)
        if cls.verdict == "regular":
            return x, cls
    raise RegimeError(f"no regular vector sampled within max_tries={REG_MAX_TRIES}")


def _regular_queries(seed: int, count: int) -> list[BoundQuery]:
    rng = derive_stream(seed, _BOUND_STREAM["regular_smallball"])
    configs = ((0.003, 3.0), (0.004, 4.0), (0.005, 6.0))
    out = []
    i = 0
    while len(out) < count:
        delta, q = configs[i % len(configs)]
        x, _ = sample_regular_vector(rng, delta, q)
        mc_seed = derive_substream_seed(seed, 7000 + i)
        for mult in (1, 2, 4, 8):
            out.append(
                BoundQuery(
                    "regular_smallball",
                    RADEMACHER,
                    x,
                    0.0,
                    mult * delta,
                    delta=delta,
                    q_reg=q,
                    mc_seed=mc_seed,
                    tag="regular",
                )
            )
        i += 1
    return out[:count]


def build_corpus(bound: str, seed: int, count: int) -> list[BoundQuery]:
    """Deterministic corpus for one bound: structured envelope plus seeded
    random queries, truncated or padded to exactly count entries."""
    if count < 1:
        raise ConfigError(f"count={count} must be at least 1")
    if bound == "regular_smallball":
        return _regular_queries(seed, count)
    rng = derive_stream(seed, _BOUND_STREAM[bound])
    if bound == "esseen":
        structured, rand = _structured_esseen(), _random_esseen
    elif bound in ("halasz_profile", "halasz_integral"):
        structured = _structured_halasz(bound)

        def rand(r, c, _b=bound):
            return _random_halasz(_b, r, c)

    elif bound == "berry_esseen":
        structured, rand = _structured_berry(), _random_berry
    else:
        raise ConfigError(f"unknown bound {bound!r}")
    if count <= len(structured):
        return structured[:count]
    return structured + rand(rng, count - len(structured))


def fit_bounds(bounds, seed: int, count: int) -> dict[str, FitReport]:
    """The FitReport of each bound, in order: its raw constant is the largest
    exact/bound ratio over build_corpus(bound, seed, count). One table of
    exact values serves the call, so an (x, law, v, t) that corpora share
    (the two Halasz corpora share their structured queries) is evaluated once,
    and one law_table() block, so a merged atom law that several windows or
    Halasz integral queries ask for is built once. Neither outlives the call."""
    exact: dict = {}
    reports = {}
    with law_table():
        for bound in bounds:
            results = _evaluate(build_corpus(bound, seed, count), exact)
            raw = max(res.ratio for res in results)
            reports[bound] = FitReport(bound=bound, seed=seed, raw=raw, results=results)
    return reports


def fit_all(
    seed: int = constants.CALIBRATION_SEED, per_bound: int = 60
) -> dict[str, FitReport]:
    """fit_bounds over every bound."""
    return fit_bounds(BOUNDS, seed, per_bound)


def stability_report() -> dict[str, dict]:
    """Refit each bound at per_bound=60 under the corpus seeds
    CALIBRATION_SEED + 1 and + 2; a bound is stable when both raw fits stay
    within 20% of its frozen raw value."""
    fits = [fit_all(constants.CALIBRATION_SEED + off, 60) for off in (1, 2)]
    out = {}
    for bound in BOUNDS:
        frozen = constants.FITTED_RAW[bound]
        refits = [fit[bound].raw for fit in fits]
        rel = [abs(v - frozen) / frozen for v in refits]
        out[bound] = {
            "frozen_raw": frozen,
            "refits": refits,
            "max_rel_drift": max(rel),
            "stable": max(rel) <= 0.20,
        }
    return out
