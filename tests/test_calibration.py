import math
import threading

import numpy as np
import pytest
from scipy.special import ndtr

from test_distributions import _philox_state
from rmlab import calibration, constants, small_ball
from rmlab.calibration import (
    BOUNDS,
    D3,
    D4,
    DOMINATION_BOUNDS,
    SKEW,
    BoundQuery,
    QueryResult,
    bound_value,
    build_corpus,
    evaluate_query,
    exact_value,
    fit_all,
    fit_bounds,
    sample_regular_vector,
)
from rmlab.distributions import GAUSSIAN, RADEMACHER, UNIFORM_SYM
from rmlab.errors import ConfigError, RegimeError
from rmlab.experiments import ExperimentConfig, run
from rmlab.rng import derive_stream, usable_cores
from rmlab.small_ball import esseen_bound, SmallBallQuery

STRUCTURED_SIZES = {
    "esseen": 13,
    "halasz_profile": 20,
    "halasz_integral": 20,
    "berry_esseen": 49,
}


def test_bound_names_and_frozen_constants():
    assert BOUNDS == (
        "esseen",
        "halasz_profile",
        "halasz_integral",
        "berry_esseen",
        "regular_smallball",
    )
    assert DOMINATION_BOUNDS == BOUNDS[:4]
    assert set(constants.FITTED_RAW) == set(BOUNDS)
    assert set(constants.FITTED) == set(BOUNDS)
    assert constants.CALIBRATION_MARGIN == 1.25
    for name in BOUNDS:
        assert constants.FITTED[name] == pytest.approx(
            constants.CALIBRATION_MARGIN * constants.FITTED_RAW[name], rel=1e-15
        )
        assert constants.FITTED_RAW[name] > 0
    assert constants.CALIBRATION_SEED != constants.VALIDATION_SEED


def test_calibration_laws_are_centered():
    for law in (D3, D4, SKEW):
        vals = law.support()
        probs = law.support_probs()
        assert float(probs @ vals) == pytest.approx(0.0, abs=1e-12)
        assert float(probs @ vals**2) == pytest.approx(1.0, abs=1e-12)


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery("chernoff", RADEMACHER, np.ones(2), 0.0, 0.5)


def test_query_result_ratio():
    q = BoundQuery("esseen", RADEMACHER, np.ones(2), 0.0, 0.5)
    assert QueryResult(query=q, exact=0.0, bound_value=2.0).ratio == 0.0
    assert QueryResult(query=q, exact=0.5, bound_value=2.0).ratio == 0.25


def test_exact_value_paths():
    # finite support: exact enumeration
    q = BoundQuery("esseen", RADEMACHER, np.ones(2), 0.0, 0.1)
    assert exact_value(q) == pytest.approx(0.5, abs=1e-15)
    # continuous: closed-form gaussian window
    g = BoundQuery("esseen", GAUSSIAN, np.ones(1), 0.0, 1.0)
    assert exact_value(g) == pytest.approx(2.0 * float(ndtr(1.0)) - 1.0, abs=1e-12)
    # regular_smallball: deterministic seeded estimator in [0, 1]
    x = np.full(64, 1.0 / 8.0)
    r = BoundQuery(
        "regular_smallball", RADEMACHER, x, 0.0, 0.01, q_reg=4.0, mc_seed=9
    )
    val = exact_value(r)
    assert 0.0 <= val <= 1.0
    assert exact_value(r) == val  # same mc_seed, same estimate


def test_exact_value_rejects_laws_without_closed_form():
    # P(|U| < 0.5) = 0.5 / sqrt(3) = 0.289 for the unit-variance uniform law,
    # not the Gaussian window mass 0.383, and no exact path covers it
    q = BoundQuery("esseen", UNIFORM_SYM, np.ones(1), 0.0, 0.5)
    with pytest.raises(RegimeError, match="uniform"):
        exact_value(q)


def test_bound_value_dispatch():
    q = BoundQuery("esseen", RADEMACHER, np.ones(3), 0.0, 0.7)
    direct = esseen_bound(
        SmallBallQuery(x=np.ones(3), dist=RADEMACHER, v=0.0, t=0.7)
    ).value
    assert bound_value(q) == pytest.approx(direct, rel=1e-15)
    r = BoundQuery(
        "regular_smallball", RADEMACHER, np.ones(4), 0.0, 0.02, q_reg=3.0, mc_seed=1
    )
    assert bound_value(r) == pytest.approx(0.06, rel=1e-12)


def test_structured_corpora_are_seed_invariant():
    for bound, size in STRUCTURED_SIZES.items():
        a = build_corpus(bound, seed=1, count=size)
        b = build_corpus(bound, seed=2, count=size)
        assert len(a) == len(b) == size
        for qa, qb in zip(a, b):
            assert qa.tag == qb.tag and qa.tag != "random"
            assert np.array_equal(qa.x, qb.x)
            assert qa.t == qb.t and qa.v == qb.v


def test_build_corpus_pads_with_seeded_random():
    a = build_corpus("esseen", seed=5, count=18)
    b = build_corpus("esseen", seed=5, count=18)
    c = build_corpus("esseen", seed=6, count=18)
    assert len(a) == 18
    assert sum(1 for q in a if q.tag == "random") == 5
    for qa, qb in zip(a, b):
        assert np.array_equal(qa.x, qb.x) and qa.t == qb.t
    assert any(
        not np.array_equal(qa.x, qc.x) for qa, qc in zip(a[13:], c[13:])
    )


@pytest.mark.parametrize("count", [0, -3])
def test_build_corpus_rejects_count_below_one(count):
    # a negative count would otherwise slice queries off the end of the corpus
    for bound in BOUNDS:
        with pytest.raises(ValueError, match="count"):
            build_corpus(bound, seed=5, count=count)


def test_frozen_raw_fits_reproduced_by_structured_corpus():
    # the attaining query of each non-MC bound is structured, so refitting
    # on the structured slice alone reproduces the frozen raw constant
    for bound, size in STRUCTURED_SIZES.items():
        rep = fit_bounds((bound,), seed=12345, count=size)[bound]
        assert rep.raw == pytest.approx(constants.FITTED_RAW[bound], abs=1e-8), bound
        assert len(rep.results) == size
        assert rep.bound == bound


def test_evaluate_query_returns_positive_bound():
    res = evaluate_query(BoundQuery("esseen", RADEMACHER, np.ones(2), 0.0, 0.1))
    assert res.bound_value > 0
    assert res.ratio <= constants.FITTED_RAW["esseen"] + 1e-12


def test_domination_smoke_on_structured_slice():
    # the E6 summary is the domination report of the frozen constants
    cfg = ExperimentConfig(
        experiment="E6_bound_calibration", n_list=(1,), master_seed=7, params={"per_bound": 4}
    )
    rep = run(cfg).summary["per_bound"]
    assert set(rep) == set(DOMINATION_BOUNDS)
    for bound, info in rep.items():
        assert info["count"] == 4
        assert info["dominated"]["count"] == 4
        assert info["dominated"]["freq"] == 1.0
        assert info["constant"] == constants.FITTED[bound]
        assert info["max_ratio"] <= constants.FITTED[bound]


def test_sample_regular_vector():
    x, cls = sample_regular_vector(derive_stream(50, 0), 0.004, 4.0)
    assert x.size == 64
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)
    assert cls.verdict == "regular"
    assert cls.halasz_regime
    assert cls.min_ssq <= cls.threshold
    # threshold 1.5 * 4^2.5 * 0.016 = 0.768 < 2 at n=16, so no draw is regular
    with pytest.raises(RegimeError, match="max_tries=200"):
        sample_regular_vector(derive_stream(50, 0), 0.016, 1.5, n=16)


def test_sample_regular_vector_checks_the_halasz_regime_before_drawing():
    # r/(4 pi sqrt(64)) = 0.9/(32 pi) = 0.00895 < 0.02, whatever the draw
    rng = derive_stream(50, 0)
    state = _philox_state(rng)
    with pytest.raises(RegimeError, match=r"delta=0.02 outside the Halasz regime delta <= r/\(4 pi sqrt\(n\)\)"):
        sample_regular_vector(rng, 0.02, 4.0)
    assert _philox_state(rng) == state
    with pytest.raises(ConfigError, match="delta=nan"):
        sample_regular_vector(rng, math.nan, 4.0)


def test_halasz_ceiling_is_one_formula():
    """check_halasz_regime and classify_profile's halasz_regime flag share
    the ceiling r/(4 pi sqrt(n)): both accept it and both refuse one ulp more."""
    params = calibration.REG_PARAMS
    ceiling = params.r / (4.0 * math.pi * 8.0)
    x = calibration.sample_spread_direction(64, params, derive_stream(50, 1))
    calibration.check_halasz_regime(64, ceiling)
    assert calibration.classify_profile(x, params, ceiling, 4.0).halasz_regime
    above = float(np.nextafter(ceiling, math.inf))
    with pytest.raises(RegimeError):
        calibration.check_halasz_regime(64, above)
    assert not calibration.classify_profile(x, params, above, 4.0).halasz_regime


@pytest.mark.parametrize("count", [2, 6])
def test_fit_bound_draws_each_regular_sample_once(count, monkeypatch):
    # count=6 ends in a partial group: 4 windows of one vector, 2 of the next
    corpus = build_corpus("regular_smallball", seed=3, count=count)
    assert len(corpus) == count
    keys = {(q.x.tobytes(), q.mc_seed) for q in corpus}
    assert len(keys) == (count + 3) // 4
    drawn = []
    real = calibration.sample_sums

    def counting(dist, x, n, rng):
        drawn.append(x.tobytes())
        return real(dist, x, n, rng)

    monkeypatch.setattr(calibration, "sample_sums", counting)
    rep = fit_bounds(("regular_smallball",), seed=3, count=count)["regular_smallball"]
    assert len(drawn) == len(keys) and set(drawn) == {k[0] for k in keys}
    monkeypatch.undo()
    assert len(rep.results) == count
    for q, res in zip(corpus, rep.results):
        single = evaluate_query(q)
        assert res.query.t == q.t and np.array_equal(res.query.x, q.x)
        assert res.exact == single.exact and res.bound_value == single.bound_value
    assert rep.raw == max(res.ratio for res in rep.results)


def test_fit_bound_regular_is_the_same_on_one_core_and_on_the_pool(monkeypatch):
    cores = usable_cores()
    threads = []
    real = calibration.sample_sums

    def recording(dist, x, count, rng):
        threads.append(threading.get_ident())
        return real(dist, x, count, rng)

    monkeypatch.setattr(calibration, "sample_sums", recording)
    pooled = fit_bounds(("regular_smallball",), constants.CALIBRATION_SEED, 60)["regular_smallball"]
    pooled_threads, threads[:] = set(threads), []
    monkeypatch.setattr("rmlab.rng.usable_cores", lambda: 1)
    serial = fit_bounds(("regular_smallball",), constants.CALIBRATION_SEED, 60)["regular_smallball"]
    assert set(threads) == {threading.get_ident()}  # one core: the calling thread
    assert [(r.exact, r.bound_value) for r in pooled.results] == [
        (r.exact, r.bound_value) for r in serial.results
    ]
    assert pooled.raw == serial.raw
    if cores > 1:
        assert len(pooled_threads) > 1  # the sample sets were drawn on the pool


def test_fit_all_evaluates_each_distinct_exact_value_once(monkeypatch):
    seed = constants.CALIBRATION_SEED
    calls = []
    real = calibration.exact_concentration

    def counting(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(calibration, "exact_concentration", counting)
    fits = fit_all(seed, 20)
    # 75 finite-law queries; the two Halasz corpora share their 20 structured
    # ones, and the esseen and berry_esseen corpora repeat 5 of their own
    corpora = {b: build_corpus(b, seed, 20) for b in DOMINATION_BOUNDS}
    assert sum(q.dist.finite_support for c in corpora.values() for q in c) == 75
    assert len(calls) == 50
    fit_all(seed, 20)
    assert len(calls) == 100  # no exact value outlives the call that made it
    monkeypatch.undo()
    for bound in BOUNDS:
        single = fit_bounds((bound,), seed, 20)[bound]
        pairs = [(r.exact, r.bound_value) for r in fits[bound].results]
        assert pairs == [(r.exact, r.bound_value) for r in single.results]
        assert fits[bound].raw == single.raw
        if bound in corpora:
            assert pairs == [(r.exact, r.bound_value) for r in map(evaluate_query, corpora[bound])]


def test_fit_bounds_builds_each_merged_atom_law_once(monkeypatch):
    """Within one fit_bounds call each merged atom law (weights, law, budget)
    is built once: E6's berry_esseen grid asks for one lattice law at up to
    8 windows, and every halasz_integral query for its law's difference law
    (91 builds of 39 laws without the table). A second call builds them all
    again. That every value equals its query's evaluated alone, outside any
    table, is test_e6_computes_each_distinct_exact_value_once_per_run's check
    of the same fit."""
    seed, count = constants.VALIDATION_SEED, 30
    built = []
    real = small_ball._atom_law_of_sum

    def counting(weights, dist, budget):
        built.append((weights.tobytes(), dist, budget))
        return real(weights, dist, budget)

    monkeypatch.setattr(small_ball, "_atom_law_of_sum", counting)
    fit_bounds(DOMINATION_BOUNDS, seed, count)
    assert len(built) == len(set(built)) == 39
    fit_bounds(DOMINATION_BOUNDS, seed, count)
    assert len(built) == 78  # no law outlives the call that built it
