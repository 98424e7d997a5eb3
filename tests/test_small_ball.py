import bisect
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    float_merged_law,
    fraction_atom_law,
    fraction_concentration,
    product_concentration,
    window_sup_probability,
)
from test_distributions import _philox_state
from rmlab import calibration, constants, small_ball
from rmlab.distributions import GAUSSIAN, RADEMACHER, char_fn, discrete, parse_dist_spec, sample
from rmlab.errors import ConfigError, RegimeError
from rmlab.rng import derive_stream
from rmlab.small_ball import (
    ConcentrationEstimate,
    SmallBallQuery,
    berry_esseen_bound,
    clopper_pearson,
    empirical_sup_concentration,
    esseen_bound,
    exact_concentration,
    halasz_integral_bound,
    halasz_profile_bound,
    monte_carlo_concentration,
    sample_sums,
)

SQRT2 = math.sqrt(2.0)
SKEW = discrete(((-2.0, 0.2), (0.5, 0.8)))


def rademacher_query(x, v=0.0, t=0.5) -> SmallBallQuery:
    return SmallBallQuery(x=np.asarray(x, dtype=float), dist=RADEMACHER, v=v, t=t)


# ---------------------------------------------------------------- containers


def test_query_validation():
    with pytest.raises(ValueError):
        SmallBallQuery(x=np.array([]), dist=RADEMACHER, v=0.0, t=0.5)
    with pytest.raises(ValueError):
        SmallBallQuery(x=np.zeros(3), dist=RADEMACHER, v=0.0, t=0.5)
    with pytest.raises(ValueError):
        SmallBallQuery(x=np.ones(3), dist=RADEMACHER, v=0.0, t=0.0)
    with pytest.raises(ValueError):
        SmallBallQuery(x=np.ones(3), dist=RADEMACHER, v=math.inf, t=0.5)
    with pytest.raises(ValueError):
        SmallBallQuery(x=np.ones((2, 2)), dist=RADEMACHER, v=0.0, t=0.5)


def test_estimate_validation():
    with pytest.raises(ValueError):
        ConcentrationEstimate(value=0.5, method="bogus")
    with pytest.raises(ValueError):
        ConcentrationEstimate(value=1.5, method="exact")
    with pytest.raises(ValueError):
        ConcentrationEstimate(value=-0.1, method="esseen_bound")
    with pytest.raises(ValueError):
        ConcentrationEstimate(value=0.5, method="monte_carlo", ci=(0.6, 0.9))
    # bound values above 1 are legitimate
    assert ConcentrationEstimate(value=2.0, method="esseen_bound").value == 2.0


def test_clopper_pearson_reference():
    lo, hi = clopper_pearson(5, 10)
    assert lo == pytest.approx(0.187086, abs=1e-5)
    assert hi == pytest.approx(0.812914, abs=1e-5)
    assert clopper_pearson(0, 20)[0] == 0.0
    assert clopper_pearson(20, 20)[1] == 1.0
    with pytest.raises(ValueError):
        clopper_pearson(5, 4)


# -------------------------------------------------------------- exact oracles


def test_exact_concentration_frozen_values():
    q = rademacher_query([1 / SQRT2, 1 / SQRT2], v=0.0, t=0.1)
    assert exact_concentration(q).value == pytest.approx(0.5, abs=1e-15)
    q = rademacher_query([0.5, 0.5, 0.5, 0.5], v=0.0, t=0.5)
    assert exact_concentration(q).value == pytest.approx(0.375, abs=1e-15)
    q = rademacher_query([1.0], v=1.0, t=0.5)
    assert exact_concentration(q).value == pytest.approx(0.5, abs=1e-15)


def test_exact_concentration_enumeration_merges_lattice():
    q = rademacher_query(np.ones(30), v=0.0, t=1.0)
    out = exact_concentration(q, path="enumerate")
    assert out.method == "exact"
    assert out.metadata["atoms"] == 31  # lattice sums merge to m+1 atoms
    # central binomial term: P(S_30 = 0) = C(30,15)/2^30
    assert out.value == pytest.approx(math.comb(30, 15) / 2**30, rel=1e-12)


def test_exact_concentration_convolution_brackets_truth():
    q = rademacher_query([1 / SQRT2, 1 / SQRT2], v=0.0, t=0.1)
    out = exact_concentration(q, path="convolve")
    assert out.method == "convolution"
    lo, hi = out.ci
    assert lo <= 0.5 <= hi
    assert out.metadata["error_radius"] < 0.01
    assert out.value == pytest.approx(0.5, abs=out.metadata["error_radius"] + 1e-15)


def test_exact_concentration_auto_falls_back_to_grid():
    # incommensurate weights have no integer keys, and 2^22 patterns are too many to split
    rng = derive_stream(31, 0)
    x = rng.uniform(0.9, 1.1, size=22)
    out = exact_concentration(SmallBallQuery(x=x, dist=RADEMACHER, v=0.0, t=1.0))
    assert out.method == "convolution"
    mc = monte_carlo_concentration(
        SmallBallQuery(x=x, dist=RADEMACHER, v=0.0, t=1.0), 20_000, derive_stream(31, 1)
    )
    lo, hi = out.ci
    assert mc.ci[0] - 0.01 <= hi and lo <= mc.ci[1] + 0.01


def test_exact_concentration_rejects_continuous_and_bad_path():
    q = SmallBallQuery(x=np.ones(3), dist=GAUSSIAN, v=0.0, t=0.5)
    with pytest.raises(RegimeError):
        exact_concentration(q)
    with pytest.raises(ValueError):
        exact_concentration(rademacher_query([1.0]), path="fft")


@given(
    weights=st.lists(
        st.floats(min_value=0.1, max_value=2.0, allow_nan=False), min_size=1, max_size=6
    ),
    v=st.floats(min_value=-2.0, max_value=2.0),
    t=st.floats(min_value=0.05, max_value=1.5),
)
@settings(max_examples=150, deadline=None)
def test_exact_concentration_matches_product_oracle(weights, v, t):
    q = SmallBallQuery(x=np.array(weights), dist=SKEW, v=v, t=t)
    out = exact_concentration(q, path="enumerate")
    vals = [a[0] for a in SKEW.atoms]
    probs = [a[1] for a in SKEW.atoms]
    expected = product_concentration(vals, probs, np.array(weights), v, t)
    assert out.value == pytest.approx(expected, abs=1e-12)


FINITE_LAWS = (RADEMACHER, calibration.D3, calibration.D4, SKEW)


def _merging_value(vals, probs, v, t) -> float:
    return float(probs[np.abs(vals - v) < t].sum())


def _window_on_atoms(vals, data):
    """(v, t, whether an edge is on an atom): a window centred on an atom
    with an edge on another, or (data None) on the second atom with an edge
    on the last; t = 0.5 when the two atoms drawn are one."""
    i, j = (1, vals.size - 1) if data is None else (
        data.draw(st.integers(0, vals.size - 1), label=k) for k in "ij"
    )
    t = abs(vals[j] - vals[i])
    return vals[i], t or 0.5, t > 0


@given(
    dist=st.sampled_from(FINITE_LAWS),
    weights=st.lists(
        st.floats(min_value=0.1, max_value=2.0) | st.floats(min_value=-2.0, max_value=-0.1),
        min_size=2,
        max_size=11,
    ),
    repeat=st.booleans(),
    zeros=st.integers(min_value=0, max_value=2),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
@example(dist=SKEW, weights=[0.3, 1.7, -0.9], repeat=False, zeros=0, data=None)
@example(dist=calibration.D3, weights=[0.3, 1.7, -0.9], repeat=True, zeros=1, data=None)
def test_split_enumeration_ci_holds_the_merging_law_value(dist, weights, repeat, zeros, data):
    """On generic weights the split enumeration's ci holds the value of the
    float-merged atom law (oracles.float_merged_law), whose float sums and
    window test differ from the split path's. A repeated weight makes sums
    that tie in exact arithmetic; m <= 12. The windows have an edge on an atom, where
    the two routes may decide an atom differently, so the radius must cover
    that atom's mass: it is positive there."""
    if repeat:
        weights = weights + weights[:1]
    x = np.array(weights[:1] + [0.0] * zeros + weights[1:])
    w = x[x != 0.0]
    assume(small_ball._lattice_keys(w, dist) is None)  # a lattice vector takes integer keys
    vals, probs = float_merged_law(w, dist.support(), dist.support_probs())
    v, t, edge_on_atom = _window_on_atoms(vals, data)
    out = exact_concentration(SmallBallQuery(x=x, dist=dist, v=v, t=t))
    meta = out.metadata
    assert meta["path"] == "enumeration" and meta["atoms"] == dist.support().size ** w.size
    lo, hi = out.ci
    assert lo <= out.value <= hi
    assert lo <= _merging_value(vals, probs, v, t) <= hi
    if edge_on_atom:
        assert meta["error_radius"] > 0.0


@given(
    numerators=st.lists(st.integers(min_value=-63, max_value=63).filter(bool), min_size=2, max_size=16),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
@example(numerators=[3, 2, -5, 7], data=None)
def test_split_enumeration_equals_the_merging_law_on_dyadic_weights(numerators, data):
    """Rademacher weights k/16: every pattern sum, key and probability is a
    dyadic float computed without rounding, so the split path and the merged
    law decide every pattern alike and add exact masses, and their values
    agree bit for bit, also with an edge exactly on an atom (where a closed
    edge would count it)."""
    w = np.array(numerators, dtype=float) / 16.0
    assume(small_ball._lattice_keys(w, RADEMACHER) is None)
    vals, probs = float_merged_law(w, RADEMACHER.support(), RADEMACHER.support_probs())
    v, t, _ = _window_on_atoms(vals, data)
    out = exact_concentration(SmallBallQuery(x=w, dist=RADEMACHER, v=v, t=t))
    assert out.ci is not None  # the split path
    assert out.value.hex() == _merging_value(vals, probs, v, t).hex()


def _split_reference(x, dist, v, t) -> float:
    """The split enumeration's value from its definition, pattern by pattern
    in Python floats: pattern sums and probabilities left to right, the
    right half stably sorted by sum with its running probability, and per
    left pattern the right mass between the keys (v - t) - a and
    (v + t) - a, the terms added by np.add.reduce in left-pattern order."""
    sup, probs = dist.support().tolist(), dist.support_probs().tolist()

    def patterns(weights):
        out = [(0.0, 1.0)]
        for w in weights.tolist():
            out = [(s + w * a, p * q) for a, q in zip(sup, probs) for s, p in out]
        return out

    half = x.size // 2
    right = sorted(patterns(x[half:]), key=lambda pattern: pattern[0])
    sums = [s for s, _ in right]
    cum = [0.0]
    for _, p in right:
        cum.append(cum[-1] + p)
    terms = []
    for a, p in patterns(x[:half]):
        lo = bisect.bisect_right(sums, (v - t) - a)
        hi = max(bisect.bisect_left(sums, (v + t) - a), lo)
        terms.append(p * (cum[hi] - cum[lo]))
    return float(np.add.reduce(np.array(terms)))


@pytest.mark.parametrize("m", [8, 12, 16])
@pytest.mark.parametrize("t", [0.5, 1.0])
def test_exact_enumeration_adds_skew_window_mass_in_sum_order(m, t):
    """SKEW atom probabilities differ in size, so the order of the additions
    shows in the last bits: the value is the split enumeration's, which adds
    each right pattern's mass in the order of the right sums, bit for bit."""
    x = derive_stream(37, m).uniform(0.5, 2.0, m)
    out = exact_concentration(SmallBallQuery(x=x, dist=SKEW, v=0.0, t=t))
    assert out.value.hex() == _split_reference(x, SKEW, 0.0, t).hex()
    assert out.metadata["atoms"] == 2**m


@pytest.mark.parametrize("dist", [SKEW, calibration.D3], ids=["2 atoms", "3 atoms"])
def test_pattern_probabilities_rebuilt_from_the_index_equal_the_merging_law(dist):
    """Digit j of a pattern's index, in base |support|, is weight j's atom;
    its sum adds the terms left to right and its probability multiplies the
    atoms' left to right. On generic weights, where nothing merges, these
    are the float-merged law's atoms and probabilities in the order of the
    pattern sums, bit for bit."""
    x = derive_stream(38, dist.support().size).uniform(0.5, 2.0, 9)
    sums, probs = small_ball._half_patterns(x, dist.support(), dist.support_probs())
    vals, merged = float_merged_law(x, dist.support(), dist.support_probs())
    order = np.argsort(sums)
    assert vals.size == sums.size == dist.support().size ** x.size
    assert sums[order].tobytes() == vals.tobytes()
    assert probs[order].tobytes() == merged.tobytes()


@pytest.mark.parametrize("t", [0.5, 3.0])
def test_split_enumeration_memory_stays_small_at_any_window(t):
    """A generic m = 20 query enumerates 2^20 patterns from two halves of
    2^10: its traced peak stays under 256 KiB, fixed before the first run,
    against 8 MiB for the 2^20 pattern sums, at a narrow and a wide window."""
    x = derive_stream(39, 0).uniform(0.5, 2.0, 20)
    q = SmallBallQuery(x=x, dist=RADEMACHER, v=0.0, t=t)
    first = exact_concentration(q)
    assert first.metadata["atoms"] == 2**20
    tracemalloc.start()
    try:
        again = exact_concentration(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.value == first.value
    assert peak <= 256 << 10, peak


@pytest.mark.parametrize(
    "x, dist, atoms",
    [
        (np.ones(12), RADEMACHER, 13),
        (np.ones(12), SKEW, 13),
        (np.arange(1.0, 9.0), RADEMACHER, 37),
        (np.arange(1.0, 9.0) * 0.25, RADEMACHER, 37),
        (np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]), RADEMACHER, 13),
    ],
)
def test_lattice_vectors_report_merged_atom_counts(x, dist, atoms):
    out = exact_concentration(SmallBallQuery(x=x, dist=dist, v=0.0, t=0.5))
    assert (out.metadata["path"], out.metadata["atoms"]) == ("enumeration", atoms)
    assert out.ci is not None  # the integer-key route carries its error


def test_lattice_law_of_a_lazy_law_has_one_atom_per_key():
    """16 terms of D4 (atoms -sqrt 2, 0, sqrt 2 of mass 1/4, 1/2, 1/4) on
    ones(16) are 32 Rademacher signs over sqrt 2: 33 atoms, and |S| < sqrt 2
    holds only S = 0, of mass C(32, 16) / 4^16. The float sums of k sqrt 2
    round apart, and merging them as floats gave 79 atoms and 0.1530."""
    out = exact_concentration(SmallBallQuery(x=np.ones(16), dist=calibration.D4, v=0.0, t=SQRT2))
    assert out.metadata["atoms"] == 33
    assert out.value == math.comb(32, 16) / 4**16
    lo, hi = out.ci
    assert lo <= Fraction(math.comb(32, 16), 4**16) <= hi


def _keyed_weights(numerators) -> np.ndarray:
    """Integer weights with a 1 among them, so that every weight is an
    integer multiple of the smallest |w| and the law takes the key route."""
    return np.array([1] + numerators, dtype=float)


@given(
    dist=st.sampled_from(FINITE_LAWS),
    numerators=st.lists(st.integers(min_value=-4, max_value=4).filter(bool), max_size=7),
    scale=st.sampled_from([1.0, 0.375]),
)
@settings(max_examples=100, deadline=None)
def test_integer_key_law_equals_the_rational_law(dist, numerators, scale):
    """m <= 8: the key route's law has the atoms of the exact rational law,
    one each and in order. An atom's value key * fl(w0 s0) is rounded twice,
    so it lies within gamma_2 of the exact atom, and its probability adds
    products of m support probabilities, so it lies within gamma_(m |support|)
    of the exact mass; both are exact on dyadic values (Rademacher, and D4's
    probabilities)."""
    w = _keyed_weights(numerators) * scale
    sup, sup_probs = dist.support(), dist.support_probs()
    assert small_ball._lattice_keys(w, dist) is not None
    vals, probs = small_ball._atom_law_of_sum(w, dist)
    exact = sorted(fraction_atom_law(sup, sup_probs, w).items())
    assert vals.size == len(exact)
    value_error, mass_error = small_ball._gamma(2), small_ball._gamma(w.size * sup.size)
    for val, p, (atom, mass) in zip(vals.tolist(), probs.tolist(), exact):
        assert abs(Fraction(val) - atom) <= value_error * abs(atom)
        assert abs(Fraction(p) - mass) <= mass_error * mass
        if dist is RADEMACHER:
            assert (Fraction(val), Fraction(p)) == (atom, mass)


# an integer-valued law with three atoms and probabilities that are not dyadic
INTEGER3 = discrete(((-3.0, 1 / 18), (0.0, 8 / 9), (3.0, 1 / 18)))


@pytest.mark.parametrize("dist", [RADEMACHER, INTEGER3], ids=["rademacher", "integer3"])
@pytest.mark.parametrize(
    "x", [x for _, x, _ in calibration._halasz_vectors()], ids=lambda x: f"{x[0]:g}..{x[-1]:g}x{x.size}"
)
def test_integer_key_law_is_the_float_merge_on_the_calibration_lattices(x, dist):
    """Every sum of a Halasz corpus vector under an integer-valued law is an
    exact float, so the float merge (oracles.float_merged_law) is right
    there too, and the key route adds each atom's probabilities in its
    order: the laws agree bit for bit. With three atoms a key adds three
    rounded terms, so that order shows."""
    assert small_ball._lattice_keys(x, dist) is not None
    vals, probs = small_ball._atom_law_of_sum(x, dist)
    merged_vals, merged_probs = float_merged_law(x, dist.support(), dist.support_probs())
    assert vals.tobytes() == merged_vals.tobytes()
    assert probs.tobytes() == merged_probs.tobytes()


def test_a_lattice_of_more_than_2_20_keys_takes_the_split_route():
    """Weights 1 and 2^21 span more than 2^20 keys for 4 atoms, so they take
    no integer keys; the split enumeration counts the 4 patterns, all exact
    floats, and holds the value in its ci."""
    x = np.array([1.0, 2.0**21])
    assert small_ball._lattice_keys(x, RADEMACHER) is None
    out = exact_concentration(SmallBallQuery(x=x, dist=RADEMACHER, v=2.0**21, t=2.0))
    assert (out.metadata["path"], out.metadata["atoms"]) == ("enumeration", 4)
    assert out.value == 0.5
    lo, hi = out.ci
    assert lo <= 0.5 <= hi


def test_keys_whose_mass_underflows_are_dropped_within_the_ci():
    """At m = 500 SKEW's extreme keys have masses down to 0.2^500, below the
    smallest subnormal: the key route still takes the law, drops the keys
    whose mass underflowed to 0 and keeps the reachable rest, and its ci
    holds the exact values of the windows at the bottom and in the middle,
    where the dropped mass is within the ci's underflow term."""
    x = np.ones(500)
    assert small_ball._lattice_keys(x, SKEW) is not None
    vals, probs = small_ball._atom_law_of_sum(x, SKEW)
    assert 490 < vals.size < 501 and probs.min() > 0.0
    for v, t in ((-1000.0, 2.5), (0.0, 3.0)):
        out = exact_concentration(SmallBallQuery(x=x, dist=SKEW, v=v, t=t))
        # the sum is 2.5 k - 1000 for k atoms 0.5: the windows hold k = 0 and k = 399, 400, 401
        keys = [0] if v < 0 else [399, 400, 401]
        exact = sum(math.comb(500, k) * Fraction(0.8) ** k * Fraction(0.2) ** (500 - k) for k in keys)
        lo, hi = out.ci
        assert out.metadata["atoms"] == vals.size and lo <= exact <= hi


@given(
    dist=st.sampled_from(FINITE_LAWS),
    numerators=st.lists(st.integers(min_value=-5, max_value=5).filter(bool), max_size=9),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
@example(dist=calibration.D4, numerators=[1] * 9, data=None)
@example(dist=calibration.D3, numerators=[2, -3, 5], data=None)
def test_integer_key_ci_holds_the_rational_value(dist, numerators, data):
    """m <= 10, a window with an edge on an atom of the exact rational law
    (centre and half-width rounded to floats): the exact value of the float
    weights, atoms and probabilities lies in the key route's ci, and the
    radius is positive, since the computed edge atom is within e of the
    edge. Where an atom rounds to the other side of the edge, a radius of the
    atoms computed exactly on an edge alone misses it."""
    w = _keyed_weights(numerators)
    sup, sup_probs = dist.support(), dist.support_probs()
    atoms = np.array(sorted(fraction_atom_law(sup, sup_probs, w)), dtype=object)
    v, t, edge_on_atom = _window_on_atoms(atoms, data)
    v, t = float(v), float(t)
    out = exact_concentration(SmallBallQuery(x=w, dist=dist, v=v, t=t))
    meta = out.metadata
    assert (meta["path"], meta["atoms"]) == ("enumeration", atoms.size)
    lo, hi = out.ci
    assert lo <= fraction_concentration(sup, sup_probs, w, v, t) <= hi
    if edge_on_atom:
        assert meta["error_radius"] > 0.0


# mean 0, variance 1, atoms -3 s and 2 s for s = 1/sqrt 6: neither |atom|
# is an integer multiple of the other, so no weights give it integer keys
RATIO = parse_dist_spec("discrete:-1.224744871391589:0.4,0.816496580927726:0.6")


@given(
    dist=st.sampled_from((RADEMACHER, SKEW, calibration.D4, RATIO)),
    numerators=st.lists(st.integers(min_value=-4, max_value=4).filter(bool), max_size=9),
    generic=st.booleans(),
    path=st.sampled_from(("auto", "enumerate", "convolve")),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
@example(dist=RATIO, numerators=[1] * 7, generic=False, path="auto", data=None)
@example(dist=RATIO, numerators=[1] * 7, generic=False, path="enumerate", data=None)
@example(dist=SKEW, numerators=[2, -3, 1], generic=True, path="convolve", data=None)
def test_every_route_returns_a_ci_that_holds_the_rational_value(dist, numerators, generic, path, data):
    """m <= 10 on lattice weights (integer keys under the three lattice laws,
    the split enumeration under RATIO) and m <= 8 on generic ones (the split
    enumeration; the rational law of 3^10 generic patterns takes seconds),
    through all three paths, with an edge on an atom of the exact rational
    law: every answer has a ci, and it holds the exact value of the float
    weights, atoms and probabilities. Merging equal float sums, 8 ones under
    RATIO were off in 14 of 18 such windows, by up to 0.090, with no ci."""
    w = _keyed_weights(numerators)
    if generic:
        w = w[:8] * np.sqrt(np.arange(2.0, min(w.size, 8) + 2.0))
    sup, sup_probs = dist.support(), dist.support_probs()
    atoms = np.array(sorted(fraction_atom_law(sup, sup_probs, w)), dtype=object)
    v, t, _ = _window_on_atoms(atoms, data)
    v, t = float(v), float(t)
    out = exact_concentration(SmallBallQuery(x=w, dist=dist, v=v, t=t), path=path)
    assert out.ci is not None
    lo, hi = out.ci
    assert lo <= fraction_concentration(sup, sup_probs, w, v, t) <= hi


def test_grid_ci_holds_the_rational_value_with_an_edge_on_an_atom():
    """24 ones under RATIO through the grid, centred on each of the 25 atoms
    with an edge 1, 2 or 3 atoms away: the grid's ci holds the exact value
    in all 75 windows. Without the mass-rounding term 2 mass_error it missed
    the 3 centred on the top atom, by 2e-20 to 1e-18: there the edge atom
    lies inside the rational window, and the exact value is the grid's
    value plus its radius but for the rounding of the grid's masses."""
    w = np.ones(24)
    sup, sup_probs = RATIO.support(), RATIO.support_probs()
    law = fraction_atom_law(sup, sup_probs, w)
    atoms = sorted(law)
    for i, atom in enumerate(atoms):
        for d in (1, 2, 3):
            other = atoms[i + d] if i + d < len(atoms) else atoms[i - d]
            v, t = Fraction(float(atom)), Fraction(float(abs(other - atom)))
            out = exact_concentration(SmallBallQuery(x=w, dist=RATIO, v=float(v), t=float(t)), path="convolve")
            exact = sum((p for s, p in law.items() if abs(s - v) < t), Fraction(0))
            lo, hi = out.ci
            assert lo <= exact <= hi, (i, d, out)


def test_monte_carlo_concentration_brackets_exact():
    q = rademacher_query([1 / SQRT2, 1 / SQRT2], v=0.0, t=0.1)
    out = monte_carlo_concentration(q, 10_000, derive_stream(32, 0))
    lo, hi = out.ci
    assert lo <= 0.5 <= hi
    assert out.metadata["count"] == round(out.value * 10_000)
    with pytest.raises(ValueError):
        monte_carlo_concentration(q, 99, derive_stream(32, 1))


def test_monte_carlo_deterministic_given_stream():
    q = SmallBallQuery(x=np.ones(5), dist=GAUSSIAN, v=0.0, t=1.0)
    a = monte_carlo_concentration(q, 5_000, derive_stream(33, 0))
    b = monte_carlo_concentration(q, 5_000, derive_stream(33, 0))
    assert a.value == b.value and a.ci == b.ci


def _table_order_sums(signs, x):
    """Row sums of signs @ x in the order sample_sums documents: left to right
    within each group of 8 coordinates, x padded with zeros to whole groups,
    then the groups left to right."""
    padded = np.zeros(-(-x.size // 8) * 8)
    padded[: x.size] = x
    total = None
    for g in range(0, padded.size, 8):
        group = signs[:, g] * padded[g]
        for j in range(g + 1, g + 8):
            group = group + signs[:, j] * padded[j]
        total = group if total is None else total + group
    return total


@pytest.mark.parametrize("n", [1, 5, 63, 64, 65, 4999])
def test_sample_sums_match_table_order_for_any_chunk_count(n, monkeypatch):
    """Rademacher sums equal in the documented table order, bit for bit, the
    sums of signs read from raw Philox words: row r takes the next ceil(n/64)
    words, and bit k of their little-endian byte g is the sign of coordinate
    8g+k. That holds for two chunk row counts (n = 4999 also meets the cap on
    raw words per chunk), with a half-word pending or not, and the stream
    ends exactly rows * ceil(n/64) words on with the pending half-word kept.
    A wrong or shifted sign moves a sum by 2|x_j|."""
    x = derive_stream(34, n).uniform(-1.0, 1.0, size=n)
    words, groups = -(-n // 64), -(-n // 8)
    block = 5_000_000 // n
    ref_chunk = max(1, 2**18 // groups)
    for prefix, count in enumerate((block - 1, block, block + 1, 2 * block + 3)):
        start_rng = derive_stream(35, count)
        start_rng.integers(0, 2, size=prefix)  # an odd prefix leaves a half-word pending
        ref = np.random.Philox(0)
        ref.state = start_rng.bit_generator.state
        want, checked = [], 0
        for start in range(0, count, ref_chunk):
            rows = min(ref_chunk, count - start)
            raw = ref.random_raw(rows * words).reshape(rows, words)
            row_bytes = raw.astype("<u8").view(np.uint8)
            bits = np.unpackbits(row_bytes[:, :groups], axis=1, bitorder="little")
            signs = 2.0 * bits - 1.0
            want.append(_table_order_sums(signs, x))
            # within n * eps * sum|x_j| of the exactly rounded sum
            for row in range(0, rows, 97 * (1 + count // 200_000)):
                exact = math.fsum((signs[row, :n] * x).tolist())
                assert abs(want[-1][row] - exact) <= n * 2.0**-52 * np.abs(x).sum()
                checked += 1
        assert checked > 0
        want = np.concatenate(want)
        assert ref.state["has_uint32"] == prefix % 2
        for chunk_rows in (small_ball._CHUNK_ROWS, 1000):
            monkeypatch.setattr(small_ball, "_CHUNK_ROWS", chunk_rows)
            got_rng = derive_stream(35, count)
            got_rng.integers(0, 2, size=prefix)
            got = sample_sums(RADEMACHER, x, count, got_rng)
            assert got.tobytes() == want.tobytes()
            probe = np.random.Generator(np.random.Philox(0))
            probe.bit_generator.state = ref.state
            assert _philox_state(got_rng) == _philox_state(probe)
            assert got_rng.integers(0, 2, size=3).tolist() == probe.integers(0, 2, size=3).tolist()


def _sums_block_by_block(dist, x, count, rng):
    """sample_sums as a list of blocks of at most 5e6 entries, concatenated:
    Rademacher blocks through _rademacher_sums, other laws through sample()
    and a fresh np.einsum result per block."""
    n = x.size
    block = max(1, 5_000_000 // n)
    out = []
    for done in range(0, count, block):
        b = min(block, count - done)
        if dist.kind == "rademacher":
            out.append(small_ball._rademacher_sums(rng, small_ball._sign_tables(x), n, b))
        else:
            out.append(np.einsum("ij,j->i", sample(dist, rng, size=(b, n)), x))
    return np.concatenate(out)


@pytest.mark.parametrize("dist", [RADEMACHER, GAUSSIAN, calibration.D3], ids=lambda d: d.kind)
def test_sample_sums_is_one_array_equal_to_the_blocks(dist):
    """One array, bit for bit the concatenated blocks, for a count that is
    no multiple of the 5000-row block at n = 1000; the stream ends at the
    same state."""
    x = derive_stream(40, 0).uniform(-1.0, 1.0, 1000)
    got_rng, want_rng = derive_stream(41, 0), derive_stream(41, 0)
    got = sample_sums(dist, x, 12_345, got_rng)
    want = _sums_block_by_block(dist, x, 12_345, want_rng)
    assert isinstance(got, np.ndarray) and got.shape == (12_345,)
    assert got.tobytes() == want.tobytes()
    assert _philox_state(got_rng) == _philox_state(want_rng)


def test_one_regular_mc_set_holds_one_float_per_sample():
    """Drawing a regular-vector query's REG_MC_SAMPLES sums and scanning its
    four windows allocates the sums once and sorts them in place: the traced
    peak stays within 1.25 floats per sample."""
    corpus = calibration.build_corpus("regular_smallball", constants.CALIBRATION_SEED, 4)
    assert len({(q.x.tobytes(), q.mc_seed) for q in corpus}) == 1
    first = calibration._mc_values(corpus)
    tracemalloc.start()
    try:
        again = calibration._mc_values(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak <= 1.25 * 8 * calibration.REG_MC_SAMPLES, peak / (8 * calibration.REG_MC_SAMPLES)


def test_monte_carlo_sums_of_regular_vectors_meet_the_grid_oracle():
    """For 3 regular n = 64 vectors at t = 8 delta, the 200k-row MC
    Clopper-Pearson interval meets the grid convolution's interval, value
    plus or minus its rigorous error radius."""
    delta = 0.004
    vectors = derive_stream(5, 0)
    for i in range(3):
        x, _ = calibration.sample_regular_vector(vectors, delta, 4.0)
        q = rademacher_query(x, v=0.0, t=8 * delta)
        mc = monte_carlo_concentration(q, 200_000, derive_stream(5, 1 + i))
        grid = exact_concentration(q, path="convolve")
        radius = grid.metadata["error_radius"]
        assert mc.ci[0] <= grid.value + radius and grid.value - radius <= mc.ci[1], (i, mc, grid)


_GAUSSIAN_SUMS_HASH = """
import hashlib
import numpy as np
from rmlab.distributions import GAUSSIAN
from rmlab.rng import derive_stream
from rmlab.small_ball import sample_sums
x = derive_stream(4, 1).uniform(-1.0, 1.0, 64)
sums = sample_sums(GAUSSIAN, x, 200_000, derive_stream(4, 0))
print(hashlib.sha256(sums.tobytes()).hexdigest())
"""


def test_gaussian_sample_sums_do_not_depend_on_blas_threads():
    """A BLAS matrix-vector product splits rows across threads and changes
    the last bits of some sums with the thread count; sample_sums must not."""
    src = str(Path(small_ball.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        out = subprocess.run(
            [sys.executable, "-c", _GAUSSIAN_SUMS_HASH],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1


def test_empirical_sup_concentration_frozen_and_oracle():
    assert empirical_sup_concentration([0.0, 1.9], 1.0) == 1.0
    assert empirical_sup_concentration([0.0, 3.0], 1.0) == 0.5
    samples = derive_stream(34, 0).standard_normal(300)
    for t in (0.05, 0.3, 1.0):
        assert empirical_sup_concentration(samples, t) == pytest.approx(
            window_sup_probability(samples, t), abs=1e-15
        )
    with pytest.raises(ValueError):
        empirical_sup_concentration(samples, 0.0)


def test_empirical_sup_monotone_in_t():
    samples = derive_stream(34, 1).standard_normal(500)
    vals = [empirical_sup_concentration(samples, t) for t in (0.1, 0.2, 0.4, 0.8)]
    assert vals == sorted(vals)


@pytest.mark.parametrize("t", [math.nan, -1.0])
def test_empirical_sup_rejects_t_not_positive(t):
    with pytest.raises(ValueError, match="positive"):
        empirical_sup_concentration([0.0, 1.0], t)


@pytest.mark.parametrize("samples", [[], np.zeros((2, 3)), np.float64(1.0)])
def test_empirical_sup_rejects_empty_or_not_1d_samples(samples):
    with pytest.raises(ValueError, match="nonempty 1-d"):
        empirical_sup_concentration(samples, 0.5)


@pytest.mark.parametrize(
    "samples", [[0.0, math.nan], [math.nan], [0.0, math.inf], [-math.inf, 0.0, 1.0]]
)
def test_empirical_sup_rejects_nonfinite_samples(samples):
    with pytest.raises(ValueError, match="finite"):
        empirical_sup_concentration(samples, 0.5)


def test_empirical_sup_infinite_window_holds_everything():
    assert empirical_sup_concentration([-3.0, 0.0, 2.5], math.inf) == 1.0


def test_empirical_sup_sorts_a_float64_array_in_place_and_leaves_a_list():
    samples = np.array([2.5, -3.0, 0.0, 1.0])
    assert empirical_sup_concentration(samples, 1.0) == 0.5
    assert samples.tolist() == [-3.0, 0.0, 1.0, 2.5]
    given = [2.5, -3.0, 0.0, 1.0]
    assert empirical_sup_concentration(given, 1.0) == 0.5
    assert given == [2.5, -3.0, 0.0, 1.0]


@st.composite
def _window_samples(draw):
    """1 to 400 samples, so sizes below, at and across several 64-anchor
    scan blocks appear; lattice samples (multiples of 0.25: ties, and
    windows ending exactly on a sample) or continuous ones."""
    size = draw(st.integers(min_value=1, max_value=400))
    if draw(st.booleans()):
        half = draw(st.integers(min_value=0, max_value=60))
        ints = st.integers(min_value=-half, max_value=half)
        return [0.25 * k for k in draw(st.lists(ints, min_size=size, max_size=size))]
    reals = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    return draw(st.lists(reals, min_size=size, max_size=size))


@given(
    samples=_window_samples(),
    t=st.one_of(
        st.floats(min_value=1e-9, max_value=50.0),
        st.integers(min_value=1, max_value=200).map(lambda k: 0.125 * k),
    ),
)
@settings(max_examples=200, deadline=None)
def test_empirical_sup_matches_window_oracle(samples, t):
    assert empirical_sup_concentration(samples, t) == window_sup_probability(samples, t)


@given(
    samples=_window_samples(),
    windows=st.lists(
        st.one_of(
            st.floats(min_value=1e-9, max_value=50.0),
            st.integers(min_value=1, max_value=200).map(lambda k: 0.125 * k),
            st.just(math.inf),
        ),
        min_size=1,
        max_size=10,
    ),
)
@example(samples=[0.0, 0.25, 3.0], windows=[2.0, 0.125, 2.0, math.inf, 0.125])
@settings(max_examples=200, deadline=None)
def test_empirical_sup_array_of_windows_equals_scalar_calls(samples, windows):
    got = empirical_sup_concentration(samples, np.array(windows))
    assert isinstance(got, np.ndarray) and got.shape == (len(windows),)
    scalar = [empirical_sup_concentration(samples, t) for t in windows]
    assert all(isinstance(q, float) for q in scalar)
    assert got.tobytes() == np.array(scalar).tobytes()


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_empirical_sup_rejects_one_bad_window_in_an_array(bad):
    with pytest.raises(ValueError, match="positive"):
        empirical_sup_concentration([0.0, 1.0], [0.5, bad, 1.0])


@pytest.mark.parametrize("peak", [0, 62, 63, 64, 127, 190])
def test_empirical_sup_finds_a_peak_anchored_at_any_index(peak):
    # 8 close samples after `peak` isolated ones: the densest window is anchored
    # at sorted index `peak` only, including when that is a 64-anchor block end
    samples = np.concatenate([10.0 * np.arange(peak), 5000.0 + 0.01 * np.arange(8), [9e3]])
    samples = derive_stream(36, peak).permutation(samples)
    assert empirical_sup_concentration(samples, 0.5) == 8 / samples.size
    assert window_sup_probability(samples, 0.5) == 8 / samples.size


def _full_window_scan(s, t):
    s = np.sort(s)
    return float(np.max(np.searchsorted(s, s + 2.0 * t) - np.arange(s.size))) / s.size


def test_empirical_sup_matches_full_scan_on_mc_sums():
    """The Monte Carlo values of one regular-vector sample at the windows
    delta .. 8 delta are the full scans of its sums, drawn from
    derive_stream(mc_seed, 0)."""
    query = calibration.build_corpus("regular_smallball", constants.CALIBRATION_SEED, 1)[0]
    group = [replace(query, t=mult * query.delta) for mult in range(1, 9)]
    sums = sample_sums(query.dist, query.x, calibration.REG_MC_SAMPLES, derive_stream(query.mc_seed, 0))
    assert sums.size == 200_000
    assert calibration._mc_values(group) == [_full_window_scan(sums, q.t) for q in group]


@pytest.mark.parametrize("kind", ["uniform", "grid"])
def test_empirical_sup_matches_full_scan_on_flat_samples(kind):
    # flat densities leave few or (on the evenly spaced grid) no blocks to skip
    rng = derive_stream(35, 0)
    if kind == "uniform":
        samples = rng.uniform(-1.0, 1.0, 200_000)
    else:
        samples = rng.permutation(0.25 * np.arange(200_000))
    for t in (1e-6, 0.002, 0.25, 0.5, 3.0, 1e6):
        assert empirical_sup_concentration(samples, t) == _full_window_scan(samples, t)


# ------------------------------------------------------------------ the bounds


def test_esseen_bound_frozen_integral():
    # prod |cos(s)| over [-pi/2, pi/2] integrates to exactly 2
    out = esseen_bound(rademacher_query([1.0], t=1.0))
    assert out.value == pytest.approx(2.0, abs=1e-7)
    assert out.metadata["c_esseen"] == 1.0
    assert out.metadata["converged"]


def test_esseen_bound_gaussian_closed_form():
    # integrand exp(-s^2/(2 t^2) * |x|^2); frozen via erf
    from scipy.special import erf

    t = 0.7
    out = esseen_bound(SmallBallQuery(x=np.array([1.0]), dist=GAUSSIAN, v=0.0, t=t))
    sigma = 1.0 / t
    expected = math.sqrt(2.0 * math.pi) / sigma * erf(math.pi * sigma / (2.0 * SQRT2))
    assert out.value == pytest.approx(float(expected), abs=1e-7)


def _reference_esseen(q: SmallBallQuery) -> tuple[float, float]:
    """(integral, quad error) of esseen_bound's quadrature with an integrand
    that calls the public, checked char_fn at every point."""
    from scipy.integrate import quad

    weights = q.x[q.x != 0.0]

    def integrand(s: float) -> float:
        return float(np.prod(np.abs(char_fn(q.dist, weights * (s / q.t)))))

    out = quad(integrand, -math.pi / 2.0, math.pi / 2.0, epsabs=1e-8, limit=400, full_output=1)
    return out[0], out[1]


@pytest.mark.parametrize(
    "seed,per_bound", [(constants.CALIBRATION_SEED, 60), (constants.VALIDATION_SEED, 50)]
)
def test_esseen_bound_matches_the_char_fn_integrand_bit_for_bit(seed, per_bound):
    # the integrand resolves the law once per query, not once per point
    corpus = calibration.build_corpus("esseen", seed, per_bound)
    assert {q.dist.kind for q in corpus} == {"rademacher", "discrete", "gaussian"}
    for bq in corpus:
        q = SmallBallQuery(x=bq.x, dist=bq.dist, v=bq.v, t=bq.t)
        out = esseen_bound(q)
        assert (out.value, out.metadata["quad_abs_error"]) == _reference_esseen(q)


def test_esseen_bound_falls_back_to_public_quad(monkeypatch, tmp_path):
    # where scipy's compiled QUADPACK module cannot be loaded, the same
    # arguments go through scipy.integrate.quad and give the same numbers
    from scipy.integrate import quad

    def pairs():
        corpus = calibration.build_corpus("esseen", constants.VALIDATION_SEED, 50)
        out = [esseen_bound(SmallBallQuery(x=q.x, dist=q.dist, v=q.v, t=q.t)) for q in corpus]
        return [(e.value, e.metadata["quad_abs_error"]) for e in out]

    assert small_ball._qagse() is not quad
    direct = pairs()
    monkeypatch.setattr(small_ball, "_QUADPACK_DIR", tmp_path)  # holds no module
    small_ball._qagse.cache_clear()
    try:
        assert small_ball._qagse() is quad
        assert pairs() == direct
    finally:
        small_ball._qagse.cache_clear()  # the next call loads the module again


@pytest.mark.parametrize("dist", [RADEMACHER, GAUSSIAN, SKEW], ids=["rademacher", "gaussian", "skew"])
def test_esseen_bound_rejects_overflowing_arguments(dist):
    # weights * s / t overflows to inf away from s = 0
    with pytest.raises(ConfigError, match="finite t"):
        esseen_bound(SmallBallQuery(x=np.ones(3), dist=dist, v=0.0, t=5e-324))


def test_esseen_bound_dominates_exact_with_fitted_constant():
    c = constants.FITTED["esseen"]
    for x, t in (([1.0], 1.01), ([1 / SQRT2, 1 / SQRT2], 0.1), ([0.5] * 4, 0.5)):
        q = rademacher_query(x, t=t)
        assert exact_concentration(q).value <= c * esseen_bound(q).value + 1e-12


def test_pair_difference_atom_law_rademacher():
    """The law of beta - beta', which halasz_integral_bound integrates: one
    atom per pair of atoms, equal differences not merged."""
    vals, probs = small_ball._pair_difference_law(RADEMACHER)
    assert np.array_equal(vals, [0.0, -2.0, 2.0, 0.0])
    assert np.array_equal(probs, [0.25] * 4)


def test_halasz_integral_bound_all_ones_closed_form():
    # S_delta is m/4 on a single window of length 2 pi delta, so the bound
    # reduces to pi / (8 sqrt(m))
    for m in (4, 16):
        out = halasz_integral_bound(np.ones(m), RADEMACHER, 0.01, 0.999)
        assert out.value == pytest.approx(math.pi / (8.0 * math.sqrt(m)), rel=1e-12)
        assert out.metadata["exponential_term"] == "omitted"
    assert out.metadata["segments"] >= 1


def test_halasz_integral_bound_regime_errors():
    x = np.ones(4)
    with pytest.raises(RegimeError):
        halasz_integral_bound(x, RADEMACHER, 0.2, 0.999)  # delta >= a/(2 pi)
    with pytest.raises(RegimeError):
        halasz_integral_bound(x, RADEMACHER, 0.01, 1.5)  # a above min |x_j|
    with pytest.raises(RegimeError):
        halasz_integral_bound(x, GAUSSIAN, 0.01, 0.999)  # continuous law
    with pytest.raises(ValueError):
        halasz_integral_bound(x, RADEMACHER, 0.01, 0.0)
    with pytest.raises(ConfigError, match="a must be positive"):  # was a RegimeError
        halasz_integral_bound(x, RADEMACHER, 0.01, math.nan)
    # SKEW scaled so the positive atom cannot clear the level; the first such weight is named
    with pytest.raises(RegimeError):
        halasz_integral_bound(np.ones(4), SKEW, 0.01, 0.7)
    with pytest.raises(RegimeError, match=r"x_j=1\.25$"):
        halasz_integral_bound(np.array([3.0, 1.25, 1.0]), SKEW, 0.01, 0.7)


@pytest.mark.parametrize("delta", [0.0, -0.01, math.nan, math.inf])
def test_halasz_integral_bound_rejects_a_nonpositive_delta(delta):
    """delta = 0 divided by zero and delta < 0 returned a bound of -0.0."""
    with pytest.raises(ConfigError, match="delta="):
        halasz_integral_bound(np.ones(4), RADEMACHER, delta, 0.5)


def test_halasz_profile_bound_frozen_value():
    x = np.array([1.01, 1.05, 1.08, 2.05])
    out = halasz_profile_bound(x, 0.1)
    assert out.metadata["profile_counts"] == {10: 3, 20: 1}
    assert out.value == pytest.approx(10.0 / 32.0, abs=1e-15)
    assert out.metadata["m"] == 4
    assert out.metadata["a"] == pytest.approx(1.01)


def test_halasz_profile_bound_regime_errors():
    with pytest.raises(RegimeError):
        halasz_profile_bound(np.array([0.0, 1.0]), 0.01)
    with pytest.raises(RegimeError):
        halasz_profile_bound(np.ones(4), 0.2)


def test_halasz_bounds_dominate_exact_with_fitted_constants():
    x = np.ones(16)
    q = SmallBallQuery(x=x, dist=RADEMACHER, v=0.0, t=0.01)
    exact = exact_concentration(q).value
    delta = 0.01
    prof = constants.FITTED["halasz_profile"] * halasz_profile_bound(x, delta).value
    integ = (
        constants.FITTED["halasz_integral"]
        * halasz_integral_bound(x, RADEMACHER, delta, 0.999).value
    )
    assert exact <= prof + 1e-12
    assert exact <= integ + 1e-12


def test_berry_esseen_bound_frozen_value():
    from scipy.special import ndtr

    q = rademacher_query([0.5] * 4, v=0.0, t=0.5)
    out = berry_esseen_bound(q)
    gauss = float(ndtr(0.5) - ndtr(-0.5))
    assert out.metadata["gaussian_mass"] == pytest.approx(gauss, abs=1e-12)
    assert out.metadata["be_error"] == pytest.approx(1.0, abs=1e-12)
    assert out.value == pytest.approx(gauss + 1.0, abs=1e-12)
    assert out.metadata["r"] == pytest.approx(1.0)
    assert out.metadata["R"] == pytest.approx(1.0)


def test_berry_esseen_bound_regime_errors():
    with pytest.raises(RegimeError, match="sqrt"):
        berry_esseen_bound(rademacher_query([0.5] * 4, t=0.1))  # t < 0.5/sqrt(m)
    out = berry_esseen_bound(rademacher_query([0.5] * 4, t=0.25))  # t = 0.5/sqrt(m)
    assert out.metadata["t_lower"] == pytest.approx(0.25)
    with pytest.raises(RegimeError, match="min"):
        berry_esseen_bound(rademacher_query([0.5, 0.5, 0.0, 0.5]))  # a zero weight


def test_berry_esseen_dominates_exact_with_fitted_constant():
    c = constants.FITTED["berry_esseen"]
    for m in (16, 64):
        x = np.full(m, 1.0 / math.sqrt(m))
        for t in (0.5, 1.0):
            q = SmallBallQuery(x=x, dist=RADEMACHER, v=0.0, t=t / math.sqrt(m))
            exact = exact_concentration(q).value
            assert exact <= c * berry_esseen_bound(q).value + 1e-12


@given(
    dist=st.sampled_from(FINITE_LAWS),
    weights=st.lists(
        st.floats(min_value=0.1, max_value=2.0) | st.floats(min_value=-2.0, max_value=-0.1),
        min_size=1,
        max_size=12,
    ),
    equal=st.booleans(),
    v=st.floats(min_value=0.0, max_value=1.5),
    t_sqrt_m=st.floats(min_value=0.5, max_value=5.0),
)
@settings(max_examples=300, deadline=None)
# the largest ratio seen, 0.643: window edges just past the lattice's atoms
@example(dist=RADEMACHER, weights=[1.0] * 12, equal=True, v=0.0, t_sqrt_m=4.0000001)
def test_berry_esseen_bound_holds_with_the_proven_constant(dist, weights, equal, v, t_sqrt_m):
    """For independent mean-0, variance-1 summands, Shevtsova (2010, Doklady
    Math. 82) proves sup_z |P(S <= z) - Phi(z/|x|)| <= 0.56 L with
    L = sum |x_j|^3 E|beta|^3 / |x|^3. At both window ends that gives
    P(|S - v| < t) <= Gaussian window mass + 1.12 L, under the bound's
    mass + 2 L: its constant 1 (constants.PROVEN) is proven, so no query of
    the bound's regime may exceed it, whatever the fitted constant. The four
    laws have mean 0 and variance 1, and m <= 12 keeps the exact value
    enumerated."""
    x = np.ones(len(weights)) if equal else np.array(weights)
    x = x / np.linalg.norm(x)
    q = SmallBallQuery(x=x, dist=dist, v=v, t=t_sqrt_m / math.sqrt(x.size))
    proven = constants.PROVEN["berry_esseen"]
    assert exact_concentration(q).value <= proven * berry_esseen_bound(q).value + 1e-12


@given(
    dist=st.sampled_from(FINITE_LAWS),
    weights=st.lists(
        st.floats(min_value=0.5, max_value=2.0) | st.floats(min_value=-2.0, max_value=-0.5),
        min_size=1,
        max_size=12,
    ),
    equal=st.booleans(),
    v_over_norm=st.just(0.0) | st.floats(min_value=-1.0, max_value=1.0),
    t_over_norm=st.floats(min_value=0.2, max_value=2.0),
)
@settings(max_examples=300, deadline=None)
# the largest ratio seen, 0.611: a window just past the atoms +-1 of an odd sum
@example(dist=RADEMACHER, weights=[1.0] * 11, equal=True, v_over_norm=0.0, t_over_norm=1.0000001 / math.sqrt(11))
def test_esseen_bound_holds_with_the_proven_constant(dist, weights, equal, v_over_norm, t_over_norm):
    """Esseen's inequality (Esseen 1966; Petrov, Limit Theorems of
    Probability Theory, 1995, ch. 1) bounds the concentration function
    Q(S; lam) = sup_z P(z <= S <= z + lam) by
    (96/95)^2 max(lam, 1/a) * integral_{|u| <= a} |phi_S(u)| du for any
    lam, a > 0. The bound's value is integral_{|s| <= pi/2} |phi_S(s/t)| ds
    = t * integral_{|u| <= pi/(2t)} |phi_S(u)| du. Take lam = 2t and
    a = pi/(2t): then 1/a = 2t/pi < lam, and the window |S - v| < t lies in
    [v - t, v + t], so P(|S - v| < t) <= Q(S; 2t) <= 2 (96/95)^2 * value.
    That constant, about 2.043 (constants.PROVEN), is proven: no query may
    exceed it. v and t are drawn as in calibration._random_esseen, as
    fractions of |x|, over the four finite laws, and m <= 12 keeps the exact
    value enumerated."""
    x = np.ones(len(weights)) if equal else np.array(weights)
    norm = float(np.linalg.norm(x))
    q = SmallBallQuery(x=x, dist=dist, v=v_over_norm * norm, t=t_over_norm * norm)
    assert exact_concentration(q).value <= constants.PROVEN["esseen"] * esseen_bound(q).value + 1e-12
