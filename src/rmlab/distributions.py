"""Entry laws: centered, variance-1 distributions for matrix entries.

Provides the four admissible kinds (rademacher, gaussian, uniform_sym,
discrete atom laws), their samplers, characteristic functions, analytic
CDFs and absolute moments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError, RegimeError
from .rng import RngStream

SQRT3 = math.sqrt(3.0)

_KINDS = ("rademacher", "gaussian", "uniform_sym", "discrete")

# Tolerances from the type contract.
_PROB_SUM_TOL = 1e-12
_MOMENT_TOL = 1e-9


@dataclass(frozen=True)
class EntryDistribution:
    """A centered, variance-1 entry law.

    kind is one of 'rademacher', 'gaussian', 'uniform_sym', 'discrete'.
    For 'discrete', atoms is a tuple of (value, prob) pairs; probabilities
    must sum to 1 within 1e-12 and the law must have mean 0 and variance 1
    within 1e-9.
    """

    kind: str
    atoms: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown distribution kind: {self.kind!r}")
        if self.kind != "discrete":
            if self.atoms:
                raise ConfigError(f"atoms are only valid for kind='discrete'")
            return
        if len(self.atoms) < 2:
            raise ConfigError("discrete law needs at least 2 atoms")
        vals = np.array([a[0] for a in self.atoms], dtype=float)
        probs = np.array([a[1] for a in self.atoms], dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ConfigError("atom values must be finite")
        if len(np.unique(vals)) != len(vals):
            raise ConfigError("atom values must be distinct")
        if np.any(probs <= 0):
            raise ConfigError("atom probabilities must be positive")
        if abs(probs.sum() - 1.0) > _PROB_SUM_TOL:
            raise ConfigError(f"atom probabilities sum to {probs.sum()!r}, not 1")
        mean = float(probs @ vals)
        var = float(probs @ vals**2)
        if abs(mean) > _MOMENT_TOL:
            raise ConfigError(f"discrete law has mean {mean!r}, not 0")
        if abs(var - 1.0) > _MOMENT_TOL:
            raise ConfigError(f"discrete law has second moment {var!r}, not 1")

    # ---- derived structure ------------------------------------------------

    @property
    def finite_support(self) -> bool:
        return self.kind in ("rademacher", "discrete")

    def support(self) -> np.ndarray:
        """Atom values for finite-support laws, sorted ascending."""
        if self.kind == "rademacher":
            return np.array([-1.0, 1.0])
        if self.kind == "discrete":
            return np.sort(np.array([a[0] for a in self.atoms], dtype=float))
        raise RegimeError(f"{self.kind} has no finite support")

    def support_probs(self) -> np.ndarray:
        """Probabilities aligned with support()."""
        if self.kind == "rademacher":
            return np.array([0.5, 0.5])
        if self.kind == "discrete":
            order = np.argsort([a[0] for a in self.atoms])
            return np.array([self.atoms[i][1] for i in order], dtype=float)
        raise RegimeError(f"{self.kind} has no finite support")

    def support_radius(self) -> float:
        """max |value| over the support; sqrt(3) for uniform_sym, inf for gaussian."""
        if self.kind == "rademacher":
            return 1.0
        if self.kind == "discrete":
            return float(np.max(np.abs(self.support())))
        if self.kind == "uniform_sym":
            return SQRT3
        return math.inf

    @property
    def is_symmetric(self) -> bool:
        if self.kind in ("rademacher", "gaussian", "uniform_sym"):
            return True
        by_value = {v: p for v, p in self.atoms}
        for v, p in self.atoms:
            q = by_value.get(-v)
            if q is None or not math.isclose(p, q, rel_tol=1e-12, abs_tol=1e-15):
                return False
        return True

    def spec_string(self) -> str:
        if self.kind == "rademacher":
            return "rademacher"
        if self.kind == "gaussian":
            return "gaussian"
        if self.kind == "uniform_sym":
            return "uniform"
        parts = ",".join(f"{v!r}:{p!r}" for v, p in self.atoms)
        return f"discrete:{parts}"


RADEMACHER = EntryDistribution("rademacher")
GAUSSIAN = EntryDistribution("gaussian")
UNIFORM_SYM = EntryDistribution("uniform_sym")


def discrete(atoms) -> EntryDistribution:
    """Discrete law from an iterable of (value, prob) pairs."""
    return EntryDistribution("discrete", tuple((float(v), float(p)) for v, p in atoms))


def parse_dist_spec(spec: str) -> EntryDistribution:
    """Parse a CLI/config distribution string.

    Accepted forms: 'rademacher', 'gaussian', 'uniform',
    'discrete:v1:p1,v2:p2,...'.
    """
    s = spec.strip()
    if s == "rademacher":
        return RADEMACHER
    if s == "gaussian":
        return GAUSSIAN
    if s == "uniform":
        return UNIFORM_SYM
    if s.startswith("discrete:"):
        body = s[len("discrete:"):]
        atoms = []
        for pair in body.split(","):
            try:  # a count other than two fails the unpacking
                value, prob = (float(bit) for bit in pair.split(":"))
            except ValueError:
                raise ConfigError(f"bad atom {pair!r} in {spec!r} (want value:prob)") from None
            atoms.append((value, prob))
        return discrete(atoms)
    raise ConfigError(f"unknown distribution spec: {spec!r}")


# ---- sampling --------------------------------------------------------------


# Philox words read per chunk by _rademacher: 128 KiB of words and
# 256 KiB of signs, so a chunk stays in cache between its passes.
_SIGN_CHUNK_WORDS = 1 << 14


def _rademacher(rng: RngStream, size) -> np.ndarray:
    """Rademacher signs of the given shape, read straight from rng's Philox words.

    They equal 2.0 * rng.integers(0, 2, size) - 1.0 bit for bit, and rng is
    left where that call leaves it. integers(0, 2) takes the top bit of each
    32-bit half-word and never rejects one (Lemire's method); a 64-bit word
    gives its low half first, and a high half left pending by an earlier call
    (the generator's has_uint32/uinteger) is read first. The chunks after it
    are whole and even-sized, so only the last one can leave a half pending.
    """
    out = np.empty(size)
    flat = out.reshape(-1)
    bg = rng.bit_generator
    state = bg.state
    has, uinteger = state["has_uint32"], state["uinteger"]
    pos = 0
    if has and flat.size:
        flat[0] = 2.0 * (uinteger >> 31) - 1.0
        has, pos = 0, 1
    for start in range(pos, flat.size, 2 * _SIGN_CHUNK_WORDS):
        dst = flat[start : start + 2 * _SIGN_CHUNK_WORDS]
        words = bg.random_raw((dst.size + 1) // 2)
        halves = words.astype("<u8", copy=False).view("<u4")[: dst.size]
        np.greater_equal(halves, 1 << 31, out=dst, casting="unsafe")
        np.multiply(dst, 2.0, out=dst)
        np.subtract(dst, 1.0, out=dst)
        has, uinteger = dst.size % 2, int(words[-1]) >> 32
    state = bg.state
    state["has_uint32"], state["uinteger"] = has, uinteger
    bg.state = state
    return out


def sample(dist: EntryDistribution, rng: RngStream, size=None):
    """Draw from the law; deterministic given the stream state.

    Returns a scalar float when size is None, else an ndarray of that shape.
    Rademacher signs are read straight from the Philox words by
    _rademacher; they equal 2 * rng.integers(0, 2, size) - 1 bit for bit,
    and tests/test_distributions.py pins that for the installed numpy.
    """
    if dist.kind == "rademacher":
        out = _rademacher(rng, () if size is None else size)
    elif dist.kind == "gaussian":
        out = rng.standard_normal(size=size)
    elif dist.kind == "uniform_sym":
        out = rng.uniform(-SQRT3, SQRT3, size=size)
    else:
        vals = dist.support()
        cum = np.cumsum(dist.support_probs())
        u = rng.random(size=size)
        out = vals[np.searchsorted(cum, u, side="right")]
    if size is None:
        return float(out)
    return np.asarray(out, dtype=float)


# ---- characteristic function, CDF, moments ---------------------------------


def char_fn(dist: EntryDistribution, t):
    """Real-valued characteristic function.

    For symmetric laws this is E cos(beta*t) (signed). For asymmetric
    discrete laws it is |E exp(i*beta*t)|, assembled from the real and
    imaginary parts. Accepts scalar or array t.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ConfigError("char_fn requires finite t")
    out = _char_fn_of(dist)(t_arr)
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return out


def _char_fn_of(dist: EntryDistribution):
    """char_fn(dist, .) on finite float arrays, with the law resolved once:
    no input check, and a discrete law's atoms read here, not per call."""
    if dist.kind == "rademacher":
        return np.cos
    if dist.kind == "gaussian":
        return lambda t: np.exp(-0.5 * t**2)
    if dist.kind == "uniform_sym":
        # sin(sqrt(3) t) / (sqrt(3) t), continuous at 0
        return lambda t: np.sinc(SQRT3 * t / np.pi)
    vals = dist.support()
    probs = dist.support_probs()
    if dist.is_symmetric:
        return lambda t: np.cos(np.multiply.outer(t, vals)) @ probs

    def modulus(t):
        tv = np.multiply.outer(t, vals)
        return np.hypot(np.cos(tv) @ probs, np.sin(tv) @ probs)

    return modulus


def cdf(dist: EntryDistribution, x):
    """Analytic CDF P(beta <= x); scalar or array x."""
    x_arr = np.asarray(x, dtype=float)
    if dist.kind == "gaussian":
        out = ndtr(x_arr)
    elif dist.kind == "uniform_sym":
        out = np.clip((x_arr + SQRT3) / (2.0 * SQRT3), 0.0, 1.0)
    else:
        vals = dist.support()
        probs = dist.support_probs()
        cum = np.concatenate([[0.0], np.cumsum(probs)])
        out = cum[np.searchsorted(vals, x_arr, side="right")]
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def abs_third_moment(dist: EntryDistribution) -> float:
    """E |beta|^3, in closed form per law."""
    if dist.kind == "rademacher":
        return 1.0
    if dist.kind == "gaussian":
        return 2.0 * math.sqrt(2.0 / math.pi)
    if dist.kind == "uniform_sym":
        # (1/(2 sqrt(3))) * 2 * integral_0^sqrt(3) u^3 du = 3 sqrt(3) / 4
        return 3.0 * SQRT3 / 4.0
    return float(sum(p * abs(v) ** 3 for v, p in dist.atoms))
