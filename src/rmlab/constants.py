"""Frozen numerical constants of the package.

Two kinds live here. Structural defaults are fixed by design and never
refitted. Calibrated constants are produced by `rmlab.calibration.fit_all`
on the frozen corpus seed below, then hand-frozen into FITTED_RAW; the values
used by comparators carry a safety margin so that a disjoint validation corpus
cannot breach domination by sampling noise alone.
"""
from __future__ import annotations

ARTIFACT_NAME = "rmlab"
ARTIFACT_VERSION = "0.2.4"

# ---------------------------------------------------------------- structural
# Sphere partition defaults (recorded config values; see PartitionParams).
DEFAULT_R_LOWER = 0.25   # r: peaked/spread split, must be in (0, 1)
DEFAULT_R_UPPER = 40.0   # R: coordinate cap scale, must be > 1

# Operator-norm experiment threshold: event is op_norm > OP_NORM_COEFF * sqrt(n).
OP_NORM_COEFF = 2.5

# Peaked-direction experiment threshold: event is |Ax| <= PEAKED_NORM_COEFF * sqrt(n).
PEAKED_NORM_COEFF = 0.3

# Tail experiment default: the paper's event sigma_min < eps * n^(-3/2), whose
# probability is O(eps); E1 reads eps alone and criterion 2 compares the
# tail frequency with it.
SIGMA_TAIL_EPS = 0.1

# Berry-Esseen comparator regime: the window half-width must satisfy
# t >= BERRY_ESSEEN_T_LOWER / sqrt(m). Below that scale single atoms dominate
# and no linear bound can hold.
BERRY_ESSEEN_T_LOWER = 0.5

# Reference constant for the allocation experiment at eta = 1/2: eta^(-16).
ALLOCATION_C_HALF = 0.5 ** -16  # 65536

# ---------------------------------------------------------------- calibrated
# fit_all(CALIBRATION_SEED, per_bound=60) produced FITTED_RAW (max ratio
# exact/bound over the calibration corpus). Comparators use
# FITTED = margin * raw. Stability contract: refitting under a different seed
# must stay within +-20 percent of FITTED_RAW (checked by the acceptance suite).
#
# Attaining corpus cases, for the record:
#   esseen            all-ones m=1, window just past the support (P = 1)
#   halasz_profile    progression x = (1..m), m = 63 (lattice collision peak)
#   halasz_integral   lazy four-point law, m = 16 (pair-difference atom falls
#                     below the integration cutoff; the omitted exponential
#                     term's regime is absorbed into this constant)
#   berry_esseen      all-ones m=64 at a sub-sqrt(m) window
#   regular_smallball m=64 spread direction, smallest window in the grid
CALIBRATION_SEED = 20260816
VALIDATION_SEED = 909090901
CALIBRATION_MARGIN = 1.25

FITTED_RAW = {
    "esseen": 0.4995011145,
    "halasz_profile": 1.3560152053,
    "halasz_integral": 22.8082931671,
    "berry_esseen": 0.5811539913,
    "regular_smallball": 0.5272222222,
}

FITTED = {name: CALIBRATION_MARGIN * raw for name, raw in FITTED_RAW.items()}

# Constants that a theorem proves for two of the bounds, so that no query of
# the bound's regime may exceed PROVEN * bound (E6 reports FITTED / PROVEN):
#   berry_esseen  Shevtsova (2010, Doklady Math. 82): sup_z |P(S <= z) -
#                 Phi(z/|x|)| <= 0.56 L, so the window mass is at most the
#                 Gaussian mass + 1.12 L, under the bound's mass + 2 L
#   esseen        Esseen's inequality (Esseen 1966; Petrov, Limit Theorems
#                 of Probability Theory, 1995, ch. 1) at lambda = 2t and
#                 a = pi/(2t): P(|S - v| < t) <= 2 (96/95)^2 * bound
PROVEN = {"berry_esseen": 1.0, "esseen": 2 * (96 / 95) ** 2}
