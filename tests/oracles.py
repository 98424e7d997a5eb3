"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive: cyclic Jacobi for eigenvalues,
Gauss-Jordan for the inverse, Bareiss elimination in Python ints for an
exact integer determinant, exhaustive search for the subset minimizer,
full product enumeration for concentration probabilities, rational
arithmetic for exact atom laws. None of it shares code with the package
under test.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def jacobi_eigenvalues(S: np.ndarray, sweeps: int = 60, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(S, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(A[p, q]))
                if abs(A[p, q]) <= tol * (abs(A[p, p]) + abs(A[q, q]) + tol):
                    continue
                theta = 0.5 * math.atan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
        if off <= tol:
            break
    return np.sort(np.diag(A))


def jacobi_singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values (ascending) via the eigenvalues of M^T M."""
    eig = jacobi_eigenvalues(np.asarray(M, dtype=float).T @ M)
    return np.sqrt(np.clip(eig, 0.0, None))


def gauss_jordan_inverse(M: np.ndarray) -> np.ndarray:
    """Explicit inverse by Gauss-Jordan elimination with partial pivoting."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    aug = np.hstack([A, np.eye(n)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def bareiss_determinant(M) -> int:
    """Exact determinant of an integer matrix by fraction-free (Bareiss)
    elimination in Python ints: every division is exact, so no rounding."""
    a = [[int(v) for v in row] for row in M]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def dense_operator_norm(M: np.ndarray, iters: int = 4000) -> float:
    """Largest singular value by plain fixed-iteration power method on M^T M."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    v = np.full(n, 1.0 / math.sqrt(n))
    v[0] += 1e-3  # break symmetry against adversarial eigenvectors
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        z = M.T @ (M @ v)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        lam = float(v @ z)
        v = z / nz
    return math.sqrt(max(lam, 0.0))


def exhaustive_min_ssq(occupancy, keep: int) -> int:
    """Exhaustive minimum of sum c_i^2 over 0 <= c_i <= occ_i, sum c_i = keep."""
    occ = [int(c) for c in occupancy]
    best = math.inf

    def rec(i: int, remaining: int, acc: int):
        nonlocal best
        if acc >= best:
            return
        if i == len(occ):
            if remaining == 0:
                best = min(best, acc)
            return
        tail = sum(occ[i:])
        if remaining > tail:
            return
        for c in range(min(occ[i], remaining) + 1):
            rec(i + 1, remaining - c, acc + c * c)

    rec(0, keep, 0)
    if best is math.inf:
        raise ValueError("infeasible keep")
    return int(best)


def allocation_min_ssq_law(l: int, k: int, keep: int) -> dict[int, float]:
    """Exact law of exhaustive_min_ssq(occupancy, keep) when occupancy counts
    l i.i.d. uniform draws over k bins: every occupancy (o_1, ..., o_k) with
    sum l, weighted by its multinomial probability l! / prod(o_i!) / k^l."""
    law: dict[int, float] = {}
    for occ in itertools.product(range(l + 1), repeat=k):
        if sum(occ) == l:
            weight = math.factorial(l) / math.prod(math.factorial(o) for o in occ) / k**l
            m = exhaustive_min_ssq(occ, keep)
            law[m] = law.get(m, 0.0) + weight
    return law


def product_concentration(values, probs, x, v: float, t: float) -> float:
    """P(|sum_j beta_j x_j - v| < t) by full enumeration of support^m."""
    total = 0.0
    for combo in itertools.product(range(len(values)), repeat=len(x)):
        s = sum(values[c] * w for c, w in zip(combo, x))
        p = math.prod(probs[c] for c in combo)
        if abs(s - v) < t:
            total += p
    return total


def fraction_atom_law(values, probs, x) -> dict[Fraction, Fraction]:
    """The atom law of sum_j beta_j x_j in exact rational arithmetic: every
    float weight, atom value and probability is taken at its exact binary
    value, and the law is convolved term by term with no rounding at all."""
    law = {Fraction(0): Fraction(1)}
    atoms = [(Fraction(a), Fraction(p)) for a, p in zip(values, probs)]
    for w in map(Fraction, x):
        new: dict[Fraction, Fraction] = {}
        for s, p in law.items():
            for a, q in atoms:
                new[s + w * a] = new.get(s + w * a, Fraction(0)) + p * q
        law = new
    return law


def fraction_concentration(values, probs, x, v: float, t: float) -> Fraction:
    """P(|sum_j beta_j x_j - v| < t), exactly, from fraction_atom_law."""
    v, t = Fraction(v), Fraction(t)
    law = fraction_atom_law(values, probs, x)
    return sum((p for s, p in law.items() if abs(s - v) < t), Fraction(0))


def window_sup_probability(samples, t: float) -> float:
    """Naive O(N^2) empirical sup-window count for cross-checking.

    The sup over open windows of width 2t is attained by a window whose left
    edge sits just below some sample point, so counting [a, a + 2t) per
    anchor a is exact.
    """
    s = np.asarray(samples, dtype=float)
    best = 0
    for a in s:
        best = max(best, int(np.count_nonzero((s >= a) & (s < a + 2.0 * t))))
    return best / s.size


def edelman_cdf(x):
    """Edelman's (1988) limit law P(sqrt(n) sigma_min <= x) = 1 - exp(-x^2/2 - x)
    of an n x n Gaussian matrix."""
    x = np.asarray(x, dtype=float)
    return 1.0 - np.exp(-0.5 * x * x - x)


def ks_distance(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance sup_x |F_emp(x) - cdf(x)| of a sample."""
    z = np.sort(np.asarray(samples, dtype=float))
    f = cdf(z)
    k = np.arange(1, z.size + 1)
    return float(max(np.max(k / z.size - f), np.max(f - (k - 1) / z.size)))


def dkw_bound(count: int, alpha: float = 0.05) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius: the KS distance of count i.i.d. draws
    from their own law exceeds it with probability at most alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * count))


def greedy_net_reference(points, metric: str, eps: float) -> list[int]:
    """Row indices of the farthest-point greedy cover at radius eps.

    One full distance row per new center: starts from row 0, then adds the
    first row farthest from the chosen centers until every row is within
    eps. The l2 distance sums squared differences along each row with
    numpy's row sum.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]

    def dist(c: int) -> np.ndarray:
        diff = pts - pts[c]
        if metric == "l2":
            return np.sqrt(np.sum(diff * diff, axis=1))
        return np.max(np.abs(diff), axis=1)

    chosen = [0]
    dists = dist(0)
    while True:
        far = int(np.argmax(dists))
        if dists[far] <= eps:
            return chosen
        chosen.append(far)
        dists = np.minimum(dists, dist(far))
