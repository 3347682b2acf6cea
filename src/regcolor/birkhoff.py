"""Numerical exploration of the second-moment rate f over the Birkhoff
polytope: Sinkhorn projection, stability classification, analytic gradient
and Hessian in the (k^2-1)-parameter chart that drops entry (k,k), and
multi-start maximization.

The chart L maps the k^2-1 free entries to a full matrix with
rho_kk = k - sum(others); f = H(rho/k) + E(rho) is evaluated on that matrix
whether or not it is doubly stochastic, which is what makes the chart
derivatives meaningful.

The maximizer runs projected-gradient ascent in the tangent space of the
polytope.  Row and column sums are linear constraints, so a step along a
zero-row-sum, zero-column-sum direction keeps them exact; Sinkhorn is only
used to put each start on the polytope.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .moments import DS_TOL

ARMIJO = 1e-4


def project_doubly_stochastic(M, tol=1e-12, max_iters=10000):
    """Alternating row/column normalization until both residuals < tol.
    Returns (matrix, iterations)."""
    A = np.asarray(M, dtype=float).copy()
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("need a square matrix")
    if (A <= 0).any():
        raise ValidationError("Sinkhorn needs entrywise positive input")
    res = _ds_residual(A)
    if res < tol:
        return A, 0
    for it in range(1, max_iters + 1):
        A /= A.sum(axis=1, keepdims=True)
        A /= A.sum(axis=0, keepdims=True)
        # the residual check costs as much as the sweep; amortize it
        if it % 8 == 0 or it == max_iters:
            res = _ds_residual(A)
            if res < tol:
                return A, it
    raise ValidationError(
        "Sinkhorn did not converge in %d iterations (residual %.3g)"
        % (max_iters, res))


def _ds_residual(A):
    return max(np.abs(A.sum(axis=1) - 1).max(), np.abs(A.sum(axis=0) - 1).max())


@dataclass(frozen=True)
class StabilityReport:
    s: int
    separable: bool
    label: str


def classify_stability(rho, kappa=0.1):
    """s = number of entries >= 1-kappa; separable iff every entry above 0.51
    is >= 1-kappa; label 's-stable' or 'non-separable'."""
    r = np.asarray(rho, dtype=float)
    if _ds_residual(r) > DS_TOL:
        raise ValidationError("not doubly stochastic")
    s = int((r >= 1 - kappa).sum())
    separable = bool(((r <= 0.51) | (r >= 1 - kappa)).all())
    return StabilityReport(s, separable, "%d-stable" % s if separable
                           else "non-separable")


def _f_entries(R, k, d):
    """H(R/k) + E(R) on an arbitrary positive matrix of total sum k."""
    S = 1 - 2 / k + (R ** 2).sum() / k ** 2
    H = -(R / k * (np.log(R) - math.log(k))).sum()
    return H + d / 2 * math.log(S)


def from_chart(x, k):
    R = np.empty(k * k)
    R[:-1] = x
    R[-1] = k - x.sum()
    return R.reshape(k, k)


def to_chart(rho):
    return np.asarray(rho, dtype=float).reshape(-1)[:-1].copy()


def f_chart(x, k, d):
    R = from_chart(np.asarray(x, dtype=float), k)
    if (R <= 0).any():
        raise ValidationError("chart point leaves the positive orthant")
    return _f_entries(R, k, d)


def grad_f(rho, d):
    """Gradient of f composed with the chart, as a vector over the k^2-1
    free entries (row-major, entry (k,k) dropped).  rho must be interior."""
    R = np.asarray(rho, dtype=float)
    k = R.shape[0]
    if (R <= 0).any():
        raise ValidationError("gradient needs interior rho")
    S = 1 - 2 / k + (R ** 2).sum() / k ** 2
    flat = R.reshape(-1)
    last = flat[-1]
    g = (-np.log(flat / last) / k + d * (flat - last) / (k ** 2 * S))
    return g[:-1]


def hessian_f(rho, d):
    """Exact Hessian of f composed with the chart at an interior matrix."""
    R = np.asarray(rho, dtype=float)
    k = R.shape[0]
    if (R <= 0).any():
        raise ValidationError("Hessian needs interior rho")
    S = 1 - 2 / k + (R ** 2).sum() / k ** 2
    flat = R.reshape(-1)
    last = flat[-1]
    m = k * k - 1
    v = flat[:-1] - last
    H = np.full((m, m), -1 / (k * last) + d / (k ** 2 * S))
    H += np.diag(-1 / (k * flat[:-1]) + d / (k ** 2 * S))
    H -= 2 * d / (k ** 4 * S ** 2) * np.outer(v, v)
    return H


def hessian_f_at_flat(k, d):
    """Hessian at the flat matrix plus an eigenvalue summary."""
    if k < 3:
        raise ValidationError("k >= 3 required")
    rho = np.full((k, k), 1 / k)
    H = hessian_f(rho, d)
    eig = np.linalg.eigvalsh(H)
    return H, {"eigenvalues": eig, "max": float(eig.max()),
               "min": float(eig.min())}


@dataclass(frozen=True)
class OptResult:
    best: np.ndarray
    value: float
    f_flat: float
    exceeded_flat: bool
    trace: tuple


def _in_region(rho, region, kappa):
    if region is None or region == "unconstrained":
        return True
    if callable(region):
        return bool(region(rho))
    if isinstance(region, tuple) and region[0] == "stable":
        rep = classify_stability(rho, kappa)
        return rep.separable and rep.s == region[1]
    raise ValidationError("unknown region %r" % (region,))


def _ascend(R, k, d, max_iters=150):
    """Projected-gradient ascent inside the polytope.  Sinkhorn puts the
    start on the polytope once; each step then moves along the gradient
    projected onto the tangent space {X : X 1 = 0, 1^T X = 0}, so row and
    column sums stay 1 without re-projection.  Armijo backtracking starts
    from min(1, 0.9 x the largest step that keeps every entry positive)."""
    R = project_doubly_stochastic(R)[0]
    val = _f_entries(R, k, d)
    for it in range(max_iters):
        # the chart gradient is the full gradient minus its (k,k) entry; the
        # projection removes that constant along with the row/column means
        G = np.append(grad_f(R, d), 0.0).reshape(k, k)
        G = (G - G.mean(axis=1, keepdims=True) - G.mean(axis=0, keepdims=True)
             + G.mean())
        gnorm2 = (G ** 2).sum()
        if gnorm2 < 1e-20:
            break
        down = G < 0
        step = min(1.0, 0.9 * (R[down] / -G[down]).min())
        improved = False
        for _ in range(25):
            cand = R + step * G
            cval = _f_entries(cand, k, d)
            if cval >= val + ARMIJO * step * gnorm2:
                improved = cval - val > 1e-11
                R, val = cand, cval
                break
            step /= 2
        if not improved:
            break
    return R, val, it + 1


def _starts(k, restarts, rng):
    """The flat matrix, `restarts` random positive matrices, and mixtures of
    the flat matrix with permutation matrices, probing the stability-class
    corners."""
    flat = np.full((k, k), 1 / k)
    out = [flat]
    for _ in range(restarts):
        out.append(np.exp(rng.standard_normal((k, k))))
    P = np.zeros((k, k))
    P[np.arange(k), rng.permutation(k)] = 1.0
    for corner in (np.eye(k), P):
        for t in (0.5, 0.9, 0.99):
            out.append((1 - t) * flat + t * corner)
    return out


def maximize_f(k, d, region=None, restarts=20, rng=None, kappa=0.1):
    """Multi-start maximization of f over the Birkhoff polytope.  Starts:
    the flat matrix, `restarts` random interior matrices, and permutation
    corner mixtures.  Candidates outside the region are discarded (rejection,
    not barrier).  Deterministic merge by (value, start index)."""
    if k < 3:
        raise ValidationError("k >= 3 required")
    if not 0 < d < math.inf:
        raise ValidationError("d must be positive and finite, got %r" % (d,))
    if restarts < 0:
        raise ValidationError("restarts >= 0 required, got %r" % (restarts,))
    if rng is None:
        rng = np.random.default_rng(0)
    f_flat = _f_entries(np.full((k, k), 1 / k), k, d)
    trace = []
    best = None
    best_key = None
    for idx, s in enumerate(_starts(k, restarts, rng)):
        R, val, iters = _ascend(s, k, d)
        ok = bool(_in_region(R, region, kappa))
        trace.append({"start": idx, "value": float(val), "iters": iters,
                      "in_region": ok})
        if ok:
            key = (float(val), -idx)
            if best_key is None or key > best_key:
                best, best_key = R, key
    if best is None:
        raise ValidationError("no candidate landed in the requested region")
    value = best_key[0]
    return OptResult(best, value, float(f_flat), bool(value > f_flat + 1e-9),
                     tuple(trace))
