"""The per-start optimizer that `birkhoff._ascend` replaced, kept verbatim as
the oracle of the stacked one: one k x k matrix at a time, with its own
Sinkhorn loop, rate and chart gradient.  `test_birkhoff` asserts that every
start of a stack ends on the same bytes, value and step count as here."""

import math

import numpy as np

from regcolor.errors import ValidationError

ARMIJO = 1e-4
SINKHORN_CAP = 10000  # sweeps before project_doubly_stochastic refuses
ASCENT_CAP = 150      # steps of one start's ascent


def ds_residuals(A):
    return np.abs(A.sum(axis=1) - 1).max(), np.abs(A.sum(axis=0) - 1).max()


def f_entries(R, k, d):
    S = 1 - 2 / k + (R ** 2).sum() / k ** 2
    logs = np.log(R, out=np.zeros_like(R), where=R > 0)
    H = -(R / k * (logs - math.log(k))).sum()
    return H + d / 2 * math.log(S)


def project_doubly_stochastic(M, tol=1e-13):
    A = np.asarray(M, dtype=float).copy()
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("need a square matrix")
    if (A <= 0).any():
        raise ValidationError("Sinkhorn needs entrywise positive input")
    res = max(ds_residuals(A))
    if res < tol:
        return A, 0
    for it in range(1, SINKHORN_CAP + 1):
        A /= A.sum(axis=1, keepdims=True)
        A /= A.sum(axis=0, keepdims=True)
        # the residual check costs as much as the sweep; amortize it
        if it % 8 == 0 or it == SINKHORN_CAP:
            res = max(ds_residuals(A))
            if res < tol:
                return A, it
    raise ValidationError(
        "Sinkhorn did not converge in %d iterations (residual %.3g)"
        % (SINKHORN_CAP, res))


def grad_f(rho, d):
    R = np.asarray(rho, dtype=float)
    k = R.shape[0]
    if (R <= 0).any():
        raise ValidationError("gradient needs interior rho")
    S = 1 - 2 / k + (R ** 2).sum() / k ** 2
    flat = R.reshape(-1)
    last = flat[-1]
    g = (-np.log(flat / last) / k + d * (flat - last) / (k ** 2 * S))
    return g[:-1]


def ascend(R, k, d):
    R = project_doubly_stochastic(R)[0]
    val = f_entries(R, k, d)
    for it in range(ASCENT_CAP):
        # the chart gradient is the full gradient minus its (k,k) entry; the
        # projection removes that constant along with the row/column means
        # (sum / count is G.mean's own arithmetic, bit for bit, called faster)
        G = np.append(grad_f(R, d), 0.0).reshape(k, k)
        G = (G - G.sum(axis=1, keepdims=True) / k
             - G.sum(axis=0, keepdims=True) / k + G.sum() / (k * k))
        gnorm2 = (G ** 2).sum()
        if gnorm2 < 1e-20:
            break
        down = G < 0
        step = min(1.0, 0.9 * (R[down] / -G[down]).min())
        improved = False
        for _ in range(25):
            cand = R + step * G
            cval = f_entries(cand, k, d)
            if cval >= val + ARMIJO * step * gnorm2:
                improved = cval - val > 1e-11
                R, val = cand, cval
                break
            step /= 2
        if not improved:
            break
    return R, val, it + 1
