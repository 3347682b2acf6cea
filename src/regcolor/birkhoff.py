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
used to put each start on the polytope.  All starts advance together as one
(S, k, k) stack (the ascent in groups of at most STACK_ENTRIES entries):
Sinkhorn, the rate and the chart gradient reduce over the last two axes,
and each start keeps its own Armijo step, stop and step count, so it ends
on the bits it would reach alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from . import guards
from .colorings import CLUSTER_DIAG
from .moments import _check_doubly_stochastic, ds_residuals, f_entries

ARMIJO = 1e-4
SINKHORN_CAP = 10000  # sweeps before project_doubly_stochastic refuses
# both line-sum residuals under this stop Sinkhorn: a decade under 1e-12,
# since each _ascend step rounds the line sums by a few ulps, and a start
# that Sinkhorn left at 9.99e-13 once drifted past 1e-12 in 150 steps
SINKHORN_TOL = 1e-13
ASCENT_CAP = 150      # steps of one start's ascent
ARMIJO_TRIES = 25     # step sizes, each half the last, of one Armijo search
# entries _ascend works on at once: it ascends the starts in groups of at
# most this many entries (or one start), and a group tries as many Armijo
# step sizes at once as fit.  Its arrays of 125 KiB then stay under glibc's
# 128 KiB mmap threshold; larger ones were mapped afresh and page-faulted on
# every step, which made a (2, 100, 100) stack slower than two single starts
STACK_ENTRIES = 16000


def project_doubly_stochastic(M):
    """Alternating row/column normalization until both residuals are under
    SINKHORN_TOL, per matrix of a leading stack axis: each matrix stops at
    its own sweep count.  Returns (matrix or stack, total sweeps)."""
    A = np.asarray(M, dtype=float).copy()
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValidationError("need a square matrix")
    if not np.isfinite(A).all():
        raise ValidationError("Sinkhorn needs finite input")
    if (A <= 0).any():
        raise ValidationError("Sinkhorn needs entrywise positive input")
    stack = A if A.ndim == 3 else A[None]
    res = np.maximum(*ds_residuals(stack))
    live = np.flatnonzero(res >= SINKHORN_TOL)
    W, res = stack[live], res[live]
    sweeps = 0
    for it in range(1, SINKHORN_CAP + 1):
        if not live.size:
            break
        W /= W.sum(axis=-1, keepdims=True)
        W /= W.sum(axis=-2, keepdims=True)
        # the residual check costs as much as the sweep; amortize it
        if it % 8 == 0 or it == SINKHORN_CAP:
            res = np.maximum(*ds_residuals(W))
            done = res < SINKHORN_TOL
            stack[live[done]] = W[done]
            sweeps += it * int(done.sum())
            live, W, res = live[~done], W[~done], res[~done]
    if live.size:
        raise ValidationError(
            "Sinkhorn did not converge in %d iterations (%sresidual %.3g)"
            % (SINKHORN_CAP, "matrix %d, " % live[0] if A.ndim == 3 else "",
               res[0]))
    return A, sweeps


@dataclass(frozen=True)
class StabilityReport:
    s: int
    separable: bool
    label: str


def classify_stability(rho, kappa=0.1):
    """s = number of entries >= 1-kappa; separable iff every entry above 0.51
    is >= 1-kappa; label 's-stable' or 'non-separable'."""
    r = _check_doubly_stochastic(rho)
    s = int((r >= 1 - kappa).sum())
    separable = bool(((r <= float(CLUSTER_DIAG)) | (r >= 1 - kappa)).all())
    return StabilityReport(s, separable, "%d-stable" % s if separable
                           else "non-separable")


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
    return f_entries(R, k, d)


def grad_f(rho, d):
    """Gradient of f composed with the chart, as a vector over the k^2-1
    free entries (row-major, entry (k,k) dropped), per matrix of a leading
    stack axis.  rho must be interior."""
    R = np.asarray(rho, dtype=float)
    k = R.shape[-1]
    if (R <= 0).any():
        raise ValidationError("gradient needs interior rho")
    S = 1 - 2 / k + (R ** 2).sum(axis=(-2, -1))[..., None] / k ** 2
    flat = R.reshape(R.shape[:-2] + (k * k,))
    last = flat[..., -1:]
    g = (-np.log(flat / last) / k + d * (flat - last) / (k ** 2 * S))
    return g[..., :-1]


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


def _ascend(R, k, d):
    """Projected-gradient ascent inside the polytope, every start of the
    (S, k, k) stack R at once.  Sinkhorn puts the starts on the polytope
    once; each step then moves along the gradient projected onto the tangent
    space {X : X 1 = 0, 1^T X = 0}, so row and column sums stay 1 without
    re-projection.  Armijo backtracking starts from min(1, 0.9 x the largest
    step that keeps every entry positive).  Each start keeps its own step,
    tries and stop; a stopped start is frozen.  Returns the stack, the (S,)
    values and the (S,) step counts."""
    R = project_doubly_stochastic(R)[0]
    val = np.empty(len(R))
    iters = np.zeros(len(R), dtype=int)
    rows = max(1, STACK_ENTRIES // (k * k))
    for lo in range(0, len(R), rows):
        _ascend_rows(R, val, iters, np.arange(lo, min(lo + rows, len(R))),
                     k, d)
    return R, val, iters


def _ascend_rows(R, val, iters, live, k, d):
    """_ascend on the rows `live` of R, writing R, val and iters there."""
    X = R[live]   # the rows still ascending, compacted
    v = f_entries(X, k, d)
    for it in range(ASCENT_CAP):
        iters[live] = it + 1
        # the chart gradient is the full gradient minus its (k,k) entry; the
        # projection removes that constant along with the row/column means
        # (sum / count is G.mean's own arithmetic, bit for bit, called faster)
        G = np.concatenate((grad_f(X, d), np.zeros((len(X), 1))),
                           axis=1).reshape(-1, k, k)
        G = (G - G.sum(axis=2, keepdims=True) / k
             - G.sum(axis=1, keepdims=True) / k
             + G.sum(axis=(1, 2), keepdims=True) / (k * k))
        gnorm2 = (G ** 2).sum(axis=(1, 2))
        step = np.minimum(1.0, 0.9 * np.divide(
            X, -G, out=np.full_like(G, np.inf), where=G < 0).min(axis=(1, 2)))
        # every row tries its full step; the rows that fail try halvings
        moving = gnorm2 >= 1e-20
        cand = X + step[:, None, None] * G
        cval = f_entries(cand, k, d)
        ok = moving & (cval >= v + ARMIJO * step * gnorm2)
        improved = ok & (cval - v > 1e-11)
        if ok.all():   # the common case: take the candidates without a copy
            X, v = cand, cval
        else:
            np.copyto(X, cand, where=ok[:, None, None])
            v = np.where(ok, cval, v)
            _halve(X, v, G, step, gnorm2, np.flatnonzero(moving & ~ok),
                   improved, k, d)
        if not improved.all():
            stop = ~improved
            R[live[stop]], val[live[stop]] = X[stop], v[stop]
            live, X, v = live[improved], X[improved], v[improved]
            if not live.size:
                return
    R[live], val[live] = X, v


def _halve(X, v, G, step, gnorm2, todo, improved, k, d):
    """The Armijo halvings of the rows `todo`, whose full step failed: the
    next 5 step sizes at once, then the last 19, fewer where they would pass
    STACK_ENTRIES (dividing by a power of two is exact, so step / 2**j is
    the step halved j times).  Writes X, v and improved in place."""
    tried = 1
    while todo.size and tried < ARMIJO_TRIES:
        b = min(4 * tried + 1, ARMIJO_TRIES - tried,
                max(1, STACK_ENTRIES // (todo.size * k * k)))
        steps = step[todo, None] / 2.0 ** np.arange(tried, tried + b)
        cand = X[todo, None] + steps[:, :, None, None] * G[todo, None]
        cval = f_entries(cand, k, d)
        ok = cval >= v[todo, None] + ARMIJO * steps * gnorm2[todo, None]
        hit = ok.any(axis=1)
        j = ok.argmax(axis=1)[hit]
        won, rows = cval[hit, j], todo[hit]
        improved[rows] = won - v[rows] > 1e-11
        X[rows], v[rows] = cand[hit, j], won
        todo = todo[~hit]
        tried += b


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


def maximize_f(k, d, stable=None, restarts=20, rng=None, kappa=0.1):
    """Multi-start maximization of f over the Birkhoff polytope.  Starts:
    the flat matrix, `restarts` random interior matrices, and permutation
    corner mixtures.  With `stable` = s, a candidate is kept only if it is
    s-stable at `kappa` (rejection, not barrier).  Deterministic merge by
    (value, start index)."""
    if k < 3:
        raise ValidationError("k >= 3 required")
    if not 0 < d < math.inf:
        raise ValidationError("d must be positive and finite, got %r" % (d,))
    if restarts < 0:
        raise ValidationError("restarts >= 0 required, got %r" % (restarts,))
    # the flat start, the random ones and six corner mixtures
    guards.check((restarts + 7) * k * k, "MAX_START_ENTRIES", "entries",
                 "entry")
    if not math.isfinite(kappa):
        raise ValidationError("kappa must be a finite number, got %r"
                              % (kappa,))
    if rng is None:
        rng = np.random.default_rng(0)
    trace = []
    best = None
    best_key = None
    Rs, vals, iters = _ascend(np.stack(_starts(k, restarts, rng)), k, d)
    for idx, (R, val) in enumerate(zip(Rs, vals)):
        rep = None if stable is None else classify_stability(R, kappa)
        ok = rep is None or (rep.separable and rep.s == stable)
        trace.append({"start": idx, "value": float(val),
                      "iters": int(iters[idx]), "in_region": ok})
        if ok:
            key = (float(val), -idx)
            if best_key is None or key > best_key:
                best, best_key = R, key
    if best is None:
        raise ValidationError("no candidate landed in the requested region")
    value = best_key[0]
    # start 0 is the flat matrix, which neither Sinkhorn nor the ascent moves
    return OptResult(best.copy(), value, float(vals[0]),
                     bool(value > vals[0] + 1e-9), tuple(trace))
