"""Rate functions and exact combinatorial identities for the moment
computations: entropy/KL utilities, admissible and compatible pair
validation, exact partition probabilities (rational arithmetic), first and
second moment rates, small-subgraph-conditioning constants, Chernoff and
binomial large-deviation helpers, and the rainbow-vertex rate calculus.

Rate functions return the leading-order coefficient of (1/n) log only;
polynomial corrections are reported separately where stated.  Exact
identities use Fractions throughout, never floats.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log

import numpy as np

from .errors import ValidationError
from . import guards
from .graphs import count_configurations, double_factorial_odd

SUM_TOL = 1e-12
DS_TOL = 1e-9


def _flat(weights):
    arr = np.asarray(weights, dtype=float)
    return arr.reshape(-1)


def entropy(weights):
    """-sum w ln w with 0 ln 0 = 0."""
    w = _flat(weights)
    if (w < -SUM_TOL).any():
        raise ValidationError("negative weight")
    w = w[w > 0]
    return float(-(w * np.log(w)).sum())


def kl_divergence(mu, nu):
    """sum mu ln(mu/nu); requires mu = 0 wherever nu = 0."""
    m = _flat(mu)
    v = _flat(nu)
    if m.shape != v.shape:
        raise ValidationError("KL needs equal shapes")
    bad = np.where((v == 0) & (m > 0))[0]
    if bad.size:
        raise ValidationError("support violation at index %d" % bad[0])
    mask = m > 0
    return float((m[mask] * np.log(m[mask] / v[mask])).sum())


def kl_bernoulli(p, q):
    """KL((p,1-p) || (q,1-q)) for p, q in (0,1)."""
    if not (0 < p < 1 and 0 < q < 1):
        raise ValidationError("p, q must be interior")
    return p * log(p / q) + (1 - p) * log((1 - p) / (1 - q))


def binomial_ldp_rate(p, q):
    """(1/n) ln P[Bin(n,q) = pn] to leading order: -KL(p||q)."""
    return -kl_bernoulli(p, q)


def phi(x):
    """(1+x) ln(1+x) - x, the Chernoff exponent function (phi(0)=0)."""
    if x < -1:
        raise ValidationError("phi defined on [-1, inf)")
    if x == -1:
        return 1.0
    return (1 + x) * math.log1p(x) - x


def chernoff_bounds(mean, t):
    """(upper, lower) tail bounds exp(-mean*phi(+-t/mean)) for a sum of
    independent [0,1] variables with the given mean.  For t > mean the lower
    tail crosses P[X < 0] and the bound is reported as 0."""
    if mean <= 0 or t <= 0:
        raise ValidationError("mean and t must be positive")
    upper = math.exp(-mean * phi(t / mean))
    lower = 0.0 if t > mean else math.exp(-mean * phi(-t / mean))
    return upper, lower


def chernoff_upper_scaled(mean, t):
    """Simplified upper bound exp(-t*mean*ln(t/e)) for P[X >= t*mean], t > 1."""
    if t <= 1:
        raise ValidationError("scaled form needs t > 1")
    return math.exp(-t * mean * (math.log(t) - 1))


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    try:
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, (float, np.floating)):
            # floats arrive from CLI/JSON; snap to the nearest simple rational
            return Fraction(float(x)).limit_denominator(10 ** 12)
    except (ValueError, ZeroDivisionError, OverflowError):  # "1/0", nan, inf
        pass
    raise ValidationError("cannot interpret %r as a rational" % (x,))


@dataclass(frozen=True)
class AdmissiblePair:
    """Class-size distribution rho over [K] and symmetric edge distribution
    mu over [K]x[K] with matching marginals; rho_i*n and mu_ij*dn integral."""
    rho: tuple
    mu: tuple
    n: int
    d: int

    @property
    def K(self):
        return len(self.rho)


def validate_admissible(rho, mu, n, d):
    rho = tuple(_as_fraction(x) for x in rho)
    K = len(rho)
    mu = tuple(tuple(_as_fraction(x) for x in row) for row in mu)
    if len(mu) != K or any(len(row) != K for row in mu):
        raise ValidationError("mu must be %dx%d" % (K, K))
    violations = []
    if any(x < 0 for x in rho) or any(x < 0 for row in mu for x in row):
        violations.append("negativity")
    if sum(rho) != 1:
        violations.append("rho sums to %s, not 1" % (sum(rho),))
    for i in range(K):
        for j in range(i + 1, K):
            if mu[i][j] != mu[j][i]:
                violations.append("symmetry (%d,%d)" % (i + 1, j + 1))
    for i in range(K):
        if sum(mu[i]) != rho[i]:
            violations.append("marginal row %d" % (i + 1,))
    for i in range(K):
        if (rho[i] * n).denominator != 1:
            violations.append("integrality rho_%d" % (i + 1,))
        for j in range(K):
            if (mu[i][j] * d * n).denominator != 1:
                violations.append("integrality mu_%d%d" % (i + 1, j + 1))
    if violations:
        raise ValidationError("inadmissible (rho, mu): " + "; ".join(violations),
                              violations)
    return AdmissiblePair(rho, mu, n, d)


def exact_partition_probability(pair):
    """Exact probability that a uniform configuration has
    e(V_i, V_j) = mu_ij * dn for every i, j, for any fixed partition with
    class sizes rho_i * n: N * M / (dn-1)!! as a Fraction."""
    n, d, K = pair.n, pair.d, pair.K
    dn = d * n
    guards.check(dn, "MAX_EXACT_CLONES", "dn", "clone")
    m = [[int(pair.mu[i][j] * dn) for j in range(K)] for i in range(K)]
    N = 1
    for i in range(K):
        N *= factorial(int(pair.rho[i] * dn))
        for j in range(K):
            N //= factorial(m[i][j])
    M = 1
    for i in range(K):
        M *= double_factorial_odd(m[i][i] - 1)
        for j in range(i + 1, K):
            M *= factorial(m[i][j])
    return Fraction(N * M, count_configurations(n, d))


def log_partition_probability(pair):
    """Leading order of (1/n) ln P[all class-pair edge counts hit mu*dn]:
    -(d/2) KL(mu || rho (x) rho)."""
    rho = np.array(pair.rho, dtype=float)
    return -pair.d / 2 * kl_divergence(np.array(pair.mu, dtype=float),
                                       np.outer(rho, rho))


def log_expected_partitions(pair):
    """Leading order of (1/n) ln E[#partitions with the given edge profile]."""
    return (entropy(np.array(pair.rho, dtype=float))
            + log_partition_probability(pair))


def rho_hat_offdiag(rho):
    """Off-diagonal product reference measure: rho_i rho_j 1_{i != j}
    normalized by 1 - ||rho||_2^2."""
    r = _flat(rho)
    out = np.outer(r, r)
    np.fill_diagonal(out, 0.0)
    return out / (1 - (r ** 2).sum())


def log_expected_partitions_offdiag(pair):
    """Same as log_expected_partitions, rewritten for mu with zero diagonal:
    H(rho) + (d/2) ln(1 - ||rho||^2) - (d/2) KL(mu || rho_hat)."""
    if any(pair.mu[i][i] != 0 for i in range(pair.K)):
        raise ValidationError("off-diagonal form needs mu_ii = 0")
    rho = np.array(pair.rho, dtype=float)
    mu = np.array(pair.mu, dtype=float)
    y = float((rho ** 2).sum())
    return (entropy(rho) + pair.d / 2 * math.log(1 - y)
            - pair.d / 2 * kl_divergence(mu, rho_hat_offdiag(rho)))


def first_moment_rate(k, d):
    """(1/n) ln E[#proper k-colorings], leading order: ln k + (d/2)ln(1-1/k)."""
    if k < 2:
        raise ValidationError("k >= 2 required")
    return math.log(k) + d / 2 * math.log(1 - 1 / k)


def first_moment_rate_profile(rho, d):
    """Rate for colorings with class-size profile rho:
    H(rho) + (d/2) ln(1 - ||rho||_2^2)."""
    r = _flat(rho)
    if abs(r.sum() - 1) > SUM_TOL:
        raise ValidationError("rho must be a probability distribution")
    return entropy(r) + d / 2 * math.log(1 - float((r ** 2).sum()))


def balanced_first_moment(n, k, d):
    """(log of the exponential part, polynomial exponent) for the expected
    number of balanced proper colorings: the count is
    Theta(n^{-(k-1)/2}) * k^n (1-1/k)^{dn/2}."""
    if n % k != 0:
        raise ValidationError("balanced colorings need k | n")
    return n * first_moment_rate(k, d), -(k - 1) / 2


def ds_residuals(A):
    """(row, column): the largest distance of a row sum and of a column sum
    of the square matrix A from 1; per matrix on a stack (leading axes)."""
    return (np.abs(A.sum(axis=-1) - 1).max(axis=-1),
            np.abs(A.sum(axis=-2) - 1).max(axis=-1))


def _check_doubly_stochastic(rho):
    r = np.asarray(rho, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValidationError("need a square matrix")
    row, col = ds_residuals(r)
    if row > DS_TOL or col > DS_TOL or (r < -DS_TOL).any():
        raise ValidationError(
            "not doubly stochastic (row residual %.3g, col residual %.3g)"
            % (row, col))
    return r


def f_entries(R, k, d):
    """H(R/k) + E(R) on a nonnegative k x k float matrix of total sum k, with
    0 ln 0 = 0; on a stack of such matrices (leading axes), one value per
    matrix.  The one formula for f: `second_moment_rate` and the Birkhoff
    ascent both call it, so they agree to the last bit."""
    S = 1 - 2 / k + (R ** 2).sum(axis=(-2, -1)) / k ** 2
    logs = np.log(R, out=np.zeros(R.shape), where=R > 0)
    H = -(R / k * (logs - math.log(k))).sum(axis=(-2, -1))
    # math.log, not np.log: numpy's vector log can differ from it in the
    # last bit, and every seeded value and argmax so far used math.log
    log_S = np.array([math.log(s) for s in np.ravel(S).tolist()])
    return H + d / 2 * log_S.reshape(np.shape(S))


def second_moment_rate(rho, d):
    """f(rho) = H(rho/k) + E(rho) for a doubly stochastic k x k overlap
    matrix: H(rho/k) = -sum (rho_ij/k) ln(rho_ij/k) and
    E(rho) = (d/2) ln(1 - 2/k + k^{-2} sum rho_ij^2)."""
    r = _check_doubly_stochastic(rho)
    return f_entries(r, r.shape[0], d)


@dataclass(frozen=True)
class CompatiblePair:
    """Doubly stochastic overlap rho (k x k, Fractions) with a symmetric
    pair-edge distribution mu on [k]^4 vanishing on the forbidden set
    {i = s or j = t}; row sums mu_{ij..} = rho_ij / k."""
    rho: tuple   # k x k of Fractions
    mu: tuple    # k x k x k x k of Fractions
    n: int
    d: int

    @property
    def k(self):
        return len(self.rho)


def validate_compatible(rho, mu, n, d):
    rho = tuple(tuple(_as_fraction(x) for x in row) for row in rho)
    k = len(rho)
    mu = tuple(tuple(tuple(tuple(_as_fraction(x) for x in r2) for r2 in r1)
                     for r1 in r0) for r0 in mu)
    violations = []
    for i in range(k):
        if sum(rho[i]) != 1:
            violations.append("rho row %d" % (i + 1,))
        if sum(rho[a][i] for a in range(k)) != 1:
            violations.append("rho col %d" % (i + 1,))
        for j in range(k):
            if (Fraction(n, k) * rho[i][j]).denominator != 1:
                violations.append("integrality rho_%d%d" % (i + 1, j + 1))
    for i in range(k):
        for j in range(k):
            row_sum = Fraction(0)
            for s in range(k):
                for t in range(k):
                    v = mu[i][j][s][t]
                    row_sum += v
                    if v != mu[s][t][i][j] and (i, j) < (s, t):
                        violations.append(
                            "symmetry (%d,%d,%d,%d)" % (i + 1, j + 1, s + 1, t + 1))
                    if (i == s or j == t) and v != 0:
                        violations.append(
                            "forbidden (%d,%d,%d,%d)" % (i + 1, j + 1, s + 1, t + 1))
                    if (v * d * n).denominator != 1:
                        violations.append(
                            "integrality mu_%d%d%d%d" % (i + 1, j + 1, s + 1, t + 1))
            if row_sum != rho[i][j] / k:
                violations.append("marginal (%d,%d)" % (i + 1, j + 1))
    if violations:
        raise ValidationError("incompatible (rho, mu): " + "; ".join(violations),
                              violations)
    return CompatiblePair(rho, mu, n, d)


def rho_hat_compatible(rho):
    """Reference measure on [k]^4: rho_ij rho_st outside {i=s or j=t},
    normalized by k^2 - 2k + ||rho||_2^2."""
    r = np.asarray(rho, dtype=float)
    k = r.shape[0]
    out = np.einsum("ij,st->ijst", r, r)
    idx = np.arange(k)
    out[idx, :, idx, :] = 0.0
    out[:, idx, :, idx] = 0.0
    return out / (k ** 2 - 2 * k + (r ** 2).sum())


def compatible_rate(pair):
    """(1/n) ln E[#coloring pairs of type (rho, mu)], leading order:
    f(rho) - (d/2) KL(mu || rho_hat).  Equivalently (the identity used by the
    derivation) H(rho/k) - (d/2) KL(mu || (rho/k) (x) (rho/k))."""
    r = np.array(pair.rho, dtype=float)
    return second_moment_rate(r, pair.d) - pair.d / 2 * kl_divergence(
        np.array(pair.mu, dtype=float), rho_hat_compatible(r))


@dataclass(frozen=True)
class SubgraphConstants:
    """Constants of the short-cycle (small subgraph conditioning) correction:
    lambda_j = (d-1)^j / (2j), delta_j = -(1-k)^(1-j)."""
    k: int
    d: int
    lambdas: tuple
    deltas: tuple
    partial_sum: float
    correction: float
    converges: bool


def subgraph_constants(k, d, L):
    if k < 2 or d < 2 or L < 1:
        raise ValidationError("need k >= 2, d >= 2, L >= 1")
    lambdas = tuple((d - 1) ** j / (2 * j) for j in range(1, L + 1))
    deltas = tuple(-(1 - k) ** (1 - j) for j in range(1, L + 1))
    s = float(sum(l * dl ** 2 for l, dl in zip(lambdas, deltas)))
    return SubgraphConstants(k, d, lambdas, deltas, s, math.exp(s),
                             (d - 1) / (k - 1) ** 2 < 1)


def h_function(p2, q):
    """-KL(p'' || q) - (1 - p'') ln 2, the exponent maximized over the
    rainbow fraction."""
    return -kl_bernoulli(p2, q) - (1 - p2) * math.log(2)


def h_argmax(q):
    """Stationary point of h_function in p'': 2q / (1+q)."""
    return 2 * q / (1 + q)


def h_max(q):
    """max over p'' of h_function: ln(1 - (1-q)/2)."""
    return math.log(1 - (1 - q) / 2)


def rainbow_rate(p, p_prime, q, k, d):
    """Rate of colorings with rainbow fraction p given per-vertex rainbow
    probability q: ln k + (d/2) ln(1-1/k) - KL(p'||q) - (1-p) ln 2."""
    for x in (p, p_prime, q):
        if not 0 < x < 1:
            raise ValidationError("p, p', q must be interior")
    return (first_moment_rate(k, d) - kl_bernoulli(p_prime, q)
            - (1 - p) * math.log(2))


def dplus(k):
    """Degree bound (2k-1) ln k - 1 + 3 ln^{-3/2} k used for the
    colorability lower bound."""
    if k < 3:
        raise ValidationError("k >= 3 required")
    return (2 * k - 1) * math.log(k) - 1 + 3 / math.log(k) ** 1.5
