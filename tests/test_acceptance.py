"""End-to-end acceptance checks: exact identities at enumerable scale,
statistical checks of the rate formulas at Monte Carlo scale, and the
numerical properties of the threshold table.

Two checks are known to fail and are kept failing on purpose rather than
weakened; see the repository notes for the analysis:
- the flat-point Hessian eigenvalue bound (< -1/2) holds only for k >= 10 at
  d = ceil((2k-2) ln(k-1)); the exact top eigenvalue is d/(k-1)^2 - 1;
- the cluster-size bound 2^|F1 minus F2| * k^|F2| is violated on tiny planted
  instances where a Kempe swap (two colors exchanged on a small set of
  vertices, on simple graphs too) gives a second cluster member while every
  vertex is classified complete.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from regcolor import (birkhoff, clustergeo, colorings, experiments, graphs,
                      moments, rng, threshold)


# 1. exact partition identity ------------------------------------------------

def _partitions_for(n, K):
    """One contiguous partition per class-size profile."""
    out = []
    if K == 2:
        profiles = [(a, n - a) for a in range(1, n // 2 + 1)]
    else:
        profiles = [(a, b, n - a - b)
                    for a in range(1, n - 1) for b in range(a, n - a)
                    if n - a - b >= b]
    for sizes in profiles:
        assign = []
        for cls, s in enumerate(sizes):
            assign.extend([cls] * s)
        out.append((sizes, assign))
    return out


def _admissible_mus(rows, K):
    cells = [(i, j) for i in range(K) for j in range(i, K)]
    m = [[0] * K for _ in range(K)]
    found = []

    def rec(idx):
        if idx == len(cells):
            if all(sum(m[i]) == rows[i] for i in range(K)):
                found.append(tuple(tuple(row) for row in m))
            return
        i, j = cells[idx]
        hi = rows[i] - sum(m[i])
        for v in range(0, hi + 1):
            if i == j and v % 2:
                continue
            m[i][j] = m[j][i] = v
            if sum(m[i]) <= rows[i] and sum(m[j]) <= rows[j]:
                rec(idx + 1)
            m[i][j] = m[j][i] = 0

    rec(0)
    return found


@pytest.mark.parametrize("n,d", [(4, 1), (2, 2), (6, 1), (3, 2),
                                 (8, 1), (4, 2), (5, 2), (10, 1),
                                 (6, 2), (4, 3)])
def test_exact_partition_identity(n, d):
    dn = n * d
    total_conf = graphs.count_configurations(n, d)
    confs = [graphs.contract(c) for c in graphs.enumerate_configurations(n, d)]
    assert len(confs) == total_conf
    for K in (2, 3):
        if K > n:
            continue
        for sizes, assign in _partitions_for(n, K):
            hits = Counter()
            for G in confs:
                M = graphs.class_edge_matrix(G, assign, K)
                hits[tuple(tuple(int(x) for x in row) for row in M)] += 1
            rho = [Fraction(s, n) for s in sizes]
            rows = [s * d for s in sizes]
            total = Fraction(0)
            for m in _admissible_mus(rows, K):
                mu = [[Fraction(m[i][j], dn) for j in range(K)]
                      for i in range(K)]
                pair = moments.validate_admissible(rho, mu, n, d)
                p = moments.exact_partition_probability(pair)
                assert p == Fraction(hits.get(m, 0), total_conf), \
                    (n, d, sizes, m)
                total += p
            assert total == 1


# 2. first-moment oracle -----------------------------------------------------

def test_first_moment_by_linearity_matches_enumeration():
    n, d, k = 4, 3, 3
    dn = n * d
    # enumeration side: average number of proper colorings
    total = Fraction(0)
    count = 0
    for conf in graphs.enumerate_configurations(n, d):
        total += colorings.count_colorings(graphs.contract(conf), k)
        count += 1
    assert count == 10395
    enumerated = total / count

    # linearity side: sum over assignments of P[assignment proper], each
    # probability a sum of exact partition probabilities over zero-diagonal
    # admissible edge profiles
    by_linearity = Fraction(0)
    for assign in itertools.product(range(k), repeat=n):
        sizes = [assign.count(c) for c in range(k)]
        rho = [Fraction(s, n) for s in sizes]
        rows = [s * d for s in sizes]
        for m in _admissible_mus(rows, k):
            if any(m[i][i] != 0 for i in range(k)):
                continue
            mu = [[Fraction(m[i][j], dn) for j in range(k)] for i in range(k)]
            pair = moments.validate_admissible(rho, mu, n, d)
            by_linearity += moments.exact_partition_probability(pair)
    assert by_linearity == enumerated


# 3. Poisson cycle means ------------------------------------------------------

def test_cycle_count_means():
    spec = experiments.parse_spec(
        "kind = cycle-census\nn = 10000\nd = 3\nL = 3\n"
        "samples = 1000\nseed = 20240817")
    rep = experiments.run_experiment(spec)
    targets = {"xi_1": 1.0, "xi_2": 1.0, "xi_3": 4 / 3}
    for name, target in targets.items():
        ms = rep.metrics[name]
        assert abs(ms.mean - target) <= 0.05 * target, (name, ms.mean)
        assert ms.ci_lo <= target <= ms.ci_hi, (name, ms)


# 4. flat-point stationarity and Hessian --------------------------------------

def _k_to_d(k):
    return math.ceil((2 * k - 2) * math.log(k - 1))


@pytest.mark.parametrize("k", range(3, 21))
def test_flat_point_gradient_and_hessian_fd(k):
    d = _k_to_d(k)
    flat = np.full((k, k), 1 / k)
    assert np.abs(birkhoff.grad_f(flat, d)).max() < 1e-9
    H = birkhoff.hessian_f(flat, d)
    x = birkhoff.to_chart(flat)
    h = 1e-5
    idxs = range(len(x)) if k <= 6 else range(0, len(x), len(x) // 12)
    for a in idxs:
        xp, xm = x.copy(), x.copy()
        xp[a] += h
        xm[a] -= h
        fd = (birkhoff.grad_f(birkhoff.from_chart(xp, k), d)
              - birkhoff.grad_f(birkhoff.from_chart(xm, k), d)) / (2 * h)
        assert np.abs(H[a] - fd).max() < 1e-4


@pytest.mark.parametrize("k", range(3, 21))
def test_flat_point_hessian_negative_definite_margin(k):
    # known to fail for k in 3..9: the top eigenvalue is d/(k-1)^2 - 1,
    # which only drops below -1/2 once d < (k-1)^2 / 2
    d = _k_to_d(k)
    _, summary = birkhoff.hessian_f_at_flat(k, d)
    assert summary["max"] < -0.5, \
        "top eigenvalue %.6f = d/(k-1)^2 - 1 at k=%d, d=%d" \
        % (summary["max"], k, d)


# 5. flat-matrix identity ------------------------------------------------------

def test_flat_second_moment_identity():
    ks = list(range(3, 101)) + [200, 500, 1000]
    for k in ks:
        d = math.ceil((2 * k - 1) * math.log(k))
        flat = np.full((k, k), 1 / k)
        val = moments.second_moment_rate(flat, d)
        ref = 2 * math.log(k) + d * math.log(1 - 1 / k)
        assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref)), k


# 6. core inclusion -------------------------------------------------------------

@pytest.mark.parametrize("k,n,d", [(4, 1000, 12), (6, 996, 15), (8, 1000, 14)])
def test_core_inclusion_planted(k, n, d):
    sigma = experiments.flat_planted_coloring(n, k)
    for idx in range(100):
        G, _ = experiments.sample_flat_planted(
            n, d, k, rng.stream(900 + k, idx))
        for ell in (1, 2, 3):
            ok, witness = clustergeo.check_core_inclusion(G, sigma, ell)
            assert ok, (k, ell, idx, witness)


# 7. cluster-size bound ----------------------------------------------------------

@pytest.mark.parametrize("k,n,d", [(2, 8, 2), (2, 8, 3), (2, 12, 2),
                                   (3, 12, 2), (3, 12, 4)])
def test_cluster_size_bound(k, n, d):
    # known to fail on these tiny instances: a Kempe swap, such as a 4-cycle
    # component exchanging its two colors, gives a second cluster member
    # while every vertex is classified complete (bound 1)
    sigma = experiments.flat_planted_coloring(n, k)
    for idx in range(10):
        G, _ = experiments.sample_flat_planted(
            n, d, k, rng.stream(700 + 10 * k + d, idx))
        cluster = colorings.cluster_of(G, sigma)
        for ell in (1, 2):
            rep = clustergeo.freedom_report(G, sigma, ell)
            bound = (2 ** int(np.count_nonzero(rep.free_1 & ~rep.free_2))
                     * k ** int(np.count_nonzero(rep.free_2)))
            assert len(cluster) <= bound, \
                "cluster size %d > bound %d at k=%d n=%d d=%d ell=%d trial %d" \
                % (len(cluster), bound, k, n, d, ell, idx)


# 8. vacant-vertex probability -----------------------------------------------

def test_vacant_fraction_matches_binomial():
    k, d, n = 5, 16, 1000
    sigma = experiments.flat_planted_coloring(n, k)
    p = (1 - (1 / (k * (k - 1))) / (1 / k)) ** d  # (1 - 1/(k-1))^d
    size = n // k
    three_sigma = 3 * math.sqrt(p * (1 - p) / size)
    color = np.asarray(sigma.assignment)
    inside = 0
    cells = 0
    for idx in range(100):
        G, _ = experiments.sample_flat_planted(
            n, d, k, rng.stream(808, idx))
        vacant = colorings.vacant_table(G, sigma)
        for i, j in itertools.permutations(range(k), 2):
            cells += 1
            fraction = np.count_nonzero(vacant[color == i, j]) / size
            if abs(fraction - p) <= three_sigma:
                inside += 1
    assert cells == 100 * k * (k - 1)
    assert inside / cells >= 0.95


# 9. threshold table ------------------------------------------------------------

def test_threshold_table_properties():
    scan = threshold.threshold_scan(5, 10 ** 6)
    eps = scan["k"].astype(float) ** -0.9
    expected_length = 2 * math.log(2) - 1 + 2 * eps
    assert np.abs(scan["length"] - expected_length).max() <= 1e-12
    assert (scan["n_integers"] <= 1).all()
    spacing = np.diff(scan["d_col"])
    assert (spacing > 2 * np.log(scan["k"][:-1])).all()


# 10. rainbow-rate calculus -------------------------------------------------------

def test_h_maximization_matches_closed_form():
    r = rng.stream(606, 0)

    def h_deriv(p, q):
        return -math.log(p / q) + math.log((1 - p) / (1 - q)) + math.log(2)

    for _ in range(100):
        q = 0.5 + 0.5 * float(r.uniform(1e-3, 1 - 1e-3))
        root = scipy.optimize.brentq(h_deriv, 1e-9, 1 - 1e-9, args=(q,),
                                     xtol=1e-14)
        assert abs(root - moments.h_argmax(q)) < 1e-10
        assert abs(moments.h_function(root, q) - moments.h_max(q)) < 1e-10
        # the numerical maximizer really is a maximum, not a saddle
        assert moments.h_function(root + 1e-4, q) < moments.h_function(root, q)
        assert moments.h_function(root - 1e-4, q) < moments.h_function(root, q)


# 11. first-moment sign ------------------------------------------------------------

def test_first_moment_rate_signs():
    for k in range(3, 101):
        d_hi = (2 * k - 1) * math.log(k)
        assert moments.first_moment_rate(k, d_hi) < 0, k
        # the rate is decreasing in d, so negativity at the left edge of
        # the regime covers every larger degree
        assert moments.first_moment_rate(k, d_hi + 7) < \
            moments.first_moment_rate(k, d_hi)
        d_col = threshold.threshold_record(k).d_col
        assert moments.first_moment_rate(k, d_col - 1) > 0, k
