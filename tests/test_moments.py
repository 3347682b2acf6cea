import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcolor import colorings, graphs, moments
from regcolor.errors import GuardError, ValidationError


def test_entropy():
    assert moments.entropy([1.0]) == 0.0
    assert abs(moments.entropy([0.5, 0.5]) - math.log(2)) < 1e-14
    assert abs(moments.entropy([0.25] * 4) - math.log(4)) < 1e-14
    assert moments.entropy([0.0, 1.0]) == 0.0  # 0 ln 0 = 0
    with pytest.raises(ValidationError):
        moments.entropy([-0.1, 1.1])


def test_kl_divergence_basics():
    assert moments.kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert moments.kl_divergence([[0.2, 0.3], [0.1, 0.4]],
                                 [[0.2, 0.3], [0.1, 0.4]]) == 0.0
    val = moments.kl_divergence([0.8, 0.2], [0.5, 0.5])
    assert abs(val - (0.8 * math.log(1.6) + 0.2 * math.log(0.4))) < 1e-14
    with pytest.raises(ValidationError, match="index 1"):
        moments.kl_divergence([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(ValidationError, match="KL needs equal shapes"):
        moments.kl_divergence([0.5, 0.5], [0.25, 0.25, 0.5])
    # zero in mu where nu positive is fine
    assert moments.kl_divergence([0.0, 1.0], [0.5, 0.5]) == math.log(2)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
       st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
def test_kl_pinsker(ws, vs):
    m = min(len(ws), len(vs))
    p = np.array(ws[:m]) / sum(ws[:m])
    q = np.array(vs[:m]) / sum(vs[:m])
    kl = moments.kl_divergence(p, q)
    assert kl >= 0.5 * np.abs(p - q).sum() ** 2 - 1e-12


def test_kl_bernoulli_matches_vector_form():
    for p, q in [(0.3, 0.5), (0.9, 0.2), (0.5, 0.5)]:
        assert abs(moments.kl_bernoulli(p, q) -
                   moments.kl_divergence([p, 1 - p], [q, 1 - q])) < 1e-14
    with pytest.raises(ValidationError):
        moments.kl_bernoulli(0.0, 0.5)
    assert moments.binomial_ldp_rate(0.3, 0.5) == -moments.kl_bernoulli(0.3, 0.5)


def test_phi_and_chernoff():
    assert moments.phi(0) == 0.0
    assert moments.phi(-1) == 1.0
    with pytest.raises(ValidationError, match=re.escape("[-1, inf)")):
        moments.phi(-1.5)
    assert abs(moments.phi(1) - (2 * math.log(2) - 1)) < 1e-14
    up, lo = moments.chernoff_bounds(10.0, 5.0)
    assert up == math.exp(-10 * moments.phi(0.5))
    assert lo == math.exp(-10 * moments.phi(-0.5))
    # lower tail reported as 0 when t exceeds the mean
    assert moments.chernoff_bounds(10.0, 11.0)[1] == 0.0
    with pytest.raises(ValidationError):
        moments.chernoff_bounds(-1.0, 1.0)
    assert moments.chernoff_upper_scaled(2.0, 3.0) == \
        math.exp(-3 * 2 * (math.log(3) - 1))
    with pytest.raises(ValidationError):
        moments.chernoff_upper_scaled(2.0, 1.0)


def _flat_mu(K, dn):
    # all-cross mu for K=2: everything on the off-diagonal
    assert K == 2
    return [[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]]


def test_validate_admissible_names_violations():
    rho = [Fraction(1, 2), Fraction(1, 2)]
    bad_sym = [[Fraction(0), Fraction(1, 2)], [Fraction(1, 4), Fraction(1, 4)]]
    with pytest.raises(ValidationError) as e:
        moments.validate_admissible(rho, bad_sym, 4, 2)
    assert any("symmetry" in v for v in e.value.violations)
    bad_marg = [[Fraction(1, 4), Fraction(1, 8)],
                [Fraction(1, 8), Fraction(1, 2)]]
    with pytest.raises(ValidationError) as e:
        moments.validate_admissible(rho, bad_marg, 8, 2)
    assert any("marginal" in v for v in e.value.violations)
    with pytest.raises(ValidationError) as e:
        moments.validate_admissible([Fraction(1, 3), Fraction(2, 3)],
                                    [[Fraction(0), Fraction(1, 3)],
                                     [Fraction(1, 3), Fraction(1, 3)]], 4, 2)
    assert any("integrality" in v for v in e.value.violations)


def test_as_fraction_forms_give_the_same_pair():
    half, zero = Fraction(1, 2), Fraction(0)
    pairs = [moments.validate_admissible(rho, mu, 4, 2) for rho, mu in (
        ([half, half], [[zero, half], [half, zero]]),
        (["1/2", "1/2"], [[0, "1/2"], ["1/2", 0]]),
        ([0.5, np.float64(0.5)], [[np.int64(0), 0.5], [0.5, 0]]))]
    assert pairs[0] == pairs[1] == pairs[2]
    assert pairs[0].rho == (half, half)
    assert all(type(x) is Fraction for row in pairs[2].mu for x in row)
    assert moments._as_fraction(np.int64(3)) == moments._as_fraction(3) == 3
    with pytest.raises(ValidationError, match="cannot interpret None"):
        moments._as_fraction(None)


@pytest.mark.parametrize("bad", ["abc", "1/0", float("nan"), np.float64("nan"),
                                 float("inf")],
                         ids=["text", "zero-denominator", "nan", "np-nan",
                              "inf"])
def test_as_fraction_refuses_malformed_values(bad):
    # each is refused with the one wording, not escaped as a ValueError,
    # ZeroDivisionError or OverflowError
    half, zero = Fraction(1, 2), Fraction(0)
    refusal = re.escape("cannot interpret %r as a rational" % (bad,))
    with pytest.raises(ValidationError, match=refusal):
        moments.validate_admissible([bad, half], [[zero, half], [half, zero]],
                                    4, 2)
    quads = [[[[zero] * 2] * 2] * 2] * 2
    with pytest.raises(ValidationError, match=refusal):
        moments.validate_compatible([[bad, half], [half, half]], quads, 4, 2)


@pytest.mark.parametrize("rho, mu, violation", [
    (["3/2", "-1/2"], [[1, "1/2"], ["1/2", -1]], "negativity"),
    (["1/4", "1/2"], [["-1/4", "1/2"], ["1/2", 0]], "negativity"),
    (["1/4", "1/2"], [[0, "1/4"], ["1/4", "1/4"]], "rho sums to 3/4, not 1"),
])
def test_validate_admissible_refusals(rho, mu, violation):
    with pytest.raises(ValidationError) as e:
        moments.validate_admissible(rho, mu, 4, 2)
    assert violation in e.value.violations


def test_validate_admissible_refuses_a_mu_of_the_wrong_shape():
    for mu in ([[0, "1/2"]], [[0, "1/2"], ["1/2"]]):
        with pytest.raises(ValidationError, match="^mu must be 2x2$"):
            moments.validate_admissible(["1/2", "1/2"], mu, 4, 2)


def _compatible_mu(a, b):
    """The pair-edge distribution over [2]^4 whose only nonzero entries are
    mu_1122 = a and mu_2211 = b."""
    mu = [[[[0] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    mu[0][0][1][1], mu[1][1][0][0] = a, b
    return mu


def test_validate_compatible_names_each_asymmetric_pair_once():
    identity = [[1, 0], [0, 1]]
    assert moments.validate_compatible(
        identity, _compatible_mu("1/2", "1/2"), 4, 1).k == 2
    with pytest.raises(ValidationError) as e:
        moments.validate_compatible(identity, _compatible_mu("1/4", "3/4"),
                                    4, 1)
    assert e.value.violations == ["symmetry (1,1,2,2)", "marginal (1,1)",
                                  "marginal (2,2)"]


@pytest.mark.parametrize("rho, change, n, violation", [
    ([[1, "1/2"], [0, "1/2"]], None, 4, "rho row 1"),
    ([[1, 0], ["1/2", "1/2"]], None, 4, "rho col 1"),
    ([[1, 0], [0, 1]], None, 3, "integrality rho_11"),
    ([[1, 0], [0, 1]], None, 3, "integrality mu_1122"),
    ([[1, 0], [0, 1]], (0, 0, 0, 1), 4, "forbidden (1,1,1,2)"),
    ([[1, 0], [0, 1]], (0, 0, 0, 1), 4, "symmetry (1,1,1,2)"),
])
def test_validate_compatible_refusals(rho, change, n, violation):
    mu = _compatible_mu("1/2", "1/2")
    if change:
        i, j, s, t = change
        mu[i][j][s][t] = "1/4"
    with pytest.raises(ValidationError) as e:
        moments.validate_compatible(rho, mu, n, 1)
    assert violation in e.value.violations


def test_exact_partition_probability_frozen():
    # n=4, d=2, two classes of size 2, all 8 clone-edges crossing:
    # 4! * 4!? no: N = 8!/(4!4!) per class pair ... frozen against direct
    # enumeration below
    pair = moments.validate_admissible(
        [Fraction(1, 2), Fraction(1, 2)], _flat_mu(2, 8), 4, 2)
    assert moments.exact_partition_probability(pair) == Fraction(8, 35)


def test_exact_partition_probability_matches_enumeration():
    # direct check against exhaustive enumeration for several profiles
    n, d = 4, 2
    dn = n * d
    assignment = [0, 0, 1, 1]
    cases = [(0, 0, 4), (2, 0, 2), (0, 2, 2), (2, 2, 0), (4, 2, 0)]
    total_conf = graphs.count_configurations(n, d)
    for m00, m11, m01 in cases:
        if m00 + m01 != 4 or m11 + m01 != 4:
            continue
        mu = [[Fraction(m00, dn), Fraction(m01, dn)],
              [Fraction(m01, dn), Fraction(m11, dn)]]
        pair = moments.validate_admissible(
            [Fraction(1, 2), Fraction(1, 2)], mu, n, d)
        hits = 0
        for conf in graphs.enumerate_configurations(n, d):
            G = graphs.contract(conf)
            M = graphs.class_edge_matrix(G, assignment, 2)
            if M[0][0] == m00 and M[1][1] == m11 and M[0][1] == m01:
                hits += 1
        assert moments.exact_partition_probability(pair) == \
            Fraction(hits, total_conf)


def test_exact_partition_probability_guard():
    pair = moments.AdmissiblePair((Fraction(1),), ((Fraction(1),),), 42, 1)
    with pytest.raises(GuardError):
        moments.exact_partition_probability(pair)


def _all_admissible_mus(rows, dn, K):
    """All symmetric integer matrices with the given row sums and even
    diagonal."""
    cells = [(i, j) for i in range(K) for j in range(i, K)]
    m = [[0] * K for _ in range(K)]
    out = []

    def rec(idx):
        if idx == len(cells):
            if all(sum(m[i]) == rows[i] for i in range(K)):
                out.append([row[:] for row in m])
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
    return out


def test_partition_probabilities_sum_to_one():
    # for a fixed partition, the exact probabilities over all admissible
    # edge profiles must sum to 1
    for n, d, sizes in [(4, 2, (2, 2)), (4, 2, (1, 3)), (3, 2, (1, 2)),
                        (6, 1, (2, 2, 2))]:
        K = len(sizes)
        dn = n * d
        rho = [Fraction(s, n) for s in sizes]
        rows = [s * d for s in sizes]
        total = Fraction(0)
        for m in _all_admissible_mus(rows, dn, K):
            mu = [[Fraction(m[i][j], dn) for j in range(K)] for i in range(K)]
            pair = moments.validate_admissible(rho, mu, n, d)
            total += moments.exact_partition_probability(pair)
        assert total == 1


def test_log_partition_probability_tracks_exact():
    # the leading-order rate is within C ln(n)/n of the exact value
    # (C = 1.5 frozen from a sweep over every admissible profile with
    # dn <= 12, where the measured maximum was 1.416)
    C = 1.5
    for n, d, sizes in [(4, 2, (2, 2)), (6, 2, (3, 3)), (6, 2, (2, 4)),
                        (4, 3, (2, 2))]:
        dn = n * d
        rho = [Fraction(s, n) for s in sizes]
        rows = [s * d for s in sizes]
        for m in _all_admissible_mus(rows, dn, 2):
            mu = [[Fraction(m[i][j], dn) for j in range(2)] for i in range(2)]
            pair = moments.validate_admissible(rho, mu, n, d)
            p = moments.exact_partition_probability(pair)
            if p == 0:
                continue
            lhs = math.log(p) / n
            rhs = moments.log_partition_probability(pair)
            assert abs(lhs - rhs) <= C * math.log(n) / n


def test_offdiag_form_matches_general_form():
    rho = [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
    off = Fraction(1, 6)
    mu = [[Fraction(0) if i == j else off for j in range(3)] for i in range(3)]
    pair = moments.validate_admissible(rho, mu, 6, 2)
    a = moments.log_expected_partitions(pair)
    b = moments.log_expected_partitions_offdiag(pair)
    assert abs(a - b) < 1e-12
    diag = [[Fraction(1, 6) if i == j else Fraction(1, 12) for j in range(3)]
            for i in range(3)]
    pair2 = moments.validate_admissible(rho, diag, 12, 1)
    with pytest.raises(ValidationError):
        moments.log_expected_partitions_offdiag(pair2)


def test_rho_hat_offdiag():
    rho = [0.5, 0.3, 0.2]
    hat = moments.rho_hat_offdiag(rho)
    assert abs(hat.sum() - 1) < 1e-12
    assert (np.diag(hat) == 0).all()


def test_first_moment_rate():
    assert abs(moments.first_moment_rate(3, 5) -
               (math.log(3) + 2.5 * math.log(2 / 3))) < 1e-14
    with pytest.raises(ValidationError):
        moments.first_moment_rate(1, 3)
    # uniform profile reproduces the plain rate
    for k, d in [(3, 4), (4, 7), (5, 12)]:
        assert abs(moments.first_moment_rate_profile([1 / k] * k, d) -
                   moments.first_moment_rate(k, d)) < 1e-12
    with pytest.raises(ValidationError, match="probability distribution"):
        moments.first_moment_rate_profile([0.5, 0.4], 3)


def test_balanced_first_moment_against_exact():
    # exact E[#balanced proper colorings] by linearity: number of balanced
    # partitions times the (unique, for k=3 zero-diagonal) profile
    # probability; the asymptotic form must track it with a slowly varying
    # residual
    k, d = 3, 2
    residuals = []
    for n in (6, 9, 12):
        dn = n * d
        m = dn // 6
        mu = [[Fraction(0) if i == j else Fraction(m, dn) for j in range(3)]
              for i in range(3)]
        pair = moments.validate_admissible([Fraction(1, 3)] * 3, mu, n, d)
        p = moments.exact_partition_probability(pair)
        n_balanced = math.factorial(n) // math.factorial(n // 3) ** 3
        exact = n_balanced * p
        expo, poly = moments.balanced_first_moment(n, k, d)
        assert poly == -(k - 1) / 2
        residuals.append(math.log(float(exact)) - expo - poly * math.log(n))
    assert all(abs(r) < 1.0 for r in residuals)
    assert max(residuals) - min(residuals) < 0.15
    with pytest.raises(ValidationError):
        moments.balanced_first_moment(7, 3, 2)


def test_second_moment_rate_flat():
    for k, d in [(3, 4), (4, 10), (7, 30)]:
        flat = np.full((k, k), 1 / k)
        assert abs(moments.second_moment_rate(flat, d) -
                   2 * moments.first_moment_rate(k, d)) < 1e-12
    with pytest.raises(ValidationError):
        moments.second_moment_rate(np.full((3, 3), 0.5), 4)


def test_second_moment_rate_at_permutation():
    # at a permutation matrix the pair collapses to a single coloring
    k, d = 4, 9
    P = np.eye(k)
    assert abs(moments.second_moment_rate(P, d) -
               moments.first_moment_rate(k, d)) < 1e-12


def test_rho_hat_compatible():
    r = np.full((3, 3), 1 / 3)
    hat = moments.rho_hat_compatible(r)
    assert abs(hat.sum() - 1) < 1e-12
    for i, j, s, t in itertools.product(range(3), repeat=4):
        if i == s or j == t:
            assert hat[i, j, s, t] == 0
        else:
            assert abs(hat[i, j, s, t] - 1 / 36) < 1e-14


def _flat_compatible_pair(k, n, d):
    rho = [[Fraction(1, k)] * k for _ in range(k)]
    val = Fraction(1, k * k * (k - 1) ** 2)
    mu = [[[[val if (i != s and j != t) else Fraction(0)
             for t in range(k)] for s in range(k)]
           for j in range(k)] for i in range(k)]
    return moments.validate_compatible(rho, mu, n, d)


def test_validate_compatible():
    pair = _flat_compatible_pair(3, 36, 2)
    assert pair.k == 3
    # break symmetry
    rho = [[Fraction(1, 3)] * 3 for _ in range(3)]
    val = Fraction(1, 36)
    mu = [[[[val if (i != s and j != t) else Fraction(0)
             for t in range(3)] for s in range(3)]
           for j in range(3)] for i in range(3)]
    mu[0][1][1][0] = Fraction(1, 18)
    with pytest.raises(ValidationError):
        moments.validate_compatible(rho, mu, 36, 2)


def test_compatible_rate_flat_reference():
    # with mu equal to the reference measure the KL term vanishes and the
    # rate collapses to the flat second-moment value
    pair = _flat_compatible_pair(3, 36, 2)
    assert abs(moments.compatible_rate(pair) -
               2 * moments.first_moment_rate(3, 2)) < 1e-12


def _empirical_compatible_pair(G, sigma, tau, n, d):
    """Build (rho, mu) from an actual pair of proper balanced colorings: mu
    is the empirical distribution of edge types."""
    k = sigma.k
    rho = colorings.overlap(sigma, tau)
    dn = d * n
    counts = {}
    for u, v in G.edges:
        a = (sigma.assignment[u], tau.assignment[u],
             sigma.assignment[v], tau.assignment[v])
        b = (a[2], a[3], a[0], a[1])
        counts[a] = counts.get(a, 0) + 1
        counts[b] = counts.get(b, 0) + 1
    mu = [[[[Fraction(counts.get((i, j, s, t), 0), dn) for t in range(k)]
            for s in range(k)] for j in range(k)] for i in range(k)]
    return moments.validate_compatible(rho, mu, n, d)


def test_compatible_rate_identity_on_real_pairs():
    # the rate written through the conditional reference measure must agree
    # with the direct product form H(rho/k) - (d/2) KL(mu || (rho/k)(x)(rho/k))
    # for every realizable pair; this pins the KL coefficient
    n, d, k = 6, 2, 3
    C6 = graphs.multigraph(n, d, [(i, (i + 1) % n) for i in range(n)])
    cols = list(colorings.enumerate_proper_colorings(C6, k, balanced=True))
    checked = 0
    for sigma in cols[:4]:
        for tau in cols:
            pair = _empirical_compatible_pair(C6, sigma, tau, n, d)
            lhs = moments.compatible_rate(pair)
            r = np.array([[float(x) for x in row] for row in pair.rho])
            mu = np.array([[[[float(pair.mu[i][j][s][t]) for t in range(k)]
                             for s in range(k)] for j in range(k)]
                           for i in range(k)])
            q = r / k
            ref = np.einsum("ij,st->ijst", q, q)
            rhs = moments.entropy(q) - d / 2 * moments.kl_divergence(mu, ref)
            assert abs(lhs - rhs) < 1e-10
            checked += 1
    assert checked > 10


def test_subgraph_constants():
    sc = moments.subgraph_constants(3, 5, 3)
    assert sc.lambdas == (2.0, 4.0, 64 / 6)
    assert sc.deltas == (-1.0, 0.5, -0.25)
    assert not sc.converges  # (d-1)/(k-1)^2 = 1
    assert moments.subgraph_constants(3, 4, 2).converges
    expected = 2.0 * 1.0 + 4.0 * 0.25
    assert abs(moments.subgraph_constants(3, 5, 2).partial_sum - expected) < 1e-14
    with pytest.raises(ValidationError):
        moments.subgraph_constants(1, 3, 2)


def test_h_function_calculus():
    for q in (0.55, 0.7, 0.9):
        p0 = moments.h_argmax(q)
        assert abs(moments.h_function(p0, q) - moments.h_max(q)) < 1e-12
        # interior maximum: both neighbors are lower
        for eps in (1e-4, 1e-3):
            assert moments.h_function(p0 + eps, q) < moments.h_function(p0, q)
            assert moments.h_function(p0 - eps, q) < moments.h_function(p0, q)


def test_rainbow_rate():
    k, d, q = 4, 10, 0.7
    base = moments.first_moment_rate(k, d)
    assert abs(moments.rainbow_rate(q, q, q, k, d) -
               (base - (1 - q) * math.log(2))) < 1e-12
    with pytest.raises(ValidationError):
        moments.rainbow_rate(0.0, 0.5, 0.5, 3, 5)


def test_dplus():
    k = 5
    assert abs(moments.dplus(k) - ((2 * k - 1) * math.log(k) - 1
                                   + 3 / math.log(k) ** 1.5)) < 1e-14
    with pytest.raises(ValidationError):
        moments.dplus(2)
