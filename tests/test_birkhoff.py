import math
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regcolor import birkhoff, moments, rng
from regcolor.errors import ValidationError

import ascent_reference as reference


def random_ds(k, seed):
    r = np.random.default_rng(seed)
    M, _ = birkhoff.project_doubly_stochastic(np.exp(r.standard_normal((k, k))))
    return M


def test_sinkhorn_refuses_past_its_cap(monkeypatch):
    monkeypatch.setattr(birkhoff, "SINKHORN_CAP", 3)
    A = np.exp(np.random.default_rng(0).standard_normal((4, 4)))
    with pytest.raises(ValidationError,
                       match="Sinkhorn did not converge in 3 iterations"):
        birkhoff.project_doubly_stochastic(A)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sinkhorn_refuses_non_finite_input(monkeypatch, bad):
    # refused before the first sweep, not after SINKHORN_CAP of them
    monkeypatch.setattr(birkhoff, "SINKHORN_CAP", 0)
    A = np.ones((3, 3))
    A[1, 2] = bad
    for M in (A, np.stack([np.ones((3, 3)), A])):
        with pytest.raises(ValidationError,
                           match="^Sinkhorn needs finite input$"):
            birkhoff.project_doubly_stochastic(M)


def test_sinkhorn_stack_gives_each_matrix_its_own_sweeps(monkeypatch):
    k = 5
    r = np.random.default_rng(3)
    stack = np.stack([np.full((k, k), 1 / k),
                      np.exp(0.1 * r.standard_normal((k, k))),
                      np.exp(3 * r.standard_normal((k, k)))])
    P, sweeps = birkhoff.project_doubly_stochastic(stack)
    want = [reference.project_doubly_stochastic(M) for M in stack]
    assert [w[1] for w in want] == [0, 8, 56]
    assert sweeps == 64 and type(sweeps) is int
    for got, (M, _) in zip(P, want):
        assert got.tobytes() == M.tobytes()
    # the middle matrix converges at the cap, the last one is refused by name
    monkeypatch.setattr(birkhoff, "SINKHORN_CAP", 8)
    with pytest.raises(ValidationError,
                       match=r"^Sinkhorn did not converge in 8 iterations "
                             r"\(matrix 2, residual "):
        birkhoff.project_doubly_stochastic(stack)
    birkhoff.project_doubly_stochastic(stack[:2])


@pytest.mark.parametrize("k", [3, 7, 12])
def test_stack_axis_matches_matrix_by_matrix(k):
    # f, the chart gradient and Sinkhorn reduce over the last two axes: a
    # stack gives each matrix the bits it gets alone, and a (k, k) input
    # keeps its scalar, vector and matrix returns
    d = 9.0
    stack = np.stack([random_ds(k, seed) for seed in range(5)])
    vals, grads = moments.f_entries(stack, k, d), birkhoff.grad_f(stack, d)
    assert vals.shape == (5,) and grads.shape == (5, k * k - 1)
    for M, val, g in zip(stack, vals, grads):
        alone = moments.f_entries(M, k, d)
        assert type(alone) is np.float64
        assert val == alone == reference.f_entries(M, k, d)
        assert g.tobytes() == birkhoff.grad_f(M, d).tobytes() \
            == reference.grad_f(M, d).tobytes()
    M, sweeps = birkhoff.project_doubly_stochastic(stack[0])
    assert M.shape == (k, k) and sweeps == 0


def test_project_doubly_stochastic():
    k = 4
    M, iters = birkhoff.project_doubly_stochastic(np.full((k, k), 1 / k))
    assert iters == 0
    r = np.random.default_rng(0)
    A = np.exp(r.standard_normal((k, k)))
    P, iters = birkhoff.project_doubly_stochastic(A)
    assert iters > 0
    assert np.abs(P.sum(axis=0) - 1).max() < 1e-11
    assert np.abs(P.sum(axis=1) - 1).max() < 1e-11
    with pytest.raises(ValidationError):
        birkhoff.project_doubly_stochastic(np.array([[1.0, -0.1], [0.5, 0.5]]))
    with pytest.raises(ValidationError):
        birkhoff.project_doubly_stochastic(np.ones((2, 3)))


def test_classify_stability():
    k = 4
    flat = np.full((k, k), 1 / k)
    rep = birkhoff.classify_stability(flat)
    assert rep.s == 0 and rep.separable and rep.label == "0-stable"
    ident = np.eye(k)
    rep = birkhoff.classify_stability(ident)
    assert rep.s == k and rep.separable and rep.label == "4-stable"
    mixed = 0.7 * np.eye(k) + 0.3 * flat
    rep = birkhoff.classify_stability(mixed)
    assert not rep.separable and rep.label == "non-separable"
    with pytest.raises(ValidationError):
        birkhoff.classify_stability(np.full((k, k), 0.5))


@pytest.mark.parametrize("bad", [[[1.5, -0.5], [-0.5, 1.5]], [0.5, 0.5],
                                 np.full((2, 2, 2), 0.5)])
def test_classify_stability_refuses_what_f_refuses(bad):
    # a negative entry, one row, a stack: none is one doubly stochastic matrix
    for call in (birkhoff.classify_stability,
                 lambda r: moments.second_moment_rate(r, 3)):
        with pytest.raises(ValidationError):
            call(bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 40), st.floats(0.01, 200), st.integers(0, 4),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([None, 0]))
def test_f_flat_is_f_at_the_flat_matrix(k, d, restarts, seed, stable):
    # the flat start is 0-stable, so stable = 0 never leaves the region empty
    res = birkhoff.maximize_f(k, d, stable, restarts,
                              np.random.default_rng(seed))
    assert res.f_flat == moments.f_entries(np.full((k, k), 1 / k), k, d)


def test_chart_roundtrip():
    k = 3
    R = random_ds(k, 1)
    x = birkhoff.to_chart(R)
    assert x.shape == (k * k - 1,)
    back = birkhoff.from_chart(x, k)
    assert np.abs(back - R).max() < 1e-12
    assert abs(birkhoff.f_chart(x, k, 5) -
               moments.second_moment_rate(R, 5)) < 1e-12
    with pytest.raises(ValidationError):
        birkhoff.f_chart(np.full(k * k - 1, 2.0), k, 5)  # rho_kk negative


def test_grad_matches_finite_differences():
    k, d = 3, 7
    for seed in range(3):
        R = random_ds(k, seed)
        x = birkhoff.to_chart(R)
        g = birkhoff.grad_f(R, d)
        h = 1e-6
        for idx in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            fd = (birkhoff.f_chart(xp, k, d) - birkhoff.f_chart(xm, k, d)) / (2 * h)
            assert abs(g[idx] - fd) < 1e-6


def test_hessian_matches_finite_differences():
    k, d = 3, 7
    R = random_ds(k, 5)
    x = birkhoff.to_chart(R)
    H = birkhoff.hessian_f(R, d)
    assert np.abs(H - H.T).max() < 1e-12
    h = 1e-5
    m = len(x)
    for a in range(m):
        xp, xm = x.copy(), x.copy()
        xp[a] += h
        xm[a] -= h
        gp = birkhoff.grad_f(birkhoff.from_chart(xp, k), d)
        gm = birkhoff.grad_f(birkhoff.from_chart(xm, k), d)
        fd_row = (gp - gm) / (2 * h)
        assert np.abs(H[a] - fd_row).max() < 1e-5


def test_grad_and_hessian_refuse_a_boundary_point():
    # the identity is doubly stochastic but has zero entries, where the
    # log terms of f are unbounded
    ident = np.eye(3)
    with pytest.raises(ValidationError, match="gradient needs interior rho"):
        birkhoff.grad_f(ident, 5)
    with pytest.raises(ValidationError, match="Hessian needs interior rho"):
        birkhoff.hessian_f(ident, 5)


def test_gradient_zero_at_flat():
    for k, d in [(3, 5), (5, 20), (10, 80)]:
        flat = np.full((k, k), 1 / k)
        assert np.abs(birkhoff.grad_f(flat, d)).max() < 1e-12


def test_hessian_at_flat_closed_form():
    # at the flat matrix the chart Hessian is (c-1)(I + J) with
    # c = d/(k-1)^2, so the spectrum is {c-1, (c-1)(k^2)}-ish: eigenvalues
    # (c-1) with multiplicity k^2-2 and (c-1)k^2
    for k, d in [(3, 6), (4, 14), (6, 40)]:
        H, summary = birkhoff.hessian_f_at_flat(k, d)
        c = d / (k - 1) ** 2
        m = k * k - 1
        expected = (c - 1) * (np.eye(m) + np.ones((m, m)))
        assert np.abs(H - expected).max() < 1e-9
        assert abs(summary["max"] - max(c - 1, (c - 1) * (m + 1))) < 1e-9
        assert abs(summary["min"] - min(c - 1, (c - 1) * (m + 1))) < 1e-9
    with pytest.raises(ValidationError):
        birkhoff.hessian_f_at_flat(2, 3)


def test_maximize_f_deterministic():
    a = birkhoff.maximize_f(3, 6, restarts=3, rng=rng.stream(0, 0))
    b = birkhoff.maximize_f(3, 6, restarts=3, rng=rng.stream(0, 0))
    assert a.value == b.value
    assert np.array_equal(a.best, b.best)
    assert len(a.trace) == 3 + 1 + 6  # restarts + flat + corner starts


def test_maximize_f_below_threshold():
    # small d: the flat matrix is the global maximizer, so nothing beats it
    # (d=4 at k=3 is the degenerate point where the flat Hessian vanishes,
    # so stay strictly below it)
    res = birkhoff.maximize_f(3, 2, restarts=10, rng=rng.stream(1, 0))
    assert not res.exceeded_flat
    assert res.value >= res.f_flat - 1e-9
    assert abs(res.f_flat - 2 * moments.first_moment_rate(3, 2)) < 1e-12


def test_maximize_f_above_threshold():
    # d far above the threshold: permutation corners beat the flat matrix
    # (f(P) = first_moment_rate < 0 < ... here f(P) > f(flat) since the
    # rate is negative)
    k, d = 3, 20
    res = birkhoff.maximize_f(k, d, restarts=2, rng=rng.stream(2, 0))
    assert res.exceeded_flat
    assert res.value >= moments.first_moment_rate(k, d) - 1e-6


def test_maximize_f_region():
    k, d = 3, 20
    res = birkhoff.maximize_f(k, d, stable=k, restarts=2,
                              rng=rng.stream(3, 0))
    rep = birkhoff.classify_stability(res.best)
    assert rep.separable and rep.s == k
    with pytest.raises(ValidationError):
        birkhoff.maximize_f(3, 5, stable=99, restarts=2,
                            rng=rng.stream(4, 0))
    with pytest.raises(ValidationError):
        birkhoff.maximize_f(2, 5)


# a near-flat start where two formulas for f once differed in the last bit
NEAR_FLAT = (8, 1.0, 1, 1e-12)
# a start Sinkhorn leaves 9.99e-13 off in a row sum, which the steps' rounding
# once pushed past 1e-12
SINKHORN_EDGE = (3, 50.0, 11352, 2.4052194491458474)


def _spread_start(k, seed, spread):
    r = np.random.default_rng(seed)
    return np.exp(spread * r.standard_normal((k, k))), r


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 8), st.floats(0.01, 60), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 3.0))
@example(*NEAR_FLAT)
@example(*SINKHORN_EDGE)
def test_ascend_stays_on_polytope_and_improves(k, d, seed, spread):
    start = _spread_start(k, seed, spread)[0]
    P, _ = birkhoff.project_doubly_stochastic(start)
    Rs, vals, iters = birkhoff._ascend(start[None], k, d)
    R, val, iters = Rs[0], vals[0], iters[0]
    assert np.abs(R.sum(axis=0) - 1).max() < 1e-12
    assert np.abs(R.sum(axis=1) - 1).max() < 1e-12
    assert (R > 0).all()
    assert 1 <= iters <= 150
    assert val == moments.f_entries(R, k, d)
    assert val >= moments.second_moment_rate(P, d)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(3, 12), st.floats(0.01, 60), st.integers(0, 30),
       st.integers(0, 2 ** 32 - 1), st.floats(0.0, 3.0),
       st.sampled_from([birkhoff.STACK_ENTRIES, 50, 300]))
@example(NEAR_FLAT[0], NEAR_FLAT[1], 0, *NEAR_FLAT[2:], birkhoff.STACK_ENTRIES)
@example(SINKHORN_EDGE[0], SINKHORN_EDGE[1], 0, *SINKHORN_EDGE[2:],
         birkhoff.STACK_ENTRIES)
# the largest k and restarts allowed, in one group and in groups of 2 starts
@example(12, 59.0, 30, 5, 1.0, birkhoff.STACK_ENTRIES)
@example(12, 59.0, 30, 5, 1.0, 300)
def test_stacked_ascent_matches_the_per_start_reference(k, d, restarts, seed,
                                                        spread, group):
    # maximize_f's starts, drawn after one more start of the given spread,
    # ascended in groups of at most `group` entries (or one start)
    start, r = _spread_start(k, seed, spread)
    starts = [start] + birkhoff._starts(k, restarts, r)
    with mock.patch.object(birkhoff, "STACK_ENTRIES", group):
        Rs, vals, iters = birkhoff._ascend(np.stack(starts), k, d)
    for i, s in enumerate(starts):
        R, val, it = reference.ascend(s, k, d)
        assert Rs[i].tobytes() == R.tobytes(), i
        assert vals[i] == val and iters[i] == it, i


@pytest.mark.parametrize("last", [2.0 ** -24, 0.0])
def test_halvings_try_each_smaller_step_once(monkeypatch, last):
    # a stand-in rate that passes Armijo only at steps <= `last`: a row whose
    # full step failed tries step / 2**j for j = 1..24 in order, takes the
    # first that passes, and stops after the 25th step size
    seen = []

    def rate(cand, k, d):
        steps = cand[..., 0, 0] - 0.5
        seen.extend(steps.ravel())
        return np.where(steps <= last, 1.0, -1.0)

    monkeypatch.setattr(birkhoff, "f_entries", rate)
    X, v, improved = np.full((1, 3, 3), 0.5), np.zeros(1), np.zeros(1, bool)
    birkhoff._halve(X, v, np.ones((1, 3, 3)), np.ones(1), np.ones(1),
                    np.array([0]), improved, 3, 1.0)
    assert seen == [2.0 ** -j for j in range(1, 25)]
    assert improved[0] == (last > 0) and v[0] == (1.0 if last else 0.0)
    assert (X == 0.5 + last).all()


@pytest.mark.parametrize("k, d, value", [
    # every start but the flat one ends here; the longest takes 105 steps
    (3, 10, -0.915093294),
    (5, 14, 0.185939914),
    (10, 40, 0.390749560),   # the flat value: below the threshold at k = 10
])
def test_maximize_f_pinned(k, d, value):
    res = birkhoff.maximize_f(k, d, restarts=20, rng=rng.stream(7, 0))
    assert abs(res.value - value) < 1e-8
    assert all(entry["iters"] < 150 for entry in res.trace)


def _neg_f(x, k, d):
    R = x.reshape(k, k)
    S = 1 - 2 / k + (R ** 2).sum() / k ** 2
    return (R / k * np.log(R / k)).sum() - d / 2 * math.log(S)


def _neg_f_grad(x, k, d):
    R = x.reshape(k, k)
    S = 1 - 2 / k + (R ** 2).sum() / k ** 2
    return ((np.log(R / k) + 1) / k - d * R / (k ** 2 * S)).ravel()


def _trust_constr_max(R0, k, d):
    """max f by scipy's trust-constr under the row and column sum
    constraints (one column sum dropped: it follows from the others)."""
    A = np.vstack([np.kron(np.eye(k), np.ones(k)),
                   np.kron(np.ones(k), np.eye(k))[:-1]])
    res = scipy.optimize.minimize(
        _neg_f, R0.ravel(), args=(k, d), jac=_neg_f_grad,
        method="trust-constr",
        constraints=[scipy.optimize.LinearConstraint(A, 1, 1)],
        bounds=scipy.optimize.Bounds(1e-12, np.inf, keep_feasible=True),
        options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 2000})
    assert res.constr_violation < 1e-12
    return -res.fun


# the flat matrix is a local maximum iff d < (k-1)^2: 4 at k = 3, 9 at k = 4
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("k, d", [(3, 2), (3, 10), (4, 6), (4, 14)])
def test_maximize_f_matches_trust_constr(k, d):
    res = birkhoff.maximize_f(k, d, restarts=2, rng=rng.stream(0, 0))
    assert _trust_constr_max(res.best, k, d) <= res.value + 1e-7
    starts = birkhoff._starts(k, 2, rng.stream(0, 0))
    assert len(starts) == len(res.trace)
    best = max(_trust_constr_max(
        birkhoff.project_doubly_stochastic(s)[0], k, d) for s in starts)
    assert res.value >= best - 1e-7


@pytest.mark.parametrize("d, restarts", [(0, 2), (-5, 2), (math.inf, 2),
                                         (math.nan, 2), (5, -3)])
def test_maximize_f_refuses_bad_input(d, restarts):
    with pytest.raises(ValidationError):
        birkhoff.maximize_f(3, d, restarts=restarts)
