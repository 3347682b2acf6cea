import heapq
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regcolor import clustergeo, colorings, graphs, rng
from regcolor.errors import ValidationError


def planted(n, k, d, seed):
    sigma = colorings.coloring([v // (n // k) for v in range(n)], k)
    off = Fraction(1, k * (k - 1))
    mu = [[Fraction(0) if i == j else off for j in range(k)] for i in range(k)]
    G = graphs.sample_planted(sigma.assignment, k, d, mu, rng.stream(seed, 0))
    return G, sigma


def test_core_hand_instance():
    # path 0-1-2-3 with alternating colors, ell=1: the endpoints each have a
    # cross neighbor, so nothing peels; raise ell to 2 and everything peels
    G = graphs.multigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
    sigma = colorings.coloring([0, 1, 0, 1], 2)
    res = clustergeo.sigma_ell_core(G, sigma, 1)
    assert res.core == frozenset(range(4))
    assert res.peel_order == ()
    res2 = clustergeo.sigma_ell_core(G, sigma, 2)
    assert res2.core == frozenset()
    assert set(res2.peel_order) == set(range(4))
    # every evicted vertex records which color class fell short
    assert all(res2.deficiency[v] != sigma.assignment[v]
               for v in res2.peel_order)
    with pytest.raises(ValidationError):
        clustergeo.sigma_ell_core(G, sigma, 0)


def test_core_cascade():
    # C6 alternating, ell=1: removing no one; but a pendant-ish structure
    # cascades: star center keeps the leaves alive, leaves depend on center
    G = graphs.multigraph(4, 0, [(0, 1), (0, 2), (0, 3)])
    sigma = colorings.coloring([0, 1, 1, 1], 2)
    assert clustergeo.sigma_ell_core(G, sigma, 1).core == frozenset(range(4))
    # with ell=2 the leaves fail (one cross edge each), then the center
    # loses everything
    res = clustergeo.sigma_ell_core(G, sigma, 2)
    assert res.core == frozenset()


def test_core_order_independence():
    G, sigma = planted(60, 3, 5, 7)
    canonical = clustergeo.sigma_ell_core(G, sigma, 2).core
    for idx in range(5):
        random = _random_order_core(G, sigma, 2, rng.stream(100, idx))
        assert random == canonical


def test_core_monotone_in_ell():
    G, sigma = planted(90, 3, 6, 13)
    cores = [clustergeo.sigma_ell_core(G, sigma, ell).core
             for ell in (1, 2, 3)]
    assert cores[2] <= cores[1] <= cores[0]


def test_wuy_hand_instance():
    # two isolated-ish cross pairs plus a doubled cross edge: the doubled
    # edge exceeds the 2*ell*ln(k) degree threshold, landing 2 and 5 in U'
    # and then Y; everyone else is in W
    G = graphs.multigraph(6, 2, [(0, 3), (1, 4), (0, 1), (3, 4),
                                 (2, 5), (2, 5)])
    sigma = colorings.coloring([0, 0, 0, 1, 1, 1], 2)
    w = clustergeo.build_WUY(G, sigma, 1)
    assert w.W[(0, 1)] == {0, 1}
    assert w.W[(1, 0)] == {3, 4}
    assert w.W_union == frozenset({0, 1, 3, 4})
    assert w.U[(0, 1)] == set() and w.U[(1, 0)] == set()
    assert w.U_prime[(0, 1)] == {2}
    assert w.U_prime[(1, 0)] == {5}
    assert w.Y == frozenset({2, 5})
    assert w.thresholds["ell"] == 1
    assert abs(w.thresholds["degree_high"] - 2 * math.log(2)) < 1e-12
    ok, witness = clustergeo.check_core_inclusion(G, sigma, 1)
    assert ok and witness is None


def test_y_growth():
    # a vertex with two edges into the initial Y joins it during the growth
    # phase even though it sits in W (one edge into each class, all below
    # the degree thresholds)
    G = graphs.multigraph(6, 0, [(0, 1), (0, 1), (4, 0), (4, 1),
                                 (2, 3)])
    sigma = colorings.coloring([0, 1, 0, 1, 0, 1], 2)
    w = clustergeo.build_WUY(G, sigma, 1)
    assert 0 in w.U_prime[(0, 1)] and 1 in w.U_prime[(1, 0)]
    assert 4 in w.W_union
    assert w.Y == frozenset({0, 1, 4})


def test_check_core_inclusion_planted():
    for seed, (n, k, d) in enumerate([(60, 3, 6), (80, 4, 9), (60, 2, 4)]):
        G, sigma = planted(n, k, d, seed + 50)
        for ell in (1, 2):
            ok, witness = clustergeo.check_core_inclusion(G, sigma, ell)
            assert ok, witness


def test_freedom_report_modes():
    # graph with an empty core: every color is core-vacant for everyone
    G = graphs.multigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
    sigma = colorings.coloring([0, 1, 0, 1], 2)
    # ell=2 empties the core
    prose = clustergeo.freedom_report(G, sigma, 2, mode="prose")
    strict = clustergeo.freedom_report(G, sigma, 2, mode="strict")
    assert prose.free_1 == frozenset(range(4))
    assert prose.free_2 == frozenset()       # only k-1=1 other color
    assert strict.free_1 == frozenset(range(4))  # 2 vacant >= a+1 = 2
    assert strict.free_2 == frozenset()
    assert prose.complete == frozenset()
    assert prose.cluster_log2_upper == 4.0   # |F1 minus F2| bits
    with pytest.raises(ValidationError):
        clustergeo.freedom_report(G, sigma, 1, mode="loose")


def test_freedom_report_complete_on_dense_planted():
    G, sigma = planted(60, 3, 9, 77)
    rep = clustergeo.freedom_report(G, sigma, 1)
    # dense planted instances keep everyone complete with high probability
    core = clustergeo.sigma_ell_core(G, sigma, 1).core
    if core == frozenset(range(60)):
        assert rep.complete == frozenset(range(60))
        assert rep.cluster_log2_upper == 0.0
    bound = len(rep.free_1 - rep.free_2) + len(rep.free_2) * math.log2(3)
    assert abs(rep.cluster_log2_upper - bound) < 1e-12


@st.composite
def planted_instances(draw):
    k = draw(st.sampled_from((3, 4)))
    n = k * draw(st.integers(1, 120 // k))
    d = (k - 1) * draw(st.integers(1, 4))   # flat mu * d n is integral
    if d * n % 2:
        d *= 2
    G, sigma = planted(n, k, d, draw(st.integers(0, 10 ** 6)))
    return G, sigma, draw(st.sampled_from((1, 2, 3)))


@settings(max_examples=60, deadline=None)
@given(planted_instances(), st.sampled_from(("prose", "strict")))
def test_core_analysis_matches_separate_calls(instance, mode):
    G, sigma, ell = instance
    res = clustergeo.core_analysis(G, sigma, ell, mode=mode)
    assert res.core == clustergeo.sigma_ell_core(G, sigma, ell)
    assert res.wuy == clustergeo.build_WUY(G, sigma, ell)
    assert res.freedom == clustergeo.freedom_report(G, sigma, ell, mode=mode)
    assert res.inclusion_ok == clustergeo.check_core_inclusion(G, sigma,
                                                               ell)[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(1, 5), st.integers(2, 4),
       st.integers(0, 10 ** 6))
def test_edges_into_classes_brute_force(n, d, k, seed):
    # uniform configurations contract to graphs with loops and multi-edges
    if n * d % 2:
        n += 1
    gen = rng.stream(seed, 0)
    G = graphs.contract(graphs.sample_configuration(n, d, gen))
    assign = [int(c) for c in gen.integers(k, size=n)]
    S = {v for v in range(n) if gen.random() < 0.5}
    brute = [[0] * k for _ in range(n)]
    for u, v in G.edges:
        if v in S:
            brute[u][assign[v]] += 1
        if u in S:
            brute[v][assign[u]] += 1
    mask = np.array([v in S for v in range(n)], dtype=bool)
    got = graphs.vertex_class_degrees(G, assign, k, within=mask)
    assert got.tolist() == brute
    everyone = np.ones(n, dtype=bool)
    assert (graphs.vertex_class_degrees(G, assign, k, within=everyone)
            == graphs.vertex_class_degrees(G, assign, k)).all()


# --- references over a Counter adjacency, for the CSR rows of neighbors, the
# peel, and the array code of build_WUY and _freedom ---

def counter_adjacency(G):
    """adj[v] = Counter of neighbors with edge multiplicities (a loop at v
    appears as adj[v][v] = number of loop edges)."""
    adj = [Counter() for _ in range(G.n)]
    for u, v in G.edges:
        adj[u][v] += 1
        if u != v:
            adj[v][u] += 1
    return adj


@st.composite
def small_multigraphs(draw):
    """Arbitrary multigraphs: loops, parallel edges, isolated vertices."""
    n = draw(st.integers(1, 12))
    ends = st.integers(0, n - 1)
    return graphs.multigraph(n, 0, draw(st.lists(st.tuples(ends, ends),
                                                 max_size=40)))


@settings(max_examples=200, deadline=None)
@given(small_multigraphs())
@example(graphs.multigraph(1, 0, []))
@example(graphs.multigraph(1, 0, [(0, 0)] * 3))
@example(graphs.multigraph(4, 0, [(1, 1), (1, 3), (3, 1), (1, 3)]))
def test_neighbors_match_counter_adjacency(G):
    ptr, nbr, mult = graphs.neighbors(G)
    assert len(ptr) == G.n + 1 and ptr[0] == 0 and ptr[-1] == len(nbr)
    assert len(mult) == len(nbr)
    rows = [list(zip(nbr[ptr[v]:ptr[v + 1]], mult[ptr[v]:ptr[v + 1]]))
            for v in range(G.n)]
    # same neighbours, multiplicities and order as the Counters
    assert rows == [list(row.items()) for row in counter_adjacency(G)]


def _random_order_core(G, sigma, ell, gen):
    """The (sigma, ell)-core peeled in a random order over a Counter
    adjacency: the order-independence oracle for sigma_ell_core."""
    k, assign = sigma.k, sigma.assignment
    adj = counter_adjacency(G)
    cnt = [_edges_into_classes(adj, assign, k, range(G.n), v)
           for v in range(G.n)]
    alive = [True] * G.n

    def deficient(v):
        return any(i != assign[v] and cnt[v][i] < ell for i in range(k))

    pending = [v for v in range(G.n) if deficient(v)]
    while pending:
        idx = int(gen.integers(len(pending)))
        pending[idx], pending[-1] = pending[-1], pending[idx]
        v = pending.pop()
        if not alive[v] or not deficient(v):
            continue
        alive[v] = False
        for u, m in adj[v].items():
            if u != v and alive[u]:
                cnt[u][assign[v]] -= m
                if deficient(u):
                    pending.append(u)
    return frozenset(v for v in range(G.n) if alive[v])


def _edges_into_classes(adj, assign, k, S, v):
    """[e(v, S cap V_j) for j in range(k)]; a loop at v in S counts twice."""
    into = [0] * k
    for u, m in adj[v].items():
        if u in S:
            into[assign[u]] += m if u != v else 2 * m
    return into


def _reference_wu(G, sigma, ell):
    """W, U and U' by one Python loop per vertex."""
    k, assign = sigma.k, sigma.assignment
    adj = counter_adjacency(G)
    deg = [_edges_into_classes(adj, assign, k, range(G.n), v)
           for v in range(G.n)]
    hi = 2 * ell * math.log(k)
    W = {(i, j): set() for i in range(k) for j in range(k) if i != j}
    for v in range(G.n):
        if all(deg[v][h] < hi for h in range(k)):
            for j in range(k):
                if j != assign[v] and deg[v][j] < 3 * ell:
                    W[(assign[v], j)].add(v)
    w_members = set().union(*W.values())
    U = {key: set() for key in W}
    U_prime = {key: set() for key in W}
    for v in range(G.n):
        if v in w_members:
            continue
        into_w = _edges_into_classes(adj, assign, k, w_members, v)
        for j in range(k):
            if j != assign[v]:
                if into_w[j] > ell:
                    U[(assign[v], j)].add(v)
                if deg[v][j] > hi:
                    U_prime[(assign[v], j)].add(v)
    return W, frozenset(w_members), U, U_prime


def _reference_freedom(G, sigma, core, mode):
    """(F1, F2) by one Python loop per vertex."""
    k, assign = sigma.k, sigma.assignment
    adj = counter_adjacency(G)
    free_1, free_2 = set(), set()
    for v in range(G.n):
        into_core = _edges_into_classes(adj, assign, k, core, v)
        if mode == "prose":
            vacant = sum(1 for i in range(k)
                         if i != assign[v] and into_core[i] == 0)
            one, two = vacant >= 1, vacant >= 2
        else:
            vacant = sum(1 for i in range(k) if into_core[i] == 0)
            one, two = vacant >= 2, vacant >= 3
        if one:
            free_1.add(v)
        if two:
            free_2.add(v)
    return frozenset(free_1), frozenset(free_2)


@st.composite
def uniform_instances(draw):
    """Uniform multigraphs (loops, multi-edges) under random colorings, so
    some edges are monochromatic and the two freedom modes differ."""
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    if n * d % 2:
        n += 1
    gen = rng.stream(draw(st.integers(0, 10 ** 6)), 0)
    G = graphs.contract(graphs.sample_configuration(n, d, gen))
    k = draw(st.integers(2, 4))
    sigma = colorings.coloring(gen.integers(k, size=n), k)
    return G, sigma, draw(st.sampled_from((1, 2, 3)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(planted_instances(), uniform_instances()),
       st.sampled_from(("prose", "strict")))
def test_wu_and_freedom_match_per_vertex_reference(instance, mode):
    G, sigma, ell = instance
    wuy = clustergeo.build_WUY(G, sigma, ell)
    assert (wuy.W, wuy.W_union, wuy.U, wuy.U_prime) == \
        _reference_wu(G, sigma, ell)
    rep = clustergeo.freedom_report(G, sigma, ell, mode=mode)
    core = clustergeo.sigma_ell_core(G, sigma, ell).core
    assert (rep.free_1, rep.free_2) == \
        _reference_freedom(G, sigma, core, mode)
    assert rep.complete == frozenset(range(G.n)) - rep.free_1


@settings(max_examples=60, deadline=None)
@given(st.one_of(planted_instances(), uniform_instances()),
       st.integers(0, 10 ** 6))
def test_core_matches_random_order_peel(instance, seed):
    G, sigma, ell = instance
    assert clustergeo.sigma_ell_core(G, sigma, ell).core == \
        _random_order_core(G, sigma, ell, rng.stream(seed, 0))


def lazy_deletion_peel(G, sigma, ell):
    """The smallest-index-first peel with lazy deletion: a vertex is pushed
    again each time one of its counts falls while it is deficient, and
    stale entries are skipped when popped.  The reference for the peel
    order and deficiency map of sigma_ell_core."""
    k, assign = sigma.k, sigma.assignment
    cnt = graphs.vertex_class_degrees(G, assign, k)
    ptr, nbr, mult = graphs.neighbors(G)
    alive = [True] * G.n

    def deficient_color(v):
        for i in range(k):
            if i != assign[v] and cnt[v, i] < ell:
                return i
        return None

    pending = [v for v in range(G.n) if deficient_color(v) is not None]
    peel_order, deficiency = [], {}
    while pending:
        v = heapq.heappop(pending)
        if not alive[v]:
            continue
        col = deficient_color(v)
        if col is None:
            continue
        alive[v] = False
        peel_order.append(v)
        deficiency[v] = col
        for t in range(ptr[v], ptr[v + 1]):
            u = nbr[t]
            if alive[u]:
                cnt[u, assign[v]] -= mult[t]
                if deficient_color(u) is not None:
                    heapq.heappush(pending, u)
    core = frozenset(v for v in range(G.n) if alive[v])
    return clustergeo.CoreResult(core, tuple(peel_order), deficiency)


@settings(max_examples=120, deadline=None)
@given(st.one_of(planted_instances(), uniform_instances()))
def test_peel_matches_lazy_deletion_reference(instance):
    G, sigma, ell = instance
    assert clustergeo.sigma_ell_core(G, sigma, ell) == \
        lazy_deletion_peel(G, sigma, ell)


def test_core_analysis_mode_validation():
    G, sigma = planted(30, 3, 4, 1)
    with pytest.raises(ValidationError):
        clustergeo.core_analysis(G, sigma, 1, mode="loose")


def test_density_predicate():
    T = graphs.multigraph(2, 3, [(0, 1)] * 3)
    hits = clustergeo.density_predicate(T, bound_c=1)
    assert frozenset({0, 1}) in hits
    # sparse graph: no witness at the default bound
    C6 = graphs.multigraph(6, 2, [(i, (i + 1) % 6) for i in range(6)])
    assert clustergeo.density_predicate(C6, bound_c=5) == []
    # size cap excludes the witness
    assert clustergeo.density_predicate(T, bound_c=1, size_cap=1) == []


def test_cluster_size_rate():
    upper, rate, margin = clustergeo.cluster_size_rate(5, 10)
    assert abs(upper - math.log(2) / 5) < 1e-14
    c = 9 * math.log(5) - 10
    assert abs(rate - c / 10) < 1e-14
    assert abs(margin - (rate - upper)) < 1e-14
    with pytest.raises(ValidationError):
        clustergeo.cluster_size_rate(2, 5)
