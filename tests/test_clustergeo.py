import dataclasses
import heapq
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regcolor import clustergeo, colorings, experiments, graphs, rng
from regcolor.errors import ValidationError


def planted(n, k, d, seed):
    return experiments.sample_flat_planted(n, d, k, rng.stream(seed, 0))


def members(mask):
    """The vertices set in an (n,) mask, as the set the references return."""
    return frozenset(np.flatnonzero(mask).tolist())


def pair_sets(mask, sigma):
    """An (n, k) mask as the references' {(i, j): set}, over every j != i;
    an entry in the own-color column has no pair and raises KeyError."""
    k = sigma.k
    sets = {(i, j): set() for i in range(k) for j in range(k) if i != j}
    for v, j in zip(*(a.tolist() for a in np.nonzero(mask))):
        sets[(sigma.assignment[v], j)].add(v)
    return sets


def assert_same(a, b):
    """Results compare by identity: compare them field by field."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if dataclasses.is_dataclass(x):
            assert_same(x, y)
        else:
            assert (np.array_equal(x, y) if isinstance(x, np.ndarray)
                    else x == y), field.name


def test_core_hand_instance():
    # path 0-1-2-3 with alternating colors, ell=1: the endpoints each have a
    # cross neighbor, so nothing peels; raise ell to 2 and everything peels
    G = graphs.multigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
    sigma = colorings.coloring([0, 1, 0, 1], 2)
    res = clustergeo.sigma_ell_core(G, sigma, 1)
    assert members(res.core) == frozenset(range(4))
    assert res.peel_order.tolist() == []
    res2 = clustergeo.sigma_ell_core(G, sigma, 2)
    assert members(res2.core) == frozenset()
    assert sorted(res2.peel_order.tolist()) == list(range(4))
    with pytest.raises(ValidationError):
        clustergeo.sigma_ell_core(G, sigma, 0)


def test_core_cascade():
    # C6 alternating, ell=1: removing no one; but a pendant-ish structure
    # cascades: star center keeps the leaves alive, leaves depend on center
    G = graphs.multigraph(4, 0, [(0, 1), (0, 2), (0, 3)])
    sigma = colorings.coloring([0, 1, 1, 1], 2)
    assert members(clustergeo.sigma_ell_core(G, sigma, 1).core) == \
        frozenset(range(4))
    # with ell=2 the leaves fail (one cross edge each), then the center
    # loses everything
    res = clustergeo.sigma_ell_core(G, sigma, 2)
    assert members(res.core) == frozenset()


def test_core_order_independence():
    G, sigma = planted(60, 3, 5, 7)
    canonical = members(clustergeo.sigma_ell_core(G, sigma, 2).core)
    for idx in range(5):
        random = _random_order_core(G, sigma, 2, rng.stream(100, idx))
        assert random == canonical


def test_core_monotone_in_ell():
    G, sigma = planted(90, 3, 6, 13)
    cores = [members(clustergeo.sigma_ell_core(G, sigma, ell).core)
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
    assert pair_sets(w.W, sigma) == {(0, 1): {0, 1}, (1, 0): {3, 4}}
    assert members(w.W_union) == frozenset({0, 1, 3, 4})
    assert not w.U.any()
    assert pair_sets(w.U_prime, sigma) == {(0, 1): {2}, (1, 0): {5}}
    assert members(w.Y) == frozenset({2, 5})
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
    assert w.U_prime[0, 1] and w.U_prime[1, 0]
    assert w.W_union[4]
    assert members(w.Y) == frozenset({0, 1, 4})


def test_y_growth_rounds():
    # 0 and 1 seed Y through a doubled cross edge; then 2, 3 and 4 each
    # reach two edges into Y only after the one before them joined
    G = graphs.multigraph(5, 0, [(0, 1), (0, 1), (2, 1), (2, 0), (3, 2),
                                 (3, 0), (4, 3), (4, 1)])
    sigma = colorings.coloring([0, 1, 0, 0, 1], 2)
    w = clustergeo.build_WUY(G, sigma, 1)
    assert members(w.U_prime.any(axis=1)) == {0, 1}
    assert members(w.Y) == frozenset(range(5)) == _reference_y(
        G, sigma, 1, pair_sets(w.U, sigma), pair_sets(w.U_prime, sigma))


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
    assert members(prose.free_1) == frozenset(range(4))
    assert members(prose.free_2) == frozenset()  # only k-1=1 other color
    assert members(strict.free_1) == frozenset(range(4))  # 2 vacant >= a+1
    assert members(strict.free_2) == frozenset()
    assert members(prose.complete) == frozenset()
    assert prose.cluster_log2_upper == 4.0   # |F1 minus F2| bits
    with pytest.raises(ValidationError):
        clustergeo.freedom_report(G, sigma, 1, mode="loose")


def test_core_analysis_refuses_a_bad_mode_before_the_peel(monkeypatch):
    monkeypatch.setattr(clustergeo, "sigma_ell_core", None)
    G = graphs.multigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValidationError, match="^mode must be prose or strict$"):
        clustergeo.core_analysis(G, colorings.coloring([0, 1, 0, 1], 2), 1,
                                 mode="loose")


def test_freedom_modes_differ_at_an_own_color_core_neighbor():
    # K4 on 0..3 plus the edge (0, 4); vertex 4 shares its color with its
    # only core neighbor 0, so strict counts one vacant color fewer
    G = graphs.multigraph(5, 0, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                 (2, 3), (0, 4)])
    sigma = colorings.coloring([0, 0, 1, 2, 0], 3)
    prose = clustergeo.freedom_report(G, sigma, 1, mode="prose")
    strict = clustergeo.freedom_report(G, sigma, 1, mode="strict")
    assert members(clustergeo.sigma_ell_core(G, sigma, 1).core) == \
        frozenset(range(4))
    assert members(prose.free_2) == members(prose.free_1) == {4}
    assert members(strict.free_1) == {4} and not strict.free_2.any()
    assert prose.cluster_log2_upper == math.log2(3)
    assert strict.cluster_log2_upper == 1.0


@pytest.mark.parametrize("seed", range(10))
def test_freedom_modes_agree_on_proper_colorings(seed):
    G, sigma = planted(60, 3, 4, 900 + seed)
    for ell in (1, 2):
        assert_same(clustergeo.freedom_report(G, sigma, ell, mode="prose"),
                    dataclasses.replace(clustergeo.freedom_report(
                        G, sigma, ell, mode="strict"), mode="prose"))


def test_freedom_report_complete_on_dense_planted():
    G, sigma = planted(60, 3, 9, 77)
    rep = clustergeo.freedom_report(G, sigma, 1)
    # dense planted instances keep everyone complete with high probability
    core = clustergeo.sigma_ell_core(G, sigma, 1).core
    if core.all():
        assert rep.complete.all()
        assert rep.cluster_log2_upper == 0.0
    bound = (np.count_nonzero(rep.free_1 & ~rep.free_2)
             + np.count_nonzero(rep.free_2) * math.log2(3))
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
    assert_same(res.core, clustergeo.sigma_ell_core(G, sigma, ell))
    assert_same(res.wuy, clustergeo.build_WUY(G, sigma, ell))
    assert_same(res.freedom,
                clustergeo.freedom_report(G, sigma, ell, mode=mode))
    assert clustergeo.check_core_inclusion(G, sigma, ell) == \
        (res.witness is None, res.witness)


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


# --- references over a Counter adjacency, for the CSR rows of adjacency, the
# peel, and the array code of build_WUY and core_analysis's freedom step ---

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
    csr = G.adjacency
    assert all(a.dtype == np.int64 for a in csr)
    ptr, nbr, mult = (a.tolist() for a in csr)
    assert len(ptr) == G.n + 1 and ptr[0] == 0 and ptr[-1] == len(nbr)
    assert len(mult) == len(nbr)
    rows = [list(zip(nbr[ptr[v]:ptr[v + 1]], mult[ptr[v]:ptr[v + 1]]))
            for v in range(G.n)]
    # same neighbours, multiplicities and order as the Counters
    assert rows == [list(row.items()) for row in counter_adjacency(G)]


@st.composite
def multigraphs_and_vertices(draw):
    G = draw(small_multigraphs())
    return G, draw(st.lists(st.integers(0, G.n - 1), max_size=2 * G.n))


@settings(max_examples=200, deadline=None)
@given(multigraphs_and_vertices())
def test_neighbor_rows_match_csr_slices(instance):
    G, vs = instance
    csr = G.adjacency
    ptr, nbr, mult = (a.tolist() for a in csr)
    src, got_nbr, got_mult = graphs.neighbor_rows(
        csr, np.array(vs, dtype=np.int64))
    # the rows of vs in its order, repeats included
    assert src.tolist() == [v for v in vs for _ in range(ptr[v], ptr[v + 1])]
    assert got_nbr.tolist() == [w for v in vs for w in nbr[ptr[v]:ptr[v + 1]]]
    assert got_mult.tolist() == [m for v in vs
                                 for m in mult[ptr[v]:ptr[v + 1]]]


def test_one_graph_builds_its_adjacency_once(monkeypatch):
    # count the calls of the property's builder, its caching left as it is
    built = []
    prop = graphs.MultiGraph.__dict__["adjacency"]
    build = prop.func

    def counted(G):
        built.append(G)
        return build(G)
    monkeypatch.setattr(prop, "func", counted)
    # ell = 2 on this planted instance: the peel and Y's growth both run
    G, sigma = planted(60, 4, 12, 1)
    res = clustergeo.core_analysis(G, sigma, 2)
    wuy = res.wuy
    assert res.core.peel_order.size
    assert members(wuy.Y) > members((wuy.U | wuy.U_prime).any(axis=1))
    graphs.cycle_census(G, 4)
    clustergeo.density_predicate(G)
    assert len(built) == 1 and built[0] is G
    # at ell = 1 nothing peels and Y is all of V from the start: no build
    G, sigma = planted(60, 4, 12, 1)
    res = clustergeo.core_analysis(G, sigma, 1)
    assert not res.core.peel_order.size and res.wuy.Y.all()
    assert len(built) == 1


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


def _reference_y(G, sigma, ell, U, U_prime):
    """Y grown from U cup U' by a heap, smallest index first: each pop adds
    one vertex with more than ell edges into the current Y."""
    k, color = sigma.k, np.asarray(sigma.assignment, dtype=np.int64)
    Y = set().union(*U.values(), *U_prime.values())
    in_y = graphs.vertex_mask(G.n, Y)
    into_y = graphs.vertex_class_degrees(G, color, k, within=in_y).sum(axis=1)
    # ascending, so already a heap
    heap = np.flatnonzero(~in_y & (into_y > ell)).tolist()
    if heap:  # often empty: then Y cannot grow and needs no adjacency
        ptr, nbr, mult = (a.tolist() for a in G.adjacency)
    while heap:
        v = heapq.heappop(heap)
        if v in Y or into_y[v] <= ell:
            continue
        Y.add(v)
        for t in range(ptr[v], ptr[v + 1]):
            u = nbr[t]
            into_y[u] += mult[t]  # a loop at v: into_y[v] is not read again
            if u not in Y and into_y[u] > ell:
                heapq.heappush(heap, u)
    return frozenset(Y)


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


@st.composite
def multigraph_instances(draw):
    """Small multigraphs with many loops and parallel edges, not regular,
    under random colorings."""
    G = draw(small_multigraphs())
    k = draw(st.integers(2, 4))
    sigma = colorings.coloring(draw(st.lists(st.integers(0, k - 1),
                                             min_size=G.n, max_size=G.n)), k)
    return G, sigma, draw(st.sampled_from((1, 2, 3)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(planted_instances(), uniform_instances(),
                 multigraph_instances()),
       st.sampled_from(("prose", "strict")))
def test_wu_and_freedom_match_per_vertex_reference(instance, mode):
    G, sigma, ell = instance
    wuy = clustergeo.build_WUY(G, sigma, ell)
    W, W_union, U, U_prime = _reference_wu(G, sigma, ell)
    assert (pair_sets(wuy.W, sigma), members(wuy.W_union),
            pair_sets(wuy.U, sigma), pair_sets(wuy.U_prime, sigma)) == \
        (W, W_union, U, U_prime)
    assert members(wuy.Y) == _reference_y(G, sigma, ell, U, U_prime)
    rep = clustergeo.freedom_report(G, sigma, ell, mode=mode)
    core = members(clustergeo.sigma_ell_core(G, sigma, ell).core)
    assert (members(rep.free_1), members(rep.free_2)) == \
        _reference_freedom(G, sigma, core, mode)
    assert np.array_equal(rep.complete, ~rep.free_1)


@settings(max_examples=60, deadline=None)
@given(st.one_of(planted_instances(), uniform_instances(),
                 multigraph_instances()))
def test_results_are_read_only_masks(instance):
    G, sigma, ell = instance
    n, k = G.n, sigma.k
    res = clustergeo.core_analysis(G, sigma, ell)
    wuy, rep = res.wuy, res.freedom
    for mask, shape in ((res.core.core, (n,)), (wuy.W, (n, k)),
                        (wuy.W_union, (n,)), (wuy.U, (n, k)),
                        (wuy.U_prime, (n, k)), (wuy.Y, (n,)),
                        (rep.free_1, (n,)), (rep.free_2, (n,)),
                        (rep.complete, (n,))):
        assert mask.dtype == bool and mask.shape == shape
        assert not mask.flags.writeable
    peeled = res.core.peel_order
    assert peeled.dtype == np.int64 and not peeled.flags.writeable
    assert np.array_equal(wuy.W_union, wuy.W.any(axis=1))
    # the smallest vertex outside W, Y and the core witnesses a failure
    outside = (set(range(n)) - members(wuy.W_union) - members(wuy.Y)
               - members(res.core.core))
    assert clustergeo.check_core_inclusion(G, sigma, ell) == \
        (not outside, min(outside, default=None))
    assert res.witness == min(outside, default=None)


def cascade_path(n, extra=()):
    """The path 0-1-...-(n-1) colored v mod 3, plus the edges `extra`.  At
    ell = 1 only the two ends are deficient at first, and each round peels
    the next vertex in from either end: about n/2 rounds."""
    G = graphs.multigraph(n, 0, [(v, v + 1) for v in range(n - 1)]
                          + list(extra))
    return G, colorings.coloring([v % 3 for v in range(n)], 3)


@settings(max_examples=60, deadline=None)
@given(st.one_of(planted_instances(), uniform_instances()),
       st.integers(0, 10 ** 6))
@example((*cascade_path(2000), 1), 0)
@example((*cascade_path(2000, [(700, 701), (1200, 1200)]), 1), 0)
def test_core_matches_random_order_peel(instance, seed):
    G, sigma, ell = instance
    assert members(clustergeo.sigma_ell_core(G, sigma, ell).core) == \
        _random_order_core(G, sigma, ell, rng.stream(seed, 0))


def lazy_deletion_peel(G, sigma, ell):
    """The core by the smallest-index-first peel with lazy deletion: a
    vertex is pushed again each time one of its counts falls while it is
    deficient, and stale entries are skipped when popped."""
    k, assign = sigma.k, sigma.assignment
    cnt = graphs.vertex_class_degrees(G, assign, k)
    ptr, nbr, mult = (a.tolist() for a in G.adjacency)
    alive = [True] * G.n

    def deficient_color(v):
        for i in range(k):
            if i != assign[v] and cnt[v, i] < ell:
                return i
        return None

    pending = [v for v in range(G.n) if deficient_color(v) is not None]
    while pending:
        v = heapq.heappop(pending)
        if not alive[v] or deficient_color(v) is None:
            continue
        alive[v] = False
        for t in range(ptr[v], ptr[v + 1]):
            u = nbr[t]
            if alive[u]:
                cnt[u, assign[v]] -= mult[t]
                if deficient_color(u) is not None:
                    heapq.heappush(pending, u)
    return frozenset(v for v in range(G.n) if alive[v])


@settings(max_examples=120, deadline=None)
@given(st.one_of(planted_instances(), uniform_instances(),
                 multigraph_instances()))
def test_peel_matches_lazy_deletion_reference(instance):
    G, sigma, ell = instance
    res = clustergeo.sigma_ell_core(G, sigma, ell)
    assert members(res.core) == lazy_deletion_peel(G, sigma, ell)
    # every vertex outside the core is evicted exactly once
    assert sorted(res.peel_order.tolist()) == np.flatnonzero(
        ~res.core).tolist()


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("instance", ["planted", "cascade"])
def test_peel_order_counts_evicted_vertices(instance, ell):
    # the benchmark's `peeled` counter reads len(peel_order)
    G, sigma = planted(600, 4, 12, 1) if instance == "planted" \
        else cascade_path(300, [(100, 101), (50, 50)])
    res = clustergeo.sigma_ell_core(G, sigma, ell)
    assert len(res.peel_order) == G.n - np.count_nonzero(res.core)


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
