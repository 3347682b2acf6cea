import hashlib
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regcolor import cli, experiments, graphs, guards, rng
from regcolor.errors import GuardError, ValidationError
from test_file_formats import _refuse, outcome, reference_parse_graph


def edge_tuple(G):
    """G.edges as a tuple of (u, v) tuples, for hashing and counting."""
    return tuple(map(tuple, G.edges.tolist()))


def flat_counts(n, d, k):
    """The class edge counts of the flat planted model: dn / (k(k - 1))
    off the diagonal."""
    return d * n // (k * (k - 1)) * (1 - np.eye(k, dtype=np.int64))


def double_factorial_loop(m):
    """m (m - 2) ... 1 for odd m >= -1, by multiplication: the oracle."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def test_double_factorial_odd():
    for m in range(-1, 302, 2):
        assert graphs.double_factorial_odd(m) == double_factorial_loop(m)
    assert graphs.double_factorial_odd(-1) == 1
    assert graphs.double_factorial_odd(1) == 1
    assert graphs.double_factorial_odd(5) == 15
    assert graphs.double_factorial_odd(7) == 105
    with pytest.raises(ValidationError):
        graphs.double_factorial_odd(4)
    with pytest.raises(ValidationError):
        graphs.double_factorial_odd(-3)


def test_count_configurations():
    assert graphs.count_configurations(2, 1) == 1
    assert graphs.count_configurations(2, 3) == 15
    assert graphs.count_configurations(4, 2) == 105
    assert graphs.count_configurations(4, 3) == 10395
    # matches the double factorial definition
    for n, d in [(2, 2), (4, 2), (6, 2), (4, 3), (30, 5), (50, 6)]:
        assert graphs.count_configurations(n, d) == \
            double_factorial_loop(n * d - 1)
    with pytest.raises(ValidationError):
        graphs.count_configurations(3, 3)  # dn odd
    with pytest.raises(ValidationError):
        graphs.count_configurations(0, 2)


def test_configuration_validation():
    with pytest.raises(ValidationError):
        graphs.configuration(2, 1, (0, 1))  # fixed points
    with pytest.raises(ValidationError):
        graphs.configuration(2, 1, (1, 0, 2))  # wrong length
    assert graphs.configuration(2, 1, (1, 0)).match == (1, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_sampled_configurations_are_involutions(n, d, seed):
    # sample_configuration builds its Configuration record unchecked; the
    # checked builder must accept every one of them unchanged
    if n * d % 2:
        n += 1
    conf = graphs.sample_configuration(n, d, rng.stream(seed, 0))
    assert graphs.configuration(n, d, conf.match) == conf


def test_enumerate_configurations_counts():
    for n, d in [(2, 1), (4, 1), (2, 2), (4, 2), (2, 3)]:
        confs = list(graphs.enumerate_configurations(n, d))
        assert len(confs) == graphs.count_configurations(n, d)
        assert len({c.match for c in confs}) == len(confs)


def test_enumerate_guard():
    with pytest.raises(GuardError):
        next(graphs.enumerate_configurations(6, 3))  # dn = 18 > 16


# every (n, d) with dn even and at most 16
_ENUMERABLE = [(n, d) for n in range(1, 17) for d in range(1, 17)
               if n * d <= 16 and n * d % 2 == 0]


@pytest.mark.parametrize("n, d", [nd for nd in _ENUMERABLE
                                  if nd[0] * nd[1] <= 12])
def test_enumerate_multigraphs_matches_contraction(n, d):
    got = {}
    for G, w in graphs.enumerate_multigraphs(n, d):
        assert edge_tuple(G) not in got
        got[edge_tuple(G)] = w
    want = Counter(edge_tuple(graphs.contract(conf))
                   for conf in graphs.enumerate_configurations(n, d))
    assert got == want


def reference_enumerate_multigraphs(n, d):
    """enumerate_multigraphs with a tuple of (u, v) tuples per graph, built
    and yielded at each leaf: the reference for the blocked enumerator."""
    free = [d] * n
    edges = []
    top = math.factorial(d) ** n

    def rec(u, v, denom):
        while u < n and free[u] == 0:
            u += 1
            v = u
        if u == n:
            yield tuple(edges), top // denom
            return
        for w in range(v, n):
            loop = w == u
            most = free[u] // 2 if loop else min(free[u], free[w])
            for m in range(1, most + 1):
                free[u] -= m
                free[w] -= m
                edges.extend([(u, w)] * m)
                yield from rec(u, w + 1, denom * math.factorial(m)
                               * (2 ** m if loop else 1))
                del edges[-m:]
                free[u] += m
                free[w] += m

    yield from rec(0, 0, 1)


# (8, 2) has 18,155 graphs, so its blocks of 4096 leaves end mid-enumeration
@pytest.mark.parametrize("n, d", [nd for nd in _ENUMERABLE
                                  if nd[0] * nd[1] <= 12] + [(8, 2)])
def test_enumerate_multigraphs_matches_reference(n, d):
    got = [(edge_tuple(G), w) for G, w in graphs.enumerate_multigraphs(n, d)]
    assert got == list(reference_enumerate_multigraphs(n, d))
    assert len(got) > graphs._LEAF_BLOCK or (n, d) != (8, 2)


# (16, 1) is left out for time: its 15!! = 2,027,025 perfect matchings take
# about 30 s to enumerate
@pytest.mark.parametrize("n, d", [nd for nd in _ENUMERABLE if nd != (16, 1)])
def test_enumerate_multigraphs_weights_sum(n, d):
    total = 0
    for G, w in graphs.enumerate_multigraphs(n, d):
        assert graphs.degrees(G).tolist() == [d] * n
        total += w
    assert total == graphs.count_configurations(n, d)


@pytest.mark.parametrize("d", [3, 4, 12])
def test_sampling_refuses_past_the_clone_bound(d):
    # an even dn just above the bound, refused before any array exists
    n = guards.MAX_SAMPLE_CLONES // d + 1
    n += n * d % 2
    assert n * d - d <= guards.MAX_SAMPLE_CLONES < n * d
    gen = rng.stream(1, 0)
    state = gen.bit_generator.state
    needle = (r"^dn=%d exceeds the %d-clone bound "
              r"\(guards.MAX_SAMPLE_CLONES\)$"
              % (n * d, guards.MAX_SAMPLE_CLONES))
    tracemalloc.start()
    try:
        for call in (lambda: graphs.sample_uniform(n, d, gen),
                     lambda: graphs.sample_configuration(n, d, gen),
                     lambda: graphs.count_configurations(n, d)):
            with pytest.raises(GuardError, match=needle):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert gen.bit_generator.state == state  # no randomness drawn
    with pytest.raises(GuardError, match="MAX_SAMPLE_CLONES"):
        experiments.flat_planted_coloring(guards.MAX_SAMPLE_CLONES + 2, 2)


@pytest.mark.parametrize("enumerate_", [graphs.enumerate_configurations,
                                        graphs.enumerate_multigraphs])
def test_enumeration_refusal_texts(enumerate_):
    with pytest.raises(GuardError, match=r"^dn=18 exceeds the 16-clone "
                       r"bound \(guards.MAX_ENUM_CLONES\)$"):
        next(enumerate_(6, 3))
    with pytest.raises(ValidationError,
                       match=r"^dn must be even, got n=3 d=3$"):
        next(enumerate_(3, 3))
    with pytest.raises(ValidationError, match=r"^n and d must be positive$"):
        next(enumerate_(0, 2))


def test_sample_configuration_deterministic():
    a = graphs.sample_configuration(10, 3, rng.stream(7, 0))
    b = graphs.sample_configuration(10, 3, rng.stream(7, 0))
    c = graphs.sample_configuration(10, 3, rng.stream(7, 1))
    assert a.match == b.match
    assert a.match != c.match


def test_sample_configuration_uniform():
    # chi-square over all 105 configurations at dn = 8
    confs = {c.match: i for i, c in
             enumerate(graphs.enumerate_configurations(4, 2))}
    counts = np.zeros(len(confs))
    draws = 100000
    r = rng.stream(42, 0)
    for _ in range(draws):
        counts[confs[graphs.sample_configuration(4, 2, r).match]] += 1
    expected = draws / len(confs)
    stat = ((counts - expected) ** 2 / expected).sum()
    p = scipy.stats.chi2.sf(stat, len(confs) - 1)
    assert p > 1e-3


def test_contract_and_degrees():
    # 2 vertices, d=2: clones 0,1 (vertex 0) and 2,3 (vertex 1)
    conf = graphs.configuration(2, 2, (2, 3, 0, 1))
    G = graphs.contract(conf)
    assert np.array_equal(G.edges, [(0, 1), (0, 1)])
    assert graphs.degrees(G).tolist() == [2, 2]
    conf2 = graphs.configuration(2, 2, (1, 0, 3, 2))  # two loops
    G2 = graphs.contract(conf2)
    assert np.array_equal(G2.edges, [(0, 0), (1, 1)])
    assert graphs.degrees(G2).tolist() == [2, 2]


def test_multigraph_validation():
    with pytest.raises(ValidationError):
        graphs.multigraph(2, 2, [(0, 1)])  # degree 1, expected 2
    with pytest.raises(ValidationError):
        graphs.multigraph(2, 1, [(0, 2)])  # endpoint out of range
    G = graphs.multigraph(3, 0, [(0, 1)])
    assert np.array_equal(G.edges, [(0, 1)])
    # the edge keys u*n + v must fit in an int64
    big = graphs.MAX_VERTICES
    G = graphs.multigraph(big, 0, [(big - 1, big - 1), (0, big - 1)])
    assert np.array_equal(G.edges, [(0, big - 1), (big - 1, big - 1)])
    with pytest.raises(ValidationError, match="exceeds"):
        graphs.multigraph(big + 1, 0, [(0, 1)])


def test_adjacency_loop_counts():
    G = graphs.multigraph(2, 2, [(0, 0), (1, 1)])
    assert [a.tolist() for a in G.adjacency] == \
        [[0, 1, 2], [0, 1], [1, 1]]


def test_adjacency_is_read_only_and_kept():
    G = graphs.multigraph(4, 0, [(1, 1), (1, 3), (3, 1), (0, 2)])
    assert G.adjacency is G.adjacency  # built once, then kept on the graph
    for a in G.adjacency:
        assert a.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def test_is_simple():
    assert graphs.is_simple(graphs.multigraph(3, 2, [(0, 1), (1, 2), (0, 2)]))
    assert not graphs.is_simple(graphs.multigraph(2, 2, [(0, 1), (0, 1)]))
    assert not graphs.is_simple(graphs.multigraph(1, 2, [(0, 0)]))


def test_edges_read_only():
    planted = experiments.flat_planted_coloring(6, 3).assignment
    for G in (graphs.multigraph(2, 2, [(0, 1), (1, 0)]),
              graphs.contract(graphs.configuration(2, 1, (1, 0))),
              graphs.sample_uniform(10, 3, rng.stream(1, 0)),
              graphs.sample_planted(planted, 2, flat_counts(6, 2, 3),
                                    rng.stream(1, 0)),
              next(graphs.enumerate_multigraphs(4, 2))[0]):
        assert G.edges.dtype == np.int64
        assert G.edges.shape == (G.n * G.d // 2, 2)
        with pytest.raises(ValueError, match="read-only"):
            G.edges[0, 0] = 1


def test_graphs_compare_by_value():
    G = graphs.multigraph(3, 2, [(0, 1), (1, 2), (2, 0)])
    assert G == graphs.multigraph(3, 2, [(2, 1), (0, 2), (1, 0)])
    assert G == graphs.MultiGraph(3, 2, np.array([[0, 1], [0, 2], [1, 2]]))
    assert G != graphs.multigraph(3, 0, [(0, 1), (1, 2), (0, 2)])  # d
    assert G != graphs.multigraph(4, 0, [(0, 1), (1, 2), (0, 2)])  # n
    assert G != graphs.multigraph(3, 2, [(0, 0), (1, 2), (1, 2)])  # edges
    assert G != graphs.multigraph(3, 0, [(0, 1), (1, 2)])          # count
    assert G != "G" and G != (3, 2, G.edges.tolist())
    with pytest.raises(TypeError):
        hash(G)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_sample_uniform_matches_configuration(n, d, seed):
    # the same edges from the same draw, and the same randomness consumed
    if n * d % 2:
        n += 1
    fast, slow = rng.stream(seed, 0), rng.stream(seed, 0)
    G = graphs.sample_uniform(n, d, fast)
    H = graphs.contract(graphs.sample_configuration(n, d, slow))
    assert np.array_equal(G.edges, H.edges) and (G.n, G.d) == (H.n, H.d)
    assert fast.bit_generator.state == slow.bit_generator.state


def test_probability_simple_plausible():
    # for d=3 the contracted multigraph should be simple a nontrivial
    # fraction of the time (asymptotically exp(-(d-1)/2 - (d-1)^2/4))
    r = rng.stream(123, 0)
    hits = sum(graphs.is_simple(graphs.contract(
        graphs.sample_configuration(100, 3, r))) for _ in range(400))
    assert 0.1 < hits / 400 < 0.6


def test_edge_count_between():
    G = graphs.multigraph(4, 0, [(0, 1), (0, 0), (2, 3)])
    assert graphs.edge_count_between(G, {0}, {1}) == 1
    assert graphs.edge_count_between(G, {0, 1}, {0, 1}) == 4  # loop counts 2
    assert graphs.edge_count_between(G, {0}, {0}) == 2
    assert graphs.edge_count_between(G, {2}, {3}) == 1
    assert graphs.edge_count_between(G, {0, 2}, {1, 3}) == 2


def test_edge_count_between_refuses_vertices_out_of_range():
    G = graphs.sample_uniform(6, 3, rng.stream(1, 0))
    V = range(6)
    # -1 would index vertex 5 from the end, 6 past it: both are refused
    with pytest.raises(ValidationError, match=r"^vertex -1 is not in "
                                              r"range\(6\)$"):
        graphs.edge_count_between(G, {-1}, V)
    with pytest.raises(ValidationError, match=r"^vertex 6 is not in "
                                              r"range\(6\)$"):
        graphs.edge_count_between(G, V, {6, 7})
    with pytest.raises(ValidationError, match="vertex -2 "):
        graphs.vertex_mask(6, [8, -1, 3, -2])


def test_class_edge_matrix():
    G = graphs.multigraph(4, 0, [(0, 1), (0, 2), (1, 1)])
    M = graphs.class_edge_matrix(G, [0, 0, 1, 1], 2)
    # (0,1) monochromatic in class 0 counts twice, loop at 1 counts twice
    assert M.tolist() == [[4, 1], [1, 0]]
    assert M.sum() == 2 * len(G.edges)


def test_vertex_class_degrees():
    G = graphs.multigraph(3, 0, [(0, 1), (1, 1), (1, 2)])
    deg = graphs.vertex_class_degrees(G, [0, 1, 1], 2)
    assert deg[0].tolist() == [0, 1]
    assert deg[1].tolist() == [1, 3]  # loop contributes 2 to own class
    assert deg[2].tolist() == [0, 1]


def reference_vertex_class_degrees(G, assignment, k, within=None):
    """vertex_class_degrees as it stood before the spare column: each
    direction's edges compressed to those whose far end is in the mask."""
    color = np.asarray(assignment, dtype=np.int64)
    ends = G.edges
    out = np.zeros(G.n * k, dtype=np.int64)
    # each edge counts once from either end: u's count of v, then v's of u
    for a, b in ((0, 1), (1, 0)):
        src, dst = ends[:, a], ends[:, b]
        if within is not None:
            keep = within[dst]
            src, dst = src[keep], dst[keep]
        out += np.bincount(src * k + color[dst], minlength=G.n * k)
    return out.reshape(G.n, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.data())
def test_masked_class_degrees_match_compressed_edges(n, k, data):
    # loops and parallel edges as drawn; no mask, an empty, a full and a
    # drawn one
    vertex = st.integers(0, n - 1)
    G = graphs.multigraph(n, 0, data.draw(st.lists(
        st.tuples(vertex, vertex), max_size=30)))
    color = data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                               max_size=n))
    drawn = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)))
    for within in (None, np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
                   drawn):
        got = graphs.vertex_class_degrees(G, color, k, within)
        want = reference_vertex_class_degrees(G, color, k, within)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_cycle_census_hand_instances():
    # loop + doubled edge + triangle through the doubled edge
    H = graphs.multigraph(3, 0, [(0, 1), (0, 1), (1, 2), (0, 2), (2, 2)])
    assert graphs.cycle_census(H, 3).counts == (1, 1, 2)
    K4 = graphs.multigraph(4, 3, [(a, b) for a, b in
                                  itertools.combinations(range(4), 2)])
    census = graphs.cycle_census(K4, 4)
    assert census.counts == (0, 0, 4, 3)
    assert census[3] == 4
    for j in (0, -1, 5):  # outside 1..L
        with pytest.raises(IndexError,
                           match=r"^cycle length %d is not in 1\.\.4$" % j):
            census[j]
    # triple edge: 3 choose 2 = 3 two-cycles
    T = graphs.multigraph(2, 3, [(0, 1)] * 3)
    assert graphs.cycle_census(T, 2).counts == (0, 3)
    # cycle graph C5 has exactly one 5-cycle and nothing shorter
    C5 = graphs.multigraph(5, 2, [(i, (i + 1) % 5) for i in range(5)])
    assert graphs.cycle_census(C5, 5).counts == (0, 0, 0, 0, 1)


def test_cycle_census_guards():
    G = graphs.multigraph(3, 2, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValidationError):
        graphs.cycle_census(G, 0)
    with pytest.raises(GuardError):
        graphs.cycle_census(G, 13)


def test_census_refuses_a_hub_past_the_wedge_bound():
    # a star's centre at id 0 pairs all C(D, 2) of its forward rows; one
    # past the bound is refused before any wedge array exists
    D = math.isqrt(2 * guards.MAX_CENSUS_WEDGES) + 1
    wedges = D * (D - 1) // 2
    assert wedges > guards.MAX_CENSUS_WEDGES >= (D - 1) * (D - 2) // 2
    star = graphs.multigraph(D + 1, 0, [(0, v) for v in range(1, D + 1)])
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match=r"^wedges=%d exceeds the %d-wedge"
                           % (wedges, guards.MAX_CENSUS_WEDGES)):
            graphs.cycle_census(star, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert graphs.cycle_census(star, 2).counts == (0, 0)


def _census_oracle(G, L):
    """Cycle counts straight from the definition: loops; pairs of parallel
    edges; for j >= 3 every j-subset of vertices in every cyclic order (first
    vertex the smallest, one of the two directions), weighted by the product
    of the multiplicities of its edges."""
    mult = Counter(edge_tuple(G))
    counts = [sum(m for (u, v), m in mult.items() if u == v)]
    counts.append(sum(m * (m - 1) // 2 for (u, v), m in mult.items()
                      if u != v))
    for j in range(3, L + 1):
        total = 0
        for subset in itertools.combinations(range(G.n), j):
            for rest in itertools.permutations(subset[1:]):
                if rest[0] > rest[-1]:
                    continue
                cycle = (subset[0],) + rest
                weight = 1
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    weight *= mult[(min(a, b), max(a, b))]
                total += weight
        counts.append(total)
    return tuple(counts[:L])


@st.composite
def _skewed_multigraphs(draw):
    """Multigraphs with loops and parallel edges; half of them also get a
    star at vertex 0, whose degree then dominates (star plus chords)."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=24))
    if draw(st.booleans()):
        edges += [(0, v) for v in range(1, n)] * draw(st.integers(1, 3))
    return graphs.multigraph(n, 0, edges)


@settings(max_examples=300, deadline=None)
@given(_skewed_multigraphs(), st.integers(1, 5))
def test_cycle_census_matches_definition(G, L):
    assert graphs.cycle_census(G, L).counts == _census_oracle(G, L)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
             unique=True))),
       st.integers(3, 6))
def test_cycle_census_matches_networkx(graph, L):
    n, edges = graph
    nxG = nx.Graph()
    nxG.add_nodes_from(range(n))
    nxG.add_edges_from(edges)
    want = [0] * L
    for cycle in nx.simple_cycles(nxG, length_bound=L):
        want[len(cycle) - 1] += 1
    G = graphs.multigraph(n, 0, edges)
    assert graphs.cycle_census(G, L).counts == tuple(want)


def reference_weighted_triangles(n, key, mult):
    """Triangles of the multigraph whose distinct non-loop edges are
    key = u*n + v (u < v, sorted, unique) with multiplicities `mult`, each
    weighted by the product of its three multiplicities.

    Chiba-Nishizeki wedge count: orient every edge away from its end of lower
    (degree, id), pair each out-edge of a vertex with the later out-edges of
    the same vertex, and look the closing edge up among the keys.  The lowest
    vertex of a triangle sees its two other vertices as out-neighbours, so
    each triangle is found once; out-degrees are O(sqrt(m)), so the wedges
    number O(m^1.5).
    """
    u, v = np.divmod(key, n)
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    flip = rank[u] > rank[v]
    tail, head = np.where(flip, v, u), np.where(flip, u, v)
    del deg, rank, flip, u, v
    # keys are unique and tail is nearly sorted: the stable sort uses the runs
    order = np.argsort(tail * n + head, kind="stable")
    tail, head, w = tail[order], head[order], mult[order]
    del order
    # out-edges of one vertex are contiguous; edge p pairs with p+1 .. end-1
    end = np.cumsum(np.bincount(tail, minlength=n))[tail]
    later = end - np.arange(tail.size) - 1
    del end
    first = np.repeat(np.arange(tail.size), later)
    starts = np.cumsum(later) - later
    second = first + 1 + np.arange(first.size) - np.repeat(starts, later)
    del later, starts
    # heads ascend within each vertex, so head[first] < head[second]
    closing = head[first] * n + head[second]
    wedge = w[first] * w[second]
    del first, second, tail, head
    pos = np.minimum(np.searchsorted(key, closing), key.size - 1)
    hit = key[pos] == closing
    return int((wedge[hit] * mult[pos[hit]]).sum())


def reference_id_ordered_triangles(n, key, mult):
    """Triangles of the multigraph whose distinct non-loop edges are
    key = u*n + v (u < v, sorted, unique) with multiplicities `mult`, each
    weighted by the product of its three multiplicities.

    Id-ordered wedge count: each key pairs with the later keys of its run of
    equal u (the forward row of u), and the closing edges, argsorted, are
    looked up among the keys.  A triangle's lowest vertex sees its other two
    in its forward row, so the triangle is found once.  The wedges number
    sum_u C(fdeg(u), 2): about n d (d - 1) / 6 on d-regular input, but
    C(D, 2) for a hub of degree D at a low id.
    """
    u, v = np.divmod(key, n)
    # key p pairs with the keys p+1 .. end-1 of its run, in that order
    later = np.cumsum(np.bincount(u, minlength=n))[u] - np.arange(u.size) - 1
    del u
    wedges = int(later.sum())
    guards.check(wedges, "MAX_CENSUS_WEDGES", "wedges", "wedge")
    second = np.arange(wedges) + np.repeat(
        np.arange(1, later.size + 1) - np.cumsum(later) + later, later)
    # v ascends within a run, so each closing key is a (lower, higher) pair
    closing = np.repeat(v * n, later) + v[second]
    wedge = np.repeat(mult, later) * mult[second]
    del later, second, v
    order = np.argsort(closing)
    closing, wedge = closing[order], wedge[order]
    del order
    pos = np.minimum(np.searchsorted(key, closing), key.size - 1)
    hit = key[pos] == closing
    return int((wedge[hit] * mult[pos[hit]]).sum())


def distinct_edges(G):
    """The distinct non-loop edges of G by np.unique: sorted keys
    u*n + v (u < v) and their multiplicities."""
    u, v = G.edges.T
    loop = u == v
    return np.unique(u[~loop] * G.n + v[~loop], return_counts=True)


def reference_short_census(G):
    """The counts of j = 1, 2, 3 as the degree-ordered census made them:
    the distinct edges by np.unique, the triangles by
    reference_weighted_triangles."""
    key, mult = distinct_edges(G)
    triangles = reference_weighted_triangles(G.n, key, mult) if key.size else 0
    loops = int((G.edges[:, 0] == G.edges[:, 1]).sum())
    return loops, int((mult * (mult - 1) // 2).sum()), triangles


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2000), st.integers(1, 12), st.integers(0, 10 ** 6))
def test_short_census_matches_degree_order_on_samples(n, d, seed):
    # sampled d-regular multigraphs, loops and parallel edges included
    if n * d % 2:
        n += 1
    G = graphs.sample_uniform(n, d, rng.stream(seed, 0))
    assert graphs.cycle_census(G, 3).counts == reference_short_census(G)


@settings(max_examples=150, deadline=None)
@given(_skewed_multigraphs())
def test_short_census_matches_degree_order_on_skewed(G):
    assert graphs.cycle_census(G, 3).counts == reference_short_census(G)


def assert_triangles_match_id_order(G):
    key, mult = distinct_edges(G)
    assert graphs._weighted_triangles(G.n, key, mult) == (
        reference_id_ordered_triangles(G.n, key, mult))


@settings(max_examples=150, deadline=None)
@given(_skewed_multigraphs())
def test_filtered_triangles_match_id_order_on_skewed(G):
    assert_triangles_match_id_order(G)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 12), st.integers(0, 10 ** 6))
def test_filtered_triangles_match_id_order_on_samples(n, d, seed):
    if n * d % 2:
        n += 1
    assert_triangles_match_id_order(
        graphs.sample_uniform(n, d, rng.stream(seed, 0)))


def test_saturated_filter_keeps_counts_exact(monkeypatch):
    # with _HASH = 0 every key and every closing edge hashes to slot 0, so
    # every wedge passes the filter and only the lookup decides
    samples = [graphs.sample_uniform(n, d, rng.stream(seed, 0))
               for n, d, seed in [(2000, 3, 1), (600, 12, 2), (3000, 4, 3)]]
    K4 = graphs.multigraph(4, 3, list(itertools.combinations(range(4), 2)))
    hand = graphs.multigraph(4, 0, [(0, 1), (0, 1), (1, 2), (0, 2), (0, 2),
                                    (0, 2), (2, 3), (1, 3), (2, 2)])
    monkeypatch.setattr(graphs, "_HASH", 0)
    assert not graphs._slots(np.arange(1, 100), 10).any()
    for G in samples + [K4, hand]:
        assert_triangles_match_id_order(G)
        assert graphs.cycle_census(G, 3).counts == reference_short_census(G)
    assert graphs.cycle_census(hand, 3).counts == (1, 1 + 3, 6 + 1)


def test_filter_drops_most_wedges_that_do_not_close():
    # the m keys mark at most m of the 2^ceil(log2 8m) slots; a wedge that
    # does not close passes about as often as a random slot is marked
    G = graphs.sample_uniform(10 ** 4, 3, rng.stream(1, 0))
    key, _ = distinct_edges(G)
    bits = (8 * key.size - 1).bit_length()
    table = np.zeros(1 << bits, dtype=bool)
    table[graphs._slots(key, bits)] = True
    # on cubic input each forward row holds at most 3 keys
    u, v = np.divmod(key, G.n)
    closing = np.setdiff1d(np.concatenate(
        [(v[:-s] * G.n + v[s:])[u[:-s] == u[s:]] for s in (1, 2)]), key)
    passed = table[graphs._slots(closing, bits)].mean()
    assert closing.size > 9000 and passed < 2 * table.mean() < 0.25


def test_census_peak_above_the_graph():
    # L = 3 on a cubic sample of 10^5 vertices: 6.53 MB traced above the
    # graph, against 8.0 MB for the unfiltered id-ordered count
    G = graphs.sample_uniform(10 ** 5, 3, rng.stream(5, 0))
    tracemalloc.start()
    try:
        graphs.cycle_census(G, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.63e6, peak


@settings(max_examples=20, deadline=None)
@given(st.integers(100, 400), st.floats(0.01, 0.1), st.integers(0, 10 ** 6))
def test_triangles_match_networkx(n, p, seed):
    # simple graphs of a few hundred vertices: each triangle counts once
    nxG = nx.gnp_random_graph(n, p, seed=seed)
    G = graphs.multigraph(n, 0, nxG.edges())
    assert graphs.cycle_census(G, 3).counts == (
        0, 0, sum(nx.triangles(nxG).values()) // 3)


def assert_sorted_rows(G):
    """G.edges is what cycle_census reads: a read-only (m, 2) int64 array
    of rows (u, v) with u <= v, sorted lexicographically."""
    e = G.edges
    assert e.dtype == np.int64 and e.ndim == 2 and e.shape[1] == 2
    assert not e.flags.writeable
    assert (e[:, 0] <= e[:, 1]).all()
    assert np.array_equal(np.lexsort((e[:, 1], e[:, 0])), np.arange(len(e)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 6), st.integers(0, 10 ** 6),
       st.data())
def test_every_builder_hands_out_sorted_rows(n, d, seed, data):
    if n * d % 2:
        n += 1
    G = graphs.sample_uniform(n, d, rng.stream(seed, 0))
    assert_sorted_rows(G)
    assert_sorted_rows(graphs.contract(
        graphs.sample_configuration(n, d, rng.stream(seed, 1))))
    # the same edges in any order, each either way round
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(
        data.draw(st.permutations(G.edges.tolist())),
        data.draw(st.lists(st.booleans(), min_size=len(G.edges),
                           max_size=len(G.edges))))]
    for H in (graphs.multigraph(n, d, edges), graphs.multigraph(n, 0, edges)):
        assert_sorted_rows(H)
        assert np.array_equal(H.edges, G.edges)
    # the array path, then the per-line path ("+" is not an array token)
    lines = "%d %d\n" % (n, d) + "".join("%d %d\n" % e for e in edges)
    signed = lines.replace(" ", " +")
    assert graphs._int_tokens(lines) is not None
    assert graphs._int_tokens(signed) is None
    for text in (lines, signed):
        H = graphs.parse_graph(text)
        assert_sorted_rows(H)
        assert np.array_equal(H.edges, G.edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(1, 4),
       st.integers(0, 10 ** 6))
def test_planted_samples_have_sorted_rows(k, blocks, c, seed):
    n, d = k * blocks, (k - 1) * c
    if n * d % 2:
        d *= 2
    assert_sorted_rows(graphs.sample_planted(
        [v % k for v in range(n)], d, flat_counts(n, d, k),
        rng.stream(seed, 0)))


@pytest.mark.parametrize("n, d", [nd for nd in _ENUMERABLE
                                  if nd[0] * nd[1] <= 12])
def test_enumerated_multigraphs_have_sorted_rows(n, d):
    for G, _ in graphs.enumerate_multigraphs(n, d):
        assert_sorted_rows(G)


@settings(max_examples=200, deadline=None)
@given(_skewed_multigraphs(), st.integers(1, 4), st.data())
def test_edge_counts_match_brute_force(G, k, data):
    vertices = st.sets(st.integers(0, G.n - 1))
    A, B = data.draw(vertices), data.draw(vertices)
    assignment = data.draw(st.lists(st.integers(0, k - 1), min_size=G.n,
                                    max_size=G.n))
    degs = [0] * G.n
    between = 0
    M = [[0] * k for _ in range(k)]
    for u, v in G.edges:
        degs[u] += 1
        degs[v] += 1
        between += (u in A and v in B) + (v in A and u in B)
        M[assignment[u]][assignment[v]] += 1
        M[assignment[v]][assignment[u]] += 1
    assert graphs.degrees(G).tolist() == degs
    assert graphs.edge_count_between(G, A, B) == between
    assert graphs.class_edge_matrix(G, assignment, k).tolist() == M


@pytest.mark.parametrize("seed, idx, digest, counts", [
    (20240817, 0,
     "697f4475fe640c08e23bff892f9acb103b9763c9ffe3e8ae8a0c11dc0ab71954",
     (0, 1, 3, 1, 1)),
    (20240817, 1,
     "1f5b5eb16a4774c06f6f550e90e198775595ca7146f5d9172b2245815fadb9c4",
     (1, 0, 1)),
    (7, 3,
     "692d548c21bc766917f9c72c8bdfb80180fa8690cb4d75d6279068e0d72575d2",
     (1, 4, 1, 2, 6)),
], ids=["20240817-0", "20240817-1", "7-3"])
def test_seeded_sample_pinned(seed, idx, digest, counts):
    # the same seed draws the same permutation, graph and counts, through
    # the configuration and straight from the permutation
    G = graphs.contract(graphs.sample_configuration(10 ** 4, 3,
                                                    rng.stream(seed, idx)))
    text = graphs.format_graph(G).encode()
    assert hashlib.sha256(text).hexdigest() == digest
    assert graphs.cycle_census(G, len(counts)).counts == counts
    assert graphs.sample_uniform(10 ** 4, 3, rng.stream(seed, idx)) == G


def test_sample_planted_exact_profile():
    n, k, d = 12, 3, 4
    assignment = [v % k for v in range(n)]
    counts = flat_counts(n, d, k)
    assert counts.tolist() == [[0, 8, 8], [8, 0, 8], [8, 8, 0]]
    r = rng.stream(5, 0)
    for _ in range(5):
        G = graphs.sample_planted(assignment, d, counts, r)
        assert np.array_equal(graphs.class_edge_matrix(G, assignment, k),
                              counts)
        # no monochromatic edge: the planted coloring is proper
        assert all(assignment[u] != assignment[v] for u, v in G.edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(1, 4),
       st.integers(0, 10 ** 6))
def test_sample_planted_is_regular(k, blocks, c, seed):
    # flat profile: d a multiple of k - 1 makes dn / (k(k - 1)) integral;
    # the graph is built without a degree check, so check it here
    n, d = k * blocks, (k - 1) * c
    if n * d % 2:
        d *= 2
    assignment = [v % k for v in range(n)]
    G = graphs.sample_planted(assignment, d, flat_counts(n, d, k),
                              rng.stream(seed, 0))
    assert graphs.degrees(G).tolist() == [d] * n


def test_sample_planted_deterministic():
    assignment = [0, 0, 1, 1]
    counts = [[0, 4], [4, 0]]
    a = graphs.sample_planted(assignment, 2, counts, rng.stream(9, 0))
    b = graphs.sample_planted(assignment, 2, counts, rng.stream(9, 0))
    assert np.array_equal(a.edges, b.edges)


def test_sample_planted_uniform():
    # all-cross profile at n=4, d=2, k=2: the conditioned configurations are
    # the 4! bijections between the class-0 and class-1 clones; compare the
    # sampler's multigraph law against that reference by chi-square
    assignment = [0, 0, 1, 1]
    d = 2
    counts = [[0, 4], [4, 0]]
    ref = Counter()
    clones0 = [0, 1, 2, 3]
    clones1 = [4, 5, 6, 7]
    for perm in itertools.permutations(clones1):
        match = [0] * 8
        for a, b in zip(clones0, perm):
            match[a] = b
            match[b] = a
        conf = graphs.configuration(4, d, match)
        ref[edge_tuple(graphs.contract(conf))] += 1
    total_ref = sum(ref.values())
    draws = 5000
    r = rng.stream(31, 0)
    seen = Counter()
    for _ in range(draws):
        seen[edge_tuple(graphs.sample_planted(assignment, d, counts, r))] += 1
    assert set(seen) <= set(ref)
    keys = sorted(ref)
    obs = np.array([seen.get(key, 0) for key in keys], dtype=float)
    exp = np.array([ref[key] * draws / total_ref for key in keys])
    stat = ((obs - exp) ** 2 / exp).sum()
    assert scipy.stats.chi2.sf(stat, len(keys) - 1) > 1e-3


@pytest.mark.parametrize("counts, needle", [
    ([[0, 4, 0], [4, 0, 0]], r"counts must be a square matrix, got shape "
                             r"\(2, 3\)"),
    ([[0, 4], [4]], "counts must be a square matrix, got ragged rows"),
    ([[0, Fraction(4)], [4, 0]],
     r"counts\[0, 1\] = 4 is a Fraction, not an integer"),
    ([[0.0, 4.0], [4.0, 0.0]],
     r"counts\[0, 0\] = 0.0 is a float64, not an integer"),
    ([[0]], "color out of range"),
    ([[0, -4], [-4, 0]], r"counts\[0, 1\] = -4 is negative"),
    ([[0, 4], [3, 0]], r"counts\[0, 1\] = 4 differs from counts\[1, 0\]"),
    ([[2, 2], [2, 2]], r"counts\[0, 0\] = 2 is on the diagonal"),
    ([[0, 2], [2, 0]], r"counts row 0 sums to 2, not d \|V_0\| = 4"),
], ids=["not-square", "ragged", "fraction", "float", "few-classes", "negative",
        "asymmetric", "diagonal", "row-sum"])
def test_sample_planted_refusals(counts, needle):
    # refused before any randomness is drawn
    gen = rng.stream(0, 0)
    state = gen.bit_generator.state
    with pytest.raises(ValidationError, match="^%s$" % needle):
        graphs.sample_planted([0, 0, 1, 1], 2, counts, gen)
    assert gen.bit_generator.state == state


def reference_sample_planted(assignment, d, counts, rng):
    """sample_planted clone by clone: the same permutation of each class's
    clone list, cut into segments of the counts' row, the segments matched
    position by position into a checked involution, then contracted."""
    assignment = [int(c) for c in assignment]
    n, k = len(assignment), len(counts)
    dn = d * n
    match = np.empty(dn, dtype=np.int64)
    segments = {}
    for i in range(k):
        clones = [v * d + p for v in range(n) if assignment[v] == i
                  for p in range(d)]
        perm = rng.permutation(len(clones))
        pos = 0
        for j in range(k):
            segments[(i, j)] = [clones[perm[t]]
                                for t in range(pos, pos + counts[i][j])]
            pos += counts[i][j]
        assert pos == len(clones)
    for i in range(k):
        for j in range(i + 1, k):
            for ca, cb in zip(segments[(i, j)], segments[(j, i)]):
                match[ca] = cb
                match[cb] = ca
    return graphs.contract(graphs.configuration(n, d, match.tolist()))


@st.composite
def planted_profiles(draw):
    """(assignment, d, counts) accepted by sample_planted: classes in
    shuffled vertex order, flat or non-flat counts, some empty (i, j)
    segments and some empty classes."""
    k = draw(st.integers(2, 5))
    if draw(st.booleans()):
        # flat: d a multiple of k - 1 makes dn / (k(k - 1)) integral
        blocks, d = draw(st.integers(1, 5)), (k - 1) * draw(st.integers(1, 3))
        sizes = [blocks] * k
        M = [[0 if i == j else d * blocks // (k - 1) for j in range(k)]
             for i in range(k)]
    else:
        # d times the class-edge counts of a few cross edges (classes that
        # get no edge are empty), then moves around 4-cycles of classes,
        # which keep every row sum and need not be multiples of d
        d = draw(st.integers(1, 4))
        cross = st.tuples(st.integers(0, k - 1),
                          st.integers(0, k - 1)).filter(lambda e: e[0] != e[1])
        M = [[0] * k for _ in range(k)]
        for i, j in draw(st.lists(cross, min_size=1, max_size=12)):
            M[i][j] += d
            M[j][i] += d
        sizes = [sum(row) // d for row in M]
        if k >= 4:
            for a, b, c, e in draw(st.lists(
                    st.permutations(range(k)).map(lambda p: p[:4]),
                    max_size=6)):
                if M[b][c] and M[e][a]:
                    for x, y, step in ((a, b, 1), (b, c, -1), (c, e, 1),
                                       (e, a, -1)):
                        M[x][y] += step
                        M[y][x] += step
    assignment = draw(st.permutations([i for i in range(k)
                                       for _ in range(sizes[i])]))
    return assignment, d, M


@settings(max_examples=300, deadline=None)
@given(planted_profiles(), st.integers(0, 10 ** 6))
def test_sample_planted_matches_clone_reference(profile, seed):
    # the same edges from the same draws, and the same randomness consumed
    fast, slow = rng.stream(seed, 0), rng.stream(seed, 0)
    G = graphs.sample_planted(*profile, fast)
    assert G == reference_sample_planted(*profile, slow)
    assert fast.integers(2 ** 62) == slow.integers(2 ** 62)
    assignment, _, counts = profile
    assert np.array_equal(
        graphs.class_edge_matrix(G, assignment, len(counts)), counts)


def test_graph_file_roundtrip(tmp_path):
    G = graphs.multigraph(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
    path = tmp_path / "g.txt"
    cli._write(str(path), graphs.graph_blocks(G))
    H = graphs.parse_graph(path.read_text())
    assert H == G
    assert graphs.parse_graph(graphs.format_graph(G)) == G
    with pytest.raises(ValidationError):
        graphs.parse_graph("")


def test_clean_defects_are_refused_from_the_arrays(monkeypatch):
    # a file of clean characters and two tokens a line is refused by the
    # array path, with the per-line parser's message
    monkeypatch.setattr(graphs, "_int_pair", _refuse)
    text = graphs.format_graph(graphs.sample_uniform(6, 3, rng.stream(1, 0)))
    head, *edges = text.splitlines(keepends=True)
    u = edges[-1].split()[0]
    for defect in ("0 3\n" + "".join(edges),              # header n = 0
                   text + "0 1\n",                        # one edge too many
                   head + "".join(edges[:-1]) + u + " 6\n",  # endpoint n
                   head + "".join(edges[:-1]) + "0 0\n"):    # degrees
        expected = outcome(reference_parse_graph, defect)
        assert expected[0] == "refused"
        assert outcome(graphs.parse_graph, defect) == expected, defect


def reference_multigraph(n, d, pairs):
    """multigraph's checks on a list of pairs, one pair at a time, and its
    graph as n, d and the sorted (min, max) pairs."""
    if n > graphs.MAX_VERTICES:
        raise ValidationError("n=%d exceeds %d, the most vertices a graph "
                              "can have" % (n, graphs.MAX_VERTICES))
    bad = [(min(e), max(e)) for e in pairs
           if not (0 <= e[0] < n and 0 <= e[1] < n)]
    if bad:
        raise ValidationError("edge endpoint out of range: (%d,%d)"
                              % min(bad))
    degree = Counter(v for e in pairs for v in e)
    wrong = [v for v in range(n) if degree[v] != d] if d else []
    if wrong:
        raise ValidationError("vertex %d has degree %d, expected %d"
                              % (wrong[0], degree[wrong[0]], d))
    return n, d, sorted((min(e), max(e)) for e in pairs)


def built(n, d, edge_list):
    G = graphs.multigraph(n, d, edge_list)
    return G.n, G.d, list(map(tuple, G.edges.tolist()))


PAST_INT64 = (2 ** 63, 2 ** 63 + 1, 2 ** 64, -2 ** 63 - 1, 2 ** 70)


@st.composite
def endpoint_lists(draw):
    """(n, d, pairs): a d-regular sample's edges, or pairs on n vertices at
    d = 0 for any n, with endpoints out of range; in a list, sometimes one
    value past int64."""
    big = graphs.MAX_VERTICES
    if draw(st.booleans()):
        n, d = draw(st.sampled_from([(2, 1), (2, 3), (4, 2), (6, 3)]))
        G = graphs.sample_uniform(n, d, rng.stream(draw(st.integers(0, 9))))
        pairs = [draw(st.permutations(e)) for e in G.edges.tolist()]
    else:
        n, d = draw(st.sampled_from([1, 2, 5, big, big + 1])), 0
        pairs = []
    vertex = st.one_of(st.integers(0, min(n, 6) - 1),
                       st.sampled_from([-1, n - 1, n, big, big + 1]))
    for _ in range(draw(st.integers(0, 3))):
        pairs.insert(draw(st.integers(0, len(pairs))),
                     draw(st.tuples(vertex, vertex)))
    if pairs and draw(st.booleans()):
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], draw(st.sampled_from(PAST_INT64)))
    return n, d, pairs


@settings(max_examples=400, deadline=None)
@given(endpoint_lists())
@example((3, 0, []))
@example((3, 2, []))
def test_multigraph_takes_arrays_as_lists(case):
    # a list of pairs and the same pairs as an int64 array give the graph
    # or the refusal the pair-by-pair checks give
    n, d, pairs = case
    expected = outcome(reference_multigraph, n, d, pairs)
    assert outcome(built, n, d, pairs) == expected
    if not any(v in PAST_INT64 for e in pairs for v in e):
        ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        assert outcome(built, n, d, ends) == expected
