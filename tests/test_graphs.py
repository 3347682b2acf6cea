import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from regcolor import graphs, rng
from regcolor.errors import GuardError, ValidationError


def test_double_factorial_odd():
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
    for n, d in [(2, 2), (4, 2), (6, 2), (4, 3)]:
        assert graphs.count_configurations(n, d) == \
            graphs.double_factorial_odd(n * d - 1)
    with pytest.raises(ValidationError):
        graphs.count_configurations(3, 3)  # dn odd
    with pytest.raises(ValidationError):
        graphs.count_configurations(0, 2)


def test_configuration_validation():
    with pytest.raises(ValidationError):
        graphs.Configuration(2, 1, (0, 1))  # fixed points
    with pytest.raises(ValidationError):
        graphs.Configuration(2, 1, (1, 0, 2))  # wrong length
    c = graphs.Configuration(2, 1, (1, 0))
    assert c.clone(1, 0) == 1


def test_enumerate_configurations_counts():
    for n, d in [(2, 1), (4, 1), (2, 2), (4, 2), (2, 3)]:
        confs = list(graphs.enumerate_configurations(n, d))
        assert len(confs) == graphs.count_configurations(n, d)
        assert len({c.match for c in confs}) == len(confs)


def test_enumerate_guard():
    with pytest.raises(GuardError):
        next(graphs.enumerate_configurations(6, 3))  # dn = 18 > 16


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
    conf = graphs.Configuration(2, 2, (2, 3, 0, 1))
    G = graphs.contract(conf)
    assert G.edges == ((0, 1), (0, 1))
    assert G.degrees() == [2, 2]
    conf2 = graphs.Configuration(2, 2, (1, 0, 3, 2))  # two loops
    G2 = graphs.contract(conf2)
    assert G2.edges == ((0, 0), (1, 1))
    assert G2.degrees() == [2, 2]


def test_multigraph_validation():
    with pytest.raises(ValidationError):
        graphs.multigraph(2, 2, [(0, 1)])  # degree 1, expected 2
    with pytest.raises(ValidationError):
        graphs.multigraph(2, 1, [(0, 2)])  # endpoint out of range
    G = graphs.multigraph(3, 0, [(0, 1)], check=False)
    assert G.edges == ((0, 1),)


def test_adjacency_loop_counts():
    G = graphs.multigraph(2, 2, [(0, 0), (1, 1)])
    adj = G.adjacency()
    assert adj[0][0] == 1
    assert adj[1][1] == 1


def test_is_simple():
    assert graphs.is_simple(graphs.multigraph(3, 2, [(0, 1), (1, 2), (0, 2)]))
    assert not graphs.is_simple(graphs.multigraph(2, 2, [(0, 1), (0, 1)]))
    assert not graphs.is_simple(graphs.multigraph(1, 2, [(0, 0)]))


def test_probability_simple_plausible():
    # for d=3 the contracted multigraph should be simple a nontrivial
    # fraction of the time (asymptotically exp(-(d-1)/2 - (d-1)^2/4))
    r = rng.stream(123, 0)
    hits = sum(graphs.is_simple(graphs.contract(
        graphs.sample_configuration(100, 3, r))) for _ in range(400))
    assert 0.1 < hits / 400 < 0.6


def test_edge_count_between():
    G = graphs.multigraph(4, 0, [(0, 1), (0, 0), (2, 3)], check=False)
    assert graphs.edge_count_between(G, {0}, {1}) == 1
    assert graphs.edge_count_between(G, {0, 1}, {0, 1}) == 4  # loop counts 2
    assert graphs.edge_count_between(G, {0}, {0}) == 2
    assert graphs.edge_count_between(G, {2}, {3}) == 1
    assert graphs.edge_count_between(G, {0, 2}, {1, 3}) == 2


def test_class_edge_matrix():
    G = graphs.multigraph(4, 0, [(0, 1), (0, 2), (1, 1)], check=False)
    M = graphs.class_edge_matrix(G, [0, 0, 1, 1], 2)
    # (0,1) monochromatic in class 0 counts twice, loop at 1 counts twice
    assert M.tolist() == [[4, 1], [1, 0]]
    assert M.sum() == 2 * len(G.edges)


def test_vertex_class_degrees():
    G = graphs.multigraph(3, 0, [(0, 1), (1, 1), (1, 2)], check=False)
    deg = graphs.vertex_class_degrees(G, [0, 1, 1], 2)
    assert deg[0].tolist() == [0, 1]
    assert deg[1].tolist() == [1, 3]  # loop contributes 2 to own class
    assert deg[2].tolist() == [0, 1]


def test_cycle_census_hand_instances():
    # loop + doubled edge + triangle through the doubled edge
    H = graphs.multigraph(3, 0, [(0, 1), (0, 1), (1, 2), (0, 2), (2, 2)],
                          check=False)
    assert graphs.cycle_census(H, 3).counts == (1, 1, 2)
    K4 = graphs.multigraph(4, 3, [(a, b) for a, b in
                                  itertools.combinations(range(4), 2)])
    census = graphs.cycle_census(K4, 4)
    assert census.counts == (0, 0, 4, 3)
    assert census[3] == 4
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


def _census_oracle(G, L):
    """Cycle counts straight from the definition: loops; pairs of parallel
    edges; for j >= 3 every j-subset of vertices in every cyclic order (first
    vertex the smallest, one of the two directions), weighted by the product
    of the multiplicities of its edges."""
    mult = Counter(G.edges)
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
    return graphs.multigraph(n, 0, edges, check=False)


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
    G = graphs.multigraph(n, 0, edges, check=False)
    assert graphs.cycle_census(G, L).counts == tuple(want)


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
    # the same seed draws the same permutation, graph and counts
    G = graphs.contract(graphs.sample_configuration(10 ** 4, 3,
                                                    rng.stream(seed, idx)))
    text = graphs.format_graph(G).encode()
    assert hashlib.sha256(text).hexdigest() == digest
    assert graphs.cycle_census(G, len(counts)).counts == counts


def test_sample_planted_exact_profile():
    n, k, d = 12, 3, 4
    assignment = [v % k for v in range(n)]
    off = Fraction(1, k * (k - 1))
    mu = [[Fraction(0) if i == j else off for j in range(k)] for i in range(k)]
    r = rng.stream(5, 0)
    for _ in range(5):
        G = graphs.sample_planted(assignment, k, d, mu, r)
        M = graphs.class_edge_matrix(G, assignment, k)
        dn = d * n
        for i in range(k):
            for j in range(k):
                assert M[i][j] == (0 if i == j else int(off * dn))
        # no monochromatic edge: the planted coloring is proper
        assert all(assignment[u] != assignment[v] for u, v in G.edges)


def test_sample_planted_deterministic():
    assignment = [0, 0, 1, 1]
    mu = [[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]]
    a = graphs.sample_planted(assignment, 2, 2, mu, rng.stream(9, 0))
    b = graphs.sample_planted(assignment, 2, 2, mu, rng.stream(9, 0))
    assert a.edges == b.edges


def test_sample_planted_uniform():
    # all-cross profile at n=4, d=2, k=2: the conditioned configurations are
    # the 4! bijections between the class-0 and class-1 clones; compare the
    # sampler's multigraph law against that reference by chi-square
    assignment = [0, 0, 1, 1]
    d = 2
    mu = [[Fraction(0), Fraction(1, 2)], [Fraction(1, 2), Fraction(0)]]
    ref = Counter()
    clones0 = [0, 1, 2, 3]
    clones1 = [4, 5, 6, 7]
    for perm in itertools.permutations(clones1):
        match = [0] * 8
        for a, b in zip(clones0, perm):
            match[a] = b
            match[b] = a
        conf = graphs.Configuration(4, d, tuple(match))
        ref[graphs.contract(conf).edges] += 1
    total_ref = sum(ref.values())
    draws = 5000
    r = rng.stream(31, 0)
    counts = Counter()
    for _ in range(draws):
        counts[graphs.sample_planted(assignment, 2, d, mu, r).edges] += 1
    assert set(counts) <= set(ref)
    keys = sorted(ref)
    obs = np.array([counts.get(key, 0) for key in keys], dtype=float)
    exp = np.array([ref[key] * draws / total_ref for key in keys])
    stat = ((obs - exp) ** 2 / exp).sum()
    assert scipy.stats.chi2.sf(stat, len(keys) - 1) > 1e-3


def test_sample_planted_rejects_diagonal_mass():
    mu = [[Fraction(1, 4), Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 4)]]
    with pytest.raises(ValidationError):
        graphs.sample_planted([0, 0, 1, 1], 2, 2, mu, rng.stream(0, 0))


def test_graph_file_roundtrip(tmp_path):
    G = graphs.multigraph(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
    path = tmp_path / "g.txt"
    graphs.write_graph(G, path)
    H = graphs.read_graph(path)
    assert H == G
    assert graphs.parse_graph(graphs.format_graph(G)) == G
    with pytest.raises(ValidationError):
        graphs.parse_graph("")
