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

from regcolor import experiments, graphs, rng
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
        graphs.configuration(2, 1, (0, 1))  # fixed points
    with pytest.raises(ValidationError):
        graphs.configuration(2, 1, (1, 0, 2))  # wrong length
    c = graphs.configuration(2, 1, (1, 0))
    assert c.clone(1, 0) == 1


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
        assert G.edges not in got
        got[G.edges] = w
    want = Counter(graphs.contract(conf).edges
                   for conf in graphs.enumerate_configurations(n, d))
    assert got == want


# (16, 1) is left out for time: its 15!! = 2,027,025 perfect matchings take
# about 30 s to enumerate
@pytest.mark.parametrize("n, d", [nd for nd in _ENUMERABLE if nd != (16, 1)])
def test_enumerate_multigraphs_weights_sum(n, d):
    total = 0
    for G, w in graphs.enumerate_multigraphs(n, d):
        assert graphs.degrees(G).tolist() == [d] * n
        total += w
    assert total == graphs.count_configurations(n, d)


@pytest.mark.parametrize("enumerate_", [graphs.enumerate_configurations,
                                        graphs.enumerate_multigraphs])
def test_enumeration_refusal_texts(enumerate_):
    with pytest.raises(GuardError, match=r"^enumeration refused: dn=18 "
                       r"exceeds the 16-clone bound$"):
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
    assert G.edges == ((0, 1), (0, 1))
    assert graphs.degrees(G).tolist() == [2, 2]
    conf2 = graphs.configuration(2, 2, (1, 0, 3, 2))  # two loops
    G2 = graphs.contract(conf2)
    assert G2.edges == ((0, 0), (1, 1))
    assert graphs.degrees(G2).tolist() == [2, 2]


def test_multigraph_validation():
    with pytest.raises(ValidationError):
        graphs.multigraph(2, 2, [(0, 1)])  # degree 1, expected 2
    with pytest.raises(ValidationError):
        graphs.multigraph(2, 1, [(0, 2)])  # endpoint out of range
    G = graphs.multigraph(3, 0, [(0, 1)])
    assert G.edges == ((0, 1),)


def test_adjacency_loop_counts():
    G = graphs.multigraph(2, 2, [(0, 0), (1, 1)])
    assert graphs.neighbors(G) == ([0, 1, 2], [0, 1], [1, 1])


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
    G = graphs.multigraph(4, 0, [(0, 1), (0, 0), (2, 3)])
    assert graphs.edge_count_between(G, {0}, {1}) == 1
    assert graphs.edge_count_between(G, {0, 1}, {0, 1}) == 4  # loop counts 2
    assert graphs.edge_count_between(G, {0}, {0}) == 2
    assert graphs.edge_count_between(G, {2}, {3}) == 1
    assert graphs.edge_count_between(G, {0, 2}, {1, 3}) == 2


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


def test_cycle_census_hand_instances():
    # loop + doubled edge + triangle through the doubled edge
    H = graphs.multigraph(3, 0, [(0, 1), (0, 1), (1, 2), (0, 2), (2, 2)])
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


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6), st.integers(1, 4),
       st.integers(0, 10 ** 6))
def test_sample_planted_is_regular(k, blocks, c, seed):
    # flat profile: d a multiple of k - 1 makes mu_ij * dn integral; the
    # graph is built without a degree check, so check it here
    n, d = k * blocks, (k - 1) * c
    if n * d % 2:
        d *= 2
    assignment = [v % k for v in range(n)]
    off = Fraction(1, k * (k - 1))
    mu = [[Fraction(0) if i == j else off for j in range(k)] for i in range(k)]
    G = graphs.sample_planted(assignment, k, d, mu, rng.stream(seed, 0))
    assert graphs.degrees(G).tolist() == [d] * n


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
        conf = graphs.configuration(4, d, match)
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


def reference_sample_planted(assignment, k, d, mu, rng):
    """sample_planted clone by clone: the same permutation of each class's
    clone list, the segments matched position by position into a checked
    involution, then contracted."""
    from regcolor import moments

    assignment = [int(c) for c in assignment]
    n = len(assignment)
    sizes = [assignment.count(i) for i in range(k)]
    pair = moments.validate_admissible([Fraction(s, n) for s in sizes], mu,
                                       n, d)
    dn = d * n
    m = [[int(pair.mu[i][j] * dn) for j in range(k)] for i in range(k)]
    match = np.empty(dn, dtype=np.int64)
    segments = {}
    for i in range(k):
        clones = [v * d + p for v in range(n) if assignment[v] == i
                  for p in range(d)]
        perm = rng.permutation(len(clones))
        pos = 0
        for j in range(k):
            if j == i:
                continue
            segments[(i, j)] = [clones[perm[t]]
                                for t in range(pos, pos + m[i][j])]
            pos += m[i][j]
        assert pos == len(clones)
    for i in range(k):
        for j in range(i + 1, k):
            for ca, cb in zip(segments[(i, j)], segments[(j, i)]):
                match[ca] = cb
                match[cb] = ca
    return graphs.contract(graphs.configuration(n, d, match.tolist()))


@st.composite
def planted_profiles(draw):
    """(assignment, k, d, mu) accepted by sample_planted: classes in shuffled
    vertex order, flat or non-flat mu, and some empty (i, j) segments."""
    k = draw(st.integers(2, 5))
    if draw(st.booleans()):
        # flat: d a multiple of k - 1 makes mu_ij * dn integral
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
    dn = d * len(assignment)
    mu = [[Fraction(M[i][j], dn) for j in range(k)] for i in range(k)]
    return assignment, k, d, mu


@settings(max_examples=300, deadline=None)
@given(planted_profiles(), st.integers(0, 10 ** 6))
def test_sample_planted_matches_clone_reference(profile, seed):
    # the same edges from the same draws, and the same randomness consumed
    fast, slow = rng.stream(seed, 0), rng.stream(seed, 0)
    assert (graphs.sample_planted(*profile, fast)
            == reference_sample_planted(*profile, slow))
    assert fast.integers(2 ** 62) == slow.integers(2 ** 62)


def test_graph_file_roundtrip(tmp_path):
    G = graphs.multigraph(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])
    path = tmp_path / "g.txt"
    graphs.write_graph(G, path)
    H = graphs.read_graph(path)
    assert H == G
    assert graphs.parse_graph(graphs.format_graph(G)) == G
    with pytest.raises(ValidationError):
        graphs.parse_graph("")
