import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regcolor import colorings, experiments, graphs, rng
from regcolor.errors import GuardError, ValidationError


def cycle_graph(n):
    return graphs.multigraph(n, 2, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return graphs.multigraph(n, n - 1, list(itertools.combinations(range(n), 2)))


def test_coloring_basics():
    sigma = colorings.coloring([0, 1, 2, 0], 3)
    assert sigma.n == 4
    assert sigma.class_sizes() == [2, 1, 1]
    with pytest.raises(ValidationError):
        colorings.coloring([0, 3], 3)
    text = colorings.format_coloring(sigma)
    assert colorings.parse_coloring(text, 3) == sigma
    with pytest.raises(ValidationError, match="'x'"):
        colorings.parse_coloring("0 1 x", 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.data())
def test_coloring_is_one_value_whatever_it_is_built_from(k, data):
    values = data.draw(st.lists(st.integers(0, k - 1), max_size=12))
    built = [colorings.coloring(v, k) for v in
             (values, tuple(values), np.array(values, dtype=np.int64))]
    for sigma in built:
        a = sigma.assignment
        assert a.dtype == np.int64 and a.shape == (len(values),)
        assert not a.flags.writeable
        assert sigma == built[0] and hash(sigma) == hash(built[0])
        assert colorings.parse_coloring(colorings.format_coloring(sigma),
                                        k) == sigma
    assert len(set(built)) == 1
    # the builder copies: a later write to its input changes nothing
    source = np.array(values + [0], dtype=np.int64)
    sigma = colorings.coloring(source, k)
    source[-1] = k - 1 if k > 1 else 1
    assert sigma.assignment[-1] == 0
    assert sigma != colorings.coloring(values + [0], k + 1)


def test_every_constructor_gives_a_read_only_int64_array():
    G = cycle_graph(6)
    sigmas = [colorings.coloring([0, 1, 0, 1], 2),
              colorings.parse_coloring("0 1 1\n", 2),
              colorings.parse_coloring("0 +1\n", 2),  # the per-token path
              next(colorings.enumerate_proper_colorings(G, 3)),
              experiments.flat_planted_coloring(6, 3)]
    for sigma in sigmas:
        a = sigma.assignment
        assert type(a) is np.ndarray and a.dtype == np.int64
        assert a.ndim == 1 and not a.flags.writeable


@pytest.mark.parametrize("values, k", [([[0, 1]], 2), (0, 2), ([-1], 2),
                                       ([2], 2), ([2 ** 70], 3)])
def test_coloring_refusals(values, k):
    with pytest.raises(ValidationError):
        colorings.coloring(values, k)


def test_is_proper():
    G = cycle_graph(4)
    assert colorings.is_proper(G, colorings.coloring([0, 1, 0, 1], 2))
    assert not colorings.is_proper(G, colorings.coloring([0, 0, 1, 1], 2))
    loop = graphs.multigraph(1, 2, [(0, 0)])
    assert not colorings.is_proper(loop, colorings.coloring([0], 2))


def test_is_balanced():
    assert colorings.is_balanced(colorings.coloring([0, 1, 0, 1], 2))
    assert not colorings.is_balanced(colorings.coloring([0, 0, 0, 1], 2))
    assert not colorings.is_balanced(colorings.coloring([0, 1, 0], 2))


def test_overlap_exact():
    sigma = colorings.coloring([0, 0, 1, 1], 2)
    tau = colorings.coloring([0, 1, 1, 0], 2)
    rho = colorings.overlap(sigma, tau)
    assert rho == ((Fraction(1, 2), Fraction(1, 2)),
                   (Fraction(1, 2), Fraction(1, 2)))
    ident = colorings.overlap(sigma, sigma)
    assert ident == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    # doubly stochastic for balanced pairs
    assert all(sum(row) == 1 for row in rho)
    assert all(sum(rho[i][j] for i in range(2)) == 1 for j in range(2))
    with pytest.raises(ValidationError):
        colorings.overlap(sigma, colorings.coloring([0, 1, 2, 0], 3))


def reference_overlap(sigma, tau):
    """overlap as a Python loop over the vertices."""
    n, k = sigma.n, sigma.k
    counts = [[0] * k for _ in range(k)]
    for a, b in zip(sigma.assignment, tau.assignment):
        counts[a][b] += 1
    return tuple(tuple(Fraction(k * c, n) for c in row) for row in counts)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.data())
def test_overlap_matches_the_loop(k, data):
    n = data.draw(st.integers(1, 20))
    row = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    sigma, tau = (colorings.coloring(data.draw(row), k) for _ in range(2))
    rho = colorings.overlap(sigma, tau)
    assert rho == reference_overlap(sigma, tau)
    assert all(type(x) is Fraction for r in rho for x in r)


def test_in_cluster():
    sigma = colorings.coloring([0, 0, 1, 1], 2)
    assert colorings.in_cluster(sigma, sigma)
    swapped = colorings.coloring([1, 1, 0, 0], 2)
    assert not colorings.in_cluster(sigma, swapped)


def chromatic_polynomial(G, k):
    """Independent oracle: deletion-contraction on the simple support of G
    (multiplicities do not change properness); loops give zero."""
    edges = []
    seen = set()
    for u, v in G.edges:
        if u == v:
            return 0
        if (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))

    def rec(n_vertices, edge_list):
        if not edge_list:
            return k ** n_vertices
        (u, v) = edge_list[0]
        rest = edge_list[1:]
        deleted = rec(n_vertices, rest)
        # contract v into u
        merged = set()
        for a, b in rest:
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                merged.add((min(a2, b2), max(a2, b2)))
        contracted = rec(n_vertices - 1, sorted(merged))
        return deleted - contracted

    return rec(G.n, edges)


def test_count_matches_chromatic_polynomial():
    cases = [cycle_graph(5), cycle_graph(6), complete_graph(4),
             graphs.multigraph(4, 0, [(0, 1), (1, 2), (2, 3)]),
             graphs.multigraph(4, 0, [(0, 1), (0, 1), (2, 3)])]
    for G in cases:
        for k in (2, 3, 4):
            assert colorings.count_colorings(G, k) == \
                chromatic_polynomial(G, k)
    # closed form for cycles: (k-1)^n + (-1)^n (k-1)
    for n in (5, 6):
        for k in (2, 3):
            assert colorings.count_colorings(cycle_graph(n), k) == \
                (k - 1) ** n + (-1) ** n * (k - 1)


def test_count_with_loops_is_zero():
    G = graphs.multigraph(2, 2, [(0, 0), (1, 1)])
    assert colorings.count_colorings(G, 3) == 0


def test_enumerate_matches_count():
    G = cycle_graph(6)
    for k in (2, 3):
        cols = list(colorings.enumerate_proper_colorings(G, k))
        assert len(cols) == colorings.count_colorings(G, k)
        assert all(colorings.is_proper(G, c) for c in cols)
        bal = list(colorings.enumerate_proper_colorings(G, k, balanced=True))
        assert len(bal) == colorings.count_colorings(G, k, filter="balanced")
        assert all(colorings.is_balanced(c) for c in bal)
        assert ({tuple(c.assignment) for c in bal}
                <= {tuple(c.assignment) for c in cols})


def _distinct_neighbors(G):
    """Neighbor sets, or None when G has a loop."""
    if any(u == v for u, v in G.edges):
        return None
    nbrs = [set() for _ in range(G.n)]
    for u, v in G.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _count_backtrack(n, k, nbrs, caps, exact=False):
    """The plain backtracking counter the engine replaced, kept as its
    reference: every labeled coloring is a leaf, no symmetry breaking."""
    if exact and sum(caps) != n:
        return 0
    order = sorted(range(n), key=lambda v: -len(nbrs[v]))
    assign = [-1] * n
    sizes = [0] * k

    def rec(pos):
        if pos == n:
            return 1
        v = order[pos]
        used = 0
        for w in nbrs[v]:
            c = assign[w]
            if c >= 0:
                used |= 1 << c
        total = 0
        for c in range(k):
            if used >> c & 1:
                continue
            if caps is not None and sizes[c] >= caps[c]:
                continue
            assign[v] = c
            sizes[c] += 1
            total += rec(pos + 1)
            sizes[c] -= 1
            assign[v] = -1
        return total

    return rec(0)


def _proper_assignments(G, k):
    """Every proper assignment, in itertools.product order."""
    return [a for a in itertools.product(range(k), repeat=G.n)
            if all(a[u] != a[v] for u, v in G.edges)]


@st.composite
def _small_multigraphs(draw):
    """At most 8 vertices, parallel edges in most cases, loops in a quarter
    of them."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    if draw(st.integers(0, 3)):
        pairs = [(u, v) for u, v in pairs if u != v]
    pairs += pairs[:draw(st.integers(0, len(pairs)))]
    return graphs.multigraph(n, 0, pairs)


@st.composite
def _graph_and_profile(draw):
    """A small multigraph, k and class sizes summing to n."""
    G = draw(_small_multigraphs())
    k = draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(0, G.n), min_size=k - 1,
                                max_size=k - 1)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [G.n])]
    return G, k, sizes


@settings(max_examples=250, deadline=None)
@given(_graph_and_profile())
def test_engine_count_matches_references(case):
    G, k, sizes = case
    n = G.n
    nbrs = _distinct_neighbors(G)
    proper = _proper_assignments(G, k)
    balanced = [a for a in proper if all(a.count(c) * k == n
                                         for c in range(k))]
    profiled = [a for a in proper if all(a.count(c) == sizes[c]
                                         for c in range(k))]
    profile = [Fraction(s, n) for s in sizes]
    count = colorings.count_colorings(G, k)
    assert count == len(proper)
    assert colorings.count_colorings(G, k, "balanced") == len(balanced)
    assert colorings.count_colorings(G, k, "profile", profile) == \
        len(profiled)
    assert colorings.is_colorable(G, k) == (count > 0)
    if nbrs is not None:
        assert count == _count_backtrack(n, k, nbrs, None)
        assert len(balanced) == (_count_backtrack(n, k, nbrs, [n // k] * k,
                                                  exact=True)
                                 if n % k == 0 else 0)
        assert len(profiled) == _count_backtrack(n, k, nbrs, sizes,
                                                 exact=True)


@settings(max_examples=250, deadline=None)
@given(_small_multigraphs(), st.integers(1, 4), st.booleans())
def test_engine_yield_order(G, k, balanced):
    """Vertices in descending order of distinct-neighbor count (ties by
    index), colors ascending: the assignments come out in lexicographic
    order of their colors read in that vertex order."""
    want = _proper_assignments(G, k)
    if balanced:
        want = [a for a in want
                if all(a.count(c) * k == G.n for c in range(k))]
    nbrs = _distinct_neighbors(G)
    if nbrs is not None:
        order = sorted(range(G.n), key=lambda v: -len(nbrs[v]))
        want.sort(key=lambda a: [a[v] for v in order])
    got = [tuple(c.assignment) for c in
           colorings.enumerate_proper_colorings(G, k, balanced)]
    assert got == want


@settings(max_examples=200, deadline=None)
@given(_small_multigraphs(), st.integers(1, 3), st.data())
def test_is_proper_matches_edge_loop(G, k, data):
    # the generator form over the edge list; a loop is monochromatic
    a = data.draw(st.lists(st.integers(0, k - 1), min_size=G.n,
                           max_size=G.n))
    want = all(a[u] != a[v] for u, v in G.edges.tolist())
    assert colorings.is_proper(G, colorings.coloring(a, k)) is want


def test_is_colorable():
    assert colorings.is_colorable(cycle_graph(6), 2)
    assert not colorings.is_colorable(cycle_graph(5), 2)
    assert colorings.is_colorable(cycle_graph(5), 3)
    assert not colorings.is_colorable(complete_graph(5), 4)
    assert not colorings.is_colorable(graphs.multigraph(1, 2, [(0, 0)]), 4)


def test_count_refuses_bad_k():
    G = cycle_graph(4)
    for k in (0, -2):
        for call in (colorings.count_colorings, colorings.is_colorable):
            with pytest.raises(ValidationError,
                               match="^exact counting needs k >= 1, got "
                               "k=%d$" % k):
                call(G, k)
    with pytest.raises(GuardError, match=r"^k=5 exceeds the 4-color bound "
                       r"\(guards.MAX_COUNT_COLORS\)$"):
        colorings.is_colorable(G, 5)


def test_count_profile_filter():
    G = cycle_graph(6)
    total = 0
    for a in range(7):
        for b in range(7 - a):
            c = 6 - a - b
            prof = [Fraction(a, 6), Fraction(b, 6), Fraction(c, 6)]
            total += colorings.count_colorings(G, 3, filter="profile",
                                               profile=prof)
    assert total == colorings.count_colorings(G, 3)
    with pytest.raises(ValidationError):
        colorings.count_colorings(G, 3, filter="profile", profile=None)
    with pytest.raises(ValidationError):
        colorings.count_colorings(G, 3, filter="bogus")
    with pytest.raises(ValidationError, match=">= 0"):
        colorings.count_colorings(G, 2, filter="profile",
                                  profile=[Fraction(3, 2), Fraction(-1, 2)])


@pytest.mark.parametrize("profile", [["1/3", "1/3"], ["1/4", "1/4"],
                                     ["1/3", "1/3", "1/2"]])
def test_count_profile_refuses_bad_shape_before_sizes(profile):
    # at n = 4, 1/3 gives a non-integral class size; the length and the sum
    # are refused first
    G = cycle_graph(4)
    with pytest.raises(ValidationError, match="k entries summing to 1"):
        colorings.count_colorings(G, 3, filter="profile",
                                  profile=[Fraction(x) for x in profile])
    assert colorings.count_colorings(
        G, 3, filter="profile", profile=[Fraction(1, 3)] * 3) == 0


def test_count_guard():
    G = graphs.multigraph(31, 0, [])
    with pytest.raises(GuardError):
        colorings.count_colorings(G, 2)


def test_cluster_of():
    G = cycle_graph(6)
    sigma = colorings.coloring([0, 1, 0, 1, 0, 1], 2)
    cluster = colorings.cluster_of(G, sigma)
    assert sigma in cluster
    assert all(colorings.in_cluster(sigma, tau) for tau in cluster)
    # membership matches the predicate over the full balanced enumeration
    for tau in colorings.enumerate_proper_colorings(G, 2, balanced=True):
        assert (tau in cluster) == colorings.in_cluster(sigma, tau)


def test_cluster_guard():
    big = graphs.multigraph(20, 0, [])
    with pytest.raises(GuardError):
        colorings.cluster_of(big, colorings.coloring([0] * 20, 2))


def test_is_separable():
    # C6 with k=2: the only balanced proper colorings are the two
    # alternating ones, overlapping in 0 or 1 -- separable
    G = cycle_graph(6)
    sigma = colorings.coloring([0, 1, 0, 1, 0, 1], 2)
    assert colorings.is_separable(G, sigma, kappa=0.1)
    # path-ish graph with many colorings: a 0.67 overlap breaks separability
    H = graphs.multigraph(6, 0, [(0, 1), (2, 3), (4, 5)])
    tau = colorings.coloring([0, 1, 0, 1, 0, 1], 2)
    assert not colorings.is_separable(H, tau, kappa=0.1)


def test_kappa_paper_impractical():
    assert colorings.kappa_paper(10) > 1


def test_is_skewed():
    with pytest.raises(ValidationError):
        colorings.is_skewed(cycle_graph(4), colorings.coloring([0, 0, 0, 1], 2))
    # C4 alternating: e(V0,V1)=4, target dn/(k(k-1)) = 8/2 = 4, deviation 0
    assert not colorings.is_skewed(cycle_graph(4),
                                   colorings.coloring([0, 1, 0, 1], 2))


def test_star_cluster_contains_cluster():
    G = cycle_graph(6)
    sigma = colorings.coloring([0, 1, 0, 1, 0, 1], 2)
    star = colorings.star_cluster(G, sigma)
    assert colorings.cluster_of(G, sigma) <= star


def test_is_nice_report():
    n, k, d = 996, 4, 12
    G, sigma = experiments.sample_flat_planted(n, d, k, rng.stream(11, 0))
    rep = colorings.is_nice(G, sigma)
    assert rep.condition1 and rep.condition2
    assert rep.rho_deviation == 0.0
    assert rep.mu_deviation == 0.0
    assert rep.condition3 is None
    with pytest.raises(ValidationError):
        bool(rep)


def test_is_nice_check_cluster_small():
    G = cycle_graph(6)
    sigma = colorings.coloring([0, 1, 0, 1, 0, 1], 2)
    rep = colorings.is_nice(G, sigma, check_cluster=True)
    assert rep.condition3 is not None


def test_rainbow_and_vacant_consistency():
    n, k, d = 60, 3, 5
    G, sigma = experiments.sample_flat_planted(n, d, k, rng.stream(3, 0))
    rainbow = colorings.rainbow_vertices(G, sigma)
    vacant = colorings.vacant_table(G, sigma)
    # a vertex is rainbow exactly when it is not j-vacant for any other j
    assert np.array_equal(rainbow, ~vacant.any(axis=1))
    # and never vacant in its own class
    assert not vacant[np.arange(n), sigma.assignment].any()


def test_rainbow_hand_instance():
    G = graphs.multigraph(4, 0, [(0, 1), (0, 2), (1, 2)])
    sigma = colorings.coloring([0, 1, 2, 0], 3)
    assert np.flatnonzero(colorings.rainbow_vertices(G, sigma)).tolist() \
        == [0, 1, 2]
    assert colorings.vacant_table(G, sigma)[3].tolist() == [False, True, True]


def _reference_rainbow_vacant(G, sigma):
    """(rainbow set, {(i, j): color-i vertices with no edge into class j})
    by one Python loop per edge and per vertex."""
    k, assign = sigma.k, sigma.assignment
    reached = [set() for _ in range(G.n)]
    for u, v in G.edges.tolist():
        reached[u].add(assign[v])
        reached[v].add(assign[u])
    vacant = {(i, j): set() for i in range(k) for j in range(k) if i != j}
    rainbow = set()
    for v in range(G.n):
        missing = [j for j in range(k) if j != assign[v] and
                   j not in reached[v]]
        for j in missing:
            vacant[(assign[v], j)].add(v)
        if not missing:
            rainbow.add(v)
    return rainbow, vacant


@st.composite
def colored_multigraphs(draw):
    """Multigraphs with loops, parallel edges and isolated vertices, under
    colorings that may leave classes empty."""
    n = draw(st.integers(1, 12))
    ends = st.integers(0, n - 1)
    G = graphs.multigraph(n, 0, draw(st.lists(st.tuples(ends, ends),
                                              max_size=40)))
    k = draw(st.integers(1, 5))
    return G, colorings.coloring(draw(st.lists(
        st.integers(0, k - 1), min_size=n, max_size=n)), k)


@settings(max_examples=200, deadline=None)
@given(colored_multigraphs())
def test_rainbow_and_vacant_match_per_vertex_reference(instance):
    G, sigma = instance
    rainbow, vacant = colorings.rainbow_vertices(G, sigma), \
        colorings.vacant_table(G, sigma)
    assert rainbow.shape == (G.n,) and vacant.shape == (G.n, sigma.k)
    assert rainbow.dtype == vacant.dtype == bool
    assert not rainbow.flags.writeable and not vacant.flags.writeable
    want_rainbow, want_vacant = _reference_rainbow_vacant(G, sigma)
    assert set(np.flatnonzero(rainbow).tolist()) == want_rainbow
    got = {key: set() for key in want_vacant}
    for v, j in zip(*(a.tolist() for a in np.nonzero(vacant))):
        got[(sigma.assignment[v], j)].add(v)  # own column: KeyError
    assert got == want_vacant


def test_count_pairs_with_overlap():
    G = cycle_graph(6)
    k = 2
    bal = list(colorings.enumerate_proper_colorings(G, k, balanced=True))
    flat_total = 0
    # the counts over all achievable overlap matrices sum to |bal|^2
    seen = {}
    for s in bal:
        for t in bal:
            seen[colorings.overlap(s, t)] = None
    for rho in seen:
        flat_total += colorings.count_pairs_with_overlap(G, k, rho)
    assert flat_total == len(bal) ** 2
    ident = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert colorings.count_pairs_with_overlap(G, k, ident) >= len(bal)


def test_count_pairs_with_overlap_on_a_4_regular_sample():
    # the first simple sample_uniform(12, 4): each of its 1,704 balanced
    # 4-colorings overlaps only itself in I (over 40 s pair by pair)
    G = graphs.sample_uniform(12, 4, rng.stream(2, 0))
    assert graphs.is_simple(G)
    assert colorings.count_pairs_with_overlap(G, 4, np.eye(4, dtype=int)) \
        == colorings.count_colorings(G, 4, "balanced") == 1704
    # counts (n/k) rho not integers, a rho not k x k: no pair
    assert colorings.count_pairs_with_overlap(
        G, 4, [[Fraction(1, 4)] * 4] * 4) == 0
    assert colorings.count_pairs_with_overlap(G, 4, np.eye(3)) == 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(13, 500), st.integers(1, 40), st.integers(-4, 4),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(500, 40, 0, False, 0)   # deviation 339.67 < sqrt(n) ln n = 339.9
@example(500, 40, 1, True, 0)    # 340.67 > 339.9
def test_is_skewed_against_a_per_edge_count(quarter, d, offset, negative,
                                            seed):
    """Planted k = 4 samples whose class-pair counts deviate from
    dn/(k(k-1)) by about sqrt(n) ln n, above or below; k = 4 is the least
    k whose proper planted counts can deviate at all."""
    n, k = 4 * quarter, 4
    c = d * quarter  # each class's edges to the other three
    slack = math.sqrt(n) * math.log(n)
    delta = (-1) ** negative * min(max(int(slack) + offset, 0), c // 3)
    a, b = c // 3 + delta, c // 3 - delta
    e = c - a - b
    r = np.random.default_rng(seed)
    sigma = colorings.coloring(r.permutation(np.repeat(np.arange(k),
                                                       quarter)), k)
    G = graphs.sample_planted(
        sigma.assignment, d,
        [[0, a, b, e], [a, 0, e, b], [b, e, 0, a], [e, b, a, 0]], r)
    color = sigma.assignment.tolist()
    pairs = Counter(tuple(sorted((color[u], color[v])))
                    for u, v in G.edges.tolist())
    target = d * n / (k * (k - 1))
    dev = max(abs(pairs[i, j] - target)
              for i in range(k) for j in range(i + 1, k))
    assert colorings.is_skewed(G, sigma) is (dev > slack)


def test_skewed_count_zero_on_tiny():
    # the sqrt(n) ln n slack dwarfs any deviation at n=6
    assert colorings.count_colorings(cycle_graph(6), 2, filter="skewed") == 0


def test_nice12_filter_counts_subset():
    G = cycle_graph(6)
    all_count = colorings.count_colorings(G, 2)
    nice = colorings.count_colorings(G, 2, filter="nice12")
    assert 0 <= nice <= all_count


def _filter_count_reference(G, k, filter):
    """The "skewed" and "nice12" counts over every labeled coloring, each
    built and tested: the reference for the orbit search."""
    if filter == "skewed":
        return sum(colorings.is_skewed(G, tau) for tau in
                   colorings.enumerate_proper_colorings(G, k, balanced=True))
    reports = (colorings.is_nice(G, tau) for tau in
               colorings.enumerate_proper_colorings(G, k))
    return sum(rep.condition1 and rep.condition2 for rep in reports)


def _is_separable_reference(G, sigma, kappa):
    """is_separable over every balanced labeled coloring: the reference for
    the orbit search."""
    kap = Fraction(kappa).limit_denominator(10 ** 9)
    return not any(colorings.CLUSTER_DIAG < x < 1 - kap for tau in
                   colorings.enumerate_proper_colorings(G, sigma.k,
                                                        balanced=True)
                   for row in colorings.overlap(sigma, tau) for x in row)


@st.composite
def _regular_instances(draw):
    """A d-regular multigraph (d >= 1; loops and parallel edges as they
    come) and a coloring of it, balanced and proper or any.  Uniform with at
    most 3^8 colorings, or planted on four classes of q <= 2 vertices with
    drawn class-pair counts: at this size only a planted graph skews a
    balanced coloring."""
    r = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        k = draw(st.integers(2, 4))
        n = draw(st.integers(1, {2: 12, 3: 8, 4: 6}[k]))
        d = draw(st.integers(1, 4).filter(lambda d: n * d % 2 == 0))
        G = graphs.sample_uniform(n, d, r)
    else:
        k, q = 4, draw(st.integers(1, 2))
        # at q = 2, d >= 3 leaves 8 vertices few proper 4-colorings
        d = draw(st.integers(1 + 2 * (q - 1), 6))
        n, c = 4 * q, q * d  # each class's edges to the other three
        a = draw(st.just(c) | st.integers(0, c))  # c: skewed at d >= 5
        b = draw(st.integers(0, c - a))
        e = c - a - b
        G = graphs.sample_planted(
            np.repeat(np.arange(k), q), d,
            [[0, a, b, e], [a, 0, e, b], [b, e, 0, a], [e, b, a, 0]], r)
    balanced = list(colorings.enumerate_proper_colorings(G, k, balanced=True))
    drawn = st.lists(st.integers(0, k - 1), min_size=n, max_size=n).map(
        lambda a: colorings.coloring(a, k))
    return G, draw(st.sampled_from(balanced) | drawn if balanced else drawn)


@settings(max_examples=60, deadline=None)
@given(_regular_instances())
# the orbit representative (0 1 0 1 0 1) overlaps sigma in 2/3 off the
# diagonal only; its relabelling (1 0 1 0 1 0) puts 2/3 on the diagonal
@example((cycle_graph(6), colorings.coloring([0, 0, 0, 0, 0, 1], 2)))
def test_label_blind_questions_match_every_labeling(instance):
    G, sigma = instance
    k = sigma.k
    for filter in ("skewed", "nice12"):
        assert colorings.count_colorings(G, k, filter) == \
            _filter_count_reference(G, k, filter)
    for kappa in (0.1, 0.49, 0.5):
        assert colorings.is_separable(G, sigma, kappa) is \
            _is_separable_reference(G, sigma, kappa)


def _no_search(*args, **kwargs):
    raise AssertionError("searched")


def test_is_separable_needs_no_search_past_the_diagonal(monkeypatch):
    # at 1 - kappa <= 0.51 no overlap lies in (0.51, 1 - kappa): True with
    # no search, after the kappa and size refusals, in that order
    H = graphs.multigraph(6, 0, [(0, 1), (2, 3), (4, 5)])
    tau = colorings.coloring([0, 1, 0, 1, 0, 1], 2)
    big, flat = cycle_graph(16), colorings.coloring([0, 1] * 8, 2)
    leaves, calls = colorings._leaves, []

    def spy(*args, **kwargs):
        calls.append(args)
        return leaves(*args, **kwargs)

    monkeypatch.setattr(colorings, "_leaves", spy)
    assert colorings.is_separable(H, tau, 0.48) is \
        _is_separable_reference(H, tau, 0.48)
    assert calls
    monkeypatch.setattr(colorings, "_leaves", _no_search)
    for kappa in (0.49, 0.5, Fraction(49, 100), 7):
        assert colorings.is_separable(H, tau, kappa) is True
    with pytest.raises(ValidationError, match="finite"):
        colorings.is_separable(big, flat, math.inf)
    with pytest.raises(GuardError):
        colorings.is_separable(big, flat, 0.5)


def test_pair_planted_skewed_and_nice12_counts():
    # k = 4, n = 12, d = 5: the planted pairs carry 15, 0 and 0 edges
    # against dn/(k(k-1)) = 5, a deviation of 10 > sqrt(12) ln 12 = 8.6, so
    # the 4! relabellings of the planted coloring are skewed
    c = 15
    G = graphs.sample_planted(
        np.repeat(np.arange(4), 3), 5,
        [[0, c, 0, 0], [c, 0, 0, 0], [0, 0, 0, c], [0, 0, c, 0]],
        rng.stream(1, 0))
    assert colorings.count_colorings(G, 4, "skewed") == 24
    assert colorings.count_colorings(G, 4, "nice12") == 127320


def test_overlap_questions_refuse_no_vertices(monkeypatch):
    # an overlap divides by n: refused before any search; counting and
    # deciding colorability are defined at n = 0
    G, sigma = graphs.multigraph(0, 0, []), colorings.coloring([], 2)
    calls = [lambda: colorings.overlap(sigma, sigma),
             lambda: colorings.in_cluster(sigma, sigma),
             lambda: colorings.cluster_of(G, sigma),
             lambda: colorings.star_cluster(G, sigma),
             lambda: colorings.is_separable(G, sigma),
             lambda: colorings.count_pairs_with_overlap(
                 G, 2, np.eye(2, dtype=int))]
    monkeypatch.setattr(colorings, "_leaves", None)
    for call in calls:
        with pytest.raises(ValidationError,
                           match="^overlaps need n >= 1, got n=0$"):
            call()
    monkeypatch.undo()
    assert colorings.count_colorings(G, 2) == 1
    assert colorings.is_colorable(G, 2)


def _brute_force_predicates(G, k, sigma, proper):
    """The exhaustive predicates from `proper`, every proper assignment of
    the k^n, with overlaps and class-pair edge counts by Python loops."""
    n, d, a0 = G.n, G.d, sigma.assignment.tolist()
    edges = G.edges.tolist()
    balanced = [a for a in proper if all(a.count(c) * k == n
                                         for c in range(k))]

    def rho(a, b):
        counts = Counter(zip(a, b))
        return tuple(tuple(Fraction(k * counts[i, j], n) for j in range(k))
                     for i in range(k))

    def pair_edges(a):  # e(V_i, V_j) for i < j
        counts = Counter(tuple(sorted((a[u], a[v]))) for u, v in edges)
        return [counts[i, j] for i in range(k) for j in range(i + 1, k)]

    def diagonal(a):
        r = rho(a0, a)
        return [r[i][i] for i in range(k)]

    big = math.log(k) ** (1 / 3)
    star = [a for a in proper if min(diagonal(a)) > Fraction(51, 100)]
    target = d * n / (k * (k - 1))
    skewed = [max(abs(e - target) for e in pair_edges(a))
              > math.sqrt(n) * math.log(n) for a in balanced]
    nice12 = [math.sqrt(sum((a.count(c) / n - 1 / k) ** 2 for c in range(k)))
              < 1 / (k * big)
              and math.sqrt(2 * sum((e / (d * n) - 1 / (k * (k - 1))) ** 2
                                    for e in pair_edges(a)))
              < 8 / (k * (k - 1) * big) for a in proper]
    return {
        "cluster": {a for a in star if a in balanced},
        "star": set(star),
        "separable": {kappa: not any(
            Fraction(51, 100) < x < 1 - Fraction(str(kappa))
            for b in balanced for row in rho(a0, b) for x in row)
            for kappa in (0.1, 0.49, 0.5)},
        "condition3": not any(
            all(abs(a.count(c) - n / k) < n / (k * big) for c in range(k))
            and min(diagonal(a)) < Fraction(9, 10) for a in star),
        "skewed": sum(skewed),
        "nice12": sum(nice12),
        "pairs": Counter(rho(a, b) for a in balanced for b in balanced),
    }


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4), st.sampled_from([2, 3]),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_exhaustive_predicates_match_brute_force(n, d, k, seed, data):
    """Uniform d-regular multigraphs, loops and parallel edges included,
    against a proper coloring when there is one, else any."""
    assume(n * d % 2 == 0)
    G = graphs.sample_uniform(n, d, np.random.default_rng(seed))
    proper = _proper_assignments(G, k)
    sigma = colorings.coloring(data.draw(
        st.sampled_from(proper) if proper else
        st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), k)
    want = _brute_force_predicates(G, k, sigma, proper)

    def assignments(taus):
        return {tuple(tau.assignment.tolist()) for tau in taus}

    assert assignments(colorings.cluster_of(G, sigma)) == want["cluster"]
    assert assignments(colorings.star_cluster(G, sigma)) == want["star"]
    for kappa, separable in want["separable"].items():
        assert colorings.is_separable(G, sigma, kappa) is separable
    rep = colorings.is_nice(G, sigma, check_cluster=True)
    assert rep.condition3 is want["condition3"]
    assert colorings.count_colorings(G, k, "skewed") == want["skewed"]
    assert colorings.count_colorings(G, k, "nice12") == want["nice12"]
    for rho, count in want["pairs"].items():
        assert colorings.count_pairs_with_overlap(G, k, rho) == count


@pytest.mark.parametrize("call", [
    lambda G, sigma: colorings.is_skewed(G, sigma),
    lambda G, sigma: colorings.is_nice(G, sigma),
    lambda G, sigma: colorings.is_nice(G, sigma, check_cluster=True),
    lambda G, sigma: colorings.count_colorings(G, sigma.k, "skewed"),
    lambda G, sigma: colorings.count_colorings(G, sigma.k, "nice12")])
def test_skewed_and_nice_refuse_where_undefined(call, monkeypatch):
    # d = 0 admits any multigraph, so dn/(k(k-1)) is no target; k < 2 has
    # no class pair.  Both are refused before any enumeration.
    monkeypatch.setattr(colorings, "_leaves", None)
    path = graphs.multigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValidationError, match="needs d >= 1, got d=0$"):
        call(path, colorings.coloring([0, 1, 0, 1], 2))
    for G in (path, cycle_graph(4), graphs.multigraph(2, 1, [(0, 1)])):
        with pytest.raises(ValidationError, match="needs k >= 2, got k=1$"):
            call(G, colorings.coloring([0] * G.n, 1))
