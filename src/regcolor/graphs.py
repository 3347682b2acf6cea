"""Configuration model: pairings of vertex clones, contraction to regular
multigraphs, uniform and planted samplers, exhaustive enumeration of
configurations and of contracted multigraphs (each with its configuration
count) for tiny instances, and structural queries (cycle census, simplicity,
and degrees, class degrees and edge counts between vertex sets, all counted
from one (m, 2) array of the edges).  The one per-vertex view is the CSR
adjacency of `neighbors`, built from that array.

A configuration on n vertices of degree d is a fixed-point-free involution of
the dn clones; clone (v, p) is stored flat as v*d + p.  Contracting the d
clones of each vertex yields a d-regular multigraph where a self-loop
contributes 2 to the degree of its endpoint.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import factorial

import numpy as np

from .errors import GuardError, ValidationError
from . import guards


def _check_even(n, d):
    if n <= 0 or d <= 0:
        raise ValidationError("n and d must be positive")
    if (n * d) % 2 != 0:
        raise ValidationError("dn must be even, got n=%d d=%d" % (n, d))


def double_factorial_odd(m):
    """(m)!! for odd m >= -1; (-1)!! = 1 by convention."""
    if m < -1 or m % 2 == 0:
        raise ValidationError("double factorial defined here for odd m >= -1")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def count_configurations(n, d):
    """Number of pairings of the dn clones: (dn-1)!!."""
    _check_even(n, d)
    m = n * d
    return factorial(m) // (2 ** (m // 2) * factorial(m // 2))


@dataclass(frozen=True)
class Configuration:
    """Unchecked: `configuration` is the checked builder."""
    n: int
    d: int
    match: tuple  # involution on the dn clones, match[c] != c

    def clone(self, v, p):
        return v * self.d + p


def configuration(n, d, match):
    """The checked builder: `match` must be a fixed-point-free involution of
    the dn clones."""
    match = tuple(match)
    m = n * d
    if len(match) != m:
        raise ValidationError("match must have length dn")
    for c, c2 in enumerate(match):
        if c2 == c or not (0 <= c2 < m) or match[c2] != c:
            raise ValidationError(
                "match is not a fixed-point-free involution at clone %d" % c)
    return Configuration(n, d, match)


def sample_configuration(n, d, rng):
    """Uniform configuration: shuffle the clones, pair them off consecutively."""
    _check_even(n, d)
    perm = rng.permutation(n * d)
    match = np.empty(n * d, dtype=np.int64)
    match[perm[0::2]] = perm[1::2]
    match[perm[1::2]] = perm[0::2]
    return Configuration(n, d, tuple(match.tolist()))


def _check_enumerable(n, d):
    _check_even(n, d)
    if n * d > guards.MAX_ENUM_CLONES:
        raise GuardError(
            "enumeration refused: dn=%d exceeds the %d-clone bound"
            % (n * d, guards.MAX_ENUM_CLONES))


def enumerate_configurations(n, d):
    """Yield every configuration exactly once.  Guarded: dn <= 16."""
    _check_enumerable(n, d)
    m = n * d
    match = [-1] * m

    def rec(free):
        if not free:
            yield Configuration(n, d, tuple(match))
            return
        a = free[0]
        for i in range(1, len(free)):
            b = free[i]
            match[a], match[b] = b, a
            rest = free[1:i] + free[i + 1:]
            yield from rec(rest)
        match[a] = -1

    yield from rec(list(range(m)))


@dataclass(frozen=True)
class MultiGraph:
    """Contracted multigraph.  `edges` is the edge multiset as a sorted tuple
    of (u, v) pairs with u <= v; loops appear as (u, u).  Nothing is checked
    here: `multigraph` is the checked builder, and `contract` and
    `enumerate_multigraphs` are d-regular by construction."""
    n: int
    d: int
    edges: tuple


def edge_array(G):
    """G.edges as a fresh (m, 2) int64 array; not cached, so a caller that
    drops it frees it."""
    return np.fromiter(chain.from_iterable(G.edges), dtype=np.int64,
                       count=2 * len(G.edges)).reshape(-1, 2)


def neighbors(G):
    """CSR adjacency (ptr, nbr, mult) as Python lists: v's distinct
    neighbours are nbr[ptr[v]:ptr[v + 1]], ascending, with the edge
    multiplicities at the same positions of mult.  A loop at v appears once
    in v's row, with the number of loops at v."""
    u, v = edge_array(G).T
    off = u != v
    n = G.n
    key, mult = np.unique(np.concatenate((u * n + v, v[off] * n + u[off])),
                          return_counts=True)
    src, nbr = np.divmod(key, n)
    ptr = np.searchsorted(src, np.arange(n + 1))
    return ptr.tolist(), nbr.tolist(), mult.tolist()


def degrees(G):
    """Integer array of vertex degrees; a loop adds 2 to its endpoint."""
    return np.bincount(edge_array(G).ravel(), minlength=G.n)


def multigraph(n, d, edge_list):
    """The checked builder: endpoints must lie in range(n) and, when d > 0,
    every vertex must have degree d.  d = 0 accepts any multigraph."""
    edges = tuple(sorted((u, v) if u <= v else (v, u) for u, v in edge_list))
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError("edge endpoint out of range: (%d,%d)" % (u, v))
    G = MultiGraph(n, d, edges)
    if d > 0:
        degs = degrees(G)
        bad = np.flatnonzero(degs != d)
        if bad.size:
            raise ValidationError("vertex %d has degree %d, expected %d"
                                  % (bad[0], degs[bad[0]], d))
    return G


def contract(conf):
    """Contract the d clones of each vertex into one vertex."""
    d = conf.d
    # c < c2 gives c // d <= c2 // d, so every pair is already (u, v), u <= v
    pairs = [(c // d, c2 // d) for c, c2 in enumerate(conf.match) if c < c2]
    pairs.sort()
    return MultiGraph(conf.n, d, tuple(pairs))


def enumerate_multigraphs(n, d):
    """Yield (G, w) for every contracted d-regular multigraph G on n vertices
    exactly once, where w is the number of configurations that contract to
    G:

        w = (d!)^n / (prod_{u<v} m_uv! * prod_v 2^{l_v} l_v!),

    with m_uv the multiplicity of the edge {u, v} and l_v the number of loops
    at v (the d! orderings of each vertex's clones, up to permuting parallel
    edges and flipping or permuting loops).  The weights sum to
    count_configurations(n, d).  Guarded like enumerate_configurations.

    Edge groups are chosen in the order of G.edges, so each edge list is
    built already sorted; the recursion is one level per group."""
    _check_enumerable(n, d)
    free = [d] * n       # clones of each vertex not yet on an edge
    edges = []
    top = factorial(d) ** n

    def rec(u, v, denom):
        # vertices before u are full; u's next partner is v or later
        while u < n and free[u] == 0:
            u += 1
            v = u
        if u == n:
            yield MultiGraph(n, d, tuple(edges)), top // denom
            return
        for w in range(v, n):
            loop = w == u
            most = free[u] // 2 if loop else min(free[u], free[w])
            for m in range(1, most + 1):
                free[u] -= m    # a loop takes 2m clones of u
                free[w] -= m
                edges.extend([(u, w)] * m)
                yield from rec(u, w + 1,
                               denom * factorial(m) * (2 ** m if loop else 1))
                del edges[-m:]
                free[u] += m
                free[w] += m

    yield from rec(0, 0, 1)


def is_simple(G):
    """No self-loop, no parallel edge."""
    seen = set()
    for u, v in G.edges:
        if u == v or (u, v) in seen:
            return False
        seen.add((u, v))
    return True


def vertex_mask(n, S):
    """Boolean array of length n marking the vertices in S."""
    mask = np.zeros(n, dtype=bool)
    mask[list(S)] = True
    return mask


def edge_count_between(G, A, B):
    """e(A, B) counted clone-wise: each edge {u,v} contributes
    [u in A][v in B] + [v in A][u in B]; a loop inside A counts 2 toward
    e(A, A)."""
    u, v = edge_array(G).T
    in_a, in_b = vertex_mask(G.n, A), vertex_mask(G.n, B)
    return int((in_a[u] & in_b[v]).sum() + (in_a[v] & in_b[u]).sum())


def class_edge_matrix(G, assignment, k):
    """k x k integer matrix with entry (i,j) = e(V_i, V_j) for the color
    classes of `assignment`.  Diagonal counts a loop twice, a non-loop
    monochromatic edge twice."""
    i, j = np.asarray(assignment, dtype=np.int64)[edge_array(G).T]
    M = np.bincount(i * k + j, minlength=k * k).reshape(k, k)
    return M + M.T


def vertex_class_degrees(G, assignment, k, within=None):
    """n x k integer array: entry (v, j) = e(v, S cap V_j), where S is the
    set of vertices marked in the boolean mask `within` (every vertex when
    None).  A loop at v in S adds 2 to column assignment[v]."""
    color = np.asarray(assignment, dtype=np.int64)
    ends = edge_array(G)
    out = np.zeros(G.n * k, dtype=np.int64)
    # each edge counts once from either end: u's count of v, then v's of u
    for a, b in ((0, 1), (1, 0)):
        src, dst = ends[:, a], ends[:, b]
        if within is not None:
            keep = within[dst]
            src, dst = src[keep], dst[keep]
        out += np.bincount(src * k + color[dst], minlength=G.n * k)
    return out.reshape(G.n, k)


@dataclass(frozen=True)
class CycleCensus:
    counts: tuple  # counts[j-1] = number of j-cycles, j = 1..L

    def __getitem__(self, j):
        return self.counts[j - 1]


def _weighted_triangles(n, key, mult):
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
    order = np.lexsort((head, tail))
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


def cycle_census(G, L):
    """Count j-cycles for j = 1..L.  1-cycles are self-loops, 2-cycles are
    unordered pairs of parallel edges; for j >= 3 every set of j distinct
    vertices in cyclic order counts once, weighted by the product of the edge
    multiplicities along the cycle.

    j <= 3 are counted from the edge array (triangles by
    `_weighted_triangles`); j >= 4 by a depth-first search over the rows of
    `neighbors`."""
    if L < 1:
        raise ValidationError("L must be >= 1")
    if L > guards.MAX_CYCLE_LENGTH:
        raise GuardError("cycle census intended for short cycles (L <= %d)"
                         % guards.MAX_CYCLE_LENGTH)
    counts = [0] * L
    n = G.n
    ends = edge_array(G)
    u, v = ends[:, 0], ends[:, 1]
    loop = u == v
    counts[0] = int(loop.sum())
    if L >= 2:
        key, mult = np.unique(u[~loop] * n + v[~loop], return_counts=True)
        del ends, u, v, loop
        counts[1] = int((mult * (mult - 1) // 2).sum())
        if L >= 3 and key.size:
            counts[2] = _weighted_triangles(n, key, mult)
        del key, mult
    if L < 4:
        return CycleCensus(tuple(counts))
    ptr, nbr, mult = neighbors(G)

    def extend(start, path, weight, length):
        v = path[-1]
        for t in range(ptr[v], ptr[v + 1]):
            w = nbr[t]
            if w == start:
                # close the cycle; path[1] < path[-1] picks one direction
                if length >= 4 and path[1] < v:
                    counts[length - 1] += weight * mult[t]
            elif w > start and length < L and w not in path:
                path.append(w)
                extend(start, path, weight * mult[t], length + 1)
                path.pop()

    for s in range(n):
        extend(s, [s], 1, 1)
    return CycleCensus(tuple(counts))


def sample_planted(assignment, k, d, mu, rng):
    """Uniform configuration conditioned on e(V_i, V_j) = mu_ij * dn for the
    classes of `assignment`, contracted.  Requires mu_ii = 0 and all
    mu_ij * dn integral.

    Each class's clone array is shuffled once and cut into one segment per
    other class; pairing the (i,j) segment of class i with the (j,i) segment
    of class j position by position is uniform over the conditioned
    configurations, because a uniformly shuffled array induces a uniform
    ordered selection for every segment independently.  The paired clones
    (a, b) give the edge (min, max) of (a // d, b // d) directly, and one
    sort puts the edges in the order `contract` would.
    """
    from . import moments

    assignment = [int(c) for c in assignment]
    n = len(assignment)
    _check_even(n, d)
    sizes = [0] * k
    for c in assignment:
        if not 0 <= c < k:
            raise ValidationError("color out of range")
        sizes[c] += 1
    rho = [Fraction(s, n) for s in sizes]
    pair = moments.validate_admissible(rho, mu, n, d)
    for i in range(k):
        if pair.mu[i][i] != 0:
            raise ValidationError("planted model needs mu_ii = 0 (i=%d)" % i)

    dn = d * n
    m = [[int(pair.mu[i][j] * dn) for j in range(k)] for i in range(k)]
    clones = np.arange(dn).reshape(n, d)
    color = np.asarray(assignment, dtype=np.int64)
    segments = []  # segments[i][j]: the clones of class i paired into class j
    for i in range(k):
        own = clones[color == i].ravel()
        perm = rng.permutation(own.size)
        if sum(m[i]) != own.size:
            raise ValidationError(
                "row %d of mu does not use up the class degree" % i)
        segments.append(np.split(own[perm], np.cumsum(m[i])[:-1]))
    upper = [(i, j) for i in range(k) for j in range(i + 1, k)]
    ends = np.array([np.concatenate([segments[i][j] for i, j in upper]),
                     np.concatenate([segments[j][i] for i, j in upper])]) // d
    ends.sort(axis=0)
    u, v = ends[:, np.lexsort(ends[::-1])].tolist()
    return MultiGraph(n, d, tuple(zip(u, v)))


# --- graph file format: header "n d", one "u v" line per edge ---

def format_graph(G):
    lines = ["%d %d" % (G.n, G.d)]
    lines.extend("%d %d" % e for e in G.edges)
    return "\n".join(lines) + "\n"


def _int_pair(line):
    try:
        a, b = (int(x) for x in line.split())
    except ValueError:
        raise ValidationError("graph line %r is not two integers"
                              % line) from None
    return a, b


def parse_graph(text):
    """Header `n d`, then one `u v` line per edge."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty graph file")
    n, d = _int_pair(lines[0])
    if n < 1 or d < 0:
        raise ValidationError("graph header needs n, d >= 0 and n >= 1, "
                              "got %d %d" % (n, d))
    # checked before the degree count, which allocates n counters
    if d > 0 and n * d != 2 * (len(lines) - 1):
        raise ValidationError("header %d %d needs n*d/2 edges, the file "
                              "lists %d" % (n, d, len(lines) - 1))
    return multigraph(n, d, [_int_pair(ln) for ln in lines[1:]])


def write_graph(G, path):
    with open(path, "w") as fh:
        fh.write(format_graph(G))


def read_graph(path):
    with open(path) as fh:
        return parse_graph(fh.read())
