"""Configuration model: pairings of vertex clones, contraction to regular
multigraphs, uniform and planted samplers, exhaustive enumeration for tiny
instances, and structural queries (edge counts between vertex sets, cycle
census, simplicity).

A configuration on n vertices of degree d is a fixed-point-free involution of
the dn clones; clone (v, p) is stored flat as v*d + p.  Contracting the d
clones of each vertex yields a d-regular multigraph where a self-loop
contributes 2 to the degree of its endpoint.
"""

from collections import Counter
from dataclasses import dataclass, field
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
    n: int
    d: int
    match: tuple  # involution on the dn clones, match[c] != c

    def __post_init__(self):
        m = self.n * self.d
        if len(self.match) != m:
            raise ValidationError("match must have length dn")
        for c, c2 in enumerate(self.match):
            if c2 == c or not (0 <= c2 < m) or self.match[c2] != c:
                raise ValidationError(
                    "match is not a fixed-point-free involution at clone %d" % c)

    def clone(self, v, p):
        return v * self.d + p


def sample_configuration(n, d, rng):
    """Uniform configuration: shuffle the clones, pair them off consecutively."""
    _check_even(n, d)
    perm = rng.permutation(n * d)
    match = np.empty(n * d, dtype=np.int64)
    match[perm[0::2]] = perm[1::2]
    match[perm[1::2]] = perm[0::2]
    return Configuration(n, d, tuple(match.tolist()))


def enumerate_configurations(n, d):
    """Yield every configuration exactly once.  Guarded: dn <= 16."""
    _check_even(n, d)
    m = n * d
    if m > guards.MAX_ENUM_CLONES:
        raise GuardError(
            "enumeration refused: dn=%d exceeds the %d-clone bound"
            % (m, guards.MAX_ENUM_CLONES))

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
    of (u, v) pairs with u <= v; loops appear as (u, u)."""
    n: int
    d: int
    edges: tuple
    check: bool = True
    _adj: list = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.check and self.d > 0:
            degs = self.degrees()
            bad = [v for v in range(self.n) if degs[v] != self.d]
            if bad:
                raise ValidationError(
                    "vertex %d has degree %d, expected %d"
                    % (bad[0], degs[bad[0]], self.d))

    def degrees(self):
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def adjacency(self):
        """adj[v] = Counter of neighbors with edge multiplicities (a loop at v
        appears as adj[v][v] = number of loop edges)."""
        if self._adj is None:
            adj = [Counter() for _ in range(self.n)]
            for u, v in self.edges:
                adj[u][v] += 1
                if u != v:
                    adj[v][u] += 1
            object.__setattr__(self, "_adj", adj)
        return self._adj


def multigraph(n, d, edge_list, check=True):
    edges = tuple(sorted((u, v) if u <= v else (v, u) for u, v in edge_list))
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError("edge endpoint out of range: (%d,%d)" % (u, v))
    return MultiGraph(n, d, edges, check)


def contract(conf):
    """Contract the d clones of each vertex into one vertex."""
    d = conf.d
    # c < c2 gives c // d <= c2 // d, so every pair is already (u, v), u <= v
    pairs = [(c // d, c2 // d) for c, c2 in enumerate(conf.match) if c < c2]
    pairs.sort()
    return MultiGraph(conf.n, d, tuple(pairs))


def is_simple(G):
    """No self-loop, no parallel edge."""
    seen = set()
    for u, v in G.edges:
        if u == v or (u, v) in seen:
            return False
        seen.add((u, v))
    return True


def edge_count_between(G, A, B):
    """e(A, B) counted clone-wise: each edge {u,v} contributes
    [u in A][v in B] + [v in A][u in B]; a loop inside A counts 2 toward
    e(A, A)."""
    A = set(A)
    B = set(B)
    total = 0
    for u, v in G.edges:
        if u in A and v in B:
            total += 1
        if v in A and u in B:
            total += 1
    return total


def class_edge_matrix(G, assignment, k):
    """k x k integer matrix with entry (i,j) = e(V_i, V_j) for the color
    classes of `assignment`.  Diagonal counts a loop twice, a non-loop
    monochromatic edge twice."""
    M = np.zeros((k, k), dtype=np.int64)
    for u, v in G.edges:
        i, j = assignment[u], assignment[v]
        M[i, j] += 1
        M[j, i] += 1
    return M


def vertex_class_degrees(G, assignment, k):
    """n x k integer array: entry (v, j) = e(v, V_j).  A loop at v adds 2 to
    column assignment[v]."""
    out = np.zeros((G.n, k), dtype=np.int64)
    for u, v in G.edges:
        out[u, assignment[v]] += 1
        out[v, assignment[u]] += 1
    return out


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
    `_weighted_triangles`); j >= 4 by a depth-first search over the
    adjacency."""
    if L < 1:
        raise ValidationError("L must be >= 1")
    if L > guards.MAX_CYCLE_LENGTH:
        raise GuardError("cycle census intended for short cycles (L <= %d)"
                         % guards.MAX_CYCLE_LENGTH)
    counts = [0] * L
    n = G.n
    ends = np.fromiter(chain.from_iterable(G.edges), dtype=np.int64,
                       count=2 * len(G.edges)).reshape(-1, 2)
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
    adj = G.adjacency()

    def extend(start, path, weight, length):
        v = path[-1]
        if length >= 4:
            # close the cycle; path[1] < path[-1] picks one direction
            m_close = adj[v].get(start, 0)
            if m_close and path[1] < v:
                counts[length - 1] += weight * m_close
        if length == L:
            return
        for w, m in adj[v].items():
            if w > start and w not in path:
                path.append(w)
                extend(start, path, weight * m, length + 1)
                path.pop()

    for s in range(n):
        for w, m in adj[s].items():
            if w > s:
                extend(s, [s, w], m, 2)
    return CycleCensus(tuple(counts))


def sample_planted(assignment, k, d, mu, rng):
    """Uniform configuration conditioned on e(V_i, V_j) = mu_ij * dn for the
    classes of `assignment`, contracted.  Requires mu_ii = 0 and all
    mu_ij * dn integral.

    Each class's clone list is shuffled once and cut into one segment per
    other class; matching the (i,j) segment of class i against the (j,i)
    segment of class j position by position is uniform over the conditioned
    configurations, because a uniformly shuffled list induces a uniform
    ordered selection for every segment independently.
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
            seg = [clones[perm[t]] for t in range(pos, pos + m[i][j])]
            segments[(i, j)] = seg
            pos += m[i][j]
        if pos != len(clones):
            raise ValidationError(
                "row %d of mu does not use up the class degree" % i)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = segments[(i, j)], segments[(j, i)]
            for ca, cb in zip(a, b):
                match[ca] = cb
                match[cb] = ca
    conf = Configuration(n, d, tuple(match.tolist()))
    return contract(conf)


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


def parse_graph(text, check=True):
    """Header `n d`, then one `u v` line per edge."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty graph file")
    n, d = _int_pair(lines[0])
    if n < 0 or d < 0:
        raise ValidationError("graph header needs n, d >= 0, got %d %d"
                              % (n, d))
    # checked before the degree count, which allocates n counters
    if check and d > 0 and n * d != 2 * (len(lines) - 1):
        raise ValidationError("header %d %d needs n*d/2 edges, the file "
                              "lists %d" % (n, d, len(lines) - 1))
    return multigraph(n, d, [_int_pair(ln) for ln in lines[1:]], check)


def write_graph(G, path):
    with open(path, "w") as fh:
        fh.write(format_graph(G))


def read_graph(path, check=True):
    with open(path) as fh:
        return parse_graph(fh.read(), check)
