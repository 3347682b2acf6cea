"""Configuration model: pairings of vertex clones, contraction to regular
multigraphs, uniform and planted samplers, exhaustive enumeration of
configurations and of contracted multigraphs (each with its configuration
count) for tiny instances, and structural queries (cycle census, simplicity,
and degrees, class degrees and edge counts between vertex sets).

A graph is one read-only (m, 2) int64 array of its edges, sorted, and every
query counts from that array.  The samplers write it straight from their
clone pairs (`_from_pairs`); the planted one takes the k x k integer matrix
of class edge counts its sample must have, its `class_edge_matrix`.  The one
per-vertex view is a graph's CSR `adjacency`, int64 arrays built from the
edge array on first use and kept on the graph, whose rows `neighbor_rows`
gathers for a whole vertex array at once.

The integer files (a graph's edge lines, a coloring's line) are written by
`format_rows` as one uint32 word matrix per block of rows, from the one
4-digit table `_DIGIT_WORDS`, which threshold's CSV writer also reads.

A configuration on n vertices of degree d is a fixed-point-free involution of
the dn clones; clone (v, p) is stored flat as v*d + p.  Contracting the d
clones of each vertex yields a d-regular multigraph where a self-loop
contributes 2 to the degree of its endpoint.
"""

from dataclasses import dataclass
from functools import cached_property
from math import factorial, isqrt

import numpy as np

from .errors import ValidationError
from . import guards


def _check_even(n, d):
    if n <= 0 or d <= 0:
        raise ValidationError("n and d must be positive")
    if (n * d) % 2 != 0:
        raise ValidationError("dn must be even, got n=%d d=%d" % (n, d))
    guards.check(n * d, "MAX_SAMPLE_CLONES", "dn", "clone")


def double_factorial_odd(m):
    """(m)!! for odd m >= -1; (-1)!! = 1 by convention."""
    if m < -1 or m % 2 == 0:
        raise ValidationError("double factorial defined here for odd m >= -1")
    j = (m + 1) // 2
    return factorial(2 * j) // (2 ** j * factorial(j))


def count_configurations(n, d):
    """Number of pairings of the dn clones: (dn-1)!!."""
    _check_even(n, d)
    return double_factorial_odd(n * d - 1)


@dataclass(frozen=True)
class Configuration:
    """Unchecked: `configuration` is the checked builder."""
    n: int
    d: int
    match: tuple  # involution on the dn clones, match[c] != c


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
    guards.check(n * d, "MAX_ENUM_CLONES", "dn", "clone")


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


@dataclass(frozen=True, eq=False)
class MultiGraph:
    """Contracted multigraph.  `edges` is the edge multiset as a read-only
    (m, 2) int64 array of rows (u, v) with u <= v, sorted lexicographically;
    loops appear as (u, u).  Nothing is checked or copied here:
    `multigraph` is the checked builder, and the samplers, `contract` and
    `enumerate_multigraphs` are d-regular by construction and hand over
    read-only arrays.  `adjacency` is derived from `edges` when first read.
    Graphs compare by value and, like their arrays, are not hashable."""
    n: int
    d: int
    edges: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return (self.n == other.n and self.d == other.d
                and np.array_equal(self.edges, other.edges))

    @cached_property
    def adjacency(self):
        """CSR adjacency (ptr, nbr, mult) as read-only int64 arrays, built
        on first use and kept: v's distinct neighbours are
        nbr[ptr[v]:ptr[v + 1]], ascending, with the edge multiplicities at
        the same positions of mult.  A loop at v appears once in v's row,
        with the number of loops at v."""
        u, v = self.edges.T
        off = u != v
        n = self.n
        key, mult = np.unique(np.concatenate((u * n + v, v[off] * n + u[off])),
                              return_counts=True)
        src, nbr = np.divmod(key, n)
        return tuple(map(read_only, (np.searchsorted(src, np.arange(n + 1)),
                                     nbr, mult)))


# the largest n whose edge keys u*n + v (u, v < n) fit in an int64
MAX_VERTICES = isqrt(2 ** 63 - 1)


def _from_pairs(n, d, a, b):
    """The MultiGraph whose edges are the vertex pairs {a[i], b[i]}: one
    integer sort of the keys min*n + max gives the sorted (u, v) rows."""
    key = np.minimum(a, b) * n + np.maximum(a, b)
    key.sort()
    edges = np.empty((key.size, 2), dtype=np.int64)
    np.divmod(key, n, out=(edges[:, 0], edges[:, 1]))
    return MultiGraph(n, d, read_only(edges))


def neighbor_rows(csr, vs):
    """The CSR rows of the vertices `vs`, concatenated in that order, as
    arrays (source, neighbour, multiplicity)."""
    ptr, nbr, mult = csr
    start, size = ptr[vs], ptr[vs + 1] - ptr[vs]
    pos = np.arange(size.sum()) + np.repeat(start - np.cumsum(size) + size,
                                            size)
    return np.repeat(vs, size), nbr[pos], mult[pos]


def degrees(G):
    """Integer array of vertex degrees; a loop adds 2 to its endpoint."""
    return np.bincount(G.edges.ravel(), minlength=G.n)


def multigraph(n, d, edge_list):
    """The checked builder, from an (m, 2) int64 array as it is or from a
    sequence of pairs: endpoints must lie in range(n) and, when d > 0, every
    vertex must have degree d.  d = 0 accepts any multigraph."""
    if n > MAX_VERTICES:
        raise ValidationError("n=%d exceeds %d, the most vertices a graph "
                              "can have" % (n, MAX_VERTICES))
    try:
        ends = np.asarray(edge_list, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # past int64, so out of range
        ends = np.array(edge_list, dtype=object).reshape(-1, 2)
    lo, hi = np.minimum(*ends.T), np.maximum(*ends.T)
    bad = (lo < 0) | (hi >= n)
    if bad.any():
        u = lo[bad].min()
        raise ValidationError("edge endpoint out of range: (%d,%d)"
                              % (u, hi[bad & (lo == u)].min()))
    G = _from_pairs(n, d, ends[:, 0], ends[:, 1])
    if d > 0:
        degs = degrees(G)
        bad = np.flatnonzero(degs != d)
        if bad.size:
            raise ValidationError("vertex %d has degree %d, expected %d"
                                  % (bad[0], degs[bad[0]], d))
    return G


def contract(conf):
    """Contract the d clones of each vertex into one vertex."""
    match = np.asarray(conf.match, dtype=np.int64)
    c = np.flatnonzero(np.arange(match.size) < match)
    return _from_pairs(conf.n, conf.d, c // conf.d, match[c] // conf.d)


def sample_uniform(n, d, rng):
    """contract(sample_configuration(n, d, rng)) without the configuration:
    the same permutation of the dn clones, consecutive entries paired, the
    pairs contracted as arrays."""
    _check_even(n, d)
    perm = rng.permutation(n * d) // d
    return _from_pairs(n, d, perm[0::2], perm[1::2])


_LEAF_BLOCK = 4096  # enumerated graphs per edge block


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
    built already sorted; the recursion is one level per group.  A leaf only
    appends its flat edge list and weight to buffers; every _LEAF_BLOCK
    leaves the buffers become one (B, m, 2) array whose rows are the yielded
    graphs' edges."""
    _check_enumerable(n, d)
    free = [d] * n       # clones of each vertex not yet on an edge
    edges = []           # the current edge list, flat: u0, v0, u1, v1, ...
    top = factorial(d) ** n
    m = n * d // 2
    flat, weights = [], []

    def rec(u, v, denom):
        # vertices before u are full; u's next partner is v or later
        while u < n and free[u] == 0:
            u += 1
            v = u
        if u == n:
            flat.extend(edges)
            weights.append(top // denom)
            if len(weights) == _LEAF_BLOCK:
                yield
            return
        for w in range(v, n):
            loop = w == u
            most = free[u] // 2 if loop else min(free[u], free[w])
            for r in range(1, most + 1):
                free[u] -= r    # a loop takes 2r clones of u
                free[w] -= r
                edges.extend([u, w] * r)
                yield from rec(u, w + 1,
                               denom * factorial(r) * (2 ** r if loop else 1))
                del edges[-2 * r:]
                free[u] += r
                free[w] += r

    def drain():
        block = np.array(flat, dtype=np.int64).reshape(len(weights), m, 2)
        block.flags.writeable = False
        ws = weights[:]
        flat.clear()
        weights.clear()
        for row, w in zip(block, ws):
            yield MultiGraph(n, d, row), w

    for _ in rec(0, 0, 1):
        yield from drain()
    yield from drain()


def is_simple(G):
    """No self-loop, no parallel edge (parallel edges are adjacent rows)."""
    e = G.edges
    return not ((e[:, 0] == e[:, 1]).any()
                or (e[1:] == e[:-1]).all(axis=1).any())


def vertex_mask(n, S):
    """Boolean array of length n marking the vertices in S; a vertex outside
    range(n) is refused, the smallest one named."""
    S = list(S)
    bad = [v for v in S if not 0 <= v < n]
    if bad:
        raise ValidationError("vertex %d is not in range(%d)" % (min(bad), n))
    mask = np.zeros(n, dtype=bool)
    mask[S] = True
    return mask


def _run_starts(a):
    """(len(a) + 1,) mask over the sorted 1-D array `a`: [i] is set where a
    run of equal values starts, and at i = len(a), where the last one ends.
    `a[_run_starts(a)[:-1]]` is `np.unique(a)` by one compare."""
    starts = np.ones(a.size + 1, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=starts[1:-1])
    return starts


def read_only(a):
    """`a`, marked read-only, as every array a query hands out is."""
    a.flags.writeable = False
    return a


def edge_count_between(G, A, B):
    """e(A, B) counted clone-wise: each edge {u,v} contributes
    [u in A][v in B] + [v in A][u in B]; a loop inside A counts 2 toward
    e(A, A)."""
    u, v = G.edges.T
    in_a, in_b = vertex_mask(G.n, A), vertex_mask(G.n, B)
    return int((in_a[u] & in_b[v]).sum() + (in_a[v] & in_b[u]).sum())


def class_edge_matrix(G, assignment, k):
    """k x k integer matrix with entry (i,j) = e(V_i, V_j) for the color
    classes of `assignment`.  Diagonal counts a loop twice, a non-loop
    monochromatic edge twice."""
    i, j = np.asarray(assignment, dtype=np.int64)[G.edges.T]
    M = np.bincount(i * k + j, minlength=k * k).reshape(k, k)
    return M + M.T


def vertex_class_degrees(G, assignment, k, within=None):
    """n x k integer array: entry (v, j) = e(v, S cap V_j), where S is the
    set of vertices marked in the boolean mask `within` (every vertex when
    None).  A loop at v in S adds 2 to column assignment[v].  A vertex
    outside S is counted in a spare class k, dropped from the result, so a
    masked count costs what an unmasked one does.

    The array is the transpose of a C-ordered k x n buffer (color-major):
    a reduction over the k colors of every vertex then runs along n-long
    rows, where numpy is fast, not along k-long ones."""
    color = np.asarray(assignment, dtype=np.int64)
    width = k
    if within is not None:
        color = np.where(within, color, k)
        width = k + 1
    n, ends = G.n, G.edges
    out = np.zeros(width * n, dtype=np.int64)
    # each edge counts once from either end: u's count of v, then v's of u
    for a, b in ((0, 1), (1, 0)):
        out += np.bincount(color[ends[:, b]] * n + ends[:, a],
                           minlength=width * n)
    return out.reshape(width, n)[:k].T


def _others(assignment, k):
    """The (n, k) mask [v, j]: j != assignment[v], color-major like the
    class-degree tables it is combined with."""
    return (np.arange(k)[:, None] != assignment).T


_HASH = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, odd: Fibonacci hashing


def _slots(keys, bits):
    """Fibonacci hash of the int64 `keys` into range(2**bits): the top bits
    of keys * _HASH mod 2^64."""
    slot = keys.view(np.uint64) * np.uint64(_HASH)
    slot >>= np.uint64(64 - bits)
    return slot.view(np.int64)


@dataclass(frozen=True)
class CycleCensus:
    counts: tuple  # counts[j-1] = number of j-cycles, j = 1..L

    def __getitem__(self, j):
        """The number of j-cycles; j outside 1..L is refused."""
        L = len(self.counts)
        if 1 <= j <= L:
            return self.counts[j - 1]
        raise IndexError("cycle length %r is not in 1..%d" % (j, L))


def _weighted_triangles(n, key, mult):
    """Triangles of the multigraph whose distinct non-loop edges are
    key = u*n + v (u < v, sorted, unique) with multiplicities `mult`, each
    weighted by the product of its three multiplicities.

    Id-ordered wedge count: each key pairs with the later keys of its run of
    equal u (the forward row of u), and the closing edge of each wedge is
    looked up among the keys.  A triangle's lowest vertex sees its other two
    in its forward row, so the triangle is found once.  The wedges number
    sum_u C(fdeg(u), 2): about n d (d - 1) / 6 on d-regular input, but
    C(D, 2) for a hub of degree D at a low id.

    Few wedges close, so each closing edge is first checked in a table of
    2^ceil(log2 8m) bools marked at the hashes of the m keys: a clear slot
    means it is no key.  Only the survivors (about 10%) are argsorted and
    looked up.  The wedges are made one offset s at a time, key p with key
    p + s while both are in one row, so beside key, mult and the table only
    one bool per key (is the next key in the same row?) is kept.
    """
    row = key // n
    fdeg = np.bincount(row)
    wedges = int((fdeg * (fdeg - 1) // 2).sum())
    del fdeg
    guards.check(wedges, "MAX_CENSUS_WEDGES", "wedges", "wedge")
    if not wedges:
        return 0
    # same[p]: key p + 1 is in key p's row (the last key has no successor)
    same = np.zeros(key.size, dtype=bool)
    np.equal(row[:-1], row[1:], out=same[:-1])
    del row
    bits = (8 * key.size - 1).bit_length()
    table = np.zeros(1 << bits, dtype=bool)
    table[_slots(key, bits)] = True
    # q: the later key of each wedge at offset s, paired with key q - s
    closings, weights = [], []
    q, s = np.flatnonzero(same) + 1, 1
    while q.size:
        # v ascends within a row, so each closing key is a (lower, higher)
        # pair; made in place, one wedge-sized temporary at a time
        closing = key[q - s]
        closing %= n
        closing *= n
        end = key[q]
        end %= n
        closing += end
        del end
        keep = table[_slots(closing, bits)]
        closings.append(closing[keep])
        kept = q[keep]
        weights.append(mult[kept - s] * mult[kept])
        del closing
        q = q[same[q]]
        q += 1
        s += 1
    del same, table, q
    closing, wedge = np.concatenate(closings), np.concatenate(weights)
    del closings, weights
    order = np.argsort(closing)
    closing, wedge = closing[order], wedge[order]
    del order
    pos = np.minimum(np.searchsorted(key, closing), key.size - 1)
    hit = key[pos] == closing
    return int((wedge[hit] * mult[pos[hit]]).sum())


def cycle_census(G, L):
    """Count j-cycles for j = 1..L.  1-cycles are self-loops, 2-cycles are
    unordered pairs of parallel edges; for j >= 3 every set of j distinct
    vertices in cyclic order counts once, weighted by the product of the edge
    multiplicities along the cycle.

    j <= 3 are counted in passes over the sorted edge array (parallel edges
    are runs of equal rows, triangles by `_weighted_triangles`); j >= 4 by a
    depth-first search over the rows of `G.adjacency`."""
    if L < 1:
        raise ValidationError("L must be >= 1")
    guards.check(L, "MAX_CYCLE_LENGTH", "L", "edge")
    counts = [0] * L
    n = G.n
    u, v = G.edges.T
    loop = u == v
    counts[0] = int(loop.sum())
    if L >= 2:
        key = (u * n + v)[~loop]
        del u, v, loop
        new = _run_starts(key)
        key = key[new[:-1]]  # the distinct keys; the full array is freed
        mult = np.diff(np.flatnonzero(new))
        del new
        counts[1] = int((mult * (mult - 1) // 2).sum())
        if L >= 3:
            counts[2] = _weighted_triangles(n, key, mult)
        del key, mult
    if L < 4:
        return CycleCensus(tuple(counts))
    ptr, nbr, mult = (a.tolist() for a in G.adjacency)

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


def _check_counts(counts, color, d):
    """`counts` as int64 once checked: square, of integers (a float or
    Fraction is refused, not truncated), nonnegative, symmetric, zero on the
    diagonal, row i summing to d |V_i|; a refusal names the first bad one."""
    try:
        M = np.asarray(counts)
    except ValueError:  # numpy refuses ragged rows
        raise ValidationError("counts must be a square matrix, got ragged "
                              "rows") from None
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("counts must be a square matrix, got shape %s"
                              % (M.shape,))
    if M.dtype.kind not in "iu":
        for (i, j), x in np.ndenumerate(M):
            if not isinstance(x, (int, np.integer)):
                raise ValidationError("counts[%d, %d] = %s is a %s, not an "
                                      "integer" % (i, j, x, type(x).__name__))
    k = len(M)
    if not 0 <= color.min() <= color.max() < k:
        raise ValidationError("color out of range")
    for bad, why in ((M < 0, "is negative"),
                     (M != M.T, "differs from counts[{j}, {i}]"),
                     (np.eye(k, dtype=bool) & (M != 0), "is on the diagonal")):
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValidationError("counts[%d, %d] = %d " % (i, j, M[i, j])
                                  + why.format(i=i, j=j))
    sums = d * np.bincount(color, minlength=k)
    bad = np.flatnonzero(M.sum(axis=1) != sums)
    if bad.size:
        i = bad[0]
        raise ValidationError("counts row %d sums to %d, not d |V_%d| = %d"
                              % (i, M[i].sum(), i, sums[i]))
    return M.astype(np.int64)


def sample_planted(assignment, d, counts, rng):
    """Uniform configuration with class edge counts e(V_i, V_j) =
    counts[i, j] (its `class_edge_matrix`) on the classes of `assignment`,
    contracted.  Each class's clones are shuffled once and cut into one
    segment per class; pairing segment (i, j) with segment (j, i) position
    by position is uniform, as a shuffle selects each segment uniformly."""
    color = np.asarray(assignment, dtype=np.int64)
    _check_even(color.size, d)
    M = _check_counts(counts, color, d)
    # the clones in class blocks, each held as its vertex (a shuffle of the
    # clones moves their vertices alike); segment (i, j) starts at
    # first[i, j], the segments in row-major order of M
    verts = np.repeat(np.argsort(color, kind="stable"), d)
    first = (np.cumsum(M) - M.ravel()).reshape(M.shape)
    for start, size in zip(first[:, 0].tolist(), M.sum(axis=1).tolist()):
        block = verts[start:start + size]
        block[:] = block[rng.permutation(size)]
    i, j = np.triu_indices(len(M), 1)
    size = M[i, j]
    step = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
    a = verts[np.repeat(first[i, j], size) + step]
    b = verts[np.repeat(first[j, i], size) + step]
    return _from_pairs(color.size, d, a, b)


# --- graph file format: header "n d", one "u v" line per edge ---

_FORMAT_BLOCK = 1 << 14  # rows per word matrix in format_rows


def _digit_words():
    """[v + 10^4 mode]: the 4 ASCII digits of v < 10^4 as one word, most
    significant byte first; mode 1 drops its leading zeros, mode 2 its
    trailing zeros, and mode 3 is mode 1 led by ','."""
    digits = (np.arange(10 ** 4, dtype=np.int16)[:, None]
              // np.array([1000, 100, 10, 1], dtype=np.int16) % 10)
    zero = digits == 0
    words = np.empty((4, 10 ** 4, 4), dtype=np.uint8)
    words[:] = digits + ord("0")
    words[1][np.logical_and.accumulate(zero, axis=1)] = 0
    words[2][np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]] = 0
    words[3] = words[1]
    words[3, :, 0] = ord(",")
    return words.view("<u4").ravel()


# the one digit-word table: format_rows and threshold's CSV writer read it
_DIGIT_WORDS = _digit_words()
_ZERO_WORD = np.frombuffer(b"\0\0\0" b"0", dtype="<u4")[0]


def _words(text):
    """`text` as little-endian 4-byte words, NUL-padded."""
    return np.frombuffer((text + "\0" * (-len(text) % 4)).encode("ascii"),
                         dtype="<u4")


def _format_block(block, head, tail):
    """The text of `format_rows` for one block, from its word matrix."""
    if block.min() < 0:
        raise ValueError("format_rows writes nonnegative integers")
    groups = -(-len(str(block.max())) // 4)
    buffer = bytearray(4 * len(block) * (head.size + tail.size
                                         + len(tail) * groups))
    words = np.frombuffer(buffer, dtype="<u4").reshape(len(block), -1)
    words[:, :head.size] = head
    field = words[:, head.size:].reshape(len(block), len(tail), -1)
    field[:, :, groups:] = tail
    value = block
    for j in range(groups - 1, -1, -1):  # lowest group first
        high = value // 10 ** 4
        mode = high == 0  # no group above: drop leading zeros
        field[:, :, j] = _DIGIT_WORDS[value - 10 ** 4 * (high - mode)]
        value = high
    field[:, :, groups - 1][block == 0] = _ZERO_WORD
    return buffer.translate(None, b"\0").decode("ascii")


def format_rows(rows, fmt):
    """`fmt`, whose fields are "%d", filled from each row of the 2-D array
    `rows` of nonnegative integers, one field per column, as str blocks of
    _FORMAT_BLOCK rows.

    A block is one uint32 word matrix decoded once.  A row is `fmt`'s
    leading text, then per column the value's 4-digit groups from
    `_DIGIT_WORDS` (as many as the block's widest value has) and the text
    after the field, each text NUL-padded to whole words.  A group above a
    value's first digit drops its leading zeros (all four when it is 0, the
    lowest group of 0 keeping one), and one `translate` deletes the NULs."""
    head, *tails = (_words(text) for text in fmt.split("%d"))
    tail = np.zeros((len(tails), max(t.size for t in tails)), dtype="<u4")
    for row, t in zip(tail, tails):
        row[:t.size] = t
    for start in range(0, len(rows), _FORMAT_BLOCK):
        yield _format_block(rows[start:start + _FORMAT_BLOCK], head, tail)


def graph_blocks(G):
    """The graph file as str blocks."""
    yield "%d %d\n" % (G.n, G.d)
    yield from format_rows(G.edges, "%d %d\n")


def format_graph(G):
    return "".join(graph_blocks(G))


def _int_tokens(text):
    """The tokens of `text` as an int64 array, with the number of tokens on
    each line that has any; None if `text` holds a character other than an
    ASCII digit, space, tab, CR or LF, or a token of more than 18 digits.
    CR and LF each end a line, so the tokens and non-blank lines are those
    of str.split and str.splitlines, and every value fits an int64."""
    try:
        b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    digit = b - 48 < 10  # uint8 wraps below "0"
    brk = (b == 10) | (b == 13)
    if not (digit | brk | (b == 32) | (b == 9)).all():
        return None
    step = np.diff(np.pad(digit.view(np.int8), 1))  # stays int8
    start, end = np.flatnonzero(step == 1), np.flatnonzero(step == -1)
    width = int((end - start).max(initial=0))
    if width > 18:
        return None
    # Horner over digit columns, right-aligned: a column left of a token's
    # first digit adds a leading zero
    value = np.zeros(start.size, dtype=np.int64)
    for j in range(width - 1, -1, -1):
        pos = end - 1 - j
        value = value * 10 + np.where(pos >= start, b[pos] - 48, 0)
    line = np.searchsorted(np.flatnonzero(brk), start)
    return value, np.diff(np.flatnonzero(_run_starts(line)))


def _int_pair(line):
    try:
        a, b = (int(x) for x in line.split())
    except ValueError:
        raise ValidationError("graph line %r is not two integers"
                              % line) from None
    return a, b


def _check_header(n, d, m):
    """The header refusals for m edge lines: n*d = 2m bounds n by the file."""
    if n < 1 or d < 0:
        raise ValidationError("graph header needs n, d >= 0 and n >= 1, "
                              "got %d %d" % (n, d))
    if d > 0 and n * d != 2 * m:
        raise ValidationError("header %d %d needs n*d/2 edges, the file "
                              "lists %d" % (n, d, m))


def _parse_lines(text):
    """parse_graph line by line; it words a line that is not two integers."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty graph file")
    n, d = _int_pair(lines[0])
    _check_header(n, d, len(lines) - 1)
    return multigraph(n, d, [_int_pair(ln) for ln in lines[1:]])


def parse_graph(text):
    """Header `n d`, then one `u v` line per edge.  A file whose lines are two
    `_int_tokens` each is checked as arrays, any other by `_parse_lines`."""
    tokens = _int_tokens(text)
    if tokens is None or not tokens[1].size or (tokens[1] != 2).any():
        return _parse_lines(text)
    n, d = tokens[0][:2].tolist()
    _check_header(n, d, tokens[1].size - 1)
    return multigraph(n, d, tokens[0][2:].reshape(-1, 2))
