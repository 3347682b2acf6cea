"""Deterministic cluster geometry on a colored multigraph: core peeling, the
W/U/U'/Y screening construction, free/complete vertex classification with the
resulting cluster-size bound, a density falsifier, and the cluster-size rate.

The (sigma, ell)-core is the largest induced subgraph in which every vertex
has at least ell edges into each other color class inside the subgraph; it is
computed by peeling smallest index first from a heap that holds each vertex
at most once.  The result does not depend on the peel order; the tests check
it against a random-order peel, and the peel order against a lazy-deletion
heap.
"""

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, ValidationError
from . import guards
from .graphs import degrees, neighbors, vertex_class_degrees, vertex_mask


@dataclass(frozen=True)
class CoreResult:
    core: frozenset
    peel_order: tuple
    deficiency: dict  # evicted vertex -> color class that fell below ell


def sigma_ell_core(G, sigma, ell):
    """Peel vertices with fewer than ell edges into some other color class
    inside the surviving set, smallest index first, until none remains.

    Counts only fall, so a vertex that drops below ell stays below it: it is
    queued once, when it first drops, and evicted when popped, with its
    smallest deficient color at that time as its deficiency.  The core is
    the set of vertices never queued."""
    if ell < 1:
        raise ValidationError("ell >= 1 required")
    k = sigma.k
    assign = sigma.assignment
    cnt = vertex_class_degrees(G, assign, k).tolist()  # e(v, alive cap V_i)
    ptr, nbr, mult = neighbors(G)

    def deficient_color(v):
        for i in range(k):
            if i != assign[v] and cnt[v][i] < ell:
                return i
        return None

    queued = [deficient_color(v) is not None for v in range(G.n)]
    queue = [v for v in range(G.n) if queued[v]]  # ascending: a heap
    peel_order = []
    deficiency = {}
    while queue:
        v = heapq.heappop(queue)
        peel_order.append(v)
        deficiency[v] = deficient_color(v)
        cv = assign[v]
        for t in range(ptr[v], ptr[v + 1]):
            u = nbr[t]
            row = cnt[u]  # an evicted u's counts are not read again
            row[cv] -= mult[t]
            if not queued[u] and row[cv] < ell and assign[u] != cv:
                queued[u] = True
                heapq.heappush(queue, u)
    core = frozenset(v for v in range(G.n) if not queued[v])
    return CoreResult(core, tuple(peel_order), deficiency)


@dataclass(frozen=True)
class WUYSets:
    W: dict        # (i, j) -> set, j != i
    W_union: frozenset
    U: dict        # (i, j) -> set
    U_prime: dict  # (i, j) -> set
    Y: frozenset
    thresholds: dict


def build_WUY(G, sigma, ell):
    """W_ij: vertices of color i with < 3 ell edges into V_j and < 2 ell ln k
    into every class.  U_ij: vertices of color i outside W with > ell edges
    into W_j.  U'_ij: outside W with > 2 ell ln k edges into V_j.  Y grows
    from U cup U' by repeatedly adding the smallest-index vertex with more
    than ell edges into the current Y."""
    k = sigma.k
    color = np.asarray(sigma.assignment, dtype=np.int64)
    deg = vertex_class_degrees(G, color, k)
    hi = 2 * ell * math.log(k)

    row_ok = (deg < hi).all(axis=1)
    in_w = np.zeros(G.n, dtype=bool)
    W = {}
    for i, j in itertools.permutations(range(k), 2):
        w_ij = (color == i) & row_ok & (deg[:, j] < 3 * ell)
        W[(i, j)] = _members(w_ij)
        in_w |= w_ij

    into_w = vertex_class_degrees(G, color, k, within=in_w)
    in_y = np.zeros(G.n, dtype=bool)
    U, U_prime = {}, {}
    for i, j in itertools.permutations(range(k), 2):
        outside = (color == i) & ~in_w
        u_ij = outside & (into_w[:, j] > ell)
        u_prime_ij = outside & (deg[:, j] > hi)
        U[(i, j)], U_prime[(i, j)] = _members(u_ij), _members(u_prime_ij)
        in_y |= u_ij | u_prime_ij

    Y = _members(in_y)
    into_y = vertex_class_degrees(G, color, k, within=in_y).sum(axis=1)
    # ascending, so already a heap
    heap = np.flatnonzero(~in_y & (into_y > ell)).tolist()
    if heap:  # often empty: then Y cannot grow and needs no adjacency
        ptr, nbr, mult = neighbors(G)
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
    return WUYSets(W, frozenset(_members(in_w)), U, U_prime, frozenset(Y),
                   {"w_low": 3 * ell, "degree_high": hi, "ell": ell})


def _members(mask):
    """The vertices marked in a boolean mask, as a set of ints."""
    return set(np.flatnonzero(mask).tolist())


def _inclusion_witness(n, wuy, core):
    """Smallest vertex of V minus (W cup Y) outside the core, or None."""
    outside = wuy.W_union | wuy.Y
    return next((v for v in range(n) if v not in outside and v not in core),
                None)


def check_core_inclusion(G, sigma, ell):
    """Verify V minus (W cup Y) is contained in the (sigma, ell)-core.
    Returns (ok, offending vertex or None)."""
    wuy = build_WUY(G, sigma, ell)
    core = sigma_ell_core(G, sigma, ell).core
    witness = _inclusion_witness(G.n, wuy, core)
    return witness is None, witness


@dataclass(frozen=True)
class FreedomReport:
    free_1: frozenset
    free_2: frozenset
    complete: frozenset
    cluster_log2_upper: float
    mode: str


def _freedom(G, sigma, core, mode):
    if mode not in ("prose", "strict"):
        raise ValidationError("mode must be prose or strict")
    k = sigma.k
    color = np.asarray(sigma.assignment, dtype=np.int64)
    vacant = vertex_class_degrees(G, color, k,
                                  within=vertex_mask(G.n, core)) == 0
    n_vacant = vacant.sum(axis=1)
    if mode == "prose":
        n_vacant -= vacant[np.arange(G.n), color]  # only colors != sigma(v)
    else:
        n_vacant -= 1  # all k colors, a-free needs a + 1 of them
    free_1, free_2 = _members(n_vacant >= 1), _members(n_vacant >= 2)
    complete = frozenset(range(G.n)) - free_1
    bound = len(free_1 - free_2) * 1.0 + len(free_2) * math.log2(k)
    return FreedomReport(frozenset(free_1), frozenset(free_2), complete,
                         bound, mode)


def freedom_report(G, sigma, ell, mode="prose"):
    """Classify vertices by how many colors have no neighbor inside the core.

    mode="prose": count colors other than sigma(v); a-free iff at least a
    such colors are core-vacant.  mode="strict": count over all k colors and
    require at least a+1, the displayed-formula reading.  The two differ only
    for vertices whose own class has no core neighbor.
    """
    return _freedom(G, sigma, sigma_ell_core(G, sigma, ell).core, mode)


@dataclass(frozen=True)
class CoreAnalysis:
    core: CoreResult
    wuy: WUYSets
    freedom: FreedomReport
    inclusion_ok: bool


def core_analysis(G, sigma, ell, mode="prose"):
    """The (sigma, ell)-core, the W/U/U'/Y sets, the freedom report and the
    core-inclusion check, from one peel and one W/U/Y construction."""
    core = sigma_ell_core(G, sigma, ell)
    wuy = build_WUY(G, sigma, ell)
    return CoreAnalysis(core, wuy, _freedom(G, sigma, core.core, mode),
                        _inclusion_witness(G.n, wuy, core.core) is None)


def density_predicate(G, bound_c=5, size_cap=None, k=None):
    """Falsifier for 'no small set spans more than bound_c times its size in
    edges'.  size_cap defaults to k^(-4/3) n when k is given, else n.  Uses
    min-degree peeling (every suffix of the peel is checked) plus exhaustive
    subset search on tiny graphs.  Returns a list of witness sets; empty
    means no witness found, not a proof."""
    n = G.n
    if size_cap is None:
        size_cap = k ** (-4 / 3) * n if k else n
    violations = []

    ptr, nbr, mult = neighbors(G)
    degs = degrees(G).tolist()
    alive = set(range(n))
    m_cur = len(G.edges)

    def check(sets_size):
        if sets_size and sets_size <= size_cap and m_cur > bound_c * sets_size:
            violations.append(frozenset(alive))

    check(len(alive))
    while alive:
        v = min(alive, key=lambda u: (degs[u], u))
        alive.discard(v)
        for t in range(ptr[v], ptr[v + 1]):
            u, m = nbr[t], mult[t]
            if u == v or u in alive:
                m_cur -= m
                degs[u] -= m
        check(len(alive))

    if n <= guards.MAX_DENSITY_EXHAUSTIVE:
        edges = G.edges.tolist()
        for r in range(1, n + 1):
            if r > size_cap:
                break
            for S in itertools.combinations(range(n), r):
                Sset = set(S)
                spanned = sum(1 for u, v in edges if u in Sset and v in Sset)
                if spanned > bound_c * r:
                    violations.append(frozenset(Sset))
    # dedupe, keep deterministic order
    seen = []
    for w in violations:
        if w not in seen:
            seen.append(w)
    return seen


def cluster_size_rate(k, d):
    """(upper bound rate (ln 2)/k, balanced first-moment rate c/(2k) with
    c = (2k-1) ln k - d, margin).  Positive margin is the good-coloring
    criterion at leading order."""
    if k < 3:
        raise ValidationError("k >= 3 required")
    c = (2 * k - 1) * math.log(k) - d
    upper = math.log(2) / k
    rate = c / (2 * k)
    return upper, rate, rate - upper
