"""Deterministic cluster geometry on a colored multigraph.  `core_analysis`
runs the W/U/U'/Y screening construction, core peeling, the free/complete
vertex split with its cluster-size bound and the core-inclusion witness, in
that order, so W/U/Y's class-degree tables are freed before the peel's is
kept for the split; `freedom_report` and `check_core_inclusion` are views
of it.  Also a density falsifier and the cluster-size rate.

The (sigma, ell)-core is the largest induced subgraph in which every vertex
has at least ell edges into each other color class inside the subgraph.  It
and the closure Y are order-free, so each is computed in rounds that move
every qualifying vertex at once and update its neighbours' counts through
the rows of the graph's CSR `adjacency`.

Every vertex set in a result is a read-only boolean mask: an (n,) mask, or
an (n, k) mask whose entry [v, j] belongs to the pair (sigma(v), j).  Count
one with `np.count_nonzero`; `len()` of a mask is n, not the size of the
set.  Like the class-degree tables they are built from, the (n, k) masks
are color-major (transposes of C-ordered k x n arrays), so the reductions
over each vertex's k colors run along n-long rows.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from . import guards
from .graphs import (_others, _run_starts, degrees, neighbor_rows,
                     read_only, vertex_class_degrees)


@dataclass(frozen=True, eq=False)
class CoreResult:
    core: np.ndarray           # (n,) mask of the core
    peel_order: np.ndarray     # the evicted vertices, ascending
    class_degrees: np.ndarray  # (n, k): [v, j] = e(v, core cap V_j)


def _distinct(a):
    """The distinct values of the integer array `a`, ascending, as
    `np.unique` gives them: one sort and one compare."""
    a = np.sort(a)
    return a[_run_starts(a)[:-1]]


def sigma_ell_core(G, sigma, ell):
    """Peel vertices with fewer than ell edges into some other color class
    inside the surviving set until none remains.  Each round evicts every
    deficient vertex at once and subtracts its edge ends (a loop's two) from
    all its neighbours' counts, so the table stays exactly
    `vertex_class_degrees(G, sigma.assignment, k, within=alive)`, ending as
    `class_degrees`; only alive other-class counts that fell are checked for
    the next round.  Counts only fall, so the order does not matter."""
    if ell < 1:
        raise ValidationError("ell >= 1 required")
    n, color = G.n, sigma.assignment
    cnt = vertex_class_degrees(G, color, sigma.k)  # e(v, alive cap V_j)
    flat = cnt.T.reshape(-1)  # its buffer: [j n + v] is cnt[v, j]
    alive = np.ones(n, dtype=bool)
    # none needed into own class
    evict = np.flatnonzero((_others(color, sigma.k) & (cnt < ell)).any(axis=1))
    while evict.size:
        alive[evict] = False
        src, nbr, mult = neighbor_rows(G.adjacency, evict)
        at = color[src] * n + nbr
        np.subtract.at(flat, at, mult << (nbr == src))  # a loop: 2 ends
        fell = alive[nbr] & (color[nbr] != color[src]) & (flat[at] < ell)
        evict = _distinct(nbr[fell])
    return CoreResult(*map(read_only, (alive, np.flatnonzero(~alive), cnt)))


@dataclass(frozen=True, eq=False)
class WUYSets:
    W: np.ndarray        # (n, k): [v, j] iff v in W_{sigma(v), j}
    W_union: np.ndarray  # (n,)
    U: np.ndarray        # (n, k)
    U_prime: np.ndarray  # (n, k)
    Y: np.ndarray        # (n,)


def build_WUY(G, sigma, ell):
    """W_ij: vertices of color i with < 3 ell edges into V_j and < 2 ell ln k
    into every class.  U_ij: vertices of color i outside W with > ell edges
    into W_j.  U'_ij: outside W with > 2 ell ln k edges into V_j.  Y grows
    from U cup U' in rounds: each round adds every vertex with more than ell
    edges into the current Y."""
    if 2 * ell > sys.float_info.max:  # hi below is a float
        raise ValidationError("ell: 2 ell overflows a float")
    k, color = sigma.k, sigma.assignment
    deg = vertex_class_degrees(G, color, k)
    hi = 2 * ell * math.log(k)

    other = _others(color, k)
    W = other & (deg < 3 * ell) & (deg < hi).all(axis=1, keepdims=True)
    in_w = W.any(axis=1)
    outside = other & ~in_w[:, None]
    U = outside & (vertex_class_degrees(G, color, k, within=in_w) > ell)
    U_prime = outside & (deg > hi)
    del deg, other, outside  # not held while Y's growth builds the adjacency

    in_y = (U | U_prime).any(axis=1)
    into_y = vertex_class_degrees(G, color, k, within=in_y).sum(axis=1)
    join = np.flatnonzero(~in_y & (into_y > ell))
    while join.size:
        in_y[join] = True
        _, nbr, mult = neighbor_rows(G.adjacency, join)
        np.add.at(into_y, nbr, mult)  # a loop at v: into_y[v] is not read
        join = _distinct(nbr[~in_y[nbr] & (into_y[nbr] > ell)])
    return WUYSets(*map(read_only, (W, in_w, U, U_prime, in_y)))


def check_core_inclusion(G, sigma, ell):
    """(ok, witness): is V minus (W cup Y) inside the (sigma, ell)-core?"""
    witness = core_analysis(G, sigma, ell).witness
    return witness is None, witness


@dataclass(frozen=True, eq=False)
class FreedomReport:
    free_1: np.ndarray    # (n,) masks
    free_2: np.ndarray
    complete: np.ndarray  # ~free_1
    cluster_log2_upper: float
    mode: str


def freedom_report(G, sigma, ell, mode="prose"):
    """The freedom report of `core_analysis`."""
    return core_analysis(G, sigma, ell, mode).freedom


@dataclass(frozen=True, eq=False)
class CoreAnalysis:
    core: CoreResult
    wuy: WUYSets
    freedom: FreedomReport
    witness: int | None  # smallest vertex of V minus (W cup Y) off the core


def core_analysis(G, sigma, ell, mode="prose"):
    """The (sigma, ell)-core, the W/U/U'/Y sets, the freedom report and the
    core-inclusion witness, from one W/U/Y construction and one peel.

    The freedom report classifies vertices by how many colors have no
    neighbor inside the core.  mode="prose": count colors other than
    sigma(v); a-free iff at least a such colors are core-vacant.
    mode="strict": count over all k colors and require at least a+1, the
    displayed-formula reading.  The two differ only for vertices with a core
    neighbor of their own color, where strict counts one vacant color fewer;
    a proper coloring has none."""
    if mode not in ("prose", "strict"):
        raise ValidationError("mode must be prose or strict")
    wuy = build_WUY(G, sigma, ell)
    core = sigma_ell_core(G, sigma, ell)
    k, color = sigma.k, sigma.assignment
    vacant = core.class_degrees == 0
    n_vacant = vacant.sum(axis=1)
    if mode == "prose":
        n_vacant -= vacant[np.arange(G.n), color]  # only colors != sigma(v)
    else:
        n_vacant -= 1  # all k colors, a-free needs a + 1 of them
    free_1, free_2 = n_vacant >= 1, n_vacant >= 2
    bound = (np.count_nonzero(free_1 & ~free_2)
             + np.count_nonzero(free_2) * math.log2(k))
    outside = np.flatnonzero(~(wuy.W_union | wuy.Y | core.core))
    return CoreAnalysis(core, wuy, FreedomReport(
        *map(read_only, (free_1, free_2, ~free_1)), bound, mode),
        int(outside[0]) if outside.size else None)


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

    ptr, nbr, mult = (a.tolist() for a in G.adjacency)
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
    return list(dict.fromkeys(violations))  # dedupe, keep the order


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
