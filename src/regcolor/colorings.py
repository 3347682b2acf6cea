"""Coloring data type and predicates: proper, balanced, overlap matrices,
clusters, separability, skewedness, niceness, rainbow and vacant vertices,
plus exact counting oracles by backtracking.

One search engine (`_search`) counts, decides and enumerates proper
colorings.  All counts are over labeled colorings (color classes are
distinguishable), but counting and deciding break the color symmetry: a
vertex may open only the smallest unused color, and a coloring with c colors
stands for its k!/(k-c)! relabellings.  Enumeration, and counting with
unequal class sizes (the profile filter), visit every labeling.  Exhaustive
cluster machinery is guarded to tiny instances.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GuardError, ValidationError
from . import guards
from .graphs import class_edge_matrix, vertex_class_degrees

CLUSTER_DIAG = Fraction(51, 100)   # strict > for cluster membership
NICE_DIAG = Fraction(9, 10)        # >= for the rigidity condition


@dataclass(frozen=True)
class Coloring:
    assignment: tuple
    k: int

    def __post_init__(self):
        if any(not 0 <= c < self.k for c in self.assignment):
            raise ValidationError("color out of range")

    @property
    def n(self):
        return len(self.assignment)

    def class_sizes(self):
        sizes = [0] * self.k
        for c in self.assignment:
            sizes[c] += 1
        return sizes

    def color_class(self, i):
        return [v for v, c in enumerate(self.assignment) if c == i]


def coloring(values, k):
    return Coloring(tuple(int(c) for c in values), k)


def format_coloring(sigma):
    return " ".join(str(c) for c in sigma.assignment) + "\n"


def parse_coloring(text, k):
    values = []
    for token in text.split():
        try:
            values.append(int(token))
        except ValueError:
            raise ValidationError("coloring entry %r is not an integer"
                                  % token) from None
    return coloring(values, k)


def is_proper(G, sigma):
    """No monochromatic edge; a self-loop is always monochromatic."""
    a = sigma.assignment
    return all(a[u] != a[v] for u, v in G.edges)


def is_balanced(sigma):
    n, k = sigma.n, sigma.k
    return n % k == 0 and all(s == n // k for s in sigma.class_sizes())


def overlap(sigma, tau):
    """k x k matrix of Fractions: (k/n) |sigma^{-1}(i) cap tau^{-1}(j)|."""
    if sigma.n != tau.n or sigma.k != tau.k:
        raise ValidationError("colorings must share n and k")
    n, k = sigma.n, sigma.k
    counts = [[0] * k for _ in range(k)]
    for a, b in zip(sigma.assignment, tau.assignment):
        counts[a][b] += 1
    return tuple(tuple(Fraction(k * c, n) for c in row) for row in counts)


def in_cluster(sigma, tau):
    """Diagonal overlap > 0.51 in every color."""
    rho = overlap(sigma, tau)
    return all(rho[i][i] > CLUSTER_DIAG for i in range(sigma.k))


def _cluster_guard(G, k):
    if G.n > guards.MAX_CLUSTER_VERTICES or k > guards.MAX_CLUSTER_COLORS:
        raise GuardError(
            "exhaustive cluster oracle limited to n <= %d, k <= %d"
            % (guards.MAX_CLUSTER_VERTICES, guards.MAX_CLUSTER_COLORS))


def _neighbor_sets(G):
    """Distinct-neighbor lists; None if some vertex has a self-loop (then no
    proper coloring exists)."""
    nbrs = [set() for _ in range(G.n)]
    for u, v in G.edges:
        if u == v:
            return None
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _leaves(nbrs, k, caps, symmetric):
    """Depth-first search over proper assignments: vertices in
    descending-degree order, colors tried in order 0..k-1, class c holding
    at most caps[c] vertices (caps None: no bound).  Yields (assign, weight)
    at each leaf; `assign` is the live list, valid until the next step.
    There is no leaf when nbrs is None (a loop) or the caps do not sum
    to n.

    Without symmetry, every proper assignment is a leaf of weight 1.  With
    it (sound only when all caps are equal), a vertex may open only the
    smallest unused color, so a leaf stands for the k!/(k-c)! relabellings
    of its c colors and weighs that much.

    Iterative, so a leaf costs one generator step whatever n is."""
    if nbrs is None:
        return
    n = len(nbrs)
    if caps is not None and sum(caps) != n:
        return
    caps = caps or [n] * k
    weight = [math.perm(k, c) if symmetric else 1 for c in range(k + 1)]
    order = sorted(range(n), key=lambda v: -len(nbrs[v]))
    assign = [-1] * n
    sizes = [0] * k
    used = [0] * n          # colors among the placed neighbors of order[pos]
    opened = [0] * (n + 1)  # colors in use among order[:pos]
    pos = 0
    while pos >= 0:
        if pos == n:
            yield assign, weight[opened[n]]
            pos -= 1
            continue
        v = order[pos]
        c = assign[v]
        if c < 0:
            mask = 0
            for w in nbrs[v]:
                if assign[w] >= 0:
                    mask |= 1 << assign[w]
            used[pos] = mask
        else:
            sizes[c] -= 1
        top = min(opened[pos] + 1, k) if symmetric else k
        mask = used[pos]
        c += 1
        while c < top and (mask >> c & 1 or sizes[c] >= caps[c]):
            c += 1
        if c == top:
            assign[v] = -1
            pos -= 1
            continue
        assign[v] = c
        sizes[c] += 1
        opened[pos + 1] = max(opened[pos], c + 1)
        pos += 1


def _search(G, k, mode, caps=None):
    """The one exact-search engine over proper k-colorings of G.

    mode "yield": every assignment as a tuple, in the search order of
    `_leaves`; "count": their number; "exists": whether there is one.
    count and exists break color symmetry when all caps are equal (None
    included); counts stay over labeled colorings."""
    symmetric = mode != "yield" and (caps is None or len(set(caps)) == 1)
    leaves = _leaves(_neighbor_sets(G), k, caps, symmetric)
    if mode == "yield":
        return (tuple(assign) for assign, _ in leaves)
    if mode == "exists":
        return next(leaves, None) is not None
    return sum(w for _, w in leaves)


def enumerate_proper_colorings(G, k, balanced=False):
    caps = [G.n // k] * k if balanced else None
    for assign in _search(G, k, "yield", caps):
        yield Coloring(assign, k)


def cluster_of(G, sigma):
    """All balanced proper tau with diagonal overlap > 0.51 against sigma.
    Exhaustive; guarded."""
    _cluster_guard(G, sigma.k)
    return {tau for tau in enumerate_proper_colorings(G, sigma.k, balanced=True)
            if in_cluster(sigma, tau)}


def kappa_paper(k):
    """The asymptotic separation parameter ln^500(k)/k; exceeds 1 for every
    practical k, so callers normally pass an explicit kappa (default 0.1)."""
    return math.log(k) ** 500 / k


def is_separable(G, sigma, kappa=0.1):
    """Every overlap entry above 0.51 with any balanced proper coloring is
    actually >= 1 - kappa.  Exhaustive; guarded."""
    if not math.isfinite(kappa):
        raise ValidationError("kappa must be a finite number, got %r"
                              % (kappa,))
    _cluster_guard(G, sigma.k)
    kap = kappa if isinstance(kappa, Fraction) else Fraction(kappa).limit_denominator(10 ** 9)
    k = sigma.k
    for tau in enumerate_proper_colorings(G, k, balanced=True):
        rho = overlap(sigma, tau)
        for i in range(k):
            for j in range(k):
                if rho[i][j] > CLUSTER_DIAG and rho[i][j] < 1 - kap:
                    return False
    return True


def is_skewed(G, sigma):
    """Some inter-class edge count deviates from dn/(k(k-1)) by more than
    sqrt(n) ln n (strict)."""
    n, k = sigma.n, sigma.k
    if k < 2:
        raise ValidationError("skewedness needs k >= 2, got k=%d" % k)
    if not is_balanced(sigma):
        raise ValidationError("skewedness is defined for balanced colorings")
    target = G.d * n / (k * (k - 1))
    M = class_edge_matrix(G, sigma.assignment, k)
    dev = np.abs(M[np.triu_indices(k, 1)] - target).max()
    return bool(dev > math.sqrt(n) * math.log(n))


def star_cluster(G, sigma):
    """C*(sigma): all proper (not necessarily balanced) tau with diagonal
    overlap > 0.51.  Exhaustive; guarded."""
    _cluster_guard(G, sigma.k)
    return {tau for tau in enumerate_proper_colorings(G, sigma.k)
            if in_cluster(sigma, tau)}


@dataclass(frozen=True)
class NiceReport:
    condition1: bool
    condition2: bool
    condition3: bool | None  # None when the exhaustive check was not run
    rho_deviation: float
    mu_deviation: float

    def __bool__(self):
        if self.condition3 is None:
            raise ValidationError(
                "condition 3 was not evaluated; inspect the report fields")
        return self.condition1 and self.condition2 and self.condition3


def is_nice(G, sigma, check_cluster=False):
    """The three niceness conditions.  Conditions 1-2 are closed-form bounds
    on the class-size vector and the inter-class edge densities; condition 3
    (every near-balanced coloring in the star-cluster has diagonal overlaps
    >= 0.9) is exhaustive and only evaluated at oracle scale when
    check_cluster is set."""
    n, k = sigma.n, sigma.k
    if k < 2:
        raise ValidationError("k >= 2 required")
    sizes = sigma.class_sizes()
    rho = np.array(sizes, dtype=float) / n
    rho_dev = float(np.linalg.norm(rho - 1 / k))
    cond1 = rho_dev < 1 / (k * math.log(k) ** (1 / 3))

    mu = class_edge_matrix(G, sigma.assignment, k) / (G.d * n)
    mu_bar = np.full((k, k), 1 / (k * (k - 1)))
    np.fill_diagonal(mu_bar, 0.0)
    mu_dev = float(np.linalg.norm(mu - mu_bar))
    cond2 = mu_dev < 8 / (k * (k - 1) * math.log(k) ** (1 / 3))

    cond3 = None
    if check_cluster:
        _cluster_guard(G, k)
        cond3 = True
        slack = n / (k * math.log(k) ** (1 / 3))
        for tau in star_cluster(G, sigma):
            if all(abs(s - n / k) < slack for s in tau.class_sizes()):
                rho_st = overlap(sigma, tau)
                if any(rho_st[i][i] < NICE_DIAG for i in range(k)):
                    cond3 = False
                    break
    return NiceReport(cond1, cond2, cond3, rho_dev, mu_dev)


def rainbow_vertices(G, sigma):
    """Vertices with a neighbor of every color other than their own."""
    color = np.asarray(sigma.assignment, dtype=np.int64)
    reached = vertex_class_degrees(G, color, sigma.k) > 0
    reached[np.arange(G.n), color] = True
    return set(np.flatnonzero(reached.all(axis=1)).tolist())


@dataclass(frozen=True)
class VacantTable:
    """sets[(i, j)] = vertices of color i with no edge into color class j."""
    sets: dict
    k: int

    def __getitem__(self, key):
        return self.sets[key]


def vacant_table(G, sigma):
    k = sigma.k
    color = np.asarray(sigma.assignment, dtype=np.int64)
    vacant = vertex_class_degrees(G, color, k) == 0
    sets = {}
    for i in range(k):
        members = np.flatnonzero(color == i)
        for j in range(k):
            if i != j:
                sets[(i, j)] = set(members[vacant[members, j]].tolist())
    return VacantTable(sets, k)


def _count_guard(G, k):
    if k < 1:
        raise ValidationError("exact counting needs k >= 1, got k=%d" % k)
    if G.n > guards.MAX_COUNT_VERTICES or k > guards.MAX_COUNT_COLORS:
        raise GuardError(
            "exact counting limited to n <= %d, k <= %d"
            % (guards.MAX_COUNT_VERTICES, guards.MAX_COUNT_COLORS))


def is_colorable(G, k):
    """Whether G has a proper k-coloring: the search stops at the first one.
    Guarded like count_colorings."""
    _count_guard(G, k)
    return _search(G, k, "exists")


def count_colorings(G, k, filter="none", profile=None):
    """Exact number of proper k-colorings passing the filter.

    Filters: "none", "balanced", "profile" (class sizes = profile[i] * n,
    profile entries rationals), "skewed" (balanced and skewed), "nice12"
    (conditions 1-2 of niceness).
    """
    _count_guard(G, k)
    n = G.n
    if filter == "none":
        return _search(G, k, "count")
    if filter == "balanced":
        return _search(G, k, "count", [n // k] * k)
    if filter == "profile":
        if profile is None:
            raise ValidationError("profile filter needs a profile")
        fracs = [Fraction(x) for x in profile]
        if any(x < 0 for x in fracs):
            raise ValidationError("profile entries must be >= 0, got %s"
                                  % ",".join(map(str, fracs)))
        sizes = [x * n for x in fracs]
        if any(s.denominator != 1 for s in sizes):
            return 0
        if sum(sizes) != n or len(sizes) != k:
            raise ValidationError("profile must have k entries summing to 1")
        return _search(G, k, "count", [int(s) for s in sizes])
    if filter == "skewed":
        total = 0
        for tau in enumerate_proper_colorings(G, k, balanced=True):
            if is_skewed(G, tau):
                total += 1
        return total
    if filter == "nice12":
        total = 0
        for tau in enumerate_proper_colorings(G, k):
            rep = is_nice(G, tau)
            if rep.condition1 and rep.condition2:
                total += 1
        return total
    raise ValidationError("unknown filter %r" % (filter,))


def count_pairs_with_overlap(G, k, rho):
    """Exact number of ordered pairs of balanced proper colorings whose
    overlap matrix equals rho (k x k of rationals)."""
    _count_guard(G, k)
    target = tuple(tuple(Fraction(x) for x in row) for row in rho)
    colorings_list = list(enumerate_proper_colorings(G, k, balanced=True))
    total = 0
    for s in colorings_list:
        for t in colorings_list:
            if overlap(s, t) == target:
                total += 1
    return total
