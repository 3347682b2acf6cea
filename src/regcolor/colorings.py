"""Coloring data type and predicates: proper, balanced, overlap matrices,
clusters, separability, skewedness, niceness, rainbow and vacant vertices
(as read-only boolean masks), plus exact counting oracles by backtracking.

One search engine, `_leaves`, yields the proper colorings, and every count,
decision and enumeration calls it directly; counts are over labeled colorings
(`_leaves` says how its symmetry weights keep them so).  A question whose
answer no relabelling of the classes changes (colorability, separability,
every count but a profile of unequal class sizes) searches one coloring per
relabelling orbit; clusters, condition 3 of niceness, the overlap pair count,
the enumeration and unequal profiles read the labels and search every
labelling.  Exhaustive cluster machinery is guarded to tiny instances.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from . import guards
from .graphs import (_int_tokens, class_edge_matrix, format_rows, read_only,
                     vertex_class_degrees)

CLUSTER_DIAG = Fraction(51, 100)   # strict > for cluster membership
NICE_DIAG = Fraction(9, 10)        # >= for the rigidity condition
FILTERS = ("none", "balanced", "profile", "skewed", "nice12")


@dataclass(frozen=True, eq=False)
class Coloring:
    """Unchecked (`coloring` checks): `assignment` is a read-only (n,) int64
    array of colors in range(k).  Compared and hashed by value."""
    assignment: np.ndarray
    k: int

    def __eq__(self, other):
        return (isinstance(other, Coloring) and self.k == other.k
                and np.array_equal(self.assignment, other.assignment))

    def __hash__(self):
        return hash((self.k, self.assignment.tobytes()))

    @property
    def n(self):
        return self.assignment.size

    def class_sizes(self):
        return np.bincount(self.assignment, minlength=self.k).tolist()


def coloring(values, k):
    """The checked builder: a read-only int64 copy of `values`."""
    try:
        a = np.array(values, dtype=np.int64)
    except OverflowError:  # past int64, so past k too
        a = None
    if (a is None or a.ndim != 1
            or a.size and not 0 <= a.min() <= a.max() < k):
        raise ValidationError("colors must form one row, each in range(k)")
    return Coloring(read_only(a), k)


def format_coloring(sigma):
    # " c" per color, then the first space dropped: one line
    return "".join(format_rows(sigma.assignment[:, None], " %d"))[1:] + "\n"


def _parse_tokens(text, k):
    """parse_coloring token by token; it words every refusal."""
    values = []
    for token in text.split():
        try:
            values.append(int(token))
        except ValueError:
            raise ValidationError("coloring entry %r is not an integer"
                                  % token) from None
    return coloring(values, k)


def parse_coloring(text, k):
    """Whitespace-separated colors.  A text that `_int_tokens` reads is
    parsed as one array; any other goes to `_parse_tokens`."""
    tokens = _int_tokens(text)
    return _parse_tokens(text, k) if tokens is None else coloring(tokens[0], k)


def is_proper(G, sigma):
    """No monochromatic edge; a self-loop is always monochromatic."""
    ends = sigma.assignment[G.edges]
    return not (ends[:, 0] == ends[:, 1]).any()


def is_balanced(sigma):
    n, k = sigma.n, sigma.k
    return n % k == 0 and all(s == n // k for s in sigma.class_sizes())


def _vertex_check(n):
    """Overlaps divide by n: refused for a graph or coloring of no vertex."""
    if n < 1:
        raise ValidationError("overlaps need n >= 1, got n=%d" % n)


def overlap(sigma, tau):
    """k x k matrix of Fractions: (k/n) |sigma^{-1}(i) cap tau^{-1}(j)|."""
    if sigma.n != tau.n or sigma.k != tau.k:
        raise ValidationError("colorings must share n and k")
    _vertex_check(sigma.n)
    n, k = sigma.n, sigma.k
    counts = np.bincount(k * sigma.assignment + tau.assignment,
                         minlength=k * k).reshape(k, k).tolist()
    return tuple(tuple(Fraction(k * c, n) for c in row) for row in counts)


def in_cluster(sigma, tau):
    """Diagonal overlap > 0.51 in every color."""
    rho = overlap(sigma, tau)
    return all(rho[i][i] > CLUSTER_DIAG for i in range(sigma.k))


def _cluster_guard(G, k):
    _vertex_check(G.n)
    guards.check(G.n, "MAX_CLUSTER_VERTICES", "n", "vertex")
    guards.check(k, "MAX_CLUSTER_COLORS", "k", "color")


def _leaves(G, k, caps=None, symmetric=False):
    """Depth-first search over the proper k-colorings of G, yielding
    (assign, weight) at each leaf; `assign` is the live list, valid until
    the next step.  Vertices go in descending order of distinct-neighbor
    count (ties by index), colors in order 0..k-1, and class c holds at most
    caps[c] vertices (caps None: no bound).  No leaf when G has a loop or
    the caps do not sum to n.  Without symmetry every leaf weighs 1.  With
    it (sound only when all caps are equal), a vertex may open only the
    smallest unused color, and a leaf with c colors weighs k!/(k-c)!, its
    relabellings.  Iterative: a leaf costs one generator step whatever n is."""
    n = G.n
    nbrs = [set() for _ in range(n)]
    for u, v in G.edges.tolist():
        if u == v:  # a loop: no proper coloring
            return
        nbrs[u].add(v)
        nbrs[v].add(u)
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


def enumerate_proper_colorings(G, k, balanced=False):
    """Proper k-colorings (balanced: classes of n // k) in `_leaves` order."""
    caps = [G.n // k] * k if balanced else None
    for assign, _ in _leaves(G, k, caps):
        yield Coloring(read_only(np.array(assign, dtype=np.int64)), k)


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
    """Overlaps above 0.51 with any balanced proper coloring are >= 1 - kappa.
    Relabellings permute columns: one per orbit is searched.  Guarded.  When
    1 - kappa <= 0.51 no overlap lies between them: True, with no search."""
    if not math.isfinite(kappa):
        raise ValidationError("kappa must be a finite number, got %r"
                              % (kappa,))
    _cluster_guard(G, k := sigma.k)
    kap = kappa if isinstance(kappa, Fraction) else Fraction(kappa).limit_denominator(10 ** 9)
    if 1 - kap <= CLUSTER_DIAG:
        return True
    return not any(CLUSTER_DIAG < x < 1 - kap for tau, _ in
                   _leaves(G, k, [G.n // k] * k, symmetric=True)
                   for row in overlap(sigma, coloring(tau, k)) for x in row)


def _density_check(G, k, what):
    """Skewedness and niceness compare class-pair edges with dn/(k(k-1)):
    undefined for k < 2 and for d = 0, which admits any multigraph."""
    if k < 2:
        raise ValidationError("%s needs k >= 2, got k=%d" % (what, k))
    if G.d == 0:
        raise ValidationError("%s needs d >= 1, got d=0" % what)


def is_skewed(G, sigma):
    """Some inter-class edge count deviates from dn/(k(k-1)) by more than
    sqrt(n) ln n (strict)."""
    n, k = sigma.n, sigma.k
    _density_check(G, k, "skewedness")
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
    _density_check(G, k, "niceness")
    rho = np.array(sigma.class_sizes(), dtype=float) / n
    rho_dev = float(np.linalg.norm(rho - 1 / k))
    cond1 = rho_dev < 1 / (k * math.log(k) ** (1 / 3))

    mu = class_edge_matrix(G, sigma.assignment, k) / (G.d * n)
    mu_bar = (1 - np.eye(k)) / (k * (k - 1))
    mu_dev = float(np.linalg.norm(mu - mu_bar))
    cond2 = mu_dev < 8 / (k * (k - 1) * math.log(k) ** (1 / 3))

    cond3 = None
    if check_cluster:  # each star-cluster member as the search finds it
        _cluster_guard(G, k)
        slack = n / (k * math.log(k) ** (1 / 3))
        cond3 = not any(  # a member whose smallest diagonal is under 0.9
            CLUSTER_DIAG < min(row[i] for i, row in
                               enumerate(overlap(sigma, tau))) < NICE_DIAG
            and all(abs(s - n / k) < slack for s in tau.class_sizes())
            for tau in enumerate_proper_colorings(G, k))
    return NiceReport(cond1, cond2, cond3, rho_dev, mu_dev)


def vacant_table(G, sigma):
    """(n, k) read-only mask: [v, j] is set when v has no edge into the
    color class j != sigma(v), so column j of the rows of class i is the
    vacant set of the pair (i, j)."""
    return read_only((vertex_class_degrees(G, sigma.assignment, sigma.k) == 0)
                     & (np.arange(sigma.k) != sigma.assignment[:, None]))


def rainbow_vertices(G, sigma):
    """(n,) read-only mask of the vertices with a neighbor of every color
    other than their own: those vacant in no other class."""
    return read_only(~vacant_table(G, sigma).any(axis=1))


def _count_guard(G, k):
    if k < 1:
        raise ValidationError("exact counting needs k >= 1, got k=%d" % k)
    guards.check(G.n, "MAX_COUNT_VERTICES", "n", "vertex")
    guards.check(k, "MAX_COUNT_COLORS", "k", "color")


def is_colorable(G, k):
    """Whether G has a proper k-coloring: the search stops at the first one.
    Guarded like count_colorings."""
    _count_guard(G, k)
    return next(_leaves(G, k, symmetric=True), None) is not None


def count_colorings(G, k, filter="none", profile=None):
    """Exact number of proper k-colorings passing the filter, one of
    `FILTERS`: "none", "balanced", "profile" (class sizes n * profile[i],
    rationals), "skewed" (balanced and skewed), "nice12" (conditions 1-2 of
    niceness); both tests are label-blind, so run once per symmetric leaf."""
    if filter not in FILTERS:
        raise ValidationError("unknown filter %r (one of %s)"
                              % (filter, ", ".join(FILTERS)))
    _count_guard(G, k)
    caps = keep = None
    if filter == "skewed":
        _density_check(G, k, "skewedness")
        keep = lambda tau: is_skewed(G, tau)
    if filter == "nice12":
        _density_check(G, k, "niceness")
        keep = lambda t: (r := is_nice(G, t)).condition1 and r.condition2
    if filter in ("balanced", "skewed"):
        caps = [G.n // k] * k
    elif filter == "profile":
        if profile is None:
            raise ValidationError("profile filter needs a profile")
        fracs = [Fraction(x) for x in profile]
        if any(x < 0 for x in fracs):
            raise ValidationError("profile entries must be >= 0, got %s"
                                  % ",".join(map(str, fracs)))
        sizes = [x * G.n for x in fracs]
        if sum(sizes) != G.n or len(sizes) != k:
            raise ValidationError("profile must have k entries summing to 1")
        if any(s.denominator != 1 for s in sizes):
            return 0
        caps = [int(s) for s in sizes]
    leaves = _leaves(G, k, caps, caps is None or len(set(caps)) == 1)
    if keep is None:
        return sum(w for _, w in leaves)
    return sum(w for a, w in leaves if keep(coloring(a, k)))


def count_pairs_with_overlap(G, k, rho):
    """Exact number of ordered pairs of balanced proper colorings whose
    overlap matrix equals rho (k x k of rationals); a rho whose class
    intersection counts (n/k) rho are not integers matches no pair.  The
    N^2 pairs are counted, and guarded, before N colorings are built."""
    _count_guard(G, k)
    _vertex_check(G.n)
    target = [[Fraction(x) * G.n / k for x in row] for row in rho]
    want = [c for row in target for c in row]
    if ([len(row) for row in target] != [k] * k
            or not all(c.denominator == 1 and 0 <= c <= G.n for c in want)):
        return 0
    want = np.array(want, dtype=np.int64)
    guards.check(count_colorings(G, k, "balanced") ** 2, "MAX_OVERLAP_PAIRS",
                 "pairs", "pair")
    A = np.array([s.assignment for s in enumerate_proper_colorings(
        G, k, balanced=True)], dtype=np.int64).reshape(-1, G.n)
    keys = A + k * k * np.arange(len(A))[:, None]
    total = 0
    for a in A:  # a's k x k counts against every row of A, in one bincount
        counts = np.bincount((keys + k * a).ravel(), minlength=len(A) * k * k)
        total += int((counts.reshape(-1, k * k) == want).all(axis=1).sum())
    return total
