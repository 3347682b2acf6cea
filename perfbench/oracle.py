"""Independent re-derivations that the output checks compare against.

Nothing here imports regcolor: each function recomputes a quantity from the
seeded inputs with numpy/scipy, so a defect in the program cannot hide in the
check.  The samplers replay the program's documented use of randomness (a
seeded output must not change), which lets a check rebuild any sample of any
spec from its seed alone.
"""

import math

import numpy as np


def stream(seed, index):
    """Per-sample generator: SeedSequence(seed) spawned at `index`."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.default_rng(ss)


def configuration_edges(n, d, gen):
    """Edge endpoints of a uniform configuration: shuffle the dn clones and
    pair them off consecutively."""
    perm = gen.permutation(n * d)
    return perm[0::2] // d, perm[1::2] // d


def flat_colors(n, k):
    """Blocks of n/k consecutive vertices per color."""
    return np.arange(n) // (n // k)


def planted_edges(n, k, d, gen):
    """Planted configuration with the flat coloring and e(V_i, V_j) =
    dn/(k(k-1)) for i != j: each class's clone list (vertex-major) is
    shuffled once and cut into one segment per other class, in class order;
    segment (i, j) is matched position by position with segment (j, i)."""
    size = n // k
    per = d * n // (k * (k - 1))
    segs = {}
    for i in range(k):
        clones = (np.arange(i * size, (i + 1) * size)[:, None] * d
                  + np.arange(d)).ravel()
        perm = gen.permutation(len(clones))
        others = [j for j in range(k) if j != i]
        for t, j in enumerate(others):
            segs[i, j] = clones[perm[t * per:(t + 1) * per]]
    u = [segs[i, j] // d for i in range(k) for j in range(i + 1, k)]
    v = [segs[j, i] // d for i in range(k) for j in range(i + 1, k)]
    return np.concatenate(u), np.concatenate(v)


def sorted_edges(u, v):
    """(m, 2) array of (min, max) endpoint pairs in lexicographic order."""
    a, b = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((b, a))
    return np.stack([a[order], b[order]], axis=1)


def short_cycles(n, u, v):
    """(loops, unordered pairs of parallel edges, triangles weighted by edge
    multiplicities), the triangles as tr(A^3)/6 on the loop-free
    multiplicity matrix A."""
    # imported here so that scipy is not resident while the passes run
    from scipy import sparse

    loops = int(np.count_nonzero(u == v))
    keep = u != v
    a, b = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    upper = sparse.coo_matrix((np.ones(a.size, dtype=np.int64), (a, b)),
                              shape=(n, n)).tocsr()
    upper.sum_duplicates()
    m = upper.data
    doubles = int((m * (m - 1) // 2).sum())
    A = upper + upper.T
    triangles = int((A @ A).multiply(A).sum()) // 6
    return loops, doubles, triangles


def class_degrees(n, k, colors, u, v, alive=None):
    """n x k array: edges from v into each color class; with `alive`, only
    non-loop edges whose both ends are alive count."""
    if alive is not None:
        keep = (u != v) & alive[u] & alive[v]
        u, v = u[keep], v[keep]
    idx = np.concatenate([u * k + colors[v], v * k + colors[u]])
    return np.bincount(idx, minlength=n * k).reshape(n, k)


def sigma_ell_core(n, k, colors, u, v, ell):
    """Boolean mask of the (sigma, ell)-core: the largest vertex set in which
    every vertex has at least ell edges into each other color class inside
    the set.  Removes every deficient vertex at once per round; the core does
    not depend on the removal order."""
    other = ~np.eye(k, dtype=bool)[colors]
    alive = np.ones(n, dtype=bool)
    while True:
        cnt = class_degrees(n, k, colors, u, v, alive)
        bad = alive & ((cnt < ell) & other).any(axis=1)
        if not bad.any():
            return alive
        alive &= ~bad


def freedom_sizes(n, k, colors, u, v, core):
    """(|F1|, |F2|, |complete|, cluster log2 bound) for the prose reading: a
    vertex is a-free when at least a colors other than its own have no edge
    into the core."""
    keep = u != v
    u, v = u[keep], v[keep]
    into = np.zeros(n * k, dtype=np.int64)
    np.add.at(into, u[core[v]] * k + colors[v[core[v]]], 1)
    np.add.at(into, v[core[u]] * k + colors[u[core[u]]], 1)
    other = ~np.eye(k, dtype=bool)[colors]
    vacant = ((into.reshape(n, k) == 0) & other).sum(axis=1)
    f1 = int((vacant >= 1).sum())
    f2 = int((vacant >= 2).sum())
    return f1, f2, n - f1, (f1 - f2) * 1.0 + f2 * math.log2(k)


def vacant_fraction(n, k, colors, u, v):
    """Mean over ordered pairs i != j of |{v in V_i : e(v, V_j) = 0}| / (n/k)."""
    deg = class_degrees(n, k, colors, u, v)
    fracs = [np.count_nonzero((colors == i) & (deg[:, j] == 0)) / (n / k)
             for i in range(k) for j in range(k) if i != j]
    return float(np.mean(fracs))


def is_colorable(n, k, u, v):
    """Existence of a proper k-coloring by depth-first search that stops at
    the first success; a self-loop makes a graph uncolorable."""
    if np.any(u == v):
        return False
    nbrs = [set() for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        nbrs[a].add(b)
        nbrs[b].add(a)
    order = sorted(range(n), key=lambda x: -len(nbrs[x]))
    color = [-1] * n

    def extend(pos):
        if pos == n:
            return True
        x = order[pos]
        used = {color[y] for y in nbrs[x]}
        for c in range(k):
            if c not in used:
                color[x] = c
                if extend(pos + 1):
                    return True
        color[x] = -1
        return False

    return extend(0)


def pair_rate(R, k, d):
    """f(rho) = H(rho/k) + (d/2) ln(1 - 2/k + sum rho^2 / k^2)."""
    R = np.asarray(R, dtype=float)
    H = -(R / k * (np.log(R) - math.log(k))).sum()
    return H + d / 2 * math.log(1 - 2 / k + (R ** 2).sum() / k ** 2)


def threshold_interval(ks):
    """Endpoints of I_k = ((2k-1) ln k - 2 ln 2 - eps, (2k-1) ln k - 1 + eps)
    with eps = k^-0.9."""
    ks = np.asarray(ks, dtype=float)
    base = (2 * ks - 1) * np.log(ks)
    eps = ks ** -0.9
    return base - 2 * math.log(2) - eps, base - 1 + eps
