"""Feasibility limits for the exact oracles, in one place, and `check`, the
one refusal past any of them."""

from .errors import GuardError

# enumerate_configurations and enumerate_multigraphs refuse more clones dn:
# the next even dn, 18, has (17)!! = 34,459,425 (3.4e7) configurations
MAX_ENUM_CLONES = 16

# samplers refuse more clones dn: at the bound `sample` peaks near 230 MiB
# (`sample_uniform` at 20 B per clone traced), and a core-profile sample (a
# d = 12, k = 4 planted sample and its core_analysis) at 53 B per clone
# traced (53.4, so 509 MiB)
MAX_SAMPLE_CLONES = 10 ** 7

# threshold scans and tables and the rates sweep refuse more rows: a
# threshold_scan peaks at about 89 B per row traced (340 MiB at the bound);
# a table holds one block's scan and byte matrix at a time, so its peak
# (about 1.7 MB traced) does not grow
MAX_TABLE_ROWS = 4 * 10 ** 6

# birkhoff.maximize_f refuses starts holding more k x k entries: it holds
# its (restarts + 7) k^2 entries as one stack (Sinkhorn sweeps it whole, the
# ascent takes groups of at most 16000 entries) and peaks near
# 52 B per entry at k = 3 (the per-start trace) and 30-38 B at k >= 4
# traced, so about 520 MB at the bound
MAX_START_ENTRIES = 10 ** 7

# a coloring file refuses more n k class-degree or k^2 class-edge entries:
# `core` peaks at 29 B per entry of n k traced (290 MB at the bound), `nice`
# at 24 B per entry of k^2.  `vacant` also refuses more
# n k + 3 k^2 (its n k entries in k^2 "i,j" groups): 57-66 B per unit, that
# is 66 B per vacant entry at k << n and 260 B at k ~ n
MAX_CLASS_ENTRIES = 10 ** 7

# a graph, coloring or spec file refuses more bytes before it is read: reading
# and parsing a graph file peaks at 13.1 B per byte traced, so about 1.05 GB
# at the bound, which admits every graph file `sample` writes (the longest,
# n = 10^7 and d = 1, has 78,888,901 bytes)
MAX_INPUT_BYTES = 8 * 10 ** 7

# experiment specs refuse more samples: the cheapest kind takes 50 us a
# sample (cycle-census, n = 2, d = 1, L = 1), 50 s at the bound, and its
# one metric list and the copies that summarize it peak at
# 32 B per metric per sample traced.  A value that is its own object adds its
# size: the two float metrics of vacant-fractions take 45 B per metric per
# sample, and 12 metrics of ints past 256 (28 B each) would take near 460 MB
# at the bound
MAX_EXPERIMENT_SAMPLES = 10 ** 6

# exact rational partition probability (big factorials stay cheap here)
MAX_EXACT_CLONES = 40

# backtracking coloring counter
MAX_COUNT_VERTICES = 30
MAX_COUNT_COLORS = 4

# exhaustive cluster / separability oracles
MAX_CLUSTER_VERTICES = 14
MAX_CLUSTER_COLORS = 4

# count_pairs_with_overlap refuses more ordered pairs N^2 of the N balanced
# colorings, counted before it enumerates them: about 75 ns per pair at
# n = 12 and 120 ns at n = 24 (N = 1,704 and 6,504), so 7.5-12 s at the bound
MAX_OVERLAP_PAIRS = 10 ** 8

# cycle census DFS is meant for short cycles only
MAX_CYCLE_LENGTH = 12

# cycle_census refuses more triangle wedges sum_v C(fdeg(v), 2), fdeg(v) the
# edges to higher ids: 13 B per wedge traced (n = 10^4, d = 12; 14 B at
# n = 10^5, 7 B at d = 24), of which 2-4 B at d = 12 is the hash filter's
# table of 8-16 B per distinct edge; 140 MB at the bound
MAX_CENSUS_WEDGES = 10 ** 7

# exhaustive subset search in the density falsifier (a branch, not a refusal)
MAX_DENSITY_EXHAUSTIVE = 12


def check(value, name, quantity, unit):
    """Refuse `value` past the bound `name`, read at call time so that a
    patched bound applies; the bound itself passes."""
    bound = globals()[name]
    if value > bound:
        raise GuardError("%s=%d exceeds the %d-%s bound (guards.%s)"
                         % (quantity, value, bound, unit, name))
