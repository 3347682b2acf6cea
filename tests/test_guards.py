"""Every refusal bound in `regcolor.guards` refuses one past itself, naming
the constant, and admits the bound itself; only `guards.check` raises it."""

import ast
import os
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import numpy as np

from regcolor import (birkhoff, cli, clustergeo, colorings, experiments,
                      graphs, guards, moments, rng, threshold)
from regcolor.errors import GuardError

SRC = Path(__file__).resolve().parents[1] / "src" / "regcolor"

# a branch between two algorithms, not a refusal
NOT_REFUSALS = {"MAX_DENSITY_EXHAUSTIVE"}


def _cycle4():
    return graphs.multigraph(4, 2, [(0, 1), (1, 2), (2, 3), (0, 3)])


def _exact_pair():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    return moments.validate_admissible(
        [half, half], [[quarter, quarter], [quarter, quarter]], 4, 2)


def _rates_sweep():
    cli.cmd_rates(cli.build_parser().parse_args(
        ["rates", "--k-range", "3..5", "--d-range", "4..5"]))


def _separable():
    return colorings.is_separable(_cycle4(),
                                  colorings.coloring([0, 1, 0, 1], 2))


def _load_coloring(k):
    # a 4-vertex coloring file under k colors: n k = 4k, k^2 entries
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.txt"
        path.write_text("0 1 0 1\n")
        return cli._load_coloring(str(path), _cycle4(), k)


def _count_vacant(k):
    # `count --predicate vacant` on the 4-cycle: n k + 3 k^2 = 4k + 3k^2
    with tempfile.TemporaryDirectory() as tmp:
        gpath, cpath = Path(tmp) / "g.txt", Path(tmp) / "c.txt"
        gpath.write_text(graphs.format_graph(_cycle4()))
        cpath.write_text("0 1 0 1\n")
        cli.cmd_count(cli.build_parser().parse_args([
            "--out", os.devnull, "count", "--graph", str(gpath), "--k",
            str(k), "--predicate", "vacant", "--coloring", str(cpath)]))


def _read_graph_file():
    # an 8-byte graph file, read through the CLI's reader
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text("2 1\n0 1\n")
        return graphs.parse_graph(cli._read(str(path)))


# (constant, the value each call checks against it, entry point)
CASES = [
    ("MAX_SAMPLE_CLONES", 12, lambda: graphs.sample_uniform(
        4, 3, rng.stream(1))),
    ("MAX_SAMPLE_CLONES", 8, lambda: graphs.sample_planted(
        [0, 0, 1, 1], 2, [[0, 4], [4, 0]], rng.stream(1))),
    ("MAX_SAMPLE_CLONES", 6, lambda: experiments.flat_planted_coloring(6, 2)),
    ("MAX_ENUM_CLONES", 6, lambda: list(graphs.enumerate_configurations(2, 3))),
    ("MAX_ENUM_CLONES", 6, lambda: list(graphs.enumerate_multigraphs(2, 3))),
    ("MAX_CYCLE_LENGTH", 4, lambda: graphs.cycle_census(_cycle4(), 4)),
    ("MAX_TABLE_ROWS", 6, lambda: threshold.threshold_scan(3, 8)),
    ("MAX_TABLE_ROWS", 6, _rates_sweep),
    ("MAX_EXACT_CLONES", 8,
     lambda: moments.exact_partition_probability(_exact_pair())),
    ("MAX_COUNT_VERTICES", 4, lambda: colorings.count_colorings(_cycle4(), 2)),
    ("MAX_COUNT_VERTICES", 4, lambda: colorings.is_colorable(_cycle4(), 2)),
    ("MAX_COUNT_COLORS", 3, lambda: colorings.count_colorings(_cycle4(), 3)),
    ("MAX_CLUSTER_VERTICES", 4, _separable),
    ("MAX_CLUSTER_COLORS", 2, _separable),
    ("MAX_START_ENTRIES", (2 + 7) * 9, lambda: birkhoff.maximize_f(
        3, 5, restarts=2)),
    ("MAX_CLASS_ENTRIES", 4 * 2, lambda: _load_coloring(2)),
    ("MAX_CLASS_ENTRIES", 5 * 5, lambda: _load_coloring(5)),
    # vertex 0 pairs its two forward rows (0, 1), (0, 3); the others have one
    ("MAX_CENSUS_WEDGES", 1, lambda: graphs.cycle_census(_cycle4(), 3)),
    ("MAX_EXPERIMENT_SAMPLES", 3, lambda: experiments.run_experiment(
        experiments.parse_spec(
            "kind = cycle-census\nn = 4\nd = 2\nsamples = 3\n"))),
    ("MAX_CLASS_ENTRIES", 4 * 2 + 3 * 2 * 2, lambda: _count_vacant(2)),
    ("MAX_INPUT_BYTES", 8, _read_graph_file),
    # the 4-cycle's two balanced 2-colorings make 2^2 ordered pairs
    ("MAX_OVERLAP_PAIRS", 4, lambda: colorings.count_pairs_with_overlap(
        _cycle4(), 2, np.eye(2, dtype=int))),
]


@pytest.mark.parametrize("name, value, call", CASES,
                         ids=["%s-%d" % (c[0], i) for i, c in enumerate(CASES)])
def test_bound_admits_itself_and_refuses_one_past(monkeypatch, name, value,
                                                  call):
    monkeypatch.setattr(guards, name, value)
    call()
    monkeypatch.setattr(guards, name, value - 1)
    with pytest.raises(GuardError, match=r"^\w+=%d exceeds the %d-\w+ bound "
                       r"\(guards\.%s\)$" % (value, value - 1, name)):
        call()


def test_parse_memory_per_character():
    # the cost behind guards.MAX_INPUT_BYTES: parsing a graph file peaks
    # near 13 B per character traced
    text = graphs.format_graph(graphs.sample_uniform(10 ** 5, 3,
                                                     rng.stream(1, 0)))
    tracemalloc.start()
    try:
        graphs.parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15 * len(text), peak / len(text)


def _census_wedges():
    # a d = 12 graph: units are sum_u C(fdeg(u), 2) over the distinct
    # non-loop edges (u, v), u < v, which cycle_census checks at L >= 3
    G = graphs.sample_uniform(10 ** 4, 12, rng.stream(1, 0))
    edges = np.unique(np.sort(G.edges, axis=1), axis=0)
    fdeg = np.bincount(edges[edges[:, 0] != edges[:, 1], 0], minlength=G.n)
    return (lambda: graphs.cycle_census(G, 3),
            int((fdeg * (fdeg - 1) // 2).sum()))


def _planted_core():
    # the costliest sampler use, a core-profile sample: a d = 12 planted
    # sample at k = 4 and its (sigma, ell)-core analysis, per clone dn
    def call():
        G, sigma = experiments.sample_flat_planted(6000, 12, 4,
                                                   rng.stream(1, 0))
        clustergeo.core_analysis(G, sigma, 2)
    return call, 6000 * 12


def _optimizer_starts():
    # k = 3, the most bytes per entry (per-start rows and the trace); a warm
    # call first, as the first one imports parts of numpy.random
    birkhoff.maximize_f(3, 2, restarts=2, rng=rng.stream(0, 0))
    restarts = 3000
    return (lambda: birkhoff.maximize_f(3, 2, restarts=restarts,
                                        rng=rng.stream(1, 0)),
            (restarts + 7) * 9)


def _core_classes():
    # `core` with k = 250 colors on a d = 2 graph, where the n k entries of
    # its class-degree tables and masks outweigh the graph
    n, k = 2000, 250
    graph = graphs.format_graph(graphs.sample_uniform(n, 2, rng.stream(1, 0)))

    def call():
        with tempfile.TemporaryDirectory() as tmp:
            gpath, cpath = Path(tmp) / "g.txt", Path(tmp) / "c.txt"
            gpath.write_text(graph)
            cpath.write_text(" ".join(str(v % k) for v in range(n)) + "\n")
            cli.cmd_core(cli.build_parser().parse_args([
                "--out", os.devnull, "core", "--graph", str(gpath),
                "--coloring", str(cpath), "--k", str(k), "--ell", "1"]))
    return call, n * k


def _experiment_samples():
    # the cheapest kind, with its one metric of small ints (shared objects);
    # a warm call first
    spec = "kind = cycle-census\nn = 2\nd = 1\nL = 1\nsamples = %d\n"
    experiments.run_experiment(experiments.parse_spec(spec % 3))
    samples = 2000
    return (lambda: experiments.run_experiment(experiments.parse_spec(
        spec % samples)), samples)


# (constant, bytes per unit in its comment, the unit, a set-up returning
# the traced call and its number of units)
COSTS = [
    ("MAX_CENSUS_WEDGES", 13, "wedge", _census_wedges),
    ("MAX_SAMPLE_CLONES", 53, "clone", _planted_core),
    # a table holds one block's scan at a time: the whole-range holder is
    # threshold_scan itself (coloring_number, smallest_reliable_k)
    ("MAX_TABLE_ROWS", 89, "row",
     lambda: (lambda: threshold.threshold_scan(3, 10 ** 4 + 2), 10 ** 4)),
    ("MAX_START_ENTRIES", 52, "entry", _optimizer_starts),
    ("MAX_CLASS_ENTRIES", 29, "entry", _core_classes),
    ("MAX_EXPERIMENT_SAMPLES", 32, "metric per sample", _experiment_samples),
]


@pytest.mark.parametrize("name, per_unit, unit, setup", COSTS,
                         ids=[c[0] for c in COSTS])
def test_guard_cost_matches_its_comment(name, per_unit, unit, setup):
    # the comment's figure is the traced peak per unit, within 25%, and the
    # bound admits at most 1 GiB at that figure
    assert "%d B per %s" % (per_unit, unit) in (SRC / "guards.py").read_text()
    assert per_unit * getattr(guards, name) < 2 ** 30
    call, units = setup()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * per_unit * units, peak / units


@pytest.mark.parametrize("k, restarts", [(3, 0), (3, 5), (7, 2)])
def test_start_entries_count_the_starts(k, restarts):
    # maximize_f checks (restarts + 7) k^2 entries against the bound
    starts = birkhoff._starts(k, restarts, np.random.default_rng(0))
    assert sum(s.size for s in starts) == (restarts + 7) * k * k


def test_every_refusal_bound_has_a_case():
    bounds = {name for name in vars(guards) if name.startswith("MAX_")}
    assert {case[0] for case in CASES} == bounds - NOT_REFUSALS


def test_guard_error_is_raised_only_by_guards_and_threshold():
    # guards.check raises every bound refusal; threshold keeps its two
    # refusals that are not bounds (several integers, d at a threshold)
    raised = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "GuardError"):
                raised[path.name] = raised.get(path.name, 0) + 1
    assert raised == {"guards.py": 1, "threshold.py": 2}

