"""The benchmark's tracer pins functions by name: every (module, function) of
`perfbench/tracer.py`'s TARGETS must resolve on regcolor, and a traced CLI
run must count what its counters read off the return values."""

import importlib.util
import json
from pathlib import Path

import numpy as np

import regcolor
from regcolor import cli, clustergeo, colorings, graphs

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # the tracer imports the standard library only
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = _load_tracer().TARGETS
    assert len(targets) == 24
    for module, func, _ in targets:
        assert callable(getattr(getattr(regcolor, module), func)), (module,
                                                                     func)


def test_traced_cli_run_counts_the_peel_and_the_starts(tmp_path):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    assert cli.main(["--seed", "3", "--out", str(gpath), "sample", "--n",
                     "60", "--d", "6", "--k", "3", "--planted",
                     "--coloring-out", str(cpath)]) == 0
    tracer = _load_tracer().Tracer(regcolor)
    try:
        tracer.install()
        assert cli.main(["--out", str(tmp_path / "core.json"), "core",
                         "--graph", str(gpath), "--coloring", str(cpath),
                         "--k", "3", "--ell", "1"]) == 0
        assert cli.main(["--out", str(tmp_path / "opt.json"), "optimize",
                         "--k", "3", "--d", "5", "--restarts", "0"]) == 0
    finally:
        tracer.uninstall()
    G = graphs.parse_graph(gpath.read_text())
    sigma = colorings.coloring(
        [int(c) for c in cpath.read_text().split()], 3)
    core = clustergeo.sigma_ell_core(G, sigma, 1).core
    assert 0 < G.n - np.count_nonzero(core) < G.n  # a few vertices peel
    assert json.loads((tmp_path / "core.json").read_text())["core_size"] == \
        np.count_nonzero(core)
    assert tracer.counts["clustergeo.sigma_ell_core.peeled"] == \
        G.n - np.count_nonzero(core)
    assert tracer.counts["birkhoff.maximize_f.starts"] == 7
    assert tracer.counts["cli.main.calls"] == 2
