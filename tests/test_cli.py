import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcolor import (cli, clustergeo, colorings, experiments, graphs,
                      moments, rng, threshold)
from regcolor.errors import ValidationError


def run(argv):
    return cli.main(argv)


def test_sample_and_count(tmp_path):
    gpath = tmp_path / "g.txt"
    assert run(["--seed", "1", "--out", str(gpath),
                "sample", "--n", "10", "--d", "3"]) == 0
    G = graphs.read_graph(gpath)
    assert G.n == 10 and G.d == 3
    assert graphs.degrees(G).tolist() == [3] * 10

    out = tmp_path / "count.json"
    assert run(["--out", str(out), "count", "--graph", str(gpath),
                "--k", "3"]) == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == str(colorings.count_colorings(G, 3))


def test_sample_planted_and_predicates(tmp_path):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.txt"
    assert run(["--seed", "2", "--out", str(gpath), "sample", "--n", "12",
                "--d", "4", "--k", "3", "--planted",
                "--coloring-out", str(cpath)]) == 0
    out = tmp_path / "p.json"
    assert run(["--out", str(out), "count", "--graph", str(gpath), "--k", "3",
                "--predicate", "proper", "--coloring", str(cpath)]) == 0
    assert json.loads(out.read_text()) == {"predicate": "proper", "value": True}
    assert run(["--out", str(out), "count", "--graph", str(gpath), "--k", "3",
                "--predicate", "balanced", "--coloring", str(cpath)]) == 0
    assert json.loads(out.read_text())["value"] is True
    assert run(["--out", str(out), "count", "--graph", str(gpath), "--k", "3",
                "--predicate", "rainbow", "--coloring", str(cpath)]) == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == len(doc["witnesses"])
    assert run(["--out", str(out), "count", "--graph", str(gpath), "--k", "3",
                "--predicate", "vacant", "--coloring", str(cpath)]) == 0
    assert json.loads(out.read_text())["value"] >= 0
    assert run(["--out", str(out), "count", "--graph", str(gpath), "--k", "3",
                "--predicate", "nice", "--coloring", str(cpath)]) == 0
    doc = json.loads(out.read_text())
    assert doc["witnesses"]["condition1"] is True
    # unknown predicate refuses with exit code 2
    assert run(["count", "--graph", str(gpath), "--k", "3",
                "--predicate", "sparkly", "--coloring", str(cpath)]) == 2


def test_count_guard_exit_code(tmp_path):
    gpath = tmp_path / "big.txt"
    assert run(["--seed", "0", "--out", str(gpath),
                "sample", "--n", "40", "--d", "3"]) == 0
    assert run(["count", "--graph", str(gpath), "--k", "3"]) == 2


@pytest.mark.parametrize("flags, needle", [
    (["--k", "3", "--filter", "profile", "--profile", "1/3,abc,1/3"],
     "--profile entry 'abc'"),
    (["--k", "3", "--filter", "profile", "--profile", "1/0,0,0"],
     "--profile entry '1/0'"),
    (["--k", "2", "--filter", "profile", "--profile", "3/2,-1/2"],
     "profile entries must be >= 0"),
    (["--k", "0"], "k >= 1"),
    (["--k", "-2"], "k >= 1"),
], ids=["profile-abc", "profile-zero-denominator", "profile-negative",
        "k-0", "k-minus-2"])
def test_count_refusals(flags, needle, tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("3 2\n0 1\n1 2\n0 2\n")
    refused(["count", "--graph", str(gpath)] + flags, capsys, needle)


def test_count_profile(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("3 2\n0 1\n1 2\n0 2\n")
    out = tmp_path / "count.json"
    assert run(["--out", str(out), "count", "--graph", str(gpath), "--k", "3",
                "--filter", "profile", "--profile", "1/3, 1/3 ,1/3"]) == 0
    assert json.loads(out.read_text())["count"] == "6"


def test_python_dash_m(tmp_path):
    src = Path(colorings.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "regcolor", "rates",
                           "--k", "3", "--d", "5"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["k"] == 3
    proc = subprocess.run([sys.executable, "-m", "regcolor", "count",
                           "--graph", str(tmp_path / "nope.txt"), "--k", "3"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("refused: cannot open")


def test_rates(tmp_path):
    out = tmp_path / "r.json"
    assert run(["--out", str(out), "rates", "--k", "3", "--d", "5"]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["first_moment_rate"] - moments.first_moment_rate(3, 5)) < 1e-12
    assert doc["balanced_polynomial_exponent"] == -1.0
    assert abs(doc["second_moment_flat"] - 2 * doc["first_moment_rate"]) < 1e-12
    csv = tmp_path / "r.csv"
    assert run(["--out", str(csv), "rates", "--k-range", "3..4",
                "--d-range", "5..6"]) == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0].startswith("k,d,first_moment_rate")
    assert len(lines) == 5
    assert run(["rates"]) == 2  # neither point nor sweep


def test_optimize(tmp_path):
    out = tmp_path / "o.json"
    assert run(["--seed", "3", "--out", str(out), "optimize", "--k", "3",
                "--d", "2", "--restarts", "3"]) == 0
    doc = json.loads(out.read_text())
    assert doc["exceeded_flat"] is False
    assert abs(doc["f_flat"] - 2 * moments.first_moment_rate(3, 2)) < 1e-12
    assert len(doc["argmax"]) == 3


def test_core(tmp_path):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.txt"
    assert run(["--seed", "4", "--out", str(gpath), "sample", "--n", "30",
                "--d", "6", "--k", "3", "--planted",
                "--coloring-out", str(cpath)]) == 0
    out = tmp_path / "core.json"
    assert run(["--out", str(out), "core", "--graph", str(gpath),
                "--coloring", str(cpath), "--k", "3", "--ell", "1"]) == 0
    doc = json.loads(out.read_text())
    assert doc["inclusion_ok"] is True
    assert 0 <= doc["core_size"] <= 30
    assert doc["complete"] + doc["F1"] == 30


def test_threshold(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["--out", str(out), "threshold", "--k-range", "3..6"]) == 0
    assert out.read_text() == threshold.format_csv(3, 6)
    out2 = tmp_path / "t0.csv"
    assert run(["--out", str(out2), "threshold", "--k-range", "3..6",
                "--eps-mode", "zero"]) == 0
    assert out2.read_text() == threshold.format_csv(3, 6, "zero")


def test_experiment(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = cycle-census\nn = 100\nd = 3\nL = 2\n"
                    "samples = 4\nseed = 11\n")
    out = tmp_path / "e.json"
    assert run(["--out", str(out), "experiment", "--spec", str(spec)]) == 0
    doc = json.loads(out.read_text())
    assert doc["spec"]["samples"] == 4
    assert "xi_2" in doc["metrics"]
    csvout = tmp_path / "e.csv"
    assert run(["--format", "csv", "--out", str(csvout), "experiment",
                "--spec", str(spec)]) == 0
    assert csvout.read_text().startswith("metric,mean")
    # --seed overrides the spec seed
    out2 = tmp_path / "e2.json"
    assert run(["--seed", "99", "--out", str(out2), "experiment",
                "--spec", str(spec)]) == 0
    assert json.loads(out2.read_text())["spec"]["seed"] == 99
    # --seed 0 is an override too, not the same as leaving it out
    assert run(["--seed", "0", "--out", str(out2), "experiment",
                "--spec", str(spec)]) == 0
    assert json.loads(out2.read_text())["spec"]["seed"] == 0
    assert run(["--out", str(out2), "experiment", "--spec", str(spec)]) == 0
    assert json.loads(out2.read_text())["spec"]["seed"] == 11


def refused(argv, capsys, needle):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused:") and needle in err, err


def test_threshold_refusals(tmp_path, capsys):
    refused(["threshold", "--k-range", "3..x"], capsys, "--k-range")
    refused(["threshold", "--k-range", "5..4"], capsys, "--k-range")
    refused(["threshold", "--k-range", "3..10", "--eps-mode", "value"],
            capsys, "eps_value")
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = threshold-table\nk_lo = 3\nk_hi = 10\n"
                    "eps_mode = value\n")
    refused(["experiment", "--spec", str(spec)], capsys, "eps_value")
    refused(["threshold", "--k-range", "3..100", "--eps-mode", "value",
             "--eps-value", "0.4"], capsys, "contains 2 integers")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_refusals(value, tmp_path, capsys):
    # the --flag=value form, since argparse reads "-inf" as an option
    refused(["threshold", "--k-range", "3..5", "--eps-mode", "value",
             "--eps-value=" + value], capsys, "finite eps_value")
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = threshold-table\nk_lo = 3\nk_hi = 5\n"
                    "eps_mode = value\neps_value = %s\n" % value)
    refused(["experiment", "--spec", str(spec)], capsys, "finite eps_value")
    refused(["rates", "--k", "3", "--d=" + value], capsys,
            "--d must be a finite number")
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    assert run(["--out", str(gpath), "sample", "--planted", "--n", "6",
                "--d", "2", "--k", "3", "--coloring-out", str(cpath)]) == 0
    refused(["count", "--graph", str(gpath), "--k", "3", "--predicate",
             "separable", "--coloring", str(cpath), "--kappa=" + value],
            capsys, "kappa must be a finite number")


def test_rates_accepts_negative_d(capsys):
    assert run(["rates", "--k", "3", "--d", "-2.5"]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == -2.5


def test_rates_range_refusals(capsys):
    refused(["rates", "--k-range", "3..4", "--d-range", "5"], capsys,
            "--d-range")
    refused(["rates", "--k-range", "4..3", "--d-range", "5..6"], capsys,
            "--k-range")


def test_coloring_refusals(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    assert run(["--seed", "4", "--out", str(gpath), "sample", "--n", "12",
                "--d", "4", "--k", "3", "--planted"]) == 0
    refused(["count", "--graph", str(gpath), "--k", "3", "--predicate",
             "proper"], capsys, "--coloring")
    short = tmp_path / "short.txt"
    short.write_text("0 1 2\n")
    refused(["core", "--graph", str(gpath), "--coloring", str(short),
             "--k", "3"], capsys, "3 entries")
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 x\n")
    refused(["core", "--graph", str(gpath), "--coloring", str(bad),
             "--k", "3"], capsys, "'x'")


def test_stdout_path(capsys):
    assert run(["rates", "--k", "3", "--d", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 3


@pytest.mark.parametrize("flags, needle", [
    (["--d", "-5"], "d must be positive"),
    (["--d", "0"], "d must be positive"),
    (["--restarts", "-3"], "restarts"),
    (["--region", "x-stable"], "--region"),
    (["--region", "3-stbl"], "--region"),
])
def test_optimize_refusals(flags, needle, capsys):
    argv = ["optimize", "--k", "3", "--d", "5", "--restarts", "1"]
    refused(argv + flags, capsys, needle)


def test_optimize_region(tmp_path):
    out = tmp_path / "o.json"
    assert run(["--out", str(out), "optimize", "--k", "3", "--d", "20",
                "--restarts", "1", "--region", "3-stable"]) == 0
    assert json.loads(out.read_text())["region"] == "3-stable"


def test_spec_refusals(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = optimize-sweep\nk = 3\nd = -5\n")
    refused(["experiment", "--spec", str(spec)], capsys, "d must be positive")
    spec.write_text("kind = cycle-census\nn = 10\nd = 3\nsamples = many\n")
    refused(["experiment", "--spec", str(spec)], capsys, "'many'")
    spec.write_text("kind = cycle-census\nn = 10\nd = 3\nseed = -1\n")
    refused(["experiment", "--spec", str(spec)], capsys, "seed")
    refused(["--seed", "-1", "sample", "--n", "10", "--d", "3"], capsys,
            "seed")


@pytest.mark.parametrize("text, needle", [
    ("kind = cycle-census\nd = 3\n", "cycle-census spec needs n"),
    ("kind = cycle-census\nn = abc\nd = 3\n", "n must be an integer"),
    ("kind = cycle-census\nn = 10\nd = 3\nL = 2.5\n",
     "L must be an integer"),
    ("kind = colorability-frequency\nn = 10\nd = 3\n",
     "colorability-frequency spec needs k"),
    ("kind = colorability-frequency\nn = 10\nd = 3\nk = 0\n",
     "exact counting needs k >= 1"),
    ("kind = vacant-fractions\nn = 10\nd = x\nk = 2\n",
     "d must be an integer"),
    ("kind = core-profile\nn = 12\nd = 4\nk = 3\nell = one\n",
     "ell must be an integer"),
    ("kind = moment-vs-oracle\nd = 2\nk = 3\n",
     "moment-vs-oracle spec needs n"),
    ("kind = optimize-sweep\nk = 3\nd = 3.5\n", "d must be an integer"),
    ("kind = optimize-sweep\nk = 3\nd = 5\nrestarts = some\n",
     "restarts must be an integer"),
    ("kind = threshold-table\nk_lo = 3\n",
     "threshold-table spec needs k_hi"),
    ("kind = threshold-table\nk_lo = 3\nk_hi = 9\neps_mode = value\n"
     "eps_value = small\n", "eps_value must be a number"),
], ids=["census-no-n", "census-n-abc", "census-L-float", "colorable-no-k",
        "colorable-k-0", "vacant-d-x", "core-ell-one", "moment-no-n",
        "sweep-d-float", "sweep-restarts-some", "table-no-k_hi",
        "table-eps_value-small"])
def test_spec_parameter_refusals(text, needle, tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(text)
    refused(["experiment", "--spec", str(spec)], capsys, needle)


def test_undecodable_file_refusals(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.txt"
    assert run(["--seed", "4", "--out", str(gpath), "sample", "--n", "12",
                "--d", "4", "--k", "3", "--planted",
                "--coloring-out", str(cpath)]) == 0
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe3\x002\x00\n\x00")
    refused(["count", "--graph", str(bad), "--k", "3"], capsys, str(bad))
    refused(["core", "--graph", str(gpath), "--coloring", str(bad),
             "--k", "3"], capsys, str(bad))
    refused(["experiment", "--spec", str(bad)], capsys, str(bad))


def test_missing_file_refusals(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.txt"
    assert run(["--seed", "4", "--out", str(gpath), "sample", "--n", "12",
                "--d", "4", "--k", "3", "--planted",
                "--coloring-out", str(cpath)]) == 0
    missing = str(tmp_path / "nope.txt")
    refused(["core", "--graph", missing, "--coloring", str(cpath),
             "--k", "3"], capsys, missing)
    refused(["core", "--graph", str(gpath), "--coloring", missing,
             "--k", "3"], capsys, missing)
    refused(["count", "--graph", missing, "--k", "3"], capsys, missing)
    refused(["experiment", "--spec", missing], capsys, missing)
    bad_out = str(tmp_path / "no-dir" / "out.json")
    refused(["--out", bad_out, "rates", "--k", "3", "--d", "5"], capsys,
            bad_out)


def test_graph_file_refusals(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    for text, needle in [("3 x\n", "'3 x'"),
                         ("3 2\n0 1\n1 2\n2 0 1\n", "'2 0 1'"),
                         ("-4 2\n", "n, d >= 0"),
                         ("4 3\n0 1\n", "n*d/2 edges")]:
        gpath.write_text(text)
        refused(["count", "--graph", str(gpath), "--k", "3"], capsys, needle)


@pytest.mark.parametrize("flags", [
    ["count", "--predicate", "balanced", "--k", "0"],
    ["core", "--k", "0"],
    ["count", "--k", "2", "--filter", "skewed"]])
def test_empty_graph_refusals(flags, tmp_path, capsys):
    # each of these failed inside the program on a graph with no vertex
    gpath = tmp_path / "g.txt"
    gpath.write_text("0 0\n")
    cpath = tmp_path / "c.txt"
    cpath.write_text("\n")
    refused(flags + ["--graph", str(gpath), "--coloring", str(cpath)],
            capsys, "n >= 1")


def test_parser_shared_across_calls(tmp_path, capsys):
    # main reuses one parser: options of one call must not reach the next
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    out = tmp_path / "o.json"
    assert run(["--seed", "5", "--out", str(gpath), "sample", "--n", "12",
                "--d", "4", "--k", "3", "--planted",
                "--coloring-out", str(cpath)]) == 0
    assert run(["sample", "--n", "6", "--d", "2"]) == 0
    assert capsys.readouterr().out == graphs.format_graph(graphs.contract(
        graphs.sample_configuration(6, 2, rng.stream(0, 0))))
    core = ["core", "--graph", str(gpath), "--coloring", str(cpath),
            "--k", "3"]
    assert run(["--out", str(out), *core, "--ell", "1", "--mode",
                "strict"]) == 0
    assert run(["--out", str(out), *core]) == 0
    G = graphs.read_graph(gpath)
    sigma = colorings.parse_coloring(cpath.read_text(), 3)
    assert json.loads(out.read_text())["core_size"] == len(
        clustergeo.sigma_ell_core(G, sigma, 3).core)
    args = vars(cli.build_parser().parse_args(core))
    assert {key: args[key] for key in ("seed", "out", "ell", "mode")} == \
        {"seed": None, "out": None, "ell": 3, "mode": "prose"}
    assert "planted" not in args and "n" not in args


class _ClosedPipe:
    def write(self, data):
        raise BrokenPipeError


def test_broken_pipe_exits_zero(monkeypatch):
    monkeypatch.setattr(cli.sys, "stdout", _ClosedPipe())
    assert run(["rates", "--k", "3", "--d", "5"]) == 0


_spec_lines = st.lists(st.tuples(
    st.sampled_from(("kind", "samples", "seed", "n", "d", "k")) | st.text(),
    st.sampled_from(experiments.KINDS) | st.integers().map(str) | st.text(),
).map(lambda kv: "%s = %s" % kv))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("graph", "spec", "coloring")),
       st.text() | st.text("0123456789 -\n") | _spec_lines.map("\n".join))
def test_parsers_refuse_only_with_validation_error(parser, text):
    try:
        if parser == "graph":
            graphs.parse_graph(text)
        elif parser == "spec":
            experiments.parse_spec(text)
        else:
            colorings.parse_coloring(text, 3)
    except ValidationError:
        pass


def test_skewed_predicate(tmp_path):
    gpath = tmp_path / "g.txt"
    cpath = tmp_path / "c.txt"
    assert run(["--seed", "2", "--out", str(gpath), "sample", "--n", "12",
                "--d", "3", "--k", "3", "--planted",
                "--coloring-out", str(cpath)]) == 0
    out = tmp_path / "p.json"
    assert run(["--out", str(out), "count", "--graph", str(gpath), "--k", "3",
                "--predicate", "skewed", "--coloring", str(cpath)]) == 0
    # a planted flat profile has every e(V_i, V_j) on target
    assert json.loads(out.read_text()) == {"predicate": "skewed",
                                           "value": False}


def test_skewed_refuses_one_color(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("4 0\n")
    cpath = tmp_path / "c.txt"
    cpath.write_text("0 0 0 0\n")
    refused(["count", "--graph", str(gpath), "--k", "1", "--predicate",
             "skewed", "--coloring", str(cpath)], capsys, "k >= 2")


@pytest.mark.parametrize("k", [0, 1])
def test_sample_planted_refuses_few_colors(k, capsys):
    refused(["sample", "--planted", "--n", "12", "--d", "4", "--k", str(k)],
            capsys, "flat planting needs k >= 2")


@pytest.mark.parametrize("kind", ["vacant-fractions", "core-profile"])
@pytest.mark.parametrize("k", [0, 1])
def test_planted_spec_refuses_few_colors(kind, k, tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = %s\nn = 12\nd = 4\nk = %d\n" % (kind, k))
    refused(["experiment", "--spec", str(spec)], capsys,
            "flat planting needs k >= 2")


def test_exit_code_sweep(tmp_path, capsys):
    # every subcommand over small values around 0: a refusal exits 2, never
    # 1 (an internal error)
    small = ("-1", "0", "1", "2", "3")
    # passed as --flag=value: argparse reads "-inf" as an option
    floats = ("nan", "inf", "-inf", "-0.5", "0.5")
    internal = []

    def go(*argv):
        code = run([str(a) for a in argv])
        err = capsys.readouterr().err
        if code not in (0, 2):
            internal.append((argv, code, err))
        return code

    files = []
    for n, d, k in itertools.product(("-1", "0", "1", "6"), small, small):
        gpath = tmp_path / ("g%s_%s_%s" % (n, d, k))
        cpath = tmp_path / ("c%s_%s_%s" % (n, d, k))
        if go("--seed", "1", "--out", gpath, "sample", "--planted", "--n", n,
              "--d", d, "--k", k, "--coloring-out", cpath) == 0:
            files.append((gpath, cpath))
    assert len(files) == 6
    one_color = tmp_path / "zeros.txt"
    one_color.write_text("0 " * 6)
    for gpath, cpath in files:
        for k, coloring in itertools.product(small, (cpath, one_color)):
            for predicate in ("proper", "balanced", "skewed", "separable",
                              "nice", "rainbow", "vacant"):
                go("count", "--graph", gpath, "--k", k, "--predicate",
                   predicate, "--coloring", coloring)
            for kappa in floats:
                go("count", "--graph", gpath, "--k", k, "--predicate",
                   "separable", "--coloring", coloring, "--kappa=" + kappa)
            for ell, mode in itertools.product(small[:4], ("prose", "strict")):
                go("core", "--graph", gpath, "--coloring", coloring, "--k", k,
                   "--ell", ell, "--mode", mode)
        for k, flags in itertools.product(small, (
                ["--filter", "none"], ["--filter", "balanced"],
                ["--filter", "profile", "--profile", "1/2,1/2"],
                ["--filter", "skewed"], ["--filter", "nice12"])):
            go("count", "--graph", gpath, "--k", k, *flags)
    for k, d in itertools.product(small, small + floats):
        go("rates", "--k", k, "--d=" + d)
        go("optimize", "--k", k, "--d=" + d, "--restarts", "1")
    go("rates", "--k-range=-1..3", "--d-range=-1..3")
    for eps_mode, eps in itertools.product(("pow09", "zero", "value"),
                                           floats):
        go("threshold", "--k-range", "3..5", "--eps-mode", eps_mode,
           "--eps-value=" + eps)

    spec = tmp_path / "spec.txt"
    sizes = {"n": ("-1", "0", "1", "4"), "d": small[:4], "k": small[:4],
             "ell": small[:3], "L": small[:4], "k_lo": small, "k_hi": small,
             "eps_mode": ("pow09", "value"), "eps_value": floats}
    for kind in experiments.KINDS:
        required, optional = experiments._PARAMS[kind]
        keys = [key for key in required + optional if key in sizes]
        for values in itertools.product(*(sizes[key] for key in keys)):
            spec.write_text("kind = %s\nrestarts = 1\n" % kind + "".join(
                "%s = %s\n" % kv for kv in zip(keys, values)))
            go("experiment", "--spec", spec)
    assert internal == []


# sha256 of the `core` JSON (the same for both modes: a planted coloring is
# proper) and of the core-profile JSON (2 samples), planted at seed 4
_CORE_PINS = {
    (300, 9, 3, 1): (
        "d5739157a24ef464fac92235aeec14779d1c38779c1ddefaf8903422c7a0b0b8",
        "c519429fc3df73b6caf8fecaedfdff11c0e580aa5403db08d2ab94465cd7a9f6"),
    (300, 9, 3, 2): (
        "e36ae60ec2fd92b00ea870748cca91abc2d99deb2c4b5a331935acd261b4431d",
        "f42bb8888ce4fa1793afd95169d9a02b935f9b908e7e7dc5a20127aeb4cc5c2e"),
    (300, 9, 3, 3): (
        "c412eed706fd448db97e08a75ebb60b387bd1d87142f75490b67ac5e3462815f",
        "461a80a11b6e615d6d1710f064fdbcfcfe2a0ef9096005f3ab07c70d33f83d95"),
    (400, 12, 4, 1): (
        "72bca5bf1761a65a7eb0564f3245e5ce74c8f932f6a54b95406774cdbd9226d3",
        "09d04fb0df45c1492d450c60cd47efe4e44b4839c28c98a75ad53f59d74135b3"),
    (400, 12, 4, 2): (
        "de92ea19c1da7368cf29555edf44061d0bb7f8380957fcd8cd96fe3657bfa08a",
        "5411d3c6d2a754a2bc11c3dce45aa638edb17c56eacefa95c6c7725a5e96d2c7"),
    (400, 12, 4, 3): (
        "64a0377d453754e87574d824dcd9657ed8d97b57cd82ccf0aeeaf0d03125309c",
        "effe628cc9a11dcd0692138701e4557233f509818e59f664681a49910addaaa4"),
}


# sha256 of the `sample --planted` graph file at seed 4
_PLANTED_PINS = {
    (300, 9, 3):
        "4187d02e3329be9407d52d51ed7204a7f6c7b805c1a8662c317d9a421ed5fa15",
    (400, 12, 4):
        "bf2c65b7ee6263f29c70778f8686f867e5d3f3a497b4b5a08d1e16864e6575c3",
    (996, 15, 6):
        "143ee783bb5f3bc78dcc88d30ec10bf167c8f838c47d86fe715f6c5d6d75fc24",
}


@pytest.mark.parametrize("n, d, k", sorted(_PLANTED_PINS))
def test_sample_planted_pinned(n, d, k, tmp_path):
    gpath = tmp_path / "g"
    assert run(["--seed", "4", "--out", str(gpath), "sample", "--planted",
                "--n", str(n), "--d", str(d), "--k", str(k)]) == 0
    assert (hashlib.sha256(gpath.read_bytes()).hexdigest()
            == _PLANTED_PINS[(n, d, k)])


@pytest.mark.parametrize("n, d, k, ell", sorted(_CORE_PINS))
def test_core_outputs_pinned(n, d, k, ell, tmp_path):
    core_digest, profile_digest = _CORE_PINS[(n, d, k, ell)]
    gpath, cpath, out = tmp_path / "g", tmp_path / "c", tmp_path / "o"
    assert run(["--seed", "4", "--out", str(gpath), "sample", "--planted",
                "--n", str(n), "--d", str(d), "--k", str(k),
                "--coloring-out", str(cpath)]) == 0
    for mode in ("prose", "strict"):
        assert run(["--out", str(out), "core", "--graph", str(gpath),
                    "--coloring", str(cpath), "--k", str(k), "--ell",
                    str(ell), "--mode", mode]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == core_digest
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = core-profile\nn = %d\nd = %d\nk = %d\nell = %d\n"
                    "samples = 2\nseed = 4\n" % (n, d, k, ell))
    assert run(["--out", str(out), "experiment", "--spec", str(spec)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == profile_digest
