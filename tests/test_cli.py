import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regcolor import (cli, clustergeo, colorings, experiments, graphs,
                      guards, moments, rng, threshold)
from regcolor.errors import GuardError, ValidationError


def run(argv):
    return cli.main(argv)


def test_sample_and_count(tmp_path):
    gpath = tmp_path / "g.txt"
    assert run(["--seed", "1", "--out", str(gpath),
                "sample", "--n", "10", "--d", "3"]) == 0
    G = graphs.parse_graph(gpath.read_text())
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


@pytest.mark.parametrize("profile", ["1/3,1/3", "1/4,1/4"])
def test_count_profile_of_wrong_shape_refused(profile, tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("4 2\n0 1\n1 2\n2 3\n0 3\n")
    refused(["count", "--graph", str(gpath), "--k", "3", "--filter",
             "profile", "--profile", profile], capsys,
            "profile must have k entries summing to 1")


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


def test_refusals_under_a_memory_limit(tmp_path):
    # inputs that would allocate by k, or overflow d / 2, unless refused
    # first: each child runs under a 512 MiB address-space limit, so a
    # regression fails here instead of pressing on the machine's memory
    src = Path(colorings.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    assert run(["--out", str(gpath), "sample", "--n", "12", "--d", "4"]) == 0
    cpath.write_text("0 1 2 " * 4)
    huge_k, huge_d = str(10 ** 10), "4" + "0" * 308
    argvs = [["sample", "--planted", "--n", "0", "--d", "2", "--k", huge_k],
             ["rates", "--k-range", "3..3",
              "--d-range", huge_d + ".." + huge_d]]
    for kind in ("core-profile", "vacant-fractions"):
        spec = tmp_path / (kind + ".txt")
        spec.write_text("kind = %s\nn = 0\nd = 2\nk = %s\n" % (kind, huge_k))
        argvs.append(["experiment", "--spec", str(spec)])
    for command in (["core"], *(["count", "--predicate", p]
                                for p in ("nice", "rainbow", "vacant"))):
        argvs.append(command + ["--graph", str(gpath), "--coloring",
                                str(cpath), "--k", str(10 ** 8)])

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "regcolor", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120, preexec_fn=limit)
        assert proc.returncode == 2, (argv, proc.stderr)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("refused: "), lines


def test_argv_grammar(tmp_path):
    # hypothesis over every subcommand, each option given or not, values from
    # a boundary set (tests/argv_grammar.py): exit 0, or 2 with one refusal
    # line; 300 examples in one child that turns RuntimeWarnings into errors,
    # under the 512 MiB address-space limit of the test above
    script = Path(__file__).with_name("argv_grammar.py")
    src = Path(colorings.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(script), "300", str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=600, preexec_fn=limit)
    assert proc.returncode == 0, proc.stdout + proc.stderr


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
    assert out.read_text() == "".join(threshold.format_csv(3, 6))
    out2 = tmp_path / "t0.csv"
    assert run(["--out", str(out2), "threshold", "--k-range", "3..6",
                "--eps-mode", "zero"]) == 0
    assert out2.read_text() == "".join(threshold.format_csv(3, 6, "zero"))


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


@pytest.mark.parametrize("argv, flag", [
    (["--seed", "5", "rates", "--k", "3", "--d", "4"], "--seed"),
    (["--seed", "3", "core", "--graph", "G", "--coloring", "C", "--k", "3"],
     "--seed"),
    (["threshold", "--k-range", "3..4", "--eps-value", "0.3"], "--eps-value"),
    (["optimize", "--k", "3", "--d", "5", "--kappa", "0.7"], "--kappa"),
    (["rates", "--k", "3", "--d", "4", "--k-range", "3..4", "--d-range",
      "1..2"], "--k"),
    (["count", "--graph", "G", "--k", "3", "--predicate", "proper",
      "--coloring", "C", "--check-cluster"], "--check-cluster"),
    (["count", "--graph", "G", "--k", "3", "--predicate", "proper",
      "--coloring", "C", "--kappa", "0.3"], "--kappa"),
    (["count", "--graph", "G", "--k", "3", "--predicate", "proper",
      "--coloring", "C", "--filter", "balanced"], "--filter"),
    (["count", "--graph", "G", "--k", "3", "--coloring", "C"], "--coloring"),
    (["sample", "--n", "6", "--d", "3", "--planted"], "--planted"),
    (["count", "--graph", "G", "--k", "3", "--predicate", "proper"],
     "--predicate"),
])
def test_unread_options_refused(argv, flag, tmp_path, capsys):
    # each gives an option where no mode reads it: one refusal naming it
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    assert run(["--out", str(gpath), "sample", "--planted", "--n", "12",
                "--d", "4", "--k", "3", "--coloring-out", str(cpath)]) == 0
    files = {"G": str(gpath), "C": str(cpath)}
    assert run([files.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("refused: %s " % flag), err


@pytest.mark.parametrize("argv, needle", [
    (["sample", "--n", "x", "--d", "3"], "argument --n: invalid int value"),
    (["sample", "--n", "3", "--d", "3", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["sample", "--n", "3"], "the following arguments are required: --d"),
    ([], "the following arguments are required: command"),
    (["sparkly"], "argument command: invalid choice: 'sparkly'"),
    (["threshold", "--k-range", "3..x"], "argument --k-range: must be lo..hi"),
    # refused before the (missing) graph file is read
    (["count", "--graph", "missing.txt", "--k", "3", "--predicate", "sparkly",
      "--coloring", "missing.txt"], "argument --predicate: invalid choice"),
    (["count", "--graph", "missing.txt", "--k", "3", "--filter", "sparkly"],
     "argument --filter: invalid choice: 'sparkly'"),
])
def test_usage_errors_are_one_refusal_line(argv, needle, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and err.count("\n") == 1, err
    assert needle in err, err


@pytest.mark.parametrize("argv", [["-h"], ["count", "-h"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: regcolor")


def test_internal_error_exits_1(monkeypatch, capsys):
    # a fault inside the library is exit 1 and one line naming it, and no
    # output is written
    def fail(k, d):
        raise RuntimeError("rate table lost")
    monkeypatch.setattr(moments, "first_moment_rate", fail)
    assert run(["rates", "--k", "3", "--d", "5"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "internal error: rate table lost\n")


def test_float_overflow_refusals(tmp_path, capsys):
    # integers whose float arithmetic would overflow are refused, not an
    # internal error: 2k - 1 in dplus, 2 ell ln k in the W/U/Y sets
    huge = str(4 * 10 ** 308)
    refused(["rates", "--k", huge, "--d", "3"], capsys,
            "--k: 2k overflows a float")
    refused(["rates", "--k-range", "3.." + huge, "--d-range", "1..1"], capsys,
            "--k-range: 2k overflows a float")
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    assert run(["--out", str(gpath), "sample", "--planted", "--n", "6",
                "--d", "2", "--k", "3", "--coloring-out", str(cpath)]) == 0
    refused(["core", "--graph", str(gpath), "--coloring", str(cpath),
             "--k", "3", "--ell", huge], capsys,
            "ell: 2 ell overflows a float")
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = core-profile\nn = 6\nd = 2\nk = 3\nell = %s\n"
                    % huge)
    refused(["experiment", "--spec", str(spec)], capsys,
            "ell: 2 ell overflows a float")


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
    # past 2^52 doubles cannot place the interval ends (k = 10^14 gives lo,
    # hi and d_col equal to 12 digits)
    for k in (10 ** 14, 10 ** 20):
        refused(["threshold", "--k-range", "%d..%d" % (k, k)], capsys,
                "k_hi=%d puts (2k-1) ln k past 2^52" % k)
    # only eps_mode = value reads eps_value, in a spec too
    spec.write_text("kind = threshold-table\nk_lo = 3\nk_hi = 10\n"
                    "eps_value = 0.3\n")
    refused(["experiment", "--spec", str(spec)], capsys,
            "eps_value needs eps_mode=value")


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
    optimize = ["optimize", "--k", "3", "--d", "5", "--restarts", "2",
                "--kappa=" + value]
    # with no region the kappa is not read, and refused as such
    refused(optimize, capsys, "--kappa needs --region <s>-stable")
    refused(optimize + ["--region", "1-stable"], capsys,
            "kappa must be a finite number")


@pytest.mark.parametrize("value", ["1e17", "1e300"])
def test_huge_eps_refusals(value, tmp_path, capsys):
    refused(["threshold", "--k-range", "3..4", "--eps-mode", "value",
             "--eps-value", value], capsys, "at most 2^52")
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = threshold-table\nk_lo = 3\nk_hi = 4\n"
                    "eps_mode = value\neps_value = %s\n" % value)
    refused(["experiment", "--spec", str(spec)], capsys, "at most 2^52")


def test_rates_accepts_negative_d(capsys):
    assert run(["rates", "--k", "3", "--d", "-2.5"]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == -2.5


def test_rates_range_refusals(capsys):
    refused(["rates", "--k-range", "3..4", "--d-range", "5"], capsys,
            "--d-range")
    refused(["rates", "--k-range", "4..3", "--d-range", "5..6"], capsys,
            "--k-range")
    # d / 2 is a float up to about 3.6e308; the sweep's every rate takes it
    huge = "4" + "0" * 308
    for span in (huge + ".." + huge, "1.." + huge, "-%s..1" % huge):
        refused(["rates", "--k-range", "3..3", "--d-range=" + span], capsys,
                "--d-range: d/2 overflows a float")
    big = str(int(sys.float_info.max))
    assert run(["--out", os.devnull, "rates", "--k-range", "3..3",
                "--d-range", big + ".." + big]) == 0


def test_tables_refuse_past_the_row_bound(tmp_path, capsys):
    # one row past the bound, refused before any table exists
    rows = guards.MAX_TABLE_ROWS + 1
    bound = "%d-row bound (guards.MAX_TABLE_ROWS)" % guards.MAX_TABLE_ROWS
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = threshold-table\nk_lo = 3\nk_hi = %d\n"
                    % (rows + 2))
    tracemalloc.start()
    try:
        for argv, needle in (
                (["threshold", "--k-range", "3..%d" % (rows + 2)],
                 "rows=%d exceeds the " % rows),
                (["experiment", "--spec", str(spec)],
                 "rows=%d exceeds the " % rows),
                (["rates", "--k-range", "3..%d" % (rows + 2), "--d-range",
                  "1..1"], "rows=%d exceeds the " % rows),
                (["rates", "--k-range", "3..4", "--d-range",
                  "1..%d" % ((rows + 1) // 2)],
                 "rows=%d exceeds the " % (rows + 1))):
            refused(argv, capsys, needle + bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_class_tables_refuse_past_the_entry_bound(tmp_path, capsys):
    # one entry past the bound, refused before the coloring is parsed or
    # any per-class table exists: n k on a 12-vertex graph, then k^2 once
    # k > n
    bound = guards.MAX_CLASS_ENTRIES
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    assert run(["--out", str(gpath), "sample", "--n", "12", "--d", "4"]) == 0
    cpath.write_text("0 1 2 " * 4)
    k_nk, k_kk = -(-(bound + 1) // 12), math.isqrt(bound) + 1
    assert 12 * k_nk > bound >= 12 * (k_nk - 1) and 12 * k_kk <= bound
    tracemalloc.start()
    try:
        for k, needle in ((k_nk, "nk=%d" % (12 * k_nk)),
                          (k_kk, "kk=%d" % (k_kk * k_kk))):
            for argv in (["core"], ["count", "--predicate", "nice"],
                         ["count", "--predicate", "rainbow"],
                         ["count", "--predicate", "vacant"],
                         ["count", "--predicate", "skewed"]):
                refused(argv + ["--graph", str(gpath), "--coloring",
                                str(cpath), "--k", str(k)], capsys,
                        "%s exceeds the %d-entry bound "
                        "(guards.MAX_CLASS_ENTRIES)" % (needle, bound))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_vacant_refuses_past_its_entry_bound(tmp_path, capsys):
    # the vacant witness lists hold up to n k entries in up to k^2 groups:
    # n k + 3 k^2 one past the bound is refused before the vacant table,
    # at a k that the class-table checks admit
    bound = guards.MAX_CLASS_ENTRIES
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    assert run(["--out", str(gpath), "sample", "--n", "12", "--d", "4"]) == 0
    cpath.write_text("0 1 2 " * 4)
    k = next(k for k in itertools.count(1) if 12 * k + 3 * k * k > bound)
    assert 12 * k <= bound and k * k <= bound
    tracemalloc.start()
    try:
        refused(["count", "--predicate", "vacant", "--graph", str(gpath),
                 "--coloring", str(cpath), "--k", str(k)], capsys,
                "nk_plus_3kk=%d exceeds the %d-entry bound "
                "(guards.MAX_CLASS_ENTRIES)" % (12 * k + 3 * k * k, bound))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_input_files_refuse_past_the_byte_bound(monkeypatch, tmp_path,
                                                capsys):
    # a graph, coloring or spec file one byte past the bound is refused
    # before it is read; the coloring is padded past the graph's size
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    spec = tmp_path / "spec.txt"
    assert run(["--out", str(gpath), "sample", "--n", "12", "--d", "4"]) == 0
    cpath.write_text("0 1 2 " * 4 + " " * gpath.stat().st_size)
    spec.write_text("kind = cycle-census\nn = 4\nd = 2\n")
    count = ["count", "--graph", str(gpath), "--k", "3"]
    tracemalloc.start()
    try:
        for path, argv in (
                (gpath, count),
                (gpath, ["core", "--graph", str(gpath), "--k", "3",
                         "--coloring", str(cpath)]),
                (cpath, count + ["--predicate", "proper", "--coloring",
                                 str(cpath)]),
                (spec, ["experiment", "--spec", str(spec)])):
            size = path.stat().st_size
            monkeypatch.setattr(guards, "MAX_INPUT_BYTES", size - 1)
            refused(argv, capsys, "bytes=%d exceeds the %d-byte bound "
                    "(guards.MAX_INPUT_BYTES)" % (size, size - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_pipe_input_refuses_past_the_byte_bound(monkeypatch, capsys):
    # a pipe's size reads 0, so it is bounded by what is read from it
    text = b"2 1\n0 1\n"
    for bound in (len(text), len(text) - 1):
        monkeypatch.setattr(guards, "MAX_INPUT_BYTES", bound)
        r, w = os.pipe()
        os.write(w, text)
        os.close(w)
        try:
            argv = ["count", "--graph", "/dev/fd/%d" % r, "--k", "2"]
            if bound == len(text):
                assert run(argv) == 0
                assert json.loads(capsys.readouterr().out)["count"] == "2"
            else:
                refused(argv, capsys, "bytes=%d exceeds the %d-byte bound"
                        % (len(text), bound))
        finally:
            os.close(r)


def test_start_entry_bound_allocates_nothing(tmp_path, capsys):
    # one past guards.MAX_START_ENTRIES, by restarts at k = 3 and by k with
    # no random starts, is refused before any start exists
    bound = guards.MAX_START_ENTRIES
    restarts = -(-(bound + 1) // 9) - 7
    k = math.isqrt((bound + 1) // 7 - 1) + 1
    assert (restarts + 7) * 9 > bound >= (restarts + 6) * 9
    assert 7 * k * k > bound >= 7 * (k - 1) ** 2
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = optimize-sweep\nk = 3\nd = 5\nrestarts = %d\n"
                    % restarts)
    tracemalloc.start()
    try:
        for argv, entries in (
                (["optimize", "--k", "3", "--d", "5", "--restarts",
                  str(restarts)], (restarts + 7) * 9),
                (["optimize", "--k", str(k), "--d", "5", "--restarts", "0"],
                 7 * k * k),
                (["experiment", "--spec", str(spec)], (restarts + 7) * 9)):
            refused(argv, capsys, "entries=%d exceeds the %d-entry bound "
                    "(guards.MAX_START_ENTRIES)" % (entries, bound))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_census_refuses_past_the_wedge_bound(monkeypatch, tmp_path, capsys):
    # a 3-regular sample of 100 vertices pairs about 100 triangle wedges
    monkeypatch.setattr(guards, "MAX_CENSUS_WEDGES", 10)
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = cycle-census\nn = 100\nd = 3\nL = 3\n")
    assert run(["experiment", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert re.fullmatch(r"refused: wedges=\d+ exceeds the 10-wedge bound "
                        r"\(guards\.MAX_CENSUS_WEDGES\)", err[0]), err


def test_table_row_bound_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(guards, "MAX_TABLE_ROWS", 6)
    assert len(threshold.threshold_scan(3, 8)["k"]) == 6
    with pytest.raises(GuardError, match="^rows=7 exceeds"):
        threshold.threshold_scan(3, 9)
    assert run(["rates", "--k-range", "3..5", "--d-range", "4..5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 6
    refused(["rates", "--k-range", "3..5", "--d-range", "4..6"], capsys,
            "rows=9 exceeds")


def test_coloring_out_needs_planted(tmp_path, capsys):
    cpath = tmp_path / "c.txt"
    refused(["sample", "--n", "6", "--d", "3", "--coloring-out", str(cpath)],
            capsys, "--coloring-out needs --planted")
    assert not cpath.exists()


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
    # s = 0 is a region too, so --kappa is read with it
    assert run(["--out", str(out), "optimize", "--k", "3", "--d", "5",
                "--restarts", "0", "--region", "0-stable",
                "--kappa", "0.3"]) == 0
    assert json.loads(out.read_text())["region"] == "0-stable"


def test_spec_refusals(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = optimize-sweep\nk = 3\nd = -5\n")
    refused(["experiment", "--spec", str(spec)], capsys, "d must be positive")
    spec.write_text("kind = cycle-census\nn = 10\nd = 3\nsamples = many\n")
    refused(["experiment", "--spec", str(spec)], capsys, "'many'")
    spec.write_text("kind = cycle-census\nn = 10\nd = 3\nseed = -1\n")
    refused(["experiment", "--spec", str(spec)], capsys, "seed")
    # refused before the first sample, which would run without end
    spec.write_text("kind = cycle-census\nn = 4\nd = 2\n"
                    "samples = 1000000000000\n")
    refused(["experiment", "--spec", str(spec)], capsys,
            "samples=1000000000000 exceeds the 1000000-sample bound "
            "(guards.MAX_EXPERIMENT_SAMPLES)")
    refused(["--seed", "-1", "sample", "--n", "10", "--d", "3"], capsys,
            "seed")


def test_table_kind_refuses_a_negative_seed(tmp_path, capsys):
    # a table kind draws no stream, so the seed is checked on its own
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = threshold-table\nk_lo = 3\nk_hi = 4\nseed = -1\n")
    refused(["experiment", "--spec", str(spec)], capsys,
            "seed must be >= 0, got -1")
    spec.write_text("kind = threshold-table\nk_lo = 3\nk_hi = 4\n")
    refused(["--seed", "-1", "experiment", "--spec", str(spec)], capsys,
            "seed must be >= 0, got -1")
    assert run(["--seed", "0", "experiment", "--spec", str(spec)]) == 0


def test_rates_sweep_pinned(capsys):
    # k = 2 has no dplus (nan); negative d is accepted; k < 2 is refused
    assert run(["rates", "--k-range", "2..30", "--d-range=-3..50"]) == 0
    assert (hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            == "45f0f8924f6be064141ce9b05b1b356d3057a785138a43380881676277cee20f")
    refused(["rates", "--k-range", "1..3", "--d-range", "1..3"], capsys,
            "k >= 2 required")


def test_rates_sweep_refuses_before_the_output_opens(tmp_path, capsys):
    out = tmp_path / "F"
    refused(["--out", str(out), "rates", "--k-range", "1..3", "--d-range",
             "1..3"], capsys, "k >= 2 required")
    assert not out.exists()


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
    ("kind = cycle-census\nn = 100\nd = 3\nl = 5\n",
     "cycle-census spec does not read l (its parameters: n, d, L)"),
    ("kind = colorability-frequency\nn = 10\nd = 3\nk = 3\nrestarts = 1\n",
     "colorability-frequency spec does not read restarts (its parameters: "
     "n, d, k)"),
    ("kind = cycle-census\nn = 100\nd = 3\nkind = core-profile\n",
     "spec gives kind twice"),
    ("kind = cycle-census\nn = 100\nd = 3\nseed = 1\nseed = 2\n",
     "spec gives seed twice"),
], ids=["census-no-n", "census-n-abc", "census-L-float", "colorable-no-k",
        "colorable-k-0", "vacant-d-x", "core-ell-one", "moment-no-n",
        "sweep-d-float", "sweep-restarts-some", "table-no-k_hi",
        "table-eps_value-small", "census-unread-l",
        "colorable-unread-restarts", "kind-twice", "seed-twice"])
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
    # the coloring is given where it is read
    reads = flags[0] == "core" or "--predicate" in flags
    refused(flags + ["--graph", str(gpath)]
            + ["--coloring", str(cpath)] * reads, capsys, "n >= 1")


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
    G = graphs.parse_graph(gpath.read_text())
    sigma = colorings.parse_coloring(cpath.read_text(), 3)
    assert json.loads(out.read_text())["core_size"] == np.count_nonzero(
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


def test_write_streams_a_document(tmp_path):
    # a document of several MB of JSON is written piece by piece: neither
    # its text nor the list of its pieces is held
    doc = {"value": 1, "witnesses": {"0,1": list(range(300000))}}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert len(text) > 3 * 10 ** 6
    tracemalloc.start()
    try:
        cli._write(os.devnull, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) / 4
    out = tmp_path / "doc.json"
    cli._write(str(out), doc)
    assert out.read_text() == text


def test_write_encodes_numpy_values(tmp_path):
    # numpy scalars and arrays are written as their Python values
    values = {"int": np.int64(7), "bool": np.bool_(True),
              "float": np.float64(0.1), "ints": np.arange(4),
              "empty": np.array([], dtype=np.int64),
              "floats": np.linspace(0, 1, 6).reshape(2, 3)}
    doc = {"values": values, "list": [np.int64(-1), np.arange(2)]}
    python = {"values": {key: value.tolist() for key, value in values.items()},
              "list": [-1, [0, 1]]}
    out = tmp_path / "doc.json"
    cli._write(str(out), doc)
    assert out.read_text() == json.dumps(python, sort_keys=True,
                                         indent=2) + "\n"


# every character json escapes, and some it does not
_tricky = st.sampled_from('"\\/\x00\x1f\n\t\x7f\xe9\u2028\U0001f600\udfff')


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(_tricky | st.characters())),
       st.dictionaries(st.text(), st.integers() | st.text(), max_size=3),
       st.sampled_from(("top", "list", "nested")))
def test_write_escapes_text_blocks_as_one_string(blocks, rest, place):
    # a TextBlocks value is written as the JSON string of its joined text
    def where(value):
        return {"top": value, "list": [1, value, None],
                "nested": {"z": value, "a": 0}}[place]
    doc = {**rest, "table": where(threshold.TextBlocks(lambda: iter(blocks)))}
    joined = {**rest, "table": where("".join(blocks))}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._write(None, doc)
    assert out.getvalue() == json.dumps(joined, sort_keys=True,
                                        indent=2) + "\n"


def test_write_streams_a_table():
    # a table is written block by block, as CSV and as the JSON string of
    # a threshold-table document: the traced peak is one block's, whatever
    # the number of rows
    rows = 2 * 10 ** 5
    spec = experiments.parse_spec("kind = threshold-table\nk_lo = 3\n"
                                  "k_hi = %d\n" % (rows + 2))
    peaks = []
    tracemalloc.start()
    try:
        cli._write(os.devnull, threshold.format_csv(3, rows + 2))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        report = experiments.run_experiment(spec)
        cli._write(os.devnull, experiments.emit(report, "json"))
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 4 * 2 ** 20, peaks


def test_write_streams_a_graph():
    # a graph file is written block by block: the traced peak is a few
    # times one block's word matrix, whatever the number of edges
    peaks = []
    for n in (2 ** 15, 2 ** 18):    # d = 8: 2 and 16 blocks of edges
        G = graphs.sample_uniform(n, 8, rng.stream(1, 0))
        tracemalloc.start()
        try:
            cli._write(os.devnull, graphs.graph_blocks(G))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # ids of 5-6 digits: two 4-digit groups each, a ' ' word and a '\n' one
    matrix = 4 * (2 * 2 + 2) * graphs._FORMAT_BLOCK
    assert max(peaks) < 5 * matrix, peaks
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_table_refusals_come_before_the_output(tmp_path, capsys):
    # at eps 0.307 the first interval of 110738..128000 holding two integers
    # is k = 127121, several blocks in: it is refused before the output opens
    assert 127121 - 110738 > 3 * threshold._CSV_BLOCK
    out = tmp_path / "F"
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = threshold-table\nk_lo = 110738\nk_hi = 128000\n"
                    "eps_mode = value\neps_value = 0.307\n")
    for argv in (["threshold", "--k-range", "110738..128000", "--eps-mode",
                  "value", "--eps-value", "0.307"],
                 ["experiment", "--spec", str(spec)],
                 ["--format", "csv", "experiment", "--spec", str(spec)]):
        assert run(["--out", str(out)] + argv) == 2
        assert capsys.readouterr().err == (
            "refused: interval for k=127121 contains 2 integers: "
            "[2988066, 2988067]\n")
        assert not out.exists()


_spec_lines = st.lists(st.tuples(
    st.sampled_from(("kind", "samples", "seed", "n", "d", "k")) | st.text(),
    st.sampled_from(experiments.KINDS) | st.integers().map(str) | st.text(),
).map(lambda kv: "%s = %s" % kv))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("graph", "spec", "coloring")),
       st.text() | st.text("0123456789 -\n\r\t+") | _spec_lines.map("\n".join))
# past the sample bound, which run_experiment checks, not the parser
@example("spec", "kind = cycle-census\nsamples = 1000001")
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


def _refused_quietly(argv, capsys, needle):
    """Exit 2 with one refusal line on stderr and nothing on stdout."""
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("refused:") and needle in err, err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("flags", [
    ["--predicate", "nice"], ["--predicate", "nice", "--check-cluster"],
    ["--predicate", "skewed"], ["--filter", "nice12"],
    ["--filter", "skewed"]])
def test_skewed_and_nice_refuse_d_zero(flags, tmp_path, capsys):
    # a d = 0 header admits any multigraph, so there is no dn/(k(k-1))
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    gpath.write_text("4 0\n0 1\n1 2\n2 3\n")
    cpath.write_text("0 1 0 1\n")
    reads = flags[0] == "--predicate"
    _refused_quietly(["count", "--graph", str(gpath), "--k", "2", *flags]
                     + ["--coloring", str(cpath)] * reads, capsys,
                     "needs d >= 1, got d=0")


@pytest.mark.parametrize("filter", ["skewed", "nice12"])
@pytest.mark.parametrize("text", ["4 0\n", "2 1\n0 1\n", "1 2\n0 0\n",
                                  "4 2\n0 1\n1 2\n2 3\n3 0\n"])
def test_skewed_and_nice12_filters_refuse_one_color(filter, text, tmp_path,
                                                     capsys):
    # refused whether or not a proper 1-coloring exists
    gpath = tmp_path / "g.txt"
    gpath.write_text(text)
    _refused_quietly(["count", "--graph", str(gpath), "--k", "1", "--filter",
                      filter], capsys, "needs k >= 2, got k=1")


def _pair_planted():
    """k = 4, n = 12, d = 5: classes 0, 1 (and 2, 3) share all 15 edges of
    their vertices, so the planted class pairs carry 15, 0 and 0 edges."""
    c = 15
    return graphs.sample_planted(
        np.repeat(np.arange(4), 3), 5,
        [[0, c, 0, 0], [c, 0, 0, 0], [0, 0, 0, c], [0, 0, c, 0]],
        rng.stream(1, 0))


def _count_doc(count, d, filter):
    return ('{\n  "count": "%s",\n  "d": %d,\n  "filter": "%s",\n  "k": 4,\n'
            '  "n": 12\n}\n' % (count, d, filter))


def _separable_doc(value):
    return '{\n  "predicate": "separable",\n  "value": %s\n}\n' % value


# `count` at k = 4 on the 12-cycle (coloring v mod 4) and on _pair_planted()
# (its planted coloring), as written by a search over every labeled coloring
_LABEL_BLIND_PINS = {
    ("cycle", "--filter", "skewed"): _count_doc(0, 2, "skewed"),
    ("cycle", "--filter", "nice12"): _count_doc(439176, 2, "nice12"),
    ("planted", "--filter", "skewed"): _count_doc(24, 5, "skewed"),
    ("planted", "--filter", "nice12"): _count_doc(127320, 5, "nice12"),
    ("cycle", "--kappa", "0.1"): _separable_doc("false"),
    ("cycle", "--kappa", "0.49"): _separable_doc("true"),
    ("cycle", "--kappa", "0.5"): _separable_doc("true"),
    ("planted", "--kappa", "0.1"): _separable_doc("false"),
    ("planted", "--kappa", "0.49"): _separable_doc("true"),
    ("planted", "--kappa", "0.5"): _separable_doc("true"),
}


@pytest.mark.parametrize("graph, flag, value", sorted(_LABEL_BLIND_PINS))
def test_label_blind_outputs_pinned(graph, flag, value, tmp_path):
    G, sigma = ((graphs.multigraph(12, 2, [(v, (v + 1) % 12)
                                           for v in range(12)]),
                 np.arange(12) % 4) if graph == "cycle" else
                (_pair_planted(), np.repeat(np.arange(4), 3)))
    gpath, cpath, out = tmp_path / "g", tmp_path / "c", tmp_path / "o"
    gpath.write_text(graphs.format_graph(G))
    cpath.write_text(" ".join(map(str, sigma.tolist())) + "\n")
    args = ["--filter", value] if flag == "--filter" else [
        "--predicate", "separable", "--coloring", str(cpath)] + (
            [] if value == "0.1" else ["--kappa", value])  # 0.1: the default
    assert run(["--out", str(out), "count", "--graph", str(gpath), "--k",
                "4"] + args) == 0
    assert out.read_text() == _LABEL_BLIND_PINS[graph, flag, value]


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
        params = experiments.SPEC_TABLE[kind].params
        keys = [key for key in params if key in sizes]
        # restarts = 1 keeps optimize-sweep quick
        head = "kind = %s\n" % kind + "restarts = 1\n" * ("restarts" in params)
        for values in itertools.product(*(sizes[key] for key in keys)):
            spec.write_text(head + "".join(
                "%s = %s\n" % kv for kv in zip(keys, values)))
            go("experiment", "--spec", spec)
    # a graph too large to sample is refused before anything is allocated
    huge = "1000000000000"
    assert go("sample", "--n", huge, "--d", "3") == 2
    assert go("sample", "--planted", "--n", huge, "--d", "3", "--k", "2") == 2
    for kind in experiments.KINDS:
        params = experiments.SPEC_TABLE[kind].params
        if "n" in params:
            values = {"n": huge, "d": "3", "k": "2"}
            spec.write_text("kind = %s\n" % kind + "".join(
                "%s = %s\n" % (key, values[key]) for key in values
                if key in params))
            assert go("experiment", "--spec", spec) == 2
    # so is a table with more rows than guards.MAX_TABLE_ROWS
    assert go("threshold", "--k-range", "3.." + huge) == 2
    assert go("rates", "--k-range", "3.." + huge, "--d-range", "1..2") == 2
    spec.write_text("kind = threshold-table\nk_lo = 3\nk_hi = %s\n" % huge)
    assert go("experiment", "--spec", spec) == 2
    # one past every bound the CLI reaches, refused by that bound
    # (guards.MAX_EXACT_CLONES has no CLI entry point); dn is even, so the
    # first clone count past an even bound is two past it
    def past(name, *argv):
        code = run([str(a) for a in argv])
        assert code == 2, (argv, code)
        assert "(guards.%s)" % name in capsys.readouterr().err

    def one_past(name):
        return getattr(guards, name) + 1

    past("MAX_SAMPLE_CLONES", "sample", "--n",
         one_past("MAX_SAMPLE_CLONES") // 2 + 1, "--d", "2")
    past("MAX_TABLE_ROWS", "threshold", "--k-range",
         "3..%d" % (one_past("MAX_TABLE_ROWS") + 2))
    past("MAX_TABLE_ROWS", "rates", "--k-range", "3..3", "--d-range",
         "1..%d" % one_past("MAX_TABLE_ROWS"))
    past("MAX_START_ENTRIES", "optimize", "--k", "3", "--d", "5",
         "--restarts", one_past("MAX_START_ENTRIES") // 9)
    n = one_past("MAX_COUNT_VERTICES")
    gpath = tmp_path / "g_count"
    assert go("--out", gpath, "sample", "--n", n, "--d", "4") == 0
    past("MAX_COUNT_VERTICES", "count", "--graph", gpath, "--k", "2")
    n = one_past("MAX_CLUSTER_VERTICES")
    gpath, zeros = tmp_path / "g_cluster", tmp_path / "zeros_cluster.txt"
    assert go("--out", gpath, "sample", "--n", n, "--d", "4") == 0
    zeros.write_text("0 " * n)
    past("MAX_CLUSTER_VERTICES", "count", "--graph", gpath, "--k", "2",
         "--predicate", "separable", "--coloring", zeros)
    gpath = files[0][0]
    past("MAX_COUNT_COLORS", "count", "--graph", gpath, "--k",
         one_past("MAX_COUNT_COLORS"))
    past("MAX_CLUSTER_COLORS", "count", "--graph", gpath, "--k",
         one_past("MAX_CLUSTER_COLORS"), "--predicate", "separable",
         "--coloring", one_color)
    spec.write_text("kind = moment-vs-oracle\nn = %d\nd = 2\nk = 2\n"
                    % (one_past("MAX_ENUM_CLONES") // 2 + 1))
    past("MAX_ENUM_CLONES", "experiment", "--spec", spec)
    spec.write_text("kind = cycle-census\nn = 4\nd = 3\nL = %d\n"
                    % one_past("MAX_CYCLE_LENGTH"))
    past("MAX_CYCLE_LENGTH", "experiment", "--spec", spec)
    # keys a kind does not read, repeated keys, and a coloring file with no
    # planted coloring to write
    spec.write_text("kind = cycle-census\nn = 100\nd = 3\nl = 5\n")
    assert go("experiment", "--spec", spec) == 2
    spec.write_text("kind = cycle-census\nn = 100\nd = 3\nkind = "
                    "core-profile\n")
    assert go("experiment", "--spec", spec) == 2
    assert go("sample", "--n", "6", "--d", "3", "--coloring-out",
              tmp_path / "c.txt") == 2
    # every option with a read-when rule in cli.OPTIONS: refused by name
    # where it is not read, accepted where it is
    cases, rules = _read_when_cases(*files[0], tmp_path), _read_when_rules()
    assert set(cases) == set(rules)
    for (name, flag), (unread, read) in cases.items():
        words = rules[name, flag]
        assert run([str(a) for a in unread]) == 2, unread
        assert capsys.readouterr().err == "refused: %s %s\n" % (flag, words)
        assert go(*read) == 0, (read, internal)
    assert internal == []


def test_readme_option_table_matches_options():
    # the README's table of the options read only in some mode is OPTIONS's
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text().split(
        "| subcommand | flag | default | read when |\n|---|---|---|---|\n")[1]
    rows = set()
    for line in table.split("\n\n")[0].splitlines():
        cells = line.strip("|").split("|")
        command, flags, default, words = (c.strip().replace("`", "")
                                          for c in cells)
        for flag in flags.split(", "):
            rows.add((None if command == "global" else command, flag,
                      default.split()[0], words))
    shown = {None: "unset", False: "off"}
    assert rows == {
        (name, flag, shown.get(kwargs.get("default"),
                               str(kwargs.get("default"))), when[1])
        for name, (_, _, options) in cli.OPTIONS.items()
        for flag, (kwargs, when) in options.items() if when}


def _read_when_rules():
    """(subcommand or None, flag) -> refusal words, for every option of
    cli.OPTIONS read only in some mode."""
    return {(name, flag): when[1]
            for name, (_, _, options) in cli.OPTIONS.items()
            for flag, (_, when) in options.items() if when}


def _read_when_cases(gpath, cpath, tmp_path):
    """(subcommand or None, flag) -> (an argv that gives the option where it
    is not read, a tiny argv that gives it where it is)."""
    spec = tmp_path / "read_when_spec.txt"
    spec.write_text("kind = cycle-census\nn = 10\nd = 3\n")
    out = str(tmp_path / "read_when_c.txt")
    rates = ["rates", "--k", "3", "--d", "4"]
    sweep = ["rates", "--k-range", "3..4", "--d-range", "1..2"]
    optimize = ["optimize", "--k", "3", "--d", "20", "--restarts", "1"]
    sample = ["sample", "--n", "6", "--d", "1"]
    planted = sample + ["--planted", "--k", "2"]
    count = ["count", "--graph", gpath, "--k", "2"]
    predicate = count + ["--coloring", cpath, "--predicate"]
    threshold = ["threshold", "--k-range", "3..4"]
    return {
        (None, "--seed"): (["--seed", "1", *rates],
                           ["--seed", "1", *optimize]),
        (None, "--format"): (["--format", "csv", *rates],
                             ["--format", "csv", "experiment", "--spec",
                              spec]),
        ("sample", "--k"): (sample + ["--k", "2"], planted),
        ("sample", "--planted"): (sample + ["--planted"], planted),
        ("sample", "--coloring-out"): (sample + ["--coloring-out", out],
                                       planted + ["--coloring-out", out]),
        ("count", "--filter"): (predicate + ["proper", "--filter", "balanced"],
                                count + ["--filter", "balanced"]),
        ("count", "--profile"): (
            count + ["--profile", "1/2,1/2"],
            count + ["--filter", "profile", "--profile", "1/2,1/2"]),
        ("count", "--coloring"): (count + ["--coloring", cpath],
                                  predicate + ["proper"]),
        ("count", "--predicate"): (count + ["--predicate", "proper"],
                                   predicate + ["proper"]),
        ("count", "--kappa"): (predicate + ["proper", "--kappa", "0.3"],
                               predicate + ["separable", "--kappa", "0.3"]),
        ("count", "--check-cluster"): (
            predicate + ["proper", "--check-cluster"],
            predicate + ["nice", "--check-cluster"]),
        ("rates", "--k"): (sweep + ["--k", "3"], rates),
        ("rates", "--d"): (sweep + ["--d", "4"], rates),
        ("optimize", "--kappa"): (
            optimize + ["--kappa", "0.3"],
            optimize + ["--kappa", "0.3", "--region", "3-stable"]),
        ("threshold", "--eps-value"): (
            threshold + ["--eps-value", "0.3"],
            threshold + ["--eps-mode", "value", "--eps-value", "0.3"]),
    }


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


# sha256 of the `count --predicate rainbow|vacant` JSON on the graph planted
# at seed 4, under its planted coloring and under the coloring v mod k
_PREDICATE_PINS = {
    (300, 4, 3): {
        ("planted", "rainbow"):
            "199e63e020eb7cf8bd1c06647933bdd5ca30e41113b6da3fb42b471ad4862919",
        ("planted", "vacant"):
            "b5c4106242de1c91861ee0c0b95e1ff332b9b4624dbe6b22c1ce99a02e19ea2e",
        ("mod", "rainbow"):
            "1efa43d7f1069ec5e5b2a17c97c7704b7ecc0079ef0b543e50a4f9f156832d13",
        ("mod", "vacant"):
            "f57b01d11bfb07ec6474f4eb8ce4f1c4e72add059eba1773609fc116805050da",
    },
    (400, 6, 4): {
        ("planted", "rainbow"):
            "b8b66f1eecc7aefcdcf35d884d4e5a6994bd58cd66a12ea1b9101361c403dcce",
        ("planted", "vacant"):
            "7d9e58d12dd00811412791672e1d40cd536d3e68fb75d0742568a6949ef3f3e0",
        ("mod", "rainbow"):
            "f1b72ff5f37aea4c18c4c32519d651531cb5ee46d5d8a8b7b282fa20c8bb1abd",
        ("mod", "vacant"):
            "3558e01a02192f9d48d538b7d00f8c62415500200ec227ed4301fa9fbc496a8c",
    },
    (996, 15, 6): {
        ("planted", "rainbow"):
            "518fe80c22ecd0c40733257c5653cbe68370322ceadb021e1ead49476598123e",
        ("planted", "vacant"):
            "236c69231c3eca6afa723de4e3c5f628f06e6f239246f5d8895f30c59473e35b",
        ("mod", "rainbow"):
            "811afd4881587f13b05f814086a0b5c08003f38c9288d1c12776a2ef6bb6ab34",
        ("mod", "vacant"):
            "62975b5a3f9fc7c106dee96c060104598b3a37b4fb7df096a26bd4f1c17b8df9",
    },
}


@pytest.mark.parametrize("n, d, k", sorted(_PREDICATE_PINS))
def test_rainbow_vacant_outputs_pinned(n, d, k, tmp_path):
    gpath, cpath, mpath = tmp_path / "g", tmp_path / "c", tmp_path / "m"
    out = tmp_path / "o"
    assert run(["--seed", "4", "--out", str(gpath), "sample", "--planted",
                "--n", str(n), "--d", str(d), "--k", str(k),
                "--coloring-out", str(cpath)]) == 0
    mpath.write_text(" ".join(str(v % k) for v in range(n)) + "\n")
    for (coloring, predicate), digest in _PREDICATE_PINS[(n, d, k)].items():
        path = cpath if coloring == "planted" else mpath
        assert run(["--out", str(out), "count", "--graph", str(gpath), "--k",
                    str(k), "--predicate", predicate, "--coloring",
                    str(path)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, \
            (coloring, predicate)


# sha256 of the `sample --planted` graph file at seed 4
_PLANTED_PINS = {
    (300, 9, 3):
        "4187d02e3329be9407d52d51ed7204a7f6c7b805c1a8662c317d9a421ed5fa15",
    (400, 12, 4):
        "bf2c65b7ee6263f29c70778f8686f867e5d3f3a497b4b5a08d1e16864e6575c3",
    (996, 15, 6):
        "143ee783bb5f3bc78dcc88d30ec10bf167c8f838c47d86fe715f6c5d6d75fc24",
}


# sha256 of its `--coloring-out` file
_COLORING_PINS = {
    (300, 9, 3):
        "2ee77da14f43494834985ee45c9d571dd9ec95c88cd738cf8102e733ad1e3621",
    (400, 12, 4):
        "14477128fcd37d1e6d05de3521d1f4a17f1dd5d051e53447511e479ea861ff5f",
    (996, 15, 6):
        "d7ff6d450581ef144f587124523ee1d9b8e3d32a8839be54e8aeba9aae61b8b2",
}


@pytest.mark.parametrize("n, d, k", sorted(_PLANTED_PINS))
def test_sample_planted_pinned(n, d, k, tmp_path):
    gpath, cpath = tmp_path / "g", tmp_path / "c"
    assert run(["--seed", "4", "--out", str(gpath), "sample", "--planted",
                "--n", str(n), "--d", str(d), "--k", str(k),
                "--coloring-out", str(cpath)]) == 0
    assert (hashlib.sha256(gpath.read_bytes()).hexdigest()
            == _PLANTED_PINS[(n, d, k)])
    assert (hashlib.sha256(cpath.read_bytes()).hexdigest()
            == _COLORING_PINS[(n, d, k)])


def test_sample_planted_many_classes_pinned(tmp_path):
    # k = 1000 classes of 999 vertices, two edges between each two classes
    gpath = tmp_path / "g"
    assert run(["--seed", "1", "--out", str(gpath), "sample", "--planted",
                "--n", "999000", "--d", "2", "--k", "1000"]) == 0
    assert hashlib.sha256(gpath.read_bytes()).hexdigest() == (
        "fb53c44c96f94284b5cd27d6e6ac301ea3df558d29b06fd4e49830ee306f3950")


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


# sha256 of the uniform `sample` graph file (n = 3000, d = 3) and of the
# cycle-census JSON (n = 2000, d = 4, L = 5, 3 samples) at each seed
_UNIFORM_PINS = {
    4: ("9d5cfa93fa125a3b1d95ac80b240fefbb4a1ac967dd4d3cbe98933b4777a5989",
        "8a528932172a7407a715ae578d23ec736ed72c309eb00201aa77cbbd7c3082d1"),
    11: ("49661127806eb2a65e515d833899af58b1467617ae268bcaa8a36f8d99dc4a79",
         "3232a6203d8dd241e3a8c4af89c623842e3bf491425d8344249fca1948e6f20e"),
    20240817: (
        "ba91682f6450785953e36ecab5057656895faeb01d4906c923c1ae3759a84c13",
        "1aacc976fda8418459c8323a18ba7d56aa8d2f37e4971260b39ffe04c2a16687"),
}


@pytest.mark.parametrize("seed", sorted(_UNIFORM_PINS))
def test_uniform_outputs_pinned(seed, tmp_path):
    sample_digest, census_digest = _UNIFORM_PINS[seed]
    gpath, out = tmp_path / "g", tmp_path / "o"
    assert run(["--seed", str(seed), "--out", str(gpath), "sample", "--n",
                "3000", "--d", "3"]) == 0
    assert hashlib.sha256(gpath.read_bytes()).hexdigest() == sample_digest
    spec = tmp_path / "spec.txt"
    spec.write_text("kind = cycle-census\nn = 2000\nd = 4\nL = 5\n"
                    "samples = 3\nseed = %d\n" % seed)
    assert run(["--out", str(out), "experiment", "--spec", str(spec)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == census_digest
