import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcolor import cli, colorings, experiments, graphs, moments, threshold
from regcolor.errors import ValidationError


def run(argv):
    return cli.main(argv)


def test_sample_and_count(tmp_path):
    gpath = tmp_path / "g.txt"
    assert run(["--seed", "1", "--out", str(gpath),
                "sample", "--n", "10", "--d", "3"]) == 0
    G = graphs.read_graph(gpath)
    assert G.n == 10 and G.d == 3
    assert G.degrees() == [3] * 10

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
        "vacant-d-x", "core-ell-one", "moment-no-n", "sweep-d-float",
        "sweep-restarts-some", "table-no-k_hi", "table-eps_value-small"])
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
