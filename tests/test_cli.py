import json
import math

from regcolor import cli, colorings, graphs, moments, threshold


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
