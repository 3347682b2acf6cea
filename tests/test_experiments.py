import hashlib
import json
import math
import re

import numpy as np
import pytest

from regcolor import experiments, moments, rng, threshold
from regcolor.errors import GuardError, ValidationError


def test_parse_spec():
    spec = experiments.parse_spec("""
    # cycle counts on a smallish graph
    kind = cycle-census
    n = 100
    d = 3
    L = 2
    samples = 5
    seed = 7
    """)
    assert spec.kind == "cycle-census"
    assert spec.params == {"n": 100, "d": 3, "L": 2}
    assert spec.samples == 5 and spec.seed == 7
    with pytest.raises(ValidationError):
        experiments.parse_spec("samples = 3")
    with pytest.raises(ValidationError):
        experiments.parse_spec("kind = no-such-kind")
    with pytest.raises(ValidationError):
        experiments.parse_spec("kind = cycle-census\nbroken line")
    with pytest.raises(ValidationError):
        experiments.parse_spec("kind = cycle-census\nsamples = 0")


def test_spec_hash_stable():
    a = experiments.parse_spec("kind = cycle-census\nn = 4\nd = 3\nseed = 1")
    b = experiments.parse_spec("d = 3\nseed = 1\nkind = cycle-census\nn = 4")
    assert a.content_hash() == b.content_hash()
    c = experiments.parse_spec("kind = cycle-census\nn = 5\nd = 3\nseed = 1")
    assert a.content_hash() != c.content_hash()


def test_flat_planted_helpers():
    sigma = experiments.flat_planted_coloring(12, 3)
    assert sigma.class_sizes() == [4, 4, 4]
    mu = experiments.flat_planted_mu(3)
    assert mu[0][0] == 0 and float(mu[0][1]) == 1 / 6
    with pytest.raises(ValidationError):
        experiments.flat_planted_coloring(10, 3)


def run(text):
    return experiments.run_experiment(experiments.parse_spec(text))


def test_run_deterministic():
    text = "kind = cycle-census\nn = 200\nd = 3\nL = 3\nsamples = 10\nseed = 3"
    a = experiments.emit(run(text), "json")
    b = experiments.emit(run(text), "json")
    assert a == b  # byte-identical, wall time excluded


def test_cycle_census_metrics():
    rep = run("kind = cycle-census\nn = 500\nd = 3\nL = 2\nsamples = 20\nseed = 1")
    assert set(rep.metrics) == {"xi_1", "xi_2"}
    ms = rep.metrics["xi_1"]
    assert ms.n_samples == 20
    assert ms.ci_lo <= ms.mean <= ms.ci_hi


def test_colorability_frequency():
    rep = run("kind = colorability-frequency\nn = 10\nd = 3\nk = 3\n"
              "samples = 20\nseed = 2")
    m = rep.metrics["colorable"].mean
    assert 0.0 <= m <= 1.0


def test_vacant_fractions():
    rep = run("kind = vacant-fractions\nn = 100\nd = 5\nk = 5\n"
              "samples = 10\nseed = 4")
    pred = rep.metrics["predicted"].mean
    assert abs(pred - 0.75 ** 5) < 1e-12
    emp = rep.metrics["vacant_fraction"].mean
    assert abs(emp - pred) < 0.1


def test_core_profile():
    rep = run("kind = core-profile\nn = 60\nd = 6\nk = 3\nell = 1\n"
              "samples = 5\nseed = 5")
    assert rep.metrics["inclusion_ok"].mean == 1.0
    assert rep.metrics["core_size"].mean <= 60


def test_moment_vs_oracle():
    rep = run("kind = moment-vs-oracle\nn = 4\nd = 3\nk = 3\n"
              "samples = 1\nseed = 0")
    log_exact = rep.metrics["log_exact_over_n"].mean
    rate = rep.metrics["rate"].mean
    assert abs(rate - moments.first_moment_rate(3, 3)) < 1e-12
    assert abs(log_exact - rate) <= 1.5 * math.log(4) / 4


@pytest.mark.parametrize("n, d, k, value, digest", [
    (6, 2, 3, 0.6308949291763516,
     "d8f256e4836da82408a8141a2d17f55540fa7d630b070153f4e8137cd740e77c"),
    (4, 3, 3, 0.3297887645705655,
     "d0a0aa3f34994e9d45c76c8b7872f60ae3f942f10f5b83ea7cf1bcf8cd7854e3"),
])
def test_moment_vs_oracle_pinned(n, d, k, value, digest):
    # E[#colorings] over all (dn-1)!! configurations, as a float of the
    # exact rational; the digest is of the whole emitted JSON
    rep = run("kind = moment-vs-oracle\nn = %d\nd = %d\nk = %d\n" % (n, d, k))
    out = experiments.emit(rep)
    assert json.loads(out)["metrics"]["log_exact_over_n"]["mean"] == value
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize("n, d, k, error, text", [
    (6, 3, 3, GuardError, "enumeration refused: dn=18 exceeds the "
     "16-clone bound"),
    (3, 3, 3, ValidationError, "dn must be even, got n=3 d=3"),
    (4, 3, 5, GuardError, "exact counting limited to n <= 30, k <= 4"),
    (4, 3, 0, ValidationError, "exact counting needs k >= 1, got k=0"),
])
def test_moment_vs_oracle_refusal_texts(n, d, k, error, text):
    with pytest.raises(error, match="^%s$" % re.escape(text)):
        run("kind = moment-vs-oracle\nn = %d\nd = %d\nk = %d\n" % (n, d, k))


def test_colorability_refuses_bad_k():
    with pytest.raises(ValidationError, match="k >= 1"):
        run("kind = colorability-frequency\nn = 10\nd = 3\nk = 0\n")
    with pytest.raises(GuardError, match="k <= 4"):
        run("kind = colorability-frequency\nn = 10\nd = 3\nk = 5\n")


def test_optimize_sweep():
    rep = run("kind = optimize-sweep\nk = 3\nd = 2\nrestarts = 3\n"
              "samples = 2\nseed = 6")
    assert rep.metrics["exceeded_flat"].mean == 0.0
    assert abs(rep.metrics["f_flat"].mean -
               2 * moments.first_moment_rate(3, 2)) < 1e-12


def test_threshold_table_delegates():
    rep = run("kind = threshold-table\nk_lo = 3\nk_hi = 6\nsamples = 1\nseed = 0")
    assert rep.table == threshold.format_csv(3, 6)
    assert experiments.emit(rep, "csv").decode() == rep.table
    doc = json.loads(experiments.emit(rep, "json"))
    assert doc["table"].startswith("k,lo,hi")


def test_emit_formats():
    rep = run("kind = cycle-census\nn = 100\nd = 3\nL = 1\nsamples = 3\nseed = 9")
    doc = json.loads(experiments.emit(rep, "json"))
    assert doc["schema"] == 1
    assert doc["spec"]["kind"] == "cycle-census"
    assert "wall_time" not in doc
    assert "xi_1" in doc["metrics"]
    csv = experiments.emit(rep, "csv").decode()
    lines = csv.strip().split("\n")
    assert lines[0] == "metric,mean,var,ci_lo,ci_hi,n_samples"
    assert lines[1].startswith("xi_1,")
    with pytest.raises(ValidationError):
        experiments.emit(rep, "xml")


def test_summarize_single_sample():
    ms = experiments._summarize([2.5])
    assert ms.mean == 2.5 and ms.var == 0.0
    assert ms.ci_lo == ms.ci_hi == 2.5


def test_ci_coverage():
    # meta-check of the 95% normal interval: over many replications of a
    # standard normal sample the interval should cover the true mean about
    # 95% of the time
    r = rng.stream(2024, 0)
    covered = 0
    reps = 800
    for _ in range(reps):
        ms = experiments._summarize(r.standard_normal(50))
        if ms.ci_lo <= 0.0 <= ms.ci_hi:
            covered += 1
    assert 0.92 < covered / reps < 0.98
