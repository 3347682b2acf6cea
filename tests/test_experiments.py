import contextlib
import hashlib
import io
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from regcolor import cli, experiments, graphs, moments, rng, threshold
from regcolor.errors import GuardError, ValidationError

README = Path(__file__).resolve().parents[1] / "README.md"


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
    G, sigma = experiments.sample_flat_planted(12, 4, 3, rng.stream(0, 0))
    assert graphs.class_edge_matrix(G, sigma.assignment, 3).tolist() == [
        [0, 8, 8], [8, 0, 8], [8, 8, 0]]
    with pytest.raises(ValidationError, match=r"k\(k-1\) \| dn"):
        experiments.sample_flat_planted(4, 1, 4, rng.stream(0, 0))
    with pytest.raises(ValidationError):
        experiments.flat_planted_coloring(10, 3)


def run(text):
    return experiments.run_experiment(experiments.parse_spec(text))


def emitted(rep, format="json"):
    """The bytes `regcolor experiment` writes for `rep` in `format`."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._write(None, experiments.emit(rep, format))
    return out.getvalue().encode()


def test_run_deterministic():
    text = "kind = cycle-census\nn = 200\nd = 3\nL = 3\nsamples = 10\nseed = 3"
    a = emitted(run(text), "json")
    b = emitted(run(text), "json")
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


def test_a_kind_that_draws_nothing_runs_once(monkeypatch):
    kind = experiments.SPEC_TABLE["moment-vs-oracle"]
    generators = []

    def runner(params, generator):
        generators.append(generator)
        return kind.run(params, generator)

    monkeypatch.setitem(experiments.SPEC_TABLE, "moment-vs-oracle",
                        kind._replace(run=runner))
    rep = run("kind = moment-vs-oracle\nn = 4\nd = 3\nk = 3\nsamples = 3\n")
    assert generators == [None]
    # its one value counts for each of the three samples
    for ms in rep.metrics.values():
        assert ms.n_samples == 3 and ms.var == 0
        assert ms.ci_lo == ms.mean == ms.ci_hi


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
    out = emitted(rep)
    assert json.loads(out)["metrics"]["log_exact_over_n"]["mean"] == value
    assert hashlib.sha256(out).hexdigest() == digest


# one small spec per kind: sha256 of its JSON and CSV reports and its spec
# hash.  The defaults (L, ell, restarts, eps_mode) stay out of the spec and
# its outputs, and eps_value = 0 stays the integer 0.
_KIND_PINS = {
    "cycle-census": (
        "kind = cycle-census\nn = 200\nd = 3\nsamples = 3\nseed = 5\n",
        "78f80b089a27e0a49ae1211c5efc17676201ff8e7913661d97e7d6bb00cd70e8",
        "fd5d734b11df6506b5541eb60a31698dd674fa9ab16d7109de0e27df3be6f75c",
        "882ef04e081d9d48c8c09fd4bf46f65baacd269ee9ae4b545ca88e413bae363f"),
    "colorability-frequency": (
        "kind = colorability-frequency\nn = 10\nd = 3\nk = 3\nsamples = 6\n"
        "seed = 2\n",
        "832f0098b9d7cad6900d91f5859e85d76dbcd7574b643dc79fd00e5c53fe3259",
        "3c3c544836dc5a4f3ff5db993bd1a9ec28ee01639e024c3a28677a4f6d9698ad",
        "d2a48dbf325c741cad5c1340edc2f484de166c26b9b3124a4a64a40c3cdcf9b6"),
    "vacant-fractions": (
        "kind = vacant-fractions\nn = 60\nd = 5\nk = 3\nsamples = 3\n"
        "seed = 4\n",
        "5c7cf01ab693618ad21cb3b75163f9d31bee1030429a8a03a74f637028b1c559",
        "3e535a68e367983f49ad8248e24139b074e27c42d37537fa3359302921ee4298",
        "de259dfce4ac1fd09e35c2ebbd1b3b89de42eafab5670060f9d46bfede4d379e"),
    "core-profile": (
        "kind = core-profile\nn = 60\nd = 6\nk = 3\nsamples = 2\nseed = 5\n",
        "b0de18104afd871630f10d7715a916a00528cc6bb4b02256a0dfb8c5b6bfaa20",
        "be5f174a75ef5a8f3c376b93fdcb38ae47525c280f439fde08c8cdc79af8f09b",
        "727bcce74427e192a5c5cb3b3413defc39d34646c4febb6b2164bea17575a875"),
    "moment-vs-oracle": (
        "kind = moment-vs-oracle\nn = 4\nd = 3\nk = 3\nsamples = 2\n",
        "792911b5e81459eb467189a750c21d8b9d0865d41fed9604276296f1c91673c9",
        "717da501a7966f12f9e448db191aed817ae617e64db6cdbf59a738180f7b6bcd",
        "b5cb0f7810a41fd35f17492d16471de0beace3340cb007c96f6c8bc0ce5d2ddb"),
    "optimize-sweep": (
        "kind = optimize-sweep\nk = 3\nd = 4\nrestarts = 2\nsamples = 2\n"
        "seed = 6\n",
        "70218381b31bd510ede60013a2c174f8a2d66a9b08cb1bd7e766a09bb22034c5",
        "cbb05b5c9cb7f1c433ce11c0c804cd906692ac8e5df5396e4009e749546b6fe9",
        "ff2c73470dea5216d9126cb22738da90ab1104262206e813761a8162a5aaf4a6"),
    "threshold-table": (
        "kind = threshold-table\nk_lo = 3\nk_hi = 30\n",
        "972d292dd339e63a2963c8324463b8ab3f5560b6ebc166f47663fe21e36a3a79",
        "8e18585a92074df99c286d6a91014335624745e3eb04699c1e86545a3665c355",
        "7160633e7910f951671ceddddf3b07f5705181d2d860dbf11b5eda46a2b55e1a"),
    "threshold-table-eps-value": (
        "kind = threshold-table\nk_lo = 3\nk_hi = 30\neps_mode = value\n"
        "eps_value = 0\n",
        "08ee7c93aa47ee6dd9f518234236e52ddadacff89b7a37389be969acd2638833",
        "3b9073409d9bf460163b2e42e313b6e231b62996e593daac15d8e2f73de9fdb3",
        "1f6c268eec6bdd99c961244e057f03307117110a6975eb9f5b17dc85870fca65"),
}


@pytest.mark.parametrize("name", sorted(_KIND_PINS))
def test_every_kind_pinned(name):
    text, json_digest, csv_digest, spec_hash = _KIND_PINS[name]
    rep = run(text)
    assert rep.spec_hash == spec_hash
    for format, digest in (("json", json_digest), ("csv", csv_digest)):
        out = emitted(rep, format)
        assert hashlib.sha256(out).hexdigest() == digest


def test_pins_cover_every_kind():
    assert {text.split("\n")[0] for text, *_ in _KIND_PINS.values()} == {
        "kind = %s" % kind for kind in experiments.KINDS}


def _readme_kind_table():
    """kind -> (required parameters, {optional parameter: default text or
    None}) from the README's parameter table."""
    lines = README.read_text().splitlines()
    start = lines.index("| kind | parameters |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[start:])
    table = {}
    for row in rows:
        kinds, params = (cell.strip() for cell in row.strip("|").split("|"))
        required, optional = [], {}
        for item in params.split(", "):
            match = re.fullmatch(r"`(\w+)`|\[`(\w+)`(?: = (\S+))?\]", item)
            assert match, item
            if match[1]:
                required.append(match[1])
            else:
                optional[match[2]] = match[3]
        for kind in kinds.split(", "):
            table[kind.strip("`")] = (required, optional)
    return table


def test_readme_kind_table_matches_spec_table():
    want = {}
    for kind, entry in experiments.SPEC_TABLE.items():
        defaults = {key: default for key, (_, default) in entry.params.items()}
        want[kind] = (
            [key for key, default in defaults.items()
             if default is experiments.REQUIRED],
            {key: None if default is None else str(default)
             for key, default in defaults.items()
             if default is not experiments.REQUIRED})
    assert _readme_kind_table() == want


@pytest.mark.parametrize("n, d, k, error, text", [
    (6, 3, 3, GuardError, "dn=18 exceeds the 16-clone bound "
     "(guards.MAX_ENUM_CLONES)"),
    (3, 3, 3, ValidationError, "dn must be even, got n=3 d=3"),
    (4, 3, 5, GuardError, "k=5 exceeds the 4-color bound "
     "(guards.MAX_COUNT_COLORS)"),
    (4, 3, 0, ValidationError, "exact counting needs k >= 1, got k=0"),
])
def test_moment_vs_oracle_refusal_texts(n, d, k, error, text):
    with pytest.raises(error, match="^%s$" % re.escape(text)):
        run("kind = moment-vs-oracle\nn = %d\nd = %d\nk = %d\n" % (n, d, k))


def test_colorability_refuses_bad_k():
    with pytest.raises(ValidationError, match="k >= 1"):
        run("kind = colorability-frequency\nn = 10\nd = 3\nk = 0\n")
    with pytest.raises(GuardError, match="MAX_COUNT_COLORS"):
        run("kind = colorability-frequency\nn = 10\nd = 3\nk = 5\n")


def test_optimize_sweep():
    rep = run("kind = optimize-sweep\nk = 3\nd = 2\nrestarts = 3\n"
              "samples = 2\nseed = 6")
    assert rep.metrics["exceeded_flat"].mean == 0.0
    assert abs(rep.metrics["f_flat"].mean -
               2 * moments.first_moment_rate(3, 2)) < 1e-12


def test_threshold_table_delegates():
    rep = run("kind = threshold-table\nk_lo = 3\nk_hi = 6\nsamples = 1\nseed = 0")
    assert "".join(rep.table) == "".join(threshold.format_csv(3, 6))
    assert emitted(rep, "csv").decode() == "".join(rep.table)
    doc = json.loads(emitted(rep, "json"))
    assert doc["table"].startswith("k,lo,hi")


def test_table_report_emits_the_same_bytes_twice():
    # the table is made as it is written, anew for every emit
    rep = run("kind = threshold-table\nk_lo = 3\nk_hi = %d\n"
              % (2 * threshold._CSV_BLOCK + 5))
    for format in ("json", "csv"):
        first = emitted(rep, format)
        assert emitted(rep, format) == first
    assert len(emitted(rep, "csv").splitlines()) == 2 * threshold._CSV_BLOCK + 4


def test_emit_formats():
    rep = run("kind = cycle-census\nn = 100\nd = 3\nL = 1\nsamples = 3\nseed = 9")
    doc = json.loads(emitted(rep, "json"))
    assert doc["schema"] == 1
    assert doc["spec"]["kind"] == "cycle-census"
    assert "wall_time" not in doc
    assert "xi_1" in doc["metrics"]
    csv = emitted(rep, "csv").decode()
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
