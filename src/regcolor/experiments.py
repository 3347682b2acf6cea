"""Experiment harness: flat key=value experiment specs, seeded Monte Carlo
sweeps with per-sample RNG streams, summary statistics with normal 95%
confidence intervals, and JSON/CSV emission.

Determinism contract: (spec, seed) fully determines every sample; each sample
index gets its own derived RNG stream, so results do not depend on execution
order.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from . import graphs, colorings, clustergeo, moments, birkhoff, threshold, rng

KINDS = ("cycle-census", "colorability-frequency", "vacant-fractions",
         "core-profile", "moment-vs-oracle", "optimize-sweep",
         "threshold-table")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    params: dict
    samples: int
    seed: int

    def canonical_text(self):
        items = {"kind": self.kind, "samples": self.samples, "seed": self.seed}
        items.update(self.params)
        return "".join("%s=%s\n" % (key, items[key]) for key in sorted(items))

    def content_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _int_field(fields, key, default):
    val = fields.pop(key, default)
    try:
        return int(val)
    except ValueError:
        raise ValidationError("spec %s must be an integer, got %r"
                              % (key, val)) from None


# kind -> (required parameters, optional parameters) that its runner reads;
# all are integers except threshold-table's eps_mode (a name checked by the
# threshold module) and eps_value (a number)
_PARAMS = {
    "cycle-census": (("n", "d"), ("L",)),
    "colorability-frequency": (("n", "d", "k"), ()),
    "vacant-fractions": (("n", "d", "k"), ()),
    "core-profile": (("n", "d", "k"), ("ell",)),
    "moment-vs-oracle": (("n", "d", "k"), ()),
    "optimize-sweep": (("k", "d"), ("restarts",)),
    "threshold-table": (("k_lo", "k_hi"), ("eps_mode", "eps_value")),
}


def _check_params(kind, params):
    required, optional = _PARAMS[kind]
    for key in required + optional:
        val = params.get(key)
        if val is None:
            if key in required:
                raise ValidationError("%s spec needs %s" % (kind, key))
        elif key == "eps_value":
            if isinstance(val, str):
                raise ValidationError("%s spec: %s must be a number, got %r"
                                      % (kind, key, val))
        elif key != "eps_mode" and not isinstance(val, int):
            raise ValidationError("%s spec: %s must be an integer, got %r"
                                  % (kind, key, val))


def parse_spec(text):
    """One `key = value` pair per line; '#' starts a comment.  Keys: kind,
    samples, seed; everything else is a parameter.  The parameters the kind
    reads are checked for presence and type (`_PARAMS`)."""
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError("bad spec line: %r" % raw)
        key, val = (part.strip() for part in line.split("=", 1))
        fields[key] = val
    if "kind" not in fields:
        raise ValidationError("spec needs a kind")
    kind = fields.pop("kind")
    if kind not in KINDS:
        raise ValidationError("unknown kind %r (one of %s)"
                              % (kind, ", ".join(KINDS)))
    samples = _int_field(fields, "samples", "1")
    seed = _int_field(fields, "seed", "0")
    if samples < 1:
        raise ValidationError("samples >= 1 required")
    params = {}
    for key, val in fields.items():
        try:
            params[key] = int(val)
        except ValueError:
            try:
                params[key] = float(val)
            except ValueError:
                params[key] = val
    _check_params(kind, params)
    return ExperimentSpec(kind, params, samples, seed)


@dataclass(frozen=True)
class MetricStats:
    mean: float
    var: float
    ci_lo: float
    ci_hi: float
    n_samples: int


@dataclass(frozen=True)
class RunReport:
    spec: ExperimentSpec
    metrics: dict          # name -> MetricStats
    table: str | None      # CSV payload for table-style experiments
    wall_time: float
    spec_hash: str


def _summarize(values):
    arr = np.asarray(values, dtype=float)
    n = arr.size
    mean = float(arr.mean())
    if n >= 2:
        var = float(arr.var(ddof=1))
        half = 1.96 * math.sqrt(var / n)
    else:
        var, half = 0.0, 0.0
    return MetricStats(mean, var, mean - half, mean + half, n)


def flat_planted_coloring(n, k):
    """Blocks of n/k consecutive vertices per color."""
    if n % k != 0:
        raise ValidationError("flat planting needs k | n")
    return colorings.coloring([v // (n // k) for v in range(n)], k)


def flat_planted_mu(k):
    off = Fraction(1, k * (k - 1))
    return [[Fraction(0) if i == j else off for j in range(k)]
            for i in range(k)]


def _run_cycle_census(params, stream_rng, out):
    n, d = int(params["n"]), int(params["d"])
    L = int(params.get("L", 3))
    G = graphs.contract(graphs.sample_configuration(n, d, stream_rng))
    census = graphs.cycle_census(G, L)
    for j in range(1, L + 1):
        out.setdefault("xi_%d" % j, []).append(census[j])


def _run_colorability(params, stream_rng, out):
    n, d, k = int(params["n"]), int(params["d"]), int(params["k"])
    G = graphs.contract(graphs.sample_configuration(n, d, stream_rng))
    count = colorings.count_colorings(G, k)
    out.setdefault("colorable", []).append(1.0 if count > 0 else 0.0)


def _run_vacant(params, stream_rng, out):
    n, d, k = int(params["n"]), int(params["d"]), int(params["k"])
    sigma = flat_planted_coloring(n, k)
    G = graphs.sample_planted(sigma.assignment, k, d, flat_planted_mu(k),
                              stream_rng)
    table = colorings.vacant_table(G, sigma)
    fracs = [len(table[(i, j)]) / (n / k)
             for i in range(k) for j in range(k) if i != j]
    out.setdefault("vacant_fraction", []).append(float(np.mean(fracs)))
    predicted = (1 - (1 / (k * (k - 1))) / (1 / k)) ** d
    out.setdefault("predicted", []).append(predicted)


def _run_core_profile(params, stream_rng, out):
    n, d, k = int(params["n"]), int(params["d"]), int(params["k"])
    ell = int(params.get("ell", 3))
    sigma = flat_planted_coloring(n, k)
    G = graphs.sample_planted(sigma.assignment, k, d, flat_planted_mu(k),
                              stream_rng)
    res = clustergeo.core_analysis(G, sigma, ell)
    rep = res.freedom
    out.setdefault("core_size", []).append(len(res.core.core))
    out.setdefault("w_size", []).append(len(res.wuy.W_union))
    out.setdefault("y_size", []).append(len(res.wuy.Y))
    out.setdefault("f1_size", []).append(len(rep.free_1))
    out.setdefault("f2_size", []).append(len(rep.free_2))
    out.setdefault("complete_size", []).append(len(rep.complete))
    out.setdefault("cluster_log2_upper", []).append(rep.cluster_log2_upper)
    out.setdefault("inclusion_ok", []).append(1.0 if res.inclusion_ok else 0.0)


def _run_moment_vs_oracle(params, stream_rng, out):
    n, d, k = int(params["n"]), int(params["d"]), int(params["k"])
    total = Fraction(0)
    count = 0
    for conf in graphs.enumerate_configurations(n, d):
        G = graphs.contract(conf)
        total += colorings.count_colorings(G, k)
        count += 1
    exact = total / count
    rate = moments.first_moment_rate(k, d)
    out.setdefault("log_exact_over_n", []).append(
        math.log(float(exact)) / n if exact > 0 else float("-inf"))
    out.setdefault("rate", []).append(rate)


def _run_optimize(params, stream_rng, out):
    k, d = int(params["k"]), int(params["d"])
    restarts = int(params.get("restarts", 20))
    res = birkhoff.maximize_f(k, d, restarts=restarts, rng=stream_rng)
    out.setdefault("best_value", []).append(res.value)
    out.setdefault("f_flat", []).append(res.f_flat)
    out.setdefault("exceeded_flat", []).append(1.0 if res.exceeded_flat else 0.0)


_RUNNERS = {
    "cycle-census": _run_cycle_census,
    "colorability-frequency": _run_colorability,
    "vacant-fractions": _run_vacant,
    "core-profile": _run_core_profile,
    "moment-vs-oracle": _run_moment_vs_oracle,
    "optimize-sweep": _run_optimize,
}


def run_experiment(spec):
    start = time.monotonic()
    if spec.kind == "threshold-table":
        p = spec.params
        table = threshold.format_csv(int(p["k_lo"]), int(p["k_hi"]),
                                     p.get("eps_mode", "pow09"),
                                     p.get("eps_value"))
        return RunReport(spec, {}, table, time.monotonic() - start,
                         spec.content_hash())
    runner = _RUNNERS[spec.kind]
    out = {}
    for idx in range(spec.samples):
        runner(spec.params, rng.stream(spec.seed, idx), out)
    metrics = {name: _summarize(vals) for name, vals in sorted(out.items())}
    return RunReport(spec, metrics, None, time.monotonic() - start,
                     spec_hash=spec.content_hash())


def emit(report, format="json"):
    """Serialize a report; stable field order.  CSV: one row per metric with
    header metric,mean,var,ci_lo,ci_hi,n_samples (table experiments emit
    their own table)."""
    if format == "json":
        doc = {
            "schema": 1,
            "spec": {"kind": report.spec.kind, "samples": report.spec.samples,
                     "seed": report.spec.seed, "params": report.spec.params},
            "spec_hash": report.spec_hash,
            "metrics": {name: vars(ms) for name, ms in report.metrics.items()},
        }
        if report.table is not None:
            doc["table"] = report.table
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    if format == "csv":
        if report.table is not None:
            return report.table.encode()
        lines = ["metric,mean,var,ci_lo,ci_hi,n_samples"]
        for name, ms in report.metrics.items():
            lines.append("%s,%.12g,%.12g,%.12g,%.12g,%d"
                         % (name, ms.mean, ms.var, ms.ci_lo, ms.ci_hi,
                            ms.n_samples))
        return ("\n".join(lines) + "\n").encode()
    raise ValidationError("unknown format %r" % (format,))
