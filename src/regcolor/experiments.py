"""Experiment harness: flat key=value experiment specs, seeded Monte Carlo
sweeps with per-sample RNG streams, summary statistics with normal 95%
confidence intervals, and JSON/CSV reports.  `SPEC_TABLE` declares each kind
once: its runner and its parameters, each typed and with a default or
REQUIRED.  Defaults are filled in at run time and never enter the spec.

Determinism contract: (spec, seed) fully determines every sample; each sample
index gets its own derived RNG stream, so results do not depend on execution
order.
"""

import hashlib
import math
import time
from dataclasses import astuple, dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from . import (graphs, colorings, clustergeo, moments, birkhoff, threshold,
               guards, rng)


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    params: dict
    samples: int
    seed: int

    def content_hash(self):
        items = {"kind": self.kind, "samples": self.samples, "seed": self.seed,
                 **self.params}
        text = "".join("%s=%s\n" % (key, items[key]) for key in sorted(items))
        return hashlib.sha256(text.encode()).hexdigest()


def _scalar(text):
    """A spec value as an int, else a float, else the text itself."""
    for cast in (int, float, str):
        try:
            return cast(text)
        except ValueError:
            pass


def parse_spec(text):
    """One `key = value` pair per line; '#' starts a comment.  Keys: kind,
    samples, seed and the kind's parameters (checked against `SPEC_TABLE`)."""
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError("bad spec line: %r" % raw)
        key, val = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise ValidationError("spec gives %s twice" % key)
        fields[key] = val
    kind = fields.pop("kind", None)
    if kind is None:
        raise ValidationError("spec needs a kind")
    if kind not in KINDS:
        raise ValidationError("unknown kind %r (one of %s)"
                              % (kind, ", ".join(KINDS)))
    samples, seed = fields.pop("samples", "1"), fields.pop("seed", "0")
    for key, val in (("samples", samples), ("seed", seed)):
        if not isinstance(_scalar(val), int):
            raise ValidationError("spec %s must be an integer, got %r"
                                  % (key, val))
    samples, seed = int(samples), int(seed)
    if samples < 1:
        raise ValidationError("samples >= 1 required")
    params = {key: _scalar(val) for key, val in fields.items()}
    declared = SPEC_TABLE[kind].params
    for key, (type_, default) in declared.items():
        if key not in params:
            if default is REQUIRED:
                raise ValidationError("%s spec needs %s" % (kind, key))
        elif not isinstance(params[key], _ADMITS[type_]):
            raise ValidationError("%s spec: %s must be %s, got %r"
                                  % (kind, key, type_, params[key]))
    unread = [key for key in params if key not in declared]
    if unread:
        raise ValidationError("%s spec does not read %s (its parameters: %s)"
                              % (kind, unread[0], ", ".join(declared)))
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
    # a table kind's CSV as threshold.TextBlocks, made as it is written
    table: threshold.TextBlocks | None
    wall_time: float
    spec_hash: str


def _summarize(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    var = float(arr.var(ddof=1)) if arr.size >= 2 else 0.0
    half = 1.96 * math.sqrt(var / arr.size)
    return MetricStats(mean, var, mean - half, mean + half, arr.size)


def flat_planted_coloring(n, k):
    """Blocks of n/k consecutive vertices per color."""
    if k < 2:
        raise ValidationError("flat planting needs k >= 2, got k=%d" % k)
    if n < 1 or n % k != 0:
        raise ValidationError("flat planting needs n >= 1 and k | n")
    # checked before the n labels exist
    guards.check(n, "MAX_SAMPLE_CLONES", "n", "clone")
    return colorings.coloring(np.repeat(np.arange(k), n // k), k)


def sample_flat_planted(n, d, k, generator):
    """(G, sigma): a graph planted on the flat coloring, with dn/(k(k-1))
    edges between each two classes."""
    sigma = flat_planted_coloring(n, k)
    # before the k x k counts: k(k-1) | dn bounds k^2 by dn, k | n does not
    graphs._check_even(n, d)
    if d * n % (k * (k - 1)):
        raise ValidationError("flat planting needs k(k-1) | dn")
    counts = d * n // (k * (k - 1)) * (1 - np.eye(k, dtype=np.int64))
    return graphs.sample_planted(sigma.assignment, d, counts, generator), sigma


def _run_cycle_census(p, generator):
    census = graphs.cycle_census(
        graphs.sample_uniform(p["n"], p["d"], generator), p["L"])
    return {"xi_%d" % j: census[j] for j in range(1, p["L"] + 1)}


def _run_colorability(p, generator):
    G = graphs.sample_uniform(p["n"], p["d"], generator)
    return {"colorable": 1.0 if colorings.is_colorable(G, p["k"]) else 0.0}


def _vacant_counts(G, sigma):
    """k x k counts [i, j]: the vertices of V_i vacant in V_j."""
    k = sigma.k
    # the table is color-major: read it as [j, v]
    j, v = np.nonzero(colorings.vacant_table(G, sigma).T)
    return np.bincount(sigma.assignment[v] * k + j,
                       minlength=k * k).reshape(k, k)


def _run_vacant(p, generator):
    n, d, k = p["n"], p["d"], p["k"]
    G, sigma = sample_flat_planted(n, d, k, generator)
    counts = _vacant_counts(G, sigma)
    fracs = counts[~np.eye(k, dtype=bool)] / (n / k)
    return {"vacant_fraction": float(np.mean(fracs)),
            "predicted": (1 - (1 / (k * (k - 1))) / (1 / k)) ** d}


def _run_core_profile(p, generator):
    G, sigma = sample_flat_planted(p["n"], p["d"], p["k"], generator)
    res = clustergeo.core_analysis(G, sigma, p["ell"])
    wuy, rep, size = res.wuy, res.freedom, np.count_nonzero
    return {"core_size": size(res.core.core), "w_size": size(wuy.W_union),
            "y_size": size(wuy.Y), "f1_size": size(rep.free_1),
            "f2_size": size(rep.free_2), "complete_size": size(rep.complete),
            "cluster_log2_upper": rep.cluster_log2_upper,
            "inclusion_ok": 1.0 if res.witness is None else 0.0}


def _run_moment_vs_oracle(p, generator):
    n, d, k = p["n"], p["d"], p["k"]
    # E[#colorings] over configurations: each distinct multigraph once,
    # weighted by the number of configurations that contract to it
    total = weight = 0
    for G, w in graphs.enumerate_multigraphs(n, d):
        total += w * colorings.count_colorings(G, k)
        weight += w
    log_exact = math.log(Fraction(total, weight)) if total else float("-inf")
    return {"log_exact_over_n": log_exact / n,
            "rate": moments.first_moment_rate(k, d)}


def _run_optimize(p, generator):
    res = birkhoff.maximize_f(**p, rng=generator)
    return {"best_value": res.value, "f_flat": res.f_flat,
            "exceeded_flat": 1.0 if res.exceeded_flat else 0.0}


REQUIRED = object()  # the default of a parameter every spec gives

# parameter types, named as refusals name them, and the parsed values each
# admits; a name is kept as parsed and checked by the module that reads it
_INTEGER, _NUMBER, _NAME = "an integer", "a number", "a name"
_ADMITS = {_INTEGER: int, _NUMBER: (int, float), _NAME: object}


class Kind(NamedTuple):
    run: object         # (parameters, generator) -> one sample's metrics
    params: dict        # name -> (type, default), in the order checked
    draws: bool = True  # False: one run, whose values count for every sample


_INT = (_INTEGER, REQUIRED)
_N_D_K = {"n": _INT, "d": _INT, "k": _INT}

SPEC_TABLE = {
    "cycle-census": Kind(_run_cycle_census,
                         {"n": _INT, "d": _INT, "L": (_INTEGER, 3)}),
    "colorability-frequency": Kind(_run_colorability, _N_D_K),
    "vacant-fractions": Kind(_run_vacant, _N_D_K),
    "core-profile": Kind(_run_core_profile, {**_N_D_K, "ell": (_INTEGER, 3)}),
    "moment-vs-oracle": Kind(_run_moment_vs_oracle, _N_D_K, draws=False),
    "optimize-sweep": Kind(_run_optimize, {"k": _INT, "d": _INT,
                                           "restarts": (_INTEGER, 20)}),
    "threshold-table": Kind(
        lambda p, _: {"table": threshold.format_csv(**p)},
        {"k_lo": _INT, "k_hi": _INT, "eps_mode": (_NAME, "pow09"),
         "eps_value": (_NUMBER, None)}, draws=False),
}
KINDS = tuple(SPEC_TABLE)


def run_experiment(spec):
    # checked before the first sample; parse_spec refuses only by
    # ValidationError, as the graph and coloring parsers do
    guards.check(spec.samples, "MAX_EXPERIMENT_SAMPLES", "samples", "sample")
    start = time.monotonic()
    rng.check_seed(spec.seed)  # a kind that draws nothing checks it here
    kind = SPEC_TABLE[spec.kind]
    params = {key: spec.params.get(key, default)
              for key, (_, default) in kind.params.items()}
    # one float64 column per metric, a row per sample; a kind that draws
    # nothing runs once and fills every row with its one value
    rows = range(spec.samples) if kind.draws else [slice(None)]
    columns, table = {}, None
    for row in rows:
        generator = rng.stream(spec.seed, row) if kind.draws else None
        for name, value in kind.run(params, generator).items():
            if name == "table":
                table = value
            else:
                columns.setdefault(name, np.empty(spec.samples))[row] = value
    metrics = {name: _summarize(col) for name, col in sorted(columns.items())}
    return RunReport(spec, metrics, table, time.monotonic() - start,
                     spec.content_hash())


def emit(report, format="json"):
    """A report as a JSON document (a dict) or CSV text; stable field order.
    CSV: one row per metric with header metric,mean,var,ci_lo,ci_hi,n_samples.
    A table experiment's table is its TextBlocks, in either format: the JSON
    document's "table" string or the CSV itself, written block by block."""
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
        return doc
    if format == "csv":
        if report.table is not None:
            return report.table
        return "".join(["metric,mean,var,ci_lo,ci_hi,n_samples\n"] + [
            "%s,%.12g,%.12g,%.12g,%.12g,%d\n" % (name, *astuple(ms))
            for name, ms in report.metrics.items()])
    raise ValidationError("unknown format %r" % (format,))
