"""Command line interface.

    regcolor [--seed S] [--out FILE] [--format json|csv] <subcommand> ...

Subcommands: sample, count, rates, optimize, core, threshold, experiment.
`--format` applies to `experiment` only (default json); others refuse it.
Exit codes: 0 success, 2 guard/validation refusal, 1 internal error.
"""

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .errors import GuardError, ValidationError
from . import (graphs, colorings, clustergeo, moments, birkhoff, threshold,
               experiments, guards, rng)


def _open(path, mode="r"):
    """open() a file the user named; failing to is a refusal naming it."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ValidationError("cannot open %s: %s"
                              % (path, exc.strerror or exc)) from None


def _read(path):
    """Text of a file the user named; bytes that do not decode are a
    refusal naming it."""
    with _open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError("%s is not %s text: %s at byte %d"
                                  % (path, exc.encoding, exc.reason,
                                     exc.start)) from None


def _write(args, payload):
    """Write bytes, a str, or str blocks as each is made, to --out or stdout.
    Refuse before calling it: a refusal during it leaves a partial output."""
    if isinstance(payload, bytes):
        if args.out:
            with _open(args.out, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload.decode())
        return
    with (_open(args.out, "w") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        for block in (payload,) if isinstance(payload, str) else payload:
            fh.write(block)


def _emit_json(args, doc):
    _write(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_coloring(path, G, k):
    if path is None:
        raise ValidationError("--coloring is required")
    guards.check(G.n * k, "MAX_CLASS_ENTRIES", "nk", "entry")
    guards.check(k * k, "MAX_CLASS_ENTRIES", "kk", "entry")
    sigma = colorings.parse_coloring(_read(path), k)
    if sigma.n != G.n:
        raise ValidationError("coloring has %d entries, graph has %d vertices"
                              % (sigma.n, G.n))
    return sigma


def _parse_range(text, flag):
    """`lo..hi` with integers lo <= hi, as (lo, hi)."""
    lo, sep, hi = text.partition("..")
    try:
        bounds = int(lo), int(hi)
    except ValueError:
        bounds = None
    if not sep or bounds is None or bounds[0] > bounds[1]:
        raise ValidationError("%s must be lo..hi with integers lo <= hi, "
                              "got %r" % (flag, text))
    return bounds


def _parse_profile(text):
    """`--profile`: comma-separated rationals such as 1/2,1/4,1/4."""
    values = []
    for token in text.split(","):
        try:
            values.append(Fraction(token))
        except (ValueError, ZeroDivisionError):
            raise ValidationError("--profile entry %r is not a rational "
                                  "number" % token) from None
    return values


def cmd_sample(args):
    generator = rng.stream(args.seed or 0, 0)
    for flag, value in (("--coloring-out", args.coloring_out),
                        ("--k", args.k)):
        if value is not None and not args.planted:
            raise ValidationError("%s needs --planted" % flag)
    if args.planted:
        if args.k is None:
            raise ValidationError("--planted needs --k")
        G, sigma = experiments.sample_flat_planted(args.n, args.d, args.k,
                                                   generator)
        if args.coloring_out:
            with _open(args.coloring_out, "w") as fh:
                fh.write(colorings.format_coloring(sigma))
    else:
        G = graphs.sample_uniform(args.n, args.d, generator)
    _write(args, graphs.graph_blocks(G))


def cmd_count(args):
    if args.profile is not None and args.filter != "profile":
        raise ValidationError("--profile needs --filter profile")
    G = graphs.parse_graph(_read(args.graph))
    if args.predicate:
        sigma = _load_coloring(args.coloring, G, args.k)
        name = args.predicate
        witnesses = None
        if name == "proper":
            value = colorings.is_proper(G, sigma)
        elif name == "balanced":
            value = colorings.is_balanced(sigma)
        elif name == "skewed":
            value = colorings.is_skewed(G, sigma)
        elif name == "separable":
            value = colorings.is_separable(G, sigma, args.kappa)
        elif name == "nice":
            rep = colorings.is_nice(G, sigma, check_cluster=args.check_cluster)
            value = bool(rep) if rep.condition3 is not None else None
            witnesses = dict(vars(rep))  # its five fields
        elif name == "rainbow":
            witnesses = np.flatnonzero(
                colorings.rainbow_vertices(G, sigma)).tolist()
            value = len(witnesses)
        elif name == "vacant":
            vacant = colorings.vacant_table(G, sigma)
            value = graphs.count_marked(vacant)
            witnesses = {}
            for v, j in zip(*(a.tolist() for a in np.nonzero(vacant))):
                witnesses.setdefault("%d,%d" % (sigma.assignment[v], j),
                                     []).append(v)  # v ascending
        else:
            raise ValidationError("unknown predicate %r" % name)
        doc = {"predicate": name, "value": value}
        if witnesses is not None:
            doc["witnesses"] = witnesses
        _emit_json(args, doc)
        return
    profile = _parse_profile(args.profile) if args.profile else None
    count = colorings.count_colorings(G, args.k, args.filter, profile)
    _emit_json(args, {"n": G.n, "d": G.d, "k": args.k, "filter": args.filter,
                      "count": str(count)})


def _rates_blocks(k_lo, k_hi, d_lo, d_hi):
    """The sweep's CSV: the header, then one string per block of k's rows."""
    yield "k,d,first_moment_rate,second_moment_flat,dplus\n"
    for k in range(k_lo, k_hi + 1):
        dplus = moments.dplus(k) if k >= 3 else float("nan")
        rows = []
        for d in range(d_lo, d_hi + 1):
            rate = moments.first_moment_rate(k, d)
            rows.append("%d,%d,%.12g,%.12g,%.12g\n"
                        % (k, d, rate, 2 * rate, dplus))
        yield "".join(rows)


def cmd_rates(args):
    if args.k_range or args.d_range:
        if not (args.k_range and args.d_range):
            raise ValidationError("sweep needs both --k-range and --d-range")
        k_lo, k_hi = _parse_range(args.k_range, "--k-range")
        d_lo, d_hi = _parse_range(args.d_range, "--d-range")
        try:  # every rate takes d / 2
            d_lo / 2, d_hi / 2
        except OverflowError:
            raise ValidationError("--d-range: d/2 overflows a float") from None
        guards.check((k_hi - k_lo + 1) * (d_hi - d_lo + 1), "MAX_TABLE_ROWS",
                     "rows", "row")
        blocks = _rates_blocks(k_lo, k_hi, d_lo, d_hi)
        # the header and k_lo's rows, made before the output opens: they take
        # every d, so they meet every refusal of the sweep's cells
        _write(args, itertools.chain([next(blocks), next(blocks)], blocks))
        return
    k, d = args.k, args.d
    if k is None or d is None:
        raise ValidationError("rates needs --k and --d (or a sweep)")
    if not math.isfinite(d):
        raise ValidationError("--d must be a finite number, got %r" % d)
    rate = moments.first_moment_rate(k, d)
    doc = {
        "k": k, "d": d,
        "first_moment_rate": rate,
        "components": {"entropy": math.log(k),
                       "edge_penalty": rate - math.log(k)},
        "balanced_polynomial_exponent": -(k - 1) / 2,
        "second_moment_flat": 2 * rate,
        "dplus": moments.dplus(k) if k >= 3 else None,
    }
    _emit_json(args, doc)


def _parse_region(text):
    """None for no constraint, ("stable", s) for `<s>-stable`."""
    if text is None or text == "unconstrained":
        return None
    s, sep, rest = text.partition("-")
    if not (s.isdecimal() and sep and rest == "stable"):
        raise ValidationError("--region must be 'unconstrained' or "
                              "'<s>-stable' with an integer s >= 0, got %r"
                              % text)
    return ("stable", int(s))


def cmd_optimize(args):
    region = _parse_region(args.region)
    seed = args.seed or 0
    res = birkhoff.maximize_f(args.k, args.d, region=region,
                              restarts=args.restarts,
                              rng=rng.stream(seed, 0), kappa=args.kappa)
    _emit_json(args, {
        "k": args.k, "d": args.d,
        "region": args.region or "unconstrained",
        "best_value": res.value, "f_flat": res.f_flat,
        "exceeded_flat": res.exceeded_flat,
        "argmax": [[float(x) for x in row] for row in res.best],
        "restarts": args.restarts, "seed": seed,
    })


def cmd_core(args):
    G = graphs.parse_graph(_read(args.graph))
    sigma = _load_coloring(args.coloring, G, args.k)
    res = clustergeo.core_analysis(G, sigma, args.ell, mode=args.mode)
    wuy, rep, size = res.wuy, res.freedom, graphs.count_marked
    _emit_json(args, {
        "core_size": size(res.core.core), "W": size(wuy.W_union),
        "U": size(wuy.U.any(axis=1)), "U_prime": size(wuy.U_prime.any(axis=1)),
        "Y": size(wuy.Y), "F1": size(rep.free_1), "F2": size(rep.free_2),
        "complete": size(rep.complete),
        "cluster_log2_upper": rep.cluster_log2_upper,
        "inclusion_ok": res.inclusion_ok,
    })


def cmd_threshold(args):
    k_lo, k_hi = _parse_range(args.k_range, "--k-range")
    _write(args, threshold.format_csv(k_lo, k_hi, args.eps_mode,
                                      args.eps_value))


def cmd_experiment(args):
    spec = experiments.parse_spec(_read(args.spec))
    if args.seed is not None:
        spec = experiments.ExperimentSpec(spec.kind, spec.params,
                                          spec.samples, args.seed)
    report = experiments.run_experiment(spec)
    _write(args, experiments.emit(report, args.format or "json"))


@functools.cache
def build_parser():
    """Built on the first `main` call and shared by every later one."""
    p = argparse.ArgumentParser(prog="regcolor")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"))  # experiment only
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sample", help="sample a regular multigraph")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--k", type=int)
    s.add_argument("--planted", action="store_true")
    s.add_argument("--coloring-out")
    s.set_defaults(func=cmd_sample)

    s = sub.add_parser("count", help="exact coloring counts and predicates")
    s.add_argument("--graph", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--filter", default="none")
    s.add_argument("--profile")
    s.add_argument("--predicate")
    s.add_argument("--coloring")
    s.add_argument("--kappa", type=float, default=0.1)
    s.add_argument("--check-cluster", action="store_true")
    s.set_defaults(func=cmd_count)

    s = sub.add_parser("rates", help="rate functions")
    s.add_argument("--k", type=int)
    s.add_argument("--d", type=float)
    s.add_argument("--k-range")
    s.add_argument("--d-range")
    s.set_defaults(func=cmd_rates)

    s = sub.add_parser("optimize", help="maximize f over the Birkhoff polytope")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--d", type=float, required=True)
    s.add_argument("--restarts", type=int, default=20)
    s.add_argument("--region")
    s.add_argument("--kappa", type=float, default=0.1)
    s.set_defaults(func=cmd_optimize)

    s = sub.add_parser("core", help="core peeling and freedom report")
    s.add_argument("--graph", required=True)
    s.add_argument("--coloring", required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--ell", type=int, default=3)
    s.add_argument("--mode", choices=("prose", "strict"), default="prose")
    s.set_defaults(func=cmd_core)

    s = sub.add_parser("threshold", help="threshold interval table")
    s.add_argument("--k-range", required=True)
    s.add_argument("--eps-mode", choices=("pow09", "zero", "value"),
                   default="pow09")
    s.add_argument("--eps-value", type=float)
    s.set_defaults(func=cmd_threshold)

    s = sub.add_parser("experiment", help="run an experiment spec file")
    s.add_argument("--spec", required=True)
    s.set_defaults(func=cmd_experiment)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.format is not None and args.command != "experiment":
            raise ValidationError("--format applies to experiment only")
        args.func(args)
    except (GuardError, ValidationError) as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # internal error
        print("internal error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
