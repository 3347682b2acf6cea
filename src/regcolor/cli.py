"""Command line interface.

    regcolor [--seed S] [--out FILE] [--format json|csv] <subcommand> ...

`OPTIONS` declares each subcommand's options once, with the mode that reads
each; elsewhere a value off its default is refused.  Exit codes: 0 success,
1 internal error, 2 refusal (a usage, guard or validation error: one line).
"""

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
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


def _read_bounded(fh, size):
    """At most guards.MAX_INPUT_BYTES + 1 bytes of fh.  A file of `size`
    bytes is read in one block; a pipe, whose size reads 0, in 64 KiB ones,
    so that no read allocates the whole bound."""
    blocks, room = [], guards.MAX_INPUT_BYTES + 1
    while room and (block := fh.read(min(room, max(size + 1, 1 << 16)))):
        blocks.append(block)
        room -= len(block)
    return b"".join(blocks)


def _read(path):
    """Text of a file the user named, decoded as open() in text mode would.
    A file whose size is past guards.MAX_INPUT_BYTES is refused before it is
    read; a pipe, FIFO or device, whose size reads 0, is read to one byte
    past the bound and refused there.  Undecodable bytes are a refusal."""
    with _open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        guards.check(size, "MAX_INPUT_BYTES", "bytes", "byte")
        data = _read_bounded(fh, size)
    guards.check(len(data), "MAX_INPUT_BYTES", "bytes", "byte")
    try:
        return io.TextIOWrapper(io.BytesIO(data)).read()
    except UnicodeDecodeError as exc:
        raise ValidationError("%s is not %s text: %s at byte %d"
                              % (path, exc.encoding, exc.reason,
                                 exc.start)) from None


def _encode(doc):
    """The JSON text of `doc` in pieces, a numpy array or scalar as its
    Python value (`tolist`) and a `threshold.TextBlocks` value as one JSON
    string, escaped block by block.  `default` queues such a value and
    stands "" in for it, so the encoder's next piece is that placeholder."""
    queued = []

    def default(value):
        if isinstance(value, threshold.TextBlocks):
            queued.append(value)
            return ""
        return value.tolist()

    encoder = json.JSONEncoder(sort_keys=True, indent=2, default=default)
    for piece in encoder.iterencode(doc):
        if queued:
            yield '"'
            for block in queued.pop():
                yield json.encoder.encode_basestring_ascii(block)[1:-1]
            yield '"'
        else:
            yield piece
    yield "\n"


def _write(path, payload):
    """Write a JSON document, a str or str blocks (each as it is made) to
    `path`, or to stdout if it is None; refuse before it, or the output is
    left partial.  A document is encoded piece by piece (`_encode`), so its
    whole text is never held."""
    if isinstance(payload, dict):
        payload = _encode(payload)
    with (_open(path, "w") if path
          else contextlib.nullcontext(sys.stdout)) as fh:
        for block in (payload,) if isinstance(payload, str) else payload:
            fh.write(block)


def _load_coloring(path, G, k):
    guards.check(G.n * k, "MAX_CLASS_ENTRIES", "nk", "entry")
    guards.check(k * k, "MAX_CLASS_ENTRIES", "kk", "entry")
    sigma = colorings.parse_coloring(_read(path), k)
    if sigma.n != G.n:
        raise ValidationError("coloring has %d entries, graph has %d vertices"
                              % (sigma.n, G.n))
    return sigma


def _parse_range(text):
    """Argparse type of `lo..hi` with integers lo <= hi: (lo, hi)."""
    lo, sep, hi = text.partition("..")
    try:
        if sep and int(lo) <= int(hi):
            return int(lo), int(hi)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("must be lo..hi with integers lo <= hi, "
                                     "got %r" % text)


def _parse_profile(text):
    """Argparse type of comma-separated rationals such as 1/2,1/4,1/4."""
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
    if args.planted:
        G, sigma = experiments.sample_flat_planted(args.n, args.d, args.k,
                                                   generator)
        if args.coloring_out:
            _write(args.coloring_out, colorings.format_coloring(sigma))
    else:
        G = graphs.sample_uniform(args.n, args.d, generator)
    _write(args.out, graphs.graph_blocks(G))


def cmd_count(args):
    G = graphs.parse_graph(_read(args.graph))
    name = args.predicate
    if name is None:
        count = colorings.count_colorings(G, args.k, args.filter, args.profile)
        return _write(args.out, {"n": G.n, "d": G.d, "k": args.k,
                                 "filter": args.filter, "count": str(count)})
    sigma = _load_coloring(args.coloring, G, args.k)
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
        witnesses = np.flatnonzero(colorings.rainbow_vertices(G, sigma))
        value = witnesses.size
    else:  # vacant: at most n k entries, in at most k^2 "i,j" groups
        guards.check(G.n * args.k + 3 * args.k ** 2, "MAX_CLASS_ENTRIES",
                     "nk_plus_3kk", "entry")
        vacant = colorings.vacant_table(G, sigma)
        value, witnesses = np.count_nonzero(vacant), {}
        color = sigma.assignment.tolist()
        for v, j in zip(*(a.tolist() for a in np.nonzero(vacant))):
            witnesses.setdefault("%d,%d" % (color[v], j),
                                 []).append(v)  # v ascending
    doc = {"predicate": name, "value": value}
    if witnesses is not None:
        doc["witnesses"] = witnesses
    _write(args.out, doc)


def _rates_blocks(k_lo, k_hi, d_lo, d_hi):
    """The sweep's CSV: the header, then one string per block of k's rows."""
    yield "k,d,first_moment_rate,second_moment_flat,dplus\n"
    for k in range(k_lo, k_hi + 1):
        dplus = "%.12g" % (moments.dplus(k) if k >= 3 else float("nan"))
        rows = []
        for d in range(d_lo, d_hi + 1):
            rate = moments.first_moment_rate(k, d)
            rows.append("%d,%d,%.12g,%.12g,%s\n"
                        % (k, d, rate, 2 * rate, dplus))
        yield "".join(rows)


def cmd_rates(args):
    if args.k_range and args.d_range:
        (k_lo, k_hi), (d_lo, d_hi) = args.k_range, args.d_range
        if 2 * k_hi > sys.float_info.max:  # dplus takes 2k - 1 as a float
            raise ValidationError("--k-range: 2k overflows a float")
        try:  # every rate takes d / 2
            d_lo / 2, d_hi / 2
        except OverflowError:
            raise ValidationError("--d-range: d/2 overflows a float") from None
        guards.check((k_hi - k_lo + 1) * (d_hi - d_lo + 1), "MAX_TABLE_ROWS",
                     "rows", "row")
        # the one refusal of a cell ("k >= 2"), met before the output opens
        moments.first_moment_rate(k_lo, d_lo)
        _write(args.out, _rates_blocks(k_lo, k_hi, d_lo, d_hi))
        return
    k, d = args.k, args.d
    if k is None or d is None:
        raise ValidationError("rates needs --k and --d, or --k-range and "
                              "--d-range")
    if not math.isfinite(d):
        raise ValidationError("--d must be a finite number, got %r" % d)
    if 2 * k > sys.float_info.max:
        raise ValidationError("--k: 2k overflows a float")
    rate = moments.first_moment_rate(k, d)
    _write(args.out, {
        "k": k, "d": d, "first_moment_rate": rate,
        "components": {"entropy": math.log(k),
                       "edge_penalty": rate - math.log(k)},
        "balanced_polynomial_exponent": -(k - 1) / 2,
        "second_moment_flat": 2 * rate,
        "dplus": moments.dplus(k) if k >= 3 else None,
    })


def _parse_region(text):
    """None for no constraint, the integer s for `<s>-stable`."""
    if text is None or text == "unconstrained":
        return None
    s, sep, rest = text.partition("-")
    if not (s.isdecimal() and sep and rest == "stable"):
        raise ValidationError("--region must be 'unconstrained' or "
                              "'<s>-stable', got %r" % text)
    return int(s)


def cmd_optimize(args):
    stable, seed = _parse_region(args.region), args.seed or 0
    res = birkhoff.maximize_f(args.k, args.d, stable=stable,
                              restarts=args.restarts, rng=rng.stream(seed, 0),
                              kappa=args.kappa)
    _write(args.out, {
        "k": args.k, "d": args.d, "region": args.region or "unconstrained",
        "best_value": res.value, "f_flat": res.f_flat,
        "exceeded_flat": res.exceeded_flat,
        "argmax": res.best,
        "restarts": args.restarts, "seed": seed,
    })


def cmd_core(args):
    G = graphs.parse_graph(_read(args.graph))
    sigma = _load_coloring(args.coloring, G, args.k)
    res = clustergeo.core_analysis(G, sigma, args.ell, mode=args.mode)
    wuy, rep, size = res.wuy, res.freedom, np.count_nonzero
    _write(args.out, {
        "core_size": size(res.core.core), "W": size(wuy.W_union),
        "U": size(wuy.U.any(axis=1)), "U_prime": size(wuy.U_prime.any(axis=1)),
        "Y": size(wuy.Y), "F1": size(rep.free_1), "F2": size(rep.free_2),
        "complete": size(rep.complete), "inclusion_ok": res.witness is None,
        "cluster_log2_upper": rep.cluster_log2_upper,
    })


def cmd_threshold(args):
    _write(args.out, threshold.format_csv(*args.k_range, args.eps_mode,
                                          args.eps_value))


def cmd_experiment(args):
    spec = experiments.parse_spec(_read(args.spec))
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    report = experiments.run_experiment(spec)
    _write(args.out, experiments.emit(report, args.format or "json"))


_PLANTED = (lambda a: a.planted, "needs --planted")
_POINT = (lambda a: not (a.k_range or a.d_range),
          "applies without a sweep only")
_INT, _FLOAT = {"type": int}, {"type": float}
_REQUIRED, _REQUIRED_INT = {"required": True}, {"type": int, "required": True}

# Every option, declared once: subcommand (None for the global options) ->
# (runner, help, options), where options maps flag -> (argparse keywords,
# read when).  Read when is None for always, else (reads(args), words):
# where reads is false, a value off the flag's default is refused as
# "<flag> <words>", so such a row gives its default unless it is None.
OPTIONS = {
    None: (None, None, {
        "--seed": (_INT, (
            lambda a: a.command in ("sample", "optimize", "experiment"),
            "applies to sample, optimize and experiment only")),
        "--out": ({}, None),
        "--format": ({"choices": ("json", "csv")}, (
            lambda a: a.command == "experiment",
            "applies to experiment only"))}),
    "sample": (cmd_sample, "sample a regular multigraph", {
        "--n": (_REQUIRED_INT, None), "--d": (_REQUIRED_INT, None),
        "--k": (_INT, _PLANTED), "--coloring-out": ({}, _PLANTED),
        "--planted": ({"action": "store_true", "default": False}, (
            lambda a: a.k is not None, "needs --k"))}),
    "count": (cmd_count, "exact coloring counts and predicates", {
        "--graph": (_REQUIRED, None), "--k": (_REQUIRED_INT, None),
        "--predicate": ({"choices": "proper balanced skewed separable nice "
                                    "rainbow vacant".split()}, (
            lambda a: a.coloring is not None, "needs --coloring")),
        "--filter": ({"choices": colorings.FILTERS, "default": "none"}, (
            lambda a: a.predicate is None, "needs no --predicate")),
        "--profile": ({"type": _parse_profile}, (
            lambda a: a.filter == "profile", "needs --filter profile")),
        "--coloring": ({}, (
            lambda a: a.predicate is not None, "needs --predicate")),
        "--kappa": ({**_FLOAT, "default": 0.1}, (
            lambda a: a.predicate == "separable",
            "needs --predicate separable")),
        "--check-cluster": ({"action": "store_true", "default": False}, (
            lambda a: a.predicate == "nice", "needs --predicate nice"))}),
    "rates": (cmd_rates, "rate functions", {
        "--k": (_INT, _POINT), "--d": (_FLOAT, _POINT),
        "--k-range": ({"type": _parse_range}, None),
        "--d-range": ({"type": _parse_range}, None)}),
    "optimize": (cmd_optimize, "maximize f on the Birkhoff polytope", {
        "--k": (_REQUIRED_INT, None), "--d": ({**_FLOAT, **_REQUIRED}, None),
        "--restarts": ({**_INT, "default": 20}, None), "--region": ({}, None),
        "--kappa": ({**_FLOAT, "default": 0.1}, (
            lambda a: _parse_region(a.region) is not None,
            "needs --region <s>-stable"))}),
    "core": (cmd_core, "core peeling and freedom report", {
        "--graph": (_REQUIRED, None), "--coloring": (_REQUIRED, None),
        "--k": (_REQUIRED_INT, None), "--ell": ({**_INT, "default": 3}, None),
        "--mode": ({"choices": ("prose", "strict"), "default": "prose"},
                   None)}),
    "threshold": (cmd_threshold, "threshold interval table", {
        "--k-range": ({"type": _parse_range, **_REQUIRED}, None),
        "--eps-mode": ({"choices": ("pow09", "zero", "value"),
                        "default": "pow09"}, None),
        "--eps-value": (_FLOAT, (lambda a: a.eps_mode == "value",
                                 "needs --eps-mode value"))}),
    "experiment": (cmd_experiment, "run an experiment spec file", {
        "--spec": (_REQUIRED, None)}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a refusal too
        raise ValidationError(message)


@functools.cache
def build_parser():
    """Built from OPTIONS on the first `main` call, then shared."""
    p = _Parser(prog="regcolor")
    sub = p.add_subparsers(dest="command", required=True)  # of _Parser
    for name, (_, help_, options) in OPTIONS.items():
        parser = sub.add_parser(name, help=help_) if name else p
        for flag, (kwargs, _) in options.items():
            parser.add_argument(flag, **kwargs)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        for name in (None, args.command):  # before any file is opened
            for flag, (kwargs, when) in OPTIONS[name][2].items():
                value = getattr(args, flag[2:].replace("-", "_"))
                if (when and value != kwargs.get("default")
                        and not when[0](args)):
                    raise ValidationError("%s %s" % (flag, when[1]))
        OPTIONS[args.command][0](args)
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
