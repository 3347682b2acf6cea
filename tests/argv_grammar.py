"""Hypothesis over the `regcolor` argv grammar.

Each example picks a subcommand and gives each option of `cli.OPTIONS` or
leaves it out.  Values come from a boundary set: 0, -1, 1..3, one past each
guard bound the option reaches alone, 10^20, nan, inf and 4e308, plus valid,
missing, empty and non-UTF-8 files.  No value sits at or just under a size
bound: such a run is accepted and allocates hundreds of MiB.  In most
examples the options that no mode would read are then dropped, so that the
run gets past those refusals.  Every run must exit 0 with nothing on stderr,
or 2 with exactly one `refused:` line.

    python -W error::RuntimeWarning tests/argv_grammar.py EXAMPLES DIR

runs EXAMPLES examples in one process, with its files in DIR, and exits
non-zero on the first argv that breaks the rule.  `test_cli` runs it under
an address-space limit.
"""

import contextlib
import io
import math
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from regcolor import cli, experiments, guards, threshold
from regcolor.errors import ValidationError

HUGE = "4" + "0" * 308
NUMBERS = ("0", "-1", "1", "2", "3", str(10 ** 20), "nan", "inf", "-inf",
           HUGE, "4e308", "0.5")


def _past(name):
    return getattr(guards, name) + 1


def _first_unscannable_k():
    """Smallest k whose (2k - 1) ln k passes threshold.MAX_EPS."""
    lo, hi = 3, int(threshold.MAX_EPS)
    while lo < hi:
        mid = (lo + hi) // 2
        if (2 * mid - 1) * math.log(mid) > threshold.MAX_EPS:
            hi = mid
        else:
            lo = mid + 1
    return lo


# one past a guard bound that the option reaches on its own; whatever the
# other values, such a run is refused or stays small
PAST = {
    ("sample", "--n"): [_past("MAX_SAMPLE_CLONES")],
    ("sample", "--d"): [_past("MAX_SAMPLE_CLONES")],
    ("count", "--k"): [_past("MAX_COUNT_COLORS"), _past("MAX_CLASS_ENTRIES")],
    ("core", "--k"): [_past("MAX_CLASS_ENTRIES")],
    ("optimize", "--k"): [math.isqrt(guards.MAX_START_ENTRIES // 7) + 1],
    ("optimize", "--restarts"): [-(-_past("MAX_START_ENTRIES") // 9) - 7],
}


def _files(root):
    """name -> path of every file an option may name."""
    def write(name, data):
        path = root / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        return str(path)

    paths = {"missing": str(root / "missing.txt"),
             "no-dir": str(root / "no-dir" / "out.txt"),
             "out": str(root / "out.txt"),
             "empty": write("empty.txt", ""),
             "utf16": write("utf16.txt", b"\xff\xfe3\x002\x00\n\x00"),
             "zeros": write("zeros.txt", "0 " * 6)}
    # planted on 6 vertices and one past the cluster oracles' bound (15),
    # with their colorings, and one past the counting bound (31)
    for name, n in (("small", 6), ("cluster", _past("MAX_CLUSTER_VERTICES"))):
        paths["g_" + name] = str(root / ("g_%s.txt" % name))
        paths["c_" + name] = str(root / ("c_%s.txt" % name))
        assert cli.main(["--out", paths["g_" + name], "sample", "--planted",
                         "--n", str(n), "--d", "2", "--k", "3",
                         "--coloring-out", paths["c_" + name]]) == 0
    paths["g_count"] = str(root / "g_count.txt")
    assert cli.main(["--out", paths["g_count"], "sample", "--n",
                     str(_past("MAX_COUNT_VERTICES")), "--d", "2"]) == 0
    paths["g0"] = write("g0.txt", "0 0\n")
    paths["bad"] = write("bad.txt", "3 x\n")
    specs = {"cycle-census": "n = 10\nd = 3\n",
             "colorability-frequency": "n = 6\nd = 2\nk = 3\nsamples = 2\n",
             "vacant-fractions": "n = 6\nd = 2\nk = 3\n",
             "core-profile": "n = 6\nd = 2\nk = 3\nell = 1\n",
             "moment-vs-oracle": "n = 4\nd = 2\nk = 2\n",
             "optimize-sweep": "k = 3\nd = 5\nrestarts = 1\n",
             "threshold-table": "k_lo = 3\nk_hi = 10\n"}
    assert set(specs) == set(experiments.KINDS)
    for kind, text in specs.items():
        paths[kind] = write(kind + ".txt", "kind = %s\n%s" % (kind, text))
    return paths


def _ranges(los):
    """`lo..hi` with hi - lo + 1 a few rows, none, or one past
    guards.MAX_TABLE_ROWS, plus malformed ones."""
    spans = st.sampled_from((-1, 0, 1, 2, guards.MAX_TABLE_ROWS))
    return (st.tuples(st.sampled_from(los), spans).map(
        lambda t: "%d..%d" % (t[0], t[0] + t[1]))
        | st.sampled_from(("", "3", "3..x", "..", "3...4")))


# values that most runs accept, so that many get past the parser
USUAL = {"--n": ("6", "12"), "--d": ("2", "4"), "--k": ("3",),
         "--ell": ("1", "2"), "--restarts": ("0", "1"), "--seed": ("0", "7"),
         "--kappa": ("0.3",), "--eps-value": ("0.3",),
         ("optimize", "--k"): ("3",), ("optimize", "--d"): ("5", "20"),
         ("rates", "--d"): ("4", "2.5"), "--k-range": ("3..5",),
         "--d-range": ("1..3",),
         "--profile": ("1/2,1/2", "1/3,1/3,1/3"),
         "--region": ("unconstrained", "1-stable", "3-stable")}
USUAL_FILES = {"--out": ("out",), "--coloring-out": ("out",),
               "--graph": ("g_small",), "--coloring": ("c_small",),
               "--spec": experiments.KINDS}


def _values(command, flag, kwargs, files):
    """(usual values, boundary values) of one option, as strategies."""
    def named(*names):
        return st.sampled_from([files[name] for name in names])

    ints = [int(v) for v in NUMBERS[:6]] + [int(HUGE)]
    boundary = {
        "--out": named("no-dir"),
        "--coloring-out": named("no-dir"),
        "--graph": named("g_cluster", "g_count", "g0", "bad", "empty",
                         "utf16", "missing"),
        "--coloring": named("c_cluster", "zeros", "bad", "empty", "utf16",
                            "missing"),
        "--spec": named("empty", "utf16", "missing"),
        "--profile": st.sampled_from(("abc", "1/0", "-1/2,3/2", "")),
        "--region": st.sampled_from(("0-stable", "x-stable", "")),
        "--k-range": _ranges(ints + [_first_unscannable_k()]),
        "--d-range": _ranges(ints),
    }.get(flag)
    if flag in USUAL_FILES:
        usual = named(*USUAL_FILES[flag])
    elif "choices" in kwargs:
        usual = st.sampled_from(kwargs["choices"])
        boundary = st.just("sparkly")
    else:
        usual = st.sampled_from(USUAL.get((command, flag))
                                or USUAL.get(flag, ("1", "2", "3")))
    if boundary is None:
        boundary = st.sampled_from(NUMBERS + tuple(
            str(v) for v in PAST.get((command, flag), ())))
    return usual, boundary


@st.composite
def argvs(draw, files):
    command = draw(st.sampled_from([name for name in cli.OPTIONS if name]))
    given = []  # (parser, flag, argv word)
    for name in (None, command):
        if name:
            given.append((None, None, name))
        for flag, (kwargs, _) in cli.OPTIONS[name][2].items():
            # a required option mostly given, any other half the time;
            # hypothesis favours 0, the usual case
            present = draw(st.integers(0, 15))
            if present == 15 if kwargs.get("required") else present < 8:
                continue
            if kwargs.get("action") == "store_true":
                given.append((name, flag, flag))
                continue
            usual, boundary = _values(name, flag, kwargs, files)
            value = draw(boundary if draw(st.integers(0, 2)) == 2 else usual)
            given.append((name, flag, "%s=%s" % (flag, value)))  # "-1" too
    if draw(st.integers(0, 3)) < 3:  # mostly drop what no mode would read
        with contextlib.suppress(ValidationError):
            args = cli.build_parser().parse_args([w for _, _, w in given])
            given = [(name, flag, word) for name, flag, word in given
                     if not flag or _reads(cli.OPTIONS[name][2][flag], args)]
    return [word for _, _, word in given]


def _reads(option, args):
    when = option[1]
    return when is None or when[0](args)


def run(argv):
    """(exit code, stderr) of one in-process call."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def check_grammar(examples, root):
    files = _files(Path(root))

    @settings(max_examples=examples, deadline=None, database=None,
              derandomize=True, suppress_health_check=list(HealthCheck))
    @given(argvs(files))
    def check(argv):
        code, err = run(argv)
        lines = err.splitlines()
        assert code in (0, 2), (code, err)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("refused: "), err
        else:
            assert err == "", err

    check()


if __name__ == "__main__":
    check_grammar(int(sys.argv[1]), sys.argv[2])
