"""regcolor benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload (see workloads.py) is turned
into regcolor CLI jobs from the seed; one closed-loop client (this process,
one thread) runs the job list back to back as a pass, in-process through
`regcolor.cli.main`, repeating passes for about S seconds.  After the passes
the outputs are checked against independent re-derivations (not timed).

--trace 0 reports the end-to-end metrics:
  wall_s       median pass time, normalized to the reference host speed:
               each job's time is scaled by the reference kernel timed
               before and after it (see hostspeed.py)
  setup_s      median time of a fresh interpreter that imports regcolor and
               makes one first call, normalized the same way (several
               probes per run)
  peak_rss_mb  peak resident memory of this process after the passes
  ok_frac      1 - fail_frac; a job that raises, exits non-zero or changes
               its output between passes, and a failed check, each count as
               one failure out of the jobs and checks attempted
The raw pass times are printed beside them.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracer.py (times normalized per job like wall_s) plus the tracing
overhead; the spans, with raw times, are written to
perfbench/out/spans-<workload>.csv.gz.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Without regcolor sources under src/ the benchmark exits
with code 2 and prints no result.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
SETUP_PROBES = 9


def load_regcolor():
    """Import regcolor from this checkout's src/; None (with a message on
    stderr) when the sources are missing or another copy would be used."""
    if not (SRC / "regcolor" / "__init__.py").is_file():
        print("perfbench: no regcolor sources under %s" % SRC, file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import regcolor
    import regcolor.cli
    if Path(regcolor.__file__).resolve().parent != SRC / "regcolor":
        print("perfbench: imported regcolor from %s, not from %s"
              % (regcolor.__file__, SRC), file=sys.stderr)
        return None
    return regcolor


def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def measure_setup(workdir):
    """Median over fresh interpreters running probe.py, each normalized by
    the reference kernel timed before and after it; one probe before them
    fills the bytecode cache.  Returns (median, all ok)."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(workdir / "probe.txt")]
    times, ok = [], True
    ref = hostspeed.reference_time()
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        took = time.perf_counter() - start
        after = hostspeed.reference_time()
        if i:
            times.append(hostspeed.normalized(took, (ref + after) / 2))
        ref = after
        ok = ok and proc.returncode == 0
    return statistics.median(times), ok


def run_pass(cli, jobs, tracer=None):
    """Run every job once, with the reference kernel timed between jobs.
    Returns (seconds, seconds normalized to the reference speed, exit
    codes); each job is normalized by the kernel before and after it."""
    codes, raw, norm = [], 0.0, 0.0
    ref = hostspeed.reference_time()
    for job in jobs:
        if tracer is not None:
            tracer.begin_run(job.name)
        start = time.perf_counter()
        try:
            codes.append(cli.main(list(job.argv)))
        except SystemExit as exc:   # argparse refusing the arguments
            codes.append(exc.code)
        took = time.perf_counter() - start
        after = hostspeed.reference_time()
        raw += took
        norm += hostspeed.normalized(took, (ref + after) / 2)
        if tracer is not None:
            tracer.end_run(hostspeed.normalized(1.0, (ref + after) / 2))
        ref = after
    return raw, norm, codes


def read_outputs(jobs):
    out = {}
    for job in jobs:
        for path in job.outputs:
            try:
                out[path] = Path(path).read_bytes()
            except OSError:
                out[path] = None
    return out


class Ledger:
    """Jobs and checks attempted and failed; failures are named on stderr."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.first_outputs = None

    def record_pass(self, codes):
        outputs = read_outputs(self.jobs)
        if self.first_outputs is None:
            self.first_outputs = outputs
        for job, code in zip(self.jobs, codes):
            same = all(outputs[p] is not None and
                       outputs[p] == self.first_outputs[p]
                       for p in job.outputs)
            self.record("job %s" % job.name, code == 0 and same,
                        "exit code %r, output repeats: %s" % (code, same))

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("FAILED %s %s" % (name, detail), file=sys.stderr)

    def run_checks(self, check):
        try:
            results = check()
        except Exception as exc:   # a missing or malformed output
            self.record("checks", False, "raised %s: %s"
                        % (type(exc).__name__, exc))
            return
        for name, ok, detail in results:
            self.record(name, bool(ok), detail)


def repeat(seconds, one_pass):
    """Call one_pass until the next call would end after `seconds`, at least
    MIN_PASSES times unless that would take four times as long."""
    start = time.perf_counter()
    count = 0
    while True:
        last = one_pass()
        count += 1
        budget = seconds if count >= MIN_PASSES else 4 * seconds
        if time.perf_counter() - start + last > budget:
            return


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(label, values):
    q1, q3 = quartiles(values)
    print("%s per pass: median %.4f q1 %.4f q3 %.4f over %d passes"
          % (label, statistics.median(values), q1, q3, len(values)))


def measure(cli, jobs, ledger, seconds, workdir):
    raws, walls = [], []

    def one_pass():
        raw, wall, codes = run_pass(cli, jobs)
        raws.append(raw)
        walls.append(wall)
        ledger.record_pass(codes)
        return raw

    repeat(seconds, one_pass)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup, setup_ok = measure_setup(workdir)
    ledger.record("setup probes", setup_ok)
    describe("raw seconds", raws)
    describe("wall_s (normalized)", walls)
    return {"wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_kib / 1024, "MiB")}


def measure_traced(regcolor, jobs, ledger, seconds, workload):
    from tracer import Tracer, metric_names

    tracer = Tracer(regcolor)
    plain, traced, per_pass = [], [], []

    def one_pair():
        raw, wall, codes = run_pass(regcolor.cli, jobs)
        plain.append(wall)
        ledger.record_pass(codes)
        tracer.start_pass()
        tracer.install()
        try:
            raw_t, wall_t, codes = run_pass(regcolor.cli, jobs, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall_t)
        ledger.record_pass(codes)
        per_pass.append((tracer.pass_metrics(), tracer.self_total() / wall_t))
        return raw + raw_t

    try:
        repeat(seconds, one_pair)
    finally:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / ("spans-%s.csv.gz" % workload),
                           json.dumps(environment()))

    metrics = {}
    for name in metric_names():
        values = [m[name] for m, _ in per_pass]
        if name.endswith("_s"):
            metrics[name] = (statistics.median(values), "s")
        else:
            ledger.record("trace count %s repeats" % name,
                          len(set(values)) == 1, str(values))
            metrics[name] = (values[0], "count")
    wall_t, wall = statistics.median(traced), statistics.median(plain)
    metrics["trace.wall_s"] = (wall_t, "s")
    metrics["trace.untraced_wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall_t - wall, "s")
    metrics["trace.coverage"] = (statistics.median(c for _, c in per_pass),
                                 "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    regcolor = load_regcolor()
    if regcolor is None:
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (one of %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    workdir = OUT / ("work-%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        ledger = Ledger(workload.jobs)
        if args.trace:
            metrics = measure_traced(regcolor, workload.jobs, ledger,
                                     args.seconds, args.workload)
        else:
            metrics = measure(regcolor.cli, workload.jobs, ledger,
                              args.seconds, workdir)
        ledger.run_checks(workload.check)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        metrics["ok_frac"] = (1 - ledger.failed / ledger.attempted, "ratio")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("workload %s seed %d: fail_frac %.6g (%d of %d jobs and checks "
          "failed)" % (args.workload, args.seed,
                       ledger.failed / ledger.attempted, ledger.failed,
                       ledger.attempted))
    for name, (value, unit) in metrics.items():
        print("  %-58s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
