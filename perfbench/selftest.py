"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py [--seed N]

Runs one pass of every workload, confirms that the untouched outputs pass
every check, then corrupts one output at a time (or breaks one job's input)
and confirms that the failure is counted, i.e. that fail_frac rises above 0.
Exits 1 if a corruption goes unnoticed.
"""

import argparse
import json
import shutil
import sys
from pathlib import Path

import run
from workloads import WORKLOADS


def _edit_json(path, edit):
    doc = json.loads(Path(path).read_text())
    edit(doc)
    Path(path).write_text(json.dumps(doc))


def _bump_metric(name, metric, delta):
    def corrupt(work):
        _edit_json(work / (name + ".json"),
                   lambda doc: doc["metrics"][metric].update(
                       mean=doc["metrics"][metric]["mean"] + delta))
    return corrupt


def _bump_key(name, key, delta):
    def corrupt(work):
        _edit_json(work / (name + ".json"),
                   lambda doc: doc.update({key: doc[key] + delta}))
    return corrupt


def _unbalance_argmax(work):
    def edit(doc):
        doc["argmax"][0][0] += 1e-3
    _edit_json(work / "optimize.json", edit)


def _drop_table_row(work):
    def edit(doc):
        doc["table"] = "\n".join(doc["table"].splitlines()[:-1]) + "\n"
    _edit_json(work / "threshold.json", edit)


def _move_edge(work):
    path = work / "planted.txt"
    lines = path.read_text().splitlines()
    u, v = lines[1].split()
    lines[1] = "%s %d" % (u, int(v) + 1)
    path.write_text("\n".join(lines) + "\n")


# (workload, what is wrong, corruption of the pass outputs)
CORRUPTIONS = (
    ("census", "one triangle too many in one sample",
     _bump_metric("census-n10000", "xi_3", 1 / 8)),
    ("census", "one self-loop too few on the n=1e5 sample",
     _bump_metric("census-n100000", "xi_1", -1)),
    ("planted", "core job reports a core one vertex too large",
     _bump_key("core", "core_size", 1)),
    ("planted", "core-profile ell=1 core size off by one",
     _bump_metric("core-ell1", "core_size", 1)),
    ("planted", "sampled graph file has a moved edge", _move_edge),
    ("planted", "vacant fraction off by 1e-6",
     _bump_metric("vacant", "vacant_fraction", 1e-6)),
    ("analytic", "argmax not doubly stochastic", _unbalance_argmax),
    ("analytic", "best_value not f(argmax)", _bump_key("optimize",
                                                       "best_value", 1e-6)),
    ("analytic", "threshold table misses its last k", _drop_table_row),
    ("exact", "moment-vs-oracle value off by 1e-8",
     _bump_metric("moment-n6-d2-k3", "log_exact_over_n", 1e-8)),
    ("exact", "one sample's colorability flipped",
     _bump_metric("colorable-n12-d3-k3", "colorable", 1 / 40)),
)


def fail_frac(ledger):
    return ledger.failed / ledger.attempted


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    regcolor = run.load_regcolor()
    if regcolor is None:
        return 2

    missed = 0
    root = run.OUT / "selftest"
    try:
        for name, build in WORKLOADS.items():
            work = root / name
            work.mkdir(parents=True, exist_ok=True)
            workload = build(args.seed, work)
            ledger = run.Ledger(workload.jobs)
            _, _, codes = run.run_pass(regcolor.cli, workload.jobs)
            ledger.record_pass(codes)
            ledger.run_checks(workload.check)
            print("%-9s untouched outputs: fail_frac %.4g over %d"
                  % (name, fail_frac(ledger), ledger.attempted))
            missed += ledger.failed > 0
            pristine = run.read_outputs(workload.jobs)

            for target, what, corrupt in CORRUPTIONS:
                if target != name:
                    continue
                for path, data in pristine.items():
                    Path(path).write_bytes(data)
                corrupt(work)
                ledger = run.Ledger(workload.jobs)
                ledger.run_checks(workload.check)
                caught = ledger.failed > 0
                missed += not caught
                print("%-9s %-48s fail_frac %.4g %s"
                      % (name, what, fail_frac(ledger),
                         "caught" if caught else "MISSED"))

            # a job that cannot run: its spec names no known kind
            spec = Path(workload.jobs[0].argv[-1])
            spec.write_text(spec.read_text().replace("kind = ", "kind = x"))
            ledger = run.Ledger(workload.jobs[:1])
            _, _, codes = run.run_pass(regcolor.cli, workload.jobs[:1])
            ledger.record_pass(codes)
            caught = ledger.failed > 0
            missed += not caught
            print("%-9s %-48s fail_frac %.4g %s"
                  % (name, "first job refused (exit code %r)" % codes[0],
                     fail_frac(ledger), "caught" if caught else "MISSED"))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print("self-test %s" % ("failed" if missed else "passed"))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
