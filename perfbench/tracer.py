"""Outside-in tracing of regcolor's layers.

The tracer wraps public functions of the regcolor modules from the benchmark's
own code: every module attribute that holds the original function object is
replaced (so names imported with `from .graphs import vertex_class_degrees`
are traced too), and restored afterwards.  Each call becomes a span with a
name, start, end, parent span and run id (one run per CLI job); spans stay
in memory until `write_spans`.  Self time is a span's duration minus the time
its child spans cover.  Generators are timed over every step of their
iteration, not at creation.  Counts come from return values and raised
exceptions.
"""

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# _ascend's default iteration cap: a start that used all of it is "capped"
ASCENT_CAP = 150


def _count_sinkhorn(result, counts, name):
    counts[name + ".iters"] += result[1]


def _count_maximize(result, counts, name):
    iters = [entry["iters"] for entry in result.trace]
    counts[name + ".starts"] += len(iters)
    counts[name + ".capped_starts"] += sum(it >= ASCENT_CAP for it in iters)
    counts[name + ".ascent_iters"] += sum(iters)


def _count_peel(result, counts, name):
    counts[name + ".peeled"] += len(result.peel_order)


def _count_nonzero(result, counts, name):
    counts[name + ".nonzero"] += result > 0


# (module, function, counter on the return value or None)
TARGETS = (
    ("graphs", "sample_configuration", None),
    ("graphs", "contract", None),
    ("graphs", "cycle_census", None),
    ("graphs", "sample_planted", None),
    ("graphs", "vertex_class_degrees", None),
    ("graphs", "parse_graph", None),
    ("graphs", "format_graph", None),
    ("graphs", "enumerate_configurations", None),
    ("clustergeo", "sigma_ell_core", _count_peel),
    ("clustergeo", "build_WUY", None),
    ("clustergeo", "freedom_report", None),
    ("clustergeo", "check_core_inclusion", None),
    ("colorings", "count_colorings", _count_nonzero),
    ("colorings", "vacant_table", None),
    ("birkhoff", "maximize_f", _count_maximize),
    ("birkhoff", "project_doubly_stochastic", _count_sinkhorn),
    ("birkhoff", "grad_f", None),
    ("threshold", "format_csv", None),
    ("threshold", "threshold_scan", None),
    ("threshold", "threshold_record", None),
    ("moments", "validate_admissible", None),
    ("experiments", "run_experiment", None),
    ("experiments", "emit", None),
    ("cli", "main", None),
)

# generators report items yielded instead of calls
GENERATORS = {"graphs.enumerate_configurations"}
# a ValidationError raised here is a rejected projection, counted as failed
FAILED_ON_RAISE = {"birkhoff.project_doubly_stochastic"}

KINDS = ("cycle-census", "colorability-frequency", "vacant-fractions",
         "core-profile", "moment-vs-oracle", "optimize-sweep",
         "threshold-table")


def metric_names():
    """Every per-layer metric the tracer reports, in a fixed order."""
    names = []
    for module, func, counter in TARGETS:
        name = "%s.%s" % (module, func)
        names.append(name + ".self_s")
        names.append(name + (".items" if name in GENERATORS else ".calls"))
        extra = {_count_sinkhorn: ("iters", "failed"),
                 _count_maximize: ("starts", "capped_starts", "ascent_iters"),
                 _count_peel: ("peeled",),
                 _count_nonzero: ("nonzero",)}.get(counter, ())
        names.extend("%s.%s" % (name, e) for e in extra)
    names.extend("experiments.run_experiment.%s.total_s" % kind
                 for kind in KINDS)
    return names


class Tracer:
    """Span recorder.  `install` patches the regcolor modules, `uninstall`
    restores them; per-pass aggregates are reset by `start_pass`."""

    def __init__(self, package):
        self.package = package
        # spans as columns of plain numbers: a list of tuples would be
        # scanned by every garbage collection and slow the traced pass
        self.parent = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run = array("i")
        self.names = []          # name id -> layer name
        self.runs = []           # run id -> label
        self.run_id = -1
        self._stack = []         # ids of the open spans
        self._child = []         # time their child spans took so far
        self._patches = []
        # times of the current run, added to the pass totals by end_run
        self._run_self = defaultdict(float)
        self._run_totals = defaultdict(float)
        self.self_s = defaultdict(float)   # layer -> self time this pass
        self.totals = defaultdict(float)   # experiment kind -> inclusive time
        self.counts = defaultdict(int)

    def start_pass(self):
        self.self_s.clear()
        self.totals.clear()
        self.counts.clear()

    def begin_run(self, label):
        self.runs.append(label)
        self.run_id = len(self.runs) - 1

    def end_run(self, scale):
        """Add the run's times, multiplied by `scale`, to the pass totals."""
        for totals, run in ((self.self_s, self._run_self),
                            (self.totals, self._run_totals)):
            for key, value in run.items():
                totals[key] += value * scale
            run.clear()

    # -- spans -------------------------------------------------------------

    def _enter(self, name_id):
        span_id = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(name_id)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(span_id)
        self._child.append(0.0)
        start = time.perf_counter()
        self.start.append(start)
        return span_id, start

    def _exit(self, name, span_id, start):
        end = time.perf_counter()
        self.end[span_id] = end
        self._stack.pop()
        child = self._child.pop()
        duration = end - start
        if self._child:
            self._child[-1] += duration
        self._run_self[name] += duration - child
        return duration

    def _wrap(self, name, func, counter):
        counts = self.counts
        name_id = len(self.names)
        self.names.append(name)
        if name in GENERATORS:
            items = name + ".items"

            @functools.wraps(func)
            def traced_gen(*args, **kwargs):
                it = func(*args, **kwargs)
                while True:
                    span_id, start = self._enter(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, span_id, start)
                    counts[items] += 1
                    yield item
            return traced_gen

        calls, failed = name + ".calls", name + ".failed"
        is_run = name == "experiments.run_experiment"
        fails = name in FAILED_ON_RAISE
        validation_error = self.package.errors.ValidationError

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id, start = self._enter(name_id)
            try:
                result = func(*args, **kwargs)
            except validation_error:
                if fails:
                    counts[failed] += 1
                raise
            finally:
                duration = self._exit(name, span_id, start)
                counts[calls] += 1
            if counter is not None:
                counter(result, counts, name)
            if is_run:
                self._run_totals[args[0].kind] += duration
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == self.package.__name__ or
                                         key.startswith(self.package.__name__
                                                        + "."))]
        for module_name, func_name, counter in TARGETS:
            owner = getattr(self.package, module_name)
            original = getattr(owner, func_name)
            wrapper = self._wrap("%s.%s" % (module_name, func_name),
                                 original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def pass_metrics(self):
        """Per-layer metrics of the current pass, keyed as metric_names()."""
        out = {}
        for name in metric_names():
            if name.endswith(".self_s"):
                out[name] = self.self_s.get(name[:-len(".self_s")], 0.0)
            elif name.endswith(".total_s"):
                out[name] = self.totals.get(name.split(".")[2], 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def self_total(self):
        """Sum of self times over the traced layers in this pass."""
        return sum(self.self_s.values())

    def write_spans(self, path, header):
        """Gzipped CSV of every span, times in seconds from the first span's
        start; `#` lines carry the header and the run labels."""
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# %s\n" % header)
            for run, label in enumerate(self.runs):
                fh.write("# run %d: %s\n" % (run, label))
            fh.write("span,parent,name,start_s,end_s,run\n")
            for span_id in range(len(self.start)):
                fh.write("%d,%d,%s,%.6f,%.6f,%d\n" % (
                    span_id, self.parent[span_id],
                    self.names[self.name_id[span_id]],
                    self.start[span_id] - origin, self.end[span_id] - origin,
                    self.run[span_id]))
