"""Host-speed normalization of the benchmark's times.

On a host that shares its CPUs with other machines, the same job can run up
to 1.6 times slower for stretches longer than a whole run, and CPU time slows
with wall time, so no statistic over one run's passes removes it.  A fixed
reference kernel timed around each job slows with it.  Each job's time is
divided by the mean kernel time before and after it and multiplied by
REFERENCE_S, the kernel's median time on the 2-CPU Intel Xeon virtual
machine the benchmark was tuned on (Python 3.11, numpy 2.4).  A normalized
time reads as seconds at that reference speed.
"""

import gc
import random
import time

import numpy as np

REFERENCE_S = 0.033


def reference_time():
    """Seconds the reference kernel takes now.  The kernel mixes the work
    regcolor does: tuples, dicts and sorting in the interpreter, and many
    small numpy calls.  The garbage collector is off while it runs, so the
    program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        gen = random.Random(7)
        edges = [(gen.randrange(4000), gen.randrange(4000))
                 for _ in range(24000)]
        edges.sort()
        adj = [{} for _ in range(4000)]
        for u, v in edges:
            adj[u][v] = adj[u].get(v, 0) + 1
        A = np.arange(1.0, 101.0).reshape(10, 10)
        for _ in range(600):
            A /= A.sum(axis=1, keepdims=True)
            A /= A.sum(axis=0, keepdims=True)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalized(seconds, reference):
    """`seconds` measured while the kernel took `reference`, at reference
    speed."""
    return seconds * REFERENCE_S / reference
