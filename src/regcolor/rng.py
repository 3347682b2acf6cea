"""Seed handling.

Every sampler takes an explicit numpy Generator.  For sweeps, a 64-bit master
seed plus a stream index derive independent generators, so results do not
depend on scheduling order.
"""

import numpy as np

from .errors import ValidationError


def stream(seed, index=0):
    """Generator for stream `index` under the given 64-bit master seed."""
    if seed < 0:
        raise ValidationError("seed must be >= 0, got %d" % seed)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.default_rng(ss)
