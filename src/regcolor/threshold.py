"""Threshold numerology: the interval I_k around the k-colorability
threshold, the canonical degree d_col(k), the inverse map F(d), and the
older comparison intervals.

Every interval comes from the vectorized `threshold_scan`.  The endpoints
share the large common term (2k-1) ln k, so the interval length is taken
from the O(1) offsets and keeps full precision even when that term is ~1e7.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, ValidationError

AT_THRESHOLD_TOL = 1e-9


def default_eps(k):
    """eps_k = k^{-0.9}, the only concrete scaling hinted at."""
    return float(k) ** -0.9


@dataclass(frozen=True)
class ThresholdRecord:
    k: int
    eps: float
    lo: float          # (2k-1) ln k - 2 ln 2 - eps
    hi: float          # (2k-1) ln k - 1 + eps
    length: float      # hi - lo from the offsets, 2 ln 2 - 1 + 2 eps
    d_col: float
    integer_in_interval: int | None
    method: str        # "integer" or "midpoint"


def _refuse_several_integers(scan):
    """GuardError for the first k of a scan whose interval holds two or
    more integers, naming them."""
    bad = np.flatnonzero(scan["n_integers"] > 1)
    if bad.size:
        idx = int(bad[0])
        count = int(scan["n_integers"][idx])
        first = math.floor(scan["lo"][idx]) + 1
        raise GuardError("interval for k=%d contains %d integers: %s"
                         % (int(scan["k"][idx]), count,
                            list(range(first, first + count))))


def threshold_record(k, eps=None):
    """I_k = ((2k-1)ln k - 2 ln 2 - eps, (2k-1)ln k - 1 + eps); d_col is the
    unique integer inside if there is one, else the midpoint.  Two or more
    integers inside is an error, never a silent choice.  The one-row view of
    threshold_scan(k, k, "value", eps), eps defaulting to default_eps(k)."""
    if k < 3:
        raise ValidationError("k >= 3 required")
    if eps is None:
        eps = default_eps(k)
    scan = threshold_scan(k, k, "value", eps)
    _refuse_several_integers(scan)
    lo, hi, length, d_col, n_int = (scan[key][0].item() for key in (
        "lo", "hi", "length", "d_col", "n_integers"))
    if n_int == 1:
        return ThresholdRecord(k, eps, lo, hi, length, d_col, int(d_col),
                               "integer")
    return ThresholdRecord(k, eps, lo, hi, length, d_col, None, "midpoint")


def threshold_scan(k_lo, k_hi, eps_mode="pow09", eps_value=None):
    """Vectorized records for k in [k_lo, k_hi]: returns a dict of arrays
    (k, lo, hi, length, n_integers, d_col).  eps_mode: pow09 | zero | value."""
    if k_lo < 3 or k_hi < k_lo:
        raise ValidationError("need 3 <= k_lo <= k_hi")
    ks = np.arange(k_lo, k_hi + 1, dtype=np.float64)
    if eps_mode == "pow09":
        eps = ks ** -0.9
    elif eps_mode == "zero":
        eps = np.zeros_like(ks)
    elif eps_mode == "value":
        if eps_value is None or not 0 <= eps_value < math.inf:
            raise ValidationError("eps_mode=value needs a finite eps_value "
                                  ">= 0, got %r" % (eps_value,))
        eps = np.full_like(ks, float(eps_value))
    else:
        raise ValidationError("unknown eps_mode %r" % (eps_mode,))
    base = (2 * ks - 1) * np.log(ks)
    lo_off = -2 * math.log(2) - eps
    hi_off = -1 + eps
    lo = base + lo_off
    hi = base + hi_off
    # integers strictly inside (lo, hi); an integer endpoint is outside
    n_int = (np.ceil(hi).astype(np.int64) - np.floor(lo).astype(np.int64)
             - 1)
    d_col = np.where(n_int == 1, np.floor(lo) + 1, (lo + hi) / 2)
    return {"k": ks.astype(np.int64), "lo": lo, "hi": hi,
            "length": hi_off - lo_off, "n_integers": n_int, "d_col": d_col}


def coloring_number(d, k_max=10 ** 4, eps_mode="pow09", eps_value=None):
    """F(d): the k with d_col(k-1) <= d < d_col(k), i.e. the smallest k whose
    threshold d has not yet reached (d_col is increasing in k).  Errors when d
    sits on a threshold within 1e-9 (undefined there)."""
    scan = threshold_scan(3, k_max, eps_mode, eps_value)
    d_col = scan["d_col"]
    near = np.abs(d_col - d) < AT_THRESHOLD_TOL
    if near.any():
        k_at = int(scan["k"][near][0])
        raise GuardError("d=%r is at the k=%d threshold" % (d, k_at))
    above = d < d_col
    if not above.any():
        raise ValidationError("d exceeds d_col(k) for every k <= %d" % k_max)
    return int(scan["k"][above].min())


def kpgw_intervals(k):
    """The earlier known bounds: exact interval
    ((2k-3)ln(k-1), (2k-2)ln(k-1)) and the plus/minus-one interval
    [(2k-2)ln(k-1), (2k-1)ln k]."""
    if k < 3:
        raise ValidationError("k >= 3 required")
    a = math.log(k - 1)
    return ((2 * k - 3) * a, (2 * k - 2) * a), ((2 * k - 2) * a,
                                                (2 * k - 1) * math.log(k))


_CSV_BLOCK = 4096  # rows per joined string; one list of all rows costs more


def format_csv(k_lo, k_hi, eps_mode="pow09", eps_value=None):
    """CSV table `k,lo,hi,d_col,method` for k in [k_lo, k_hi], from one
    threshold_scan.  An interval with several integers is refused."""
    scan = threshold_scan(k_lo, k_hi, eps_mode, eps_value)
    _refuse_several_integers(scan)
    cols = (scan["k"], scan["lo"], scan["hi"], scan["d_col"],
            scan["n_integers"])
    blocks = ["k,lo,hi,d_col,method\n"]
    for start in range(0, cols[0].size, _CSV_BLOCK):
        rows = zip(*(c[start:start + _CSV_BLOCK].tolist() for c in cols))
        blocks.append("".join(
            "%d,%.12g,%.12g,%.12g,%s\n"
            % (k, lo, hi, d_col, "integer" if n == 1 else "midpoint")
            for k, lo, hi, d_col, n in rows))
    return "".join(blocks)


def smallest_reliable_k(k_max=10 ** 6, eps_mode="pow09", eps_value=None):
    """Smallest k such that the at-most-one-integer property holds for every
    k' in [k, k_max] under the chosen eps.  Computed, not assumed; records
    for smaller k should be treated as outside the proven regime."""
    scan = threshold_scan(3, k_max, eps_mode, eps_value)
    bad = scan["k"][scan["n_integers"] > 1]
    return int(bad.max()) + 1 if bad.size else 3
