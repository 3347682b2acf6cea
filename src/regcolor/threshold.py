"""Threshold numerology: the interval I_k around the k-colorability
threshold, the canonical degree d_col(k), the inverse map F(d), and the
older comparison intervals.

Every interval comes from the vectorized `threshold_scan`; a table scans
one block of k at a time, as it is written (`format_csv`), and writes each
block from one byte matrix (`_csv_rows`) with the bytes of '%.12g', or of
the row expression itself where a value leaves 1 <= x < 1e11.  Its digits
are words of `graphs._DIGIT_WORDS`, the table the graph writer reads.  The
table also comes pre-escaped, as its JSON string form (each LF written as
backslash and 'n'), which a JSON writer copies as it is.  The endpoints
share the large common term (2k-1) ln k, so the interval length is taken
from the O(1) offsets (`_offsets`) and keeps full precision even when that
term is ~1e7; the table's refusal pass scans only the blocks where that
length reaches 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, ValidationError
from . import guards
from .graphs import _DIGIT_WORDS

AT_THRESHOLD_TOL = 1e-9

# above 2^52 the interval ends are a unit or more apart as doubles, so the
# integers inside can no longer be counted: bounds eps and (2k-1) ln k
MAX_EPS = 2.0 ** 52

# a several-integers refusal lists at most this many integers
_MAX_LISTED = 10


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
    more integers, naming them (the first two and the last when there are
    more than _MAX_LISTED)."""
    bad = np.flatnonzero(scan["n_integers"] > 1)
    if bad.size:
        idx = int(bad[0])
        count = int(scan["n_integers"][idx])
        first = math.floor(scan["lo"][idx]) + 1
        if count <= _MAX_LISTED:
            listed = list(range(first, first + count))
        else:
            listed = "[%d, %d, ..., %d]" % (first, first + 1,
                                            first + count - 1)
        raise GuardError("interval for k=%d contains %d integers: %s"
                         % (int(scan["k"][idx]), count, listed))


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


def _check_scan(k_lo, k_hi, eps_mode, eps_value):
    """Refuse a scan of k in [k_lo, k_hi] before any array exists."""
    if k_lo < 3 or k_hi < k_lo:
        raise ValidationError("need 3 <= k_lo <= k_hi")
    guards.check(k_hi - k_lo + 1, "MAX_TABLE_ROWS", "rows", "row")
    if k_hi > MAX_EPS or (2 * k_hi - 1) * math.log(k_hi) > MAX_EPS:
        raise ValidationError("k_hi=%d puts (2k-1) ln k past 2^52" % k_hi)
    if eps_value is not None and eps_mode != "value":
        raise ValidationError("eps_value needs eps_mode=value")
    if eps_mode == "value":
        if eps_value is None or not 0 <= eps_value < math.inf:
            raise ValidationError("eps_mode=value needs a finite eps_value "
                                  ">= 0, got %r" % (eps_value,))
        if eps_value > MAX_EPS:
            raise ValidationError("eps_value must be at most 2^52, where the "
                                  "interval's integers can still be counted, "
                                  "got %r" % (eps_value,))
    elif eps_mode not in ("pow09", "zero"):
        raise ValidationError("unknown eps_mode %r" % (eps_mode,))


def _offsets(ks, eps_mode, eps_value):
    """I_k's ends less (2k-1) ln k for the float array ks: (-2 ln 2 - eps,
    -1 + eps), eps by eps_mode."""
    if eps_mode == "pow09":
        eps = ks ** -0.9
    elif eps_mode == "zero":
        eps = np.zeros_like(ks)
    else:
        eps = np.full_like(ks, float(eps_value))
    return -2 * math.log(2) - eps, -1 + eps


def threshold_scan(k_lo, k_hi, eps_mode="pow09", eps_value=None):
    """Vectorized records for k in [k_lo, k_hi]: returns a dict of arrays
    (k, lo, hi, length, n_integers, d_col).  eps_mode: pow09 | zero | value."""
    _check_scan(k_lo, k_hi, eps_mode, eps_value)
    ks = np.arange(k_lo, k_hi + 1, dtype=np.float64)
    lo_off, hi_off = _offsets(ks, eps_mode, eps_value)
    base = (2 * ks - 1) * np.log(ks)
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


_CSV_BLOCK = 4096  # rows per block, each from its own threshold_scan

# The byte-matrix writer lays a row out as 19 little-endian 4-byte words:
# k as 16 ASCII digits; lo, hi and d_col each as ',' and 15 digit places; then
# ',' and the method with its newline.  NUL bytes mark what a row drops
# (leading zeros, a fraction's trailing zeros, a '.' with no fraction after
# it, padding), and one `translate` deletes them from the whole block.
_POW10 = (10 ** np.arange(13)).astype(np.float64)     # exact: 1 .. 1e12
_ROW_WORDS = 19
# [end]: ',' and each method with the row end, LF or its JSON escape
_METHOD_WORDS = {end: np.array([",midpoint" + end, ",integer" + end],
                               dtype="S12").view("<u4").reshape(2, 3)
                 for end in ("\n", "\\n")}


def _csv_row(k, lo, hi, d_col, n_integers, end="\n"):
    """One table row by '%.12g': the rows outside `_significant`'s domain."""
    return ("%d,%.12g,%.12g,%.12g,%s%s"
            % (k, lo, hi, d_col, "integer" if n_integers == 1 else "midpoint",
               end))


def _significant(x):
    """The 12 significant digits of %.12g for each x with 1 <= x < 1e11, with
    a 1 inserted after the integer ones where the '.' goes (so that dropping
    trailing zeros stops there): (those 13 digits as exact doubles, the
    number e of integer digits, whether a fraction is left).

    e comes from searchsorted on exact powers of ten; y = x 10^(12-e) < 2^40
    is off by at most 6.2e-5, so rounding it is exact unless y is within
    2.5e-4 of a half, where '%.11e' gives the digits."""
    e = np.searchsorted(_POW10[:12], x, side="right")
    y = x * _POW10[12 - e]
    digits = np.floor(y)
    y -= digits
    near = np.flatnonzero(np.abs(y - 0.5) <= 2.5e-4)
    digits += y > 0.5
    for i in near.tolist():
        text = "%.11e" % x.flat[i]
        digits.flat[i] = float(text[0] + text[2:13])
        e.flat[i] = int(text[14:]) + 1
    carry = digits == 1e12          # rounded up to one more integer digit
    digits[carry] = 1e11
    e += carry
    point = _POW10[12 - e]
    whole = np.floor(digits / point)
    fraction = digits != whole * point
    digits += (9 * whole + 1) * point
    return digits, e, fraction


def _csv_rows(scan, end="\n"):
    """The rows of a threshold_scan, as `_csv_row` writes each one, each
    ending in `end` (LF, or its JSON escape): a row holding a value outside
    the domain of `_significant` is `_csv_row` itself, spliced in at its
    offset."""
    n = scan["k"].size
    values = np.stack([scan["lo"], scan["hi"], scan["d_col"]], axis=1)
    inside = (values >= 1) & (values < 1e11)
    outside = np.flatnonzero(~inside.all(axis=1))
    rows = zip(*(scan[key][outside].tolist()
                 for key in ("k", "lo", "hi", "d_col", "n_integers")))
    if outside.size == n:           # every row from k ~ 2.3e9 on
        return "".join(_csv_row(*row, end) for row in rows)
    numbers = np.empty((n, 4))
    numbers[:, 0] = scan["k"]
    numbers[:, 1:], e, fraction = _significant(np.where(inside, values, 1.0))
    del values
    # word j of each number is its j-th group of 4 digits, from the lowest:
    # k drops its leading zeros, a value its trailing zeros, and a value's
    # first word is ',' and its first digit.  A bytearray holds the words, so
    # that `translate` reads them uncopied
    buffer = bytearray(4 * _ROW_WORDS * n)
    words = np.frombuffer(buffer, dtype="<u4").reshape(n, _ROW_WORDS)
    mode = np.empty((n, 4))
    lower_zero = np.ones((n, 3), dtype=bool)
    for j in (3, 2, 1, 0):
        high = np.floor(numbers / 1e4)
        numbers -= 1e4 * high               # now group j
        mode[:, 0] = high[:, 0] == 0
        mode[:, 1:] = 3 if j == 0 else 2 * lower_zero
        lower_zero &= numbers[:, 1:] == 0
        numbers += 1e4 * mode
        words[:, j:16:4] = _DIGIT_WORDS[numbers.astype(np.intp)]
        numbers = high
    words[:, 16:] = _METHOD_WORDS[end][
        (scan["n_integers"] == 1).astype(np.intp)]
    text = words.view(np.uint8)
    np.put_along_axis(text, np.array([19, 35, 51]) + e,
                      np.where(fraction, ord("."), 0), axis=1)
    words[outside] = 0
    out = buffer.translate(None, b"\0").decode("ascii")
    if not outside.size:
        return out
    ends = np.cumsum(np.count_nonzero(text, axis=1)).tolist()
    parts, start = [], 0
    for i, row in zip(outside.tolist(), rows):
        parts += [out[start:ends[i]], _csv_row(*row, end)]
        start = ends[i]
    parts.append(out[start:])
    return "".join(parts)


class TextBlocks:
    """Text as str blocks, made anew by each iteration from `make()`, an
    iterator of them: a lazy value that can be written more than once.
    `escaped()`, when given, makes the same text already in JSON-string
    form (each block as `json.encoder.encode_basestring_ascii` writes it,
    without the quotes), so that a JSON writer copies it unescaped."""

    def __init__(self, make, escaped=None):
        self._make = make
        self.escaped = escaped

    def __iter__(self):
        return self._make()


def format_csv(k_lo, k_hi, eps_mode="pow09", eps_value=None):
    """CSV table `k,lo,hi,d_col,method` for k in [k_lo, k_hi] as TextBlocks:
    the header, then one block of _CSV_BLOCK rows per threshold_scan, made as
    it is iterated, so no whole-range array or string exists.  Every refusal
    comes at the call: a first pass refuses the first interval with several
    integers, scanning the blocks whose offsets at their first k (eps is
    largest there) are at least 1 apart.  Rounding the ends, one base plus
    each offset, is monotone and integers are doubles, so two integers
    inside need the offsets more than 1 apart.

    A block is one byte matrix (`_csv_rows`) that holds each value's 12
    significant digits exactly as '%.12g' rounds them, decoded once; a row
    with a value outside 1 <= x < 1e11 (every row past k ~ 2.3e9, where the
    ends reach 1e11) is the per-row expression `_csv_row`, spliced in.  The
    text is ASCII digits, letters, ',', '.', '+', '-' and LF, so its JSON
    string form (`escaped`) is the same blocks with each LF written as the
    two characters backslash and 'n'."""
    _check_scan(k_lo, k_hi, eps_mode, eps_value)
    ranges = [(start, min(start + _CSV_BLOCK - 1, k_hi))
              for start in range(k_lo, k_hi + 1, _CSV_BLOCK)]
    lo_off, hi_off = _offsets(np.arange(k_lo, k_hi + 1, _CSV_BLOCK,
                                        dtype=np.float64), eps_mode, eps_value)
    for i in np.flatnonzero(hi_off - lo_off >= 1).tolist():
        _refuse_several_integers(threshold_scan(*ranges[i], eps_mode,
                                                eps_value))

    def blocks(end="\n"):
        yield "k,lo,hi,d_col,method" + end
        for start, stop in ranges:
            yield _csv_rows(threshold_scan(start, stop, eps_mode, eps_value),
                            end)
    return TextBlocks(blocks, lambda: blocks("\\n"))


def smallest_reliable_k(k_max=10 ** 6, eps_mode="pow09", eps_value=None):
    """Smallest k such that the at-most-one-integer property holds for every
    k' in [k, k_max] under the chosen eps.  Computed, not assumed; records
    for smaller k should be treated as outside the proven regime."""
    scan = threshold_scan(3, k_max, eps_mode, eps_value)
    bad = scan["k"][scan["n_integers"] > 1]
    return int(bad.max()) + 1 if bad.size else 3
