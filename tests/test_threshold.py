import math
import re

import numpy as np
import pytest

from regcolor import threshold
from regcolor.errors import GuardError, ValidationError


def test_default_eps():
    assert threshold.default_eps(10) == 10 ** -0.9
    assert threshold.default_eps(3) == 3.0 ** -0.9


def test_threshold_record_k3_eps0():
    rec = threshold.threshold_record(3, eps=0.0)
    lo = 5 * math.log(3) - 2 * math.log(2)
    hi = 5 * math.log(3) - 1
    assert abs(rec.lo - lo) < 1e-12
    assert abs(rec.hi - hi) < 1e-12
    assert rec.integer_in_interval is None  # (4.107, 4.493)
    assert rec.method == "midpoint"
    assert abs(rec.d_col - (lo + hi) / 2) < 1e-12


def test_threshold_record_k10():
    rec = threshold.threshold_record(10)
    eps = 10 ** -0.9
    assert abs(rec.lo - (19 * math.log(10) - 2 * math.log(2) - eps)) < 1e-12
    assert abs(rec.hi - (19 * math.log(10) - 1 + eps)) < 1e-12
    assert 42.2 < rec.lo < 42.3
    assert 42.8 < rec.hi < 42.9
    assert rec.integer_in_interval is None
    assert 42.5 < rec.d_col < 42.6


def test_threshold_record_integer_case():
    # scan for a k where the interval does contain an integer, then confirm
    # the record picks it
    for k in range(3, 200):
        rec = threshold.threshold_record(k)
        if rec.method == "integer":
            assert rec.lo < rec.integer_in_interval < rec.hi
            assert rec.d_col == float(rec.integer_in_interval)
            break
    else:
        pytest.fail("no integer-method record below k=200")


def test_threshold_record_validation():
    with pytest.raises(ValidationError):
        threshold.threshold_record(2)
    with pytest.raises(ValidationError):
        threshold.threshold_record(5, eps=-0.1)
    # a huge eps puts several integers in the interval: refuse, never pick
    with pytest.raises(GuardError):
        threshold.threshold_record(5, eps=2.0)


def test_record_length_identity_precision():
    for k in (3, 10, 1000, 10 ** 6):
        rec = threshold.threshold_record(k)
        expected = 2 * math.log(2) - 1 + 2 * rec.eps
        assert abs(rec.length - expected) < 1e-12


def test_scan_matches_records():
    scan = threshold.threshold_scan(3, 60)
    for idx, k in enumerate(scan["k"]):
        rec = threshold.threshold_record(int(k))
        assert abs(scan["lo"][idx] - rec.lo) < 1e-9
        assert abs(scan["hi"][idx] - rec.hi) < 1e-9
        if scan["n_integers"][idx] == 1:
            assert rec.method == "integer"
            assert scan["d_col"][idx] == rec.d_col
        else:
            assert rec.method == "midpoint"
            assert abs(scan["d_col"][idx] - rec.d_col) < 1e-9


def test_scan_eps_modes():
    z = threshold.threshold_scan(3, 10, eps_mode="zero")
    assert abs(z["length"] - (2 * math.log(2) - 1)).max() < 1e-12
    v = threshold.threshold_scan(3, 10, eps_mode="value", eps_value=0.05)
    assert abs(v["length"] - (2 * math.log(2) - 1 + 0.1)).max() < 1e-12
    with pytest.raises(ValidationError):
        threshold.threshold_scan(3, 10, eps_mode="value")
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite eps_value >= 0"):
            threshold.threshold_scan(3, 10, eps_mode="value", eps_value=bad)
    with pytest.raises(ValidationError):
        threshold.threshold_scan(3, 10, eps_mode="bogus")
    with pytest.raises(ValidationError):
        threshold.threshold_scan(2, 10)


def test_d_col_monotone():
    scan = threshold.threshold_scan(3, 2000)
    assert (np.diff(scan["d_col"]) > 0).all()


def test_coloring_number_consistency():
    # F(d) = k exactly when d_col(k-1) <= d < d_col(k)
    scan = threshold.threshold_scan(3, 50)
    d_col = scan["d_col"]
    ks = scan["k"]
    for idx in range(1, 30):
        d = (d_col[idx - 1] + d_col[idx]) / 2
        assert threshold.coloring_number(d, k_max=100) == int(ks[idx])
    assert threshold.coloring_number(d_col[0] - 0.5, k_max=100) == 3


def test_coloring_number_monotone():
    values = [threshold.coloring_number(d, k_max=200)
              for d in (5.0, 20.0, 50.0, 120.0, 300.0)]
    assert values == sorted(values)


def test_coloring_number_errors():
    rec = threshold.threshold_record(7)
    with pytest.raises(GuardError):
        threshold.coloring_number(rec.d_col, k_max=100)
    with pytest.raises(ValidationError):
        threshold.coloring_number(10 ** 9, k_max=100)


def test_kpgw_intervals():
    (ex_lo, ex_hi), (pm_lo, pm_hi) = threshold.kpgw_intervals(5)
    a = math.log(4)
    assert ex_lo == 7 * a and ex_hi == 8 * a
    assert pm_lo == 8 * a and pm_hi == 9 * math.log(5)
    # the new interval sits inside the older plus/minus-one window
    rec = threshold.threshold_record(5)
    assert pm_lo < rec.lo and rec.hi <= pm_hi
    with pytest.raises(ValidationError):
        threshold.kpgw_intervals(2)


def test_format_csv():
    csv = threshold.format_csv(3, 5)
    lines = csv.strip().split("\n")
    assert lines[0] == "k,lo,hi,d_col,method"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "3"
    assert first[4] in ("integer", "midpoint")


def reference_record(k, eps=None):
    """The scalar threshold record, one k at a time with math.log: the
    reference for threshold_record and for the rows of format_csv."""
    if eps is None:
        eps = threshold.default_eps(k)
    base = (2 * k - 1) * math.log(k)
    lo_off = -2 * math.log(2) - eps
    hi_off = -1 + eps
    lo, hi = base + lo_off, base + hi_off
    first = math.floor(lo) + 1  # smallest integer > lo
    ints = [m for m in range(first, math.floor(hi) + 1) if lo < m < hi]
    if len(ints) > 1:
        raise GuardError("interval for k=%d contains %d integers: %s"
                         % (k, len(ints), ints))
    if len(ints) == 1:
        return threshold.ThresholdRecord(k, eps, lo, hi, hi_off - lo_off,
                                         float(ints[0]), ints[0], "integer")
    return threshold.ThresholdRecord(k, eps, lo, hi, hi_off - lo_off,
                                     (lo + hi) / 2, None, "midpoint")


@pytest.mark.parametrize("eps", [None, 0.0, 0.05, 0.4])
def test_record_matches_scalar_reference(eps):
    # numpy's ** and log may differ from Python's in the last bit
    for k in range(3, 2000):
        try:
            want = reference_record(k, eps)
        except GuardError as exc:
            with pytest.raises(GuardError, match=re.escape(str(exc))):
                threshold.threshold_record(k, eps)
            continue
        got = threshold.threshold_record(k, eps)
        assert (got.k, got.eps, got.method, got.integer_in_interval) == \
            (want.k, want.eps, want.method, want.integer_in_interval)
        assert abs(got.lo - want.lo) < 1e-9
        assert abs(got.hi - want.hi) < 1e-9
        assert abs(got.d_col - want.d_col) < 1e-9
        assert abs(got.length - want.length) < 1e-12


def record_csv(k_lo, k_hi, eps=None):
    """The per-k reference table built from reference_record."""
    lines = ["k,lo,hi,d_col,method"]
    for k in range(k_lo, k_hi + 1):
        rec = reference_record(k, eps)
        lines.append("%d,%.12g,%.12g,%.12g,%s"
                     % (rec.k, rec.lo, rec.hi, rec.d_col, rec.method))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("eps_mode,eps_value,eps", [
    ("pow09", None, None), ("zero", None, 0.0), ("value", 0.05, 0.05),
    ("value", 0.0, 0.0)])
@pytest.mark.parametrize("k_lo,k_hi", [
    (3, 3), (3, 200), (3, 2 + threshold._CSV_BLOCK),
    (3, 3 + threshold._CSV_BLOCK), (10, 10 + 2 * threshold._CSV_BLOCK),
    (9990, 10010)])
def test_format_csv_matches_records(eps_mode, eps_value, eps, k_lo, k_hi):
    assert (threshold.format_csv(k_lo, k_hi, eps_mode, eps_value)
            == record_csv(k_lo, k_hi, eps))


def test_format_csv_integer_endpoint():
    # hi = 5 exactly: the open interval (3.6, 5) holds the one integer 4
    eps = 6.0 - 5 * math.log(3)
    assert reference_record(3, eps).hi == 5.0
    assert threshold.threshold_record(3, eps).hi == 5.0
    assert (threshold.format_csv(3, 3, "value", eps)
            == record_csv(3, 3, eps))


# at eps 0.307 the first refused k after 110738 is 127121
@pytest.mark.parametrize("k_lo,k_hi,eps", [(3, 100, 0.4),
                                           (110738, 128000, 0.307)])
def test_format_csv_guard_message(k_lo, k_hi, eps):
    with pytest.raises(GuardError) as scan_err:
        threshold.format_csv(k_lo, k_hi, "value", eps)
    with pytest.raises(GuardError) as rec_err:
        record_csv(k_lo, k_hi, eps)
    assert str(scan_err.value) == str(rec_err.value)
    assert "contains 2 integers" in str(scan_err.value)


def test_format_csv_refusals():
    with pytest.raises(ValidationError):
        threshold.format_csv(5, 4)
    with pytest.raises(ValidationError):
        threshold.format_csv(3, 10, "value")


def test_smallest_reliable_k():
    k0 = threshold.smallest_reliable_k(k_max=10 ** 5)
    assert k0 >= 3
    scan = threshold.threshold_scan(k0, 10 ** 5)
    assert (scan["n_integers"] <= 1).all()
    # a fat eps forces unreliability somewhere
    assert threshold.smallest_reliable_k(k_max=100, eps_mode="value",
                                         eps_value=0.4) > 3
