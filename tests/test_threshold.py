import contextlib
import io
import json
import math
import re
from decimal import Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcolor import cli, graphs, threshold
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
    csv = "".join(threshold.format_csv(3, 5))
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


# the first k whose lo, hi and d_col reach 1e11, past which the table writer
# falls back to the row expression, and 1e12, where %.12g turns to exponent
# notation; and the largest k a scan accepts
K_1E11, K_1E12, K_LAST = 2318652196, 21035385334, 70615306259284


@pytest.mark.parametrize("eps_mode,eps_value,eps", [
    ("pow09", None, None), ("zero", None, 0.0), ("value", 0.05, 0.05),
    ("value", 0.0, 0.0)])
@pytest.mark.parametrize("k_lo,k_hi", [
    (3, 3), (3, 200), (3, 2 + threshold._CSV_BLOCK),
    (3, 3 + threshold._CSV_BLOCK), (10, 10 + 2 * threshold._CSV_BLOCK),
    (9990, 10010), (K_1E11 - 20, K_1E11 + 20), (K_1E12 - 20, K_1E12 + 20),
    (K_LAST - 20, K_LAST)])
def test_format_csv_matches_records(eps_mode, eps_value, eps, k_lo, k_hi):
    assert ("".join(threshold.format_csv(k_lo, k_hi, eps_mode, eps_value))
            == record_csv(k_lo, k_hi, eps))


def test_domain_edges_are_where_the_values_cross():
    for k, bound in ((K_1E11, 1e11), (K_1E12, 1e12)):
        scan = threshold.threshold_scan(k - 1, k)
        for key in ("lo", "hi", "d_col"):
            assert scan[key][0] < bound <= scan[key][1]
    with pytest.raises(ValidationError):
        threshold.threshold_scan(K_LAST + 1, K_LAST + 1)


def percent_g_rows(k, values, n_integers):
    """The per-row '%.12g' reference for table rows of arbitrary values."""
    return "".join("%d,%.12g,%.12g,%.12g,%s\n"
                   % (k[i], *values[3 * i:3 * i + 3],
                      "integer" if n_integers[i] == 1 else "midpoint")
                   for i in range(len(k)))


def _exact_tie(j, q):
    # q / 2^(j+1) with q odd has 12 - j integer and j + 1 fraction digits,
    # the last a 5: exactly half way between two 12-digit decimals
    return (q | 1) / 2 ** (j + 1)


_ties = st.integers(1, 11).flatmap(lambda j: st.builds(
    _exact_tie, st.just(j), st.integers(2 ** (j + 1) * 10 ** (11 - j),
                                        2 ** (j + 1) * 10 ** (12 - j) - 2)))
# 13-digit decimals ending in 5, the nearest double to each
_decimal_ties = st.builds(
    lambda n, e: float(Decimal(10 * n + 5).scaleb(e - 13)),
    st.integers(10 ** 11, 10 ** 12 - 1), st.integers(1, 12))
_edges = st.sampled_from([1.0, 1e11, 1e12, 9.999999999995, 99999999999.95,
                          999999999999.5])


def _nudge(x, step):
    """x moved by `step` (-1, 0 or 1) ulps."""
    return float(np.nextafter(x, step * math.inf)) if step else x


_values = st.one_of(st.floats(), st.floats(0.5, 2e12), st.builds(
    _nudge, st.one_of(_ties, _decimal_ties, _edges), st.integers(-1, 1)))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(3, K_LAST), _values, _values, _values,
                          st.integers(0, 2)), min_size=1, max_size=8),
       st.integers(1, 3))
def test_csv_rows_match_percent_g(rows, block):
    # random doubles, decimal ties and their neighbours, and the values either
    # side of 1, 1e11 and 1e12, written in blocks of 1-3 rows so that block
    # edges and rows outside the writer's domain meet
    k = [row[0] for row in rows]
    values = [v for row in rows for v in row[1:4]]
    n_integers = [row[4] for row in rows]
    want = percent_g_rows(k, values, n_integers)
    got = ""
    for start in range(0, len(rows), block):
        stop = start + block
        lo, hi, d_col = np.array(values[3 * start:3 * stop]).reshape(-1, 3).T
        got += threshold._csv_rows({
            "k": np.array(k[start:stop], dtype=np.int64), "lo": lo, "hi": hi,
            "d_col": d_col, "n_integers": np.array(n_integers[start:stop])})
    assert got == want


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([K_1E11, K_1E12]), st.integers(-8, 4),
       st.integers(0, 8), st.integers(1, 3))
def test_small_blocks_meet_fallback_rows(edge, shift, length, block):
    # with _CSV_BLOCK at 1-3 rows, tables across the edges of the writer's
    # domain match the per-k records
    k_lo = edge + shift
    with mock.patch.object(threshold, "_CSV_BLOCK", block):
        assert ("".join(threshold.format_csv(k_lo, k_lo + length))
                == record_csv(k_lo, k_lo + length))


def test_format_csv_integer_endpoint():
    # hi = 5 exactly: the open interval (3.6, 5) holds the one integer 4
    eps = 6.0 - 5 * math.log(3)
    assert reference_record(3, eps).hi == 5.0
    assert threshold.threshold_record(3, eps).hi == 5.0
    assert ("".join(threshold.format_csv(3, 3, "value", eps))
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


def refuse_every_block(k_lo, k_hi, eps_mode, eps_value):
    """format_csv's refusal pass as it stood before it skipped blocks: the
    scan of every block, in order."""
    for start in range(k_lo, k_hi + 1, threshold._CSV_BLOCK):
        threshold._refuse_several_integers(threshold.threshold_scan(
            start, min(start + threshold._CSV_BLOCK - 1, k_hi), eps_mode,
            eps_value))


def refusal(call, *args):
    """The message of the GuardError `call(*args)` raises, or None."""
    try:
        call(*args)
    except GuardError as exc:
        return str(exc)
    return None


# eps where the interval length 2 ln 2 - 1 + 2 eps crosses 1, and k up to the
# last one a scan takes, where the ends are 1/8 to 1/2 apart as doubles
_crossing_eps = st.tuples(st.just("value"), st.floats(0.3060, 0.3075))
_k_lo = st.one_of(st.integers(3, 3 * 10 ** 5), st.integers(3, K_LAST),
                  st.integers(K_LAST // 8, K_LAST))


@settings(max_examples=150, deadline=None)
@given(_k_lo, st.integers(0, 3 * threshold._CSV_BLOCK),
       _crossing_eps | st.sampled_from([("pow09", None), ("zero", None)]))
def test_refusal_pass_matches_scanning_every_block(k_lo, span, eps):
    k_hi = min(k_lo + span, K_LAST)
    assert (refusal(threshold.format_csv, k_lo, k_hi, *eps)
            == refusal(refuse_every_block, k_lo, k_hi, *eps))


# threshold_scan calls for format_csv(3, 50000, ...) made and iterated: its
# 13 blocks are each scanned to be written, and scanned first for refusals
# where the interval length at the block's first k reaches 1: only the first
# block (eps_3 = 0.372) for pow09, none for zero or eps 0.2 (length 0.386 and
# 0.786), and every block for eps 0.30686 (length 1.0000144), which no k in
# 3..50000 refuses
@pytest.mark.parametrize("eps, calls", [
    (("pow09", None), 14), (("zero", None), 13), (("value", 0.2), 13),
    (("value", 0.30686), 26)])
def test_refusal_pass_scans_only_blocks_that_may_refuse(eps, calls):
    with mock.patch.object(threshold, "threshold_scan",
                           wraps=threshold.threshold_scan) as scan:
        for _ in threshold.format_csv(3, 50000, *eps):
            pass
    assert scan.call_count == calls


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(3, K_LAST),
                 st.sampled_from([3, K_1E11, K_1E12, K_LAST]).flatmap(
                     lambda k: st.integers(k - 3 * threshold._CSV_BLOCK, k))),
       st.integers(0, 3 * threshold._CSV_BLOCK),
       st.sampled_from([("pow09", None), ("zero", None)])
       | st.tuples(st.just("value"), st.floats(0, 0.3)))
def test_json_string_form_is_the_escaped_table(k_lo, span, eps):
    # the table's own JSON string form, written unescaped, is the JSON
    # string of its text, across the rows past 1e11 and 1e12; and the text
    # is the per-row '%.12g' of its scan
    k_lo = max(k_lo, 3)
    k_hi = min(k_lo + span, K_LAST)
    try:
        table = threshold.format_csv(k_lo, k_hi, *eps)
    except GuardError:
        return
    text = "".join(table)
    scan = threshold.threshold_scan(k_lo, k_hi, *eps)
    values = np.stack([scan["lo"], scan["hi"], scan["d_col"]], axis=1)
    assert text == "k,lo,hi,d_col,method\n" + percent_g_rows(
        scan["k"].tolist(), values.ravel().tolist(), scan["n_integers"])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._write(None, {"table": table})
    assert out.getvalue() == json.dumps({"table": text}, sort_keys=True,
                                        indent=2) + "\n"


def test_huge_eps_refusals():
    # up to 2^52 the integers are counted and the refusal names only three
    with pytest.raises(GuardError, match=re.escape(
            "interval for k=3 contains 2000000000 integers: "
            "[-999999995, -999999994, ..., 1000000004]")):
        threshold.format_csv(3, 4, "value", 1e9)
    scan = threshold.threshold_scan(3, 4, "value", threshold.MAX_EPS)
    assert (scan["n_integers"] > 2 * threshold.MAX_EPS - 2).all()
    with pytest.raises(GuardError, match=r"\[-\d+, -\d+, \.\.\., \d+\]$"):
        threshold.threshold_record(3, threshold.MAX_EPS)
    for eps in (np.nextafter(threshold.MAX_EPS, np.inf), 1e17, 1e300):
        with pytest.raises(ValidationError, match="at most 2\\^52"):
            threshold.threshold_scan(3, 4, "value", eps)
    # at k = 3, eps 5 puts 0..9 inside (ten integers, listed in full) and
    # eps 5.2 puts -1..9 inside (eleven, abbreviated)
    with pytest.raises(GuardError, match=re.escape(
            "contains 10 integers: %s" % list(range(10)))):
        threshold.threshold_record(3, 5.0)
    with pytest.raises(GuardError, match=re.escape(
            "contains 11 integers: [-1, 0, ..., 9]")):
        threshold.threshold_record(3, 5.2)


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


def _first_k_past_2_52():
    """Smallest k with (2k - 1) ln k > 2^52, in 40-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 40
        lo, hi = 3, 2 ** 52
        while lo < hi:
            mid = (lo + hi) // 2
            if (2 * Decimal(mid) - 1) * Decimal(mid).ln() > 2 ** 52:
                hi = mid
            else:
                lo = mid + 1
    return lo


def test_scan_refuses_k_past_2_52():
    # past 2^52 the common term (2k - 1) ln k leaves the interval ends a
    # unit or more apart, the bound threshold.MAX_EPS puts on eps
    k = _first_k_past_2_52()
    assert k == 70615306259285
    for k_lo, k_hi in ((k, k), (k - 1, k), (10 ** 20, 10 ** 20),
                       (4 * 10 ** 308, 4 * 10 ** 308)):
        with pytest.raises(ValidationError,
                           match=r"^k_hi=%d puts \(2k-1\) ln k past 2\^52$"
                           % k_hi):
            threshold.threshold_scan(k_lo, k_hi)
    # the largest accepted k: its k column is exact, and the table too
    scan = threshold.threshold_scan(k - 2, k - 1)
    assert scan["k"].tolist() == [k - 2, k - 1]
    assert [row.split(",")[0] for row in
            "".join(threshold.format_csv(k - 2, k - 1)).splitlines()[1:]] == \
        [str(k - 2), str(k - 1)]
    assert (scan["lo"] < scan["hi"]).all()


def test_scan_refuses_eps_value_without_value_mode():
    # only eps_mode = value reads an eps_value; the other modes refuse one
    for mode in ("pow09", "zero"):
        with pytest.raises(ValidationError,
                           match="^eps_value needs eps_mode=value$"):
            threshold.threshold_scan(3, 10, mode, 0.05)
        with pytest.raises(ValidationError,
                           match="^eps_value needs eps_mode=value$"):
            threshold.format_csv(3, 10, mode, 0.0)
    assert len(threshold.threshold_scan(3, 10, "value", 0.05)["k"]) == 8


def test_one_digit_word_table():
    # the CSV writer reads the table graphs builds for format_rows, so no
    # second one is built at import
    assert threshold._DIGIT_WORDS is graphs._DIGIT_WORDS
    assert not hasattr(threshold, "_digit_words")
