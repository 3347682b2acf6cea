"""The graph and coloring file parsers against their per-line forms, and
the writer against its %-formatting form.

`parse_graph` and `parse_coloring` read a clean file as whole-text arrays
and hand any other to a per-line path that words the refusal.  The oracles
below are those per-line parsers as they stood before the array path: on
every text, the parsers must return the same graph or coloring, or refuse
with the same message.  `reference_format_rows` is `format_rows` as it
stood before the word-matrix writer, and `reference_format_coloring` is
`format_coloring` as it stood before it wrote blocks: both pairs must write
the same text."""

import itertools
import os
import string
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regcolor import cli, colorings, graphs, rng
from regcolor.errors import ValidationError


def reference_int_pair(line):
    try:
        a, b = (int(x) for x in line.split())
    except ValueError:
        raise ValidationError("graph line %r is not two integers"
                              % line) from None
    return a, b


def reference_parse_graph(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty graph file")
    n, d = reference_int_pair(lines[0])
    if n < 1 or d < 0:
        raise ValidationError("graph header needs n, d >= 0 and n >= 1, "
                              "got %d %d" % (n, d))
    if d > 0 and n * d != 2 * (len(lines) - 1):
        raise ValidationError("header %d %d needs n*d/2 edges, the file "
                              "lists %d" % (n, d, len(lines) - 1))
    return graphs.multigraph(n, d, [reference_int_pair(ln)
                                    for ln in lines[1:]])


def reference_parse_coloring(text, k):
    values = []
    for token in text.split():
        try:
            values.append(int(token))
        except ValueError:
            raise ValidationError("coloring entry %r is not an integer"
                                  % token) from None
    return colorings.coloring(values, k)


def outcome(parse, *args):
    """("ok", result) or ("refused", message)."""
    try:
        return "ok", parse(*args)
    except ValidationError as exc:
        return "refused", str(exc)


# a file is a list of lines [lead, tokens, sep, trail, end]
def render(lines):
    return "".join(lead + sep.join(tokens) + trail + end
                   for lead, tokens, sep, trail, end in lines)


def file_lines(text):
    return [["", line.split(), " ", "", "\n"] for line in text.splitlines()]


TOKEN_EDITS = {
    "plus": lambda tok, n: "+" + tok,
    "underscore": lambda tok, n: tok + "_0",
    "unicode digit": lambda tok, n: "".join(chr(0xFF10 + int(c))
                                            for c in tok),
    "arabic digit": lambda tok, n: tok + "٣",
    "negative": lambda tok, n: "-" + tok,
    "leading zeros": lambda tok, n: "00" + tok,
    "19 digits, same value": lambda tok, n: tok.rjust(19, "0"),
    "19 digits, past int64": lambda tok, n: tok.rjust(19, "9"),
    "20 digits": lambda tok, n: str(10 ** 19 + int(tok)),
    "out of range": lambda tok, n: str(n + int(tok) % 3),
    "other vertex": lambda tok, n: str((int(tok) + 1) % n),
    "zero": lambda tok, n: "0",
    "about MAX_VERTICES": lambda tok, n: str(graphs.MAX_VERTICES
                                             + int(tok) % 2),
}
# inserted into a token: not a digit, or a line break only to splitlines
ODD_CHARACTERS = (string.punctuation + string.ascii_letters
                  + "\v\f\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000")
LINE_EDITS = ("bad token", "short line", "long line", "blank line",
              "whitespace line", "crlf", "lone cr", "tabs", "empty file")


@st.composite
def mutated(draw, text, n):
    """`text` after up to four edits from TOKEN_EDITS and LINE_EDITS; n is
    what the out-of-range edits count from."""
    lines = file_lines(text)
    edits = st.sampled_from(sorted(TOKEN_EDITS) + list(LINE_EDITS))
    for name in draw(st.lists(edits, max_size=4)):
        if not lines:
            break
        line = lines[draw(st.integers(0, len(lines) - 1))]
        tokens = line[1]
        t = draw(st.integers(0, max(len(tokens) - 1, 0)))
        if name in TOKEN_EDITS:
            if tokens and tokens[t].isdigit() and tokens[t].isascii():
                tokens[t] = TOKEN_EDITS[name](tokens[t], n)
        elif name == "bad token" and tokens:
            c, tok = draw(st.sampled_from(ODD_CHARACTERS)), tokens[t]
            tokens[t] = draw(st.sampled_from([c + tok, tok + c, tok + c + tok]))
        elif name == "short line":
            del tokens[t:t + 1]
        elif name == "long line":
            tokens.insert(t, draw(st.integers(0, n).map(str)))
        elif name in ("blank line", "whitespace line"):
            pad = "" if name == "blank line" else draw(
                st.text(" \t", min_size=1, max_size=3))
            lines.insert(draw(st.integers(0, len(lines))),
                         [pad, [], "", "", "\n"])
        elif name == "crlf":
            line[4] = "\r\n"
        elif name == "lone cr":
            line[4] = "\r"
        elif name == "tabs":
            line[0], line[3] = draw(st.sampled_from(["", "\t", " \t"])), "\t"
            line[2] = draw(st.sampled_from(["\t", " \t ", "  "]))
        elif name == "empty file":
            lines = draw(st.sampled_from([[], [["", [], "", " \t ", "\n"]]]))
    return render(lines)


@st.composite
def graph_texts(draw):
    """format_graph of a d-regular sample or of a d = 0 multigraph with
    loops and parallel edges, then mutated."""
    if draw(st.booleans()):
        n, d = draw(st.sampled_from([(1, 2), (2, 1), (2, 3), (4, 3), (5, 2),
                                     (6, 4), (12, 3)]))
        G = graphs.sample_uniform(n, d, rng.stream(draw(st.integers(0, 99)),
                                                   0))
    else:
        n = draw(st.integers(1, 6))
        vertex = st.integers(0, n - 1)
        G = graphs.multigraph(n, 0, draw(st.lists(st.tuples(vertex, vertex),
                                                  max_size=10)))
    return draw(mutated(graphs.format_graph(G), n))


@settings(max_examples=600, deadline=None)
@given(graph_texts())
def test_parse_graph_matches_per_line_parser(text):
    assert outcome(graphs.parse_graph, text) == outcome(
        reference_parse_graph, text)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 5), st.data())
def test_parse_coloring_matches_per_token_parser(k, data):
    values = data.draw(st.lists(st.integers(0, k), max_size=12))
    text = data.draw(mutated("".join(colorings.format_coloring(
        colorings.coloring(values, k + 1))), k))
    assert outcome(colorings.parse_coloring, text, k) == outcome(
        reference_parse_coloring, text, k)


def single_token_edits(text, n):
    """`text` after each edit of TOKEN_EDITS at each of its tokens."""
    rows = [line.split() for line in text.splitlines()]
    for i, row in enumerate(rows):
        for t, tok in enumerate(row):
            for edit in TOKEN_EDITS.values():
                rows[i][t] = edit(tok, n)
                yield "".join(" ".join(r) + "\n" for r in rows)
            rows[i][t] = tok


def test_parsers_agree_on_every_single_token_edit():
    for G in (graphs.sample_uniform(4, 3, rng.stream(0, 0)),
              graphs.multigraph(3, 0, [(0, 0), (0, 2), (0, 2)])):
        for text in single_token_edits(graphs.format_graph(G), G.n):
            assert outcome(graphs.parse_graph, text) == outcome(
                reference_parse_graph, text), text
    sigma = colorings.coloring([0, 2, 1, 1], 3)
    for text in single_token_edits("".join(colorings.format_coloring(sigma)),
                                   3):
        assert outcome(colorings.parse_coloring, text, 3) == outcome(
            reference_parse_coloring, text, 3), text


def test_parsers_agree_on_each_odd_character_anywhere():
    for c in ODD_CHARACTERS + "\t\r\n ":
        for text, parse, oracle in (
                ("2 1\n0 1\n", graphs.parse_graph, reference_parse_graph),
                ("1 02 2\n", lambda t: colorings.parse_coloring(t, 3),
                 lambda t: reference_parse_coloring(t, 3))):
            for at in range(len(text) + 1):
                odd = text[:at] + c + text[at:]
                assert outcome(parse, odd) == outcome(oracle, odd), odd


def _refuse(*args):
    raise AssertionError("the per-line path was taken")


def test_clean_files_take_the_array_path(monkeypatch):
    monkeypatch.setattr(graphs, "_int_pair", _refuse)
    monkeypatch.setattr(colorings, "_parse_tokens", _refuse)
    for n, d, seed in itertools.product((1, 7, 300), (0, 2, 3), (0, 1)):
        if n * d % 2:
            continue
        G = (graphs.sample_uniform(n, d, rng.stream(seed, 0)) if d else
             graphs.multigraph(n, 0, [(0, n - 1), (0, 0)] * seed))
        text = graphs.format_graph(G)
        for crlf in (False, True):
            assert graphs.parse_graph(
                text.replace("\n", "\r\n") if crlf else text) == G
        sigma = colorings.coloring([v % 3 for v in range(n)], 3)
        assert colorings.parse_coloring(
            "".join(colorings.format_coloring(sigma)), 3) == sigma


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.data())
def test_block_formatting_matches_one_string(block, n, data):
    """Any block size writes the text a single format of every row would."""
    vertex = st.integers(0, n - 1)
    G = graphs.multigraph(n, 0, data.draw(st.lists(st.tuples(vertex, vertex),
                                                   max_size=9)))
    colors = data.draw(st.lists(st.integers(0, 2), max_size=9))
    saved = graphs._FORMAT_BLOCK
    graphs._FORMAT_BLOCK = block
    try:
        graph_text = graphs.format_graph(G)
        coloring_text = "".join(colorings.format_coloring(
            colorings.coloring(colors, 3)))
    finally:
        graphs._FORMAT_BLOCK = saved
    assert graph_text == "%d 0\n" % n + "".join(
        "%d %d\n" % (u, v) for u, v in G.edges.tolist())
    assert coloring_text == " ".join(map(str, colors)) + "\n"


def reference_format_rows(rows, fmt):
    """`fmt` filled from each row of the 2-D int array `rows`, as str blocks:
    one % per block, so Python ints exist for one block at a time."""
    for start in range(0, len(rows), graphs._FORMAT_BLOCK):
        block = rows[start:start + graphs._FORMAT_BLOCK]
        yield fmt * len(block) % tuple(block.ravel().tolist())


# values up to 18 digits, weighted toward 0 and the edges of 4-digit groups
_row_value = (st.sampled_from([0, 1, 9, 9999, 10 ** 4, 10 ** 4 + 1,
                               10 ** 8 - 1, 10 ** 8, 10 ** 8 + 1,
                               10 ** 12, 10 ** 16 - 1, 10 ** 18 - 1])
              | st.integers(0, 10 ** 4) | st.integers(0, 10 ** 18 - 1))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(1, " %d"), (2, "%d %d\n")]), st.integers(1, 3),
       st.data())
def test_format_rows_matches_percent_formatting(layout, block, data):
    columns, fmt = layout
    rows = np.array(data.draw(st.lists(st.lists(
        _row_value, min_size=columns, max_size=columns), max_size=10)),
        dtype=np.int64).reshape(-1, columns)
    saved = graphs._FORMAT_BLOCK
    graphs._FORMAT_BLOCK = block
    try:
        got = list(graphs.format_rows(rows, fmt))
        want = list(reference_format_rows(rows, fmt))
    finally:
        graphs._FORMAT_BLOCK = saved
    assert got == want


def test_format_rows_refuses_negative_values():
    with pytest.raises(ValueError, match="nonnegative"):
        list(graphs.format_rows(np.array([[3, -1]]), "%d %d\n"))


def reference_format_coloring(sigma):
    """The coloring file as one string, joined from `format_rows`."""
    return "".join(graphs.format_rows(sigma.assignment[:, None],
                                      " %d"))[1:] + "\n"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3), st.data())
def test_coloring_blocks_join_to_the_one_string(k, block, data):
    # blocks of 1-3 colors, so that the first block's space and the final
    # newline meet block edges; and the empty coloring
    sigma = colorings.coloring(data.draw(st.lists(st.integers(0, k - 1),
                                                  max_size=10)), k)
    with mock.patch.object(graphs, "_FORMAT_BLOCK", block):
        blocks = list(colorings.format_coloring(sigma))
        want = reference_format_coloring(sigma)
    assert "".join(blocks) == want
    assert len(blocks) == max(1, -(-sigma.n // block)) + 1


def test_coloring_file_streams():
    # a coloring file is written block by block: the traced peak stays well
    # below its text (2 MB of 10^6 colors), which one string held twice
    sigma = colorings.coloring(np.arange(10 ** 6) % 7, 7)
    size = len(reference_format_coloring(sigma))
    tracemalloc.start()
    try:
        cli._write(os.devnull, colorings.format_coloring(sigma))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 2, (peak, size)
