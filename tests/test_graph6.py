import json
import os
import random
import re
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regext
from regext import Graph6Error, build, format_graph6, parse_graph6
from families import complete_graph, cycle_graph, empty_graph, petersen_graph

import oracles

# externally sourced lines: the two four-vertex extremes and the five-vertex
# worked example from the format's reference documentation
EXTERNAL_LINES = [
    ("C~", complete_graph(4)),
    ("C?", empty_graph(4)),
    ("DQc", build(5, [(0, 2), (0, 4), (1, 3), (3, 4)])),
]


@pytest.mark.parametrize("line,expected", EXTERNAL_LINES)
def test_external_lines_parse(line, expected):
    assert parse_graph6(line) == expected


@pytest.mark.parametrize("line,expected", EXTERNAL_LINES)
def test_external_lines_format(line, expected):
    assert format_graph6(expected) == line


def test_header_tolerated():
    assert parse_graph6(">>graph6<<C~") == complete_graph(4)


def test_named_graphs_roundtrip():
    for g in (petersen_graph(), cycle_graph(7), empty_graph(0), empty_graph(1)):
        assert parse_graph6(format_graph6(g)) == g


def test_multibyte_order():
    g = cycle_graph(100)
    line = format_graph6(g)
    assert line.startswith(chr(126))
    assert parse_graph6(line) == g


@pytest.mark.parametrize("bad", [
    "",                 # empty
    "C",                # truncated payload
    "C~~",              # payload too long
    "C!",               # byte below 63
    chr(127),           # byte above 126
    "~~A?",             # huge-order prefix unsupported
])
def test_malformed(bad):
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_nonzero_padding_rejected():
    # n=3 needs 3 bits; '~' = all ones sets the padding bits too
    with pytest.raises(Graph6Error):
        parse_graph6("B~")
    assert parse_graph6("Bw").m == 3  # K_3 uses only the top three bits


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 65, 127, 128, 129, 200, 300, 1000])
def test_roundtrip_orders(n):
    # both sides of the one-byte/four-byte order switch at 63, both sides
    # of the 64-vertex tile edges at 64 and 128, the large orders where
    # decoding used to be quadratic, and n = 1000, whose bit strings are
    # far longer than int's default decimal digit limit
    rng = random.Random(n)
    for p in (0.0, 0.1, 0.5, 1.0):
        g = build(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        line = format_graph6(g)
        oracle_line = oracles.format_graph6_per_bit(g)
        assert line == oracle_line
        assert parse_graph6(oracle_line) == oracles.parse_graph6_per_bit(oracle_line) == g


def test_every_order_up_to_three_blocks():
    # a one-tile graph's shift stages are built for its order, and a
    # larger graph's last column block is as wide as n leaves it
    rng = random.Random(6)
    for n in range(2 * 64 + 2):
        g = build(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        line = format_graph6(g)
        assert parse_graph6(line) == oracles.parse_graph6_per_bit(line) == g


def test_decode_memory_is_linear_in_the_line(tmp_path):
    # the cubic Moebius ladder on 8000 vertices is a 5.3 MB line; decoding
    # it in a fresh process that has read it from a file may raise peak
    # RSS by less than 5 times that, where an n x n character square alone
    # would take 64 MB, 12 times the line
    pytest.importorskip("resource")
    n = 8000
    line = format_graph6(build(n, [(v, (v + 1) % n) for v in range(n)]
                               + [(v, v + n // 2) for v in range(n // 2)]))
    path = tmp_path / "ladder.g6"
    path.write_text(line + "\n", encoding="ascii")
    script = textwrap.dedent("""
        import json, resource, sys
        from regext import format_graph6, parse_graph6
        with open(sys.argv[1], encoding="ascii") as f:
            text = f.read().strip()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        g = parse_graph6(text)
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        print(json.dumps([grown, format_graph6(g) == text]))
    """)
    src = os.path.dirname(os.path.dirname(regext.__file__))
    proc = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    grown, same = json.loads(proc.stdout)
    # ru_maxrss counts bytes on macOS and kilobytes elsewhere
    grown *= 1 if sys.platform == "darwin" else 1024
    assert same
    assert grown < 5 * len(line), (grown, len(line))


def _set_low_bit(line):
    return line[:-1] + chr((ord(line[-1]) - 63 | 1) + 63)


@pytest.mark.parametrize("bad,message", [
    ("B~", "nonzero padding bits"),
    (_set_low_bit(format_graph6(cycle_graph(200))), "nonzero padding bits"),
    ("C", "expected 1 payload bytes for n=4, got 0"),
    ("C~~", "expected 1 payload bytes for n=4, got 2"),
    (format_graph6(cycle_graph(200))[:-1], "expected 3317 payload bytes for n=200, got 3316"),
    ("~??", "truncated multi-byte order"),
    # the first bad byte is named, wherever it stands
    ("Gh~" + chr(127) + "!", "byte 127 outside graph6 range 63..126"),
    ("Gh~!" + chr(127), "byte 33 outside graph6 range 63..126"),
    ("~?@c" + "~" * 10 + " ~", "byte 32 outside graph6 range 63..126"),
    ("C\u00e9", re.escape("non-ASCII character in graph6 line: 'ascii' codec can't encode "
                         "character '\\xe9' in position 1: ordinal not in range(128)")),
    ("", "empty graph6 line"),
    (">>graph6<< ", "empty graph6 line"),
])
def test_error_messages(bad, message):
    with pytest.raises(Graph6Error, match=f"^{message}$"):
        parse_graph6(bad)


@st.composite
def graphs(draw, max_n=62):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return build(n, [])
    edges = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .map(lambda t: (min(t), max(t)))
        .filter(lambda t: t[0] != t[1]),
        max_size=3 * n,
    ))
    return build(n, edges)


@given(graphs())
@settings(max_examples=150)
def test_roundtrip_identity(g):
    assert parse_graph6(format_graph6(g)) == g


@given(graphs(max_n=130))
@settings(max_examples=100)
def test_codec_matches_per_bit_oracles(g):
    # orders on both sides of the one-byte/four-byte switch at 63
    line = format_graph6(g)
    assert line == oracles.format_graph6_per_bit(g)
    assert parse_graph6(line) == oracles.parse_graph6_per_bit(line) == g


@given(graphs(max_n=20))
def test_format_is_ascii_line(g):
    line = format_graph6(g)
    assert line.isascii() and "\n" not in line
