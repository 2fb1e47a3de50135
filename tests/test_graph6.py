import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regext import Graph6Error, build, format_graph6, parse_graph6
from families import complete_graph, cycle_graph, empty_graph, petersen_graph

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


@given(graphs(max_n=20))
def test_format_is_ascii_line(g):
    line = format_graph6(g)
    assert line.isascii() and "\n" not in line
