"""Immutable simple-graph representation and graph6 serialization.

Vertices are dense integer labels 0..n-1.  Adjacency is stored as one
Python-int bitmask per vertex, which makes complement a bitwise flip and
keeps exhaustive loops over subsets cheap at the scales this package
targets (n up to a few hundred).  All operations are pure functions; a
``Graph`` never mutates after construction.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph construction or operation input."""


class Graph6Error(ValueError):
    """Malformed graph6 text."""


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@cache
def _unit_masks(n: int) -> tuple[int, ...]:
    """``1 << v`` for every vertex v < n, made once per order."""
    return tuple([1 << v for v in range(n)])


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbor set of ``v`` encoded as a bitmask.  The
    relation is symmetric and irreflexive by construction.
    """

    n: int
    adj: tuple[int, ...]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[Edge]:
        """All edges (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            a = self.adj[u] >> (u + 1) << (u + 1)
            while a:
                b = a & -a
                yield (u, b.bit_length() - 1)
                a ^= b

    @property
    def m(self) -> int:
        """Edge count."""
        return sum(a.bit_count() for a in self.adj) // 2

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self) -> str:  # keep pytest diffs readable
        return f"Graph(n={self.n}, edges={list(self.edges())})"


def build(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse.

    Raises GraphError on out-of-range endpoints or self-loops.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def complement(g: Graph) -> Graph:
    """Complement graph: uv is an edge iff u != v and uv not in g."""
    full = g.vertex_mask()
    return Graph(g.n, tuple((full & ~a & ~(1 << v)) for v, a in enumerate(g.adj)))


def regularity(g: Graph) -> int | None:
    """Common degree if the graph is regular, else None."""
    try:
        return require_regular(g)
    except GraphError:
        return None


def require_regular(g: Graph) -> int:
    """Degree of a regular graph; raises GraphError naming a vertex pair of
    unequal degrees otherwise."""
    if g.n == 0:
        return 0
    d = g.adj[0].bit_count()
    for v, a in enumerate(g.adj[1:], start=1):
        if a.bit_count() != d:
            raise GraphError(
                f"graph is not regular: deg(0)={d} != deg({v})={a.bit_count()}"
            )
    return d


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components of an induced subgraph, and how many are odd."""

    blocks: tuple[frozenset[int], ...]

    @property
    def odd_count(self) -> int:
        return sum(len(b) % 2 for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def _mask_components(adj: tuple[int, ...] | list[int], alive: int) -> list[int]:
    """Connected components of the subgraph induced on the ``alive`` mask."""
    comps = []
    rest = alive
    while rest:
        seed = rest & -rest
        reach = seed
        frontier = seed
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= adj[b.bit_length() - 1]
                f ^= b
            frontier = nxt & alive & ~reach
            reach |= frontier
        comps.append(reach)
        rest &= ~reach
    return comps


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return frozenset(out)


def components_after_deletion(g: Graph, s: Iterable[int] = ()) -> ComponentPartition:
    """Components of the induced subgraph on V minus ``s``, by ascending minimum."""
    smask = 0
    for v in s:
        if not 0 <= v < g.n:
            raise GraphError(f"deleted vertex {v} out of range for n={g.n}")
        smask |= 1 << v
    alive = g.vertex_mask() & ~smask
    return ComponentPartition(tuple(_mask_to_set(c) for c in _mask_components(g.adj, alive)))


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(_mask_components(g.adj, g.vertex_mask())) == 1


def add_matching(g: Graph, matching: Iterable[Edge]) -> Graph:
    """New graph with the matching edges added.

    The matching must be vertex-disjoint and edge-disjoint from g; adding a
    perfect matching to an r-regular graph yields an (r+1)-regular graph.
    """
    adj = list(g.adj)
    seen = 0
    for u, v in matching:
        if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
            raise GraphError(f"invalid matching edge ({u},{v})")
        if g.adj[u] >> v & 1:
            raise GraphError(f"edge ({u},{v}) already present")
        bits = (1 << u) | (1 << v)
        if seen & bits:
            raise GraphError(f"matching edges overlap at ({u},{v})")
        seen |= bits
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(g.n, tuple(adj))


# graph6: McKay's ASCII encoding. Order N(n), then the upper triangle in
# column-major order packed into 6-bit digits, each written as the byte
# 63 + digit. A base64 character is also one 6-bit digit, so translating
# the bytes 63..126 to the base64 alphabet "A".."/" turns a payload into
# base64 text of the same bit stream, and binascii converts between that
# text and raw bytes in C.

_G6_HEADER = ">>graph6<<"
_G6_DIGITS = bytes(range(63, 127))
_B64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_B64 = bytes.maketrans(_G6_DIGITS, _B64_DIGITS)
_FROM_B64 = bytes.maketrans(_B64_DIGITS, _G6_DIGITS)


def _g6_order_bytes(n: int) -> bytes:
    if n < 0:
        raise Graph6Error(f"negative order {n}")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise Graph6Error(f"order {n} too large for this writer")


def format_graph6(g: Graph) -> str:
    """Encode as a graph6 line (no trailing newline).

    The upper triangle's bit string becomes raw bytes through one ``int``,
    then base64 text through ``binascii``, whose characters translate one
    to one into graph6 bytes; linear in the line's length.
    """
    # column c holds the bits of the edges vc for v < c, lowest v first:
    # the binary digits of adj[c] below bit c, reversed and padded to c
    bits = "".join([bin(a & ((1 << c) - 1))[:1:-1].ljust(c, "0")
                    for c, a in enumerate(g.adj) if c])
    digits = (len(bits) + 5) // 6
    # whole base64 groups: 24 bits, 3 raw bytes, 4 characters
    pad = -len(bits) % 24
    raw = (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
    body = binascii.b2a_base64(raw, newline=False)[:digits].translate(_FROM_B64)
    return (_g6_order_bytes(g.n) + body).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional ``>>graph6<<`` header tolerated).

    The payload translates to base64 text, which ``binascii`` decodes to
    the upper triangle's bit string in one call; each vertex's row is then
    read off with string slices, linear in the line's length.
    """
    line = text.strip()
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    if not line:
        raise Graph6Error("empty graph6 line")
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII character in graph6 line: {exc}") from None
    # deleting every byte in range leaves the bad ones, first one first
    bad = data.translate(None, _G6_DIGITS)
    if bad:
        raise Graph6Error(f"byte {bad[0]!r} outside graph6 range 63..126")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("orders above 258047 are not supported")
        if len(data) < 4:
            raise Graph6Error("truncated multi-byte order")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise Graph6Error(
            f"expected {(need + 5) // 6} payload bytes for n={n}, got {len(body)}"
        )
    pad = len(body) * 6 - need
    if pad and (body[-1] - 63) & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    b64 = body.translate(_TO_B64) + b"A" * (-len(body) % 4)
    bits = format(int.from_bytes(binascii.a2b_base64(b64), "big"), "b").zfill(6 * len(b64))
    # row c of square holds the bit of the edge vc at v < c, padded to n:
    # row v before the diagonal gives v's neighbours below it, column v
    # from the diagonal down (a padding zero, then one bit per c > v) the
    # ones above it
    square = "".join([bits[c * (c - 1) // 2:c * (c + 1) // 2].ljust(n, "0")
                      for c in range(n)])
    adj = [int((square[v * n:v * n + v] + square[v * n + v::n])[::-1], 2)
           for v in range(n)]
    return Graph(n, tuple(adj))
