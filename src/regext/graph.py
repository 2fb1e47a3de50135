"""Immutable simple-graph representation and graph6 serialization.

Vertices are dense integer labels 0..n-1.  Adjacency is stored as one
Python-int bitmask per vertex, which makes complement a bitwise flip and
keeps exhaustive loops over subsets cheap at the scales this package
targets (n up to a few hundred).  All operations are pure functions; a
``Graph`` never mutates after construction.
"""

from __future__ import annotations

import binascii
import sys
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Iterable, Iterator

Edge = tuple[int, int]


class GraphError(ValueError):
    """Invalid graph construction or operation input."""


class Graph6Error(ValueError):
    """Malformed graph6 text."""


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@lru_cache(maxsize=64)
def _unit_masks(n: int) -> tuple[int, ...]:
    """``1 << v`` for every vertex v < n, kept for the 64 orders last used."""
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
        # rest: the alive vertices that no component has reached yet
        reach = frontier = rest & -rest
        rest ^= reach
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= adj[b.bit_length() - 1]
                f ^= b
            frontier = nxt & rest
            rest ^= frontier
            reach |= frontier
        comps.append(reach)
    return comps


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return frozenset(out)


def _set_to_mask(vertices: Iterable[int], n: int) -> int:
    """The mask of a vertex set, the inverse of ``_mask_to_set``; raises
    GraphError for no set and at the first label that is not an int in
    0..n-1 (a bool reads as its int).  Certificate checkers read labels here."""
    mask = 0
    try:
        for v in vertices:
            if not isinstance(v, int) or not 0 <= v < n:
                raise GraphError(f"label {v!r} is not a vertex of 0..{n - 1}")
            mask |= 1 << v
    except TypeError:  # not iterable
        raise GraphError(f"{vertices!r} is not a set of vertices") from None
    return mask


def _mates(pairs: Iterable[Edge], n: int) -> list[int]:
    """The partner list of a set of vertex pairs, -1 where a vertex has no
    partner; raises GraphError for no set, an element that is not a pair, a
    label that ``_set_to_mask`` refuses, a self-pair or a vertex in two pairs."""
    mates = [-1] * n
    try:
        for u, v in pairs:
            if (not isinstance(u, int) or not isinstance(v, int) or not 0 <= u < n
                    or not 0 <= v < n or u == v or mates[u] != -1 or mates[v] != -1):
                raise GraphError(f"pair ({u!r},{v!r}) is not two unpaired vertices of 0..{n - 1}")
            mates[u] = v
            mates[v] = u
    except GraphError:
        raise
    except (TypeError, ValueError) as exc:  # not iterable, or an element that is not a pair
        raise GraphError(f"not a set of vertex pairs ({exc})") from None
    return mates


def components_after_deletion(g: Graph, s: Iterable[int] = ()) -> ComponentPartition:
    """Components of the induced subgraph on V minus ``s``, by ascending minimum."""
    alive = g.vertex_mask() & ~_set_to_mask(s, g.n)
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
    for v, u in enumerate(_mates(matching, g.n)):
        if u >= 0:
            if g.adj[v] >> u & 1:
                raise GraphError(f"edge ({v},{u}) already present")
            adj[v] |= 1 << u
    return Graph(g.n, tuple(adj))


# graph6: McKay's ASCII encoding. Order N(n), then the upper triangle in
# column-major order packed into 6-bit digits, each written as the byte
# 63 + digit. A base64 character is also one 6-bit digit, so translating
# the bytes 63..126 to the base64 alphabet "A".."/" turns a payload into
# base64 text of the same bit stream, and binascii converts between that
# text and raw bytes in C.
#
# Decoding works in tiles of 64 x 64 vertex pairs and never builds an
# n x n string. A graph with n <= 64 is one tile: a single integer holds
# its bit stream, and shifts and masks alone turn it into the adjacency
# matrix (see _g6_tile_rows). A larger graph is decoded one block of 64
# columns at a time from the payload bytes that cover it (see
# _g6_block_rows), so beyond the line's bytes it holds the matrix being
# built (n * n / 8 bytes, 1.5 times the line) and one block's strings (a
# few hundred bytes per vertex).

_G6_HEADER = ">>graph6<<"
_G6_DIGITS = bytes(range(63, 127))
_B64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_B64 = bytes.maketrans(_G6_DIGITS, _B64_DIGITS)
_FROM_B64 = bytes.maketrans(_B64_DIGITS, _G6_DIGITS)
_TILE = 64
# memoryview formats of the word a one-tile row fits in, by its bits
_WORD_FORMAT = {8: "B", 16: "H", 32: "I", 64: "Q"}
# each byte with its bits in reverse order
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


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

    The payload is decoded in tiles of 64 x 64 vertex pairs, so time is
    linear in the line's length and so is memory: beyond the line's bytes,
    the rows being built (n * n / 8 bytes, 1.5 times the line) and one
    block of 64 columns' strings, never an n x n string.
    """
    n, data, start = _g6_payload(text)
    rows = (_g6_tile_rows(data[start:], n) if n <= _TILE
            else _g6_block_rows(data, start, n))
    return Graph(n, tuple(rows))


def _g6_payload(text: str) -> tuple[int, bytes, int]:
    """Order, ASCII bytes and payload offset of a graph6 line; raises
    Graph6Error naming the first fault."""
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
        start = 4
    else:
        n = data[0] - 63
        start = 1
    need = n * (n - 1) // 2
    size = len(data) - start
    if size != (need + 5) // 6:
        raise Graph6Error(
            f"expected {(need + 5) // 6} payload bytes for n={n}, got {size}"
        )
    pad = size * 6 - need
    if pad and (data[-1] - 63) & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits")
    return n, data, start


def _g6_tile_rows(payload: bytes, n: int) -> list[int]:
    """Rows of a graph with n <= 64 from its graph6 payload.

    Each row of the tile is the smallest whole word that holds n bits,
    w bits wide.  With each payload byte's bits reversed, one integer holds the
    bit stream lowest bit first, so column c of the upper triangle is
    c bits from bit c(c-1)/2, lowest row first: vertex c's neighbours
    below it.  Masked shifts move each column to bit w * c, which makes
    it row c of the lower triangle, and delta swaps transpose that into
    the upper triangle (Warren, *Hacker's Delight*, 2nd ed., sec. 7-3).
    The two ORed are the adjacency matrix, and its words are the rows.
    """
    if n <= 1:
        return [0] * n
    wide = max(8, 1 << (n - 1).bit_length())
    b64 = payload.translate(_TO_B64)
    raw = binascii.a2b_base64(b64 + b"A" * (-len(b64) % 4))
    low = int.from_bytes(raw.translate(_BIT_REVERSED), "little")
    for mask, shift in _spread_stages(n, wide):
        moved = low & mask
        low ^= moved ^ moved << shift
    high = low
    for mask, shift in _transpose_stages(wide):
        swap = (high >> shift ^ high) & mask
        high ^= swap ^ swap << shift
    words = (low | high).to_bytes(n * wide // 8, sys.byteorder)
    with memoryview(words).cast(_WORD_FORMAT[wide]) as q:
        return q.tolist()


@cache
def _spread_stages(n: int, wide: int) -> tuple[tuple[int, int], ...]:
    """(mask, shift) pairs that move every column c < n of a payload's bit
    stream from bit c(c-1)/2 to bit wide * c.

    Column c moves d(c) = wide * c - c(c-1)/2 places, a power of two at a
    time, highest first.  After the stages for the powers above 2^b it
    has moved d(c) with its bits below b cleared.  That grows with c, as
    d does (by wide - c > 0 a column), and the columns start in order,
    each where the one before ends, so no stage lands one on another.
    """
    move = [wide * c - c * (c - 1) // 2 for c in range(n)]
    stages = []
    for b in reversed(range(move[-1].bit_length())):
        mask = 0
        for c in range(1, n):
            if move[c] >> b & 1:
                at = c * (c - 1) // 2 + (move[c] >> b + 1 << b + 1)
                mask |= ((1 << c) - 1) << at
        if mask:
            stages.append((mask, 1 << b))
    return tuple(stages)


@cache
def _transpose_stages(wide: int) -> tuple[tuple[int, int], ...]:
    """(mask, shift) delta swaps that transpose a wide x wide bit matrix
    held one row per ``wide`` bits: stage j swaps bit (r, c) with
    (r + j, c - j) wherever r lacks bit j and c has it."""
    stages = []
    j = wide // 2
    while j:
        row = sum(1 << c for c in range(wide) if c & j)
        stages.append((sum(row << r * wide for r in range(wide) if not r & j),
                       j * (wide - 1)))
        j //= 2
    return tuple(stages)


def _g6_block_rows(data: bytes, start: int, n: int) -> list[int]:
    """Rows of a graph with n > 64 from its graph6 line ``data``, whose
    payload starts at ``start``.

    Column block j holds columns c0 = 64j up to c1.  Only the payload
    bytes that cover it are base64-decoded, into a '0'/'1' string, and
    each column's slice of it lands in the block's tile string by slice
    assignments.  The tile has two parts, one row of characters per
    vertex, lowest column first:
    - the rows above the block, v < c0, are 64 wide and hold the edges
      v(c0 + k) at k: the upper triangle's columns, transposed by one
      strided assignment each;
    - the block's own rows are c0 + 64 wide and hold the whole row up to
      c1: the column itself, contiguous, and the edges to later columns
      of the block, strided.
    One ``int`` of the reversed tile then holds every row in whole 64-bit
    words, with no per-row reversal or ``int(..., 2)``.  The words go
    into ``bands``, the adjacency matrix in bands of 64 whole rows, which
    become the rows' ints band by band, each band freed once read.
    """
    t = _TILE
    order = sys.byteorder
    nb = -(-n // t)
    bands = []
    for j in range(nb):
        c0, c1 = t * j, min(t * j + t, n)
        # payload bytes k0..k1-1 hold bits c0(c0-1)/2 up to c1(c1-1)/2
        k0, k1 = c0 * (c0 - 1) // 12, -(-c1 * (c1 - 1) // 12)
        b64 = data[start + k0:start + k1].translate(_TO_B64)
        raw = binascii.a2b_base64(b64 + b"A" * (-len(b64) % 4))
        bits = bytearray(f"{int.from_bytes(raw, 'big'):0{8 * len(raw)}b}", "ascii")
        s = c0 * (c0 - 1) // 2 - 6 * k0
        above, wide = t * c0, c0 + t
        tile = bytearray(b"0") * (above + (c1 - c0) * wide)
        for c in range(c0, c1):
            own = above + (c - c0) * wide
            if c0:
                tile[c - c0:above:t] = bits[s:s + c0]
            tile[above + c:own:wide] = bits[s + c0:s + c]
            tile[own:own + c] = bits[s:s + c]
            s += c
        words = int(tile[::-1], 2).to_bytes(len(tile) // 8, order)
        band = memoryview(bytearray(8 * nb * (c1 - c0))).cast("Q")
        with memoryview(words).cast("Q") as q:
            for i in range(j):
                bands[i][j::nb] = q[t * i:t * i + t]
            for i in range(j + 1):
                band[i::nb] = q[c0 + i::j + 1]
        bands.append(band)
    rows = []
    for i in range(nb):
        band, bands[i] = bands[i], None
        rows += [int.from_bytes(band[k:k + nb], order) for k in range(0, len(band), nb)]
    return rows
