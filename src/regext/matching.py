"""Maximum and perfect matching with independently checkable certificates.

General graphs use augmenting-path search with blossom contraction; when no
perfect matching exists the caller gets a Tutte violator: a vertex set S
whose deletion leaves more odd components than |S|.  The violator is the
Gallai-Edmonds set read off the Hungarian trees of a maximum matching, so
it is Tutte-Berge tight: odd(G-S) - |S| equals the number of vertices a
maximum matching misses.  Bipartite graphs take the same search, which
contracts no blossom there.  ``tutte_violator_bruteforce`` scans all 2^n
subsets; no product path calls it, it is the independent oracle the
matcher is tested against.

All searches scan vertices and neighbors in ascending label order, so every
result is deterministic for a fixed input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .graph import Edge, Graph, GraphError, components_after_deletion, _norm_edge

Matching = frozenset[Edge]


@dataclass(frozen=True)
class TutteViolator:
    """Certificate that no perfect matching exists: odd(G-s) > |s|."""

    s: frozenset[int]
    odd_count: int

    def verify(self, g: Graph) -> bool:
        """Re-check the certificate against its host graph."""
        parts = components_after_deletion(g, self.s)
        return parts.odd_count == self.odd_count and self.odd_count > len(self.s)


def matching_from_pairs(pairs) -> Matching:
    return frozenset(_norm_edge(u, v) for u, v in pairs)


def is_valid_matching(g: Graph, m: Matching, perfect: bool = False) -> bool:
    """Edges exist in g and are pairwise vertex-disjoint (and cover V if perfect)."""
    seen = 0
    for u, v in m:
        if u == v or not g.has_edge(u, v):
            return False
        bits = (1 << u) | (1 << v)
        if seen & bits:
            return False
        seen |= bits
    if perfect and seen != g.vertex_mask():
        return False
    return True


def _augment_from(g: Graph, match: list[int], root: int) -> int:
    """One blossom phase: grow an alternating tree from ``root``.

    Augments ``match`` in place and returns 0 when an exposed vertex is
    reached.  When the tree is Hungarian (no augmenting path) it returns the
    bitmask of the tree's outer vertices, which holds at least the root.
    """
    n = g.n
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    outer[root] = True
    queue = deque([root])

    def lowest_common_base(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = base[parent[match[a]]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = base[parent[match[b]]]

    def mark_blossom(v: int, stop: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stop:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    while queue:
        v = queue.popleft()
        for to in g.neighbors(v):
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # both endpoints outer in the same tree: contract the blossom
                stem = lowest_common_base(v, to)
                in_blossom = [False] * n
                mark_blossom(v, stem, to, in_blossom)
                mark_blossom(to, stem, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stem
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    # augment: flip matched status along the path back to root
                    while to != -1:
                        prev = parent[to]
                        nxt = match[prev]
                        match[to] = prev
                        match[prev] = to
                        to = nxt
                    return 0
                if not outer[match[to]]:
                    outer[match[to]] = True
                    queue.append(match[to])
    return sum(1 << v for v in range(n) if outer[v])


def _match_array(g: Graph) -> list[int]:
    n = g.n
    match = [-1] * n
    # greedy warm start keeps the number of blossom phases small
    for v in range(n):
        if match[v] == -1:
            for u in g.neighbors(v):
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1:
            _augment_from(g, match, v)
    return match


def max_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching."""
    match = _match_array(g)
    return frozenset((v, u) for v, u in enumerate(match) if u > v)


def _gallai_edmonds_violator(g: Graph, match: list[int]) -> TutteViolator:
    """Violator from the structure of a deficient maximum matching.

    D = vertices missed by some maximum matching, which are exactly the
    outer vertices of the Hungarian trees grown from the exposed vertices;
    S = N(D) - D.  Every component of G[D] is odd, and there are
    deficiency + |S| of them, so S violates the Tutte condition whenever
    the matching is not perfect, and does so with equality in Tutte-Berge.
    """
    d_mask = 0
    for v, u in enumerate(match):
        if u == -1:
            d_mask |= _augment_from(g, match, v)
    s = frozenset(
        v for v in range(g.n) if not d_mask >> v & 1 and g.adj[v] & d_mask
    )
    odd = components_after_deletion(g, s).odd_count
    violator = TutteViolator(s, odd)
    if not violator.verify(g):
        raise AssertionError("Gallai-Edmonds violator failed self-check")
    return violator


def max_matching_with_violator(g: Graph) -> tuple[Matching, TutteViolator | None]:
    """A maximum matching, plus the violator proving it maximum when it is
    not perfect; one blossom search serves both."""
    match = _match_array(g)
    m = frozenset((v, u) for v, u in enumerate(match) if u > v)
    if all(u != -1 for u in match):
        return m, None
    return m, _gallai_edmonds_violator(g, match)


def perfect_matching(g: Graph) -> Matching | TutteViolator:
    """A perfect matching, or a Tutte violator proving none exists.

    The violator is the Gallai-Edmonds one (see ``_gallai_edmonds_violator``)
    for every deficient graph, odd n included; it is polynomial and
    Tutte-Berge tight, so it also proves the size of ``max_matching(g)``.
    """
    m, violator = max_matching_with_violator(g)
    return m if violator is None else violator


def _odd_components_by_subset(g: Graph) -> bytearray:
    """odd(G[T]) for every vertex subset T, bottom-up over bitmasks.

    Strips the component of T's lowest vertex and looks the rest up; the
    isolated-vertex fast path matters because it covers most subsets of
    sparse graphs.
    """
    adj = g.adj
    size = 1 << g.n
    oddc = bytearray(size)
    for t in range(1, size):
        low = t & -t
        frontier = adj[low.bit_length() - 1] & t
        if not frontier:
            oddc[t] = oddc[t ^ low] + 1
            continue
        reach = low | frontier
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= adj[b.bit_length() - 1]
                f ^= b
            frontier = nxt & t & ~reach
            reach |= frontier
        oddc[t] = oddc[t ^ reach] + (reach.bit_count() & 1)
    return oddc


def tutte_violator_bruteforce(g: Graph, limit_n: int = 22) -> TutteViolator | None:
    """Minimum-cardinality S with odd(G-S) > |S|, or None; 2^n scan.

    Test oracle for :func:`perfect_matching`.  Small cardinalities
    are scanned first so common violators return quickly; proving "none"
    costs a full dynamic program over all subsets.
    """
    n = g.n
    if n > limit_n:
        raise GraphError(f"n={n} exceeds brute-force limit {limit_n}")
    for k in range(3):
        if k > n:
            break
        for combo in combinations(range(n), k):
            odd = components_after_deletion(g, combo).odd_count
            if odd > k:
                return TutteViolator(frozenset(combo), odd)
    if n < 3:
        return None
    oddc = _odd_components_by_subset(g)
    full = g.vertex_mask()
    best_t = -1
    best_size = -1
    for t in range(full + 1):
        if oddc[t] + t.bit_count() > n and t.bit_count() > best_size:
            best_t = t
            best_size = t.bit_count()
    if best_t == -1:
        return None
    smask = full ^ best_t
    s = frozenset(v for v in range(n) if smask >> v & 1)
    return TutteViolator(s, oddc[best_t])
