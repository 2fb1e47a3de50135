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

All searches scan vertices in ascending label order and each vertex's
neighbour mask lowest set bit first, so every result is deterministic for a
fixed input.  A blossom phase keeps each blossom, the outer vertices and
the inner vertices as vertex masks.  A scan leaves out the vertex's own
blossom and the inner vertices (its mate is one of the two), which never
give a tree edge; a neighbour whose bit is in the outer mask closes a
blossom, and the contraction relabels only the vertices that join it.
The single-vertex masks are made once per graph order and copied per
phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graph import Edge, Graph, GraphError, components_after_deletion, _norm_edge, _unit_masks

Matching = frozenset[Edge]


@dataclass(frozen=True)
class TutteViolator:
    """Certificate that no perfect matching exists: odd(G-s) > |s|."""

    s: frozenset[int]
    odd_count: int

    def verify(self, g: Graph) -> bool:
        """Re-check the certificate against g; an s outside 0..n-1 gives False."""
        if any(not 0 <= v < g.n for v in self.s):
            return False
        parts = components_after_deletion(g, self.s)
        return parts.odd_count == self.odd_count and self.odd_count > len(self.s)


def matching_from_pairs(pairs) -> Matching:
    return frozenset(_norm_edge(u, v) for u, v in pairs)


def is_valid_matching(g: Graph, m: Matching, perfect: bool = False) -> bool:
    """Edges exist in g and are pairwise vertex-disjoint (and cover V if perfect).

    An endpoint outside 0..n-1 makes the answer False, not an error."""
    n = g.n
    seen = 0
    for u, v in m:
        if not (0 <= u < n and 0 <= v < n) or u == v or not g.has_edge(u, v):
            return False
        bits = (1 << u) | (1 << v)
        if seen & bits:
            return False
        seen |= bits
    if perfect and seen != g.vertex_mask():
        return False
    return True


def _augment_from(adj: tuple[int, ...], match: list[int], root: int) -> int:
    """One blossom phase: grow an alternating tree from ``root``.

    Augments ``match`` in place and returns 0 when an exposed vertex is
    reached.  When the tree is Hungarian (no augmenting path) it returns
    the bitmask of the tree's outer vertices, which holds at least the root.
    """
    n = len(adj)
    bits = _unit_masks(n)
    parent = [-1] * n
    base = list(range(n))
    # members[b] is the vertex mask of the blossom whose base is b
    members = list(bits)
    outer = bits[root]
    inner = 0
    queue = [root]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        # v's own blossom and the inner vertices (v's mate among them when
        # it is outside the blossom) are never tree edges
        rest = adj[v] & ~(members[base[v]] | inner)
        while rest:
            bit = rest & -rest
            rest ^= bit
            to = bit.bit_length() - 1
            if outer & bit:
                # both endpoints outer in the same tree: contract the blossom
                # at their lowest common base
                a = v
                seen = 0
                while True:
                    a = base[a]
                    seen |= bits[a]
                    if match[a] == -1:
                        break
                    a = base[parent[match[a]]]
                stem = to
                while True:
                    stem = base[stem]
                    if seen >> stem & 1:
                        break
                    stem = base[parent[match[stem]]]
                # re-point parents on both tree paths up to the stem and
                # collect every blossom on them
                joined = 0
                for x, child in ((v, to), (to, v)):
                    while base[x] != stem:
                        y = match[x]
                        joined |= members[base[x]] | members[base[y]]
                        parent[x] = child
                        child = y
                        x = parent[y]
                joined &= ~members[stem]
                members[stem] |= joined
                new_outer = joined & ~outer
                outer |= joined
                inner &= ~joined
                while joined:
                    b = joined & -joined
                    i = b.bit_length() - 1
                    base[i] = stem
                    if new_outer & b:
                        queue.append(i)
                    joined ^= b
                # the contraction put v into the blossom
                rest &= ~members[stem]
            else:
                # neither outer nor inner: a vertex outside the tree
                parent[to] = v
                mate = match[to]
                if mate == -1:
                    # augment: flip matched status along the path back to root
                    while to != -1:
                        prev = parent[to]
                        nxt = match[prev]
                        match[to] = prev
                        match[prev] = to
                        to = nxt
                    return 0
                inner |= bit
                outer |= bits[mate]
                queue.append(mate)
    return outer


def _match_array(g: Graph) -> list[int]:
    n = g.n
    adj = g.adj
    match = [-1] * n
    # greedy warm start keeps the number of blossom phases small: each
    # vertex takes its lowest free neighbour
    free = (1 << n) - 1
    for v in range(n):
        if free >> v & 1:
            cand = adj[v] & free
            if cand:
                b = cand & -cand
                u = b.bit_length() - 1
                match[v] = u
                match[u] = v
                free ^= 1 << v | b
    for v in range(n):
        if match[v] == -1:
            _augment_from(adj, match, v)
    return match


def max_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching."""
    match = _match_array(g)
    return frozenset([(v, u) for v, u in enumerate(match) if u > v])


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
            d_mask |= _augment_from(g.adj, match, v)
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
    m = frozenset([(v, u) for v, u in enumerate(match) if u > v])
    if -1 not in match:
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
