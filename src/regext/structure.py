"""Edge-connectivity structure, cliques, and spanning bicliques.

A balloon is a maximal 2-edge-connected subgraph incident to exactly one
bridge.  Singleton vertices count as (vacuously) 2-edge-connected blocks,
so an isolated leaf hanging off a bridge is a balloon; odd-regular graphs
with r >= 3 never produce that case, but the decomposition stays total.

The balloon bound is checked on vertex masks.  The balloon count is taken
once per graph, with no bridge search when r is even or n < 2r + 4 (an
r-regular graph with a bridge has r odd and at least r + 2 vertices on
each side of it); then each set costs one component pass over V - S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .graph import (
    Edge,
    Graph,
    GraphError,
    _mask_components,
    _mask_to_set,
    _norm_edge,
    complement,
    require_regular,
)


@dataclass(frozen=True)
class BalloonReport:
    bridges: tuple[Edge, ...]
    blocks: tuple[frozenset[int], ...]
    balloons: tuple[frozenset[int], ...]

    @property
    def b(self) -> int:
        """Balloon count."""
        return len(self.balloons)


@dataclass(frozen=True)
class BicliqueWitness:
    """Spanning complete bipartite subgraph: every cross pair is an edge."""

    part_a: frozenset[int]
    part_b: frozenset[int]

    def verify(self, g: Graph) -> bool:
        if not self.part_a or not self.part_b:
            return False
        if self.part_a & self.part_b:
            return False
        if self.part_a | self.part_b != frozenset(range(g.n)):
            return False
        return all(g.has_edge(u, v) for u in self.part_a for v in self.part_b)


@dataclass(frozen=True)
class BalloonBoundCheck:
    """Both sides of the odd-component balloon bound, as exact rationals.

    ``rhs`` uses the coefficient r/(r-1); ``rhs_alt`` the reciprocal
    (r-1)/r, which some derivations use instead.  Both are reported rather
    than silently picking one.
    """

    applicable: bool
    holds: bool
    lhs: Fraction
    rhs: Fraction
    rhs_alt: Fraction
    holds_alt: bool


def find_bridges(g: Graph) -> list[Edge]:
    """All cut edges, by iterative lowpoint DFS, sorted.

    Each stack frame holds the mask of its vertex's neighbours not yet
    scanned, taken lowest bit first.
    """
    n = g.n
    adj = g.adj
    pre = [-1] * n
    low = [0] * n
    counter = 0
    out: list[Edge] = []
    for root in range(n):
        if pre[root] != -1:
            continue
        pre[root] = low[root] = counter
        counter += 1
        stack = [[root, -1, adj[root]]]
        while stack:
            frame = stack[-1]
            v, parent, rest = frame
            pushed = False
            while rest:
                b = rest & -rest
                rest ^= b
                w = b.bit_length() - 1
                if pre[w] == -1:
                    pre[w] = low[w] = counter
                    counter += 1
                    frame[2] = rest
                    stack.append([w, v, adj[w]])
                    pushed = True
                    break
                if w != parent and pre[w] < low[v]:
                    low[v] = pre[w]
            if not pushed:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] > pre[pv]:
                        out.append(_norm_edge(pv, v))
    return sorted(out)


def _balloon_pass(g: Graph) -> tuple[list[Edge], list[int], list[int]]:
    """Bridges, 2-edge-connected block masks and balloon masks: one bridge
    search, then one component pass over the rows with the bridges cut."""
    bridge_list = find_bridges(g)
    adj = list(g.adj)
    for u, v in bridge_list:
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    block_masks = _mask_components(adj, g.vertex_mask())
    balloon_masks = [
        mask for mask in block_masks
        if sum((mask >> u & 1) + (mask >> v & 1) for u, v in bridge_list) == 1
    ]
    return bridge_list, block_masks, balloon_masks


def balloons(g: Graph) -> BalloonReport:
    """Bridges, 2-edge-connected blocks, and the blocks of bridge-degree 1."""
    bridge_list, block_masks, balloon_masks = _balloon_pass(g)
    return BalloonReport(tuple(bridge_list), tuple(map(_mask_to_set, block_masks)),
                         tuple(map(_mask_to_set, balloon_masks)))


def _balloon_count(g: Graph, r: int) -> int:
    """b(G) of an r-regular graph with r >= 2: its 2-edge-connected blocks
    that touch exactly one bridge.

    0 with no search when r is even or n < 2r + 4.  A bridge's side A (one
    part of its component once the bridge is cut) has degree sum
    r|A| = 2e(A) + 1, and 2e(A) <= |A|(|A| - 1).  So r and |A| are odd,
    and |A|(|A| - r - 1) >= -1 forces |A| >= r + 1, hence |A| >= r + 2;
    both sides together need 2r + 4 vertices.
    """
    if r % 2 == 0 or g.n < 2 * r + 4:
        return 0
    return len(_balloon_pass(g)[2])


def balloon_bound_checker(g: Graph) -> Callable[[Iterable[int]], BalloonBoundCheck]:
    """``check_balloon_bound`` for one graph: its degree and balloon count
    are computed here once, and each call of the result checks one set by
    one component pass over the mask of V - s."""
    r = require_regular(g)
    if r < 2:
        raise GraphError(f"balloon bound needs degree >= 2, got r={r}")
    n = g.n
    adj = g.adj
    full = g.vertex_mask()
    b = _balloon_count(g, r)
    # lhs <= r b / (r - 1) and lhs <= (r - 1) b / r, cleared of denominators
    rb, r1b = r * b, (r - 1) * b
    rhs = Fraction(rb, r - 1)
    rhs_alt = Fraction(r1b, r)

    def check(s: Iterable[int]) -> BalloonBoundCheck:
        smask = 0
        rows = []  # adjacency of each vertex of s, once
        for v in s:
            if not 0 <= v < n:
                raise GraphError(f"deleted vertex {v} out of range for n={n}")
            if not smask >> v & 1:
                smask |= 1 << v
                rows.append(adj[v])
        odd = 0
        applicable = True
        for comp in _mask_components(adj, full & ~smask):
            if comp.bit_count() & 1:
                odd += 1
                if applicable:
                    boundary = sum((a & comp).bit_count() for a in rows)
                    applicable = boundary == 1 or boundary >= r
        lhs = odd - smask.bit_count()
        return BalloonBoundCheck(applicable, lhs * (r - 1) <= rb, Fraction(lhs),
                                 rhs, rhs_alt, lhs * r <= r1b)

    return check


def check_balloon_bound(g: Graph, s: Iterable[int]) -> BalloonBoundCheck:
    """Evaluate odd(G-s) - |s| against (r/(r-1)) * b(G) on a regular graph.

    Applicable only when every odd component of G-s sends exactly 1 or at
    least r edges into s.  A repeated vertex of s counts once, and one out
    of range raises ``GraphError``.  b(G) is 0 without a bridge search when
    r is even or n < 2r + 4 (see ``_balloon_count``).  To check many sets
    of one graph, call ``balloon_bound_checker`` once instead.
    """
    return balloon_bound_checker(g)(s)


def _clique_search(g: Graph, floor: int, stop: int) -> list[int]:
    """Branch and bound for a clique of more than ``floor`` vertices.

    Returns the largest clique found, or the first with ``stop`` vertices;
    [] if none beats ``floor``.  A branch is cut once its clique plus the
    color count of its candidates cannot beat the best clique so far.
    """
    adj = g.adj
    best: list[int] = []
    chosen: list[int] = []

    def expand(cand: int) -> bool:
        nonlocal floor, best
        # greedy coloring: vertices in the same class are pairwise
        # non-adjacent, so a clique among the candidates up to some position
        # of ``order`` uses at most that position's color
        order: list[tuple[int, int]] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                bit = avail & -avail
                v = bit.bit_length() - 1
                order.append((v, color))
                uncolored ^= bit
                avail &= ~adj[v] & uncolored
        remaining = cand
        for v, c in reversed(order):
            if len(chosen) + c <= floor:
                return False
            chosen.append(v)
            if len(chosen) > floor:
                floor, best = len(chosen), list(chosen)
                if floor == stop:
                    return True
            if expand(remaining & adj[v]):
                return True
            chosen.pop()
            remaining &= ~(1 << v)
        return False

    expand(g.vertex_mask())
    return best


def find_clique(g: Graph, k: int) -> frozenset[int] | None:
    """A clique of exactly k vertices, or None.

    Exact branch and bound with a greedy-coloring bound; meant for n up to
    about 40.  Adversarial dense inputs beyond that may be slow.
    """
    if k < 1:
        raise GraphError(f"clique size must be positive, got {k}")
    if k > g.n:
        return None
    if k == 1:
        return frozenset({0}) if g.n else None
    return frozenset(_clique_search(g, k - 1, k)) or None


def clique_number(g: Graph) -> int:
    """Order of a maximum clique (0 for the empty graph), by one search."""
    return len(_clique_search(g, 0, g.n))


def spanning_biclique(g: Graph, require_odd_parts: bool = False) -> BicliqueWitness | None:
    """Bipartition (A, B) of V with every A-B pair an edge, if one exists.

    Exists iff the complement is disconnected; parts are unions of
    complement components.  With ``require_odd_parts`` both part sizes must
    be odd, which is achievable iff some complement component is odd and n
    is even.
    """
    if g.n < 2:
        return None
    comp_masks = _mask_components(complement(g).adj, g.vertex_mask())
    if len(comp_masks) < 2:
        return None
    if not require_odd_parts:
        a = comp_masks[0]
    else:
        a = next((m for m in comp_masks if m.bit_count() % 2 == 1), None)
        if a is None or (g.n - a.bit_count()) % 2 == 0:
            return None
    return BicliqueWitness(_mask_to_set(a), _mask_to_set(g.vertex_mask() ^ a))


def l_vertex_bound(r):
    """3r + 7, L's vertex bound: for odd r > 15, every r-regular graph on
    an even number n < 3r + 7 of vertices has a perfect matching."""
    return 3 * r + 7


def check_ineq_kr(r, k) -> bool:
    """(k+2)*r - k^2 + 2 > 3r + 7, evaluated exactly for exact inputs."""
    return (k + 2) * r - k * k + 2 > l_vertex_bound(r)


def check_ineq_x(r, x) -> bool:
    """x*(r - x + 1) >= r, evaluated exactly for exact inputs."""
    return x * (r - x + 1) >= r
