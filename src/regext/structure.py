"""Edge-connectivity structure, cliques, and spanning bicliques.

A balloon is a maximal 2-edge-connected subgraph incident to exactly one
bridge.  Singleton vertices count as (vacuously) 2-edge-connected blocks,
so an isolated leaf hanging off a bridge is a balloon; odd-regular graphs
with r >= 3 never produce that case, but the decomposition stays total.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import (
    Edge,
    Graph,
    GraphError,
    _mask_components,
    _mask_to_set,
    _norm_edge,
    complement,
    components_after_deletion,
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
class OddCycle:
    """Odd cycle witnessing that a graph is not bipartite."""

    vertices: tuple[int, ...]

    def verify_in_complement(self, g: Graph) -> bool:
        k = len(self.vertices)
        if k % 2 == 0 or k < 3 or len(set(self.vertices)) != k:
            return False
        return all(
            not g.has_edge(self.vertices[i], self.vertices[(i + 1) % k])
            and self.vertices[i] != self.vertices[(i + 1) % k]
            for i in range(k)
        )


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
    """All cut edges, by iterative lowpoint DFS, sorted."""
    n = g.n
    pre = [-1] * n
    low = [0] * n
    counter = 0
    out: list[Edge] = []
    for root in range(n):
        if pre[root] != -1:
            continue
        pre[root] = low[root] = counter
        counter += 1
        stack = [(root, -1, g.neighbors(root))]
        while stack:
            v, parent, it = stack[-1]
            pushed = False
            for w in it:
                if pre[w] == -1:
                    pre[w] = low[w] = counter
                    counter += 1
                    stack.append((w, v, g.neighbors(w)))
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


def balloons(g: Graph) -> BalloonReport:
    """Bridges, 2-edge-connected blocks, and the blocks of bridge-degree 1."""
    bridge_list = find_bridges(g)
    adj = list(g.adj)
    for u, v in bridge_list:
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    block_masks = _mask_components(adj, g.vertex_mask())
    blocks = tuple(_mask_to_set(m) for m in block_masks)
    balloon_blocks = []
    for mask, block in zip(block_masks, blocks):
        incident = sum(1 for u, v in bridge_list if mask >> u & 1 or mask >> v & 1)
        if incident == 1:
            balloon_blocks.append(block)
    return BalloonReport(tuple(bridge_list), blocks, tuple(balloon_blocks))


def check_balloon_bound(g: Graph, s) -> BalloonBoundCheck:
    """Evaluate odd(G-s) - |s| against (r/(r-1)) * b(G) on a regular graph.

    Applicable only when every odd component of G-s sends exactly 1 or at
    least r edges into s.
    """
    r = require_regular(g)
    if r < 2:
        raise GraphError(f"balloon bound needs degree >= 2, got r={r}")
    s_set = frozenset(s)
    smask = 0
    for v in s_set:
        smask |= 1 << v
    parts = components_after_deletion(g, s_set)
    applicable = True
    for block in parts.blocks:
        if len(block) % 2 == 0:
            continue
        boundary = sum((g.adj[v] & smask).bit_count() for v in block)
        if boundary != 1 and boundary < r:
            applicable = False
            break
    b = balloons(g).b
    lhs = Fraction(parts.odd_count - len(s_set))
    rhs = Fraction(r, r - 1) * b
    rhs_alt = Fraction(r - 1, r) * b
    return BalloonBoundCheck(applicable, lhs <= rhs, lhs, rhs, rhs_alt, lhs <= rhs_alt)


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


def complement_bipartite_check(g: Graph) -> tuple[frozenset[int], frozenset[int]] | OddCycle:
    """2-color the complement by BFS, or return one of its odd cycles."""
    gc = complement(g)
    n = g.n
    color = [-1] * n
    parent = [-1] * n
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in gc.neighbors(v):
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    parent[w] = v
                    queue.append(w)
                elif color[w] == color[v]:
                    return _odd_cycle(parent, v, w)
    part0 = frozenset(v for v in range(n) if color[v] == 0)
    part1 = frozenset(v for v in range(n) if color[v] == 1)
    return (part0, part1)


def _odd_cycle(parent: list[int], v: int, w: int) -> OddCycle:
    # walk both BFS branches up to the first common ancestor
    up_v = [v]
    seen = {v: 0}
    cur = v
    while parent[cur] != -1:
        cur = parent[cur]
        seen[cur] = len(up_v)
        up_v.append(cur)
    cur = w
    up_w = [w]
    while cur not in seen:
        cur = parent[cur]
        up_w.append(cur)
    meet = seen[cur]
    cycle = up_v[: meet + 1] + up_w[-2::-1]
    return OddCycle(tuple(cycle))


def check_ineq_kr(r, k) -> bool:
    """(k+2)*r - k^2 + 2 > 3r + 7, evaluated exactly for exact inputs."""
    return (k + 2) * r - k * k + 2 > 3 * r + 7


def check_ineq_x(r, x) -> bool:
    """x*(r - x + 1) >= r, evaluated exactly for exact inputs."""
    return x * (r - x + 1) >= r
