"""Edge-connectivity structure, cliques, and spanning bicliques.

Both complete-subgraph witnesses read g through its complement:
``spanning_biclique`` through the complement's components and
``half_clique`` (T5's clique of n/2 in a regular g) through its
2-colouring, each in one linear pass.  The clique branch and bound serves
only ``clique_number``; ``find_clique`` is kept as the tests' oracle.

A balloon is a maximal 2-edge-connected subgraph incident to exactly one
bridge.  Singleton vertices count as (vacuously) 2-edge-connected blocks,
so an isolated leaf hanging off a bridge is a balloon; odd-regular graphs
with r >= 3 never produce that case, but the decomposition stays total.

``_balloon_pass`` makes no bridge search on an r-regular graph with
r != 1 and r even or n < 2r + 4 (an r-regular graph with r >= 2 and a
bridge has r odd and at least r + 2 vertices on each side of it); its
blocks are then its components, from one component pass.

The balloon bound is checked on vertex masks.  The degree test and the
balloon count are taken once per graph; then each set costs one
component pass over V - S.  Consecutive ``check_balloon_bound`` calls on
one graph share that per-graph work: ``balloon_bound_checker`` keeps the
checker of the last graph it built, and of no other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from .graph import (
    Edge,
    Graph,
    GraphError,
    _mask_components,
    _mask_to_set,
    _norm_edge,
    _set_to_mask,
    complement,
    regularity,
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
        try:
            a, b = _set_to_mask(self.part_a, g.n), _set_to_mask(self.part_b, g.n)
        except GraphError:
            return False
        return (0 < a and 0 < b and not a & b and a | b == g.vertex_mask()
                and all(g.adj[v] & b == b for v in self.part_a))


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


def _balloon_pass(g: Graph, r: int | None) -> tuple[list[Edge], list[int], list[int]]:
    """Bridges, 2-edge-connected block masks and balloon masks of g, whose
    common degree is r (None when g is not regular).

    An r-regular graph with r != 1 has no bridge when r is even or
    n < 2r + 4, so there the blocks are the components, found by one
    component pass with no bridge search.  A bridge's side A (one part of
    its component once the bridge is cut) has degree sum r|A| = 2e(A) + 1,
    and 2e(A) <= |A|(|A| - 1).  So r and |A| are odd, and
    |A|(|A| - r - 1) >= -1 forces |A| >= r + 1 unless |A| = r = 1, hence
    |A| >= r + 2 for r >= 3; both sides together need 2r + 4 vertices.
    At r = 1 every edge is a bridge with one vertex on each side.

    Otherwise one bridge search, then one component pass over the rows
    with the bridges cut.  A bridge's two ends lie in different blocks, so
    a block touches exactly one bridge iff it holds exactly one bridge end
    and no vertex that is the end of two bridges: one pass over the
    bridges marks the vertices with one end (``ends``) and with two or
    more (``multi``)."""
    if r is not None and r != 1 and (r % 2 == 0 or g.n < 2 * r + 4):
        return [], _mask_components(g.adj, g.vertex_mask()), []
    bridge_list = find_bridges(g)
    adj = list(g.adj)
    ends = multi = 0
    for u, v in bridge_list:
        ub, vb = 1 << u, 1 << v
        adj[u] &= ~vb
        adj[v] &= ~ub
        multi |= ends & (ub | vb)
        ends |= ub | vb
    block_masks = _mask_components(adj, g.vertex_mask())
    if not bridge_list:
        return bridge_list, block_masks, []
    balloon_masks = [
        mask for mask in block_masks
        if not mask & multi and (mask & ends).bit_count() == 1
    ]
    return bridge_list, block_masks, balloon_masks


def balloons(g: Graph) -> BalloonReport:
    """Bridges, 2-edge-connected blocks, and the blocks of bridge-degree 1,
    each block list by ascending minimum.  A regular graph of degree
    r != 1 with r even or n < 2r + 4 gets no bridge search: its blocks
    are its components (see ``_balloon_pass``)."""
    bridge_list, block_masks, balloon_masks = _balloon_pass(g, regularity(g))
    return BalloonReport(tuple(bridge_list), tuple(map(_mask_to_set, block_masks)),
                         tuple(map(_mask_to_set, balloon_masks)))


def _balloon_count(g: Graph, r: int) -> int:
    """b(G) of an r-regular graph: its 2-edge-connected blocks that touch
    exactly one bridge; 0 with no bridge search where ``_balloon_pass``
    rules bridges out."""
    return len(_balloon_pass(g, r)[2])


@lru_cache(maxsize=1)
def balloon_bound_checker(g: Graph) -> Callable[[Iterable[int]], BalloonBoundCheck]:
    """``check_balloon_bound`` for one graph: its degree and balloon count
    are computed here once, and each call of the result checks one set by
    one component pass over the mask of V - s.

    The checker of the last graph is kept, so a run of calls on one graph,
    or on equal ``Graph`` values, builds it once; a graph that fails the
    degree test raises on every call.  A result depends only on whether
    the bound applies and on odd(G-s) - |s|, so the checker makes one per
    such pair and returns it again for every later set with the same."""
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
    made: dict[tuple[bool, int], BalloonBoundCheck] = {}

    def check(s: Iterable[int]) -> BalloonBoundCheck:
        # validates s and collects its rows in one loop: enumerate makes
        # thousands of calls, and _set_to_mask would add about 10 % to each
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
        for comp in _mask_components(adj, full ^ smask):
            if comp.bit_count() & 1:
                odd += 1
                if applicable:
                    boundary = 0
                    for a in rows:
                        boundary += (a & comp).bit_count()
                    applicable = boundary == 1 or boundary >= r
        lhs = odd - len(rows)
        key = (applicable, lhs)
        found = made.get(key)
        if found is None:
            found = made[key] = BalloonBoundCheck(
                applicable, lhs * (r - 1) <= rb, Fraction(lhs), rhs, rhs_alt, lhs * r <= r1b)
        return found

    return check


def check_balloon_bound(g: Graph, s: Iterable[int]) -> BalloonBoundCheck:
    """Evaluate odd(G-s) - |s| against (r/(r-1)) * b(G) on a regular graph.

    Applicable only when every odd component of G-s sends exactly 1 or at
    least r edges into s.  A repeated vertex of s counts once, and one out
    of range raises ``GraphError``.  b(G) is 0 without a bridge search when
    r is even or n < 2r + 4 (see ``_balloon_pass``).  Consecutive calls
    on one graph take its degree and balloon count once.
    """
    return balloon_bound_checker(g)(s)


def _color_order(adj: tuple[int, ...], cand: int) -> list[tuple[int, int]]:
    """The candidates of ``cand`` by greedy coloring, each with its color.

    Vertices in the same class are pairwise non-adjacent, so a clique among
    the candidates up to some position of the list uses at most that
    position's color."""
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
    return order


def _clique_search(g: Graph, floor: int, stop: int) -> list[int]:
    """Branch and bound for a clique of more than ``floor`` vertices.

    Returns the largest clique found, or the first with ``stop`` vertices;
    [] if none beats ``floor``.  A branch is cut once its clique plus the
    color count of its candidates cannot beat the best clique so far.
    Each node of the search is a stack frame, not a call: its color order,
    taken from the back (highest color first), and the candidates not yet
    branched on.  ``chosen`` holds the vertex of every frame below the top.
    """
    adj = g.adj
    best: list[int] = []
    chosen: list[int] = []
    full = g.vertex_mask()
    stack = [[_color_order(adj, full), full]]
    while stack:
        order, remaining = stack[-1]
        # popped from the back, colors never rise, so one cut ends the node
        if not order or len(chosen) + order[-1][1] <= floor:
            stack.pop()
            if stack:
                stack[-1][1] &= ~(1 << chosen.pop())
            continue
        v = order.pop()[0]
        chosen.append(v)
        if len(chosen) > floor:
            floor, best = len(chosen), list(chosen)
            if floor == stop:
                break
        cand = remaining & adj[v]
        stack.append([_color_order(adj, cand), cand])
    return best


def find_clique(g: Graph, k: int) -> frozenset[int] | None:
    """A clique of exactly k vertices, or None.

    Exact branch and bound with a greedy-coloring bound; meant for n up to
    about 40.  Adversarial dense inputs beyond that may be slow.  No
    product path calls it: it is the independent oracle the tests check
    T5's witness, ``half_clique``, against.
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


def half_clique(g: Graph) -> frozenset[int] | None:
    """A clique of n/2 vertices of a regular g, read off a 2-colouring of
    its complement gc; None when gc has an odd cycle.

    gc is d-regular, d = n - 1 - r.  A clique I of n/2 in g is independent
    in gc, so its d·n/2 edge ends are all the edge ends of V - I, and V - I
    is independent too: gc is bipartite with sides of n/2.  Conversely,
    for d >= 1 every component of a regular bipartite graph is balanced,
    so either side of any 2-colouring is such a clique.  At d = 0, g = K_n
    and the lowest n/2 vertices do.  The side returned holds the lowest
    vertex of each component of gc, found by one layer-by-layer pass on
    vertex masks.  For even n a returned set is always a clique of n/2,
    whatever g is; only the converse needs g regular, which ``classify``
    guarantees.
    """
    n = g.n
    gc = complement(g).adj
    if not any(gc):
        return frozenset(range(n // 2))
    full = g.vertex_mask()
    side = 0
    rest = full
    while rest:
        layer = rest & -rest
        even = True
        while layer:
            rest &= ~layer
            if even:
                side |= layer
            reach = 0
            while layer:
                b = layer & -layer
                layer ^= b
                reach |= gc[b.bit_length() - 1]
            layer = reach & rest
            even = not even
    other = full ^ side
    if 2 * side.bit_count() != n or any(
            a & (side if side >> v & 1 else other) for v, a in enumerate(gc)):
        return None
    return _mask_to_set(side)


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
