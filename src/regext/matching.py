"""Maximum and perfect matching with independently checkable certificates.

General graphs use augmenting-path search with blossom contraction; when no
perfect matching exists the caller gets a Tutte violator: a vertex set S
whose deletion leaves more odd components than |S|.  The violator is the
Gallai-Edmonds set S = N(D) - D, Tutte-Berge tight; D comes from the
search's own failed phases, one Hungarian tree grown once per exposed
vertex (Edmonds, "Paths, trees, and flowers", Canad. J. Math. 17, 1965;
Lovasz and Plummer, Matching Theory, 1986, ch. 3).  Bipartite graphs take
the same search.  ``tutte_violator_bruteforce`` scans all 2^n subsets; no
product path calls it and the package does not export it, it is the
independent oracle the matcher is tested against.

A search starts from a warm start that leaves the blossom phases little to
do: a greedy matching, then one pass of length-3 augmenting paths (see
``_match_array``).  A blossom phase then runs from each vertex still free.
Phases are correct from any matching, so the result stays maximum; which
maximum matching it is depends on the start.

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

from .graph import (Edge, Graph, GraphError, _mask_components, _mask_to_set, _mates,
                    _set_to_mask, _unit_masks, components_after_deletion)

Matching = frozenset[Edge]


@dataclass(frozen=True)
class TutteViolator:
    """Certificate that no perfect matching exists: odd(G-s) > |s|."""

    s: frozenset[int]
    odd_count: int

    def verify(self, g: Graph) -> bool:
        """Check that odd_count is odd(G-s) and exceeds |s|; an s that is
        not a set of vertices of g gives False, not an error."""
        try:
            smask = _set_to_mask(self.s, g.n)
        except GraphError:  # a label that is not a vertex, or no set
            return False
        odd = sum(c.bit_count() & 1 for c in _mask_components(g.adj, g.vertex_mask() ^ smask))
        return odd == self.odd_count and odd > len(self.s)


def is_valid_matching(g: Graph, m: Matching, perfect: bool = False) -> bool:
    """Edges exist in g and are pairwise vertex-disjoint (and cover V if
    perfect); an endpoint outside 0..n-1, or an element that is not a pair
    of ints, makes the answer False, not an error."""
    try:
        mates = _mates(m, g.n)
    except GraphError:
        return False
    return all(g.adj[v] >> u & 1 if u >= 0 else not perfect for v, u in enumerate(mates))


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


def _match_array(g: Graph) -> tuple[list[int], int]:
    """Mate list of a maximum matching (-1 where exposed), and the mask of
    D, the vertices some maximum matching misses: the OR of the failed
    phases' outer masks.  A failed phase's tree is Hungarian (no outer
    vertex has a neighbour outside it), so no later augmentation touches
    it (Edmonds 1965): its root stays exposed, and the final matching grows
    the same tree.  A vertex exposed at the end was free at its turn and
    stayed free, so it had exactly one phase, a failed one.  Hence D."""
    n = g.n
    adj = g.adj
    match = [-1] * n
    # warm start: each vertex takes its lowest free neighbour, which leaves
    # the free vertices pairwise non-adjacent; a vertex is free while its
    # mate is -1, and ``free`` holds the same vertices as a mask
    free = (1 << n) - 1
    unit = _unit_masks(n)
    for v, row in enumerate(adj):
        if match[v] < 0:
            cand = row & free
            if cand:
                b = cand & -cand
                u = b.bit_length() - 1
                match[v] = u
                match[u] = v
                free ^= unit[v] | b
    # then one pass of length-3 augmenting paths v-a-b-u: every neighbour a
    # of a free v is matched (the pass only shrinks free), and a free
    # neighbour u != v of a's mate b lets v-a and b-u replace a-b.  On the
    # blossom levels of a climb this leaves about one phase per four
    # levels, against five or six per level after the greedy alone
    todo = free
    while todo:
        vb = todo & -todo
        v = vb.bit_length() - 1
        rest = adj[v]
        while rest:
            ab = rest & -rest
            rest ^= ab
            a = ab.bit_length() - 1
            b = match[a]
            cand = adj[b] & free & ~vb
            if cand:
                ub = cand & -cand
                u = ub.bit_length() - 1
                match[v] = a
                match[a] = v
                match[b] = u
                match[u] = b
                free ^= vb | ub
                break
        todo &= free & ~vb
    # blossom phases finish from the vertices still free; a phase that
    # augments also covers a later one, which the mate test then skips
    d_mask = 0
    while free:
        vb = free & -free
        free ^= vb
        v = vb.bit_length() - 1
        if match[v] == -1:
            d_mask |= _augment_from(adj, match, v)
    return match, d_mask


def _pairs(mates: list[int]) -> Matching:
    """The matching whose partner list is ``mates``, as (low, high) pairs."""
    return frozenset([(v, u) for v, u in enumerate(mates) if u > v])


def max_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching."""
    return _pairs(_match_array(g)[0])


def _gallai_edmonds_violator(g: Graph, match: list[int], d_mask: int) -> TutteViolator:
    """S = N(D) - D for a deficient maximum matching, D read off the
    Hungarian trees ``_match_array``'s failed phases grew, once per exposed
    vertex (Edmonds 1965).  Every component of G[D] is odd, and by
    Tutte-Berge equality (Lovasz and Plummer 1986, ch. 3) there are
    deficiency + |S| of them, so S violates the Tutte condition."""
    s = frozenset(
        v for v in range(g.n) if not d_mask >> v & 1 and g.adj[v] & d_mask
    )
    violator = TutteViolator(s, len(s) + match.count(-1))
    if not violator.verify(g):
        raise AssertionError("Gallai-Edmonds violator failed self-check")
    return violator


def max_matching_with_violator(g: Graph) -> tuple[Matching, TutteViolator | None]:
    """A maximum matching, plus the violator proving it maximum when it is
    not perfect, that is when D is not empty; one blossom search serves both."""
    match, d_mask = _match_array(g)
    return _pairs(match), _gallai_edmonds_violator(g, match, d_mask) if d_mask else None


def perfect_matching(g: Graph) -> Matching | TutteViolator:
    """A perfect matching, or a Tutte violator proving none exists: the
    Gallai-Edmonds one (``_gallai_edmonds_violator``), odd n included,
    Tutte-Berge tight, so it also proves the size of ``max_matching(g)``."""
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
    return TutteViolator(_mask_to_set(full ^ best_t), oddc[best_t])
