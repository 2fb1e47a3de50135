"""Independent brute-force oracles the library is tested against.

Nothing here shares code paths with the package: components use union-find
instead of bitset BFS, matching sizes come from exhaustive recursion,
isomorphism checks try raw vertex permutations, and equitable partitions
come from a plain fixed point of neighbour counts on vertex sets.  The
exceptions are the unpruned canonical search, which checks the pruning of
``generation.canonical_form`` and so reuses its root partition and
refinement (the refinement itself is checked against that fixed point),
the matcher's greedy-only warm start, which runs the package's blossom
phases, the ladder's earlier routes, which run the package's
matcher, and the enumerator without isomorph rejection, which runs the
package's feasibility test and canonical forms.  Code that only the tests
use lives here too: the rotation-extension Dirac cycle, the per-bit graph6
encoder, the complement's 2-coloring with odd-cycle refutations, the
earlier sampler loops, warm start and ladders that pinned outputs were
recorded with, the ladder of regular graphs that the product's ladder on
the complement's rows must agree with, the structured samplers' edge-list joins, the
balloon-bound check on the package's balloon report and component sets,
the recursive clique search and the refinement that scans every cell,
which the product's loops must follow step for step, and each certificate
as its definition reads, which the checkers must accept exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator

from regext import (
    BalloonBoundCheck,
    DiracPreconditionError,
    Graph,
    GraphError,
    balloons,
    build,
    complement,
    components_after_deletion,
    extension,
    generation,
    is_connected,
    matching,
    require_regular,
    validate_cycle,
)


def unionfind_components(g: Graph, deleted=()) -> list[set[int]]:
    """Connected components of G - deleted, via union-find over the edge list."""
    dead = set(deleted)
    parent = {v: v for v in range(g.n) if v not in dead}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        if u in dead or v in dead:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, set[int]] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return sorted(groups.values(), key=min)


def odd_component_count(g: Graph, deleted=()) -> int:
    return sum(1 for c in unionfind_components(g, deleted) if len(c) % 2 == 1)


def brute_max_matching_size(g: Graph) -> int:
    """Maximum matching size by exhaustive recursion over the lowest vertex."""
    memo: dict[int, int] = {0: 0}
    adj = g.adj

    def best(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        v = low.bit_length() - 1
        result = best(mask ^ low)  # leave v unmatched
        cand = adj[v] & mask
        while cand:
            ub = cand & -cand
            result = max(result, 1 + best(mask ^ low ^ ub))
            cand ^= ub
        memo[mask] = result
        return result

    return best(g.vertex_mask())


def brute_has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and brute_max_matching_size(g) * 2 == g.n


def count_perfect_matchings(g: Graph, limit_n: int = 16) -> int:
    """Exact number of perfect matchings (exponential recursion, memoized)."""
    if g.n > limit_n:
        raise GraphError(f"n={g.n} exceeds counting limit {limit_n}")
    if g.n % 2 == 1:
        return 0
    adj = g.adj
    memo: dict[int, int] = {0: 1}

    def count(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        v = low.bit_length() - 1
        total = 0
        cand = adj[v] & mask
        while cand:
            ub = cand & -cand
            total += count(mask ^ low ^ ub)
            cand ^= ub
        memo[mask] = total
        return total

    return count(g.vertex_mask())


# -- certificates as their definitions read ---------------------------------
#
# Each checker under src/ must accept exactly what these accept.  A vertex
# label is an int in 0..n-1, and a bool is an int, so True reads as vertex
# 1; edges are looked up in the set of g.edges(), not in its rows.

def is_vertex(v, n: int) -> bool:
    return isinstance(v, int) and 0 <= v < n


def _joined(edges: set[tuple[int, int]], u: int, v: int) -> bool:
    return (min(u, v), max(u, v)) in edges


def is_tutte_violator(g: Graph, s, odd_count) -> bool:
    """s is a set of vertices of g, G - s has exactly ``odd_count`` odd
    components, and that is more than |s|."""
    if not all(is_vertex(v, g.n) for v in s):
        return False
    odd = odd_component_count(g, s)
    return odd == odd_count and odd > len(s)


def is_matching(g: Graph, pairs, perfect: bool = False) -> bool:
    """Every element of ``pairs`` is a 2-tuple of vertices of g joined by
    an edge, no vertex is in two of them, and with ``perfect`` every
    vertex is in one."""
    edges = set(g.edges())
    ends = []
    for e in pairs:
        if not (isinstance(e, tuple) and len(e) == 2
                and all(is_vertex(v, g.n) for v in e) and _joined(edges, *e)):
            return False
        ends += e
    return len(set(ends)) == len(ends) and (not perfect or len(ends) == g.n)


def is_spanning_biclique(g: Graph, a, b) -> bool:
    """a and b are nonempty disjoint sets of vertices of g that cover V,
    and every vertex of a is adjacent to every vertex of b."""
    if not all(is_vertex(v, g.n) for v in [*a, *b]):
        return False
    edges = set(g.edges())
    return (bool(a) and bool(b) and not set(a) & set(b)
            and set(a) | set(b) == set(range(g.n))
            and all(_joined(edges, u, v) for u in a for v in b))


def is_half_clique(g: Graph, w) -> bool:
    """w is a set of n/2 vertices of g, pairwise adjacent."""
    if not all(is_vertex(v, g.n) for v in w):
        return False
    edges = set(g.edges())
    return 2 * len(w) == g.n and all(_joined(edges, u, v) for u, v in combinations(w, 2))


def is_hamiltonian_cycle(g: Graph, order) -> bool:
    """``order`` lists each of the n >= 3 vertices of g once, and each is
    adjacent to the next, the last to the first."""
    n = g.n
    if n < 3 or len(order) != n or not all(is_vertex(v, n) for v in order):
        return False
    edges = set(g.edges())
    return len(set(order)) == n and all(
        _joined(edges, order[i - 1], order[i]) for i in range(n))


def _is_regular(g: Graph, r) -> bool:
    """Every degree of g is r; the graph with no vertex counts as 0-regular."""
    return all(g.degree(v) == r for v in range(g.n)) if g.n else r == 0


def is_extension_trace(g: Graph, start_r, target_r, steps, final: Graph) -> bool:
    """g is start_r-regular; each step is a perfect matching of the
    complement of the graph before it, whose pairs the step joins;
    target_r = start_r + the number of steps; and ``final`` is the graph
    after the last step, target_r-regular."""
    n = g.n
    edges = set(g.edges())
    every_pair = set(combinations(range(n), 2))
    for step in steps:
        if not is_matching(build(n, every_pair - edges), step, perfect=True):
            return False
        edges |= {(min(e), max(e)) for e in step}
    end = build(n, edges)
    return (_is_regular(g, start_r) and target_r == start_r + len(steps)
            and final == end and _is_regular(end, target_r))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exhaustive permutation check; fine for n <= 8."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    g_edges = set(g.edges())
    for perm in permutations(range(h.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in g_edges
               for u, v in h.edges()):
            return True
    return False


def automorphism_count(g: Graph) -> int:
    """|Aut(G)| by backtracking over degree-compatible assignments."""
    n = g.n
    if n == 0:
        return 1
    degs = [g.degree(v) for v in range(n)]
    total = 0
    perm = [-1] * n
    used = [False] * n

    def place(v: int) -> None:
        nonlocal total
        if v == n:
            total += 1
            return
        for w in range(n):
            if used[w] or degs[w] != degs[v]:
                continue
            if all(g.has_edge(u, v) == g.has_edge(perm[u], w) for u in range(v)):
                perm[v] = w
                used[w] = True
                place(v + 1)
                used[w] = False

    place(0)
    return total


def leaf_rows_unpruned(g: Graph) -> set[tuple[int, ...]]:
    """The rows of every leaf of ``generation._leaf_rows``'s search tree,
    without orbit pruning or the jump back: the same root partition and
    refinement, every leaf visited.  Up to n! leaves, so for n <= 8 and
    for graphs whose refinement splits early."""
    n = g.n
    nbr = {1 << v: a for v, a in enumerate(g.adj)}
    found = set()

    def visit(part: list[int]) -> None:
        t = next((s for s, m in enumerate(part) if m & (m - 1)), None)
        if t is None:
            order = [m.bit_length() - 1 for m in part]
            pos = {v: s for s, v in enumerate(order)}
            found.add(tuple(sum(1 << pos[u] for u in neighbors(g, v)) for v in order))
            return
        for v in range(n):
            if part[t] >> v & 1:
                child = part[:]
                child[t] = 1 << v
                child[t + 1] = part[t] ^ (1 << v)
                generation._refine(nbr, child, [t])
                visit(child)

    visit(generation._root_partition(nbr, generation._triangle_counts(g.adj)))
    return found


def equitable_refinement(g: Graph, cells: Iterable[Iterable[int]]) -> set[frozenset[int]]:
    """The coarsest equitable partition below ``cells``, as a set of vertex
    sets: every cell splits by its vertices' neighbour counts in every cell,
    again and again until no cell splits.  Each split is forced in every
    equitable partition below ``cells``, so the fixed point is the coarsest."""
    nb = [set(neighbors(g, v)) for v in range(g.n)]
    part = [frozenset(c) for c in cells]
    while True:
        split = []
        for c in part:
            by_counts: dict[tuple[int, ...], set[int]] = {}
            for v in c:
                by_counts.setdefault(tuple(len(nb[v] & d) for d in part), set()).add(v)
            split += map(frozenset, by_counts.values())
        if len(split) == len(part):
            return set(part)
        part = split


def canonical_form_unpruned(g: Graph) -> bytes:
    """``generation.canonical_form`` without orbit pruning or the jump back:
    the least relabeled adjacency over every leaf of the tree."""
    return format_graph6_per_bit(Graph(g.n, min(leaf_rows_unpruned(g)))).encode("ascii")


def count_labeled_regular(n: int, r: int) -> int:
    """Labeled r-regular graph count by plain backtracking, no isomorphism
    machinery at all."""
    residual = [r] * n

    def count(v: int) -> int:
        if v == n:
            return 1 if all(x == 0 for x in residual) else 0
        need = residual[v]
        if need == 0:
            return count(v + 1)
        cands = [u for u in range(v + 1, n) if residual[u] > 0]
        if len(cands) < need:
            return 0
        total = 0
        for chosen in combinations(cands, need):
            for u in chosen:
                residual[u] -= 1
            residual[v] = 0
            total += count(v + 1)
            for u in chosen:
                residual[u] += 1
            residual[v] = need
        return total

    return count(0)


def enumerate_regular_reference(n: int, r: int, connected_only: bool = False) -> Iterator[Graph]:
    """``generation.enumerate_regular`` without isomorph rejection of
    partial graphs: the same twin-prefix backtracking, every leaf it
    reaches deduped on ``generation.canonical_form``.  The product prunes
    partial graphs isomorphic to earlier ones at the same depth, and must
    yield this stream exactly."""
    _check_degree_args(n, r)
    if 2 * r > n - 1:
        for g in enumerate_regular_reference(n, n - 1 - r):
            gc = complement(g)
            if not connected_only or is_connected(gc):
                yield gc
        return

    adj = [0] * n
    residual = [r] * n
    seen: set[bytes] = set()

    def feasible(residual: list[int], start: int, n: int) -> bool:
        # generation._residual_feasible, one vertex at a time
        positive = sum(1 for u in range(start, n) if residual[u] > 0)
        total = 0
        for u in range(start, n):
            ru = residual[u]
            total += ru
            if ru > 0 and ru > positive - 1:
                return False
        return total % 2 == 0

    def assign(v: int) -> Iterator[Graph]:
        if v == n:
            g = Graph(n, tuple(adj))
            if connected_only and not is_connected(g):
                return
            key = generation.canonical_form(g)
            if key not in seen:
                seen.add(key)
                yield g
            return
        need = residual[v]
        if need == 0:
            if feasible(residual, v + 1, n):
                yield from assign(v + 1)
            return
        classes: dict[int, list[int]] = {}
        for u in range(v + 1, n):
            if residual[u] > 0:
                classes.setdefault(adj[u], []).append(u)
        groups = [members for _, members in sorted(classes.items())]

        def place(gi: int, left: int) -> Iterator[Graph]:
            if left == 0:
                if feasible(residual, v + 1, n):
                    yield from assign(v + 1)
                return
            if gi == len(groups):
                return
            avail = sum(len(groups[i]) for i in range(gi, len(groups)))
            if avail < left:
                return
            members = groups[gi]
            for take in range(min(len(members), left), -1, -1):
                chosen = members[:take]
                for u in chosen:
                    adj[v] |= 1 << u
                    adj[u] |= 1 << v
                    residual[u] -= 1
                    residual[v] -= 1
                yield from place(gi + 1, left - take)
                for u in chosen:
                    adj[v] &= ~(1 << u)
                    adj[u] &= ~(1 << v)
                    residual[u] += 1
                    residual[v] += 1

        yield from place(0, need)

    yield from assign(0)


def is_bridge_by_deletion(g: Graph, u: int, v: int) -> bool:
    """An edge is a bridge iff deleting it increases the component count."""
    before = len(unionfind_components(g))
    pruned = build(g.n, [e for e in g.edges() if e != (min(u, v), max(u, v))])
    return len(unionfind_components(pruned)) > before


# -- graph6 and bipartiteness, one step at a time ---------------------------

def format_graph6_per_bit(g: Graph) -> str:
    """The graph6 encoder that shifts the upper triangle in one bit at a
    time, column by column; ``regext.format_graph6`` must match it byte
    for byte."""
    n = g.n
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    acc = 0
    nbits = 0
    for col in range(1, n):
        colbits = g.adj[col]
        for row in range(col):
            acc = acc << 1 | (colbits >> row & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def parse_graph6_per_bit(line: str) -> Graph:
    """The graph6 decoder that reads the payload one bit at a time, column
    by column, into the upper triangle; ``regext.parse_graph6`` must give
    the same graph on every well-formed line without a header."""
    data = line.encode("ascii")
    if data[0] == 126:
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    adj = [0] * n
    pos = 0
    for col in range(1, n):
        for row in range(col):
            if (body[pos // 6] - 63) >> (5 - pos % 6) & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            pos += 1
    assert len(body) == (pos + 5) // 6
    return Graph(n, tuple(adj))


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


def neighbors(g: Graph, v: int) -> list[int]:
    """Neighbors of ``v`` in ascending order."""
    return [w for w in range(g.n) if g.adj[v] >> w & 1]


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
            for w in neighbors(gc, v):
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


# -- the sampler's earlier stream ------------------------------------------

SWITCH_ROUNDS_PER_EDGE = 100


def _check_degree_args(n: int, r: int) -> None:
    if not 0 <= r < n:
        raise GraphError(f"need 0 <= r < n, got r={r}, n={n}")
    if (n * r) % 2 == 1:
        raise GraphError(f"no {r}-regular graph on {n} vertices: n*r is odd")


def _pairing_attempt(n: int, r: int, rng: random.Random) -> Graph | None:
    stubs = list(range(n)) * r
    rng.shuffle(stubs)
    adj = [0] * n
    for i in range(0, len(stubs), 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v or adj[u] >> v & 1:
            return None
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def _circulant(n: int, r: int) -> list[tuple[int, int]]:
    edges = []
    for off in range(1, r // 2 + 1):
        edges.extend((v, (v + off) % n) for v in range(n))
    if r % 2 == 1:
        edges.extend((v, v + n // 2) for v in range(n // 2))
    return [(min(u, v), max(u, v)) for u, v in edges]


def _edge_switch(edges: list[tuple[int, int]], rng: random.Random, rounds: int) -> None:
    """Degree-preserving double edge swaps, rejecting loops and multi-edges."""
    m = len(edges)
    if m < 2:
        return
    present = set(edges)
    randrange = rng.randrange
    getrandbits = rng.getrandbits
    for _ in range(rounds):
        i = randrange(m)
        j = randrange(m)
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if getrandbits(1):
            c, d = d, c
        if a == c or a == d or b == c or b == d:
            continue
        e1 = (a, c) if a < c else (c, a)
        e2 = (b, d) if b < d else (d, b)
        if e1 in present or e2 in present:
            continue
        present.discard(edges[i])
        present.discard(edges[j])
        present.add(e1)
        present.add(e2)
        edges[i] = e1
        edges[j] = e2


_PAIRING_MAX_DEGREE = 8
_PAIRING_ATTEMPTS = 1000


def random_regular_legacy(n: int, r: int, seed: int) -> Graph:
    """The earlier seeded stream of ``regext.random_regular``, kept verbatim
    with its helpers so results drawn from it can be reproduced.

    Whole-shuffle pairing with up to 1000 attempts for r <= 8, then edge
    switching from a circulant.  It agrees with ``random_regular`` on every
    cell with r >= 9 and 2r <= n - 1.
    """
    _check_degree_args(n, r)
    rng = random.Random(seed)
    if r == 0:
        return build(n, [])
    if r == n - 1:
        return build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if r <= _PAIRING_MAX_DEGREE:
        # rejection rates blow up toward r = 8; the cap keeps this total
        for _ in range(_PAIRING_ATTEMPTS):
            g = _pairing_attempt(n, r, rng)
            if g is not None:
                return g
    edges = _circulant(n, r)
    _edge_switch(edges, rng, SWITCH_ROUNDS_PER_EDGE * len(edges))
    return build(n, edges)


# -- the sampler loops before self-marked rows ------------------------------
#
# ``regext.generation``'s ``_pairing``, ``_switching`` and
# ``random_regular_bipartite`` as they were before their loops moved to row
# masks that mark their own vertex, kept verbatim: the product functions
# must return equal graphs from equal seeds.  ``_switching_reference`` reads this
# module's ``SWITCH_ROUNDS_PER_EDGE`` at call time.


def _pairing_reference(n: int, r: int, rng: random.Random) -> Graph:
    """Uniform simple r-regular graph by the pairing model with rejection.

    Stubs are paired one at a time, the last unpaired stub with a uniformly
    random partner, so every pairing is equally likely; an attempt restarts
    at its first loop or repeated edge, which no completion could remove.
    """
    getrandbits = rng.getrandbits
    while True:
        stubs = list(range(n)) * r
        adj = [0] * n
        left = len(stubs)
        while left:
            left -= 1
            u = stubs[left]
            # j = rng.randrange(left), inlined as in _switching
            k = left.bit_length()
            j = getrandbits(k)
            while j >= left:
                j = getrandbits(k)
            v = stubs[j]
            left -= 1
            stubs[j] = stubs[left]
            if u == v or adj[u] >> v & 1:
                break
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        else:
            return Graph(n, tuple(adj))


def _switching_reference(n: int, r: int, rng: random.Random) -> Graph:
    """The circulant randomized by ``SWITCH_ROUNDS_PER_EDGE`` rounds per edge
    of double edge swaps ab, cd -> ac, bd, rejecting loops and multi-edges."""
    edges = _circulant(n, r)
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    m = len(edges)
    # CPython's rng.randrange(m) draws getrandbits(k) until one is below m;
    # inlined, it makes the same draws at half the cost
    k = m.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(SWITCH_ROUNDS_PER_EDGE * m):
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if getrandbits(1):
            c, d = d, c
        if a == c or a == d or b == c or b == d:
            continue
        if adj[a] >> c & 1 or adj[b] >> d & 1:
            continue
        adj[a] ^= 1 << b | 1 << c
        adj[b] ^= 1 << a | 1 << d
        adj[c] ^= 1 << d | 1 << a
        adj[d] ^= 1 << c | 1 << b
        edges[i] = (a, c) if a < c else (c, a)
        edges[j] = (b, d) if b < d else (d, b)
    return Graph(n, tuple(adj))


def random_regular_bipartite_reference(half: int, d: int, seed: int) -> Graph:
    """d-regular bipartite graph with parts 0..half-1 and half..2*half-1."""
    if not 0 <= d <= half:
        raise GraphError(f"need 0 <= d <= half, got d={d}, half={half}")
    rng = random.Random(seed)
    offsets = rng.sample(range(half), d)
    edges = [(v, half + (v + off) % half) for off in offsets for v in range(half)]
    # bipartite double swaps keep sides and degrees fixed
    m = len(edges)
    if m >= 2:
        present = set(edges)
        for _ in range(20 * m):
            i = rng.randrange(m)
            j = rng.randrange(m)
            a, b = edges[i]
            c, d2 = edges[j]
            if a == c or b == d2:
                continue
            e1 = (a, d2)
            e2 = (c, b)
            if e1 in present or e2 in present:
                continue
            present.discard(edges[i])
            present.discard(edges[j])
            present.add(e1)
            present.add(e2)
            edges[i] = e1
            edges[j] = e2
    return build(2 * half, edges)


def balloon_bound_checker_reference(g: Graph) -> Callable[[Iterable[int]], BalloonBoundCheck]:
    """``check_balloon_bound`` for one graph: its degree and balloon count
    are computed here once, and each call of the result checks one set."""
    r = require_regular(g)
    if r < 2:
        raise GraphError(f"balloon bound needs degree >= 2, got r={r}")
    b = balloons(g).b
    rhs = Fraction(r, r - 1) * b
    rhs_alt = Fraction(r - 1, r) * b

    def check(s: Iterable[int]) -> BalloonBoundCheck:
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
        lhs = Fraction(parts.odd_count - len(s_set))
        return BalloonBoundCheck(applicable, lhs <= rhs, lhs, rhs, rhs_alt, lhs <= rhs_alt)

    return check


# -- the structured samplers on edge lists -------------------------------------
# The product composes these samplers' parts on adjacency rows; these
# references draw the same parts from the same seeds and join them as edge
# lists through ``build``.

def sample_spanning_biclique_regular_reference(
    n: int, r: int, seed: int, odd_parts: bool = False
) -> Graph:
    rng = random.Random(seed)
    splits = generation.biclique_splits(n, r, odd_parts)
    if not splits:
        raise GraphError(f"no spanning-biclique split for n={n}, r={r}")
    a = splits[rng.randrange(len(splits))]
    b = n - a
    side_a = (generation.random_regular(a, r - b, rng.getrandbits(64))
              if a > 1 else build(a, []))
    side_b = (generation.random_regular(b, r - a, rng.getrandbits(64))
              if b > 1 else build(b, []))
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    edges += list(side_a.edges())
    edges += [(a + u, a + v) for u, v in side_b.edges()]
    return build(n, edges)


def sample_clique_pair_regular_reference(n: int, r: int, seed: int) -> Graph:
    if n % 2 or not n // 2 <= r <= n - 1:
        raise GraphError(f"need even n and n/2 <= r <= n-1, got n={n}, r={r}")
    half = n // 2
    cross = generation.random_regular_bipartite(half, r - half + 1, seed)
    edges = list(cross.edges())
    edges += [(i, j) for i in range(half) for j in range(i + 1, half)]
    edges += [(half + i, half + j) for i in range(half) for j in range(i + 1, half)]
    return build(n, edges)


def sample_disconnected_regular_reference(n: int, r: int, seed: int) -> Graph:
    rng = random.Random(seed)
    sizes = [n1 for n1 in range(r + 1, n - r)
             if (n1 * r) % 2 == 0 and ((n - n1) * r) % 2 == 0]
    if not sizes:
        raise GraphError(f"cannot split n={n} into two {r}-regular components")
    n1 = sizes[rng.randrange(len(sizes))]
    g1 = generation.random_regular(n1, r, rng.getrandbits(64))
    g2 = generation.random_regular(n - n1, r, rng.getrandbits(64))
    edges = list(g1.edges()) + [(u + n1, v + n1) for u, v in g2.edges()]
    return build(n, edges)


# -- the matcher's earlier warm start ----------------------------------------

def match_array_greedy(g: Graph) -> tuple[list[int], int]:
    """``matching._match_array`` without the length-3 augmenting pass: the
    lowest-free-neighbour greedy, then one blossom phase per free vertex.
    Patched in for ``matching._match_array``, it reproduces the matchings
    and extension traces recorded before that pass existed, and it leaves
    the blossom phases several free vertices to augment.  Like the product
    search it returns the mate list and the OR of its failed phases' outer
    masks."""
    n = g.n
    adj = g.adj
    match = [-1] * n
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
    d_mask = 0
    for v in range(n):
        if match[v] == -1:
            d_mask |= matching._augment_from(adj, match, v)
    return match, d_mask


def d_mask_by_regrowth(g: Graph, match: list[int]) -> int:
    """D of a maximum matching's mate list, by growing a fresh Hungarian
    tree from every exposed vertex and ORing their outer masks: the route
    the violator took before the search handed over its own failed phases.
    Each phase fails, so ``match`` is left as it was."""
    d_mask = 0
    for v, u in enumerate(match):
        if u == -1:
            d_mask |= matching._augment_from(g.adj, match, v)
    return d_mask


def d_mask_by_deletion(g: Graph, nu: Callable[[Graph], int]) -> int:
    """D = {v : nu(G - v) = nu(G)}, the vertices some maximum matching
    misses, from the matching sizes ``nu`` of G and of each G - v."""
    size = nu(g)
    d_mask = 0
    for v in range(g.n):
        if nu(build(g.n, [e for e in g.edges() if v not in e])) == size:
            d_mask |= 1 << v
    return d_mask


# -- the ladder's earlier routes ---------------------------------------------

def graph_step(g: Graph, gc: Graph, m: matching.Matching) -> tuple[Graph, Graph]:
    """g plus the perfect matching m of its complement gc, and the
    complement of that: gc minus m.

    ``bits[v]`` is the bit of v's partner; it is ORed into row v of g and
    XORed out of row v of gc.  Checking m costs O(n):
    n/2 pairs that leave no vertex without a partner make the partner map a
    fixed-point-free involution, so the pairs are disjoint and cover V.
    Then, g being regular and gc its complement, the new graph is regular
    one degree up exactly when every pair is an edge of gc.
    """
    n = g.n
    if not n:
        raise GraphError("the empty graph has no degree to raise")
    bits = [0] * n
    pairs = 0
    try:
        for u, v in m:
            bits[u] = 1 << v
            bits[v] = 1 << u
            pairs += 1
    except (IndexError, ValueError):
        raise GraphError(f"matching pair out of range for n={n}") from None
    if 2 * pairs != n or 0 in bits:
        raise GraphError("matching pairs overlap or miss a vertex")
    rows = tuple([a | b for a, b in zip(g.adj, bits)])
    if set(map(int.bit_count, rows)) != {g.adj[0].bit_count() + 1}:
        raise GraphError("a matching pair is not an edge of the complement")
    return Graph(n, rows), Graph(n, tuple([a ^ b for a, b in zip(gc.adj, bits)]))


def matching_candidates(gc: Graph, backtrack: int):
    """Primary matching for one level, then up to ``backtrack`` alternatives.

    ``gc`` is the complement of the level's regular graph, and the primary
    matching is the blossom matcher's.  Alternatives re-solve ``gc`` with
    one edge of the primary matching forbidden, which is enough to escape a
    greedy dead end.  A level with no matching yields nothing and returns
    the violator of its one search.
    """
    first = matching.perfect_matching(gc)
    if isinstance(first, matching.TutteViolator):
        return first
    yield first
    emitted = {first}
    for u, v in sorted(first):
        if len(emitted) > backtrack:
            return
        pruned = Graph(gc.n, tuple(
            a & ~(1 << v) if i == u else (a & ~(1 << u) if i == v else a)
            for i, a in enumerate(gc.adj)
        ))
        alt = matching.perfect_matching(pruned)
        if isinstance(alt, matching.TutteViolator) or alt in emitted:
            continue
        emitted.add(alt)
        yield alt


def extend_to_graphs(g: Graph, target_r: int, backtrack: int = 0):
    """``extension.extend_to`` as a ladder of regular graphs: every level
    builds its graph and complement together (``graph_step``) and takes its
    candidates from a generator (``matching_candidates``).  The product's
    ladder carries only the complement's rows and must agree with it."""
    r = require_regular(g)
    if g.n % 2 == 1:
        raise GraphError(f"extension needs even n, got n={g.n}")
    if not r <= target_r <= g.n - 1:
        raise GraphError(f"target degree {target_r} outside {r}..{g.n - 1}")

    if r == target_r:
        return extension.ExtensionTrace(r, target_r, (), g)
    deepest = None
    gc = complement(g)
    # one frame per level that may be resumed: (graph, its complement,
    # degree, steps so far, candidate matchings); depth-first in candidate
    # order
    stack = [(g, gc, r, (), matching_candidates(gc, backtrack))]
    while stack:
        cur, cur_c, cur_r, steps, candidates = stack[-1]
        try:
            m = next(candidates)
        except StopIteration as done:
            stack.pop()
            violator = done.value
            if violator is not None and (deepest is None or cur_r > deepest.reached_r):
                deepest = extension.ExtensionFailure(cur_r, steps, violator)
            continue
        nxt, nxt_c = graph_step(cur, cur_c, m)
        if cur_r + 1 == target_r:
            return extension.ExtensionTrace(r, target_r, steps + (m,), nxt)
        frame = (nxt, nxt_c, cur_r + 1, steps + (m,),
                 matching_candidates(nxt_c, backtrack))
        if backtrack > 0:
            stack.append(frame)
        else:
            # without alternatives no level is resumed, so the one below
            # need not keep its graph and complement alive
            stack[-1] = frame
    assert deepest is not None
    return deepest


def dirac_cycle_rotation(g: Graph) -> tuple[int, ...]:
    """``extension.dirac_cycle`` before gap closing: a Hamiltonian cycle of
    a graph with minimum degree >= n/2.  The reference ladders build their
    Dirac levels with it, so they reproduce the traces pinned on it.

    Constructive rotation-extension: grow a maximal path, close it through
    a crossing chord (which the degree condition guarantees), and absorb an
    outside vertex whenever the cycle is not yet spanning.  The path is also
    kept as a vertex mask, so each extension takes the lowest set bit of an
    endpoint's neighbours off the path.  Every choice is the first in
    ascending label order, so the output is deterministic.
    """
    n = g.n
    if n < 3:
        raise DiracPreconditionError(f"need n >= 3, got n={n}")
    adj = g.adj
    for v, a in enumerate(adj):
        if 2 * a.bit_count() < n:
            raise DiracPreconditionError(
                f"deg({v})={a.bit_count()} < n/2={n / 2}", vertex=v
            )

    path = [0]
    on = 1

    while True:
        # extend at the tail, then at the head, until neither end can grow
        grew = True
        while grew:
            grew = False
            free = adj[path[-1]] & ~on
            if free:
                b = free & -free
                path.append(b.bit_length() - 1)
                on |= b
                grew = True
            free = adj[path[0]] & ~on
            if free:
                b = free & -free
                path.insert(0, b.bit_length() - 1)
                on |= b
                grew = True
        head, tail = path[0], path[-1]
        adj_head, adj_tail = adj[head], adj[tail]
        if adj_head >> tail & 1:
            cycle = path
        else:
            # maximal path: both endpoints' neighborhoods sit on the path, so
            # deg(head) + deg(tail) >= n > len(path) - 1 forces a position i
            # with head ~ path[i+1] and tail ~ path[i]
            idx = None
            for i in range(len(path) - 1):
                if adj_head >> path[i + 1] & 1 and adj_tail >> path[i] & 1:
                    idx = i
                    break
            if idx is None:
                raise AssertionError("rotation chord missing despite degree bound")
            cycle = path[: idx + 1] + path[idx + 1:][::-1]
        if len(cycle) == n:
            validate_cycle(g, tuple(cycle))
            return tuple(cycle)
        # absorb the lowest outside vertex adjacent to the cycle, entering
        # at its first neighbour in cycle order, and go again
        off = ((1 << n) - 1) & ~on
        while off:
            b = off & -off
            if adj[b.bit_length() - 1] & on:
                break
            off ^= b
        if not off:
            raise AssertionError("graph disconnected despite degree bound")
        u = b.bit_length() - 1
        adj_u = adj[u]
        j = next(j for j, c in enumerate(cycle) if adj_u >> c & 1)
        path = [u] + cycle[j:] + cycle[:j]
        on |= b



# Which levels of the reference ladder take a Dirac cycle when 2r < n and
# n > 2: every such level, handing the cycle's odd edges on as the next
# level's first matching ("pairs"); every such level, each building its own
# ("every"); or the ladder's first level alone ("first").  Every other level
# takes the blossom matcher.
DIRAC_POLICIES = ("pairs", "every", "first")


def _reference_candidates(gc: Graph, r: int, backtrack: int, dirac: bool,
                          cycle_below=None):
    """A level's candidates on an earlier route: (matching, the Dirac cycle
    it came from or None) pairs.  Given the level below's cycle, the first
    matching is that cycle's odd edges; otherwise, with ``dirac`` and
    2r < n and n > 2, it is the even edges of a cycle of the level's own,
    and else the blossom matcher's.  Alternatives re-solve ``gc`` with one
    edge of the first matching forbidden."""
    cycle = None
    if cycle_below is not None:
        first = extension.cycle_to_matching(cycle_below[1:] + cycle_below[:1])
    elif dirac and 2 * r < gc.n and gc.n > 2:
        cycle = dirac_cycle_rotation(gc)
        first = extension.cycle_to_matching(cycle)
    else:
        first = matching.perfect_matching(gc)
        if isinstance(first, matching.TutteViolator):
            return first
    yield first, cycle
    emitted = {first}
    budget = backtrack
    for u, v in sorted(first):
        if budget <= 0:
            return
        pruned = Graph(gc.n, tuple(
            a & ~(1 << v) if i == u else (a & ~(1 << u) if i == v else a)
            for i, a in enumerate(gc.adj)
        ))
        alt = matching.perfect_matching(pruned)
        if isinstance(alt, matching.TutteViolator) or alt in emitted:
            continue
        emitted.add(alt)
        budget -= 1
        yield alt, None


def extend_to_reference(g: Graph, target_r: int, backtrack: int = 0, *, dirac: str):
    """``extension.extend_to`` on an earlier route, named by one of
    ``DIRAC_POLICIES``.  Patched in for ``extension.extend_to``, it
    reproduces the extension traces recorded on that route.  The blossom
    levels above the Dirac levels of "pairs" run far more phases than on
    the product's route."""
    if dirac not in DIRAC_POLICIES:
        raise ValueError(f"unknown Dirac policy {dirac!r}")
    r = extension.require_regular(g)
    if r == target_r:
        return extension.ExtensionTrace(r, target_r, (), g)
    deepest = None
    gc = complement(g)
    stack = [(g, gc, r, (), _reference_candidates(gc, r, backtrack, True))]
    while stack:
        cur, cur_c, cur_r, steps, candidates = stack[-1]
        try:
            m, cycle = next(candidates)
        except StopIteration as done:
            stack.pop()
            violator = done.value
            if violator is not None and (deepest is None or cur_r > deepest.reached_r):
                deepest = extension.ExtensionFailure(cur_r, steps, violator)
            continue
        nxt, nxt_c = graph_step(cur, cur_c, m)
        if cur_r + 1 == target_r:
            return extension.ExtensionTrace(r, target_r, steps + (m,), nxt)
        frame = (nxt, nxt_c, cur_r + 1, steps + (m,), _reference_candidates(
            nxt_c, cur_r + 1, backtrack, dirac != "first",
            cycle if dirac == "pairs" else None))
        if backtrack > 0:
            stack.append(frame)
        else:
            stack[-1] = frame
    return deepest


# -- the structure and refinement loops the product's must agree with -------

def clique_search_recursive(g: Graph, floor: int, stop: int) -> list[int]:
    """``structure._clique_search`` with one call per search node: the same
    branch and bound, so the same clique, vertex for vertex in the order
    chosen.  Its depth grows with the clique, so the tests keep it to
    small graphs."""
    adj = g.adj
    best: list[int] = []
    chosen: list[int] = []

    def expand(cand: int) -> bool:
        nonlocal floor, best
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


def refine_every_cell(nbr: dict[int, int], part: list[int], queue: list[int]) -> None:
    """``generation._refine`` with every splitter scanning the whole
    partition, singleton cells included: the same ordered partition and
    the same queue."""
    n = len(part)
    inq = [False] * n
    for s in queue:
        inq[s] = True
    cells = sum(1 for m in part if m)
    i = 0
    while i < len(queue) and cells < n:
        s = queue[i]
        i += 1
        inq[s] = False
        x = part[s]
        away = None if x & (x - 1) else ~nbr[x]
        c = 0
        while c < n:
            m = part[c]
            if not m & (m - 1):
                c += 1
                continue
            if away is not None:
                lo = m & away
                frags = [lo, m ^ lo] if lo and lo != m else None
            else:
                by_count: dict[int, int] = {}
                y = m
                while y:
                    b = y & -y
                    y ^= b
                    k = (nbr[b] & x).bit_count()
                    by_count[k] = by_count.get(k, 0) | b
                frags = ([by_count[k] for k in sorted(by_count)]
                         if len(by_count) > 1 else None)
            if frags is None:
                c += m.bit_count()
                continue
            sizes = [f.bit_count() for f in frags]
            drop = -1 if inq[c] else sizes.index(max(sizes))
            for idx, f in enumerate(frags):
                part[c] = f
                if idx != drop and not inq[c]:
                    inq[c] = True
                    queue.append(c)
                c += sizes[idx]
            cells += len(frags) - 1
