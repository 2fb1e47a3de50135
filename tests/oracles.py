"""Independent brute-force oracles the library is tested against.

Nothing here shares code paths with the package: components use union-find
instead of bitset BFS, matching sizes come from exhaustive recursion, and
isomorphism checks try raw vertex permutations.  Code that only the tests
use lives here too: the per-bit graph6 encoder and the complement's
2-coloring with odd-cycle refutations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations

from regext import Graph, GraphError, build, complement


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
