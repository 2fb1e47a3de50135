"""Independent brute-force oracles the library is tested against.

Nothing here shares code paths with the package: components use union-find
instead of bitset BFS, matching sizes come from exhaustive recursion, and
isomorphism checks try raw vertex permutations.
"""

from __future__ import annotations

from itertools import combinations, permutations

from regext import Graph, GraphError


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
    from regext import build

    before = len(unionfind_components(g))
    pruned = build(g.n, [e for e in g.edges() if e != (min(u, v), max(u, v))])
    return len(unionfind_components(pruned)) > before
