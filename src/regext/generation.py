"""Random regular graph sampling and exhaustive small-order enumeration.

Sampling: the pairing (configuration) model with whole-sample rejection for
small degrees, falling back to a circulant start randomized by
degree-preserving double edge swaps when rejection stalls or the degree is
large.  Everything is driven by a caller-supplied seed and is bit-identical
across runs.

Enumeration: backtracking edge assignment over vertices in label order.
Vertices that are indistinguishable so far are grouped into classes and
only class prefixes are used as neighbor choices, which discards most
isomorphic duplicates during the search; exact dedup happens through
canonical forms.  Hard cap n <= 10 - beyond that, import externally
generated graph6 corpora through the CLI.
"""

from __future__ import annotations

import random
from typing import Iterator

from .graph import Graph, GraphError, build, complement, format_graph6, is_connected

ENUMERATION_CAP = 10
CANONICAL_CAP = 12
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


def random_regular(n: int, r: int, seed: int) -> Graph:
    """Uniform-ish simple r-regular graph on n vertices; deterministic per seed."""
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


def random_regular_bipartite(half: int, d: int, seed: int) -> Graph:
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


def biclique_splits(n: int, r: int, odd_parts: bool = False) -> list[int]:
    """Part sizes a for which some r-regular graph on n vertices contains
    K_{a, n-a} spanning, both parts odd if ``odd_parts``.

    Such a graph is K_{a,b} plus an (r-b)-regular graph on the A side and an
    (r-a)-regular graph on the B side, so a split is feasible exactly when
    both side degrees fit and have even degree sums.
    """
    splits = []
    for a in range(1, n):
        b = n - a
        if odd_parts and (a % 2 == 0 or b % 2 == 0):
            continue
        da, db = r - b, r - a
        if da < 0 or db < 0 or da > a - 1 or db > b - 1:
            continue
        if (a * da) % 2 or (b * db) % 2:
            continue
        splits.append(a)
    return splits


def sample_spanning_biclique_regular(
    n: int, r: int, seed: int, odd_parts: bool = False
) -> Graph:
    """Regular graph containing a spanning complete bipartite subgraph.

    Picks a split from ``biclique_splits`` and fills the two sides with
    independently sampled regular graphs.
    """
    rng = random.Random(seed)
    splits = biclique_splits(n, r, odd_parts)
    if not splits:
        raise GraphError(f"no spanning-biclique split for n={n}, r={r}")
    a = splits[rng.randrange(len(splits))]
    b = n - a
    side_a = random_regular(a, r - b, rng.getrandbits(64)) if a > 1 else build(a, [])
    side_b = random_regular(b, r - a, rng.getrandbits(64)) if b > 1 else build(b, [])
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    edges += list(side_a.edges())
    edges += [(a + u, a + v) for u, v in side_b.edges()]
    return build(n, edges)


def sample_clique_pair_regular(n: int, r: int, seed: int) -> Graph:
    """Regular graph containing K_{n/2}: two spanning cliques plus a regular
    bipartite cross graph of degree r - n/2 + 1."""
    if n % 2 or not n // 2 <= r <= n - 1:
        raise GraphError(f"need even n and n/2 <= r <= n-1, got n={n}, r={r}")
    half = n // 2
    cross_d = r - half + 1
    cross = random_regular_bipartite(half, cross_d, seed)
    edges = list(cross.edges())
    edges += [(i, j) for i in range(half) for j in range(i + 1, half)]
    edges += [(half + i, half + j) for i in range(half) for j in range(i + 1, half)]
    return build(n, edges)


def sample_disconnected_regular(n: int, r: int, seed: int) -> Graph:
    """Disconnected r-regular graph: two independently sampled components."""
    rng = random.Random(seed)
    sizes = []
    for n1 in range(r + 1, n - r):
        n2 = n - n1
        if (n1 * r) % 2 == 0 and (n2 * r) % 2 == 0:
            sizes.append(n1)
    if not sizes:
        raise GraphError(f"cannot split n={n} into two {r}-regular components")
    n1 = sizes[rng.randrange(len(sizes))]
    g1 = random_regular(n1, r, rng.getrandbits(64))
    g2 = random_regular(n - n1, r, rng.getrandbits(64))
    edges = list(g1.edges()) + [(u + n1, v + n1) for u, v in g2.edges()]
    return build(n, edges)


def canonical_form(g: Graph, limit_n: int = CANONICAL_CAP) -> bytes:
    """Isomorphism-invariant encoding: the graph6 line of the relabeling
    whose upper-triangle bit string is lexicographically minimal.

    Level-synchronized search over vertex orderings: at each depth only the
    orderings achieving the minimal bit prefix survive, deduplicated by the
    adjacency profile of the unplaced vertices (orderings with identical
    profiles have identical completions).
    """
    if g.n > limit_n:
        raise GraphError(f"n={g.n} exceeds canonical-form limit {limit_n}")
    n = g.n
    if n == 0:
        return format_graph6(g).encode("ascii")
    adj = g.adj
    # state: (order tuple, profiles dict vertex -> placed-adjacency bits)
    states: list[tuple[tuple[int, ...], dict[int, int]]] = [
        ((), {v: 0 for v in range(n)})
    ]
    for _ in range(n):
        best_row = None
        picks: list[tuple[tuple[int, ...], dict[int, int], int]] = []
        for order, prof in states:
            for v, row in prof.items():
                if best_row is None or row < best_row:
                    best_row = row
                    picks = [(order, prof, v)]
                elif row == best_row:
                    picks.append((order, prof, v))
        next_states = {}
        for order, prof, v in picks:
            new_prof = {
                u: p << 1 | (adj[u] >> v & 1) for u, p in prof.items() if u != v
            }
            key = tuple(sorted(new_prof.items()))
            if key not in next_states:
                next_states[key] = (order + (v,), new_prof)
        states = list(next_states.values())
    order = states[0][0]
    relabel = {v: i for i, v in enumerate(order)}
    mapped = build(n, [(relabel[u], relabel[v]) for u, v in g.edges()])
    return format_graph6(mapped).encode("ascii")


def _residual_feasible(residual: list[int], start: int, n: int) -> bool:
    positive = sum(1 for u in range(start, n) if residual[u] > 0)
    total = 0
    for u in range(start, n):
        ru = residual[u]
        total += ru
        if ru > 0 and ru > positive - 1:
            return False
    return total % 2 == 0


def enumerate_regular(n: int, r: int, connected_only: bool = False) -> Iterator[Graph]:
    """All r-regular graphs on n vertices up to isomorphism, exactly once.

    Deterministic stream; raises beyond the n <= 10 cap.
    """
    if n > ENUMERATION_CAP:
        raise GraphError(f"enumeration capped at n={ENUMERATION_CAP}")
    if n < 1:
        return
    _check_degree_args(n, r)
    if 2 * r > n - 1:
        # enumerate the sparser complement class and flip back
        for g in enumerate_regular(n, n - 1 - r):
            gc = complement(g)
            if not connected_only or is_connected(gc):
                yield gc
        return

    adj = [0] * n
    residual = [r] * n
    seen: set[bytes] = set()

    def assign(v: int) -> Iterator[Graph]:
        if v == n:
            g = Graph(n, tuple(adj))
            if connected_only and not is_connected(g):
                return
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                yield g
            return
        need = residual[v]
        if need == 0:
            if _residual_feasible(residual, v + 1, n):
                yield from assign(v + 1)
            return
        classes: dict[int, list[int]] = {}
        for u in range(v + 1, n):
            if residual[u] > 0:
                classes.setdefault(adj[u], []).append(u)
        groups = [members for _, members in sorted(classes.items())]

        def place(gi: int, left: int) -> Iterator[Graph]:
            if left == 0:
                if _residual_feasible(residual, v + 1, n):
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


