"""Small named graphs the tests build on."""

from __future__ import annotations

import random
from itertools import combinations

from regext import Graph, build, random_regular


def empty_graph(n: int) -> Graph:
    return build(n, [])


def path_graph(n: int) -> Graph:
    return build(n, [(i, i + 1) for i in range(n - 1)])


def labelled_graphs(max_n: int, min_n: int = 1):
    """Every graph on the labelled vertices 0..n-1, n from min_n to max_n."""
    for n in range(min_n, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield build(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def cycle_graph(n: int) -> Graph:
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with part A = 0..a-1 and part B = a..a+b-1."""
    return build(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    """Center is vertex 0."""
    return build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def prism_graph() -> Graph:
    """Triangles {0,2,4} and {1,3,5} joined by the matching 03, 14, 25."""
    return build(6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5),
                     (0, 3), (1, 4), (2, 5)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build(10, outer + spokes + inner)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    return build(g.n + h.n, edges)


def subdivided_k4() -> Graph:
    """K_4 with one edge subdivided; the new degree-2 vertex is 4."""
    return build(5, [(0, 4), (1, 4), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def balloon_cubic_pair() -> Graph:
    """Two subdivided K_4 blocks joined by the bridge (4, 9).

    Cubic on 10 vertices with exactly one bridge and two balloons of five
    vertices each.
    """
    g = disjoint_union(subdivided_k4(), subdivided_k4())
    return build(10, list(g.edges()) + [(4, 9)])


def _hung_piece(k: int, tips: int, rng: random.Random) -> tuple[list[tuple[int, int]], list[int]]:
    """A random cubic graph on k vertices with ``tips`` disjoint edges each
    subdivided by a new vertex k, k + 1, ...; returns its edges and tips."""
    edges = list(random_regular(k, 3, rng.getrandbits(32)).edges())
    rng.shuffle(edges)
    cut: list[tuple[int, int]] = []
    used: set[int] = set()
    for u, v in edges:
        if len(cut) < tips and u not in used and v not in used:
            cut.append((u, v))
            used |= {u, v}
    kept = [e for e in edges if e not in cut]
    for i, (u, v) in enumerate(cut):
        kept += [(u, k + i), (v, k + i)]
    return kept, list(range(k, k + tips))


def bridged_cubic(n: int, seed: int) -> Graph:
    """Seeded cubic graph with bridges on even n >= 10, randomly relabelled.

    Pieces are random cubic graphs with subdivided edges, and each
    subdivision vertex takes one bridge: two end pieces joined by a bridge,
    or (n >= 16) two end pieces hung off a middle piece or three around a
    hub vertex.
    """
    rng = random.Random(seed)
    if n < 16 or rng.randrange(3) == 0:
        k = rng.randrange(4, n - 6 + 1, 2)
        sizes, tips, hub = [k, n - 2 - k], [1, 1], False
    else:
        total = n - 4
        k1 = rng.randrange(4, total - 8 + 1, 2)
        k2 = rng.randrange(4, total - k1 - 4 + 1, 2)
        hub = rng.randrange(2) == 0
        sizes, tips = [k1, k2, total - k1 - k2], [1, 1, 1] if hub else [1, 2, 1]
    edges: list[tuple[int, int]] = []
    ends: list[list[int]] = []
    base = 0
    for k, t in zip(sizes, tips):
        piece, piece_tips = _hung_piece(k, t, rng)
        edges += [(u + base, v + base) for u, v in piece]
        ends.append([x + base for x in piece_tips])
        base += k + t
    if hub:
        edges += [(base, e[0]) for e in ends]
    elif len(ends) == 2:
        edges.append((ends[0][0], ends[1][0]))
    else:
        edges += [(ends[0][0], ends[1][0]), (ends[1][1], ends[2][0])]
    label = list(range(n))
    rng.shuffle(label)
    return build(n, [(label[u], label[v]) for u, v in edges])


def cliques_plus_matching(k: int) -> Graph:
    """Two K_k blocks plus the perfect matching i <-> i+k; k-regular."""
    half = complete_graph(k)
    g = disjoint_union(half, half)
    return build(2 * k, list(g.edges()) + [(i, i + k) for i in range(k)])


def shrikhande_graph() -> Graph:
    """Cayley graph on Z4 x Z4, vertex 4i + j for (i, j), with connection
    set +-(1, 0), +-(0, 1), +-(1, 1): strongly regular (16, 6, 2, 2)."""
    steps = ((1, 0), (0, 1), (1, 1))
    return build(16, [(4 * i + j, 4 * ((i + a) % 4) + (j + b) % 4)
                      for i in range(4) for j in range(4) for a, b in steps])


def rook_graph(k: int) -> Graph:
    """The k x k rook's graph: cells (i, j) as vertex k*i + j, joined when
    they share a row or a column.  At k = 4 it is strongly regular with the
    Shrikhande graph's parameters and not isomorphic to it."""
    return build(k * k, [(k * i + j, k * i2 + j2)
                         for i in range(k) for j in range(k)
                         for i2 in range(k) for j2 in range(k)
                         if (i == i2) != (j == j2) and k * i + j < k * i2 + j2])


def hub_graph(n: int, hubs: int, rng: random.Random) -> Graph:
    """Deficient graph on n vertices: ``hubs`` hub vertices and hubs + 2 odd
    cliques, each clique joined to 3 distinct hubs, randomly relabelled.
    Deleting the hubs leaves hubs + 2 odd components; n must be even and
    at least 2 * hubs + 2."""
    cliques = hubs + 2
    sizes = [1] * cliques
    for _ in range((n - hubs - cliques) // 2):
        sizes[rng.randrange(cliques)] += 2
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    v = hubs
    for size in sizes:
        members = range(v, v + size)
        v += size
        edges += [(perm[a], perm[b]) for a, b in combinations(members, 2)]
        edges += [(perm[h], perm[members[i % size]])
                  for i, h in enumerate(rng.sample(range(hubs), 3))]
    return build(n, edges)


def wallis_graph(n: int, d: int) -> Graph:
    """A d-regular graph on n vertices with no perfect matching, for odd
    d >= 3 and even n >= 3d + 7.

    Vertex 0 sends d - 2, 1 and 1 edges into three odd parts of orders
    n - 2d - 5, d + 2 and d + 2, so deleting it leaves three odd components.
    Each part of order m is the circulant C(m, {1..(d-1)/2}), of degree
    d - 1.  The chord cycle of offset (m - 1)/2 runs through all of the
    part; its first vertices are the ones tied to 0, and the rest are
    matched in consecutive pairs along it.
    """
    edges = []
    start = 1
    for m, ties in ((n - 2 * d - 5, d - 2), (d + 2, 1), (d + 2, 1)):
        edges += [(start + i, start + (i + k) % m)
                  for i in range(m) for k in range(1, (d + 1) // 2)]
        cycle = [start + i * (m // 2) % m for i in range(m)]
        edges += [(0, v) for v in cycle[:ties]]
        edges += zip(cycle[ties::2], cycle[ties + 1::2])
        start += m
    return build(n, edges)
