"""Small named graphs the tests build on."""

from __future__ import annotations

from regext import Graph, build


def empty_graph(n: int) -> Graph:
    return build(n, [])


def path_graph(n: int) -> Graph:
    return build(n, [(i, i + 1) for i in range(n - 1)])


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
