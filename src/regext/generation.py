"""Random regular graph sampling and exhaustive small-order enumeration.

Sampling (``random_regular``) takes one of three paths:

- r > (n-1)/2: the complement of a sampled (n-1-r)-regular graph, which
  is as uniform as that sample; r = n - 1 gives K_n this way.
- r <= 5: the pairing (configuration) model, stubs paired one at a time
  and the attempt restarted at its first loop or repeated edge.  This is
  exactly uniform over labeled r-regular graphs.
- 6 <= r <= (n-1)/2: a circulant randomized by degree-preserving double
  edge swaps, 100 rounds per edge.  This is close to uniform, not exactly.

The pairing and switching loops keep each vertex's own bit in its
adjacency row while they run, with single-vertex masks from one table,
and strip those bits once when the graph is built.  A proposed edge uv is
then rejected by the one test ``adj[u] & bit[v]``, which catches the loop
u = v and the repeated edge alike.  Every draw and every graph must equal
those of the reference loops in ``tests/oracles.py``, which test each case
with shifts and equalities, so this representation leaves the seeded
stream unchanged.  A switching proposal reads the masks of c and d once,
for the test and for the swap, which XORs one two-bit mask into rows a
and d and another into rows b and c.  All three chains, the bipartite one
too, draw ``randrange`` as its inlined ``getrandbits`` loop.

The structured samplers behind ``regext verify`` compose sampled parts on
their rows: a join ORs in the other side's mask, a disjoint union shifts
the second part's rows, and a clique ORs in its own half.

Everything is driven by a caller-supplied seed and is bit-identical across
runs and Python versions from 3.10 on.  ``tests/oracles.py`` keeps an
earlier whole-shuffle sampler as ``random_regular_legacy``.

Enumeration: backtracking edge assignment over vertices in label order.
Vertices that are indistinguishable so far are grouped into classes and
only class prefixes are used as neighbor choices.  A search node whose
partial graph is isomorphic to one met earlier at the same depth is
pruned (isomorph rejection, as in McKay, J. Algorithms 26, 1998, and
Meringer, JGT 30, 1999), tested on a cheap invariant first.  The same
rule, applied to the complete graphs at the leaves, is the exact dedup:
the first graph found in each class is the one yielded.  The rejection
leaves the stream of plain generate-then-dedup unchanged
(``enumerate_regular`` gives the argument, and ``tests/oracles.py`` keeps
the search without it).  Hard cap n <= 10 - beyond that, import
externally generated graph6 corpora through the CLI.

Both canonical forms and the rejection rest on one individualization-
refinement search with automorphism pruning (``_leaf_rows``; McKay &
Piperno, J. Symbolic Comput. 60, 2014), whose leaves' relabeled adjacency
rows are equal sets for isomorphic graphs and disjoint sets otherwise.
Canonical forms (``canonical_form``, n <= 12) are the graph6 bytes of the
least of those rows: canonical, but not the lexicographically least
encoding over all relabelings.  The rejection keeps the leaf rows of the
partial graphs met so far, so a repeat is proved at its first leaf.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Iterator, KeysView

from .graph import (Graph, GraphError, _unit_masks, complement, format_graph6,
                    is_connected)

ENUMERATION_CAP = 10
CANONICAL_CAP = 12
SWITCH_ROUNDS_PER_EDGE = 100


def _check_degree_args(n: int, r: int) -> None:
    if not 0 <= r < n:
        raise GraphError(f"need 0 <= r < n, got r={r}, n={n}")
    if (n * r) % 2 == 1:
        raise GraphError(f"no {r}-regular graph on {n} vertices: n*r is odd")


def _pairing(n: int, r: int, rng: random.Random) -> Graph:
    """Uniform simple r-regular graph by the pairing model with rejection.

    Stubs are paired one at a time, the last unpaired stub with a uniformly
    random partner, so every pairing is equally likely; an attempt restarts
    at its first loop or repeated edge, which no completion could remove.
    Each row also marks its own vertex while the attempt runs, so one mask
    test rejects both; the marks are stripped when the graph is built.
    """
    bit = _unit_masks(n)
    getrandbits = rng.getrandbits
    fresh = list(range(n)) * r
    while True:
        stubs = fresh[:]
        adj = list(bit)
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
            row = adj[u]
            bv = bit[v]
            if row & bv:
                break
            adj[u] = row | bv
            adj[v] |= bit[u]
        else:
            return Graph(n, tuple([a ^ b for a, b in zip(adj, bit)]))


def _circulant(n: int, r: int) -> list[tuple[int, int]]:
    edges = []
    for off in range(1, r // 2 + 1):
        edges.extend((v, (v + off) % n) for v in range(n))
    if r % 2 == 1:
        edges.extend((v, v + n // 2) for v in range(n // 2))
    return [(min(u, v), max(u, v)) for u, v in edges]


def _switching(n: int, r: int, rng: random.Random) -> Graph:
    """The circulant randomized by ``SWITCH_ROUNDS_PER_EDGE`` rounds per edge
    of double edge swaps ab, cd -> ac, bd, rejecting loops and multi-edges.

    Edge i runs from ``eu[i]`` to ``ev[i] > eu[i]``, and a coin drawn only
    when i != j flips cd; that order and that skipped draw are part of the
    seeded stream.  Each row also marks its own vertex, so ``adj[a] &
    bit[c] or adj[b] & bit[d]`` is the whole rejection test: it catches
    a = c and b = d as loops, an existing ac or bd as a repeated edge, and
    a = d or b = c because then ac or bd is the existing edge cd.  The
    marks are stripped when the graph is built.
    """
    bit = _unit_masks(n)
    eu = []
    ev = []
    adj = list(bit)
    for u, v in _circulant(n, r):
        eu.append(u)
        ev.append(v)
        adj[u] |= bit[v]
        adj[v] |= bit[u]
    m = len(eu)
    # CPython's rng.randrange(m) draws getrandbits(k) until one is below m;
    # inlined, it makes the same draws at half the cost
    k = m.bit_length()
    getrandbits = rng.getrandbits
    for _ in repeat(None, SWITCH_ROUNDS_PER_EDGE * m):
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        if i == j:
            continue
        a = eu[i]
        b = ev[i]
        if getrandbits(1):
            c = ev[j]
            d = eu[j]
        else:
            c = eu[j]
            d = ev[j]
        bc = bit[c]
        if adj[a] & bc:
            continue
        bd = bit[d]
        if adj[b] & bd:
            continue
        # a, b, c and d are distinct here: ab, cd -> ac, bd moves rows a
        # and d by the same two bits, and rows b and c by the other two
        x = bit[b] | bc
        y = bit[a] | bd
        adj[a] ^= x
        adj[d] ^= x
        adj[b] ^= y
        adj[c] ^= y
        if a < c:
            ev[i] = c  # eu[i] is a already
        else:
            eu[i] = c
            ev[i] = a
        if b < d:
            eu[j] = b
            ev[j] = d
        else:
            eu[j] = d
            ev[j] = b
    return Graph(n, tuple([a ^ b for a, b in zip(adj, bit)]))


# pairing succeeds with probability about exp((1 - r*r) / 4): one in 400
# at r = 5, one in 6300 at r = 6, where switching is far cheaper
_PAIRING_MAX_DEGREE = 5


def random_regular(n: int, r: int, seed: int) -> Graph:
    """Simple r-regular graph on n vertices, deterministic per seed.

    Exactly uniform for r <= 5 and for the complements of those degrees;
    edge switching from a circulant otherwise.
    """
    _check_degree_args(n, r)
    if 2 * r > n - 1:
        # complementing is a bijection between the two degrees' graphs
        return complement(random_regular(n, n - 1 - r, seed))
    rng = random.Random(seed)
    if r <= _PAIRING_MAX_DEGREE:
        return _pairing(n, r, rng)
    return _switching(n, r, rng)


def random_regular_bipartite(half: int, d: int, seed: int) -> Graph:
    """d-regular bipartite graph with parts 0..half-1 and half..2*half-1.

    Circulant offsets, then 20 rounds per edge of bipartite double swaps
    ab, cd -> ad, cb, which keep sides and degrees fixed.  Edge i is
    ``left[i]``, which never changes, and ``right[i]``; ``rows[a]`` is the
    right-side neighbourhood of left vertex a.  A swap with a = c or b = d
    (``d2`` below) would add edge cd or ab again, so the repeated-edge test
    rejects it.

    Draws over the labelled d-regular bipartite graphs on these two parts.
    Swaps join any two of them (Ryser's interchange theorem), but 20
    rounds are not shown to mix: no uniformity is claimed.
    """
    if not 0 <= d <= half:
        raise GraphError(f"need 0 <= d <= half, got d={d}, half={half}")
    rng = random.Random(seed)
    offsets = rng.sample(range(half), d)
    left = [v for _ in offsets for v in range(half)]
    right = [half + (v + off) % half for off in offsets for v in range(half)]
    m = len(left)
    bit = _unit_masks(2 * half)
    rows = [0] * half
    for a, b in zip(left, right):
        rows[a] |= bit[b]
    # rng.randrange(m) twice, inlined as in _switching
    k = m.bit_length()
    getrandbits = rng.getrandbits
    for _ in repeat(None, 20 * m):
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        a = left[i]
        b = right[i]
        d2 = right[j]
        bd = bit[d2]
        if rows[a] & bd:
            continue
        c = left[j]
        bb = bit[b]
        if rows[c] & bb:
            continue
        flip = bb | bd
        rows[a] ^= flip
        rows[c] ^= flip
        right[i] = d2
        right[j] = b
    # the right side's rows are the transpose of the left side's
    cols = [0] * half
    for a, row in enumerate(rows):
        while row:
            y = row & -row
            cols[y.bit_length() - 1 - half] |= bit[a]
            row ^= y
    return Graph(2 * half, tuple(rows + cols))


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

    Picks a split a uniformly from ``biclique_splits``, joins vertices
    0..a-1 to a..n-1, and fills the two sides with independent
    ``random_regular`` draws.  Draws over the graphs that join 0..a-1 to
    a..n-1 for some split a, each split equally often whatever its number
    of graphs: no uniformity is claimed.
    """
    rng = random.Random(seed)
    splits = biclique_splits(n, r, odd_parts)
    if not splits:
        raise GraphError(f"no spanning-biclique split for n={n}, r={r}")
    a = splits[rng.randrange(len(splits))]
    b = n - a
    side_a = random_regular(a, r - b, rng.getrandbits(64)).adj if a > 1 else (0,)
    side_b = random_regular(b, r - a, rng.getrandbits(64)).adj if b > 1 else (0,)
    # the join: each side's rows take the whole other side's mask
    mask_a = (1 << a) - 1
    mask_b = mask_a ^ ((1 << n) - 1)
    return Graph(n, tuple([row | mask_b for row in side_a]
                          + [row << a | mask_a for row in side_b]))


def sample_clique_pair_regular(n: int, r: int, seed: int) -> Graph:
    """Regular graph containing K_{n/2}: two spanning cliques plus a regular
    bipartite cross graph of degree r - n/2 + 1.

    Draws over the graphs whose halves 0..n/2-1 and n/2..n-1 are both
    cliques, as ``random_regular_bipartite`` draws the cross graph: no
    uniformity is claimed.
    """
    if n % 2 or not n // 2 <= r <= n - 1:
        raise GraphError(f"need even n and n/2 <= r <= n-1, got n={n}, r={r}")
    half = n // 2
    cross_d = r - half + 1
    cross = random_regular_bipartite(half, cross_d, seed)
    # each row takes its own half, less its own bit, as a clique
    low = (1 << half) - 1
    own = [low] * half + [low << half] * half
    return Graph(n, tuple([row | (h ^ 1 << v)
                           for v, (row, h) in enumerate(zip(cross.adj, own))]))


def sample_disconnected_regular(n: int, r: int, seed: int) -> Graph:
    """Disconnected r-regular graph: two independently sampled components.

    Picks a size n1 uniformly from those that leave both parts an r-regular
    graph, and draws vertices 0..n1-1 and n1..n-1 by ``random_regular``,
    each part possibly disconnected itself.  No uniformity is claimed.
    """
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
    return Graph(n, g1.adj + tuple([row << n1 for row in g2.adj]))


def _refine(nbr: dict[int, int], part: list[int], queue: list[int]) -> None:
    """Refine the ordered partition ``part`` in place to the coarsest
    equitable partition below it, with the queued cells as splitters.

    ``part[s]`` is the vertex bitmask of the cell that starts at position s,
    and 0 inside a cell; ``nbr`` maps a vertex's bit to its neighbourhood.
    A cell splits by each vertex's number of neighbours in the splitter,
    fragments in ascending count, so the result does not depend on the
    labelling.  Counts are taken one vertex at a time, except that a
    splitter x of one or two vertices cuts each cell by masks: neighbours of
    no vertex of x (``away``), of exactly one (``one``) and of both.
    A splitter visits only the cells of more than one vertex, in ascending
    start (``wide``), and the cells it splits leave their own wide
    fragments there for the next splitter.  A partition with no wide cell
    is discrete, hence equitable, and returns at once with the queue as
    given.
    """
    wide = [c for c, m in enumerate(part) if m & (m - 1)]
    if not wide:
        return
    n = len(part)
    inq = [False] * n
    for s in queue:
        inq[s] = True
    cells = n - sum(part[c].bit_count() - 1 for c in wide)
    i = 0
    while i < len(queue) and cells < n:
        s = queue[i]
        i += 1
        inq[s] = False
        x = part[s]
        rest = x & (x - 1)
        away = one = None
        if not rest:
            away = ~nbr[x]
        elif not rest & (rest - 1):
            na, nb = nbr[x ^ rest], nbr[rest]
            away, one, both = ~(na | nb), na ^ nb, na & nb
        visit = wide
        wide = []
        for c in visit:
            m = part[c]
            if one is not None:
                lo, mid, hi = m & away, m & one, m & both
                frags = (None if lo == m or mid == m or hi == m
                         else [f for f in (lo, mid, hi) if f])
            elif away is not None:
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
                wide.append(c)
                continue
            sizes = [f.bit_count() for f in frags]
            # Hopcroft: a queued cell queues all its fragments, any other
            # cell all but its first largest
            drop = -1 if inq[c] else sizes.index(max(sizes))
            for idx, f in enumerate(frags):
                part[c] = f
                if idx != drop and not inq[c]:
                    inq[c] = True
                    queue.append(c)
                if sizes[idx] > 1:
                    wide.append(c)
                c += sizes[idx]
            cells += len(frags) - 1


def _triangle_counts(adj: tuple[int, ...]) -> list[int]:
    """Twice the triangle count at each vertex of the rows ``adj``: each
    triangle at v is seen from both of its other corners."""
    counts = []
    for a in adj:
        x = a
        tri = 0
        while x:
            y = x & -x
            x ^= y
            tri += (adj[y.bit_length() - 1] & a).bit_count()
        counts.append(tri)
    return counts


def _root_partition(nbr: dict[int, int], tri: list[int]) -> list[int]:
    """The equitable refinement of the cells of equal triangle count;
    ``nbr`` lists the vertices' bits in label order, and ``tri[v]`` is
    ``_triangle_counts``'s entry for vertex v."""
    cells: dict[int, int] = {}
    for b, t in zip(nbr, tri):
        cells[t] = cells.get(t, 0) | b
    part = [0] * len(nbr)
    queue = []
    s = 0
    for t in sorted(cells):
        part[s] = cells[t]
        queue.append(s)
        s += cells[t].bit_count()
    _refine(nbr, part, queue)
    return part


def _orbit_roots(n: int, gens: list[tuple[list[int], int]], prefix: int) -> list[int]:
    """The least vertex of each vertex's orbit under the generators that
    fix every vertex of the ``prefix`` mask."""
    root = list(range(n))
    for image, fixed in gens:
        if prefix & ~fixed:
            continue
        for u, w in enumerate(image):
            while root[u] != u:
                u = root[u]
            while root[w] != w:
                w = root[w]
            if u != w:
                root[max(u, w)] = min(u, w)
    for u in range(n):
        root[u] = root[root[u]]
    return root


def _relabeled_rows(nbr: dict[int, int], part: list[int]) -> tuple[int, ...]:
    """The adjacency rows of the relabeling that a discrete partition
    gives: the vertex in cell s becomes vertex s."""
    pos = {b: 1 << s for s, b in enumerate(part)}
    rows = []
    for b in part:
        x = nbr[b]
        row = 0
        while x:
            y = x & -x
            row |= pos[y]
            x ^= y
        rows.append(row)
    return tuple(rows)


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-invariant encoding: the graph6 line of a canonical
    relabeling, so two graphs get equal bytes iff they are isomorphic.
    Its rows are the least among ``_leaf_rows``'s: canonical, but not the
    least rows over all relabelings."""
    return format_graph6(Graph(g.n, min(_leaf_rows(g)))).encode("ascii")


def _leaf_rows(g: Graph, known: set[tuple[int, ...]] | None = None,
               tri: list[int] | None = None) -> KeysView[tuple[int, ...]] | None:
    """The relabeled adjacency rows of every leaf of g's search tree, or
    None if a leaf's rows are in ``known``; ``tri`` is
    ``_triangle_counts(g.adj)`` when the caller has it.

    Individualization-refinement search (McKay & Piperno, J. Symbolic
    Comput. 60, 2014).  The root partition groups vertices by triangle
    count; every node refines its partition to an equitable one and
    branches on the vertices of its first non-singleton cell, and a
    discrete partition (a leaf) is a relabeling, whose rows (as a tuple)
    are the leaf's certificate.  Two leaves with equal rows give an
    automorphism: the search returns to the node where their paths split,
    and a node explores one child per orbit of the automorphisms found so
    far that fix its individualized vertices.  Both skip only images of
    subtrees already explored, and an image of a leaf has the same rows, so
    the rows of the leaves explored are the rows of every leaf of the tree.
    The tree does not depend on the labelling, so two isomorphic graphs
    have equal sets of leaf rows, and two others disjoint ones: a leaf's
    rows are a graph isomorphic to g.  Hence the search can stop at the
    first leaf whose rows are in ``known``, the union of the leaf rows of
    earlier graphs, and g is then isomorphic to one of them.
    """
    if g.n > CANONICAL_CAP:
        raise GraphError(f"n={g.n} exceeds canonical-form limit {CANONICAL_CAP}")
    n = g.n
    nbr = {1 << v: a for v, a in enumerate(g.adj)}
    leaves: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
    gens: list[tuple[list[int], int]] = []  # (vertex images, fixed-point mask)

    def leaf(part: list[int], path: list[int]) -> int:
        rows = _relabeled_rows(nbr, part)
        if known is not None and rows in known:
            return -1  # back past the root
        seen = leaves.setdefault(rows, (part, path))
        if seen[1] is path:
            return len(path)
        # the earlier leaf's s-th vertex maps to this leaf's s-th vertex
        image = list(range(n))
        fixed = 0
        for a, b in zip(seen[0], part):
            image[a.bit_length() - 1] = b.bit_length() - 1
            if a == b:
                fixed |= a
        gens.append((image, fixed))
        k = 0
        while seen[1][k] == path[k]:
            k += 1
        return k

    def search(part: list[int], path: list[int], prefix: int) -> int:
        """Explore below an equitable partition; returns the depth of the
        node where the search resumes."""
        depth = len(path)
        t = 0
        while t < n and not part[t] & (part[t] - 1):
            t += 1
        if t == n:
            return leaf(part, path)
        cell = part[t]
        done: list[int] = []
        root = None
        ngens = len(gens)
        x = cell
        while x:
            b = x & -x
            x ^= b
            v = b.bit_length() - 1
            if done:
                if root is None or len(gens) != ngens:
                    ngens = len(gens)
                    root = _orbit_roots(n, gens, prefix)
                if any(root[v] == root[u] for u in done):
                    continue
            child = part[:]
            child[t] = b
            child[t + 1] = cell ^ b
            _refine(nbr, child, [t])
            k = search(child, path + [v], prefix | b)
            if k < depth:
                return k
            done.append(v)
        return depth

    if tri is None:
        tri = _triangle_counts(g.adj)
    found = search(_root_partition(nbr, tri), [], 0) >= 0
    del search  # it holds itself: free the tree now, not at the next collection
    return leaves.keys() if found else None


def _residual_feasible(residual: list[int]) -> bool:
    """Whether the residual degrees of the vertices after v, a slice, pass
    the two tests a completion needs: every positive residual is at most
    the number of other unsaturated vertices, and the residual sum is even."""
    top = max(residual, default=0)
    return (not top or top < len(residual) - residual.count(0)) and not sum(residual) % 2


def _prefix_ways(sizes: tuple[int, ...], need: int, start: int = 0) -> list[tuple[int, ...]]:
    """Every way to take ``need`` items as prefixes of consecutive classes
    of the given sizes, as positions from ``start`` on, the first class's
    take descending first."""
    if need == 0:
        return [()]
    if not sizes:
        return []
    return [tuple(range(start, start + take)) + tail
            for take in range(min(sizes[0], need), -1, -1)
            for tail in _prefix_ways(sizes[1:], need - take, start + sizes[0])]


# isomorph rejection is tested on entry to assign(v) for v <= n -
# _REJECT_LAST_GAP, and at every leaf.  Deeper nodes are many and their
# subtrees small, so canonical searches there cost more than they cut.  A
# pass over every cell with n <= 10 (best of 28; 2 cores, Python 3.11) took
# 185 ms ending the window at n - 5, 219 ms at n - 4, 245 ms at n - 6,
# 295 ms testing every depth, and 456 ms testing only the leaves.
_REJECT_LAST_GAP = 5


def enumerate_regular(n: int, r: int, connected_only: bool = False) -> Iterator[Graph]:
    """All r-regular graphs on n vertices up to isomorphism, exactly once.

    Deterministic stream; raises beyond the n <= 10 cap.

    The search adds every edge of vertex v in ``assign(v)``, in one loop
    over the ways to choose v's later neighbours as prefixes of classes of
    twins (unsaturated vertices with equal rows), the first class's take
    descending first.  The ways depend only on the class sizes and v's
    residual degree, so each call keeps them in one table (``ways_of``).

    One isomorph-rejection rule prunes the search and dedups its leaves: on
    entry to ``assign(v)`` for v <= n - 5, and at every leaf (depth n,
    after the ``connected_only`` filter), a node whose partial graph P is
    isomorphic to the partial graph of a node met earlier at the same depth
    is dropped.  At a leaf P is the whole graph, so each class is yielded
    once, by the first graph found in it.  The yielded stream is the one of
    plain generate-then-dedup, because:

    - At ``assign(v)`` vertices 0..v-1 have residual 0, so the graphs the
      subtree can reach are the r-regular supergraphs of P, a set that up
      to isomorphism depends only on P's isomorphism class.
    - Two nodes at the same depth are never ancestor and descendant, so
      the earlier isomorphic node's subtree has already finished.
    - Twin prefixes and ``_residual_feasible`` keep every subtree complete
      up to isomorphism: each twin swap is an automorphism of P fixing
      0..v, and only nodes with no completion are cut.  The same fact at
      the root makes the search reach every class.
    - By induction in depth-first order, every leaf below a pruned node
      is isomorphic to a graph yielded earlier, so the leaf test would
      have dropped it.  The classes, their representatives and their
      order all stay the same, for ``connected_only`` too, since
      connectivity is an isomorphism invariant.

    Nodes are bucketed by the sorted (degree, triangle count) pairs of
    P's vertices.  The first node in a bucket is new at no search; its
    rows and triangle counts are stored, and searched only once a second
    node lands in the bucket.  From then on the bucket holds the union of
    the leaf rows (``_leaf_rows``) of its partial graphs.  Each later node
    is searched with that union as ``known``: its search stops at its first
    leaf if that leaf's rows are in the union, and the node is a repeat;
    otherwise all its leaf rows join the union.  This is exact: orbit
    pruning and the jump back skip only images of subtrees already
    explored, so the explored leaves' rows are those of the whole tree,
    and the tree does not depend on the labelling, so isomorphic graphs
    have equal leaf-row sets and other graphs disjoint ones (``_leaf_rows``
    has the argument).  The first leaf thus decides, as a comparison of
    canonical rows would.  Depths 0 and 1 hold one node each, so testing
    them costs no search.
    """
    if n > ENUMERATION_CAP:
        raise GraphError(f"enumeration capped at n={ENUMERATION_CAP}")
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
    last_reject = n - _REJECT_LAST_GAP
    # (depth, invariant) -> the first partial graph's rows and triangle
    # counts, then the union of the leaf rows of every partial graph met in
    # the bucket.  Keyed by depth too: assign(v) with v saturated hands its
    # own partial graph on to assign(v + 1), its child.
    met: dict[tuple, tuple[tuple[int, ...], list[int]] | set[tuple[int, ...]]] = {}
    ways_of: dict[tuple[tuple[int, ...], int], list[tuple[int, ...]]] = {}

    def repeated(v: int) -> bool:
        """Whether the partial graph at assign(v) is isomorphic to one
        met at depth v before; records it if not."""
        rows = tuple(adj)
        tri = _triangle_counts(rows)
        key = (v, tuple(sorted(zip(map(int.bit_count, rows), tri))))
        bucket = met.get(key)
        if bucket is None:
            met[key] = (rows, tri)
            return False
        if type(bucket) is tuple:
            bucket = met[key] = set(_leaf_rows(Graph(n, bucket[0]), tri=bucket[1]))
        leaves = _leaf_rows(Graph(n, rows), bucket, tri)
        if leaves is None:
            return True
        bucket.update(leaves)
        return False

    def assign(v: int) -> Iterator[Graph]:
        if v == n:
            g = Graph(n, tuple(adj))
            if (not connected_only or is_connected(g)) and not repeated(n):
                yield g
            return
        if v <= last_reject and repeated(v):
            return
        need = residual[v]
        if need == 0:
            if _residual_feasible(residual[v + 1:]):
                yield from assign(v + 1)
            return
        classes: dict[int, list[int]] = {}
        for u in range(v + 1, n):
            if residual[u]:
                classes.setdefault(adj[u], []).append(u)
        groups = [members for _, members in sorted(classes.items())]
        order = [u for members in groups for u in members]
        key = (tuple(map(len, groups)), need)
        ways = ways_of.get(key)
        if ways is None:
            ways = ways_of[key] = _prefix_ways(*key)
        bv = 1 << v
        row = adj[v]
        residual[v] = 0
        for way in ways:
            chosen = [order[i] for i in way]
            mask = 0
            for u in chosen:
                adj[u] |= bv
                residual[u] -= 1
                mask |= 1 << u
            adj[v] = row | mask
            if _residual_feasible(residual[v + 1:]):
                yield from assign(v + 1)
            for u in chosen:
                adj[u] ^= bv
                residual[u] += 1
        adj[v] = row
        residual[v] = need

    yield from assign(0)
    del assign  # as in _leaf_rows: free met now, not at the next collection


