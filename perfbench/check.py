"""Independent output checker for the regext benchmark.

Nothing here calls into regext: graph6 text is decoded by this module's own
decoder, components come from this module's own search, and certificates
are re-derived from the graph data alone.  Library results are read only
as data (``Graph.n``/``Graph.adj``, violator ``s``/``odd_count``, matching
edge sets).  Every function returns ``None`` when the output is correct and
a one-line reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction

# Number of r-regular simple graphs on n vertices up to isomorphism, connected
# or not.  Sources: connected counts (cubic: 1, 2, 5, 19 for n = 4..10;
# quartic: 1, 1, 2, 6, 16, 59 for n = 5..10) plus the disconnected unions
# (e.g. K4+K4, K4+prism, K4+K3,3, K5+K5), 2-regular counts as partitions of
# n into parts >= 3, and complements for r > (n-1)/2.
KNOWN_REGULAR_COUNTS = {
    (1, 0): 1,
    (2, 0): 1, (2, 1): 1,
    (3, 0): 1, (3, 2): 1,
    (4, 0): 1, (4, 1): 1, (4, 2): 1, (4, 3): 1,
    (5, 0): 1, (5, 2): 1, (5, 4): 1,
    (6, 0): 1, (6, 1): 1, (6, 2): 2, (6, 3): 2, (6, 4): 1, (6, 5): 1,
    (7, 0): 1, (7, 2): 2, (7, 4): 2, (7, 6): 1,
    (8, 0): 1, (8, 1): 1, (8, 2): 3, (8, 3): 6, (8, 4): 6, (8, 5): 3,
    (8, 6): 1, (8, 7): 1,
    (9, 0): 1, (9, 2): 4, (9, 4): 16, (9, 6): 4, (9, 8): 1,
    (10, 0): 1, (10, 1): 1, (10, 2): 5, (10, 3): 21, (10, 4): 60,
    (10, 5): 60, (10, 6): 21, (10, 7): 5, (10, 8): 1, (10, 9): 1,
}


def decode_graph6(text: str) -> tuple[int, list[int]]:
    """(n, adjacency bitmasks) of one graph6 line; raises ValueError."""
    data = text.strip().encode("ascii")
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if not data or any(not 63 <= c <= 126 for c in data):
        raise ValueError("not a graph6 line")
    if data[0] == 126:
        n = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6:
        raise ValueError(f"graph6 body has {len(body)} bytes for n={n}")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] - 63) >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return n, adj


def complement_of(n: int, adj: list[int]) -> list[int]:
    full = (1 << n) - 1
    return [full & ~a & ~(1 << v) for v, a in enumerate(adj)]


def mask_of(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def components(n: int, adj: list[int], removed: int = 0) -> list[int]:
    """Vertex masks of the components of G minus ``removed``, by depth-first search."""
    alive = ((1 << n) - 1) & ~removed
    seen = 0
    comps = []
    for root in range(n):
        bit = 1 << root
        if not alive & bit or seen & bit:
            continue
        seen |= bit
        comp = bit
        stack = [root]
        while stack:
            fresh = adj[stack.pop()] & alive & ~seen
            seen |= fresh
            comp |= fresh
            while fresh:
                low = fresh & -fresh
                stack.append(low.bit_length() - 1)
                fresh ^= low
        comps.append(comp)
    return comps


def odd_components(n: int, adj: list[int], removed: int = 0) -> int:
    return sum(c.bit_count() & 1 for c in components(n, adj, removed))


def edges_of(n: int, adj: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]


def simple_regular(n: int, adj, r: int) -> str | None:
    """None if ``adj`` is a simple r-regular graph on n vertices."""
    if len(adj) != n:
        return f"{len(adj)} adjacency rows for n={n}"
    for v in range(n):
        a = adj[v]
        if a >> n or a >> v & 1:
            return f"vertex {v} has an out-of-range neighbour or a loop"
        for w in range(n):
            if (a >> w & 1) != (adj[w] >> v & 1):
                return f"asymmetric adjacency at ({v},{w})"
        if a.bit_count() != r:
            return f"deg({v})={a.bit_count()}, expected {r}"
    return None


def matching_in(n: int, adj: list[int], edges) -> str | None:
    """None if ``edges`` is a matching of the graph ``adj``."""
    covered = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or not adj[u] >> v & 1:
            return f"matching edge ({u},{v}) is not an edge of the host graph"
        if covered >> u & 1 or covered >> v & 1:
            return f"matching edges overlap at ({u},{v})"
        covered |= 1 << u | 1 << v
    return None


def perfect_matching_in(n: int, adj: list[int], edges) -> str | None:
    """None if ``edges`` is a perfect matching of the graph ``adj``."""
    edges = list(edges)
    if 2 * len(edges) != n:
        return f"matching covers {2 * len(edges)} of {n} vertices"
    return matching_in(n, adj, edges)


def tutte_violator(n: int, adj: list[int], s, odd_count: int) -> str | None:
    """None if G-S has ``odd_count`` odd components and that exceeds |S|."""
    s = set(s)
    if any(not 0 <= v < n for v in s):
        return "violator vertex out of range"
    odd = odd_components(n, adj, mask_of(s))
    if odd != odd_count:
        return f"G-S has {odd} odd components, certificate claims {odd_count}"
    if odd <= len(s):
        return f"G-S has {odd} odd components, not more than |S|={len(s)}"
    return None


def bridges(n: int, adj: list[int]) -> list[tuple[int, int]]:
    """Cut edges, found by deleting each edge and searching from one end."""
    out = []
    for u, v in edges_of(n, adj):
        cut = list(adj)
        cut[u] &= ~(1 << v)
        cut[v] &= ~(1 << u)
        reach = next(c for c in components(n, cut) if c >> u & 1)
        if not reach >> v & 1:
            out.append((u, v))
    return out


def balloon_blocks(n: int, adj: list[int]) -> tuple[list, list[int], list[int]]:
    """(bridges, block masks, balloon masks): blocks are the components left
    after deleting every bridge; a balloon is a block with exactly one bridge."""
    cut_edges = bridges(n, adj)
    cut = list(adj)
    for u, v in cut_edges:
        cut[u] &= ~(1 << v)
        cut[v] &= ~(1 << u)
    blocks = components(n, cut)
    balloon = [b for b in blocks
               if sum(1 for u, v in cut_edges if b >> u & 1 or b >> v & 1) == 1]
    return cut_edges, blocks, balloon


def clique_number(n: int, adj: list[int]) -> int:
    best = 0

    def grow(size: int, cand: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand and size + cand.bit_count() > best:
            low = cand & -cand
            v = low.bit_length() - 1
            grow(size + 1, cand & adj[v])
            cand ^= low

    grow(0, (1 << n) - 1)
    return best


def is_clique(adj: list[int], vertices) -> bool:
    vs = list(vertices)
    return all(adj[u] >> v & 1 for i, u in enumerate(vs) for v in vs[i + 1:])


def sorted_sets(masks) -> list[list[int]]:
    return sorted([v for v in range(m.bit_length()) if m >> v & 1] for m in masks)


# --- workload checks -------------------------------------------------------


def climb(text: str, target: int, result, final_text: str | None) -> str | None:
    """``result`` of extend_to on the graph6 line ``text``.

    A trace must add perfect matchings of the current complement, one per
    level, ending at ``final_text``: a target-regular supergraph of the
    input.  A failure must carry a violator of the complement at the level
    it got stuck.
    """
    n, adj = decode_graph6(text)
    cur = list(adj)
    for step in result.steps:
        reason = perfect_matching_in(n, complement_of(n, cur), step)
        if reason:
            return f"level {cur[0].bit_count()}: {reason}"
        for u, v in step:
            cur[u] |= 1 << v
            cur[v] |= 1 << u
    if final_text is None:
        v = result.violator
        return tutte_violator(n, complement_of(n, cur), v.s, v.odd_count)
    fn, final = decode_graph6(final_text)
    if fn != n or final != cur:
        return "final graph is not the input plus the trace's matchings"
    if any(a & b != b for a, b in zip(final, adj)):
        return "final graph is not a supergraph of the input"
    return simple_regular(n, final, target)


def sampled(n: int, r: int, g, result) -> str | None:
    """random_regular output ``g`` and perfect_matching(g) ``result``."""
    if g.n != n:
        return f"sampled graph has {g.n} vertices, expected {n}"
    reason = simple_regular(n, list(g.adj), r)
    if reason:
        return reason
    if isinstance(result, frozenset):
        return perfect_matching_in(n, list(g.adj), result)
    return tutte_violator(n, list(g.adj), result.s, result.odd_count)


def class_count(n: int, r: int, count: int) -> str | None:
    expected = KNOWN_REGULAR_COUNTS.get((n, r))
    if expected != count:
        return f"({n},{r}): {count} classes, known count is {expected}"
    return None


def enumerated(n: int, r: int, g) -> str | None:
    if g.n != n:
        return f"class has {g.n} vertices, expected {n}"
    return simple_regular(n, list(g.adj), r)


def extended_once(g, result) -> str | None:
    """extend_once(g) gives (g + M, M) with M a perfect matching of the
    complement, or a violator of the complement."""
    n, adj = g.n, list(g.adj)
    comp = complement_of(n, adj)
    if isinstance(result, tuple):
        bigger, m = result
        reason = perfect_matching_in(n, comp, m)
        if reason:
            return reason
        want = list(adj)
        for u, v in m:
            want[u] |= 1 << v
            want[v] |= 1 << u
        if list(bigger.adj) != want:
            return "extended graph is not g plus the matching"
        return None
    return tutte_violator(n, comp, result.s, result.odd_count)


def balloon_bound(n: int, adj: list[int], r: int, b: int, s, got) -> str | None:
    """check_balloon_bound(g, s) against a recomputation from the graph.

    ``b`` is the balloon count of the graph from :func:`balloon_blocks`.
    """
    smask = mask_of(s)
    comps = components(n, adj, smask)
    applicable = all(
        (c.bit_count() % 2 == 0
         or (boundary := sum((adj[v] & smask).bit_count()
                             for v in range(n) if c >> v & 1)) == 1
         or boundary >= r)
        for c in comps
    )
    lhs = Fraction(sum(c.bit_count() & 1 for c in comps) - len(set(s)))
    rhs = Fraction(r, r - 1) * b
    rhs_alt = Fraction(r - 1, r) * b
    want = (applicable, lhs <= rhs, lhs, rhs, rhs_alt, lhs <= rhs_alt)
    have = (got.applicable, got.holds, got.lhs, got.rhs, got.rhs_alt, got.holds_alt)
    if want != have:
        return f"balloon bound for S={sorted(s)}: got {have}, recomputed {want}"
    return None


# --- certify: one JSON result line of the CLI ------------------------------


def match_line(n: int, adj: list[int], res: dict) -> str | None:
    if res["perfect"]:
        if len(res["matching"]) != res["size"]:
            return "matching size field disagrees with the matching"
        return perfect_matching_in(n, adj, [tuple(e) for e in res["matching"]])
    v = res["violator"]
    reason = tutte_violator(n, adj, v["s"], v["odd_count"])
    if reason:
        return reason
    m = [tuple(e) for e in res["matching"]]
    reason = matching_in(n, adj, m)
    if reason:
        return reason
    # weak Tutte-Berge duality: a matching misses at least odd(G-S) - |S| vertices
    if len(m) != res["size"] or 2 * len(m) > n - (v["odd_count"] - len(v["s"])):
        return "maximum matching size is inconsistent with the violator"
    return None


def analyze_line(n: int, adj: list[int], res: dict, clique_limit: int) -> str | None:
    degrees = {a.bit_count() for a in adj}
    cut_edges, blocks, balloon = balloon_blocks(n, adj)
    comps = components(n, adj)
    want = {
        "n": n,
        "m": sum(a.bit_count() for a in adj) // 2,
        "r": degrees.pop() if len(degrees) == 1 else None,
        "connected": len(comps) <= 1,
        "components": sorted_sets(comps),
        "bridges": sorted([list(e) for e in cut_edges]),
        "blocks": sorted_sets(blocks),
        "balloons": sorted_sets(balloon),
        "b": len(balloon),
        "clique_number": clique_number(n, adj) if n <= clique_limit else None,
    }
    for key, value in want.items():
        got = res[key]
        if key in ("components", "blocks", "balloons"):
            got = sorted(got)
        if got != value:
            return f"analyze field {key!r} is {got!r}, expected {value!r}"
    return None


def check_line(n: int, adj: list[int], res: dict, kind: str) -> str | None:
    verdicts = {v["rule"]: v for v in res["verdicts"]}
    for v in res["verdicts"]:
        w = v.get("witness")
        if w is None:
            continue
        if w["type"] == "biclique":
            a, b = set(w["part_a"]), set(w["part_b"])
            if not a or not b or a & b or a | b != set(range(n)):
                return f"{v['rule']}: biclique parts do not partition V"
            if any(not adj[x] >> y & 1 for x in a for y in b):
                return f"{v['rule']}: biclique misses a cross edge"
            if v["rule"] == "T4-Impossible" and (len(a) % 2 == 0 or len(b) % 2 == 0):
                return "T4 biclique parts are not both odd"
        elif w["type"] == "vertex-set":
            if len(w["vertices"]) != n // 2 or not is_clique(adj, w["vertices"]):
                return f"{v['rule']}: witness is not a clique on n/2 vertices"
    if kind == "t4" and not verdicts["T4-Impossible"]["applies"]:
        return "T4 not detected on an odd-odd spanning biclique graph"
    if kind == "clique-pair" and not verdicts["T5-Clique"]["applies"]:
        return "T5 not detected on a graph holding K_{n/2}"
    impossible = any(v["applies"] and v["conclusion"] == "not-extendable"
                     for v in res["verdicts"])
    extendable = any(v["applies"] and v["conclusion"].startswith("extendable")
                     for v in res["verdicts"])
    if impossible and extendable:
        return "verdicts claim both extendable and not extendable"
    return None


def extend_line(n: int, adj: list[int], res: dict) -> str | None:
    r = adj[0].bit_count() if n else 0
    if res["ok"]:
        fn, final = decode_graph6(res["final"])
        if fn != n or res["final_r"] != r + 1:
            return "extended graph has the wrong order or degree"
        added = [a & ~b for a, b in zip(final, adj)]
        if any(a & b != b for a, b in zip(final, adj)):
            return "extended graph drops an input edge"
        return perfect_matching_in(n, complement_of(n, adj),
                                   edges_of(n, added))
    if res["stuck_r"] != r:
        return f"stuck at r={res['stuck_r']} on an r={r} input with target r+1"
    v = res["violator"]
    return tutte_violator(n, complement_of(n, adj), v["s"], v["odd_count"])
