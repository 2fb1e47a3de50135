"""Raising regularity by adding perfect matchings of the complement.

One extension step finds a perfect matching of the complement and adds it,
turning an r-regular graph into an (r+1)-regular one on the same vertices.
Every extension runs up one ladder, ``extend_to``; ``extend_once`` is its
single step.  Every level takes the blossom matcher's perfect matching of
the complement or its Tutte violator.  The step adds the matching to the
graph and removes it from the complement in the same pass, so a climb over
many levels builds one complement, and ``ExtensionTrace.verify`` replays
a trace through the same step.  ``dirac_cycle`` is the paper's route
for T1 (2r < n): the complement then has minimum degree >= n/2, so it has
a Hamiltonian cycle (Dirac), built by closing gaps in a cyclic order,
whose even edges are a perfect matching; ``regext verify --rule T1``
checks that construction.

``RULES`` holds one ``Rule`` record per sufficient or impossibility
condition this package verifies: its arithmetic hypothesis on (n, r), the
finder for its structural hypothesis, and its conclusion.  ``classify``
evaluates every record as an independent verdict with attached witnesses;
``regext verify`` draws its instances from the same records.  Every
finder is polynomial.  T5's (2r >= n and G contains K_{n/2}) is
``structure.half_clique``: for such r that clique exists exactly when the
d-regular complement, d = n - 1 - r, is bipartite with sides of n/2.  That
also proves T5's conclusion: by König's theorem a d-regular bipartite
graph has a perfect matching, and removing it leaves a (d - 1)-regular
bipartite graph, so every level of the ladder up to n - 1 has one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Generator

from .graph import Graph, GraphError, complement, is_connected, regularity, require_regular
from .matching import Matching, TutteViolator, perfect_matching
from .structure import half_clique, l_vertex_bound, spanning_biclique

log = logging.getLogger("regext.extension")


class DiracPreconditionError(GraphError):
    """Minimum degree below n/2 (or n < 3); carries a witness vertex."""

    def __init__(self, message: str, vertex: int | None = None):
        super().__init__(message)
        self.vertex = vertex


def validate_cycle(g: Graph, order: tuple[int, ...]) -> None:
    """Raise unless ``order`` is a Hamiltonian cycle of g."""
    n = g.n
    if sorted(order) != list(range(n)):
        raise GraphError("cycle is not a permutation of the vertices")
    adj = g.adj
    for i in range(n):
        u, v = order[i], order[(i + 1) % n]
        if not adj[u] >> v & 1:
            raise GraphError(f"cycle step ({u},{v}) is not an edge")


def dirac_cycle(g: Graph) -> tuple[int, ...]:
    """Hamiltonian cycle of a graph with minimum degree >= n/2.

    Gap closing (Palmer's constructive proof of Ore's theorem): start from
    the cyclic order 0, 1, ..., n-1 and call a consecutive pair that is not
    an edge a gap.  Rotate the first gap to the ends, x = order[0] and
    y = order[-1].  The neighbours of x give positions j (x ~ order[j+1])
    and those of y positions j (y ~ order[j]), deg(x) + deg(y) >= n of them
    among the n - 1 positions 0..n-2, so some j in 1..n-3 has both.
    Reversing order[j+1:] makes both chord pairs consecutive and keeps
    every other pair, so each step closes the gap (y, x) and opens none.
    There are at most n gaps; one left after n + 1 steps means a broken
    step and raises AssertionError.  Every choice is the first in order, so
    the output is deterministic.
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

    order = list(range(n))
    for _ in range(n + 1):
        gap = next((i for i in range(n)
                    if not adj[order[i]] >> order[(i + 1) % n] & 1), None)
        if gap is None:
            validate_cycle(g, tuple(order))
            return tuple(order)
        order = order[gap + 1:] + order[:gap + 1]
        adj_x, adj_y = adj[order[0]], adj[order[-1]]
        j = next(j for j in range(1, n - 2)
                 if adj_x >> order[j + 1] & 1 and adj_y >> order[j] & 1)
        order[j + 1:] = reversed(order[j + 1:])
    raise AssertionError("gap left after n + 1 closing steps")


def cycle_to_matching(order: tuple[int, ...]) -> Matching:
    """Alternate edges of an even cycle: (c0,c1), (c2,c3), ..."""
    if len(order) % 2 == 1:
        raise GraphError(f"cycle length {len(order)} is odd")
    return frozenset([(u, v) if u < v else (v, u)
                      for u, v in zip(order[::2], order[1::2])])


def _step(g: Graph, gc: Graph, m: Matching) -> tuple[Graph, Graph]:
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


@dataclass(frozen=True)
class ExtensionTrace:
    """Matchings added going from start_r to target_r, plus the end graph."""

    start_r: int
    target_r: int
    steps: tuple[Matching, ...]
    final: Graph

    def verify(self, g: Graph) -> bool:
        """Replay the steps through ``_step`` from the start_r-regular g."""
        if regularity(g) != self.start_r:
            return False
        cur, cur_c = g, complement(g)
        try:
            for step in self.steps:
                cur, cur_c = _step(cur, cur_c, step)
        except GraphError:
            return False
        return cur == self.final and regularity(cur) == self.target_r


@dataclass(frozen=True)
class ExtensionFailure:
    """Deepest obstruction met after exhausting backtracking alternatives."""

    reached_r: int
    steps: tuple[Matching, ...]
    violator: TutteViolator


def _matching_candidates(
    gc: Graph, backtrack: int
) -> Generator[Matching, None, TutteViolator | None]:
    """Primary matching for one level, then up to ``backtrack`` alternatives.

    ``gc`` is the complement of the level's regular graph, and the primary
    matching is the blossom matcher's.  Alternatives re-solve ``gc`` with
    one edge of the primary matching forbidden, which is enough to escape a
    greedy dead end.  A level with no matching yields nothing and returns
    the violator of its one search.
    """
    first = perfect_matching(gc)
    if isinstance(first, TutteViolator):
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
        alt = perfect_matching(pruned)
        if isinstance(alt, TutteViolator) or alt in emitted:
            continue
        emitted.add(alt)
        yield alt


def extend_to(
    g: Graph, target_r: int, backtrack: int = 0
) -> ExtensionTrace | ExtensionFailure:
    """Extend step by step to ``target_r``, backtracking on stuck levels.

    The complement is built once.  Each level's complement is the one
    below it minus the matching just added, so every step builds the next
    graph and its complement together (``_step``).  Only backtracking
    resumes a lower level; without it the stack holds just the current one.
    """
    r = require_regular(g)
    if g.n % 2 == 1:
        raise GraphError(f"extension needs even n, got n={g.n}")
    if not r <= target_r <= g.n - 1:
        raise GraphError(f"target degree {target_r} outside {r}..{g.n - 1}")

    if r == target_r:
        return ExtensionTrace(r, target_r, (), g)
    deepest: ExtensionFailure | None = None
    gc = complement(g)
    # one frame per level that may be resumed: (graph, its complement,
    # degree, steps so far, candidate matchings); depth-first in candidate
    # order
    stack = [(g, gc, r, (), _matching_candidates(gc, backtrack))]
    while stack:
        cur, cur_c, cur_r, steps, candidates = stack[-1]
        try:
            m = next(candidates)
        except StopIteration as done:
            stack.pop()
            violator = done.value
            if violator is not None and (deepest is None or cur_r > deepest.reached_r):
                deepest = ExtensionFailure(cur_r, steps, violator)
            if stack:
                log.debug("backtracking at r=%d", stack[-1][2])
            continue
        nxt, nxt_c = _step(cur, cur_c, m)
        if cur_r + 1 == target_r:
            return ExtensionTrace(r, target_r, steps + (m,), nxt)
        frame = (nxt, nxt_c, cur_r + 1, steps + (m,),
                 _matching_candidates(nxt_c, backtrack))
        if backtrack > 0:
            stack.append(frame)
        else:
            # without alternatives no level is resumed, so the one below
            # need not keep its graph and complement alive
            stack[-1] = frame
    assert deepest is not None
    return deepest


def extend_once(g: Graph) -> tuple[Graph, Matching] | TutteViolator:
    """One rung of the ladder, ``extend_to(g, r + 1)``: the (r+1)-regular
    g + M and the blossom matcher's perfect matching M of the complement,
    or the complement's Tutte violator when it has none.  Odd n, r = n - 1
    and irregular input raise GraphError, as in ``extend_to``."""
    res = extend_to(g, require_regular(g) + 1)
    if isinstance(res, ExtensionFailure):
        return res.violator
    return res.final, res.steps[0]


CONCLUSION_EXTENDABLE = "extendable"
CONCLUSION_EXTENDABLE_ANY = "extendable-to-any-r'"
CONCLUSION_NOT_EXTENDABLE = "not-extendable"
CONCLUSION_HAS_PM = "has-perfect-matching"


@dataclass(frozen=True)
class TheoremVerdict:
    rule: str
    applies: bool
    conclusion: str
    evidence: object = None

    @property
    def short_rule(self) -> str:
        return self.rule.split("-", 1)[0]


@dataclass(frozen=True)
class Rule:
    """One theorem: its hypothesis on an r-regular G of order n, and its
    conclusion.

    ``holds(n, r)`` is the arithmetic hypothesis.  ``witness(g)``, when the
    rule has a structural hypothesis, returns a certificate for it or None;
    it runs only where ``holds`` does.  ``show_witness`` False keeps the
    certificate out of the verdict.
    """

    name: str
    conclusion: str
    holds: Callable[[int, int], bool]
    witness: Callable[[Graph], object] | None = None
    show_witness: bool = True

    @property
    def short(self) -> str:
        return self.name.split("-", 1)[0]

    def verdict(self, g: Graph, r: int) -> TheoremVerdict:
        holds = self.holds(g.n, r)
        if not holds or self.witness is None:
            return TheoremVerdict(self.name, holds, self.conclusion)
        found = self.witness(g)
        return TheoremVerdict(self.name, found is not None, self.conclusion,
                              evidence=found if self.show_witness else None)


# The sufficient and impossibility conditions, in the order classify reports
# them.  Each hypothesis is stated here and nowhere else.  Witness finders
# look their functions up at call time, so wrappers installed on the module
# (the benchmark's tracer) see every call.
RULES = (
    Rule("T1-Dirac", CONCLUSION_EXTENDABLE,
         lambda n, r: n % 2 == 0 and 2 * r < n),
    Rule("T2-EvenEven", CONCLUSION_EXTENDABLE,
         lambda n, r: n % 2 == 0 and r % 2 == 0
         and (3 * r < 2 * (n + 2) if n >= 52 else r < n - 16)),
    Rule("T3-Biclique", CONCLUSION_EXTENDABLE,
         lambda n, r: n % 2 == 0 and r % 2 == 0
         and (4 * r < 3 * n if n >= 64 else r < n - 16),
         witness=lambda g: spanning_biclique(g)),
    Rule("T4-Impossible", CONCLUSION_NOT_EXTENDABLE,
         lambda n, r: n % 2 == 0 and 2 * r >= n,
         witness=lambda g: spanning_biclique(g, require_odd_parts=True)),
    Rule("T5-Clique", CONCLUSION_EXTENDABLE_ANY,
         lambda n, r: n % 2 == 0 and 2 * r >= n and n >= 2,
         witness=lambda g: half_clique(g)),
    Rule("L-Matching", CONCLUSION_HAS_PM,
         lambda n, r: r > 15 and r % 2 == 1 and n % 2 == 0 and n < l_vertex_bound(r)),
    Rule("C-Disconnected", CONCLUSION_HAS_PM,
         lambda n, r: n % 2 == 0 and r > 15 and r % 2 == 1 and 4 * r >= n,
         witness=lambda g: None if is_connected(g) else True, show_witness=False),
)


def classify(g: Graph) -> list[TheoremVerdict]:
    """Evaluate every rule of ``RULES`` on a regular graph.

    Each verdict is independent; ``applies`` is True only when every
    hypothesis of the rule was verified on (n, r, G).  Structural
    hypotheses attach their witness.  Every witness finder is polynomial,
    so every rule answers at every order.
    """
    r = require_regular(g)
    return [rule.verdict(g, r) for rule in RULES]
