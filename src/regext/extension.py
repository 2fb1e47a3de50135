"""Raising regularity by adding perfect matchings of the complement.

One extension step finds a perfect matching of the complement and adds it,
turning an r-regular graph into an (r+1)-regular one on the same vertices.
Every extension runs up one ladder, ``extend_to``; ``extend_once`` is its
single step.  The ladder picks each level's matcher from (n, r).  When
2r < n the complement has minimum degree >= n/2, so a Hamiltonian cycle
(Dirac, built by rotation-extension) gives the matching.  Everywhere else
the blossom matcher gives a matching or a Tutte violator.  The step adds
the matching to the graph and removes it from the complement in the same
pass, so a climb over many levels builds one complement.

``RULES`` holds one ``Rule`` record per sufficient or impossibility
condition this package verifies: its arithmetic hypothesis on (n, r), the
finder for its structural hypothesis, and its conclusion.  ``classify``
evaluates every record as an independent verdict with attached witnesses;
``regext verify`` draws its instances from the same records.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Generator

from .graph import (
    Graph,
    GraphError,
    add_matching,
    complement,
    is_connected,
    require_regular,
)
from .matching import (
    Matching,
    TutteViolator,
    is_valid_matching,
    matching_from_pairs,
    perfect_matching,
)
from .structure import find_clique, l_vertex_bound, spanning_biclique

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


def cycle_to_matching(order: tuple[int, ...]) -> Matching:
    """Alternate edges of an even cycle: (c0,c1), (c2,c3), ..."""
    if len(order) % 2 == 1:
        raise GraphError(f"cycle length {len(order)} is odd")
    return matching_from_pairs(
        (order[i], order[i + 1]) for i in range(0, len(order), 2)
    )


def _step(g: Graph, gc: Graph, m: Matching) -> tuple[Graph, Graph]:
    """g plus the perfect matching m of its complement gc, and the
    complement of that: gc minus m.

    ``bits[v]`` is the bit of v's partner; it is ORed into row v of g and
    XORed out of row v of gc.  The checks of ``add_matching`` cost O(n):
    n/2 pairs that leave no vertex without a partner make the partner map a
    fixed-point-free involution, so the pairs are disjoint and cover V.
    Then, g being regular and gc its complement, the new graph is regular
    one degree up exactly when every pair is an edge of gc.
    """
    n = g.n
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
        cur = g
        try:
            for step in self.steps:
                if not is_valid_matching(complement(cur), step, perfect=True):
                    return False
                cur = add_matching(cur, step)
        except GraphError:
            return False
        return cur == self.final and require_regular(cur) == self.target_r


@dataclass(frozen=True)
class ExtensionFailure:
    """Deepest obstruction met after exhausting backtracking alternatives."""

    reached_r: int
    steps: tuple[Matching, ...]
    violator: TutteViolator


def _matching_candidates(
    gc: Graph, r: int, backtrack: int
) -> Generator[Matching, None, TutteViolator | None]:
    """Primary matching for one level, then up to ``backtrack`` alternatives.

    ``gc`` is the complement of the level's r-regular graph on n vertices.
    When 2r < n its minimum degree n - 1 - r is at least n/2, so the primary
    matching is every other edge of a Dirac cycle; a cycle needs n >= 3,
    and at n = 2 the blossom matcher finds K_2.  Everywhere else the blossom
    matcher gives a matching or a Tutte violator.  Alternatives re-solve
    ``gc`` with one edge of the primary matching forbidden, which is enough
    to escape a greedy dead end.  A level with no matching yields nothing
    and returns the violator of its one search.
    """
    if 2 * r < gc.n and gc.n > 2:
        first = cycle_to_matching(dirac_cycle(gc))
    else:
        first = perfect_matching(gc)
        if isinstance(first, TutteViolator):
            return first
    yield first
    if backtrack <= 0:
        return
    emitted = {first}
    budget = backtrack
    for u, v in sorted(first):
        if budget <= 0:
            return
        pruned = Graph(gc.n, tuple(
            a & ~(1 << v) if i == u else (a & ~(1 << u) if i == v else a)
            for i, a in enumerate(gc.adj)
        ))
        alt = perfect_matching(pruned)
        if isinstance(alt, TutteViolator) or alt in emitted:
            continue
        emitted.add(alt)
        budget -= 1
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
    stack = [(g, gc, r, (), _matching_candidates(gc, r, backtrack))]
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
                 _matching_candidates(nxt_c, cur_r + 1, backtrack))
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
    g + M and the perfect matching M of the complement it adds, or the
    complement's Tutte violator when it has none.  Odd n, r = n - 1 and
    irregular input raise GraphError, as in ``extend_to``."""
    res = extend_to(g, require_regular(g) + 1)
    if isinstance(res, ExtensionFailure):
        return res.violator
    return res.final, res.steps[0]


CONCLUSION_EXTENDABLE = "extendable"
CONCLUSION_EXTENDABLE_ANY = "extendable-to-any-r'"
CONCLUSION_NOT_EXTENDABLE = "not-extendable"
CONCLUSION_HAS_PM = "has-perfect-matching"

# the T5 witness is an exponential clique search; above this order it is
# skipped with a note (``regext analyze`` uses the same cap)
CLIQUE_SEARCH_LIMIT = 40


@dataclass(frozen=True)
class TheoremVerdict:
    rule: str
    applies: bool
    conclusion: str
    evidence: object = None
    note: str | None = None

    @property
    def short_rule(self) -> str:
        return self.rule.split("-", 1)[0]


@dataclass(frozen=True)
class Rule:
    """One theorem: its hypothesis on an r-regular G of order n, and its
    conclusion.

    ``holds(n, r)`` is the arithmetic hypothesis.  ``witness(g)``, when the
    rule has a structural hypothesis, returns a certificate for it or None;
    it runs only where ``holds`` does.  ``search_limit`` caps the order at
    which an exponential witness search (T5's clique search) runs; above it
    the verdict is negative and carries a note.  ``show_witness`` False
    keeps the certificate out of the verdict.
    """

    name: str
    conclusion: str
    holds: Callable[[int, int], bool]
    witness: Callable[[Graph], object] | None = None
    search_limit: int | None = None
    show_witness: bool = True

    @property
    def short(self) -> str:
        return self.name.split("-", 1)[0]

    def verdict(self, g: Graph, r: int) -> TheoremVerdict:
        holds = self.holds(g.n, r)
        if not holds or self.witness is None:
            return TheoremVerdict(self.name, holds, self.conclusion)
        if self.search_limit is not None and g.n > self.search_limit:
            return TheoremVerdict(self.name, False, self.conclusion,
                                  note=f"clique search skipped (n > {self.search_limit})")
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
         witness=lambda g: find_clique(g, g.n // 2), search_limit=CLIQUE_SEARCH_LIMIT),
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
    hypotheses attach their witness.  The clique search behind the
    T5 rule is skipped (with a note) above ``CLIQUE_SEARCH_LIMIT``.
    """
    r = require_regular(g)
    return [rule.verdict(g, r) for rule in RULES]
