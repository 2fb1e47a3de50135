"""Raising regularity by adding perfect matchings of the complement.

One extension step finds a perfect matching of the complement and adds it,
turning an r-regular graph into an (r+1)-regular one on the same vertices.
When the complement has minimum degree >= n/2 the matching is built
constructively from a Hamiltonian cycle (rotation-extension); otherwise the
blossom matcher is used and failures surface as Tutte violators.

``RULES`` holds one ``Rule`` record per sufficient or impossibility
condition this package verifies: its arithmetic hypothesis on (n, r), the
finder for its structural hypothesis, and its conclusion.  ``classify``
evaluates every record as an independent verdict with attached witnesses;
``regext verify`` draws its instances from the same records.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterator, Literal

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
from .structure import find_clique, spanning_biclique

log = logging.getLogger("regext.extension")

Strategy = Literal["auto", "blossom", "dirac"]


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
    for i in range(n):
        u, v = order[i], order[(i + 1) % n]
        if not g.has_edge(u, v):
            raise GraphError(f"cycle step ({u},{v}) is not an edge")


def dirac_cycle(g: Graph) -> tuple[int, ...]:
    """Hamiltonian cycle of a graph with minimum degree >= n/2.

    Constructive rotation-extension: grow a maximal path, close it through
    a crossing chord (which the degree condition guarantees), and absorb an
    outside vertex whenever the cycle is not yet spanning.  Chords are taken
    first-found in ascending label order, so the output is deterministic.
    """
    n = g.n
    if n < 3:
        raise DiracPreconditionError(f"need n >= 3, got n={n}")
    for v in range(n):
        if 2 * g.degree(v) < n:
            raise DiracPreconditionError(
                f"deg({v})={g.degree(v)} < n/2={n / 2}", vertex=v
            )

    path = [0]
    on_path = [False] * n
    on_path[0] = True

    def extend_maximal() -> None:
        grew = True
        while grew:
            grew = False
            for w in g.neighbors(path[-1]):
                if not on_path[w]:
                    path.append(w)
                    on_path[w] = True
                    grew = True
                    break
            for w in g.neighbors(path[0]):
                if not on_path[w]:
                    path.insert(0, w)
                    on_path[w] = True
                    grew = True
                    break

    while True:
        extend_maximal()
        head, tail = path[0], path[-1]
        if g.has_edge(head, tail):
            cycle = list(path)
        else:
            # maximal path: both endpoints' neighborhoods sit on the path, so
            # deg(head) + deg(tail) >= n > len(path) - 1 forces a position i
            # with head ~ path[i+1] and tail ~ path[i]
            pos = {v: i for i, v in enumerate(path)}
            idx = None
            for i in range(len(path) - 1):
                if g.has_edge(head, path[i + 1]) and g.has_edge(tail, path[i]):
                    idx = i
                    break
            if idx is None:
                raise AssertionError("rotation chord missing despite degree bound")
            cycle = path[: idx + 1] + path[idx + 1:][::-1]
        if len(cycle) == n:
            validate_cycle(g, tuple(cycle))
            return tuple(cycle)
        # absorb an outside vertex adjacent to the cycle and go again
        cyc_pos = None
        for u in range(n):
            if on_path[u]:
                continue
            for j, c in enumerate(cycle):
                if g.has_edge(u, c):
                    cyc_pos = (u, j)
                    break
            if cyc_pos:
                break
        if cyc_pos is None:
            raise AssertionError("graph disconnected despite degree bound")
        u, j = cyc_pos
        path = [u] + cycle[j:] + cycle[:j]
        on_path[u] = True


def cycle_to_matching(order: tuple[int, ...]) -> Matching:
    """Alternate edges of an even cycle: (c0,c1), (c2,c3), ..."""
    if len(order) % 2 == 1:
        raise GraphError(f"cycle length {len(order)} is odd")
    return matching_from_pairs(
        (order[i], order[i + 1]) for i in range(0, len(order), 2)
    )


def _complement_perfect_matching(g: Graph, r: int, strategy: Strategy) -> Matching | TutteViolator:
    gc = complement(g)
    # a Hamiltonian cycle needs n >= 3; at n = 2 the blossom matcher finds K_2
    use_dirac = strategy == "dirac" or (strategy == "auto" and 2 * r < g.n and g.n > 2)
    if strategy == "dirac" and 2 * r >= g.n:
        raise DiracPreconditionError(
            f"dirac strategy needs r < n/2, got r={r}, n={g.n}"
        )
    if use_dirac:
        return cycle_to_matching(dirac_cycle(gc))
    return perfect_matching(gc)


def extend_once(g: Graph, strategy: Strategy = "auto") -> tuple[Graph, Matching] | TutteViolator:
    """Add one perfect matching of the complement; (r+1)-regular result.

    Returns a Tutte violator for the complement when no such matching
    exists.  Parity and regularity violations raise instead.
    """
    r = require_regular(g)
    if g.n % 2 == 1:
        raise GraphError(f"extension needs even n, got n={g.n}")
    if r > g.n - 2:
        raise GraphError(f"r={r} leaves no room to extend (n={g.n})")
    result = _complement_perfect_matching(g, r, strategy)
    if isinstance(result, TutteViolator):
        return result
    extended = add_matching(g, result)
    assert require_regular(extended) == r + 1
    return extended, result


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


def _matching_candidates(g: Graph, r: int, strategy: Strategy, backtrack: int) -> Iterator[Matching]:
    """Primary matching for one level, then up to ``backtrack`` alternatives.

    Alternatives re-solve the complement with one edge of the primary
    matching forbidden, which is enough to escape a greedy dead end.
    """
    first = _complement_perfect_matching(g, r, strategy)
    if isinstance(first, TutteViolator):
        return
    yield first
    if backtrack <= 0:
        return
    gc = complement(g)
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
    g: Graph,
    target_r: int,
    backtrack: int = 0,
    strategy: Strategy = "auto",
) -> ExtensionTrace | ExtensionFailure:
    """Extend step by step to ``target_r``, backtracking on stuck levels."""
    r = require_regular(g)
    if g.n % 2 == 1:
        raise GraphError(f"extension needs even n, got n={g.n}")
    if not r <= target_r <= g.n - 1:
        raise GraphError(f"target degree {target_r} outside {r}..{g.n - 1}")

    if r == target_r:
        return ExtensionTrace(r, target_r, (), g)
    deepest: ExtensionFailure | None = None
    # one frame per level: [graph, degree, steps so far, candidate matchings,
    # whether any candidate came out]; depth-first in candidate order
    stack = [[g, r, (), _matching_candidates(g, r, strategy, backtrack), False]]
    while stack:
        frame = stack[-1]
        cur, cur_r, steps, candidates, _ = frame
        m = next(candidates, None)
        if m is None:
            stack.pop()
            if not frame[4] and (deepest is None or cur_r > deepest.reached_r):
                violator = _complement_perfect_matching(cur, cur_r, "blossom")
                assert isinstance(violator, TutteViolator)
                deepest = ExtensionFailure(cur_r, steps, violator)
            if stack:
                log.debug("backtracking at r=%d", stack[-1][1])
            continue
        frame[4] = True
        nxt = add_matching(cur, m)
        if cur_r + 1 == target_r:
            return ExtensionTrace(r, target_r, steps + (m,), nxt)
        stack.append([nxt, cur_r + 1, steps + (m,),
                      _matching_candidates(nxt, cur_r + 1, strategy, backtrack), False])
    assert deepest is not None
    return deepest


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
         lambda n, r: r > 15 and r % 2 == 1 and n % 2 == 0 and n < 3 * r + 7),
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
