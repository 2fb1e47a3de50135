"""Raising regularity by adding perfect matchings of the complement.

One extension step finds a perfect matching of the complement and adds it,
turning an r-regular graph into an (r+1)-regular one on the same vertices.
Every extension runs up one ladder, ``extend_to``; ``extend_once`` is its
single step.  The ladder carries only the complement's rows.  Every level
takes the blossom matcher's mate list of the complement: a perfect
matching, which one O(n) step removes from the rows, or a Tutte violator.
A climb over many levels builds two complements, of the input graph and of
the last rows, and ``ExtensionTrace.verify`` replays a trace through the
same step.  ``dirac_cycle`` is the paper's route
for T1 (2r < n): the complement then has minimum degree >= n/2, so it has
a Hamiltonian cycle (Dirac), built by closing gaps in a cyclic order,
whose even edges are a perfect matching; ``regext verify --rule T1``
checks that construction.

``RULES`` holds one ``Rule`` record per sufficient or impossibility
condition this package verifies: its arithmetic hypothesis on (n, r), the
finder for its structural hypothesis and the check of what it finds, and
its conclusion with the proof of it.  ``classify`` evaluates every record
as an independent verdict with attached witnesses.  ``Rule.confirm`` runs
one record's verdict, witness check and proof on a graph; ``regext
verify`` runs it on instances drawn from the same records.  Every finder
is polynomial.  T5's (2r >= n and G contains K_{n/2}) is
``structure.half_clique``: for such r that clique exists exactly when the
d-regular complement, d = n - 1 - r, is bipartite with sides of n/2.  That
also proves T5's conclusion: by König's theorem a d-regular bipartite
graph has a perfect matching, and removing it leaves a (d - 1)-regular
bipartite graph, so every level of the ladder up to n - 1 has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from . import matching
from .graph import (Graph, GraphError, _mates, _set_to_mask, _unit_masks, complement,
                    is_connected, regularity, require_regular)
from .matching import Matching, TutteViolator, is_valid_matching, perfect_matching
from .structure import half_clique, l_vertex_bound, spanning_biclique


class DiracPreconditionError(GraphError):
    """Minimum degree below n/2 (or n < 3); carries a witness vertex."""

    def __init__(self, message: str, vertex: int | None = None):
        super().__init__(message)
        self.vertex = vertex


def validate_cycle(g: Graph, order: tuple[int, ...]) -> None:
    """Raise GraphError unless ``order`` is a Hamiltonian cycle of g (n >= 3)."""
    n = g.n
    if n < 3:
        raise GraphError(f"a cycle needs n >= 3, got n={n}")
    if len(order) != n or _set_to_mask(order, n) != g.vertex_mask():
        raise GraphError("cycle is not a permutation of the vertices")
    for u, v in zip(order, order[1:] + order[:1]):
        if not g.adj[u] >> v & 1:
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


def _step(rows: tuple[int, ...], mates: list[int]) -> tuple[int, ...]:
    """The complement's rows one level up: ``rows`` minus the perfect
    matching whose partner map is ``mates``.

    ``rows`` is the d-regular complement of the level's graph, and
    ``mates[v]`` is v's partner.  Checking the mates costs O(n): a label
    past n - 1 raises on lookup, and the partner of v's partner must be v
    for every v, so the map is an involution of 0..n-1 (no -1 for an
    unmatched vertex, no other negative label, no list of another length)
    and its pairs cover V.  Each row drops its partner's bit, and the
    result is (d - 1)-regular exactly when every pair is an edge of the
    complement; a vertex paired with itself would gain a degree instead.
    """
    n = len(rows)
    if not n:
        raise GraphError("the empty graph has no degree to raise")
    unit = _unit_masks(n)
    try:
        nxt = tuple([a ^ unit[u] for a, u in zip(rows, mates)])
        back = [mates[u] for u in mates]
    except IndexError:
        raise GraphError(f"partner label out of range for n={n}") from None
    if back != list(range(n)):
        raise GraphError("partners do not pair up")
    if set(map(int.bit_count, nxt)) != {rows[0].bit_count() - 1}:
        raise GraphError("a matching pair is not an edge of the complement")
    return nxt


@dataclass(frozen=True)
class ExtensionTrace:
    """Matchings added going from start_r to target_r, plus the end graph."""

    start_r: int
    target_r: int
    steps: tuple[Matching, ...]
    final: Graph

    def verify(self, g: Graph) -> bool:
        """Replay the steps through ``_step`` from the complement of the
        start_r-regular g."""
        if regularity(g) != self.start_r:
            return False
        n = g.n
        rows = complement(g).adj
        try:
            for step in self.steps:
                rows = _step(rows, _mates(step, n))
        except (TypeError, GraphError):  # steps that are not iterable, or a bad step
            return False
        final = complement(Graph(n, rows))
        return final == self.final and regularity(final) == self.target_r


@dataclass(frozen=True)
class ExtensionFailure:
    """Deepest obstruction met after exhausting backtracking alternatives."""

    reached_r: int
    steps: tuple[Matching, ...]
    violator: TutteViolator


def _alternatives(rows: tuple[int, ...], first: list[int],
                  backtrack: int) -> Iterator[list[int]]:
    """Up to ``backtrack`` other perfect matchings of the complement
    ``rows``, as mate lists.

    Each re-solves the complement with one pair of the first matching
    forbidden, pairs in ascending order, which is enough to escape a greedy
    dead end; a search that finds no perfect matching, or one already
    given, is skipped.
    """
    n = len(rows)
    unit = _unit_masks(n)
    seen = [first]
    for u, v in sorted(matching._pairs(first)):
        if len(seen) > backtrack:
            return
        pruned = list(rows)
        pruned[u] ^= unit[v]
        pruned[v] ^= unit[u]
        alt = matching._match_array(Graph(n, tuple(pruned)))[0]
        if -1 in alt or alt in seen:
            continue
        seen.append(alt)
        yield alt


def extend_to(
    g: Graph, target_r: int, backtrack: int = 0
) -> ExtensionTrace | ExtensionFailure:
    """Extend step by step to ``target_r``, backtracking on stuck levels.

    The ladder carries only the complement's rows.  Each level runs one
    blossom search on them; its mate list either steps to the next rows
    (``_step``) or, with a vertex left unmatched, gives the level's Tutte
    violator.  The trace's matchings are read off the mate lists and its
    final graph is the complement of the last rows.  With backtracking,
    every level that found a matching keeps a frame, and a stuck level
    resumes the deepest frame with an alternative left (``_alternatives``,
    searched only then); without it no frame is kept, and only the current
    level's rows stay alive.
    """
    r = require_regular(g)
    n = g.n
    if n % 2 == 1:
        raise GraphError(f"extension needs even n, got n={n}")
    if not r <= target_r <= n - 1:
        raise GraphError(f"target degree {target_r} outside {r}..{n - 1}")

    if r == target_r:
        return ExtensionTrace(r, target_r, (), g)
    deepest: ExtensionFailure | None = None
    rows = complement(g).adj
    cur_r = r
    steps: tuple[Matching, ...] = ()
    # levels that may be resumed: (rows, degree, steps so far, their
    # alternative matchings); depth-first in alternative order
    frames = []
    while True:
        gc = Graph(n, rows)
        # looked up at call time, so a matcher patched into the module runs
        mates, d_mask = matching._match_array(gc)
        if not d_mask:
            if backtrack > 0:
                frames.append((rows, cur_r, steps, _alternatives(rows, mates, backtrack)))
        else:
            if deepest is None or cur_r > deepest.reached_r:
                deepest = ExtensionFailure(
                    cur_r, steps, matching._gallai_edmonds_violator(gc, mates, d_mask))
            while frames:
                rows, cur_r, steps, alternatives = frames[-1]
                mates = next(alternatives, None)
                if mates is not None:
                    break
                frames.pop()
            else:
                return deepest
        rows = _step(rows, mates)
        steps += (matching._pairs(mates),)
        cur_r += 1
        if cur_r == target_r:
            return ExtensionTrace(r, target_r, steps, complement(Graph(n, rows)))


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


def _short_name(rule: str) -> str:
    """A rule's label: ``T4`` for ``T4-Impossible``."""
    return rule.split("-", 1)[0]


@dataclass(frozen=True)
class TheoremVerdict:
    rule: str
    applies: bool
    conclusion: str
    evidence: object = None

    short_rule = property(lambda self: _short_name(self.rule))


@dataclass(frozen=True)
class Unconfirmed:
    """The step of ``Rule.confirm`` that failed, and the witness it found."""

    kind: str
    witness: object = None


def _matched(h: Graph, m: Matching | None = None) -> TutteViolator | Unconfirmed | None:
    """None when m, by default the blossom matcher's, is a perfect matching
    of h; the matcher's Tutte violator is the failure itself.  L and C's
    proof, on g."""
    m = perfect_matching(h) if m is None else m
    if isinstance(m, TutteViolator):
        return m
    return None if is_valid_matching(h, m, perfect=True) else Unconfirmed("invalid-matching")


def _extends(g: Graph) -> TutteViolator | Unconfirmed | None:
    """T2 and T3: a perfect matching of the complement."""
    return _matched(complement(g))


def _dirac_extends(g: Graph) -> TutteViolator | Unconfirmed | None:
    """T1 by the paper's route: with 2r < n the complement has minimum
    degree >= n/2, so it has a Hamiltonian cycle (Dirac) whose even edges
    are a perfect matching.  A cycle needs n >= 3; the one smaller order in
    T1's region, (2, 0), takes the blossom matcher's matching."""
    gc = complement(g)
    return _matched(gc, cycle_to_matching(dirac_cycle(gc)) if g.n >= 3 else None)


def _stuck(g: Graph) -> Unconfirmed | None:
    """T4: a Tutte violator of the complement that verifies; the cells
    include K_n, which has no ladder rung."""
    gc = complement(g)
    m = perfect_matching(gc)
    ok = isinstance(m, TutteViolator) and m.verify(gc)
    return None if ok else Unconfirmed("extension-succeeded")


def _climbs(g: Graph) -> Unconfirmed | None:
    """T5: a ladder to n - 1 whose trace replays."""
    res = extend_to(g, g.n - 1)
    ok = isinstance(res, ExtensionTrace) and res.verify(g)
    return None if ok else Unconfirmed("full-extension-failed")


def _is_half_clique(g: Graph, w: frozenset[int]) -> bool:
    """T5's witness check: w is n/2 vertices of g, pairwise adjacent."""
    try:
        mask = _set_to_mask(w, g.n)
    except GraphError:
        return False
    return 2 * mask.bit_count() == g.n and all(mask & ~g.adj[v] == 1 << v for v in w)


@dataclass(frozen=True)
class Rule:
    """One theorem: its hypothesis on an r-regular G of order n, and its
    conclusion with the proof of it.

    ``holds(n, r)`` is the arithmetic hypothesis.  ``witness(g)``, when the
    rule has a structural hypothesis, returns a certificate for it or None;
    it runs only where ``holds`` does.  ``show_witness`` False keeps the
    certificate out of the verdict.  ``witness_ok(g, w)`` checks a shown
    witness, and ``prove(g)`` finds and checks the conclusion's certificate.
    """

    name: str
    conclusion: str
    holds: Callable[[int, int], bool]
    prove: Callable[[Graph], TutteViolator | Unconfirmed | None]
    witness: Callable[[Graph], object] | None = None
    show_witness: bool = True
    witness_ok: Callable[[Graph, object], bool] = lambda g, w: True

    short = property(lambda self: _short_name(self.name))

    def verdict(self, g: Graph, r: int) -> TheoremVerdict:
        holds = self.holds(g.n, r)
        if not holds or self.witness is None:
            return TheoremVerdict(self.name, holds, self.conclusion)
        found = self.witness(g)
        return TheoremVerdict(self.name, found is not None, self.conclusion,
                              evidence=found if self.show_witness else None)

    def confirm(self, g: Graph) -> TutteViolator | Unconfirmed | None:
        """None when the rule applies to g and ``prove`` confirms its
        conclusion, else the failure: ``rule-not-detected`` when the
        witness finder misses, ``invalid-witness`` when ``witness_ok``
        rejects what it found, else what ``prove`` returns."""
        verdict = self.verdict(g, require_regular(g))
        if not verdict.applies:
            return Unconfirmed("rule-not-detected")
        if not self.witness_ok(g, verdict.evidence):
            return Unconfirmed("invalid-witness", verdict.evidence)
        return self.prove(g)


# The sufficient and impossibility conditions, in the order classify reports
# them.  Each hypothesis is stated here and nowhere else.  Witness finders
# and proofs look their functions up at call time, so wrappers installed on
# the module (the benchmark's tracer) see every call.
RULES = (
    Rule("T1-Dirac", CONCLUSION_EXTENDABLE,
         lambda n, r: n % 2 == 0 and 2 * r < n, _dirac_extends),
    Rule("T2-EvenEven", CONCLUSION_EXTENDABLE,
         lambda n, r: n % 2 == 0 and r % 2 == 0
         and (3 * r < 2 * (n + 2) if n >= 52 else r < n - 16), _extends),
    Rule("T3-Biclique", CONCLUSION_EXTENDABLE,
         lambda n, r: n % 2 == 0 and r % 2 == 0
         and (4 * r < 3 * n if n >= 64 else r < n - 16), _extends,
         witness=lambda g: spanning_biclique(g), witness_ok=lambda g, w: w.verify(g)),
    Rule("T4-Impossible", CONCLUSION_NOT_EXTENDABLE,
         lambda n, r: n % 2 == 0 and 2 * r >= n, _stuck,
         witness=lambda g: spanning_biclique(g, require_odd_parts=True),
         witness_ok=lambda g, w: w.verify(g) and len(w.part_a) % 2 == len(w.part_b) % 2 == 1),
    Rule("T5-Clique", CONCLUSION_EXTENDABLE_ANY,
         lambda n, r: n % 2 == 0 and 2 * r >= n and n >= 2, _climbs,
         witness=lambda g: half_clique(g), witness_ok=_is_half_clique),
    Rule("L-Matching", CONCLUSION_HAS_PM,
         lambda n, r: r > 15 and r % 2 == 1 and n % 2 == 0 and n < l_vertex_bound(r),
         _matched),
    Rule("C-Disconnected", CONCLUSION_HAS_PM,
         lambda n, r: n % 2 == 0 and r > 15 and r % 2 == 1 and 4 * r >= n, _matched,
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
