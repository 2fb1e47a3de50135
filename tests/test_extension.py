import inspect
import random
import sys
import weakref
from fractions import Fraction

import pytest

from regext import (
    RULES,
    DiracPreconditionError,
    ExtensionFailure,
    ExtensionTrace,
    GraphError,
    TutteViolator,
    build,
    classify,
    complement,
    cycle_to_matching,
    dirac_cycle,
    extend_once,
    extend_to,
    format_graph6,
    is_valid_matching,
    parse_graph6,
    perfect_matching,
    random_regular,
    regularity,
    require_regular,
    validate_cycle,
)
from regext.extension import _matching_candidates, _step
from families import (
    cliques_plus_matching,
    complete_bipartite,
    complete_graph,
    cycle_graph,
)
import oracles
from oracles import OddCycle, complement_bipartite_check, extend_to_reference


class TestDiracCycle:
    def test_k4(self):
        c = dirac_cycle(complete_graph(4))
        validate_cycle(complete_graph(4), c)

    def test_c6_rejected(self):
        with pytest.raises(DiracPreconditionError) as exc:
            dirac_cycle(cycle_graph(6))
        assert exc.value.vertex is not None

    def test_tiny_rejected(self):
        with pytest.raises(DiracPreconditionError):
            dirac_cycle(complete_graph(2))

    def test_complement_of_c8(self):
        g = complement(cycle_graph(8))
        c = dirac_cycle(g)
        validate_cycle(g, c)
        assert len(c) == 8

    def test_deterministic(self):
        g = complement(cycle_graph(10))
        assert dirac_cycle(g) == dirac_cycle(g)

    @staticmethod
    def _random_min_degree_graph(rng, max_n):
        # random graph conditioned on min degree >= n/2: start from a
        # complete graph and delete edges while the condition survives
        n = rng.randrange(3, max_n + 1)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)}
        deg = {v: n - 1 for v in range(n)}
        for e in sorted(edges, key=lambda e: rng.random()):
            u, v = e
            if 2 * (deg[u] - 1) >= n and 2 * (deg[v] - 1) >= n:
                edges.remove(e)
                deg[u] -= 1
                deg[v] -= 1
        return build(n, edges)

    @staticmethod
    def _agrees_with_rotation(g) -> bool:
        """dirac_cycle and the rotation-extension reference both give a
        Hamiltonian cycle of g, or both refuse g with the same message and
        witness vertex; True when g has the cycle."""
        try:
            want = oracles.dirac_cycle_rotation(g)
        except DiracPreconditionError as refused:
            with pytest.raises(DiracPreconditionError) as exc:
                dirac_cycle(g)
            assert (str(exc.value), exc.value.vertex) == (str(refused), refused.vertex)
            return False
        validate_cycle(g, want)
        validate_cycle(g, dirac_cycle(g))
        return True

    def test_never_fails_on_200_random_dense_graphs(self):
        # the deletion leaves every edge with an endpoint at the least
        # degree >= n/2, so deleting one more edge goes below the threshold,
        # with a witness anywhere in the graph
        rng = random.Random(2024)
        for _ in range(200):
            g = self._random_min_degree_graph(rng, 64)
            assert self._agrees_with_rotation(g)
            edges = sorted(g.edges())
            drop = edges[rng.randrange(len(edges))]
            assert not self._agrees_with_rotation(build(g.n, set(edges) - {drop}))

    def test_t1_complements_agree_with_rotation(self, small_regular_corpus):
        # T1's region, 2r < n with n even: the graph is below the threshold
        # and its complement above it
        assert not self._agrees_with_rotation(complete_graph(2))
        checked = 0
        for (n, r), graphs in small_regular_corpus.items():
            if n % 2 or 2 * r >= n:
                continue
            for g in graphs:
                assert not self._agrees_with_rotation(g)
                assert self._agrees_with_rotation(complement(g)), format_graph6(g)
                checked += 1
        assert checked == 105

    def test_random_regular_complements_agree_with_rotation(self):
        sizes = [(n, r) for n in (12, 24, 50, 100) for r in (3, 4, n // 2 - 1)]
        sizes += [(n, r) for n in (200, 400) for r in (3, 4, 5)]
        for n, r in sizes:
            for seed in range(3):
                g = random_regular(n, r, seed)
                assert self._agrees_with_rotation(complement(g)), (n, r, seed)


class TestCycleToMatching:
    def test_square(self):
        assert cycle_to_matching((0, 1, 2, 3)) == frozenset({(0, 1), (2, 3)})

    def test_hexagon(self):
        assert cycle_to_matching((0, 1, 2, 3, 4, 5)) == frozenset(
            {(0, 1), (2, 3), (4, 5)})

    def test_odd_rejected(self):
        with pytest.raises(GraphError):
            cycle_to_matching((0, 1, 2, 3, 4))


class TestExtendOnce:
    def test_c6_dirac(self):
        # 2r < n, where T1 promises a matching; the step takes the blossom
        # matcher's
        g2, m = extend_once(cycle_graph(6))
        assert require_regular(g2) == 3
        assert m == perfect_matching(complement(cycle_graph(6)))
        assert is_valid_matching(complement(cycle_graph(6)), m, perfect=True)

    def test_k33_violator(self):
        v = extend_once(complete_bipartite(3, 3))
        assert isinstance(v, TutteViolator)
        assert v.s == frozenset() and v.odd_count == 2
        assert v.verify(complement(complete_bipartite(3, 3)))

    def test_two_k4s(self):
        g = cliques_plus_matching(4)
        g2, m = extend_once(g)
        assert require_regular(g2) == 5
        # complement is 3-regular bipartite, so a matching must exist
        assert is_valid_matching(complement(g), m, perfect=True)

    def test_empty_two_vertex_graph(self):
        # 2r < n, and the matcher finds K_2
        g2, m = extend_once(build(2, []))
        assert g2 == complete_graph(2) and m == frozenset({(0, 1)})

    def test_matcher_chosen_from_n_and_r(self, small_regular_corpus, monkeypatch):
        # the blossom matcher for every (n, r), 2r < n included: one search
        # of the complement, its answer returned as is, and no Dirac cycle
        from regext import extension

        cycles, solved = [], []
        monkeypatch.setattr(extension, "dirac_cycle",
                            lambda gc: cycles.append(gc) or dirac_cycle(gc))
        monkeypatch.setattr(extension, "perfect_matching",
                            lambda gc: solved.append(gc) or perfect_matching(gc))
        for (n, r), graphs in small_regular_corpus.items():
            if n % 2 or r > n - 2:
                continue
            for g in graphs:
                solved.clear()
                res = extend_once(g)
                gc = complement(g)
                assert solved == [gc], (n, r)
                expected = perfect_matching(gc)
                if isinstance(expected, TutteViolator):
                    assert res == expected, (n, r)
                else:
                    assert res[1] == expected, (n, r)
        assert cycles == []

    def test_odd_n_rejected(self):
        with pytest.raises(GraphError):
            extend_once(cycle_graph(5))

    def test_complete_rejected(self):
        with pytest.raises(GraphError):
            extend_once(complete_graph(4))

    def test_nonregular_rejected(self):
        with pytest.raises(GraphError):
            extend_once(build(4, [(0, 1), (1, 2)]))

    def test_result_contains_original(self, small_regular_corpus):
        for (n, r), graphs in small_regular_corpus.items():
            if n % 2 or r > n - 2:
                continue
            for g in graphs:
                res = extend_once(g)
                if isinstance(res, TutteViolator):
                    assert res.verify(complement(g))
                    continue
                g2, m = res
                assert require_regular(g2) == r + 1
                assert g2.n == g.n
                assert set(g.edges()) <= set(g2.edges())


class TestExtendTo:
    def test_two_k4s_to_complete(self):
        g = cliques_plus_matching(4)
        tr = extend_to(g, 7, backtrack=0)
        assert isinstance(tr, ExtensionTrace)
        assert tr.final == complete_graph(8)
        assert len(tr.steps) == 3
        assert tr.verify(g)

    def test_intermediate_complements_regular_bipartite(self):
        g = cliques_plus_matching(4)
        tr = extend_to(g, 7, backtrack=0)
        cur = g
        for step in tr.steps:
            gc = complement(cur)
            assert regularity(gc) is not None
            assert not isinstance(complement_bipartite_check(cur), OddCycle)
            from regext import add_matching

            cur = add_matching(cur, step)

    def test_c6_to_complete(self):
        tr = extend_to(cycle_graph(6), 5, backtrack=1)
        assert isinstance(tr, ExtensionTrace)
        assert tr.final == complete_graph(6)
        assert tr.verify(cycle_graph(6))

    def test_k33_failure(self):
        res = extend_to(complete_bipartite(3, 3), 4)
        assert isinstance(res, ExtensionFailure)
        assert res.violator.s == frozenset()
        assert res.reached_r == 3 and res.steps == ()

    def test_trivial_target(self):
        g = cycle_graph(6)
        tr = extend_to(g, 2)
        assert isinstance(tr, ExtensionTrace) and tr.steps == () and tr.final == g

    def test_backtracking_recovers_greedy_dead_end(self):
        # found by scanning all regular graphs with n <= 10: the greedy
        # first matching strands this one at r=5, one alternative saves it
        g = parse_graph6("GJiu]o")
        assert require_regular(g) == 4
        stuck = extend_to(g, 7, backtrack=0)
        assert isinstance(stuck, ExtensionFailure)
        assert stuck.violator.verify(
            complement(ExtensionTrace(4, 5, stuck.steps, _apply(g, stuck.steps)).final))
        tr = extend_to(g, 7, backtrack=2)
        assert isinstance(tr, ExtensionTrace)
        assert tr.verify(g)

    # malformed steps on C4, whose complement is the matching {02, 13}
    @pytest.mark.parametrize("step", [
        {(0, 2), (1, 3), (0, 1)},  # overlap, and 01 is an edge of C4
        {(0, 2)},  # 1 and 3 uncovered
        {(7, 0), (1, 3)},  # endpoint past n - 1
        {(-1, 2), (1, 3)},  # negative endpoint
    ])
    def test_verify_rejects_malformed_trace(self, step):
        g = cycle_graph(4)
        tr = ExtensionTrace(2, 3, (frozenset(step),), complete_graph(4))
        assert tr.verify(g) is False

    def test_verify_rejects_irregular_start(self):
        # the path 0-1-2-3 and the perfect matching {02, 13} of its
        # complement; no trace starts from an irregular graph
        g = build(4, [(0, 1), (1, 2), (2, 3)])
        m = frozenset({(0, 2), (1, 3)})
        assert ExtensionTrace(1, 1, (), g).verify(g) is False
        assert ExtensionTrace(1, 2, (m,), _apply(g, [m])).verify(g) is False

    def test_verify_checks_start_degree(self):
        # one step from a 4-regular graph reaches degree 5 whatever start_r
        # says; a trace claiming three levels for that one step is rejected
        g = cliques_plus_matching(4)
        m = perfect_matching(complement(g))
        assert require_regular(g) == 4
        assert ExtensionTrace(4, 5, (m,), _apply(g, [m])).verify(g)
        assert ExtensionTrace(2, 5, (m,), _apply(g, [m])).verify(g) is False

    def test_bad_target(self):
        with pytest.raises(GraphError):
            extend_to(cycle_graph(6), 6)
        with pytest.raises(GraphError):
            extend_to(cycle_graph(6), 1)


def _extend_to_recursive(g, target_r, backtrack):
    """Depth-first extension written recursively: the reference order."""
    r = require_regular(g)
    deepest = [None]

    def descend(cur, cur_r, steps):
        if cur_r == target_r:
            return ExtensionTrace(r, target_r, steps, cur)
        saw = False
        for m in _matching_candidates(complement(cur), backtrack):
            saw = True
            done = descend(_apply(cur, [m]), cur_r + 1, steps + (m,))
            if done is not None:
                return done
        if not saw and (deepest[0] is None or cur_r > deepest[0].reached_r):
            deepest[0] = ExtensionFailure(
                cur_r, steps, perfect_matching(complement(cur)))
        return None

    return descend(g, r, ()) or deepest[0]


class TestIterativeExtendTo:
    def test_deep_climb_under_tight_recursion_limit(self):
        # 39 levels; one stack frame per level would overflow this limit
        g = cliques_plus_matching(40)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 30)
        try:
            tr = extend_to(g, 79)
        finally:
            sys.setrecursionlimit(limit)
        assert isinstance(tr, ExtensionTrace) and tr.verify(g)

    def test_same_results_as_recursive_order(self, small_regular_corpus):
        # traces, failures and the backtracking order all stay the same
        stuck = 0
        for (n, r), graphs in small_regular_corpus.items():
            if n % 2 or n > 8:
                continue
            for g in graphs:
                for backtrack in (0, 1, 2):
                    got = extend_to(g, n - 1, backtrack=backtrack)
                    assert got == _extend_to_recursive(g, n - 1, backtrack), (g, backtrack)
                    stuck += isinstance(got, ExtensionFailure)
        assert stuck > 0
        g = parse_graph6("GJiu]o")  # greedy dead end at r=5, rescued by backtracking
        for backtrack in (0, 1, 2):
            assert extend_to(g, 7, backtrack) == _extend_to_recursive(g, 7, backtrack)

    @pytest.mark.parametrize("backtrack,levels", [(0, 2), (1, 3)])
    def test_one_complement_per_level(self, monkeypatch, backtrack, levels):
        # one complement per climb: each level's complement is the one below
        # minus the matching just added, built by the step with the next
        # graph; the module has no add_matching to call.  With backtracking
        # the dead end at r=6 and its rescue are two levels on different
        # graphs
        from regext import extension

        assert not hasattr(extension, "add_matching")
        g = parse_graph6("GJiu]o")
        expected = _extend_to_recursive(g, 7, backtrack)
        calls, searched = [], []
        fn, search = extension.complement, extension._matching_candidates
        monkeypatch.setattr(extension, "complement", lambda g: calls.append(g) or fn(g))
        monkeypatch.setattr(extension, "_matching_candidates",
                            lambda gc, backtrack:
                            searched.append(gc) or search(gc, backtrack))
        assert extend_to(g, 7, backtrack=backtrack) == expected
        assert calls == [g]
        assert len(searched) == len(set(searched)) == levels
        assert searched[0] == complement(g)

    def test_backtrack_zero_keeps_one_level(self, monkeypatch):
        # without alternatives no level is resumed: when a step starts, the
        # graphs and complements of every level below the current one are
        # freed, so a deep climb holds one level, not one per degree
        from regext import extension

        made = []
        step = extension._step

        def recording_step(g, gc, m):
            assert all(ref() is None for refs in made[:-1] for ref in refs)
            nxt = step(g, gc, m)
            made.append([weakref.ref(h) for h in nxt])
            return nxt

        monkeypatch.setattr(extension, "_step", recording_step)
        g = cliques_plus_matching(40)
        assert isinstance(extend_to(g, 60), ExtensionTrace)
        assert len(made) == 20


class TestDiracFirstLevel:
    """The ladder's first level, like every level above it, takes the
    blossom matcher; only T1's check builds a Dirac cycle."""

    @pytest.mark.parametrize("backtrack", [0, 1])
    def test_no_cycle_on_the_ladder(self, monkeypatch, small_regular_corpus, backtrack):
        # cubic climbs to 3n/4 cross many levels with 2r < n, and every
        # small class takes a single step and climbs to n - 1; none builds
        # a cycle, and every trace and every violator re-checks
        from regext import extension

        cycles = []
        monkeypatch.setattr(extension, "dirac_cycle",
                            lambda gc: cycles.append(gc) or dirac_cycle(gc))
        rng = random.Random(15)
        climbs = [(g, 3 * g.n // 4) for g in (
            random_regular(2 * rng.randrange(8, 33), 3, rng.getrandbits(32))
            for _ in range(12))]
        climbs += [(g, target) for (n, r), graphs in small_regular_corpus.items()
                   if n % 2 == 0 and r <= n - 2 for g in graphs for target in {r + 1, n - 1}]
        dirac_region = 0
        for g, target in climbs:
            res = extend_to(g, target, backtrack=backtrack)
            where = (format_graph6(g), target)
            if isinstance(res, ExtensionTrace):
                assert res.verify(g), where
            else:
                assert res.violator.verify(complement(_apply(g, res.steps))), where
            dirac_region += 2 * require_regular(g) < g.n
        assert cycles == []
        assert dirac_region > 12

    def test_first_level_alternatives_distinct(self, monkeypatch):
        # the first level's alternatives re-solve the blossom matcher's
        # matching with one edge forbidden, and each re-solve finds a new one
        from regext import extension

        g = random_regular(20, 3, 4)
        gc = complement(g)
        calls, levels = [], []
        search, solve = extension._matching_candidates, extension.perfect_matching
        monkeypatch.setattr(extension, "perfect_matching",
                            lambda h: calls.append(h) or solve(h))

        def drained(*args, **kwargs):
            levels.append(list(search(*args, **kwargs)))
            return iter(levels[-1])

        monkeypatch.setattr(extension, "_matching_candidates", drained)
        assert isinstance(extend_to(g, 4, backtrack=3), ExtensionTrace)
        (first,) = levels
        assert len(first) == len(set(first)) == len(calls) == 4
        assert all(is_valid_matching(gc, m, perfect=True) for m in first)
        assert list(search(gc, 3)) == first

    def test_blossom_levels_above_run_few_phases(self, bounded_phases):
        # the blossom levels of a long ladder need almost no phases when the
        # levels below them came from the blossom matcher, and dozens when
        # they came from Dirac cycle halves (58 measured)
        g = random_regular(200, 3, 7)
        tr = extend_to(g, 150)
        assert isinstance(tr, ExtensionTrace) and tr.verify(g)
        assert len(bounded_phases) <= 5
        bounded_phases.clear()
        assert isinstance(extend_to_reference(g, 150, dirac="pairs"), ExtensionTrace)
        assert len(bounded_phases) >= 40


class TestStep:
    def test_next_graph_and_complement_together(self, small_regular_corpus):
        for (n, r), graphs in small_regular_corpus.items():
            if n % 2 or r > n - 2:
                continue
            for g in graphs:
                gc = complement(g)
                m = perfect_matching(gc)
                if isinstance(m, TutteViolator):
                    continue
                nxt, nxt_c = _step(g, gc, m)
                assert nxt == _apply(g, [m]) and nxt_c == complement(nxt)
                assert regularity(nxt) == r + 1

    # the faults add_matching raises on, plus those a perfect matching rules
    # out: each must still raise although the step checks only partner bits
    # and degrees
    @pytest.mark.parametrize("pairs", [
        [(0, 1), (2, 3), (4, 5)],  # (0,1) is already an edge of C6
        [(0, 3), (3, 5), (1, 4)],  # overlap at 3, vertex 2 uncovered
        [(0, 3), (1, 4)],  # 2 and 5 uncovered
        # two triangles of pairs: every vertex has a partner bit, the
        # partner map is no involution and would make an asymmetric graph
        [(0, 2), (2, 4), (4, 0), (1, 3), (3, 5), (5, 1)],
        [(0, 0), (1, 4), (2, 5)],  # self-pair
        [(0, 6), (1, 4), (2, 5)],  # out of range
    ])
    def test_rejects_bad_matching(self, pairs):
        g = cycle_graph(6)
        with pytest.raises(GraphError):
            _step(g, complement(g), pairs)

    def test_empty_graph_has_no_step(self):
        # no matching raises the empty graph's degree; a trace claiming a
        # step on it is rejected rather than failing on a missing row
        g = build(0, [])
        with pytest.raises(GraphError):
            _step(g, g, frozenset())
        assert ExtensionTrace(0, 1, (frozenset(),), g).verify(g) is False


def _paper_hypotheses(n, r):
    """Each rule's hypothesis as the paper bounds read, written out here
    independently of ``RULES``."""
    even, half = n % 2 == 0, Fraction(n, 2)
    return {
        "T1-Dirac": even and r < half,
        "T2-EvenEven": even and r % 2 == 0
        and (r < Fraction(2 * n + 4, 3) if n >= 52 else r <= n - 17),
        "T3-Biclique": even and r % 2 == 0
        and (r < Fraction(3 * n, 4) if n >= 64 else r <= n - 17),
        "T4-Impossible": even and r >= half,
        "T5-Clique": even and n >= 2 and r >= half,
        "L-Matching": even and r % 2 == 1 and r >= 17 and n <= 3 * r + 6,
        "C-Disconnected": even and r % 2 == 1 and r >= 17 and n <= 4 * r,
    }


class TestRuleTable:
    def test_hypotheses_match_paper_bounds(self):
        for n in range(81):
            for r in range(n):
                expected = _paper_hypotheses(n, r)
                assert [rule.name for rule in RULES] == list(expected)
                for rule in RULES:
                    assert rule.holds(n, r) == expected[rule.name], (rule.name, n, r)

    def test_classify_reads_the_table(self, small_regular_corpus):
        for (n, r), graphs in small_regular_corpus.items():
            for g in graphs:
                verdicts = classify(g)
                assert [v.rule for v in verdicts] == [rule.name for rule in RULES]
                for rule, v in zip(RULES, verdicts):
                    assert v.conclusion == rule.conclusion
                    if not rule.holds(n, r):
                        assert not v.applies and v.evidence is None


def _apply(g, steps):
    from regext import add_matching

    for m in steps:
        g = add_matching(g, m)
    return g


class TestClassify:
    def test_c6(self):
        verdicts = {v.rule: v for v in classify(cycle_graph(6))}
        assert verdicts["T1-Dirac"].applies
        assert verdicts["T1-Dirac"].conclusion == "extendable"
        assert not verdicts["T4-Impossible"].applies

    def test_k33(self):
        verdicts = {v.rule: v for v in classify(complete_bipartite(3, 3))}
        t4 = verdicts["T4-Impossible"]
        assert t4.applies and t4.conclusion == "not-extendable"
        assert sorted(map(len, (t4.evidence.part_a, t4.evidence.part_b))) == [3, 3]

    def test_17_regular_on_52(self):
        g = random_regular(52, 17, seed=11)
        verdicts = {v.rule: v for v in classify(g)}
        assert verdicts["L-Matching"].applies  # 52 < 3*17 + 7 = 58
        assert verdicts["L-Matching"].conclusion == "has-perfect-matching"

    def test_t5_two_k4s(self):
        verdicts = {v.rule: v for v in classify(cliques_plus_matching(4))}
        t5 = verdicts["T5-Clique"]
        assert t5.applies and t5.conclusion == "extendable-to-any-r'"
        assert len(t5.evidence) == 4

    def test_nonregular_rejected(self):
        with pytest.raises(GraphError):
            classify(build(3, [(0, 1)]))

    def test_t2_small_even(self):
        g = random_regular(20, 2, seed=3)
        verdicts = {v.rule: v for v in classify(g)}
        assert verdicts["T2-EvenEven"].applies  # 2 < 20 - 16

    def test_clique_limit_note(self):
        g = cliques_plus_matching(21)  # n = 42 > CLIQUE_SEARCH_LIMIT
        verdicts = {v.rule: v for v in classify(g)}
        t5 = verdicts["T5-Clique"]
        assert not t5.applies and "skipped" in t5.note

    def test_soundness_on_corpus(self, small_regular_corpus):
        # no graph may be both provably extendable and provably not; every
        # positive verdict is confirmed by constructing the object
        for (n, r), graphs in small_regular_corpus.items():
            if n % 2:
                continue
            for g in graphs:
                verdicts = [v for v in classify(g) if v.applies]
                extendable = [v for v in verdicts
                              if v.conclusion in ("extendable", "extendable-to-any-r'")]
                impossible = [v for v in verdicts if v.conclusion == "not-extendable"]
                if r <= n - 2:
                    assert not (extendable and impossible)
                else:
                    # complete graph: "extendable to any r' <= n-1" holds
                    # vacuously alongside "cannot reach r+1 = n"
                    assert not any(v.conclusion == "extendable" for v in extendable)
                for v in verdicts:
                    if v.conclusion == "extendable":
                        assert not isinstance(extend_once(g), TutteViolator)
                    elif v.conclusion == "extendable-to-any-r'":
                        tr = extend_to(g, n - 1, backtrack=0)
                        assert isinstance(tr, ExtensionTrace) and tr.verify(g)
                    elif v.conclusion == "has-perfect-matching":
                        assert not isinstance(perfect_matching(g), TutteViolator)
                    elif v.conclusion == "not-extendable":
                        assert isinstance(perfect_matching(complement(g)), TutteViolator)

    def test_t4_implies_complement_violator(self, small_regular_corpus):
        for (n, r), graphs in small_regular_corpus.items():
            for g in graphs:
                verdicts = {v.rule: v for v in classify(g)}
                if verdicts["T4-Impossible"].applies:
                    v = perfect_matching(complement(g))
                    assert isinstance(v, TutteViolator) and v.verify(complement(g))
