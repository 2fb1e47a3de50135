import inspect
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regext import (
    GraphError,
    balloons,
    build,
    check_balloon_bound,
    check_ineq_kr,
    check_ineq_x,
    clique_number,
    complement,
    components_after_deletion,
    enumerate_regular,
    find_bridges,
    find_clique,
    format_graph6,
    parse_graph6,
    random_regular,
    sample_disconnected_regular,
    spanning_biclique,
)
from families import (
    balloon_cubic_pair,
    bridged_cubic,
    cliques_plus_matching,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)

import oracles
from oracles import OddCycle, balloon_bound_checker_reference, complement_bipartite_check
from regext import structure
from regext.structure import _balloon_count, balloon_bound_checker, half_clique


class TestBridgesAndBalloons:
    def test_cycle_has_none(self):
        rep = balloons(cycle_graph(5))
        assert rep.bridges == () and rep.b == 0
        assert len(rep.blocks) == 1

    def test_single_edge(self):
        rep = balloons(build(2, [(0, 1)]))
        # singleton endpoints are vacuously 2-edge-connected, so both balloon
        assert rep.bridges == ((0, 1),) and rep.b == 2

    def test_cubic_bridge_pair(self):
        g = balloon_cubic_pair()
        rep = balloons(g)
        assert rep.bridges == ((4, 9),)
        assert rep.b == 2
        assert sorted(sorted(b) for b in rep.balloons) == [
            [0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_path(self):
        rep = balloons(path_graph(4))
        assert len(rep.bridges) == 3
        assert rep.b == 2  # only the end blocks touch exactly one bridge

    def test_star(self):
        rep = balloons(star_graph(4))
        assert len(rep.bridges) == 4 and rep.b == 4

    def test_blocks_partition_vertices(self, small_regular_corpus):
        for graphs in small_regular_corpus.values():
            for g in graphs:
                rep = balloons(g)
                assert sorted(v for blk in rep.blocks for v in blk) == list(range(g.n))

    def test_bridges_against_deletion_oracle(self, small_regular_corpus):
        count = 0
        for (n, r), graphs in small_regular_corpus.items():
            if n > 8 or r > 4:
                continue
            for g in graphs:
                bridges = set(find_bridges(g))
                for u, v in g.edges():
                    assert ((u, v) in bridges) == oracles.is_bridge_by_deletion(g, u, v)
                    count += 1
        assert count > 100

    def test_bridges_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(11)
        with_bridges = 0
        for _ in range(500):
            n = rng.randrange(31)
            # around the connectivity threshold bridges are common
            p = rng.choice((0.05, 0.1, 0.2, 0.4)) if n else 0.0
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(edges)
            expected = sorted((min(u, v), max(u, v)) for u, v in nx.bridges(h))
            got = find_bridges(build(n, edges))
            assert got == expected, (n, p)
            with_bridges += bool(got)
        assert with_bridges >= 200

    def test_balloons_match_networkx(self):
        # bridges, then the components once they are cut, then the
        # components that touch exactly one bridge
        nx = pytest.importorskip("networkx")
        rng = random.Random(17)
        graphs = [bridged_cubic(n, seed) for n in range(10, 41, 2) for seed in range(3)]
        for _ in range(300):
            n = rng.randrange(1, 31)
            p = rng.choice((0.05, 0.1, 0.2))
            graphs.append(build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                    if rng.random() < p]))
        with_balloons = 0
        for g in graphs:
            bridges, blocks, expected = self._by_networkx(nx, g)
            rep = balloons(g)
            assert list(rep.bridges) == bridges, g
            assert sorted(rep.blocks, key=min) == blocks, g
            assert sorted(rep.balloons, key=min) == expected, g
            with_balloons += rep.b > 0
        assert with_balloons >= 200

    def test_parity_path_against_networkx(self, small_regular_corpus, monkeypatch):
        # regular graphs with r != 1 and r even or n < 2r + 4 get no bridge
        # search; r = 1 and n = 2r + 4 keep it, and every answer is
        # networkx's, blocks in ascending minimum
        nx = pytest.importorskip("networkx")
        graphs = [g for n in range(4) for r in range(n) if n * r % 2 == 0
                  for g in enumerate_regular(n, r)]
        graphs += [g for gs in small_regular_corpus.values() for g in gs]
        graphs += [random_regular(n, r, seed) for n in range(12, 31, 2)
                   for r in range(n) for seed in range(2)]
        graphs += [sample_disconnected_regular(20, 4, 5), sample_disconnected_regular(24, 5, 6)]
        graphs += [bridged_cubic(10, seed) for seed in range(5)]
        searched = []
        search = structure.find_bridges
        monkeypatch.setattr(structure, "find_bridges", lambda h: searched.append(h) or search(h))
        want_search = []
        with_balloons = 0
        for g in graphs:
            r = g.degree(0) if g.n else 0
            if r == 1 or (r % 2 == 1 and g.n >= 2 * r + 4):
                want_search.append(g)
            bridges, blocks, expected = self._by_networkx(nx, g)
            rep = balloons(g)
            assert list(rep.bridges) == bridges, g
            assert list(rep.blocks) == blocks, g
            assert sorted(rep.balloons, key=min) == expected, g
            with_balloons += rep.b > 0
        assert searched == want_search
        assert 500 < len(graphs) - len(searched)
        assert with_balloons >= 8

    @staticmethod
    def _by_networkx(nx, g):
        """Bridges, blocks and balloons from networkx, blocks by ascending
        minimum."""
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        bridges = sorted((min(u, v), max(u, v)) for u, v in nx.bridges(h))
        h.remove_edges_from(bridges)
        blocks = sorted((frozenset(c) for c in nx.connected_components(h)), key=min)
        expected = [blk for blk in blocks
                    if sum((u in blk) != (v in blk) for u, v in bridges) == 1]
        return bridges, blocks, expected

    @staticmethod
    def _by_deletion(g):
        """Bridges, blocks and balloons from the deletion oracle and
        union-find components."""
        bridges = [e for e in g.edges() if oracles.is_bridge_by_deletion(g, *e)]
        cut = build(g.n, [e for e in g.edges() if e not in bridges])
        blocks = [frozenset(c) for c in oracles.unionfind_components(cut)]
        expected = [blk for blk in blocks
                    if sum((u in blk) + (v in blk) for u, v in bridges) == 1]
        return bridges, blocks, expected

    def test_trees_and_caterpillars_against_deletion_oracle(self):
        # every vertex of a tree is a block; a caterpillar whose spine
        # vertices are cycles has blocks that touch several bridges, some
        # of them at one vertex
        rng = random.Random(23)
        graphs = [build(n, [(rng.randrange(v), v) for v in range(1, n)])
                  for n in range(1, 41) for _ in range(2)]
        for spine in range(1, 13):
            for cycles in (False, True):
                edges = []
                heads = []
                n = 0
                for _ in range(spine):
                    size = rng.choice((3, 4, 5)) if cycles and rng.random() < 0.6 else 1
                    block = list(range(n, n + size))
                    if size > 1:
                        edges += [(block[i], block[(i + 1) % size]) for i in range(size)]
                    heads.append(block)
                    n += size
                edges += [(rng.choice(a), rng.choice(b)) for a, b in zip(heads, heads[1:])]
                for block in heads:
                    for _ in range(rng.randrange(4)):
                        edges.append((rng.choice(block), n))
                        n += 1
                graphs.append(build(n, edges))
        several = 0
        for g in graphs:
            bridges, blocks, expected = self._by_deletion(g)
            rep = balloons(g)
            assert list(rep.bridges) == bridges, g
            assert sorted(rep.blocks, key=min) == sorted(blocks, key=min), g
            assert sorted(rep.balloons, key=min) == sorted(expected, key=min), g
            several += any(len(blk) > 1 and sum((u in blk) + (v in blk) for u, v in bridges) > 1
                           for blk in blocks)
        assert several >= 5

    def test_long_path(self):
        # one pass over the bridges: a scan of every bridge per block took
        # seconds at a few thousand vertices
        n = 20000
        rep = balloons(path_graph(n))
        assert len(rep.bridges) == n - 1 and len(rep.blocks) == n
        assert sorted(rep.balloons, key=min) == [frozenset({0}), frozenset({n - 1})]

    def test_connected_cubic_balloons_have_five_vertices(self, small_regular_corpus):
        # minimum balloon size in a cubic graph is r + 2 = 5
        for (n, r), graphs in small_regular_corpus.items():
            if r != 3:
                continue
            for g in graphs:
                for blk in balloons(g).balloons:
                    assert len(blk) >= 5

    def test_bridge_block_tree_is_forest(self, small_regular_corpus):
        # contracting blocks and keeping bridges must leave an acyclic graph
        for (n, r), graphs in small_regular_corpus.items():
            if n > 8:
                continue
            for g in graphs:
                rep = balloons(g)
                owner = {}
                for i, blk in enumerate(rep.blocks):
                    for v in blk:
                        owner[v] = i
                tree_edges = {(min(owner[u], owner[v]), max(owner[u], owner[v]))
                              for u, v in rep.bridges}
                assert len(tree_edges) == len(rep.bridges)  # no parallel bridges
                t = build(len(rep.blocks), tree_edges)
                comps = len(components_after_deletion(t))
                assert len(tree_edges) == t.n - comps  # forest identity


class TestBalloonBound:
    def test_balloon_graph_empty_set(self):
        chk = check_balloon_bound(balloon_cubic_pair(), ())
        assert chk.applicable and chk.holds
        assert chk.lhs == 0 and chk.rhs == 3

    def test_k4_empty_set(self):
        chk = check_balloon_bound(complete_graph(4), ())
        assert chk.applicable and chk.holds
        assert chk.lhs == 0 and chk.rhs == 0

    def test_bridge_endpoint(self):
        # deleting one subdivision vertex leaves an even K_4-minus-edge block
        # and the odd far half, which meets S through the single bridge
        g = balloon_cubic_pair()
        chk = check_balloon_bound(g, {4})
        parts = components_after_deletion(g, {4})
        assert parts.odd_count == oracles.odd_component_count(g, {4}) == 1
        assert chk.applicable
        assert chk.lhs == Fraction(0) and chk.rhs == Fraction(3, 1)
        assert chk.rhs_alt == Fraction(4, 3)
        assert chk.holds and chk.holds_alt

    def test_not_applicable(self):
        # K_4 with S = one vertex: the odd K_3 component sends 3 edges, and
        # 3 is neither 1 nor >= r is false (3 >= 3), so pick r=4 via K_5 minus
        # a perfect... use the 5-cycle instead: r=2 always applicable check
        g = cycle_graph(6)
        chk = check_balloon_bound(g, {0})
        # odd component C_5-path sends 2 edges into S; 2 != 1 and 2 >= r=2
        assert chk.applicable

    def test_requires_regular(self):
        with pytest.raises(GraphError):
            check_balloon_bound(star_graph(3), ())

    def test_requires_degree_two(self):
        with pytest.raises(GraphError):
            check_balloon_bound(build(2, [(0, 1)]), ())

    @pytest.mark.parametrize("v", [-1, 10])
    def test_out_of_range_vertex(self, v):
        with pytest.raises(GraphError, match=f"deleted vertex {v} out of range for n=10"):
            check_balloon_bound(balloon_cubic_pair(), [0, v])

    def test_never_violated_on_odd_regular_corpus(self, small_regular_corpus):
        checked = 0
        for (n, r), graphs in small_regular_corpus.items():
            if r % 2 == 0 or r < 3 or n > 8:
                continue
            for g in graphs:
                for k in range(3):
                    for s in combinations(range(n), k):
                        chk = check_balloon_bound(g, s)
                        if chk.applicable:
                            assert chk.holds
                            checked += 1
        assert checked > 50


class TestBalloonBoundOracle:
    """The mask check against the report-based reference in ``oracles``."""

    def test_every_odd_class_small_sets(self, small_regular_corpus):
        checked = 0
        for (n, r), graphs in small_regular_corpus.items():
            if r % 2 == 0 or r < 3:
                continue
            for g in graphs:
                check = balloon_bound_checker(g)
                want = balloon_bound_checker_reference(g)
                for k in range(4):
                    for s in combinations(range(n), k):
                        assert check(s) == want(s), (g, s)
                        checked += 1
        assert checked > 15000

    def test_bridged_cubic_random_sets(self):
        rng = random.Random(5)
        graphs = [balloon_cubic_pair()] + [bridged_cubic(n, seed)
                                           for n in range(10, 31, 2) for seed in range(4)]
        for g in graphs:
            assert balloons(g).b >= 2
            check = balloon_bound_checker(g)
            want = balloon_bound_checker_reference(g)
            for _ in range(40):
                size = rng.randrange(g.n + 1)
                # rng.choices repeats vertices; each counts once
                s = (rng.choices(range(g.n), k=size) if rng.randrange(2)
                     else rng.sample(range(g.n), size))
                assert check(s) == want(s) == check_balloon_bound(g, s), (g, s)

    def test_shared_checker_switches_graphs(self):
        # A needs the bridge search (n = 2r + 4), B does not, and A2 is a
        # distinct object equal to A; one checker is kept at a time
        balloon_bound_checker.cache_clear()
        a = next(g for g in enumerate_regular(10, 3) if balloons(g).b)
        b = next(enumerate_regular(8, 3))
        a2 = parse_graph6(format_graph6(a))
        assert a2 is not a and a2 == a
        checked = 0
        for g in (a, b, a2):
            want = balloon_bound_checker_reference(g)
            for k in range(4):
                for s in combinations(range(g.n), k):
                    assert check_balloon_bound(g, s) == want(s), (g, s)
                    checked += 1
        assert checked == 176 + 93 + 176
        # A2's checker serves A: equal graphs share it
        assert check_balloon_bound(a, ()) == balloon_bound_checker_reference(a)(())
        info = balloon_bound_checker.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, checked - 3 + 1, 1)
        # a cached graph does not let a bad one through
        with pytest.raises(GraphError):
            check_balloon_bound(star_graph(3), ())
        with pytest.raises(GraphError):
            check_balloon_bound(build(2, [(0, 1)]), ())

    def test_equal_results_are_one_object(self):
        # a result depends on the graph and on (applicable, lhs) alone, so
        # the checker hands out one object per distinct result
        g = balloon_cubic_pair()
        check = balloon_bound_checker(g)
        results = [check(s) for k in range(4) for s in combinations(range(g.n), k)]
        assert len(set(map(id, results))) == len(set(results)) > 1

    def test_one_bridge_search_per_graph(self, monkeypatch):
        balloon_bound_checker.cache_clear()
        g = balloon_cubic_pair()
        sets = [s for k in range(4) for s in combinations(range(g.n), k)]
        want = balloon_bound_checker_reference(g)
        expected = [want(s) for s in sets]
        calls = []
        bridges = structure.find_bridges
        monkeypatch.setattr(structure, "find_bridges",
                            lambda h: calls.append(h) or bridges(h))
        assert [check_balloon_bound(g, s) for s in sets] == expected
        assert (len(sets), len(calls)) == (176, 1)

    def test_parity_bound_against_networkx(self, small_regular_corpus):
        # no bridge when r is even or n < 2r + 4
        nx = pytest.importorskip("networkx")
        graphs = [g for gs in small_regular_corpus.values() for g in gs]
        graphs += [random_regular(n, r, seed) for n in range(12, 31, 2)
                   for r in range(2, n) for seed in range(2)
                   if r % 2 == 0 or n < 2 * r + 4]
        checked = 0
        for g in graphs:
            r = g.degree(0)
            if r < 2 or (r % 2 == 1 and g.n >= 2 * r + 4):
                continue
            assert not nx.has_bridges(nx.Graph(list(g.edges()))), g
            assert _balloon_count(g, r) == balloons(g).b == 0
            checked += 1
        assert checked > 400
        # and it is tight: n = 10 = 2 * 3 + 4 has a cubic graph with a bridge
        g = balloon_cubic_pair()
        assert g.n == 2 * 3 + 4
        assert nx.has_bridges(nx.Graph(list(g.edges())))
        assert _balloon_count(g, 3) == balloons(g).b == 2


class TestClique:
    def test_k4(self):
        assert find_clique(complete_graph(4), 4) == frozenset({0, 1, 2, 3})

    def test_c5_triangle_free(self):
        assert find_clique(cycle_graph(5), 3) is None

    def test_two_k4s(self):
        g = cliques_plus_matching(4)
        c = find_clique(g, 4)
        assert c in (frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}))
        assert find_clique(g, 5) is None

    def test_found_cliques_are_cliques(self, small_regular_corpus):
        for graphs in small_regular_corpus.values():
            for g in graphs:
                for k in (2, 3, g.n // 2):
                    c = find_clique(g, k)
                    if c is not None:
                        assert len(c) == k
                        assert all(g.has_edge(u, v) for u in c for v in c if u < v)

    def test_oversized_request(self):
        assert find_clique(complete_graph(3), 7) is None

    def test_bad_k(self):
        with pytest.raises(GraphError):
            find_clique(complete_graph(3), 0)


class TestCliqueNumber:
    def test_small_families(self):
        assert clique_number(build(0, [])) == 0
        assert clique_number(build(3, [])) == 1
        assert clique_number(cycle_graph(5)) == 2
        assert clique_number(complete_graph(7)) == 7
        assert clique_number(cliques_plus_matching(5)) == 5

    def test_agrees_with_find_clique(self, small_regular_corpus):
        for graphs in small_regular_corpus.values():
            for g in graphs:
                w = clique_number(g)
                assert find_clique(g, w) is not None
                assert w == g.n or find_clique(g, w + 1) is None

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(5)
        for _ in range(120):
            n = rng.randrange(41)
            p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(edges)
            _, size = nx.algorithms.clique.max_weight_clique(h, weight=None)
            assert clique_number(build(n, edges)) == size, (n, p)

    def test_same_clique_as_recursive_search(self):
        # the explicit stack branches in the recursion's order, so both
        # stop at the same clique, listed in the order its vertices were
        # chosen
        rng = random.Random(9)
        for _ in range(150):
            n = rng.randrange(30)
            p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
            g = build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            for floor, stop in [(0, n)] + [(k - 1, k) for k in range(2, min(n, 8) + 1)]:
                assert structure._clique_search(g, floor, stop) == \
                    oracles.clique_search_recursive(g, floor, stop), (g, floor, stop)

    def test_no_recursion(self):
        # one stack frame per clique vertex would overflow this limit
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 30)
        try:
            w = clique_number(complete_graph(150))
            c = find_clique(cliques_plus_matching(100), 100)
        finally:
            sys.setrecursionlimit(limit)
        assert w == 150
        assert c in (frozenset(range(100)), frozenset(range(100, 200)))


class TestSpanningBiclique:
    def test_k33_odd_parts(self):
        w = spanning_biclique(complete_bipartite(3, 3), require_odd_parts=True)
        assert sorted(map(len, (w.part_a, w.part_b))) == [3, 3]
        assert w.verify(complete_bipartite(3, 3))

    def test_k4_odd_parts(self):
        w = spanning_biclique(complete_graph(4), require_odd_parts=True)
        assert sorted(map(len, (w.part_a, w.part_b))) == [1, 3]
        assert w.verify(complete_graph(4))

    def test_c6_none(self):
        assert spanning_biclique(cycle_graph(6)) is None

    def test_odd_parts_unreachable(self):
        # complement of C_4 is two disjoint edges: components all even
        assert spanning_biclique(cycle_graph(4)) is not None
        assert spanning_biclique(cycle_graph(4), require_odd_parts=True) is None

    def test_matches_complement_component_count(self, small_regular_corpus):
        for graphs in small_regular_corpus.values():
            for g in graphs:
                w = spanning_biclique(g)
                disconnected = len(components_after_deletion(complement(g))) >= 2
                assert (w is not None) == disconnected
                if w is not None:
                    assert w.verify(g)


class TestComplementBipartite:
    def test_two_k4s_plus_matching(self):
        g = cliques_plus_matching(4)
        res = complement_bipartite_check(g)
        assert res == (frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}))

    def test_c6_refuted_by_odd_cycle(self):
        res = complement_bipartite_check(cycle_graph(6))
        assert isinstance(res, OddCycle)
        assert res.verify_in_complement(cycle_graph(6))

    def test_k2(self):
        res = complement_bipartite_check(complete_graph(2))
        assert not isinstance(res, OddCycle)

    def test_parts_cover_and_are_independent_in_complement(self, small_regular_corpus):
        for graphs in small_regular_corpus.values():
            for g in graphs:
                res = complement_bipartite_check(g)
                gc = complement(g)
                if isinstance(res, OddCycle):
                    assert res.verify_in_complement(g)
                else:
                    a, b = res
                    assert a | b == frozenset(range(g.n)) and not a & b
                    for part in (a, b):
                        assert not any(gc.has_edge(u, v)
                                       for u in part for v in part if u < v)


class TestHalfClique:
    """T5's witness against the BFS 2-colouring of ``tests/oracles.py``;
    ``test_extension.py`` checks T5 against ``find_clique``."""

    def test_complete_graphs(self):
        # d = 0: any n/2 vertices; on K_2 the same answer as find_clique
        assert half_clique(complete_graph(2)) == find_clique(complete_graph(2), 1) == {0}
        assert half_clique(complete_graph(8)) == {0, 1, 2, 3}

    def test_two_k4s_plus_matching(self):
        assert half_clique(cliques_plus_matching(4)) == {0, 1, 2, 3}
        assert half_clique(cycle_graph(6)) is None

    def test_side_of_each_lowest_vertex(self, small_regular_corpus):
        # for d >= 1 the witness is the oracle colouring's side of each
        # component's root, and None exactly on an odd cycle
        for graphs in small_regular_corpus.values():
            for g in graphs:
                if g.n % 2 or g.degree(0) == g.n - 1:
                    continue
                res = complement_bipartite_check(g)
                expected = None if isinstance(res, OddCycle) else res[0]
                assert half_clique(g) == expected, g

    def test_any_answer_is_a_clique(self):
        # sound on irregular graphs too: an answer is always a clique of n/2
        rng = random.Random(22)
        found = 0
        for _ in range(400):
            n = rng.randrange(2, 13, 2)
            p = rng.choice((0.5, 0.7, 0.9))
            g = build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            c = half_clique(g)
            if c is not None:
                assert len(c) * 2 == n, g
                assert all(g.has_edge(u, v) for u in c for v in c if u < v), g
                found += 1
        assert found > 20


class TestInequalities:
    def test_examples(self):
        assert check_ineq_kr(16, 2)   # 62 > 55
        assert check_ineq_kr(16, 14)  # 62 > 55
        assert check_ineq_x(5, 1)     # boundary equality 5 >= 5

    def test_outside_hypothesis_can_fail(self):
        assert not check_ineq_kr(4, 2)
        assert not check_ineq_x(5, Fraction(1, 2))

    def test_kr_grid(self):
        for r in range(16, 201):
            for k in range(2, r - 1):
                assert check_ineq_kr(r, k)

    def test_x_rational_grid(self):
        for r in range(1, 201, 7):
            x = Fraction(1)
            while x <= r:
                assert check_ineq_x(Fraction(r), x)
                x += Fraction(1, 3)

    @given(st.integers(min_value=16, max_value=10**6))
    def test_kr_boundary_values(self, r):
        assert check_ineq_kr(r, 2) and check_ineq_kr(r, r - 2)

    @given(st.fractions(min_value=1, max_value=500),
           st.fractions(min_value=1, max_value=500))
    @settings(max_examples=200)
    def test_x_property(self, r, x):
        if 1 <= x <= r:
            assert check_ineq_x(r, x)
