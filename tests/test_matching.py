import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regext import (
    GraphError,
    TutteViolator,
    ExtensionTrace,
    build,
    complement,
    extend_to,
    is_valid_matching,
    max_matching,
    max_matching_with_violator,
    perfect_matching,
    random_regular,
    random_regular_bipartite,
    sample_spanning_biclique_regular,
)
from regext.graph import _unit_masks
from regext.matching import tutte_violator_bruteforce
from families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    hub_graph,
    labelled_graphs,
    petersen_graph,
    star_graph,
)

import oracles


def random_graph(n, p, rng):
    return build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


class TestMaxMatching:
    def test_k4(self):
        assert len(max_matching(complete_graph(4))) == 2

    def test_star(self):
        assert len(max_matching(star_graph(3))) == 1

    def test_petersen(self):
        m = max_matching(petersen_graph())
        assert len(m) == oracles.brute_max_matching_size(petersen_graph()) == 5
        assert is_valid_matching(petersen_graph(), m, perfect=True)

    def test_deterministic(self):
        g = random_regular(14, 3, 99)
        assert max_matching(g) == max_matching(g)

    @given(st.integers(min_value=0, max_value=12), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_size_matches_bruteforce(self, n, rng):
        g = random_graph(n, 0.4, rng)
        m = max_matching(g)
        assert is_valid_matching(g, m)
        assert len(m) == oracles.brute_max_matching_size(g)


    @given(st.integers(min_value=0, max_value=12), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_with_violator(self, n, rng):
        # one search gives the maximum matching and, when it is not
        # perfect, the tight violator perfect_matching reports
        g = random_graph(n, 0.4, rng)
        m, violator = max_matching_with_violator(g)
        assert m == max_matching(g)
        if violator is None:
            assert is_valid_matching(g, m, perfect=True)
        else:
            assert violator == perfect_matching(g) and violator.verify(g)
            assert violator.odd_count - len(violator.s) == n - 2 * len(m)


class TestPerfectMatching:
    def test_two_triangles_violator(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        v = perfect_matching(g)
        assert isinstance(v, TutteViolator)
        assert v.s == frozenset() and v.odd_count == 2
        assert v.verify(g)

    def test_c6_exact_matching(self):
        assert perfect_matching(cycle_graph(6)) == frozenset({(0, 1), (2, 3), (4, 5)})

    def test_unit_masks_kept_for_64_orders(self):
        # the search's single-vertex masks are made once per order; a
        # process that matches graphs of many orders keeps the last 64
        for n in range(100, 200):
            perfect_matching(cycle_graph(n))
        assert _unit_masks.cache_info().currsize <= 64

    def test_k33_minus_pm(self):
        g = complement(disjoint_union(complete_graph(3), complete_graph(3)))
        # that is K_{3,3}; dropping a perfect matching leaves a 6-cycle
        m = perfect_matching(g)
        assert is_valid_matching(g, m, perfect=True)
        h = build(6, sorted(set(g.edges()) - set(m)))
        assert is_valid_matching(h, perfect_matching(h), perfect=True)

    # on C4, whose edges are 01, 12, 23 and 03
    @pytest.mark.parametrize("pairs,valid,perfect", [
        ([(0, 1), (2, 3)], True, True),
        ([(0, 1)], True, False),  # 2 and 3 uncovered
        ([(0, 1), (1, 2)], False, False),  # overlap at 1
        ([(0, 2)], False, False),  # not an edge
        ([(1, 1)], False, False),  # self-pair
        ([(7, 0)], False, False),  # endpoint past n - 1
        ([(-1, 2)], False, False),  # negative endpoint
    ])
    def test_is_valid_matching_on_c4(self, pairs, valid, perfect):
        m = frozenset(pairs)
        assert is_valid_matching(cycle_graph(4), m) is valid
        assert is_valid_matching(cycle_graph(4), m, perfect=True) is perfect

    # a set with a vertex outside 0..n-1 certifies nothing and raises nothing
    @pytest.mark.parametrize("s", [{7}, {-1}, {0, 5}])
    def test_violator_outside_vertex_range(self, s):
        assert TutteViolator(frozenset(s), 3).verify(cycle_graph(4)) is False

    # certificates that misstate the count or prove nothing: a checker that
    # takes odd(G-S) >= |S|, or ignores the stated count, accepts one of them
    @pytest.mark.parametrize("g,s,odd", [
        (star_graph(3), {0}, 4),  # odd(G - {0}) = 3, stated one too high
        (star_graph(3), {0}, 2),  # stated one too low
        (cycle_graph(4), {0}, 1),  # odd(G - S) = |S|: no violation
        (complete_graph(2), set(), 0),  # would claim K_2 has no perfect matching
    ])
    def test_violator_checker_rejects(self, g, s, odd):
        assert TutteViolator(frozenset(s), odd).verify(g) is False

    # a set holding something other than a vertex label is no certificate
    @pytest.mark.parametrize("s", [{"a"}, {None}, {0, "a"}])
    def test_violator_of_wrong_type(self, s):
        assert TutteViolator(frozenset(s), 3).verify(complete_graph(2)) is False

    # elements that are not pairs of vertex labels
    @pytest.mark.parametrize("pairs", [{(0, 1, 2)}, {(0,)}, {0}, {(0, "a")}, {(0.0, 1)}])
    def test_is_valid_matching_of_wrong_type(self, pairs):
        assert is_valid_matching(complete_graph(2), frozenset(pairs)) is False

    # bool is a subclass of int, and a JSON true reaches a checker as True:
    # both checkers read True as vertex 1 and False as vertex 0
    def test_bool_labels_read_as_vertices(self):
        g = build(4, [(1, 0), (1, 2), (1, 3)])  # a star centred on vertex 1
        assert TutteViolator(frozenset({True}), 3) == TutteViolator(frozenset({1}), 3)
        assert [TutteViolator(frozenset({True}), odd).verify(g) for odd in range(5)] == \
            [TutteViolator(frozenset({1}), odd).verify(g) for odd in range(5)] == \
            [False, False, False, True, False]
        assert is_valid_matching(complete_graph(2), frozenset({(False, True)}), perfect=True)

    def test_odd_n_short_circuit(self):
        v = perfect_matching(cycle_graph(7))
        assert isinstance(v, TutteViolator) and v.s == frozenset() and v.odd_count == 1

    def test_gallai_edmonds_path_beyond_brute_limit(self, bounded_phases):
        # three K_9 blocks hanging off one apex: n = 28, violator is the apex;
        # a warm start that leaves a bad mate array loops here unless the
        # phases are bounded
        k9 = complete_graph(9)
        g = disjoint_union(disjoint_union(k9, k9), k9)
        g = build(28, list(g.edges()) + [(27, 0), (27, 9), (27, 18)])
        v = perfect_matching(g)
        assert isinstance(v, TutteViolator)
        assert v.s == frozenset({27}) and v.odd_count == 3 and v.verify(g)

    def test_even_deficient_beyond_brute_limit(self, bounded_phases):
        # star-of-paths: center adjacent to 24 isolated-ish leaves, n = 26
        g = build(26, [(0, v) for v in range(1, 26)])
        v = perfect_matching(g)
        assert isinstance(v, TutteViolator) and v.verify(g)


class TestTutteBruteforce:
    def test_k4_none(self):
        assert tutte_violator_bruteforce(complete_graph(4)) is None

    def test_star_center(self):
        v = tutte_violator_bruteforce(star_graph(3))
        assert v.s == frozenset({0}) and v.odd_count == 3

    def test_two_triangles(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        v = tutte_violator_bruteforce(g)
        assert v.s == frozenset() and v.odd_count == 2

    def test_minimum_cardinality(self):
        # three triangles hanging off one center: S={center} leaves three odd
        # components; the empty set does not violate, so the minimum size is 1
        triangles = [(i, j) for base in (0, 3, 6)
                     for i, j in [(base, base + 1), (base, base + 2), (base + 1, base + 2)]]
        g = build(10, triangles + [(9, 0), (9, 3), (9, 6)])
        v = tutte_violator_bruteforce(g)
        assert v.verify(g)
        assert v.s == frozenset({9}) and v.odd_count == 3

    def test_limit_enforced(self):
        with pytest.raises(GraphError):
            tutte_violator_bruteforce(complete_graph(8), limit_n=6)

    def test_agreement_exhaustive_small(self, small_regular_corpus):
        for (n, r), graphs in small_regular_corpus.items():
            if n > 8:
                continue
            for g in graphs:
                pm = perfect_matching(g)
                bf = tutte_violator_bruteforce(g)
                assert isinstance(pm, TutteViolator) == (bf is not None)
                assert oracles.brute_has_perfect_matching(g) == (bf is None)


class TestBipartite:
    # Konig: a regular bipartite graph with r >= 1 has a perfect matching

    def test_regular_bipartite_always_matches_enumerated(self, small_regular_corpus):
        # complement_bipartite_check of the complement 2-colors g itself
        from oracles import OddCycle, complement_bipartite_check

        seen = 0
        for (n, r), graphs in small_regular_corpus.items():
            if r == 0:
                continue
            for g in graphs:
                if isinstance(complement_bipartite_check(complement(g)), OddCycle):
                    continue
                assert is_valid_matching(g, perfect_matching(g), perfect=True)
                seen += 1
        assert seen >= 15  # the corpus genuinely contains bipartite regulars

    @pytest.mark.parametrize("half,d,seed", [(5, 2, 0), (8, 3, 1), (20, 7, 2), (20, 11, 3)])
    def test_random_regular_bipartite_matches(self, half, d, seed):
        g = random_regular_bipartite(half, d, seed)
        assert is_valid_matching(g, perfect_matching(g), perfect=True)


class TestCounting:
    # the exact counter is a test oracle; it lives in oracles.py

    def test_k33(self):
        assert oracles.count_perfect_matchings(complete_bipartite(3, 3)) == 6

    def test_c6(self):
        assert oracles.count_perfect_matchings(cycle_graph(6)) == 2

    def test_k4(self):
        assert oracles.count_perfect_matchings(complete_graph(4)) == 3

    def test_odd(self):
        assert oracles.count_perfect_matchings(cycle_graph(5)) == 0

    def test_limit(self):
        with pytest.raises(GraphError):
            oracles.count_perfect_matchings(complete_graph(18))

    def test_count_consistent_with_existence(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(2, 11)
            g = random_graph(n, 0.5, rng)
            has = not isinstance(perfect_matching(g), TutteViolator)
            assert (oracles.count_perfect_matchings(g) > 0) == has


def assert_tutte_berge_tight(g, violator):
    """odd(G-S) - |S| is exactly the number of vertices a maximum matching misses."""
    assert violator.verify(g)
    assert violator.odd_count - len(violator.s) == g.n - 2 * len(max_matching(g))


def assert_d_mask(g, nu):
    """The search's own D equals {v : nu(G - v) = nu(G)}, with matching
    sizes from ``nu``, and the D of fresh trees regrown from its exposed
    vertices; returns that D."""
    from regext import matching

    mates, d_mask = matching._match_array(g)
    assert d_mask == oracles.d_mask_by_deletion(g, nu), g.adj
    assert d_mask == oracles.d_mask_by_regrowth(g, mates), g.adj
    return d_mask


def random_deficient_graphs(rng, sizes, count):
    """``count`` seeded deficient graphs with n drawn from ``sizes``."""
    found = []
    while len(found) < count:
        n = rng.choice(sizes)
        g = random_graph(n, rng.choice([0.1, 0.15, 0.25, 0.4]), rng)
        if isinstance(perfect_matching(g), TutteViolator):
            found.append(g)
    return found


class TestAgreementRandom:
    def test_oracle_equivalence_sample(self):
        rng = random.Random(20240517)
        graphs = [
            # two claws: the minimum violator S={0} proves a deficiency of 2,
            # but a maximum matching misses 4 vertices
            disjoint_union(star_graph(3), star_graph(3)),
        ]
        for _ in range(150):
            n = rng.randrange(4, 15)
            r = rng.randrange(0, n)
            if (n * r) % 2:
                continue
            graphs.append(random_regular(n, r, rng.getrandbits(32)))
        for g in graphs:
            pm = perfect_matching(g)
            bf = tutte_violator_bruteforce(g)
            if isinstance(pm, TutteViolator):
                assert bf is not None
                assert_tutte_berge_tight(g, pm)
            else:
                assert bf is None and is_valid_matching(g, pm, perfect=True)


class TestGallaiEdmonds:
    def test_violator_is_gallai_edmonds_set(self):
        # D = vertices some maximum matching misses, by exhaustive matching
        # sizes of G - v; the violator must be S = N(D) - D
        rng = random.Random(1965)
        for g in random_deficient_graphs(rng, range(1, 13), 300):
            nu = oracles.brute_max_matching_size(g)
            d_mask = 0
            for v in range(g.n):
                g_minus_v = build(g.n, [e for e in g.edges() if v not in e])
                if oracles.brute_max_matching_size(g_minus_v) == nu:
                    d_mask |= 1 << v
            s = {v for v in range(g.n) if not d_mask >> v & 1 and g.adj[v] & d_mask}
            v = perfect_matching(g)
            assert v.s == s, g.adj
            assert v.odd_count - len(s) == g.n - 2 * nu

    def test_d_mask_every_labelled_graph_up_to_six_vertices(self):
        # the 33 867 graphs the warm-start test walks
        for g in labelled_graphs(6):
            assert_d_mask(g, oracles.brute_max_matching_size)

    def test_d_mask_class_complements(self, small_regular_corpus):
        deficient = sum(assert_d_mask(complement(g), oracles.brute_max_matching_size) != 0
                        for graphs in small_regular_corpus.values() for g in graphs)
        # 45 when recorded, odd orders included
        assert deficient >= 40

    def test_d_mask_hub_and_t4_graphs_match_networkx(self):
        # deficient graphs of the certify corpus's kinds up to n = 48: hub
        # graphs, and complements of T4 graphs, whose two odd parts leave
        # one vertex of each exposed
        nx = pytest.importorskip("networkx")

        def nu(g):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            return len(nx.max_weight_matching(h, maxcardinality=True))

        rng = random.Random(31)
        graphs = [hub_graph(n, 3, rng) for n in (14, 16, 18)]
        graphs += [hub_graph(n, n // 8 + 1, rng) for n in (24, 32, 40, 48)]
        graphs += [complement(sample_spanning_biclique_regular(
            n, r, rng.getrandbits(32), odd_parts=True))
            for n, r in ((16, 9), (22, 11), (28, 15), (34, 17), (40, 21), (48, 25))]
        for g in graphs:
            assert assert_d_mask(g, nu), g.adj

    def test_violator_runs_no_phase_of_its_own(self, bounded_phases):
        # the violator reads D off the search's failed phases: the search
        # with its violator runs exactly the phases of the search alone,
        # one per exposed vertex where the warm start leaves no augmenting
        # path (the star, the apex over three K_9 and the hub graphs)
        from regext import matching

        k9 = complete_graph(9)
        apex = disjoint_union(disjoint_union(k9, k9), k9)
        apex = build(28, list(apex.edges()) + [(27, 0), (27, 9), (27, 18)])
        rng = random.Random(52)
        pinned = [star_graph(5), apex] + [hub_graph(n, n // 8 + 1, rng)
                                          for n in (24, 32, 40, 48)]
        for g in pinned + list(random_deficient_graphs(rng, range(6, 23), 60)):
            bounded_phases.clear()
            mates = matching._match_array(g)[0]
            alone = list(bounded_phases)
            bounded_phases.clear()
            m, violator = max_matching_with_violator(g)
            assert violator is not None and bounded_phases == alone, g.adj
            exposed = [v for v, u in enumerate(mates) if u == -1]
            assert [v for v in alone if mates[v] == -1] == exposed, g.adj
            if g in pinned:
                assert alone == exposed, g.adj

    def test_no_exhaustive_scan(self, monkeypatch):
        from regext import matching

        def refuse(*args, **kwargs):
            raise AssertionError("perfect_matching ran the 2^n scan")

        monkeypatch.setattr(matching, "tutte_violator_bruteforce", refuse)
        rng = random.Random(22)
        for g in random_deficient_graphs(rng, range(6, 23), 120):
            assert_tutte_berge_tight(g, perfect_matching(g))

    def test_size_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(3)
        for _ in range(120):
            n = rng.randrange(1, 41)
            g = random_graph(n, rng.choice([0.05, 0.1, 0.2, 0.5]), rng)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(g.edges())
            m = max_matching(g)
            assert is_valid_matching(g, m)
            assert len(m) == len(nx.max_weight_matching(h, maxcardinality=True))

    def test_climb_complements_match_networkx(self, bounded_phases, monkeypatch):
        # the blossom regime of a climb: complements of the levels between
        # n/2 and 3n/4 are d-regular with n/4 <= d < n/2; deleting vertex 0
        # makes the deficient case on the same graph.  The phases are
        # bounded, so a broken contraction fails here.  The length-3 pass
        # leaves the phases few free vertices on these graphs, so they also
        # run after the greedy-only start of ``oracles``, which leaves
        # several, each phase contracting blossoms
        from regext import matching

        nx = pytest.importorskip("networkx")
        rng = random.Random(8)
        graphs = []
        for _ in range(16):
            n = 2 * rng.randrange(16, 33)
            r = rng.randrange(n // 2, 3 * n // 4)
            tr = extend_to(random_regular(n, 3, rng.getrandbits(32)), r)
            assert isinstance(tr, ExtensionTrace)
            gc = complement(tr.final)
            graphs.append((gc, build(n - 1, [(u - 1, v - 1) for u, v in gc.edges() if u])))
        phases = {}
        for name, start in (("product", matching._match_array),
                            ("greedy", oracles.match_array_greedy)):
            monkeypatch.setattr(matching, "_match_array", start)
            bounded_phases.clear()
            for gc, minus0 in graphs:
                for g in (gc, minus0):
                    h = nx.Graph()
                    h.add_nodes_from(range(g.n))
                    h.add_edges_from(g.edges())
                    m = max_matching(g)
                    assert is_valid_matching(g, m)
                    assert len(m) == len(nx.max_weight_matching(h, maxcardinality=True))
                assert_tutte_berge_tight(minus0, perfect_matching(minus0))
            phases[name] = len(bounded_phases)
        # 52 and 316 phases when recorded; the floor keeps the test from
        # going empty should the greedy start ever leave less to augment
        assert phases["greedy"] >= 200 and phases["product"] < phases["greedy"]


class TestWarmStart:
    def test_every_labelled_graph_up_to_six_vertices(self, bounded_phases):
        # 33 867 graphs: every case of the length-3 pass at this size,
        # v's mate candidate u = v included; the phases are bounded, so a
        # warm start that leaves a bad mate array fails and names its graph
        for g in labelled_graphs(6):
            m = max_matching(g)
            assert is_valid_matching(g, m), g.adj
            assert len(m) == oracles.brute_max_matching_size(g), g.adj

    def test_climb_levels_leave_few_phases(self, monkeypatch):
        # the speed-up itself: on the blossom levels of cubic climbs to
        # 3n/4 the greedy start leaves about 5.5 phases per level, and the
        # length-3 pass leaves about one phase per four levels
        from regext import matching

        levels = []
        phases = []
        search = matching._match_array
        phase = matching._augment_from
        monkeypatch.setattr(matching, "_match_array",
                            lambda g: levels.append(g.n) or search(g))
        monkeypatch.setattr(matching, "_augment_from",
                            lambda adj, match, root: phases.append(root)
                            or phase(adj, match, root))
        rng = random.Random(14)
        for _ in range(12):
            n = 2 * rng.randrange(16, 33)
            tr = extend_to(random_regular(n, 3, rng.getrandbits(32)), 3 * n // 4)
            assert isinstance(tr, ExtensionTrace)
        assert len(levels) >= 100
        assert 2 * len(phases) <= len(levels), (len(phases), len(levels))
