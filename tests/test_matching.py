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
    tutte_violator_bruteforce,
)
from families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
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

    def test_odd_n_short_circuit(self):
        v = perfect_matching(cycle_graph(7))
        assert isinstance(v, TutteViolator) and v.s == frozenset() and v.odd_count == 1

    def test_gallai_edmonds_path_beyond_brute_limit(self):
        # three K_9 blocks hanging off one apex: n = 28, violator is the apex
        k9 = complete_graph(9)
        g = disjoint_union(disjoint_union(k9, k9), k9)
        g = build(28, list(g.edges()) + [(27, 0), (27, 9), (27, 18)])
        v = perfect_matching(g)
        assert isinstance(v, TutteViolator)
        assert v.s == frozenset({27}) and v.odd_count == 3 and v.verify(g)

    def test_even_deficient_beyond_brute_limit(self):
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


def random_deficient_graphs(rng, sizes, count):
    """``count`` seeded deficient graphs with n drawn from ``sizes``."""
    found = []
    while len(found) < count:
        n = rng.choice(sizes)
        g = random_graph(n, rng.choice([0.1, 0.15, 0.25, 0.4]), rng)
        if isinstance(perfect_matching(g), TutteViolator):
            found.append(g)
    return found


class _MateBudget(list):
    """A mate array that fails once it has been read ``reads`` times."""

    def __init__(self, mates, reads):
        super().__init__(mates)
        self.reads = reads

    def __getitem__(self, i):
        self.reads -= 1
        if self.reads < 0:
            raise AssertionError("blossom phase over its work bound")
        return super().__getitem__(i)


@pytest.fixture
def bounded_phases(monkeypatch):
    """Make a blossom phase fail, not loop, once it reads its mate array
    4n^2 times.  Every loop of a phase reads it: growing the tree reads
    each vertex's mate once, and each of fewer than n contractions walks
    O(n) mates.  On climb complements a phase reads it about 2n times."""
    from regext import matching

    phase = matching._augment_from

    def bounded(adj, match, root):
        mates = _MateBudget(match, 4 * len(adj) ** 2)
        try:
            return phase(adj, mates, root)
        finally:
            match[:] = mates

    monkeypatch.setattr(matching, "_augment_from", bounded)


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

    def test_climb_complements_match_networkx(self, bounded_phases):
        # the blossom regime of a climb: complements of the levels between
        # n/2 and 3n/4 are d-regular with n/4 <= d < n/2 and leave the greedy
        # start several exposed vertices, each phase contracting blossoms;
        # deleting vertex 0 makes the deficient case on the same graph.
        # The phases are bounded, so a broken contraction fails here
        nx = pytest.importorskip("networkx")
        rng = random.Random(8)
        for _ in range(16):
            n = 2 * rng.randrange(16, 33)
            r = rng.randrange(n // 2, 3 * n // 4)
            tr = extend_to(random_regular(n, 3, rng.getrandbits(32)), r)
            assert isinstance(tr, ExtensionTrace)
            gc = complement(tr.final)
            minus0 = build(n - 1, [(u - 1, v - 1) for u, v in gc.edges() if u])
            for g in (gc, minus0):
                h = nx.Graph()
                h.add_nodes_from(range(g.n))
                h.add_edges_from(g.edges())
                m = max_matching(g)
                assert is_valid_matching(g, m)
                assert len(m) == len(nx.max_weight_matching(h, maxcardinality=True))
            assert_tutte_berge_tight(minus0, perfect_matching(minus0))
