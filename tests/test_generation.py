import math
import random

import pytest

from regext import (
    GraphError,
    biclique_splits,
    build,
    canonical_form,
    complement,
    enumerate_regular,
    is_connected,
    random_regular,
    random_regular_bipartite,
    require_regular,
    sample_clique_pair_regular,
    sample_disconnected_regular,
    sample_spanning_biclique_regular,
    spanning_biclique,
    find_clique,
)
from families import complete_graph, cycle_graph, petersen_graph, prism_graph

import oracles


class TestRandomRegular:
    def test_forced_k4(self):
        for seed in range(5):
            assert random_regular(4, 3, seed) == complete_graph(4)

    def test_parity_rejected(self):
        with pytest.raises(GraphError):
            random_regular(5, 3, 1)

    def test_degree_range_rejected(self):
        with pytest.raises(GraphError):
            random_regular(4, 4, 1)

    def test_seed_determinism(self):
        for n, r in [(6, 2), (20, 3), (24, 7), (30, 17)]:
            assert random_regular(n, r, 42) == random_regular(n, r, 42)

    def test_validity_sweep(self):
        rng = random.Random(1)
        for _ in range(60):
            n = rng.randrange(2, 26)
            r = rng.randrange(0, n)
            if (n * r) % 2:
                continue
            g = random_regular(n, r, rng.getrandbits(32))
            assert require_regular(g) == r
            assert g.n == n

    def test_thousand_seeds_cubic(self):
        for seed in range(1000):
            g = random_regular(20, 3, seed)
            assert require_regular(g) == 3 and g.n == 20

    def test_seeds_vary_output(self):
        distinct = {random_regular(16, 3, seed) for seed in range(10)}
        assert len(distinct) > 1


class TestRandomRegularBipartite:
    @pytest.mark.parametrize("half,d", [(4, 1), (6, 3), (10, 4), (12, 12)])
    def test_valid(self, half, d):
        g = random_regular_bipartite(half, d, 7)
        assert require_regular(g) == d
        left = range(half)
        for v in left:
            assert all(u >= half for u in g.neighbors(v))

    def test_bad_degree(self):
        with pytest.raises(GraphError):
            random_regular_bipartite(4, 5, 0)


class TestSamplers:
    def test_spanning_biclique_sampler(self):
        for seed in range(8):
            g = sample_spanning_biclique_regular(12, 7, seed)
            assert require_regular(g) == 7
            assert spanning_biclique(g) is not None

    def test_spanning_biclique_odd_parts(self):
        for n, r in [(10, 7), (8, 5)]:
            for seed in range(4):
                g = sample_spanning_biclique_regular(n, r, seed, odd_parts=True)
                assert require_regular(g) == r
                w = spanning_biclique(g, require_odd_parts=True)
                assert w is not None and w.verify(g)

    def test_biclique_splits_match_enumeration(self, small_regular_corpus):
        # a split exists exactly when some r-regular graph on n vertices has
        # a spanning biclique (with odd parts if asked)
        for (n, r), graphs in small_regular_corpus.items():
            for odd in (False, True):
                exists = any(spanning_biclique(g, require_odd_parts=odd) is not None
                             for g in graphs)
                assert bool(biclique_splits(n, r, odd)) == exists, (n, r, odd)

    def test_spanning_biclique_infeasible(self):
        # both-odd splits of n=10 at r=6 all force an odd-degree-sum side
        with pytest.raises(GraphError):
            sample_spanning_biclique_regular(10, 6, 0, odd_parts=True)

    def test_clique_pair_sampler(self):
        for seed in range(8):
            g = sample_clique_pair_regular(12, 8, seed)
            assert require_regular(g) == 8
            assert find_clique(g, 6) is not None

    def test_disconnected_sampler(self):
        g = sample_disconnected_regular(40, 17, 3)
        assert require_regular(g) == 17
        assert not is_connected(g)

    def test_infeasible_raises(self):
        with pytest.raises(GraphError):
            sample_disconnected_regular(20, 17, 0)  # one component max


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        rng = random.Random(9)
        for g in (cycle_graph(4), petersen_graph(), prism_graph(),
                  complete_graph(6), random_regular(10, 3, 5)):
            base = canonical_form(g)
            for _ in range(50):
                perm = list(range(g.n))
                rng.shuffle(perm)
                relabeled = build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
                assert canonical_form(relabeled) == base

    def test_distinguishes_k33_prism(self):
        k33 = complement(build(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]))
        assert canonical_form(k33) != canonical_form(prism_graph())

    def test_distinguishes_edge_presence(self):
        assert canonical_form(build(3, [])) != canonical_form(build(3, [(0, 1)]))

    def test_agrees_with_permutation_oracle(self):
        rng = random.Random(123)
        graphs = []
        for _ in range(12):
            n = rng.randrange(2, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            graphs.append(build(n, edges))
        for g in graphs:
            for h in graphs:
                if g.n != h.n:
                    continue
                same = canonical_form(g) == canonical_form(h)
                assert same == oracles.are_isomorphic(g, h)

    def test_parses_back_to_isomorphic_graph(self):
        from regext import parse_graph6

        g = petersen_graph()
        h = parse_graph6(canonical_form(g).decode("ascii"))
        assert oracles.are_isomorphic(g, h)

    def test_cap(self):
        with pytest.raises(GraphError):
            canonical_form(cycle_graph(13))


class TestEnumeration:
    @pytest.mark.parametrize("n,r,count", [(4, 2, 1), (6, 3, 2), (8, 3, 6)])
    def test_frozen_counts(self, n, r, count):
        assert len(list(enumerate_regular(n, r))) == count

    def test_connected_filter(self):
        assert len(list(enumerate_regular(8, 3, connected_only=True))) == 5

    def test_labeled_orbit_identity(self):
        # independent oracle: plain labeled backtracking count must equal
        # sum over classes of n!/|Aut|; that pins both completeness and
        # non-duplication of the enumerator for these cells
        for n, r, labeled in [(4, 2, 3), (6, 3, 70), (8, 3, 19355)]:
            assert oracles.count_labeled_regular(n, r) == labeled
            classes = list(enumerate_regular(n, r))
            total = sum(math.factorial(n) // oracles.automorphism_count(g)
                        for g in classes)
            assert total == labeled

    def test_pairwise_noniso(self):
        for n, r in [(6, 3), (8, 3), (8, 4)]:
            classes = list(enumerate_regular(n, r))
            for i, g in enumerate(classes):
                for h in classes[i + 1:]:
                    assert not oracles.are_isomorphic(g, h)

    def test_outputs_are_regular_and_deduped(self, small_regular_corpus):
        for (n, r), graphs in small_regular_corpus.items():
            forms = set()
            for g in graphs:
                assert require_regular(g) == r and g.n == n
                forms.add(canonical_form(g))
            assert len(forms) == len(graphs)

    def test_complement_closure(self, small_regular_corpus):
        # complementing the (n, r) classes bijects onto the (n, n-1-r) classes
        for n in (6, 8):
            for r in range(n):
                if (n * r) % 2:
                    continue
                direct = {canonical_form(g) for g in small_regular_corpus[(n, r)]}
                flipped = {canonical_form(complement(g))
                           for g in small_regular_corpus[(n, n - 1 - r)]}
                assert direct == flipped

    def test_deterministic_stream(self):
        first = [g for g in enumerate_regular(8, 4)]
        second = [g for g in enumerate_regular(8, 4)]
        assert first == second

    def test_cap_enforced(self):
        with pytest.raises(GraphError):
            next(enumerate_regular(12, 3))

    def test_parity_rejected(self):
        with pytest.raises(GraphError):
            list(enumerate_regular(7, 3))

    def test_known_table_n_le_10(self, small_regular_corpus):
        # cross-check the full corpus against the standard counts
        known = {
            (4, 0): 1, (4, 1): 1, (4, 2): 1, (4, 3): 1,
            (5, 0): 1, (5, 2): 1, (5, 4): 1,
            (6, 0): 1, (6, 1): 1, (6, 2): 2, (6, 3): 2, (6, 4): 1, (6, 5): 1,
            (7, 0): 1, (7, 2): 2, (7, 4): 2, (7, 6): 1,
            (8, 0): 1, (8, 1): 1, (8, 2): 3, (8, 3): 6, (8, 4): 6,
            (8, 5): 3, (8, 6): 1, (8, 7): 1,
            (9, 0): 1, (9, 2): 4, (9, 4): 16, (9, 6): 4, (9, 8): 1,
            (10, 0): 1, (10, 1): 1, (10, 2): 5, (10, 3): 21, (10, 4): 60,
            (10, 5): 60, (10, 6): 21, (10, 7): 5, (10, 8): 1, (10, 9): 1,
        }
        got = {key: len(graphs) for key, graphs in small_regular_corpus.items()}
        assert got == known
