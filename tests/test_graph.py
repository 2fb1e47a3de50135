import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regext import (
    GraphError,
    add_matching,
    build,
    complement,
    components_after_deletion,
    regularity,
    require_regular,
)
from families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    prism_graph,
)

import oracles


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return build(n, [])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return build(n, picked)


class TestBuild:
    def test_cycle(self):
        g = build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.m == 4
        assert g == cycle_graph(4)

    def test_empty(self):
        g = build(3, [])
        assert g.m == 0

    def test_duplicates_collapse(self):
        g = build(4, [(0, 1), (0, 1), (1, 0)])
        assert g.m == 1
        assert list(g.edges()) == [(0, 1)]

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            build(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(GraphError):
            build(3, [(1, 1)])

    def test_degree_sum(self):
        g = prism_graph()
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(complete_graph(4)) == empty_graph(4)

    def test_c4_diagonals(self):
        assert complement(cycle_graph(4)) == build(4, [(0, 2), (1, 3)])

    def test_c6_is_prism(self):
        # derived by listing all nine non-edges of the 6-cycle
        assert complement(cycle_graph(6)) == prism_graph()

    @given(graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=9))
    def test_regular_complement_degree(self, n, r):
        if r >= n or (n * r) % 2:
            return
        from regext import random_regular

        g = random_regular(n, r, seed=7)
        assert regularity(complement(g)) == n - 1 - r


class TestRegularity:
    def test_cycle(self):
        assert regularity(cycle_graph(6)) == 2

    def test_near_complete(self):
        g = build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert regularity(g) is None
        with pytest.raises(GraphError, match=r"deg\(0\)=3 != deg\(2\)=2$"):
            require_regular(g)

    def test_empty(self):
        assert regularity(empty_graph(5)) == 0


class TestComponents:
    def test_two_triangles(self):
        g = disjoint_union(complete_graph(3), complete_graph(3))
        parts = components_after_deletion(g)
        assert len(parts) == 2
        assert [len(b) % 2 for b in parts.blocks] == [1, 1]
        assert parts.odd_count == 2

    def test_path_minus_middle(self):
        parts = components_after_deletion(path_graph(3), {1})
        assert len(parts) == 2 and parts.odd_count == 2

    def test_k4(self):
        parts = components_after_deletion(complete_graph(4))
        assert len(parts) == 1 and parts.odd_count == 0

    @given(graphs(), st.data())
    @settings(max_examples=60)
    def test_matches_unionfind_oracle(self, g, data):
        s = data.draw(st.sets(st.integers(min_value=0, max_value=max(g.n - 1, 0)),
                              max_size=g.n)) if g.n else set()
        parts = components_after_deletion(g, s)
        expected = oracles.unionfind_components(g, s)
        assert [sorted(b) for b in parts.blocks] == [sorted(c) for c in expected]
        assert parts.odd_count == oracles.odd_component_count(g, s)

    @given(graphs())
    def test_partition_covers_everything(self, g):
        parts = components_after_deletion(g)
        assert sum(len(b) for b in parts.blocks) == g.n


class TestAddMatching:
    def test_c6_plus_diameters_is_k33(self):
        g = add_matching(cycle_graph(6), [(0, 3), (1, 4), (2, 5)])
        assert regularity(g) == 3
        evens, odds = {0, 2, 4}, {1, 3, 5}
        assert all(g.has_edge(u, v) for u in evens for v in odds)
        assert not any(g.has_edge(u, v) for u in evens for v in evens if u != v)

    def test_single_edge(self):
        assert add_matching(empty_graph(2), [(0, 1)]) == complete_graph(2)

    def test_edge_present(self):
        with pytest.raises(GraphError):
            add_matching(cycle_graph(4), [(0, 1)])

    def test_overlap(self):
        with pytest.raises(GraphError):
            add_matching(empty_graph(4), [(0, 1), (1, 2)])

    def test_perfect_matching_bumps_degrees(self):
        g = complete_bipartite(3, 3)
        h = add_matching(g, [(0, 1), (3, 4)])
        for v in (0, 1, 3, 4):
            assert h.degree(v) == g.degree(v) + 1
