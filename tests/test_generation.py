import gc
import hashlib
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    format_graph6,
    parse_graph6,
)
from regext import generation
from families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    petersen_graph,
    prism_graph,
    rook_graph,
    shrikhande_graph,
)

import oracles


# the cells of the benchmark's sample workload
_SAMPLE_GRID = [(n, r) for n in range(18, 47, 2) for r in (3, 5, 6, 7, 8, 9, 17) if r < n]


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


class TestSeedStream:
    def test_switching_cells_match_legacy_stream(self):
        # switching makes the same draws as before, so every cell that went
        # straight to switching before (r >= 9, 2r <= n - 1) keeps its graphs
        rng = random.Random(2024)
        cells = 0
        for n in range(19, 47):
            for r in range(9, (n - 1) // 2 + 1):
                if (n * r) % 2:
                    continue
                seed = rng.getrandbits(32)
                assert random_regular(n, r, seed) == oracles.random_regular_legacy(n, r, seed), (n, r, seed)
                cells += 1
        assert cells == 154

    def test_pinned_digest(self):
        # reaches r = 0, pairing, switching, both under the complement, and
        # r = n - 1; a change to this digest is a change of the seeded stream
        grid = [(n, r) for n in (1, 2, 7, 12, 20) for r in range(n) if (n * r) % 2 == 0]
        lines = [format_graph6(random_regular(n, r, seed)) for n, r in grid for seed in range(3)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "722dd85d46ca4171a312a82855ea152375890f4b5c52bdcfa5477450dbf9c623"

    def test_sample_grid_digest(self):
        # two seeds on every cell of the benchmark's sample grid: pairing,
        # switching and the complement path at the orders the sampler is
        # timed on; a change to this digest is a change of the seeded stream
        lines = [format_graph6(random_regular(n, r, seed))
                 for n, r in _SAMPLE_GRID for seed in range(2)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "b27217084b1ec8062b0a062d89863c4477013068963efa73142f1095eac58034"

    def test_loops_match_reference(self, monkeypatch):
        # the product loops make the reference loops' draws and return
        # their graphs, on the path random_regular takes for each cell
        switching = (generation._switching, oracles._switching_reference)
        pairing = (generation._pairing, oracles._pairing_reference)

        def same(loops, n, r, seed):
            product, reference = loops
            got = product(n, r, random.Random(seed))
            assert got == reference(n, r, random.Random(seed)), (product.__name__, n, r, seed)
            assert require_regular(got) == r

        rng = random.Random(909)
        for n, r in _SAMPLE_GRID:
            d = min(r, n - 1 - r)
            loops = pairing if d <= generation._PAIRING_MAX_DEGREE else switching
            for _ in range(2):
                same(loops, n, d, rng.getrandbits(32))
        # odd r puts the circulant's diameters in; (2, 1) has one edge and
        # (4, 1) two, so every proposal of (2, 1) draws i == j
        for n, r in [(10, 3), (8, 3), (4, 1), (2, 1)]:
            for seed in range(3):
                same(switching, n, r, seed)
        monkeypatch.setattr(generation, "SWITCH_ROUNDS_PER_EDGE", 1)
        monkeypatch.setattr(oracles, "SWITCH_ROUNDS_PER_EDGE", 1)
        for n, r in [(8, 3), (20, 6), (30, 9)]:
            for seed in range(3):
                same(switching, n, r, seed)
                same(pairing, n, min(r, 5), seed)

    @settings(max_examples=150)
    @given(st.data())
    def test_loops_match_reference_drawn(self, data):
        # any order up to 30, at 1..3 swap rounds per edge so that the swap
        # is tested on graphs still close to the circulant; each r is drawn
        # as the least, the greatest or any switching degree of its order
        n = data.draw(st.integers(2, 30), label="n")
        degrees = [r for r in range(1, max(1, (n - 1) // 2) + 1) if n * r % 2 == 0]
        assume(degrees)
        r = data.draw(st.sampled_from([degrees[0], degrees[-1]])
                      | st.sampled_from(degrees), label="r")
        pr = data.draw(st.sampled_from([d for d in degrees if d <= 5]), label="pairing r")
        rounds = data.draw(st.integers(1, 3), label="rounds")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        with mock.patch.object(generation, "SWITCH_ROUNDS_PER_EDGE", rounds), \
                mock.patch.object(oracles, "SWITCH_ROUNDS_PER_EDGE", rounds):
            got = generation._switching(n, r, random.Random(seed))
            assert got == oracles._switching_reference(n, r, random.Random(seed))
            assert require_regular(got) == r
        got = generation._pairing(n, pr, random.Random(seed))
        assert got == oracles._pairing_reference(n, pr, random.Random(seed))

    def test_complement_path(self):
        for n, r in [(7, 4), (12, 9), (20, 13)]:
            assert random_regular(n, r, 5) == complement(random_regular(n, n - 1 - r, 5))


def _chi2_sf(x: float, df: int) -> float:
    """P(X >= x) for X chi-square with ``df`` degrees of freedom: the
    regularized upper incomplete gamma Q(df/2, x/2), by its series below
    z = a + 1 and by its continued fraction above (Numerical Recipes 6.2)."""
    if x <= 0:
        return 1.0
    a, z = df / 2, x / 2
    scale = math.exp(a * math.log(z) - z - math.lgamma(a))
    if z < a + 1:
        term = total = 1 / a
        k = 0
        while term > 1e-17 * total:
            k += 1
            term *= z / (a + k)
            total += term
        return 1 - scale * total
    b = z + 1 - a
    c, d = 1e300, 1 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2
        d = 1 / (an * d + b)
        c = b + an / c
        h *= d * c
        if abs(d * c - 1) < 1e-15:
            break
    return scale * h


def _invariant(g):
    """Sorted per-vertex profiles of (adjacent, common neighbours) pairs:
    isomorphism-invariant, and cheaper than canonical_form at n = 10."""
    adj = g.adj
    return tuple(sorted(
        tuple(sorted((adj[v] >> u & 1, (adj[v] & adj[u]).bit_count())
                     for u in range(g.n) if u != v))
        for v in range(g.n)))


def _uniformity_p(n, r, graphs, classes):
    """Chi-square p-value of the sampled class counts against n!/|Aut|,
    the share of labeled graphs in each class; classes expected fewer than
    five times are pooled into one bin."""
    index = {canonical_form(c): i for i, c in enumerate(classes)}
    # the invariant names the class wherever no other class shares it;
    # canonical_form settles the rest
    keys = [_invariant(c) for c in classes]
    named = {key: i for i, key in enumerate(keys) if keys.count(key) == 1}
    counts = [0] * len(classes)
    for g in graphs:
        i = named.get(_invariant(g))
        counts[index[canonical_form(g)] if i is None else i] += 1
    weights = [math.factorial(n) / oracles.automorphism_count(c) for c in classes]
    total = sum(weights)
    expected = [len(graphs) * w / total for w in weights]
    bins = [(o, e) for o, e in zip(counts, expected) if e >= 5]
    rest = [(o, e) for o, e in zip(counts, expected) if e < 5]
    if rest:
        bins.append((sum(o for o, _ in rest), sum(e for _, e in rest)))
    stat = sum((o - e) ** 2 / e for o, e in bins)
    return _chi2_sf(stat, len(bins) - 1)


_UNIFORMITY_SAMPLES = 1200


class TestUniformity:
    """Sampled isomorphism classes occur in proportion to their labeled
    graphs, n!/|Aut|: the pairing model is exactly uniform, and switching
    from the circulant mixes well within its rounds at these orders."""

    @pytest.mark.parametrize("n,r", [(8, 3), (10, 3), (10, 4)])
    @pytest.mark.parametrize("sampler", [random_regular, oracles.random_regular_legacy],
                             ids=["current", "legacy"])
    def test_class_frequencies(self, small_regular_corpus, sampler, n, r):
        graphs = [sampler(n, r, seed) for seed in range(_UNIFORMITY_SAMPLES)]
        assert _uniformity_p(n, r, graphs, small_regular_corpus[(n, r)]) > 1e-3

    def test_switching_alone(self, small_regular_corpus):
        graphs = [generation._switching(10, 3, random.Random(seed))
                  for seed in range(_UNIFORMITY_SAMPLES)]
        assert _uniformity_p(10, 3, graphs, small_regular_corpus[(10, 3)]) > 1e-3

    def test_detects_a_biased_sampler(self, small_regular_corpus, monkeypatch):
        # one swap round per edge leaves the circulant's class too likely
        monkeypatch.setattr(generation, "SWITCH_ROUNDS_PER_EDGE", 1)
        graphs = [generation._switching(8, 3, random.Random(seed))
                  for seed in range(_UNIFORMITY_SAMPLES)]
        assert _uniformity_p(8, 3, graphs, small_regular_corpus[(8, 3)]) < 1e-3

    def test_chi2_sf(self):
        # closed forms on both sides of z = a + 1: Q(1, z) = exp(-z),
        # Q(2, z) = exp(-z)(1 + z), Q(1/2, z) = erfc(sqrt(z))
        for x in (0.5, 3.0, 20.0, 400.0):
            z = x / 2
            assert _chi2_sf(x, 2) == pytest.approx(math.exp(-z), rel=1e-9)
            assert _chi2_sf(x, 4) == pytest.approx(math.exp(-z) * (1 + z), rel=1e-9)
            assert _chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(z)), rel=1e-9)


class TestRandomRegularBipartite:
    @pytest.mark.parametrize("half,d", [(4, 1), (6, 3), (10, 4), (12, 12)])
    def test_valid(self, half, d):
        g = random_regular_bipartite(half, d, 7)
        assert require_regular(g) == d
        left = range(half)
        for v in left:
            assert g.adj[v] & ((1 << half) - 1) == 0  # no neighbour on the left

    def test_bad_degree(self):
        with pytest.raises(GraphError):
            random_regular_bipartite(4, 5, 0)

    def test_matches_reference(self):
        for half in range(1, 21):
            for d in range(half + 1):
                for seed in range(3):
                    assert random_regular_bipartite(half, d, seed) == \
                        oracles.random_regular_bipartite_reference(half, d, seed), (half, d, seed)


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

    def test_every_split_and_size_reached(self):
        # 60 fixed seeds reach every choice the docstrings name, read off
        # the rows: a join's split is the a whose rows 0..a-1 all hold
        # a..n-1, a disjoint union's first size the s no edge crosses; on
        # these cells each graph has exactly one
        n, r = 14, 9
        for odd in (False, True):
            reached = []
            for seed in range(60):
                rows = sample_spanning_biclique_regular(n, r, seed, odd).adj
                split = [a for a in range(1, n)
                         if all(row >> a == (1 << n - a) - 1 for row in rows[:a])]
                assert len(split) == 1, (odd, seed, split)
                reached += split
            assert set(reached) == set(biclique_splits(n, r, odd)), odd
        # a 4-regular component has at least 5 vertices, so parts of 5..9
        # are connected
        n, r = 14, 4
        reached = []
        for seed in range(60):
            rows = sample_disconnected_regular(n, r, seed).adj
            cut = [s for s in range(1, n) if all(row >> s == 0 for row in rows[:s])]
            assert len(cut) == 1, (seed, cut)
            reached += cut
        assert set(reached) == {5, 6, 7, 8, 9}

    # the samplers compose their parts on adjacency rows; the edge-list
    # joins in the oracles must give the same graph on every feasible cell
    # with even n <= 40
    def test_biclique_rows_match_edge_lists(self):
        single = 0
        for n in range(2, 41, 2):
            for r in range(n):
                for odd in (False, True):
                    splits = biclique_splits(n, r, odd)
                    # a one-vertex side: the r = n - 1 cells
                    single += 1 in splits or n - 1 in splits
                    for seed in range(3) if splits else ():
                        assert sample_spanning_biclique_regular(n, r, seed, odd) == \
                            oracles.sample_spanning_biclique_regular_reference(
                                n, r, seed, odd), (n, r, odd, seed)
        assert single > 0

    def test_clique_pair_rows_match_edge_lists(self):
        for n in range(2, 41, 2):
            for r in range(n // 2, n):
                for seed in range(3):
                    assert sample_clique_pair_regular(n, r, seed) == \
                        oracles.sample_clique_pair_regular_reference(n, r, seed), (n, r, seed)

    def test_disconnected_rows_match_edge_lists(self):
        cells = 0
        for n in range(2, 41, 2):
            for r in range(n):
                for seed in range(3):
                    try:
                        want = oracles.sample_disconnected_regular_reference(n, r, seed)
                    except GraphError:
                        with pytest.raises(GraphError):
                            sample_disconnected_regular(n, r, seed)
                        continue
                    cells += 1
                    assert sample_disconnected_regular(n, r, seed) == want, (n, r, seed)
        assert cells > 0


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _nx(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _union(*graphs):
    out = graphs[0]
    for g in graphs[1:]:
        out = disjoint_union(out, g)
    return out


def _prism(k):
    """C_k times K_2: two k-cycles joined by a perfect matching."""
    ring = [(i, (i + 1) % k) for i in range(k)]
    return build(2 * k, ring + [(k + u, k + v) for u, v in ring]
                 + [(i, k + i) for i in range(k)])


def _refinements(g, order):
    """The refinements the canonical search starts from: the root
    partition, then the root with each vertex of a non-singleton cell
    individualized, in ``order``.  Yields the cells refined (as vertex
    sets) and the ordered partition ``_refine`` made of them."""
    nbr = {1 << v: a for v, a in enumerate(g.adj)}
    tri = generation._triangle_counts(g.adj)
    root = generation._root_partition(nbr, tri)
    yield [{v for v in range(g.n) if tri[v] == t} for t in set(tri)], root
    for v in order:
        t = next(s for s in range(g.n) if root[s] >> v & 1)
        if root[t] == 1 << v:
            continue
        child = root[:]
        child[t] = 1 << v
        child[t + 1] = root[t] ^ 1 << v
        before = _cells(child)
        generation._refine(nbr, child, [t])
        yield before, child


def _cells(part):
    """The vertex sets of an ordered partition's cells, in order."""
    return [frozenset(v for v in range(m.bit_length()) if m >> v & 1) for m in part if m]


class TestRefinement:
    @staticmethod
    def _graphs():
        rng = random.Random(31)
        graphs = [g for n in range(1, 9) for r in range(n) if n * r % 2 == 0
                  for g in enumerate_regular(n, r)]
        for n in range(9, 13):
            for r in range(n):
                if n * r % 2 == 0:
                    graphs.append(random_regular(n, r, rng.getrandbits(32)))
        for _ in range(40):
            n = rng.randrange(2, 13)
            p = rng.random()
            graphs.append(build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                    if rng.random() < p]))
        return graphs

    def test_coarsest_equitable(self):
        # the root partition and every child of the root are the coarsest
        # equitable partitions below the cells they were refined from
        refined = split = 0
        for g in self._graphs():
            for before, part in _refinements(g, range(g.n)):
                cells = _cells(part)
                assert set(cells) == oracles.equitable_refinement(g, before), g
                for a in cells:
                    for b in cells:
                        mask = sum(1 << v for v in b)
                        assert len({(g.adj[v] & mask).bit_count() for v in a}) == 1, (g, a, b)
                refined += 1
                split += len(cells) > len(before)
        assert (refined, split) == (832, 471)

    def test_same_partition_and_queue_as_every_cell_scan(self):
        # skipping the singleton cells changes no fragment, no cell order
        # and no queue entry, from the root and from each child of it
        rng = random.Random(33)
        graphs = self._graphs() + [random_regular(n, r, rng.getrandbits(32))
                                   for n in range(20, 41, 4) for r in (3, 4, 5)]
        checked = 0
        for g in graphs:
            nbr = {1 << v: a for v, a in enumerate(g.adj)}
            cells = {}
            for b, t in zip(nbr, generation._triangle_counts(g.adj)):
                cells[t] = cells.get(t, 0) | b
            part = [0] * g.n
            starts = []
            s = 0
            for t in sorted(cells):
                part[s] = cells[t]
                starts.append(s)
                s += cells[t].bit_count()
            inputs = [(part, starts)]
            root = part[:]
            generation._refine(nbr, root, starts[:])
            for t, m in enumerate(root):
                x = m
                while m & (m - 1) and x:
                    b = x & -x
                    x ^= b
                    child = root[:]
                    child[t] = b
                    child[t + 1] = m ^ b
                    inputs.append((child, [t]))
            for part, queue in inputs:
                got, got_queue = part[:], queue[:]
                generation._refine(nbr, got, got_queue)
                want, want_queue = part[:], queue[:]
                oracles.refine_every_cell(nbr, want, want_queue)
                assert (got, got_queue) == (want, want_queue), g
                checked += 1
        assert checked == 854

    @given(st.data())
    @settings(max_examples=300)
    def test_same_partition_and_queue_from_any_state(self, data):
        # any graph, ordered partition and queue of cell starts, not only
        # the states the search meets: the mask splits of one- and
        # two-vertex splitters run at every depth
        n = data.draw(st.integers(min_value=1, max_value=12))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        bits = data.draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        g = build(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
        order = data.draw(st.permutations(range(n)))
        cut = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        starts = [0] + [s for s in range(1, n) if cut[s - 1]]
        part = [0] * n
        for s, e in zip(starts, starts[1:] + [n]):
            part[s] = sum(1 << v for v in order[s:e])
        queue = data.draw(st.lists(st.sampled_from(starts), unique=True))
        nbr = {1 << v: a for v, a in enumerate(g.adj)}
        got, got_queue = part[:], queue[:]
        generation._refine(nbr, got, got_queue)
        want, want_queue = part[:], queue[:]
        oracles.refine_every_cell(nbr, want, want_queue)
        assert (got, got_queue) == (want, want_queue), (g, part, queue)

    def test_relabeling_relabels_cells(self):
        # the ordered partition does not depend on the labelling: relabeling
        # the graph relabels each cell in place
        rng = random.Random(32)
        for g in self._graphs():
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            for (_, part), (_, image) in zip(_refinements(g, range(g.n)),
                                             _refinements(h, perm), strict=True):
                assert [frozenset(perm[v] for v in c) for c in _cells(part)] == \
                    _cells(image), g


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

    def test_pinned_bytes(self, small_regular_corpus, monkeypatch):
        # the bytes themselves, which every other test compares only with
        # each other or with a search on the same refinement: every regular
        # class with n <= 10, seeded samples at n = 11 and 12, and the two
        # strongly regular graphs with parameters (16, 6, 2, 2)
        cells = [(n, r) for n in range(1, 11) for r in range(n) if (n * r) % 2 == 0]
        graphs = [g for cell in cells for g in (
            small_regular_corpus[cell] if cell in small_regular_corpus
            else enumerate_regular(*cell))]
        graphs += [random_regular(n, r, seed) for n in (11, 12) for r in range(n)
                   if (n * r) % 2 == 0 for seed in range(3)]
        monkeypatch.setattr(generation, "CANONICAL_CAP", 16)
        graphs += [shrikhande_graph(), rook_graph(4)]
        assert len(graphs) == 306
        lines = b"".join(canonical_form(g) + b"\n" for g in graphs)
        assert hashlib.sha256(lines).hexdigest() == \
            "1d3a7e3205d235285c0496207f55d66d1d21e497c372f1fe651900ceac907352"

    def test_equal_bytes_iff_isomorphic(self):
        # pairs of three kinds: a graph and a relabeling (isomorphic), two
        # samples of one (n, r) cell, and a graph and a relabeling with one
        # edge moved (same order, size and often degrees)
        nx = pytest.importorskip("networkx")
        rng = random.Random(77)
        outcomes = {True: 0, False: 0}
        for i in range(300):
            n = rng.randrange(1, 13)
            if i % 3 == 1 and n > 2:
                r = rng.randrange(n - 1 if n % 2 else n)
                r -= (n * r) % 2
                g = random_regular(n, r, rng.getrandbits(32))
                h = random_regular(n, r, rng.getrandbits(32))
            else:
                p = rng.random()
                g = build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < p])
                h = g
                edges, non = list(g.edges()), list(complement(g).edges())
                if i % 3 == 2 and edges and non:
                    moved = set(edges) - {rng.choice(edges)} | {rng.choice(non)}
                    h = build(n, moved)
                h = _shuffled(h, rng)
            same = nx.is_isomorphic(_nx(g), _nx(h))
            assert (canonical_form(g) == canonical_form(h)) == same, (g, h)
            outcomes[same] += 1
        assert min(outcomes.values()) >= 60, outcomes

    def test_agrees_with_unpruned_search(self):
        # orbit pruning and the jump back may skip only images of subtrees
        # already explored, so the least rows searched are the whole tree's.
        # Every regular class below n = 9 has equal rows at all its leaves,
        # so only classes at (9, 4), (10, 3), (10, 4) and (10, 6) can show a
        # cut that skips the least leaf
        rng = random.Random(41)
        for n in range(1, 11):
            for r in range(n):
                if n * r % 2 or n > 8 and not 3 <= r <= n - 4:
                    continue
                for g in enumerate_regular(n, r):
                    for h in (g, _shuffled(g, rng)):
                        assert canonical_form(h) == oracles.canonical_form_unpruned(h), h

    def test_leaf_rows_agree_with_unpruned_search(self, monkeypatch):
        # the explored leaves must carry the rows of every leaf of the tree.
        # Every regular class below n = 9 has equal rows at all its leaves,
        # so the partial graphs the enumerator tests at n <= 10, some with
        # up to four leaf rows, are what show a wrong cut
        rng = random.Random(24)
        graphs = [g for n in range(1, 9) for r in range(n) if n * r % 2 == 0
                  for g in enumerate_regular(n, r)]
        leaf_rows = generation._leaf_rows
        partial = {}
        monkeypatch.setattr(generation, "_leaf_rows", lambda g, *args, **kw: (
            partial.setdefault(g.adj, g), leaf_rows(g, *args, **kw))[1])
        for n in range(1, 11):
            for r in range(n):
                if n * r % 2 == 0:
                    list(enumerate_regular(n, r))
        graphs += partial.values()
        several = 0
        for g in graphs:
            # the leaf rows do not depend on the labelling
            want = oracles.leaf_rows_unpruned(g)
            for h in (g, _shuffled(g, rng)):
                assert set(leaf_rows(h)) == want, h
            several += len(want) > 1
        assert several >= 20

    def test_leaf_rows_report_repeats(self):
        # a graph's first leaf is in the union of earlier graphs' leaf rows
        # exactly when it is isomorphic to one of them
        nx = pytest.importorskip("networkx")
        rng = random.Random(25)
        graphs = [h for r in (3, 4) for g in enumerate_regular(8, r)
                  for h in (g, _shuffled(g, rng))]
        rng.shuffle(graphs)
        known: set = set()
        repeats = 0
        for i, h in enumerate(graphs):
            rows = generation._leaf_rows(h, known)
            repeat = any(nx.is_isomorphic(_nx(g), _nx(h)) for g in graphs[:i])
            assert (rows is None) == repeat, h
            if rows is None:
                repeats += 1
            else:
                known.update(rows)
        assert repeats == 12

    @pytest.mark.parametrize("g", [
        empty_graph(11), empty_graph(12), complete_graph(11), complete_graph(12),
        complete_bipartite(5, 6), complete_bipartite(6, 6),
        _union(*[complete_graph(3)] * 4), _union(*[complete_graph(4)] * 3),
        cycle_graph(11), cycle_graph(12), _union(cycle_graph(6), cycle_graph(6)),
        _prism(6), _union(petersen_graph(), complete_graph(1)),
        _union(petersen_graph(), complete_graph(2)),
    ], ids=["E11", "E12", "K11", "K12", "K5,6", "K6,6", "4K3", "3K4", "C11", "C12",
            "2C6", "prism12", "Petersen+K1", "Petersen+K2"])
    def test_symmetric_graphs(self, g, monkeypatch):
        # large automorphism groups: the search must prune by orbits (the
        # empty graph alone has 12! leaves) and stay relabeling-invariant
        refinements = []
        refine = generation._refine
        monkeypatch.setattr(generation, "_refine",
                            lambda *args: refinements.append(1) or refine(*args))
        base = canonical_form(g)
        assert len(refinements) <= g.n ** 2
        h = parse_graph6(base.decode("ascii"))
        assert sorted(map(h.degree, range(h.n))) == sorted(map(g.degree, range(g.n)))
        rng = random.Random(g.n)
        for _ in range(10):
            assert canonical_form(_shuffled(g, rng)) == base


    @pytest.mark.parametrize("g,relabelings", [
        (shrikhande_graph(), 7),
        (disjoint_union(shrikhande_graph(), rook_graph(4)), 12),
    ], ids=["Shrikhande", "Shrikhande+rook4"])
    def test_strongly_regular_relabelings(self, g, relabelings, monkeypatch):
        # the refinement cannot split a strongly regular graph, so its leaves
        # fall in several orbits with unequal rows; orbit pruning by
        # generators that move the node's individualized vertices, or a
        # jump back to the root instead of to the node where two paths
        # split, then gives several outputs over a few relabelings
        monkeypatch.setattr(generation, "CANONICAL_CAP", g.n)
        rng = random.Random(16)
        outputs = {canonical_form(_shuffled(g, rng)) for _ in range(relabelings)}
        assert len(outputs) == 1

    def test_strongly_regular_equal_bytes_iff_isomorphic(self, monkeypatch):
        # the Shrikhande and 4x4 rook's graphs share their parameters
        # (16, 6, 2, 2) and are not isomorphic.  networkx takes seconds to
        # a minute to tell two such unions at n = 32 apart, so every graph
        # of that order here is the one union
        nx = pytest.importorskip("networkx")
        monkeypatch.setattr(generation, "CANONICAL_CAP", 32)
        rng = random.Random(17)
        shrikhande, rook = shrikhande_graph(), rook_graph(4)
        graphs = [shrikhande, rook, disjoint_union(shrikhande, rook),
                  disjoint_union(rook, shrikhande)]
        graphs += [_shuffled(g, rng) for g in graphs]
        for g in graphs:
            for h in graphs:
                if g.n == h.n:
                    same = nx.is_isomorphic(_nx(g), _nx(h))
                    assert (canonical_form(g) == canonical_form(h)) == same, (g, h)


class TestEnumeration:
    @pytest.mark.parametrize("n,r,count", [(4, 2, 1), (6, 3, 2), (8, 3, 6)])
    def test_frozen_counts(self, n, r, count):
        assert len(list(enumerate_regular(n, r))) == count

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_order_rejected(self, n):
        # as random_regular does
        with pytest.raises(GraphError, match="need 0 <= r < n"):
            list(enumerate_regular(n, 0))

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

    def test_pinned_stream(self, small_regular_corpus):
        # every class of every (n, r) with n <= 10 in stream order, then the
        # connected cubic classes at n = 8 and 10; canonical_form decides
        # only which graphs are repeats, so its labeling cannot move this
        cells = [(n, r) for n in range(1, 11) for r in range(n) if (n * r) % 2 == 0]
        stream = [g for cell in cells for g in (
            small_regular_corpus[cell] if cell in small_regular_corpus
            else enumerate_regular(*cell))]
        stream += enumerate_regular(8, 3, connected_only=True)
        stream += enumerate_regular(10, 3, connected_only=True)
        assert len(stream) == 274
        lines = "".join(format_graph6(g) + "\n" for g in stream)
        digest = hashlib.sha256(lines.encode()).hexdigest()
        assert digest == "30a5451249eae6ba6159bbf32fe3cf3d3280ff78c2a83c6376479c39a2b8f137"

    def test_matches_reference_search(self):
        # isomorph rejection of partial graphs must leave the stream of the
        # plain generate-then-dedup search: the same graphs in the same
        # order on every cell, with and without the connectivity filter
        cells = [(n, r) for n in range(1, 11) for r in range(n) if (n * r) % 2 == 0]
        graphs = 0
        for connected_only in (False, True):
            for n, r in cells:
                got = list(enumerate_regular(n, r, connected_only))
                assert got == list(oracles.enumerate_regular_reference(n, r, connected_only)), (n, r)
                graphs += len(got)
        assert (2 * len(cells), graphs) == (90, 472)

    def test_rejection_cuts_canonical_searches(self, monkeypatch):
        # the plain search makes 5356 canonical searches over these cells,
        # one per labelled graph reached; the stream tests would pass with
        # the rejection switched off, this one would not.  The count is
        # exact, so a faster search is seen to be the same search
        calls = []
        leaf_rows = generation._leaf_rows
        monkeypatch.setattr(generation, "_leaf_rows",
                            lambda g, *args, **kw: calls.append(g) or leaf_rows(g, *args, **kw))
        for n in range(1, 11):
            for r in range(n):
                if (n * r) % 2 == 0:
                    list(enumerate_regular(n, r))
        assert len(calls) == 2092

    def test_repeats_stop_at_their_first_leaf(self, monkeypatch):
        # a repeated partial graph costs one descent: these cells build
        # exactly 3363 leaves, and 5897 if every search ran to its end
        leaves = []
        relabeled = generation._relabeled_rows
        monkeypatch.setattr(generation, "_relabeled_rows",
                            lambda *args: leaves.append(1) or relabeled(*args))
        for n in range(1, 11):
            for r in range(n):
                if (n * r) % 2 == 0:
                    list(enumerate_regular(n, r))
        assert len(leaves) == 3363

    def test_search_leaves_no_cyclic_garbage(self):
        # the searches free their trees and buckets on return; cycles left
        # to the collector would hold them until it next ran
        gc.collect()
        gc.disable()
        try:
            assert len(list(enumerate_regular(9, 4))) == 16
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_past_the_cap(self, monkeypatch):
        # the known class counts at (11, 4) and (12, 3), within reach once
        # partial graphs are deduped; the cap itself stays at 10
        monkeypatch.setattr(generation, "ENUMERATION_CAP", 12)
        for n, r, count in [(11, 4, 266), (12, 3, 94)]:
            forms = {canonical_form(g) for g in enumerate_regular(n, r)}
            assert len(forms) == count

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
