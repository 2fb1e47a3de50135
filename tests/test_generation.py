import hashlib
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
