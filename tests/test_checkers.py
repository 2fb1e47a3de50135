"""Every certificate checker accepts exactly the certificates its
definition in ``tests/oracles.py`` accepts.

On small orders every input is tried: every labelled graph with every
candidate certificate, malformed ones included.  A malformed label is
negative, past n - 1 or not an int; a bool is an int and reads as one.  A
malformed pair holds one vertex twice or is not a pair at all.  Above
that range hypothesis corrupts a valid certificate by one element or one
count.  A ``verify`` or ``witness_ok`` answers False on malformed input,
and ``validate_cycle`` raises GraphError.
"""

from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regext import (
    BicliqueWitness,
    ExtensionTrace,
    GraphError,
    TutteViolator,
    build,
    complement,
    extend_to,
    is_valid_matching,
    max_matching,
    perfect_matching,
    random_regular,
    spanning_biclique,
    validate_cycle,
)
from regext.extension import RULES
from families import labelled_graphs

import oracles

WITNESS_OK = {rule.short: rule.witness_ok for rule in RULES}
# labels that are no int, and the bools, which read as 1 and 0
ODD_LABELS = ("a", None, 0.5, True, False)
# elements that are not pairs of vertex labels, and pairs of bools
NOT_PAIRS = (0, (0,), (0, 1, 2), (0, "a"), (0.5, 1), (None, 0), (False, True), (True, 1))


def subsets(items, most=None):
    """Every subset of ``items`` with at most ``most`` elements, as tuples."""
    items = list(items)
    top = len(items) if most is None else most
    return chain.from_iterable(combinations(items, k) for k in range(top + 1))


def labels(n):
    """Every vertex of order n, and one label past each end."""
    return [-1, *range(n), n]


def graphs(n):
    return labelled_graphs(n, n)


def cycle_accepted(g, order):
    try:
        validate_cycle(g, order)
    except GraphError:
        return False
    return True


def trace_accepted(g, start_r, target_r, steps, final):
    return ExtensionTrace(start_r, target_r, steps, final).verify(g)


# -- every small input --------------------------------------------------------

@pytest.mark.parametrize("n", range(5))
def test_tutte_violator_exact(n):
    sets = [*subsets(labels(n)), *([x] for x in ODD_LABELS)]
    for g in graphs(n):
        for s in map(frozenset, sets):
            for odd in range(n + 2):
                assert TutteViolator(s, odd).verify(g) is \
                    oracles.is_tutte_violator(g, s, odd), (g, s, odd)


@pytest.mark.parametrize("n", range(5))
def test_is_valid_matching_exact(n):
    # every edge set of K_n, and below n = 4 every set of at most two
    # ordered pairs over the labels (self-pairs, both orders) or non-pairs
    sets = list(subsets(combinations(range(n), 2)))
    if n <= 3:
        sets += subsets([*product(labels(n), repeat=2), *NOT_PAIRS], 2)
    for g in graphs(n):
        for m in map(frozenset, sets):
            for perfect in (False, True):
                assert is_valid_matching(g, m, perfect) is \
                    oracles.is_matching(g, m, perfect), (g, m, perfect)


@pytest.mark.parametrize("n", range(5))
def test_biclique_witnesses_exact(n):
    # A over the labels and B over the vertices, then the labels that are
    # no vertex on either side
    pairs = [(a, b) for a in subsets(labels(n)) for b in subsets(range(n))]
    pairs += [(a, (x,)) for a in subsets(range(n)) for x in ODD_LABELS]
    pairs += [((x,), b) for b in subsets(range(n)) for x in ODD_LABELS]
    for g in graphs(n):
        for a, b in pairs:
            w = BicliqueWitness(frozenset(a), frozenset(b))
            want = oracles.is_spanning_biclique(g, w.part_a, w.part_b)
            assert w.verify(g) is want, (g, w)
            odd_parts = len(w.part_a) % 2 == len(w.part_b) % 2 == 1
            assert WITNESS_OK["T4"](g, w) is (want and odd_parts), (g, w)


@pytest.mark.parametrize("n", range(5))
def test_half_clique_witness_exact(n):
    sets = [*subsets(labels(n)), *((0, x) for x in ODD_LABELS)]
    for g in graphs(n):
        for w in map(frozenset, sets):
            assert WITNESS_OK["T5"](g, w) is oracles.is_half_clique(g, w), (g, w)


@pytest.mark.parametrize("n", range(5))
def test_validate_cycle_exact(n):
    # every n-tuple of vertices; below n = 4 every tuple of n - 1 to n + 1
    # labels instead, and a label that is no int in each place
    if n <= 3:
        orders = [*chain.from_iterable(product(labels(n), repeat=k)
                                       for k in range(max(0, n - 1), n + 2)),
                  *((*range(i), x, *range(i + 1, n)) for i in range(n) for x in ODD_LABELS)]
    else:
        orders = list(product(range(n), repeat=n))
    for g in graphs(n):
        for order in orders:
            assert cycle_accepted(g, order) is oracles.is_hamiltonian_cycle(g, order), \
                (g, order)


# a JSON null where the certificate has a set
@pytest.mark.parametrize("check", [
    lambda g: TutteViolator(None, 1).verify(g),
    lambda g: is_valid_matching(g, None),
    lambda g: BicliqueWitness(None, frozenset({0})).verify(g),
    lambda g: WITNESS_OK["T4"](g, BicliqueWitness(frozenset({0}), None)),
    lambda g: WITNESS_OK["T5"](g, None),
    lambda g: ExtensionTrace(0, 1, None, g).verify(g),
], ids=["violator", "matching", "biclique", "T4", "T5", "trace"])
def test_null_in_place_of_a_set(check):
    assert check(build(2, [])) is False


def _steps(n):
    """Every matching of K_n, and malformed ones: a self-pair, a label past
    either end, one pair twice, overlapping pairs and a pair of bools."""
    pairs = list(combinations(range(n), 2))
    good = [m for m in subsets(pairs, n // 2)
            if len(set(chain.from_iterable(m))) == 2 * len(m)]
    bad = [((0, 0),), ((0, n),), ((-1, 0),), ((0, 1), (1, 0)), ((0, 1), (1, 2)),
           ((False, True),)]
    return list(map(frozenset, good)), list(map(frozenset, bad))


def _with_steps(g, steps):
    """g with every pair of ``steps`` added, or None where a pair cannot be
    an edge."""
    try:
        return build(g.n, [*g.edges(), *chain.from_iterable(steps)])
    except (GraphError, IndexError, TypeError):
        return None


@pytest.mark.parametrize("n", range(5))
def test_extension_trace_exact(n):
    # traces of at most two steps: two from every matching of K_n, one from
    # the malformed ones; the stated degrees right and one off, and the
    # final graph g with the steps' pairs, or g
    good, bad = _steps(n)
    sequences = [(), *((m,) for m in good + bad), *product(good, repeat=2)]
    for g in graphs(n):
        r = g.degree(0) if n else 0
        for steps in sequences:
            finals = {g, _with_steps(g, steps)} - {None}
            for start_r, target_r, final in product(
                    (r, r + 1), (r + len(steps), r + len(steps) + 1), finals):
                assert trace_accepted(g, start_r, target_r, steps, final) is \
                    oracles.is_extension_trace(g, start_r, target_r, steps, final), \
                    (g, start_r, target_r, steps, final)


# -- corrupted certificates above the exhaustive range -------------------------

@st.composite
def graphs_at_least(draw, min_n, max_n=12, parity=None):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if parity is not None and n % 2 != parity:
        n += 1
    pairs = list(combinations(range(n), 2))
    return build(n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)))


def corrupt_set(draw, items, n):
    """``items`` with one label dropped, added or swapped for another; the
    labels run one past each end of 0..n-1."""
    items = set(items)
    label = st.integers(min_value=-1, max_value=n)
    how = draw(st.sampled_from(["drop", "add", "swap"] if items else ["add"]))
    if how != "add":
        items.discard(draw(st.sampled_from(sorted(items))))
    if how != "drop":
        items.add(draw(label))
    return frozenset(items)


def corrupt_pairs(draw, pairs, n):
    """``pairs`` with one pair dropped or added, or one end of a pair
    moved to another label."""
    pairs = set(pairs)
    label = st.integers(min_value=-1, max_value=n)
    how = draw(st.sampled_from(["drop", "add", "move"] if pairs else ["add"]))
    if how == "add":
        pairs.add((draw(label), draw(label)))
        return frozenset(pairs)
    u, v = draw(st.sampled_from(sorted(pairs)))
    pairs.remove((u, v))
    if how == "move":
        pairs.add((u, draw(label)))
    return frozenset(pairs)


@given(graphs_at_least(5, parity=1), st.data())
@settings(max_examples=40)
def test_corrupted_violator(g, data):
    # odd n: the matcher returns a violator, which must verify
    v = perfect_matching(g)
    assert v.verify(g) and oracles.is_tutte_violator(g, v.s, v.odd_count)
    s, odd = v.s, v.odd_count
    if data.draw(st.booleans()):
        s = corrupt_set(data.draw, s, g.n)
    else:
        odd += data.draw(st.sampled_from([-1, 1]))
    assert TutteViolator(s, odd).verify(g) is oracles.is_tutte_violator(g, s, odd)


@given(graphs_at_least(5), st.data())
@settings(max_examples=40)
def test_corrupted_matching(g, data):
    m = max_matching(g)
    assert is_valid_matching(g, m) and oracles.is_matching(g, m)
    m = corrupt_pairs(data.draw, m, g.n)
    for perfect in (False, True):
        assert is_valid_matching(g, m, perfect) is oracles.is_matching(g, m, perfect)


@given(st.integers(min_value=6, max_value=12), st.data())
@settings(max_examples=40)
def test_corrupted_biclique(n, data):
    # K_{a, n - a} plus edges inside its parts keeps a spanning biclique
    a = data.draw(st.integers(min_value=1, max_value=n - 1))
    inside = [e for e in combinations(range(n), 2) if (e[0] < a) == (e[1] < a)]
    extra = data.draw(st.lists(st.sampled_from(inside), unique=True))
    g = build(n, [*((u, v) for u in range(a) for v in range(a, n)), *extra])
    w = spanning_biclique(g)
    assert w.verify(g) and oracles.is_spanning_biclique(g, w.part_a, w.part_b)
    part_a, part_b = w.part_a, w.part_b
    if data.draw(st.booleans()):
        part_a = corrupt_set(data.draw, part_a, n)
    else:
        part_b = corrupt_set(data.draw, part_b, n)
    w = BicliqueWitness(part_a, part_b)
    want = oracles.is_spanning_biclique(g, part_a, part_b)
    assert w.verify(g) is want
    assert WITNESS_OK["T4"](g, w) is (want and len(part_a) % 2 == len(part_b) % 2 == 1)


@given(st.integers(min_value=3, max_value=7), st.data())
@settings(max_examples=40)
def test_corrupted_half_clique(half, data):
    n = 2 * half
    clique = frozenset(data.draw(st.permutations(range(n)))[:half])
    extra = data.draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                               unique=True, max_size=2 * n))
    g = build(n, [*combinations(sorted(clique), 2), *extra])
    assert WITNESS_OK["T5"](g, clique) and oracles.is_half_clique(g, clique)
    w = corrupt_set(data.draw, clique, n)
    assert WITNESS_OK["T5"](g, w) is oracles.is_half_clique(g, w)


@given(st.integers(min_value=5, max_value=12), st.data())
@settings(max_examples=40)
def test_corrupted_cycle(n, data):
    # a Hamiltonian cycle in random order, plus chords
    order = data.draw(st.permutations(range(n)))
    chords = data.draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                                unique=True, max_size=2 * n))
    g = build(n, [*((order[i - 1], order[i]) for i in range(n)), *chords])
    assert cycle_accepted(g, tuple(order)) and oracles.is_hamiltonian_cycle(g, order)
    order = list(order)
    label = st.integers(min_value=-1, max_value=n)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    how = data.draw(st.sampled_from(["drop", "add", "set", "swap"]))
    if how == "drop":
        del order[i]
    elif how == "add":
        order.insert(i, data.draw(label))
    elif how == "set":
        order[i] = data.draw(label)
    else:
        order[i], order[j] = order[j], order[i]
    assert cycle_accepted(g, tuple(order)) is oracles.is_hamiltonian_cycle(g, order)


@given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2**32 - 1), st.data())
@settings(max_examples=30)
def test_corrupted_trace(half, r, seed, data):
    n = 2 * half
    g = random_regular(n, r, seed)
    tr = extend_to(g, min(n - 1, r + data.draw(st.integers(min_value=1, max_value=3))))
    if not isinstance(tr, ExtensionTrace):
        return
    start_r, target_r, steps, final = tr.start_r, tr.target_r, list(tr.steps), tr.final
    assert tr.verify(g) and oracles.is_extension_trace(g, start_r, target_r, steps, final)
    how = data.draw(st.sampled_from(["degree", "drop-step", "step", "final"]))
    if how == "degree":
        if data.draw(st.booleans()):
            start_r += data.draw(st.sampled_from([-1, 1]))
        else:
            target_r += data.draw(st.sampled_from([-1, 1]))
    elif how == "drop-step":
        del steps[data.draw(st.integers(0, len(steps) - 1))]
    elif how == "step":
        i = data.draw(st.integers(0, len(steps) - 1))
        steps[i] = corrupt_pairs(data.draw, steps[i], n)
    else:
        final = complement(final)
    steps = tuple(steps)
    assert trace_accepted(g, start_r, target_r, steps, final) is \
        oracles.is_extension_trace(g, start_r, target_r, steps, final)
