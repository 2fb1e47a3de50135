"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criteria with runtime budgets assert against the
wall clock.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import factorial

from regext import (
    RULES,
    ExtensionTrace,
    TutteViolator,
    add_matching,
    build,
    check_balloon_bound,
    check_ineq_kr,
    check_ineq_x,
    classify,
    complement,
    components_after_deletion,
    cycle_to_matching,
    dirac_cycle,
    enumerate_regular,
    extend_once,
    extend_to,
    format_graph6,
    is_valid_matching,
    max_matching,
    parse_graph6,
    perfect_matching,
    random_regular,
    regularity,
    require_regular,
    tutte_violator_bruteforce,
    validate_cycle,
)
from regext.cli import main as cli_main
from families import (
    balloon_cubic_pair,
    cliques_plus_matching,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    petersen_graph,
    prism_graph,
)
from regext.structure import balloons

import oracles
from oracles import OddCycle, complement_bipartite_check


def _report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


def _valid_degrees(n):
    return [r for r in range(n) if (n * r) % 2 == 0]


def _assert_tutte_berge_tight(g, violator):
    """The violator proves the exact size of a maximum matching."""
    assert violator.odd_count - len(violator.s) == g.n - 2 * len(max_matching(g)), \
        format_graph6(g)


def test_criterion_01_oracle_equivalence():
    """perfect_matching vs the exhaustive Tutte scan, exact agreement."""
    t0 = time.monotonic()
    checked = 0

    for n in range(4, 11):
        for r in _valid_degrees(n):
            for g in enumerate_regular(n, r):
                pm = perfect_matching(g)
                bf = tutte_violator_bruteforce(g)
                has = not isinstance(pm, TutteViolator)
                assert has == (bf is None), (n, r, format_graph6(g))
                if has:
                    assert is_valid_matching(g, pm, perfect=True)
                else:
                    assert pm.verify(g) and bf.verify(g)
                    _assert_tutte_berge_tight(g, pm)
                checked += 1

    # 500 seeded random graphs with n <= 20; the largest sizes are thinned
    # because proving "no violator" costs a full 2^n scan
    per_size = {n: 32 for n in range(4, 17)}
    per_size.update({17: 24, 18: 22, 19: 20, 20: 18})
    assert sum(per_size.values()) == 500
    rng = random.Random(0x5EED)
    for n, count in sorted(per_size.items()):
        degrees = _valid_degrees(n)
        for i in range(count):
            r = degrees[rng.randrange(len(degrees))]
            g = random_regular(n, r, rng.getrandbits(48))
            pm = perfect_matching(g)
            bf = tutte_violator_bruteforce(g)
            assert (not isinstance(pm, TutteViolator)) == (bf is None), (n, r)
            if bf is not None:
                _assert_tutte_berge_tight(g, pm)
            checked += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s, budget 120s"
    _report(1, f"{checked} graphs, 100% existence agreement, {elapsed:.1f}s")


def test_criterion_02_dirac_extension_exhaustive():
    """Every r-regular graph with even n in 4..10 and r < n/2 extends
    constructively through a complement Hamiltonian cycle."""
    failures = 0
    checked = 0
    for n in range(4, 11, 2):
        for r in range(n // 2):
            if (n * r) % 2:
                continue
            for g in enumerate_regular(n, r):
                gc = complement(g)
                cyc = dirac_cycle(gc)
                validate_cycle(gc, cyc)        # permutation + adjacency
                m = cycle_to_matching(cyc)
                assert is_valid_matching(gc, m, perfect=True)
                g2 = add_matching(g, m)
                assert require_regular(g2) == r + 1
                # the API takes the same route: 2r < n picks the Dirac cycle
                assert extend_once(g) == (g2, m)
                checked += 1
    assert failures == 0
    _report(2, f"{checked} enumerated graphs extended via Dirac, zero failures")


def test_criterion_03_odd_regular_matching_lemma():
    """r = 17, every even n in 18..56, 100 seeded samples each: a perfect
    matching always exists and blossom finds it."""
    t0 = time.monotonic()
    r = 17
    checked = 0
    for n in range(18, 57, 2):
        assert n < 3 * r + 7
        for i in range(100):
            g = random_regular(n, r, 1_000_000 * n + i)
            m = perfect_matching(g)
            assert not isinstance(m, TutteViolator), (n, i)
            assert is_valid_matching(g, m, perfect=True)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 2000
    assert elapsed < 300, f"took {elapsed:.1f}s, budget 300s"
    _report(3, f"{checked} samples at r=17, zero counterexamples, {elapsed:.1f}s")


def test_criterion_04_even_even_extension_region():
    """200 sampled (n, r) with n, r even inside the printed bound: all extend."""
    # the bound is written out here as a reference independent of the rule
    # table, and the table must agree with it
    cells = []
    for n in range(4, 61, 2):
        for r in range(0, n - 1, 2):
            ok = (3 * r < 2 * (n + 2)) if n >= 52 else (r < n - 16)
            if ok:
                cells.append((n, r))
    assert cells
    t2 = next(rule for rule in RULES if rule.short == "T2")
    assert cells == [(n, r) for n in range(4, 61, 2) for r in range(n) if t2.holds(n, r)]
    checked = 0
    for i in range(200):
        n, r = cells[(7 * i) % len(cells)]
        g = random_regular(n, r, 31_337 + i)
        res = extend_once(g)
        assert not isinstance(res, TutteViolator), (n, r, i)
        g2, m = res
        assert require_regular(g2) == r + 1
        assert is_valid_matching(complement(g), m, perfect=True)
        checked += 1
    _report(4, f"{checked} samples across the even/even region, all extended")


def test_criterion_05_impossibility_certificates():
    """K_{m,m} for odd m: classified impossible, with the exact violator."""
    for m in (3, 5, 7):
        g = complete_bipartite(m, m)
        for _ in range(2):  # deterministic: identical results on repeat
            verdicts = {v.rule: v for v in classify(g)}
            t4 = verdicts["T4-Impossible"]
            assert t4.applies and t4.conclusion == "not-extendable"
            assert sorted(map(len, (t4.evidence.part_a, t4.evidence.part_b))) \
                == [m, m]
            res = extend_once(g)
            assert isinstance(res, TutteViolator)
            assert res.s == frozenset() and res.odd_count == 2
            assert res.verify(complement(g))
        # the complement really is two odd K_m blocks
        comp_parts = components_after_deletion(complement(g))
        assert [len(b) % 2 for b in comp_parts.blocks] == [1, 1]
    _report(5, "K_{3,3}, K_{5,5}, K_{7,7}: T4 + violator s={} with 2 odd components")


def test_criterion_06_clique_theorem_full_ladder():
    """Two K_4s plus a matching climbs to K_8 greedily; every intermediate
    complement is regular bipartite."""
    g = cliques_plus_matching(4)
    tr = extend_to(g, 7, backtrack=0)
    assert isinstance(tr, ExtensionTrace)
    assert tr.final == complete_graph(8)
    assert tr.verify(g)
    cur = g
    ladder = []
    for step in tr.steps:
        gc = complement(cur)
        r_c = regularity(gc)
        assert r_c is not None
        coloring = complement_bipartite_check(cur)  # 2-colors complement(cur)
        assert not isinstance(coloring, OddCycle)
        a, b = coloring
        assert len(a) == len(b) == 4
        ladder.append(r_c)
        cur = add_matching(cur, step)
    assert ladder == [3, 2, 1]
    _report(6, "2K_4+M -> K_8 with backtrack=0; complements bipartite 3,2,1-regular")


def test_criterion_07_balloon_machinery(tmp_path, capsys):
    """Bridge/balloon analysis of the 10-vertex cubic graph, plus the
    odd-component bound on every applicable (g, s) with |s| <= 3."""
    import json as _json

    g = balloon_cubic_pair()
    rep = balloons(g)
    assert rep.bridges == ((4, 9),)
    assert rep.b == 2
    assert sorted(len(b) for b in rep.balloons) == [5, 5]  # r + 2

    # the analyze command reports the same structure
    path = tmp_path / "balloon.g6"
    path.write_text(format_graph6(g) + "\n")
    code = cli_main(["analyze", "--input", str(path), "--json"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = _json.loads(lines[1])
    assert result["bridges"] == [[4, 9]] and result["b"] == 2

    corpus = []
    for n in (4, 6, 8, 10):
        for r in range(3, n, 2):
            corpus.extend(enumerate_regular(n, r))
    for n in (12, 14):
        for r in range(3, min(n, 12), 2):
            for i in range(6):
                corpus.append(random_regular(n, r, 555 * n + 10 * r + i))

    applicable_checked = 0
    for g in corpus:
        for k in range(4):
            for s in combinations(range(g.n), k):
                chk = check_balloon_bound(g, s)
                if chk.applicable:
                    assert chk.holds, (format_graph6(g), s)
                    applicable_checked += 1
    rng = random.Random(7)
    for _ in range(1000):
        g = corpus[rng.randrange(len(corpus))]
        size = rng.randrange(4, g.n + 1)
        s = rng.sample(range(g.n), size)
        chk = check_balloon_bound(g, s)
        if chk.applicable:
            assert chk.holds
            applicable_checked += 1
    _report(7, f"1 bridge, b=2, balloon sizes 5; bound held on "
               f"{applicable_checked} applicable (g, s) pairs")


def test_criterion_08_arithmetic_lemmas():
    """Exhaustive integer grid and dense rational grid, under 10 seconds."""
    t0 = time.monotonic()
    count_kr = 0
    for r in range(16, 201):
        for k in range(2, r - 1):
            assert check_ineq_kr(r, k), (r, k)
            count_kr += 1
    count_x = 0
    for r in range(1, 201):
        x = Fraction(1)
        while x <= r:
            assert check_ineq_x(Fraction(r), x), (r, x)
            count_x += 1
            x += Fraction(1, 4)
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"
    _report(8, f"{count_kr} integer and {count_x} rational points, "
               f"zero violations, {elapsed:.1f}s")


def test_criterion_09_enumeration_sanity():
    """Counts 1, 2, 6 reproduced by the independent labeled-count oracle."""
    expectations = [(4, 2, 1, 3), (6, 3, 2, 70), (8, 3, 6, 19355)]
    for n, r, classes_expected, labeled_expected in expectations:
        labeled = oracles.count_labeled_regular(n, r)
        assert labeled == labeled_expected
        classes = list(enumerate_regular(n, r))
        assert len(classes) == classes_expected
        # orbit identity: sum of n!/|Aut| over classes recovers the labeled
        # count, so the class list is complete and duplicate-free
        assert sum(factorial(n) // oracles.automorphism_count(g)
                   for g in classes) == labeled
        for i, g in enumerate(classes):
            for h in classes[i + 1:]:
                assert not oracles.are_isomorphic(g, h)
    _report(9, "(4,2)->1, (6,3)->2, (8,3)->6 confirmed against labeled counts")


def test_criterion_10_graph6_format():
    """Byte-exact round-trips over the whole corpus plus external lines."""
    corpus = [
        complete_graph(4), cycle_graph(5), petersen_graph(), prism_graph(),
        balloon_cubic_pair(), cliques_plus_matching(4), build(0, []), build(1, []),
    ]
    for n in range(4, 11):
        for r in _valid_degrees(n):
            corpus.extend(enumerate_regular(n, r))
    rng = random.Random(10)
    for _ in range(100):
        n = rng.randrange(2, 41)
        r = rng.choice(_valid_degrees(n))
        corpus.append(random_regular(n, r, rng.getrandbits(32)))

    for g in corpus:
        line = format_graph6(g)
        assert parse_graph6(line) == g
        assert format_graph6(parse_graph6(line)) == line

    external = [
        ("C~", complete_graph(4)),
        ("C?", build(4, [])),
        ("DQc", build(5, [(0, 2), (0, 4), (1, 3), (3, 4)])),
    ]
    for line, expected in external:
        assert parse_graph6(line) == expected
        assert format_graph6(expected) == line
    _report(10, f"{len(corpus)} graphs round-tripped byte-exact; "
                f"{len(external)} external lines cross-parsed")
