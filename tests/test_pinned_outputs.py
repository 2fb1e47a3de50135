"""Pinned outputs of the extension ladder and of the blossom matcher, and
the instances ``regext verify`` draws.

The extension and matching digests were first recorded before the Dirac
and blossom inner loops moved to mask arithmetic, and they held as long as
every search visited the same vertices in the same order.  The length-3
augmenting pass of the matcher's warm start changed which matchings it
finds, so both were recorded again; the earlier values are still asserted
with the greedy-only warm start from ``oracles`` patched in.  The digest of
the sizes and violators alone was recorded before that pass and holds under
both starts.  Taking the odd edges of each Dirac cycle as the next level's
matching changed the extension traces from the level after the first cycle
on, later taking the blossom matcher at every level above the first
changed them again, and taking it at the first level too changed them a
third time; each time the extension digests were recorded again.  The
earlier values are still asserted, each with its route's ladder from
``oracles`` patched in: a Dirac cycle at every level with 2r < n, cycles
that serve two levels, and a cycle at the first level alone.  The
instance digests were recorded while verify still collected every instance
as graph6 before checking any.
The inputs come from ``random_regular``, the other samplers and
``random.Random``, so this module also pins them across Python versions.
"""

import argparse
import functools
import hashlib
import importlib.util
import random
from pathlib import Path

import pytest

from regext import (
    ExtensionTrace,
    Graph,
    TutteViolator,
    add_matching,
    build,
    complement,
    extend_to,
    format_graph6,
    max_matching,
    max_matching_with_violator,
    perfect_matching,
    random_regular,
    require_regular,
)
from regext import cli, extension, matching

import oracles


def _edges(m) -> str:
    return repr(sorted(m))


def _describe_extension(res) -> str:
    steps = ";".join(_edges(m) for m in res.steps)
    if isinstance(res, ExtensionTrace):
        return f"trace {res.start_r}->{res.target_r} {steps} {res.final!r}"
    v = res.violator
    return f"stuck {res.reached_r} {steps} {sorted(v.s)} {v.odd_count}"


def extension_corpus():
    """(graph, target, backtrack) for r in 0..6: even n in 4..80 climbing to
    3n/4, then even n in 6..30 climbing to n - 1, where some ladders get
    stuck without backtracking."""
    cells = [(n, 3 * n // 4) for n in range(4, 81, 2)]
    cells += [(n, n - 1) for n in range(6, 31, 2)]
    for n, target in cells:
        for r in range(7):
            if r > target:
                continue
            g = random_regular(n, r, 1000 * n + r)
            for backtrack in (0, 1):
                yield g, target, backtrack


def matching_corpus(count=3000):
    """Seeded random graphs with n < 40, from sparse (mostly deficient) to
    dense, odd orders included."""
    rng = random.Random(20261018)
    for _ in range(count):
        n = rng.randrange(1, 40)
        p = rng.choice((1.0 / n, 2.0 / n, 3.0 / n, 0.3, 0.6, 0.9))
        yield build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if rng.random() < p])


def _extension_digest() -> str:
    h = hashlib.sha256()
    stuck = 0
    for g, target, backtrack in extension_corpus():
        res = extension.extend_to(g, target, backtrack=backtrack)
        stuck += not isinstance(res, ExtensionTrace)
        h.update(f"{g.n} {target} {backtrack} {_describe_extension(res)}\n".encode())
    # the failure record must be pinned too
    assert stuck >= 10
    return h.hexdigest()


# the size of a maximum matching and the Gallai-Edmonds set do not depend on
# which maximum matching the search finds, so no warm start or search order
# may move this digest of (n, size, S, odd)
SIZES_AND_VIOLATORS = "b283bc5d472be4586774267e277b7511dd06f75a35b11d9046b10d210c8441e5"


def _matching_digests() -> tuple[str, str]:
    """Digests of the matchings with their violators, and of the sizes with
    the violators alone."""
    full = hashlib.sha256()
    sizes = hashlib.sha256()
    deficient = 0
    for g in matching_corpus():
        try:
            m, violator = max_matching_with_violator(g)
        except AssertionError as exc:  # a failed self-check names its graph
            raise AssertionError(f"{exc} on adj={g.adj}") from exc
        assert max_matching(g) == m, g.adj
        if violator is None:
            tail = "perfect\n"
        else:
            deficient += 1
            tail = f"{sorted(violator.s)} {violator.odd_count}\n"
        full.update(f"{g.n} {_edges(m)} {tail}".encode())
        sizes.update(f"{g.n} {len(m)} {tail}".encode())
    # the corpus must keep both outcomes well represented
    assert 500 <= deficient <= 2500
    return full.hexdigest(), sizes.hexdigest()


@pytest.fixture
def greedy_start(monkeypatch):
    """The matcher as it was before the length-3 augmenting pass."""
    monkeypatch.setattr(matching, "_match_array", oracles.match_array_greedy)


def _reference_ladder(monkeypatch, dirac):
    monkeypatch.setattr(extension, "extend_to",
                        functools.partial(oracles.extend_to_reference, dirac=dirac))


@pytest.fixture
def no_spare(monkeypatch):
    """The ladder as it was before a Dirac cycle's odd edges served the next
    level: every level with 2r < n builds a Dirac cycle of its own."""
    _reference_ladder(monkeypatch, "every")


@pytest.fixture
def dirac_pairs(monkeypatch):
    """The ladder as it was while each Dirac cycle served two levels."""
    _reference_ladder(monkeypatch, "pairs")


@pytest.fixture
def first_level_dirac(monkeypatch):
    """The ladder as it was while its first level alone took a Dirac cycle
    when 2r < n."""
    _reference_ladder(monkeypatch, "first")


def test_extension_traces_pinned():
    assert _extension_digest() == \
        "7b9a160c8c625c2c3db34dd5dfc1cdcc77eeab846937a22728748cfd44f35794"


def test_extension_traces_pinned_first_level_dirac(first_level_dirac):
    assert _extension_digest() == \
        "b1b8eb46f1c039e82b24df02b63bae05ca29532cf24c1a776f3921acf376fcf5"


def test_extension_traces_pinned_dirac_pairs(dirac_pairs):
    assert _extension_digest() == \
        "a7025455921f1acc875a20cf287f6d30417a23c444dd76cc16d1e78739212b87"


def test_extension_traces_pinned_without_spare(no_spare):
    assert _extension_digest() == \
        "4684fb89b745dd2f37b9c98b1763b8f369c1250e6796e06be42243652daed1e5"


def test_matchings_and_violators_pinned(bounded_phases):
    assert _matching_digests() == (
        "99830522978f8221588d8ae172fa3b20e17705e4014844721d73f86aeb425ba2",
        SIZES_AND_VIOLATORS)


def test_extension_traces_pinned_greedy_start(greedy_start):
    assert _extension_digest() == \
        "d77d8860842a0f9547b539917807db710ea3bf3f852a12ce4cfbc888aab14ea9"


def test_extension_traces_pinned_greedy_start_first_level_dirac(greedy_start,
                                                                 first_level_dirac):
    assert _extension_digest() == \
        "4517bee283835341d0c910d9c561f2f5931629286717027d2bc2a3e25835baf1"


def test_extension_traces_pinned_greedy_start_dirac_pairs(greedy_start, dirac_pairs):
    assert _extension_digest() == \
        "5c465a86f5b893cc3fa99de8ba06ec701f5427bb5ec83f98c7e823bcdfe5e91b"


def test_extension_traces_pinned_greedy_start_without_spare(greedy_start, no_spare):
    assert _extension_digest() == \
        "7dbb37cd882af01996c8fc7ec44475331b434a5ceb65e27794af954e2a0ce536"


def test_extension_corpus_verifies():
    # every trace re-checks level by level from its input, and every failure
    # carries a violator of the complement at the level it reached
    for g, target, backtrack in extension_corpus():
        res = extend_to(g, target, backtrack=backtrack)
        where = (format_graph6(g), target, backtrack)
        if isinstance(res, ExtensionTrace):
            assert res.verify(g), where
            continue
        stuck = g
        for m in res.steps:
            stuck = add_matching(stuck, m)
        assert require_regular(stuck) == res.reached_r, where
        assert res.violator.verify(complement(stuck)), where


def test_matchings_and_violators_pinned_greedy_start(greedy_start):
    assert _matching_digests() == (
        "db27944768f8f2e3bbd36e3263cb9bfad534769f8e27d7803c5b851313d860d4",
        SIZES_AND_VIOLATORS)


def test_inner_loops_use_masks_only(monkeypatch):
    # the per-vertex accessor must stay off the product's hot paths
    def forbidden(*args):
        raise AssertionError("per-vertex accessor called in an inner loop")

    monkeypatch.setattr(Graph, "has_edge", forbidden)
    g = random_regular(64, 3, 7)
    for backtrack in (0, 1):
        assert isinstance(extend_to(g, 48, backtrack=backtrack), ExtensionTrace)
    # a hub joined to one vertex of each of three triangles: deleting the
    # hub leaves three odd components
    hub = build(10, [(0, 1), (0, 4), (0, 7)]
                + [(a + i, a + j) for a in (1, 4, 7) for i, j in ((0, 1), (1, 2), (0, 2))])
    violator = perfect_matching(hub)
    assert isinstance(violator, TutteViolator)
    assert violator.s == frozenset({0}) and violator.odd_count == 3


def _verify_claims_quick() -> dict:
    path = Path(__file__).resolve().parent.parent / "scripts" / "verify_claims.py"
    spec = importlib.util.spec_from_file_location("verify_claims", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.QUICK


# rule: (instances, sha256 of their graph6 lines in order) for every QUICK
# row of scripts/verify_claims.py at seed 0
VERIFY_STREAMS = {
    "T1": (17, "be02dedadc8bf5cc245fc103ee3d891b49d6f38d4838569543d8163449299e7f"),
    "T2": (40, "21fbb8c24e1ba08a21a3ed7479e84a1b2c6f754cbda18615140ebcb00f56de6f"),
    "T3": (15, "5bcfbb4a718ff1e1f0b4e1b67e3b90781a932096d7a5c1bdad03bc52aeb74f73"),
    "T4": (25, "3d595cddaceaacd5e2fb2a00e360b682160c1d57821ed51c6bbcef754a97806d"),
    "T5": (15, "4903853ed6a9b7499013bbb5cd74986d74a6363c9998a7202b877020e4c34c53"),
    "L": (60, "73554ce2c5d7e5b57998d89ef1812ce60ab6ad5a2bfc40bc66361296be9bac4c"),
    "C": (34, "5c9703b8692aa2f9c303cd9798a8fc7098c7ab2d8d3b1ab236e9d5340feced4e"),
    "L0-balloon": (101, "7ab86c80e45e3df608f82b3f3ca82254181f611ac9f6c22ab00e77fadd17d088"),
}


@pytest.mark.parametrize("rule", VERIFY_STREAMS)
def test_verify_instance_streams_pinned(rule):
    extra = _verify_claims_quick()[rule]
    opts = dict(zip(extra[::2], extra[1::2]))
    args = argparse.Namespace(n_range=opts.get("--n-range"), r_range=opts.get("--r-range"),
                              samples=int(opts.get("--samples", 100)), seed=0)
    notices: list[str] = []
    lines = [format_graph6(g) + "\n"
             for g in cli._verify_instances(cli._PLANS[rule], args, notices)]
    assert notices == []
    assert (len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()) == \
        VERIFY_STREAMS[rule]
