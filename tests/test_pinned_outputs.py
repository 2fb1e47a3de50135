"""Pinned outputs of the extension ladder and of the blossom matcher.

Both digests were recorded before the Dirac and blossom inner loops moved
to mask arithmetic; they hold as long as every search still visits the same
vertices in the same order.  The inputs come from ``random_regular`` and
``random.Random``, so this module also pins them across Python versions.
"""

import hashlib
import random

import pytest

from regext import (
    ExtensionTrace,
    Graph,
    TutteViolator,
    build,
    extend_to,
    max_matching,
    max_matching_with_violator,
    perfect_matching,
    random_regular,
)


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


def test_extension_traces_pinned():
    h = hashlib.sha256()
    stuck = 0
    for g, target, backtrack in extension_corpus():
        res = extend_to(g, target, backtrack=backtrack)
        stuck += not isinstance(res, ExtensionTrace)
        h.update(f"{g.n} {target} {backtrack} {_describe_extension(res)}\n".encode())
    # the failure record must be pinned too
    assert stuck >= 10
    assert h.hexdigest() == "7dbb37cd882af01996c8fc7ec44475331b434a5ceb65e27794af954e2a0ce536"


def test_matchings_and_violators_pinned():
    h = hashlib.sha256()
    deficient = 0
    for g in matching_corpus():
        m, violator = max_matching_with_violator(g)
        assert max_matching(g) == m
        if violator is None:
            line = f"{g.n} {_edges(m)} perfect\n"
        else:
            deficient += 1
            line = f"{g.n} {_edges(m)} {sorted(violator.s)} {violator.odd_count}\n"
        h.update(line.encode())
    # the corpus must keep both outcomes well represented
    assert 500 <= deficient <= 2500
    assert h.hexdigest() == "db27944768f8f2e3bbd36e3263cb9bfad534769f8e27d7803c5b851313d860d4"


def test_inner_loops_use_masks_only(monkeypatch):
    # the per-vertex accessors must stay off the product's hot paths
    def forbidden(*args):
        raise AssertionError("per-vertex accessor called in an inner loop")

    monkeypatch.setattr(Graph, "neighbors", forbidden)
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
