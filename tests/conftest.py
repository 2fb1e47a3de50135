import pytest
from hypothesis import settings

from regext import enumerate_regular

settings.register_profile("regext", deadline=None)
settings.load_profile("regext")


@pytest.fixture(scope="session")
def small_regular_corpus():
    """Every regular graph up to isomorphism for n in 4..10, keyed by (n, r)."""
    corpus = {}
    for n in range(4, 11):
        for r in range(n):
            if (n * r) % 2 == 0:
                corpus[(n, r)] = list(enumerate_regular(n, r))
    return corpus


class _MateBudget(list):
    """A mate array that fails once it has been read ``reads`` times."""

    def __init__(self, adj, mates, reads):
        super().__init__(mates)
        self.adj = adj
        self.reads = reads

    def __getitem__(self, i):
        self.reads -= 1
        if self.reads < 0:
            raise AssertionError(
                f"blossom phase over its work bound on adj={self.adj}")
        return super().__getitem__(i)


@pytest.fixture
def bounded_phases(monkeypatch):
    """Make a blossom phase fail, not loop, once it reads its mate array
    4n^2 times, and name the graph it ran on.  Every loop of a phase reads
    it: growing the tree reads each vertex's mate once, and each of fewer
    than n contractions walks O(n) mates.  On climb complements a phase
    reads it about 2n times.  A mate array that pairs one vertex with two
    others (a broken warm start) can make an unbounded phase loop forever.
    Returns a list that gets one entry per phase run."""
    from regext import matching

    phase = matching._augment_from
    roots = []

    def bounded(adj, match, root):
        roots.append(root)
        mates = _MateBudget(adj, match, 4 * len(adj) ** 2)
        try:
            return phase(adj, mates, root)
        finally:
            match[:] = mates

    monkeypatch.setattr(matching, "_augment_from", bounded)
    return roots
