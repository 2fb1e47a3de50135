"""The four benchmark workloads, each a closed loop with one client.

A workload builds its inputs from the seed in ``setup`` and then runs
rounds; every round has the same mix of inputs, so throughput and
percentiles do not depend on where a timed run stops.  An op is one graph
as each workload defines it.  Op k of round j runs the same input as op k
of round j - ``period``; the untraced run times every input at least
``repeats`` times, even if that takes longer than ``--seconds``, and takes
its median (see ``run.median_latencies``).  An op's time is recorded as an
interval; its output is checked by :mod:`check` after the interval closes,
so checking is never timed.  Library calls go through module attributes
(``extension.extend_to``) so the traced run sees them.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path
from time import perf_counter

from regext import cli, extension, generation, graph, matching, structure

import check

OUT = Path(__file__).resolve().parent / "out"


class Recorder:
    """Op intervals, failures and known-defect hits of one measured phase.

    With a ``clock`` the host's speed is probed between ops (see
    :mod:`hostspeed`); workloads call ``idle`` wherever no op is timed.
    """

    def __init__(self, clock=None) -> None:
        self.ops: list[tuple[float, float]] = []
        self.round_ends: list[int] = []
        self.failures: dict[int, str] = {}
        self.known_defects: list[str] = []
        self.clock = clock

    def idle(self) -> None:
        if self.clock is not None:
            self.clock.tick()

    def run_round(self, workload, j: int) -> None:
        workload.run_round(j, self)
        self.round_ends.append(len(self.ops))

    def round_latencies(self, scaled: bool = True) -> list[list[float]]:
        """Op times per round, scaled to the reference host speed if probed."""
        starts = [0] + self.round_ends[:-1]
        scale = (self.clock.scale if scaled and self.clock is not None
                 else lambda s, e: 1.0)
        return [[(e - s) * scale(s, e) for s, e in self.ops[a:b]]
                for a, b in zip(starts, self.round_ends)]

    def add(self, start: float, end: float, reason: str | None = None) -> None:
        self.ops.append((start, end))
        if reason:
            self.fail_last(reason)
        self.idle()

    def fail_last(self, reason: str) -> None:
        self.failures.setdefault(len(self.ops) - 1, reason)


def interleave(values: list[int]) -> list[int]:
    """Smallest, largest, second smallest, ...: every prefix mixes sizes."""
    lo, hi = 0, len(values) - 1
    out = []
    while lo <= hi:
        out.append(values[lo])
        if lo != hi:
            out.append(values[hi])
        lo += 1
        hi -= 1
    return out


class Climb:
    """parse_graph6 -> extend_to(g, 3n//4) -> format_graph6 on random cubic graphs."""

    repeats = 3

    def __init__(self, seed: int, n_values=range(32, 65, 2), groups: int = 6):
        self.seed = seed
        self.n_values = interleave(list(n_values))
        self.period = groups

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.rounds = [
            [(n, graph.format_graph6(generation.random_regular(n, 3, rng.getrandbits(32))))
             for n in self.n_values]
            for _ in range(self.period)
        ]
        self._op(*self.rounds[0][0], Recorder())

    def run_round(self, j: int, rec: Recorder) -> None:
        for n, line in self.rounds[j % self.period]:
            self._op(n, line, rec)

    @staticmethod
    def _op(n: int, line: str, rec: Recorder) -> None:
        target = 3 * n // 4
        start = perf_counter()
        try:
            res = extension.extend_to(graph.parse_graph6(line), target)
            final = (graph.format_graph6(res.final)
                     if isinstance(res, extension.ExtensionTrace) else None)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            rec.add(start, perf_counter(), f"raised {exc!r}")
            return
        end = perf_counter()
        rec.add(start, end, check.climb(line, target, res, final))


class Sample:
    """random_regular(n, r, seed) then perfect_matching, over (r, n) cells.

    Every round samples each cell once with a seed made from the run's
    seed, the round and the cell, so no graph repeats within a run and there
    is no period: every op is an input of its own.  The sampler's cost
    varies a lot between seeds (r = 5 takes 3 to 180 ms at the same n), so
    a run takes at least six rounds, six graphs per cell.
    """

    period = None
    repeats = 6

    def __init__(self, seed: int, degrees=(3, 5, 6, 7, 8, 9, 17),
                 n_values=range(18, 47, 2)):
        self.seed = seed
        self.degrees = degrees
        self.cells = [(n, r) for n in interleave(list(n_values)) for r in degrees if r < n]

    def setup(self) -> None:
        """Warm up: one graph per degree at the smallest n, on seeds that do
        not depend on the run's, so set-up costs the same for every seed."""
        rec = Recorder()
        n = min(n for n, _ in self.cells)
        for r in self.degrees:
            if r < n:
                self._op(n, r, r, rec)

    def run_round(self, j: int, rec: Recorder) -> None:
        for k, (n, r) in enumerate(self.cells):
            self._op(n, r, (self.seed << 24) ^ (j << 12) ^ k, rec)

    @staticmethod
    def _op(n: int, r: int, seed: int, rec: Recorder) -> None:
        start = perf_counter()
        try:
            g = generation.random_regular(n, r, seed)
            res = matching.perfect_matching(g)
        except Exception as exc:  # a raising op is a failed op; keep measuring
            rec.add(start, perf_counter(), f"raised {exc!r}")
            return
        end = perf_counter()
        rec.add(start, end, check.sampled(n, r, g, res))


# Defects the benchmark keeps running so they stay visible; each is reported
# on every run until the library fixes it, and is not counted as a failure.
KNOWN_DEFECTS = {
    (2, 0): "extend_once on the empty 2-vertex graph raises DiracPreconditionError "
            "under auto although K_2 is a valid extension",
}


class Enumerate:
    """One op per isomorphism class of enumerate_regular(n, r), n <= max_n,
    plus extend_once (n even, r <= n-2) and check_balloon_bound over every S
    with |S| <= 3 (r odd, r >= 3).  Seed-free: one round is one full pass."""

    period = 1
    repeats = 3

    def __init__(self, seed: int, max_n: int = 10):
        self.cells = [(n, r) for n in range(1, max_n + 1) for r in range(n)
                      if n * r % 2 == 0]

    def setup(self) -> None:
        self._cell(6, 3, Recorder())

    def run_round(self, j: int, rec: Recorder) -> None:
        for n, r in self.cells:
            self._cell(n, r, rec)

    @staticmethod
    def _cell(n: int, r: int, rec: Recorder) -> None:
        done = []
        error = None
        start = perf_counter()
        it = generation.enumerate_regular(n, r)
        while True:
            try:
                g = next(it)
            except StopIteration:
                break
            except Exception as exc:  # a raising op is a failed op; keep measuring
                error = f"enumerate_regular({n}, {r}) raised {exc!r}"
                break
            ext = bounds = None
            try:
                if n % 2 == 0 and r <= n - 2:
                    try:
                        ext = extension.extend_once(g)
                    except extension.DiracPreconditionError as exc:
                        ext = exc
                if r % 2 == 1 and r >= 3:
                    bounds = [(s, structure.check_balloon_bound(g, s))
                              for k in range(4) for s in combinations(range(n), k)]
            except Exception as exc:  # a raising op is a failed op; keep measuring
                ext = exc
            done.append([start, perf_counter(), g, ext, bounds])
            rec.idle()
            start = perf_counter()
        end = perf_counter()
        if error or not done:
            # the failed search is an op of its own
            done.append([start, end, None, None, None])
        else:
            # the search after the last class belongs to the last op
            done[-1][1] += end - start
        for i, (op_start, op_end, g, ext, bounds) in enumerate(done):
            if g is None:
                rec.add(op_start, op_end, error or check.class_count(n, r, 0))
                continue
            reason = check.enumerated(n, r, g)
            if isinstance(ext, Exception):
                if (n, r) in KNOWN_DEFECTS and isinstance(ext, extension.DiracPreconditionError):
                    rec.known_defects.append(KNOWN_DEFECTS[(n, r)])
                else:
                    reason = reason or f"raised {ext!r}"
            elif ext is not None:
                reason = reason or check.extended_once(g, ext)
            if bounds and not reason:
                b = len(check.balloon_blocks(n, list(g.adj))[2])
                reason = next(filter(None, (check.balloon_bound(n, list(g.adj), r, b, s, got)
                                            for s, got in bounds)), None)
            if i == len(done) - 1:
                reason = reason or check.class_count(n, r, len(done))
            rec.add(op_start, op_end, reason)


def hub_graph(n: int, hubs: int, rng: random.Random) -> str:
    """Deficient graph: ``hubs`` hub vertices joined to hubs + 2 odd cliques,
    each clique attached to 3 distinct hubs, randomly relabelled.

    Deleting the hubs leaves hubs + 2 odd components, and no deletion of at
    most two vertices leaves more odd components than it deletes, so the
    minimum Tutte violator has at least three vertices.
    """
    cliques = hubs + 2
    while True:
        sizes = [3] * cliques
        extra = n - hubs - 3 * cliques
        for i in range(-extra // 2):
            sizes[i] = 1
        for _ in range(extra // 2):
            sizes[rng.randrange(cliques)] += 2
        edges = []
        v = hubs
        for size in sizes:
            members = list(range(v, v + size))
            v += size
            edges += list(combinations(members, 2))
            for i, h in enumerate(rng.sample(range(hubs), 3)):
                edges.append((h, members[i % size]))
        perm = list(range(n))
        rng.shuffle(perm)
        adj = [0] * n
        for a, b in edges:
            adj[perm[a]] |= 1 << perm[b]
            adj[perm[b]] |= 1 << perm[a]
        small = all(check.odd_components(n, adj, check.mask_of(s)) <= k
                    for k in range(3) for s in combinations(range(n), k))
        if small:
            return graph.format_graph6(graph.Graph(n, tuple(adj)))


class Certify:
    """A seeded graph6 corpus fed in-process to ``regext.cli.main``.

    Every line goes through ``match --json --certificates`` and
    ``analyze --json``; regular lines also through ``check --json`` and
    ``extend --json``.  An op is one JSON result line, timed to its own
    newline from the moment the CLI got control back after the previous
    result line (from the call, for the first).
    """

    period = 1
    repeats = 3

    def __init__(self, seed: int,
                 scan_sizes=(14,) * 16 + (16,) * 3 + (18, 18),
                 ge_sizes=(24, 32, 40, 48),
                 t4_cells=((16, 9), (22, 11), (28, 15), (34, 17), (40, 21)),
                 pair_cells=((12, 7), (20, 11), (28, 15), (36, 19)),
                 random_cells=((20, 3), (22, 4), (26, 5), (28, 3), (32, 4), (34, 5),
                               (38, 4), (40, 3))):
        self.seed = seed
        self.scan_sizes = scan_sizes
        self.ge_sizes = ge_sizes
        self.t4_cells = t4_cells
        self.pair_cells = pair_cells
        self.random_cells = random_cells

    def setup(self) -> None:
        rng = random.Random(self.seed)
        entries = [("hub", hub_graph(n, 3, rng)) for n in self.scan_sizes]
        entries += [("hub", hub_graph(n, n // 8 + 1, rng)) for n in self.ge_sizes]
        entries += [("t4", graph.format_graph6(generation.sample_spanning_biclique_regular(
            n, r, rng.getrandbits(32), odd_parts=True))) for n, r in self.t4_cells]
        entries += [("clique-pair", graph.format_graph6(generation.sample_clique_pair_regular(
            n, r, rng.getrandbits(32)))) for n, r in self.pair_cells]
        entries += [("random", graph.format_graph6(generation.random_regular(
            n, r, rng.getrandbits(32)))) for n, r in self.random_cells]
        rng.shuffle(entries)
        regular = [e for e in entries if e[0] != "hub"]
        OUT.mkdir(exist_ok=True)
        tasks = []
        for label, subset, commands in (
            ("all", entries, (["match", "--json", "--certificates"], ["analyze", "--json"])),
            ("regular", regular, (["check", "--json"], ["extend", "--json"])),
        ):
            path = OUT / f"certify-{self.seed}-{label}.g6"
            path.write_text("".join(line + "\n" for _, line in subset))
            decoded = [(kind, line, *check.decode_graph6(line)) for kind, line in subset]
            tasks += [(argv + ["--input", str(path)], decoded) for argv in commands]
        self.tasks = tasks
        warm = OUT / f"certify-{self.seed}-warmup.g6"
        warm.write_text(regular[0][1] + "\n")
        for argv, _ in tasks:
            self._main(argv[:-1] + [str(warm)])

    def run_round(self, j: int, rec: Recorder) -> None:
        for argv, decoded in self.tasks:
            self._task(argv, decoded, rec)

    @staticmethod
    def _main(argv: list[str], idle=lambda: None):
        out = LineStamper(idle)
        start = perf_counter()
        error = None
        code = None
        try:
            with redirect_stdout(out):
                code = cli.main(argv)
        except SystemExit as exc:
            error = f"exited with {exc.code!r}"
        except Exception as exc:  # a raising call fails its missing lines
            error = f"raised {exc!r}"
        return start, code, out.lines, error

    def _task(self, argv: list[str], decoded: list, rec: Recorder) -> None:
        command = argv[0]
        start, code, lines, error = self._main(argv, rec.idle)
        prev = start
        results = 0
        failed = 0
        for stamp, resume, text in lines:
            obj = json.loads(text)
            if obj["kind"] != "result":
                if obj["kind"] == "header":
                    continue
                # summary: the CLI's own tally must match the result lines
                if obj["failed"] != failed or code != (1 if failed else 0):
                    rec.fail_last(f"{command}: summary or exit code disagrees with the results")
                continue
            failed += not obj["ok"]
            reason = None
            if obj.get("line") != results + 1 or results >= len(decoded):
                reason = f"{command}: unexpected result line {obj.get('line')}"
            else:
                kind, line, n, adj = decoded[results]
                reason = self._check(command, kind, line, n, adj, obj)
            rec.add(prev, stamp, reason)
            prev = resume
            results += 1
        if error or results != len(decoded):
            for _ in range(max(len(decoded) - results, 1)):
                rec.add(prev, perf_counter(), f"{command}: {error or 'missing result line'}")

    @staticmethod
    def _check(command: str, kind: str, line: str, n: int, adj: list[int], res: dict):
        if res.get("graph6") != line:
            return f"{command}: result echoes {res.get('graph6')!r}, input was {line!r}"
        if command == "match":
            return check.match_line(n, adj, res)
        if command == "analyze":
            return check.analyze_line(n, adj, res, cli.CLIQUE_CLI_LIMIT)
        if command == "check":
            return check.check_line(n, adj, res, kind)
        return check.extend_line(n, adj, res)


class LineStamper(io.TextIOBase):
    """stdout replacement that timestamps each completed line.

    After each line but the first (the header, whose time goes to the first
    result) it calls ``idle``, so the host can be probed between result
    lines.  A line is kept as (written, control back to the CLI, text).
    """

    def __init__(self, idle) -> None:
        self.lines: list[list] = []
        self._partial: list[str] = []
        self._idle = idle

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if "\n" not in text:
            self._partial.append(text)
            return len(text)
        now = perf_counter()
        *whole, rest = text.split("\n")
        for piece in whole:
            self._partial.append(piece)
            self.lines.append([now, now, "".join(self._partial)])
            self._partial = []
        if rest:
            self._partial.append(rest)
        if len(self.lines) > 1:
            self._idle()
            self.lines[-1][1] = perf_counter()
        return len(text)


WORKLOADS = {"climb": Climb, "certify": Certify, "sample": Sample, "enumerate": Enumerate}
