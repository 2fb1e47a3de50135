"""Spans around the public functions of each regext layer, for the traced run.

``Tracer.install`` replaces each function listed in ``TRACED`` with a
wrapper in every loaded ``regext`` module that binds it, so calls made
through module globals (``perfect_matching`` reaching
``tutte_violator_bruteforce``, ``enumerate_regular`` reaching
``canonical_form``) are caught as well.  No file of the library changes;
``uninstall`` puts the originals back.  Spans stay in memory as
(name, start, end, parent) and are written out once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
from bisect import bisect_right
from collections import Counter
from time import perf_counter

from regext import ExtensionTrace, TutteViolator

# layer (= regext module) -> public functions timed in the traced run
TRACED = {
    "graph": ("parse_graph6", "format_graph6", "complement", "add_matching",
              "components_after_deletion"),
    "matching": ("perfect_matching", "tutte_violator_bruteforce", "max_matching"),
    "structure": ("find_clique", "spanning_biclique", "balloons", "find_bridges",
                  "check_balloon_bound"),
    "extension": ("extend_to", "extend_once", "dirac_cycle", "classify"),
    "generation": ("random_regular", "canonical_form", "enumerate_regular"),
    "cli": ("main",),
}

GENERATORS = {"generation.enumerate_regular"}


class Tracer:
    """Records one span per call of a traced function, plus result counters."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index]; end is None while open
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "regext" or k.startswith("regext.")]
        for layer, fns in TRACED.items():
            home = sys.modules[f"regext.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                original = getattr(home, fn)
                wrapper = (self._wrap_generator if name in GENERATORS
                           else self._wrap)(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end

    def _count(self, name: str, result) -> None:
        if name == "matching.perfect_matching" and isinstance(result, TutteViolator):
            self.counts["violators"] += 1
        elif name == "extension.extend_to" and isinstance(result, ExtensionTrace):
            self.counts["levels"] += len(result.steps)
        elif name == "extension.extend_once" and isinstance(result, tuple):
            self.counts["levels"] += 1

    def _wrap(self, name: str, fn):
        counted = name in ("matching.perfect_matching", "extension.extend_to",
                           "extension.extend_once")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            idx = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start)
            if counted:
                self._count(name, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        """Each ``next()`` on the generator is one span; yields made by an
        outer call of the same generator function count as classes once."""

        def stepped(it):
            while True:
                idx = self._open(name)
                parent = self.spans[idx][3]
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx, start)
                if parent == -1 or self.spans[parent][0] != name:
                    self.counts["classes"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            return stepped(fn(*args, **kwargs))

        return traced

    def self_times(self) -> Counter[str]:
        """Span duration minus the time its child spans cover, summed by name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter[str] = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def uncovered(self, ops: list[tuple[float, float]]) -> float:
        """Seconds of op wall time that no top-level span covers."""
        covered = 0.0
        j = 0
        for _, start, end, parent in self.spans:
            if parent != -1:
                continue
            while j < len(ops) and ops[j][1] <= start:
                j += 1
            k = j
            while k < len(ops) and ops[k][0] < end:
                covered += min(end, ops[k][1]) - max(start, ops[k][0])
                k += 1
        return sum(e - s for s, e in ops) - covered

    def write(self, path, ops: list[tuple[float, float]]) -> None:
        """Spans as gzipped TSV: op id (-1 outside every op), name, start and
        end in seconds from the first op, parent span index."""
        starts = [s for s, _ in ops]
        origin = starts[0] if starts else 0.0
        path.parent.mkdir(exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                op = bisect_right(starts, start) - 1
                if op >= 0 and start > ops[op][1]:
                    op = -1
                out.write(f"{op}\t{name}\t{start - origin:.9f}\t"
                          f"{end - origin:.9f}\t{parent}\n")

    def metrics(self, ops: list[tuple[float, float]], untraced_wall: float) -> dict:
        """Per-layer metrics of a traced phase whose ops are ``ops``."""
        wall = sum(e - s for s, e in ops)
        selfs = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for layer, fns in TRACED.items():
            layer_self = sum(selfs[f"{layer}.{fn}"] for fn in fns)
            if layer == "cli":
                out["cli.main.calls"] = (self.calls["cli.main"], "count")
                out["cli.self_s"] = (layer_self, "s")
                out["cli.self_share"] = (layer_self / wall, "ratio")
                continue
            for fn in fns:
                out[f"{layer}.{fn}.calls"] = (self.calls[f"{layer}.{fn}"], "count")
                out[f"{layer}.{fn}.self_s"] = (selfs[f"{layer}.{fn}"], "s")
            if layer == "matching":
                out["matching.perfect_matching.violators"] = (self.counts["violators"], "count")
            elif layer == "extension":
                out["extension.levels"] = (self.counts["levels"], "count")
            elif layer == "generation":
                classes = self.counts["classes"]
                per_class = self.calls["generation.canonical_form"] / classes if classes else 0.0
                out["generation.canonical_calls_per_class"] = (per_class, "calls/class")
            out[f"{layer}.self_share"] = (layer_self / wall, "ratio")
        out["trace.overhead_ratio"] = (wall / untraced_wall - 1, "ratio")
        out["trace.uncovered_share"] = (self.uncovered(ops) / wall, "ratio")
        out["trace.ops"] = (len(ops), "count")
        return out
