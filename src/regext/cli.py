"""Command-line surface: extend, check, match, analyze, gen, verify.

Graphs travel as graph6, one per line, on stdin or --input.  Human text by
default, JSON-lines with --json (a header object, one object per result,
one summary object).  Exit codes: 0 all good, 1 any semantic failure
(non-extendable input, counterexample, violator where success was required,
non-regular input to a command that needs regularity), 2 usage, parse or
unreadable-input errors; a negative --backtrack, --count or --samples is a
usage error, and so are a verify range the rule does not read and gen
--connected without --enumerate.  A reader that closes stdout early
(``regext gen ... | head -1``) ends the run quietly with exit code 141, the
shell's code for a writer stopped by SIGPIPE.  All randomness flows from
--seed, so reports are byte-identical across runs.

``extend``, ``check``, ``match`` and ``analyze`` each answer one graph and
leave reading and reporting to ``_each_graph``: a line that is not graph6
costs only its own result, with its error on stderr and exit code 2.

``extend`` climbs the one ladder of ``extension.extend_to``, which takes
the blossom matcher at every level, so it has no matcher option.  ``check``
prints one verdict per record of ``extension.RULES``.  ``verify`` keeps,
per rule, only how it draws instances (``_DRAWS``): a sampler, a default
range and a seed formula.  It takes its (n, r) cells from the record's
``holds`` and checks each drawn graph, one at a time, with the record's
``confirm``, which holds the rule's witness check and proof.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from typing import Callable, Iterator, TextIO

from . import extension, generation, structure
from .extension import RULES, ExtensionTrace, TheoremVerdict, classify, extend_to
from .graph import Graph, Graph6Error, GraphError, format_graph6, parse_graph6, regularity
from .graph import components_after_deletion
from .matching import TutteViolator, max_matching_with_violator

# ``analyze`` computes the clique number, an exponential search, only up to
# this order (perfbench's certify checker reads it)
CLIQUE_CLI_LIMIT = 40


def _edges_json(edges) -> list[list[int]]:
    return [list(e) for e in sorted(edges)]


def certificate_json(obj) -> dict:
    """Stable JSON form for every certificate the library produces."""
    if isinstance(obj, TutteViolator):
        return {"type": "tutte-violator", "s": sorted(obj.s),
                "odd_count": obj.odd_count}
    if isinstance(obj, structure.BicliqueWitness):
        return {"type": "biclique", "part_a": sorted(obj.part_a),
                "part_b": sorted(obj.part_b)}
    if isinstance(obj, ExtensionTrace):
        return {"type": "trace", "start_r": obj.start_r, "target_r": obj.target_r,
                "steps": [_edges_json(s) for s in obj.steps],
                "final": format_graph6(obj.final)}
    if isinstance(obj, frozenset):
        return {"type": "vertex-set", "vertices": sorted(obj)}
    if isinstance(obj, extension.Unconfirmed):
        witness = {} if obj.witness is None else {"witness": certificate_json(obj.witness)}
        return {"type": obj.kind, **witness}
    raise TypeError(f"no JSON form for {type(obj)!r}")


def verdict_json(v: TheoremVerdict) -> dict:
    out = {"rule": v.rule, "applies": v.applies, "conclusion": v.conclusion}
    if v.evidence is not None:
        out["witness"] = certificate_json(v.evidence)
    return out


class Reporter:
    """Collects per-graph results and prints them in the selected format."""

    def __init__(self, command: str, options: dict, as_json: bool):
        self.as_json = as_json
        self.ok_count = 0
        self.fail_count = 0
        if as_json:
            print(json.dumps({"kind": "header", "command": command, "options": options}))

    def result(self, ok: bool, human: str, payload: dict) -> None:
        if ok:
            self.ok_count += 1
        else:
            self.fail_count += 1
        if self.as_json:
            print(json.dumps({"kind": "result", "ok": ok, **payload}))
        else:
            print(human)

    def summary(self, extra: dict | None = None) -> int:
        data = {"ok": self.ok_count, "failed": self.fail_count, **(extra or {})}
        if self.as_json:
            print(json.dumps({"kind": "summary", **data}))
        else:
            print("summary: " + " ".join(f"{k}={v}" for k, v in data.items()))
        return 0 if self.fail_count == 0 else 1


@contextmanager
def _utf8_stdin() -> Iterator[TextIO]:
    """stdin decoded as a file is, whatever its locale or PYTHONIOENCODING."""
    buffer = getattr(sys.stdin, "buffer", None)
    if buffer is None:  # already text with no bytes below it
        yield sys.stdin
        return
    stream = io.TextIOWrapper(buffer, encoding="utf-8", errors="surrogateescape")
    try:
        yield stream
    finally:
        stream.detach()  # leave sys.stdin's buffer open


def _read_graphs(path: str | None) -> list[tuple[int, str, Graph | Graph6Error]]:
    """Parse the graph6 lines of a file or stdin, all before any is answered;
    a bad line keeps its ``Graph6Error`` in place of the graph.  Exit 2 on
    an unreadable file.

    Both are decoded as UTF-8 with undecodable bytes escaped, so a stray
    byte fails its line's graph6 parse instead of the whole read.

    Parsing stays eager: parsing each line as its answer is due would add
    the parse to the time until every result line, not save any of it.
    """
    out = []
    try:
        with (open(path, encoding="utf-8", errors="surrogateescape")
              if path else _utf8_stdin()) as stream:
            for lineno, raw in enumerate(stream, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    out.append((lineno, line, parse_graph6(line)))
                except Graph6Error as exc:
                    out.append((lineno, line, exc))
    except OSError as exc:
        print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2)
    return out


def _each_graph(args, options: dict, answer, regular: bool = False) -> int:
    """Answer every graph6 line of ``args.input``; return the exit code.

    ``answer(g, r)`` gives ``(ok, text, fields)``, printed as ``line N:
    text`` or as a JSON result of ``line``, ``graph6`` and ``fields``.  With
    ``regular``, r is the degree of g and a non-regular graph is answered as
    an error, as a ``GraphError`` from ``answer`` is; otherwise r is None.
    """
    reporter = Reporter(args.command, options, args.json)
    unparsed = False
    for lineno, line, g in _read_graphs(args.input):
        if isinstance(g, Graph6Error):
            print(f"error: line {lineno}: {g}", file=sys.stderr)
            unparsed = True
            continue
        r = regularity(g) if regular else None
        if regular and r is None:
            ok, text, fields = False, "error: graph is not regular", {"error": "not regular"}
        else:
            try:
                ok, text, fields = answer(g, r)
            except GraphError as exc:
                ok, text, fields = False, f"error: {exc}", {"error": str(exc)}
        reporter.result(ok, f"line {lineno}: {text}", {"line": lineno, "graph6": line, **fields})
    code = reporter.summary()
    return 2 if unparsed else code


def cmd_extend(args) -> int:
    def answer(g, r):
        target = args.target_r if args.target_r is not None else r + 1
        res = extend_to(g, target, backtrack=args.backtrack)
        if isinstance(res, ExtensionTrace):
            final = format_graph6(res.final)
            fields = {"n": g.n, "r": r, "final": final, "final_r": res.target_r}
            if args.certificates:
                fields["trace"] = certificate_json(res)
            return True, f"extended r={r} -> {res.target_r}: {final}", fields
        fields = {"n": g.n, "r": r, "stuck_r": res.reached_r,
                  "violator": certificate_json(res.violator)}
        if args.certificates:
            # the violator is for the complement of g plus these matchings
            fields["steps"] = [_edges_json(s) for s in res.steps]
        return False, (f"not extendable at r={res.reached_r}: "
                       f"violator s={sorted(res.violator.s)} "
                       f"odd={res.violator.odd_count}"), fields

    return _each_graph(args, {
        "target_r": args.target_r, "backtrack": args.backtrack,
        "certificates": args.certificates,
    }, answer, regular=True)


def cmd_check(args) -> int:
    def answer(g, r):
        verdicts = classify(g)
        applying = [v for v in verdicts if v.applies]
        text = ", ".join(f"{v.short_rule}: {v.conclusion}" for v in applying) or "none"
        return True, text, {"verdicts": [verdict_json(v) for v in verdicts]}

    return _each_graph(args, {}, answer, regular=True)


def cmd_match(args) -> int:
    def answer(g, r):
        m, violator = max_matching_with_violator(g)
        if violator is not None:
            fields = {"size": len(m), "perfect": False, "matching": _edges_json(m),
                      "violator": certificate_json(violator)}
            return False, (f"max matching {len(m)} edges, no perfect matching: "
                           f"s={sorted(violator.s)} odd={violator.odd_count}"), fields
        fields = {"size": len(m), "perfect": True}
        if args.certificates:
            fields["matching"] = _edges_json(m)
        return True, f"perfect matching with {len(m)} edges", fields

    return _each_graph(args, {"certificates": args.certificates}, answer)


def cmd_analyze(args) -> int:
    def answer(g, _):
        r = regularity(g)
        rep = structure.balloons(g)
        # with no bridge cut, the blocks are the components
        comps = components_after_deletion(g).blocks if rep.bridges else rep.blocks
        clique_size = structure.clique_number(g) if g.n <= CLIQUE_CLI_LIMIT else None
        fields = {
            "n": g.n, "m": g.m, "r": r, "connected": len(comps) <= 1,
            "components": [sorted(c) for c in comps],
            "bridges": _edges_json(rep.bridges),
            "blocks": [sorted(b) for b in rep.blocks],
            "balloons": [sorted(b) for b in rep.balloons],
            "b": rep.b,
            "clique_number": clique_size,
        }
        if clique_size is None:
            fields["note"] = f"clique search skipped (n > {CLIQUE_CLI_LIMIT})"
        text = (f"n={g.n} m={g.m} r={r} components={len(comps)} "
                f"bridges={len(rep.bridges)} b={rep.b} "
                f"clique={clique_size if clique_size is not None else 'skipped'}")
        return True, text, fields

    return _each_graph(args, {}, answer)


def cmd_gen(args) -> int:
    if args.connected and not args.enumerate:
        print("error: --connected applies only with --enumerate", file=sys.stderr)
        return 2
    # human mode emits bare graph6 lines so the output pipes into the other
    # commands; JSON mode gets the usual header/result/summary objects
    reporter = Reporter("gen", {
        "n": args.n, "r": args.r, "seed": args.seed,
        "enumerate": args.enumerate, "count": args.count,
        "connected": args.connected,
    }, args.json) if args.json else None
    try:
        if args.enumerate:
            graphs = generation.enumerate_regular(args.n, args.r, args.connected)
        else:
            graphs = (generation.random_regular(args.n, args.r, args.seed + i)
                      for i in range(args.count))
        for g in graphs:
            line = format_graph6(g)
            if reporter:
                reporter.result(True, line, {"graph6": line, "n": g.n, "r": args.r})
            else:
                print(line)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return reporter.summary() if reporter else 0


# ---------------------------------------------------------------------------
# verify: empirical confirmation of each rule's guarantee on generated inputs


def _span(range_str: str | None, default: tuple[int, int]) -> tuple[int, int]:
    if not range_str:
        return default
    try:
        if ".." in range_str:
            a, b = range_str.split("..", 1)
            return int(a), int(b)
        v = int(range_str)
        return v, v
    except ValueError:
        print(f"error: bad range {range_str!r}", file=sys.stderr)
        raise SystemExit(2)


def _check_balloon(g: Graph) -> dict | None:
    rng = random.Random(format_graph6(g))

    def sampled_sets():
        for _ in range(20):
            size = rng.randrange(4, g.n) if g.n > 4 else 0
            yield tuple(sorted(rng.sample(range(g.n), size))) if size else ()

    small = (s for k in range(4) for s in combinations(range(g.n), k))
    for s in chain(small, sampled_sets()):
        chk = structure.check_balloon_bound(g, s)
        if chk.applicable and not chk.holds:
            return {"type": "balloon-bound", "s": list(s),
                    "lhs": str(chk.lhs), "rhs": str(chk.rhs)}
    return None


@dataclass(frozen=True)
class _Plan:
    """How ``verify`` draws instances of one rule, which ``check`` confirms.

    The cells (n, r) are the even n of the n range with every r < n, or,
    with ``r_range``, every odd r of the r range outermost (L and C are
    statements about odd r) with the n range of that r; a cell counts when
    ``region`` (the rule's hypothesis) holds and the sampler can build it.
    A ``spread`` plan draws ``samples`` graphs round-robin over all cells;
    otherwise each cell gets ``count(samples)`` graphs, or every
    isomorphism class when ``exhaustive`` and n is within the enumeration
    cap.  ``seed(seed, n, r, i)`` seeds the i-th draw.
    """

    region: Callable[[int, int], bool]
    check: Callable[[Graph], object]  # None, or the failure (as JSON for L0-balloon)
    sample: Callable[[int, int, int], Graph]
    n_range: tuple[int, int] | Callable[[int], tuple[int, int]]
    r_range: tuple[int, int] | None = None
    seed: Callable[[int, int, int, int], int] = lambda s, n, r, i: s + i
    feasible: Callable[[int, int], bool] = lambda n, r: True
    spread: bool = False
    exhaustive: bool = False
    count: Callable[[int], int] = lambda samples: samples


# how verify draws each theorem's instances; the region and the check are
# its record's ``holds`` and ``confirm``
_DRAWS = {
    "T1": dict(sample=generation.random_regular, n_range=(4, 10),
               seed=lambda s, n, r, i: s + 1000 * n + 10 * r + i, exhaustive=True),
    "T2": dict(sample=generation.random_regular, n_range=(4, 60), spread=True),
    # a spanning biclique forces r >= n/2, so the T3 region is empty below
    # n = 34
    "T3": dict(sample=lambda n, r, s: generation.sample_spanning_biclique_regular(n, r, s),
               n_range=(34, 70), spread=True,
               feasible=lambda n, r: bool(generation.biclique_splits(n, r))),
    "T4": dict(sample=lambda n, r, s: generation.sample_spanning_biclique_regular(n, r, s, True),
               n_range=(6, 40), spread=True,
               feasible=lambda n, r: bool(generation.biclique_splits(n, r, True))),
    "T5": dict(sample=generation.sample_clique_pair_regular, n_range=(4, 24), spread=True),
    "L": dict(sample=generation.random_regular, n_range=lambda r: (r + 1, 4 * r),
              r_range=(17, 17), seed=lambda s, n, r, i: s + 7919 * n + i,
              feasible=lambda n, r: r < n),
    # two r-regular components need n >= 2r + 2; cells the sampler cannot
    # split are reported
    "C": dict(sample=generation.sample_disconnected_regular, n_range=lambda r: (2 * r + 2, 4 * r),
              r_range=(17, 17), seed=lambda s, n, r, i: s + 7919 * n + i if i else s + n),
}

_PLANS = {
    **{rule.short: _Plan(rule.holds, rule.confirm, **_DRAWS[rule.short]) for rule in RULES},
    # the odd-component balloon bound, for odd r >= 3
    "L0-balloon": _Plan(lambda n, r: r % 2 == 1 and r >= 3, _check_balloon,
                        generation.random_regular, (4, 14),
                        seed=lambda s, n, r, i: s + 1000 * n + 10 * r + i, exhaustive=True,
                        count=lambda samples: max(1, samples // 10)),
}


def _cells(plan: _Plan, args, notices: list[str]) -> list[tuple[int, int]]:
    if plan.r_range is None:
        lo, hi = _span(args.n_range, plan.n_range)
        pairs = [(n, r) for n in range(lo + lo % 2, hi + 1, 2) for r in range(n)]
    else:
        pairs = []
        rlo, rhi = _span(args.r_range, plan.r_range)
        for r in range(rlo + (rlo + 1) % 2, rhi + 1, 2):
            lo, hi = plan.n_range(r)
            if not any(plan.region(n, r) for n in range(lo, hi + 1)):
                notices.append(f"r={r} skipped: empty hypothesis region")
                continue
            lo, hi = _span(args.n_range, (lo, hi))
            pairs += [(n, r) for n in range(lo + lo % 2, hi + 1, 2)]
    return [(n, r) for n, r in pairs if plan.region(n, r) and plan.feasible(n, r)]


def _verify_instances(plan: _Plan, args, notices: list[str]) -> Iterator[Graph]:
    """Graphs satisfying the plan's hypotheses, drawn one at a time; the
    parts of the requested region that are skipped go to ``notices``."""
    seed, samples = args.seed, args.samples
    cells = _cells(plan, args, notices)
    if not cells:
        notices.append("empty hypothesis region")
        return
    if plan.spread:
        for i in range(samples):
            n, r = cells[(seed + i) % len(cells)]
            yield plan.sample(n, r, plan.seed(seed, n, r, i))
        return
    for n, r in cells:
        if plan.exhaustive and n <= generation.ENUMERATION_CAP:
            yield from generation.enumerate_regular(n, r)
            continue
        for i in range(plan.count(samples)):
            try:
                g = plan.sample(n, r, plan.seed(seed, n, r, i))
            except GraphError as exc:
                notices.append(f"n={n}, r={r} skipped: {exc}")
                break
            yield g


def _run_ineq(args) -> Iterator[dict | None]:
    """None or a counterexample per grid point of the two arithmetic lemmas."""
    rlo, rhi = _span(args.r_range, (16, 200))
    for r in range(max(rlo, 16), rhi + 1):
        for k in range(2, r - 1):
            ok = structure.check_ineq_kr(r, k)
            yield None if ok else {"certificate": {"type": "ineq-kr", "r": r, "k": k}}
    for r in range(1, rhi + 1):
        x = Fraction(1)
        while x <= r:
            ok = structure.check_ineq_x(Fraction(r), x)
            yield None if ok else {"certificate": {"type": "ineq-x", "r": r, "x": str(x)}}
            x += Fraction(1, 4)


def _run_plan(plan: _Plan, args, notices: list[str]) -> Iterator[dict | None]:
    """Check each instance as it is drawn: None, or the counterexample."""
    for g in _verify_instances(plan, args, notices):
        cert = plan.check(g)
        if cert is not None and not isinstance(cert, dict):
            cert = certificate_json(cert)
        yield None if cert is None else {"graph6": format_graph6(g), "certificate": cert}


def cmd_verify(args) -> int:
    # only L, C and INEQ read --r-range, and INEQ does not read --n-range
    flag, value = (("--n-range", args.n_range) if args.rule == "INEQ" else
                   ("--r-range", None if _PLANS[args.rule].r_range else args.r_range))
    if value is not None:
        print(f"error: {flag} does not apply to rule {args.rule}", file=sys.stderr)
        return 2
    reporter = Reporter("verify", {
        "rule": args.rule, "n_range": args.n_range, "r_range": args.r_range,
        "samples": args.samples, "seed": args.seed,
    }, args.json)
    notices: list[str] = []
    results = (_run_ineq(args) if args.rule == "INEQ"
               else _run_plan(_PLANS[args.rule], args, notices))
    checked = 0
    for cx in results:
        checked += 1
        if cx is not None:
            reporter.result(False, f"counterexample: {cx}", {"counterexample": cx})
    for notice in notices:
        print(f"note: {notice}", file=sys.stderr)
    if not args.json:
        print(f"rule {args.rule}: checked {checked}, counterexamples {reporter.fail_count}")
    return reporter.summary({"rule": args.rule, "checked": checked,
                             "skipped": len(notices)})


# exit code of a run whose stdout reader went away: 128 + SIGPIPE, as a
# shell reports a writer the signal ended
EXIT_STDOUT_CLOSED = 141


def until_stdout_closes(run: Callable[[], int]) -> int:
    """``run()``'s exit code, or ``EXIT_STDOUT_CLOSED`` once a write to
    stdout finds its reader gone.  stdout is then pointed at the null
    device, so neither a traceback nor the interpreter's last flush
    reports the closed pipe."""
    try:
        code = run()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED


def main(argv: list[str] | None = None) -> int:
    return until_stdout_closes(lambda: _main(argv))


def _main(argv: list[str] | None) -> int:
    args = _parser().parse_args(argv)
    for flag in ("backtrack", "count", "samples"):
        value = getattr(args, flag, 0)
        if value < 0:
            print(f"error: --{flag} must be >= 0, got {value}", file=sys.stderr)
            return 2
    # looked up on each call, so a patched ``cmd_*`` is the one that runs
    return globals()[f"cmd_{args.command}"](args)


@cache
def _parser() -> argparse.ArgumentParser:
    """The one argument parser of this process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="regext",
        description="Extend regular graphs by perfect matchings of the complement.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, certificates=True):
        p.add_argument("--input", help="graph6 file (default: stdin)")
        p.add_argument("--json", action="store_true", help="JSON-lines output")
        if certificates:
            p.add_argument("--certificates", action="store_true",
                           help="include certificates on success too")

    p = sub.add_parser("extend", help="raise regularity by matching addition")
    common(p)
    p.add_argument("--target-r", type=int, default=None, dest="target_r",
                   help="target degree (default r+1)")
    p.add_argument("--backtrack", type=int, default=0,
                   help="alternative matchings to try per stuck level")

    p = sub.add_parser("check", help="evaluate every extension rule")
    common(p, certificates=False)

    p = sub.add_parser("match", help="maximum/perfect matching with certificates")
    common(p)

    p = sub.add_parser("analyze", help="bridges, balloons, components, clique size")
    common(p, certificates=False)

    p = sub.add_parser("gen", help="sample or enumerate regular graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--count", type=int, default=1, help="number of samples")
    p.add_argument("--enumerate", action="store_true",
                   help="exhaustive enumeration up to isomorphism "
                        f"(n <= {generation.ENUMERATION_CAP})")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="confirm a rule's guarantee empirically")
    p.add_argument("--rule", required=True, choices=[*_PLANS, "INEQ"])
    p.add_argument("--n-range", dest="n_range", help="A..B")
    p.add_argument("--r-range", dest="r_range", help="A..B")
    p.add_argument("--samples", type=int, default=100,
                   help="graphs across the region (T2-T5) or per cell (L, C); "
                        f"T1 and L0-balloon enumerate n <= {generation.ENUMERATION_CAP} "
                        "and draw per cell beyond, L0-balloon max(1, samples // 10)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    return parser


if __name__ == "__main__":
    sys.exit(main())
