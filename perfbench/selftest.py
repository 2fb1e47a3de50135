"""Self-test of the benchmark: each workload at a tiny size, and the checker
rejecting tampered outputs.  Exits 1 on the first problem.

    python3 perfbench/selftest.py
"""

import dataclasses
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import regext  # noqa: E402
from regext import cli  # noqa: E402

import check  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "climb": lambda: workloads.Climb(7, n_values=range(12, 17, 2), groups=1),
    "certify": lambda: workloads.Certify(
        7, scan_sizes=(14,), ge_sizes=(24,), t4_cells=((10, 5),),
        pair_cells=((12, 7),), random_cells=((20, 3),)),
    "sample": lambda: workloads.Sample(7, degrees=(3, 5, 17), n_values=range(18, 25, 2)),
    "enumerate": lambda: workloads.Enumerate(7, max_n=6),
}


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def tiny_workloads() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name, make in TINY.items():
        w = make()
        w.setup()
        recs, metrics, _ = run.run_untraced(w, 0, 0.0, workloads.Recorder,
                                            hostspeed.HostClock())
        require(not recs[0].failures and len(recs[0].ops) >= 2,
                f"{name}: tiny run passes its checks ({len(recs[0].ops)} ops)")
        require(list(metrics) == end_to_end, f"{name}: reports every end-to-end metric")
        recs, metrics, _ = run.run_traced(w, 0, workloads.Recorder, spans.Tracer(),
                                          workloads.OUT / f"selftest-{name}.tsv.gz")
        require(not any(rec.failures for rec in recs) and list(metrics) == per_layer,
                f"{name}: traced tiny run passes and reports every per-layer metric")


def cli_result(argv: list[str], line: str) -> dict:
    path = workloads.OUT / "selftest-input.g6"
    path.write_text(line + "\n")
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(argv + ["--input", str(path)])
    return next(obj for obj in map(json.loads, out.getvalue().splitlines())
                if obj["kind"] == "result")


def tampered_outputs() -> None:
    workloads.OUT.mkdir(exist_ok=True)
    hub = workloads.hub_graph(14, 3, random.Random(3))
    n, adj = check.decode_graph6(hub)
    res = cli_result(["match", "--json", "--certificates"], hub)
    require(check.match_line(n, adj, res) is None, "a genuine violator passes")
    res["violator"]["s"] = res["violator"]["s"][1:]
    require(check.match_line(n, adj, res) is not None,
            "a violator S missing one vertex is rejected")

    line = regext.format_graph6(regext.random_regular(20, 3, 5))
    n, adj = check.decode_graph6(line)
    res = cli_result(["match", "--json", "--certificates"], line)
    require(check.match_line(n, adj, res) is None, "a genuine perfect matching passes")
    res["matching"] = res["matching"][1:]
    res["size"] -= 1
    require(check.match_line(n, adj, res) is not None,
            "a matching missing one edge is rejected")

    trace = regext.extend_to(regext.parse_graph6(line), 6)
    final = regext.format_graph6(trace.final)
    require(check.climb(line, 6, trace, final) is None, "a genuine extension trace passes")
    cut = dataclasses.replace(trace, steps=(trace.steps[0] - {min(trace.steps[0])},)
                              + trace.steps[1:])
    require(check.climb(line, 6, cut, final) is not None,
            "an extension step missing one matching edge is rejected")

    known = check.KNOWN_REGULAR_COUNTS[(6, 3)]
    check.KNOWN_REGULAR_COUNTS[(6, 3)] = known + 1
    try:
        rec = workloads.Recorder()
        workloads.Enumerate._cell(6, 3, rec)
    finally:
        check.KNOWN_REGULAR_COUNTS[(6, 3)] = known
    require(len(rec.failures) == 1, "a class count that disagrees with the table fails an op")


if __name__ == "__main__":
    tiny_workloads()
    tampered_outputs()
    print("selftest passed")
