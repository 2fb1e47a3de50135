"""Run one regext benchmark workload and print its metrics.

    python3 perfbench/run.py --workload climb --seed 1 --seconds 20 --trace 0

Runs from a source checkout: the library is imported from ``src/`` next to
this directory, single process, one client in a closed loop.  Human-readable
lines come first; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` every round runs
once untraced and once with spans installed, and the metrics are the
per-layer ones; the spans go to ``perfbench/out/``.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# set-up is repeated and its median reported, so one slow repetition does
# not move setup_s
SETUP_REPEATS = 5


def import_library() -> None:
    """Import regext from this checkout's ``src/``; exit 1 if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import regext
        import regext.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import regext from {SRC}: {exc}")
    if Path(regext.__file__).resolve().parent != SRC / "regext":
        raise SystemExit(f"error: imported regext from {regext.__file__}, not {SRC}")


def median_latencies(rec, period: int | None, scaled: bool = True) -> list[float]:
    """Each input's median latency in the run, its op times scaled to the
    reference host speed (see :mod:`hostspeed`) unless ``scaled`` is false.

    Op k of round j runs the same input as op k of round j - period, so
    every input runs several times.  The median drops the ops that a short
    stretch of the host, faster or slower than the probes around it, has
    moved.  With no period every op is an input of its own.
    """
    rounds = rec.round_latencies(scaled)
    if period is None:
        return [x for lat in rounds for x in lat]
    seen: dict[tuple[int, int], list[float]] = {}
    for j, lat in enumerate(rounds):
        for k, x in enumerate(lat):
            seen.setdefault((j % period, k), []).append(x)
    return [statistics.median(xs) for xs in seen.values()]


def quantile(xs: list[float], p: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density.

    The sample quantile is one order statistic, and where the latencies
    leave a gap near it (enumerate has one from 9.9 to 10.7 ms at p50) it
    jumps across the gap when a few inputs trade places.  The weights are
    the density integrated over each order statistic's share of [0, 1],
    by the midpoint rule with ``steps`` points per share.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        mids = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x)
                                    + (b - 1) * math.log1p(-x)) for x in mids))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_metrics(lat: list[float]) -> dict:
    return {"graphs_per_s": (len(lat) / sum(lat), "1/s"),
            "graph_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
            "graph_p90_ms": (quantile(lat, 0.9) * 1e3, "ms")}


def run_untraced(w, seconds: float, setup_s: float, recorder, clock):
    rec = recorder(clock)
    start = time.perf_counter()
    while (len(rec.round_ends) < w.repeats * (w.period or 1)
           or time.perf_counter() - start < seconds):
        rec.run_round(w, len(rec.round_ends))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_input = median_latencies(rec, w.period)
    metrics = {"setup_s": (setup_s, "s"), **latency_metrics(per_input),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    p90 = metrics["graph_p90_ms"][0] / 1e3
    ops = len(rec.ops)
    notes = [f"rounds {len(rec.round_ends)}, ops {ops}, distinct inputs {len(per_input)} "
             f"({sum(x >= p90 for x in per_input)} at or beyond p90)",
             f"fail_ratio {len(rec.failures) / ops:.4f} ratio ({len(rec.failures)}/{ops})",
             f"host probe median {statistics.median(clock.durations) * 1e3:.3f} ms over "
             f"{len(clock.durations)} probes; times are scaled to its reference "
             f"{hostspeed.REFERENCE_S * 1e3:.3f} ms",
             "unscaled " + ", ".join(
                 f"{name} {value:.4g} {unit}" for name, (value, unit) in
                 latency_metrics(median_latencies(rec, w.period, scaled=False)).items())]
    return [rec], metrics, notes


def run_traced(w, seconds: float, recorder, tracer, out_path: Path):
    """Each round runs untraced, then again traced, so drift in machine
    speed falls on both sides of trace.overhead_ratio alike."""
    plain, traced = recorder(), recorder()
    start = time.perf_counter()
    while not plain.round_ends or time.perf_counter() - start < seconds:
        plain.run_round(w, len(plain.round_ends))
        tracer.install()
        try:
            traced.run_round(w, len(traced.round_ends))
        finally:
            tracer.uninstall()
    metrics = tracer.metrics(traced.ops, sum(e - s for s, e in plain.ops))
    tracer.write(out_path, traced.ops)
    notes = [f"rounds {len(plain.round_ends)}, each untraced then traced; "
             f"{len(tracer.spans)} spans written to {out_path.relative_to(HERE.parent)}"]
    return [plain, traced], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["climb", "certify", "sample", "enumerate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_library()
    import_s = time.perf_counter() - _PROCESS_START
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed)
    clock = hostspeed.HostClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        clock.probe()
        start = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - start)
    clock.probe()
    setup_s = (import_s + statistics.median(setups)) * clock.median_scale()
    gc.collect()

    if args.trace:
        out_path = workloads.OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
        recs, metrics, notes = run_traced(
            w, args.seconds, workloads.Recorder, spans.Tracer(), out_path)
    else:
        recs, metrics, notes = run_untraced(
            w, args.seconds, setup_s, workloads.Recorder, clock)
    failures = [reason for rec in recs for reason in rec.failures.values()]
    defects = [d for rec in recs for d in rec.known_defects]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + "; ".join(notes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for defect in sorted(set(defects)):
        print(f"  known defect, hit by {defects.count(defect)} ops: {defect}")
    for reason in failures[:10]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(rec.ops) for rec in recs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
