#!/usr/bin/env python3
"""Run the whole verification battery and print one summary row per rule.

Every guarantee the toolkit implements is confirmed constructively on
generated instances: sufficient conditions by actually extending or
matching, the impossibility condition by exhibiting Tutte violators, the
balloon bound and the two arithmetic lemmas on grids.  Expected output is
zero counterexamples on every row.  A reader that closes stdout early
(``| head -1``) ends the run quietly with exit status 141, as for
``regext``.

Usage:
    python scripts/verify_claims.py [--quick] [--seed N]
"""

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stdout

from regext.cli import main as cli_main, until_stdout_closes

# a rule whose range is left out runs on its default from regext.cli._DRAWS
FULL = {
    "T1": [],
    "T2": ["--samples", "200"],
    "T3": ["--samples", "100"],
    "T4": ["--samples", "100"],
    "T5": ["--samples", "50"],
    "L": ["--n-range", "18..56", "--samples", "100"],
    "C": ["--samples", "10"],
    "L0-balloon": ["--samples", "60"],
    "INEQ": [],
}

QUICK = {
    "T1": ["--n-range", "4..8"],
    "T2": ["--n-range", "4..40", "--samples", "40"],
    "T3": ["--n-range", "34..44", "--samples", "15"],
    "T4": ["--n-range", "6..24", "--samples", "25"],
    "T5": ["--n-range", "4..16", "--samples", "15"],
    "L": ["--n-range", "18..28", "--samples", "10"],
    "C": ["--samples", "2"],
    "L0-balloon": ["--n-range", "4..10", "--samples", "20"],
    "INEQ": ["--r-range", "16..100"],
}


def run_rule(rule: str, extra: list[str], seed: int) -> dict:
    buf = io.StringIO()
    t0 = time.monotonic()
    with redirect_stdout(buf):
        code = cli_main(["verify", "--rule", rule, "--seed", str(seed), "--json", *extra])
    summary = json.loads(buf.getvalue().splitlines()[-1])
    return {
        "rule": rule,
        "checked": summary["checked"],
        "counterexamples": summary["failed"],
        "seconds": time.monotonic() - t0,
        "exit": code,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="smaller ranges")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    plan = QUICK if args.quick else FULL
    print(f"{'rule':<12} {'checked':>8} {'counterexamples':>16} {'time':>8}")
    print("-" * 48)
    worst = 0
    for rule, extra in plan.items():
        row = run_rule(rule, extra, args.seed)
        worst = max(worst, row["exit"])
        print(f"{row['rule']:<12} {row['checked']:>8} "
              f"{row['counterexamples']:>16} {row['seconds']:>7.1f}s")
    print("-" * 48)
    print("all clear" if worst == 0 else "COUNTEREXAMPLES FOUND")
    return worst


if __name__ == "__main__":
    sys.exit(until_stdout_closes(main))
