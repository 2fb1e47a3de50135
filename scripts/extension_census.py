#!/usr/bin/env python3
"""Census of extension behavior over every small regular graph.

For each (n, r) cell with even n up to the enumeration cap, try a greedy
one-step extension of every isomorphism class and tabulate which rules
fire.  The interesting column is "unexplained": graphs that extend fine
although no sufficient condition applies, i.e. the open territory between
the proved bounds and n-2.

Usage:
    python scripts/extension_census.py [--max-n 10] [--backtrack 1]
"""

import argparse
import sys
from collections import Counter

from regext import (
    ExtensionTrace,
    TutteViolator,
    classify,
    enumerate_regular,
    extend_once,
    extend_to,
)
from regext.extension import (
    CONCLUSION_EXTENDABLE,
    CONCLUSION_EXTENDABLE_ANY,
    CONCLUSION_NOT_EXTENDABLE,
)

SUFFICIENT = (CONCLUSION_EXTENDABLE, CONCLUSION_EXTENDABLE_ANY)


def census_cell(n: int, r: int, backtrack: int) -> Counter:
    tally: Counter = Counter()
    for g in enumerate_regular(n, r):
        tally["graphs"] += 1
        verdicts = [v for v in classify(g) if v.applies]
        sufficient = any(v.conclusion in SUFFICIENT for v in verdicts)
        impossible = any(v.conclusion == CONCLUSION_NOT_EXTENDABLE for v in verdicts)
        if r > n - 2:
            tally["no-room"] += 1
            continue
        res = extend_once(g, "auto")
        extended = not isinstance(res, TutteViolator)
        if not extended and backtrack:
            extended = isinstance(extend_to(g, r + 1, backtrack=backtrack),
                                  ExtensionTrace)
        if extended:
            tally["extended"] += 1
            if not sufficient:
                tally["unexplained"] += 1
        else:
            tally["stuck"] += 1
            assert impossible or not sufficient, "soundness breach"
            if impossible:
                tally["explained-impossible"] += 1
    return tally


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=10)
    ap.add_argument("--backtrack", type=int, default=0)
    args = ap.parse_args()

    header = (f"{'n':>3} {'r':>3} {'graphs':>7} {'extended':>9} {'stuck':>6} "
              f"{'impossible':>11} {'unexplained':>12}")
    print(header)
    print("-" * len(header))
    totals: Counter = Counter()
    for n in range(4, args.max_n + 1, 2):
        for r in range(n):
            if (n * r) % 2:
                continue
            t = census_cell(n, r, args.backtrack)
            totals.update(t)
            print(f"{n:>3} {r:>3} {t['graphs']:>7} {t['extended']:>9} "
                  f"{t['stuck']:>6} {t['explained-impossible']:>11} "
                  f"{t['unexplained']:>12}")
    print("-" * len(header))
    print(f"total   {totals['graphs']:>7} {totals['extended']:>9} "
          f"{totals['stuck']:>6} {totals['explained-impossible']:>11} "
          f"{totals['unexplained']:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
