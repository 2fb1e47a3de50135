#!/usr/bin/env python3
"""Census of extension behavior over every small regular graph.

For each (n, r) cell with even n up to the enumeration cap, try a one-step
extension (``extend_once``) of every isomorphism class and tabulate which
rules fire.  A single step has no lower level to backtrack into, so a graph
is stuck exactly when its complement has no perfect matching.  The
interesting column is "unexplained": graphs that extend fine although no
sufficient condition applies, i.e. the open territory between the proved
bounds and n-2.

Usage:
    python scripts/extension_census.py [--max-n 10]

--max-n above the enumeration cap (``generation.ENUMERATION_CAP``) is an
argument error, exit status 2, before any row is printed.  A reader that
closes stdout early (``| head``) ends the run quietly with exit status 141,
as for ``regext``.
"""

import argparse
import sys
from collections import Counter

from regext import TutteViolator, classify, enumerate_regular, extend_once, format_graph6
from regext.cli import until_stdout_closes
from regext.generation import ENUMERATION_CAP
from regext.extension import (
    CONCLUSION_EXTENDABLE,
    CONCLUSION_EXTENDABLE_ANY,
    CONCLUSION_NOT_EXTENDABLE,
)

SUFFICIENT = (CONCLUSION_EXTENDABLE, CONCLUSION_EXTENDABLE_ANY)


def census_cell(n: int, r: int) -> Counter:
    """Tally the (n, r) cell over its enumeration."""
    tally: Counter = Counter()
    for g in enumerate_regular(n, r):
        tally["graphs"] += 1
        verdicts = [v for v in classify(g) if v.applies]
        sufficient = any(v.conclusion in SUFFICIENT for v in verdicts)
        impossible = any(v.conclusion == CONCLUSION_NOT_EXTENDABLE for v in verdicts)
        if r > n - 2:
            tally["no-room"] += 1
            continue
        extended = not isinstance(extend_once(g), TutteViolator)
        # no rule may conclude the opposite of what the step found; raised
        # explicitly, so that python -O keeps the check
        if impossible if extended else sufficient:
            raise AssertionError(f"soundness breach at (n, r) = ({n}, {r}): "
                                 f"{format_graph6(g)}")
        if extended:
            tally["extended"] += 1
            if not sufficient:
                tally["unexplained"] += 1
        else:
            tally["stuck"] += 1
            if impossible:
                tally["explained-impossible"] += 1
    return tally


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=10)
    args = ap.parse_args(argv)
    if args.max_n > ENUMERATION_CAP:
        ap.error(f"--max-n {args.max_n} is above the enumeration cap n = {ENUMERATION_CAP}")

    header = (f"{'n':>3} {'r':>3} {'graphs':>7} {'extended':>9} {'stuck':>6} "
              f"{'impossible':>11} {'unexplained':>12}")
    print(header)
    print("-" * len(header))
    totals: Counter = Counter()
    for n in range(4, args.max_n + 1, 2):
        for r in range(n):
            if (n * r) % 2:
                continue
            t = census_cell(n, r)
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
    sys.exit(until_stdout_closes(main))
