#!/usr/bin/env python3
"""Tabulate basis sizes, coboundary ranks, and kernel dimensions.

Sweeps every grading of non-positive degree realizable below a vertex
bound and prints one row per cell: vertex/edge counts, the number of
basis classes, the exact rank of the coboundary matrix out of that cell,
and the dimension of its kernel.  Cells whose candidate universe exceeds
the safety cap are reported as skipped rather than attempted.

Example:
    python3 scripts/dimension_table.py --mode edge-renumbering --max-vertices 6
"""

from __future__ import annotations

import argparse
import os
import sys

from graphcoh.coboundary import delta_matrix
from graphcoh.enumeration import resolve_cap
from graphcoh.errors import BasisTooLarge, GraphCohError
from graphcoh.graphs import SymmetryMode, cells, counts_for_grading


def print_table(args: argparse.Namespace) -> None:
    mode = SymmetryMode.parse(args.mode)
    resolve_cap(args.cap)  # refuse a bad cap before any output
    print(f"# mode {mode.value} connected {str(args.connected).lower()}")
    header = f"{'order':>5} {'degree':>6} {'V':>3} {'E':>3} {'dim':>5} {'rank':>5} {'kernel':>6}"
    print(header)
    print("-" * len(header))
    for order, degree in sorted(cells(args.max_vertices)):
        v, e = counts_for_grading(order, degree)
        try:
            dm = delta_matrix(order, degree, connected=args.connected, mode=mode, cap=args.cap)
        except BasisTooLarge as exc:
            print(f"{order:>5} {degree:>6} {v:>3} {e:>3}  skipped: {exc}")
            continue
        dim = dm.shape[1]
        rank = dm.rank()
        print(f"{order:>5} {degree:>6} {v:>3} {e:>3} {dim:>5} {rank:>5} {dim - rank:>6}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode", choices=[m.value for m in SymmetryMode], default="literal"
    )
    parser.add_argument("--max-vertices", type=int, default=4)
    parser.add_argument("--connected", action="store_true")
    parser.add_argument("--cap", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        print_table(args)
    except BrokenPipeError:  # the reader closed stdout: the output ends here
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # and so does the final flush
    except (GraphCohError, OSError, ValueError) as exc:
        print(f"dimension_table: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
