#!/usr/bin/env python3
"""Evaluate every trivalent class of a given order against a tensor.

Decorates each enumerated trivalent skeleton uniformly with a catalogue
tensor (or a tensor file), prints the exact full-contraction value, and
reports whether the decorated graph is closed under the coboundary.

Example:
    python3 scripts/evaluate_trivalent.py --order 2 --tensor eps --connected
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from graphcoh.cli import load_tensor, scalar_str
from graphcoh.decorated import (
    DecoratedChain,
    decorate_uniform,
    evaluate,
    is_cocycle_decorated,
)
from graphcoh.enumeration import enumerate_trivalent
from graphcoh.errors import GraphCohError
from graphcoh.graphs import SymmetryMode
from graphcoh.tensors import CATALOGUE


def run(args: argparse.Namespace) -> None:
    tensor = load_tensor(args.tensor)
    mode = SymmetryMode.parse(args.mode)
    classes = enumerate_trivalent(args.order, connected=not args.all_components, mode=mode)
    print(f"# order {args.order} mode {mode.value} tensor {args.tensor} classes {len(classes)}")
    closed_count = 0
    for k, cls in enumerate(classes, start=1):
        dg = decorate_uniform(cls.skeleton, tensor)
        value = evaluate(dg)
        chain = DecoratedChain([(Fraction(1), dg)])
        closed = is_cocycle_decorated(chain, args.tol)
        closed_count += closed
        edges = " ".join(f"{t}-{h}" for t, h in cls.skeleton.edges)
        print(f"g{k:<4} value {scalar_str(value):>8}  closed {str(closed):<5}  edges {edges}")
    print(f"# closed {closed_count} of {len(classes)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", type=int, default=1)
    parser.add_argument(
        "--tensor", default="eps",
        help=f"catalogue name ({', '.join(sorted(CATALOGUE))}) or a tensor file",
    )
    parser.add_argument(
        "--mode", choices=[m.value for m in SymmetryMode], default="literal"
    )
    parser.add_argument("--all-components", action="store_true",
                        help="include disconnected classes")
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)
    try:
        run(args)
    except BrokenPipeError:  # the reader closed stdout: the output ends here
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # and so does the final flush
    except (GraphCohError, OSError, ValueError) as exc:
        print(f"evaluate_trivalent: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
