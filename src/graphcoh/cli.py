"""Command-line front end.

Subcommands: enumerate, delta, cocycles, mult, pairing, eval, check.
Reports are plain text (optionally mirrored to JSON with --json), carry
the symmetry mode in their headers, and are byte-identical for identical
configurations.  Exit codes: 0 success, 1 validation failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .canonical import canonicalize
from .coboundary import _cochain_lines, delta, delta_matrix, format_matrix
from .decorated import (
    DecoratedGraph,
    decorate,
    decorate_uniform,
    delta_decorated,
    evaluate,
    ihx_violation,
    is_cocycle_decorated,
    parse_decoration_lines,
)
from .enumeration import enumerate_grading, enumerate_trivalent
from .errors import GraphCohError, _data_lines
from .graphs import (
    GraphSkeleton,
    SymmetryMode,
    cells,
    format_graph,
    format_graphs,
    new_graph,
    parse_graphs,
    permutation_parity,
    relabel_vertices,
    renumber_edges,
    reverse_edges,
)
from .reps import SpinRep, as_spin, power_decompose, tensor_decompose, trivial_multiplicity
from .tensors import (
    CATALOGUE,
    EquivariantTensor,
    Rad,
    catalogue_tensor,
    direct_sum,
    eps_tensor,
    pairing,
    parse_tensor,
)

# exhaustive delta-squared sweeps stay exact and fast up to these sizes
DELTA2_VMAX = {SymmetryMode.LITERAL: 4, SymmetryMode.EDGE_RENUMBERING: 6}
CANON_RANDOM_SYMMETRIES = 1000
CANON_SEED = 5189


def scalar_str(x) -> str:
    if isinstance(x, Rad):
        if x.b == 0:
            x = x.a
        elif x.a == 0:
            return f"{x.b.numerator}/{x.b.denominator} r {x.d}"
        else:
            return (
                f"{x.a.numerator}/{x.a.denominator} + "
                f"{x.b.numerator}/{x.b.denominator} r {x.d}"
            )
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _scalar_json(x):
    if isinstance(x, Rad):
        return {"rational": str(x.a), "radical": str(x.b), "radicand": x.d}
    if isinstance(x, (Fraction, int)):
        return str(x)
    return float(x)


def load_tensor(ref: str) -> EquivariantTensor:
    if ref in CATALOGUE:
        return catalogue_tensor(ref)
    path = Path(ref)
    if not path.exists():
        raise GraphCohError(
            f"tensor reference {ref!r} is neither a catalogue name "
            f"({', '.join(sorted(CATALOGUE))}) nor a readable file"
        )
    return parse_tensor(path.read_text(), label=path.stem)


def _is_decoration_file(text: str) -> bool:
    return next(_data_lines(text), (0, ""))[1].startswith("vertex ")


def _emit(args: argparse.Namespace, lines: list[str], payload: Callable[[], dict]) -> None:
    """Write the report; payload builds its --json mirror and is called only for --json."""
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(payload(), indent=2, sort_keys=True) + "\n")


def _graph_json(g: GraphSkeleton) -> dict:
    return {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each reads the parsed arguments; run_front_end has
# already turned --mode into a SymmetryMode.
# ---------------------------------------------------------------------------


def _grading_header(args: argparse.Namespace, counts: str) -> list[str]:
    return [
        f"# graphcoh {args.command}",
        f"# mode {args.mode.value}",
        f"# order {args.order} degree {args.degree} connected {str(args.connected).lower()}",
        f"# {counts}",
    ]


def _grading_payload(args: argparse.Namespace, **fields) -> dict:
    return {
        "command": args.command,
        "mode": args.mode.value,
        "order": args.order,
        "degree": args.degree,
        "connected": args.connected,
        **fields,
    }


def cmd_enumerate(args: argparse.Namespace) -> int:
    classes = enumerate_grading(
        args.order, args.degree, connected=args.connected, mode=args.mode, cap=args.cap
    )
    skeletons = [c.skeleton for c in classes]
    ids = [f"g{k}" for k in range(1, len(skeletons) + 1)]
    lines = _grading_header(args, f"classes {len(skeletons)}")
    if skeletons:
        lines.append(format_graphs(skeletons, ids=ids).rstrip("\n"))
    _emit(args, lines, lambda: _grading_payload(
        args, classes={i: _graph_json(g) for i, g in zip(ids, skeletons)}))
    return 0


def cmd_delta(args: argparse.Namespace) -> int:
    dm = delta_matrix(
        args.order, args.degree, connected=args.connected, mode=args.mode, cap=args.cap
    )
    _emit(args, ["# graphcoh delta", format_matrix(dm).rstrip("\n")], lambda: _grading_payload(
        args, rows=dm.shape[0], cols=dm.shape[1], entries=[
            {"row": r + 1, "col": c + 1, "value": str(dm.entries[(r, c)])}
            for (r, c) in sorted(dm.entries)
        ]))
    return 0


def cmd_cocycles(args: argparse.Namespace) -> int:
    dm = delta_matrix(
        args.order, args.degree, connected=args.connected, mode=args.mode, cap=args.cap
    )
    cocycles = [sorted(vec.items()) for vec in dm.kernel()]  # (domain index, coefficient)
    ids = [f"g{k}" for k in range(1, len(dm.domain) + 1)]
    lines = _grading_header(args, f"basis {len(dm.domain)} cocycles {len(cocycles)}")
    if dm.domain:
        lines.append(format_graphs([c.skeleton for c in dm.domain], ids=ids).rstrip("\n"))
    for k, terms in enumerate(cocycles, start=1):
        lines.append(f"# cocycle {k}")
        lines.extend(_cochain_lines(terms))
    _emit(args, lines, lambda: _grading_payload(
        args, basis={i: _graph_json(c.skeleton) for i, c in zip(ids, dm.domain)}, cocycles=[
            {ids[j]: str(coeff) for j, coeff in terms} for terms in cocycles
        ]))
    return 0


def cmd_mult(args: argparse.Namespace) -> int:
    spins = [as_spin(s) for s in args.spins.split(",") if s.strip()]
    if not spins:
        raise GraphCohError("--spins needs at least one spin")
    if args.power is not None:
        counts = power_decompose(SpinRep(tuple(spins)), args.power)
    else:
        counts = tensor_decompose(spins)
    line = " ".join(f"{j}:{m}" for j, m in counts.items())
    _emit(args, [line], lambda: {
        "command": "mult",
        "spins": [str(j) for j in spins],
        "power": args.power,
        "multiplicities": {str(j): m for j, m in counts.items()},
    })
    return 0


def cmd_pairing(args: argparse.Namespace) -> int:
    if len(args.tensor) != 2:
        raise GraphCohError("pairing needs exactly two --tensor arguments")
    value = pairing(load_tensor(args.tensor[0]), load_tensor(args.tensor[1]))
    _emit(args, [scalar_str(value)], lambda: {
        "command": "pairing", "tensors": args.tensor, "value": _scalar_json(value)})
    return 0


def _resolve_tensors(refs: list[str]) -> dict[int, EquivariantTensor] | list[EquivariantTensor]:
    """Read every --tensor reference once: a decoration file's {vertex: tensor}, else the tensors."""
    load = functools.cache(load_tensor)
    path = Path(refs[0])
    if len(refs) == 1 and refs[0] not in CATALOGUE and path.exists():
        text = path.read_text()
        if _is_decoration_file(text):
            return {v: load(ref) for v, ref in parse_decoration_lines(text).items()}
        return [parse_tensor(text, label=path.stem)]
    return [load(ref) for ref in refs]


def _decorations_for(g: GraphSkeleton, tensors) -> DecoratedGraph:
    if isinstance(tensors, dict):
        missing = [v for v in range(1, g.vertex_count + 1) if v not in tensors]
        if missing:
            raise GraphCohError(
                f"decoration file lacks vertices {missing} for a graph with "
                f"{g.vertex_count} vertices"
            )
        return decorate(g, [tensors[v] for v in range(1, g.vertex_count + 1)])
    if len(tensors) == 1:
        return decorate_uniform(g, tensors[0])
    if len(tensors) != g.vertex_count:
        raise GraphCohError(
            f"need one --tensor per vertex ({g.vertex_count}) or a single "
            f"uniform/decoration-file reference, got {len(tensors)}"
        )
    return decorate(g, tensors)


def cmd_eval(args: argparse.Namespace) -> int:
    if not args.inputs:
        raise GraphCohError("eval needs --in <graph file>")
    if not args.tensor:
        raise GraphCohError("eval needs at least one --tensor")
    text = "\n\n".join(Path(p).read_text() for p in args.inputs)
    tensors = _resolve_tensors(args.tensor)
    lines = ["# graphcoh eval", f"# mode {args.mode.value}"]
    values = {}
    for k, g in enumerate(parse_graphs(text), start=1):
        value = evaluate(_decorations_for(g, tensors))
        values[f"g{k}"] = value
        lines.append(f"g{k}\t{scalar_str(value)}")
    _emit(args, lines, lambda: {
        "command": "eval",
        "mode": args.mode.value,
        "values": {k: _scalar_json(v) for k, v in values.items()},
    })
    return 0


# ---------------------------------------------------------------------------
# Validation suites.  Each appends its result lines to `lines` and stops at
# the first failure by raising _SuiteFailure with the witness lines.
# ---------------------------------------------------------------------------


class _SuiteFailure(Exception):
    """A failed suite; its args are the witness lines."""


def _modes(args: argparse.Namespace) -> list[SymmetryMode]:
    """The mode given with --mode, or every mode."""
    return [args.mode] if args.mode else list(SymmetryMode)


def _delta2_universe(mode: SymmetryMode, max_order: int, cap: int | None):
    for order, degree in cells(DELTA2_VMAX[mode]):
        if order <= max_order:
            yield from enumerate_grading(order, degree, mode=mode, cap=cap)


def suite_delta2(args: argparse.Namespace, lines: list[str]) -> None:
    max_order = args.order if args.order is not None else 3
    checked = 0
    for mode in _modes(args):
        count = 0
        for cls in _delta2_universe(mode, max_order, args.cap):
            n, t = cls.grading
            image = delta(cls)
            if not image.is_zero and image.grading != (n, t + 1):
                raise _SuiteFailure(
                    f"grading shift violated at mode {mode.value}:",
                    format_graph(cls.skeleton).rstrip("\n"),
                )
            dd = delta(image)
            if not dd.is_zero:
                first = dd.support()[0]
                raise _SuiteFailure(
                    f"delta^2 != 0 at mode {mode.value}, class:",
                    format_graph(cls.skeleton).rstrip("\n"),
                    f"residual coefficient {dd.coefficient(first)} on:",
                    format_graph(first.skeleton).rstrip("\n"),
                )
            count += 1
        checked += count
        lines.append(f"ok delta2+grading mode {mode.value} classes {count}")
    lines.append(f"total classes checked {checked}")


def _random_symmetry(rng: random.Random, g: GraphSkeleton, mode: SymmetryMode):
    perm = list(range(1, g.vertex_count + 1))
    rng.shuffle(perm)
    reversals = [k for k in range(1, g.edge_count + 1) if rng.random() < 0.5]
    h = reverse_edges(relabel_vertices(g, perm), reversals)
    sign = permutation_parity(perm) * (-1) ** len(reversals)
    eperm = None
    if mode is SymmetryMode.EDGE_RENUMBERING:
        eperm = list(range(1, g.edge_count + 1))
        rng.shuffle(eperm)
        h = renumber_edges(h, eperm)
    return h, sign, perm, reversals, eperm


def suite_canon(args: argparse.Namespace, lines: list[str]) -> None:
    rng = random.Random(CANON_SEED)
    for mode in _modes(args):
        skeletons = [
            cls.skeleton
            for m in (1, 2)
            for cls in enumerate_trivalent(m, connected=False, mode=mode, cap=args.cap)
        ]
        checks = 0
        for g in skeletons:
            base = canonicalize(g, mode)
            if base.skeleton != g or base.sign_state != 1:
                raise _SuiteFailure(
                    f"canonical form not idempotent in mode {mode.value}:",
                    format_graph(g).rstrip("\n"),
                )
            for _ in range(CANON_RANDOM_SYMMETRIES):
                h, sign, perm, reversals, eperm = _random_symmetry(rng, g, mode)
                got = canonicalize(h, mode)
                if got.skeleton != g or got.sign_state != sign:
                    raise _SuiteFailure(
                        f"sign multiplicativity violated in mode {mode.value}: "
                        f"perm {perm}, reversals {reversals}, edge perm {eperm}, "
                        f"expected sign {sign}, got {got.sign_state}",
                        format_graph(g).rstrip("\n"),
                    )
                checks += 1
        double = new_graph(2, [(1, 2), (1, 2)])
        if not canonicalize(double, mode).is_zero:
            raise _SuiteFailure(
                f"double edge not detected as a zero class in mode {mode.value}",
                format_graph(double).rstrip("\n"),
            )
        lines.append(
            f"ok canon mode {mode.value} skeletons {len(skeletons)} random checks {checks}"
        )


def suite_ihx(args: argparse.Namespace, lines: list[str]) -> None:
    eps = eps_tensor()
    for name, tensor in (("eps", eps), ("eps-block-sum", direct_sum(eps, eps))):
        if ihx_violation(tensor) is not None:
            raise _SuiteFailure(f"ihx({name}) = False, expected True")
        lines.append(f"ok ihx {name} holds")
    data = importlib.resources.files("graphcoh").joinpath("data/perturbed_jacobi.txt")
    perturbed = parse_tensor(data.read_text(), label="perturbed-jacobi")
    violation = ihx_violation(perturbed)
    if violation is None:
        raise _SuiteFailure("perturbed table unexpectedly satisfies the identity")
    lines.append(f"ok ihx perturbed-jacobi fails at index {violation}")


def suite_multiplicities(args: argparse.Namespace, lines: list[str]) -> None:
    for j2 in range(0, 13):
        j = Fraction(j2, 2)
        expected = 1 if j.denominator == 1 else 0
        got = trivial_multiplicity(SpinRep.of(j), 3)
        if got != expected:
            raise _SuiteFailure(
                f"trivial multiplicity of E_{j} cubed: got {got}, expected {expected}"
            )
    lines.append("ok trivial multiplicities of E_j cubed for 2j = 0..12")
    full = tensor_decompose([1, 1, 1])
    expected_full = {Fraction(0): 1, Fraction(1): 3, Fraction(2): 2, Fraction(3): 1}
    if full != expected_full:
        raise _SuiteFailure(f"decomposition of spin-1 cubed: got {full}")
    dim = sum(m * (int(2 * j) + 1) for j, m in full.items())
    if dim != 27:
        raise _SuiteFailure(f"dimension check failed: {dim} != 27")
    lines.append("ok spin-1 cubed decomposes as 0:1 1:3 2:2 3:1 (dimension 27)")
    for spins in ([Fraction(1, 2), Fraction(1, 2)], [2, Fraction(3, 2)], [1, 1, 1, 1]):
        target = 1
        for j in spins:
            target *= int(2 * j) + 1
        counts = tensor_decompose(spins)
        dim = sum(m * (int(2 * j) + 1) for j, m in counts.items())
        if dim != target:
            raise _SuiteFailure(f"dimension not preserved for {spins}: {dim} != {target}")
    lines.append("ok dimension preservation spot checks")


def suite_decorated_delta2(args: argparse.Namespace, lines: list[str]) -> None:
    eps = eps_tensor()
    count = 0
    for m in (1, 2):
        for cls in enumerate_trivalent(m, connected=False, mode=SymmetryMode.LITERAL, cap=args.cap):
            g = decorate_uniform(cls.skeleton, eps)
            if not is_cocycle_decorated(delta_decorated(g)):
                raise _SuiteFailure(
                    "decorated delta^2 residue on:", format_graph(cls.skeleton).rstrip("\n")
                )
            count += 1
    lines.append(f"ok decorated-delta2 trivalent skeletons {count} (literal mode)")


SUITES = {
    "delta2": suite_delta2,
    "canon": suite_canon,
    "ihx": suite_ihx,
    "multiplicities": suite_multiplicities,
    "decorated-delta2": suite_decorated_delta2,
}
# check options by destination: the flag and the suites that read it.  Giving
# one to any other suite is a usage error, as an ignored flag would be.
SUITE_OPTIONS = {
    "cap": ("--cap", ("delta2", "canon", "decorated-delta2")),
    "order": ("--order/--max-order", ("delta2",)),
}


def cmd_check(args: argparse.Namespace) -> int:
    lines: list[str] = []
    witness: list[str] = []
    ok = True
    try:
        SUITES[args.suite](args, lines)
    except _SuiteFailure as failure:
        ok = False
        witness = list(failure.args)
    mode = args.mode.value if args.mode else "all"
    report = ["# graphcoh check", f"# suite {args.suite}", f"# mode {mode}", *lines, *witness]
    report.append("PASS" if ok else "FAIL")
    _emit(args, report, lambda: {
        "command": "check",
        "suite": args.suite,
        "mode": mode,
        "ok": ok,
        "results": lines,
        "witness": witness,
    })
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcoh",
        description="Workbench for the coboundary complex of decorated graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, mode=False, cap=False, grading=False):
        """--out and --json, plus the options the subcommand reads."""
        if mode:
            p.add_argument("--mode", choices=[m.value for m in SymmetryMode], default="literal",
                           help="symmetry mode (default literal)")
        if cap:
            p.add_argument("--cap", type=int, default=None, help="basis size cap")
        p.add_argument("--out", default=None, help="write the report to this file")
        p.add_argument("--json", dest="json_out", default=None,
                       help="also write a JSON mirror of the report")
        if grading:
            p.add_argument("--order", type=int, required=True, help="order (edges minus vertices)")
            p.add_argument("--degree", type=int, default=0,
                           help="degree (2E - 3V; default 0)")
            p.add_argument("--connected", action="store_true", help="connected classes only")

    for name, text in (
        ("enumerate", "list basis classes at a grading"),
        ("delta", "sparse coboundary matrix at a grading"),
        ("cocycles", "kernel basis of the coboundary at a grading"),
    ):
        common(sub.add_parser(name, help=text), mode=True, cap=True, grading=True)

    p = sub.add_parser("mult", help="Clebsch-Gordan multiplicities")
    common(p)
    p.add_argument("--spins", required=True,
                   help="comma-separated spins, e.g. 1,1,1 or 1/2,1")
    p.add_argument("--power", type=int, default=None,
                   help="treat --spins as direct summands and decompose the tensor power")

    p = sub.add_parser("pairing", help="full contraction of two equal-shape tensors")
    common(p)
    p.add_argument("--tensor", action="append", default=[],
                   help="catalogue name or tensor file (give twice)")

    p = sub.add_parser("eval", help="evaluate decorated graphs from files")
    common(p, mode=True)
    p.add_argument("--in", dest="inputs", action="append", default=[],
                   help="graph file (repeatable)")
    p.add_argument("--tensor", action="append", default=[],
                   help="catalogue name, tensor file, or decoration file; "
                        "repeat for per-vertex tensors")

    p = sub.add_parser("check", help="run a named validation suite")
    p.add_argument("--mode", choices=[m.value for m in SymmetryMode], default=None,
                   help="symmetry mode (default: every mode)")
    common(p, cap=True)
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--order", "--max-order", dest="order", type=int, default=None,
                   help="order bound for the delta2 sweep (default 3)")
    return parser


COMMANDS = {
    "enumerate": cmd_enumerate,
    "delta": cmd_delta,
    "cocycles": cmd_cocycles,
    "mult": cmd_mult,
    "pairing": cmd_pairing,
    "eval": cmd_eval,
    "check": cmd_check,
}


def run_front_end(name: str, body: Callable[..., int | None], args: argparse.Namespace) -> int:
    """Run body on parsed arguments: the one exit policy of `graphcoh` and the scripts.

    A --mode that is set becomes a SymmetryMode; body's status (None is 0)
    is returned.  A closed stdout ends the output with status 0, silently
    at exit too; GraphCohError, OSError and ValueError end with the stderr
    line `name: message` and status 1.
    """
    if getattr(args, "mode", None):
        args.mode = SymmetryMode.parse(args.mode)
    try:
        status = body(args)
        sys.stdout.flush()  # a buffered report meets a closed pipe here, not at exit
    except BrokenPipeError:  # an OSError, so caught first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (GraphCohError, OSError, ValueError) as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        return 1
    return status or 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        for dest, (flag, readers) in SUITE_OPTIONS.items():
            if getattr(args, dest) is not None and args.suite not in readers:
                parser.exit(2, f"graphcoh check: {flag} is read only by the suites "
                               f"{', '.join(readers)}, not {args.suite}\n")
    return run_front_end(f"graphcoh {args.command}", COMMANDS[args.command], args)


if __name__ == "__main__":
    sys.exit(main())
