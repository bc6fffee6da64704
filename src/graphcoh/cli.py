"""Command-line front end.

Subcommands: enumerate, delta, cocycles, mult, pairing, eval, check.
Reports are plain text (optionally mirrored to JSON with --json), carry
the symmetry mode in their headers, and are byte-identical for identical
configurations.  Exit codes: 0 success, 1 validation failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .canonical import canonicalize
from .coboundary import (
    cocycles_of,
    delta,
    delta_matrix,
    format_cochain,
    format_matrix,
)
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
from .errors import GraphCohError
from .graphs import (
    GraphSkeleton,
    SymmetryMode,
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
from .tensors import CATALOGUE, EquivariantTensor, Rad, catalogue_tensor, direct_sum, eps_tensor, parse_tensor

SUITES = ("delta2", "canon", "ihx", "multiplicities", "decorated-delta2")

# exhaustive delta-squared sweeps stay exact and fast up to these sizes
DELTA2_VMAX = {SymmetryMode.LITERAL: 4, SymmetryMode.EDGE_RENUMBERING: 6}
CANON_RANDOM_SYMMETRIES = 1000
CANON_SEED = 5189


@dataclass
class RunConfig:
    command: str
    mode: SymmetryMode = SymmetryMode.LITERAL
    order: int | None = None
    degree: int = 0
    connected: bool = False
    cap: int | None = None
    tolerance: float | None = None
    inputs: tuple[str, ...] = ()
    tensors: tuple[str, ...] = ()
    spins: str | None = None
    power: int | None = None
    suite: str | None = None
    out: str | None = None
    json_out: str | None = None
    mode_explicit: bool = False


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
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        return line.startswith("vertex ")
    return False


def _emit(config: RunConfig, lines: list[str], payload: dict) -> None:
    text = "\n".join(lines) + "\n"
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)
    if config.json_out:
        Path(config.json_out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _graph_json(g: GraphSkeleton) -> dict:
    return {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}


# ---------------------------------------------------------------------------
# Subcommand bodies.
# ---------------------------------------------------------------------------


def cmd_enumerate(config: RunConfig) -> int:
    classes = enumerate_grading(
        config.order, config.degree, connected=config.connected,
        mode=config.mode, cap=config.cap,
    )
    skeletons = [c.skeleton for c in classes]
    ids = [f"g{k}" for k in range(1, len(skeletons) + 1)]
    lines = [
        "# graphcoh enumerate",
        f"# mode {config.mode.value}",
        f"# order {config.order} degree {config.degree} connected {str(config.connected).lower()}",
        f"# classes {len(skeletons)}",
    ]
    if skeletons:
        lines.append(format_graphs(skeletons, ids=ids).rstrip("\n"))
    payload = {
        "command": "enumerate",
        "mode": config.mode.value,
        "order": config.order,
        "degree": config.degree,
        "connected": config.connected,
        "classes": {i: _graph_json(g) for i, g in zip(ids, skeletons)},
    }
    _emit(config, lines, payload)
    return 0


def cmd_delta(config: RunConfig) -> int:
    dm = delta_matrix(
        config.order, config.degree, connected=config.connected,
        mode=config.mode, cap=config.cap,
    )
    lines = ["# graphcoh delta", format_matrix(dm).rstrip("\n")]
    payload = {
        "command": "delta",
        "mode": config.mode.value,
        "order": config.order,
        "degree": config.degree,
        "connected": config.connected,
        "rows": dm.shape[0],
        "cols": dm.shape[1],
        "entries": [
            {"row": r + 1, "col": c + 1, "value": str(dm.entries[(r, c)])}
            for (r, c) in sorted(dm.entries)
        ],
    }
    _emit(config, lines, payload)
    return 0


def cmd_cocycles(config: RunConfig) -> int:
    dm = delta_matrix(
        config.order, config.degree, connected=config.connected,
        mode=config.mode, cap=config.cap,
    )
    cocycles = cocycles_of(dm)
    index_of = {cls: k for k, cls in enumerate(dm.domain)}
    ids = [f"g{k}" for k in range(1, len(dm.domain) + 1)]
    lines = [
        "# graphcoh cocycles",
        f"# mode {config.mode.value}",
        f"# order {config.order} degree {config.degree} connected {str(config.connected).lower()}",
        f"# basis {len(dm.domain)} cocycles {len(cocycles)}",
    ]
    if dm.domain:
        lines.append(format_graphs([c.skeleton for c in dm.domain], ids=ids).rstrip("\n"))
    for k, c in enumerate(cocycles, start=1):
        lines.append(f"# cocycle {k}")
        lines.append(format_cochain(c, index_of).rstrip("\n"))
    payload = {
        "command": "cocycles",
        "mode": config.mode.value,
        "order": config.order,
        "degree": config.degree,
        "connected": config.connected,
        "basis": {i: _graph_json(c.skeleton) for i, c in zip(ids, dm.domain)},
        "cocycles": [
            {f"g{index_of[cls] + 1}": str(coeff) for cls, coeff in c}
            for c in cocycles
        ],
    }
    _emit(config, lines, payload)
    return 0


def cmd_mult(config: RunConfig) -> int:
    spins = [as_spin(s) for s in config.spins.split(",") if s.strip()]
    if not spins:
        raise GraphCohError("--spins needs at least one spin")
    if config.power is not None:
        counts = power_decompose(SpinRep(tuple(spins)), config.power)
    else:
        counts = tensor_decompose(spins)
    line = " ".join(f"{j}:{m}" for j, m in counts.items())
    payload = {
        "command": "mult",
        "spins": [str(j) for j in spins],
        "power": config.power,
        "multiplicities": {str(j): m for j, m in counts.items()},
    }
    _emit(config, [line], payload)
    return 0


def cmd_pairing(config: RunConfig) -> int:
    if len(config.tensors) != 2:
        raise GraphCohError("pairing needs exactly two --tensor arguments")
    from .tensors import pairing as tensor_pairing

    t1 = load_tensor(config.tensors[0])
    t2 = load_tensor(config.tensors[1])
    value = tensor_pairing(t1, t2)
    payload = {
        "command": "pairing",
        "tensors": list(config.tensors),
        "value": _scalar_json(value),
    }
    _emit(config, [scalar_str(value)], payload)
    return 0


def _decorations_for(g: GraphSkeleton, refs: list[str]) -> DecoratedGraph:
    if len(refs) == 1:
        path = Path(refs[0])
        if refs[0] not in CATALOGUE and path.exists() and _is_decoration_file(path.read_text()):
            mapping = parse_decoration_lines(path.read_text())
            missing = [v for v in range(1, g.vertex_count + 1) if v not in mapping]
            if missing:
                raise GraphCohError(
                    f"decoration file lacks vertices {missing} for a graph with "
                    f"{g.vertex_count} vertices"
                )
            return decorate(g, [load_tensor(mapping[v]) for v in range(1, g.vertex_count + 1)])
        return decorate_uniform(g, load_tensor(refs[0]))
    if len(refs) != g.vertex_count:
        raise GraphCohError(
            f"need one --tensor per vertex ({g.vertex_count}) or a single "
            f"uniform/decoration-file reference, got {len(refs)}"
        )
    return decorate(g, [load_tensor(r) for r in refs])


def cmd_eval(config: RunConfig) -> int:
    if not config.inputs:
        raise GraphCohError("eval needs --in <graph file>")
    if not config.tensors:
        raise GraphCohError("eval needs at least one --tensor")
    text = "\n\n".join(Path(p).read_text() for p in config.inputs)
    skeletons = parse_graphs(text)
    lines = ["# graphcoh eval", f"# mode {config.mode.value}"]
    values = {}
    for k, g in enumerate(skeletons, start=1):
        dg = _decorations_for(g, list(config.tensors))
        value = evaluate(dg)
        values[f"g{k}"] = value
        lines.append(f"g{k}\t{scalar_str(value)}")
    payload = {
        "command": "eval",
        "mode": config.mode.value,
        "values": {k: _scalar_json(v) for k, v in values.items()},
    }
    _emit(config, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# Validation suites.  Each returns (ok, result lines, witness lines).
# ---------------------------------------------------------------------------


def _delta2_universe(mode: SymmetryMode, max_order: int, cap: int | None):
    vmax = DELTA2_VMAX[mode]
    for v in range(2, vmax + 1):
        emax = min((3 * v) // 2, v + max_order)
        for e in range((v + 1) // 2, emax + 1):
            yield from enumerate_grading(e - v, 2 * e - 3 * v, mode=mode, cap=cap)


def suite_delta2(config: RunConfig):
    max_order = config.order if config.order is not None else 3
    modes = [config.mode] if config.mode_explicit else list(SymmetryMode)
    lines, witness = [], []
    checked = 0
    for mode in modes:
        count = 0
        for cls in _delta2_universe(mode, max_order, config.cap):
            n, t = cls.grading
            image = delta(cls)
            if not image.is_zero and image.grading != (n, t + 1):
                witness.append(f"grading shift violated at mode {mode.value}:")
                witness.append(format_graph(cls.skeleton).rstrip("\n"))
                return False, lines, witness
            dd = delta(image)
            if not dd.is_zero:
                witness.append(f"delta^2 != 0 at mode {mode.value}, class:")
                witness.append(format_graph(cls.skeleton).rstrip("\n"))
                first = dd.support()[0]
                witness.append(f"residual coefficient {dd.coefficient(first)} on:")
                witness.append(format_graph(first.skeleton).rstrip("\n"))
                return False, lines, witness
            count += 1
        checked += count
        lines.append(f"ok delta2+grading mode {mode.value} classes {count}")
    lines.append(f"total classes checked {checked}")
    return True, lines, witness


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


def suite_canon(config: RunConfig):
    modes = [config.mode] if config.mode_explicit else list(SymmetryMode)
    rng = random.Random(CANON_SEED)
    lines, witness = [], []
    for mode in modes:
        skeletons = [
            cls.skeleton
            for m in (1, 2)
            for cls in enumerate_trivalent(m, connected=False, mode=mode, cap=config.cap)
        ]
        checks = 0
        for g in skeletons:
            base = canonicalize(g, mode)
            if base.skeleton != g or base.sign_state != 1:
                witness.append(f"canonical form not idempotent in mode {mode.value}:")
                witness.append(format_graph(g).rstrip("\n"))
                return False, lines, witness
            for _ in range(CANON_RANDOM_SYMMETRIES):
                h, sign, perm, reversals, eperm = _random_symmetry(rng, g, mode)
                got = canonicalize(h, mode)
                if got.skeleton != g or got.sign_state != sign:
                    witness.append(
                        f"sign multiplicativity violated in mode {mode.value}: "
                        f"perm {perm}, reversals {reversals}, edge perm {eperm}, "
                        f"expected sign {sign}, got {got.sign_state}"
                    )
                    witness.append(format_graph(g).rstrip("\n"))
                    return False, lines, witness
                checks += 1
        double = new_graph(2, [(1, 2), (1, 2)])
        if not canonicalize(double, mode).is_zero:
            witness.append(f"double edge not detected as a zero class in mode {mode.value}")
            witness.append(format_graph(double).rstrip("\n"))
            return False, lines, witness
        lines.append(
            f"ok canon mode {mode.value} skeletons {len(skeletons)} random checks {checks}"
        )
    return True, lines, witness


def suite_ihx(config: RunConfig):
    lines, witness = [], []
    eps = eps_tensor()
    cases = [
        ("eps", eps, True),
        ("eps-block-sum", direct_sum(eps, eps), True),
    ]
    for name, tensor, expected in cases:
        got = ihx_violation(tensor, config.tolerance) is None
        if got != expected:
            witness.append(f"ihx({name}) = {got}, expected {expected}")
            return False, lines, witness
        lines.append(f"ok ihx {name} holds")
    data = importlib.resources.files("graphcoh").joinpath("data/perturbed_jacobi.txt")
    perturbed = parse_tensor(data.read_text(), label="perturbed-jacobi")
    violation = ihx_violation(perturbed, config.tolerance)
    if violation is None:
        witness.append("perturbed table unexpectedly satisfies the identity")
        return False, lines, witness
    lines.append(f"ok ihx perturbed-jacobi fails at index {violation}")
    return True, lines, witness


def suite_multiplicities(config: RunConfig):
    lines, witness = [], []
    for j2 in range(0, 13):
        j = Fraction(j2, 2)
        expected = 1 if j.denominator == 1 else 0
        got = trivial_multiplicity(SpinRep.of(j), 3)
        if got != expected:
            witness.append(f"trivial multiplicity of E_{j} cubed: got {got}, expected {expected}")
            return False, lines, witness
    lines.append("ok trivial multiplicities of E_j cubed for 2j = 0..12")
    full = tensor_decompose([1, 1, 1])
    expected_full = {Fraction(0): 1, Fraction(1): 3, Fraction(2): 2, Fraction(3): 1}
    if full != expected_full:
        witness.append(f"decomposition of spin-1 cubed: got {full}")
        return False, lines, witness
    dim = sum(m * (int(2 * j) + 1) for j, m in full.items())
    if dim != 27:
        witness.append(f"dimension check failed: {dim} != 27")
        return False, lines, witness
    lines.append("ok spin-1 cubed decomposes as 0:1 1:3 2:2 3:1 (dimension 27)")
    for spins in ([Fraction(1, 2), Fraction(1, 2)], [2, Fraction(3, 2)], [1, 1, 1, 1]):
        target = 1
        for j in spins:
            target *= int(2 * j) + 1
        counts = tensor_decompose(spins)
        dim = sum(m * (int(2 * j) + 1) for j, m in counts.items())
        if dim != target:
            witness.append(f"dimension not preserved for {spins}: {dim} != {target}")
            return False, lines, witness
    lines.append("ok dimension preservation spot checks")
    return True, lines, witness


def suite_decorated_delta2(config: RunConfig):
    lines, witness = [], []
    eps = eps_tensor()
    count = 0
    for m in (1, 2):
        for cls in enumerate_trivalent(m, connected=False, mode=SymmetryMode.LITERAL, cap=config.cap):
            g = decorate_uniform(cls.skeleton, eps)
            if not is_cocycle_decorated(delta_decorated(g), config.tolerance):
                witness.append("decorated delta^2 residue on:")
                witness.append(format_graph(cls.skeleton).rstrip("\n"))
                return False, lines, witness
            count += 1
    lines.append(f"ok decorated-delta2 trivalent skeletons {count} (literal mode)")
    return True, lines, witness


SUITE_RUNNERS = {
    "delta2": suite_delta2,
    "canon": suite_canon,
    "ihx": suite_ihx,
    "multiplicities": suite_multiplicities,
    "decorated-delta2": suite_decorated_delta2,
}


def cmd_check(config: RunConfig) -> int:
    runner = SUITE_RUNNERS[config.suite]
    ok, lines, witness = runner(config)
    out = [
        "# graphcoh check",
        f"# suite {config.suite}",
        f"# mode {config.mode.value if config.mode_explicit else 'all'}",
        *lines,
    ]
    if ok:
        out.append("PASS")
    else:
        out.extend(witness)
        out.append("FAIL")
    payload = {
        "command": "check",
        "suite": config.suite,
        "mode": config.mode.value if config.mode_explicit else "all",
        "ok": ok,
        "results": lines,
        "witness": witness,
    }
    _emit(config, out, payload)
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

    def common(p, *, mode=False, cap=False, tol=False, grading=False):
        """--out and --json, plus the options the subcommand reads."""
        if mode:
            p.add_argument("--mode", choices=[m.value for m in SymmetryMode], default=None,
                           help="symmetry mode (default literal)")
        if cap:
            p.add_argument("--cap", type=int, default=None, help="basis size cap")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="floating tolerance")
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
    common(p, mode=True, cap=True, tol=True)
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--order", "--max-order", dest="order", type=int, default=None,
                   help="order bound for the delta2 sweep (default 3)")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    mode_arg = getattr(args, "mode", None)
    return RunConfig(
        command=args.command,
        mode=SymmetryMode.parse(mode_arg) if mode_arg else SymmetryMode.LITERAL,
        order=getattr(args, "order", None),
        degree=getattr(args, "degree", 0),
        connected=getattr(args, "connected", False),
        cap=getattr(args, "cap", None),
        tolerance=getattr(args, "tol", None),
        inputs=tuple(getattr(args, "inputs", ()) or ()),
        tensors=tuple(getattr(args, "tensor", ()) or ()),
        spins=getattr(args, "spins", None),
        power=getattr(args, "power", None),
        suite=getattr(args, "suite", None),
        out=args.out,
        json_out=args.json_out,
        mode_explicit=mode_arg is not None,
    )


COMMANDS = {
    "enumerate": cmd_enumerate,
    "delta": cmd_delta,
    "cocycles": cmd_cocycles,
    "mult": cmd_mult,
    "pairing": cmd_pairing,
    "eval": cmd_eval,
    "check": cmd_check,
}


def run(config: RunConfig) -> int:
    try:
        return COMMANDS[config.command](config)
    except GraphCohError as exc:
        print(f"graphcoh {config.command}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"graphcoh {config.command}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
