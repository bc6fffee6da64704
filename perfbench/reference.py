"""Record the benchmark's reference outputs, or cross-check them independently.

    python3 perfbench/reference.py record      # rewrite reference.json from this checkout
    python3 perfbench/reference.py crosscheck  # verify reference.json by other routes

`record` runs the package once and stores every item's expected output.
`crosscheck` shares no arithmetic with the package where it can avoid it:
ranks come from sympy, small cells are rebuilt entirely from the
brute-force oracles in tests/oracles.py (imported read-only), kernel
dimensions are checked as cols - rank, and every eps evaluation is
recomputed by explicit loops.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from worker import HERE, import_package

ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# (mode, largest V) of the two dimension-table sweeps.
TABLE_SWEEPS = (("literal", 4), ("edge-renumbering", 6))
# (mode, order, degree) of the cocycles reports; each is also a table cell.
COCYCLE_REPORTS = (("literal", 2, 0), ("edge-renumbering", 3, 0))
TRIVALENT_ORDERS = (1, 2)
# Rebuild a cell from the oracles when its labeled universe times V! stays below this.
ORACLE_REACH = 30_000_000


def table_cells() -> list[tuple[str, int, int]]:
    """Every (order, degree) realizable with 2 <= V <= the sweep's bound, per mode."""
    out = []
    for mode, vmax in TABLE_SWEEPS:
        cells = {(e - v, 2 * e - 3 * v)
                 for v in range(2, vmax + 1)
                 for e in range((v + 1) // 2, (3 * v) // 2 + 1)}
        out.extend((mode, order, degree) for order, degree in sorted(cells))
    return out


def record() -> int:
    import_package(ROOT)
    import workloads
    from graphcoh import decorated, enumeration, graphs, tensors

    table = []
    for mode, order, degree in table_cells():
        got = workloads.Table.cell(graphs.SymmetryMode.parse(mode), order, degree)
        table.append({"mode": mode, "order": order, "degree": degree, **got})
        print(f"table {mode} {order} {degree} {got}", flush=True)
    cocycles = []
    for mode, order, degree in COCYCLE_REPORTS:
        item = workloads.Item("", None, None)
        got = workloads.Cocycles.report(item, graphs.SymmetryMode.parse(mode), order, degree)
        cocycles.append({"mode": mode, "order": order, "degree": degree, **got})
        print(f"cocycles {mode} {order} {degree} {got}", flush=True)
    eps = tensors.eps_tensor()
    skeletons = []
    for m in TRIVALENT_ORDERS:
        for cls in enumeration.enumerate_trivalent(m, connected=False,
                                                   mode=graphs.SymmetryMode.LITERAL):
            g = decorated.decorate_uniform(cls.skeleton, eps)
            first = decorated.delta_decorated(g)
            skeletons.append({
                "order": m,
                "vertices": cls.skeleton.vertex_count,
                "edges": [list(e) for e in cls.skeleton.edges],
                "delta2_terms": sum(len(decorated.delta_decorated(h)) for _, h in first),
                "closed_eps": bool(decorated.is_cocycle_decorated(first)),
                "evaluate_eps": str(decorated.evaluate(g)),
            })
    suites = {}
    for name in workloads.CLOSURE_SUITES:
        code, text, _ = workloads.run_cli(["check", "--suite", name])
        if code != 0:
            raise SystemExit(f"suite {name} exited {code}")
        suites[name] = workloads.digest(text)
    reference = {"table": table, "cocycles": cocycles,
                 "closure": {"skeletons": skeletons, "suites": suites}}
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sympy_rank(rows: int, cols: int, entries: dict) -> int:
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if rows == 0 or cols == 0:
        return 0
    sdm = {}
    for (r, c), v in entries.items():
        sdm.setdefault(r, {})[c] = QQ(v.numerator, v.denominator)
    return DomainMatrix.from_dod(sdm, (rows, cols), QQ).rank()


def oracle_cell(oracles, mode: str, v: int, e: int) -> tuple[int, int]:
    """(dim, rank) of a cell built only from the oracles: bases by brute
    force, delta by explicit contraction, rank by sympy."""
    domain = oracles.enumerate_classes(v, e, mode) if v >= 2 and e >= 1 else []
    codomain = oracles.enumerate_classes(v - 1, e - 1, mode) if v >= 3 and e >= 2 else []
    index = {form: k for k, form in enumerate(codomain)}
    entries = {}
    for col, form in enumerate(domain):
        for target, coeff in oracles.delta_map(v, form, mode).items():
            entries[(index[target], col)] = coeff
    return len(domain), sympy_rank(len(codomain), len(domain), entries)


def crosscheck() -> int:
    import_package(ROOT)
    from graphcoh import coboundary, graphs

    oracles = load_oracles()
    reference = json.loads(REFERENCE.read_text())
    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)

    ranks = {}
    for cell in reference["table"]:
        mode, order, degree = cell["mode"], cell["order"], cell["degree"]
        v, e = 2 * order - degree, 3 * order - degree
        p = v * (v - 1) // 2
        universe = p**e if mode == "literal" else math.comb(e + p - 1, max(p - 1, 0))
        if universe * math.factorial(max(v, 0)) <= ORACLE_REACH:
            dim, rank = oracle_cell(oracles, mode, v, e)
            route = "oracle basis and delta, sympy rank"
        else:
            dm = coboundary.delta_matrix(order, degree, mode=graphs.SymmetryMode.parse(mode))
            dim, rank = dm.shape[1], sympy_rank(*dm.shape, dm.entries)
            route = "package matrix, sympy rank"
        ranks[(mode, order, degree)] = (dim, rank)
        report((dim, rank) == (cell["dim"], cell["rank"]),
               f"table {mode} {order} {degree}: dim {dim} rank {rank} ({route})")
    for rep in reference["cocycles"]:
        dim, rank = ranks[(rep["mode"], rep["order"], rep["degree"])]
        report(rep["cocycles"] == dim - rank and rep["nonzero_deltas"] == 0,
               f"cocycles {rep['mode']} {rep['order']} {rep['degree']}: "
               f"{rep['cocycles']} = cols {dim} - rank {rank}")
    eps = [[[Fraction((i - j) * (j - k) * (k - i) // 2) for k in range(3)]
            for j in range(3)] for i in range(3)]
    import numpy

    eps = numpy.array(eps, dtype=object)
    skeletons = reference["closure"]["skeletons"]
    bad = [k for k, s in enumerate(skeletons)
           if str(oracles.evaluate_loops(s["vertices"], [tuple(x) for x in s["edges"]],
                                         [eps] * s["vertices"])) != s["evaluate_eps"]]
    report(not bad, f"evaluate eps on {len(skeletons)} skeletons by explicit loops"
           + (f" (differs at {bad})" if bad else ""))
    regular = [sum(len(oracles.regular_edge_indices(oracles.contract(
        s["vertices"], [tuple(x) for x in s["edges"]], e)[1]))
        for e in oracles.regular_edge_indices([tuple(x) for x in s["edges"]]))
        for s in skeletons]
    report(regular == [s["delta2_terms"] for s in skeletons],
           "delta^2 term counts of the closure skeletons by explicit contraction")
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    commands = {"record": record, "crosscheck": crosscheck}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        raise SystemExit(f"usage: {sys.argv[0]} {{{','.join(commands)}}}")
    sys.exit(commands[sys.argv[1]]())
