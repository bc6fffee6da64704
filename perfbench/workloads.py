"""The benchmark's three workloads: their inputs, their items, and what each item must output.

A workload is built from the recorded reference (fixed cell lists and
skeletons) and the seed, which only `closure` uses.  Its items are
callables returning a JSON-able output that must equal the item's
expected output.  Every call into graphcoh goes through a module
attribute (`coboundary.delta_matrix`, never a name imported from it), so
that the traced run's wrappers see the calls the workloads make.

This module imports graphcoh; it is loaded only inside a worker process
whose `sys.path` already points at the checkout's `src`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from fractions import Fraction

from graphcoh import canonical, cli, coboundary, decorated, graphs, tensors

# The radical closure sample is stratified by the number of delta^2 terms
# of the skeleton (term count -> skeletons drawn), so that the seed changes
# which graphs and coefficients are checked but not the amount of work.
RADICAL_SAMPLE = {2: 2, 6: 1}
RADICAL_RADICAND = 2
RADICAL_COEFFS = (-3, -2, -1, 1, 2, 3)

CLOSURE_SUITES = ("decorated-delta2", "ihx", "multiplicities")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run `graphcoh.cli.main` in-process, capturing its report and its errors."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Item:
    """One timed unit of a workload: a cell, a report or a suite.

    `run(item)` does the work and returns the output that must equal
    `expected`; an item that runs the CLI keeps its report's size in
    `report_bytes`.
    """

    __slots__ = ("name", "expected", "run", "report_bytes")

    def __init__(self, name, expected, run):
        self.name = name
        self.expected = expected
        self.run = run
        self.report_bytes = 0


class Table:
    """delta_matrix and its exact rank on every cell of the dimension-table sweeps."""

    def __init__(self, reference: dict, seed: int):
        self.cells = [
            (graphs.SymmetryMode.parse(c["mode"]), c["order"], c["degree"], c)
            for c in reference["table"]
        ]

    def items(self) -> list[Item]:
        return [
            Item(f"cell {mode.value} {order} {degree}", {"dim": ref["dim"], "rank": ref["rank"]},
                 lambda item, mode=mode, order=order, degree=degree: self.cell(mode, order, degree))
            for mode, order, degree, ref in self.cells
        ]

    @staticmethod
    def cell(mode, order, degree) -> dict:
        dm = coboundary.delta_matrix(order, degree, mode=mode)
        return {"dim": dm.shape[1], "rank": dm.rank()}


def parse_cocycles_report(text: str, mode) -> tuple[list, list[str]]:
    """The basis classes and the cocycle blocks of a `graphcoh cocycles` report."""
    lines = text.splitlines()
    starts = [k for k, line in enumerate(lines) if line.startswith("# cocycle ")]
    head = lines[: starts[0]] if starts else lines
    basis = [canonical.canonicalize(g, mode) for g in graphs.parse_graphs("\n".join(head))]
    bounds = starts + [len(lines)]
    blocks = ["\n".join(lines[a + 1 : b]) for a, b in zip(bounds, bounds[1:])]
    return basis, blocks


class Cocycles:
    """`graphcoh cocycles` reports, each followed by delta of every reported cocycle."""

    def __init__(self, reference: dict, seed: int):
        self.reports = [
            (graphs.SymmetryMode.parse(r["mode"]), r["order"], r["degree"], r)
            for r in reference["cocycles"]
        ]

    def items(self) -> list[Item]:
        return [
            Item(f"cocycles {mode.value} {order} {degree}",
                 {k: ref[k] for k in ("exit", "sha256", "cocycles", "nonzero_deltas")},
                 lambda item, mode=mode, order=order, degree=degree: self.report(
                     item, mode, order, degree))
            for mode, order, degree, ref in self.reports
        ]

    @staticmethod
    def report(item: Item, mode, order, degree) -> dict:
        code, text, err = run_cli([
            "cocycles", "--order", str(order), "--degree", str(degree), "--mode", mode.value,
        ])
        item.report_bytes = len(text.encode())
        if code != 0:
            return {"exit": code, "error": err.strip()}
        basis, blocks = parse_cocycles_report(text, mode)
        nonzero = sum(
            not coboundary.delta(coboundary.parse_cochain(block, basis)).is_zero
            for block in blocks
        )
        return {"exit": code, "sha256": digest(text), "cocycles": len(blocks),
                "nonzero_deltas": nonzero}


def radical_pair(x) -> tuple[Fraction, Fraction]:
    """(a, b) of a value a + b*sqrt(d); rationals have b = 0."""
    return Fraction(getattr(x, "a", x)), Fraction(getattr(x, "b", 0))


def radical_power(a: Fraction, b: Fraction, n: int, d: int) -> tuple[Fraction, Fraction]:
    """(a + b*sqrt(d))**n by repeated multiplication, independent of the package."""
    x, y = Fraction(1), Fraction(0)
    for _ in range(n):
        x, y = x * a + y * b * d, x * b + y * a
    return x, y


class Closure:
    """Decorated delta^2 closure under eps and a seeded radical multiple of it,
    evaluation of every trivalent skeleton of order 1 and 2, and the two
    small check suites."""

    def __init__(self, reference: dict, seed: int):
        ref = reference["closure"]
        self.reference = ref
        self.skeletons = [graphs.new_graph(s["vertices"], map(tuple, s["edges"]))
                          for s in ref["skeletons"]]
        rng = random.Random(seed)
        self.coeff = (rng.choice(RADICAL_COEFFS), rng.choice(RADICAL_COEFFS))
        self.sample = []
        for terms, count in RADICAL_SAMPLE.items():
            stratum = [k for k, s in enumerate(ref["skeletons"])
                       if s["order"] == 2 and s["delta2_terms"] == terms]
            self.sample.extend(sorted(rng.sample(stratum, count)))
        self.eps = tensors.eps_tensor()
        a, b = self.coeff
        scale = tensors.Rad(a, b, RADICAL_RADICAND)
        self.radical = tensors.make_tensor(
            self.eps.array * scale, kind=tensors.radical(RADICAL_RADICAND), label="radical-eps")

    def items(self) -> list[Item]:
        skeletons = self.reference["skeletons"]
        out = [self.suite_item("decorated-delta2")]
        out.extend(
            Item(f"closure radical g{k + 1}", {"closed": skeletons[k]["closed_eps"]},
                 lambda item, k=k: self.closure(self.radical, k))
            for k in self.sample)
        out.append(Item("evaluate eps",
                        {"values": [[s["evaluate_eps"], "0"] for s in skeletons]},
                        lambda item: self.evaluate(self.eps)))
        out.append(Item("evaluate radical", {"values": self.expected_radical_values()},
                        lambda item: self.evaluate(self.radical)))
        out.extend(self.suite_item(name) for name in CLOSURE_SUITES[1:])
        return out

    def suite_item(self, name: str) -> Item:
        return Item(f"suite {name}", {"exit": 0, "sha256": self.reference["suites"][name]},
                    lambda item: self.suite(item, name))

    @staticmethod
    def suite(item: Item, name: str) -> dict:
        code, text, err = run_cli(["check", "--suite", name])
        item.report_bytes = len(text.encode())
        if code != 0:
            return {"exit": code, "error": (err or text).strip()}
        return {"exit": code, "sha256": digest(text)}

    def closure(self, tensor, k: int) -> dict:
        g = decorated.decorate_uniform(self.skeletons[k], tensor)
        return {"closed": bool(decorated.is_cocycle_decorated(decorated.delta_decorated(g)))}

    def evaluate(self, tensor) -> dict:
        values = [decorated.evaluate(decorated.decorate_uniform(g, tensor)) for g in self.skeletons]
        return {"values": [[str(x) for x in radical_pair(v)] for v in values]}

    def expected_radical_values(self) -> list[list[str]]:
        """evaluate is multilinear, so scaling every vertex tensor by c scales
        the value of a V-vertex graph by c**V."""
        a, b = (Fraction(x) for x in self.coeff)
        out = []
        for s in self.reference["skeletons"]:
            x, y = radical_power(a, b, s["vertices"], RADICAL_RADICAND)
            value = Fraction(s["evaluate_eps"])
            out.append([str(value * x), str(value * y)])
        return out


WORKLOADS = {"table": Table, "cocycles": Cocycles, "closure": Closure}
