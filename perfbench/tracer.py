"""Timing wrappers around each layer's public functions, for the traced run only.

`Tracer.install` replaces every function listed in LAYERS, in every
graphcoh module namespace that holds it (for example both
`graphcoh.coboundary.enumerate_grading` and `graphcoh.enumeration.
enumerate_grading`), so calls made inside the package are caught too.
Tensor contractions are caught by giving each graphcoh module a copy of
the numpy namespace whose `tensordot` is wrapped.  `graphs` is not
wrapped: its functions are too small, and their cost shows in the self
time of their callers.

Each call records a span (name, start, end, parent span, item) in
memory; `write_spans` stores them when the pass ends.  A span's self time
is its duration minus the time its child spans cover.  Untraced passes
never import this module.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy

LAYERS = {
    "enumeration": ("graphcoh.enumeration",
                    ["enumerate_by_counts", "enumerate_grading", "enumerate_trivalent"]),
    "canonical": ("graphcoh.canonical", ["canonicalize", "transport_to_canonical"]),
    "coboundary": ("graphcoh.coboundary",
                   ["delta_matrix", "DeltaMatrix.rank", "DeltaMatrix.kernel", "delta",
                    "cocycles_of", "cocycle_basis"]),
    "tensors": ("graphcoh.tensors",
                ["make_tensor", "zero_tensor", "pairing", "direct_sum", "check_equivariance",
                 "symmetry_profile", "parse_tensor", "eps_tensor", "catalogue_tensor"]),
    "decorated": ("graphcoh.decorated",
                  ["evaluate", "delta_decorated", "is_cocycle_decorated", "ihx_violation",
                   "ihx_check"]),
    "reps": ("graphcoh.reps",
             ["tensor_decompose", "power_decompose", "trivial_multiplicity",
              "rep_decomposition", "lie_data"]),
    "cli": ("graphcoh.cli", ["main"]),
}
CONTRACT = "tensors.tensordot"
CLOSURE = "decorated.is_cocycle_decorated"
ITEM = "bench.item"


def universe_size(v: int, e: int, literal: bool) -> int:
    """Labeled candidates of a (V, E) cell: pair sequences, or pair multisets."""
    if v < 2 or e < 1:
        return 0
    p = v * (v - 1) // 2
    return p**e if literal else math.comb(e + p - 1, p - 1)


def _enumeration_cell(name: str, args, kwargs) -> tuple[int, int, str, bool]:
    """(V, E, mode, trivalent) of an enumeration entry call."""
    mode = kwargs.get("mode")
    mode = getattr(mode, "value", "literal")
    if name.endswith("enumerate_by_counts"):
        return args[0], args[1], mode, bool(kwargs.get("trivalent", False))
    if name.endswith("enumerate_grading"):
        order, degree = args[0], args[1]
        return 2 * order - degree, 3 * order - degree, mode, False
    order = args[0]
    return 2 * order, 3 * order, mode, True


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_item = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.cells: set = set()
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self.cache_before = None

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def begin_item(self, index: int) -> None:
        self.current_item = index
        self._open(ITEM)

    def end_item(self) -> None:
        self._close(self.stack[-1])

    def _inside(self, prefix: str) -> bool:
        return any(self.names[self.name[i]].startswith(prefix) for i in self.stack)

    def _wrap(self, name: str, fn):
        tracer = self
        label = _closure_label if name == CLOSURE else None
        hook = HOOKS.get(name.split(".", 1)[1])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(label(name, args) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, name, args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "graphcoh" or n.startswith("graphcoh."))]
        for layer, (home, names) in LAYERS.items():
            module = sys.modules[home]
            for qual in names:
                owner, attr = module, qual
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(module, cls_name, None)
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(f"{home}.{qual}")
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                if owner is not module:
                    setattr(owner, attr, wrapper)
                    self.wrapped.append(f"{home}.{qual}")
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            self.wrapped.append(f"{m.__name__}.{key}")
        contract = self._wrap(CONTRACT, numpy.tensordot)
        for m in modules:
            if vars(m).get("np") is numpy:
                proxy = types.ModuleType("numpy")
                proxy.__dict__.update(vars(numpy))
                proxy.tensordot = contract
                m.np = proxy
                self.wrapped.append(f"{m.__name__}.np.tensordot")
        cache = self._canonical_cache()
        self.cache_before = cache.cache_info() if cache else None

    @staticmethod
    def _canonical_cache():
        return getattr(sys.modules["graphcoh.canonical"], "_canonicalize_cached", None)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        n = len(self.end)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def metrics(self, wall_s: float, report_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the pass (overhead_ratio is added by the caller)."""
        own = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, nid in enumerate(self.name):
            by_name[self.names[nid]] += own[i]
            calls[self.names[nid]] += 1

        def self_s(prefix: str) -> float:
            return float(sum(t for name, t in by_name.items() if name.startswith(prefix)))

        c = self.counts
        cache = self._canonical_cache()
        hit_ratio = 0.0
        if cache is not None and self.cache_before is not None:
            info = cache.cache_info()
            hits = info.hits - self.cache_before.hits
            misses = info.misses - self.cache_before.misses
            hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        layer_s = sum(self_s(layer + ".") for layer in LAYERS)
        return {
            "enumeration.self_s": self_s("enumeration."),
            "enumeration.calls": c["enumeration.calls"],
            "enumeration.distinct_cells": len(self.cells),
            "enumeration.universe": c["enumeration.universe"],
            "enumeration.kept_ratio": (c["enumeration.classes"] / c["enumeration.universe"]
                                       if c["enumeration.universe"] else 0.0),
            "canonical.calls": calls["canonical.canonicalize"]
            + calls["canonical.transport_to_canonical"],
            "canonical.self_s": self_s("canonical."),
            "canonical.hit_ratio": hit_ratio,
            "coboundary.self_s": self_s("coboundary."),
            "coboundary.assembly_s": by_name["coboundary.delta_matrix"],
            "coboundary.rank_s": by_name["coboundary.rank"],
            "coboundary.kernel_s": by_name["coboundary.kernel"],
            "coboundary.delta_s": by_name["coboundary.delta"],
            "coboundary.cochain_s": by_name["coboundary.cocycles_of"]
            + by_name["coboundary.cocycle_basis"],
            "coboundary.nnz": c["coboundary.nnz"],
            "coboundary.matrix_cells": c["coboundary.matrix_cells"],
            "coboundary.kernel_dim": c["coboundary.kernel_dim"],
            "tensors.self_s": self_s("tensors."),
            "tensors.contract_calls": calls[CONTRACT],
            "tensors.contract_s": by_name[CONTRACT],
            "decorated.self_s": self_s("decorated."),
            "decorated.closure_rational_s": by_name[CLOSURE + ".rational"],
            "decorated.closure_radical_s": by_name[CLOSURE + ".radical"],
            "decorated.delta_s": by_name["decorated.delta_decorated"],
            "decorated.evaluate_s": by_name["decorated.evaluate"],
            "decorated.terms": c["decorated.terms"],
            "decorated.outer_entries": c["decorated.outer_entries"],
            "reps.self_s": self_s("reps."),
            "cli.self_s": self_s("cli."),
            "cli.report_bytes": report_bytes,
            "bench.other_s": wall_s - layer_s,
        }

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON: names, then one [name, start, end, parent, item] row each."""
        rows = [[self.name[i], self.start[i], self.end[i], self.parent[i], self.item[i]]
                for i in range(len(self.end))]
        with gzip.open(path, "wt") as f:
            json.dump({"run_id": self.run_id, "names": self.names, "spans": rows}, f)


def _closure_label(name: str, args) -> str:
    """Split closure checks by the scalar kind of the chain they test."""
    kind = "empty"
    for _, g in args[0]:
        kind = g.kind.name
        break
    return f"{name}.{kind}"


def _count_enumeration(tracer, name, args, kwargs, result) -> None:
    if tracer._inside("enumeration."):
        return
    v, e, mode, trivalent = _enumeration_cell(name, args, kwargs)
    tracer.cells.add((v, e, mode, trivalent))
    tracer.counts["enumeration.calls"] += 1
    tracer.counts["enumeration.universe"] += universe_size(v, e, mode == "literal")
    tracer.counts["enumeration.classes"] += len(result)


def _count_matrix(tracer, name, args, kwargs, result) -> None:
    rows, cols = result.shape
    tracer.counts["coboundary.nnz"] += len(result.entries)
    tracer.counts["coboundary.matrix_cells"] += rows * cols


def _count_kernel(tracer, name, args, kwargs, result) -> None:
    tracer.counts["coboundary.kernel_dim"] += len(result)


def _count_decorated_delta(tracer, name, args, kwargs, result) -> None:
    tracer.counts["decorated.terms"] += len(result)
    if tracer._inside(CLOSURE):
        tracer.counts["decorated.outer_entries"] += sum(
            h.dim ** sum(t.valence for t in h.decorations) for _, h in result)


HOOKS = {
    "enumerate_by_counts": _count_enumeration,
    "enumerate_grading": _count_enumeration,
    "enumerate_trivalent": _count_enumeration,
    "delta_matrix": _count_matrix,
    "kernel": _count_kernel,
    "delta_decorated": _count_decorated_delta,
}
