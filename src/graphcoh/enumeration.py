"""Exhaustive enumeration of nonzero graph classes at a fixed grading.

The labeled universe at vertex/edge counts (V, E) is finite once edges are
oriented tail < head: in LITERAL mode it is the set of length-E sequences
of vertex pairs, in EDGE_RENUMBERING mode the set of multiplicity vectors
over the pairs.  A class is kept when its labeled representative is the
canonical one (no vertex permutation reaches a lexicographically smaller
flattened edge list) and no self-symmetry carries sign -1.

One vectorized sweep serves every cell: the live rows meet one vertex
permutation at a time, each permuted row compared with its original by
their byte keys (canonical._keys).  Before the next permutation the
sweep drops the rows it beats and the rows it fixes with sign -1, whose
classes are zero.  A row's verdict depends only on its own images, so
dropping other rows early changes nothing.  Permutations come in order of
how many points they move, transpositions first, since the cheapest moves
kill most rows.  Rows that survive every permutation are the canonical
nonzero ones and are decoded into classes.

Enumeration refuses to start when the labeled universe would exceed a
multiple of the configured class cap, or when V > 8 puts the exhaustive
permutation sweep out of reach (BasisTooLarge), so hopeless requests fail
fast instead of grinding.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .canonical import _LARGE_FACTORIAL_GUARD, GraphClass, _act, _keys, _perm_tables, _signs, _skeleton_from_row
from .errors import BasisTooLarge
from .graphs import SymmetryMode, counts_for_grading, is_connected

DEFAULT_CAP = 200_000

_UNIVERSE_FACTOR = 50  # labeled universe may be this many times the cap


def resolve_cap(cap: int | None = None) -> int:
    """The explicit cap, else DEFAULT_CAP."""
    if cap is None:
        cap = DEFAULT_CAP
    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")
    return cap


def _universe_size(v: int, e: int, mode: SymmetryMode) -> int:
    p = v * (v - 1) // 2
    if mode is SymmetryMode.LITERAL:
        return p**e
    return math.comb(e + p - 1, p - 1)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All ways to write `total` as an ordered sum of `parts` naturals.

    The entries take the least unsigned dtype holding `total` (uint8 up to 255).
    The memo lives for one call, so no universe outlasts its cell.
    """

    @functools.cache
    def blocks(total: int, parts: int) -> np.ndarray:
        dtype = np.min_scalar_type(total)
        if parts == 1:
            return np.array([[total]], dtype=dtype)
        out, at = np.empty((math.comb(total + parts - 1, parts - 1), parts), dtype), 0
        for first in range(total + 1):  # each sub-block copied once, straight into place
            rest = blocks(total - first, parts - 1)
            out[at : at + len(rest), 0], out[at : at + len(rest), 1:] = first, rest
            at += len(rest)
        return out

    try:
        return blocks(total, parts)
    finally:
        blocks.cache_clear()  # blocks refers to itself, so only gc would free it


def _labeled_universe(v: int, e: int, mode: SymmetryMode, tables) -> np.ndarray:
    """Rows of the labeled universe: pair-id sequences or multiplicity vectors."""
    p = len(tables.pairs)
    if mode is SymmetryMode.LITERAL:
        digits = np.arange(p, dtype=np.uint8)
        arr = np.empty((p**e, e), dtype=np.uint8)
        for col in range(e):
            arr[:, col] = np.tile(np.repeat(digits, p ** (e - 1 - col)), p**col)
        return arr
    return _compositions(e, p)


def _valence_filter(arr: np.ndarray, v: int, mode: SymmetryMode, tables, trivalent: bool) -> np.ndarray:
    """Keep rows where every vertex is touched (or has valence exactly 3)."""
    keep = np.ones(arr.shape[0], dtype=bool)
    for u in range(1, v + 1):
        at_u = np.array([u in pair for pair in tables.pairs])
        if mode is SymmetryMode.LITERAL:
            hits = at_u[arr]  # is each edge at u?
        else:
            hits = arr[:, at_u]  # multiplicity of each pair at u
        keep &= (hits.sum(axis=1, dtype=np.int64) == 3) if trivalent else hits.any(axis=1)
    return arr[keep]


def _bulk_survivors(arr: np.ndarray, mode: SymmetryMode, tables) -> np.ndarray:
    """The canonical nonzero rows of the labeled universe.

    A row is dropped at the first permutation that moves it to a more
    canonical row (see canonical.canonical_rows: lexicographically least
    in LITERAL mode, greatest otherwise) or fixes it with sign -1.
    """
    literal = mode is SymmetryMode.LITERAL
    images = np.array(tables.perms)
    moved_points = (images != np.arange(1, images.shape[1] + 1)).sum(axis=1)
    live = arr
    for g in np.argsort(moved_points, kind="stable")[1:]:  # [0] is the identity
        row, image = _keys(live), _keys(_act(tables, mode, live, g))
        drop = image < row if literal else image > row
        fixed = image == row
        if fixed.any():
            drop[fixed] = _signs(tables, mode, live[fixed], g) == -1
        live = live[~drop]
    return live


def enumerate_by_counts(
    vertex_count: int,
    edge_count: int,
    *,
    connected: bool = False,
    trivalent: bool = False,
    mode: SymmetryMode = SymmetryMode.LITERAL,
    cap: int | None = None,
) -> list[GraphClass]:
    """All nonzero classes with the given vertex and edge counts, sorted."""
    cap = resolve_cap(cap)
    v, e = vertex_count, edge_count
    if v < 2 or e < 1 or 2 * e < v:
        return []
    if trivalent and 2 * e != 3 * v:
        return []
    universe = _universe_size(v, e, mode)
    if universe > _UNIVERSE_FACTOR * cap:
        raise BasisTooLarge(
            f"labeled universe at V={v}, E={e} has {universe} candidates", cap
        )
    if v > _LARGE_FACTORIAL_GUARD:
        raise BasisTooLarge(
            f"V={v} needs a {math.factorial(v)}-permutation sweep per candidate, "
            f"past the exhaustive-search bound (V <= {_LARGE_FACTORIAL_GUARD})"
        )

    tables = _perm_tables(v)
    arr = _labeled_universe(v, e, mode, tables)
    arr = _valence_filter(arr, v, mode, tables, trivalent)
    classes = [
        GraphClass(_skeleton_from_row(v, row, mode, tables.pairs), 1, mode)
        for row in _bulk_survivors(arr, mode, tables)
    ]
    if connected:
        classes = [c for c in classes if is_connected(c.skeleton)]
    classes.sort(key=GraphClass.sort_key)
    if len(classes) > cap:
        raise BasisTooLarge(
            f"{len(classes)} classes at V={v}, E={e} exceed the cap", cap
        )
    return classes


def enumerate_grading(
    order: int,
    degree: int,
    *,
    connected: bool = False,
    mode: SymmetryMode = SymmetryMode.LITERAL,
    cap: int | None = None,
) -> list[GraphClass]:
    """Basis of nonzero classes at (order, degree), sorted deterministically."""
    v, e = counts_for_grading(order, degree)
    return enumerate_by_counts(v, e, connected=connected, mode=mode, cap=cap)


def enumerate_trivalent(
    order: int,
    *,
    connected: bool = True,
    mode: SymmetryMode = SymmetryMode.LITERAL,
    cap: int | None = None,
) -> list[GraphClass]:
    """All nonzero trivalent classes of the given order (V = 2m, E = 3m)."""
    if order < 1:
        return []
    return enumerate_by_counts(
        2 * order,
        3 * order,
        connected=connected,
        trivalent=True,
        mode=mode,
        cap=cap,
    )
