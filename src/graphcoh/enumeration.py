"""Exhaustive enumeration of nonzero graph classes at a fixed grading.

The labeled universe at vertex/edge counts (V, E) is finite once edges are
oriented tail < head: in LITERAL mode it is the set of length-E sequences
of vertex pairs, in EDGE_RENUMBERING mode the set of multiplicity vectors
over the pairs.  A class is kept when its labeled representative is the
canonical one (no vertex permutation reaches a lexicographically smaller
flattened edge list) and no self-symmetry carries sign -1.  Some vertex
permutation moves any edge onto the pair (1, 2), pair 0, so only rows with
pair 0 first (LITERAL) or greatest (otherwise) can be canonical, and the
same argument one pair further cuts the rows built.  _labeled_universe
alone states these conditions and builds only the rows that meet them;
_valence_filter then checks valence only, and the sweep is exact on the
rows of that slice.  It reads each row's vertex degrees off one
pair x vertex incidence table, canonical._PermTables.ends, which δ reads
too (coboundary._images): the rows times the table for multiplicity
vectors, its rows summed one column of pair ids at a time in LITERAL
mode, so no per-row gather as wide as the row is made.

One vectorized sweep (_sweep) serves every cell: the live rows meet a
block of vertex permutations at a time, each permuted row compared with
its original by their byte keys (canonical._keys).  Before the next block
the sweep drops the rows some permutation of the block beats and the
rows one fixes with sign -1, whose classes are zero; signs are computed
only for the rows a permutation of the block fixes.  A row's verdict
depends only on its own images, so dropping other rows early, and the
grouping into blocks, change nothing.  Every row meets the permutations
that keep pair 0 (canonical._PermTables.sweep_keep).  One that moves it
(sweep_move) can beat or fix only a row whose multiplicity on the pair it
puts first ties the greatest, so it meets only those rows, and none in
LITERAL mode.  Permutations come in order of how many points they move,
transpositions first, since the cheapest moves kill most rows.  Each
block moves about canonical._BLOCK_BYTES of rows, the budget
canonical_rows moves its rows by too, so blocks grow as rows die, and
the sweep ends once no row is live.  Rows that survive every permutation
are the canonical nonzero ones.  The slice is built in ascending row
order, which the filter and the sweep keep, so one canonical._skeletons
call decodes them in sorted order: in row order in LITERAL mode,
reversed otherwise (the greatest multiplicity vector is the least edge
list).  The connected filter reads the skeletons.  _cell keeps the
classes of the four most recently used cells in an lru_cache keyed by
every argument, (V, E, connected, trivalent, mode, resolved cap), so a
cell asked for again with the same arguments, as delta_matrix does for
the codomain of one degree and the domain of the next, is swept once;
each call returns its own list.

Enumeration refuses (BasisTooLarge) when V > 8 puts the exhaustive
permutation sweep out of reach, and when the slice would hold more than
_ROWS_FACTOR times the configured class cap in rows: _labeled_universe
counts the rows it is about to hold, all at once in LITERAL mode;
otherwise column by column up to column V - 2, and then, exactly,
all the rows of the slice (_completions), before the first column bounded
by the greatest entry alone is built; it refuses before it allocates
them, naming the count.  Then more than cap classes are refused; without the
connected filter each surviving row is one class, so that check runs
before the rows are decoded.  The cap is part of the cache key and a
refusal is never kept, so a call's classes, or the reason it is refused,
depend on its arguments alone, not on the calls before it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .canonical import (
    _BLOCK_BYTES,
    _LARGE_FACTORIAL_GUARD,
    GraphClass,
    _act,
    _keys,
    _perm_tables,
    _signs,
    _skeletons,
)
from .errors import BasisTooLarge
from .graphs import SymmetryMode, counts_for_grading, is_connected

DEFAULT_CAP = 200_000

_ROWS_FACTOR = 50  # the slice built may hold this many times the cap in rows


def resolve_cap(cap: int | None = None) -> int:
    """The explicit cap, else DEFAULT_CAP."""
    if cap is None:
        cap = DEFAULT_CAP
    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")
    return cap


def _refuse_rows(v: int, e: int, rows: int, cap: int) -> None:
    if rows > _ROWS_FACTOR * cap:
        raise BasisTooLarge(f"the slice built at V={v}, E={e} reaches {rows} rows", cap)


def _refuse_classes(v: int, e: int, classes: int, cap: int) -> None:
    if classes > cap:
        raise BasisTooLarge(f"{classes} classes at V={v}, E={e} exceed the cap", cap)


def _completions(left: np.ndarray, m: np.ndarray, parts: int) -> int:
    """How many rows the given rows grow into when each still needs `parts`
    entries in 0..m summing to left: per distinct (left, m), the ways to
    write left so, by inclusion-exclusion over the entries past m."""
    (lefts, ms), times = np.unique(np.stack([left, m]), axis=1, return_counts=True)
    return sum(t * sum((-1) ** i * math.comb(parts, i) * math.comb(n - i * (k + 1) + parts - 1, parts - 1)
                       for i in range(min(parts, n // (k + 1)) + 1))
               for n, k, t in zip(lefts.tolist(), ms.tolist(), times.tolist()))


def _labeled_universe(v: int, e: int, mode: SymmetryMode, tables, *, cap: int = DEFAULT_CAP) -> np.ndarray:
    """The slice of the labeled universe that is built, in ascending row order.

    Some vertex permutation moves any pair onto pair 0, (1, 2).  So the least
    pair-id sequence of a class starts with pair 0 (LITERAL), and the greatest
    multiplicity vector has its greatest entry on pair 0 (otherwise): only
    those rows can be canonical.  A permutation keeping pair 0 then moves the
    second pair of a sequence onto (1, 2), (1, 3) or (3, 4), pair ids 0, 1 and
    2V - 3, so only the sequences with one of those second are built; and a
    transposition of two vertices in 3..V sorts the multiplicities of (1, 3),
    ..., (1, V), pair ids 1..V - 2, so only the vectors where those do not
    increase are built.  Vectors grow a column at a time, each row by every
    value, ascending, that the entry bounding it allows and that leaves no
    more than the columns after it can hold, so each finished row sums to E.
    Before the rows are allocated their count is checked against
    _ROWS_FACTOR * cap (BasisTooLarge): the sequences all at once; the
    vectors a column at a time up to column V - 2, each of whose rows grows
    into at least one row of the slice, and then once, exactly, since every
    column after is bounded by the greatest entry alone (_completions).
    """
    p = len(tables.pairs)
    if mode is SymmetryMode.LITERAL:
        second = [d for d in (0, 1, 2 * v - 3) if d < p]
        columns = [np.array(d, np.uint8) for d in [[0], second] + [range(p)] * (e - 2)][:e]
        sizes = [len(digits) for digits in columns]
        _refuse_rows(v, e, math.prod(sizes), cap)
        arr = np.empty((math.prod(sizes), e), dtype=np.uint8)
        for col, digits in enumerate(columns):  # ascending: each digit once per row of the columns after
            arr[:, col] = np.tile(np.repeat(digits, math.prod(sizes[col + 1 :])), math.prod(sizes[:col]))
        return arr
    dtype = np.min_scalar_type(e)
    rows = np.arange(-(-e // p), e + 1, dtype=dtype)[:, None]  # the greatest of p entries summing to E is at least E/p
    left = e - rows[:, 0]  # what the columns still to build sum to
    for col in range(1, p):
        m = rows[:, 0]
        hi = np.minimum(rows[:, col - 1] if col < v - 1 else m, left)
        lo = left - np.minimum(left, np.multiply(m, p - 1 - col, dtype=np.intp))  # what the columns after cannot hold
        counts = np.maximum(hi - lo + 1, 0)
        if col < v - 1:
            _refuse_rows(v, e, int(counts.sum()), cap)
        elif col == v - 1:  # the rows the slice will hold, before the first column bounded by m alone is built
            _refuse_rows(v, e, _completions(left, m, p - col), cap)
        value = np.repeat(lo - np.cumsum(counts) + counts, counts)  # lo, less the index of the row's first extension
        value += np.arange(len(value))
        rows = np.column_stack([np.repeat(rows, counts, axis=0), value.astype(dtype)])
        left = np.repeat(left, counts) - rows[:, col]
    return rows


def _valence_filter(arr: np.ndarray, mode: SymmetryMode, tables, trivalent: bool) -> np.ndarray:
    """Keep the rows where every vertex is touched (or has valence exactly 3):
    given rows of the slice (_labeled_universe), the sweep's input.

    A row's vertex degrees sum the rows of canonical._PermTables.ends over
    its edges: arr @ ends for multiplicity vectors, in their dtype, which
    holds E; ends[col] summed one column of pair ids at a time in LITERAL
    mode, in a dtype that holds the row width, E."""
    ends = tables.ends.astype(np.min_scalar_type(arr.shape[1]))
    deg = sum(ends[col] for col in arr.T) if mode is SymmetryMode.LITERAL else arr @ ends
    return arr[(deg == 3).all(axis=1) if trivalent else deg.all(axis=1)]


def _sweep(live: np.ndarray, mode: SymmetryMode, tables, perms: np.ndarray) -> np.ndarray:
    """The rows of live, in order, that no permutation of perms moves to a
    more canonical row (see canonical.canonical_rows: lexicographically least
    in LITERAL mode, greatest otherwise) or fixes with sign -1.

    A row is dropped at the first block of perms, in order, about
    _BLOCK_BYTES of moved rows a block, holding one that does.
    """
    literal, at = mode is SymmetryMode.LITERAL, 0
    while len(live) and at < len(perms):
        block = perms[at : at + max(1, _BLOCK_BYTES // (len(live) * (live.shape[1] + 1)))]
        at += len(block)
        row, image = _keys(live)[:, None], _keys(_act(tables, mode, live, block))
        drop = (image < row if literal else image > row).any(axis=1)
        fixed = image == row
        held = fixed.any(axis=1) & ~drop  # only these need signs
        if held.any():
            drop[held] = (fixed[held] & (_signs(tables, mode, live[held], block) == -1)).any(axis=1)
        live = live[~drop]
    return live


def _bulk_survivors(arr: np.ndarray, mode: SymmetryMode, tables) -> np.ndarray:
    """The canonical nonzero rows among rows of the slice (_labeled_universe),
    in arr's order: each meets the permutations that can beat or fix it
    (module docstring), which only holds for rows of the slice."""
    live = _sweep(arr, mode, tables, tables.sweep_keep)
    if mode is SymmetryMode.LITERAL:
        return live
    puts_first = tables.pair_map_inv[tables.sweep_move, 0]  # the pair each permutation moves onto pair 0
    beaten = np.zeros(len(live), dtype=bool)
    for j in range(1, live.shape[1]):
        tied = np.flatnonzero((live[:, j] == live[:, 0]) & ~beaten)
        kept = set(_keys(_sweep(live[tied], mode, tables, tables.sweep_move[puts_first == j])).tolist())
        beaten[tied] = [key not in kept for key in _keys(live[tied]).tolist()]
    return live[~beaten]


@functools.lru_cache(maxsize=4)
def _cell(v: int, e: int, connected: bool, trivalent: bool, mode: SymmetryMode, cap: int) -> tuple[GraphClass, ...]:
    """The classes of a non-degenerate cell with V <= 8, sorted, or its
    refusal; the four most recently used argument tuples keep their classes."""
    tables = _perm_tables(v)
    rows = _bulk_survivors(
        _valence_filter(_labeled_universe(v, e, mode, tables, cap=cap), mode, tables, trivalent), mode, tables)
    if not connected:  # each row is one class: refuse before decoding them
        _refuse_classes(v, e, len(rows), cap)
    skeletons = _skeletons(v, rows if mode is SymmetryMode.LITERAL else rows[::-1], mode, tables.pairs)
    classes = tuple(GraphClass(g, 1, mode) for g in skeletons if not connected or is_connected(g))
    _refuse_classes(v, e, len(classes), cap)
    return classes


def enumerate_by_counts(
    vertex_count: int,
    edge_count: int,
    *,
    connected: bool = False,
    trivalent: bool = False,
    mode: SymmetryMode = SymmetryMode.LITERAL,
    cap: int | None = None,
) -> list[GraphClass]:
    """All nonzero classes with the given vertex and edge counts, sorted.

    Refused (BasisTooLarge) past V = 8, when the slice built would hold more
    than _ROWS_FACTOR * cap rows, or when more than cap classes remain.  The
    classes come from _cell, whose cache keys them by every argument, the
    resolved cap included, so the answer depends on the arguments alone.
    """
    cap = resolve_cap(cap)
    v, e = vertex_count, edge_count
    if v < 2 or e < 1 or 2 * e < v:
        return []
    if trivalent and 2 * e != 3 * v:
        return []
    if v > _LARGE_FACTORIAL_GUARD:
        raise BasisTooLarge(
            f"V={v} needs a {math.factorial(v)}-permutation sweep per candidate, "
            f"past the exhaustive-search bound (V <= {_LARGE_FACTORIAL_GUARD})"
        )

    return list(_cell(v, e, connected, trivalent, mode, cap))


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
