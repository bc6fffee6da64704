"""Signed canonical forms of skeletons under the relabeling group.

The group acting on a skeleton consists of vertex renumberings (signed by
permutation parity) and edge reversals (signed -1 each); in
EDGE_RENUMBERING mode it also contains permutations of the edge numbering
(signed +1).  The canonical form is the lexicographically least flattened
edge list reachable under the group, with every edge oriented tail < head
since reversal is always free.

A skeleton whose stabilizer contains a group element of sign -1 represents
the zero class: it equals minus itself.  canonicalize detects this by
collecting the signs of all group elements that reach the canonical form.

The search is exhaustive over vertex permutations (intended for V <= 8).
The orientation of each edge and, in EDGE_RENUMBERING mode, the edge order
are forced once the vertex permutation is fixed, so the group acts on rows:
pair ids in edge order (LITERAL), or pair multiplicity vectors, where the
greatest vector gives the least flattened edge list.  _act and _signs are
that action and its sign, in three patterns: self_symmetries moves one row
by every permutation, enumeration the live rows of a cell by a block of
permutations at a time, in sweep order (those that keep the pair (1, 2)
first, _PermTables.sweep_keep, then the others, sweep_move), and
canonical_rows many rows by every permutation, in blocks; both move about
_BLOCK_BYTES of rows at a time.  Rows compare as big-endian byte keys
exactly as wide as their entries (_keys), so one argmin (argmax) picks
each canonical row; canonicalize is canonical_rows on one row.
_skeletons decodes a stack of rows of either format back into skeletons.
_PermTables.ends, which pairs meet which vertices, is the one table from
which enumeration's valence filter and δ read a row's vertex degrees.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .graphs import GraphSkeleton, SymmetryMode, grading

_LARGE_FACTORIAL_GUARD = 8  # exhaustive search is meant for V <= 8
_BLOCK_BYTES = 1 << 16  # canonical_rows and enumeration's sweep move about this many bytes of rows at a time
_MODES = tuple(SymmetryMode)


@dataclass(frozen=True)
class GraphClass:
    """A skeleton in canonical position together with its sign data.

    sign_state is +1 or -1 and relates the *input* of canonicalize to the
    canonical skeleton (input = sign_state * canonical), or 0 when the
    class is zero because some self-symmetry carries net sign -1.  The
    hash is computed once, from ints only (the mode by its position, since
    an enum hashes its name, a str), like the skeleton's.
    """

    skeleton: GraphSkeleton
    sign_state: int
    mode: SymmetryMode

    def __post_init__(self):
        mode = _MODES.index(self.mode)
        object.__setattr__(self, "_hash", hash((self.skeleton, self.sign_state, mode)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_zero(self) -> bool:
        return self.sign_state == 0

    @property
    def grading(self) -> tuple[int, int]:
        return grading(self.skeleton)

    def basis_class(self) -> "GraphClass":
        """The same class with the identity relation sign, usable as a basis key."""
        if self.sign_state == 0:
            raise ValueError("a zero class cannot serve as a basis element")
        return replace(self, sign_state=1)

    def sort_key(self) -> tuple:
        return self.skeleton.sort_key()


class _PermTables:
    """Per-V tables describing how vertex permutations act on vertex pairs,
    and which vertices each pair meets."""

    __slots__ = ("perms", "parity", "pairs", "pair_index", "pair_map", "pair_flip", "pair_map_inv",
                 "sweep_keep", "sweep_move", "ends")

    def __init__(self, v: int):
        perm_list = list(itertools.permutations(range(1, v + 1)))
        self.perms = perm_list  # lex order, identity first
        pairs = [(u, w) for u in range(1, v + 1) for w in range(u + 1, v + 1)]
        self.pairs = pairs
        p = len(pairs)
        ids = np.zeros((v + 1, v + 1), dtype=np.uint8)  # p <= 28 pairs for V <= 8
        for i, (u, w) in enumerate(pairs):
            ids[u, w] = ids[w, u] = i
        self.pair_index = ids
        # ends[i, u - 1] is 1 when vertex u is an end of pair i: a row's vertex degrees are sums of these rows
        self.ends = (np.array(pairs, np.intp).reshape(p, 2, 1) == np.arange(1, v + 1)).any(axis=1).astype(np.uint8)
        # images of each pair's ends under each permutation, shape (V!, p)
        images = np.array(perm_list, dtype=np.intp)
        a = images[:, [u - 1 for u, _ in pairs]]
        b = images[:, [w - 1 for _, w in pairs]]
        self.pair_map = ids[a, b]
        self.pair_flip = a > b
        # the pairs a permutation flips are its inversions
        self.parity = (1 - 2 * (self.pair_flip.sum(axis=1) & 1)).astype(np.int8)
        pair_map_inv = np.empty_like(self.pair_map)
        rows = np.arange(len(perm_list))[:, None]
        pair_map_inv[rows, self.pair_map] = np.arange(p, dtype=np.uint8)[None, :]
        self.pair_map_inv = pair_map_inv
        # enumeration's order: the non-identity permutations that keep pair 0, (1, 2), then
        # those that move it, each by how many points they move, stably
        moved_points = (images != np.arange(1, v + 1)).sum(axis=1)
        moves_pair0 = (images[:, :2] > 2).any(axis=1)
        moved_points[moves_pair0] += v + 1  # sorts them after every permutation keeping it
        order = np.argsort(moved_points, kind="stable")[1:]
        split = len(order) - int(moves_pair0.sum())
        self.sweep_keep, self.sweep_move = order[:split], order[split:]


@functools.lru_cache(maxsize=None)
def _perm_tables(v: int) -> _PermTables:
    if v > _LARGE_FACTORIAL_GUARD:
        raise ValueError(
            f"canonicalization searches all vertex permutations; V={v} is past "
            f"the supported bound of {_LARGE_FACTORIAL_GUARD}"
        )
    return _PermTables(v)


def _rows_of(gs, mode: SymmetryMode, tables: _PermTables) -> tuple[np.ndarray, np.ndarray]:
    """Pair-id rows (LITERAL) or pair multiplicity vectors (otherwise) of skeletons
    with one vertex and edge count, and each one's count of edges oriented tail > head."""
    ends = np.array([x for g in gs for e in g.edges for x in e], np.intp).reshape(len(gs), -1 if gs else 0, 2)
    pid = tables.pair_index[ends[..., 0], ends[..., 1]]
    reversals = (ends[..., 0] > ends[..., 1]).sum(axis=1)
    if mode is SymmetryMode.LITERAL:
        return pid, reversals
    return (pid[..., None] == np.arange(len(tables.pairs))).sum(axis=1, dtype=np.int16), reversals


def _skeletons(v: int, rows: np.ndarray, mode: SymmetryMode, pairs) -> list[GraphSkeleton]:
    """Skeletons of a stack of rows of pair ids (LITERAL) or pair multiplicities
    (otherwise), which are first spelled out as their pair ids in ascending order."""
    if mode is not SymmetryMode.LITERAL and len(rows):
        pair_ids = np.tile(np.arange(rows.shape[1], dtype=np.uint8), len(rows))  # p <= 28 pairs
        rows = np.repeat(pair_ids, rows.ravel()).reshape(len(rows), -1)
    return [GraphSkeleton(v, tuple(map(pairs.__getitem__, row))) for row in rows.tolist()]


def _act(tables: _PermTables, mode: SymmetryMode, rows: np.ndarray, g) -> np.ndarray:
    """Rows moved by the vertex permutations g: an index array, or
    slice(None) for all.

    One row meets every permutation, or a stack of rows meets a block of
    permutations or every one; the result has one moved row per (row,
    permutation), rows first.
    """
    if mode is SymmetryMode.LITERAL:
        moved = tables.pair_map[g][..., rows]
        return moved.swapaxes(0, 1) if moved.ndim == 3 else moved
    return rows[..., tables.pair_map_inv[g]]


def _signs(tables: _PermTables, mode: SymmetryMode, rows: np.ndarray, g, reversals=0):
    """Signs of the moves made by _act: the parity of g times -1 for every
    edge reversal it forces, plus `reversals` already stored in the rows."""
    flip = tables.pair_flip[g]
    if mode is SymmetryMode.LITERAL:
        flips = flip[..., rows].sum(axis=-1).T
    else:
        flips = rows.astype(np.int16) @ flip.T
    return tables.parity[g] * (1 - 2 * ((flips + reversals) & 1))


def _keys(rows: np.ndarray) -> np.ndarray:
    """One byte key per row of nonnegative entries, ordered as the rows are:
    big-endian and exactly as wide as the entries, or the order is wrong."""
    width = rows.shape[-1] * rows.dtype.itemsize
    if width == 0:  # the empty graph; S0 is no dtype
        return np.zeros(rows.shape[:-1], dtype="S1")
    return np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">")).view(f"S{width}")[..., 0]


def canonical_rows(tables: _PermTables, mode: SymmetryMode, rows: np.ndarray, reversals: np.ndarray):
    """Canonical row (least in LITERAL mode, else greatest), the first
    permutation reaching it, that witness's sign and whether another one
    has the other sign (a zero class), for each row of a stack holding
    `reversals` stored edge reversals each."""
    step = max(1, _BLOCK_BYTES // (len(tables.perms) * (rows.shape[1] + 1)))
    parts = []
    for lo in range(0, len(rows) or 1, step):  # an empty stack still gives empty results
        chunk = rows[lo : lo + step]
        cand = _act(tables, mode, chunk, slice(None))
        signs = _signs(tables, mode, chunk, slice(None), reversals[lo : lo + step, None])
        keys = _keys(cand)
        pick = keys.argmin(axis=1) if mode is SymmetryMode.LITERAL else keys.argmax(axis=1)
        at = np.arange(len(chunk))
        zero = ((keys == keys[at, pick, None]) & (signs != signs[at, pick, None])).any(axis=1)
        parts.append((cand[at, pick], pick, signs[at, pick], zero))
    return tuple(np.concatenate(part) for part in zip(*parts))


@functools.lru_cache(maxsize=1 << 18)
def _canonicalize_cached(g: GraphSkeleton, mode: SymmetryMode):
    tables = _perm_tables(g.vertex_count)
    best, (witness,), (sign,), (zero,) = canonical_rows(tables, mode, *_rows_of([g], mode, tables))
    (skeleton,) = _skeletons(g.vertex_count, best, mode, tables.pairs)
    return GraphClass(skeleton, 0 if zero else int(sign), mode), tables.perms[witness], int(sign)


def canonicalize(g: GraphSkeleton, mode: SymmetryMode = SymmetryMode.LITERAL) -> GraphClass:
    """Canonical class of a skeleton, with the sign relating g to it.

    The returned sign_state satisfies  g = sign_state * canonical  in the
    graph algebra, or is 0 when the class is zero.
    """
    cls, _, _ = _canonicalize_cached(g, mode)
    return cls


def transport_to_canonical(
    g: GraphSkeleton, mode: SymmetryMode = SymmetryMode.LITERAL
) -> tuple[GraphClass, tuple[int, ...], int]:
    """Canonical class, witness permutation, and the witness's own sign.

    The witness sign is the sign of the specific relation realized by the
    returned permutation (and its forced edge reversals).  Unlike
    GraphClass.sign_state it is well defined (+1 or -1) even for zero
    classes, which makes it usable for transporting decorated terms onto a
    shared representative deterministically.
    """
    return _canonicalize_cached(g, mode)


def self_symmetries(g: GraphSkeleton, mode: SymmetryMode = SymmetryMode.LITERAL):
    """All (vertex permutation, sign) pairs fixing a tail<head oriented skeleton.

    The reversal pattern of a fixing element is forced by the permutation,
    so each fixing vertex permutation appears exactly once.  Edge
    renumberings (mode EDGE_RENUMBERING) extend the stabilizer without
    changing signs and are not listed.
    """
    if any(t > h for t, h in g.edges):
        raise ValueError("self_symmetries expects every edge oriented tail < head")
    tables = _perm_tables(g.vertex_count)
    row = _rows_of([g], mode, tables)[0][0]
    fixing = (_act(tables, mode, row, slice(None)) == row).all(axis=1)
    signs = _signs(tables, mode, row, slice(None))
    return [(tables.perms[i], int(signs[i])) for i in np.nonzero(fixing)[0]]
