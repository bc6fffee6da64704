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
are forced once the vertex permutation is fixed, so a vectorized sweep over
the permutation table settles minimum, sign and zero detection at once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .graphs import EMPTY_GRAPH, GraphSkeleton, SymmetryMode, grading, permutation_parity

_LARGE_FACTORIAL_GUARD = 8  # exhaustive search is meant for V <= 8


@dataclass(frozen=True)
class GraphClass:
    """A skeleton in canonical position together with its sign data.

    sign_state is +1 or -1 and relates the *input* of canonicalize to the
    canonical skeleton (input = sign_state * canonical), or 0 when the
    class is zero because some self-symmetry carries net sign -1.
    """

    skeleton: GraphSkeleton
    sign_state: int
    mode: SymmetryMode

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
    """Per-V tables describing how vertex permutations act on vertex pairs."""

    __slots__ = ("perms", "parity", "pairs", "pair_id", "pair_map", "pair_flip", "pair_map_inv")

    def __init__(self, v: int):
        perm_list = list(itertools.permutations(range(1, v + 1)))
        g = len(perm_list)
        self.perms = perm_list  # lex order, identity first
        self.parity = np.array([permutation_parity(perm) for perm in perm_list], dtype=np.int8)
        pairs = [(u, w) for u in range(1, v + 1) for w in range(u + 1, v + 1)]
        self.pairs = pairs
        self.pair_id = {p: i for i, p in enumerate(pairs)}
        p = len(pairs)
        pair_map = np.empty((g, p), dtype=np.uint8)  # p <= 28 pairs for V <= 8
        pair_flip = np.empty((g, p), dtype=bool)
        for i, perm in enumerate(perm_list):
            for pid, (u, w) in enumerate(pairs):
                a, b = perm[u - 1], perm[w - 1]
                pair_flip[i, pid] = a > b
                if a > b:
                    a, b = b, a
                pair_map[i, pid] = self.pair_id[(a, b)]
        self.pair_map = pair_map
        self.pair_flip = pair_flip
        pair_map_inv = np.empty_like(pair_map)
        rows = np.arange(g)[:, None]
        pair_map_inv[rows, pair_map] = np.arange(p, dtype=np.uint8)[None, :]
        self.pair_map_inv = pair_map_inv


@functools.lru_cache(maxsize=None)
def _perm_tables(v: int) -> _PermTables:
    if v > _LARGE_FACTORIAL_GUARD:
        raise ValueError(
            f"canonicalization searches all vertex permutations; V={v} is past "
            f"the supported bound of {_LARGE_FACTORIAL_GUARD}"
        )
    return _PermTables(v)


def _candidates(g: GraphSkeleton, mode: SymmetryMode):
    """Key matrix (one row per vertex permutation), stored reversal count, tables.

    Rows are comparable with numpy lexicographic order so that the minimal
    row is the canonical form.  In EDGE_RENUMBERING mode the flattened edge
    list is minimal when the pair multiplicity vector is lexicographically
    maximal (small pairs soak up multiplicity first), so the multiplicity
    rows are negated to reuse the minimum search.
    """
    tables = _perm_tables(g.vertex_count)
    pid = np.array(
        [tables.pair_id[(t, h) if t < h else (h, t)] for t, h in g.edges],
        dtype=np.int16,
    )
    stored_reversals = sum(1 for t, h in g.edges if t > h)
    if mode is SymmetryMode.LITERAL:
        cand = tables.pair_map[:, pid]
        flips = tables.pair_flip[:, pid].sum(axis=1)
    else:
        mvec = np.bincount(pid, minlength=len(tables.pairs)).astype(np.int16)
        cand = -mvec[tables.pair_map_inv]
        flips = tables.pair_flip.astype(np.int16) @ mvec
    return cand, flips, stored_reversals, tables


def _row_lex_min(cand: np.ndarray) -> tuple[int, np.ndarray]:
    """Index of the lexicographically least row (stable) and the tie mask."""
    if cand.shape[1] == 0:
        return 0, np.ones(cand.shape[0], dtype=bool)
    order = np.lexsort(cand.T[::-1])
    best = int(order[0])
    ties = (cand == cand[best]).all(axis=1)
    # lexsort is stable, but make the witness the smallest index explicitly
    best = int(np.nonzero(ties)[0][0])
    return best, ties


def _skeleton_from_row(v: int, row, mode: SymmetryMode, pairs) -> GraphSkeleton:
    """Decode a row of pair ids (LITERAL) or pair multiplicities (otherwise)."""
    if mode is SymmetryMode.LITERAL:
        edges = tuple(pairs[int(p)] for p in row)
    else:
        edges = tuple(pairs[pid] for pid, m in enumerate(row) for _ in range(int(m)))
    return GraphSkeleton(v, edges)


@functools.lru_cache(maxsize=1 << 18)
def _canonicalize_cached(g: GraphSkeleton, mode: SymmetryMode):
    cand, flips, stored_reversals, tables = _candidates(g, mode)
    best, ties = _row_lex_min(cand)
    reversal_parity = (flips + stored_reversals) & 1
    signs = tables.parity * (1 - 2 * reversal_parity).astype(np.int8)
    tie_signs = set(int(s) for s in signs[ties])
    row = cand[best] if mode is SymmetryMode.LITERAL else -cand[best]
    skeleton = _skeleton_from_row(g.vertex_count, row, mode, tables.pairs)
    sign_state = 0 if tie_signs == {1, -1} else tie_signs.pop()
    return GraphClass(skeleton, sign_state, mode), tables.perms[best], int(signs[best])


def canonicalize(g: GraphSkeleton, mode: SymmetryMode = SymmetryMode.LITERAL) -> GraphClass:
    """Canonical class of a skeleton, with the sign relating g to it.

    The returned sign_state satisfies  g = sign_state * canonical  in the
    graph algebra, or is 0 when the class is zero.
    """
    if g.vertex_count == 0:
        return GraphClass(EMPTY_GRAPH, 1, mode)
    cls, _, _ = _canonicalize_cached(g, mode)
    return cls


def canonicalize_with_witness(
    g: GraphSkeleton, mode: SymmetryMode = SymmetryMode.LITERAL
) -> tuple[GraphClass, tuple[int, ...]]:
    """Like canonicalize, also returning the lexicographically first vertex
    permutation that carries g onto the canonical skeleton."""
    if g.vertex_count == 0:
        return GraphClass(EMPTY_GRAPH, 1, mode), ()
    cls, perm, _ = _canonicalize_cached(g, mode)
    return cls, perm


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
    if g.vertex_count == 0:
        return GraphClass(EMPTY_GRAPH, 1, mode), (), 1
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
    if g.vertex_count == 0:
        return [((), 1)]
    cand, flips, stored_reversals, tables = _candidates(g, mode)
    own = cand[0]  # identity is the first permutation
    fixing = (cand == own).all(axis=1)
    reversal_parity = (flips + stored_reversals) & 1
    signs = tables.parity * (1 - 2 * reversal_parity).astype(np.int8)
    return [
        (tables.perms[i], int(signs[i]))
        for i in np.nonzero(fixing)[0]
    ]


def clear_canonical_cache() -> None:
    _canonicalize_cached.cache_clear()
