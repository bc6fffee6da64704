"""Basis enumeration: oracle agreement, frozen counts, caps, determinism."""

import hashlib
import itertools
import math

import numpy as np
import pytest

import oracles
from graphcoh import enumeration
from graphcoh.canonical import _act, _perm_tables, _skeleton_from_row, canonicalize
from graphcoh.enumeration import (
    DEFAULT_CAP,
    _bulk_survivors,
    _compositions,
    _labeled_universe,
    _universe_size,
    _valence_filter,
    enumerate_by_counts,
    enumerate_grading,
    enumerate_trivalent,
    resolve_cap,
)
from graphcoh.errors import BasisTooLarge
from graphcoh.graphs import GraphSkeleton, SymmetryMode, grading, k4_graph, theta_graph

MODES = (SymmetryMode.LITERAL, SymmetryMode.EDGE_RENUMBERING)

# Small enough for the exhaustive oracle, large enough to be interesting.
ORACLE_CELLS = [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (4, 5)]


# ---------------------------------------------------------------------------
# Worked examples and frozen counts.
# ---------------------------------------------------------------------------


def test_order_one_is_exactly_the_theta_class():
    for mode in MODES:
        classes = enumerate_trivalent(1, connected=True, mode=mode)
        assert [cls.skeleton for cls in classes] == [theta_graph()]


def test_order_two_connected_counts():
    assert len(enumerate_trivalent(2, connected=True, mode=SymmetryMode.LITERAL)) == 75
    assert (
        len(enumerate_trivalent(2, connected=True, mode=SymmetryMode.EDGE_RENUMBERING))
        == 2
    )


def test_order_two_full_counts():
    assert len(enumerate_trivalent(2, connected=False, mode=SymmetryMode.LITERAL)) == 85
    assert (
        len(enumerate_trivalent(2, connected=False, mode=SymmetryMode.EDGE_RENUMBERING))
        == 3
    )


def test_order_two_edge_renumbering_classes_are_k4_and_the_ladder():
    classes = enumerate_trivalent(2, connected=True, mode=SymmetryMode.EDGE_RENUMBERING)
    skeletons = {cls.skeleton.edges for cls in classes}
    ladder = ((1, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 4))
    assert skeletons == {k4_graph().edges, ladder}


def test_trivalent_subset_of_the_full_cell():
    full = {cls.skeleton for cls in enumerate_by_counts(4, 6, mode=SymmetryMode.LITERAL)}
    tri = {cls.skeleton for cls in enumerate_trivalent(2, connected=False)}
    assert tri <= full
    assert len(full) == 1831


@pytest.mark.parametrize("order", [2, 3])
def test_edge_renumbering_trivalent_is_the_valence_three_subset(order):
    mode = SymmetryMode.EDGE_RENUMBERING
    full = enumerate_by_counts(2 * order, 3 * order, mode=mode)
    expected = [c for c in full if set(c.skeleton.valences()) == {3}]
    assert enumerate_trivalent(order, connected=False, mode=mode) == expected


@pytest.mark.parametrize(
    "mode, vertices, edges, count",
    [
        (SymmetryMode.EDGE_RENUMBERING, 6, 8, 228),
        (SymmetryMode.EDGE_RENUMBERING, 6, 9, 752),
        (SymmetryMode.LITERAL, 5, 6, 6505),
    ],
)
def test_benchmark_cell_counts(mode, vertices, edges, count):
    assert len(enumerate_by_counts(vertices, edges, mode=mode)) == count


# ---------------------------------------------------------------------------
# Exhaustive oracle agreement.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("cell", ORACLE_CELLS)
def test_cells_match_oracle(mode, cell):
    v, e = cell
    # The package's connected=False means "no restriction".
    all_expected = oracles.enumerate_classes(v, e, mode.value, connected=None)
    all_got = [cls.skeleton.edges for cls in enumerate_by_counts(v, e, mode=mode)]
    assert all_got == all_expected
    conn_expected = oracles.enumerate_classes(v, e, mode.value, connected=True)
    conn_got = [
        cls.skeleton.edges
        for cls in enumerate_by_counts(v, e, mode=mode, connected=True)
    ]
    assert conn_got == conn_expected


def test_trivalent_cell_matches_oracle_in_edge_renumbering_mode():
    expected = oracles.enumerate_classes(4, 6, "edge-renumbering", connected=None)
    got = [
        cls.skeleton.edges
        for cls in enumerate_by_counts(4, 6, mode=SymmetryMode.EDGE_RENUMBERING)
    ]
    assert got == expected


# sha256 of the repr of test_class_lists_are_frozen's call list, recorded
# while zero classes were still flagged by a second permutation loop.
FROZEN_CLASS_LISTS = "a49967ea8ebe96347aa982994d9e9426002b995e8998a33a8ea03ee29196b1dd"


def test_class_lists_are_frozen():
    """The class lists of every call with V <= 8, ceil(V/2) <= E <= 3V/2 + 1
    and a labeled universe of at most 20,000 rows: both modes, connected
    and not, and trivalent where 2E = 3V."""
    calls = []
    for mode in MODES:
        for v in range(2, 9):
            for e in range((v + 1) // 2, 3 * v // 2 + 2):
                if _universe_size(v, e, mode) > 20_000:
                    continue
                for trivalent in (False, True) if 2 * e == 3 * v else (False,):
                    for connected in (False, True):
                        classes = enumerate_by_counts(
                            v, e, connected=connected, trivalent=trivalent, mode=mode
                        )
                        edges = [cls.skeleton.edges for cls in classes]
                        calls.append((mode.value, v, e, connected, trivalent, edges))
    assert len(calls) == 82
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == FROZEN_CLASS_LISTS


@pytest.mark.parametrize(
    "total, parts, dtype",
    [(0, 1, np.uint8), (0, 4, np.uint8), (3, 1, np.uint8), (4, 3, np.uint8), (5, 6, np.uint8),
     (255, 2, np.uint8), (256, 2, np.uint16), (300, 3, np.uint16)],
)
def test_compositions_match_stars_and_bars(total, parts, dtype):
    """Every composition in the order of its bar positions, in the least
    unsigned dtype holding the total; blocks of smaller totals, held in a
    narrower dtype, land in the wide one unchanged."""
    slots = total + parts - 1
    expected = [
        [b - a - 1 for a, b in zip((-1, *bars), (*bars, slots))]
        for bars in itertools.combinations(range(slots), parts - 1)
    ]
    got = _compositions(total, parts)
    assert got.dtype == dtype
    assert got.tolist() == expected


@pytest.mark.parametrize(
    "mode, vertices, edges",
    [
        (SymmetryMode.LITERAL, 4, 5),
        (SymmetryMode.EDGE_RENUMBERING, 5, 6),
        (SymmetryMode.EDGE_RENUMBERING, 6, 5),  # 11 of its 17 canonical rows are zero
    ],
)
def test_sweep_keeps_exactly_the_canonical_rows(monkeypatch, mode, vertices, edges):
    """A filtered row survives the sweep iff it decodes to the canonical
    skeleton of a nonzero class, and the sweep moves the rows by each
    permutation but the identity once."""
    tables = _perm_tables(vertices)
    rows = _valence_filter(
        _labeled_universe(vertices, edges, mode, tables), vertices, mode, tables, False
    )
    acts = []

    def counting_act(*args):
        acts.append(args)
        return _act(*args)

    monkeypatch.setattr(enumeration, "_act", counting_act)
    survivors = _bulk_survivors(rows, mode, tables)
    assert len(acts) == math.factorial(vertices) - 1
    expected = set()
    for row in rows:
        skeleton = _skeleton_from_row(vertices, row, mode, tables.pairs)
        cls = canonicalize(skeleton, mode)
        if cls.skeleton == skeleton and not cls.is_zero:
            expected.add(skeleton)
    got = {_skeleton_from_row(vertices, row, mode, tables.pairs) for row in survivors}
    assert len(got) == len(survivors)
    assert got == expected


# ---------------------------------------------------------------------------
# Structural guarantees.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_results_are_sorted_canonical_nonvanishing(mode):
    classes = enumerate_by_counts(4, 5, mode=mode)
    assert classes == sorted(classes, key=lambda c: c.sort_key())
    for cls in classes:
        assert cls.sign_state == 1
        assert not cls.is_zero
        assert grading(cls.skeleton) == (1, -2)


def test_enumerate_grading_translates_the_cell():
    for mode in MODES:
        by_grading = enumerate_grading(2, 0, mode=mode)
        by_counts = enumerate_by_counts(4, 6, mode=mode)
        assert by_grading == by_counts


def test_degenerate_cells_are_empty():
    assert enumerate_by_counts(4, 1) == []
    assert enumerate_grading(1, 1) == []  # forces one vertex, two edges: loops
    assert enumerate_trivalent(0) == []
    assert enumerate_by_counts(4, 6, trivalent=True, mode=SymmetryMode.LITERAL) != []
    assert enumerate_by_counts(4, 5, trivalent=True) == []


def test_determinism():
    a = enumerate_trivalent(2, connected=True)
    b = enumerate_trivalent(2, connected=True)
    assert a == b


# ---------------------------------------------------------------------------
# Caps.
# ---------------------------------------------------------------------------


def test_huge_universe_is_rejected_up_front():
    with pytest.raises(BasisTooLarge):
        enumerate_by_counts(4, 6, mode=SymmetryMode.LITERAL, cap=1)


def test_class_count_above_cap_is_rejected():
    with pytest.raises(BasisTooLarge):
        enumerate_trivalent(2, connected=True, mode=SymmetryMode.LITERAL, cap=50)


@pytest.mark.parametrize(
    "vertices, bound",
    [(9, "V <= 8")],
    ids=["permutation-sweep"],
)
def test_refusal_names_the_bound_it_hit(vertices, bound):
    with pytest.raises(BasisTooLarge) as info:
        enumerate_by_counts(vertices, 5, mode=SymmetryMode.EDGE_RENUMBERING)
    assert info.value.cap is None
    assert bound in str(info.value)
    assert "cap" not in str(info.value)


@pytest.mark.parametrize("edges, count", [(4, 0), (5, 3)])
def test_edge_renumbering_seven_vertex_cells_match_canonicalize(edges, count):
    """Every nonzero class of a pair multiset touching all seven vertices."""
    mode = SymmetryMode.EDGE_RENUMBERING
    pairs = list(itertools.combinations(range(1, 8), 2))
    expected = set()
    for combo in itertools.combinations_with_replacement(pairs, edges):
        if len({u for pair in combo for u in pair}) < 7:
            continue
        cls = canonicalize(GraphSkeleton(7, combo), mode)
        if not cls.is_zero:
            expected.add(cls.skeleton)
    got = [cls.skeleton for cls in enumerate_by_counts(7, edges, mode=mode)]
    assert len(got) == count
    assert set(got) == expected


@pytest.mark.parametrize("edges, count", [(255, 1), (256, 0), (257, 1)])
def test_edge_multiplicities_past_255_enumerate(edges, count):
    """E parallel edges on two vertices: the vertex swap reverses every edge,
    with sign -(-1)^E, so the class is zero exactly when E is even."""
    classes = enumerate_by_counts(2, edges, mode=SymmetryMode.EDGE_RENUMBERING)
    assert [c.skeleton for c in classes] == [GraphSkeleton(2, ((1, 2),) * edges)] * count


def test_resolve_cap_precedence():
    assert resolve_cap() == DEFAULT_CAP
    assert resolve_cap(77) == 77
    with pytest.raises(ValueError):
        resolve_cap(0)
    with pytest.raises(ValueError):
        enumerate_grading(0, 5, cap=0)  # no class at this grading, but the cap is still checked
