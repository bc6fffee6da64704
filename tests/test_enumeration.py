"""Basis enumeration: oracle agreement, frozen counts, caps, determinism."""

import hashlib
import itertools
import math
import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from graphcoh import enumeration
from graphcoh.canonical import (
    GraphClass,
    _act,
    _keys,
    _perm_tables,
    _rows_of,
    _skeletons,
    canonical_rows,
    canonicalize,
)
from graphcoh.coboundary import delta_matrix
from graphcoh.enumeration import (
    DEFAULT_CAP,
    _bulk_survivors,
    _completions,
    _labeled_universe,
    _valence_filter,
    enumerate_by_counts,
    enumerate_grading,
    enumerate_trivalent,
    resolve_cap,
)
from graphcoh.errors import BasisTooLarge, IsolatedVertex
from graphcoh.graphs import EMPTY_GRAPH, GraphSkeleton, SymmetryMode, counts_for_grading, grading, k4_graph, theta_graph

MODES = (SymmetryMode.LITERAL, SymmetryMode.EDGE_RENUMBERING)

# Small enough for the exhaustive oracle, large enough to be interesting.
ORACLE_CELLS = [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (4, 5)]


def stars_and_bars(total, parts):
    """Every composition of total into parts naturals, in the order of its bar positions."""
    slots = total + parts - 1
    return [
        [b - a - 1 for a, b in zip((-1, *bars), (*bars, slots))]
        for bars in itertools.combinations(range(slots), parts - 1)
    ]


def full_universe(v, e, mode):
    """The whole labeled universe in ascending row order, built with itertools
    alone: every pair-id sequence, or every multiplicity vector."""
    p = v * (v - 1) // 2
    if mode is SymmetryMode.LITERAL:
        rows, dtype = list(itertools.product(range(p), repeat=e)), np.uint8
    else:
        rows, dtype = stars_and_bars(e, p), np.min_scalar_type(e)
    return np.array(rows, dtype=dtype)


def full_universe_size(v, e, mode):
    """The number of rows of full_universe: p^E sequences, or C(E + p - 1, p - 1) vectors."""
    p = v * (v - 1) // 2
    return p**e if mode is SymmetryMode.LITERAL else math.comb(e + p - 1, p - 1)


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
                if full_universe_size(v, e, mode) > 20_000:
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


# sha256 of the repr of each cell's class-list edges, recorded before the
# sweep was split at pair 0: cells past test_class_lists_are_frozen's bound.
FROZEN_FRONTIER = [
    (SymmetryMode.LITERAL, 5, 7, 72023, "dd9bfd910c67b7743eef31aa8cd600a3dc6036bb85b77953048118b7d76686ec"),
    (SymmetryMode.LITERAL, 6, 6, 9015, "6dcd396009a331b9e7aa26fd24bbd1e693bc1d55533cbc18475b2255d8fee719"),
    (SymmetryMode.EDGE_RENUMBERING, 7, 9, 995,
     "b8d674cc95dcdb67fccd3865b062d8afe78e390e5e5a06ab6b9344d96a00fff2"),
    (SymmetryMode.EDGE_RENUMBERING, 8, 8, 162,
     "ea6ae2f2e54a35e06c5a9647e14dc15ca51933f25418c56e9f3251da4ca3e69b"),
]


@pytest.mark.parametrize(
    "mode, vertices, edges, count, digest", FROZEN_FRONTIER,
    ids=[f"{m.value}-{v}-{e}" for m, v, e, _, _ in FROZEN_FRONTIER],
)
def test_frontier_class_lists_are_frozen(mode, vertices, edges, count, digest):
    """Frontier cells, each with a labeled universe of millions of rows."""
    classes = enumerate_by_counts(vertices, edges, mode=mode, cap=10**6)
    edge_lists = [cls.skeleton.edges for cls in classes]
    assert len(edge_lists) == count
    assert hashlib.sha256(repr(edge_lists).encode()).hexdigest() == digest


# Cells whose full universe holds more than 50 * DEFAULT_CAP rows, and whose slice fewer.
DEFAULT_CAP_FRONTIER = [
    cell for cell in FROZEN_FRONTIER
    if cell[:3] in {(SymmetryMode.LITERAL, 6, 6), (SymmetryMode.EDGE_RENUMBERING, 7, 9),
                    (SymmetryMode.EDGE_RENUMBERING, 8, 8)}
]


@pytest.mark.parametrize(
    "mode, vertices, edges, count, digest", DEFAULT_CAP_FRONTIER,
    ids=[f"{m.value}-{v}-{e}" for m, v, e, _, _ in DEFAULT_CAP_FRONTIER],
)
def test_frontier_cells_run_at_the_default_cap(mode, vertices, edges, count, digest):
    classes = enumerate_by_counts(vertices, edges, mode=mode, cap=None)
    edge_lists = [cls.skeleton.edges for cls in classes]
    assert len(edge_lists) == count
    assert hashlib.sha256(repr(edge_lists).encode()).hexdigest() == digest


def counted_sweep(monkeypatch, mode, vertices, edges):
    """The filtered rows of a cell, its sweep's survivors and, for each
    round, the rows moved and the block of permutations handed to _act."""
    tables = _perm_tables(vertices)
    rows = _valence_filter(_labeled_universe(vertices, edges, mode, tables), mode, tables, False)
    rounds = []

    def counting_act(*args):
        rounds.append((args[2].copy(), args[3].tolist()))
        return _act(*args)

    monkeypatch.setattr(enumeration, "_act", counting_act)
    return rows, _bulk_survivors(rows, mode, tables), rounds


def test_the_sweep_order_puts_fewer_moved_points_first():
    """tables.sweep_keep is every permutation but the identity that maps
    {1, 2} onto itself, 2(V - 2)! - 1 of them, and tables.sweep_move every
    other one, each by how many points it moves, ties in lex order."""
    for v in range(1, 7):
        tables = _perm_tables(v)
        moved = [sum(a != b for a, b in zip(g, range(1, v + 1))) for g in tables.perms]
        order = sorted(range(1, len(tables.perms)), key=lambda i: (moved[i], i))
        keeps = [i for i in order if set(tables.perms[i][:2]) <= {1, 2}]
        assert len(keeps) == (2 * math.factorial(v - 2) if v >= 2 else 1) - 1
        assert tables.sweep_keep.tolist() == keeps
        assert tables.sweep_move.tolist() == [i for i in order if i not in keeps]


def permutation_puts_first(tables, g):
    """The pair that the permutation g moves onto pair 0, (1, 2)."""
    ends = sorted(tables.perms[g].index(u) + 1 for u in (1, 2))
    return tables.pairs.index(tuple(ends))


@given(data=st.data())
def test_a_permutation_moving_pair_0_beats_or_fixes_no_untied_first_pair_row(data):
    """A permutation that moves pair 0 puts another pair first (LITERAL), or
    another pair's multiplicity (otherwise).  So it moves a first-pair row
    to a less canonical one, in LITERAL mode always and otherwise unless the
    pair it puts first ties the row's greatest multiplicity."""
    v = data.draw(st.integers(2, 6), label="V")
    mode = data.draw(st.sampled_from(MODES), label="mode")
    tables = _perm_tables(v)
    p = len(tables.pairs)
    moving = [i for i, g in enumerate(tables.perms) if set(g[:2]) != {1, 2}]
    if mode is SymmetryMode.LITERAL:
        rest = data.draw(st.lists(st.integers(0, p - 1), max_size=6), label="rest")
        row = np.array([0, *rest], dtype=np.uint8)
    else:
        rest = data.draw(st.lists(st.integers(0, 4), min_size=p - 1, max_size=p - 1), label="rest")
        row = np.array([max([1, *rest]) + data.draw(st.integers(0, 1), label="lead"), *rest], dtype=np.uint8)
    images = _keys(_act(tables, mode, row, np.array(moving, dtype=np.intp)))
    for g, image in zip(moving, images):
        if mode is SymmetryMode.LITERAL:
            assert image > _keys(row)
        elif row[permutation_puts_first(tables, g)] < row[0]:
            assert image < _keys(row)


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
    skeleton of a nonzero class.  The sweep first moves the rows by each
    permutation that keeps pair 0 once, in sweep order, a block at a time;
    after that a permutation moving pair 0 meets only rows (none in LITERAL
    mode) whose multiplicity on the pair it moves there ties their greatest."""
    rows, survivors, rounds = counted_sweep(monkeypatch, mode, vertices, edges)
    tables = _perm_tables(vertices)
    assert len(survivors)
    keep = tables.sweep_keep.tolist()
    n = next((i for i, (_, block) in enumerate(rounds) if block[0] not in keep), len(rounds))
    assert sum((block for _, block in rounds[:n]), []) == keep
    assert (n == len(rounds)) == (mode is SymmetryMode.LITERAL)
    for moved, block in rounds[n:]:
        assert not set(block) & set(keep)
        for g in block:
            assert (moved[:, permutation_puts_first(tables, g)] == moved.max(axis=1)).all()
    if (mode, vertices) == (SymmetryMode.EDGE_RENUMBERING, 6):
        assert len(rounds) <= 15  # not one round per permutation: 719 of them
    expected = set()
    for skeleton in _skeletons(vertices, rows, mode, tables.pairs):
        cls = canonicalize(skeleton, mode)
        if cls.skeleton == skeleton and not cls.is_zero:
            expected.add(skeleton)
    got = set(_skeletons(vertices, survivors, mode, tables.pairs))
    assert len(got) == len(survivors)
    assert got == expected


@pytest.mark.parametrize(
    "vertices, edges, budget", [(6, 4, 1 << 8), (7, 4, 1 << 10)], ids=["6-4-small-blocks", "7-4"]
)
def test_the_sweep_stops_once_no_row_is_live(monkeypatch, vertices, edges, budget):
    """Two edge-renumbering cells with no nonzero class.  One row of each
    survives every permutation that keeps pair 0, with pairs 0 and 1 tied,
    so it meets the permutations that put pair 1 first, in sweep order, and
    the sweep ends in the round that drops it, short of their end (in
    blocks small enough to show it)."""
    monkeypatch.setattr(enumeration, "_BLOCK_BYTES", budget)
    rows, survivors, rounds = counted_sweep(monkeypatch, SymmetryMode.EDGE_RENUMBERING, vertices, edges)
    tables = _perm_tables(vertices)
    keep = tables.sweep_keep.tolist()
    pair_1_first = [g for g in tables.sweep_move.tolist() if permutation_puts_first(tables, g) == 1]
    assert len(rows) and not len(survivors)
    done = sum((block for _, block in rounds), [])
    rest = done[len(keep):]
    assert done[: len(keep)] == keep
    assert 0 < len(rest) < len(pair_1_first) and rest == pair_1_first[: len(rest)]


# Every call of test_class_lists_are_frozen's range whose full universe has at
# most 20,000 rows, three edge-renumbering cells whose rows need uint16, and a
# literal one whose rows fit uint8 but whose degrees, 256, do not.
SLICE_CELLS = [
    (mode, v, e)
    for mode in MODES
    for v in range(2, 9)
    for e in range((v + 1) // 2, 3 * v // 2 + 2)
    if full_universe_size(v, e, mode) <= 20_000
] + [(SymmetryMode.EDGE_RENUMBERING, v, e) for v, e in ((2, 256), (3, 256), (3, 300))] + [
    (SymmetryMode.LITERAL, 2, 256)]


def first_pair_slice(full, vertices, edges, mode, tables):
    """The mask of full's rows whose first pair is (1, 2) and whose second is
    (1, 2), (1, 3) or (3, 4) (LITERAL), or whose first entry is their
    greatest and whose entries 1..V - 2 do not increase (otherwise)."""
    if mode is SymmetryMode.LITERAL:
        second = [tables.pairs.index(pair) for pair in ((1, 2), (1, 3), (3, 4)) if pair[1] <= vertices]
        return (full[:, 0] == 0) & (np.isin(full[:, 1], second) if edges > 1 else True)
    return (full[:, 0] == full.max(axis=1)) & (np.diff(full[:, 1 : vertices - 1].astype(int)) <= 0).all(axis=1)


def meets_valence(v, row, mode, pairs, trivalent):
    """Whether one row decodes to a skeleton, which touches every vertex,
    with every valence 3 if trivalent."""
    try:
        skeleton = decode_row(v, row, mode, pairs)
    except IsolatedVertex:
        return False
    return not trivalent or set(skeleton.valences()) == {3}


def valence_reference(rows, v, mode, pairs, trivalent):
    """The rows meets_valence keeps, one decoded skeleton at a time."""
    return [row for row in rows.tolist() if meets_valence(v, row, mode, pairs, trivalent)]


@pytest.mark.parametrize(
    "mode, vertices, edges", SLICE_CELLS, ids=[f"{m.value}-{v}-{e}" for m, v, e in SLICE_CELLS]
)
def test_the_first_pair_slice_loses_no_canonical_row(mode, vertices, edges):
    """The universe built is exactly the full universe's rows whose first
    pair is (1, 2) and whose second is (1, 2), (1, 3) or (3, 4) (LITERAL),
    or whose first entry is their greatest and whose entries 1..V - 2, on
    (1, 3), ..., (1, V), do not increase (otherwise), in its dtype and in
    strictly ascending key order.  The valence filter keeps exactly the rows
    of the slice that decode to a skeleton, every vertex touched, whose
    valences() are all 3 when trivalent.  The sweep keeps exactly the rows
    of the full universe, trivalent or not, that canonical_rows maps to
    themselves and does not flag as zero."""
    tables = _perm_tables(vertices)
    full = full_universe(vertices, edges, mode)
    part = _labeled_universe(vertices, edges, mode, tables)
    built = first_pair_slice(full, vertices, edges, mode, tables)
    assert part.dtype == full.dtype
    assert part.tolist() == full[built].tolist()
    keys = _keys(part)
    assert (keys[:-1] < keys[1:]).all()
    for trivalent in (False, True) if 2 * edges == 3 * vertices else (False,):
        assert _valence_filter(part, mode, tables, trivalent).tolist() == valence_reference(
            part, vertices, mode, tables.pairs, trivalent)
        rows = _valence_filter(full, mode, tables, trivalent)
        best, _, _, zero = canonical_rows(tables, mode, rows, np.zeros(len(rows), dtype=np.int64))
        canonical = rows[(best == rows).all(axis=1) & ~zero]
        kept = _bulk_survivors(_valence_filter(part, mode, tables, trivalent), mode, tables)
        assert kept.tolist() == canonical.tolist()


# The edge-renumbering cells of SLICE_CELLS with a column bounded by the greatest entry alone.
RENUMBERING_SLICE_CELLS = [(v, e) for mode, v, e in SLICE_CELLS if mode is SymmetryMode.EDGE_RENUMBERING and v > 2]


@pytest.mark.parametrize(
    "vertices, edges", RENUMBERING_SLICE_CELLS, ids=[f"{v}-{e}" for v, e in RENUMBERING_SLICE_CELLS]
)
def test_the_exact_row_count_is_the_rows_built(monkeypatch, vertices, edges):
    """Once the columns up to V - 2 of a multiplicity vector are built, the
    builder counts the rows they grow into, exactly, and holds that many."""
    counted = []
    monkeypatch.setattr(enumeration, "_completions", lambda *args: counted.append(_completions(*args)) or counted[-1])
    rows = _labeled_universe(vertices, edges, SymmetryMode.EDGE_RENUMBERING, _perm_tables(vertices))
    assert counted == [len(rows)]


def test_a_large_slice_is_refused_before_a_column_bounded_by_its_greatest_entry(monkeypatch):
    """At the default cap the edge-renumbering (8, 12) slice is refused on
    its exact row count with only the columns up to V - 2 = 6 built."""
    widths, column_stack = [], np.column_stack
    monkeypatch.setattr(np, "column_stack", lambda arrays: widths.append(arrays[0].shape[1] + 1) or column_stack(arrays))
    with pytest.raises(BasisTooLarge, match="the slice built at V=8, E=12 reaches 47481002 rows"):
        enumerate_by_counts(8, 12, mode=SymmetryMode.EDGE_RENUMBERING)
    assert widths == [2, 3, 4, 5, 6, 7]


def dimension_table_sweep():
    """(mode, order, degree) of the 34 cells of the dimension-table sweeps:
    literal V <= 4, edge-renumbering V <= 6."""
    cells = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "dimension_table.py"))["cells"]
    return [(mode, *cell) for mode, vmax in zip(MODES, (4, 6)) for cell in sorted(cells(vmax))]


def test_sweep_keeps_the_ascending_order_of_the_universe():
    """Survivors come out in strictly ascending key order, so the classes
    decode sorted with no sort of their own."""
    sweep = dimension_table_sweep()
    assert len(sweep) == 34
    for mode, order, degree in sweep:
        v, e = counts_for_grading(order, degree)
        tables = _perm_tables(v)
        rows = _bulk_survivors(_valence_filter(_labeled_universe(v, e, mode, tables), mode, tables, False),
                               mode, tables)
        keys = _keys(rows)
        assert (keys[:-1] < keys[1:]).all(), (mode, v, e)
        classes = enumerate_by_counts(v, e, mode=mode)
        assert classes == sorted(classes, key=GraphClass.sort_key), (mode, v, e)


def decode_row(v, row, mode, pairs):
    """One row's skeleton: its pair ids in order (LITERAL), or each pair
    repeated by its multiplicity (otherwise)."""
    if mode is SymmetryMode.LITERAL:
        return GraphSkeleton(v, tuple(pairs[p] for p in row))
    return GraphSkeleton(v, tuple(pair for pair, m in zip(pairs, row) for _ in range(m)))


DECODED_CELLS = [(SymmetryMode.LITERAL, 4, 6, True), (SymmetryMode.LITERAL, 5, 6, False),
                 (SymmetryMode.EDGE_RENUMBERING, 6, 9, False)]


@pytest.mark.parametrize(
    "mode, vertices, edges, trivalent", DECODED_CELLS, ids=[f"{m.value}-{v}-{e}" for m, v, e, _ in DECODED_CELLS]
)
def test_skeletons_decodes_each_survivor_as_its_row_says(mode, vertices, edges, trivalent):
    """The batched decoder agrees with a row-by-row decode on every
    survivor of a cell, and _rows_of encodes its skeletons back into the
    rows, with no edge reversed.  The valence filter before the sweep keeps
    the rows meets_valence keeps."""
    tables = _perm_tables(vertices)
    part = _labeled_universe(vertices, edges, mode, tables)
    filtered = _valence_filter(part, mode, tables, trivalent)
    assert filtered.tolist() == valence_reference(part, vertices, mode, tables.pairs, trivalent)
    rows = _bulk_survivors(filtered, mode, tables)
    assert len(rows)
    skeletons = _skeletons(vertices, rows, mode, tables.pairs)
    assert skeletons == [decode_row(vertices, row.tolist(), mode, tables.pairs) for row in rows]
    encoded, reversals = _rows_of(skeletons, mode, tables)
    assert encoded.tolist() == rows.tolist()
    assert not reversals.any()


@pytest.mark.parametrize("mode", MODES)
def test_skeletons_of_an_empty_stack_and_of_the_empty_graph(mode):
    pairs = _perm_tables(4).pairs
    width = 5 if mode is SymmetryMode.LITERAL else len(pairs)
    assert _skeletons(4, np.zeros((0, width), np.uint8), mode, pairs) == []
    assert _skeletons(0, np.zeros((1, 0), np.uint8), mode, _perm_tables(0).pairs) == [EMPTY_GRAPH]


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: enumerate_by_counts(4, 6, mode=SymmetryMode.LITERAL, cap=1),
        lambda: enumerate_trivalent(2, connected=True, mode=SymmetryMode.LITERAL, cap=50),
    ],
    ids=["by-counts", "trivalent"],
)
def test_huge_universe_is_rejected_up_front(build):
    """Both entry points are refused by the rows bound before any class is
    counted: the literal (4, 6) slice holds 3,888 rows > 50 * cap."""
    with pytest.raises(BasisTooLarge, match="the slice built at V=4, E=6 reaches 3888 rows"):
        build()


ROW_BOUND_CELLS = [(SymmetryMode.LITERAL, 3, 6), (SymmetryMode.LITERAL, 4, 5), (SymmetryMode.LITERAL, 4, 6),
                   (SymmetryMode.EDGE_RENUMBERING, 5, 5), (SymmetryMode.EDGE_RENUMBERING, 5, 7),
                   (SymmetryMode.EDGE_RENUMBERING, 6, 6)]


@pytest.mark.parametrize(
    "mode, vertices, edges", ROW_BOUND_CELLS, ids=[f"{m.value}-{v}-{e}" for m, v, e in ROW_BOUND_CELLS]
)
def test_the_rows_bound_is_fifty_times_the_cap(mode, vertices, edges):
    """With the slice's rows counted here on the full universe, a cap c =
    ceil(rows / 50) lets the slice be built and c - 1 refuses it, naming a
    count past 50 (c - 1) and no more than the rows."""
    rows = int(first_pair_slice(full_universe(vertices, edges, mode), vertices, edges, mode,
                                _perm_tables(vertices)).sum())
    cap = -(-rows // 50)
    assert cap > 1
    message = rf"the slice built at V={vertices}, E={edges} reaches (\d+) rows"
    with pytest.raises(BasisTooLarge, match=message) as info:
        enumerate_by_counts(vertices, edges, mode=mode, cap=cap - 1)
    assert 50 * (cap - 1) < int(re.search(message, str(info.value)).group(1)) <= rows
    try:
        enumerate_by_counts(vertices, edges, mode=mode, cap=cap)
    except BasisTooLarge as exc:
        assert re.search(r"\d+ classes at", str(exc)), exc


def test_the_class_cap_is_checked_before_decoding(monkeypatch):
    """Without the connected filter each surviving row is one class, so the
    literal (4, 6) cell, 3,888 rows and 1,831 classes, is refused at cap
    1,000 before a row is decoded; with it, all 1,831 rows are decoded and
    the 1,815 connected classes counted."""

    def no_decoding(*args):
        raise AssertionError("rows were decoded")

    monkeypatch.setattr(enumeration, "_skeletons", no_decoding)
    with pytest.raises(BasisTooLarge, match="1831 classes at V=4, E=6 exceed the cap"):
        enumerate_by_counts(4, 6, cap=1000)
    decoded = []

    def counting(*args):
        decoded.append(len(args[1]))
        return _skeletons(*args)

    monkeypatch.setattr(enumeration, "_skeletons", counting)
    with pytest.raises(BasisTooLarge, match="1815 classes at V=4, E=6 exceed the cap"):
        enumerate_by_counts(4, 6, cap=1000, connected=True)
    assert decoded == [1831]


def test_class_count_refusal_names_the_count():
    """The slice of (3, 4) holds 18 rows, within 50 times either cap, so
    only the count of the 13 classes decides."""
    with pytest.raises(BasisTooLarge, match="13 classes at V=3, E=4") as info:
        enumerate_by_counts(3, 4, cap=2)
    assert info.value.cap == 2
    assert len(enumerate_by_counts(3, 4, cap=13)) == 13


# ---------------------------------------------------------------------------
# The memo of recent cells.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_a_recent_cell_is_not_swept_again(monkeypatch, mode):
    enumeration._cell.cache_clear()
    first = enumerate_by_counts(4, 5, mode=mode, connected=True)

    def no_sweep(*args):
        raise AssertionError("a recent cell was swept again")

    monkeypatch.setattr(enumeration, "_bulk_survivors", no_sweep)
    assert enumerate_by_counts(4, 5, mode=mode, connected=True) == first
    with pytest.raises(AssertionError, match="swept again"):  # another filter is another cell
        enumerate_by_counts(4, 5, mode=mode)


def test_a_smaller_cap_on_a_recent_cell_is_still_refused():
    with pytest.raises(BasisTooLarge) as cold:
        enumerate_by_counts(3, 4, cap=2)
    assert len(enumerate_by_counts(3, 4, cap=13)) == 13
    with pytest.raises(BasisTooLarge) as warm:
        enumerate_by_counts(3, 4, cap=2)
    assert str(warm.value) == str(cold.value) == (
        "basis enumeration exceeds the cap (2): 13 classes at V=3, E=4 exceed the cap")
    assert warm.value.cap == cold.value.cap == 2


def test_each_call_returns_its_own_list():
    first = enumerate_by_counts(4, 5)
    expected = list(first)
    first.clear()
    second = enumerate_by_counts(4, 5)
    assert second == expected and second is not enumerate_by_counts(4, 5)


def test_the_memo_keeps_only_the_most_recent_cells():
    """A hit makes its cell the most recently used, and past four cells the
    least recently used goes: (3, 4) is evicted by (3, 5) although it came
    after (3, 3), so a first-in-first-out memo would hit on it."""
    enumeration._cell.cache_clear()
    calls = [(3, 3), (3, 4), (3, 3), (4, 4), (4, 5), (3, 5), (3, 4), (3, 3)]
    hits = []
    for v, e in calls:
        before = enumeration._cell.cache_info().hits
        enumerate_by_counts(v, e)
        hits.append(enumeration._cell.cache_info().hits - before)
    assert hits == [0, 0, 1, 0, 0, 0, 0, 0]
    assert enumeration._cell.cache_info().maxsize == enumeration._cell.cache_info().currsize == 4


def test_a_refusal_does_not_depend_on_earlier_calls():
    """The rows bound refuses trivalent order 2 at cap 50 even after the
    same cell was enumerated at the default cap."""
    refused = "the slice built at V=4, E=6 reaches 3888 rows"
    with pytest.raises(BasisTooLarge, match=refused):
        enumerate_trivalent(2, connected=True, mode=SymmetryMode.LITERAL, cap=50)
    assert len(enumerate_trivalent(2, connected=True, mode=SymmetryMode.LITERAL)) == 75
    with pytest.raises(BasisTooLarge, match=refused):
        enumerate_trivalent(2, connected=True, mode=SymmetryMode.LITERAL, cap=50)


def test_the_dimension_table_sweeps_each_non_empty_cell_once(monkeypatch):
    """delta_matrix and rank over the 34 dimension-table cells sweep each
    distinct (V, E) cell of their domains and codomains that has graphs,
    V >= 2 vertices all touched by E edges, once, even where no class
    survives."""
    enumeration._cell.cache_clear()
    swept = []

    def counting(*args):
        swept.append(args[1])
        return _bulk_survivors(*args)

    monkeypatch.setattr(enumeration, "_bulk_survivors", counting)
    cells = set()
    for mode, order, degree in dimension_table_sweep():
        dm = delta_matrix(order, degree, mode=mode)
        dm.rank()
        cells |= {(mode, v, e) for v, e in map(counts_for_grading, (order, order), (degree, degree + 1))
                  if 2 <= v <= 2 * e}
    assert len(swept) == len(cells) == 37


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
