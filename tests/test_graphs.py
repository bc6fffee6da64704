"""Skeleton model: validation, grading, helpers, and the text format."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from graphcoh.errors import FormatError, IsolatedVertex, LoopEdge, VertexOutOfRange
from graphcoh.graphs import (
    EMPTY_GRAPH,
    SymmetryMode,
    cells,
    counts_for_grading,
    format_graph,
    format_graphs,
    grading,
    is_connected,
    is_trivalent,
    k4_graph,
    new_graph,
    parse_graph,
    parse_graphs,
    permutation_parity,
    regular_edges,
    relabel_vertices,
    renumber_edges,
    reverse_edges,
    theta_graph,
)

# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------


@st.composite
def skeletons(draw, max_vertices=5, max_edges=6):
    """Random valid skeletons: loop-free, no isolated vertices."""
    v = draw(st.integers(min_value=2, max_value=max_vertices))
    e = draw(st.integers(min_value=(v + 1) // 2, max_value=max_edges))
    pairs = st.tuples(
        st.integers(min_value=1, max_value=v), st.integers(min_value=1, max_value=v)
    ).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, min_size=e, max_size=e))
    used = sorted({x for p in edges for x in p})
    relabel = {old: new for new, old in enumerate(used, start=1)}
    return new_graph(len(used), [(relabel[t], relabel[h]) for t, h in edges])


def permutations_of(n):
    return st.permutations(list(range(1, n + 1)))


# ---------------------------------------------------------------------------
# Construction and validation.
# ---------------------------------------------------------------------------


def test_theta_accepted():
    g = new_graph(2, [(1, 2), (1, 2), (1, 2)])
    assert g == theta_graph()
    assert g.vertex_count == 2 and g.edge_count == 3


def test_k4_accepted():
    g = new_graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert g == k4_graph()


def test_loop_rejected():
    with pytest.raises(LoopEdge):
        new_graph(2, [(1, 1)])


def test_vertex_out_of_range_rejected():
    with pytest.raises(VertexOutOfRange):
        new_graph(2, [(1, 3)])
    with pytest.raises(VertexOutOfRange):
        new_graph(2, [(0, 1)])


def test_isolated_vertex_rejected():
    with pytest.raises(IsolatedVertex):
        new_graph(3, [(1, 2)])
    with pytest.raises(IsolatedVertex) as info:
        new_graph(5, [(1, 2), (5, 1)])
    assert info.value.vertex == 3


def test_empty_graph_is_the_unit():
    assert EMPTY_GRAPH.vertex_count == 0
    assert EMPTY_GRAPH.edges == ()
    assert new_graph(0, []) == EMPTY_GRAPH


# ---------------------------------------------------------------------------
# Grading.
# ---------------------------------------------------------------------------


def test_grading_worked_examples():
    assert grading(theta_graph()) == (1, 0)
    assert grading(k4_graph()) == (2, 0)
    assert grading(new_graph(3, [(1, 2), (2, 3)])) == (-1, -5)


def test_counts_for_grading_inverts_grading():
    for g in (theta_graph(), k4_graph(), new_graph(3, [(1, 2), (2, 3)])):
        order, degree = grading(g)
        assert counts_for_grading(order, degree) == (g.vertex_count, g.edge_count)


@pytest.mark.parametrize("bound", [1, 2, 4, 6, 8])
def test_cells_walk_each_nonpositive_degree_cell_once(bound):
    """Every (V, E) with 2 <= V <= bound that a graph without isolated
    vertices reaches at degree <= 0, once each, in ascending (V, E) order."""
    expected = [
        (v, e) for v in range(2, bound + 1) for e in range(3 * v + 1)
        if 2 * e >= v and 2 * e - 3 * v <= 0
    ]
    assert [counts_for_grading(order, degree) for order, degree in cells(bound)] == expected


def test_cells_are_the_dimension_table_sweeps():
    """Literal V <= 4 and edge-renumbering V <= 6: the 34 cells of the table."""
    assert len(list(cells(4))) == 11
    assert len(list(cells(6))) == 23


@given(skeletons())
def test_grading_formula(g):
    v, e = g.vertex_count, g.edge_count
    assert grading(g) == (e - v, 2 * e - 3 * v)


def test_trivalent_predicate():
    assert is_trivalent(theta_graph())
    assert is_trivalent(k4_graph())
    assert not is_trivalent(new_graph(3, [(1, 2), (1, 2), (2, 3)]))


def test_trivalent_valence_sum():
    for g in (theta_graph(), k4_graph()):
        assert sum(g.valences()) == 2 * g.edge_count
        assert set(g.valences()) == {3}


# ---------------------------------------------------------------------------
# Regular edges and incidence.
# ---------------------------------------------------------------------------


def test_regular_edges_worked_examples():
    assert regular_edges(theta_graph()) == []
    assert regular_edges(k4_graph()) == [1, 2, 3, 4, 5, 6]
    assert regular_edges(new_graph(3, [(1, 2), (1, 2), (2, 3)])) == [3]


@given(skeletons())
def test_regular_edges_match_oracle(g):
    assert regular_edges(g) == oracles.regular_edge_indices(g.edges)


@given(skeletons(), st.data())
def test_regular_pairs_commute_with_relabeling(g, data):
    perm = data.draw(permutations_of(g.vertex_count))
    h = relabel_vertices(g, perm)
    pairs_g = {
        frozenset((perm[t - 1], perm[h_ - 1]))
        for k, (t, h_) in enumerate(g.edges, start=1)
        if k in regular_edges(g)
    }
    pairs_h = {
        frozenset(h.edges[k - 1]) for k in regular_edges(h)
    }
    assert pairs_g == pairs_h


def test_incident_edges_ascending():
    g = new_graph(3, [(2, 3), (1, 2), (1, 3), (1, 2)])
    assert g.incident_edges(1) == (2, 3, 4)
    assert g.incident_edges(2) == (1, 2, 4)
    assert g.incident_edges(3) == (1, 3)
    assert g.valences() == (3, 3, 2)


# ---------------------------------------------------------------------------
# Symmetry helpers.
# ---------------------------------------------------------------------------


def test_permutation_parity_basics():
    assert permutation_parity((1, 2, 3)) == 1
    assert permutation_parity((2, 1, 3)) == -1
    assert permutation_parity((2, 3, 1)) == 1


@given(st.integers(min_value=1, max_value=6), st.data())
def test_permutation_parity_matches_inversion_count(n, data):
    perm = tuple(data.draw(permutations_of(n)))
    assert permutation_parity(perm) == oracles.perm_parity(perm)


@given(skeletons(), st.data())
def test_relabel_round_trip(g, data):
    perm = data.draw(permutations_of(g.vertex_count))
    inverse = [0] * g.vertex_count
    for i, image in enumerate(perm, start=1):
        inverse[image - 1] = i
    assert relabel_vertices(relabel_vertices(g, perm), inverse) == g


@given(skeletons(), st.data())
def test_reverse_edges_is_involutive(g, data):
    which = data.draw(st.lists(st.integers(1, g.edge_count), unique=True))
    assert reverse_edges(reverse_edges(g, which), which) == g


@given(skeletons(), st.data())
def test_renumber_edges_round_trip(g, data):
    perm = data.draw(permutations_of(g.edge_count))
    inverse = [0] * g.edge_count
    for i, image in enumerate(perm, start=1):
        inverse[image - 1] = i
    assert renumber_edges(renumber_edges(g, perm), inverse) == g


@given(skeletons(), st.data())
def test_grading_invariant_under_symmetries(g, data):
    perm = data.draw(permutations_of(g.vertex_count))
    which = data.draw(st.lists(st.integers(1, g.edge_count), unique=True))
    h = reverse_edges(relabel_vertices(g, perm), which)
    assert grading(h) == grading(g)


@given(skeletons())
def test_is_connected_matches_oracle(g):
    assert is_connected(g) == oracles.is_connected(g.vertex_count, g.edges)


def test_symmetry_mode_parse():
    assert SymmetryMode.parse("literal") is SymmetryMode.LITERAL
    assert SymmetryMode.parse("edge-renumbering") is SymmetryMode.EDGE_RENUMBERING
    with pytest.raises(ValueError):
        SymmetryMode.parse("nonsense")


# ---------------------------------------------------------------------------
# Text format.
# ---------------------------------------------------------------------------


def test_format_graph_shape():
    text = format_graph(new_graph(2, [(2, 1), (1, 2)]))
    assert text == "V 2 E 2\n2 1\n1 2\n"


def test_parse_graphs_with_comments_and_blank_lines():
    text = "# two graphs\nV 2 E 1\n1 2\n\n# second\nV 2 E 2\n1 2\n2 1\n"
    gs = parse_graphs(text)
    assert gs == [new_graph(2, [(1, 2)]), new_graph(2, [(1, 2), (2, 1)])]


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(FormatError):
        parse_graph("junk\n")
    with pytest.raises(FormatError):
        parse_graph("V 2 E 2\n1 2\n")
    with pytest.raises(FormatError):
        parse_graph("V 2 E 1\n1 2\n1 2\n")


@pytest.mark.parametrize("header", ["V 2 E -1", "V -1 E 0"])
def test_parse_graphs_rejects_a_negative_count_in_the_header(header):
    with pytest.raises(FormatError) as info:
        parse_graphs(f"# one graph\n{header}\n1 2\n")
    assert info.value.line_number == 2
    assert str(info.value) == f"line 2: negative count in {header!r}"


def test_a_large_vertex_count_is_refused_without_a_flag_per_vertex():
    """Validation reads the touched vertices off the edge ends: a header
    naming a million vertices allocates nothing in proportion to it."""
    tracemalloc.start()
    try:
        with pytest.raises(IsolatedVertex) as info:
            parse_graphs("V 1000000 E 1\n1 2\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.vertex == 3
    assert peak < 1_000_000


@given(skeletons())
def test_format_parse_round_trip(g):
    assert parse_graph(format_graph(g)) == g


@given(st.lists(skeletons(), min_size=1, max_size=4))
def test_format_graphs_round_trip(gs):
    assert parse_graphs(format_graphs(gs)) == gs
