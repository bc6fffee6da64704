"""A skeleton with several faults is refused for the first faulty edge."""

import pytest

from graphcoh.errors import IsolatedVertex, LoopEdge, VertexOutOfRange
from graphcoh.graphs import GraphSkeleton


@pytest.mark.parametrize(
    "vertices, edges, error, message",
    [
        (2, ((1, 1), (1, 3)), LoopEdge, "edge 1 is a loop at vertex 1"),
        (2, ((1, 3), (1, 1)), VertexOutOfRange, "edge 1 touches vertex 3, but the graph has vertices 1..2"),
        (4, ((1, 2), (2, 1), (3, 3)), LoopEdge, "edge 3 is a loop at vertex 3"),  # vertex 4 is bare too
        (5, ((1, 2), (0, 1), (4, 4)), VertexOutOfRange, "edge 2 touches vertex 0, but the graph has vertices 1..5"),
        (3, ((1, 2), (3, 1), (1, 4), (2, 2)), VertexOutOfRange,
         "edge 3 touches vertex 4, but the graph has vertices 1..3"),
        (2, ((1, 2), (1, 2.5)), VertexOutOfRange, "edge 2 touches vertex 2.5, but the graph has vertices 1..2"),
        (6, ((1, 2), (4, 3)), IsolatedVertex, "vertex 5 has no incident edges"),  # only once every edge is sound
    ],
)
def test_the_first_faulty_edge_is_named(vertices, edges, error, message):
    with pytest.raises(error) as info:
        GraphSkeleton(vertices, edges)
    assert str(info.value) == message
