"""Graph skeletons: numbered vertices, numbered oriented edges, no loops.

A skeleton is the combinatorial part of a decorated graph.  Vertices are
numbered 1..V and edges are numbered 1..E by their position in the edge
list; each edge is an ordered pair (tail, head).  Parallel edges are
allowed, loops are not.  Isolated vertices are rejected except for the
empty graph (V = E = 0), which acts as the unit of the graph algebra.

Two gradings are attached to a skeleton with V vertices and E edges:

    order  = E - V
    degree = 2*E - 3*V

so trivalent graphs (every vertex of valence 3) sit in degree 0 with
V = 2m, E = 3m for their order m.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import FormatError, IsolatedVertex, LoopEdge, VertexOutOfRange, _data_lines


class SymmetryMode(enum.Enum):
    """How far the relabeling group reaches.

    LITERAL quotients by vertex renumbering (signed by permutation parity)
    and edge reversals (signed -1 each), keeping edge numbers fixed.
    EDGE_RENUMBERING additionally quotients by permutations of the edge
    numbering, which carry sign +1.
    """

    LITERAL = "literal"
    EDGE_RENUMBERING = "edge-renumbering"

    @classmethod
    def parse(cls, text: str) -> "SymmetryMode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise ValueError(
            f"unknown symmetry mode {text!r}; expected 'literal' or 'edge-renumbering'"
        )


@dataclass(frozen=True)
class GraphSkeleton:
    """Immutable loop-free multigraph with numbered, oriented edges.

    The hash is computed once, from ints only, so it is the same in every
    process; equality compares the fields.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple(map(tuple, self.edges))
        object.__setattr__(self, "edges", edges)
        v = self.vertex_count
        if v < 0:
            raise VertexOutOfRange(0, v, v)
        # sets decide a valid skeleton (length first: no set outgrows the ends); a walk names a fault
        touched = set().union(*edges)
        if not (len(touched) == v and touched == set(range(1, v + 1)) and not any(t == h for t, h in edges)):
            for k, (t, h) in enumerate(edges, start=1):
                for end in (t, h):
                    if not (1 <= end <= v):
                        raise VertexOutOfRange(k, end, v)
                if t == h:
                    raise LoopEdge(k, t)
            # every end lies in 1..v, so the least untouched vertex is at most len(touched) + 1
            if len(touched) < v:
                raise IsolatedVertex(next(u for u in range(1, v + 1) if u not in touched))
        object.__setattr__(self, "_hash", hash((v, edges)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def valences(self) -> tuple[int, ...]:
        val = [0] * self.vertex_count
        for t, h in self.edges:
            val[t - 1] += 1
            val[h - 1] += 1
        return tuple(val)

    def incident_edges(self, vertex: int) -> tuple[int, ...]:
        """Edge numbers meeting `vertex`, ascending.

        This is the half-edge order at the vertex: half-edges are ranked by
        (edge number, tail-before-head), and since loops are excluded each
        edge contributes at most one half-edge per vertex, so the rank
        collapses to plain edge-number order.
        """
        return tuple(
            k for k, (t, h) in enumerate(self.edges, start=1) if vertex in (t, h)
        )

    def pair_multiplicities(self) -> dict[tuple[int, int], int]:
        """Count edges per unordered endpoint pair (keys have u < v)."""
        mult: dict[tuple[int, int], int] = {}
        for t, h in self.edges:
            key = (t, h) if t < h else (h, t)
            mult[key] = mult.get(key, 0) + 1
        return mult

    def sort_key(self) -> tuple:
        return (self.vertex_count, len(self.edges), self.edges)

    def __str__(self) -> str:
        return format_graph(self)


def new_graph(vertex_count: int, edges: Iterable[tuple[int, int]]) -> GraphSkeleton:
    """Validate and build a skeleton."""
    return GraphSkeleton(vertex_count, tuple(edges))


EMPTY_GRAPH = GraphSkeleton(0, ())


def grading(g: GraphSkeleton) -> tuple[int, int]:
    """(order, degree) = (E - V, 2E - 3V)."""
    v, e = g.vertex_count, g.edge_count
    return (e - v, 2 * e - 3 * v)


def counts_for_grading(order: int, degree: int) -> tuple[int, int]:
    """Invert the grading: V = 2*order - degree, E = 3*order - degree."""
    return (2 * order - degree, 3 * order - degree)


def cells(max_vertices: int) -> Iterator[tuple[int, int]]:
    """(order, degree) of every (V, E) cell with 2 <= V <= max_vertices and
    degree <= 0, in ascending (V, E) order.

    (V, E) -> (E - V, 2E - 3V) is a bijection, so no cell repeats.
    """
    for v in range(2, max_vertices + 1):
        for e in range((v + 1) // 2, (3 * v) // 2 + 1):
            yield e - v, 2 * e - 3 * v


def is_trivalent(g: GraphSkeleton) -> bool:
    return g.vertex_count > 0 and all(x == 3 for x in g.valences())


def regular_edges(g: GraphSkeleton) -> list[int]:
    """Edges whose endpoints are joined by no other edge (1-based numbers)."""
    mult = g.pair_multiplicities()
    out = []
    for k, (t, h) in enumerate(g.edges, start=1):
        key = (t, h) if t < h else (h, t)
        if mult[key] == 1:
            out.append(k)
    return out


def is_connected(g: GraphSkeleton) -> bool:
    if g.vertex_count == 0:
        return True
    parent = list(range(g.vertex_count + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t, h in g.edges:
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[rt] = rh
    roots = {find(u) for u in range(1, g.vertex_count + 1)}
    return len(roots) == 1


# ---------------------------------------------------------------------------
# Symmetry group elements, applied explicitly.  These are used by the
# canonicalization tests and by the check suites to exercise the relation
#     g  =  parity(perm) * (-1)**reversals  *  (transformed g).
# ---------------------------------------------------------------------------


def permutation_parity(perm: Sequence[int]) -> int:
    """Sign of a permutation given as images [perm[i] = image of i+1], 1-based values."""
    n = len(perm)
    seen = [False] * n
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def relabel_vertices(g: GraphSkeleton, perm: Sequence[int]) -> GraphSkeleton:
    """Apply a vertex renumbering; perm[i-1] is the new number of vertex i."""
    if sorted(perm) != list(range(1, g.vertex_count + 1)):
        raise ValueError(f"not a permutation of 1..{g.vertex_count}: {perm!r}")
    return GraphSkeleton(
        g.vertex_count, tuple((perm[t - 1], perm[h - 1]) for t, h in g.edges)
    )


def reverse_edges(g: GraphSkeleton, which: Iterable[int]) -> GraphSkeleton:
    """Reverse the orientation of the listed edges (1-based numbers)."""
    flip = set(which)
    for k in flip:
        if not (1 <= k <= g.edge_count):
            raise ValueError(f"no edge {k}")
    return GraphSkeleton(
        g.vertex_count,
        tuple(
            (h, t) if k in flip else (t, h)
            for k, (t, h) in enumerate(g.edges, start=1)
        ),
    )


def renumber_edges(g: GraphSkeleton, perm: Sequence[int]) -> GraphSkeleton:
    """Apply an edge renumbering; perm[k-1] is the new number of edge k."""
    if sorted(perm) != list(range(1, g.edge_count + 1)):
        raise ValueError(f"not a permutation of 1..{g.edge_count}: {perm!r}")
    new_edges: list = [None] * g.edge_count
    for k, e in enumerate(g.edges):
        new_edges[perm[k] - 1] = e
    return GraphSkeleton(g.vertex_count, tuple(new_edges))


# ---------------------------------------------------------------------------
# Text format.  A graph is a block
#
#     V <int> E <int>
#     <tail> <head>     (E lines)
#
# Blocks are separated by blank lines; full-line comments start with '#'.
# ---------------------------------------------------------------------------


def format_graph(g: GraphSkeleton) -> str:
    lines = [f"V {g.vertex_count} E {g.edge_count}"]
    lines.extend(f"{t} {h}" for t, h in g.edges)
    return "\n".join(lines) + "\n"


def format_graphs(graphs: Iterable[GraphSkeleton], ids: Sequence[str] | None = None) -> str:
    """Serialize several graphs, optionally tagging each block with an id comment."""
    blocks = []
    for idx, g in enumerate(graphs):
        head = f"# id {ids[idx]}\n" if ids is not None else ""
        blocks.append(head + format_graph(g))
    return "\n".join(blocks)


def parse_graphs(text: str) -> list[GraphSkeleton]:
    """Parse every graph block in `text`; inverse of format_graphs up to comments."""
    graphs = []
    lines = _data_lines(text)
    for ln, line in lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "V" or parts[2] != "E":
            raise FormatError(ln, f"expected 'V <int> E <int>', got {line!r}")
        try:
            v, e = int(parts[1]), int(parts[3])
        except ValueError:
            raise FormatError(ln, f"bad counts in {line!r}") from None
        if v < 0 or e < 0:
            raise FormatError(ln, f"negative count in {line!r}")
        edges = []
        for ln, line in itertools.islice(lines, e):
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(ln, f"expected '<tail> <head>', got {line!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise FormatError(ln, f"bad edge line {line!r}") from None
        if len(edges) < e:
            last = text.count("\n") + (not text.endswith("\n"))
            raise FormatError(last, f"graph block ends early: expected {e} edges")
        graphs.append(GraphSkeleton(v, tuple(edges)))
    return graphs


def parse_graph(text: str) -> GraphSkeleton:
    graphs = parse_graphs(text)
    if len(graphs) != 1:
        raise FormatError(1, f"expected exactly one graph block, found {len(graphs)}")
    return graphs[0]


def theta_graph() -> GraphSkeleton:
    """Two vertices joined by three parallel edges; the smallest trivalent graph."""
    return GraphSkeleton(2, ((1, 2), (1, 2), (1, 2)))


def k4_graph() -> GraphSkeleton:
    """Complete graph on four vertices, edges in lexicographic order."""
    return GraphSkeleton(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
