"""Exception types shared across the package.

Every error that reports a location uses the same 1-based indexing as the
objects themselves (vertices, edges, tensor slots).
"""


class GraphCohError(Exception):
    """Base class for all package errors."""


class LoopEdge(GraphCohError):
    """An edge connects a vertex to itself."""

    def __init__(self, edge_index, vertex):
        self.edge_index = edge_index
        self.vertex = vertex
        super().__init__(f"edge {edge_index} is a loop at vertex {vertex}")


class VertexOutOfRange(GraphCohError):
    """An edge endpoint is not in 1..V."""

    def __init__(self, edge_index, vertex, vertex_count):
        self.edge_index = edge_index
        self.vertex = vertex
        self.vertex_count = vertex_count
        super().__init__(
            f"edge {edge_index} touches vertex {vertex}, "
            f"but the graph has vertices 1..{vertex_count}"
        )


class IsolatedVertex(GraphCohError):
    """A vertex has no incident edges (only the empty graph may be bare)."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} has no incident edges")


class NotRegular(GraphCohError):
    """Contraction was requested along an edge that is not regular."""

    def __init__(self, edge_index, reason=""):
        self.edge_index = edge_index
        msg = f"edge {edge_index} is not regular"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class DegenerateContraction(GraphCohError):
    """Contracting this edge would leave a vertex with no slots at all."""

    def __init__(self, edge_index):
        self.edge_index = edge_index
        super().__init__(
            f"contracting edge {edge_index} would produce a bare vertex "
            "(both endpoints have valence 1)"
        )


class BasisTooLarge(GraphCohError):
    """An enumeration would exceed the class cap, or a fixed bound (cap None)."""

    def __init__(self, detail, cap=None):
        self.detail = detail
        self.cap = cap
        if cap is None:
            super().__init__(f"basis enumeration refused: {detail}")
        else:
            super().__init__(f"basis enumeration exceeds the cap ({cap}): {detail}")


class ShapeMismatch(GraphCohError):
    """Tensor operands do not have compatible shapes."""


class SlotOutOfRange(GraphCohError):
    """A tensor slot index is outside 1..valence."""

    def __init__(self, slot, valence):
        self.slot = slot
        self.valence = valence
        super().__init__(f"slot {slot} is out of range for valence {valence}")


class NotAntisymmetric(GraphCohError):
    """A tensor expected to be fully antisymmetric is not."""

    def __init__(self, slots, index):
        self.slots = slots
        self.index = index
        super().__init__(
            f"swapping slots {slots[0]},{slots[1]} does not negate the tensor; "
            f"first offending entry at index {index}"
        )


class JacobiFailed(GraphCohError):
    """A structure tensor violates the Jacobi identity."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"Jacobi identity fails at index {index}")


class MixedScalarKinds(GraphCohError):
    """An exact verdict was requested but tensors do not share a scalar kind."""

    def __init__(self, kinds):
        self.kinds = tuple(kinds)
        super().__init__(
            "cannot settle exactly: tensors mix scalar kinds "
            + ", ".join(map(str, self.kinds))
            + " (pass a tolerance to allow a floating comparison)"
        )


class FormatError(GraphCohError):
    """A text file does not follow the expected format."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


def _data_lines(text: str):
    """(line number, stripped line) for each line that is neither blank nor a
    '#' comment: the one line rule of every text format."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield ln, line
