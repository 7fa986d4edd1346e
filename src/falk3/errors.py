"""Exception types shared across the package."""


class FalkError(Exception):
    """Base class for every error this package raises deliberately."""


class EdgeError(FalkError):
    """An entry of an edge list is invalid.

    `label` is the 1-based position of the entry, or None when the fault is
    not tied to one edge; `detail` is the message without that position, so
    a caller that knows where the edge came from can restate it.
    """

    def __init__(self, detail: str, label: int | None = None):
        super().__init__(detail if label is None else f"edge {label}: {detail}")
        self.detail = detail
        self.label = label


class DuplicateEdge(EdgeError):
    """The same signed edge (or loop) appears twice in one edge list."""


class SelfPairEdge(EdgeError):
    """A positive or negative edge joins a vertex to itself."""


class VertexOutOfRange(EdgeError):
    """An edge references a vertex outside 1..ell."""


class LabelOutOfRange(FalkError):
    """A hyperplane label outside 1..n was requested."""


class NotACycle(FalkError):
    """The given labels do not form a closed walk of non-loop edges."""


class UnderlyingGraphMismatch(FalkError):
    """Switching equivalence asked for graphs with different underlying multigraphs."""


class B2Present(FalkError):
    """The operation needs a graph with no B2 sub-arrangement (doubled pair plus both loops)."""


class InternalKindMismatch(FalkError):
    """Two routes to a graph's triangles disagree on a triple.

    The package itself no longer raises it; it stays a public name for
    callers that compare their own triangle routes."""


class RankMismatch(FalkError):
    """Dimensions from exact ranks give a negative invariant (see phi3_from_dims)."""


class ParseError(FalkError):
    """Malformed graph file; carries the 1-based offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
