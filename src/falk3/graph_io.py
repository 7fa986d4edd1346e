"""Flat-file graph format: parsing and serialization.

One directive per line; '#' starts a comment, blank lines are ignored:

    vertices <ell>
    + <i> <j>
    - <i> <j>
    o <i>

The vertices line comes first; edge lines follow in hyperplane label order
1..n.  Serialization writes exactly this shape, so parse(serialize(g)) == g.
"""

from .errors import EdgeError, FalkError, ParseError
from .graphs import SignedGraph, loop, neg, pos


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


def parse_graph(text: str) -> SignedGraph:
    """Parse the flat format; errors carry the 1-based line number."""
    ell = None
    edges = []
    line_of = []  # line number of each edge, by label - 1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if ell is None:
            if tokens[0] != "vertices" or len(tokens) != 2:
                raise ParseError(line_no, "expected 'vertices <count>' before any edges")
            ell = _int(tokens[1], line_no, "vertex count")
            if ell < 0:
                raise ParseError(line_no, f"vertex count must be nonnegative, got {ell}")
            continue
        if tokens[0] == "vertices":
            raise ParseError(line_no, "duplicate 'vertices' line")
        if tokens[0] == "+" and len(tokens) == 3:
            e = pos(_int(tokens[1], line_no, "endpoint"), _int(tokens[2], line_no, "endpoint"))
        elif tokens[0] == "-" and len(tokens) == 3:
            e = neg(_int(tokens[1], line_no, "endpoint"), _int(tokens[2], line_no, "endpoint"))
        elif tokens[0] == "o" and len(tokens) == 2:
            e = loop(_int(tokens[1], line_no, "vertex"))
        else:
            raise ParseError(line_no, f"unrecognized directive {line!r}")
        edges.append(e)
        line_of.append(line_no)
    if ell is None:
        raise ParseError(1, "missing 'vertices <count>' line")
    try:
        return SignedGraph(ell, edges)
    except EdgeError as exc:
        # SignedGraph checks the edges; restate its fault by file line, not label
        raise type(exc)(f"line {line_of[exc.label - 1]}: {exc.detail}") from None


def serialize(g: SignedGraph) -> str:
    """Write the flat format back; one edge line per label, in label order."""
    lines = [f"vertices {g.ell}"]
    for e in g.edges:
        lines.append(f"o {e.i}" if e.is_loop else f"{e.kind} {e.i} {e.j}")
    return "\n".join(lines) + "\n"


def parse_sigma(text: str, ell: int) -> tuple[int, ...]:
    """Parse a switching function given as comma-separated '+'/'-' tokens.

    A blank text holds no tokens: it is the switching of a 0-vertex graph.
    """
    tokens = [t.strip() for t in text.split(",")] if text.strip() else []
    if len(tokens) != ell:
        raise FalkError(f"sigma has {len(tokens)} entries, expected {ell}")
    out = []
    for t in tokens:
        if t == "+":
            out.append(1)
        elif t == "-":
            out.append(-1)
        else:
            raise FalkError(f"sigma entries must be '+' or '-', got {t!r}")
    return tuple(out)
