"""Signed graphs with labeled edges and their hyperplane normal vectors.

A signed graph on vertices 1..ell carries positive edges (hyperplane
x_i - x_j = 0), negative edges (x_i + x_j = 0) and loops (x_i = 0).  Each
pair of vertices holds at most one edge of each sign and each vertex at
most one loop.  Edge list order assigns the hyperplane labels 1..n.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .errors import (
    DuplicateEdge,
    LabelOutOfRange,
    NotACycle,
    SelfPairEdge,
    UnderlyingGraphMismatch,
    VertexOutOfRange,
)

POS, NEG, LOOP = "+", "-", "o"


class Edge(namedtuple("Edge", "kind i j")):
    """One edge: kind '+' or '-' on a pair i < j, or 'o' for a loop (i == j)."""

    __slots__ = ()

    @property
    def is_loop(self) -> bool:
        return self.kind == LOOP

    @property
    def pair(self) -> tuple[int, int]:
        return (self.i, self.j)

    @property
    def sign(self) -> int:
        """+1 for positive edges; -1 for negative edges and loops."""
        return 1 if self.kind == POS else -1


def pos(i: int, j: int) -> Edge:
    return Edge(POS, min(i, j), max(i, j))


def neg(i: int, j: int) -> Edge:
    return Edge(NEG, min(i, j), max(i, j))


def loop(i: int) -> Edge:
    return Edge(LOOP, i, i)


class SignedGraph:
    """Immutable signed graph; label k (1-based) is the k-th edge of the list."""

    def __init__(self, ell: int, edges):
        """Check and normalize `edges`, filling every table in one walk.

        Each edge is unpacked once.  Its checks run in a fixed order, and the
        first that fails raises: the kind (ValueError), the endpoints
        (VertexOutOfRange), then a signed edge on one vertex (SelfPairEdge)
        and a signed edge or loop met before (DuplicateEdge).  Every
        EdgeError carries the edge's label.  A signed edge is put on i < j
        and a loop on i == j; a new Edge is built only for an edge that
        needs it, or for a plain (kind, i, j) triple.

        The tables are the edge list, the pair -> signs table, the vertex ->
        loop label table and the B2 witnesses; the pair and loop tables
        double as the duplicate checks.  The B2 witnesses need two loops, so
        a graph with no loop skips their walk, and the labels of +ij and -ij
        are read off the edge list only for the pairs that are witnesses.
        """
        if ell < 0:
            raise VertexOutOfRange(f"vertex count must be nonnegative, got {ell}")
        normalized = []
        # the pair and loop tables double as the duplicate checks
        signs = self._signs = {}  # i < j -> signs, positive first
        loops = self._loop_label = {}  # vertex -> label of its loop
        for label, e in enumerate(edges, start=1):
            kind, i, j = e
            if kind == POS:
                s = 1
            elif kind == NEG:
                s = -1
            elif kind == LOOP:
                s = 0
            else:
                raise ValueError(f"edge {label}: unknown kind {kind!r}")
            if not (1 <= i <= ell and 1 <= j <= ell):
                raise VertexOutOfRange(f"endpoints {(i, j)} outside 1..{ell}", label)
            if s:
                if i == j:
                    raise SelfPairEdge(f"signed edge from vertex {i} to itself", label)
                if i > j:
                    i, j = j, i
                    e = Edge(kind, i, j)
                held = signs.get((i, j), ())
                if s in held:
                    raise DuplicateEdge(f"duplicate {kind!r} edge at {(i, j)}", label)
                # a pair met twice holds both signs
                signs[i, j] = (1, -1) if held else (s,)
            else:
                if j != i:
                    e = Edge(LOOP, i, i)
                if i in loops:
                    raise DuplicateEdge(f"duplicate {kind!r} edge at {(i, i)}", label)
                loops[i] = label
            normalized.append(e if type(e) is Edge else Edge(kind, i, j))

        self.ell = ell
        self.edges: tuple[Edge, ...] = tuple(normalized)
        self.n = len(self.edges)
        # the B2 witnesses {+ij, -ij, loop i, loop j}: sorted label 4-tuples, in ascending order
        pairs = [
            (i, j) for (i, j), both in signs.items() if len(both) == 2 and i in loops and j in loops
        ] if loops else ()
        # one map for every witness, not a scan each: an Edge hashes and compares as its triple
        label_of = {e: k for k, e in enumerate(self.edges, start=1)} if pairs else {}
        self._b2: tuple[tuple[int, int, int, int], ...] = tuple(sorted(
            tuple(sorted((label_of[POS, i, j], label_of[NEG, i, j], loops[i], loops[j]))) for i, j in pairs
        ))

    # -- basic accessors ------------------------------------------------

    def edge(self, label: int) -> Edge:
        if not 1 <= label <= self.n:
            raise LabelOutOfRange(f"label {label} outside 1..{self.n}")
        return self.edges[label - 1]

    def has_loop(self, v: int) -> bool:
        return v in self._loop_label

    def loop_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._loop_label))

    def signs_on(self, i: int, j: int) -> tuple[int, ...]:
        """Signs of the non-loop edges present on pair {i, j} (positive first)."""
        return self._signs.get((min(i, j), max(i, j)), ())

    def edge_label(self, i: int, j: int, sign: int) -> int | None:
        """Label of the edge of `sign` on pair {i, j}, or None; a scan of the edge list."""
        a, b = min(i, j), max(i, j)
        if sign in self._signs.get((a, b), ()):
            return self.edges.index((POS if sign == 1 else NEG, a, b)) + 1
        return None

    def loop_label(self, v: int) -> int | None:
        return self._loop_label.get(v)

    # -- hyperplane geometry ---------------------------------------------

    def normal_vector(self, label: int) -> np.ndarray:
        """Integer normal of hyperplane `label`: e_i - e_j, e_i + e_j or e_i."""
        import numpy as np

        e = self.edge(label)
        v = np.zeros(self.ell, dtype=np.int64)
        v[e.i - 1] = 1
        if not e.is_loop:
            v[e.j - 1] = -e.sign
        return v

    def normal_matrix(self) -> np.ndarray:
        """(n, ell) int64 matrix whose row k-1 is normal_vector(k)."""
        import numpy as np

        m = np.zeros((self.n, self.ell), dtype=np.int64)
        for label in range(1, self.n + 1):
            m[label - 1] = self.normal_vector(label)
        return m

    # -- cycles and switching ---------------------------------------------

    def cycle_sign(self, labels) -> int:
        """Product of edge signs along a closed walk of non-loop edges."""
        labels = list(labels)
        if len(labels) < 2:
            raise NotACycle("a closed walk needs at least two edges")
        es = [self.edge(k) for k in labels]
        for k, e in zip(labels, es):
            if e.is_loop:
                raise NotACycle(f"label {k} is a loop")
        for start in es[0].pair:
            v = start
            for e in es:
                if v == e.i:
                    v = e.j
                elif v == e.j:
                    v = e.i
                else:
                    break
            else:
                if v == start:
                    return math.prod(e.sign for e in es)
        raise NotACycle(f"labels {labels} do not close up into a walk")

    def switch(self, sigma) -> SignedGraph:
        """Resign by sigma (length-ell sequence of +1/-1); loops are unchanged."""
        sigma = tuple(sigma)
        if len(sigma) != self.ell:
            raise ValueError(f"sigma has length {len(sigma)}, expected {self.ell}")
        if any(s not in (1, -1) for s in sigma):
            raise ValueError("sigma entries must be +1 or -1")
        out = []
        for e in self.edges:
            if e.is_loop:
                out.append(e)
            else:
                s = sigma[e.i - 1] * sigma[e.j - 1] * e.sign
                out.append(Edge(POS if s == 1 else NEG, e.i, e.j))
        return SignedGraph(self.ell, out)

    def is_switching_equivalent(self, other: SignedGraph) -> bool:
        """True iff some switching of self has the same signed edges as other.

        Both graphs must share the underlying multigraph: the same pairs
        carrying one or two edges and the same loop set.  A doubled pair
        carries both signs under every switching, so it constrains nothing;
        a single pair ij asks sigma_i sigma_j = d, the product of its signs
        in the two graphs.  One walk over the single pairs fixes sigma from
        a root in each component and stops at the first pair that
        contradicts it.
        """
        if self.ell != other.ell:
            raise UnderlyingGraphMismatch("vertex counts differ")
        if set(self._loop_label) != set(other._loop_label):
            raise UnderlyingGraphMismatch("loop sets differ")
        p1, p2 = self._signs, other._signs
        if set(p1) != set(p2) or any(len(p1[q]) != len(p2[q]) for q in p1):
            raise UnderlyingGraphMismatch("edge pairs or multiplicities differ")
        adj: dict[int, list[tuple[int, int]]] = {}  # vertex -> (neighbour, d) over single pairs
        for (i, j), signs in p1.items():
            if len(signs) == 1:
                d = signs[0] * p2[i, j][0]
                adj.setdefault(i, []).append((j, d))
                adj.setdefault(j, []).append((i, d))
        sigma: dict[int, int] = {}
        for root in adj:
            if root in sigma:
                continue
            sigma[root] = 1
            todo = [root]
            while todo:
                u = todo.pop()
                for w, d in adj[u]:
                    if w not in sigma:
                        sigma[w] = sigma[u] * d
                        todo.append(w)
                    elif sigma[w] != sigma[u] * d:
                        return False
        return True

    # -- forbidden sub-arrangement -----------------------------------------

    def b2_witnesses(self) -> list[tuple[int, int, int, int]]:
        """Label 4-sets {+ij, -ij, loop i, loop j}, sorted ascending; a fresh list per call."""
        return list(self._b2)

    def contains_b2(self) -> bool:
        return bool(self._b2)

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SignedGraph)
            and self.ell == other.ell
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.ell, self.edges))

    def __repr__(self):
        return f"SignedGraph(ell={self.ell}, n={self.n})"


# -- named families -------------------------------------------------------


def complete_positive(ell: int, loops=()) -> SignedGraph:
    """All-positive complete graph, optionally with loops at the given vertices."""
    edges = [pos(i, j) for i, j in itertools.combinations(range(1, ell + 1), 2)]
    edges += [loop(v) for v in sorted(loops)]
    return SignedGraph(ell, edges)


def complete_doubled(ell: int, loops=()) -> SignedGraph:
    """Complete graph carrying both signs on every pair, plus optional loops."""
    pairs = list(itertools.combinations(range(1, ell + 1), 2))
    edges = [pos(i, j) for i, j in pairs]
    edges += [neg(i, j) for i, j in pairs]
    edges += [loop(v) for v in sorted(loops)]
    return SignedGraph(ell, edges)


def loop_apex_triangle() -> SignedGraph:
    """Triangle whose two doubled legs meet at a looped apex, plus a single base edge.

    Labels: positive legs 1 and 2, base 3, negative legs 4 and 5, apex loop 6.
    This is the smallest graph with a nonzero g_circ census count.
    """
    return SignedGraph(3, [pos(1, 2), pos(2, 3), pos(1, 3), neg(1, 2), neg(2, 3), loop(2)])
