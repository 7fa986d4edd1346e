"""Signed graphs with labeled edges and their hyperplane normal vectors.

A signed graph on vertices 1..ell carries positive edges (hyperplane
x_i - x_j = 0), negative edges (x_i + x_j = 0) and loops (x_i = 0).  Each
pair of vertices holds at most one edge of each sign and each vertex at
most one loop.  Edge list order assigns the hyperplane labels 1..n.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    DuplicateEdge,
    LabelOutOfRange,
    NotACycle,
    SelfPairEdge,
    UnderlyingGraphMismatch,
    VertexOutOfRange,
)

POS, NEG, LOOP = "+", "-", "o"


@dataclass(frozen=True, order=True)
class Edge:
    """One edge: kind '+' or '-' on a pair i < j, or 'o' for a loop (i == j)."""

    kind: str
    i: int
    j: int

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
        if ell < 0:
            raise VertexOutOfRange(f"vertex count must be nonnegative, got {ell}")
        normalized = []
        # the label maps double as the duplicate check: tuple keys hash faster than Edge
        self._sign_label: dict[tuple[int, int, int], int] = {}  # (i, j, sign) -> label
        self._loop_label: dict[int, int] = {}
        for label, e in enumerate(edges, start=1):
            kind, i, j = e.kind, e.i, e.j
            if kind not in (POS, NEG, LOOP):
                raise ValueError(f"edge {label}: unknown kind {kind!r}")
            if not (1 <= i <= ell and 1 <= j <= ell):
                raise VertexOutOfRange(f"endpoints {(i, j)} outside 1..{ell}", label)
            if kind == LOOP:
                if j != i:
                    e = Edge(LOOP, i, i)
                if i in self._loop_label:
                    raise DuplicateEdge(f"duplicate {kind!r} edge at {(i, i)}", label)
                self._loop_label[i] = label
            else:
                if i == j:
                    raise SelfPairEdge(f"signed edge from vertex {i} to itself", label)
                if i > j:
                    i, j = j, i
                    e = Edge(kind, i, j)
                key = (i, j, 1 if kind == POS else -1)
                if key in self._sign_label:
                    raise DuplicateEdge(f"duplicate {kind!r} edge at {(i, j)}", label)
                self._sign_label[key] = label
            normalized.append(e)

        self.ell = ell
        self.edges: tuple[Edge, ...] = tuple(normalized)
        self.n = len(self.edges)

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
        a, b = min(i, j), max(i, j)
        return self._sign_label.get((a, b, sign))

    def loop_label(self, v: int) -> int | None:
        return self._loop_label.get(v)

    @cached_property
    def _signs(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Pair i < j -> the signs of its edges, positive first; pairs with no edge are absent."""
        signs: dict[tuple[int, int], tuple[int, ...]] = {}
        for i, j, s in self._sign_label:
            # a pair met twice holds both signs
            signs[i, j] = (1, -1) if (i, j) in signs else (s,)
        return signs

    @cached_property
    def _neighbours(self) -> dict[int, set[int]]:
        """Vertex -> the vertices it shares a non-loop edge with; edgeless vertices are absent."""
        adj: dict[int, set[int]] = {}
        for i, j in self._signs:
            adj.setdefault(i, set()).add(j)
            adj.setdefault(j, set()).add(i)
        return adj

    @cached_property
    def _vertex_triangles(self) -> list[tuple[int, int, int]]:
        """Vertex triples a < b < c joined pairwise by edges, in no fixed order;
        found once, for both the pattern route and the census.

        Each is an edge pair a < b plus a common neighbour c > b, so the cost
        grows with the edges, not with the C(ell,3) vertex triples.
        """
        adj = self._neighbours
        return [
            (a, b, c)
            for a, b in self._signs
            for c in adj[a] & adj[b]
            if c > b
        ]

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

    def _forest_normal_form(self, pairs) -> dict[tuple[int, int], int]:
        """Signs of the single-sign pairs after spanning-forest switching.

        Doubled pairs carry both signs whatever the switching does, so they
        constrain nothing and must not enter the forest; the BFS runs on the
        single-sign pairs alone, from the smallest vertex of each component,
        and switches every forest pair positive.  Within a component the
        leftover freedom is one global sign, which cancels in every product
        sigma_i * sigma_j, so the result is a true canonical form.
        """
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.ell + 1)}
        for (i, j), signs in pairs.items():
            if len(signs) == 1:
                adj[i].append(j)
                adj[j].append(i)
        for v in adj:
            adj[v].sort()
        sigma: dict[int, int] = {}
        for root in range(1, self.ell + 1):
            if root in sigma:
                continue
            sigma[root] = 1
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w in sigma:
                        continue
                    sigma[w] = sigma[u] * pairs[(min(u, w), max(u, w))][0]
                    queue.append(w)
        return {
            (i, j): sigma[i] * sigma[j] * signs[0]
            for (i, j), signs in pairs.items()
            if len(signs) == 1
        }

    def is_switching_equivalent(self, other: SignedGraph) -> bool:
        """True iff some switching of self has the same signed edges as other.

        Both graphs must share the underlying multigraph: the same pairs
        carrying one or two edges and the same loop set.
        """
        if self.ell != other.ell:
            raise UnderlyingGraphMismatch("vertex counts differ")
        if set(self._loop_label) != set(other._loop_label):
            raise UnderlyingGraphMismatch("loop sets differ")
        p1, p2 = self._signs, other._signs
        if set(p1) != set(p2) or any(len(p1[q]) != len(p2[q]) for q in p1):
            raise UnderlyingGraphMismatch("edge pairs or multiplicities differ")
        return self._forest_normal_form(p1) == other._forest_normal_form(p2)

    # -- forbidden sub-arrangement -----------------------------------------

    @cached_property
    def _b2(self) -> tuple[tuple[int, int, int, int], ...]:
        """The witnesses, found once: the graph never changes after __init__."""
        out = []
        for (i, j, s) in self._sign_label:
            if s != 1:
                continue
            nl = self._sign_label.get((i, j, -1))
            li, lj = self._loop_label.get(i), self._loop_label.get(j)
            if nl is not None and li is not None and lj is not None:
                out.append(tuple(sorted((self._sign_label[(i, j, 1)], nl, li, lj))))
        return tuple(sorted(out))

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
