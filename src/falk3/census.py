"""Subgraph census and the closed-form invariant for B2-free signed graphs.

Each count is a number of distinct edge-label subsets of the graph.  The
switching-class conditions reduce to explicit sign tests: a cycle belongs
to the balanced class exactly when its edge signs multiply to +1, and a
doubled pair always carries one edge of each sign.
"""

import itertools
from dataclasses import asdict, astuple, dataclass

from .errors import B2Present
from .graphs import SignedGraph


@dataclass(frozen=True)
class Census:
    """Counts of the eight dependent-structure subgraph classes.

    k3      balanced triangles: one edge per pair of a vertex triple, signs
            multiplying to +1;
    k4      one edge per pair of a vertex 4-set with all four triangles
            balanced (no loops in the subset);
    d3      all six signed edges on a vertex triple, where the graph has no
            loop at any of the three vertices;
    d21     a doubled pair plus a loop at one of its endpoints;
    k22     a single edge plus loops at both endpoints;
    k33     loops at all three vertices of a balanced triangle;
    g_circ  a looped apex with two doubled legs and a single base edge,
            where the opposite-sign base edge is absent from the graph;
    d31     all six signed edges on a vertex triple plus one loop at one of
            its vertices.
    """

    k3: int = 0
    k4: int = 0
    d3: int = 0
    d21: int = 0
    k22: int = 0
    k33: int = 0
    g_circ: int = 0
    d31: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def as_tuple(self) -> tuple[int, ...]:
        return astuple(self)

    def triangle_total(self) -> int:
        return self.k3 + self.d21 + self.k22


# A sign choice on K4 is balanced exactly when it is a switching
# sigma_i sigma_j of the all-positive one.  Fixing sigma_a = 1, each balanced
# choice comes from one (sigma_b, sigma_c, sigma_d); these are its signs on
# the pairs ab, ac, ad, bc, bd, cd.
_K4_SWITCHINGS = tuple(
    (xb, xc, xd, xb * xc, xb * xd, xc * xd) for xb, xc, xd in itertools.product((1, -1), repeat=3)
)


def census(g: SignedGraph) -> Census:
    """Count the eight classes by local enumeration over vertex tuples.

    Every count comes from the graph's pair -> signs table and its loop
    set.  Vertex triples and 4-sets are reached through the graph's
    neighbour map, so the cost grows with the edges, not with the number of
    vertices.
    """
    if g.contains_b2():
        raise B2Present("the census is defined for graphs with no B2 sub-arrangement")

    signs = g._signs
    looped = set(g._loop_label)
    adj = g._neighbours

    k3 = k4 = d3 = d21 = k22 = k33 = g_circ = d31 = 0

    for a, b, c in g._vertex_triangles:
        sab, sbc, sac = signs[(a, b)], signs[(b, c)], signs[(a, c)]
        # sign choices, one per pair, with product +1: a pair holding both
        # signs matches each choice with its negation, so then exactly half
        if len(sab) == len(sbc) == len(sac) == 1:
            balanced = int(sab[0] * sbc[0] * sac[0] == 1)
        else:
            balanced = len(sab) * len(sbc) * len(sac) // 2
        k3 += balanced
        nloops = (a in looped) + (b in looped) + (c in looped)
        if nloops == 3:
            k33 += balanced
        if len(sab) == len(sbc) == len(sac) == 2:
            if nloops == 0:
                d3 += 1
            d31 += nloops
        for d in adj[a] & adj[b] & adj[c]:
            if d < c:
                continue
            sad, sbd, scd = signs[(a, d)], signs[(b, d)], signs[(c, d)]
            k4 += sum(
                1
                for xb, xc, xd, xbc, xbd, xcd in _K4_SWITCHINGS
                if xb in sab and xc in sac and xd in sad
                and xbc in sbc and xbd in sbd and xcd in scd
            )

    for (i, j), s in signs.items():
        ends = (i in looped) + (j in looped)
        if len(s) == 2:
            d21 += ends
        if ends == 2:
            k22 += len(s)

    for apex in looped:
        doubled = sorted(
            u for u in adj.get(apex, ()) if len(signs[(min(u, apex), max(u, apex))]) == 2
        )
        for a, c in itertools.combinations(doubled, 2):
            if len(signs.get((a, c), ())) == 1:
                g_circ += 1

    return Census(k3, k4, d3, d21, k22, k33, g_circ, d31)


def phi3_formula(c: Census) -> int:
    """Closed form for the third invariant of a B2-free signed graph."""
    return 2 * (c.k3 + c.k4 + c.d3 + c.d21 + c.k22 + c.k33 + c.g_circ) + 5 * c.d31


def dim_i3_2_formula(g: SignedGraph, c: Census) -> int:
    """Closed form for the degree-3 ideal dimension implied by the census.

    The leading factor multiplies the full triangle count k3 + d21 + k22;
    the test suite pins this term against the exact rank on every fixture
    and sampled graph.
    """
    return (
        (g.n - 2) * (c.k3 + c.d21 + c.k22)
        - 2 * c.k4
        - 2 * c.d3
        - 2 * c.g_circ
        - 2 * c.k33
        - 5 * c.d31
    )
