"""Subgraph census and the closed-form invariant for B2-free signed graphs.

Each count is a number of distinct edge-label subsets of the graph.  The
switching-class conditions reduce to explicit sign tests: a cycle belongs
to the balanced class exactly when its edge signs multiply to +1, and a
doubled pair always carries one edge of each sign.
"""

from collections import namedtuple

from .errors import B2Present
from .graphs import SignedGraph


class Census(namedtuple("Census", "k3 k4 d3 d21 k22 k33 g_circ d31", defaults=(0,) * 8)):
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

    Every count defaults to 0.
    """

    __slots__ = ()

    def as_dict(self) -> dict[str, int]:
        return self._asdict()

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self)


def census(g: SignedGraph) -> Census:
    """Count the eight classes in one walk over the graph's pair table.

    Every count comes from the graph's pair -> signs table and its loop
    set.  The census keeps each vertex's larger neighbours as an int
    bitmask (bit c for vertex c), then walks the pair table once: each pair
    ab gives its d21 and k22 counts, and the AND of the masks of a and b
    holds its common neighbours c > b, read off low bit first.  Each
    vertex triangle a < b < c is met once, and each 4-set a < b < c < d
    once, through the common neighbours of ab above c that are also
    neighbours of c.  A triangle gives k3, k33, d3 and d31 and, when two
    of its pairs are doubled and its base is single, g_circ: its apex is
    the vertex off that base.  So the cost grows with the edges, not with
    the number of vertices.

    A sign choice on a 4-set is balanced exactly when its signs on bc, bd
    and cd are the products of those on ab, ac and ad (the triangles abc,
    abd and acd balanced make bcd balanced too).  So the k4 count fixes
    the signs on ab, ac and ad and tests the three the products ask for.
    """
    if g.contains_b2():
        raise B2Present("the census is defined for graphs with no B2 sub-arrangement")

    signs = g._signs
    looped = g._loop_label
    up: dict[int, int] = {}  # vertex -> bitmask of the larger vertices it shares a non-loop edge with
    for a, b in signs:
        up[a] = up.get(a, 0) | 1 << b

    k3 = k4 = d3 = d21 = k22 = k33 = g_circ = d31 = 0

    for (a, b), sab in signs.items():
        ends = (a in looped) + (b in looped)
        nab = len(sab)
        if nab == 2:
            d21 += ends
        if ends == 2:
            k22 += nab
        common = up[a] & up.get(b, 0)  # the common neighbours c > b
        while common:
            low = common & -common
            c = low.bit_length() - 1
            common ^= low  # now only the common neighbours above c
            sac, sbc = signs[a, c], signs[b, c]
            nac, nbc = len(sac), len(sbc)
            # sign choices, one per pair, with product +1: a pair holding both
            # signs matches each choice with its negation, so then exactly half
            if nab == nac == nbc == 1:
                balanced = int(sab[0] * sbc[0] * sac[0] == 1)
            else:
                balanced = nab * nbc * nac // 2
            k3 += balanced
            nloops = ends + (c in looped)
            if nloops == 3:
                k33 += balanced
            nedges = nab + nac + nbc
            if nedges == 6:
                if nloops == 0:
                    d3 += 1
                d31 += nloops
            elif nedges == 5:
                # two doubled legs meet at the apex, the vertex off the single base
                g_circ += (c if nab == 1 else a if nbc == 1 else b) in looped
            fours = common & up.get(c, 0)  # the d > c that close a 4-set abcd
            while fours:
                low = fours & -fours
                d = low.bit_length() - 1
                fours ^= low
                sad, sbd, scd = signs[a, d], signs[b, d], signs[c, d]
                for x in sab:
                    for y in sac:
                        if x * y in sbc:
                            for z in sad:
                                if x * z in sbd and y * z in scd:
                                    k4 += 1

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
