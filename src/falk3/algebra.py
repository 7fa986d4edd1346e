"""Degree-2/3 exterior algebra rows and the rank-based invariant oracle.

Monomials e_S are keyed by ascending tuples of hyperplane labels (the
rank side uses int keys, see below); sparse vectors are plain dicts
mapping key -> integer coefficient.  A "triangle"
is a dependent label triple, i.e. three hyperplanes of rank 2.
`_rank_flats` is the one triangle enumerator, and `triangles()` and
`rank_side` both read it: from the graph's edge list alone it finds the
rank-2 flats with 3 or more members, and a triangle is a 3-subset of one.
Every normal is e_s (a loop) or e_i -+ e_j, so a flat lies on 2 vertices
(a coordinate plane, 3 or 4 members) or is one normal on each pair of 3
vertices, where one lookup of a direction sign decides it (see there).
Two flats share at most one label, so a label pair lies in at most one
flat.  A triangle's kind (k3, d21, k22) is its number of loops (see
`triangles`).  The triangles are checked outside this module:
`build_report` compares their counts by kind with the census's k3, d21
and k22 on every B2-free graph.

`rank_side` is the one rank-side pass per graph: the flats once, then one
exact elimination over the span rows.  dim A^2 needs no rows:
Brieskorn's lemma gives it as the sum over the rank-2 flats X of
m_X - 1, with m_X the flat's member count, and a label pair in no flat
of 3 or more is a flat of 2; so dim A^2 = C(n,2) - the sum of
C(m_X - 1, 2) over the flats of `_rank_flats`, which is C(n,2) -
#triangles + #4-flats.  The rows e_t ^ boundary(e_T) with t outside T
span F3; they are built from four sign patterns and streamed in, never
all alive at once.  The rows with t inside T are the unit rows +-e_T, and
I3_2 is the span of both kinds; no unit row is ranked (see the end of
this docstring).  The monomials e_xyz (x < y < z) are keyed by
the int (x * N + y) * N + z with N = n + 1.  Every label is below N, so a
key is the labels written in base N, and the keys sort as the tuples do.
The elimination takes the least key of a row as
its lead, so it picks the same pivots as on tuple keys; an int hashes
and compares faster than a tuple.  `ideal3_rows`, `span_f3_rows`, `wedge`
and `boundary` keep the tuple-keyed generating set as the reference
definition the tests rank against.

Rows with a private column are counted, not eliminated.  If a column of a
row set is nonzero in one row only, any vanishing combination gives that
row the coefficient 0; so if each row of R1 has such a column, rank(all) =
|R1| + rank(the rest).  Which rows have one is read off the flats in one
pass (`_shared_rows`).  In a 3-flat no other triangle holds a pair of T;
in a 4-flat every pair of T lies in a second triangle of the flat.
The row for T = {a < b < c} and t outside T has the columns {t, x, y}
for the pairs xy of T.  No other span row has the column {t, x, y} unless
another triangle holds xy, or some triangle holds tx or ty.  So the span
rows of a 4-flat triangle are all kept, and those of a 3-flat triangle
only for the t that share a flat with two of its labels: dim span F3 =
#private + rank(the other span rows).

The unit rows need no elimination.  The column T of e_T lies in a span
row e_t ^ boundary(e_T') only when T' is another triangle holding a pair
of T and t is the third label of T.  In a 3-flat no triangle does, so a
3-flat's e_T adds 1 to dim I3_2; a 4-flat's unit rows already lie in
span F3.  Take a 4-flat X = {a < b < c < d}, which is a B2 ({+ij, -ij,
loop i, loop j}); for t in X let T = X - t, eps_t = (-1)^(position of t
in X) and f_t = eps_t e_T.  The Leibniz rule gives d(e_t ^ e_T) = e_T - e_t ^ dT,
and e_t ^ e_T = eps_t e_X with dX = sum of f_s, so
eps_t (e_t ^ dT) = f_t - sum of f_s.  These four span rows are kept (every
pair of T lies in a second triangle of X), and in the basis f they form
I - J, with determinant 1 - 4 = -3.  Over the rationals they span
<e_T : T in X>, so dim I3_2 = dim span F3 + #3-flats; on a B2-free graph
that is dim span F3 + #triangles.  Over Z/3 the identity fails, as the
determinant vanishes; `rank_side` works over the rationals, and the -3
pivots are why some graphs with B2 reach the `Fraction` scaling.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import namedtuple
from math import comb

from . import rank
from .errors import B2Present, RankMismatch
from .graphs import LOOP, POS, SignedGraph
# unused here, kept as module attributes: perfbench/spans.py wraps
# algebra.exact_rank and algebra.bigint_rank, and stops if either is missing
from .rank import bigint_rank, exact_rank  # noqa: F401


class Triangle(namedtuple("Triangle", "labels kind")):
    """A dependent label triple and the census bucket it falls in.

    labels is the ascending label triple; kind is "k3" (balanced 3-cycle),
    "d21" (doubled pair plus a loop at one of its endpoints) or "k22"
    (single edge plus loops at both endpoints).
    """

    __slots__ = ()


def boundary(subset) -> dict[tuple, int]:
    """Boundary of the monomial on an ascending label tuple: sum of (-1)^(k-1) e_{S minus k-th}."""
    s = tuple(subset)
    if list(s) != sorted(set(s)):
        raise ValueError(f"monomial labels must be strictly ascending, got {s}")
    out = {}
    sign = 1
    for idx in range(len(s)):
        out[s[:idx] + s[idx + 1 :]] = sign
        sign = -sign
    return out


def wedge(label: int, vec: dict) -> dict:
    """Left wedge of the degree-1 generator e_label with a sparse vector."""
    out = {}
    for mono, coeff in vec.items():
        if label in mono:
            continue
        at = bisect_left(mono, label)
        key = mono[:at] + (label,) + mono[at:]
        out[key] = out.get(key, 0) + (coeff if at % 2 == 0 else -coeff)
    return {k: v for k, v in out.items() if v}


def _rank_flats(edges) -> tuple[list[tuple[int, ...]], int, int]:
    """Rank route: the rank-2 flats with 3 or more members, as ascending
    label tuples (1-based), then the number of their triangles that hold one
    loop and the number that hold two.

    Precondition: `edges` is the edge tuple of a SignedGraph, whose
    constructor puts every edge on i < j, every loop on i == j, and no
    signed edge or loop twice.  A loop at s has normal e_s; an edge on
    i < j has e_i - e_j (+) or e_i + e_j (-), parallel to e_i + r e_j with
    r = -1 or 1.  Two loop normals are parallel only at one vertex, and two
    edge normals only with the same support and the same r: either way the
    same loop or signed edge twice, so no two normals are parallel.

    With no two normals parallel, a dependent triple has rank exactly 2, and
    each of its normals is a combination of the other two with both
    coefficients nonzero.  So the three supports have the same union as any
    two of them, and it has at most 3 vertices: two normals with disjoint
    supports on 3 or 4 vertices would make the third nonzero on all of them.
    - On 2 vertices p < q every normal supported there lies in the
      coordinate plane pq: the normals on pq and the loops at p and q, up
      to 4 of them.  Every 3-subset of them is dependent.
    - On 3 vertices s < p < q no loop fits: a loop and any second normal
      span either a coordinate plane, which holds no normal reaching the
      third vertex, or a plane whose other members have 3 entries.  Two
      normals on one pair span its coordinate plane, so the triple is one
      normal on each of sp, sq and pq.  With u ~ e_s + r e_p and
      v ~ e_s + t e_q, the plane's only direction without e_s is
      u - v = r e_p - t e_q, which is r (e_p - r t e_q) as r r = 1, so the
      triple is dependent exactly when the normal on pq has the sign -r t:
      one lookup of (p, q, -r t) per pair of normals leaving s upwards to
      different vertices.  No fourth normal fits: it would lie on one of
      the three pairs, parallel to the normal there.
    Each edge is unpacked once, into the list of normals leaving its lower
    vertex upwards.  Each such list is sorted once by upper vertex, so the
    one or two normals on a pair s < p are adjacent: the coordinate plane sp
    is read off that run, plus the loops at s and p, at the run's first
    entry, and the walk to the normals on s < q starts past the run.  Each
    coordinate plane is found once from its lower vertex, and each 3-vertex
    flat once from its least vertex s, so no flat is found twice.  The cost
    follows those pairs.  The loop counts are tallied where a coordinate
    plane is found: a 4-member plane (both normals, both loops) has 2
    triangles with one loop and 2 with two, and a 3-member plane's one
    triangle holds both loops exactly when it has one normal.  A 3-vertex
    flat holds no loop.
    """
    loops: dict[int, int] = {}  # vertex -> label of its loop
    lines: dict[tuple[int, int, int], int] = {}  # (i, j, r) -> label
    up: dict[int, list[tuple[int, int, int]]] = {}  # i -> (j, label, r), j > i
    for k, (kind, i, j) in enumerate(edges, start=1):
        if kind == LOOP:
            loops[i] = k
        else:
            r = -1 if kind == POS else 1
            ups = up.get(i)
            if ups is None:
                up[i] = [(j, k, r)]
            else:
                ups.append((j, k, r))
            lines[i, j, r] = k
    flats = []
    one = two = 0  # triangles holding one loop, two loops
    for s, ups in up.items():
        ups.sort()
        size = len(ups)
        ls = loops.get(s)
        for x, (p, ku, r) in enumerate(ups):
            y = x + 1
            if not x or ups[x - 1][0] != p:
                # the run's first entry: the coordinate plane sp is the run of 1 or
                # 2 normals on sp, adjacent after the sort, and the loops at s and p
                plane = [ku]
                if y < size and ups[y][0] == p:
                    plane.append(ups[y][1])
                    y += 1
                lp = loops.get(p)
                if ls:
                    plane.append(ls)
                if lp:
                    plane.append(lp)
                if len(plane) >= 3:
                    plane.sort()
                    flats.append(tuple(plane))
                    if len(plane) == 4:
                        one += 2
                        two += 2
                    elif ls and lp:
                        two += 1
                    else:
                        one += 1
            for q, kv, t in ups[y:]:
                w = lines.get((p, q, -r * t))
                if w is not None:
                    flats.append(tuple(sorted((ku, kv, w))))
    return flats, one, two


# the kind of a dependent triple by how many of its hyperplanes are loops
_KINDS = ("k3", "d21", "k22")


def triangles(g: SignedGraph) -> list[Triangle]:
    """All dependent label triples, ascending, with kinds.

    The rank route finds the flats from the edge list alone, and the
    triples are their 3-subsets.  Three loops are independent, so a triple
    holds at most two, and the kind is their count: none is a k3 (a triple
    on 3 vertices holds no loop, see `_rank_flats`), one a d21 and two a
    k22 (on 2 vertices p < q, the normals on pq with the loops at p and q).
    """
    edges = g.edges
    tris = sorted(t for flat in _rank_flats(edges)[0] for t in itertools.combinations(flat, 3))
    return [Triangle(t, _KINDS[sum(edges[k - 1].kind == LOOP for k in t)]) for t in tris]


# -- row builders ----------------------------------------------------------


def ideal3_rows(g: SignedGraph) -> list[dict]:
    """Degree-3 generating rows e_t ^ boundary(e_T), all triangles T, all labels t.

    For t inside T the product degenerates to plus or minus e_T; those rows
    are kept, matching the generating set whose span is measured.
    """
    rows = []
    for tri in triangles(g):
        b = boundary(tri.labels)
        for t in range(1, g.n + 1):
            rows.append(wedge(t, b))
    return rows


def span_f3_rows(g: SignedGraph) -> list[dict]:
    """Rows e_t ^ boundary(e_T) with t outside the triangle T."""
    rows = []
    for tri in triangles(g):
        b = boundary(tri.labels)
        rows += [wedge(t, b) for t in range(1, g.n + 1) if t not in tri.labels]
    return rows


def _span_f3_row_stream(jobs, base: int):
    """Yield e_t ^ boundary(e_abc) for each job ((a, b, c), ts), one row for
    each label t in the bitmask ts (bit t stands for label t), ascending.

    No t may lie in abc.  The monomial e_xyz (x < y < z) is keyed by the int
    (x * base + y) * base + z, with every label below base: the digits of xyz
    in base `base`, so the keys sort as the tuples do.  boundary(e_abc) =
    e_bc - e_ac + e_ab, and inserting t into each monomial costs the sign
    (-1)^(labels before t), so each row is one of four fixed three-entry
    patterns, by where t falls against a < b < c.
    """
    sq = base * base
    for (a, b, c), ts in jobs:
        ab, ac, bc = a * base + b, a * base + c, b * base + c
        while ts:
            low = ts & -ts
            t = low.bit_length() - 1
            ts ^= low
            if t < a:
                yield {t * sq + bc: 1, t * sq + ac: -1, t * sq + ab: 1}
            elif t < b:
                yield {t * sq + bc: 1, (a * base + t) * base + c: 1, (a * base + t) * base + b: -1}
            elif t < c:
                yield {(b * base + t) * base + c: -1, (a * base + t) * base + c: 1, ab * base + t: 1}
            else:
                yield {bc * base + t: 1, ac * base + t: -1, ab * base + t: 1}


def _shared_rows(n: int, flats) -> tuple[list, int, int]:
    """The span rows with no private column, as span-F3 row-stream jobs (a
    triangle and the bitmask of its kept t), then the count of span rows
    left out and the number of 4-flats.

    The column {t, x, y} of row e_t ^ boundary(e_T) is shared when another
    triangle holds the pair xy, or t shares a flat with x or y (see the
    module docstring).  A pair lies in one flat, so in a 4-flat every pair
    of T is in a second triangle and every row is kept, and in a 3-flat
    none is: its t is kept when it shares a flat with two labels of T.
    Label sets are bitmasks: bit t stands for label t.  One pass ORs each
    flat's mask into the partner mask of each of its labels; a second reads
    a 3-flat's three partner masks, or gives a 4-flat's four triangles every
    t outside them.
    """
    partners = [0] * (n + 1)  # label -> the labels of its flats
    for flat in flats:
        if len(flat) == 3:
            a, b, c = flat
            mask = 1 << a | 1 << b | 1 << c
            partners[a] |= mask
            partners[b] |= mask
            partners[c] |= mask
        else:
            mask = 0
            for x in flat:
                mask |= 1 << x
            for x in flat:
                partners[x] |= mask
    every = (1 << n + 1) - 2  # labels 1..n
    jobs = []
    private = fours = 0
    for flat in flats:
        if len(flat) == 3:
            a, b, c = flat
            pa, pb, pc = partners[a], partners[b], partners[c]
            near = (pa & pb | pa & pc | pb & pc) & ~(1 << a | 1 << b | 1 << c)
            private += n - 3 - near.bit_count()
            if near:
                jobs.append((flat, near))
        else:
            # every t outside the triangle is kept, so no span row is private
            fours += 1
            for tri in itertools.combinations(flat, 3):
                a, b, c = tri
                jobs.append((tri, every & ~(1 << a | 1 << b | 1 << c)))
    return jobs, private, fours


def rows_to_matrix(rows) -> np.ndarray:
    """Dense int64 matrix over the ascending-sorted monomials that appear.

    The pipeline ranks the sparse rows directly; this is for inspection and tests.
    """
    import numpy as np

    cols = sorted({mono for row in rows for mono in row})
    index = {mono: c for c, mono in enumerate(cols)}
    a = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for ri, row in enumerate(rows):
        for mono, coeff in row.items():
            a[ri, index[mono]] = coeff
    return a


# -- dimensions and the invariant -------------------------------------------


def rank_side(g: SignedGraph) -> tuple[int, int, int, int, dict[str, int]]:
    """(#triangles, dim A^2, dim span F3, dim I3_2, triangles by kind) of one graph.

    dim A^2 is Brieskorn's count over the flats (see the module docstring).
    One elimination over the span rows with no private column; the other
    span rows are counted, not eliminated, and no unit row is ranked: a
    3-flat's e_T adds 1 to dim I3_2 and a 4-flat's already lie in span F3,
    so dim I3_2 = dim span F3 + #3-flats.  The counts need one number
    besides the flat count: the 4-flats.  A 3-flat holds 1 triangle and a
    4-flat 4, so #triangles = #flats + 3 #4-flats, and dim A^2 = C(n,2) -
    #triangles + #4-flats.  On a B2-free graph every flat has 3 members, so
    dim A^2 = C(n,2) - #triangles and dim I3_2 = dim span F3 + #triangles.
    The kinds map each of `_KINDS` to its count: the flats give the
    triangles with one loop and with two, and the rest of the count, all on
    3-vertex flats, holds none.  Reads only the graph's n and edges.
    """
    flats, one, two = _rank_flats(g.edges)
    jobs, private, fours = _shared_rows(g.n, flats)
    # streamed: each row is built when the elimination reads it, never all at once
    span = private + rank._eliminate(_span_f3_row_stream(jobs, g.n + 1), None)
    count = len(flats) + 3 * fours
    kinds = {_KINDS[0]: count - one - two, _KINDS[1]: one, _KINDS[2]: two}
    return count, comb(g.n, 2) - count + fours, span, span + len(flats) - fours, kinds


def dim_a2(g: SignedGraph) -> int:
    """Degree-2 algebra dimension of a B2-free graph, the value `rank_side` gives.

    It equals C(n,2) - #triangles.  A graph with B2 is refused by contract;
    `dim_a2_rank` answers for any graph.
    """
    if g.contains_b2():
        raise B2Present("dim_a2 refuses B2 graphs by contract; dim_a2_rank answers for any graph")
    return dim_a2_rank(g)


def dim_a2_rank(g: SignedGraph) -> int:
    """Degree-2 algebra dimension by Brieskorn's count over the rank-2 flats; any graph."""
    return rank_side(g)[1]


def rank_i3_2(g: SignedGraph) -> int:
    """Exact dimension of the degree-3 part of the ideal generated in degree 2."""
    return rank_side(g)[3]


def dim_span_f3(g: SignedGraph) -> int:
    """Exact dimension of the span of the non-degenerate rows."""
    return rank_side(g)[2]


def phi3_from_dims(n: int, a2: int, dim_i3_2: int) -> int:
    """Falk's rank formula: 2 C(n+1,3) - n dim A^2 + C(n,3) - dim I3_2."""
    value = 2 * comb(n + 1, 3) - n * a2 + comb(n, 3) - dim_i3_2
    if value < 0:
        raise RankMismatch(f"negative invariant {value}; some dimension is wrong")
    return value


def phi3_oracle(g: SignedGraph) -> int:
    """The third invariant by exact ranks; any signed graph."""
    _count, a2, _span, ideal, _kinds = rank_side(g)
    return phi3_from_dims(g.n, a2, ideal)
