"""Degree-2/3 exterior algebra rows and the rank-based invariant oracle.

Monomials e_S are keyed by ascending tuples of hyperplane labels; sparse
vectors are plain dicts mapping tuple -> integer coefficient.  A "triangle"
is a dependent label triple, i.e. three hyperplanes of rank 2.  Every such
triple is one of three local patterns (k3, d21, k22), which `triangles()`
reads straight off the graph.  An exact check runs beside it on every call:
the plane spanned by each label pair, keyed by its support and the
primitive integer wedge of the two normals, gives the dependent triples
independently.  Only pairs whose normals share a vertex are keyed;
skipping the rest is exact because every normal has at most 2 nonzero
entries (see `_rank_triples`).

`rank_side` is the one rank-side pass per graph: triangles once, then two
exact eliminations.  dim A^2 is the boundary-row rank.  The degree-3 one
takes the rows e_t ^ boundary(e_T) with t outside T (span F3) first, then
the unit rows +-e_T that t inside T gives (I3_2); span rows are built from
four sign patterns and streamed in, never all alive at once.  `ideal3_rows`,
`wedge` and `boundary` keep the full generating set as the reference
definition the tests rank against.

Only the span rows without a private column are built and eliminated.  The
row for T = {a < b < c} and t outside T has the columns {t, x, y} for the
pairs xy of T.  No other row of either group has the column {t, x, y}
unless another triangle contains xy, or some triangle contains tx or ty (a
unit row e_txy is the second case).  Restricted to their private columns,
the rows that have one form a diagonal block with nonzero entries, and every
other row is zero there; so each adds exactly 1 to the rank of any set of
rows holding it: dim span F3 = #private + rank(the other span rows), and
dim I3_2 = #private + rank(those rows and the unit rows).  On a B2-free
graph no pair lies in two triangles (four hyperplanes would share a rank-2
flat), so there only the second case applies (see `_shared_rows`).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import comb, gcd

from . import rank
from .errors import B2Present, InternalKindMismatch, RankMismatch
from .graphs import Edge, SignedGraph
# bigint_rank stays a module attribute: perfbench/spans.py wraps algebra.bigint_rank
from .rank import bigint_rank, exact_rank  # noqa: F401


@dataclass(frozen=True)
class Triangle:
    """A dependent label triple and the census bucket it falls in.

    kind is "k3" (balanced 3-cycle), "d21" (doubled pair plus a loop at one
    of its endpoints) or "k22" (single edge plus loops at both endpoints).
    """

    labels: tuple[int, int, int]
    kind: str


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


def _pattern_triangles(g: SignedGraph) -> dict[tuple[int, int, int], str]:
    """Pattern route: every triangle read off the graph's label maps, with its kind."""
    signed, looped = g._sign_label, g._loop_label
    found = {}
    for a, b, c in g._vertex_triangles():
        for s_ab in (1, -1):
            l_ab = signed.get((a, b, s_ab))
            if l_ab is None:
                continue
            for s_bc in (1, -1):
                l_bc = signed.get((b, c, s_bc))
                # balanced: the sign on ac is the product of the other two
                l_ac = signed.get((a, c, s_ab * s_bc))
                if l_bc is not None and l_ac is not None:
                    found[tuple(sorted((l_ab, l_bc, l_ac)))] = "k3"
    for (i, j, s), label in signed.items():
        loops = [looped[v] for v in (i, j) if v in looped]
        if s == 1 and (i, j, -1) in signed:
            for lv in loops:
                found[tuple(sorted((label, signed[(i, j, -1)], lv)))] = "d21"
        if len(loops) == 2:
            found[tuple(sorted((label, *loops)))] = "k22"
    return found


def _normal(e: Edge) -> tuple[tuple[int, int], ...]:
    """Sparse integer normal of an edge's hyperplane as (vertex, coefficient) items."""
    return ((e.i, 1),) if e.is_loop else ((e.i, 1), (e.j, -e.sign))


def _rank_triples(normals) -> set[tuple[int, int, int]]:
    """Rank route: the label triples (1-based) whose normals span at most a plane.

    The plane two independent integer normals span is keyed by its support
    (the vertices where u or v is nonzero).  On 2 vertices that support
    alone is the key, since the plane is the whole coordinate plane; on 3
    vertices the key adds the 2x2 minors of u and v (their wedge), made
    primitive with a positive first nonzero entry.  Labels are grouped by
    the planes of their pairs; since no two normals are parallel, a triple
    has rank <= 2 exactly when all three lie in one group, so the dependent
    triples are the 3-subsets of each group.

    Precondition: every normal has 1 or 2 nonzero entries, as graph normals
    do; any other raises InternalKindMismatch.  Only pairs that share a
    vertex are keyed, so the cost follows the edges.  That skip is exact.  A
    pair with disjoint supports covering more than 2 vertices has any
    alpha u + beta v with alpha, beta != 0 supported on that whole union, so
    their plane holds no third normal except one parallel to u or v, which
    the zero wedge of that overlapping pair reports.  Two loops at i and j
    span the coordinate plane ij; any third normal in it is an edge on ij,
    which shares a vertex with each loop, so its own pairs key both loops
    into that plane.  Of several parallel pairs, the least is reported.
    """
    vecs = [{x: c for x, c in normal if c} for normal in normals]
    by_vertex: dict[int, list[int]] = {}
    for k, u in enumerate(vecs, start=1):
        if not 1 <= len(u) <= 2:
            raise InternalKindMismatch(
                f"label {k}: normal has {len(u)} nonzero entries; the rank route needs 1 or 2"
            )
        for x in u:
            by_vertex.setdefault(x, []).append(k)
    planes: dict[tuple, set[int]] = {}
    parallel = []
    # a pair on the same two vertices is met at both; keying it twice is harmless
    for ks in by_vertex.values():
        for ku, kv in itertools.combinations(ks, 2):
            u, v = vecs[ku - 1], vecs[kv - 1]
            xs = sorted(u.keys() | v.keys())
            if len(xs) == 3:
                # different supports, so never parallel: some minor is nonzero
                x, y, z = xs
                ux, uy, uz = u.get(x, 0), u.get(y, 0), u.get(z, 0)
                vx, vy, vz = v.get(x, 0), v.get(y, 0), v.get(z, 0)
                mxy, mxz, myz = ux * vy - uy * vx, ux * vz - uz * vx, uy * vz - uz * vy
                d = gcd(mxy, mxz, myz)
                if (mxy or mxz or myz) < 0:  # the first nonzero minor
                    d = -d
                key = (x, y, z, mxy // d, mxz // d, myz // d)
            elif len(xs) == 2 and (
                u.get(xs[0], 0) * v.get(xs[1], 0) != u.get(xs[1], 0) * v.get(xs[0], 0)
            ):
                key = tuple(xs)  # two independent vectors on 2 coordinates span that coordinate plane
            else:
                parallel.append((ku, kv))
                continue
            planes.setdefault(key, set()).update((ku, kv))
    if parallel:
        ku, kv = min(parallel)
        raise InternalKindMismatch(f"labels {ku} and {kv} have parallel normals")
    return {
        triple
        for group in planes.values()
        if len(group) >= 3
        for triple in itertools.combinations(sorted(group), 3)
    }


def triangles(g: SignedGraph) -> list[Triangle]:
    """All dependent label triples, ascending, with kinds.

    Two exact routes run on every call: the pattern route reads the k3,
    d21 and k22 shapes off the graph, and the rank route groups the label
    pairs that touch by the plane their normals span.  If the two triple sets
    differ, InternalKindMismatch names a triple found by one route only (it
    cannot happen for graphs in this edge model, and is kept as a check).
    """
    kinds = _pattern_triangles(g)
    dependent = _rank_triples([_normal(e) for e in g.edges])
    if dependent != kinds.keys():
        triple = min(dependent ^ kinds.keys())
        raise InternalKindMismatch(
            f"triple {triple}: rank route says dependent={triple in dependent}, "
            f"pattern route says kind={kinds.get(triple)}"
        )
    return [Triangle(t, kinds[t]) for t in sorted(kinds)]


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


def _span_f3_row_stream(jobs):
    """Yield e_t ^ boundary(e_abc) for each job ((a, b, c), ts) and each t in ts.

    No t may lie in abc.  boundary(e_abc) = e_bc - e_ac + e_ab, and inserting
    t into each monomial costs the sign (-1)^(labels before t), so each row
    is one of four fixed three-entry patterns, by where t falls against
    a < b < c.  Rows come in job order, then in the order of ts.
    """
    for (a, b, c), ts in jobs:
        for t in ts:
            if t < a:
                yield {(t, b, c): 1, (t, a, c): -1, (t, a, b): 1}
            elif t < b:
                yield {(t, b, c): 1, (a, t, c): 1, (a, t, b): -1}
            elif t < c:
                yield {(b, t, c): -1, (a, t, c): 1, (a, b, t): 1}
            else:
                yield {(b, c, t): 1, (a, c, t): -1, (a, b, t): 1}


def _shared_rows(n: int, tris) -> tuple[list, int]:
    """Row-stream jobs for the span-F3 rows with no private column, and the count of the rest.

    The column {t, x, y} of row e_t ^ boundary(e_T) is shared when another
    triangle holds the pair xy, or t shares a triangle with x or y (see the
    module docstring); only the t whose three columns are all shared get a job.
    Label sets are bitmasks: bit t stands for label t.
    """
    pair_count: dict[tuple[int, int], int] = {}
    partners: dict[int, int] = {}  # label -> the labels of its triangles
    for tri in tris:
        a, b, c = tri.labels
        mask = 1 << a | 1 << b | 1 << c
        for x in tri.labels:
            partners[x] = partners.get(x, 0) | mask
        for pair in ((a, b), (a, c), (b, c)):
            pair_count[pair] = pair_count.get(pair, 0) + 1
    every = (1 << n + 1) - 2  # labels 1..n
    jobs = []
    private = 0
    for tri in tris:
        a, b, c = labels = tri.labels
        near = every & ~(1 << a | 1 << b | 1 << c)
        for x, y in ((b, c), (a, c), (a, b)):
            if pair_count[x, y] == 1:
                near &= partners[x] | partners[y]
        ts = []
        while near:  # set bits, ascending: one step per row kept
            low = near & -near
            ts.append(low.bit_length() - 1)
            near ^= low
        private += n - 3 - len(ts)
        jobs.append((labels, ts))
    return jobs, private


def span_f3_rows(g: SignedGraph) -> list[dict]:
    """Rows e_t ^ boundary(e_T) with t outside the triangle T."""
    jobs = ((t.labels, [s for s in range(1, g.n + 1) if s not in t.labels]) for t in triangles(g))
    return list(_span_f3_row_stream(jobs))


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


def _dim_a2(g: SignedGraph, tris) -> int:
    """dim A^2 as the exact boundary-row rank.  On a B2-free graph it must equal
    C(n,2) - #triangles; else some rank-2 flat has over three hyperplanes: RankMismatch.
    """
    ranked = comb(g.n, 2) - exact_rank([boundary(t.labels) for t in tris])
    counted = comb(g.n, 2) - len(tris)
    if not g._b2 and ranked != counted:
        raise RankMismatch(
            f"triangle count gives dim A^2 = {counted} but boundary rows give {ranked}"
        )
    return ranked


def rank_side(g: SignedGraph) -> tuple[int, int, int, int]:
    """(#triangles, dim A^2, dim span F3, dim I3_2) of one graph, from two eliminations.

    dim I3_2 is not dim span F3 + #triangles in general: on graphs with B2
    some e_T already lie in span F3.
    """
    tris = triangles(g)
    a2 = _dim_a2(g, tris)
    jobs, private = _shared_rows(g.n, tris)
    # streamed: each row is built when the elimination reads it, never all at once
    span, ideal = rank._eliminate(
        [_span_f3_row_stream(jobs), ({t.labels: 1} for t in tris)], None
    )
    return len(tris), a2, private + span, private + ideal


def dim_a2(g: SignedGraph) -> int:
    """Degree-2 algebra dimension C(n,2) - #triangles, rank-checked; needs a B2-free graph."""
    if g.contains_b2():
        raise B2Present("dim A^2 by triangle count needs a graph with no B2 sub-arrangement")
    return _dim_a2(g, triangles(g))


def dim_a2_rank(g: SignedGraph) -> int:
    """Degree-2 algebra dimension from the exact boundary-row rank; any graph."""
    return _dim_a2(g, triangles(g))


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
    _count, a2, _span, ideal = rank_side(g)
    return phi3_from_dims(g.n, a2, ideal)
