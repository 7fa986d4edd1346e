"""Degree-2/3 exterior algebra rows and the rank-based invariant oracle.

Monomials e_S are keyed by ascending tuples of hyperplane labels; sparse
vectors are plain dicts mapping tuple -> integer coefficient.  A "triangle"
is a dependent label triple, i.e. three hyperplanes of rank 2.  Every such
triple is one of three local patterns (k3, d21, k22), which `triangles()`
reads straight off the graph.  An exact check runs beside it on every call:
the plane spanned by each of the C(n,2) label pairs, keyed by the primitive
integer wedge of their normals, gives the dependent triples independently.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

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
    for a, b, c in itertools.combinations(range(1, g.ell + 1), 3):
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

    The wedge u ^ v of two integer normals, made primitive and given a
    positive first entry, is a canonical key for the plane they span.
    Labels are grouped by the planes of their pairs; since no two normals
    are parallel, a triple has rank <= 2 exactly when all three lie in one
    group, so the dependent triples are the 3-subsets of each group.
    """
    planes: dict[tuple, set[int]] = {}
    for (ku, u), (kv, v) in itertools.combinations(enumerate(normals, start=1), 2):
        w = {}
        for x, ux in u:
            for y, vy in v:
                if x < y:
                    w[(x, y)] = w.get((x, y), 0) + ux * vy
                elif y < x:
                    w[(y, x)] = w.get((y, x), 0) - ux * vy
        entries = sorted(item for item in w.items() if item[1])
        if not entries:
            raise InternalKindMismatch(f"labels {ku} and {kv} have parallel normals")
        d = gcd(*(c for _, c in entries))
        if entries[0][1] < 0:
            d = -d
        key = tuple((xy, c // d) for xy, c in entries)
        planes.setdefault(key, set()).update((ku, kv))
    return {
        triple
        for group in planes.values()
        if len(group) >= 3
        for triple in itertools.combinations(sorted(group), 3)
    }


def triangles(g: SignedGraph) -> list[Triangle]:
    """All dependent label triples, ascending, with kinds.

    Two exact routes run on every call: the pattern route reads the k3,
    d21 and k22 shapes off the graph, and the rank route groups the C(n,2)
    label pairs by the plane their normals span.  If the two triple sets
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


def ideal3_rows(g: SignedGraph, tris=None) -> list[dict]:
    """Degree-3 generating rows e_t ^ boundary(e_T), all triangles T, all labels t.

    For t inside T the product degenerates to plus or minus e_T; those rows
    are kept, matching the generating set whose span is measured.
    """
    tris = triangles(g) if tris is None else tris
    rows = []
    for tri in tris:
        b = boundary(tri.labels)
        for t in range(1, g.n + 1):
            rows.append(wedge(t, b))
    return rows


def span_f3_rows(g: SignedGraph, tris=None) -> list[dict]:
    """Rows e_t ^ boundary(e_T) with t outside the triangle T."""
    tris = triangles(g) if tris is None else tris
    rows = []
    for tri in tris:
        b = boundary(tri.labels)
        for t in range(1, g.n + 1):
            if t not in tri.labels:
                rows.append(wedge(t, b))
    return rows


def rows_to_matrix(rows) -> np.ndarray:
    """Dense int64 matrix over the ascending-sorted monomials that appear.

    The pipeline ranks the sparse rows directly; this is for inspection and tests.
    """
    cols = sorted({mono for row in rows for mono in row})
    index = {mono: c for c, mono in enumerate(cols)}
    a = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for ri, row in enumerate(rows):
        for mono, coeff in row.items():
            a[ri, index[mono]] = coeff
    return a


# -- dimensions and the invariant -------------------------------------------


def dim_a2(g: SignedGraph, check: bool = True, tris=None) -> int:
    """Degree-2 algebra dimension C(n,2) - #triangles; needs a B2-free graph.

    With check=True the count is verified against the exact rank of the
    boundary rows; a discrepancy would mean some rank-2 flat carries more
    than three hyperplanes.
    """
    if g.contains_b2():
        raise B2Present("dim A^2 by triangle count needs a graph with no B2 sub-arrangement")
    tris = triangles(g) if tris is None else tris
    value = comb(g.n, 2) - len(tris)
    if check:
        ranked = dim_a2_rank(g, tris)
        if ranked != value:
            raise RankMismatch(
                f"triangle count gives dim A^2 = {value} but boundary rows give {ranked}"
            )
    return value


def dim_a2_rank(g: SignedGraph, tris=None) -> int:
    """Degree-2 algebra dimension from the exact boundary-row rank; any graph."""
    tris = triangles(g) if tris is None else tris
    rows = [boundary(t.labels) for t in tris]
    return comb(g.n, 2) - exact_rank(rows)


def rank_i3_2(g: SignedGraph, tris=None) -> int:
    """Exact dimension of the degree-3 part of the ideal generated in degree 2."""
    return exact_rank(ideal3_rows(g, tris))


def dim_span_f3(g: SignedGraph, tris=None) -> int:
    """Exact dimension of the span of the non-degenerate rows."""
    return exact_rank(span_f3_rows(g, tris))


def phi3_from_dims(n: int, dim_a2_value: int, dim_i3_2: int) -> int:
    """Falk's rank formula: 2 C(n+1,3) - n dim A^2 + C(n,3) - dim I3_2."""
    value = 2 * comb(n + 1, 3) - n * dim_a2_value + comb(n, 3) - dim_i3_2
    if value < 0:
        raise RankMismatch(f"negative invariant {value}; some dimension is wrong")
    return value


def phi3_oracle(g: SignedGraph, dim_a2_value: int | None = None) -> int:
    """The third invariant by exact ranks.

    Without an explicit dim A^2 the counting form is used, which requires a
    B2-free graph; passing dim_a2_rank(g) makes the oracle valid for any
    signed graph.
    """
    tris = triangles(g)
    if dim_a2_value is None:
        dim_a2_value = dim_a2(g, tris=tris)
    return phi3_from_dims(g.n, dim_a2_value, rank_i3_2(g, tris))
