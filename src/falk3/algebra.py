"""Degree-2/3 exterior algebra rows and the rank-based invariant oracle.

Monomials e_S are keyed by ascending tuples of hyperplane labels; sparse
vectors are plain dicts mapping tuple -> integer coefficient.  A "triangle"
is a dependent label triple, i.e. three hyperplanes of rank 2; every such
triple is one of three local patterns, and the pattern route is checked
against an exact rank computation for every triple.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import B2Present, InternalKindMismatch, RankMismatch
from .graphs import SignedGraph
from .rank import bigint_rank, exact_rank


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


def _dependent(g: SignedGraph, triple) -> bool:
    """Exact-rank route: the three normal vectors span at most a plane."""
    es = [g.edge(k) for k in triple]
    verts = sorted({v for e in es for v in (e.i, e.j)})
    col = {v: c for c, v in enumerate(verts)}
    rows = []
    for e in es:
        r = [0] * len(verts)
        r[col[e.i]] = 1
        if not e.is_loop:
            r[col[e.j]] = -e.sign
        rows.append(r)
    return bigint_rank(rows) <= 2


def _classify(g: SignedGraph, triple) -> str | None:
    """Pattern route: local sign/loop shape of the triple, or None."""
    es = [g.edge(k) for k in triple]
    loops = [e for e in es if e.is_loop]
    links = [e for e in es if not e.is_loop]
    if not loops:
        pairs = {e.pair for e in links}
        verts = {v for e in links for v in e.pair}
        if len(pairs) == 3 and len(verts) == 3:
            if links[0].sign * links[1].sign * links[2].sign == 1:
                return "k3"
    elif len(loops) == 1 and len(links) == 2:
        a, b = links
        # two edges on one pair always carry opposite signs (duplicates are rejected)
        if a.pair == b.pair and loops[0].i in a.pair:
            return "d21"
    elif len(loops) == 2 and len(links) == 1:
        if {e.i for e in loops} == set(links[0].pair):
            return "k22"
    return None


def triangles(g: SignedGraph) -> list[Triangle]:
    """All dependent label triples, ascending, with kinds.

    Both enumeration routes run on every triple; a disagreement raises
    InternalKindMismatch (it cannot happen for graphs in this edge model,
    and is kept as a diagnostic).
    """
    out = []
    for triple in itertools.combinations(range(1, g.n + 1), 3):
        dep = _dependent(g, triple)
        kind = _classify(g, triple)
        if dep != (kind is not None):
            raise InternalKindMismatch(
                f"triple {triple}: rank route says dependent={dep}, "
                f"pattern route says kind={kind}"
            )
        if dep:
            out.append(Triangle(triple, kind))
    return out


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
