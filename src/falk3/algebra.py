"""Degree-2/3 exterior algebra rows and the rank-based invariant oracle.

Monomials e_S are keyed by ascending tuples of hyperplane labels (the
degree-3 pass uses int keys, see below); sparse vectors are plain dicts
mapping key -> integer coefficient.  A "triangle"
is a dependent label triple, i.e. three hyperplanes of rank 2.  Every such
triple is one of three local patterns (k3, d21, k22), which `triangles()`
reads straight off the graph.  An exact check runs beside it on every call:
`_rank_triples` finds the dependent triples from the list of normals alone.
Every normal has 1 or 2 nonzero entries, so a dependent triple lies on 2
vertices (a coordinate plane) or is one normal on each pair of 3 vertices,
where one lookup of a primitive direction decides it (see there).

`rank_side` is the one rank-side pass per graph: triangles once, as plain
label triples, then the rows that need it are eliminated exactly.  dim A^2
is the boundary-row rank.  The degree-3 pass takes the rows e_t ^
boundary(e_T) with t outside T (span F3) first, then the unit rows +-e_T
that t inside T gives (I3_2); span rows are built from four sign patterns
and streamed in, never all alive at once.  In that pass the monomial e_xyz
(x < y < z) is keyed by the int (x * N + y) * N + z with N = n + 1: every
label is below N, so the key is xyz written in base N, and the keys sort
as the tuples do.  The elimination takes the least key of a row as its
lead, so it picks the same pivots as on tuple keys; an int hashes and
compares faster than a tuple.  `ideal3_rows`, `span_f3_rows`, `wedge` and
`boundary` keep the tuple-keyed generating set as the reference definition
the tests rank against.

Rows with a private column are counted, not eliminated.  If a column of a
row set is nonzero in one row only, any vanishing combination gives that
row the coefficient 0; so if each row of R1 has such a column, rank(all) =
|R1| + rank(the rest).  Which rows have one is read off the triangle list:
how many triangles hold each label pair (`_pair_counts`), and which labels
share a triangle with each label.
- Boundary rows (dim A^2): the row of T has the columns xy for the pairs of
  T, and xy is private when no other triangle holds it.
- Span rows: the row for T = {a < b < c} and t outside T has the columns
  {t, x, y} for the pairs xy of T.  No other row, span or unit, has the
  column {t, x, y} unless another triangle holds xy, or some triangle holds
  tx or ty (a unit row e_txy is the second case).  So dim span F3 =
  #private + rank(the other span rows).
- Unit rows: the column T of e_T lies in a span row e_t ^ boundary(e_T')
  only when T' is another triangle holding a pair of T, and t is the third
  label of T.  So when no other triangle holds a pair of T, e_T adds 1 to
  dim I3_2, and only the other unit rows enter the pass.
On a B2-free graph no pair lies in two triangles (four hyperplanes would
share a rank-2 flat), so every boundary row and every unit row is private:
nothing is eliminated for dim A^2, and dim I3_2 = dim span F3 + #triangles.
On a graph with B2 the rows of the 4-flats stay in both eliminations.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from math import comb, gcd

from . import rank
from .errors import B2Present, InternalKindMismatch, RankMismatch
from .graphs import LOOP, POS, Edge, SignedGraph
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
    for a, b, c in g._vertex_triangles:
        for s_ab in (1, -1):
            l_ab = signed.get((a, b, s_ab))
            if l_ab is None:
                continue
            for s_bc in (1, -1):
                l_bc = signed.get((b, c, s_bc))
                if l_bc is None:
                    continue
                # balanced: the sign on ac is the product of the other two
                l_ac = signed.get((a, c, s_ab * s_bc))
                if l_ac is not None:
                    found[tuple(sorted((l_ab, l_bc, l_ac)))] = "k3"
    for (i, j, s), label in signed.items():
        li, lj = looped.get(i), looped.get(j)
        if li is None and lj is None:
            continue
        if s == 1 and (i, j, -1) in signed:
            for lv in (li, lj):
                if lv is not None:
                    found[tuple(sorted((label, signed[(i, j, -1)], lv)))] = "d21"
        if li is not None and lj is not None:
            found[tuple(sorted((label, li, lj)))] = "k22"
    return found


def _normal(e: Edge) -> tuple[tuple[int, int], ...]:
    """Sparse integer normal of an edge's hyperplane as (vertex, coefficient) items."""
    return ((e.i, 1),) if e.kind == LOOP else ((e.i, 1), (e.j, -1 if e.kind == POS else 1))


def _rank_triples(normals) -> set[tuple[int, int, int]]:
    """Rank route: the label triples (1-based) whose normals span at most a plane.

    Precondition: every normal has 1 or 2 nonzero entries, as graph normals
    do; any other raises InternalKindMismatch.  Two normals are parallel
    exactly when they have the same support and the same primitive
    direction (first entry positive), so one index finds every parallel
    pair; of several, the least is reported.  A normal of two nonzero
    entries on two vertices is unpacked as it is; any other one (a loop, a
    zero entry, a repeated vertex) first drops its zero entries.  A
    direction whose first entry is 1 is primitive already, so gcd runs only
    when it is not: never on graph normals, where every entry is +-1.

    With no two normals parallel, a dependent triple has rank exactly 2, and
    each of its normals is a combination of the other two with both
    coefficients nonzero.  So the three supports have the same union as any
    two of them, and it has at most 3 vertices: two normals with disjoint
    supports on 3 or 4 vertices would make the third nonzero on all of them.
    - On 2 vertices p < q every normal supported there lies in the
      coordinate plane pq: the normals on pq and the loops at p and q.  Every
      3-subset of them is dependent.
    - On 3 vertices s < p < q no loop fits: a loop and any second normal
      span either a coordinate plane, which holds no normal reaching the
      third vertex, or a plane whose other members have 3 entries.  Two
      normals on one pair span its coordinate plane, so the triple is one
      normal on each of sp, sq and pq.  With u = alpha e_s + beta e_p and
      v = gamma e_s + delta e_q, the plane's only direction without e_s is
      gamma u - alpha v = gamma beta e_p - alpha delta e_q, so the triple is
      dependent exactly when the normal on pq is parallel to that vector:
      one lookup of a primitive direction per pair of normals leaving s
      upwards to different vertices.
    The cost follows those pairs.
    """
    lines: dict[tuple, list[int]] = {}  # (vertex,) for a loop, else (s, p, a, b) -> labels
    up: dict[int, list[tuple[int, int, int, int]]] = {}  # s -> (p, label, alpha, beta), p > s
    for k, normal in enumerate(normals, start=1):
        if len(normal) == 2 and normal[0][1] and normal[1][1] and normal[0][0] != normal[1][0]:
            (s, a), (p, b) = normal
            if s > p:
                s, a, p, b = p, b, s, a
        else:
            u = {x: c for x, c in normal if c}
            if len(u) == 1:
                lines.setdefault(tuple(u), []).append(k)
                continue
            if len(u) != 2:
                raise InternalKindMismatch(
                    f"label {k}: normal has {len(u)} nonzero entries; the rank route needs 1 or 2"
                )
            (s, a), (p, b) = sorted(u.items())
        up.setdefault(s, []).append((p, k, a, b))
        if a < 0:
            a, b = -a, -b
        if a != 1:  # a direction (1, b) is primitive already
            d = gcd(a, b)
            a, b = a // d, b // d
        lines.setdefault((s, p, a, b), []).append(k)
    parallel = [tuple(ks[:2]) for ks in lines.values() if len(ks) > 1]
    if parallel:
        ku, kv = min(parallel)
        raise InternalKindMismatch(f"labels {ku} and {kv} have parallel normals")
    found = set()
    for s, ups in up.items():
        # the coordinate plane of each pair s < p: its normals and the loops at s and p
        on_pair: dict[int, list[int]] = {}
        for p, k, _a, _b in ups:
            on_pair.setdefault(p, []).append(k)
        for p, ks in on_pair.items():
            group = ks + lines.get((s,), []) + lines.get((p,), [])
            if len(group) >= 3:
                found.update(itertools.combinations(sorted(group), 3))
        ups.sort()
        for i, (p, ku, alpha, beta) in enumerate(ups):
            for q, kv, gamma, delta in ups[i + 1 :]:
                if q == p:
                    continue
                a, b = gamma * beta, -alpha * delta
                if a < 0:
                    a, b = -a, -b
                if a != 1:
                    d = gcd(a, b)
                    a, b = a // d, b // d
                w = lines.get((p, q, a, b))
                if w:
                    found.add(tuple(sorted((ku, kv, w[0]))))
    return found


def _checked_triangles(g: SignedGraph) -> dict[tuple[int, int, int], str]:
    """Every dependent label triple with its kind, found by both routes (see `triangles`)."""
    kinds = _pattern_triangles(g)
    dependent = _rank_triples([_normal(e) for e in g.edges])
    if dependent != kinds.keys():
        triple = min(dependent ^ kinds.keys())
        raise InternalKindMismatch(
            f"triple {triple}: rank route says dependent={triple in dependent}, "
            f"pattern route says kind={kinds.get(triple)}"
        )
    return kinds


def triangles(g: SignedGraph) -> list[Triangle]:
    """All dependent label triples, ascending, with kinds.

    Two exact routes run on every call: the pattern route reads the k3,
    d21 and k22 shapes off the graph, and the rank route finds the dependent
    triples from the list of normals alone.  If the two triple sets
    differ, InternalKindMismatch names a triple found by one route only (it
    cannot happen for graphs in this edge model, and is kept as a check).
    """
    kinds = _checked_triangles(g)
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


def _pair_counts(tris) -> dict[tuple[int, int], int]:
    """How many triangles hold each label pair that some triangle holds."""
    count: dict[tuple[int, int], int] = {}
    for a, b, c in tris:
        for pair in ((a, b), (a, c), (b, c)):
            count[pair] = count.get(pair, 0) + 1
    return count


def _shared_rows(n: int, tris, pair_count) -> tuple[list, int, list]:
    """The degree-3 rows with no private column: span-F3 row-stream jobs (a
    triangle and the bitmask of its kept t), the count of span rows left
    out, and the triangles whose unit row is kept.

    The column {t, x, y} of row e_t ^ boundary(e_T) is shared when another
    triangle holds the pair xy, or t shares a triangle with x or y; the unit
    row e_T is shared when another triangle holds a pair of T (see the module
    docstring).  Only the t whose three columns are all shared are kept.
    Label sets are bitmasks: bit t stands for label t.
    """
    partners: dict[int, int] = {}  # label -> the labels of its triangles
    for tri in tris:
        a, b, c = tri
        mask = 1 << a | 1 << b | 1 << c
        for x in tri:
            partners[x] = partners.get(x, 0) | mask
    every = (1 << n + 1) - 2  # labels 1..n
    jobs = []
    units = []
    private = 0
    for tri in tris:
        a, b, c = tri
        near = every & ~(1 << a | 1 << b | 1 << c)
        alone = 0
        for x, y in ((b, c), (a, c), (a, b)):
            if pair_count[x, y] == 1:
                near &= partners[x] | partners[y]
                alone += 1
        if alone < 3:
            units.append(tri)
        private += n - 3 - near.bit_count()
        if near:
            jobs.append((tri, near))
    return jobs, private, units


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


def _dim_a2(g: SignedGraph, tris, pair_count) -> int:
    """dim A^2 as the exact boundary-row rank.  On a B2-free graph it must equal
    C(n,2) - #triangles; else some rank-2 flat has over three hyperplanes: RankMismatch.

    Only the rows whose three pairs all lie in other triangles are eliminated;
    each other row has a private column and adds 1 (see the module docstring).
    """
    shared = []
    for t in tris:
        a, b, c = t
        if pair_count[a, b] > 1 and pair_count[a, c] > 1 and pair_count[b, c] > 1:
            shared.append(boundary(t))
    ranked = comb(g.n, 2) - (len(tris) - len(shared)) - (exact_rank(shared) if shared else 0)
    counted = comb(g.n, 2) - len(tris)
    if not g._b2 and ranked != counted:
        raise RankMismatch(
            f"triangle count gives dim A^2 = {counted} but boundary rows give {ranked}"
        )
    return ranked


def rank_side(g: SignedGraph) -> tuple[int, int, int, int]:
    """(#triangles, dim A^2, dim span F3, dim I3_2) of one graph.

    Rows with a private column are counted, not eliminated, so on a B2-free
    graph the one elimination left is the degree-3 pass over the span rows
    whose columns are all shared.  There every unit row e_T is private and
    dim I3_2 = dim span F3 + #triangles; on graphs with B2 some e_T may
    already lie in span F3, and the pass ranks those unit rows.
    """
    tris = sorted(_checked_triangles(g))
    pair_count = _pair_counts(tris)
    a2 = _dim_a2(g, tris, pair_count)
    jobs, private, units = _shared_rows(g.n, tris, pair_count)
    base = g.n + 1
    # streamed: each row is built when the elimination reads it, never all at once
    span, ideal = rank._eliminate(
        [_span_f3_row_stream(jobs, base), ({(a * base + b) * base + c: 1} for a, b, c in units)],
        None,
    )
    return len(tris), a2, private + span, private + ideal + len(tris) - len(units)


def dim_a2(g: SignedGraph) -> int:
    """Degree-2 algebra dimension C(n,2) - #triangles, rank-checked; needs a B2-free graph."""
    if g.contains_b2():
        raise B2Present("dim A^2 by triangle count needs a graph with no B2 sub-arrangement")
    return dim_a2_rank(g)


def dim_a2_rank(g: SignedGraph) -> int:
    """Degree-2 algebra dimension from the exact boundary-row rank; any graph."""
    tris = sorted(_checked_triangles(g))
    return _dim_a2(g, tris, _pair_counts(tris))


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
