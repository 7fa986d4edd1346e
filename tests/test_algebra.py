import hashlib
import itertools
import random
import re
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from falk3 import (
    B2Present,
    GenConfig,
    InternalKindMismatch,
    RankMismatch,
    SignedGraph,
    bigint_rank,
    boundary,
    census,
    complete_doubled,
    complete_positive,
    dim_a2,
    dim_a2_rank,
    dim_i3_2_formula,
    dim_span_f3,
    enumerate_all,
    exact_rank,
    ideal3_rows,
    loop,
    neg,
    phi3_from_dims,
    phi3_formula,
    phi3_oracle,
    pos,
    rank_i3_2,
    rows_to_matrix,
    sample_stream,
    span_f3_rows,
    triangles,
    wedge,
)
from falk3 import algebra, rank
from helpers import (
    b2_graph,
    graph_from_states,
    graphs_with_sigma,
    signed_graphs,
    triangles_by_triples,
)


def test_boundary_of_a_triple():
    assert boundary((1, 2, 3)) == {(2, 3): 1, (1, 3): -1, (1, 2): 1}
    assert boundary((2, 5, 7)) == {(5, 7): 1, (2, 7): -1, (2, 5): 1}


def test_boundary_rejects_unsorted():
    with pytest.raises(ValueError):
        boundary((2, 1, 3))
    with pytest.raises(ValueError):
        boundary((1, 1, 2))


@given(st.sets(st.integers(1, 30), min_size=2, max_size=5))
def test_boundary_squares_to_zero(labels):
    sub = tuple(sorted(labels))
    acc = {}
    for mono, coeff in boundary(sub).items():
        for mono2, coeff2 in boundary(mono).items():
            acc[mono2] = acc.get(mono2, 0) + coeff * coeff2
    assert all(v == 0 for v in acc.values())


def test_wedge_examples():
    assert wedge(4, boundary((1, 2, 3))) == {(2, 3, 4): 1, (1, 3, 4): -1, (1, 2, 4): 1}
    assert wedge(2, boundary((1, 4, 6))) == {(2, 4, 6): 1, (1, 2, 6): 1, (1, 2, 4): -1}


def test_wedge_inside_the_triple_degenerates():
    # e_t ^ boundary(e_T) with t in T collapses back to e_T itself: the
    # boundary sign at position k cancels the insertion parity exactly
    for t in (1, 2, 3):
        assert wedge(t, boundary((1, 2, 3))) == {(1, 2, 3): 1}
    assert wedge(4, boundary((2, 4, 9))) == {(2, 4, 9): 1}


def test_triangles_looped_wedge(looped_wedge):
    tris = triangles(looped_wedge)
    assert [(t.labels, t.kind) for t in tris] == [
        ((1, 2, 3), "k3"),
        ((1, 4, 6), "d21"),
        ((2, 5, 6), "d21"),
        ((3, 4, 5), "k3"),
    ]


def test_triangles_doubled_triangle_loop(doubled_triangle_loop):
    tris = triangles(doubled_triangle_loop)
    assert {t.labels for t in tris} == {
        (1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5), (1, 4, 7), (2, 5, 7),
    }
    kinds = {t.labels: t.kind for t in tris}
    assert kinds[(1, 4, 7)] == "d21"
    assert kinds[(2, 5, 7)] == "d21"
    assert sum(1 for t in tris if t.kind == "k3") == 4


def test_triangles_empty_cases():
    assert triangles(SignedGraph(2, [pos(1, 2)])) == []
    assert triangles(SignedGraph(3, [pos(1, 2), pos(2, 3), neg(1, 3)])) == []  # unbalanced


def test_triangles_of_b2_flat_are_still_classified():
    tris = triangles(b2_graph())
    assert {t.kind for t in tris} == {"d21", "k22"}
    assert len(tris) == 4


def test_triangles_match_per_triple_reference():
    graphs = list(enumerate_all(3))
    for ell in range(2, 6):
        graphs += [complete_doubled(ell, loops) for loops in ((), (1,), (1, 2))]
    for g in graphs:
        assert triangles(g) == triangles_by_triples(g), g.edges


@given(signed_graphs(max_ell=5, allow_b2=True))
@settings(max_examples=60, deadline=None)
def test_triangles_match_per_triple_reference_on_random_graphs(g):
    assert triangles(g) == triangles_by_triples(g)


def test_triangles_raise_when_the_pattern_route_drops_a_triangle(monkeypatch, looped_wedge):
    real = algebra._pattern_triangles

    def dropping(g):
        found = real(g)
        del found[(1, 4, 6)]
        return found

    monkeypatch.setattr(algebra, "_pattern_triangles", dropping)
    with pytest.raises(InternalKindMismatch, match=r"triple \(1, 4, 6\): rank route says dependent=True"):
        triangles(looped_wedge)


def test_triangles_raise_when_the_pattern_route_adds_a_triangle(monkeypatch, looped_wedge):
    real = algebra._pattern_triangles

    def adding(g):
        return {**real(g), (1, 2, 4): "k3"}

    monkeypatch.setattr(algebra, "_pattern_triangles", adding)
    with pytest.raises(InternalKindMismatch, match=r"triple \(1, 2, 4\): rank route says dependent=False"):
        triangles(looped_wedge)


def test_parallel_normals_raise():
    # -e_1 + e_2 and e_1 - e_2 span a line: their wedge is zero
    normals = [((1, -1), (2, 1)), ((1, 1), (3, 1)), ((1, 1), (2, -1))]
    with pytest.raises(InternalKindMismatch, match="labels 1 and 3 have parallel normals"):
        algebra._rank_triples(normals)


def test_rank_route_keeps_the_pair_of_two_loops():
    # loops leave no vertex upwards, so no direction is looked up for them; the
    # edge 12 opens the coordinate-plane group of 12, which takes in the loops at
    # both of its vertices
    normals = [((1, 1),), ((2, 1),), ((1, 1), (2, -1))]
    assert algebra._rank_triples(normals) == {(1, 2, 3)}
    assert algebra._rank_triples(normals[:2]) == set()


def test_rank_route_reports_the_least_parallel_pair():
    # vertex 1 is met first and holds the parallel pair (3, 4); (2, 5) is less
    normals = [
        ((1, 1),),
        ((2, 1), (3, -1)),
        ((1, 1), (4, -1)),
        ((4, 1), (1, -1)),
        ((2, -1), (3, 1)),
    ]
    with pytest.raises(InternalKindMismatch, match="labels 2 and 5 have parallel normals"):
        algebra._rank_triples(normals)


def test_rank_route_skips_disjoint_pairs_on_three_vertices():
    # a loop and an edge off its vertex span a plane that holds no third normal
    normals = [((1, 1),), ((2, 1), (3, -1)), ((2, 1), (3, 1)), ((2, 1),)]
    assert algebra._rank_triples(normals) == {(2, 3, 4)}


def _assert_refused(normals, k):
    # the message names label k and its normal
    bad = re.escape(str(normals[k - 1]))
    with pytest.raises(InternalKindMismatch, match=rf"^label {k}: normal {bad} is not"):
        algebra._rank_triples(normals)


def test_rank_route_refuses_a_normal_with_three_entries():
    # labels 2 and 3 are both bad; the least is named
    _assert_refused([((1, 1), (2, -1)), ((1, 1), (2, 1), (3, 1)), ((1, 1), (2, 1), (3, 1))], 2)


@pytest.mark.parametrize("zero_entry_first", [False, True])
def test_rank_route_refuses_a_zero_entry(zero_entry_first):
    # no graph normal has a zero entry, not even where dropping it leaves a loop
    loop_at_2 = ((1, 0), (2, 1)) if zero_entry_first else ((2, 1), (1, 0))
    _assert_refused([((1, 1),), ((1, 1), (2, -1)), loop_at_2, ((1, 0),)], 3)


@pytest.mark.parametrize(
    "bad",
    [((2, -2),), ((1, 1), (2, 2)), ((1, -2), (3, -2)), ((2, 1), (2, -1)), ((3, 1), (3, 1)), ()],
)
def test_rank_route_refuses_any_other_normal_no_graph_has(bad):
    # an entry of +-2, a repeated vertex or no entry; labels 4 and 5 are both
    # bad and the least is named, before the parallel pair (1, 2) is reported
    _assert_refused([((1, 1), (3, -1)), ((3, 1), (1, -1)), ((2, 1),), bad, ((1, 2), (2, -1))], 4)


def _closing_normal(u, v):
    """For u on the vertices sp and v on sq, the normal on pq that lies in
    their plane; None unless u and v are on two vertices each and share one."""
    du, dv = dict(u), dict(v)
    shared = du.keys() & dv.keys()
    if len(du) != 2 or len(dv) != 2 or len(shared) != 1:
        return None
    (s,) = shared
    (p,) = du.keys() - shared
    (q,) = dv.keys() - shared
    return ((p, dv[s] * du[p]), (q, -du[s] * dv[q]))  # dv[s] u - du[s] v, which is 0 at s


@st.composite
def normal_lists(draw):
    """Up to 12 graph normals on up to 6 vertices: 1-2 entries of +-1 on
    distinct vertices, in either vertex order.

    Parallel pairs (same support, same sign ratio) are allowed; about half
    the lists skip any normal parallel to an earlier one, so that dependent
    triples, not the parallel check, decide the outcome.  Up to 3 normals,
    each with either overall sign, close a dependent triple on 3 vertices,
    which random draws rarely make; at least one does whenever some pair of
    drawn normals has one (`_closing_normal`).
    """
    ell = draw(st.integers(1, 6))
    skip_parallel = draw(st.booleans())
    sign = st.sampled_from((1, -1))
    drawn = []
    for _ in range(draw(st.integers(0, 9))):
        support = draw(st.lists(st.integers(1, ell), min_size=1, max_size=2, unique=True))
        drawn.append(tuple((x, draw(sign)) for x in support))
    closing = [w for u, v in itertools.combinations(drawn, 2) if (w := _closing_normal(u, v))]
    for _ in range(draw(st.integers(1, 3)) if closing else 0):
        w, c = draw(st.sampled_from(closing)), draw(sign)
        drawn.insert(draw(st.integers(0, len(drawn))), tuple((x, c * a) for x, a in w))
    out = []
    for u in drawn:
        if not (skip_parallel and any(_brute_force_rank([u, v], (1, 2)) <= 1 for v in out)):
            out.append(u)
    return out


def _brute_force_rank(normals, labels):
    vertices = sorted({x for k in labels for x, _c in normals[k - 1]})
    col = {x: i for i, x in enumerate(vertices)}
    rows = []
    for k in labels:
        row = [0] * len(vertices)
        for x, c in normals[k - 1]:
            row[col[x]] = c
        rows.append(row)
    return bigint_rank(rows)


@given(normal_lists())
@settings(max_examples=400, deadline=None)
def test_rank_route_matches_brute_force_ranks(normals):
    labels = range(1, len(normals) + 1)
    rank1 = [p for p in itertools.combinations(labels, 2) if _brute_force_rank(normals, p) <= 1]
    if rank1:
        ku, kv = min(rank1)
        with pytest.raises(InternalKindMismatch, match=rf"^labels {ku} and {kv} have parallel normals$"):
            algebra._rank_triples(normals)
    else:
        expected = {
            t for t in itertools.combinations(labels, 3) if _brute_force_rank(normals, t) <= 2
        }
        assert algebra._rank_triples(normals) == expected


def _reference_span_rows(g, tris):
    return [
        wedge(t, boundary(T.labels)) for T in tris for t in range(1, g.n + 1) if t not in T.labels
    ]


def _assert_span_rows_match_reference(g):
    tris = triangles(g)
    rows = span_f3_rows(g)
    assert rows == _reference_span_rows(g, tris)
    assert all(len(row) == 3 and set(row.values()) <= {1, -1} for row in rows)
    # the elimination's rows: the same, with e_xyz keyed by (x*base + y)*base + z,
    # and the int keys sort as the tuples do, so it picks the same pivots
    base = g.n + 1
    every = (1 << base) - 2
    jobs = [(t.labels, every & ~sum(1 << x for x in t.labels)) for t in tris]
    streamed = list(algebra._span_f3_row_stream(jobs, base))

    def digits(k):
        return (k // base // base, k // base % base, k % base)

    assert [{digits(k): v for k, v in row.items()} for row in streamed] == rows
    keys = sorted({k for row in streamed for k in row})
    assert [digits(k) for k in keys] == sorted(map(digits, keys))


@given(signed_graphs(max_ell=5, allow_b2=True))
@settings(max_examples=60, deadline=None)
def test_span_rows_match_wedge_of_boundary_on_random_graphs(g):
    _assert_span_rows_match_reference(g)


@pytest.mark.parametrize("loops", [(), (1,), (1, 2)])
@pytest.mark.parametrize("ell", [3, 4, 5])
def test_span_rows_match_wedge_of_boundary_on_doubled(ell, loops):
    _assert_span_rows_match_reference(complete_doubled(ell, loops=loops))


def test_row_counts(looped_wedge, doubled_triangle_loop):
    assert len(span_f3_rows(looped_wedge)) == 12
    assert len(ideal3_rows(looped_wedge)) == 24
    assert len(span_f3_rows(doubled_triangle_loop)) == 24
    assert len(ideal3_rows(doubled_triangle_loop)) == 42


def test_dims_looped_wedge(looped_wedge):
    assert dim_a2(looped_wedge) == 11
    assert dim_span_f3(looped_wedge) == 10
    assert rank_i3_2(looped_wedge) == 14
    assert phi3_oracle(looped_wedge) == 10


def test_dims_doubled_triangle_loop(doubled_triangle_loop):
    assert dim_a2(doubled_triangle_loop) == 15
    assert dim_span_f3(doubled_triangle_loop) == 19
    assert rank_i3_2(doubled_triangle_loop) == 25
    assert phi3_oracle(doubled_triangle_loop) == 17


def test_dims_remark_fixtures():
    for g in (complete_doubled(3), complete_positive(4), complete_positive(3, loops=(1, 2, 3))):
        assert dim_span_f3(g) == 10
        assert rank_i3_2(g) == 14
        assert phi3_oracle(g) == 10


def test_dims_hub4(hub4):
    assert dim_a2(hub4) == 43
    assert rank_i3_2(hub4) == 95
    assert dim_span_f3(hub4) == 83
    assert phi3_oracle(hub4) == 37


def test_dim_a2_rejects_b2():
    with pytest.raises(B2Present):
        dim_a2(b2_graph())


def test_dim_a2_rank_handles_b2():
    g = b2_graph()
    # four dependent triples but their boundary rows only span rank 3
    assert dim_a2_rank(g) == comb(4, 2) - 3
    assert phi3_oracle(g) >= 0


def test_dim_a2_of_edgeless_graph():
    assert dim_a2(SignedGraph(2, [])) == 0


def _assert_dim_a2_is_the_full_boundary_rank(g):
    # every boundary row ranked, none counted as private: independent of the
    # private-column rule that dim_a2_rank uses, which leaves no row to rank
    # on a B2-free graph
    rows = [boundary(t.labels) for t in triangles(g)]
    expected = comb(g.n, 2) - exact_rank(rows)
    assert dim_a2_rank(g) == expected
    if len(rows) <= 60:
        assert bigint_rank(rows_to_matrix(rows)) == comb(g.n, 2) - expected


@given(signed_graphs(max_ell=5, allow_b2=True))
@settings(max_examples=60, deadline=None)
def test_dim_a2_is_the_full_boundary_rank_on_random_graphs(g):
    _assert_dim_a2_is_the_full_boundary_rank(g)


@pytest.mark.parametrize("loops", [(), (1,), (1, 2), (1, 2, 3), "all"])
@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_dim_a2_is_the_full_boundary_rank_on_doubled(ell, loops):
    loops = tuple(range(1, ell + 1)) if loops == "all" else loops
    _assert_dim_a2_is_the_full_boundary_rank(complete_doubled(ell, loops=loops))


def test_dim_a2_is_the_full_boundary_rank_on_a_seven_vertex_sample():
    for g in sample_stream(GenConfig(ell=7, seed=5, samples=40)):
        _assert_dim_a2_is_the_full_boundary_rank(g)


def test_span_matches_sympy(looped_wedge, doubled_triangle_loop):
    for g in (looped_wedge, doubled_triangle_loop):
        m = rows_to_matrix(span_f3_rows(g))
        assert dim_span_f3(g) == sympy.Matrix(m.tolist()).rank()
        m = rows_to_matrix(ideal3_rows(g))
        assert rank_i3_2(g) == sympy.Matrix(m.tolist()).rank()


def test_phi3_vanishes_without_triangles():
    for g in (
        SignedGraph(4, [pos(1, 2), pos(2, 3), pos(3, 4)]),
        SignedGraph(3, [pos(1, 2), neg(1, 2), pos(2, 3)]),
        SignedGraph(2, [loop(1), loop(2)]),
    ):
        assert triangles(g) == []
        assert phi3_oracle(g) == 0


def test_rank_identity_arithmetic():
    # with no triangles phi3 reduces to 2C(n+1,3) - nC(n,2) + C(n,3), which is 0
    for n in range(0, 12):
        assert 2 * comb(n + 1, 3) - n * comb(n, 2) + comb(n, 3) == 0
        assert phi3_from_dims(n, comb(n, 2), 0) == 0


def test_phi3_from_inconsistent_dims_raises():
    # dim A^2 = C(n,2) means no triangles, so no ideal: dim I3_2 = 1 is inconsistent
    with pytest.raises(RankMismatch, match="some dimension is wrong"):
        phi3_from_dims(4, comb(4, 2), 1)


@pytest.mark.parametrize(
    "ell, dim_i3_2, dim_span, phi3", [(6, 2155, 2070, 480), (7, 5311, 5165, 967)]
)
def test_dims_large_doubled_with_loop(ell, dim_i3_2, dim_span, phi3):
    # thousands of ideal rows: the rank side against the census closed forms
    g = complete_doubled(ell, loops=(1,))
    c = census(g)
    assert rank_i3_2(g) == dim_i3_2_formula(g, c) == dim_i3_2
    assert dim_span_f3(g) == dim_span
    assert phi3_oracle(g) == phi3_formula(c) == phi3


@given(graphs_with_sigma(max_ell=4))
@settings(max_examples=20, deadline=None)
def test_oracle_is_switching_invariant(gs):
    g, sigma = gs
    h = g.switch(sigma)
    assert phi3_oracle(g) == phi3_oracle(h)


def _assert_one_pass_matches_two_eliminations(g):
    # every row ranked, none skipped: rank_side leaves out the span rows with a private column
    span_rows = span_f3_rows(g)
    both = span_rows + [{t.labels: 1} for t in triangles(g)]
    expected = (exact_rank(span_rows), exact_rank(both))
    assert algebra.rank_side(g)[2:] == expected
    assert (dim_span_f3(g), rank_i3_2(g)) == expected
    assert exact_rank(ideal3_rows(g)) == expected[1]
    if len(both) <= 120:
        dense = (bigint_rank(rows_to_matrix(span_rows)), bigint_rank(rows_to_matrix(both)))
        assert dense == expected


@given(signed_graphs(max_ell=5, allow_b2=True))
@settings(max_examples=60, deadline=None)
def test_one_pass_matches_two_eliminations_on_random_graphs(g):
    _assert_one_pass_matches_two_eliminations(g)


@pytest.mark.parametrize("loops", [(), (1,), (1, 2), "all"])
@pytest.mark.parametrize("ell", [3, 4, 5])
def test_one_pass_matches_two_eliminations_on_doubled(ell, loops):
    loops = tuple(range(1, ell + 1)) if loops == "all" else loops
    _assert_one_pass_matches_two_eliminations(complete_doubled(ell, loops=loops))


def test_rank_side_eliminates_only_rows_without_a_private_column(monkeypatch, hub4):
    calls = []
    eliminate = rank._eliminate

    def counting_eliminate(groups, p):
        groups = [list(rows) for rows in groups]
        calls.append([len(rows) for rows in groups])
        return eliminate(groups, p)

    monkeypatch.setattr(rank, "_eliminate", counting_eliminate)
    count, _a2, span, ideal = algebra.rank_side(hub4)
    assert (count, span, ideal) == (12, 83, 95)
    # B2-free: every boundary row and every unit row has a private column,
    # so the one elimination ranks only the shared span rows
    assert len(calls) == 1
    flat_rows, span_rows, unit_rows = calls[0]
    assert (flat_rows, unit_rows) == (0, 0)
    assert 0 < span_rows < count * (hub4.n - 3) == 96

    calls.clear()
    g = complete_doubled(4, loops=(1, 2))
    assert algebra.rank_side(g) == (24, comb(14, 2) - 24 + 1, 212, 232)
    # still one elimination: the boundary rows and the unit rows of the 4
    # triangles in the B2 flat, with the shared span rows between them
    assert len(calls) == 1
    flat_rows, span_rows, unit_rows = calls[0]
    assert (flat_rows, unit_rows) == (4, 4)
    assert 0 < span_rows < 24 * (g.n - 3)


def test_ideal_dim_is_not_span_plus_triangles_with_b2():
    # some unit rows e_T already lie in span F3, so the pass cannot be an addition
    g = complete_doubled(4, loops=(1, 2))
    assert g.contains_b2()
    assert len(triangles(g)) == 24
    assert dim_span_f3(g) == 212
    assert rank_i3_2(g) == exact_rank(ideal3_rows(g)) == 232 != 212 + 24


def test_direct_sum_identity(looped_wedge, doubled_triangle_loop, hub4):
    for g in (looped_wedge, doubled_triangle_loop, hub4):
        assert rank_i3_2(g) == len(triangles(g)) + dim_span_f3(g)


def test_rows_to_matrix_shape(looped_wedge):
    m = rows_to_matrix(span_f3_rows(looped_wedge))
    assert m.shape[0] == 12
    assert rows_to_matrix([]).shape == (0, 0)


def _random_b2_graphs(count, seed):
    """`count` graphs with B2 on 2-6 vertices, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ell = rng.randint(2, 6)
        states = [rng.randrange(4) for _ in range(ell * (ell - 1) // 2)]
        g = graph_from_states(ell, states, [rng.random() < 0.5 for _ in range(ell)])
        if g.contains_b2():
            out.append(g)
    return out


# sha256 over rank_side(g) and the (labels, kind) of triangles(g), one line per
# graph, for enumerate_all(3), then doubled and all-positive K3-K5 with loops
# (), (1,), (1, 2) and every vertex, then _random_b2_graphs(200, seed=12);
# recorded with the earlier rank side (a rank route that keyed every touching
# label pair, and eliminations over every boundary and unit row), so the pin
# compares the current one against an independent implementation.
_RANK_SIDE_SHA256 = "82a69f54b5bb3039c53e26de237ebcb2ca760581a803a9ce91b85ddea29f2031"


def test_rank_side_is_pinned_by_value():
    graphs = list(enumerate_all(3))
    for ell in (3, 4, 5):
        for loops in ((), (1,), (1, 2), tuple(range(1, ell + 1))):
            graphs += [complete_doubled(ell, loops), complete_positive(ell, loops)]
    graphs += _random_b2_graphs(200, seed=12)
    h = hashlib.sha256()
    for g in graphs:
        tris = [(t.labels, t.kind) for t in triangles(g)]
        h.update(f"{algebra.rank_side(g)} {tris}\n".encode())
    # raise, not assert: the pin must hold under python -O too
    if len(graphs) != 651 or h.hexdigest() != _RANK_SIDE_SHA256:
        raise AssertionError(f"rank side of {len(graphs)} graphs hashes to {h.hexdigest()}")
