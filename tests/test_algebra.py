from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from falk3 import (
    B2Present,
    InternalKindMismatch,
    RankMismatch,
    SignedGraph,
    boundary,
    census,
    complete_doubled,
    complete_positive,
    dim_a2,
    dim_a2_rank,
    dim_i3_2_formula,
    dim_span_f3,
    enumerate_all,
    ideal3_rows,
    loop,
    neg,
    phi3_from_dims,
    phi3_formula,
    phi3_oracle,
    pos,
    rank_i3_2,
    rows_to_matrix,
    span_f3_rows,
    triangles,
    wedge,
)
from falk3 import algebra
from helpers import b2_graph, graphs_with_sigma, signed_graphs, triangles_by_triples


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
    # e_1 - e_2 and 2e_1 - 2e_2 span a line: their wedge is zero
    normals = [((1, 1), (2, -1)), ((1, 1), (3, 1)), ((1, 2), (2, -2))]
    with pytest.raises(InternalKindMismatch, match="labels 1 and 3 have parallel normals"):
        algebra._rank_triples(normals)


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
    assert phi3_oracle(g, dim_a2_value=dim_a2_rank(g)) >= 0


def test_dim_a2_of_edgeless_graph():
    assert dim_a2(SignedGraph(2, [])) == 0


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
    assert phi3_oracle(g, dim_a2_value=dim_a2_rank(g)) == phi3_oracle(
        h, dim_a2_value=dim_a2_rank(h)
    )


def test_direct_sum_identity(looped_wedge, doubled_triangle_loop, hub4):
    for g in (looped_wedge, doubled_triangle_loop, hub4):
        assert rank_i3_2(g) == len(triangles(g)) + dim_span_f3(g)


def test_rows_to_matrix_shape(looped_wedge):
    m = rows_to_matrix(span_f3_rows(looped_wedge))
    assert m.shape[0] == 12
    assert rows_to_matrix([]).shape == (0, 0)
