import hashlib
import itertools
import random
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from falk3 import (
    B2Present,
    GenConfig,
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
    modp_rank,
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
from falk3 import algebra
from helpers import (
    _dependent,
    b2_graph,
    count_eliminations,
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


def test_rank_route_keeps_the_pair_of_two_loops():
    # loops leave no vertex upwards, so no direction is looked up for them; the
    # edge 12 opens the coordinate-plane group of 12, which takes in the loops at
    # both of its vertices
    g = SignedGraph(2, [loop(1), loop(2), pos(1, 2)])
    assert algebra._rank_flats(g.edges)[0] == [(1, 2, 3)]
    assert algebra._rank_flats(g.edges[:2])[0] == []


def test_rank_route_skips_disjoint_pairs_on_three_vertices():
    # a loop and an edge off its vertex span a plane that holds no third normal
    g = SignedGraph(3, [loop(1), pos(2, 3), neg(2, 3), loop(2)])
    assert algebra._rank_flats(g.edges)[0] == [(2, 3, 4)]


@st.composite
def shuffled_graphs(draw):
    """A random signed graph on up to 5 vertices, B2 allowed, with its edge
    list permuted, so that loops and edges interleave in label order."""
    g = draw(signed_graphs(max_ell=5, allow_b2=True))
    return SignedGraph(g.ell, draw(st.permutations(g.edges)))


@given(shuffled_graphs())
@settings(max_examples=400, deadline=None)
def test_rank_route_matches_brute_force_ranks(g):
    # the flats' 3-subsets are the dependent triples, found once each; two
    # rank-2 flats meet in at most one hyperplane; and the 4-flats are the
    # graph's own B2 witnesses, which ties Brieskorn's +#4-flats term to the
    # B2 table without the rank side reading it
    flats = algebra._rank_flats(g.edges)[0]
    assert all(list(flat) == sorted(set(flat)) and len(flat) in (3, 4) for flat in flats)
    triples = [t for flat in flats for t in itertools.combinations(flat, 3)]
    expected = [t for t in itertools.combinations(range(1, g.n + 1), 3) if _dependent(g, t)]
    assert sorted(triples) == expected
    pairs = [pair for flat in flats for pair in itertools.combinations(flat, 2)]
    assert len(pairs) == len(set(pairs))
    assert sorted(flat for flat in flats if len(flat) == 4) == g.b2_witnesses()


@given(shuffled_graphs())
@settings(max_examples=200, deadline=None)
def test_rank_side_kinds_count_the_triangles_by_kind(g):
    # the walk tallies the loops of each coordinate plane it finds; the
    # tallies must match the kinds triangles() reads off each 3-subset
    kinds = algebra.rank_side(g)[4]
    expected = {kind: 0 for kind in ("k3", "d21", "k22")}
    for tri in triangles(g):
        expected[tri.kind] += 1
    assert kinds == expected
    assert sum(kinds.values()) == algebra.rank_side(g)[0]


def test_rank_side_kinds_of_the_coordinate_planes():
    # one plane each: loops at both ends with one normal (a k22), one loop
    # with both normals (a d21), and a B2 (both of each: 2 d21 and 2 k22)
    assert algebra._rank_flats(SignedGraph(2, [pos(1, 2), loop(1), loop(2)]).edges)[1:] == (0, 1)
    assert algebra._rank_flats(SignedGraph(2, [pos(1, 2), neg(1, 2), loop(2)]).edges)[1:] == (1, 0)
    assert algebra.rank_side(complete_doubled(2, loops=(1, 2)))[4] == {"k3": 0, "d21": 2, "k22": 2}
    assert algebra.rank_side(complete_doubled(4, loops=(1,)))[4] == {"k3": 16, "d21": 3, "k22": 0}


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
    with pytest.raises(B2Present, match="refuses B2 graphs by contract; dim_a2_rank answers for any graph"):
        dim_a2(b2_graph())


def test_dim_a2_rank_handles_b2():
    g = b2_graph()
    # four dependent triples but their boundary rows only span rank 3
    assert dim_a2_rank(g) == comb(4, 2) - 3
    assert phi3_oracle(g) >= 0


def test_dim_a2_of_edgeless_graph():
    assert dim_a2(SignedGraph(2, [])) == 0


def _assert_dim_a2_is_the_full_boundary_rank(g):
    # every boundary row ranked: the independent reference for the count by
    # Brieskorn's lemma over the flats that dim_a2_rank uses, which ranks no
    # row at all
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


def _local_bound(g):
    # the holonomy Lie algebra maps onto the sum of the local ones, so phi3
    # is at least the sum over the rank-2 flats X of phi3 of the free group
    # on m_X - 1 letters, ((m - 1)^3 - (m - 1)) / 3: 2 for a 3-flat, 8 for a 4-flat
    return sum(2 if len(flat) == 3 else 8 for flat in algebra._rank_flats(g.edges)[0])


@given(signed_graphs(max_ell=5, allow_b2=True))
@settings(max_examples=60, deadline=None)
def test_oracle_is_at_least_the_local_bound_on_random_graphs(g):
    assert phi3_oracle(g) >= _local_bound(g)


@pytest.mark.parametrize(
    "g, bound",
    [
        *[(complete_doubled(ell, loops=range(1, ell + 1)), b) for ell, b in zip(range(2, 6), (8, 32, 80, 160))],
        *[(complete_positive(ell), b) for ell, b in zip(range(2, 7), (0, 2, 8, 20, 40))],
    ],
    ids=[f"B{ell}" for ell in range(2, 6)] + [f"A{ell}" for ell in range(2, 7)],
)
def test_local_bound_on_the_fiber_type_families(g, bound):
    assert _local_bound(g) == bound
    assert phi3_oracle(g) >= bound


def test_local_bound_is_tight_exactly_without_the_non_local_classes():
    # on a B2-free graph the paper's formula less 2 #triangles is
    # 2 (k4 + d3 + k33 + g_circ) + 5 d31, so the bound is met exactly when
    # those five counts vanish
    for g in enumerate_all(3):
        c = census(g)
        local = c.k4 == c.d3 == c.k33 == c.g_circ == c.d31 == 0
        assert (phi3_oracle(g) == _local_bound(g)) == local, g.edges


@st.composite
def disjoint_unions(draw):
    """Two graphs on up to 4 vertices each, B2 allowed, the second one's
    vertices shifted past the first's, with all edges shuffled together."""
    g = draw(signed_graphs(max_ell=4, allow_b2=True))
    h = draw(signed_graphs(max_ell=4, allow_b2=True))
    shifted = [e._replace(i=e.i + g.ell, j=e.j + g.ell) for e in h.edges]
    union = SignedGraph(g.ell + h.ell, draw(st.permutations(g.edges + tuple(shifted))))
    return g, h, union


@given(disjoint_unions())
@settings(max_examples=60, deadline=None)
def test_oracle_adds_over_disjoint_unions(parts):
    # graphs on disjoint vertex sets give a product arrangement, whose group
    # is the product of the two, so phi3 adds
    g, h, union = parts
    assert phi3_oracle(union) == phi3_oracle(g) + phi3_oracle(h)


def _assert_one_pass_matches_two_eliminations(g):
    # every row ranked, none skipped: rank_side leaves out the span rows with a private column
    span_rows = span_f3_rows(g)
    both = span_rows + [{t.labels: 1} for t in triangles(g)]
    expected = (exact_rank(span_rows), exact_rank(both))
    assert algebra.rank_side(g)[2:4] == expected
    assert (dim_span_f3(g), rank_i3_2(g)) == expected
    ideal = exact_rank(ideal3_rows(g))
    assert ideal == expected[1]
    # a B2 flat's 4 unit rows lie in span F3 (see the 4-flat lemma test)
    assert ideal == exact_rank(span_rows) + len(triangles(g)) - 4 * len(g.b2_witnesses())
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
    calls = count_eliminations(monkeypatch)
    count, _a2, span, ideal, _kinds = algebra.rank_side(hub4)
    assert (count, span, ideal) == (12, 83, 95)
    # B2-free: every unit row has a private column and dim A^2 is counted,
    # so the one elimination ranks only the shared span rows
    assert len(calls) == 1
    p, sizes = calls[0]
    assert p is None
    assert set(sizes) == {3}
    assert 0 < len(sizes) < count * (hub4.n - 3) == 96

    calls.clear()
    g = complete_doubled(4, loops=(1, 2))
    assert algebra.rank_side(g)[:4] == (24, comb(14, 2) - 24 + 1, 212, 232)
    # with B2, still one elimination of shared span rows and no unit row:
    # the B2 flat's unit rows lie in the span of its span rows
    assert len(calls) == 1
    p, sizes = calls[0]
    assert p is None
    assert set(sizes) == {3}
    assert 0 < len(sizes) < 24 * (g.n - 3)


@pytest.mark.parametrize(
    "ell, seeds, span_rows, all_span_rows",
    [(7, 100, 1950, 17958), (5, 500, 2498, 13864)],
)
def test_rank_side_eliminates_few_rows_on_the_benchmark_pools(monkeypatch, ell, seeds, span_rows, all_span_rows):
    # the verify-ell7 and verify-ell5 pools (one sampler graph per seed); the
    # value pins cannot see a walk that keeps more rows than it needs, this
    # can: 19.5 of 179.6 span rows per graph at 7 vertices, 5.0 of 27.7 at 5
    calls = count_eliminations(monkeypatch)
    every = 0
    for seed in range(seeds):
        for g in sample_stream(GenConfig(ell=ell, seed=seed)):
            count, *_ = algebra.rank_side(g)
            every += count * (g.n - 3)
    assert len(calls) == seeds
    assert {p for p, _sizes in calls} == {None}
    assert sum(len(sizes) for _p, sizes in calls) == span_rows
    assert all(set(sizes) <= {3} for _p, sizes in calls)
    assert every == all_span_rows


def test_ideal_dim_is_not_span_plus_triangles_with_b2():
    # the B2 flat's four unit rows e_T already lie in span F3, so
    # dim I3_2 = dim span F3 + #triangles - 4 #4-flats = 212 + 24 - 4 * 1
    g = complete_doubled(4, loops=(1, 2))
    assert g.contains_b2()
    assert len(triangles(g)) == 24
    assert len(g.b2_witnesses()) == 1
    assert dim_span_f3(g) == 212
    assert rank_i3_2(g) == exact_rank(ideal3_rows(g)) == 232 == 212 + 24 - 4 * 1 != 212 + 24


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


# sha256 over the first four values of rank_side(g) (the counts, not the
# kinds) and the (labels, kind) of triangles(g), one line per graph, for
# enumerate_all(3), then doubled and all-positive K3-K5 with loops
# (), (1,), (1, 2) and every vertex, then _random_b2_graphs(200, seed=12);
# recorded with the earlier rank side (a rank route that keyed every touching
# label pair, and eliminations over every boundary and unit row), so the pin
# compares the current one against an independent implementation.
_RANK_SIDE_SHA256 = "82a69f54b5bb3039c53e26de237ebcb2ca760581a803a9ce91b85ddea29f2031"


def _assert_four_flat_span_rows_span_its_unit_rows(flat):
    # for t in X let T = X - t and f_t = (-1)^(position of t) e_T; the Leibniz
    # rule gives (-1)^(position of t) (e_t ^ boundary(e_T)) = f_t - sum of f_s,
    # so the four rows form I - J in the basis f, with determinant -3
    rows = [wedge(t, boundary(tuple(x for x in flat if x != t))) for t in flat]
    f = [{tuple(x for x in flat if x != t): (-1) ** pos} for pos, t in enumerate(flat)]
    for pos, row in enumerate(rows):
        # f_t - sum of f_s is minus the other three f_s
        expected = {mono: -v for s, f_s in enumerate(f) if s != pos for mono, v in f_s.items()}
        assert {mono: (-1) ** pos * v for mono, v in row.items()} == expected
    units = [{tuple(x for x in flat if x != t): 1} for t in flat]
    assert exact_rank(rows) == exact_rank(rows + units) == 4
    # over Z/3 the determinant vanishes, and with it the lemma
    assert modp_rank(rows, 3) == 3


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_four_flat_span_rows_span_its_unit_rows_on_doubled(ell):
    g = complete_doubled(ell, loops=range(1, ell + 1))
    witnesses = g.b2_witnesses()
    assert len(witnesses) == comb(ell, 2)
    for flat in witnesses:
        _assert_four_flat_span_rows_span_its_unit_rows(flat)


def test_four_flat_span_rows_span_its_unit_rows_on_random_b2_graphs():
    for g in _random_b2_graphs(100, seed=5):
        for flat in g.b2_witnesses():
            _assert_four_flat_span_rows_span_its_unit_rows(flat)


def test_rank_side_is_pinned_by_value():
    graphs = list(enumerate_all(3))
    for ell in (3, 4, 5):
        for loops in ((), (1,), (1, 2), tuple(range(1, ell + 1))):
            graphs += [complete_doubled(ell, loops), complete_positive(ell, loops)]
    graphs += _random_b2_graphs(200, seed=12)
    h = hashlib.sha256()
    for g in graphs:
        tris = [(t.labels, t.kind) for t in triangles(g)]
        h.update(f"{algebra.rank_side(g)[:4]} {tris}\n".encode())
    # raise, not assert: the pin must hold under python -O too
    if len(graphs) != 651 or h.hexdigest() != _RANK_SIDE_SHA256:
        raise AssertionError(f"rank side of {len(graphs)} graphs hashes to {h.hexdigest()}")
