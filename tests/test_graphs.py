import numpy as np
import pytest
from hypothesis import given, settings

from falk3 import (
    DuplicateEdge,
    LabelOutOfRange,
    NotACycle,
    SelfPairEdge,
    SignedGraph,
    UnderlyingGraphMismatch,
    VertexOutOfRange,
    bigint_rank,
    complete_doubled,
    complete_positive,
    loop,
    neg,
    pos,
)
from helpers import b2_graph, graphs_with_sigma, hub4_mixed, signed_graphs

import itertools


def test_build_assigns_labels_in_order(looped_wedge):
    g = looped_wedge
    assert g.ell == 3
    assert g.n == 6
    assert [e.kind for e in g.edges] == ["+", "+", "+", "-", "-", "o"]
    assert g.edge(1).pair == (1, 2)
    assert g.edge(6).pair == (2, 2)


def test_build_empty_graph():
    g = SignedGraph(1, [])
    assert g.n == 0
    assert not g.contains_b2()


def test_build_normalizes_endpoint_order():
    g = SignedGraph(3, [pos(3, 1)])
    assert g.edge(1).pair == (1, 3)


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateEdge):
        SignedGraph(2, [pos(1, 2), pos(2, 1)])
    with pytest.raises(DuplicateEdge):
        SignedGraph(2, [loop(1), loop(1)])


def test_build_rejects_bad_vertices():
    with pytest.raises(VertexOutOfRange):
        SignedGraph(2, [pos(1, 3)])
    with pytest.raises(VertexOutOfRange):
        SignedGraph(2, [loop(0)])
    with pytest.raises(SelfPairEdge):
        SignedGraph(2, [pos(1, 1)])


def test_normal_vectors(looped_wedge):
    g = looped_wedge
    assert g.normal_vector(1).tolist() == [1, -1, 0]   # + 1 2
    assert g.normal_vector(4).tolist() == [1, 1, 0]    # - 1 2
    assert g.normal_vector(6).tolist() == [0, 1, 0]    # o 2
    assert g.normal_matrix().shape == (6, 3)
    with pytest.raises(LabelOutOfRange):
        g.normal_vector(7)
    with pytest.raises(LabelOutOfRange):
        g.normal_vector(0)


def test_cycle_signs(looped_wedge):
    g = looped_wedge
    assert g.cycle_sign([1, 2, 3]) == 1
    assert g.cycle_sign([3, 4, 5]) == 1
    assert g.cycle_sign([1, 5, 3]) == -1
    assert g.cycle_sign([1, 4]) == -1          # digon on a doubled pair
    assert hub4_mixed().cycle_sign([1, 9, 10]) == 1


def test_cycle_sign_rejects_non_cycles(looped_wedge):
    g = looped_wedge
    with pytest.raises(NotACycle):
        g.cycle_sign([1])
    with pytest.raises(NotACycle):
        g.cycle_sign([1, 2])                    # path 1-2-3, not closed
    with pytest.raises(NotACycle):
        g.cycle_sign([1, 2, 6])                 # contains a loop


def test_switch_example(looped_wedge):
    g = looped_wedge.switch((-1, 1, 1))
    assert [e.kind for e in g.edges] == ["-", "+", "-", "+", "-", "o"]
    assert [e.pair for e in g.edges] == [(1, 2), (2, 3), (1, 3), (1, 2), (2, 3), (2, 2)]


def test_switch_validates_sigma(looped_wedge):
    with pytest.raises(ValueError):
        looped_wedge.switch((1, -1))
    with pytest.raises(ValueError):
        looped_wedge.switch((1, 0, 1))


@given(graphs_with_sigma())
def test_switch_is_an_involution(gs):
    g, sigma = gs
    assert g.switch(sigma).switch(sigma) == g
    assert g.switch([1] * g.ell) == g


@given(graphs_with_sigma(min_ell=3, max_ell=5))
@settings(max_examples=40)
def test_switch_preserves_cycle_signs(gs):
    g, sigma = gs
    h = g.switch(sigma)
    non_loops = [k for k in range(1, g.n + 1) if not g.edge(k).is_loop]
    for a, b, c in itertools.combinations(non_loops, 3):
        try:
            s = g.cycle_sign([a, b, c])
        except NotACycle:
            continue
        assert h.cycle_sign([a, b, c]) == s


def test_switching_equivalence_triangle():
    k3 = complete_positive(3)
    assert k3.is_switching_equivalent(k3.switch((1, -1, -1)))
    one_neg = SignedGraph(3, [pos(1, 2), pos(1, 3), neg(2, 3)])
    assert not k3.is_switching_equivalent(one_neg)


def test_switching_equivalence_needs_same_underlying_graph():
    k3 = complete_positive(3)
    with pytest.raises(UnderlyingGraphMismatch):
        k3.is_switching_equivalent(complete_positive(4))
    with pytest.raises(UnderlyingGraphMismatch):
        k3.is_switching_equivalent(complete_positive(3, loops=(1,)))
    with pytest.raises(UnderlyingGraphMismatch):
        k3.is_switching_equivalent(complete_doubled(3))


@given(graphs_with_sigma(max_ell=5))
@settings(max_examples=60)
def test_switching_orbit_members_are_equivalent(gs):
    g, sigma = gs
    assert g.is_switching_equivalent(g.switch(sigma))
    assert g.switch(sigma).is_switching_equivalent(g)


def test_doubled_pairs_compare_equal_under_any_switching():
    # doubled pairs always carry both signs, so they never separate classes
    g1 = complete_doubled(3)
    assert g1.is_switching_equivalent(g1.switch((-1, 1, -1)))


def test_doubled_pair_bridging_two_single_edges():
    # the doubled pair constrains nothing, so flipping vertex 2 must still
    # land in the same class even though it resigns the 2-3 edge
    g = SignedGraph(3, [pos(1, 2), neg(1, 2), pos(1, 3), pos(2, 3)])
    h = g.switch((1, -1, 1))
    assert h.signs_on(2, 3) == (-1,)
    assert g.is_switching_equivalent(h)
    unbalanced = SignedGraph(3, [pos(1, 2), neg(1, 2), pos(1, 3), neg(2, 3)])
    assert g.is_switching_equivalent(unbalanced)  # same orbit: no cycle over single pairs
    isolated = SignedGraph(4, [pos(1, 2), neg(1, 2), pos(3, 4)])
    assert isolated.is_switching_equivalent(isolated.switch((1, -1, -1, 1)))


def test_b2_detection():
    g = b2_graph()
    assert g.contains_b2()
    assert g.b2_witnesses() == [(1, 2, 3, 4)]
    assert not hub4_mixed().contains_b2()
    assert not complete_doubled(3, loops=(1,)).contains_b2()
    assert complete_doubled(2, loops=(1, 2)).contains_b2()


def test_b2_witnesses_list_every_pattern():
    g = complete_doubled(3, loops=(1, 2, 3))
    assert len(g.b2_witnesses()) == 3


def test_b2_witnesses_are_a_fresh_list_per_call():
    g = b2_graph()
    got = g.b2_witnesses()
    got.clear()
    got.append((9, 9, 9, 9))
    assert g.b2_witnesses() == [(1, 2, 3, 4)]
    assert g.contains_b2()


@given(graphs_with_sigma(max_ell=4))
@settings(max_examples=25, deadline=None)
def test_switching_preserves_the_matroid(gs):
    # rank of every label subset of size <= 4 is unchanged
    g, sigma = gs
    h = g.switch(sigma)
    mg, mh = g.normal_matrix(), h.normal_matrix()
    labels = range(g.n)
    for size in (1, 2, 3, 4):
        for sub in itertools.combinations(labels, size):
            rows = list(sub)
            assert bigint_rank(mg[rows].tolist()) == bigint_rank(mh[rows].tolist())


def test_graph_equality_and_hash(looped_wedge):
    other = SignedGraph(3, list(looped_wedge.edges))
    assert other == looped_wedge
    assert hash(other) == hash(looped_wedge)
    assert other != complete_positive(3)


def test_signs_on_and_loop_queries(hub4):
    assert hub4.signs_on(1, 2) == (1, -1)
    assert hub4.signs_on(2, 4) == (1,)
    assert hub4.signs_on(4, 2) == (1,)
    assert hub4.signs_on(1, 1) == ()  # no self pairs
    assert hub4.has_loop(1) and not hub4.has_loop(2)
    assert hub4.loop_vertices() == (1,)
    assert hub4.edge_label(2, 3, -1) == 10
    assert hub4.loop_label(1) == 11


def test_normal_matrix_int64(hub4):
    m = hub4.normal_matrix()
    assert m.dtype == np.int64
    assert sorted(set(m.ravel().tolist())) == [-1, 0, 1]
