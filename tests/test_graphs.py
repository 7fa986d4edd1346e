import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from falk3 import (
    DuplicateEdge,
    Edge,
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
    parse_graph,
    pos,
)
from falk3.errors import EdgeError
from falk3.graphs import LOOP, NEG, POS
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
    # an Edge built directly is normalized too: a loop onto i == j, an edge onto i < j
    g = SignedGraph(3, [Edge(LOOP, 2, 3), Edge(NEG, 3, 1)])
    assert g.edges == (loop(2), neg(1, 3))
    # plain (kind, i, j) triples come out as Edge records
    g = SignedGraph(3, [(POS, 1, 2), (LOOP, 3, 3), (NEG, 3, 1)])
    assert g.edges == (pos(1, 2), loop(3), neg(1, 3))
    assert all(type(e) is Edge for e in g.edges)


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateEdge):
        SignedGraph(2, [pos(1, 2), pos(2, 1)])
    with pytest.raises(DuplicateEdge):
        SignedGraph(2, [loop(1), loop(1)])
    with pytest.raises(DuplicateEdge):
        SignedGraph(2, [neg(1, 2), neg(2, 1)])
    with pytest.raises(DuplicateEdge):
        SignedGraph(2, [Edge(NEG, 1, 2), Edge(NEG, 2, 1)])


def test_build_rejects_bad_vertices():
    with pytest.raises(VertexOutOfRange):
        SignedGraph(2, [pos(1, 3)])
    with pytest.raises(VertexOutOfRange):
        SignedGraph(2, [loop(0)])
    with pytest.raises(SelfPairEdge):
        SignedGraph(2, [pos(1, 1)])
    with pytest.raises(ValueError, match="unknown kind 'x'"):
        SignedGraph(2, [Edge("x", 1, 2)])


def test_build_rejects_a_negative_vertex_count():
    with pytest.raises(VertexOutOfRange) as exc:
        SignedGraph(-1, [])
    assert str(exc.value) == "vertex count must be nonnegative, got -1"


def test_repr_names_the_sizes():
    assert repr(SignedGraph(3, [pos(1, 2), loop(3)])) == "SignedGraph(ell=3, n=2)"


# (ell, edges, class, label, detail): each fault as the constructor reports it.
# Its checks run in a fixed order (kind, endpoints, self pair, duplicate), so an
# edge with two faults is reported by the first.
_FAULTS = [
    pytest.param(2, [pos(1, 2), Edge("x", 1, 2)], ValueError, 2, "unknown kind 'x'", id="unknown-kind"),
    pytest.param(2, [Edge(POS, 1, 3)], VertexOutOfRange, 1, "endpoints (1, 3) outside 1..2", id="edge-out-of-range"),
    pytest.param(2, [pos(1, 2), loop(0)], VertexOutOfRange, 2, "endpoints (0, 0) outside 1..2", id="loop-out-of-range"),
    pytest.param(3, [loop(2), Edge(LOOP, 2, 4)], VertexOutOfRange, 2, "endpoints (2, 4) outside 1..3", id="loop-far-end"),
    pytest.param(2, [Edge("x", 1, 3)], ValueError, 1, "unknown kind 'x'", id="unknown-kind-and-out-of-range"),
    pytest.param(2, [pos(1, 2), Edge(POS, 1, 1)], SelfPairEdge, 2, "signed edge from vertex 1 to itself", id="self-pair"),
    pytest.param(2, [Edge(POS, 1, 2), Edge(POS, 2, 1)], DuplicateEdge, 2, "duplicate '+' edge at (1, 2)", id="duplicate-ascending-first"),
    pytest.param(2, [Edge(NEG, 2, 1), Edge(NEG, 1, 2)], DuplicateEdge, 2, "duplicate '-' edge at (1, 2)", id="duplicate-descending-first"),
    pytest.param(2, [neg(1, 2), Edge(NEG, 2, 1)], DuplicateEdge, 2, "duplicate '-' edge at (1, 2)", id="duplicate-reversed"),
    pytest.param(3, [pos(1, 2), neg(1, 2), Edge(NEG, 2, 1)], DuplicateEdge, 3, "duplicate '-' edge at (1, 2)", id="duplicate-on-a-doubled-pair"),
    pytest.param(2, [loop(1), pos(1, 2), loop(1)], DuplicateEdge, 3, "duplicate 'o' edge at (1, 1)", id="duplicate-loop"),
]


@pytest.mark.parametrize("ell,edges,cls,label,detail", _FAULTS)
def test_build_reports_each_fault(ell, edges, cls, label, detail):
    with pytest.raises(Exception) as info:
        SignedGraph(ell, edges)
    exc = info.value
    assert type(exc) is cls
    assert str(exc) == f"edge {label}: {detail}"
    if cls is not ValueError:
        assert (exc.label, exc.detail) == (label, detail)
    # the same edges as a file, one line apart: parse_graph restates the fault
    # by the file line of the edge, so edge k sits on line 2 + 2k
    if any(e.kind not in (POS, NEG, LOOP) or (e.kind == LOOP and e.i != e.j) for e in edges):
        return  # no file line spells this edge
    lines = [f"vertices {ell}", "# one edge every second line"]
    for e in edges:
        lines += ["", f"o {e.i}" if e.kind == LOOP else f"{e.kind} {e.i} {e.j}"]
    with pytest.raises(EdgeError) as info:
        parse_graph("\n".join(lines) + "\n")
    exc = info.value
    restated = f"line {2 + 2 * label}: {detail}"
    assert type(exc) is cls
    assert (str(exc), exc.label, exc.detail) == (restated, None, restated)


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


def _equivalent_by_search(g: SignedGraph, h: SignedGraph) -> bool:
    """Reference: some one of the 2^ell switchings of g has h's signed edges."""
    want = set(h.edges)
    return any(set(g.switch(sigma).edges) == want for sigma in itertools.product((1, -1), repeat=g.ell))


def _beside(g: SignedGraph, h: SignedGraph) -> SignedGraph:
    """g on vertices 1..g.ell and h on the next h.ell vertices, g's edges labelled first."""
    shifted = [Edge(e.kind, e.i + g.ell, e.j + g.ell) for e in h.edges]
    return SignedGraph(g.ell + h.ell, list(g.edges) + shifted)


@given(graphs_with_sigma(max_ell=5), st.integers(0, 9))
@settings(max_examples=300, deadline=None)
def test_switching_equivalence_matches_exhaustive_search(gs, pick):
    g, sigma = gs
    h = g.switch(sigma)
    assert g.is_switching_equivalent(h) and _equivalent_by_search(g, h)
    # flipping one single pair leaves the class exactly when that pair lies
    # on a cycle of single pairs, so many of these are not equivalent
    singles = [k for k, e in enumerate(h.edges) if not e.is_loop and len(h.signs_on(e.i, e.j)) == 1]
    if singles:
        k = singles[pick % len(singles)]
        e = h.edges[k]
        edges = list(h.edges)
        edges[k] = Edge(NEG if e.kind == POS else POS, e.i, e.j)
        flipped = SignedGraph(g.ell, edges)
        same = _equivalent_by_search(g, flipped)
        assert g.is_switching_equivalent(flipped) == same
        assert flipped.is_switching_equivalent(g) == same
        # side by side with g, the flipped copy lies outside the component
        # holding the first label, so every component must be walked
        assert _beside(g, g).is_switching_equivalent(_beside(g, flipped)) == same


def test_switching_equivalence_checks_every_component():
    # the edge 12 is one component and the triangle 345 another; only the
    # triangle's sign differs, so a walk of the first component alone misses it
    g = SignedGraph(5, [pos(1, 2), pos(3, 4), pos(4, 5), pos(3, 5)])
    h = SignedGraph(5, [pos(1, 2), pos(3, 4), pos(4, 5), neg(3, 5)])
    assert not g.is_switching_equivalent(h)
    assert not h.is_switching_equivalent(g)
    assert not _equivalent_by_search(g, h)


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


def _b2_by_definition(g: SignedGraph) -> list[tuple[int, ...]]:
    """Reference: every label 4-set, ascending, whose edges are +ij, -ij and the loops at i and j."""
    found = []
    for quad in itertools.combinations(range(1, g.n + 1), 4):
        es = [g.edges[k - 1] for k in quad]
        ends = tuple(sorted(e.i for e in es if e.is_loop))
        links = sorted((e.kind, e.pair) for e in es if not e.is_loop)
        if len(ends) == 2 and links == [(POS, ends), (NEG, ends)]:
            found.append(quad)
    return found


@st.composite
def _graphs_with_witnesses(draw):
    """A drawn graph with B2 completed on up to three drawn pairs, in a drawn edge order."""
    g = draw(signed_graphs(min_ell=2, max_ell=5, allow_b2=True))
    pairs = draw(st.sets(st.sampled_from(list(itertools.combinations(range(1, g.ell + 1), 2))), max_size=3))
    edges = set(g.edges)
    for i, j in pairs:
        edges |= {pos(i, j), neg(i, j), loop(i), loop(j)}
    return SignedGraph(g.ell, draw(st.permutations(sorted(edges))))


@given(_graphs_with_witnesses())
@settings(max_examples=60, deadline=None)
def test_tables_match_the_edge_list(g):
    # the constructor fills the pair -> signs table and the B2 witnesses in
    # its one walk over the edges; in a drawn edge order the witnesses' labels
    # come in any order
    assert g.b2_witnesses() == _b2_by_definition(g)
    assert g.contains_b2() == bool(g.b2_witnesses())
    for i, j in itertools.combinations(range(1, g.ell + 1), 2):
        signs = {e.sign for e in g.edges if not e.is_loop and e.pair == (i, j)}
        assert g.signs_on(i, j) == g.signs_on(j, i) == tuple(sorted(signs, reverse=True))
        # edge_label reads the pair table and the edge list: a scan by definition
        for s in (1, -1, 0):
            scan = [k for k, e in enumerate(g.edges, start=1) if not e.is_loop and e.pair == (i, j) and e.sign == s]
            assert g.edge_label(i, j, s) == g.edge_label(j, i, s) == (scan[0] if scan else None)


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
