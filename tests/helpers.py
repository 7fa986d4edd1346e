"""Shared graph builders and hypothesis strategies for the test suite."""

import itertools

from hypothesis import strategies as st

from falk3 import InternalKindMismatch, SignedGraph, Triangle, bigint_rank, loop, neg, pos, rank


def hub4_mixed() -> SignedGraph:
    """Four vertices, eleven hyperplanes: looped hub 1, doubled 12/13/14/23,
    single positive 24 and 34.  Census (9,2,0,3,0,0,2,1), phi3 = 37."""
    return SignedGraph(4, [
        pos(1, 2), pos(1, 4), pos(3, 4), pos(2, 3), pos(2, 4), pos(1, 3),
        neg(1, 2), neg(1, 4), neg(1, 3), neg(2, 3), loop(1),
    ])


def count_eliminations(monkeypatch) -> list:
    """Wrap `rank._eliminate` so that each call appends (p, the entry count of
    each row it ranks) to the returned list, read before the rows are reduced.
    Span rows have three entries and unit rows one."""
    calls = []
    eliminate = rank._eliminate

    def counting_eliminate(rows, p):
        rows = list(rows)
        calls.append((p, [len(row) for row in rows]))
        return eliminate(rows, p)

    monkeypatch.setattr(rank, "_eliminate", counting_eliminate)
    return calls


def b2_graph() -> SignedGraph:
    """The forbidden pattern itself: doubled pair plus loops at both ends."""
    return SignedGraph(2, [pos(1, 2), neg(1, 2), loop(1), loop(2)])


def graph_from_states(ell, pair_states, loop_bits) -> SignedGraph:
    """Build a graph from per-pair states (0 none, 1 +, 2 -, 3 both) and loop bits."""
    pairs = list(itertools.combinations(range(1, ell + 1), 2))
    edges = [pos(i, j) for (i, j), s in zip(pairs, pair_states) if s in (1, 3)]
    edges += [neg(i, j) for (i, j), s in zip(pairs, pair_states) if s in (2, 3)]
    edges += [loop(v) for v, bit in enumerate(loop_bits, start=1) if bit]
    return SignedGraph(ell, edges)


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


def triangles_by_triples(g: SignedGraph) -> list[Triangle]:
    """Reference for `triangles()`: a dense exact rank and the pattern test on
    every one of the C(n,3) label triples, which must agree triple by triple."""
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


@st.composite
def signed_graphs(draw, min_ell=1, max_ell=5, allow_b2=True):
    ell = draw(st.integers(min_ell, max_ell))
    n_pairs = ell * (ell - 1) // 2
    # a pair takes its drawn state when its draw is at most the graph's density,
    # so sparse, disconnected graphs come up as well as dense ones
    density = draw(st.integers(1, 4))
    states = draw(st.tuples(*[st.integers(0, 3)] * n_pairs))
    kept = draw(st.tuples(*[st.integers(1, 4)] * n_pairs))
    states = [s if k <= density else 0 for s, k in zip(states, kept)]
    loops = draw(st.tuples(*[st.booleans()] * ell))
    g = graph_from_states(ell, states, loops)
    if not allow_b2 and g.contains_b2():
        # drop one loop of each witness instead of rejecting the draw
        keep = set(g.loop_vertices())
        for w in g.b2_witnesses():
            looped = [g.edge(k).i for k in w if g.edge(k).is_loop]
            keep.discard(looped[0])
        g = graph_from_states(ell, states, [v in keep for v in range(1, ell + 1)])
    # graph_from_states labels positive edges, then negative ones, then loops;
    # a drawn order lets loops and negative edges take any label
    return SignedGraph(ell, draw(st.permutations(g.edges)))


@st.composite
def graphs_with_sigma(draw, **kwargs):
    g = draw(signed_graphs(**kwargs))
    sigma = draw(st.tuples(*[st.sampled_from((1, -1))] * g.ell))
    return g, sigma
