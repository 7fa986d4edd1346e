import hashlib
import itertools
from math import comb

import pytest
from hypothesis import given, settings

from falk3 import (
    B2Present,
    Census,
    census,
    complete_doubled,
    complete_positive,
    GenConfig,
    dim_i3_2_formula,
    enumerate_all,
    phi3_formula,
    phi3_oracle,
    rank_i3_2,
    sample_stream,
    triangles,
)
from helpers import b2_graph, graphs_with_sigma, signed_graphs


FROZEN = [
    # (graph builder, census tuple, phi3)
    (lambda: complete_doubled(3), (4, 0, 1, 0, 0, 0, 0, 0), 10),
    (lambda: complete_positive(4), (4, 1, 0, 0, 0, 0, 0, 0), 10),
    (lambda: complete_positive(3, loops=(1, 2, 3)), (1, 0, 0, 0, 3, 1, 0, 0), 10),
    (lambda: complete_doubled(3, loops=(1,)), (4, 0, 0, 2, 0, 0, 0, 1), 17),
]


@pytest.mark.parametrize("build,counts,phi3", FROZEN, ids=["d3", "k4", "k3_3loops", "d3_1loop"])
def test_frozen_censuses(build, counts, phi3):
    c = census(build())
    assert c.as_tuple() == counts
    assert phi3_formula(c) == phi3


def test_census_looped_wedge(looped_wedge):
    c = census(looped_wedge)
    assert c == Census(k3=2, k4=0, d3=0, d21=2, k22=0, k33=0, g_circ=1, d31=0)
    assert phi3_formula(c) == 10


def test_census_hub4(hub4):
    c = census(hub4)
    assert c.as_tuple() == (9, 2, 0, 3, 0, 0, 2, 1)
    assert phi3_formula(c) == 37


def test_census_rejects_b2():
    with pytest.raises(B2Present):
        census(b2_graph())


def test_ideal_dimension_formula(looped_wedge, doubled_triangle_loop, hub4):
    for g, expected in ((looped_wedge, 14), (doubled_triangle_loop, 25), (hub4, 95)):
        c = census(g)
        assert dim_i3_2_formula(g, c) == expected
        assert dim_i3_2_formula(g, c) == rank_i3_2(g)


def test_triangle_total_matches_enumeration(looped_wedge, doubled_triangle_loop, hub4):
    # the census and the rank route find the triangles apart, so they must
    # agree kind by kind on every B2-free graph
    def check(g):
        c = census(g)
        tris = triangles(g)
        assert c.k3 + c.d21 + c.k22 == len(tris)
        assert c.k3 == sum(1 for t in tris if t.kind == "k3")
        assert c.d21 == sum(1 for t in tris if t.kind == "d21")
        assert c.k22 == sum(1 for t in tris if t.kind == "k22")

    for g in (looped_wedge, doubled_triangle_loop, hub4, complete_doubled(3), *enumerate_all(3)):
        check(g)
    given(signed_graphs(max_ell=5, allow_b2=False))(settings(max_examples=60, deadline=None)(check))()


def test_unsigned_specialization():
    # all-positive graphs only see balanced triangles and K4 circuits
    for ell in (4, 5):
        c = census(complete_positive(ell))
        assert c == Census(comb(ell, 3), comb(ell, 4), 0, 0, 0, 0, 0, 0)
        assert phi3_formula(c) == 2 * (comb(ell, 3) + comb(ell, 4))
        assert phi3_oracle(complete_positive(ell)) == phi3_formula(c)


def test_doubled_specialization():
    c = census(complete_doubled(4))
    assert c.k3 == 4 * comb(4, 3)  # each vertex triple carries 4 balanced cycles
    assert c.d3 == comb(4, 3)
    assert c.d21 == c.k22 == c.d31 == c.g_circ == 0


def _k4_by_brute_force(g) -> int:
    """Reference: on every vertex 4-set, the choices of one signed edge per pair
    whose four triangles all have sign product +1."""
    count = 0
    for quad in itertools.combinations(range(1, g.ell + 1), 4):
        pairs = list(itertools.combinations(quad, 2))
        for choice in itertools.product(*(g.signs_on(i, j) for i, j in pairs)):
            sign = dict(zip(pairs, choice))
            if all(
                sign[x, y] * sign[x, z] * sign[y, z] == 1
                for x, y, z in itertools.combinations(quad, 3)
            ):
                count += 1
    return count


def test_k4_matches_brute_force():
    for ell in (4, 5, 6):
        for g in (complete_doubled(ell), complete_positive(ell)):
            assert census(g).k4 == _k4_by_brute_force(g)
    # a doubled K_l has 8 balanced choices on each 4-set, a positive one 1
    assert census(complete_doubled(6)).k4 == 8 * comb(6, 4)
    assert census(complete_positive(6)).k4 == comb(6, 4)

    def check(g):
        assert census(g).k4 == _k4_by_brute_force(g)

    given(signed_graphs(max_ell=6, allow_b2=False))(settings(max_examples=150, deadline=None)(check))()


def test_census_as_dict_keys(hub4):
    assert list(census(hub4).as_dict()) == [
        "k3", "k4", "d3", "d21", "k22", "k33", "g_circ", "d31",
    ]


@given(graphs_with_sigma(max_ell=4, allow_b2=False))
@settings(max_examples=25, deadline=None)
def test_census_is_switching_invariant(gs):
    g, sigma = gs
    assert census(g) == census(g.switch(sigma))


@given(signed_graphs(max_ell=4, allow_b2=False))
@settings(max_examples=25, deadline=None)
def test_formula_agrees_with_oracle(g):
    assert phi3_formula(census(g)) == phi3_oracle(g)


# sha256 over census(g).as_tuple(), one line per graph, for every graph of
# enumerate_all(3) and then 200 sampler graphs at each of 5, 6 and 7 vertices
# (seed = vertex count, default probabilities); recorded from the per-vertex
# signs_on enumeration that the table-driven census replaced.
_CENSUS_SHA256 = "f279630203815e7bcdf61f4012a8da9ad32da1530ec54ee910b85ef6e76a7b3f"


def test_census_is_pinned_by_value():
    graphs = list(enumerate_all(3))
    for ell in (5, 6, 7):
        graphs += sample_stream(GenConfig(ell=ell, seed=ell, samples=200))
    h = hashlib.sha256()
    for g in graphs:
        h.update(f"{census(g).as_tuple()}\n".encode())
    # raise, not assert: the pin must hold under python -O too
    if len(graphs) != 1027 or h.hexdigest() != _CENSUS_SHA256:
        raise AssertionError(f"census of {len(graphs)} graphs hashes to {h.hexdigest()}")
