"""Acceptance gate: ten numbered criteria, one test (and one report line) each.

Run with `pytest -v -s tests/test_acceptance.py` to see the [acceptance]
lines; plain `pytest -v` still gives one PASSED/FAILED row per criterion.
Shared graph sweeps live in session fixtures so the expensive records are
computed once and reused by criteria 5, 6, 8 and 9.
"""

import itertools
import time
from dataclasses import dataclass
from math import comb

import numpy as np
import pytest

from falk3 import (
    GenConfig,
    SignedGraph,
    boundary,
    build_report,
    census,
    complete_doubled,
    complete_positive,
    dim_i3_2_formula,
    dim_span_f3,
    enumerate_all,
    exact_rank,
    ideal3_rows,
    loop_apex_triangle,
    modp_rank,
    phi3_formula,
    phi3_oracle,
    pos,
    rank_i3_2,
    rows_to_matrix,
    sample_stream,
    span_f3_rows,
    triangles,
)
from helpers import hub4_mixed


def _report(line: str) -> None:
    print(f"[acceptance] {line}")


@dataclass(frozen=True)
class Record:
    g: SignedGraph
    n_triangles: int
    phi3_formula: int
    phi3_oracle: int
    dim_i3_2: int
    dim_i3_2_formula: int
    dim_span_f3: int


def _record(g: SignedGraph) -> Record:
    r = build_report(g)
    return Record(
        g=g,
        n_triangles=r.triangle_count,
        phi3_formula=r.phi3_formula,
        phi3_oracle=r.phi3_oracle,
        dim_i3_2=r.dim_I3_2,
        dim_i3_2_formula=dim_i3_2_formula(g, r.census),
        dim_span_f3=r.dim_span_F3,
    )


@pytest.fixture(scope="session")
def exhaustive_records():
    """Every no-B2 signed graph on 1, 2 and 3 vertices, with timing."""
    start = time.perf_counter()
    records = [_record(g) for ell in (1, 2, 3) for g in enumerate_all(ell)]
    return records, time.perf_counter() - start


@pytest.fixture(scope="session")
def sampled_records():
    """500 seed-pinned generator samples at each of ell = 5, 6, 7, with timing."""
    start = time.perf_counter()
    records = []
    for ell in (5, 6, 7):
        cfg = GenConfig(ell=ell, seed=ell, samples=500)
        records.extend(_record(g) for g in sample_stream(cfg))
    return records, time.perf_counter() - start


def test_criterion_1_looped_wedge_ranks():
    start = time.perf_counter()
    g = loop_apex_triangle()
    span = dim_span_f3(g)
    ideal = rank_i3_2(g)
    elapsed = time.perf_counter() - start
    assert span == 10
    assert ideal == 14
    assert elapsed < 0.1
    _report(f"criterion 1: looped wedge span=10 ideal rank=14 in {elapsed * 1e3:.1f}ms (<100ms): PASS")


def test_criterion_2_doubled_triangle_with_loop():
    g = complete_doubled(3, loops=(1,))
    tris = triangles(g)
    assert len(tris) == 6
    assert len(span_f3_rows(g)) == 24
    assert dim_span_f3(g) == 19
    assert rank_i3_2(g) == 25
    oracle = phi3_oracle(g)
    formula = phi3_formula(census(g))
    assert oracle == formula == 17
    _report("criterion 2: doubled triangle + loop: 6 triangles, 24 rows, span 19, ideal 25, phi3 17 both ways: PASS")


def test_criterion_3_ten_dimensional_span_family():
    for name, g in (
        ("doubled triangle", complete_doubled(3)),
        ("complete graph on 4", complete_positive(4)),
        ("triangle with 3 loops", complete_positive(3, loops=(1, 2, 3))),
    ):
        assert dim_span_f3(g) == 10, name
        assert rank_i3_2(g) == 14, name
        assert phi3_oracle(g) == 10, name
        assert phi3_formula(census(g)) == 10, name
    _report("criterion 3: doubled triangle / K4 / looped triangle all give span 10, ideal 14, phi3 10: PASS")


def test_criterion_4_eleven_hyperplane_mixed_graph():
    start = time.perf_counter()
    g = hub4_mixed()
    r = build_report(g)
    c, a2, oracle, formula = r.census, r.dim_A2, r.phi3_oracle, r.phi3_formula
    elapsed = time.perf_counter() - start
    assert c.as_tuple() == (9, 2, 0, 3, 0, 0, 2, 1)
    assert oracle == formula == 37
    assert a2 == comb(11, 2) - 12 == 43
    rows = rows_to_matrix(span_f3_rows(g))
    assert rows.shape[0] == 96
    assert rows.shape[1] <= comb(11, 3) == 165
    assert elapsed < 1.0
    _report(f"criterion 4: 11-hyperplane graph census (9,2,0,3,0,0,2,1), phi3 37 both ways, dim A^2 43 in {elapsed:.2f}s (<1s): PASS")


def test_criterion_5_exhaustive_small_graphs(exhaustive_records):
    records, elapsed = exhaustive_records
    assert len(records) == 2 + 15 + 427
    bad = [r for r in records if r.phi3_formula != r.phi3_oracle]
    assert bad == []
    assert elapsed < 30.0
    _report(f"criterion 5: all {len(records)} no-B2 graphs on <=3 vertices agree exactly in {elapsed:.1f}s (<30s): PASS")


def test_criterion_6_randomized_sweep(sampled_records):
    records, elapsed = sampled_records
    assert len(records) == 1500
    bad = [r for r in records if r.phi3_formula != r.phi3_oracle]
    assert bad == []
    assert elapsed < 300.0
    _report(f"criterion 6: 1500 seeded samples (500 each at 5, 6, 7 vertices) agree exactly in {elapsed:.1f}s (<5min): PASS")


def test_criterion_7_switching_invariance():
    rng = np.random.default_rng(42)
    checked = 0
    for ell in (4, 5):
        cfg = GenConfig(ell=ell, seed=100 + ell, samples=50)
        for g in sample_stream(cfg):
            sigma = tuple(int(s) for s in rng.choice((1, -1), size=ell))
            h = g.switch(sigma)
            assert {t.labels for t in triangles(h)} == {t.labels for t in triangles(g)}
            assert census(h) == census(g)
            assert phi3_formula(census(h)) == phi3_formula(census(g))
            assert phi3_oracle(h) == phi3_oracle(g)
            checked += 1
    assert checked == 100
    _report("criterion 7: census, triangle sets and both phi3 values unchanged on 100 random (graph, sigma) pairs: PASS")


def test_criterion_8_ideal_dimension_closed_form(exhaustive_records, sampled_records):
    fixtures = [
        loop_apex_triangle(),
        complete_doubled(3, loops=(1,)),
        complete_doubled(3),
        complete_positive(4),
        complete_positive(3, loops=(1, 2, 3)),
        hub4_mixed(),
    ]
    for g in fixtures:
        assert dim_i3_2_formula(g, census(g)) == rank_i3_2(g)
    records = exhaustive_records[0] + sampled_records[0]
    bad = [r for r in records if r.dim_i3_2_formula != r.dim_i3_2]
    assert bad == []
    _report(f"criterion 8: ideal-dimension closed form matches exact rank on 6 fixtures and {len(records)} swept graphs: PASS")


def test_criterion_9_structural_identities(exhaustive_records, sampled_records):
    # boundary of a boundary vanishes on every 3-subset of labels 1..n, n <= 8
    for n in range(3, 9):
        for sub in itertools.combinations(range(1, n + 1), 3):
            acc = {}
            for mono, coeff in boundary(sub).items():
                for mono2, coeff2 in boundary(mono).items():
                    acc[mono2] = acc.get(mono2, 0) + coeff * coeff2
            assert all(v == 0 for v in acc.values()), sub

    # the ideal splits as the triangle span plus the degenerate-wedge block
    records = exhaustive_records[0] + sampled_records[0]
    bad = [r for r in records if r.dim_i3_2 != r.n_triangles + r.dim_span_f3]
    assert bad == []

    # the full generating sets, ranked apart from the report's pass, give its
    # dim span F3 and dim I3_2, so the identity above is checked against ranks
    # that do not build it; and a prime-field rank never exceeds the exact rank
    ranked = 0
    fixtures = [
        loop_apex_triangle(),
        complete_doubled(3, loops=(1,)),
        hub4_mixed(),
    ]
    sweep = exhaustive_records[0][-25:] + sampled_records[0][:25]
    for r in [_record(g) for g in fixtures] + sweep:
        for rows, dim in ((span_f3_rows(r.g), r.dim_span_f3), (ideal3_rows(r.g), r.dim_i3_2)):
            m = rows_to_matrix(rows)
            exact = exact_rank(m)
            assert exact == dim
            if m.size == 0:
                continue
            assert modp_rank(m) <= exact
            ranked += 1
    _report(
        f"criterion 9: boundary^2 = 0 (n<=8), direct-sum identity on {len(records)} graphs, "
        f"report dims = exact ranks and screen <= exact on {ranked} matrices: PASS"
    )


def _supersolvable_phi3(exponents) -> int:
    """phi3 of a supersolvable arrangement with these exponents (Falk-Randell 1985)."""
    return sum(d**3 - d for d in exponents) // 3


def _chordal_positive(rng, ell: int):
    """A random all-positive chordal graph and its exponents.

    Each vertex in turn is joined to a clique of the earlier ones, so the
    order is a perfect elimination order read backwards, the graphic
    arrangement is supersolvable (Stanley 1972), and its exponents are the
    clique sizes.
    """
    edges, exponents = [], []
    adjacent = set()
    for v in range(1, ell + 1):
        clique = []
        for u in rng.permutation(v - 1) + 1:
            u = int(u)
            if rng.random() < 0.8 and all((min(u, w), max(u, w)) in adjacent for w in clique):
                clique.append(u)
        edges += [pos(u, v) for u in clique]
        adjacent.update((u, v) for u in clique)
        exponents.append(len(clique))
    return SignedGraph(ell, edges), exponents


def test_criterion_10_supersolvable_theorem_values():
    start = time.perf_counter()
    # B_l: both signs on every pair and a loop at every vertex, exponents
    # 1, 3, ..., 2l - 1; each contains B2, where the census cannot reach
    for ell, phi3 in zip(range(2, 7), (8, 48, 160, 400, 840)):
        g = complete_doubled(ell, loops=range(1, ell + 1))
        assert g.contains_b2()
        assert phi3_oracle(g) == _supersolvable_phi3(range(1, 2 * ell, 2)) == phi3
    # A_{l-1}: the complete all-positive graph, exponents 1, ..., l - 1
    for ell, phi3 in zip(range(2, 9), (0, 2, 10, 30, 70, 140, 252)):
        g = complete_positive(ell)
        assert phi3_oracle(g) == phi3_formula(census(g)) == _supersolvable_phi3(range(1, ell)) == phi3
    rng = np.random.default_rng(10)
    for _ in range(200):
        g, exponents = _chordal_positive(rng, int(rng.integers(2, 10)))
        assert phi3_oracle(g) == phi3_formula(census(g)) == _supersolvable_phi3(exponents)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        f"criterion 10: phi3 = sum (d^3 - d)/3 over the exponents on B_2..B_6, A_1..A_7 and "
        f"200 seeded chordal graphs in {elapsed:.2f}s (<10s): PASS"
    )
