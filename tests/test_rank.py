import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from falk3 import bigint_rank, complete_doubled, exact_rank, ideal3_rows, modp_rank, rank


small_matrices = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(-9, 9),
)

big_matrices = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.integers(-(2**40), 2**40),
)


def sympy_rank(m):
    return sympy.Matrix(m.tolist()).rank()


def gf_rank(m, p):
    """Rank over GF(p) by sympy's domain matrices, independent of rank.py."""
    return DomainMatrix.from_Matrix(sympy.Matrix(m.tolist())).convert_to(sympy.GF(p)).rank()


def test_trivial_cases():
    assert exact_rank(np.eye(3, dtype=np.int64)) == 3
    assert exact_rank(np.zeros((4, 5), dtype=np.int64)) == 0
    assert exact_rank([]) == 0
    assert exact_rank([[]]) == 0
    assert modp_rank([]) == 0


def test_rank_deficient():
    m = np.array([[1, 2, 3], [2, 4, 6], [1, 1, 1]], dtype=np.int64)
    assert exact_rank(m) == 2
    assert bigint_rank(m.tolist()) == 2
    assert modp_rank(m) == 2


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_exact_rank_matches_sympy(m):
    expected = sympy_rank(m)
    assert exact_rank(m) == expected
    assert bigint_rank(m.tolist()) == expected


@given(big_matrices)
@settings(max_examples=40, deadline=None)
def test_exact_rank_survives_pivot_growth(m):
    # large leading entries give pivots other than +-1, so the rows turn fractional
    assert exact_rank(m) == sympy_rank(m)


def test_guard_trips_on_oversized_entries():
    m = np.array([[2**40, 1], [1, 2**40]], dtype=np.int64)
    assert exact_rank(m) == 2


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_screen_never_exceeds_exact(m):
    assert modp_rank(m) <= exact_rank(m)


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_sparse_rows_match_dense(m):
    # the same matrix as dict rows keyed by (tag, column), explicit zeros kept
    rows = [{("c", j): int(v) for j, v in enumerate(row)} for row in m]
    expected = sympy_rank(m)
    assert exact_rank(rows) == exact_rank(m) == expected
    assert modp_rank(rows) == modp_rank(m) <= expected


def test_sparse_rows_with_fractional_pivots():
    # leading coefficients 2 and 3 force non-integer pivot rows
    rows = [{"a": 2, "b": 1, "c": 1}, {"a": 3, "b": 1}, {"b": 1, "c": 3}]
    assert exact_rank(rows) == sympy.Matrix([[2, 1, 1], [3, 1, 0], [0, 1, 3]]).rank() == 2
    assert exact_rank([{}, {"x": 0}]) == 0


def test_rejects_non_matrix_input():
    with pytest.raises(ValueError):
        exact_rank(np.zeros((2, 2, 2), dtype=np.int64))


def test_input_is_not_mutated():
    m = np.array([[2, 1], [1, 2]], dtype=np.int64)
    keep = m.copy()
    exact_rank(m)
    modp_rank(m)
    assert (m == keep).all()
    rows = [{"a": 2, "b": 1}, {"a": 1, "b": 2}]
    exact_rank(rows)
    modp_rank(rows)
    assert rows == [{"a": 2, "b": 1}, {"a": 1, "b": 2}]


def test_elimination_takes_one_shot_generators():
    # the degree-3 pass streams its rows: a generator must give the rank a list gives
    for g in (complete_doubled(3, loops=(1,)), complete_doubled(4, loops=(1, 2))):
        rows = ideal3_rows(g)
        for p in (None, rank.SCREEN_PRIME, 3):
            # _eliminate takes its rows over, so each call gets fresh copies
            listed = rank._eliminate([dict(r) for r in rows], p)
            streamed = rank._eliminate((dict(r) for r in rows), p)
            assert streamed == listed


@pytest.mark.parametrize("p", [0, 1])
def test_modp_rank_refuses_a_modulus_below_two(p):
    # Z/0 is Z and Z/1 the zero ring: neither is a field, and the rank over
    # either (2 and 0 here) is not a rank mod a prime
    with pytest.raises(ValueError, match="prime"):
        modp_rank([[2, 0], [0, 3]], p)


@pytest.mark.parametrize(
    "p,m",
    [
        # 2 has no inverse mod 4, so the elimination could not scale its pivot
        (4, [[2, 0], [0, 1]]),
        # mod 8 the step leaves 1 - 3 * 3 = -8 = 0: rank 1 against 2 over Q
        (8, [[1, 3], [3, 1]]),
        # a strong pseudoprime to all 12 prime bases up to 37; base 41 shows it composite
        (318665857834031151167461, [[1, 0], [0, 1]]),
    ],
)
def test_modp_rank_refuses_composite_moduli(p, m):
    with pytest.raises(ValueError, match=f"prime modulus, got p = {p}$"):
        modp_rank(m, p)


def test_modp_rank_refuses_moduli_it_cannot_test():
    p = rank._EXACT_BELOW
    with pytest.raises(ValueError, match=f"only below {p}, got p = {p}$"):
        modp_rank([[1]], p)
    # the largest prime below 2^64 is still below the bound and accepted
    assert modp_rank([[1, 1], [1, -1]], 2**64 - 59) == 2


def test_primality_test_matches_sympy():
    assert [n for n in range(-3, 5000) if rank._is_prime(n) != sympy.isprime(n)] == []
    # Carmichael numbers and strong pseudoprimes to the first few bases;
    # 211 * 421 * 631 has a^((n-1)/2) = 1 for every base, so a test that
    # takes a 1 after squaring (not only -1) for a pass would call it prime
    for n in (561, 1105, 2047, 1373653, 25326001, 3215031751, 3825123056546413051, 211 * 421 * 631):
        assert not rank._is_prime(n)


@given(small_matrices, st.integers(-2, 2))
@settings(max_examples=100, deadline=None)
def test_rows_with_zeros_and_multiples_of_p_match_bigint(m, k):
    # every minor is below 6! * 9^6 < p in size, so the rank over Z/p is the
    # rank over the rationals; zeros and multiples of p must both drop out
    p = rank.SCREEN_PRIME
    expected = bigint_rank(m.tolist())
    rows = [{**{j: int(v) for j, v in enumerate(row)}, "zero": 0} for row in m]
    assert exact_rank(rows) == expected
    assert modp_rank(rows, p) == expected
    shifted = [{**{j: int(v) + k * p for j, v in enumerate(row)}, "p": k * p} for row in m]
    assert modp_rank(shifted, p) == expected


@given(small_matrices, st.sampled_from((2, 3, 5)))
@settings(max_examples=150, deadline=None)
def test_modp_rank_matches_sympy_over_small_fields(m, p):
    # at a small p the rank over Z/p often falls below the rank over the
    # rationals, so a wrong reduction mod p shows here and not at SCREEN_PRIME
    assert modp_rank(m, p) == gf_rank(m, p)


@given(small_matrices, st.sampled_from((2, 3, 5)), st.sampled_from((-3, -2, -1, 1, 2, 3)))
@settings(max_examples=150, deadline=None)
def test_modp_rank_drops_multiples_of_small_p(m, p, k):
    # the same matrix over Z/p with a nonzero multiple of p added to every
    # entry, as dict rows with one more column of multiples of p only
    rows = [{**{j: int(v) + k * p for j, v in enumerate(row)}, "p": k * p} for row in m]
    assert modp_rank(rows, p) == gf_rank(m, p)


def test_modp_rank_reduces_after_each_step():
    # both rows are reduced on entry; mod 3 the step leaves {1: 1 - 2 * 2} =
    # {1: -3}, zero mod 3 but not as an int: kept unreduced it would become
    # a pivot with no inverse mod 3
    rows = [{0: 1, 1: 2}, {0: 2, 1: 1}]
    assert modp_rank(rows, 3) == 1
    assert modp_rank(rows, 5) == modp_rank(rows, 2) == exact_rank(rows) == 2
