"""Exact matrix rank by sparse elimination.

The pipeline ranks the degree-3 rows e_t ^ boundary(e_T), each with three
entries of +-1 among thousands of columns.  So rows stay sparse, as dicts
from column key to value, and one loop ranks them: each row has its leading
entry (least column key) cancelled against the pivot row kept for that
column until it is zero or takes a column with no pivot yet, where it is
stored, scaled to leading coefficient 1.  Over the
rationals the scaling is exact in `Fraction`; over Z/p it is a modular
inverse.  The rank is the number of pivots.  Over Z/p the row is reduced
mod p once as it comes in and once after each reduction step, so the
per-entry loop is the same on both paths and never tests p.

The rows are read once, so they may come from a generator: rows can be
built while they are eliminated.

bigint_rank is a separate dense fraction-free elimination; it is the
independent reference the tests use.
"""

# Default modulus of modp_rank; a prime, so Z/p is a field.
SCREEN_PRIME = 2_147_483_647

# Miller-Rabin to the first 13 prime bases is exact below the least strong
# pseudoprime to all of them (Sorenson and Webster 2015); to the first 12,
# up to 37, it passes 318665857834031151167461 = 399165290221 * 798330580441.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for every p below _EXACT_BELOW."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def _sparse_rows(m) -> list[dict]:
    """Rows of `m` as fresh dicts without zeros, from a list of dict rows or a dense 2-d matrix.

    The rows are copies, so the elimination that takes them never mutates the caller's.
    """
    if isinstance(m, list) and all(isinstance(row, dict) for row in m):
        return [{k: v for k, v in row.items() if v} for row in m]
    import numpy as np

    a = np.asarray(m)
    if a.size == 0:
        return []
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return [{j: int(v) for j, v in enumerate(row) if v} for row in a.tolist()]


def bigint_rank(rows) -> int:
    """Fraction-free elimination over Python ints; exact for any integer matrix."""
    m = [[int(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(nc):
        if row == nr:
            break
        piv_row = next((i for i in range(row, nr) if m[i][col]), None)
        if piv_row is None:
            continue
        m[row], m[piv_row] = m[piv_row], m[row]
        piv = m[row][col]
        mr = m[row]
        for i in range(row + 1, nr):
            mi = m[i]
            f = mi[col]
            for j in range(col + 1, nc):
                mi[j] = (mi[j] * piv - f * mr[j]) // prev
            mi[col] = 0
        prev = piv
        rank += 1
        row += 1
    return rank


def _eliminate(rows, p: int | None) -> int:
    """Rank of sparse rows over the rationals (p None) or over Z/p.

    The rows are read once and taken over: each must be a dict of its own
    without zero entries, and the elimination may reduce it in place and
    keep it as a pivot.
    """
    pivots = {}
    for row in rows:
        if p:
            row = {k: w for k, v in row.items() if (w := v % p)}
        while row:
            lead = min(row)
            f = row[lead]
            pivot = pivots.get(lead)
            if pivot is None:
                if f == 1:
                    pivots[lead] = row
                elif p:
                    inv = pow(f, -1, p)
                    pivots[lead] = {k: v * inv % p for k, v in row.items()}
                elif f == -1:
                    pivots[lead] = {k: -v for k, v in row.items()}
                else:
                    # rare for rows of +-1 entries: over the rationals a 4-flat's
                    # span rows have determinant -3 (see algebra), so some graphs
                    # with B2 get here; fractions is imported here, off the
                    # start-up path
                    from fractions import Fraction

                    inv = Fraction(1, f)
                    pivots[lead] = {k: v * inv for k, v in row.items()}
                break
            for k, v in pivot.items():
                w = row.get(k, 0) - f * v
                if w:
                    row[k] = w
                else:
                    del row[k]
            if p:
                row = {k: w for k, v in row.items() if (w := v % p)}
    return len(pivots)


def exact_rank(m) -> int:
    """Rank over the rationals of a dense integer matrix or a list of sparse dict rows."""
    return _eliminate(_sparse_rows(m), None)


def modp_rank(m, p: int = SCREEN_PRIME) -> int:
    """Rank over Z/p for a prime p; never exceeds the rank over the rationals.

    A composite p is refused: Z/p is then no field, and elimination mod p
    either meets a pivot with no inverse or counts no rank.
    """
    if p >= _EXACT_BELOW:
        raise ValueError(f"modp_rank tests primality only below {_EXACT_BELOW}, got p = {p}")
    if not _is_prime(p):
        raise ValueError(f"modp_rank needs a prime modulus, got p = {p}")
    return _eliminate(_sparse_rows(m), p)


def warmup() -> None:
    """No-op, kept for API compatibility: the rank engine has nothing to compile."""
