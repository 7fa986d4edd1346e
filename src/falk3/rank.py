"""Exact matrix rank by sparse elimination.

Every matrix the pipeline ranks has rows e_t ^ boundary(e_T): three entries
of +-1 among thousands of columns.  So rows stay sparse, as dicts from
column key to value, and one loop ranks them: each row has its leading
entry (least column key) cancelled against the pivot row kept for that
column until it is zero or takes a column with no pivot yet, where it is
stored, scaled to leading coefficient 1.  Over the rationals the scaling is
exact in `Fraction`; over Z/p it is a modular inverse.  The rank is the
number of pivots.

bigint_rank is a separate dense fraction-free elimination; it is the
independent reference the tests use.
"""

from fractions import Fraction

import numpy as np

# Default modulus of modp_rank; a prime, so Z/p is a field.
SCREEN_PRIME = 2_147_483_647


def _sparse_rows(m) -> list[dict]:
    """Rows of `m` as dicts: a list of dict rows as it is, a dense 2-d matrix row by row."""
    if isinstance(m, list) and all(isinstance(row, dict) for row in m):
        return m
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
    """Pivot count of the sparse rows over the rationals (p None) or over Z/p."""
    pivots = {}
    for src in rows:
        row = {k: v % p if p else v for k, v in src.items()}
        row = {k: v for k, v in row.items() if v}
        while row:
            lead = min(row)
            f = row[lead]
            pivot = pivots.get(lead)
            if pivot is None:
                if p:
                    inv = pow(f, -1, p)
                    pivots[lead] = {k: v * inv % p for k, v in row.items()}
                else:
                    inv = f if abs(f) == 1 else Fraction(1, f)  # 1/f, an int for +-1
                    pivots[lead] = {k: v * inv for k, v in row.items()}
                break
            for k, v in pivot.items():
                w = row.get(k, 0) - f * v
                if p:
                    w %= p
                if w:
                    row[k] = w
                else:
                    del row[k]
    return len(pivots)


def exact_rank(m) -> int:
    """Rank over the rationals of a dense integer matrix or a list of sparse dict rows."""
    return _eliminate(_sparse_rows(m), None)


def modp_rank(m, p: int = SCREEN_PRIME) -> int:
    """Rank over Z/p for a prime p; never exceeds the rank over the rationals."""
    return _eliminate(_sparse_rows(m), p)


def warmup() -> None:
    """No-op, kept for API compatibility: the rank engine has nothing to compile."""
