"""Exact linear algebra: fraction-free (Bareiss) elimination over the
integers, used for OSBB decomposition and the spanning-rank oracles.

``invert`` stays in integers until its last step. Bareiss elimination
brings the row-scaled matrix, augmented with its row scales, to upper
triangular form; its last pivot ``d`` is the determinant of the (row
permuted) integer matrix, so ``d`` times the inverse is an adjugate times
integer row scales, hence integral. The back-substitution solves for
``d`` times the inverse with one exact integer division per entry, and
only the final entries become ``Fraction(v, d)``.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm


class SingularSolveError(Exception):
    """A solve that the surrounding theory guarantees solvable failed;
    signals an internal enumeration bug, not bad user input."""


def _integerize(rows):
    """Scale each row by the lcm of its denominators; returns (int rows, scales)."""
    out, scales = [], []
    for row in rows:
        d = lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    return out, scales


def _bareiss_forward(a):
    """In-place fraction-free forward elimination with row pivoting.

    Returns the list of pivot column indices. Entries stay integers; the
    divisions are exact by the Bareiss identity. A row with 0 in the pivot
    column would only be rescaled by ``p / prev``, so it is left alone and
    remembers the pivot ``q`` it was last brought to: its next update
    divides by ``q`` in place of ``prev``, which folds the skipped
    rescales into one exact division. Rows below the last pivot row may
    be left unscaled; only their zero pattern is meaningful.
    """
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    level = [1] * n_rows
    prev = 1
    piv_r = 0
    pivots = []
    for piv_c in range(n_cols):
        if piv_r >= n_rows:
            break
        for i in range(piv_r, n_rows):
            if a[i][piv_c] != 0:
                break
        else:
            continue
        if i != piv_r:
            a[piv_r], a[i] = a[i], a[piv_r]
            level[piv_r], level[i] = level[i], level[piv_r]
        prow = a[piv_r]
        q = level[piv_r]
        if q != prev:
            prow = a[piv_r] = [x * prev // q for x in prow]
        p = prow[piv_c]
        for r in range(piv_r + 1, n_rows):
            row = a[r]
            f = row[piv_c]
            if f:
                q = level[r]
                a[r] = [(x * p - f * y) // q for x, y in zip(row, prow)]
                level[r] = p
        prev = p
        pivots.append(piv_c)
        piv_r += 1
    return pivots


def rank(rows):
    """Exact rank of a rational matrix."""
    if not rows:
        return 0
    a, _ = _integerize([list(r) for r in rows])
    return len(_bareiss_forward(a))


def invert(rows):
    """Exact inverse of a square rational matrix as Fraction rows.

    After the forward pass on ``[S*A | S]`` (``S`` the diagonal of row
    scales) the system reads ``U X = B`` with ``U`` upper triangular, and
    ``d = U[n-1][n-1]`` is ``det(P*S*A)`` for the row permutation ``P``.
    So ``Y = d*X = d*A^-1`` is ``+-adj(S*A)*S``, hence integral, and for
    each row ``r`` from the bottom
    ``U[r][r] * Y[r] = d*B[r] - sum(U[r][c] * Y[c] for c > r)`` holds in
    integers, which makes its division by ``U[r][r]`` exact.
    """
    n = len(rows)
    assert all(len(r) == n for r in rows)
    a, scales = _integerize([list(r) for r in rows])
    # augment with the row-scale diagonal so a row-scaled system inverts cleanly
    for i in range(n):
        a[i].extend(scales[i] if j == i else 0 for j in range(n))
    pivots = _bareiss_forward(a)
    if len(pivots) != n or pivots != list(range(n)):
        raise SingularSolveError("matrix is singular (rank %d of %d)" % (len(pivots), n))
    d = a[n - 1][n - 1] if n else 1
    y = [None] * n
    for r in range(n - 1, -1, -1):
        row = a.pop()  # row r is not read again: free the work matrix as y fills
        acc = [d * v for v in row[n:]]
        for c in range(r + 1, n):
            f = row[c]
            if f:
                acc = [s - f * v for s, v in zip(acc, y[c])]
        p = row[r]
        y[r] = [s // p for s in acc]
    for r in range(n):
        y[r] = [Fraction(v, d) for v in y[r]]
    return y
