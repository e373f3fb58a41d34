"""Exact phase-1 revised simplex over an integer-preserving basis inverse.

Solves ``A w = b, w >= 0`` for integer ``A`` and rational ``b`` by minimizing
the sum of artificial variables with Bland's rule (no cycling), after negating
rows with ``b_i < 0`` and scaling by L = lcm of the denominators of ``b``.  Of
the tableau ``[A | I | b]`` it keeps D B^-1, D B^-1 b and the objective row's
artificial part as numpy integer arrays over one common denominator D (the
previous pivot), updated by ``(x * p - f * y) // D`` (Edmonds 1967, Bareiss
1968): by Sylvester's identity every entry is L times a minor of
``[A | I | b]``, so the division is exact.  Each pivot is a few whole-array
steps: the products ``(obj - D) @ A`` over ``PRICING_BLOCK`` structural
columns at a time, in index order up to the first block with a negative
reduced cost, whose first negative entry (artificials after all structural
columns) is Bland's entering column; one matrix-vector product for that
column ``(D B^-1) A_j``; one outer-product step for the inverse, the pivot
row being put back.  The ratio test runs on Python ints, a tie leaving the
lowest basis index.  These are the full tableau's own integers, so every
comparison, every pivot and the basic solution are those of plain
``Fraction`` elimination.

The arrays are int64 while no product of a pivot can overflow and Python
integers (object dtype) otherwise.  With B the largest |entry| of the
inverse, the values, the objective part and D, and C the largest column
abs-sum of A, a pivot's products stay below 4 B^2 (C + 1), so int64 is used
when that is below ``INT64_BOUND``; the choice is made again at every pivot.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index
from typing import Sequence

import numpy as np

# Every pivot runs on int64 arrays while 4 B^2 (C + 1) stays below this.
INT64_BOUND = 2**63
# Bland's entering column tends to come early (median index 469 of 4,291 over
# the 22,146 pivots of random_half_integral:21), so pricing in blocks stops
# long before the last column.
PRICING_BLOCK = 256


def solve_equalities_nonneg(
    rows: Sequence[Sequence[int]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """A nonnegative exact solution of ``rows @ w = rhs``, or None.

    ``rows`` must hold integers (a ``Fraction`` entry raises ``TypeError``).
    Returns a basic feasible solution (many entries typically zero).
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    b = [Fraction(x) for x in rhs]
    scale = lcm(*(x.denominator for x in b))
    signs = [-1 if x < 0 else 1 for x in b]
    # Structural columns of the sign-flipped system, one per row of ``columns``.
    entries = [[sign * index(x) for x in row] for sign, row in zip(signs, rows)]
    widest = max((sum(map(abs, column)) for column in zip(*entries)), default=0)
    columns = np.array(entries, dtype=np.int64 if widest < 2**63 else object).T.copy()
    values = np.array([int(sign * scale * x) for sign, x in zip(signs, b)], dtype=object)
    inverse = np.diag(np.full(m, scale, dtype=object))
    basis = [n + i for i in range(m)]
    denom = scale
    # Objective row: artificial part (zero at the start).
    obj_art = np.zeros(m, dtype=object)

    while True:
        big = max(denom, *(int(np.abs(x).max()) for x in (inverse, values, obj_art)))
        dtype = np.int64 if 4 * big * big * (widest + 1) < INT64_BOUND else object
        if inverse.dtype != dtype:
            inverse, values, obj_art = (x.astype(dtype) for x in (inverse, values, obj_art))
        shift = obj_art - denom
        for start in range(0, n, PRICING_BLOCK):
            costs = columns[start : start + PRICING_BLOCK].astype(dtype, copy=False) @ shift
            negative = np.flatnonzero(costs < 0)
            if len(negative):
                enter = start + int(negative[0])
                f = int(costs[negative[0]])
                column = inverse @ columns[enter].astype(dtype, copy=False)
                break
        else:
            negative = np.flatnonzero(obj_art < 0)
            if not len(negative):
                break
            r = int(negative[0])
            enter, f = n + r, int(obj_art[r])
            column = inverse[:, r].copy()
        leave = None
        coefs, rights = column.tolist(), values.tolist()
        for i in np.flatnonzero(column > 0).tolist():
            if leave is None:
                leave = i
                continue
            # Ratio test rhs_i / coef_i against the best row, cross-multiplied.
            lhs = rights[i] * coefs[leave]
            rhs_best = rights[leave] * coefs[i]
            if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                leave = i
        if leave is None:
            return None
        pivot = coefs[leave]
        pivot_row = inverse[leave].copy()
        inverse *= pivot
        inverse -= np.multiply.outer(column, pivot_row)
        inverse //= denom
        inverse[leave] = pivot_row
        values = (values * pivot - column * rights[leave]) // denom
        values[leave] = rights[leave]
        obj_art = (obj_art * pivot - f * pivot_row) // denom
        denom = pivot
        basis[leave] = enter

    solution = [Fraction(0)] * n
    # The phase-1 optimum is -D times the basic artificials' sum, so the
    # system is infeasible exactly when some basic artificial is nonzero.
    for i, value in enumerate(values.tolist()):
        if basis[i] < n:
            solution[basis[i]] = Fraction(value, denom)
        elif value != 0:
            return None
    return solution
