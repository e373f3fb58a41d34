"""Exact phase-1 simplex on an integer-preserving tableau.

Solves ``A w = b, w >= 0`` for integer ``A`` and rational ``b`` by minimizing
the sum of artificial variables with Bland's rule (no cycling).  The whole
system, artificial columns included, is scaled by L = lcm of the denominators
of ``b``; scaling every row leaves B^-1 A and the reduced costs unchanged.
The tableau is then kept as Python ints over one positive common denominator
D (the previous pivot), and each pivot updates every other row by
``(x * p - f * y) // D`` (Edmonds 1967, Bareiss 1968): by Sylvester's
identity every entry is L times a minor of ``[A | I | b]``, whose only
fractional column is ``b``, so the division is exact.  Every comparison reads the same rational tableau as plain
``Fraction`` elimination would, so the pivots and the basic solution are the
same, at a fraction of the cost.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import index
from typing import Sequence


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
    # Tableau columns: n structural + m artificial + rhs; artificials start basic.
    width = n + m
    tableau = []
    for i in range(m):
        sign = -scale if b[i] < 0 else scale
        row = [sign * index(x) for x in rows[i]] + [0] * m
        row[n + i] = scale
        row.append(int(sign * b[i]))
        tableau.append(row)
    basis = [n + i for i in range(m)]
    denom = scale

    # Phase-1 objective row: minimize sum of artificials.
    obj = [-sum(col) for col in zip(*tableau)]
    for i in range(m):
        obj[n + i] += scale

    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                if leave is None:
                    leave = i
                    continue
                # Ratio test rhs_i / coef_i against the best row, cross-multiplied.
                lhs = tableau[i][width] * tableau[leave][enter]
                rhs_best = tableau[leave][width] * coef
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return None
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        for i in range(m):
            if i != leave:
                f = tableau[i][enter]
                tableau[i] = [(x * pivot - f * y) // denom for x, y in zip(tableau[i], pivot_row)]
        f = obj[enter]
        obj = [(x * pivot - f * y) // denom for x, y in zip(obj, pivot_row)]
        denom = pivot
        basis[leave] = enter

    if obj[width] != 0:
        return None

    solution = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            solution[basis[i]] = Fraction(tableau[i][width], denom)
        elif tableau[i][width] != 0:
            return None
    return solution
