"""Exact phase-1 revised simplex over an integer-preserving basis inverse.

Solves ``A w = b, w >= 0`` for integer ``A`` and rational ``b`` by minimizing
the sum of artificial variables with Bland's rule (no cycling), after negating
rows with ``b_i < 0`` and scaling by L = lcm of the denominators of ``b``.  Of
the tableau ``[A | I | b]`` it keeps D B^-1, D B^-1 b and the objective row's
artificial part, as Python ints over one common denominator D (the previous
pivot), updated by ``(x * p - f * y) // D`` (Edmonds 1967, Bareiss
1968): by Sylvester's identity every entry is L times a minor of
``[A | I | b]``, so the division is exact.  A column is built only when read:
reduced cost sum_r (obj_r - D) A_rj, entering column (D B^-1) A_j.  Pricing
runs in column order, structural before artificial, and stops at the first
negative reduced cost, Bland's entering column.  These are the full tableau's
own integers, so every comparison, every pivot and the basic solution are
those of plain ``Fraction`` elimination.
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
    # Structural columns of the sign-flipped system, as (entry, rows) groups.
    signs = [-1 if x < 0 else 1 for x in b]
    columns = []
    for j in range(n):
        groups: dict[int, list[int]] = {}
        for i in range(m):
            if x := signs[i] * index(rows[i][j]):
                groups.setdefault(x, []).append(i)
        columns.append(tuple(groups.items()))
    values = [int(sign * scale * x) for sign, x in zip(signs, b)]
    inverse = [[scale if r == i else 0 for r in range(m)] for i in range(m)]
    basis = [n + i for i in range(m)]
    denom = scale
    # Objective row: artificial part (zero at the start).
    obj_art = [0] * m

    while True:
        shift = [x - denom for x in obj_art]
        enter = column = f = None
        for j, groups in enumerate(columns):
            cost = 0
            for x, nonzero in groups:
                cost += x * sum(map(shift.__getitem__, nonzero))
            if cost < 0:
                enter, f = j, cost
                column = [
                    sum(x * sum(map(row.__getitem__, nonzero)) for x, nonzero in groups)
                    for row in inverse
                ]
                break
        else:
            for r in range(m):
                if obj_art[r] < 0:
                    enter, f = n + r, obj_art[r]
                    column = [row[r] for row in inverse]
                    break
        if enter is None:
            break
        leave = None
        for i in range(m):
            coef = column[i]
            if coef > 0:
                if leave is None:
                    leave = i
                    continue
                # Ratio test rhs_i / coef_i against the best row, cross-multiplied.
                lhs = values[i] * column[leave]
                rhs_best = values[leave] * coef
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return None
        pivot = column[leave]
        pivot_row = inverse[leave]
        pivot_value = values[leave]
        for i in range(m):
            if i != leave:
                g = column[i]
                inverse[i] = [(x * pivot - g * y) // denom for x, y in zip(inverse[i], pivot_row)]
                values[i] = (values[i] * pivot - g * pivot_value) // denom
        obj_art = [(x * pivot - f * y) // denom for x, y in zip(obj_art, pivot_row)]
        denom = pivot
        basis[leave] = enter

    solution = [Fraction(0)] * n
    # The phase-1 optimum is -D times the basic artificials' sum, so the
    # system is infeasible exactly when some basic artificial is nonzero.
    for i in range(m):
        if basis[i] < n:
            solution[basis[i]] = Fraction(values[i], denom)
        elif values[i] != 0:
            return None
    return solution
