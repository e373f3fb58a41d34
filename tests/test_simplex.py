"""The integer-preserving phase-1 simplex against a plain Fraction tableau."""

import random
from fractions import Fraction

import pytest

from hitsp._simplex import solve_equalities_nonneg
from hitsp.degreecut import enumerate_maximum_matchings, fractional_matching_target
from hitsp.instance import generate_instance


def reference_solve_equalities_nonneg(rows, rhs):
    """Phase-1 simplex with Bland's rule on a dense Fraction tableau."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    a = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x) for x in rhs]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]

    width = n + m
    tableau = [a[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    obj = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            obj[j] -= tableau[i][j]
    for i in range(m):
        obj[n + i] += Fraction(1)

    while True:
        enter = None
        for j in range(width):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][width] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return None
        pivot = tableau[leave][enter]
        tableau[leave] = [x / pivot for x in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tableau[leave])]
        basis[leave] = enter

    if obj[width] != 0:
        return None

    solution = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            solution[basis[i]] = tableau[i][width]
        elif tableau[i][width] != 0:
            return None
    return solution


def random_system(rng, entries, feasible):
    m = rng.randint(1, 6)
    n = rng.randint(1, 8)
    rows = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
    if feasible:
        # A nonnegative point with some zeros, so the right-hand side is reachable.
        point = [Fraction(rng.randint(0, 6), rng.randint(1, 9)) * rng.randint(0, 1) for _ in range(n)]
        rhs = [sum((x * w for x, w in zip(row, point)), Fraction(0)) for row in rows]
    else:
        rhs = [Fraction(rng.randint(-7, 7), rng.randint(1, 12)) for _ in range(m)]
    return rows, rhs


def assert_same(rows, rhs):
    expected = reference_solve_equalities_nonneg(rows, rhs)
    assert solve_equalities_nonneg(rows, rhs) == expected
    return expected


@pytest.mark.parametrize("entries", [(0, 1), (-2, -1, 0, 1, 2, 3)])
def test_random_systems_match_the_fraction_tableau(entries):
    rng = random.Random(20240 + len(entries))
    outcomes = {"solved": 0, "none": 0}
    for trial in range(300):
        rows, rhs = random_system(rng, entries, feasible=trial % 3 != 0)
        result = assert_same(rows, rhs)
        outcomes["solved" if result is not None else "none"] += 1
    # Both branches must really be exercised.
    assert outcomes["solved"] > 50 and outcomes["none"] > 10


def test_negative_right_hand_sides():
    rng = random.Random(7)
    negatives = 0
    for _ in range(200):
        rows, rhs = random_system(rng, (-2, -1, 0, 1), feasible=True)
        negatives += any(b < 0 for b in rhs)
        assert_same(rows, rhs)
    assert negatives > 50
    assert assert_same([[-1, -2], [1, 0]], [Fraction(-5, 3), Fraction(1, 3)]) == [
        Fraction(1, 3),
        Fraction(2, 3),
    ]


def test_duplicate_rows_leave_an_artificial_basic_at_zero():
    rng = random.Random(11)
    for _ in range(150):
        rows, rhs = random_system(rng, (0, 1, 2), feasible=True)
        i = rng.randrange(len(rows))
        factor = rng.choice((1, 2, -1))
        rows = rows + [[factor * x for x in rows[i]]]
        rhs = rhs + [factor * rhs[i]]
        assert_same(rows, rhs)
    solution = assert_same([[1, 1, 0], [1, 1, 0], [0, 1, 1]], [Fraction(1, 2)] * 3)
    assert solution is not None


def test_infeasible_systems():
    assert assert_same([[1, 1]], [Fraction(-1)]) is None
    assert assert_same([[1, 0], [1, 0]], [Fraction(1), Fraction(2)]) is None
    assert assert_same([[1, -1], [-1, 1]], [Fraction(1, 3), Fraction(1, 3)]) is None
    assert assert_same([[0, 0]], [Fraction(1, 5)]) is None


def test_empty_system():
    assert solve_equalities_nonneg([], []) == []
    assert reference_solve_equalities_nonneg([], []) == []


def test_fraction_rows_are_refused():
    with pytest.raises(TypeError):
        solve_equalities_nonneg([[Fraction(1, 2), 1]], [Fraction(1)])


def decomposition_system(inst):
    matchings = enumerate_maximum_matchings(inst)
    rows = [[int(e in matching) for matching in matchings] for e in range(len(inst.edges))]
    rows.append([1] * len(matchings))
    return rows, fractional_matching_target(inst) + [Fraction(1)]


@pytest.mark.parametrize(
    "family,n",
    [("k5_degree", 7), ("k5_degree", 8), ("k5_degree", 9),
     ("random_half_integral", 10), ("random_half_integral", 14)],
)
def test_matching_decomposition_systems(family, n):
    rows, rhs = decomposition_system(generate_instance(family, n))
    solution = assert_same(rows, rhs)
    assert solution is not None and sum(solution) == 1
