"""The revised integer-preserving phase-1 simplex against full tableaux."""

import functools
import random
from fractions import Fraction
from math import lcm

import pytest

from hitsp import _simplex
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


def tableau_solve_equalities_nonneg(rows, rhs):
    """Phase-1 simplex with Bland's rule on the full integer-preserving tableau.

    Every row, artificial columns included, is scaled by the lcm of the
    right-hand side denominators and kept over the previous pivot; each pivot
    rewrites all m x (n + m) entries by ``(x * p - f * y) // D``.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    b = [Fraction(x) for x in rhs]
    scale = lcm(*(x.denominator for x in b))
    width = n + m
    tableau = []
    for i in range(m):
        sign = -scale if b[i] < 0 else scale
        row = [sign * x for x in rows[i]] + [0] * m
        row[n + i] = scale
        row.append(int(sign * b[i]))
        tableau.append(row)
    basis = [n + i for i in range(m)]
    denom = scale
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


def wide_system(rng):
    """Up to 8 rows and 80 columns, with repeated and zero columns and a
    right-hand side that is often degenerate (zero rows, sparse points)."""
    m = rng.randint(1, 8)
    n = rng.randint(1, 80)
    entries = rng.choice([(0, 1), (0, 0, 1, 2), (-1, 0, 0, 1, 3)])
    columns = []
    for _ in range(n):
        roll = rng.random()
        if columns and roll < 0.2:
            columns.append(list(rng.choice(columns)))
        elif roll < 0.3:
            columns.append([0] * m)
        else:
            columns.append([rng.choice(entries) for _ in range(m)])
    rows = [list(row) for row in zip(*columns)]
    if rng.random() < 0.75:
        point = [Fraction(rng.randint(1, 5), rng.randint(1, 4)) if rng.random() < 0.15 else Fraction(0)
                 for _ in range(n)]
        rhs = [sum((x * w for x, w in zip(row, point)), Fraction(0)) for row in rows]
    else:
        rhs = [Fraction(rng.randint(-3, 3), rng.randint(1, 6)) * rng.randint(0, 1) for _ in range(m)]
    return rows, rhs


def assert_same(rows, rhs):
    expected = reference_solve_equalities_nonneg(rows, rhs)
    assert tableau_solve_equalities_nonneg(rows, rhs) == expected
    assert solve_equalities_nonneg(rows, rhs) == expected
    return expected


def duplicate_row_system(rng):
    """A feasible random system with one row repeated, scaled by 1, 2 or -1."""
    rows, rhs = random_system(rng, (0, 1, 2), feasible=True)
    i = rng.randrange(len(rows))
    factor = rng.choice((1, 2, -1))
    return rows + [[factor * x for x in rows[i]]], rhs + [factor * rhs[i]]


RANDOM_ENTRIES = [(0, 1), (-2, -1, 0, 1, 2, 3)]


def random_systems(entries):
    rng = random.Random(20240 + len(entries))
    return [random_system(rng, entries, feasible=trial % 3 != 0) for trial in range(300)]


def wide_systems():
    rng = random.Random(4111)
    return [wide_system(rng) for _ in range(300)]


def duplicate_row_systems():
    rng = random.Random(11)
    return [duplicate_row_system(rng) for _ in range(150)]


@pytest.mark.parametrize("entries", RANDOM_ENTRIES)
def test_random_systems_match_the_fraction_tableau(entries):
    outcomes = {"solved": 0, "none": 0}
    for rows, rhs in random_systems(entries):
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
    for rows, rhs in duplicate_row_systems():
        assert_same(rows, rhs)
    solution = assert_same([[1, 1, 0], [1, 1, 0], [0, 1, 1]], [Fraction(1, 2)] * 3)
    assert solution is not None


def test_wide_systems_match_the_fraction_tableau():
    """Pricing has to reach columns far from the first one."""
    outcomes = {"solved": 0, "none": 0}
    far = 0
    for rows, rhs in wide_systems():
        result = assert_same(rows, rhs)
        outcomes["solved" if result is not None else "none"] += 1
        if result is not None:
            far += any(w and j >= max(20, len(result) // 2) for j, w in enumerate(result))
    assert outcomes["solved"] > 150 and outcomes["none"] > 20
    assert far > 15


def test_ratio_test_ties_leave_the_lowest_basis_index():
    """A degenerate system whose ratio-test ties decide the basic solution:
    letting the first tied row leave instead ends at another vertex."""
    rows = [
        [0, 1, 1, 1, -1, -1, -1, -1],
        [0, 0, 1, 0, -1, -1, 0, 0],
        [0, -1, 0, 0, -1, 1, 1, -1],
        [1, 0, 1, 1, 0, 1, -1, 0],
        [-1, 1, 0, 0, 1, 0, 1, 0],
    ]
    rhs = [Fraction(-1, 5), Fraction(-1), Fraction(-1, 5), Fraction(43, 30), Fraction(11, 30)]
    assert assert_same(rows, rhs) == [
        Fraction(19, 30), Fraction(4, 5), 0, 0, Fraction(1, 5), Fraction(4, 5), 0, 0
    ]


def test_infeasible_systems():
    assert assert_same([[1, 1]], [Fraction(-1)]) is None
    assert assert_same([[1, 0], [1, 0]], [Fraction(1), Fraction(2)]) is None
    assert assert_same([[1, -1], [-1, 1]], [Fraction(1, 3), Fraction(1, 3)]) is None
    assert assert_same([[0, 0]], [Fraction(1, 5)]) is None


def test_empty_system():
    assert solve_equalities_nonneg([], []) == []
    assert reference_solve_equalities_nonneg([], []) == []


def test_zero_column_systems():
    assert assert_same([[]], [Fraction(0)]) == []
    assert assert_same([[], []], [Fraction(0), Fraction(0)]) == []
    assert assert_same([[]], [Fraction(1)]) is None


def test_fraction_rows_are_refused():
    """An int64 array would truncate the entry silently; it must raise."""
    with pytest.raises(TypeError):
        solve_equalities_nonneg([[Fraction(1, 2), 1]], [Fraction(1)])


@pytest.mark.parametrize(
    "seed,entries", [(28, (-(2**28) - 3, 0, 1, 2**28)), (70, (-(2**70), -1, 0, 1, 3, 2**70, 2**64 + 1))]
)
def test_large_entries_match_the_fraction_tableau(seed, entries):
    """2**28 entries fit int64 but their products with the inverse may not:
    a guard on B**2 alone, without the column sum C, lets them wrap (here
    into a wrong vertex; other draws never stop)."""
    rng = random.Random(seed)
    solved = 0
    for trial in range(60):
        rows, rhs = random_system(rng, entries, feasible=trial % 3 != 0)
        solved += assert_same(rows, rhs) is not None
    assert solved > 20


def test_entries_beyond_int64_match_the_fraction_tableau():
    rhs = [Fraction(2**70 + 1, 3), Fraction(2**71, 7)]
    assert assert_same([[2**70, 1, 0], [1, 2**70, 2**63]], rhs) is not None


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


@pytest.mark.parametrize("n", [16, 18, 20])
def test_matching_decomposition_systems_match_the_integer_tableau(n):
    rows, rhs = decomposition_system(generate_instance("random_half_integral", n))
    solution = solve_equalities_nonneg(rows, rhs)
    assert solution == tableau_solve_equalities_nonneg(rows, rhs)
    assert solution is not None and sum(solution) == 1


class RecordingBound(int):
    """An int64 bound that records each dtype choice of the solver: the
    solver's ``product < bound`` tries this reflected ``__gt__`` first."""

    def __gt__(self, product):
        self.choices.append(int(self) > product)
        return self.choices[-1]


@functools.cache
def dtype_cases():
    """Each system of the random, wide and duplicate-row tests with the
    Fraction tableau's answer, then the :16/:18/:20 decomposition systems
    with the integer tableau's answer."""
    systems = [system for entries in RANDOM_ENTRIES for system in random_systems(entries)]
    systems += wide_systems() + duplicate_row_systems()
    cases = [(rows, rhs, reference_solve_equalities_nonneg(rows, rhs)) for rows, rhs in systems]
    decompositions = [
        decomposition_system(generate_instance("random_half_integral", n)) for n in (16, 18, 20)
    ]
    return cases, [(rows, rhs, tableau_solve_equalities_nonneg(rows, rhs)) for rows, rhs in decompositions]


@pytest.mark.parametrize("bound", [0, 2**16])
def test_object_and_mixed_dtypes_give_the_references_answers(bound, monkeypatch):
    """Bound 0 keeps every pivot on Python integers; 2**16 starts the
    decomposition systems on int64 and moves them to object arrays as their
    entries grow (their largest entries need about 8 bits at :18)."""
    recording = RecordingBound(bound)
    recording.choices = []
    monkeypatch.setattr(_simplex, "INT64_BOUND", recording)
    cases, decompositions = dtype_cases()
    for rows, rhs, expected in cases:
        assert solve_equalities_nonneg(rows, rhs) == expected
    for rows, rhs, expected in decompositions:
        recording.choices = []
        assert solve_equalities_nonneg(rows, rhs) == expected
        assert set(recording.choices) == ({False} if bound == 0 else {True, False})
