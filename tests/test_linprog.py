import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clab.linprog import solve_feasibility

from .oracles import check_farkas, fraction_simplex, project


def test_simple_feasible():
    # x >= 1, -x >= -3
    r = solve_feasibility(1, [], [([1], 1), ([-1], -3)])
    assert r.feasible
    assert 1 <= r.point[0] <= 3


def test_simple_infeasible_with_certificate():
    # x >= 2 and -x >= -1
    ges = [([1], 2), ([-1], -1)]
    r = solve_feasibility(1, [], ges)
    assert not r.feasible
    assert check_farkas(1, [], ges, r.farkas)


def test_equalities_and_inequalities():
    # x + y = 1, x - y = 0, x >= 0 -> x = y = 1/2
    eqs = [([1, 1], 1), ([1, -1], 0)]
    r = solve_feasibility(2, eqs, [([1, 0], 0)])
    assert r.feasible
    assert r.point == (F(1, 2), F(1, 2))


def test_infeasible_equalities():
    eqs = [([1, 1], 1), ([2, 2], 3)]
    r = solve_feasibility(2, eqs, [])
    assert not r.feasible
    assert check_farkas(2, eqs, [], r.farkas)


def test_strict_via_slack_scaling():
    # x > 0 and x < 0 encoded with unit slack: x >= 1, -x >= 1 infeasible
    ges = [([1], 1), ([-1], 1)]
    r = solve_feasibility(1, [], ges)
    assert not r.feasible
    assert check_farkas(1, [], ges, r.farkas)


def test_degenerate_cycling_guard():
    # classic degenerate instance; Bland's rule must terminate
    ges = [
        ([1, 0, 0], 0), ([0, 1, 0], 0), ([0, 0, 1], 0),
        ([-1, -1, -1], -1), ([1, 1, 0], 0), ([0, 1, 1], 0),
    ]
    r = solve_feasibility(3, [], ges)
    assert r.feasible


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_systems_point_or_certificate(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    eqs = []
    ges = []
    for _ in range(rng.randint(0, 3)):
        eqs.append(([F(rng.randint(-4, 4)) for _ in range(n)], F(rng.randint(-4, 4))))
    for _ in range(rng.randint(1, 6)):
        ges.append(([F(rng.randint(-4, 4)) for _ in range(n)], F(rng.randint(-4, 4))))
    r = solve_feasibility(n, eqs, ges)
    if r.feasible:
        x = r.point
        assert min(x) >= 0
        for a, b in eqs:
            assert sum(c * v for c, v in zip(a, x)) == b
        for a, b in ges:
            assert sum(c * v for c, v in zip(a, x)) >= b
    else:
        assert check_farkas(n, eqs, ges, r.farkas)


# the integer tableau against the rational one


def _same(a, b):
    return (a.feasible, a.point, a.farkas) == (b.feasible, b.point, b.farkas)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_integer_tableau_matches_fraction_simplex(seed):
    # mixed systems with fractional coefficients: one common denominator
    # keeps the pivot path, so the point or the Farkas vector is identical
    rng = random.Random(seed)
    n = rng.randint(1, 5)

    def q():
        return F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 5, 6, 9]))

    eqs = [([q() for _ in range(n)], q()) for _ in range(rng.randint(0, 3))]
    ges = [([q() for _ in range(n)], q()) for _ in range(rng.randint(1, 7))]
    assert _same(solve_feasibility(n, eqs, ges), fraction_simplex(n, eqs, ges))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sparse_degenerate_systems_match_fraction_simplex(seed):
    # larger systems, about half the coefficients 0 and some right-hand
    # sides 0: many rows are skipped on each pivot, and the degenerate
    # pivots make Bland's rule break ties over long runs
    rng = random.Random(seed)
    n = rng.randint(1, 8)

    def q():
        if rng.random() < 0.5:
            return F(0)
        return F(rng.randint(-5, 5), rng.choice([1, 1, 1, 2, 3, 4]))

    def rhs():
        return F(0) if rng.random() < 0.4 else q()

    nrows = rng.randint(1, 12)
    neq = rng.randint(0, min(3, nrows - 1))
    eqs = [([q() for _ in range(n)], rhs()) for _ in range(neq)]
    ges = [([q() for _ in range(n)], rhs()) for _ in range(nrows - neq)]
    assert _same(solve_feasibility(n, eqs, ges), fraction_simplex(n, eqs, ges))


# the solver decides x >= 0.  Each infeasible system below has solutions
# over free x, and every one of them has a negative coordinate, so it is
# refused with a Farkas vector; each feasible one is its sign-mirrored
# twin, whose solutions include a nonnegative point
MIRRORED_FEASIBLE = [
    # x0 + x1 = 3, x0 - x1 = 1: only (2, 1)
    (2, [([1, 1], 3), ([1, -1], 1)], []),
    # x0 >= 2, x0 + x1 >= 5, x2 >= x0 / 2
    (3, [], [([1, 0, 0], 2), ([1, 1, 0], 5), ([F(-1, 2), 0, 1], 0)]),
    # 2 x0 + x1 = 7 with x1 >= 1 and x0 >= 2
    (2, [([2, 1], 7)], [([0, 1], 1), ([1, 0], 2)]),
]
MIRRORED_INFEASIBLE = [
    # x0 <= -1 and x0 + x1 >= 0 force x1 >= 1, against x1 <= 0
    (2, [], [([-1, 0], 1), ([1, 1], 0), ([0, -1], 0)]),
    # x0 = -4 - 2 x1 <= -4 with x1 >= 0, against x0 >= -3
    (2, [([1, 2], -4)], [([0, 1], 0), ([1, 0], -3)]),
    # x0 + x1 = -3, x0 - x1 = 1: only (-1, -2)
    (2, [([1, 1], -3), ([1, -1], 1)], []),
    # x0 <= -2, x0 + x1 <= -5, x2 >= x0 / 2
    (3, [], [([-1, 0, 0], 2), ([-1, -1, 0], 5), ([F(-1, 2), 0, 1], 0)]),
    # 2 x0 + x1 = -7 with x1 >= 1 and x0 >= -9
    (2, [([2, 1], -7)], [([0, 1], 1), ([1, 0], -9)]),
]


@pytest.mark.parametrize("n, eqs, ges", MIRRORED_FEASIBLE)
def test_mirrored_columns_feasible(n, eqs, ges):
    r = solve_feasibility(n, eqs, ges)
    assert r.feasible and min(r.point) >= 0
    for a, b in eqs:
        assert sum(c * v for c, v in zip(a, r.point)) == b
    for a, b in ges:
        assert sum(c * v for c, v in zip(a, r.point)) >= b
    assert _same(r, fraction_simplex(n, eqs, ges))


@pytest.mark.parametrize("n, eqs, ges", MIRRORED_INFEASIBLE)
def test_mirrored_columns_infeasible(n, eqs, ges):
    r = solve_feasibility(n, eqs, ges)
    assert not r.feasible and check_farkas(n, eqs, ges, r.farkas)
    assert _same(r, fraction_simplex(n, eqs, ges))


# Fourier-Motzkin projection, the test oracle for the moduli-fan cones


def test_project_cone_simple():
    # {(u, c) : u - c >= 0, c >= 0} projected to u gives u >= 0
    eqs, ges = project(2, [], [([1, -1], 0), ([0, 1], 0)], keep=[0])
    assert eqs == []
    assert ([F(1), F(0)], F(0)) in [(list(a), b) for a, b in ges]


def test_project_with_equalities():
    # {(u1, u2, c) : c = u1, u2 - c >= 0} -> u2 - u1 >= 0
    eqs, ges = project(3, [([1, 0, -1], 0)], [([0, 1, -1], 0)], keep=[0, 1])
    assert eqs == []
    assert len(ges) == 1
    a, b = ges[0]
    assert b == 0 and a[2] == 0 and a[1] > 0 and a[0] == -a[1]


def test_project_infeasible_marker():
    # x >= 1 and -x >= 0 projected away -> contradiction row 0 >= 1
    eqs, ges = project(1, [], [([1], 1), ([-1], 0)], keep=[])
    assert any(all(c == 0 for c in a) and b > 0 for a, b in ges)
