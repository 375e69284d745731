"""Exact linear programming over the rationals.

Feasibility of mixed equality / inequality systems over x >= 0 via a
phase-1 simplex with Bland's rule: returns an exact point or Farkas
multipliers.  The tableau is integer-preserving (fraction-free; Edmonds
1967, Bareiss 1968): each row is kept as a primitive integer vector, a
positive multiple of its rational row, so no Fraction is built until the
answer is read off.  A pivot updates only the rows with a nonzero entry in
the entering column, and only on the pivot row's nonzero columns.  The
junior-simplex pipeline uses it for regularity certificates and the
ample-cone restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)


@dataclass
class Feasibility:
    feasible: bool
    point: tuple | None = None
    farkas: tuple | None = None  # multipliers over rows as given: eqs then ges


def _primitive(row):
    g = gcd(*row)
    return row if g == 1 else [c // g for c in row]


def _eliminate(row, f, p, pivot_nz):
    """`row * p - f * pivot_row` divided by the gcd of its entries: a
    positive multiple of the rational row update, with a zero in the
    entering column (f and p are the two rows' entries there, p > 0).
    `row` may be updated in place."""
    g = gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        row = [c * a for c in row]
    for k, d in pivot_nz:
        row[k] -= b * d
    return _primitive(row)


def solve_feasibility(n, eqs, ges) -> Feasibility:
    """Decide whether some x >= 0 in Q^n satisfies a.x = b for (a, b) in
    `eqs` and a.x >= b for (a, b) in `ges`.  The coefficients are ints or
    Fractions.

    On failure returns Farkas multipliers y, free on equality rows and >= 0 on
    inequality rows, with sum y_i a_i <= 0 componentwise and sum y_i b_i > 0.

    The tableau is kept on integers, with one positive scale per row: a
    stored row is its rational row times some positive factor, reduced by the
    gcd of its entries after every update.  The ratio test compares
    rhs_i / a_i[enter] within one row and Bland's rule reads only the signs
    of the objective row, so neither sees the scales and the pivots, the
    point and the multipliers are those of the rational tableau.  The
    objective row carries its own scale as an extra last entry, since the
    multipliers need its values, not only its signs.

    A system whose every row sums to 0 loses nothing to x >= 0: adding one
    constant to every variable changes no row's value, so any solution
    shifts to a nonnegative one.  The junior systems are of this kind, since
    they ask about heights modulo affine functions.  On such a system a
    Farkas vector also has sum y_i a_i = 0 exactly, since its components are
    <= 0 and sum to 0.
    """
    rows = [(a, b, True) for a, b in eqs] + [(a, b, False) for a, b in ges]
    m = len(rows)
    if m == 0:
        return Feasibility(True, tuple([ZERO] * n))
    # columns: x_0..x_{n-1}, slacks, artificials, then the rhs B
    art0 = n + len(ges)
    B = art0 + m
    tab = []
    sigma = []
    for i, (a, b, is_eq) in enumerate(rows):
        if len(a) != n:
            raise ValueError("coefficient row has wrong length")
        K = lcm(b.denominator, *(c.denominator for c in a))
        row = [0] * (B + 1)
        for j, c in enumerate(a):
            row[j] = c.numerator * (K // c.denominator)
        if not is_eq:
            row[n + i - len(eqs)] = -K  # a.x - s = b
        row[B] = b.numerator * (K // b.denominator)
        s = 1 if b >= 0 else -1
        if s < 0:
            row = [-c for c in row]
        sigma.append(s)
        row[art0 + i] = K
        tab.append(_primitive(row))
    basis = [art0 + i for i in range(m)]
    # phase-1 objective: minimize sum of artificials; reduced-cost row,
    # scaled by S = lcm of the row scales, then S itself
    S = lcm(*(r[art0 + i] for i, r in enumerate(tab)))
    obj = [0] * (B + 2)
    for i, r in enumerate(tab):
        f = S // r[art0 + i]
        for j, c in enumerate(r):
            if c:
                obj[j] -= f * c
        obj[art0 + i] += S
    obj[-1] = S
    obj = _primitive(obj)

    while True:
        # Bland: smallest index with a negative reduced cost
        enter = next((j for j in range(B) if obj[j] < 0), -1)
        if enter < 0:
            break
        # ratio test rhs_i / a_i[enter], compared by cross-multiplying
        leave = -1
        for i, r in enumerate(tab):
            c = r[enter]
            if c > 0:
                if leave < 0:
                    leave, c_leave = i, c
                    continue
                lhs = r[B] * c_leave
                rhs = tab[leave][B] * c
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, c_leave = i, c
        if leave < 0:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise ArithmeticError("unbounded phase-1 problem")
        prow = tab[leave]
        p = prow[enter]
        pivot_nz = [(k, d) for k, d in enumerate(prow) if d]
        for i, r in enumerate(tab):
            if i != leave and r[enter]:
                tab[i] = _eliminate(r, r[enter], p, pivot_nz)
        if obj[enter]:
            obj = _eliminate(obj, obj[enter], p, pivot_nz)
        basis[leave] = enter

    if obj[B] == 0:
        # a basic x_j row reads rhs / (its entry in column j) for x_j
        x = [ZERO] * n
        for r, j in zip(tab, basis):
            if j < n:
                x[j] = Fraction(r[B], r[j])
        return Feasibility(True, tuple(x))
    # Farkas: pi_i = 1 - reduced cost of artificial i; y_i = sigma_i * pi_i
    S = obj[-1]
    y = tuple(sigma[i] * Fraction(S - obj[art0 + i], S) for i in range(m))
    return Feasibility(False, farkas=y)
