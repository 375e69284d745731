"""Exact linear programming over the rationals.

Feasibility of mixed equality / inequality systems via a phase-1 simplex
with Bland's rule: returns an exact point or Farkas multipliers.  The
tableau is integer-preserving (fraction-free; Edmonds 1967, Bareiss 1968):
rows are scaled by one common denominator and every pivot divides exactly
by the previous one, so no Fraction is built until the answer is read off.
The junior-simplex pipeline uses it for regularity certificates and the
ample-cone restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

ZERO = Fraction(0)


@dataclass
class Feasibility:
    feasible: bool
    point: tuple | None = None
    farkas: tuple | None = None  # multipliers over rows as given: eqs then ges

    def __bool__(self):
        return self.feasible


def solve_feasibility(n, eqs, ges) -> Feasibility:
    """Decide whether some x in Q^n satisfies a.x = b for (a, b) in `eqs`
    and a.x >= b for (a, b) in `ges` (x unrestricted in sign).

    On failure returns Farkas multipliers y, free on equality rows and >= 0 on
    inequality rows, with sum y_i a_i = 0 and sum y_i b_i > 0.

    The tableau is kept on integers.  Every row is scaled by one common
    denominator K; that only rescales the artificial variables and the
    phase-1 objective by K, so the pivots, the point and the multipliers are
    those of the rational tableau.  Pivots are Bareiss updates: the integer
    tableau is D times the rational one, where D is the last pivot element
    (positive, since every pivot is), and the division by the old D is exact.
    """
    rows = [([Fraction(c) for c in a], Fraction(b), True) for a, b in eqs]
    rows += [([Fraction(c) for c in a], Fraction(b), False) for a, b in ges]
    m = len(rows)
    if m == 0:
        return Feasibility(True, tuple([ZERO] * n))
    K = 1
    for a, b, _ in rows:
        if len(a) != n:
            raise ValueError("coefficient row has wrong length")
        for c in (*a, b):
            K = lcm(K, c.denominator)
    nge = len(ges)
    # columns: u_0..u_{n-1}, v_0..v_{n-1} (x = u - v), slacks, artificials
    ncols = 2 * n + nge + m
    art0 = 2 * n + nge
    tab = []
    sigma = []
    ge_seen = 0
    for i, (a, b, is_eq) in enumerate(rows):
        row = [0] * (ncols + 1)
        for j, c in enumerate(a):
            c = c.numerator * (K // c.denominator)
            row[j] = c
            row[n + j] = -c
        if not is_eq:
            row[2 * n + ge_seen] = -K  # a.x - s = b
            ge_seen += 1
        b = b.numerator * (K // b.denominator)
        s = 1 if b >= 0 else -1
        if s < 0:
            row = [-c for c in row]
            b = -b
        sigma.append(s)
        row[-1] = b
        row[art0 + i] = 1
        tab.append(row)
    basis = [art0 + i for i in range(m)]
    # phase-1 objective: minimize sum of artificials; reduced-cost row
    obj = [-sum(col) for col in zip(*tab)]
    for i in range(m):
        obj[art0 + i] += 1
    D = 1

    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:  # Bland: smallest index
                enter = j
                break
        if enter < 0:
            break
        # ratio test rhs_i / tab_i[enter], compared by cross-multiplying
        leave = -1
        for i in range(m):
            c = tab[i][enter]
            if c > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tab[i][-1] * tab[leave][enter]
                rhs = tab[leave][-1] * c
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise ArithmeticError("unbounded phase-1 problem")
        prow = tab[leave]
        piv = prow[enter]
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(c * piv - f * d) // D for c, d in zip(tab[i], prow)]
        f = obj[enter]
        obj = [(c * piv - f * d) // D for c, d in zip(obj, prow)]
        D = piv
        basis[leave] = enter

    if obj[-1] == 0:
        x = [ZERO] * n
        for i, bv in enumerate(basis):
            val = Fraction(tab[i][-1], D)
            if bv < n:
                x[bv] += val
            elif bv < 2 * n:
                x[bv - n] -= val
        return Feasibility(True, tuple(x))
    # Farkas: pi_i = 1 - reduced cost of artificial i; y_i = sigma_i * pi_i.
    # The reduced costs of the artificials do not depend on K.
    y = tuple(sigma[i] * Fraction(D - obj[art0 + i], D) for i in range(m))
    return Feasibility(False, farkas=y)


def check_farkas(n, eqs, ges, y) -> bool:
    """Verify a Farkas certificate mechanically."""
    rows = list(eqs) + list(ges)
    if len(y) != len(rows):
        return False
    for i in range(len(eqs), len(rows)):
        if y[i] < 0:
            return False
    comb = [ZERO] * n
    rhs = ZERO
    for yi, (a, b) in zip(y, rows):
        for j in range(n):
            comb[j] += yi * Fraction(a[j])
        rhs += yi * Fraction(b)
    return all(c == 0 for c in comb) and rhs > 0
