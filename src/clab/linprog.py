"""Exact linear programming over the rationals.

Feasibility of mixed equality / inequality systems via a phase-1 simplex
with Bland's rule: returns an exact point or Farkas multipliers.  The
junior-simplex pipeline uses it for regularity certificates and the
ample-cone restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


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
    """
    rows = [(list(a), Fraction(b), True) for a, b in eqs]
    rows += [(list(a), Fraction(b), False) for a, b in ges]
    m = len(rows)
    if m == 0:
        return Feasibility(True, tuple([ZERO] * n))
    nge = len(ges)
    # columns: u_0..u_{n-1}, v_0..v_{n-1} (x = u - v), slacks, artificials
    ncols = 2 * n + nge + m
    tab = []
    sigma = []
    ge_seen = 0
    for a, b, is_eq in rows:
        if len(a) != n:
            raise ValueError("coefficient row has wrong length")
        row = [ZERO] * (ncols + 1)
        for j, c in enumerate(a):
            c = Fraction(c)
            row[j] = c
            row[n + j] = -c
        if not is_eq:
            row[2 * n + ge_seen] = Fraction(-1)  # a.x - s = b
            ge_seen += 1
        s = 1 if b >= 0 else -1
        if s < 0:
            row = [-c for c in row]
            b = -b
        sigma.append(s)
        row[-1] = Fraction(b)
        tab.append(row)
    art0 = 2 * n + nge
    for i in range(m):
        tab[i][art0 + i] = ONE
    basis = [art0 + i for i in range(m)]
    # phase-1 objective: minimize sum of artificials; reduced-cost row
    obj = [ZERO] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            obj[j] -= tab[i][j]
    for i in range(m):
        obj[art0 + i] += ONE

    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:  # Bland: smallest index
                enter = j
                break
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave < 0:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise AssertionError("unbounded phase-1 problem")
        piv = tab[leave][enter]
        tab[leave] = [c / piv for c in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [c - f * d for c, d in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [c - f * d for c, d in zip(obj, tab[leave])]
        basis[leave] = enter

    opt = -obj[-1]
    if opt == 0:
        x = [ZERO] * n
        for i, bv in enumerate(basis):
            val = tab[i][-1]
            if bv < n:
                x[bv] += val
            elif bv < 2 * n:
                x[bv - n] -= val
        return Feasibility(True, tuple(x))
    # Farkas: pi_i = 1 - reduced cost of artificial i; y_i = sigma_i * pi_i
    y = tuple(sigma[i] * (ONE - obj[art0 + i]) for i in range(m))
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
