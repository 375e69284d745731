from fractions import Fraction as F

from clab.draw import _px
from clab.junior import build_junior
from clab.lattice import triangle_grid
from clab.surface import build_action, build_N2

from .oracles import fraction_px
from .test_golden import DRAWN_GROUPS
from .test_surface import TRIANGULATE_GROUPS

SPANS = ((6, 5), (11, 10))


def _groups():
    drawn = [(int(n), [tuple(map(int, g.split(","))) for g in gens.split(";")])
             for n, gens in (label.split(":") for label in DRAWN_GROUPS)]
    return TRIANGULATE_GROUPS + drawn


def test_integer_pixels_match_fraction_rounding():
    # every grid point of N2's Delta' and of the junior triangle, both spans
    ties = []
    for n, gens in _groups():
        A = build_action(n, gens)
        for L in (build_N2(A), build_junior(A).lattice):
            N = L.N
            for X, Y in triangle_grid(L):
                for p, q in SPANS:
                    got = _px(X, Y, N, (p, q))
                    assert got == fraction_px(F(X, N), F(Y, N), F(p, q)), \
                        (n, gens, X, Y, p, q)
                    offset = F(360 * q * X, p * N)  # pixels right of the pad
                    if offset.denominator == 2:
                        ties.append((offset, got[0] - 30))
    # at an exact half both pick the even neighbour: 37.5 -> 38, 112.5 -> 112
    assert ties
    assert all(abs(x - offset) == F(1, 2) and x % 2 == 0 for offset, x in ties)
