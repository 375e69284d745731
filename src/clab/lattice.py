"""Exact rational lattice arithmetic.

All lattices here contain Z^d (d = 2 or 3) and are stored by a canonical
basis in column Hermite normal form, so two equal lattices are syntactically
equal.  Every predicate is decided in exact rational arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd, lcm


# ---------------------------------------------------------------------------
# small exact-vector helpers (vectors are plain tuples of Fractions)

def vec(*coords):
    return tuple(Fraction(c) for c in coords)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(k, v):
    k = Fraction(k)
    return tuple(k * a for a in v)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(u, v, w):
    return dot(u, cross3(v, w))


def rat_str(q) -> str:
    """Serialize a rational exactly, e.g. '3/8', '-1/2', '1'."""
    return str(Fraction(q))


def parse_rat(s) -> Fraction:
    return Fraction(s)


# ---------------------------------------------------------------------------
# Hermite normal form

def _column_hnf(cols, dim):
    """Canonical column-style HNF of an integer matrix of full row rank.

    Returns dim columns forming an upper-triangular matrix with positive
    diagonal and each entry right of a pivot reduced into [0, pivot).
    """
    work = [list(c) for c in cols if any(c)]
    pivots = []
    for row in range(dim - 1, -1, -1):
        while True:
            nz = [c for c in work if c[row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[row]))
            a = nz[0]
            for b in nz[1:]:
                q = b[row] // a[row]
                if q:
                    for i in range(dim):
                        b[i] -= q * a[i]
        nz = [c for c in work if c[row] != 0]
        if not nz:
            raise ValueError("generators do not span the ambient space")
        p = nz[0]
        work.remove(p)
        if p[row] < 0:
            p[:] = [-x for x in p]
        pivots.append(p)
    pivots.reverse()  # column j now has its pivot in row j and zeros below
    for j in range(dim):
        col = pivots[j]
        for i in range(j - 1, -1, -1):
            q = col[i] // pivots[i][i]
            if q:
                for r in range(dim):
                    col[r] -= q * pivots[i][r]
    return pivots


@dataclass(frozen=True)
class Lattice:
    """A lattice Z^dim <= L < Q^dim, stored by canonical HNF basis columns."""

    dim: int
    basis: tuple  # tuple of columns, each a tuple of Fractions

    @property
    def index(self) -> Fraction:
        """|det(basis)|; equals 1/[L : Z^dim]."""
        d = Fraction(1)
        for j in range(self.dim):
            d *= self.basis[j][j]
        return d

    def denominator_bound(self) -> int:
        """N such that L is contained in (1/N) Z^dim; N = [L : Z^dim]."""
        inv = 1 / self.index
        if inv.denominator != 1:
            raise ValueError("the lattice does not contain Z^dim")
        return inv.numerator


def lattice_from_generators(dim, gens) -> Lattice:
    """The lattice Z^dim + sum_i Z*g_i, with canonical HNF basis."""
    if dim not in (2, 3):
        raise ValueError("only dimensions 2 and 3 are supported")
    gens = [tuple(Fraction(x) for x in g) for g in gens]
    for g in gens:
        if len(g) != dim:
            raise ValueError("generator has wrong dimension")
    den = 1
    for g in gens:
        for x in g:
            den = den * x.denominator // gcd(den, x.denominator)
    cols = []
    for i in range(dim):
        e = [0] * dim
        e[i] = den
        cols.append(e)
    for g in gens:
        cols.append([int(x * den) for x in g])
    H = _column_hnf(cols, dim)
    basis = tuple(
        tuple(Fraction(H[j][i], den) for i in range(dim)) for j in range(dim)
    )
    lat = Lattice(dim, basis)
    if (1 / lat.index).denominator != 1:  # Z^dim <= L forces integer index
        raise ValueError("the generated lattice does not contain Z^dim")
    return lat


def _solve_basis(L: Lattice, v):
    """Coordinates x with sum_j x_j * basis_j = v (basis upper triangular)."""
    if len(v) != L.dim:
        raise ValueError("dimension mismatch")
    x = [Fraction(0)] * L.dim
    for i in range(L.dim - 1, -1, -1):
        s = v[i] - sum(L.basis[j][i] * x[j] for j in range(i + 1, L.dim))
        x[i] = s / L.basis[i][i]
    return tuple(x)


def is_member(L: Lattice, v) -> bool:
    """True iff v lies in L."""
    v = tuple(Fraction(c) for c in v)
    return all(c.denominator == 1 for c in _solve_basis(L, v))


@lru_cache(maxsize=None)
def _residues(L: Lattice) -> frozenset:
    """Residue classes of L modulo Z^dim, scaled by N = [L : Z^dim].

    L / Z^dim is generated by the basis columns, so the scaled residues are
    the subgroup of (Z/N)^dim that the scaled columns generate."""
    N = L.denominator_bound()
    gens = [tuple(int(c * N) for c in col) for col in L.basis]
    out = {(0,) * L.dim}
    frontier = list(out)
    while frontier:
        r = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % N for a, b in zip(r, g))
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return frozenset(out)


def primitive_in_lattice(L: Lattice, v):
    """The primitive point of L on the ray R_{>=0} * v."""
    v = tuple(Fraction(c) for c in v)
    if all(c == 0 for c in v):
        raise ValueError("zero vector has no primitive multiple")
    x = _solve_basis(L, v)
    # {t > 0 : t*x integral} is generated by lcm_i(q_i/|p_i|) over x_i = p_i/q_i,
    # where lcm of reduced fractions = lcm(numerators)/gcd(denominators)
    num, den = 1, 0
    for c in x:
        if c == 0:
            continue
        ci = Fraction(c.denominator, abs(c.numerator))
        num = num * ci.numerator // gcd(num, ci.numerator)
        den = ci.denominator if den == 0 else gcd(den, ci.denominator)
    t = Fraction(num, den)
    w = vscale(t, v)
    if not is_member(L, w):
        raise ArithmeticError(f"the multiple {w} of {v} is not in the lattice")
    return w


def pair_determinant(L: Lattice, u, v) -> Fraction:
    """det[u v] / det(L basis); the pair is an L-basis iff this is +-1."""
    if L.dim != 2 or len(u) != 2 or len(v) != 2:
        raise ValueError("pair_determinant requires dimension 2")
    u = tuple(Fraction(c) for c in u)
    v = tuple(Fraction(c) for c in v)
    return cross2(u, v) / L.index


def lattice_points_in_triangle(L: Lattice, a, b, c):
    """All points of L in the closed triangle abc, in lexicographic order.

    In dimension 3 the three vertices must be affinely independent points of
    a common rational plane (the junior-plane case).
    """
    a = tuple(Fraction(x) for x in a)
    b = tuple(Fraction(x) for x in b)
    c = tuple(Fraction(x) for x in c)
    if L.dim == 2:
        pts = _points_triangle_2d(L, a, b, c)
    else:
        pts = _points_triangle_planar_3d(L, a, b, c)
    return tuple(sorted(pts))


def _halfplanes(a, b, c, N):
    """Integer rows (alpha, beta, gamma), one per edge of the plane triangle
    abc: the point (p, q) / N lies in the closed triangle iff
    alpha * p + beta * q + gamma >= 0 for all three rows."""
    area = cross2(vsub(b, a), vsub(c, a))
    if area == 0:
        raise ValueError("degenerate triangle")
    sign = 1 if area > 0 else -1
    rows = []
    for u, v in ((a, b), (b, c), (c, a)):
        # N * cross2(v - u, x - u) at x = (p, q) / N
        coeffs = (u[1] - v[1], v[0] - u[0], N * cross2(u, v))
        den = lcm(*(x.denominator for x in coeffs))
        rows.append(tuple(sign * int(x * den) for x in coeffs))
    return rows


def _scaled_box(a, b, c, i, N):
    """The integers p with p / N between the least and the greatest i-th
    coordinate of a, b and c."""
    xs = (a[i], b[i], c[i])
    return range(ceil(min(xs) * N), floor(max(xs) * N) + 1)


def _points_triangle_2d(L, a, b, c):
    N = L.denominator_bound()
    rows = _halfplanes(a, b, c, N)
    residues = _residues(L)
    out = []
    for p in _scaled_box(a, b, c, 0, N):
        for q in _scaled_box(a, b, c, 1, N):
            if (all(al * p + be * q + ga >= 0 for al, be, ga in rows)
                    and (p % N, q % N) in residues):
                out.append((Fraction(p, N), Fraction(q, N)))
    return out


def _points_triangle_planar_3d(L, a, b, c):
    n = cross3(vsub(b, a), vsub(c, a))
    k = max(range(3), key=lambda i: abs(n[i]))  # axis solved from plane eqn
    i1, i2 = [i for i in range(3) if i != k]
    N = L.denominator_bound()
    # containment is decided in the projection to the (i1, i2) plane, which
    # is degenerate iff n = 0
    rows = _halfplanes(*((p[i1], p[i2]) for p in (a, b, c)), N)
    # the plane n.x = n.a on scaled coordinates X = N x, with integer m
    den = lcm(*(x.denominator for x in (*n, dot(n, a))))
    m = [int(x * den) for x in n]
    m0 = int(dot(n, a) * den) * N
    residues = _residues(L)
    out = []
    for p in _scaled_box(a, b, c, i1, N):
        for q in _scaled_box(a, b, c, i2, N):
            if any(al * p + be * q + ga < 0 for al, be, ga in rows):
                continue
            r = m0 - m[i1] * p - m[i2] * q
            if r % m[k]:
                continue
            pt = [0, 0, 0]
            pt[i1], pt[i2], pt[k] = p, q, r // m[k]
            if tuple(x % N for x in pt) in residues:
                out.append(tuple(Fraction(x, N) for x in pt))
    return out
