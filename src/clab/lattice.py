"""Exact rational lattices Z^d <= L < Q^d, for d = 2 or 3.

Every lattice here contains Z^d with finite index N = [L : Z^d], so N * L
lies in Z^d, and L is the set of points v with N * v integral and N * v
mod N in a residue set: the group L / Z^d, scaled by N.  A lattice is
stored as (dim, N, residues).  That triple is canonical, so two equal
lattices are syntactically equal, and membership is one residue lookup.
The pipeline keeps its points N-scaled, as integer vectors: the primitive
point of L on a ray is one walk over the divisors of N (`primitive_point`),
and the points of the two fixed triangles it asks for, Delta' in N2 and the
junior triangle in N3, come from one integer scan of the residues
(`triangle_grid`).  Every predicate is decided in exact arithmetic; no
floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


# ---------------------------------------------------------------------------
# small exact-vector helpers (vectors are plain tuples of Fractions or ints)

def vec(*coords):
    return tuple(Fraction(c) for c in coords)


def cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def rat_str(q) -> str:
    """Serialize a rational exactly, e.g. '3/8', '-1/2', '1'."""
    return str(Fraction(q))


def _ratio_str(X, N) -> str:
    """rat_str(Fraction(X, N)) for integers X and N > 0, by one gcd."""
    g = gcd(X, N)
    return str(X // g) if g == N else f"{X // g}/{N // g}"


# ---------------------------------------------------------------------------
# lattices by their residue groups

def _closure(dim, gens, modulus) -> set:
    """The subgroup of (Z/modulus)^dim generated by the integer vectors
    gens, as a set of tuples reduced into [0, modulus)."""
    zero = (0,) * dim
    out = {zero}
    frontier = [zero]
    while frontier:
        r = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % modulus for a, b in zip(r, g))
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return out


@dataclass(frozen=True)
class Lattice:
    """A lattice Z^dim <= L < Q^dim: N = [L : Z^dim] and the residues of
    N * L modulo N, a subgroup of (Z/N)^dim of order N."""

    dim: int
    N: int
    residues: frozenset  # tuples in [0, N)^dim


def lattice_from_generators(dim, gens) -> Lattice:
    """The lattice Z^dim + sum_i Z*g_i.

    With E the least common denominator of the generators (the exponent
    of L / Z^dim), L / Z^dim is the subgroup of (Z/E)^dim that the E * g_i
    generate; its order is N, and scaling by N / E gives the residues."""
    if dim not in (2, 3):
        raise ValueError("only dimensions 2 and 3 are supported")
    gens = [tuple(Fraction(x) for x in g) for g in gens]
    for g in gens:
        if len(g) != dim:
            raise ValueError("generator has wrong dimension")
    E = lcm(*(x.denominator for g in gens for x in g))
    scaled = [tuple(x.numerator * (E // x.denominator) for x in g) for g in gens]
    group = _closure(dim, scaled, E)
    N = len(group)
    s = N // E
    return Lattice(dim, N, frozenset(tuple(s * c for c in r) for r in group))


def primitive_point(L: Lattice, V):
    """The primitive point of L on the ray R_{>=0} * V, for a nonzero
    integer vector V, as its N-scaled integer vector, N = [L : Z^dim]."""
    if len(V) != L.dim:
        raise ValueError("dimension mismatch")
    g = gcd(*V)
    if g == 0:
        raise ValueError("zero vector has no primitive multiple")
    V = [x // g for x in V]
    # V is primitive in Z^dim, so the points of L on the ray are k * V / N
    # for the k > 0 with k * V mod N a residue.  Those k mod N form a
    # subgroup of Z/N, whose least positive element divides N; k = N is one.
    N = L.N
    k = next(k for k in range(1, N + 1)
             if N % k == 0 and tuple(k * x % N for x in V) in L.residues)
    return tuple(k * x for x in V)


def triangle_grid(L: Lattice):
    """The points of L in the fixed unit triangle, as N-scaled integer pairs
    (X, Y) in lexicographic order, N = [L : Z^dim].

    In dimension 2 the triangle is Delta' = conv(0, e1, e2), and a pair
    stands for the point (X, Y) / N.  In dimension 3 it is the junior
    triangle conv(e1, e2, e3) on the plane x + y + z = 1, and a pair stands
    for (X, Y, N - X - Y) / N.  Every such point lies on the (1/N)-grid, so
    one scan over X, Y >= 0 with X + Y <= N keeps those whose residue is in
    L."""
    N = L.N
    dim = L.dim
    residues = L.residues
    return tuple(
        (X, Y)
        for X in range(N + 1)
        for Y in range(N + 1 - X)
        if (X % N, Y % N, -(X + Y) % N)[:dim] in residues
    )
