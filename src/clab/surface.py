"""Finite abelian diagonal actions on C^2 and the surface-side toric pipeline:
boundary divisor, minimal resolution, discrepancies, maximal resolution and
the admissible resolutions in between.

Every ray is a primitive point of N2, which lies on the (1/N)-grid, N =
[N2 : Z^2] = |G|, so inside the package a ray (a, b) is its N-scaled
integer pair (N a, N b).  Every check, the blow-ups and the bound
a + b <= 1 of Delta' are integer on the pairs, and the lex order of the
pairs is the lex order of the rays.  Fractions are built only where a
caller reads rays, `Resolution.rays` and `discrepancies`; `to_json` writes
its strings from the pairs.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import gcd

from .lattice import (
    Lattice,
    _closure,
    _ratio_str,
    cross2,
    lattice_from_generators,
    primitive_point,
    triangle_grid,
)


@dataclass(frozen=True)
class AbelianAction:
    """A finite abelian subgroup of GL(2,C), diagonalized: each element is a
    weight pair (a, b) mod n, acting as diag(zeta_n^a, zeta_n^b).

    Equality is equality of subgroups: the generator presentation is kept for
    reporting but ignored by comparisons."""

    n: int
    gens: tuple = field(compare=False)
    elements: tuple  # closure of gens under addition mod n, sorted

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def exponent(self) -> int:
        e = 1
        for a, b in self.elements:
            oa = self.n // gcd(self.n, a) if a else 1
            ob = self.n // gcd(self.n, b) if b else 1
            o = oa * ob // gcd(oa, ob)
            e = e * o // gcd(e, o)
        return e

    def to_json(self):
        return {"n": self.n, "gens": [list(g) for g in self.gens]}


def build_action(n, gens) -> AbelianAction:
    if n < 1:
        raise ValueError("n must be a positive integer")
    gens = tuple((int(a) % n, int(b) % n) for a, b in gens)
    return AbelianAction(n, gens, tuple(sorted(_closure(2, gens, n))))


def is_small(A: AbelianAction) -> bool:
    """True iff the action is free off the origin: no g != id with an
    eigenvalue 1, i.e. with a_g = 0 or b_g = 0 (mod n)."""
    return all(a % A.n != 0 and b % A.n != 0
               for a, b in A.elements if (a, b) != (0, 0))


def build_N2(A: AbelianAction) -> Lattice:
    L = lattice_from_generators(
        2, [(Fraction(a, A.n), Fraction(b, A.n)) for a, b in A.gens]
    )
    if L.N != A.order:
        raise ValueError(f"N2 has index {L.N}, not the order {A.order}")
    return L


@dataclass(frozen=True)
class BoundaryDivisor:
    """B = (m1-1)/m1 * B1 + (m2-1)/m2 * B2 with m_i defined by e_i = m_i e_i'."""

    m1: int
    m2: int

    @property
    def coefficients(self):
        return (Fraction(self.m1 - 1, self.m1), Fraction(self.m2 - 1, self.m2))


def boundary_divisor(N2: Lattice) -> BoundaryDivisor:
    """e_i' = e_i / m_i is the primitive point of N2 on the i-th axis; its
    N-scaled coordinate k_i divides N, and m_i = N / k_i."""
    N = N2.N
    k1 = primitive_point(N2, (1, 0))[0]
    k2 = primitive_point(N2, (0, 1))[1]
    if N % k1 or N % k2:
        raise ValueError("the primitive axis points are not of the form e_i/m_i")
    return BoundaryDivisor(N // k1, N // k2)


# ---------------------------------------------------------------------------
# resolutions of C^2/G as primitive ray sequences in N2


@dataclass(frozen=True)
class Resolution:
    """A toric resolution: primitive rays v_0 .. v_s in N2, angle ordered,
    with v_0 on the x-axis, v_s on the y-axis, and consecutive pairs forming
    N2-bases.  Stored as `grid`, the rays times N = [N2 : Z^2] as integer
    pairs, with its lattice; equality is equality of ray sequences on one
    lattice."""

    grid: tuple
    lattice: Lattice = field(repr=False)

    @cached_property
    def rays(self):
        """The rays (a, b), in the order of `grid`."""
        N = self.lattice.N
        return tuple((Fraction(X, N), Fraction(Y, N)) for X, Y in self.grid)

    @property
    def discrepancies(self):
        """a + b - 1 for each exceptional ray (a, b)."""
        N = self.lattice.N
        return tuple(Fraction(X + Y - N, N) for X, Y in self.grid[1:-1])

    @property
    def exceptional_rays(self):
        return self.rays[1:-1]

    def to_json(self):
        N = self.lattice.N
        inner = self.grid[1:-1]
        return {
            "rays": [[_ratio_str(X, N), _ratio_str(Y, N)] for X, Y in inner],
            "discrepancies": [_ratio_str(X + Y - N, N) for X, Y in inner],
            "v0": [_ratio_str(c, N) for c in self.grid[0]],
            "vs": [_ratio_str(c, N) for c in self.grid[-1]],
        }


def _ray(X, Y, N):
    """The ray of an N-scaled pair, for messages."""
    return (Fraction(X, N), Fraction(Y, N))


def resolution_from_grid(lattice: Lattice, grid) -> Resolution:
    """The resolution whose rays times N = [L : Z^2] are the pairs `grid`,
    validated on integers: v_0 on the positive x-axis, v_s on the positive
    y-axis, every ray in the nonnegative quadrant with its residue in L, and
    each consecutive pair with cross product exactly N (a positively
    ordered L-basis, so every ray is primitive)."""
    grid = tuple(grid)
    if len(grid) < 2:
        raise ValueError("a resolution needs at least the two boundary rays")
    if lattice.dim != 2 or any(len(U) != 2 for U in grid):
        raise ValueError("dimension mismatch")
    N = lattice.N
    if not (grid[0][1] == 0 and grid[0][0] > 0):
        raise ValueError("v0 must lie on the positive x-axis")
    if not (grid[-1][0] == 0 and grid[-1][1] > 0):
        raise ValueError("v_s must lie on the positive y-axis")
    residues = lattice.residues
    for X, Y in grid:
        if X < 0 or Y < 0:
            raise ValueError("rays must lie in the nonnegative quadrant")
        if (X % N, Y % N) not in residues:
            raise ValueError(f"ray {_ray(X, Y, N)} is not a lattice point")
    for U, V in itertools.pairwise(grid):
        det = cross2(U, V)  # N times det[u v] / covolume(L)
        if det <= 0:
            raise ValueError("rays must be strictly ordered by angle")
        if det != N:
            raise ValueError(f"consecutive rays {_ray(*U, N)}, {_ray(*V, N)} "
                             "are not a lattice basis")
    return Resolution(grid, lattice)


def _angle_cmp(u, v):
    c = cross2(u, v)
    return -1 if c > 0 else (1 if c < 0 else 0)


def sort_rays_by_angle(rays):
    return tuple(sorted(rays, key=cmp_to_key(_angle_cmp)))


def minimal_resolution(N2: Lattice) -> Resolution:
    """Hirzebruch-Jung: the rays are all lattice points on the boundary of
    conv((N2 \\ 0) cap quadrant), walked from e_2' down to e_1'."""
    return resolution_from_grid(N2, _minimal_rays(N2))


def _minimal_rays(N2: Lattice):
    """The N-scaled rays of `minimal_resolution`, not validated."""
    X = primitive_point(N2, (1, 0))[0]
    Y = primitive_point(N2, (0, 1))[1]
    N = N2.N
    residues = N2.residues
    pts = [
        (p, q)
        for p in range(X + 1)
        for q in range(Y + 1)
        if (p, q) != (0, 0) and (p % N, q % N) in residues
    ]
    pts.sort()  # x ascending, then y ascending; pts[0] is e2'
    if pts[0] != (0, Y):
        raise ValueError("the boundary walk does not start at e2'")
    # monotone-chain lower hull keeping collinear boundary points
    chain = []
    for p in pts:
        while len(chain) >= 2:
            ux, uy = chain[-1][0] - chain[-2][0], chain[-1][1] - chain[-2][1]
            vx, vy = p[0] - chain[-1][0], p[1] - chain[-1][1]
            if ux * vy - uy * vx < 0:
                chain.pop()
            else:
                break
        chain.append(p)
    chain = chain[: chain.index((X, 0)) + 1]
    return tuple(reversed(chain))


def maximal_resolution(N2: Lattice) -> Resolution:
    """All primitive points of N2 in the closed triangle
    Delta' = {a, b >= 0, a + b <= 1}, ordered by angle."""
    return resolution_from_grid(N2, _maximal_rays(N2))


def _maximal_rays(N2: Lattice):
    """The N-scaled rays of `maximal_resolution`, not validated.

    The points of N2 on a ray are the multiples of its primitive point, and
    Delta' is star-shaped from 0, so the lexicographic scan of Delta' meets
    the primitive point of each ray in it first."""
    first = {}
    for X, Y in triangle_grid(N2)[1:]:  # [0] is the origin
        g = gcd(X, Y)
        first.setdefault((X // g, Y // g), (X, Y))
    return sort_rays_by_angle(first.values())


# desk scale: at most 2^20 admissible resolutions, and it refuses every group
# before any gap's fills are listed (one gap of 1/299(1,25) has 8*10^12)
MAX_OPTIONAL_RAYS = 20


def _blowups(u, v, N):
    """Every refinement of the unimodular cone (u, v) into unimodular cones
    with rays of a + b <= 1, as the tuple of N-scaled rays strictly between
    the N-scaled rays u and v.

    Each nontrivial one contains u + v (Fulton, Introduction to Toric
    Varieties, 2.6), so it is u + v with a refinement on either side."""
    w = (u[0] + v[0], u[1] + v[1])
    out = [()]
    if w[0] + w[1] <= N:
        out += [left + (w,) + right
                for left in _blowups(u, w, N) for right in _blowups(w, v, N)]
    return out


class AdmissibleSequences(Sequence):
    """The N-scaled ray sequences of the admissible resolutions between the
    minimal and the maximal resolution of one lattice, sorted by (number of
    rays, rays) and decoded by index, none of them validated.

    A resolution is one blow-up fill per pair (u, v) of consecutive minimal
    rays: v_0 and then, per gap, one part, the fill and v.  A gap's parts
    are prefix-free, as v lies outside its fills, so sequences of one length
    are ordered by their parts, gap by gap.  `parts` holds each gap's parts
    sorted, `counts[g][k]` the ways the gaps from g on make k rays."""

    def __init__(self, minres: Resolution, maxres: Resolution):
        rmin, rmax = minres.grid, maxres.grid
        optional = len(set(rmax) - set(rmin))
        if optional > MAX_OPTIONAL_RAYS:
            raise ValueError(f"too many optional rays ({optional}) for the "
                             "admissible resolutions; at most "
                             f"{MAX_OPTIONAL_RAYS} are served")
        self.first = rmin[:1]
        N = minres.lattice.N
        self.parts = tuple(sorted(fill + (v,) for fill in _blowups(u, v, N))
                           for u, v in itertools.pairwise(rmin))
        self.counts = [{0: 1}]
        for parts in reversed(self.parts):
            counts = {}
            for part in parts:
                for k, c in self.counts[0].items():
                    counts[k + len(part)] = counts.get(k + len(part), 0) + c
            self.counts.insert(0, counts)
        self._len = sum(self.counts[0].values())
        if self[-1] != rmax:  # self[0] is rmin: each gap's first part is (v,)
            raise ValueError("the blow-ups miss a ray of the maximal resolution")

    def __len__(self):
        return self._len

    def __iter__(self):  # a stable sort by length keeps the product's order
        for parts in sorted(itertools.product(*self.parts),
                            key=lambda parts: sum(map(len, parts))):
            yield self.first + tuple(itertools.chain(*parts))

    def __getitem__(self, i):
        if not -self._len <= i < self._len:
            raise IndexError("admissible resolution index out of range")
        i %= self._len
        for k, c in sorted(self.counts[0].items()):
            if i < c:
                break
            i -= c
        out = list(self.first)
        for parts, counts in zip(self.parts, self.counts[1:]):
            for part in parts:
                c = counts.get(k - len(part), 0)
                if i < c:
                    break
                i -= c
            out += part
            k -= len(part)
        return tuple(out)


def enumerate_admissible_resolutions(N2: Lattice):
    """All resolutions Y with rays(minimal) <= rays(Y) <= rays(maximal) whose
    consecutive ray pairs are unimodular; includes the minimal and maximal.
    Sorted by (number of rays, rays), so an index into the tuple names one
    resolution."""
    sequences = AdmissibleSequences(minimal_resolution(N2),
                                    maximal_resolution(N2))
    return tuple(resolution_from_grid(N2, grid) for grid in sequences)


def is_dominated_by_max(Y: Resolution) -> bool:
    """True iff every exceptional ray (a, b) has a + b <= 1, i.e. every
    discrepancy is <= 0."""
    N = Y.lattice.N
    return all(X + Z <= N for X, Z in Y.grid[1:-1])
