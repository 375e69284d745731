"""McKay quivers of abelian actions, torus-fixed stable constellations,
one-parameter-subgroup limits and the toric fan of the moduli space.

Vertices are the characters of G.  A torus-fixed support is encoded by the
cells it occupies in the character/degree plane: weight-consistency amounts
to a Z^2-valued potential on the vertices, which normalizes to a connected
set of cells with the trivial character at the origin.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .lattice import Lattice, cross2, is_member, primitive_point, rat_str
from .surface import AbelianAction, Resolution, build_N2, resolution_from_grid


class NonGenericThetaError(ValueError):
    """The stability parameter sits on a wall."""


class NoLimitSupportError(RuntimeError):
    """No stable support is feasible: u lies on a fan ray or theta on a wall."""


class ModuliFanError(RuntimeError):
    """The stable cones fail to tile the quadrant (internal consistency)."""


@dataclass(frozen=True)
class McKayQuiver:
    """Vertices are the characters of G; each vertex carries an x-arrow
    shifting by the class of (1,0) and a y-arrow shifting by the class of
    (0,1).

    A pair (u, v) is the character g = (a, b) -> zeta_n^(u a + v b), which
    depends on it mod e, the exponent of G, and `table` maps every pair in
    [0, e)^2 to the index of its character: a lookup is one reduction mod e."""

    action: AbelianAction
    vertices: tuple  # the least pair of each character, sorted
    table: dict = field(compare=False, repr=False)
    exponent: int = field(compare=False, repr=False)

    @property
    def order(self):
        return len(self.vertices)

    @functools.cached_property
    def N2(self) -> Lattice:
        """The lattice of one-parameter subgroups, in which the cones of the
        moduli fan take their primitive rays."""
        return build_N2(self.action)

    def vertex_index(self, u, v):
        e = self.exponent
        return self.table[u % e, v % e]

    def arrow_head(self, tail: int, kind: str) -> int:
        u, v = self.vertices[tail]
        if kind == "x":
            return self.vertex_index(u + 1, v)
        if kind == "y":
            return self.vertex_index(u, v + 1)
        raise ValueError(kind)

    @property
    def trivial_vertex(self) -> int:
        return self.table[0, 0]

    def arrows(self):
        return tuple(
            (kind, i) for i in range(self.order) for kind in ("x", "y")
        )


def build_mckay_quiver(A: AbelianAction) -> McKayQuiver:
    """The character table in one pass over (u, v) mod e: two pairs are one
    character iff they pair equally with every generator of G, every weight
    of G is a multiple of n / e, and the pairs come in lexicographic order,
    so the first pair of each character is its least, and lies in [0, e)^2."""
    n, e = A.n, A.exponent
    index = {}  # pairing with the generators -> vertex index
    vertices = []
    table = {}
    for u in range(e):
        for v in range(e):
            key = tuple((u * a + v * b) % n for a, b in A.gens)
            if key not in index:
                index[key] = len(vertices)
                vertices.append((u, v))
            table[u, v] = index[key]
    if len(vertices) != A.order:
        raise ValueError(f"the action has {len(vertices)} characters, "
                         f"not its order {A.order}")
    return McKayQuiver(A, tuple(vertices), table, e)


ARROW_STEP = {"x": (1, 0), "y": (0, 1)}


@dataclass(frozen=True)
class FixedConstellation:
    """A torus-fixed support: arrows (kind, tail-vertex) with a Z^2 potential
    `degrees` per vertex (the cell each character occupies, trivial character
    at the origin)."""

    quiver: McKayQuiver = field(compare=False, repr=False)
    arrows: tuple  # sorted (kind, tail) pairs
    degrees: tuple = field(compare=False)  # cell per vertex index

    def arrow_ids(self):
        return [f"{kind}@{tail}" for kind, tail in self.arrows]

    def normals(self):
        """One integer vector d = w(a) + deg(tail) - deg(head) per arrow a
        off the support.

        At u the gauge potentials give each arrow e(a) = <u, w(a)> +
        c(head) - c(tail).  e(a) = 0 on the support, which is connected and
        meets every vertex, so c(v) = -<u, deg(v)> up to the global gauge,
        and an arrow off the support gets e(a) = <u, d>."""
        Q = self.quiver
        aset = set(self.arrows)
        deg = self.degrees
        out = []
        for kind, tail in Q.arrows():
            if (kind, tail) in aset:
                continue
            head = Q.arrow_head(tail, kind)
            w = ARROW_STEP[kind]
            out.append((w[0] + deg[tail][0] - deg[head][0],
                        w[1] + deg[tail][1] - deg[head][1]))
        return tuple(out)

    @functools.cached_property
    def cone(self):
        """The closed cone C_A = {u in the quadrant : <u, d> >= 0 for every
        normal d}, as its primitive boundary rays (lo, hi) in N2, N-scaled
        to integer pairs as in `Resolution.grid`, or None when it is not
        full-dimensional.

        It depends on the support alone, not on theta, so it is computed
        once per candidate: the quadrant is cut by one half-plane at a
        time, on integers."""
        lo, hi = (1, 0), (0, 1)
        for d in self.normals():
            vlo = d[0] * lo[0] + d[1] * lo[1]
            vhi = d[0] * hi[0] + d[1] * hi[1]
            if vlo >= 0 and vhi >= 0:
                continue
            if vlo < 0 and vhi < 0:
                return None
            # the boundary line of the half-plane, oriented into [lo, hi]
            for cand in ((-d[1], d[0]), (d[1], -d[0])):
                if cross2(lo, cand) >= 0 and cross2(cand, hi) >= 0:
                    if vlo < 0:
                        lo = cand
                    else:
                        hi = cand
                    break
            else:
                return None
        if cross2(lo, hi) <= 0:
            return None
        N2 = self.quiver.N2
        return (primitive_point(N2, lo), primitive_point(N2, hi))

    @functools.cached_property
    def stability_masks(self):
        """Bitmasks of the nonempty proper arrow-closed vertex subsets (tail
        in S implies head in S): the support is theta-stable iff theta is
        positive on each.  Like the cone, they depend on the support alone."""
        Q = self.quiver
        m = Q.order
        succ = [0] * m
        for kind, tail in self.arrows:
            succ[tail] |= 1 << Q.arrow_head(tail, kind)
        # fixpoint generation: grow closed sets one admissible vertex at a time
        closed = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for v in range(m):
                if s & (1 << v) or succ[v] & ~s:
                    continue
                t = s | (1 << v)
                if t not in closed:
                    closed.add(t)
                    frontier.append(t)
        full = (1 << m) - 1
        return tuple(sorted(s for s in closed if s not in (0, full)))

    def to_json(self):
        return {"arrows": self.arrow_ids()}


@lru_cache(maxsize=64)  # bounded: one entry per group, far above desk use
def fixed_candidates(Q: McKayQuiver):
    """All supports satisfying square-compatibility, acyclicity and
    weight-consistency that are connected (disconnected supports are never
    stable: both halves of a split would be arrow-closed with positive
    theta-sum, contradicting theta(C[G]) = 0).

    Enumerated as connected cell sets S with the trivial character at (0,0)
    and pairwise distinct characters, carrying all degree-compatible arrows;
    acyclicity is automatic since arrows increase i + j.
    """
    m = Q.order
    out = []

    def neighbors(cell):
        i, j = cell
        return [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]

    def grow(cells, chars, frontier, banned):
        if len(cells) == m:
            out.append(frozenset(cells))
            return
        if not frontier:
            return
        head, rest = frontier[0], frontier[1:]
        ch = Q.vertex_index(*head)
        if ch not in chars:
            new_nb = [
                nb for nb in neighbors(head)
                if nb not in cells and nb not in banned and nb not in rest
                and nb != head
            ]
            grow(cells | {head}, chars | {ch}, rest + sorted(set(new_nb)),
                 banned)
        grow(cells, chars, rest, banned | {head})

    grow({(0, 0)}, {Q.vertex_index(0, 0)}, sorted(set(neighbors((0, 0)))),
         frozenset())

    result = []
    for cells in sorted(out, key=sorted):
        cand = _constellation_from_cells(Q, cells)
        if cand is not None:
            result.append(cand)
    return tuple(result)


def _constellation_from_cells(Q, cells):
    m = Q.order
    cell_of = {}
    for cell in cells:
        cell_of[Q.vertex_index(*cell)] = cell
    if len(cell_of) != m:
        return None
    arrows = []
    for cell in cells:
        for kind, (di, dj) in ARROW_STEP.items():
            if (cell[0] + di, cell[1] + dj) in cells:
                arrows.append((kind, Q.vertex_index(*cell)))
    # square-compatibility: the two length-2 paths around each cell square
    # are present together or not at all
    aset = set(arrows)
    for cell in cells:
        i, j = cell
        chi = Q.vertex_index(i, j)
        left = ("x", chi) in aset and ("y", Q.vertex_index(i + 1, j)) in aset
        right = ("y", chi) in aset and ("x", Q.vertex_index(i, j + 1)) in aset
        if left != right:
            return None
    degrees = tuple(cell_of[v] for v in range(m))
    return FixedConstellation(Q, tuple(sorted(arrows)), degrees)


@dataclass(frozen=True)
class Theta:
    """A stability parameter: one rational per character, summing to zero.

    Each value is kept as an `int` when it is integral and as a reduced
    `Fraction` otherwise, so the integer thetas the sampler draws are never
    converted.  `Fraction(k) == k` and the two hash alike, so equality,
    hashing and `to_json` do not depend on which form an entry came in."""

    values: tuple

    def __post_init__(self):
        vals = tuple(v if type(v) is int else _rational(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if sum(vals) != 0:
            raise ValueError("theta must pair to zero with the regular representation")

    def to_json(self):
        return [rat_str(v) for v in self.values]


def _rational(v):
    q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


def make_theta(values) -> Theta:
    return Theta(tuple(values))


def _subset_sums(theta: Theta):
    """table[mask] = the sum of theta over the bits of mask, times the common
    denominator of theta's values.  The table is read only for signs, which
    a positive scale keeps, so it is built on integers."""
    den = lcm(*(v.denominator for v in theta.values))
    table = [0]
    for v in theta.values:
        step = v.numerator * (den // v.denominator)
        table += [t + step for t in table]
    return table


def genericity_witness(theta: Theta):
    """None if conservatively generic, else a vertex subset with zero sum
    (smallest, then lexicographic)."""
    m = len(theta.values)
    table = _subset_sums(theta)
    hits = [mask for mask in range(1, (1 << m) - 1) if table[mask] == 0]
    if not hits:
        return None
    best = min(hits, key=lambda s: (s.bit_count(), s))
    return tuple(v for v in range(m) if best & (1 << v))


# the last theta `is_generic` passed and its table, for the next `_stable_at`
# to take if it scans that same object: one slot, so at most one table is held
_certified = (None, None)


def is_generic(theta: Theta) -> bool:
    """Conservative certificate: theta(S) != 0 for every nonempty proper
    subset of characters."""
    global _certified
    table = _subset_sums(theta)
    if 0 in table[1:-1]:
        return False
    _certified = (theta, table)
    return True


def _stable(Q: McKayQuiver, table):
    """The candidates of Q that are stable at the theta with subset-sum
    table `table`: theta is positive on each of their stability masks.  The
    scan of a candidate stops at its first mask where the table is <= 0."""
    out = []
    for c in fixed_candidates(Q):
        for mask in c.stability_masks:
            if table[mask] <= 0:
                break
        else:
            out.append(c)
    return tuple(out)


# bounded; the moduli fan does not go through this cache, so the thetas
# `verify` samples do not fill it
@lru_cache(maxsize=4096)
def enumerate_fixed_stable(Q: McKayQuiver, theta: Theta):
    """All torus-fixed theta-stable supports."""
    if len(theta.values) != Q.order:
        raise ValueError("theta has the wrong number of characters")
    return _stable(Q, _subset_sums(theta))


# ---------------------------------------------------------------------------
# limits and the moduli fan


def _limit_feasible(c: FixedConstellation, u) -> bool:
    """Whether gauge potentials exist at u with e(a) = 0 on the support and
    e(a) > 0 off it, strictness taken as e(a) >= 1.  The potentials are
    fixed up to the gauge (see `FixedConstellation.normals`), so this is
    min <u, d> >= 1 over the normals, and true when there are none.

    Each normal is the exponent of an invariant monomial, so <u, d> is an
    integer at u in N2 and >= 1 means > 0 there; at other rational u the
    two differ, and the test stays >= 1."""
    return all(u[0] * d[0] + u[1] * d[1] >= 1 for d in c.normals())


def ps_limit(Q: McKayQuiver, theta: Theta, u) -> FixedConstellation:
    """The limit constellation along the one-parameter subgroup u: the unique
    stable support whose gauge potentials are feasible at u.  u must be a
    point of the open quadrant in `Q.N2`, the lattice of Q's action."""
    u = tuple(Fraction(x) for x in u)
    if u[0] <= 0 or u[1] <= 0:
        raise ValueError("u must lie in the open quadrant")
    if not is_member(Q.N2, u):
        raise ValueError("u must be a lattice point of N2")
    if not is_generic(theta):
        raise NonGenericThetaError("theta is on a wall")
    feas = [c for c in enumerate_fixed_stable(Q, theta) if _limit_feasible(c, u)]
    if not feas:
        raise NoLimitSupportError(
            "no feasible stable support: u on a fan ray or theta on a wall"
        )
    if len(feas) > 1:
        raise ModuliFanError("multiple feasible supports at one u")
    return feas[0]


def moduli_fan_cones(Q: McKayQuiver, theta: Theta):
    """The full-dimensional cones C_A of the stable supports, angle ordered,
    with their bounding primitive rays in `Q.N2` as N-scaled integer pairs;
    raises if they fail to tile the quadrant."""
    return _tiling(_stable_at(Q, theta))


def _stable_at(Q, theta):
    """The stable candidates at a generic theta, from one subset-sum table."""
    global _certified
    if len(theta.values) != Q.order:
        raise ValueError("theta has the wrong number of characters")
    held, table = _certified
    _certified = (None, None)
    if held is not theta:
        table = _subset_sums(theta)
        if 0 in table[1:-1]:
            raise NonGenericThetaError("theta is on a wall")
    return _stable(Q, table)


def _tiling(stable):
    """The full-dimensional cones of `stable`, checked to tile the quadrant."""
    cones = [(c, *c.cone) for c in stable if c.cone is not None]
    if not cones:
        raise ModuliFanError("no full-dimensional stable cones")
    cones.sort(key=functools.cmp_to_key(
        lambda s, t: -1 if cross2(s[1], t[1]) > 0 else 1
    ))  # by angle of the lower bounding ray
    # the rays are primitive, so these are the primitive points of the axes
    if cones[0][1][1] != 0 or cones[-1][2][0] != 0:
        raise ModuliFanError("stable cones do not span the quadrant")
    for (c1, _, hi), (c2, lo, _) in itertools.pairwise(cones):
        if hi != lo:
            raise ModuliFanError("stable cones do not tile the quadrant")
    return tuple(cones)


def moduli_fan(Q: McKayQuiver, theta: Theta) -> Resolution:
    """The toric fan of the moduli space of theta-stable constellations, a
    resolution in `Q.N2`."""
    return _fan(Q, moduli_fan_cones(Q, theta))


def _fan(Q, cones):
    return resolution_from_grid(Q.N2, [cones[0][1]] + [c[2] for c in cones])
