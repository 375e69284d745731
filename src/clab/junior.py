"""The SL(3) side: junior simplex, lifts of surface rays, basic triangulations,
the recursive star-subdivision construction of a projective crepant 3-fold
containing a chosen surface resolution, and the LP-backed regularity, nef-cone
and ample-restriction computations.

All triangulations live on the junior plane {x + y + z = 1}; planar geometry
is done on the first two coordinates, which is an affine isomorphism onto the
triangle Delta' = {a, b >= 0, a + b <= 1}.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import (
    Lattice,
    _halfplanes,
    cross2,
    det3,
    is_member,
    lattice_from_generators,
    lattice_points_in_triangle,
    rat_str,
    vec,
    vsub,
)
from .linprog import solve_feasibility
from .surface import (
    AbelianAction,
    Resolution,
    is_dominated_by_max,
    minimal_resolution,
)

E1 = vec(1, 0, 0)
E2 = vec(0, 1, 0)
E3 = vec(0, 0, 1)


class InadmissibleResolutionError(ValueError):
    """The chosen surface resolution is not dominated by the maximal one."""


class TriangulationError(RuntimeError):
    """A construction or certificate on the junior simplex failed its own
    check (internal consistency)."""


@dataclass(frozen=True)
class JuniorSimplex:
    """The triangle with vertices e1, e2, e3 in (N3)_R together with all its
    lattice points (the age-one group elements plus the vertices)."""

    lattice: Lattice
    points: tuple

    @property
    def vertices(self):
        return (E1, E2, E3)


def build_junior(A: AbelianAction) -> JuniorSimplex:
    n = A.n
    gens = [
        (Fraction(a, n), Fraction(b, n), Fraction(-a - b, n))
        for a, b in A.gens
    ]
    N3 = lattice_from_generators(3, gens)
    if N3.N != A.order:
        raise TriangulationError(
            f"N3 has index {N3.N}, not the order {A.order}")
    pts = lattice_points_in_triangle(N3, E1, E2, E3)
    if any(sum(p) != 1 or min(p) < 0 for p in pts):
        raise TriangulationError("a junior point lies off the simplex")
    if not {E1, E2, E3} <= set(pts):
        raise TriangulationError("the junior points miss a vertex")
    return JuniorSimplex(N3, pts)


def project_p12(w):
    """Drop the third coordinate; maps the junior simplex onto Delta'."""
    return (Fraction(w[0]), Fraction(w[1]))


def lift_to_junior(J: JuniorSimplex, v):
    """The unique point of Delta cap N3 over v in Delta' cap N2."""
    a, b = Fraction(v[0]), Fraction(v[1])
    if a < 0 or b < 0 or a + b > 1:
        raise ValueError(f"{v} does not lie in Delta'")
    w = (a, b, 1 - a - b)
    if not is_member(J.lattice, w):
        raise ValueError(f"lift of {v} is not a lattice point (inconsistent lattices)")
    return w


# ---------------------------------------------------------------------------
# planar predicates on the junior plane (via the first two coordinates)


def _area2(a, b, c):
    # twice the signed area of the projected triangle; also equals
    # det3 of the three sum-one vertices
    return cross2(vsub(project_p12(b), project_p12(a)),
                  vsub(project_p12(c), project_p12(a)))


def _on_segment(p, a, b):
    pa, ba = vsub(project_p12(p), project_p12(a)), vsub(project_p12(b), project_p12(a))
    if cross2(ba, pa) != 0:
        return False
    t = None
    for i in range(2):
        if ba[i] != 0:
            t = pa[i] / ba[i]
            break
    if t is None:
        return p == a
    return 0 <= t <= 1


def _barycentric(p, a, b, c):
    ab = vsub(project_p12(b), project_p12(a))
    ac = vsub(project_p12(c), project_p12(a))
    ap = vsub(project_p12(p), project_p12(a))
    area = cross2(ab, ac)
    s = cross2(ap, ac) / area
    t = cross2(ab, ap) / area
    return (1 - s - t, s, t)  # coefficients at a, b, c


def _in_triangle(p, a, b, c):
    la, lb, lc = _barycentric(p, a, b, c)
    return la >= 0 and lb >= 0 and lc >= 0


def star_subdivide(triangle, w):
    """Star subdivision of a junior-plane triangle at an interior or edge
    point: up to three triangles (w,B,C), (w,A,C), (w,A,B), degenerate ones
    dropped."""
    a, b, c = (tuple(Fraction(x) for x in p) for p in triangle)
    w = tuple(Fraction(x) for x in w)
    if _area2(a, b, c) == 0:
        raise ValueError("degenerate triangle")
    if w in (a, b, c):
        raise ValueError("subdivision point must not be a vertex")
    if not _in_triangle(w, a, b, c):
        raise ValueError("subdivision point must lie in the triangle")
    pieces = [(w, b, c), (w, a, c), (w, a, b)]
    return [t for t in pieces if _area2(*t) != 0]


# ---------------------------------------------------------------------------
# triangulations


@dataclass(frozen=True)
class Triangulation:
    """Triangles on the junior plane, stored as sorted index triples into a
    lex-sorted point tuple."""

    points: tuple
    triangles: tuple
    lattice: Lattice = field(compare=False, repr=False)

    def triangle_coords(self, t):
        return tuple(self.points[i] for i in t)

    def edges(self):
        out = set()
        for t in self.triangles:
            for i, j in itertools.combinations(t, 2):
                out.add((i, j))
        return sorted(out)

    def edge_triangles(self):
        e2t = {}
        for t in self.triangles:
            for i, j in itertools.combinations(t, 2):
                e2t.setdefault((i, j), []).append(t)
        return e2t

    def neighbors_of(self, point):
        idx = self.points.index(tuple(Fraction(x) for x in point))
        out = set()
        for t in self.triangles:
            if idx in t:
                out.update(set(t) - {idx})
        return tuple(self.points[i] for i in sorted(out))

    @functools.cached_property
    def wall_rows(self):
        """One row per interior wall: row.h >= 0 is weak convexity across the
        wall, > 0 strict.  The row says h(d) must exceed the affine extension
        of h from the triangle (a, b, c) on the other side.  The regularity,
        nef-cone and amp-restriction computations all read these rows, so
        they are built once per triangulation."""
        rows = []
        npts = len(self.points)
        for edge, tris in sorted(self.edge_triangles().items()):
            if len(tris) != 2:
                continue
            t1, t2 = tris
            a_i, b_i = edge
            c_i = next(i for i in t1 if i not in edge)
            d_i = next(i for i in t2 if i not in edge)
            la, lb, lc = _barycentric(self.points[d_i], self.points[a_i],
                                      self.points[b_i], self.points[c_i])
            if lc >= 0:
                raise ValueError(f"the triangles on edge {edge} overlap")
            row = [Fraction(0)] * npts
            row[d_i] += 1
            row[a_i] -= la
            row[b_i] -= lb
            row[c_i] -= lc
            rows.append((edge, tuple(row)))
        return tuple(rows)

    def to_json(self):
        return {
            "points": [[rat_str(c) for c in p] for p in self.points],
            "triangles": [list(t) for t in self.triangles],
        }


def make_triangulation(lattice: Lattice, triangles) -> Triangulation:
    tris = [tuple(tuple(Fraction(x) for x in p) for p in t) for t in triangles]
    pts = sorted({p for t in tris for p in t})
    index = {p: i for i, p in enumerate(pts)}
    tri_idx = sorted(tuple(sorted(index[p] for p in t)) for t in tris)
    if len(set(tri_idx)) != len(tri_idx):
        raise ValueError("duplicate triangles")
    for t in tris:
        if _area2(*t) == 0:
            raise ValueError(f"degenerate triangle {t}")
    T = Triangulation(tuple(pts), tuple(tri_idx), lattice)
    for e, ts in T.edge_triangles().items():
        if len(ts) > 2:
            raise ValueError(f"edge {e} shared by more than two triangles")
    return T


def is_basic(T: Triangulation) -> bool:
    """All triangles span unimodular cones of N3 and their areas fill Delta."""
    unit = T.lattice.index
    total = Fraction(0)
    for t in T.triangles:
        a, b, c = T.triangle_coords(t)
        d = abs(det3(a, b, c))
        if d != unit:
            return False
        total += d
    return total == abs(det3(E1, E2, E3))


def _interiors_disjoint(t1, t2):
    # separating-axis test for convex polygons, exact
    for tri_a, tri_b in ((t1, t2), (t2, t1)):
        for i in range(3):
            a = project_p12(tri_a[i])
            b = project_p12(tri_a[(i + 1) % 3])
            d = vsub(b, a)
            sides_a = [cross2(d, vsub(project_p12(p), a)) for p in tri_a]
            sides_b = [cross2(d, vsub(project_p12(p), a)) for p in tri_b]
            if max(sides_a) <= 0 and min(sides_b) >= 0:
                return True
            if min(sides_a) >= 0 and max(sides_b) <= 0:
                return True
    return False


def covers_simplex(T: Triangulation) -> bool:
    """Area sum equals area of Delta and triangle interiors are pairwise
    disjoint."""
    total = sum(abs(det3(*T.triangle_coords(t))) for t in T.triangles)
    if total != abs(det3(E1, E2, E3)):
        return False
    coords = [T.triangle_coords(t) for t in T.triangles]
    for t1, t2 in itertools.combinations(coords, 2):
        if not _interiors_disjoint(t1, t2):
            return False
    return True


# ---------------------------------------------------------------------------
# regularity, nef cone, ample restriction


@dataclass(frozen=True)
class PLSupportFunction:
    """Heights per triangulation point certifying strict convexity across
    every interior wall (all modulo affine-linear functions)."""

    triangulation: Triangulation = field(compare=False)
    heights: tuple

    def height(self, point):
        return self.heights[self.triangulation.points.index(tuple(point))]


@dataclass(frozen=True)
class RegularityRefusal:
    """Farkas witness: with weak convexity everywhere, the listed walls can
    never be simultaneously strict."""

    edges: tuple
    farkas: tuple


def regularity_certificate(T: Triangulation):
    """Rational heights strictly convex across every interior wall, or a
    refusal witness.  Strictness is encoded by the scale-invariant system
    row.h >= 1."""
    rows = T.wall_rows
    if not rows:
        return PLSupportFunction(T, tuple([Fraction(0)] * len(T.points)))
    res = solve_feasibility(len(T.points), [], [(r, 1) for _, r in rows])
    if res.feasible:
        for edge, r in rows:
            if sum(c * h for c, h in zip(r, res.point)) < 1:
                raise TriangulationError(
                    f"the heights are not strictly convex across {edge}")
        return PLSupportFunction(T, tuple(res.point))
    support = tuple(
        edge for (edge, _), y in zip(rows, res.farkas) if y > 0
    )
    return RegularityRefusal(support, res.farkas)


@dataclass(frozen=True)
class NefCone:
    """The cone of convex support functions on a triangulation, as weak wall
    inequalities on the height space modulo affine-linear functions."""

    triangulation: Triangulation = field(compare=False)
    rows: tuple  # (edge, coefficient row over points)

    def ambient_dim(self):
        return len(self.triangulation.points) - 3

    def dimension(self):
        """dim of {h : rows.h >= 0} modulo the 3-dim affine gauge."""
        n = len(self.triangulation.points)
        ge = [(list(r), Fraction(0)) for _, r in self.rows]
        eq_normals = []
        for edge, r in self.rows:
            probe = solve_feasibility(n, [], ge + [(list(r), 1)])
            if not probe.feasible:
                eq_normals.append(list(r))
        # gauge: affine functions h(p) = alpha + beta.x + gamma.y always lie
        # in the cone's lineality space, spanning 3 dimensions
        rank = _rank(eq_normals)
        return (n - rank) - 3

    def contains(self, heights, strict=False):
        for _, r in self.rows:
            v = sum(c * h for c, h in zip(r, heights))
            if v < 0 or (strict and v == 0):
                return False
        return True


def _rank(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def nef_cone(T: Triangulation) -> NefCone:
    return NefCone(T, T.wall_rows)


def stabilizer_x_axis(A: AbelianAction):
    """Z = {g : a_g = 0 mod n}, the stabilizer of (1,0) in C^2 c C^3."""
    return tuple((a, b) for a, b in A.elements if a % A.n == 0)


def slice_resolution(A: AbelianAction) -> Resolution:
    """The minimal resolution W of C^2/Z for the transverse slice along the
    e2-e3 edge; Z acts on the slice with SL(2) weights (b, -b)."""
    n = A.n
    Z = stabilizer_x_axis(A)
    LW = lattice_from_generators(
        2, [(Fraction(b, n), Fraction((-a - b) % n, n)) for a, b in Z]
    )
    W = minimal_resolution(LW)
    # SL(2) slice: all rays are crepant, so they sit on the sum-one segment
    if any(r[0] + r[1] != 1 for r in W.rays):
        raise TriangulationError("a slice ray is off the sum-one segment")
    return W


def amp_restriction_surjective(T: Triangulation, A: AbelianAction) -> bool:
    """Whether Nef(U_Sigma) -> Nef(W) is surjective, decided by one weak-wall
    LP per extreme ray of Nef(W).  W-heights are read off along the e2-e3
    edge of the junior simplex."""
    if E1 not in T.points:
        raise ValueError("e1 is not a vertex of the triangulation")
    W = slice_resolution(A)
    m = len(W.rays) - 1
    edge_pts = [(Fraction(0), r[0], r[1]) for r in W.rays]
    for q in edge_pts:
        if q not in T.points:
            raise ValueError("triangulation is missing a slice lattice point")
    actual_edge = [p for p in T.points if p[0] == 0]
    if sorted(actual_edge) != sorted(edge_pts):
        raise ValueError("triangulation subdivides the e2-e3 edge unexpectedly")
    if m < 2:
        return True
    # rays are equally spaced on the segment, so Nef(W) is simplicial with
    # one tent-shaped extreme ray per exceptional curve
    spacing = vsub(W.rays[1], W.rays[0])
    for j in range(1, m):
        if vsub(W.rays[j + 1], W.rays[j]) != spacing:
            raise TriangulationError("the slice rays are not equally spaced")
    npts = len(T.points)
    nvars = npts + 2  # heights plus a linear gauge (alpha, beta) on the slice
    wall_ges = []
    for _, r in T.wall_rows:
        wall_ges.append((list(r) + [Fraction(0), Fraction(0)], Fraction(0)))
    for k in range(1, m):
        tent = [-Fraction(min(j * (m - k), k * (m - j))) for j in range(m + 1)]
        eqs = []
        for j, q in enumerate(edge_pts):
            row = [Fraction(0)] * nvars
            row[T.points.index(q)] = Fraction(1)
            row[npts] = -W.rays[j][0]
            row[npts + 1] = -W.rays[j][1]
            eqs.append((row, tent[j]))
        if not solve_feasibility(nvars, eqs, wall_ges).feasible:
            return False
    return True


# ---------------------------------------------------------------------------
# the recursive containing-triangulation construction


def build_containing_triangulation(J: JuniorSimplex, Y: Resolution) -> Triangulation:
    """A basic regular triangulation of Delta whose points joined to e3 by an
    edge are exactly the lifts of Y's rays.

    Recursion: if every marked point short of the last is the x-side vertex,
    the triangle has a unique basic triangulation (a cone over its subdivided
    far edge); otherwise star-subdivide at the marked point with the smallest
    apex barycentric coordinate and recurse, filling the residual triangle
    with a pulling triangulation on all of its lattice points.
    """
    if not is_dominated_by_max(Y):
        raise InadmissibleResolutionError(
            "resolution has a ray outside Delta'; no lift to the junior simplex"
        )
    lifts = tuple(lift_to_junior(J, v) for v in Y.rays)
    tris = _recurse(J.points, E1, E2, E3, lifts)
    T = make_triangulation(J.lattice, tris)
    if not is_basic(T):
        raise TriangulationError("the triangulation is not basic")
    if set(T.neighbors_of(E3)) != set(lifts):
        raise TriangulationError("the neighbours of e3 are not the lifts of Y")
    return T


def _apex_coordinate(p, P, Q, apex):
    return _barycentric(p, P, Q, apex)[2]


def _points_in_triangle(points, a, b, c):
    """The points of `points` in the closed triangle abc, in their order,
    tested against the triangle's three edge half-planes.

    Every triangle the construction visits has lattice-point vertices in
    Delta, so with `points` the lex-sorted junior points these are its
    lattice points, in lexicographic order."""
    rows = _halfplanes(project_p12(a), project_p12(b), project_p12(c), 1)
    return [p for p in points
            if all(al * p[0] + be * p[1] + ga >= 0 for al, be, ga in rows)]


def _recurse(points, P, Q, apex, marked):
    # invariants: marked[0] lies on segment(P, apex) (possibly = P),
    # marked[-1] on segment(Q, apex) (possibly = Q), marked ordered by angle
    # around apex from the P side; `points` are the junior points
    if len(marked) < 2:
        raise TriangulationError("a sub-triangle has fewer than two marked points")
    candidates = [m for m in marked[:-1] if m != P]
    if not candidates:
        return _base_triangulation(points, P, Q, apex, marked)
    w = min(candidates, key=lambda m: (_apex_coordinate(m, P, Q, apex), m))
    k = marked.index(w)
    parts = []
    if _on_segment(w, P, apex):
        if k != 0:
            raise TriangulationError("a marked point on the P side is not first")
    else:
        parts += _recurse(points, P, w, apex, marked[: k + 1])
    parts += _recurse(points, w, Q, apex, marked[k:])
    if not _on_segment(w, P, Q):
        parts += _pull_triangulate(points, (w, P, Q))
    return parts


def _base_triangulation(points, P, Q, apex, marked):
    if marked[0] != P:
        raise TriangulationError("the base case does not start at its vertex")
    pts = _points_in_triangle(points, P, Q, apex)
    # the lattice points of [apex, Q], walked from apex: on a line the lex
    # order is monotone, and apex is an end
    edge = [p for p in pts if _on_segment(p, apex, Q)]
    if edge[0] != apex:
        edge.reverse()
    if set(pts) != set(edge) | {P}:
        raise TriangulationError("base case points not on the far edge")
    if edge[1] != marked[-1]:
        raise TriangulationError("apex neighbor differs from the marked lift")
    return [(P, a, b) for a, b in itertools.pairwise(edge)]


def _pull_triangulate(points, triangle):
    """Pulling triangulation on all lattice points of a junior-plane
    triangle: points are pulled in lexicographic order, which keeps every
    intermediate subdivision regular; in the plane a full lattice-point
    triangulation is automatically unimodular."""
    pts = _points_in_triangle(points, *triangle)
    tris = [tuple(triangle)]
    for p in pts:
        new = []
        for t in tris:
            if p in t or not _in_triangle(p, *t):
                new.append(t)
                continue
            for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
                if not _on_segment(p, *e):
                    new.append((p, e[0], e[1]))
        tris = new
    return tris
