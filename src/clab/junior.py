"""The SL(3) side: junior simplex, lifts of surface rays, basic triangulations,
the recursive star-subdivision construction of a projective crepant 3-fold
containing a chosen surface resolution, and the regularity and
ample-restriction certificates, replayed from the stellar insertions the
construction records and checked, with an LP fallback.

All triangulations live on the junior plane {x + y + z = 1}.  Every junior
point lies on the (1/N)-grid, N = [N3 : Z^3] = |G|, so inside this module a
point (x, y, z) is its N-scaled integer pair (X, Y) = (N x, N y), and z is
implied by X + Y + Z = N.  Dropping z is an affine isomorphism of the plane,
so every planar question (orientation, triangle membership, on-segment,
areas, wall rows) has an exact integer answer on the pairs.  The lex order
of the pairs is the lex order of the points.  A surface ray keeps the
same pair: N2 and N3 both have index |G|, so the N-scaled pair (X, Y) of a
ray (a, b) in `Resolution.grid` is the pair of its lift (a, b, 1 - a - b)
to the junior plane.  Fractions are built only in `JuniorSimplex.points`;
the exact strings of `to_json` come from the pairs, one gcd per coordinate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import (
    Lattice,
    _ratio_str,
    lattice_from_generators,
    triangle_grid,
    vec,
)
# the LP fallback keeps this import, which is also what loads `clab.linprog`
# for a caller that imports `clab.cli` alone (perfbench/run.py)
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
    lattice points (the age-one group elements plus the vertices), stored
    as `grid`, their lex-sorted N-scaled integer pairs."""

    lattice: Lattice
    grid: tuple
    # (a, b) -> bitmask over grid indices of the points p with
    # cross(a, b, p) >= 0, each filled on first use: the construction
    # visits few of the n^2 ordered pairs, and an eager table made a cold
    # large group much slower
    _halfplanes: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    @property
    def vertices(self):
        return (E1, E2, E3)

    @functools.cached_property
    def points(self):
        """The points (x, y, z), in the order of `grid`.  No command reads
        them; the benchmark's set-up counts them (perfbench/workloads.py)."""
        N = self.lattice.N
        return tuple((Fraction(X, N), Fraction(Y, N), Fraction(N - X - Y, N))
                     for X, Y in self.grid)

    @functools.cached_property
    def slice(self):
        """The slice resolution of the lattice (`slice_resolution`), built
        once per group."""
        return slice_resolution(self.lattice)

    def _halfplane(self, a, b):
        """The bitmask of the grid points p with cross(a, b, p) >= 0."""
        m = self._halfplanes.get((a, b))
        if m is None:
            (ax, ay), (bx, by) = a, b
            dx, dy = bx - ax, by - ay
            m = 0
            for i, (X, Y) in enumerate(self.grid):
                if dx * (Y - ay) >= dy * (X - ax):
                    m |= 1 << i
            self._halfplanes[a, b] = m
        return m


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
    return JuniorSimplex(N3, triangle_grid(N3))


# ---------------------------------------------------------------------------
# planar predicates on grid pairs


def _cross(o, a, b):
    """Twice the signed area of the triangle (o, a, b): positive if it turns
    counter-clockwise, zero if it is flat."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _in_triangle(p, a, b, c):
    """p lies in the closed non-degenerate triangle abc, in either
    orientation."""
    if _cross(a, b, c) < 0:
        b, c = c, b
    return _cross(a, b, p) >= 0 and _cross(b, c, p) >= 0 and _cross(c, a, p) >= 0


def _on_segment(p, a, b):
    """p lies on the closed segment ab (which may be the point a = b)."""
    return (_cross(a, b, p) == 0
            and (p[0] - a[0]) * (p[0] - b[0]) + (p[1] - a[1]) * (p[1] - b[1]) <= 0)


# ---------------------------------------------------------------------------
# triangulations


@dataclass(frozen=True)
class Triangulation:
    """Triangles on the junior plane, stored as sorted index triples into
    `grid`, the lex-sorted N-scaled integer pairs of their points, and the
    (point, host triangle) indices of the stellar insertions that built
    them from Delta, if the construction recorded them, with the slice
    resolution its group keeps."""

    grid: tuple
    triangles: tuple
    lattice: Lattice = field(repr=False)
    insertions: tuple = field(repr=False, compare=False)
    slice: Resolution = field(repr=False, compare=False)

    @functools.cached_property
    def point_strs(self):
        """Each point's coordinates as exact strings, in the order of `grid`."""
        N = self.lattice.N
        return tuple((_ratio_str(X, N), _ratio_str(Y, N),
                      _ratio_str(N - X - Y, N)) for X, Y in self.grid)

    def edges(self):
        return sorted(self._edge_map)

    def edge_triangles(self):
        """Each edge (i, j), i < j, with the triangles that contain it.  The
        dict is built once per triangulation and shared: do not mutate it."""
        return self._edge_map

    @functools.cached_property
    def _edge_map(self):
        e2t = {}
        for t in self.triangles:
            for i, j in itertools.combinations(t, 2):
                e2t.setdefault((i, j), []).append(t)
        return e2t

    def _neighbors(self, idx):
        """The indices joined to the point of index idx by an edge, sorted."""
        return sorted({i for t in self.triangles if idx in t for i in t} - {idx})

    @functools.cached_property
    def walls(self):
        """One sparse integer row per interior wall, (edge, ((i, c), ...))
        with its four entries, in edge order: row.h >= 0 is weak convexity
        across the wall, > 0 strict.  The row says h(d) must exceed the
        affine extension of h from the triangle (a, b, c) on the other side:
        its entries are the barycentric coordinates of d in abc, scaled by
        the area |cross(a, b, c)| (N on a basic triangulation), which leaves
        every sign and every feasibility verdict as it is.  A row sums to 0,
        as the barycentric coordinates sum to 1, so adding a constant to
        every height changes no row.  The regularity and amp-restriction
        computations both read these rows, so they are built once per
        triangulation.  ValueError if two triangles on a wall overlap."""
        walls = []
        g = self.grid
        for edge, tris in sorted(self._edge_map.items()):
            if len(tris) != 2:
                continue
            t1, t2 = tris
            a_i, b_i = edge
            c_i = next(i for i in t1 if i not in edge)
            d_i = next(i for i in t2 if i not in edge)
            a, b, c, d = g[a_i], g[b_i], g[c_i], g[d_i]
            area = _cross(a, b, c)
            s = 1 if area > 0 else -1
            if s * _cross(a, b, d) >= 0:
                raise ValueError(f"the triangles on edge {edge} overlap")
            walls.append((edge, ((a_i, -s * _cross(d, b, c)),
                                 (b_i, -s * _cross(a, d, c)),
                                 (c_i, -s * _cross(a, b, d)),
                                 (d_i, s * area))))
        return tuple(walls)

    @functools.cached_property
    def wall_rows(self):
        """`walls` with each row dense over the points, for the LPs."""
        n = len(self.grid)
        rows = []
        for edge, entries in self.walls:
            row = [0] * n
            for i, c in entries:
                row[i] = c
            rows.append((edge, tuple(row)))
        return tuple(rows)

    def to_json(self):
        return {
            "points": [list(s) for s in self.point_strs],
            "triangles": [list(t) for t in self.triangles],
        }


def _triangulation(lattice, tris, insertions, slice_res):
    # tris: triangles of grid pairs; insertions: (point, host) of grid pairs
    pts = sorted({p for t in tris for p in t})
    index = {p: i for i, p in enumerate(pts)}
    tri_idx = sorted(tuple(sorted(index[p] for p in t)) for t in tris)
    if len(set(tri_idx)) != len(tri_idx):
        raise ValueError("duplicate triangles")
    for t in tris:
        if _cross(*t) == 0:
            raise ValueError(f"degenerate triangle {t}")
    T = Triangulation(tuple(pts), tuple(tri_idx), lattice, tuple(
        (index[p], tuple(index[q] for q in host)) for p, host in insertions),
        slice_res)
    for e, ts in T.edge_triangles().items():
        if len(ts) > 2:
            raise ValueError(f"edge {e} shared by more than two triangles")
    return T


def is_basic(T: Triangulation) -> bool:
    """All triangles span unimodular cones of N3 and their areas fill Delta:
    on grid pairs a unimodular triangle has |cross| = N, and Delta has
    N^2."""
    N = T.lattice.N
    g = T.grid
    total = 0
    for i, j, k in T.triangles:
        d = abs(_cross(g[i], g[j], g[k]))
        if d != N:
            return False
        total += d
    return total == N * N


# ---------------------------------------------------------------------------
# regularity, ample restriction


@dataclass(frozen=True)
class PLSupportFunction:
    """Heights per triangulation point certifying strict convexity across
    every interior wall (all modulo affine-linear functions)."""

    triangulation: Triangulation = field(compare=False)
    heights: tuple


@dataclass(frozen=True)
class RegularityRefusal:
    """Farkas witness: with weak convexity everywhere, the listed walls can
    never be simultaneously strict."""

    edges: tuple
    farkas: tuple


def regularity_certificate(T: Triangulation):
    """Heights strictly convex across every interior wall, or a refusal
    witness.  The heights replayed from T's recorded insertions are checked
    against every wall row; the LP runs only when T has no record or the
    check fails."""
    walls = T.walls
    if not walls:
        return PLSupportFunction(T, tuple([Fraction(0)] * len(T.grid)))
    if T.insertions:
        heights = _replay(T, T.insertions)
        if all(sum(heights[i] * c for i, c in r) > 0 for _, r in walls):
            return PLSupportFunction(T, tuple(heights))
    return _regularity_lp(T)


def _regularity_lp(T):
    """The certificate by LP.  Strictness is encoded by the scale-invariant
    system row.h >= 1.  The wall rows sum to 0, so the system has a solution
    iff it has one with h >= 0, the one the solver looks for."""
    rows = T.wall_rows
    res = solve_feasibility(len(T.grid), [], [(r, 1) for _, r in rows])
    if res.feasible:
        for edge, r in T.walls:
            if sum(c * res.point[i] for i, c in r) < 1:
                raise TriangulationError(
                    f"the heights are not strictly convex across {edge}")
        return PLSupportFunction(T, tuple(res.point))
    support = tuple(
        edge for (edge, _), y in zip(rows, res.farkas) if y > 0
    )
    return RegularityRefusal(support, res.farkas)


def slice_resolution(N3: Lattice) -> Resolution:
    """The minimal resolution W of C^2/Z for the transverse slice along the
    e2-e3 edge.  Z, the stabilizer of (1,0), is the residues of N3 with
    X = 0: g = (a, b) has X = N a / n mod N, which is 0 iff a is 0 mod n.
    Z acts on the slice with SL(2) weights (Y, -Y) / N."""
    N = N3.N
    LW = lattice_from_generators(
        2, [(Fraction(r[1], N), Fraction(r[2], N)) for r in N3.residues
            if r[0] == 0]
    )
    W = minimal_resolution(LW)
    # SL(2) slice: all rays are crepant, so they sit on the sum-one segment
    if any(X + Y != LW.N for X, Y in W.grid):
        raise TriangulationError("a slice ray is off the sum-one segment")
    return W


def amp_restriction_surjective(T: Triangulation) -> bool:
    """Whether Nef(U_Sigma) -> Nef(W) is surjective, with W the slice
    resolution of `T.lattice`, read off along the e2-e3 edge.  Its rays are
    equally spaced, so Nef(W) is simplicial with one tent per exceptional
    curve, and h restricts to the tent at s_k modulo affine functions iff
    its second differences there are > 0 at k and 0 elsewhere.  Each tent
    is replayed from T's recorded insertions with s_k first among the slice
    points and every later point on the interpolation, and checked; its LP
    runs only when T has no record or the check fails."""
    edge = _slice_edge(T)
    for k in range(1, len(edge) - 1):
        if T.insertions and _is_tent(T, edge, k, _replay(
                T, _tent_insertions(T.insertions, edge, k), late=edge[k])):
            continue
        if not _tent_lp(T, edge, k):
            return False
    return True


def _slice_edge(T):
    """The indices of W's rays lifted to the e2-e3 edge, in W's order."""
    N = T.lattice.N
    index = {p: i for i, p in enumerate(T.grid)}
    if (N, 0) not in index:
        raise ValueError("e1 is not a vertex of the triangulation")
    W = T.slice
    # the slice ray (a, b) is the junior point (0, a, b), with grid pair
    # (0, N a); W's pairs are scaled by the index of its lattice, |Z|
    scale = N // W.lattice.N
    edge = [index.get((0, X * scale)) for X, _ in W.grid]
    if None in edge:
        raise ValueError("triangulation is missing a slice lattice point")
    if sum(1 for X, _ in T.grid if X == 0) != len(edge):
        raise ValueError("triangulation subdivides the e2-e3 edge unexpectedly")
    if len({(V[0] - U[0], V[1] - U[1])
            for U, V in itertools.pairwise(W.grid)}) > 1:
        raise TriangulationError("the slice rays are not equally spaced")
    return edge


def _is_tent(T, edge, k, h):
    """h is nef on T, and its slice second differences are > 0 at k only."""
    if any(sum(h[i] * c for i, c in r) < 0 for _, r in T.walls):
        return False
    d = [h[u] - 2 * h[v] + h[w] for u, v, w in zip(edge, edge[1:], edge[2:])]
    return d[k - 1] > 0 and not any(d[:k - 1] + d[k:])


def _tent_lp(T, edge, k):
    """Whether some nef h has second differences m at k, 0 elsewhere."""
    m = len(edge) - 1
    eqs = []
    for j in range(1, m):
        row = [0] * len(T.grid)
        row[edge[j - 1]], row[edge[j]], row[edge[j + 1]] = 1, -2, 1
        eqs.append((row, m if j == k else 0))
    wall_ges = [(r, 0) for _, r in T.wall_rows]
    return solve_feasibility(len(T.grid), eqs, wall_ges).feasible


def _replay(T, insertions, late=None):
    """Integer heights along a stellar insertion sequence that builds T.
    Stellar subdivisions keep a triangulation regular when each new point is
    set a little below the interpolation (De Loera-Rambau-Santos,
    Triangulations, 2010, 4.3).  From Delta's vertices at 0, p goes 1 below
    the interpolation from its host (area D) after every height is scaled by
    D M, M = N^2 + 1; after `late`, on it, scaled by D.  Old walls are then
    >= D M, and a wall of pab against abe gains M |abp| >= M and loses
    |abe| <= N^2.  The caller checks the heights."""
    g = T.grid
    M = T.lattice.N ** 2 + 1
    h = [0] * len(g)
    pull = True
    for p, host in insertions:
        a, b, c = (g[i] for i in host)
        lam = (_cross(g[p], b, c), _cross(a, g[p], c), _cross(a, b, g[p]))
        D = sum(lam)
        if D < 0:
            lam, D = [-x for x in lam], -D
        interp = sum(x * h[i] for x, i in zip(lam, host))
        f = D * M if pull else D
        h = [x * f for x in h]
        h[p] = M * interp - 1 if pull else interp
        pull = pull and p != late
    return h


def _tent_insertions(insertions, edge, k):
    """The insertions with s_k = edge[k] first among the slice points, the
    far edge of one base case coned from its P (which their order leaves
    as it is); each other is hosted on P and its inserted neighbours."""
    m = len(edge) - 1
    inner = set(edge[1:m])
    i = next(j for j, (p, _) in enumerate(insertions) if p in inner)
    P, apex, Q = insertions[i][1]
    line = [apex] + [p for p, _ in insertions[i:i + m - 1]] + [Q]
    s = line.index(edge[k])
    tent = [(line[s], (P, apex, Q))] + [
        (line[j], (P, line[j - 1], line[s] if j < s else Q))
        for j in range(1, m) if j != s]
    return insertions[:i] + tuple(tent) + insertions[i + m - 1:]


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

    T records its insertions: each star point in preorder, hosted on the
    triangle it stars; each far-edge point, walked from the apex, hosted on
    (P, previous, Q); then each pulled point once, in lex order, hosted on
    the triangle its pull splits first (on both sides of a shared edge).
    """
    if not is_dominated_by_max(Y):
        raise InadmissibleResolutionError(
            "resolution has a ray outside Delta'; no lift to the junior simplex"
        )
    # each ray's N-scaled pair is its lift's grid pair when N2 and N3 have
    # one index, and the lift is a point of N3 when its residue is one
    N = J.lattice.N
    if Y.lattice.N != N:
        raise ValueError(f"the resolution's lattice has index {Y.lattice.N}, "
                         f"the junior simplex's {N}")
    residues = J.lattice.residues
    for i, (a, b) in enumerate(Y.grid):
        if (a % N, b % N, -(a + b) % N) not in residues:
            raise ValueError(f"the lift of {Y.rays[i]} is not a lattice point "
                             "(inconsistent lattices)")
    record, pulls = [], {}
    tris = _recurse(J, (N, 0), (0, N), (0, 0), list(Y.grid), record, pulls)
    inserted = {p for p, _ in record}
    record += sorted(i for i in pulls.items() if i[0] not in inserted)
    T = _triangulation(J.lattice, tris, record, J.slice)
    if not is_basic(T):
        raise TriangulationError("the triangulation is not basic")
    if {T.grid[i] for i in T._neighbors(T.grid.index((0, 0)))} != set(Y.grid):
        raise TriangulationError("the neighbours of e3 are not the lifts of Y")
    return T


def _points_in_triangle(J, a, b, c):
    """The grid points of J in the closed non-degenerate triangle abc, in
    either orientation, in the grid's order: the AND of its three
    half-plane masks.

    Every triangle the construction visits has lattice-point vertices in
    Delta, so these are its lattice points, in lexicographic order."""
    if _cross(a, b, c) < 0:
        b, c = c, b
    m = J._halfplane(a, b) & J._halfplane(b, c) & J._halfplane(c, a)
    grid = J.grid
    out = []
    while m:
        low = m & -m
        out.append(grid[low.bit_length() - 1])
        m ^= low
    return out


def _recurse(J, P, Q, apex, marked, record, pulls):
    # invariants: marked[0] lies on segment(P, apex) (possibly = P),
    # marked[-1] on segment(Q, apex) (possibly = Q), marked ordered by angle
    # around apex from the P side; J is the junior simplex.  `record` and
    # `pulls` collect the insertions
    if len(marked) < 2:
        raise TriangulationError("a sub-triangle has fewer than two marked points")
    candidates = [m for m in marked[:-1] if m != P]
    if not candidates:
        return _base_triangulation(J, P, Q, apex, marked, record)
    # the apex barycentric coordinate of m is cross(P, Q, m) / cross(P, Q,
    # apex).  The denominator is common to all candidates and positive: e1,
    # e2, e3 turn counter-clockwise, and a sub-triangle replaces P or Q by
    # a marked point of the triangle off the line through apex and the
    # other one, which keeps the turn
    w = min(candidates, key=lambda m: (_cross(P, Q, m), m))
    k = marked.index(w)
    record.append((w, (P, Q, apex)))
    parts = []
    if _on_segment(w, P, apex):
        if k != 0:
            raise TriangulationError("a marked point on the P side is not first")
    else:
        parts += _recurse(J, P, w, apex, marked[: k + 1], record, pulls)
    parts += _recurse(J, w, Q, apex, marked[k:], record, pulls)
    if not _on_segment(w, P, Q):
        parts += _pull_triangulate(J, (w, P, Q), pulls)
    return parts


def _base_triangulation(J, P, Q, apex, marked, record):
    if marked[0] != P:
        raise TriangulationError("the base case does not start at its vertex")
    pts = _points_in_triangle(J, P, Q, apex)
    # the lattice points of [apex, Q], walked from apex: on a line the lex
    # order is monotone, and apex is an end
    edge = [p for p in pts if _on_segment(p, apex, Q)]
    if edge[0] != apex:
        edge.reverse()
    if set(pts) != set(edge) | {P}:
        raise TriangulationError("base case points not on the far edge")
    if edge[1] != marked[-1]:
        raise TriangulationError("apex neighbor differs from the marked lift")
    record += [(b, (P, a, Q)) for a, b in itertools.pairwise(edge[:-1])]
    return [(P, a, b) for a, b in itertools.pairwise(edge)]


def _pull_triangulate(J, triangle, pulls):
    """Pulling triangulation on all lattice points of a junior-plane
    triangle: points are pulled in lexicographic order, which keeps every
    intermediate subdivision regular; in the plane a full lattice-point
    triangulation is automatically unimodular.  `pulls` keeps each point's
    first split triangle."""
    pts = _points_in_triangle(J, *triangle)
    tris = [tuple(triangle)]
    for p in pts:
        new = []
        for t in tris:
            if p in t or not _in_triangle(p, *t):
                new.append(t)
                continue
            pulls.setdefault(p, t)
            for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
                if not _on_segment(p, *e):
                    new.append((p, e[0], e[1]))
        tris = new
    return tris
