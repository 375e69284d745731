"""Independent reference computations used to freeze expected test values.

These deliberately avoid the library's own algorithms: the continued-fraction
recurrence below produces minimal-resolution rays for small cyclic actions
straight from the classical Hirzebruch-Jung expansion, and the Graham-style
hull walk recomputes the boundary chain from first principles.  The cones of
the moduli fan are recomputed by Fourier-Motzkin projection of the full
gauge-potential system, and the one-parameter-subgroup limits by the exact
simplex.  The lattice residues, the admissible resolutions, the stability
masks and the McKay vertices (as cosets of the annihilator of the element
pairing) are recomputed by the exhaustive searches the library replaced
with direct constructions, and the stable supports of a theta by the
per-candidate test, on theta summed over each mask, that the library
replaced with a scan of one subset-sum table per theta.  The admissible
sequences are also listed by the sorted product of per-gap fills that the
library replaced with a decoder by index.  The simplex itself,
the resolution check, the primitive points, lattice-basis determinants and
lifts to the junior simplex, the triangle scan (here of any rational
triangle), the maximal rays (here by a primitive-point test per point), the
minimal rays (here by a gift-wrapping walk) and the junior-plane predicates
(barycentric coordinates, triangle membership, on-segment, areas) are
checked against the Fraction versions the library replaced with integer ones, whose
N-scaled pairs the tests compare with `scaled`; a finished triangulation is
checked by an area sum and a separating-axis test on its Fraction points.
A Farkas vector of the simplex, which decides systems over x >= 0, is
checked by `check_farkas`.
The slice group of the junior simplex, which the library reads off the
residues of N3, is recomputed from the action's elements.  The McKay
character table is kept as the library first built it, over every pair mod
n, and the theta sampler's stream as first drawn, by `randint`, with the
genericity certificate on `theta_of_masks`.
The segment walk, the star subdivision, the walls of the stability space
and the nef-cone dimension are kept with their own tests after the library
stopped using them.  The weld search, which finds a stellar sequence by
undoing a finished triangulation, is kept as the reference for the
sequence the library's construction records.  The pixel positions of the drawings are recomputed by
the Fraction scaling and `round` the library replaced with integer
rounding.

Every lattice oracle reads an `HNFLattice`: the canonical Hermite normal
form basis, with a Fraction solve in it, that the library replaced with
residue groups.  It is built from generators, never from a library
lattice's residues.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as F
from math import ceil, floor, gcd, lcm

from clab.lattice import Lattice, cross2, is_member, lattice_from_generators
from clab.linprog import Feasibility, solve_feasibility
from clab.quiver import (
    ARROW_STEP,
    Theta,
    build_mckay_quiver,
    fixed_candidates,
    make_theta,
)
from clab.surface import (
    _blowups,
    _minimal_rays,
    make_resolution,
    maximal_resolution,
    minimal_resolution,
    sort_rays_by_angle,
)

ZERO = F(0)
ONE = F(1)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def scaled(rays, N):
    """Rational rays times N, as integer tuples (ValueError off the grid)."""
    out = []
    for r in rays:
        U = tuple(F(c) * N for c in r)
        if any(u.denominator != 1 for u in U):
            raise ValueError(f"{r} is off the (1/{N})-grid")
        out.append(tuple(u.numerator for u in U))
    return tuple(out)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def hj_expansion(n, k):
    """Coefficients of n/k = b1 - 1/(b2 - 1/(...)), all bi >= 2."""
    assert 0 < k < n and gcd(n, k) == 1
    out = []
    while k:
        b = -(-n // k)  # ceil
        out.append(b)
        n, k = k, b * k - n
    return out


def hj_minimal_rays(n, q):
    """Rays v0..vs of the minimal resolution of 1/n(1, q), gcd(q, n) = 1.

    v0 = (1, 0), v1 = (q*, 1)/n with q* the inverse of q mod n, and
    v_{i+1} = b_i v_i - v_{i-1} for the HJ coefficients of n/q*.
    """
    if n == 1:
        return [(F(1), F(0)), (F(0), F(1))]
    qstar = pow(q, -1, n)
    rays = [(F(1), F(0)), (F(qstar, n), F(1, n))]
    for b in hj_expansion(n, qstar):
        u, v = rays[-2], rays[-1]
        rays.append((b * v[0] - u[0], b * v[1] - u[1]))
    assert rays[-1] == (F(0), F(1))
    return rays


def boundary_chain_bruteforce(n, q, gcd_ok=False):
    """Boundary lattice points of conv((N2 \\ 0) cap quadrant) for the cyclic
    lattice Z^2 + Z(1, q)/n, by direct domination tests on a scaled grid."""
    pts = set()
    for p in range(0, 2 * n + 1):
        for r in range(0, 2 * n + 1):
            if (r - q * p) % n == 0 and (p, r) != (0, 0):
                pts.add((p, r))
    # a point is on the boundary iff it is not in conv(two others) + quadrant
    # (desk-scale direct test)
    scaled = sorted(pts)

    def dominated(w):
        wx, wy = w
        for ax, ay in scaled:
            if (ax, ay) == w:
                continue
            for bx, by in scaled:
                if (bx, by) == w:
                    continue
                # w >= t*a + (1-t)*b componentwise for some t in [0,1]?
                # check the finitely many candidate t where equality holds
                for num, den in [(wx - bx, ax - bx), (wy - by, ay - by)]:
                    if den == 0:
                        continue
                    t = F(num, den)
                    if 0 <= t <= 1:
                        px = t * ax + (1 - t) * bx
                        py = t * ay + (1 - t) * by
                        if px <= wx and py <= wy and (px, py) != (wx, wy):
                            return True
                if ax <= wx and ay <= wy and (ax, ay) != w:
                    return True
        return False

    chain = [w for w in scaled if not dominated(w)]
    chain = [(F(a, n), F(b, n)) for a, b in chain if a <= n and b <= n]
    chain.sort(key=lambda v: (v[1], -v[0]))
    return chain


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection


def _normalize_row(a, b):
    nums = [x.numerator for x in a if x != 0] + ([b.numerator] if b != 0 else [])
    dens = [x.denominator for x in a] + [b.denominator]
    if not nums:
        return None
    den_lcm = 1
    for d in dens:
        den_lcm = den_lcm * d // gcd(den_lcm, d)
    ints = [int(x * den_lcm) for x in a] + [int(b * den_lcm)]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    return tuple(F(x) for x in ints[:-1]), F(ints[-1])


def project(n, eqs, ges, keep):
    """Project {x : a.x = b over eqs, a.x >= b over ges} onto the coordinates
    in `keep`.  Returns (eqs', ges') with rows indexed by the full variable
    list but supported on `keep` only.

    Equalities are used first to substitute out eliminated variables; the
    remaining eliminated variables go through Fourier-Motzkin elimination.
    """
    keep = set(keep)
    elim = [j for j in range(n) if j not in keep]
    eq_rows = [([F(c) for c in a], F(b)) for a, b in eqs]
    ge_rows = [([F(c) for c in a], F(b)) for a, b in ges]

    remaining_eqs = []
    for j in list(elim):
        pivot = None
        for idx, (a, b) in enumerate(eq_rows):
            if a[j] != 0:
                pivot = idx
                break
        if pivot is None:
            continue
        pa, pb = eq_rows.pop(pivot)
        elim.remove(j)

        def substitute(row):
            a, b = row
            if a[j] == 0:
                return row
            f = a[j] / pa[j]
            return ([c - f * d for c, d in zip(a, pa)], b - f * pb)

        eq_rows = [substitute(r) for r in eq_rows]
        ge_rows = [substitute(r) for r in ge_rows]

    # leftover equalities must not involve eliminated variables with nonzero
    # coefficient (they were consumed above); keep them as equalities
    for a, b in eq_rows:
        if any(a[j] != 0 for j in elim):
            raise AssertionError("equality substitution incomplete")
        if all(c == 0 for c in a):
            if b != 0:
                # inconsistent system: encode as the empty polyhedron
                return [], [(([ZERO] * n), ONE)]
            continue
        remaining_eqs.append((a, b))

    rows = ge_rows
    for j in elim:
        pos, neg, zero = [], [], []
        for a, b in rows:
            if a[j] > 0:
                pos.append((a, b))
            elif a[j] < 0:
                neg.append((a, b))
            else:
                zero.append((a, b))
        new = zero
        for ap, bp in pos:
            for an, bn in neg:
                f = -an[j] / ap[j]
                a = [f * c + d for c, d in zip(ap, an)]
                b = f * bp + bn
                new.append((a, b))
        # dedupe on normalized primitive form
        seen = set()
        rows = []
        for a, b in new:
            norm = _normalize_row(a, b)
            if norm is None:
                if b > 0:
                    return [], [(([ZERO] * n), ONE)]  # 0 >= positive
                continue
            if norm not in seen:
                seen.add(norm)
                rows.append((list(norm[0]), norm[1]))
    out_ges = []
    seen = set()
    for a, b in rows:
        norm = _normalize_row(a, b)
        if norm is None:
            if b > 0:
                return [], [(([ZERO] * n), ONE)]
            continue
        if norm not in seen:
            seen.add(norm)
            out_ges.append((list(norm[0]), norm[1]))
    return remaining_eqs, out_ges


# ---------------------------------------------------------------------------
# the rational simplex


def fraction_simplex(n, eqs, ges):
    """The phase-1 simplex with Bland's rule on a tableau of Fractions,
    pivot by pivot the one `solve_feasibility` runs on integers.  Row
    updates skip the zero entries of the pivot row, which changes no value.

    Decide whether some x >= 0 in Q^n satisfies a.x = b for (a, b) in `eqs`
    and a.x >= b for (a, b) in `ges`.

    On failure returns Farkas multipliers y, free on equality rows and >= 0 on
    inequality rows, with sum y_i a_i <= 0 componentwise and sum y_i b_i > 0.
    """
    rows = [(list(a), F(b), True) for a, b in eqs]
    rows += [(list(a), F(b), False) for a, b in ges]
    m = len(rows)
    if m == 0:
        return Feasibility(True, tuple([ZERO] * n))
    nge = len(ges)
    # columns: x_0..x_{n-1}, slacks, artificials
    ncols = n + nge + m
    tab = []
    sigma = []
    ge_seen = 0
    for a, b, is_eq in rows:
        if len(a) != n:
            raise ValueError("coefficient row has wrong length")
        row = [ZERO] * (ncols + 1)
        for j, c in enumerate(a):
            row[j] = F(c)
        if not is_eq:
            row[n + ge_seen] = F(-1)  # a.x - s = b
            ge_seen += 1
        s = 1 if b >= 0 else -1
        if s < 0:
            row = [-c for c in row]
            b = -b
        sigma.append(s)
        row[-1] = F(b)
        tab.append(row)
    art0 = n + nge
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
        tab[leave] = [c / piv if c else c for c in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [c - f * d if d else c for c, d in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [c - f * d if d else c for c, d in zip(obj, tab[leave])]
        basis[leave] = enter

    opt = -obj[-1]
    if opt == 0:
        x = [ZERO] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = tab[i][-1]
        return Feasibility(True, tuple(x))
    # Farkas: pi_i = 1 - reduced cost of artificial i; y_i = sigma_i * pi_i
    y = tuple(sigma[i] * (ONE - obj[art0 + i]) for i in range(m))
    return Feasibility(False, farkas=y)


def check_farkas(n, eqs, ges, y) -> bool:
    """Whether y certifies that no x >= 0 satisfies a.x = b on `eqs` and
    a.x >= b on `ges`: y_i >= 0 on the inequality rows, sum y_i a_i <= 0
    componentwise and sum y_i b_i > 0.  Any such x would give
    0 >= (sum y_i a_i).x >= sum y_i b_i > 0."""
    rows = list(eqs) + list(ges)
    if len(y) != len(rows):
        return False
    if any(y[i] < 0 for i in range(len(eqs), len(rows))):
        return False
    comb = [ZERO] * n
    rhs = ZERO
    for yi, (a, b) in zip(y, rows):
        for j in range(n):
            comb[j] += yi * F(a[j])
        rhs += yi * F(b)
    return all(c <= 0 for c in comb) and rhs > 0


# ---------------------------------------------------------------------------
# the gauge-potential system of a torus-fixed support


def limit_system(c):
    """Rows of e(a) = <u, w(a)> + c(head) - c(tail) over the variables
    (u1, u2, c_0 .. c_{m-1}): equality rows for the supported arrows, weak
    inequality rows for the others."""
    Q = c.quiver
    m = Q.order
    aset = set(c.arrows)
    eqs, ges = [], []
    for kind, tail in Q.arrows():
        head = Q.arrow_head(tail, kind)
        w = ARROW_STEP[kind]
        row = [F(w[0]), F(w[1])] + [F(0)] * m
        row[2 + head] += 1
        row[2 + tail] -= 1
        (eqs if (kind, tail) in aset else ges).append((row, F(0)))
    return eqs, ges


def fm_cone_of_support(c, N2):
    """The closed cone C_A in the u-plane by Fourier-Motzkin elimination of
    the gauge potentials: primitive boundary rays (lo, hi) in N2, or None
    when the cone is not full-dimensional."""
    eqs, ges = limit_system(c)
    _, proj = project(2 + c.quiver.order, eqs, ges, keep=[0, 1])
    lo, hi = (F(1), F(0)), (F(0), F(1))
    for row, rhs in proj:
        assert rhs == 0 and all(x == 0 for x in row[2:])
        d = (row[0], row[1])
        vlo = d[0] * lo[0] + d[1] * lo[1]
        vhi = d[0] * hi[0] + d[1] * hi[1]
        if vlo >= 0 and vhi >= 0:
            continue
        if vlo < 0 and vhi < 0:
            return None
        for cand in ((-d[1], d[0]), (d[1], -d[0])):
            c1 = lo[0] * cand[1] - lo[1] * cand[0]
            c2 = cand[0] * hi[1] - cand[1] * hi[0]
            if c1 >= 0 and c2 >= 0:
                if vlo < 0:
                    lo = cand
                else:
                    hi = cand
                break
        else:
            return None
    if lo[0] * hi[1] - lo[1] * hi[0] <= 0:
        return None
    return (N2.primitive(lo), N2.primitive(hi))


def lp_limit_feasible(c, u):
    """LP feasibility at u: gauge potentials with e(a) = 0 on the support
    and e(a) > 0 off it, strictness via a unit slack t >= 1.  The support's
    equalities are presolved, leaving e(a) = <u, w(a) + deg(tail) -
    deg(head)> for the off-support arrows and one variable, the slack.
    The solver looks for t >= 0, which t >= 1 implies, so the verdict is
    the one over a free t."""
    Q = c.quiver
    aset = set(c.arrows)
    deg = c.degrees
    ges = []
    for kind, tail in Q.arrows():
        if (kind, tail) in aset:
            continue
        head = Q.arrow_head(tail, kind)
        w = ARROW_STEP[kind]
        val = (u[0] * (w[0] + deg[tail][0] - deg[head][0])
               + u[1] * (w[1] + deg[tail][1] - deg[head][1]))
        ges.append(([F(-1)], -val))  # t <= e(a)
    ges.append(([F(1)], F(1)))  # t >= 1
    return solve_feasibility(1, [], ges).feasible


# ---------------------------------------------------------------------------
# exhaustive searches behind the cold path


def residues_by_scan(L):
    """Residue classes of the HNFLattice L modulo Z^dim, scaled by
    N = [L : Z^dim], by a membership test of every point of (Z/N)^dim."""
    N = L.denominator_bound()
    out = set()
    for idx in range(N ** L.dim):
        r = []
        k = idx
        for _ in range(L.dim):
            r.append(k % N)
            k //= N
        if L.is_member(tuple(F(p, N) for p in r)):
            out.add(tuple(r))
    return frozenset(out)


def characters_by_annihilator(A):
    """The McKay vertices of A as the least pairs of the cosets of (Z/n)^2
    by the annihilator of the element pairing, sorted, and the map from a
    pair (u, v) to the least pair of its coset."""
    n = A.n
    ann = [(u, v) for u in range(n) for v in range(n)
           if all((u * a + v * b) % n == 0 for a, b in A.elements)]

    def canon(u, v):
        return min(((u + p) % n, (v + q) % n) for p, q in ann)

    vertices = sorted({canon(u, v) for u in range(n) for v in range(n)})
    return tuple(vertices), canon


def character_table_mod_n(A):
    """The McKay vertices of A and the map from every pair in [0, n)^2 to
    the index of its character, in one pass over the pairs in lexicographic
    order: two pairs are one character iff they pair equally with every
    generator."""
    n = A.n
    index = {}
    vertices = []
    table = {}
    for u in range(n):
        for v in range(n):
            key = tuple((u * a + v * b) % n for a, b in A.gens)
            if key not in index:
                index[key] = len(vertices)
                vertices.append((u, v))
            table[u, v] = index[key]
    return tuple(vertices), table


def maximal_rays_by_primitive_filter(N2, points):
    """The rays of the maximal resolution of the HNFLattice N2, given the
    points of N2 in Delta': those that are their own primitive point,
    ordered by angle."""
    return sort_rays_by_angle(p for p in points
                              if any(p) and p == N2.primitive(p))


def admissible_by_subsets(N2):
    """The admissible resolutions by trying every subset of the maximal
    resolution's rays outside the minimal one, sorted by (length, rays)."""
    rmin = minimal_resolution(N2)
    rmax = maximal_resolution(N2)
    base = set(rmin.rays)
    optional = [r for r in rmax.rays if r not in base]
    out = []
    for k in range(len(optional) + 1):
        for combo in itertools.combinations(optional, k):
            rays = sort_rays_by_angle(tuple(base) + combo)
            try:
                out.append(make_resolution(N2, rays))
            except ValueError:
                continue
    out.sort(key=lambda r: (len(r.rays), r.rays))
    return tuple(out)


def admissible_by_sorted_product(N2):
    """The N-scaled admissible sequences as the library first listed them:
    every product of one blow-up fill per pair of consecutive minimal rays,
    joined and sorted by (length, rays)."""
    rmin = _minimal_rays(N2)
    gaps = [_blowups(u, v, N2.N) for u, v in itertools.pairwise(rmin)]
    out = []
    for fills in itertools.product(*gaps):
        rays = [rmin[0]]
        for fill, r in zip(fills, rmin[1:]):
            rays += fill
            rays.append(r)
        out.append(tuple(rays))
    out.sort(key=lambda rays: (len(rays), rays))
    return out


def _successors(Q, arrows):
    succ = [0] * Q.order
    for kind, tail in arrows:
        succ[tail] |= 1 << Q.arrow_head(tail, kind)
    return succ


def principal_closures(Q, arrows):
    """Up-closure bitmask of each single vertex (reachability along arrows)."""
    m = Q.order
    succ = _successors(Q, arrows)
    out = []
    for v in range(m):
        mask = 1 << v
        stack = [v]
        while stack:
            w = stack.pop()
            for x in range(m):
                if succ[w] & (1 << x) and not mask & (1 << x):
                    mask |= 1 << x
                    stack.append(x)
        out.append(mask)
    return tuple(out)


def upclosed_masks(Q, arrows):
    """Bitmasks of the nonempty proper arrow-closed vertex subsets (tail in S
    implies head in S), by testing every subset."""
    m = Q.order
    succ = _successors(Q, arrows)
    full = (1 << m) - 1
    return tuple(
        s for s in range(1, full)
        if all(succ[v] & ~s == 0 for v in range(m) if s & (1 << v))
    )


def theta_of_masks(theta: Theta):
    """theta(S) for every vertex subset S, by bitmask, each summed directly
    over the values of S."""
    vals = theta.values
    return [sum(v for i, v in enumerate(vals) if mask >> i & 1)
            for mask in range(1 << len(vals))]


def sample_by_randint(A, seed):
    """The values of the theta `sample_generic(A, seed)` draws, and how many
    draws it took: integers in [-20 |G|, 20 |G|] by `randint`, the last one
    closing the sum to zero, until theta is nonzero on every nonempty proper
    subset of characters."""
    m = A.order
    if m == 1:
        return (0,), 0
    rng = random.Random(seed)
    bound = 20 * m
    for draws in itertools.count(1):
        vals = [rng.randint(-bound, bound) for _ in range(m - 1)]
        vals.append(-sum(vals))
        if 0 not in theta_of_masks(make_theta(vals))[1:-1]:
            return tuple(vals), draws


def stable_by_masks(Q, theta: Theta):
    """The theta-stable candidates of Q: theta is positive on every
    stability mask of the support."""
    table = theta_of_masks(theta)
    return tuple(c for c in fixed_candidates(Q)
                 if all(table[mask] > 0 for mask in c.stability_masks))


# ---------------------------------------------------------------------------
# the Fraction checks and scans behind the integer ones


@dataclass(frozen=True)
class FractionResolution:
    """A ray sequence accepted by `make_resolution_by_fractions`."""

    rays: tuple
    discrepancies: tuple

    def to_json(self):
        """The JSON of `Resolution.to_json`, from the Fraction rays."""
        return {
            "rays": [[str(c) for c in r] for r in self.rays[1:-1]],
            "discrepancies": [str(d) for d in self.discrepancies],
            "v0": [str(c) for c in self.rays[0]],
            "vs": [str(c) for c in self.rays[-1]],
        }


def make_resolution_by_fractions(lattice, rays):
    """`make_resolution` as a Fraction membership test per ray and a
    Fraction determinant per consecutive pair, on an HNFLattice."""
    rays = tuple(tuple(F(x) for x in r) for r in rays)
    if len(rays) < 2:
        raise ValueError("a resolution needs at least the two boundary rays")
    if not (rays[0][1] == 0 and rays[0][0] > 0):
        raise ValueError("v0 must lie on the positive x-axis")
    if not (rays[-1][0] == 0 and rays[-1][1] > 0):
        raise ValueError("v_s must lie on the positive y-axis")
    for r in rays:
        if r[0] < 0 or r[1] < 0:
            raise ValueError("rays must lie in the nonnegative quadrant")
        # with the unimodular pairs below this makes r primitive: a basis
        # vector is primitive
        if not lattice.is_member(r):
            raise ValueError(f"ray {r} is not a lattice point")
    for u, v in itertools.pairwise(rays):
        if cross2(u, v) <= 0:
            raise ValueError("rays must be strictly ordered by angle")
        if cross2(u, v) / lattice.index not in (1, -1):
            raise ValueError(f"consecutive rays {u}, {v} are not a lattice basis")
    disc = tuple(r[0] + r[1] - 1 for r in rays[1:-1])
    return FractionResolution(rays, disc)


def resolution_from_json(lattice, obj):
    """The resolution of a `Resolution.to_json` object, by `make_resolution`
    on its rational rays."""
    rays = [tuple(F(c) for c in obj["v0"])]
    rays += [tuple(F(c) for c in r) for r in obj["rays"]]
    rays.append(tuple(F(c) for c in obj["vs"]))
    return make_resolution(lattice, rays)


def minimal_rays_by_fractions(H):
    """The rays of the minimal resolution of the HNFLattice H: the points
    of H on the compact boundary of conv((H \\ 0) cap quadrant).  The
    points of the box spanned by the primitive axis points are the integer
    combinations of the upper-triangular HNF basis that land in it, and a
    gift-wrapping walk from e1' to e2' keeps the collinear boundary points,
    nearest first."""
    e1, e2 = H.primitive((1, 0)), H.primitive((0, 1))
    (a, _), (b, c) = H.basis  # columns (a, 0) and (b, c)
    pts = []
    for j in range(floor(e2[1] / c) + 1):
        for i in range(ceil(-j * b / a), floor((e1[0] - j * b) / a) + 1):
            if (i, j) != (0, 0):
                pts.append((i * a + j * b, j * c))
    chain = [e1]
    while chain[-1] != e2:
        cur = chain[-1]
        nxt = None
        for q in pts:
            if q == cur or cross2(cur, q) <= 0:
                continue  # only points turning counter-clockwise from cur
            if nxt is None:
                nxt = q
                continue
            # the compact boundary keeps every point on its far side
            turn = cross2(vsub(nxt, cur), vsub(q, cur))
            if turn > 0 or (turn == 0 and sum(map(abs, vsub(q, cur)))
                            < sum(map(abs, vsub(nxt, cur)))):
                nxt = q
        chain.append(nxt)
    return tuple(chain)


def primitive_in_lattice(L: Lattice, v):
    """The primitive point of the library lattice L on the ray R_{>=0} * v,
    as Fractions: the common denominator of v cleared, then the least k
    dividing N with k * V / N in L."""
    v = tuple(F(c) for c in v)
    if all(c == 0 for c in v):
        raise ValueError("zero vector has no primitive multiple")
    if len(v) != L.dim:
        raise ValueError("dimension mismatch")
    den = lcm(*(c.denominator for c in v))
    V = [c.numerator * (den // c.denominator) for c in v]
    g = gcd(*V)
    V = [x // g for x in V]
    N = L.N
    k = next(k for k in range(1, N + 1)
             if N % k == 0 and tuple(k * x % N for x in V) in L.residues)
    return tuple(F(k * x, N) for x in V)


def pair_determinant(L: Lattice, u, v):
    """det[u v] / covolume(L); the pair is an L-basis iff this is +-1."""
    if L.dim != 2 or len(u) != 2 or len(v) != 2:
        raise ValueError("pair_determinant requires dimension 2")
    return cross2(tuple(F(c) for c in u), tuple(F(c) for c in v)) * L.N


def lift_to_junior(J, v):
    """The unique point of Delta cap N3 over v in Delta' cap N2, by a
    Fraction membership test."""
    a, b = F(v[0]), F(v[1])
    if a < 0 or b < 0 or a + b > 1:
        raise ValueError(f"{v} does not lie in Delta'")
    w = (a, b, 1 - a - b)
    if not is_member(J.lattice, w):
        raise ValueError(f"lift of {v} is not a lattice point (inconsistent lattices)")
    return w


def stabilizer_x_axis(A):
    """Z = {g : a_g = 0 mod n}, the stabilizer of (1,0) in C^2 c C^3, read
    off the action's elements."""
    return tuple((a, b) for a, b in A.elements if a % A.n == 0)


def slice_resolution_by_stabilizer(A):
    """The minimal resolution of C^2/Z for the slice along the e2-e3 edge,
    with Z = `stabilizer_x_axis(A)` acting by the weights (b, -b) mod n."""
    n = A.n
    LW = lattice_from_generators(
        2, [(F(b, n), F((-a - b) % n, n)) for a, b in stabilizer_x_axis(A)])
    return minimal_resolution(LW)


def _member_scaled(L, scaled, N):
    return L.is_member(tuple(F(p, N) for p in scaled))


def points_in_triangle_by_fractions(L, a, b, c):
    """The points of the HNFLattice L in the closed triangle abc, in
    lexicographic order, by a scan of the (1/N)-grid box with a Fraction
    barycentric test per grid point.  In dimension 3 the vertices must span
    a rational plane."""
    a, b, c = (tuple(F(x) for x in p) for p in (a, b, c))
    if L.dim == 2:
        return tuple(sorted(_points_triangle_2d(L, a, b, c)))
    return tuple(sorted(_points_triangle_planar_3d(L, a, b, c)))


def _points_triangle_2d(L, a, b, c):
    ab, ac = vsub(b, a), vsub(c, a)
    area = cross2(ab, ac)
    if area == 0:
        raise ValueError("degenerate triangle")
    N = L.denominator_bound()
    xs = [a[0], b[0], c[0]]
    ys = [a[1], b[1], c[1]]
    out = []
    for p in range(ceil(min(xs) * N), floor(max(xs) * N) + 1):
        for q in range(ceil(min(ys) * N), floor(max(ys) * N) + 1):
            if not _member_scaled(L, (p, q), N):
                continue
            pt = (F(p, N), F(q, N))
            ap = vsub(pt, a)
            s = cross2(ap, ac) / area
            t = cross2(ab, ap) / area
            if s >= 0 and t >= 0 and s + t <= 1:
                out.append(pt)
    return out


def _points_triangle_planar_3d(L, a, b, c):
    ab, ac = vsub(b, a), vsub(c, a)
    n = cross3(ab, ac)
    if all(x == 0 for x in n):
        raise ValueError("degenerate triangle")
    k = max(range(3), key=lambda i: abs(n[i]))  # axis solved from plane eqn
    i1, i2 = [i for i in range(3) if i != k]
    offset = dot(n, a)
    N = L.denominator_bound()
    # barycentric test via projection to the (i1, i2) coordinate plane
    denom = ab[i1] * ac[i2] - ab[i2] * ac[i1]
    assert denom != 0
    lo1 = ceil(min(a[i1], b[i1], c[i1]) * N)
    hi1 = floor(max(a[i1], b[i1], c[i1]) * N)
    lo2 = ceil(min(a[i2], b[i2], c[i2]) * N)
    hi2 = floor(max(a[i2], b[i2], c[i2]) * N)
    out = []
    for p in range(lo1, hi1 + 1):
        for q in range(lo2, hi2 + 1):
            x1 = F(p, N)
            x2 = F(q, N)
            xk = (offset - n[i1] * x1 - n[i2] * x2) / n[k]
            if (xk * N).denominator != 1:
                continue
            pt = [None, None, None]
            pt[i1], pt[i2], pt[k] = x1, x2, xk
            pt = tuple(pt)
            scaled = tuple(int(x * N) for x in pt)
            if not _member_scaled(L, scaled, N):
                continue
            d1 = vsub(pt, a)
            s = (d1[i1] * ac[i2] - d1[i2] * ac[i1]) / denom
            t = (ab[i1] * d1[i2] - ab[i2] * d1[i1]) / denom
            if s >= 0 and t >= 0 and s + t <= 1:
                out.append(pt)
    return out


# ---------------------------------------------------------------------------
# the segment walk the containing-triangulation base case replaced


def lattice_points_on_segment(L, a, b):
    """Points of the HNFLattice L on the closed segment [a, b]; endpoints
    must lie in L."""
    a = tuple(F(x) for x in a)
    b = tuple(F(x) for x in b)
    if a == b:
        return (a,)
    if not (L.is_member(a) and L.is_member(b)):
        raise ValueError("segment endpoints must be lattice points")
    d = vsub(b, a)
    step = L.primitive(d)
    i = next(i for i in range(len(d)) if d[i] != 0)
    count = d[i] / step[i]
    if count.denominator != 1 or count <= 0:
        raise ArithmeticError("the primitive step does not divide the segment")
    return tuple(vadd(a, tuple(j * x for x in step))
                 for j in range(count.numerator + 1))


# ---------------------------------------------------------------------------
# the Fraction junior-plane geometry the grid predicates replaced


def project_p12(w):
    """Drop the third coordinate; maps the junior simplex onto Delta'."""
    return (F(w[0]), F(w[1]))


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
    a, b, c = (tuple(F(x) for x in p) for p in triangle)
    w = tuple(F(x) for x in w)
    if _area2(a, b, c) == 0:
        raise ValueError("degenerate triangle")
    if w in (a, b, c):
        raise ValueError("subdivision point must not be a vertex")
    if not _in_triangle(w, a, b, c):
        raise ValueError("subdivision point must lie in the triangle")
    pieces = [(w, b, c), (w, a, c), (w, a, b)]
    return [t for t in pieces if _area2(*t) != 0]


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


def det3(u, v, w):
    return dot(u, cross3(v, w))


def covers_simplex(T):
    """Area sum equals area of Delta and triangle interiors are pairwise
    disjoint, on the triangulation's Fraction points."""
    coords = [tuple(T.points[i] for i in t) for t in T.triangles]
    total = sum(abs(det3(*t)) for t in coords)
    if total != 1:  # det3(e1, e2, e3)
        return False
    for t1, t2 in itertools.combinations(coords, 2):
        if not _interiors_disjoint(t1, t2):
            return False
    return True


# ---------------------------------------------------------------------------
# the Hermite normal form basis the residue groups replaced


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
class HNFLattice:
    """A lattice Z^dim <= L < Q^dim by its canonical HNF basis columns, with
    membership and primitive points by a Fraction solve in that basis."""

    dim: int
    basis: tuple  # tuple of columns, each a tuple of Fractions

    @property
    def index(self):
        """|det(basis)|; equals 1/[L : Z^dim]."""
        d = ONE
        for j in range(self.dim):
            d *= self.basis[j][j]
        return d

    def denominator_bound(self):
        inv = 1 / self.index
        assert inv.denominator == 1
        return inv.numerator

    def solve(self, v):
        """Coordinates x with sum_j x_j * basis_j = v (upper triangular)."""
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        x = [ZERO] * self.dim
        for i in range(self.dim - 1, -1, -1):
            s = v[i] - sum(self.basis[j][i] * x[j]
                           for j in range(i + 1, self.dim))
            x[i] = s / self.basis[i][i]
        return tuple(x)

    def is_member(self, v):
        return all(c.denominator == 1 for c in self.solve(tuple(F(c) for c in v)))

    def primitive(self, v):
        """The primitive point of L on the ray R_{>=0} * v."""
        v = tuple(F(c) for c in v)
        if all(c == 0 for c in v):
            raise ValueError("zero vector has no primitive multiple")
        # {t > 0 : t*x integral} is generated by lcm_i(q_i/|p_i|) over
        # x_i = p_i/q_i, where lcm of reduced fractions = lcm(numerators) /
        # gcd(denominators)
        num, den = 1, 0
        for c in self.solve(v):
            if c == 0:
                continue
            ci = F(c.denominator, abs(c.numerator))
            num = num * ci.numerator // gcd(num, ci.numerator)
            den = ci.denominator if den == 0 else gcd(den, ci.denominator)
        w = tuple(F(num, den) * c for c in v)
        assert self.is_member(w)
        return w


def hnf_lattice(dim, gens):
    """The lattice Z^dim + sum_i Z*g_i by its canonical HNF basis."""
    gens = [tuple(F(x) for x in g) for g in gens]
    den = 1
    for g in gens:
        for x in g:
            den = den * x.denominator // gcd(den, x.denominator)
    cols = [[den * (i == j) for i in range(dim)] for j in range(dim)]
    cols += [[int(x * den) for x in g] for g in gens]
    H = _column_hnf(cols, dim)
    return HNFLattice(dim, tuple(
        tuple(F(H[j][i], den) for i in range(dim)) for j in range(dim)))


def hnf_N2(A):
    """N2 of the action A, generated by every group element."""
    return hnf_lattice(2, [(F(a, A.n), F(b, A.n)) for a, b in A.elements])


def hnf_N3(A):
    """N3 of the action A, generated by every group element."""
    return hnf_lattice(
        3, [(F(a, A.n), F(b, A.n), F(-a - b, A.n)) for a, b in A.elements])


# ---------------------------------------------------------------------------
# walls of the stability space and the nef-cone dimension, which no request
# path reads


@dataclass(frozen=True)
class Wall:
    """The hyperplane theta(S) = 0; S is canonically the representative not
    containing the trivial character (its complement defines the same wall)."""

    subset: tuple

    def contains(self, theta: Theta) -> bool:
        return sum(theta.values[i] for i in self.subset) == 0

    def sign(self, theta: Theta) -> int:
        s = sum(theta.values[i] for i in self.subset)
        return 0 if s == 0 else (1 if s > 0 else -1)


def walls(A):
    """All distinct walls: one per nonempty subset of the nontrivial
    characters (complements are deduplicated by the canonical choice)."""
    Q = build_mckay_quiver(A)
    m = Q.order
    nontrivial = [v for v in range(m) if v != Q.trivial_vertex]
    out = []
    for size in range(1, m):
        for combo in itertools.combinations(nontrivial, size):
            out.append(Wall(combo))
    return tuple(out)


def wall_sign_vector(A, theta):
    return tuple(w.sign(theta) for w in walls(A))


def nef_cone_dimension(cone):
    """dim of {h : rows.h >= 0} of a NefCone modulo the 3-dim affine gauge,
    by one LP per wall: a wall whose strict row is infeasible is an
    equality of the cone.  The solver looks for h >= 0; the wall rows sum
    to 0, so a constant shifts any h to one, and the verdicts are those
    over free h."""
    n = len(cone.triangulation.grid)
    ge = [(list(r), 0) for _, r in cone.rows]
    eq_normals = []
    for edge, r in cone.rows:
        probe = solve_feasibility(n, [], ge + [(list(r), 1)])
        if not probe.feasible:
            eq_normals.append(list(r))
    # gauge: affine functions h(p) = alpha + beta.x + gamma.y always lie
    # in the cone's lineality space, spanning 3 dimensions
    return (n - _rank(eq_normals)) - 3


def _rank(rows):
    rows = [list(map(F, r)) for r in rows]
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


# ---------------------------------------------------------------------------
# drawing


def fraction_px(x, y, span=F(6, 5)):
    """The canvas point of (x, y), mapping [0, span]^2 onto a 420-pixel
    canvas with a 30-pixel margin, y axis up."""
    sx = 30 + round((420 - 2 * 30) * F(x) / span)
    sy = 420 - 30 - round((420 - 2 * 30) * F(y) / span)
    return int(sx), int(sy)


# ---------------------------------------------------------------------------
# the weld search the library replaced with the insertions its construction
# records


def _grid_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _grid_on_segment(p, a, b):
    return (_grid_cross(a, b, p) == 0
            and (p[0] - a[0]) * (p[0] - b[0]) + (p[1] - a[1]) * (p[1] - b[1]) <= 0)


def weld_heights(T, late=None):
    """Integer heights along a stellar sequence that builds T, or None if T
    does not weld back to one triangle.  Stellar subdivisions keep a
    triangulation regular when each new point is set a little below the
    interpolation (De Loera-Rambau-Santos, Triangulations, 2010, 4.3).  A
    weld removes p if it is interior of degree 3, or on the boundary with
    two triangles and between its boundary neighbours, or interior of degree
    4 on the diagonal ac of its link abcd (its star becomes abc and acd).
    Points are tried in index order, `late` only when no other point welds.
    Replayed from the last triangle at 0, p goes 1 below the interpolation
    from its host (the larger new triangle, area D) after every height is
    scaled by D M, M = N^2 + 1; after `late`, on it, scaled by D.  Old walls
    are then >= D M, and a wall of pab against abe gains M |abp| >= M and
    loses |abe| <= N^2.  The caller checks the heights."""
    g = T.grid
    star = {i: set() for i in range(len(g))}
    for t in T.triangles:
        for i in t:
            star[i].add(t)
    welds = []
    while len(star) > 3:
        n = len(welds)
        for p in [i for i in star if i != late]:
            _weld(g, p, star, welds)
        if len(welds) == n and not (late in star and _weld(g, late, star, welds)):
            return None
    M = T.lattice.N ** 2 + 1
    h = [0] * len(g)
    pull = True
    for p, host in reversed(welds):
        a, b, c = (g[i] for i in host)
        lam = (_grid_cross(g[p], b, c), _grid_cross(a, g[p], c),
               _grid_cross(a, b, g[p]))
        D = sum(lam)
        if D < 0:
            lam, D = [-x for x in lam], -D
        interp = sum(x * h[i] for x, i in zip(lam, host))
        f = D * M if pull else D
        h = [x * f for x in h]
        h[p] = M * interp - 1 if pull else interp
        pull = pull and p != late
    return h


def _weld(g, p, star, welds):
    """Weld p if a move applies: update `star` and record (p, host)."""
    tris = star[p]
    if not 2 <= len(tris) <= 4:
        return False
    link = [tuple(i for i in t if i != p) for t in tris]
    nbrs = {}
    for a, b in link:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    ends = [i for i, js in nbrs.items() if len(js) == 1]
    if (len(tris) == 3 and not ends) or (
            len(tris) == 2 and len(ends) == 2
            and _grid_on_segment(g[p], g[ends[0]], g[ends[1]])):
        new = [tuple(sorted(nbrs))]
    elif len(tris) == 4 and not ends:
        a = link[0][0]
        b, d = nbrs[a]
        c = next(i for i in nbrs if i not in (a, b, d))
        if not _grid_on_segment(g[p], g[a], g[c]):
            a, b, c, d = b, a, d, c
        if not (_grid_on_segment(g[p], g[a], g[c]) and
                _grid_cross(g[a], g[c], g[b]) * _grid_cross(g[a], g[c], g[d]) < 0):
            return False
        new = [tuple(sorted(t)) for t in ((a, b, c), (a, c, d))]
    else:
        return False
    for t in tris:
        for i in t:
            if i != p:
                star[i].discard(t)
    for t in new:
        for i in t:
            star[i].add(t)
    del star[p]
    welds.append((p, max(new, key=lambda t: abs(_grid_cross(*(g[i] for i in t))))))
    return True
