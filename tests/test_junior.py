import itertools
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import clab.junior as junior
from clab.junior import (
    E1,
    E2,
    E3,
    InadmissibleResolutionError,
    PLSupportFunction,
    RegularityRefusal,
    TriangulationError,
    amp_restriction_surjective,
    build_containing_triangulation,
    build_junior,
    is_basic,
    make_triangulation,
    nef_cone,
    regularity_certificate,
    slice_resolution,
)
from clab.lattice import lattice_from_generators, vec
from clab.linprog import Feasibility, solve_feasibility
from clab.surface import (
    build_action,
    build_N2,
    enumerate_admissible_resolutions,
    make_resolution,
    maximal_resolution,
    minimal_resolution,
)

from . import oracles
from .oracles import (
    check_farkas,
    covers_simplex,
    fraction_simplex,
    hnf_N3,
    lift_to_junior,
    nef_cone_dimension,
    points_in_triangle_by_fractions,
    project_p12,
    slice_resolution_by_stabilizer,
    star_subdivide,
)
from .test_quiver import _subgroups


def cyclic(n, a, b):
    return build_action(n, [(a, b)])


def grid_point(q, N):
    """The junior-plane point (x, y, z) of the grid pair (N x, N y)."""
    return (F(q[0], N), F(q[1], N), 1 - F(q[0] + q[1], N))


# ---------------------------------------------------------------------------
# junior simplex and lifts


def test_junior_points_one_eighth():
    J = build_junior(cyclic(8, 1, 3))
    expected = {
        E1, E2, E3,
        vec(F(1, 8), F(3, 8), F(1, 2)), vec(F(3, 8), F(1, 8), F(1, 2)),
        vec(F(1, 4), F(3, 4), 0), vec(F(3, 4), F(1, 4), 0),
        vec(F(1, 2), F(1, 2), 0),
    }
    assert set(J.points) == expected


def test_junior_points_trivial_and_one_third():
    assert set(build_junior(build_action(1, [])).points) == {E1, E2, E3}
    J = build_junior(cyclic(3, 1, 1))
    assert set(J.points) == {E1, E2, E3, vec(F(1, 3), F(1, 3), F(1, 3))}


def test_project_examples():
    assert project_p12(vec(F(1, 8), F(3, 8), F(1, 2))) == (F(1, 8), F(3, 8))
    assert project_p12(E3) == (0, 0)
    assert project_p12(vec(F(1, 2), F(1, 2), 0)) == (F(1, 2), F(1, 2))


def test_lift_examples():
    J = build_junior(cyclic(8, 1, 3))
    assert lift_to_junior(J, (F(1, 2), F(1, 2))) == vec(F(1, 2), F(1, 2), 0)
    assert lift_to_junior(J, (F(1, 8), F(3, 8))) == vec(F(1, 8), F(3, 8), F(1, 2))
    assert lift_to_junior(J, (1, 0)) == E1


def test_lift_roundtrip_on_junior_points():
    J = build_junior(cyclic(8, 1, 3))
    for p in J.points:
        assert lift_to_junior(J, project_p12(p)) == p


def test_lift_errors():
    J = build_junior(cyclic(8, 1, 3))
    with pytest.raises(ValueError):
        lift_to_junior(J, (F(3, 4), F(3, 4)))  # outside Delta'
    with pytest.raises(ValueError):
        lift_to_junior(J, (F(1, 7), F(3, 7)))  # not a lattice point


# ---------------------------------------------------------------------------
# star subdivision


def test_star_subdivide_interior():
    b = vec(F(1, 3), F(1, 3), F(1, 3))
    parts = star_subdivide((E1, E2, E3), b)
    assert len(parts) == 3
    assert parts[0] == (b, E2, E3)


def test_star_subdivide_edge_point():
    m = vec(F(1, 2), F(1, 2), 0)  # on edge e1 e2
    parts = star_subdivide((E1, E2, E3), m)
    assert len(parts) == 2


def test_star_subdivide_errors():
    with pytest.raises(ValueError):
        star_subdivide((E1, E2, E3), E1)
    with pytest.raises(ValueError):
        star_subdivide((E1, E2, E3), vec(1, 1, -1))


# ---------------------------------------------------------------------------
# containing triangulation


def test_containing_triangulation_one_third():
    A = cyclic(3, 1, 1)
    J = build_junior(A)
    Y = minimal_resolution(build_N2(A))
    T = build_containing_triangulation(J, Y)
    assert len(T.triangles) == 3
    b = vec(F(1, 3), F(1, 3), F(1, 3))
    assert set(T.neighbors_of(b)) == {E1, E2, E3}
    assert is_basic(T) and covers_simplex(T)


def test_containing_triangulation_trivial():
    A = build_action(1, [])
    T = build_containing_triangulation(build_junior(A),
                                       minimal_resolution(build_N2(A)))
    assert len(T.triangles) == 1


def test_containing_triangulation_one_eighth_max():
    A = cyclic(8, 1, 3)
    J = build_junior(A)
    Y = maximal_resolution(build_N2(A))
    T = build_containing_triangulation(J, Y)
    assert len(T.triangles) == 8
    lifts = {lift_to_junior(J, v) for v in Y.rays}
    assert set(T.neighbors_of(E3)) == lifts
    assert is_basic(T) and covers_simplex(T)


def test_containing_triangulation_one_eighth_min():
    A = cyclic(8, 1, 3)
    J = build_junior(A)
    Y = minimal_resolution(build_N2(A))
    T = build_containing_triangulation(J, Y)
    assert len(T.triangles) == 8
    lifts = {lift_to_junior(J, v) for v in Y.rays}
    assert set(T.neighbors_of(E3)) == lifts


def test_containing_triangulation_klein_four():
    A = build_action(2, [(1, 1), (1, 0)])
    J = build_junior(A)
    Y = maximal_resolution(build_N2(A))
    T = build_containing_triangulation(J, Y)
    assert len(T.triangles) == 4
    assert is_basic(T) and covers_simplex(T)


def test_containing_triangulation_rejects_inadmissible():
    A = cyclic(2, 1, 0)
    N2 = build_N2(A)
    bad = make_resolution(N2, [(F(1, 2), 0), (F(1, 2), 1), (0, 1)])
    with pytest.raises(InadmissibleResolutionError):
        build_containing_triangulation(build_junior(A), bad)


def test_containing_triangulation_rejects_lattice_mismatch():
    # a ray's pair is its lift's grid pair only when N2 and N3 have one
    # index, and the lift must be a point of N3
    J = build_junior(cyclic(8, 1, 3))
    with pytest.raises(ValueError, match="index 3"):
        build_containing_triangulation(
            J, maximal_resolution(build_N2(cyclic(3, 1, 1))))
    Y = maximal_resolution(build_N2(cyclic(8, 1, 5)))
    with pytest.raises(ValueError, match="not a lattice point"):
        build_containing_triangulation(J, Y)
    # the lifts checked pair by pair are the Fraction lifts
    for A in (cyclic(8, 1, 3), cyclic(12, 1, 7), build_action(2, [(1, 1), (1, 0)])):
        J = build_junior(A)
        for Y in enumerate_admissible_resolutions(build_N2(A)):
            T = build_containing_triangulation(J, Y)
            assert set(T.neighbors_of(E3)) == \
                {lift_to_junior(J, v) for v in Y.rays}


# ---------------------------------------------------------------------------
# basicness and regularity


def test_is_basic_rejects_coarse_triangle():
    A = cyclic(2, 1, 1)
    J = build_junior(A)
    # the whole simplex as one triangle has normalized area 2
    T = make_triangulation(J.lattice, [(E1, E2, E3)])
    assert not is_basic(T)


def test_is_basic_rejects_partial_cover():
    # two of the three unimodular triangles around 1/3(1,1,1) leave a gap
    A = cyclic(3, 1, 1)
    b = vec(F(1, 3), F(1, 3), F(1, 3))
    L = build_junior(A).lattice
    assert is_basic(make_triangulation(L, [(E1, E2, b), (E2, E3, b), (E3, E1, b)]))
    assert not is_basic(make_triangulation(L, [(E1, E2, b), (E2, E3, b)]))


def test_regularity_certificate_exists_for_constructions():
    for A in [cyclic(3, 1, 1), cyclic(8, 1, 3)]:
        J = build_junior(A)
        for Y in enumerate_admissible_resolutions(build_N2(A)):
            T = build_containing_triangulation(J, Y)
            cert = regularity_certificate(T)
            assert isinstance(cert, PLSupportFunction)


def _spiral():
    """The classical non-regular example: two nested triangles, spiral
    triangulation; embedded on the junior plane with denominator 8."""
    L = lattice_from_generators(
        3, [(F(1, 8), 0, F(-1, 8)), (0, F(1, 8), F(-1, 8))]
    )

    def pt(x, y):
        return vec(F(x, 8), F(y, 8), 1 - F(x + y, 8))

    a1, a2, a3 = pt(4, 0), pt(0, 4), pt(0, 0)
    b1, b2, b3 = pt(2, 1), pt(1, 2), pt(1, 1)
    spiral = [
        (b1, b2, b3),
        (a1, a2, b1), (a2, b1, b2),
        (a2, a3, b2), (a3, b2, b3),
        (a3, a1, b3), (a1, b3, b1),
    ]
    return make_triangulation(L, spiral)


def test_regularity_refusal_on_spiral(monkeypatch):
    T = _spiral()
    assert T.insertions == ()
    lps = []
    monkeypatch.setattr(junior, "solve_feasibility",
                        lambda *args: lps.append(args) or solve_feasibility(*args))
    ref = regularity_certificate(T)
    assert isinstance(ref, RegularityRefusal)
    assert len(lps) == 1
    assert len(ref.edges) >= 1
    # re-check the Farkas combination mechanically: the wall rows sum to 0,
    # so the combination is exactly 0, a witness over free heights too
    rows = [(r, F(1)) for _, r in T.wall_rows]
    assert check_farkas(len(T.points), [], rows, ref.farkas)
    comb = [sum(y * r[j] for y, (r, _) in zip(ref.farkas, rows))
            for j in range(len(T.points))]
    assert comb == [0] * len(T.points)
    assert sum(ref.farkas) > 0


def _spiral_twin():
    """The spiral's combinatorics on a larger outer triangle, with the inner
    triangle placed so that it is regular.  Every inner point has degree 4
    and lies on no diagonal of its link, so it does not weld either."""
    L = lattice_from_generators(
        3, [(F(1, 8), 0, F(-1, 8)), (0, F(1, 8), F(-1, 8))]
    )

    def pt(x, y):
        return vec(F(x, 8), F(y, 8), 1 - F(x + y, 8))

    a1, a2, a3 = pt(6, 0), pt(0, 6), pt(0, 0)
    b1, b2, b3 = pt(2, 2), pt(1, 2), pt(2, 1)
    return make_triangulation(L, [
        (b1, b2, b3),
        (a1, a2, b1), (a2, b1, b2),
        (a2, a3, b2), (a3, b2, b3),
        (a3, a1, b3), (a1, b3, b1),
    ])


def test_regularity_certificate_rechecks_heights(monkeypatch):
    # the certificate check is a raise, so it holds under python -O too.  The
    # twin records no insertions, so its certificate comes from the LP
    T = _spiral_twin()
    assert T.insertions == () and oracles.weld_heights(T) is None
    # certified heights, raised at a point whose entry in the first wall row
    # is negative until that wall is no longer strictly convex
    good = list(regularity_certificate(T).heights)
    _, row = T.wall_rows[0]
    i = next(i for i, c in enumerate(row) if c < 0)
    raised = list(good)
    raised[i] += sum(c * h for c, h in zip(row, good))
    for heights in ([F(0)] * len(good), raised):
        monkeypatch.setattr(junior, "solve_feasibility",
                            lambda n, eqs, ges: Feasibility(True, tuple(heights)))
        with pytest.raises(TriangulationError):
            regularity_certificate(T)


def test_wall_rows_reject_overlapping_triangles():
    # both triangles lie on the same side of their common edge e1 e2
    A = cyclic(3, 1, 1)
    b = vec(F(1, 3), F(1, 3), F(1, 3))
    T = make_triangulation(build_junior(A).lattice, [(E1, E2, E3), (E1, E2, b)])
    with pytest.raises(ValueError, match="overlap"):
        T.walls
    with pytest.raises(ValueError, match="overlap"):
        nef_cone(T)


def test_certificate_heights_verify():
    A = cyclic(8, 1, 3)
    J = build_junior(A)
    T = build_containing_triangulation(J, maximal_resolution(build_N2(A)))
    cert = regularity_certificate(T)
    cone = nef_cone(T)
    assert cone.contains(cert.heights, strict=True)


# ---------------------------------------------------------------------------
# nef cone


def test_nef_cone_dimensions():
    A = cyclic(3, 1, 1)
    J = build_junior(A)
    T = build_containing_triangulation(J, minimal_resolution(build_N2(A)))
    assert nef_cone_dimension(nef_cone(T)) == 1

    triv = build_action(1, [])
    T0 = build_containing_triangulation(build_junior(triv),
                                        minimal_resolution(build_N2(triv)))
    assert nef_cone_dimension(nef_cone(T0)) == 0


def test_nef_cone_full_dimensional_when_regular():
    # Pic rank of the crepant resolution is #points - 3; regularity makes the
    # nef cone full-dimensional in that quotient
    A = cyclic(8, 1, 3)
    J = build_junior(A)
    T = build_containing_triangulation(J, maximal_resolution(build_N2(A)))
    cone = nef_cone(T)
    assert cone.ambient_dim() == len(T.points) - 3 == 5
    assert nef_cone_dimension(cone) == 5


# ---------------------------------------------------------------------------
# ample-cone restriction


def test_slice_stabilizer_and_resolution():
    A = build_action(2, [(0, 1)])
    W = slice_resolution(build_junior(A).lattice)
    assert W.exceptional_rays == (vec(F(1, 2), F(1, 2)),)


def test_slice_from_lattice_matches_stabilizer_oracle():
    # the slice group read off the residues of N3 against the stabilizer
    # read off the action's elements, over every group of order <= 12
    groups = _subgroups(12)
    assert len(groups) == 126
    trivial = 0
    for A in groups:
        J = build_junior(A)
        W = slice_resolution(J.lattice)
        assert W == J.slice == slice_resolution_by_stabilizer(A), A
        trivial += W.lattice.N == 1
    assert 0 < trivial < len(groups)


def test_triangulations_carry_the_slice_their_group_keeps(monkeypatch):
    # the junior simplex builds its slice resolution once; the
    # triangulations it contains carry it, so certifying them rebuilds none
    A = build_action(9, [(1, 2), (0, 3)])
    J = build_junior(A)
    W = J.slice
    Ts = [build_containing_triangulation(J, Y)
          for Y in enumerate_admissible_resolutions(build_N2(A))[::5]]
    # a triangulation made from its triangles alone reads the lattice
    twin = make_triangulation(
        J.lattice, [[Ts[0].points[i] for i in t] for t in Ts[0].triangles])
    assert twin.slice is None
    assert junior._slice_edge(twin) == junior._slice_edge(Ts[0])

    def rebuilt(N3):
        raise AssertionError("the slice resolution was rebuilt")

    monkeypatch.setattr(junior, "slice_resolution", rebuilt)
    for T in Ts:
        assert T.slice is W
        assert amp_restriction_surjective(T)
    assert J.slice is W


def test_amp_restriction_trivial_slice():
    # Z trivial: Nef(W) = 0 and surjectivity holds vacuously
    A = cyclic(8, 1, 3)
    J = build_junior(A)
    T = build_containing_triangulation(J, maximal_resolution(build_N2(A)))
    assert amp_restriction_surjective(T)


@pytest.mark.parametrize("gens,n", [([(0, 1)], 2), ([(0, 1)], 3)])
def test_amp_restriction_product_case(gens, n):
    # Z = G: U = W x C and the restriction is an isomorphism on nef cones
    A = build_action(n, gens)
    J = build_junior(A)
    Y = minimal_resolution(build_N2(A))
    T = build_containing_triangulation(J, Y)
    assert amp_restriction_surjective(T)


def test_amp_restriction_on_all_admissible():
    for A in [cyclic(3, 1, 1), cyclic(8, 1, 3), build_action(2, [(1, 1), (1, 0)])]:
        J = build_junior(A)
        for Y in enumerate_admissible_resolutions(build_N2(A)):
            T = build_containing_triangulation(J, Y)
            assert amp_restriction_surjective(T)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 10), st.integers(0, 9), st.integers(0, 9))
def test_containing_triangulation_invariants(n, a, b):
    A = cyclic(n, a, b)
    N2 = build_N2(A)
    J = build_junior(A)
    for Y in enumerate_admissible_resolutions(N2)[:4]:
        T = build_containing_triangulation(J, Y)
        assert is_basic(T)
        assert len(T.triangles) == A.order
        lifts = {lift_to_junior(J, v) for v in Y.rays}
        assert set(T.neighbors_of(E3)) == lifts
        assert covers_simplex(T)


# ---------------------------------------------------------------------------
# the integer simplex and the junior-point filter against what they replaced

TRIANGULATE_GROUPS = [
    (24, [(1, 7)]), (12, [(1, 7), (0, 6)]), (12, [(1, 5), (0, 6)]),
    (30, [(1, 11)]), (18, [(1, 5), (0, 9)]),
]


def _certificate_cases():
    """All admissible resolutions of 1/12(1,7;0,6) and the minimal and
    maximal ones of the other triangulate groups, with their actions."""
    cases = []
    for n, gens in TRIANGULATE_GROUPS:
        A = build_action(n, gens)
        N2 = build_N2(A)
        if (n, gens) == (12, [(1, 7), (0, 6)]):
            cases += [(A, Y) for Y in enumerate_admissible_resolutions(N2)]
        else:
            cases += [(A, minimal_resolution(N2)), (A, maximal_resolution(N2))]
    return cases


def test_certificate_lps_match_fraction_simplex(monkeypatch):
    # every fallback LP of the regularity certificate and the amp
    # restriction, solved directly, for all admissible resolutions of
    # 1/12(1,7;0,6) and for min and max of the triangulate groups: identical
    # point or Farkas vector
    solved = []

    def both(n, eqs, ges):
        res = solve_feasibility(n, eqs, ges)
        ref = fraction_simplex(n, eqs, ges)
        assert (res.feasible, res.point, res.farkas) == (
            ref.feasible, ref.point, ref.farkas)
        solved.append(res.feasible)
        return res

    monkeypatch.setattr(junior, "solve_feasibility", both)
    cases = _certificate_cases()
    for A, Y in cases:
        T = build_containing_triangulation(build_junior(A), Y)
        assert isinstance(junior._regularity_lp(T), PLSupportFunction)
        edge = junior._slice_edge(T)
        for k in range(1, len(edge) - 1):
            assert junior._tent_lp(T, edge, k)
    assert len(solved) > len(cases)


def test_junior_lp_rows_sum_to_zero(monkeypatch):
    # the solver looks for x >= 0, which loses no solution of the junior
    # systems only because each of their rows sums to 0: a constant added to
    # every height changes no row.  Checked on every wall row and on every
    # second-difference row of the amp LPs
    amp_rows = []

    def record(n, eqs, ges):
        amp_rows.extend(a for a, _ in eqs)
        return solve_feasibility(n, eqs, ges)

    monkeypatch.setattr(junior, "solve_feasibility", record)
    walls = 0
    for A, Y in _certificate_cases():
        T = build_containing_triangulation(build_junior(A), Y)
        for edge, r in T.wall_rows:
            assert sum(r) == 0, edge
        walls += len(T.wall_rows)
        edge = junior._slice_edge(T)
        for k in range(1, len(edge) - 1):
            junior._tent_lp(T, edge, k)
    assert walls > 0 and amp_rows
    for a in amp_rows:
        assert sum(a) == 0 and sorted(c for c in a if c) == [-2, 1, 1]


# ---------------------------------------------------------------------------
# certificates by construction against the LPs they replace


def _lp_verdicts(T):
    edge = junior._slice_edge(T)
    return (isinstance(junior._regularity_lp(T), PLSupportFunction),
            all(junior._tent_lp(T, edge, k) for k in range(1, len(edge) - 1)))


def _count_lps(monkeypatch):
    calls = []
    monkeypatch.setattr(junior, "solve_feasibility",
                        lambda *args: calls.append(args) or solve_feasibility(*args))
    return calls


def test_constructed_verdicts_match_lp_verdicts(monkeypatch):
    # every admissible resolution of every group of order <= 12, with up to
    # 11 tents on the slice (m = 12); all are certified without an LP
    cases = [(A, Y) for A in _subgroups(12)
             for Y in enumerate_admissible_resolutions(build_N2(A))]
    assert len(cases) == 241
    lps = _count_lps(monkeypatch)
    verdicts = []
    for A, Y in cases:
        T = build_containing_triangulation(build_junior(A), Y)
        cert = regularity_certificate(T)
        verdicts.append((T, isinstance(cert, PLSupportFunction),
                         amp_restriction_surjective(T)))
        if verdicts[-1][1]:
            assert all(isinstance(h, int) for h in cert.heights)
            assert nef_cone(T).contains(cert.heights, strict=True)
    assert lps == []
    for T, regular, amp in verdicts:
        assert (regular, amp) == _lp_verdicts(T)


def test_no_lp_on_the_triangulate_groups(monkeypatch):
    lps = _count_lps(monkeypatch)
    count = 0
    for n, gens in TRIANGULATE_GROUPS:
        A = build_action(n, gens)
        J = build_junior(A)
        for Y in enumerate_admissible_resolutions(build_N2(A)):
            T = build_containing_triangulation(J, Y)
            assert isinstance(regularity_certificate(T), PLSupportFunction)
            assert amp_restriction_surjective(T)
            count += 1
    assert count == 226
    assert lps == []


def test_unwelded_m3_case_takes_no_lp(monkeypatch):
    # index 15 of 1/12(1,1;0,4) sticks with seven points left, none of which
    # a move welds; its recorded insertions certify it and both tents
    A = build_action(12, [(1, 1), (0, 4)])
    Y = enumerate_admissible_resolutions(build_N2(A))[15]
    T = build_containing_triangulation(build_junior(A), Y)
    assert len(junior._slice_edge(T)) == 4  # m = 3: two tents
    assert oracles.weld_heights(T) is None
    lps = _count_lps(monkeypatch)
    verdicts = (isinstance(regularity_certificate(T), PLSupportFunction),
                amp_restriction_surjective(T))
    assert lps == []
    assert verdicts == _lp_verdicts(T) == (True, True)


@pytest.mark.parametrize("n,gens,count,unwelded", [
    (12, [(1, 1), (0, 4)], 81, 3), (10, [(1, 2), (0, 2)], 281, 6)])
def test_recorded_insertions_certify_without_lps(monkeypatch, n, gens, count,
                                                 unwelded):
    # on the resolutions the weld search does not reach, the verdicts are
    # the LPs' verdicts
    A = build_action(n, gens)
    J = build_junior(A)
    Ts = [build_containing_triangulation(J, Y)
          for Y in enumerate_admissible_resolutions(build_N2(A))]
    assert len(Ts) == count
    lps = _count_lps(monkeypatch)
    for T in Ts:
        assert isinstance(regularity_certificate(T), PLSupportFunction)
        assert amp_restriction_surjective(T)
    assert lps == []
    stuck = [T for T in Ts if oracles.weld_heights(T) is None]
    assert len(stuck) == unwelded
    for T in stuck:
        assert _lp_verdicts(T) == (True, True)


def _stellar_rebuild(T):
    """T's insertions applied as stellar subdivisions to Delta, or None if a
    host is not a triangle of the subdivision at its turn."""
    g, N = T.grid, T.lattice.N
    tris = {tuple(sorted(g.index(v) for v in ((N, 0), (0, N), (0, 0))))}
    for p, host in T.insertions:
        if tuple(sorted(host)) not in tris:
            return None
        for t in [t for t in tris if p not in t and junior._in_triangle(
                g[p], *(g[i] for i in t))]:
            tris.remove(t)
            tris.update(tuple(sorted((p, *e)))
                        for e in itertools.combinations(t, 2)
                        if not junior._on_segment(g[p], *(g[i] for i in e)))
    return tris


def test_recorded_insertions_rebuild_the_triangulation():
    # each point once, into a triangle of the subdivision so far: the record
    # is a stellar sequence, and it ends at T
    for n, gens in [(12, [(1, 1), (0, 4)]), (9, [(1, 2), (0, 3)]),
                    *TRIANGULATE_GROUPS]:
        A = build_action(n, gens)
        J = build_junior(A)
        for Y in enumerate_admissible_resolutions(build_N2(A))[::3]:
            T = build_containing_triangulation(J, Y)
            points = [p for p, _ in T.insertions]
            assert len(points) == len(set(points)) == len(T.grid) - 3
            assert _stellar_rebuild(T) == set(T.triangles)


def test_insertions_do_not_change_equality():
    A = build_action(8, [(1, 3)])
    J = build_junior(A)
    T = build_containing_triangulation(J, maximal_resolution(build_N2(A)))
    twin = make_triangulation(
        J.lattice, [[T.points[i] for i in t] for t in T.triangles])
    assert T.insertions and twin.insertions == ()
    assert T == twin and hash(T) == hash(twin)


def test_constructed_heights_are_checked(monkeypatch):
    # heights that fail their check send both certificates to the LPs
    A = build_action(12, [(1, 7), (0, 6)])
    T = build_containing_triangulation(
        build_junior(A), maximal_resolution(build_N2(A)))
    monkeypatch.setattr(junior, "_replay",
                        lambda T, insertions, late=None: [0] * len(T.grid))
    lps = _count_lps(monkeypatch)
    cert = regularity_certificate(T)
    assert isinstance(cert, PLSupportFunction) and len(lps) == 1
    assert nef_cone(T).contains(cert.heights, strict=True)
    assert amp_restriction_surjective(T) and len(lps) == 2


def test_tent_heights_restrict_to_the_tent():
    # the held-back slice point is the first slice point inserted, and every
    # later point sits on the interpolation: weakly convex, one kink on the
    # slice
    A = build_action(9, [(1, 2), (0, 3)])
    J = build_junior(A)
    for Y in enumerate_admissible_resolutions(build_N2(A))[::9]:
        T = build_containing_triangulation(J, Y)
        edge = junior._slice_edge(T)
        assert len(edge) == 4
        for k in (1, 2):
            h = junior._replay(
                T, junior._tent_insertions(T.insertions, edge, k),
                late=edge[k])
            assert nef_cone(T).contains(h)
            d = [h[u] - 2 * h[v] + h[w]
                 for u, v, w in zip(edge, edge[1:], edge[2:])]
            assert d[k - 1] > 0 and d[2 - k] == 0
            assert junior._is_tent(T, edge, k, h)
            # not nef, or kinked at both slice points
            assert not junior._is_tent(T, edge, k, [-x for x in h])
            assert not junior._is_tent(
                T, edge, k, junior._replay(T, T.insertions))


@pytest.mark.parametrize("n,gens", [(8, [(1, 3)]), (12, [(1, 5), (0, 6)]),
                                    (18, [(1, 5), (0, 9)])])
def test_junior_point_filter_equals_lattice_scan(monkeypatch, n, gens):
    A = build_action(n, gens)
    J = build_junior(A)
    N = J.lattice.N
    H = hnf_N3(A)
    filtered = junior._points_in_triangle
    point_of = dict(zip(J.grid, J.points))
    visited = []
    scans = {}  # the resolutions share most sub-triangles

    def checked(points, a, b, c):
        # the filter runs on grid pairs; the scan on the points they stand for
        pts = filtered(points, a, b, c)
        if (a, b, c) not in scans:
            scans[a, b, c] = points_in_triangle_by_fractions(
                H, *(grid_point(q, N) for q in (a, b, c)))
        scan = scans[a, b, c]
        assert tuple(point_of[q] for q in pts) == scan
        visited.append((a, b, c))
        return pts

    monkeypatch.setattr(junior, "_points_in_triangle", checked)
    resolutions = enumerate_admissible_resolutions(build_N2(A))
    for Y in resolutions:
        build_containing_triangulation(J, Y)
    assert len(visited) >= len(resolutions)


# the golden sweep's triangulate groups
GOLDEN_GROUPS = TRIANGULATE_GROUPS + [(12, [(1, 1), (0, 4)]), (9, [(1, 2), (0, 3)])]


def test_halfplane_masks_match_the_grid_scan(monkeypatch):
    # every sub-triangle the construction visits, over every admissible
    # resolution of the golden groups, against the whole-grid scan; the
    # construction visits counter-clockwise triangles, so each is also
    # checked with two vertices swapped.  The masks a group keeps are at
    # most one per ordered pair of grid points
    masked = junior._points_in_triangle
    turns = set()

    def checked(J, a, b, c):
        for tri in ((a, b, c), (a, c, b)):
            assert masked(J, *tri) == oracles.points_in_triangle_by_scan(
                J.grid, *tri)
        turns.add(junior._cross(a, b, c) > 0)
        return masked(J, a, b, c)

    monkeypatch.setattr(junior, "_points_in_triangle", checked)
    count = 0
    for n, gens in GOLDEN_GROUPS:
        A = build_action(n, gens)
        J = build_junior(A)
        for Y in enumerate_admissible_resolutions(build_N2(A)):
            build_containing_triangulation(J, Y)
            count += 1
        assert 0 < len(J._halfplanes) <= len(J.grid) ** 2
    assert count == 226 + 81 + 125
    assert turns == {True}


def test_walls_densify_to_wall_rows():
    # the sparse rows the certificates read against the dense rows of the
    # LPs and the nef cone, on every admissible resolution of the golden
    # groups and on the two spirals, which record no insertions
    Ts = [_spiral(), _spiral_twin()]
    for n, gens in GOLDEN_GROUPS:
        A = build_action(n, gens)
        J = build_junior(A)
        Ts += [build_containing_triangulation(J, Y)
               for Y in enumerate_admissible_resolutions(build_N2(A))]
    for T in Ts:
        interior = sorted(e for e, ts in T.edge_triangles().items()
                          if len(ts) == 2)
        assert [edge for edge, _ in T.walls] == interior
        for _, entries in T.walls:
            assert len(dict(entries)) == 4
        assert T.wall_rows == tuple(
            (edge, tuple(dict(entries).get(i, 0) for i in range(len(T.grid))))
            for edge, entries in T.walls)


# ---------------------------------------------------------------------------
# the grid predicates against the Fraction geometry they replaced


@st.composite
def grid_triangles(draw):
    """N, a non-degenerate triangle of grid pairs in either orientation,
    and a grid pair that is a vertex, on an edge, or anywhere nearby."""
    N = draw(st.integers(1, 12))
    coord = st.integers(-2 * N, 2 * N)
    tri = [(draw(coord), draw(coord)) for _ in range(3)]
    assume(junior._cross(*tri) != 0)
    kind = draw(st.sampled_from(["vertex", "edge", "any"]))
    if kind == "vertex":
        p = draw(st.sampled_from(tri))
    elif kind == "edge":
        i = draw(st.integers(0, 2))
        a, b = tri[i], tri[(i + 1) % 3]
        dx, dy = b[0] - a[0], b[1] - a[1]
        steps = gcd(dx, dy)
        k = draw(st.integers(-1, steps + 1))
        p = (a[0] + k * dx // steps, a[1] + k * dy // steps)
    else:
        p = (draw(coord), draw(coord))
    return N, tri, p


@settings(max_examples=400, deadline=None)
@given(grid_triangles())
def test_grid_predicates_match_fraction_oracles(case):
    N, (a, b, c), p = case
    A, B, C, P = (grid_point(q, N) for q in (a, b, c, p))
    assert junior._cross(a, b, c) == oracles._area2(A, B, C) * N * N
    for tri in ((a, b, c), (a, c, b)):
        assert junior._in_triangle(p, *tri) == oracles._in_triangle(
            P, *(grid_point(q, N) for q in tri))
    for u, v in ((a, b), (b, c), (c, a), (b, a), (a, a)):
        assert junior._on_segment(p, u, v) == oracles._on_segment(
            P, grid_point(u, N), grid_point(v, N))


def test_make_triangulation_rejects_off_grid_points():
    L = build_junior(cyclic(3, 1, 1)).lattice
    with pytest.raises(ValueError, match="grid"):
        make_triangulation(L, [(E1, E2, vec(F(1, 6), F(1, 6), F(2, 3)))])
    with pytest.raises(ValueError, match="plane"):
        make_triangulation(L, [(E1, E2, vec(F(1, 3), F(1, 3), F(2, 3)))])
    T = make_triangulation(L, [(E1, E2, vec(F(1, 3), F(1, 3), F(1, 3)))])
    assert T.grid == ((0, 3), (1, 1), (3, 0))


def test_wall_rows_are_area_scaled_barycentric_rows():
    # each integer row is the Fraction row of the barycentric coordinates of
    # d in (a, b, c), times the area of abc, which is N on a basic
    # triangulation
    A = build_action(12, [(1, 5), (0, 6)])
    J = build_junior(A)
    N = J.lattice.N
    for Y in enumerate_admissible_resolutions(build_N2(A))[::7]:
        T = build_containing_triangulation(J, Y)
        assert T.points == J.points
        e2t = T.edge_triangles()
        for (a_i, b_i), row in T.wall_rows:
            t1, t2 = e2t[(a_i, b_i)]
            c_i = next(i for i in t1 if i not in (a_i, b_i))
            d_i = next(i for i in t2 if i not in (a_i, b_i))
            la, lb, lc = oracles._barycentric(
                *(T.points[i] for i in (d_i, a_i, b_i, c_i)))
            expected = [0] * len(T.points)
            expected[d_i], expected[a_i], expected[b_i], expected[c_i] = (
                N, -la * N, -lb * N, -lc * N)
            assert list(row) == expected
