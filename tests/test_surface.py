import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clab.junior import build_junior
from clab.lattice import lattice_from_generators, triangle_grid, vec
from clab.surface import (
    AdmissibleSequences,
    Resolution,
    boundary_divisor,
    build_action,
    build_N2,
    enumerate_admissible_resolutions,
    is_dominated_by_max,
    is_small,
    make_resolution,
    maximal_resolution,
    minimal_resolution,
    resolution_from_grid,
    sort_rays_by_angle,
)
from clab.surface import _maximal_rays, _minimal_rays

from .oracles import (
    admissible_by_sorted_product,
    admissible_by_subsets,
    hj_minimal_rays,
    hnf_N2,
    hnf_N3,
    make_resolution_by_fractions,
    maximal_rays_by_primitive_filter,
    minimal_rays_by_fractions,
    pair_determinant,
    residues_by_scan,
    resolution_from_json,
    scaled,
)


def cyclic(n, a, b):
    return build_action(n, [(a, b)])


# ---------------------------------------------------------------------------
# group bookkeeping


def test_build_action_cyclic_eight():
    A = cyclic(8, 1, 3)
    assert A.order == 8
    assert set(A.elements) == {(k % 8, 3 * k % 8) for k in range(8)}


def test_build_action_trivial():
    A = build_action(1, [])
    assert A.order == 1
    assert A.elements == ((0, 0),)


def test_build_action_klein_four():
    A = build_action(2, [(1, 1), (1, 0)])
    assert A.order == 4
    assert set(A.elements) == {(0, 0), (1, 1), (1, 0), (0, 1)}


def test_is_small():
    assert is_small(cyclic(8, 1, 3))
    assert not is_small(cyclic(2, 1, 0))
    assert is_small(build_action(1, []))


def test_small_iff_boundary_divisor_zero():
    for A in [cyclic(8, 1, 3), cyclic(2, 1, 0), cyclic(4, 0, 1),
              build_action(2, [(1, 1), (1, 0)]), cyclic(6, 1, 5)]:
        assert is_small(A) == boundary_divisor(build_N2(A)).is_zero


def test_build_N2_congruence():
    for A, basis in ((cyclic(3, 1, 1), ((F(1), F(0)), (F(1, 3), F(1, 3)))),
                     (cyclic(2, 1, 0), ((F(1, 2), F(0)), (F(0), F(1))))):
        assert hnf_N2(A).basis == basis
        assert build_N2(A) == lattice_from_generators(2, basis)
    assert build_N2(build_action(1, [])).index == 1


def test_boundary_divisor_reflection():
    B = boundary_divisor(build_N2(cyclic(2, 1, 0)))
    assert (B.m1, B.m2) == (2, 1)
    assert B.coefficients == (F(1, 2), F(0))


def test_boundary_divisor_small_and_trivial():
    assert boundary_divisor(build_N2(cyclic(8, 1, 3))).is_zero
    assert boundary_divisor(build_N2(build_action(1, []))).is_zero


def test_boundary_divisor_matches_fraction_primitive_points():
    # m_i = 1 / (the i-th coordinate of the primitive axis point e_i'), with
    # e_i' by the Fraction solve in the HNF basis
    for group in CYCLIC_30 + TWO_GENERATORS:
        A = build_action(*group)
        H = hnf_N2(A)
        B = boundary_divisor(build_N2(A))
        assert (B.m1, B.m2) == (1 / H.primitive((1, 0))[0],
                                1 / H.primitive((0, 1))[1]), group


# ---------------------------------------------------------------------------
# minimal resolution (Hirzebruch-Jung)


def test_minimal_resolution_one_eighth():
    Y = minimal_resolution(build_N2(cyclic(8, 1, 3)))
    assert Y.rays == (vec(1, 0), vec(F(3, 8), F(1, 8)), vec(F(1, 8), F(3, 8)),
                      vec(0, 1))
    assert Y.discrepancies == (F(-1, 2), F(-1, 2))


def test_minimal_resolution_trivial():
    Y = minimal_resolution(build_N2(build_action(1, [])))
    assert Y.exceptional_rays == ()


def test_minimal_resolution_one_third():
    Y = minimal_resolution(build_N2(cyclic(3, 1, 1)))
    assert Y.exceptional_rays == (vec(F(1, 3), F(1, 3)),)
    assert Y.discrepancies == (F(-1, 3),)


@pytest.mark.parametrize("n,q", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3),
                                 (5, 2), (5, 3), (7, 3), (8, 3), (8, 5),
                                 (11, 7), (12, 5), (12, 7)])
def test_minimal_resolution_matches_hj_recurrence(n, q):
    Y = minimal_resolution(build_N2(cyclic(n, 1, q)))
    assert list(Y.rays) == [tuple(r) for r in hj_minimal_rays(n, q)]


def test_minimal_resolution_reflection_case():
    # 1/2(1,0): quotient is smooth, no exceptional rays
    Y = minimal_resolution(build_N2(cyclic(2, 1, 0)))
    assert Y.rays == (vec(F(1, 2), 0), vec(0, 1))


# ---------------------------------------------------------------------------
# maximal resolution


def test_maximal_resolution_one_eighth():
    Y = maximal_resolution(build_N2(cyclic(8, 1, 3)))
    assert Y.exceptional_rays == (vec(F(3, 8), F(1, 8)), vec(F(1, 2), F(1, 2)),
                                  vec(F(1, 8), F(3, 8)))
    assert Y.discrepancies == (F(-1, 2), F(0), F(-1, 2))


def test_maximal_equals_minimal_one_third():
    N2 = build_N2(cyclic(3, 1, 1))
    assert maximal_resolution(N2) == minimal_resolution(N2)


def test_maximal_resolution_reflection_is_identity():
    Y = maximal_resolution(build_N2(cyclic(2, 1, 0)))
    assert Y.exceptional_rays == ()


# ---------------------------------------------------------------------------
# admissible resolutions and domination


def test_admissible_one_eighth():
    N2 = build_N2(cyclic(8, 1, 3))
    res = enumerate_admissible_resolutions(N2)
    assert len(res) == 2
    assert res[0] == minimal_resolution(N2)
    assert res[1] == maximal_resolution(N2)


def test_admissible_unique_cases():
    assert len(enumerate_admissible_resolutions(build_N2(cyclic(3, 1, 1)))) == 1
    assert len(enumerate_admissible_resolutions(build_N2(build_action(1, [])))) == 1


def test_is_dominated_by_max():
    N2 = build_N2(cyclic(8, 1, 3))
    assert is_dominated_by_max(maximal_resolution(N2))
    assert is_dominated_by_max(minimal_resolution(N2))
    # 1/2(1,0) with the extra ray (1/2, 1): discrepancy +1/2
    L = build_N2(cyclic(2, 1, 0))
    Y = make_resolution(L, [(F(1, 2), 0), (F(1, 2), 1), (0, 1)])
    assert Y.discrepancies == (F(1, 2),)
    assert not is_dominated_by_max(Y)


def test_resolution_json_roundtrip():
    N2 = build_N2(cyclic(8, 1, 3))
    Y = maximal_resolution(N2)
    js = Y.to_json()
    assert js["rays"][0] == ["3/8", "1/8"]
    assert js["discrepancies"] == ["-1/2", "0", "-1/2"]
    assert resolution_from_json(N2, js) == Y


def test_resolution_stores_scaled_pairs():
    N2 = build_N2(cyclic(8, 1, 3))
    Y = maximal_resolution(N2)
    assert Y.grid == ((8, 0), (3, 1), (4, 4), (1, 3), (0, 8))
    assert Y == Resolution(Y.grid, N2)
    assert Y == resolution_from_grid(N2, Y.grid)
    assert Y != minimal_resolution(N2)
    # equal rays on another lattice are another resolution
    assert Y != Resolution(Y.grid, build_N2(cyclic(8, 1, 5)))
    assert hash(Y) == hash(Resolution(Y.grid, N2))


def test_rational_roundtrip_and_json_match_fraction_rays():
    # make_resolution(L, Y.rays) == Y, and the JSON read off the pairs is
    # the JSON of the Fraction rays, for every admissible resolution
    for group in COLD_GROUPS + TRIANGULATE_GROUPS:
        A = build_action(*group)
        N2 = build_N2(A)
        H = hnf_N2(A)
        for Y in enumerate_admissible_resolutions(N2):
            assert make_resolution(N2, Y.rays) == Y, group
            assert scaled(Y.rays, N2.N) == Y.grid, group
            assert Y.to_json() == \
                make_resolution_by_fractions(H, Y.rays).to_json(), group


def test_resolution_validation_rejects_bad_sequences():
    N2 = build_N2(cyclic(8, 1, 3))
    with pytest.raises(ValueError):
        make_resolution(N2, [(1, 0), (F(1, 2), F(1, 2)), (0, 1)])  # not unimodular
    with pytest.raises(ValueError):
        make_resolution(N2, [(F(1, 8), F(3, 8)), (0, 1)])  # v0 off the x-axis
    with pytest.raises(ValueError):
        make_resolution(N2, [(1, 0), (F(1, 4), F(3, 4)), (0, 1)])  # non-primitive
    with pytest.raises(ValueError):
        # unimodular (det 1), but (1/2, 0) is not in Z^2
        make_resolution(lattice_from_generators(2, []), [(F(1, 2), 0), (0, 2)])


# ---------------------------------------------------------------------------
# constructions against the exhaustive searches they replaced

COLD_GROUPS = [(n, [(1, q)]) for n in range(1, 13) for q in range(n)] + [
    (2, [(1, 1), (1, 0)]), (4, [(1, 1), (2, 0)]), (6, [(2, 1), (0, 3)]),
    (12, [(1, 7), (0, 6)]), (12, [(1, 5), (0, 6)]),
]
TRIANGULATE_GROUPS = [
    (24, [(1, 7)]), (12, [(1, 7), (0, 6)]), (12, [(1, 5), (0, 6)]),
    (30, [(1, 11)]), (18, [(1, 5), (0, 9)]),
]
# every 1/n(1,q) with n <= 30, and the groups with two generators
CYCLIC_30 = [(n, [(1, q)]) for n in range(1, 31) for q in range(n)]
TWO_GENERATORS = [(2, [(1, 1), (1, 0)]), (4, [(1, 1), (2, 0)]),
                  (12, [(1, 7), (0, 6)]), (12, [(1, 5), (0, 6)]),
                  (18, [(1, 5), (0, 9)])]


def test_residues_by_closure_equal_scan():
    for group in COLD_GROUPS:
        A = build_action(*group)
        for L, H in ((build_N2(A), hnf_N2(A)),
                     (build_junior(A).lattice, hnf_N3(A))):
            assert L.residues == residues_by_scan(H), (group, L.dim)


def test_admissible_by_blowups_equal_subset_enumeration():
    # every index, from either end, decoded against the sorted product of
    # the per-gap fills; the N-scaled sequences, in their order, against
    # the subset search's rays times N (at most 9 rays are optional for
    # n <= 30)
    for group in CYCLIC_30 + TWO_GENERATORS + COLD_GROUPS + TRIANGULATE_GROUPS:
        N2 = build_N2(build_action(*group))
        seqs = AdmissibleSequences(N2)
        expected = admissible_by_sorted_product(N2)
        k = len(expected)
        assert len(seqs) == k, group
        assert [seqs[i] for i in range(k)] == expected, group
        assert [seqs[i] for i in range(-k, 0)] == expected, group
        assert list(seqs) == expected, group
        for i in (k, -k - 1):
            with pytest.raises(IndexError):
                seqs[i]
    for group in CYCLIC_30 + TWO_GENERATORS:
        N2 = build_N2(build_action(*group))
        expected = [scaled(Y.rays, N2.N) for Y in admissible_by_subsets(N2)]
        assert list(AdmissibleSequences(N2)) == expected, group
    for group in COLD_GROUPS + TRIANGULATE_GROUPS:
        N2 = build_N2(build_action(*group))
        assert enumerate_admissible_resolutions(N2) == admissible_by_subsets(N2), group


def test_minimal_rays_match_fraction_hull():
    # the integer hull walk against a Fraction gift-wrapping walk over the
    # points of the HNF basis
    for group in CYCLIC_30 + TWO_GENERATORS:
        A = build_action(*group)
        N2 = build_N2(A)
        assert _minimal_rays(N2) == \
            scaled(minimal_rays_by_fractions(hnf_N2(A)), N2.N), group


def test_maximal_rays_match_primitive_filter():
    # the first scanned point per direction against a primitive-point test
    # of every point of Delta' (the scan itself is checked against the
    # Fraction scan in test_lattice), for every 1/n(1,q) with n <= 30 and
    # the non-cyclic groups
    for group in CYCLIC_30 + COLD_GROUPS[-5:] + TRIANGULATE_GROUPS:
        A = build_action(*group)
        N2 = build_N2(A)
        N = N2.N
        pts = [(F(X, N), F(Y, N)) for X, Y in triangle_grid(N2)]
        assert _maximal_rays(N2) == \
            scaled(maximal_rays_by_primitive_filter(hnf_N2(A), pts), N), group


def _check_or_message(make, lattice, rays):
    try:
        Y = make(lattice, rays)
    except ValueError as e:
        return str(e)
    return (Y.rays, Y.discrepancies)


BAD_SEQUENCES = [
    (cyclic(8, 1, 3), [(1, 0), (F(1, 2), F(1, 2)), (0, 1)]),
    (cyclic(8, 1, 3), [(F(1, 8), F(3, 8)), (0, 1)]),
    (cyclic(8, 1, 3), [(1, 0), (F(1, 4), F(3, 4)), (0, 1)]),
    (build_action(1, []), [(F(1, 2), 0), (0, 2)]),
    (cyclic(8, 1, 3), [(1, 0)]),
    (cyclic(8, 1, 3), [(1, 0), (0, -1), (0, 1)]),
    (cyclic(8, 1, 3), [(1, 0), (F(1, 8), F(3, 8)), (F(3, 8), F(1, 8)), (0, 1)]),
    (cyclic(2, 1, 0), [(F(1, 2), 0), (F(1, 2), 1), (0, 1)]),
]


def _perturbed(rays, N, positions=None):
    """The sequence itself, and with the ray at each position (default:
    every one) dropped, doubled, nudged off the (1/N)-grid or moved to a
    nearby lattice point."""
    out = [rays]
    for i in range(len(rays)) if positions is None else positions:
        out.append(rays[:i] + rays[i + 1:])
        out.append(rays[:i] + [tuple(2 * c for c in rays[i])] + rays[i + 1:])
        nudged = (rays[i][0] + F(1, 2 * N), rays[i][1])
        out.append(rays[:i] + [nudged] + rays[i + 1:])
        moved = (rays[i][0] + 1, rays[i][1])
        out.append(rays[:i] + [moved] + rays[i + 1:])
    return out


def test_make_resolution_matches_fraction_check():
    # the integer check accepts and rejects the same sequences, with the
    # same message: every admissible resolution of a spread of groups,
    # perturbed at every ray, the minimal and maximal resolutions of every
    # 1/n(1,q) with n <= 30 and of the groups with two generators, perturbed
    # at the first, a middle and the last ray, and the hand-made cases
    cases = [(A, [rays]) for A, rays in BAD_SEQUENCES]
    for group in COLD_GROUPS[::3] + TRIANGULATE_GROUPS:
        A = build_action(*group)
        N2 = build_N2(A)
        cases.append((A, [seq for Y in enumerate_admissible_resolutions(N2)[:12]
                          for seq in _perturbed(list(Y.rays), N2.N)]))
    for group in CYCLIC_30 + TWO_GENERATORS:
        A = build_action(*group)
        N2 = build_N2(A)
        cases.append((A, [seq for Y in (minimal_resolution(N2),
                                        maximal_resolution(N2))
                          for seq in _perturbed(list(Y.rays), N2.N,
                                                (0, len(Y.rays) // 2,
                                                 len(Y.rays) - 1))]))
    verdicts = set()
    for A, sequences in cases:
        N2, H = build_N2(A), hnf_N2(A)
        for rays in sequences:
            got = _check_or_message(make_resolution, N2, rays)
            assert got == _check_or_message(make_resolution_by_fractions, H,
                                            rays), rays
            verdicts.add(type(got))
    assert verdicts == {tuple, str}  # both accepted and rejected cases


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(0, 11), st.integers(0, 11),
       st.integers(0, 10 ** 6))
def test_make_resolution_matches_fraction_check_random(n, a, b, seed):
    # rays drawn from the maximal resolution, from other lattice points and
    # from the (1/2n)-grid, kept in angle order or not
    rng = random.Random(seed)
    A = cyclic(n, a, b)
    N2 = build_N2(A)
    rmax = list(maximal_resolution(N2).rays)
    pool = rmax[1:-1] * 3
    for _ in range(3):
        k, i, j = rng.randrange(n), rng.randint(0, 1), rng.randint(0, 1)
        pool.append((F(k * a % n, n) + i, F(k * b % n, n) + j))
        pool.append((F(rng.randint(0, 2 * n), 2 * n),
                     F(rng.randint(0, 2 * n), 2 * n)))
    inner = rng.sample(pool, rng.randint(0, min(len(pool), 6)))
    if rng.random() < 0.5:
        inner = [r for r in rmax[1:-1] if rng.random() < 0.7]
    elif rng.random() < 0.7:
        inner = sort_rays_by_angle([r for r in inner if any(r)])
    ends = [rmax[0], rmax[-1]]
    if rng.random() < 0.2:
        e = rng.randint(0, 1)
        ends[e] = tuple(rng.choice([2, F(1, 2)]) * c for c in ends[e])
    rays = [ends[0], *inner, ends[1]]
    assert (_check_or_message(make_resolution, N2, rays)
            == _check_or_message(make_resolution_by_fractions, hnf_N2(A), rays))


# ---------------------------------------------------------------------------
# properties

actions = st.builds(
    lambda n, a, b: cyclic(n, a, b),
    st.integers(1, 12), st.integers(0, 11), st.integers(0, 11),
)


@settings(max_examples=80, deadline=None)
@given(actions)
def test_minimal_rays_contained_in_maximal(A):
    N2 = build_N2(A)
    rmin, rmax = minimal_resolution(N2), maximal_resolution(N2)
    assert set(rmin.rays) <= set(rmax.rays)
    # every hull-boundary ray lies in Delta'
    assert all(r[0] + r[1] <= 1 for r in rmin.rays)


@settings(max_examples=80, deadline=None)
@given(actions)
def test_maximal_consecutive_unimodularity(A):
    N2 = build_N2(A)
    Y = maximal_resolution(N2)
    for u, v in zip(Y.rays, Y.rays[1:]):
        assert pair_determinant(N2, u, v) in (1, -1)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12))
def test_sl2_minimal_is_crepant(n):
    Y = minimal_resolution(build_N2(cyclic(n, 1, n - 1)))
    assert all(d == 0 for d in Y.discrepancies)
    assert len(Y.exceptional_rays) == n - 1
