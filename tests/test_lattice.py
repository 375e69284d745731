from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clab.lattice import (
    lattice_from_generators,
    primitive_point,
    triangle_grid,
    vec,
)

from .oracles import (
    hnf_lattice,
    is_member,
    lattice_points_on_segment,
    pair_determinant,
    points_in_triangle_by_fractions,
    primitive_in_lattice,
)


def N2_of(n, a, b):
    return lattice_from_generators(2, [(F(a, n), F(b, n))])


def triangle_points(L):
    """The points the pairs of `triangle_grid` stand for: (X, Y) / N in
    Delta', (X, Y, N - X - Y) / N on the junior triangle."""
    N = L.N
    return tuple(tuple(F(c, N) for c in (X, Y, N - X - Y)[:L.dim])
                 for X, Y in triangle_grid(L))


def test_hnf_basis_one_third():
    L = N2_of(3, 1, 1)
    H = hnf_lattice(2, [(F(1, 3), F(1, 3))])
    assert H.basis == ((F(1), F(0)), (F(1, 3), F(1, 3)))
    assert lattice_from_generators(2, H.basis) == L
    assert L.N == 3
    assert L.residues == {(0, 0), (1, 1), (2, 2)}


def test_empty_generators_give_integer_lattice():
    L = lattice_from_generators(2, [])
    H = hnf_lattice(2, [])
    assert H.basis == ((F(1), F(0)), (F(0), F(1)))
    assert lattice_from_generators(2, H.basis) == L
    assert L.N == 1
    assert L.residues == {(0, 0)}


def test_index_one_eighth():
    L = N2_of(8, 1, 3)
    assert L.N == 8


def test_membership_congruence():
    L = N2_of(3, 1, 1)
    # N2 of 1/3(1,1) is {(p/3, q/3) : p = q mod 3}
    assert not is_member(L, (F(2, 3), F(1, 3)))
    assert is_member(L, (F(1, 3), F(1, 3)))
    assert is_member(L, (1, 0))
    L8 = N2_of(8, 1, 3)
    assert is_member(L8, (F(1, 2), F(1, 2)))


def test_membership_dimension_mismatch():
    L = N2_of(3, 1, 1)
    with pytest.raises(ValueError):
        is_member(L, (1, 0, 0))


def test_primitive_examples():
    # N-scaled: (1/2, 0) in N2 of 1/2(1,0), (1, 1) in Z^2, (1/8, 3/8) in
    # N2 of 1/8(1,3)
    L = N2_of(2, 1, 0)
    assert primitive_point(L, (1, 0)) == (1, 0)
    Z2 = lattice_from_generators(2, [])
    assert primitive_point(Z2, (2, 2)) == (1, 1)
    L8 = N2_of(8, 1, 3)
    assert primitive_point(L8, (2, 6)) == (1, 3)
    assert primitive_point(L8, (-2, 0)) == (-8, 0)


def test_primitive_zero_vector_rejected():
    with pytest.raises(ValueError):
        primitive_point(lattice_from_generators(2, []), (0, 0))
    with pytest.raises(ValueError):
        primitive_point(lattice_from_generators(2, []), (1, 0, 0))


def test_pair_determinant_examples():
    L8 = N2_of(8, 1, 3)
    assert pair_determinant(L8, (F(3, 8), F(1, 8)), (F(1, 2), F(1, 2))) == 1
    Z2 = lattice_from_generators(2, [])
    assert pair_determinant(Z2, (1, 0), (0, 1)) == 1
    assert pair_determinant(Z2, (3, 1), (0, 1)) == 3


def test_triangle_points_one_eighth():
    L8 = N2_of(8, 1, 3)
    pts = triangle_points(L8)
    expected = {
        vec(0, 0), vec(1, 0), vec(0, 1),
        vec(F(1, 8), F(3, 8)), vec(F(3, 8), F(1, 8)), vec(F(1, 2), F(1, 2)),
        vec(F(1, 4), F(3, 4)), vec(F(3, 4), F(1, 4)),
    }
    assert set(pts) == expected
    assert list(pts) == sorted(pts)  # deterministic lexicographic order


def test_triangle_points_unit_triangle_trivial():
    Z2 = lattice_from_generators(2, [])
    assert triangle_grid(Z2) == ((0, 0), (0, 1), (1, 0))
    assert triangle_points(Z2) == (vec(0, 0), vec(0, 1), vec(1, 0))


def test_junior_plane_points_one_eighth():
    n = 8
    L = lattice_from_generators(3, [(F(1, n), F(3, n), F(-4, n))])
    pts = triangle_points(L)
    expected = {
        vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1),
        vec(F(1, 8), F(3, 8), F(1, 2)), vec(F(3, 8), F(1, 8), F(1, 2)),
        vec(F(1, 4), F(3, 4), 0), vec(F(3, 4), F(1, 4), 0),
        vec(F(1, 2), F(1, 2), 0),
    }
    assert set(pts) == expected


def test_segment_points():
    L = hnf_lattice(2, [(F(1, 2), F(1, 2))])
    pts = lattice_points_on_segment(L, (1, 0), (0, 1))
    assert pts == (vec(1, 0), vec(F(1, 2), F(1, 2)), vec(0, 1))


# ---------------------------------------------------------------------------
# properties

weights = st.tuples(st.integers(1, 12), st.integers(0, 11), st.integers(0, 11))


@settings(max_examples=60, deadline=None)
@given(weights, st.randoms(use_true_random=False))
def test_hnf_canonical_under_generator_rewrites(w, rng):
    n, a, b = w
    gens = [(F(a, n), F(b, n)), (F(2 * a % n, n), F(2 * b % n, n)), (1, 0)]
    L = lattice_from_generators(2, gens)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    # add an integer combination of the generators: lattice unchanged
    extra = tuple(3 * x + 1 * y for x, y in zip(gens[0], gens[1]))
    assert lattice_from_generators(2, shuffled + [extra]) == L


@settings(max_examples=60, deadline=None)
@given(weights, st.integers(1, 7), st.integers(1, 7))
def test_primitive_scaling_invariance(w, kn, kd):
    n, a, b = w
    if a == 0 and b == 0:
        a = 1
    L = N2_of(n, a, b)
    V = (a or 1, b)
    assert primitive_point(L, tuple(kn * c for c in V)) == \
        primitive_point(L, tuple(kd * c for c in V))


@settings(max_examples=60, deadline=None)
@given(weights)
def test_pair_determinant_antisymmetric_and_integral(w):
    n, a, b = w
    L = N2_of(n, a or 1, b)
    u = primitive_in_lattice(L, (1, 0))
    v = primitive_in_lattice(L, (F(a or 1, n) + 1, F(b, n) + 1))
    d1 = pair_determinant(L, u, v)
    d2 = pair_determinant(L, v, u)
    assert d1 == -d2
    assert d1.denominator == 1  # integral for lattice members


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10))
def test_triangle_symmetry_under_axis_swap(n):
    # symmetric action 1/n(1,1): triangle scan closed under swapping axes
    L = N2_of(n, 1, 1)
    pts = triangle_grid(L)
    assert {(p[1], p[0]) for p in pts} == set(pts)


@settings(max_examples=60, deadline=None)
@given(weights, st.tuples(st.sampled_from((2, 3)), st.integers(0, 2),
                          st.integers(0, 2)))
def test_triangle_points_match_fraction_scan(w, w2):
    # the residue scan against the Fraction barycentric scan of the same
    # triangle: Delta' in N2 and the junior triangle in N3, for groups with
    # one generator and with two (the second of order 2 or 3, which keeps
    # the Fraction scan of the (1/N)-grid small)
    n, a, b = w
    m, c, d = w2
    for weighted in ([(a, b, n)], [(a, b, n), (c, d, m)]):
        g2 = [(F(p, k), F(q, k)) for p, q, k in weighted]
        g3 = [(F(p, k), F(q, k), F(-p - q, k)) for p, q, k in weighted]
        for gens, tri in ((g2, ((0, 0), (1, 0), (0, 1))),
                          (g3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))):
            L = lattice_from_generators(len(tri[0]), gens)
            H = hnf_lattice(len(tri[0]), gens)
            assert triangle_points(L) == points_in_triangle_by_fractions(H, *tri)


@st.composite
def generator_sets(draw):
    """A dimension and 0-4 generators with mixed denominators, some of them
    redundant: a multiple or a sum of earlier ones, or an integer vector."""
    dim = draw(st.sampled_from((2, 3)))
    rat = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6)))
    gens = []
    for kind in draw(st.lists(st.sampled_from("nnmsz"), max_size=4)):
        if kind == "n" or not gens:
            g = draw(st.tuples(*[rat] * dim))
        elif kind == "m":
            k = draw(st.integers(-3, 3))
            g = tuple(k * x for x in draw(st.sampled_from(gens)))
        elif kind == "s":
            g = tuple(x + y for x, y in zip(gens[0], gens[-1]))
        else:
            g = tuple(draw(st.integers(-2, 2)) for _ in range(dim))
        gens.append(g)
    return dim, gens


def _integer_combination(gens, dim, rng):
    v = tuple(rng.randint(-2, 2) for _ in range(dim))
    for g in gens:
        k = rng.randint(-2, 2)
        v = tuple(c + k * x for c, x in zip(v, g))
    return v


@settings(max_examples=200, deadline=None)
@given(generator_sets(), st.randoms(use_true_random=False))
def test_lattice_matches_hnf_oracle(case, rng):
    # the residue description against the HNF basis built from the same
    # generators: equality under rewrites, index, membership, primitive points
    dim, gens = case
    L = lattice_from_generators(dim, gens)
    H = hnf_lattice(dim, gens)
    assert F(1, L.N) == H.index
    assert L == lattice_from_generators(dim, H.basis)
    rewritten = list(gens)
    rng.shuffle(rewritten)
    combo = _integer_combination(gens, dim, rng)
    assert lattice_from_generators(dim, rewritten + [combo]) == L
    if gens:
        fewer = rewritten[1:]
        assert ((lattice_from_generators(dim, fewer) == L)
                == (hnf_lattice(dim, fewer) == H))
    N = L.N
    for _ in range(12):
        if gens and rng.random() < 0.5:  # a lattice point, scaled off it
            t = F(rng.randint(1, 6), rng.randint(1, 6))
            v = tuple(t * c for c in _integer_combination(gens, dim, rng))
        else:
            v = tuple(F(rng.randint(-2 * N, 2 * N), rng.randint(1, 2 * N))
                      for _ in range(dim))
        assert is_member(L, v) == H.is_member(v), v
        if any(v):
            den = lcm(*(F(c).denominator for c in v))
            V = tuple(int(F(c) * den) for c in v)
            assert primitive_point(L, V) == \
                tuple(N * c for c in H.primitive(v)), v
            assert primitive_in_lattice(L, v) == H.primitive(v), v
