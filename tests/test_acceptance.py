"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact."""

import json
import random
import time
from fractions import Fraction as F
from math import gcd

from clab.cli import main as cli_main
from clab.junior import (
    E3,
    PLSupportFunction,
    amp_restriction_surjective,
    build_containing_triangulation,
    build_junior,
    is_basic,
    regularity_certificate,
)
from clab.lattice import cross2, lattice_from_generators, vec
from clab.quiver import (
    build_mckay_quiver,
    moduli_fan,
    moduli_fan_cones,
    ps_limit,
)
from clab.surface import (
    boundary_divisor,
    build_action,
    build_N2,
    enumerate_admissible_resolutions,
    maximal_resolution,
    minimal_resolution,
)
from clab.thetaspace import sample_generic, verify_main_theorem

from .oracles import lift_to_junior, pair_determinant, primitive_in_lattice, scaled


def cyclic(n, a, b):
    return build_action(n, [(a, b)])


def test_criterion_1_one_eighth_end_to_end(capsys):
    t0 = time.monotonic()
    A = cyclic(8, 1, 3)
    N2 = build_N2(A)
    Y = maximal_resolution(N2)
    assert set(Y.exceptional_rays) == {
        vec(F(3, 8), F(1, 8)), vec(F(1, 2), F(1, 2)), vec(F(1, 8), F(3, 8))
    }
    assert set(Y.discrepancies) == {F(-1, 2), F(0)}
    assert Y.discrepancies == (F(-1, 2), F(0), F(-1, 2))
    assert len(enumerate_admissible_resolutions(N2)) == 2

    code = cli_main(["--n", "8", "--gens", "1,3", "verify",
                     "--samples", "200", "--budget", "10000",
                     "--format", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["only_if"]["violations"] == 0
    assert payload["all_realized"] is True
    assert len(payload["realizations"]) == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    with capsys.disabled():
        print(f"\nACCEPTANCE 1: PASS - 1/8(1,3) end-to-end "
              f"(2/2 realized, 0 violations, {elapsed:.1f}s)")


def test_criterion_2_a_series(capsys):
    t0 = time.monotonic()
    for r in range(2, 6):
        A = cyclic(r, 1, r - 1)
        N2 = build_N2(A)
        rmin = minimal_resolution(N2)
        rmax = maximal_resolution(N2)
        assert rmin == rmax
        assert len(rmin.exceptional_rays) == r - 1
        assert all(d == 0 for d in rmin.discrepancies)
        rep = verify_main_theorem(build_mckay_quiver(A), samples=50, budget=1000, seed=0)
        assert rep.passed
        assert rep.sampled_fans == (rmin.grid,)
        assert all(c == r for c in rep.fixed_point_counts)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    with capsys.disabled():
        print(f"ACCEPTANCE 2: PASS - A-series 1/r(1,r-1), r=2..5 "
              f"({elapsed:.1f}s)")


def test_criterion_3_reflection_case(capsys):
    t0 = time.monotonic()
    A = cyclic(2, 1, 0)
    B = boundary_divisor(build_N2(A))
    assert (B.m1, B.m2) == (2, 1)
    assert B.coefficients == (F(1, 2), F(0))
    N2 = build_N2(A)
    rmin = minimal_resolution(N2)
    rmax = maximal_resolution(N2)
    assert rmin.exceptional_rays == ()  # the quotient is smooth
    assert rmax == rmin  # Y_max is the identity resolution
    rep = verify_main_theorem(build_mckay_quiver(A), samples=50, budget=1000, seed=0)
    assert rep.passed
    for rays in rep.sampled_fans:
        assert len(rays) == 2  # empty exceptional set
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    with capsys.disabled():
        print(f"ACCEPTANCE 3: PASS - reflection case 1/2(1,0) ({elapsed:.1f}s)")


def test_criterion_4_oracle_equivalence(capsys):
    t0 = time.monotonic()
    directions = [(i, j) for i in range(1, 31) for j in range(1, 31)
                  if gcd(i, j) == 1]
    assert len(directions) >= 500
    total_calls = 0
    for n, a, b in [(3, 1, 1), (8, 1, 3)]:
        A = cyclic(n, a, b)
        Q = build_mckay_quiver(A)
        for seed in (1, 2, 3):
            theta = sample_generic(A, seed)
            cones = moduli_fan_cones(Q, theta)
            fan = moduli_fan(Q, theta)
            assert fan.grid == (cones[0][1],) + tuple(hi for _, _, hi in cones)
            sampled_supports = []
            for u in sorted(directions,
                            key=lambda d: (F(d[1], d[0]))):  # by angle
                if any(cross2(u, r) == 0 for r in fan.rays):
                    continue
                # exactly one feasible stable support, or ps_limit raises
                lim = ps_limit(Q, theta, u)
                total_calls += 1
                owner = next(c for c, lo, hi in cones
                             if cross2(lo, u) > 0 and cross2(u, hi) > 0)
                assert lim.arrows == owner.arrows
                if not sampled_supports or sampled_supports[-1] != lim.arrows:
                    sampled_supports.append(lim.arrows)
            # the angle sweep recovers the cones in order: same fan
            assert sampled_supports == [c.arrows for c, _, _ in cones]
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        print(f"ACCEPTANCE 4: PASS - cone projection = dense ps_limit "
              f"sampling ({total_calls} limit calls, {elapsed:.1f}s)")


def test_criterion_5_triangulation_suite(capsys):
    t0 = time.monotonic()
    for n, a, b in [(8, 1, 3), (3, 1, 1)]:
        A = cyclic(n, a, b)
        N2 = build_N2(A)
        J = build_junior(A)
        for Y in enumerate_admissible_resolutions(N2):
            T = build_containing_triangulation(J, Y)
            assert is_basic(T)
            assert isinstance(regularity_certificate(T), PLSupportFunction)
            lifts = {lift_to_junior(J, v) for v in Y.rays}
            assert set(T.neighbors_of(E3)) == lifts
            assert len(T.triangles) == A.order
            assert amp_restriction_surjective(T)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    with capsys.disabled():
        print(f"ACCEPTANCE 5: PASS - triangulation suite ({elapsed:.1f}s)")


def test_criterion_6_invariant_suites(capsys):
    t0 = time.monotonic()
    rng = random.Random(20240809)
    cases = 0

    # canonical form under generator rewrites: 300 cases
    for _ in range(300):
        n = rng.randint(1, 12)
        gens = [(F(rng.randint(0, n - 1) if n > 1 else 0, n),
                 F(rng.randint(0, n - 1) if n > 1 else 0, n))
                for _ in range(rng.randint(1, 3))]
        L = lattice_from_generators(2, gens)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        extra = tuple(2 * x + 3 * y for x, y in zip(gens[0], gens[-1]))
        assert lattice_from_generators(2, shuffled + [extra]) == L
        cases += 1

    # primitive-scaling idempotence: 250 cases
    for _ in range(250):
        n = rng.randint(1, 12)
        a, b = rng.randint(0, n - 1) if n > 1 else 0, rng.randint(0, n - 1) if n > 1 else 0
        L = build_N2(cyclic(n, a, b))
        v = (F(rng.randint(1, 8), rng.randint(1, 4)),
             F(rng.randint(0, 8), rng.randint(1, 4)))
        k = F(rng.randint(1, 9), rng.randint(1, 9))
        assert primitive_in_lattice(L, tuple(k * c for c in v)) == \
            primitive_in_lattice(L, v)
        cases += 1

    # maximal-fan consecutive unimodularity: 150 cases
    for _ in range(150):
        n = rng.randint(1, 12)
        A = cyclic(n, rng.randint(0, n - 1) if n > 1 else 0,
                   rng.randint(0, n - 1) if n > 1 else 0)
        N2 = build_N2(A)
        Y = maximal_resolution(N2)
        for u, v in zip(Y.rays, Y.rays[1:]):
            assert pair_determinant(N2, u, v) in (1, -1)
        cases += 1

    # minimal within maximal: 150 cases
    for _ in range(150):
        n = rng.randint(1, 12)
        A = cyclic(n, rng.randint(0, n - 1) if n > 1 else 0,
                   rng.randint(0, n - 1) if n > 1 else 0)
        N2 = build_N2(A)
        assert set(minimal_resolution(N2).rays) <= set(maximal_resolution(N2).rays)
        cases += 1

    # fan tiling / angle-sum: 100 cases
    for _ in range(100):
        n = rng.randint(1, 12)
        A = cyclic(n, rng.randint(0, n - 1) if n > 1 else 0,
                   rng.randint(0, n - 1) if n > 1 else 0)
        Q = build_mckay_quiver(A)
        N2 = build_N2(A)
        theta = sample_generic(A, rng.randint(0, 10 ** 6))
        cones = moduli_fan_cones(Q, theta)
        e1p, e2p = scaled([primitive_in_lattice(N2, (1, 0)),
                           primitive_in_lattice(N2, (0, 1))], N2.N)
        assert cones[0][1] == e1p
        assert cones[-1][2] == e2p
        for (_, _, hi), (_, lo, _) in zip(cones, cones[1:]):
            assert hi == lo
        fan = moduli_fan(Q, theta)
        assert all(r[0] + r[1] <= 1 for r in fan.rays)
        cases += 1

    # determinism of seeded sampling: 50 cases
    for _ in range(50):
        n = rng.randint(1, 12)
        A = cyclic(n, rng.randint(0, n - 1) if n > 1 else 0,
                   rng.randint(0, n - 1) if n > 1 else 0)
        seed = rng.randint(0, 10 ** 9)
        assert sample_generic(A, seed) == sample_generic(A, seed)
        cases += 1

    assert cases >= 1000
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        print(f"ACCEPTANCE 6: PASS - invariant suites ({cases} randomized "
              f"cases, {elapsed:.1f}s)")
