import collections
import contextlib
import io

import pytest

from clab import quiver, thetaspace
from clab.cli import main
from clab.quiver import (
    ModuliFanError,
    _subset_sums,
    build_mckay_quiver,
    enumerate_fixed_stable,
    is_generic,
    make_theta,
    moduli_fan,
    moduli_fan_cones,
)
from clab.surface import (
    build_action,
    build_N2,
    enumerate_admissible_resolutions,
    make_resolution,
    minimal_resolution,
)
from clab.thetaspace import (
    derive_seed,
    realize_resolution,
    sample_generic,
    verify_main_theorem,
)
from fractions import Fraction as F

from .oracles import sample_by_randint, stable_by_masks, wall_sign_vector, walls


def cyclic(n, a, b):
    return build_action(n, [(a, b)])


def test_wall_counts():
    assert len(walls(cyclic(3, 1, 1))) == 3
    assert len(walls(build_action(1, []))) == 0
    assert len(walls(cyclic(2, 1, 1))) == 1
    assert len(walls(cyclic(8, 1, 3))) == 2 ** 7 - 1


def test_walls_exclude_trivial_character():
    for w in walls(cyclic(4, 1, 3)):
        assert 0 not in w.subset


def test_sample_generic_deterministic_and_certified():
    A = cyclic(8, 1, 3)
    t1 = sample_generic(A, seed=7)
    t2 = sample_generic(A, seed=7)
    assert t1 == t2
    assert is_generic(t1)
    assert sum(t1.values) == 0
    assert sample_generic(A, seed=8) != t1


def test_sampled_theta_values_are_int():
    # the sampler draws integers, and theta keeps them as they are
    for group in ((8, [(1, 3)]), (4, [(1, 1), (2, 0)]), (1, [])):
        A = build_action(*group)
        for seed in range(10):
            assert all(type(v) is int for v in sample_generic(A, seed).values)


def test_verify_leaves_stable_cache_unchanged():
    # the moduli fans of sampled thetas do not go through the cache of
    # enumerate_fixed_stable, so a long-lived process does not fill it
    before = enumerate_fixed_stable.cache_info()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--n", "7", "--gens", "1,3", "verify", "--samples", "20",
                     "--seed", "3", "--format", "json"])
    assert code == 0
    assert enumerate_fixed_stable.cache_info() == before


def test_sample_generic_trivial_group():
    assert sample_generic(build_action(1, []), seed=1).values == (0,)


@pytest.mark.parametrize("group", [(1, []), (4, [(1, 3)]),
                                   (2, [(1, 1), (1, 0)]), (7, [(1, 3)]),
                                   (9, [(3, 1)])])
def test_sampler_stream_matches_randint_reference(group):
    # the seeded stream is pinned on its own, not only by the golden hashes
    A = build_action(*group)
    for seed in range(1000):
        assert sample_generic(A, seed).values == sample_by_randint(A, seed)[0]


@pytest.mark.parametrize("order", range(1, 15))
def test_sampler_stream_matches_randint_reference_at_every_order(order):
    # the inline draw loop, at every order `moduli` and `verify` serve
    A = build_action(order, [(1, 1)])
    assert A.order == order
    for seed in range(200):
        assert sample_generic(A, seed).values == sample_by_randint(A, seed)[0]


def test_sampled_theta_hands_its_table_to_the_first_scan():
    # the theta carries its values only; the table that certified it waits
    # in quiver's one slot for the first scan at that very object
    Q = build_mckay_quiver(cyclic(8, 1, 3))
    theta = sample_generic(Q.action, seed=4)
    plain = make_theta(theta.values)
    assert vars(theta) == vars(plain) == {"values": theta.values}
    held, table = quiver._certified
    assert held is theta and table == _subset_sums(plain)
    cones = moduli_fan_cones(Q, theta)
    assert quiver._certified == (None, None)
    # a second fan at the theta builds its table anew
    assert moduli_fan_cones(Q, theta) == cones == moduli_fan_cones(Q, plain)


def test_unscanned_thetas_hold_no_table(monkeypatch):
    # thetas kept without a scan hold nothing, and the slot only the last
    A = cyclic(7, 1, 3)
    kept = [sample_generic(A, seed) for seed in range(20)]
    assert all(vars(t) == {"values": t.values} for t in kept)
    assert quiver._certified[0] is kept[-1]
    # an equal theta that is another object builds its own table
    tables = collections.Counter()
    build = quiver._subset_sums
    monkeypatch.setattr(quiver, "_subset_sums",
                        lambda theta: tables.update([theta]) or build(theta))
    copy = make_theta(kept[-1].values)
    moduli_fan_cones(build_mckay_quiver(A), copy)
    assert tables == {copy: 1} and quiver._certified == (None, None)


def test_stable_cache_and_outcomes_hold_no_table():
    Q = build_mckay_quiver(cyclic(7, 1, 3))
    theta = sample_generic(Q.action, seed=11)
    # the cache keeps the theta it was called with as its key
    assert enumerate_fixed_stable(Q, theta) == stable_by_masks(Q, theta)
    assert vars(theta) == {"values": theta.values}
    rep = verify_main_theorem(Q, samples=3, budget=500, seed=2)
    assert rep.all_realized and quiver._certified == (None, None)
    assert all(vars(o.theta) == {"values": o.theta.values}
               for o in rep.outcomes)


def test_realize_minimal_one_third():
    Q = build_mckay_quiver(cyclic(3, 1, 1))
    Y = minimal_resolution(Q.N2)
    out = realize_resolution(Q, Y, budget=50, seed=0)
    assert out.realized
    assert moduli_fan(Q, out.theta) == Y


def test_realize_checks_reproducibility(monkeypatch):
    # the re-run check is a raise, not an assert, so it holds under -O; the
    # first draw realizes the only admissible resolution, the re-run does not
    Q = build_mckay_quiver(cyclic(3, 1, 1))
    Y = minimal_resolution(Q.N2)
    monkeypatch.setattr(thetaspace, "moduli_fan", lambda Q, theta: None)
    with pytest.raises(ModuliFanError):
        realize_resolution(Q, Y, budget=5)


def test_realize_rejects_inadmissible():
    Q = build_mckay_quiver(cyclic(2, 1, 0))
    bad = make_resolution(Q.N2, [(F(1, 2), 0), (F(1, 2), 1), (0, 1)])
    with pytest.raises(ValueError):
        realize_resolution(Q, bad, budget=5)


def test_realize_rejects_another_groups_resolution():
    # a fan of Q's group can never equal a resolution in another lattice
    Q = build_mckay_quiver(cyclic(5, 1, 2))
    Y = minimal_resolution(build_N2(cyclic(7, 1, 3)))
    with pytest.raises(ValueError, match="lattice"):
        realize_resolution(Q, Y, budget=500)


def test_realize_trivial_group():
    Q = build_mckay_quiver(build_action(1, []))
    Y = minimal_resolution(Q.N2)
    out = realize_resolution(Q, Y, budget=1)
    assert out.realized and out.theta.values == (0,)


def test_verify_goes_through_the_traced_names(monkeypatch):
    # the benchmark's tracer wraps these module-level names, so the audit
    # must call each of them by that name, not through a private copy
    calls = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(thetaspace, "sample_generic")
    count(thetaspace, "moduli_fan_cones")  # the fan of each draw
    count(quiver, "moduli_fan_cones")  # the re-run, through moduli_fan
    count(thetaspace, "realize_resolution")
    count(quiver, "_subset_sums")
    A = cyclic(8, 1, 3)
    rep = verify_main_theorem(build_mckay_quiver(A), samples=5, budget=500, seed=1)
    assert rep.all_realized
    tried = sum(o.samples_tried for o in rep.outcomes)
    assert calls["realize_resolution"] == len(rep.outcomes) == len(
        enumerate_admissible_resolutions(build_N2(A))) == 2
    assert calls["sample_generic"] == 5 + tried
    # one fan per sample, and a re-run for each realizing theta
    assert calls["moduli_fan_cones"] == 5 + tried + len(rep.outcomes)
    # one subset-sum table per draw, and a new one for each re-run
    seeds = [derive_seed(1, k) for k in range(5)] + [
        derive_seed(derive_seed(1, 10**6 + j), k)
        for j, o in enumerate(rep.outcomes) for k in range(o.samples_tried)]
    draws = sum(sample_by_randint(A, seed)[1] for seed in seeds)
    assert draws >= 5 + tried
    assert calls["_subset_sums"] == draws + len(rep.outcomes)


def test_verify_validates_each_distinct_fan_once(monkeypatch):
    calls = collections.Counter()
    validate = thetaspace.resolution_from_grid

    def counted(lattice, grid):
        calls[tuple(grid)] += 1
        return validate(lattice, grid)

    monkeypatch.setattr(thetaspace, "resolution_from_grid", counted)
    Q = build_mckay_quiver(cyclic(7, 1, 3))
    rep = verify_main_theorem(Q, samples=40, budget=2000, seed=5)
    assert rep.passed
    # once in the only-if audit and once in each realization search, through
    # a dict of that loop's own
    loops = [rep.sampled_fans] + [o.distinct_fans for o in rep.outcomes]
    assert calls == collections.Counter(g for grids in loops for g in grids)
    assert len(rep.sampled_fans) < 40


def test_verify_raises_on_a_grid_that_fails_validation(monkeypatch):
    # the last ray doubled: the last two rays are no longer a lattice basis
    def bad_cones(Q, theta):
        cones = moduli_fan_cones(Q, theta)
        c, lo, hi = cones[-1]
        return cones[:-1] + ((c, lo, (hi[0], 2 * hi[1])),)

    monkeypatch.setattr(thetaspace, "moduli_fan_cones", bad_cones)
    Q = build_mckay_quiver(cyclic(5, 1, 2))
    with pytest.raises(ValueError, match="not a lattice basis"):
        verify_main_theorem(Q, samples=3, budget=50, seed=0)
    with pytest.raises(ValueError, match="not a lattice basis"):
        verify_main_theorem(Q, samples=0, budget=50, seed=0)


def test_verify_one_third():
    A = cyclic(3, 1, 1)
    rep = verify_main_theorem(build_mckay_quiver(A), samples=50, budget=100, seed=0)
    assert rep.passed
    assert len(rep.sampled_fans) == 1  # the unique admissible resolution
    assert not rep.containment_violations
    assert all(c == 2 for c in rep.fixed_point_counts)


def test_verify_reflection_case():
    A = cyclic(2, 1, 0)
    rep = verify_main_theorem(build_mckay_quiver(A), samples=50, budget=100, seed=0)
    assert rep.passed
    # all sampled fans have no exceptional rays
    for rays in rep.sampled_fans:
        assert len(rays) == 2


def test_verify_determinism():
    A = cyclic(3, 1, 1)
    r1 = verify_main_theorem(build_mckay_quiver(A), samples=10, budget=20, seed=3)
    r2 = verify_main_theorem(build_mckay_quiver(A), samples=10, budget=20, seed=3)
    assert r1.to_json() == r2.to_json()


def test_chamber_constancy_spot_check():
    # equal sign vectors on all walls imply equal fans
    A = cyclic(4, 1, 3)
    Q = build_mckay_quiver(A)
    seen = {}
    for seed in range(40):
        th = sample_generic(A, seed)
        sv = wall_sign_vector(A, th)
        fan = moduli_fan(Q, th)
        if sv in seen:
            assert seen[sv] == fan
        else:
            seen[sv] = fan
    assert any(True for _ in seen)


def test_report_soundness_recheckable():
    # every reported realizing theta reproduces its fan on an independent call
    Q = build_mckay_quiver(cyclic(8, 1, 3))
    rep = verify_main_theorem(Q, samples=5, budget=500, seed=1)
    assert rep.passed
    for out in rep.outcomes:
        assert moduli_fan(Q, out.theta) == out.resolution


def test_verify_nonsmall_mixed_case():
    # 1/4(1,2) has a reflection (2,0) and a singular quotient
    A = cyclic(4, 1, 2)
    rep = verify_main_theorem(build_mckay_quiver(A), samples=30, budget=2000, seed=0)
    assert rep.passed


def test_verify_klein_four():
    A = build_action(2, [(1, 1), (1, 0)])
    rep = verify_main_theorem(build_mckay_quiver(A), samples=30, budget=2000, seed=0)
    assert rep.passed


def test_report_json_schema():
    A = cyclic(2, 1, 1)
    rep = verify_main_theorem(build_mckay_quiver(A), samples=5, budget=20, seed=0)
    js = rep.to_json()
    assert js["schema"] == 1
    assert js["verdict"] == "pass"
    assert js["action"] == {"n": 2, "gens": [[1, 1]]}
    assert js["only_if"]["violations"] == 0
    assert all(r["realized"] for r in js["realizations"])
