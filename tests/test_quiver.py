import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clab.lattice import vec
from clab.quiver import (
    ARROW_STEP,
    NoLimitSupportError,
    NonGenericThetaError,
    build_mckay_quiver,
    enumerate_fixed_stable,
    fixed_candidates,
    genericity_witness,
    is_generic,
    make_theta,
    moduli_fan,
    moduli_fan_cones,
    ps_limit,
)
from clab.quiver import _limit_feasible
from clab.surface import build_action, build_N2, is_small, minimal_resolution

from .oracles import (
    character_table_mod_n,
    characters_by_annihilator,
    fm_cone_of_support,
    hnf_N2,
    lp_limit_feasible,
    principal_closures,
    scaled,
    stable_by_masks,
    theta_of_masks,
    upclosed_masks,
)
from .test_surface import COLD_GROUPS


def cyclic(n, a, b):
    return build_action(n, [(a, b)])


# ---------------------------------------------------------------------------
# quiver structure


def test_quiver_one_third():
    Q = build_mckay_quiver(cyclic(3, 1, 1))
    assert Q.order == 3
    # both arrow families advance the character index by one step
    for v in range(3):
        assert Q.arrow_head(v, "x") == Q.arrow_head(v, "y")


def test_character_table_matches_annihilator_cosets():
    # every 1/n(1,q) with n <= 12 and the groups with two generators; the
    # lookups take pairs outside [0, n)^2 on both sides
    for group in COLD_GROUPS + [(18, [(1, 5), (0, 9)])]:
        A = build_action(*group)
        Q = build_mckay_quiver(A)
        vertices, canon = characters_by_annihilator(A)
        assert Q.vertices == vertices, group
        assert Q.trivial_vertex == vertices.index(canon(0, 0)) == 0
        n = A.n
        for u in range(-n, 2 * n):
            for v in range(-n, 2 * n):
                assert Q.vertex_index(u, v) == vertices.index(canon(u, v)), \
                    (group, u, v)


def test_character_table_mod_exponent_matches_table_mod_n():
    # every presentation 1/n(a,b) with n <= 12 and some with two
    # generators, many with exponent e < n: the table over [0, e)^2 gives
    # the vertices and every lookup of the one over [0, n)^2
    groups = [(n, [(a, b)]) for n in range(1, 13)
              for a in range(n) for b in range(n)]
    groups += [(4, [(2, 0), (0, 2)]), (6, [(3, 0), (0, 2)]),
               (12, [(6, 0), (0, 4)]), (12, [(3, 9), (6, 0)]),
               (8, [(2, 6), (4, 0)]), (18, [(1, 5), (0, 9)])]
    short = 0
    for group in groups:
        A = build_action(*group)
        Q = build_mckay_quiver(A)
        vertices, table = character_table_mod_n(A)
        assert Q.vertices == vertices, group
        assert len(Q.table) == A.exponent ** 2, group
        assert all(Q.vertex_index(u, v) == i for (u, v), i in table.items()), \
            group
        short += A.exponent < A.n
    assert short > 100


def test_character_table_of_a_tiny_group_is_small():
    # 1/1000(500,500) has order and exponent 2: four pairs, not 10^6
    A = build_action(1000, [(500, 500)])
    Q = build_mckay_quiver(A)
    assert Q.order == 2 and len(Q.table) == 4
    assert Q.vertices == ((0, 0), (0, 1))
    assert Q.vertex_index(999, 1000) == 1 and Q.vertex_index(-3, 5) == 0


def test_quiver_one_eighth_shifts():
    Q = build_mckay_quiver(cyclic(8, 1, 3))
    assert Q.order == 8
    # character classes are determined by u + 3v mod 8: x shifts by 1, y by 3
    chain_x = [0]
    for _ in range(8):
        chain_x.append(Q.arrow_head(chain_x[-1], "x"))
    assert len(set(chain_x[:-1])) == 8 and chain_x[-1] == chain_x[0]
    v0 = Q.trivial_vertex
    y1 = Q.arrow_head(v0, "y")
    x3 = v0
    for _ in range(3):
        x3 = Q.arrow_head(x3, "x")
    assert y1 == x3


def test_quiver_trivial_group():
    Q = build_mckay_quiver(build_action(1, []))
    assert Q.order == 1
    assert Q.arrow_head(0, "x") == 0 and Q.arrow_head(0, "y") == 0
    # loops are excluded from supports: the only fixed constellation is empty
    cands = fixed_candidates(Q)
    assert len(cands) == 1 and cands[0].arrows == ()


def test_quiver_klein_four():
    Q = build_mckay_quiver(build_action(2, [(1, 1), (1, 0)]))
    assert Q.order == 4
    assert len(Q.arrows()) == 8


# ---------------------------------------------------------------------------
# genericity


def test_is_generic_examples():
    assert is_generic(make_theta([-2, 1, 1]))
    assert not is_generic(make_theta([0, 0, 0]))
    th = make_theta([-1, 1, 0])
    assert not is_generic(th)
    assert genericity_witness(th) == (2,)


def test_theta_zero_sum_enforced():
    with pytest.raises(ValueError):
        make_theta([1, 1, 1])
    with pytest.raises(ValueError):
        make_theta([F(1, 2), F(4, 2), -2])


def test_theta_values_canonical():
    # an integral entry is stored as its int, any other as a reduced Fraction
    a, b = make_theta([F(4, 2), -2]), make_theta([2, -2])
    assert a == b and hash(a) == hash(b)
    assert [type(v) for v in a.values] == [int, int]
    mixed = make_theta(["2/4", F(-3, 1), "5/2"])
    assert mixed.values == (F(1, 2), -3, F(5, 2))
    assert [type(v) for v in mixed.values] == [F, int, F]
    assert mixed == make_theta([F(1, 2), F(-3), F(5, 2)])
    assert mixed.to_json() == ["1/2", "-3", "5/2"]
    assert make_theta([F(-4, 2), 2]).to_json() == ["-2", "2"]


# ---------------------------------------------------------------------------
# brute-force oracle for fixed stable supports


def brute_force_fixed_stable(Q, theta):
    """Reference enumeration straight from the definitions, over all
    2^(2|G|) arrow subsets."""
    arrows = Q.arrows()
    m = Q.order
    found = []
    for r in range(len(arrows) + 1):
        for combo in itertools.combinations(arrows, r):
            aset = set(combo)
            # weight-consistency: Z^2 potential on arrows (also kills loops)
            pot = {}
            ok = True
            comps = []
            seen = set()
            adj = {v: [] for v in range(m)}
            for kind, tail in aset:
                head = Q.arrow_head(tail, kind)
                adj[tail].append((head, ARROW_STEP[kind]))
                adj[head].append((tail, tuple(-w for w in ARROW_STEP[kind])))
            for start in range(m):
                if start in seen:
                    continue
                comps.append(start)
                pot[start] = (0, 0)
                stack = [start]
                seen.add(start)
                while stack and ok:
                    v = stack.pop()
                    for w, step in adj[v]:
                        cand = (pot[v][0] + step[0], pot[v][1] + step[1])
                        if w not in seen:
                            pot[w] = cand
                            seen.add(w)
                            stack.append(w)
                        elif pot[w] != cand:
                            ok = False
                            break
            if not ok:
                continue
            # square-compatibility
            for v in range(m):
                hx = Q.arrow_head(v, "x")
                hy = Q.arrow_head(v, "y")
                left = ("x", v) in aset and ("y", hx) in aset
                right = ("y", v) in aset and ("x", hy) in aset
                if left != right:
                    ok = False
                    break
            if not ok:
                continue
            # acyclicity
            indeg = {v: 0 for v in range(m)}
            outs = {v: [] for v in range(m)}
            for kind, tail in aset:
                head = Q.arrow_head(tail, kind)
                outs[tail].append(head)
                indeg[head] += 1
            queue = [v for v in range(m) if indeg[v] == 0]
            count = 0
            while queue:
                v = queue.pop()
                count += 1
                for w in outs[v]:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        queue.append(w)
            if count != m:
                continue
            # stability over arrow-closed subsets
            stable = True
            for size in range(1, m):
                for sub in itertools.combinations(range(m), size):
                    s = set(sub)
                    if any(
                        tail in s and Q.arrow_head(tail, kind) not in s
                        for kind, tail in aset
                    ):
                        continue
                    if sum(theta.values[v] for v in sub) <= 0:
                        stable = False
                        break
                if not stable:
                    break
            if stable:
                found.append(tuple(sorted(aset)))
    return sorted(found)


def test_one_third_stable_supports_chains():
    Q = build_mckay_quiver(cyclic(3, 1, 1))
    theta = make_theta([-2, 1, 1])
    stables = enumerate_fixed_stable(Q, theta)
    assert len(stables) == 2
    arrow_sets = {c.arrows for c in stables}
    x_chain = tuple(sorted([("x", 0), ("x", 1)]))
    y_chain = tuple(sorted([("y", 0), ("y", 1)]))
    assert arrow_sets == {x_chain, y_chain}


def test_one_third_other_chamber():
    Q = build_mckay_quiver(cyclic(3, 1, 1))
    theta = make_theta([1, -2, 1])
    assert len(enumerate_fixed_stable(Q, theta)) == 2


@pytest.mark.parametrize(
    "action,theta",
    [
        (cyclic(3, 1, 1), [-2, 1, 1]),
        (cyclic(3, 1, 1), [1, -2, 1]),
        (cyclic(3, 1, 2), [-2, 1, 1]),
        (cyclic(2, 1, 0), [-1, 1]),
        (cyclic(2, 1, 1), [1, -1]),
        (cyclic(4, 1, 2), [-3, 1, 1, 1]),
        (cyclic(4, 1, 3), [1, -2, 2, -1]),
        (build_action(2, [(1, 1), (1, 0)]), [-3, 1, 1, 1]),
    ],
)
def test_enumeration_matches_brute_force(action, theta):
    Q = build_mckay_quiver(action)
    th = make_theta(theta)
    fast = sorted(c.arrows for c in enumerate_fixed_stable(Q, th))
    assert fast == brute_force_fixed_stable(Q, th)


# ---------------------------------------------------------------------------
# limits


# every candidate of these groups, orders 4 to 10
ORACLE_GROUPS = [
    (4, [(1, 3)]), (2, [(1, 1), (1, 0)]), (5, [(1, 2)]), (6, [(2, 1), (0, 3)]),
    (7, [(1, 3)]), (4, [(1, 1), (2, 0)]), (8, [(1, 3)]), (9, [(3, 1)]),
    (10, [(1, 3)]),
]


def _group_id(group):
    n, gens = group
    return f"{n}({';'.join(f'{a},{b}' for a, b in gens)})"


@pytest.mark.parametrize("group", ORACLE_GROUPS, ids=_group_id)
def test_cones_equal_fourier_motzkin(group):
    # the integer cone's pairs are N times the Fourier-Motzkin cone's rays
    A = build_action(*group)
    Q = build_mckay_quiver(A)
    H = hnf_N2(A)
    for c in fixed_candidates(Q):
        fm = fm_cone_of_support(c, H)
        assert c.cone == (None if fm is None else scaled(fm, A.order)), c.arrows


@pytest.mark.parametrize("group", ORACLE_GROUPS + [(8, [(1, 2)])], ids=_group_id)
def test_stability_masks_equal_closures(group):
    Q = build_mckay_quiver(build_action(*group))
    full = (1 << Q.order) - 1
    for c in fixed_candidates(Q):
        masks = c.stability_masks
        assert sorted(masks) == sorted(upclosed_masks(Q, c.arrows)), c.arrows
        # the principal up-closures, once tested first, add no condition
        principal = {p for p in principal_closures(Q, c.arrows) if p != full}
        assert principal <= set(masks), c.arrows


def _oracle_thetas(m, rng):
    """Fifty thetas on m characters: integers as the sampler draws them,
    rationals with denominators up to 6, and small integers, where some
    subsets (often stability masks) sum to exactly zero."""
    out = []
    for k in range(50):
        if k % 3 == 0:
            vals = [rng.randint(-20 * m, 20 * m) for _ in range(m - 1)]
        elif k % 3 == 1:
            vals = [F(rng.randint(-60 * m, 60 * m), rng.choice((1, 2, 3, 6)))
                    for _ in range(m - 1)]
        else:
            vals = [rng.randint(-2, 2) for _ in range(m - 1)]
        out.append(make_theta(vals + [-sum(vals)]))
    return out


@pytest.mark.parametrize("group", ORACLE_GROUPS + [(8, [(1, 2)])], ids=_group_id)
def test_stable_supports_match_mask_oracle(group):
    # the scan of the scaled table against theta summed directly over
    # each stability mask; a mask summing to 0 makes a support unstable
    A = build_action(*group)
    Q = build_mckay_quiver(A)
    rng = random.Random(f"stable {_group_id(group)}")
    generic = on_zero_mask = 0
    for theta in _oracle_thetas(A.order, rng):
        expected = stable_by_masks(Q, theta)
        assert enumerate_fixed_stable(Q, theta) == expected, theta
        table = theta_of_masks(theta)
        on_zero_mask += sum(
            min(table[mask] for mask in c.stability_masks) == 0
            for c in fixed_candidates(Q) if c.stability_masks)
        if is_generic(theta):
            generic += 1
            cones = moduli_fan_cones(Q, theta)
            assert ({c.arrows for c, _, _ in cones}
                    == {c.arrows for c in expected if c.cone is not None}), theta
        else:
            with pytest.raises(NonGenericThetaError):
                moduli_fan_cones(Q, theta)
    assert 0 < generic < 50
    assert on_zero_mask > 0


# u on a grid with denominators 1 to 4: at fractional u an off-support
# arrow can have 0 < e(a) < 1, where the test e(a) >= 1 says infeasible
LIMIT_GRID = [
    (F(1), F(1)), (F(2), F(1)), (F(1), F(3)), (F(1, 2), F(1, 2)),
    (F(3, 2), F(1, 2)), (F(1, 2), F(5, 2)), (F(1, 3), F(2, 3)),
    (F(4, 3), F(1, 3)), (F(2, 3), F(5, 3)), (F(1, 4), F(3, 4)),
    (F(5, 4), F(7, 4)), (F(7, 2), F(1, 3)),
]


def test_limit_feasible_matches_simplex():
    outcomes = set()
    fractional_cut = 0
    for group in ORACLE_GROUPS[:4]:
        Q = build_mckay_quiver(build_action(*group))
        for c in fixed_candidates(Q):
            for u in LIMIT_GRID:
                fast = _limit_feasible(c, u)
                assert fast == lp_limit_feasible(c, u), (c.arrows, u)
                outcomes.add(fast)
                positive = all(u[0] * d[0] + u[1] * d[1] > 0
                               for d in c.normals())
                fractional_cut += positive and not fast
    assert outcomes == {True, False}
    assert fractional_cut > 0  # the grid tells e(a) >= 1 from e(a) > 0


def test_ps_limit_one_third():
    A = cyclic(3, 1, 1)
    Q = build_mckay_quiver(A)
    theta = make_theta([-2, 1, 1])
    y_chain = tuple(sorted([("y", 0), ("y", 1)]))
    x_chain = tuple(sorted([("x", 0), ("x", 1)]))
    assert ps_limit(Q, theta, (F(4, 3), F(1, 3))).arrows == y_chain
    assert ps_limit(Q, theta, (F(1, 3), F(4, 3))).arrows == x_chain


def test_ps_limit_trivial_group():
    A = build_action(1, [])
    Q = build_mckay_quiver(A)
    lim = ps_limit(Q, make_theta([0]), (1, 1))
    assert lim.arrows == ()


def test_ps_limit_on_fan_ray_fails():
    A = cyclic(3, 1, 1)
    Q = build_mckay_quiver(A)
    theta = make_theta([-2, 1, 1])
    with pytest.raises(NoLimitSupportError):
        ps_limit(Q, theta, (1, 1))  # on the ray through (1/3, 1/3)


def test_ps_limit_validates_inputs():
    A = cyclic(3, 1, 1)
    Q = build_mckay_quiver(A)
    with pytest.raises(NonGenericThetaError):
        ps_limit(Q, make_theta([0, 0, 0]), (2, 1))
    with pytest.raises(ValueError):
        ps_limit(Q, make_theta([-2, 1, 1]), (-1, 1))


# ---------------------------------------------------------------------------
# moduli fan


def test_moduli_fan_one_third_minimal():
    A = cyclic(3, 1, 1)
    fan = moduli_fan(build_mckay_quiver(A), make_theta([-2, 1, 1]))
    assert fan.rays == (vec(1, 0), vec(F(1, 3), F(1, 3)), vec(0, 1))
    assert fan == minimal_resolution(build_N2(A))


def test_moduli_fan_trivial():
    A = build_action(1, [])
    fan = moduli_fan(build_mckay_quiver(A), make_theta([0]))
    assert fan.exceptional_rays == ()


def test_moduli_fan_rejects_walls():
    A = cyclic(3, 1, 1)
    with pytest.raises(NonGenericThetaError):
        moduli_fan(build_mckay_quiver(A), make_theta([0, 0, 0]))


def test_moduli_fan_one_eighth_rays_admissible():
    A = cyclic(8, 1, 3)
    Q = build_mckay_quiver(A)
    N2 = build_N2(A)
    allowed = {vec(F(3, 8), F(1, 8)), vec(F(1, 2), F(1, 2)), vec(F(1, 8), F(3, 8))}
    theta = make_theta([-7, 1, 1, 1, 1, 1, 1, 1])
    fan = moduli_fan(Q, theta)
    assert set(fan.exceptional_rays) <= allowed
    # G-Hilb chamber: theta negative exactly on the trivial character gives
    # the minimal resolution
    assert fan == minimal_resolution(N2)


def _subgroups(max_order):
    """Every nontrivial finite diagonal subgroup of GL(2,C) of order up to
    max_order, once each, written over n = its exponent.  Such a group is
    Z/d x Z/n with d | n, so it has two generators mod n, and one if it is
    cyclic; a non-cyclic one has order at least 2n."""
    seen = set()
    out = []
    for n in range(2, max_order + 1):
        pairs = [(a, b) for a in range(n) for b in range(n)]
        gen_sets = [(g,) for g in pairs]
        if 2 * n <= max_order:
            gen_sets += itertools.combinations(pairs, 2)
        for gens in gen_sets:
            A = build_action(n, gens)
            if (1 < A.order <= max_order and A.exponent == n
                    and A not in seen):
                seen.add(A)
                out.append(A)
    return out


def test_g_hilb_chamber_gives_minimal_resolution():
    # theta0 = -(m-1) on the trivial character and 1 on every other one is
    # generic: a nonempty proper subset sums to its size if it misses the
    # trivial character, and to -(m-1) plus fewer than m-1 ones if not.  Its
    # moduli fan is G-Hilb, the minimal resolution, for small G (Ishii 2002;
    # Kidoh 2001 for cyclic G), and it is for the groups with reflections of
    # order <= 8 too.  This checks the moduli path against the minimal path
    # without sampling.
    groups = _subgroups(8)
    assert len(groups) == 55
    assert sum(not is_small(A) for A in groups) == 34
    for A in groups:
        Q = build_mckay_quiver(A)
        m = Q.order
        theta = make_theta([-(m - 1) if v == Q.trivial_vertex else 1
                            for v in range(m)])
        assert is_generic(theta), A
        N2 = build_N2(A)
        assert moduli_fan(Q, theta) == minimal_resolution(N2), A


def test_fixed_point_count_equals_maximal_cones():
    A = cyclic(3, 1, 1)
    Q = build_mckay_quiver(A)
    theta = make_theta([-2, 1, 1])
    cones = moduli_fan_cones(Q, theta)
    fan = moduli_fan(Q, theta)
    assert len(cones) == len(fan.rays) - 1 == 2


def test_ps_limit_agrees_with_cones():
    A = cyclic(3, 1, 1)
    Q = build_mckay_quiver(A)
    theta = make_theta([-2, 1, 1])
    cones = moduli_fan_cones(Q, theta)
    for c, lo, hi in cones:
        mid = tuple(a + b for a, b in zip(lo, hi))
        assert ps_limit(Q, theta, mid).arrows == c.arrows


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(0, 7), st.integers(0, 7), st.integers(0, 100))
def test_fan_invariants_random(n, a, b, tseed):
    import random

    A = cyclic(n, a, b)
    Q = build_mckay_quiver(A)
    N2 = build_N2(A)
    rng = random.Random(tseed)
    for _ in range(50):
        vals = [rng.randint(-20, 20) for _ in range(A.order - 1)]
        vals.append(-sum(vals))
        theta = make_theta(vals)
        if is_generic(theta):
            break
    else:
        return
    fan = moduli_fan(Q, theta)
    # every ray lies in Delta' (the executable only-if direction)
    assert all(r[0] + r[1] <= 1 for r in fan.rays)
    # the fan dominates the minimal resolution
    assert set(minimal_resolution(N2).rays) <= set(fan.rays)
