"""The stability parameter space: seeded generic sampling, and the
realization search that checks which resolutions arise as moduli of stable
constellations.  Fans are kept and compared as their N-scaled ray pairs,
`Resolution.grid`."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .quiver import (
    McKayQuiver,
    ModuliFanError,
    Theta,
    is_generic,
    make_theta,
    moduli_fan,
    moduli_fan_cones,
)
from .surface import (
    AbelianAction,
    Resolution,
    enumerate_admissible_resolutions,
    is_dominated_by_max,
    maximal_resolution,
    resolution_from_grid,
)


class RetryBudgetError(RuntimeError):
    """Generic sampling failed repeatedly (pathological)."""


def derive_seed(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


_SAMPLE_ATTEMPTS = 1000


def sample_generic(A: AbelianAction, seed: int) -> Theta:
    """Deterministic integer-valued zero-sum theta passing the genericity
    certificate; draws are retried with the same stream until certified."""
    m = A.order
    if m == 1:
        return make_theta([0])
    getrandbits = random.Random(seed).getrandbits
    bound = 20 * m
    width = 2 * bound + 1
    k = width.bit_length()
    for _ in range(_SAMPLE_ATTEMPTS):
        # the draws of randint(-bound, bound): k random bits, redrawn until
        # they fall below width, as `Random.randrange` draws them
        vals = []
        for _ in range(m - 1):
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            vals.append(r - bound)
        vals.append(-sum(vals))
        theta = make_theta(vals)
        if is_generic(theta):
            return theta
    raise RetryBudgetError(f"no generic theta found in {_SAMPLE_ATTEMPTS} draws")


@dataclass(frozen=True)
class RealizeOutcome:
    """Result of a realization search; exhaustion is a value, not a failure
    of the theorem (it only means the budget was too small)."""

    resolution: Resolution
    theta: Theta | None
    samples_tried: int
    distinct_fans: tuple  # the grids of the fans seen, sorted

    @property
    def realized(self) -> bool:
        return self.theta is not None

    def to_json(self):
        return {
            "resolution": self.resolution.to_json(),
            "theta": self.theta.to_json() if self.theta else None,
            # a realizing theta came from `sample_generic`, which certified it
            "generic": self.realized,
            "realized": self.realized,
            "samples_tried": self.samples_tried,
            "distinct_fans_seen": len(self.distinct_fans),
        }


def _checked_fan(Q, theta, fans):
    """moduli_fan(Q, theta), validating only the grids not yet in `fans`."""
    cones = moduli_fan_cones(Q, theta)
    grid = (cones[0][1], *(c[2] for c in cones))
    if grid not in fans:
        fans[grid] = resolution_from_grid(Q.N2, grid)
    return fans[grid]


def realize_resolution(Q: McKayQuiver, Y: Resolution, budget: int,
                       seed: int = 0) -> RealizeOutcome:
    """Search for a certified-generic theta with moduli_fan(Q, theta) = Y by
    seeded sampling; Y must be an admissible resolution in `Q.N2`."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if Y.lattice != Q.N2:
        raise ValueError("the resolution is not in the lattice N2 of the "
                         "quiver's group")
    if not is_dominated_by_max(Y):
        raise ValueError("resolution is not admissible (not dominated by the "
                         "maximal resolution)")
    fans = {}
    for k in range(budget):
        theta = sample_generic(Q.action, derive_seed(seed, k))
        fan = _checked_fan(Q, theta, fans)
        if fan == Y:
            # from a new subset-sum table and a new validation of the grid
            if moduli_fan(Q, theta) != Y:
                raise ModuliFanError("the moduli fan of a realizing theta "
                                     "changed on a re-run")
            return RealizeOutcome(Y, theta, k + 1, tuple(sorted(fans)))
    return RealizeOutcome(Y, None, budget, tuple(sorted(fans)))


@dataclass(frozen=True)
class RealizationReport:
    """Desk-scale audit of the main equivalence: sampled fans stay under the
    maximal resolution, and every admissible resolution is realized."""

    action: AbelianAction
    seed: int
    samples: int
    budget: int
    containment_violations: tuple
    sampled_fans: tuple  # the distinct grids seen in the only-if audit
    outcomes: tuple  # one RealizeOutcome per admissible resolution
    fixed_point_counts: tuple = field(default=())

    @property
    def all_realized(self) -> bool:
        return all(o.realized for o in self.outcomes)

    @property
    def passed(self) -> bool:
        return self.all_realized and not self.containment_violations

    def to_json(self):
        return {
            "schema": 1,
            "action": self.action.to_json(),
            "seed": self.seed,
            "samples": self.samples,
            "budget": self.budget,
            "only_if": {
                "samples": self.samples,
                "violations": len(self.containment_violations),
                "distinct_fans_seen": len(self.sampled_fans),
            },
            "realizations": [o.to_json() for o in self.outcomes],
            "all_realized": self.all_realized,
            "verdict": "pass" if self.passed else "fail",
        }


def verify_main_theorem(Q: McKayQuiver, samples: int, budget: int,
                        seed: int = 0) -> RealizationReport:
    """(i) only-if audit: every sampled generic fan uses only rays of the
    maximal resolution; (ii) if audit: every admissible resolution is
    realized by some sampled generic theta within the budget."""
    N2 = Q.N2
    return _audit(Q, maximal_resolution(N2),
                  enumerate_admissible_resolutions(N2), samples, budget, seed)


def _audit(Q, maxres, admissible, samples, budget, seed):
    """`verify_main_theorem` on the maximal resolution and the admissible
    resolutions of Q's group, whose parts a caller may keep from request to
    request; the realizations follow the order of `admissible`."""
    if samples < 0:
        raise ValueError("samples must be at least 0")
    A = Q.action
    max_rays = set(maxres.grid)
    fans = {}
    violations = []
    counts = []
    for k in range(samples):
        theta = sample_generic(A, derive_seed(seed, k))
        fan = _checked_fan(Q, theta, fans)
        counts.append(len(fan.grid) - 1)
        if not set(fan.grid) <= max_rays:
            violations.append((theta.to_json(), fan.to_json()))
    outcomes = [realize_resolution(Q, Y, budget, derive_seed(seed, 10**6 + j))
                for j, Y in enumerate(admissible)]
    return RealizationReport(
        action=A,
        seed=seed,
        samples=samples,
        budget=budget,
        containment_violations=tuple(violations),
        sampled_fans=tuple(sorted(fans)),
        outcomes=tuple(outcomes),
        fixed_point_counts=tuple(counts),
    )
