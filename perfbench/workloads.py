"""Seeded inputs for the clab benchmark workloads.

A workload is a fixed mix of groups and a rule that turns the workload seed
into rounds of requests.  Every round has the same composition, so two seeds
see the same traffic mix; the seed only picks the per-request seeds, the
resolution indices and, for `catalog`, the request order.  The program sees
nothing but the generated requests.

A request is one or more `clab.cli.run` calls, given as RunConfig keyword
dictionaries; its latency is the time of all of them together.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd

import checks


@dataclass(frozen=True)
class Group:
    """A subgroup of GL(2,C) by its generator weights 1/n(a,b;c,d...)."""

    n: int
    gens: tuple

    @property
    def label(self):
        return f"1/{self.n}(" + ";".join(f"{a},{b}" for a, b in self.gens) + ")"


@dataclass
class Request:
    group: Group
    configs: tuple  # RunConfig keyword dicts, run in order
    facts: dict = field(default_factory=dict)  # what the checks compare to
    label: str = ""  # the request class latencies are reported by

    def __post_init__(self):
        self.label = self.label or self.group.label


def _run_json(clab, **kw):
    code, out = clab.cli.run(clab.cli.RunConfig(format="json", **kw))
    if code != 0:
        raise RuntimeError(f"set-up command {kw} exited with {code}")
    return json.loads(out)


def _group_kw(g):
    return {"n": g.n, "gens": g.gens}


class Workload:
    name = ""
    warmup = ""  # the cache warm-up policy, recorded with the results
    item = ""  # the unit of work counted by items_per_s
    fresh_instance_per_request = False
    # in a traced run, whether serving a request again on the same instance
    # would hit a cache the first serving filled
    replay_needs_fresh_instance = False

    def setup(self, clab):
        """Group construction and warm-up against one clab instance."""

    def warm(self, clab):
        """The warm-up alone, for another fresh clab instance."""

    def rounds(self, seed):
        """Endless iterator of request lists, a pure function of `seed`."""
        raise NotImplementedError

    def check(self, req, outputs):
        """Problems with one request's (exit code, text) outputs, and its
        count of work items (moduli fans or triangles)."""
        raise NotImplementedError

    def after_request(self, clab, req):
        """Bookkeeping after a request, outside the timed region."""

    def profile(self):
        """The traffic profile of the requests run so far."""
        return {}


# ---------------------------------------------------------------------------
# verify: the paper's audit over a fixed mix of small groups


VERIFY_GROUPS = (
    Group(4, ((1, 3),)),            # A3, small cyclic, one resolution
    Group(2, ((1, 1), (1, 0))),     # Klein four-group, reflections
    Group(5, ((1, 2),)),            # small cyclic
    Group(6, ((2, 1), (0, 3))),     # cyclic with a reflection
    Group(7, ((1, 3),)),            # small cyclic
    Group(8, ((1, 3),)),            # small cyclic, two resolutions
    Group(4, ((1, 1), (2, 0))),     # Z4 x Z2, four resolutions
    Group(8, ((1, 2),)),            # cyclic with a reflection
    Group(9, ((3, 1),)),            # cyclic with a reflection
)
# 1/7(1,3) is asked about six times a round, so the median lands inside
# its requests, each 51 fans (one sample realizes its only resolution).
# A request's latency swings by a quarter with the host's speed; with few
# requests around the median, which of them a seed put there would move it
# as far again.  Five groups are cheaper, three dearer.
VERIFY_ROUND = VERIFY_GROUPS[:4] + (VERIFY_GROUPS[4],) * 6 + VERIFY_GROUPS[5:]
VERIFY_SAMPLES = 50
VERIFY_BUDGET = 10000


class VerifyWorkload(Workload):
    name = "verify"
    warmup = ("per group: build_action, the resolutions command (fills the N2 "
              "residues), build_mckay_quiver and fixed_candidates")
    item = "fan"
    # a replayed theta would be served from the enumerate_fixed_stable cache
    replay_needs_fresh_instance = True

    def setup(self, clab):
        self.facts = self.warm(clab)
        self.samples_tried = {g.label: [] for g in VERIFY_GROUPS}

    def warm(self, clab):
        facts = {}
        for g in VERIFY_GROUPS:
            A = clab.surface.build_action(g.n, g.gens)
            res = _run_json(clab, command="resolutions", **_group_kw(g))
            Q = clab.quiver.build_mckay_quiver(A)
            cands = clab.quiver.fixed_candidates(Q)
            facts[g] = {"order": A.order, "admissible": res["count"],
                        "candidates": len(cands)}
        return facts

    def rounds(self, seed):
        rng = random.Random(f"verify:{seed}")
        while True:
            yield [
                Request(g, ({"command": "verify", **_group_kw(g),
                             "seed": rng.randrange(2 ** 31),
                             "samples": VERIFY_SAMPLES,
                             "budget": VERIFY_BUDGET},),
                        self.facts[g])
                for g in VERIFY_ROUND
            ]

    def check(self, req, outputs):
        (code, text), = outputs
        problems, rep = checks.verify_report(code, text, req.facts["admissible"])
        if rep is None:
            return problems, 0
        tried = [r["samples_tried"] for r in rep["realizations"]]
        self.samples_tried[req.group.label].append(sum(tried))
        return problems, rep["only_if"]["samples"] + sum(tried)

    def profile(self):
        return {
            "groups": [
                {"group": g.label, **self.facts[g],
                 "samples_tried": self.samples_tried[g.label]}
                for g in VERIFY_GROUPS
            ],
            "samples": VERIFY_SAMPLES,
            "budget": VERIFY_BUDGET,
        }


# ---------------------------------------------------------------------------
# triangulate: containing triangulations of large junior simplices


TRIANGULATE_GROUPS = (
    Group(24, ((1, 7),)),           # small, 18 junior points
    Group(12, ((1, 7), (0, 6))),    # non-small, nontrivial slice LP
    Group(12, ((1, 5), (0, 6))),    # non-small, 21 points, 64 resolutions
    Group(30, ((1, 11),)),          # small, 20 points, 49 resolutions
    Group(18, ((1, 5), (0, 9))),    # non-small, 24 points, 72 resolutions
)
# 1/30(1,11), whose latency hardly depends on the resolution, is asked
# about four times a round: three groups are cheaper and one dearer, so both
# the median and the tail (the 11th-largest latency) land inside its
# requests, not between two groups' latencies.
TRIANGULATE_ROUND = (TRIANGULATE_GROUPS[:3] + (TRIANGULATE_GROUPS[3],) * 4
                     + TRIANGULATE_GROUPS[4:])
GOLDEN = (5 ** 0.5 - 1) / 2


class TriangulateWorkload(Workload):
    name = "triangulate"
    warmup = ("per group: the group and resolutions commands (fill the N2 "
              "residues) and build_junior (fills the N3 residues)")
    item = "triangle"

    def setup(self, clab):
        self.facts = {}
        for g in TRIANGULATE_GROUPS:
            facts = _run_json(clab, command="group", **_group_kw(g))
            res = _run_json(clab, command="resolutions", **_group_kw(g))
            A = clab.surface.build_action(g.n, g.gens)
            J = clab.junior.build_junior(A)
            self.facts[g] = {"order": facts["order"], "small": facts["small"],
                             "admissible": res["count"],
                             "junior_points": len(J.points)}
        self.indices = {g.label: [] for g in TRIANGULATE_GROUPS}
        self.seen = checks.ReplayLog()

    def rounds(self, seed):
        """Resolution indices follow a golden-ratio sequence from a seeded
        start, so any run's indices spread evenly over each group's list."""
        rng = random.Random(f"triangulate:{seed}")
        start = {g: rng.random() for g in TRIANGULATE_GROUPS}
        asked = dict.fromkeys(TRIANGULATE_GROUPS, 0)
        while True:
            out = []
            for g in TRIANGULATE_ROUND:
                u = (start[g] + asked[g] * GOLDEN) % 1
                asked[g] += 1
                i = int(u * self.facts[g]["admissible"])
                out.append(Request(
                    g, ({"command": "triangulate", **_group_kw(g),
                         "resolution": str(i)},),
                    {**self.facts[g], "index": i}))
            yield out

    def check(self, req, outputs):
        (code, text), = outputs
        self.indices[req.group.label].append(req.facts["index"])
        problems = checks.triangulation(code, text, req.facts["order"])
        problems += self.seen.compare(req.configs[0], text)
        return problems, req.facts["order"]

    def profile(self):
        return {
            "groups": [
                {"group": g.label, **self.facts[g],
                 "resolution_indices": self.indices[g.label]}
                for g in TRIANGULATE_GROUPS
            ],
        }


# ---------------------------------------------------------------------------
# catalog: one cold subgroup after another


# The 87 subgroups of order <= 10 take about 24 s on the reference machine.
# The twelve of order 11 take 2-3.5 s each; a run cannot hold them all, and
# a seeded few made the peak memory and the tail depend on the draw.
CATALOG_MAX_ORDER = 10


def _closure(n, gens):
    elems = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        ca, cb = frontier.pop()
        for a, b in gens:
            nxt = ((ca + a) % n, (cb + b) % n)
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return elems


def _exponent(n, elems):
    e = 1
    for a, b in elems:
        o = n // gcd(n, gcd(a, b))
        e = e * o // gcd(e, o)
    return e


def _presentation(n, gens, order):
    """A cyclic group with a generator (a, b), a a unit mod n, is 1/n(1, q)
    with q = b / a; other groups keep their generators."""
    if order == n:
        for a, b in sorted(_closure(n, gens)):
            if gcd(a, n) == 1:
                return ((1, b * pow(a, -1, n) % n),)
    return gens


def catalog_groups(clab):
    """Every finite diagonal subgroup of GL(2,C) of order up to
    CATALOG_MAX_ORDER, each once, written over n = its exponent and grouped
    by order.

    Duplicates are removed by AbelianAction equality, which ignores the
    generator presentation: two presentations of one subgroup share every
    cache of the program."""
    candidates = []
    for n in range(1, CATALOG_MAX_ORDER + 1):
        for a in range(n):
            for b in range(n):
                candidates.append((n, ((a, b),)))
    # rank-2 subgroups of order <= 11 are Z2^2, Z2 x Z4 and Z3^2
    for n in (2, 3, 4):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        candidates.append((n, ((a, b), (c, d))))
    seen = set()
    by_order = {}
    for n, gens in candidates:
        elems = _closure(n, gens)
        if len(elems) > CATALOG_MAX_ORDER or _exponent(n, elems) != n:
            continue
        gens = _presentation(n, gens, len(elems))
        A = clab.surface.build_action(n, gens)
        if A in seen:
            continue
        seen.add(A)
        by_order.setdefault(A.order, []).append(Group(n, gens))
    return {o: by_order[o] for o in sorted(by_order)}


class CatalogWorkload(Workload):
    name = "catalog"
    warmup = ("none: subgroup enumeration only; each request runs on a "
              "freshly imported clab, so every lru_cache starts empty")
    item = "fan"
    fresh_instance_per_request = True
    commands = ("group", "minres", "maxres", "resolutions", "moduli")

    def setup(self, clab):
        self.pool = catalog_groups(clab)
        self.orders = []
        self.admissible = []
        self.candidates = []
        self.fixed_points = []
        self.seen = checks.ReplayLog()

    def rounds(self, seed):
        """Every subgroup in the pool once per round, in a seeded order."""
        rng = random.Random(f"catalog:{seed}")
        pool = [(o, g) for o, groups in self.pool.items() for g in groups]
        while True:
            rng.shuffle(pool)
            out = []
            for o, g in pool:
                moduli_seed = rng.randrange(2 ** 31)
                cfgs = tuple(
                    {"command": c, **_group_kw(g),
                     **({"seed": moduli_seed} if c == "moduli" else {})}
                    for c in self.commands
                )
                out.append(Request(g, cfgs, {"order": o}, f"order {o}"))
            yield out

    def check(self, req, outputs):
        problems, facts = checks.catalog(req.group.n, req.group.gens,
                                         dict(zip(self.commands, outputs)))
        for cfg, (_, text) in zip(req.configs[:4], outputs[:4]):
            problems += self.seen.compare(cfg, text)
        if facts.get("order") != req.facts["order"]:
            problems.append(f"order {facts.get('order')} != "
                            f"{req.facts['order']}")
        self.orders.append(req.facts["order"])
        self.admissible.append(facts.get("admissible"))
        self.fixed_points.append(facts.get("fixed_points"))
        return problems, 1  # one moduli fan per request

    def after_request(self, clab, req):
        """The group's candidate count, read from the quiver cache the
        request filled (outside the timed region)."""
        A = clab.surface.build_action(req.group.n, req.group.gens)
        Q = clab.quiver.build_mckay_quiver(A)
        self.candidates.append(len(clab.quiver.fixed_candidates(Q)))

    def profile(self):
        return {
            "pool_sizes": {str(o): len(g) for o, g in self.pool.items()},
            "orders": self.orders,
            "admissible": self.admissible,
            "candidates": self.candidates,
            "fixed_points": self.fixed_points,
        }


WORKLOADS = {w.name: w for w in (VerifyWorkload, TriangulateWorkload,
                                 CatalogWorkload)}
