"""Output checks run on every benchmark request.

Each check returns a list of problems; a request with any problem counts as
failed.  The checks read only the JSON the CLI prints, plus facts the
benchmark derives on its own (group orders, admissible counts from set-up,
and the Hirzebruch-Jung recurrence below).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd


def _load(code, text):
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        return problems, json.loads(text)
    except ValueError as e:
        return problems + [f"output is not JSON: {e}"], None


def verify_report(code, text, admissible):
    """verdict pass, no containment violation, one realization per
    admissible resolution, each realized."""
    problems, rep = _load(code, text)
    if rep is None:
        return problems, None
    if rep.get("verdict") != "pass":
        problems.append(f"verdict {rep.get('verdict')!r}")
    if rep["only_if"]["violations"] != 0:
        problems.append(f"{rep['only_if']['violations']} containment violations")
    reals = rep["realizations"]
    if len(reals) != admissible:
        problems.append(f"{len(reals)} realizations for {admissible} "
                        "admissible resolutions")
    if not all(r["realized"] for r in reals):
        problems.append("an admissible resolution was not realized")
    return problems, rep


def triangulation(code, text, order):
    """basic, regular and amp-restriction surjective, with |G| triangles."""
    problems, body = _load(code, text)
    if body is None:
        return problems
    for key in ("basic", "regular", "amp_restriction_surjective"):
        if body.get(key) is not True:
            problems.append(f"{key} is {body.get(key)!r}")
    if body["triangles"] != order or len(body["triangulation"]["triangles"]) != order:
        problems.append(f"{body['triangles']} triangles for |G| = {order}")
    return problems


def hj_exceptional_rays(n, q):
    """Exceptional rays of the minimal resolution of 1/n(1,q), gcd(n,q) = 1,
    ordered from the x-axis.

    With n/q = c_1 - 1/(c_2 - ...) the Hirzebruch-Jung continued fraction,
    u_0 = (0,1), u_1 = (1/n, q/n) and u_{i+1} = c_i u_i - u_{i-1}; the chain
    ends at (1,0)."""
    u_prev, u = (Fraction(0), Fraction(1)), (Fraction(1, n), Fraction(q, n))
    r_prev, r = n, q
    rays = []
    while r != 0:
        rays.append(u)
        c = -(-r_prev // r)
        u_prev, u = u, (c * u[0] - u_prev[0], c * u[1] - u_prev[1])
        r_prev, r = r, c * r - r_prev
    if u != (1, 0):
        raise ArithmeticError(f"continued fraction of {n}/{q} did not close")
    return rays[::-1]


def _rays(res):
    """All rays of a resolution payload, as Fraction pairs."""
    raw = [res["v0"], *res["rays"], res["vs"]]
    return [tuple(Fraction(c) for c in r) for r in raw]


def catalog(n, gens, outputs):
    """Checks across the group / minres / maxres / resolutions / moduli
    outputs of one subgroup.  Returns (problems, facts)."""
    problems, bodies = [], {}
    for cmd, (code, text) in outputs.items():
        p, body = _load(code, text)
        problems += [f"{cmd}: {x}" for x in p]
        bodies[cmd] = body
    if any(b is None for b in bodies.values()):
        return problems, {}
    minres = _rays(bodies["minres"]["resolution"])
    maxres = _rays(bodies["maxres"]["resolution"])
    if not set(minres) <= set(maxres):
        problems.append("minimal resolution has a ray outside the maximal one")
    res = bodies["resolutions"]
    if res["count"] != len(res["resolutions"]):
        problems.append(f"count {res['count']} != {len(res['resolutions'])} "
                        "resolutions listed")
    if bodies["moduli"]["delta_prime_containment"] is not True:
        problems.append("moduli fan is not contained in the maximal resolution")
    if len(gens) == 1 and gens[0][0] == 1 and gcd(gens[0][1], n) == 1 and n > 1:
        expected = hj_exceptional_rays(n, gens[0][1])
        if minres[1:-1] != expected:
            problems.append("minimal resolution differs from the "
                            "Hirzebruch-Jung continued fraction")
    facts = {"order": bodies["group"]["order"], "admissible": res["count"],
             "fixed_points": bodies["moduli"]["fixed_point_count"]}
    return problems, facts


class ReplayLog:
    """Identical configs must give identical output, generated_at aside."""

    def __init__(self):
        self.digests = {}

    def compare(self, config, text):
        try:
            body = json.loads(text)
        except ValueError:
            return []  # reported by the command's own check
        body.pop("generated_at", None)
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()).hexdigest()
        key = json.dumps(config, sort_keys=True)
        if self.digests.setdefault(key, digest) != digest:
            return [f"output of {key} differs from an earlier identical request"]
        return []
