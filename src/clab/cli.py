"""Command-line front end.

Every command is a pure function of its RunConfig: re-running a persisted
config reproduces the same JSON up to the generated_at timestamp.  Exit codes:
0 success, 1 audit failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd

from . import draw
from .junior import (
    InadmissibleResolutionError,
    PLSupportFunction,
    amp_restriction_surjective,
    build_containing_triangulation,
    build_junior,
    is_basic,
    regularity_certificate,
)
from .lattice import cross2, rat_str
from .quiver import (
    NonGenericThetaError,
    _fan,
    _stable_at,
    _tiling,
    build_mckay_quiver,
    genericity_witness,
    make_theta,
)
from .surface import (
    AdmissibleSequences,
    boundary_divisor,
    build_action,
    build_N2,
    is_small,
    maximal_resolution,
    minimal_resolution,
    resolution_from_grid,
)
from .thetaspace import sample_generic, verify_main_theorem

COMMANDS = ("group", "minres", "maxres", "resolutions", "triangulate",
            "moduli", "verify")
FORMATS = ("text", "json", "svg", "dot")
# `moduli` and `verify` enumerate the torus-fixed supports and sample
# generic thetas, and both grow steeply with |G|.  A cold `moduli` on one
# core of CPython 3.11 takes 0.7 s at 1/11(1,3), 9 s at 1/14(1,3), 23 s at
# 1/15(1,2) and 58 s at 1/16(1,3); at order 18 `sample_generic` can run out
# of its draws, and the subset-sum table has 2^|G| entries.
MAX_MODULI_ORDER = 14
# Cold, `triangulate --resolution max` takes 0.2 s at order 289 (1/17(1,0;0,1))
# but 10 s at order 3000, and `group` 10 s at order 10^6.  Below this bound,
# MAX_OPTIONAL_RAYS caps the number of admissible resolutions at 2^20.
MAX_ORDER = 300


class UsageError(Exception):
    pass


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# the type each key of a persisted config must have, checked on replay
_CONFIG_TYPES = {
    "command": ("a string", lambda v: isinstance(v, str)),
    "n": ("an integer", _is_int),
    "gens": ("a list of integer pairs", lambda v: isinstance(v, list) and all(
        isinstance(g, list) and len(g) == 2 and all(map(_is_int, g))
        for g in v)),
    "seed": ("an integer", _is_int),
    "samples": ("an integer", _is_int),
    "budget": ("an integer", _is_int),
    "out": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "resolution": ("a string", lambda v: isinstance(v, str)),
    "theta": ("a list of strings or integers, or null",
              lambda v: v is None or (isinstance(v, list) and all(
                  isinstance(t, str) or _is_int(t) for t in v))),
}


def _parse_theta(entries):
    """The theta entries as Fractions; UsageError naming a bad entry."""
    out = []
    for t in entries:
        try:
            out.append(Fraction(t))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad theta entry {t!r}; expected a rational "
                             "such as -2 or 3/4") from None
    return tuple(out)


@dataclass
class RunConfig:
    command: str
    n: int = 1
    gens: tuple = ()
    theta: tuple | None = None
    seed: int = 0
    samples: int = 50
    budget: int = 10000
    format: str = "text"
    out: str | None = None
    resolution: str = "max"

    def to_json(self):
        d = asdict(self)
        d["gens"] = [list(g) for g in self.gens]
        d["theta"] = None if self.theta is None else [str(t) for t in self.theta]
        return d

    @classmethod
    def from_json(cls, obj):
        """The config persisted as obj; UsageError if obj is not one."""
        if not isinstance(obj, dict):
            raise UsageError("a config must be a JSON object")
        for key, (kind, ok) in _CONFIG_TYPES.items():
            if key in obj and not ok(obj[key]):
                raise UsageError(f"bad config: {key} must be {kind}, "
                                 f"not {obj[key]!r}")
        obj = dict(obj)
        try:
            obj["gens"] = tuple(tuple(g) for g in obj.get("gens", []))
            th = obj.get("theta")
            obj["theta"] = None if th is None else _parse_theta(th)
            cfg = cls(**obj)
        except TypeError as e:
            raise UsageError(f"bad config: {e}") from None
        if cfg.format not in FORMATS:
            raise UsageError(f"bad config: format {cfg.format!r} is not one "
                             f"of {', '.join(FORMATS)}")
        return cfg


def _parse_gens(text):
    if not text:
        return ()
    out = []
    for part in text.split(";"):
        bits = part.split(",")
        if len(bits) != 2:
            raise UsageError(f"bad generator {part!r}; expected 'a,b'")
        out.append((int(bits[0]), int(bits[1])))
    return tuple(out)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="clab",
        description="Toric resolutions of C^2/G and moduli of torus-fixed "
                    "constellations, in exact rational arithmetic.",
    )
    p.add_argument("--n", type=int, default=1, help="common order of the weights")
    p.add_argument("--gens", default="", help="generator weights 'a,b[;a,b...]'")
    p.add_argument("--theta", default=None,
                   help="stability parameter as comma-separated rationals")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--format", choices=FORMATS, default="text")
    p.add_argument("--out", default=None, help="write the report to this path")
    p.add_argument("--resolution", default="max",
                   help="resolution selector for triangulate: min, max or an "
                        "index into the admissible list")
    p.add_argument("--config", default=None,
                   help="replay a persisted RunConfig JSON file")
    p.add_argument("command", choices=COMMANDS, nargs="?")
    return p


def _emit(cfg: RunConfig, payload: dict, drawing: str | None = None) -> str:
    if cfg.format in ("svg", "dot"):
        if drawing is None:
            raise UsageError(f"format {cfg.format!r} not supported for "
                             f"command {cfg.command!r}")
        return drawing
    if cfg.format == "json":
        body = dict(payload)
        body["schema"] = 1
        body["config"] = cfg.to_json()
        body["generated_at"] = datetime.now(timezone.utc).isoformat()
        return _json(body) + "\n"
    return payload["text"] + "\n"


def _json(obj, indent="\n"):
    """obj as `json.dumps(obj, sort_keys=True, indent=2)` writes it, for a
    reply's types; that call takes `json`'s slower pure-Python encoder."""
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner)
                 for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [_json(v, inner) for v in obj]
    else:
        raise TypeError(f"{type(obj).__name__} is not a reply type")
    if not items:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}"


def _group_facts(A, N2):
    B = boundary_divisor(N2)
    c1, c2 = B.coefficients
    return {
        "action": A.to_json(),
        "order": A.order,
        "exponent": A.exponent,
        "small": is_small(A),
        "boundary": {"m1": B.m1, "m2": B.m2,
                     "coefficients": [rat_str(c1), rat_str(c2)]},
    }


def _fmt_resolution(Y):
    rays = ", ".join(f"({rat_str(r[0])},{rat_str(r[1])})"
                     for r in Y.exceptional_rays) or "none"
    disc = ", ".join(rat_str(d) for d in Y.discrepancies) or "none"
    return f"exceptional rays: {rays}\ndiscrepancies: {disc}"


class _GroupContext:
    """Per-group state, each part built on first use and kept; none of it
    depends on the generators of `A` but the presentation `quiver.action`."""

    def __init__(self, A):
        self.A = A

    N2 = functools.cached_property(lambda self: build_N2(self.A))
    junior = functools.cached_property(lambda self: build_junior(self.A))
    quiver = functools.cached_property(lambda s: build_mckay_quiver(s.A))
    minres = functools.cached_property(lambda s: minimal_resolution(s.N2))
    maxres = functools.cached_property(lambda s: maximal_resolution(s.N2))
    admissible = functools.cached_property(lambda s: AdmissibleSequences(s.N2))


# keyed by the action, whose equality ignores the generator presentation;
# one context holds at most about 0.6 MB (1/83(1,12), 2,555 gap parts)
@functools.lru_cache(maxsize=16)
def _context(A):
    return _GroupContext(A)


def _select_resolution(cfg, ctx):
    if cfg.resolution == "min":
        return ctx.minres
    if cfg.resolution == "max":
        return ctx.maxres
    bad = UsageError(f"bad resolution selector {cfg.resolution!r}")
    try:
        idx = int(cfg.resolution)
    except ValueError:
        raise bad from None
    admissible = ctx.admissible
    if not -len(admissible) <= idx < len(admissible):
        raise bad
    return resolution_from_grid(ctx.N2, admissible[idx])


def _drawing(cfg, Y):
    """The fan Y drawn in the format the config asks for, if it is one."""
    if cfg.format == "svg":
        return draw.svg_resolution(Y)
    if cfg.format == "dot":
        return draw.dot_resolution(Y)
    return None


def _order(n, gens):
    """|G| without building G: G is L / nZ^2 for L spanned by gens, (n, 0)
    and (0, n), and [Z^2 : L] is the gcd of the 2x2 minors of those rows."""
    rows = [*gens, (n, 0), (0, n)]
    d = gcd(*(cross2(r, s) for r, s in itertools.combinations(rows, 2)))
    return n * n // d


def run(cfg: RunConfig):
    """Execute a config; returns (exit_code, output_text)."""
    # build_action refuses n < 1 itself
    if cfg.n >= 1:
        bound = (MAX_MODULI_ORDER if cfg.command in ("moduli", "verify")
                 else MAX_ORDER)
        order = _order(cfg.n, cfg.gens)
        if order > bound:
            raise UsageError(f"{cfg.command} supports groups of order at most "
                             f"{bound}; this one has order {order}")
    A = build_action(cfg.n, cfg.gens)

    if cfg.command == "group":
        facts = _group_facts(A, _context(A).N2)
        b = facts["boundary"]
        text = (f"G of order {facts['order']} (exponent {facts['exponent']}), "
                f"small={str(facts['small']).lower()}\n"
                f"B = {b['coefficients'][0]}*B1 + {b['coefficients'][1]}*B2 "
                f"(m1={b['m1']}, m2={b['m2']})")
        facts["text"] = text
        return 0, _emit(cfg, facts)

    if cfg.command in ("minres", "maxres"):
        ctx = _context(A)
        Y = ctx.minres if cfg.command == "minres" else ctx.maxres
        payload = _group_facts(A, ctx.N2)
        payload["resolution"] = Y.to_json()
        payload["text"] = _fmt_resolution(Y)
        return 0, _emit(cfg, payload, drawing=_drawing(cfg, Y))

    if cfg.command == "resolutions":
        ctx = _context(A)
        N2 = ctx.N2
        res = [resolution_from_grid(N2, grid) for grid in ctx.admissible]
        payload = _group_facts(A, N2)
        payload["count"] = len(res)
        payload["resolutions"] = [Y.to_json() for Y in res]
        payload["text"] = "\n".join(
            [f"{len(res)} admissible resolutions"]
            + [f"[{i}] {len(Y.exceptional_rays)} exceptional rays"
               for i, Y in enumerate(res)]
        )
        return 0, _emit(cfg, payload)

    if cfg.command == "triangulate":
        ctx = _context(A)
        Y = _select_resolution(cfg, ctx)
        try:
            T = build_containing_triangulation(ctx.junior, Y)
        except InadmissibleResolutionError as e:
            raise UsageError(str(e))
        cert = regularity_certificate(T)
        regular = isinstance(cert, PLSupportFunction)
        payload = {
            "action": A.to_json(),
            "resolution": Y.to_json(),
            "triangulation": T.to_json(),
            "triangles": len(T.triangles),
            "basic": is_basic(T),
            "regular": regular,
            "amp_restriction_surjective": amp_restriction_surjective(T),
            "svg": draw.svg_triangulation(T),
            "dot": draw.dot_triangulation(T),
        }
        payload["text"] = (
            f"{payload['triangles']} triangles, basic={payload['basic']}, "
            f"regular={payload['regular']}, "
            f"amp restriction surjective={payload['amp_restriction_surjective']}"
        )
        return 0, _emit(cfg, payload, drawing=payload[cfg.format]
                        if cfg.format in ("svg", "dot") else None)

    if cfg.command == "moduli":
        Q = _context(A).quiver
        if cfg.theta is not None:
            if len(cfg.theta) != A.order:
                raise UsageError(
                    f"theta needs {A.order} entries, got {len(cfg.theta)}")
            theta = make_theta(cfg.theta)
            witness = genericity_witness(theta)
            if witness is not None:
                raise UsageError(
                    f"theta is not generic: characters {list(witness)} sum to zero")
        else:
            theta = sample_generic(A, cfg.seed)
        # the fixed points are the stable supports the fan is cut from
        fixed = _stable_at(Q, theta)
        fan = _fan(Q, _tiling(fixed))
        contained = set(fan.grid) <= set(maximal_resolution(Q.N2).grid)
        payload = {
            "action": A.to_json(),
            "theta": theta.to_json(),
            "fan": fan.to_json(),
            "fixed_points": [c.to_json() for c in fixed],
            "fixed_point_count": len(fixed),
            "delta_prime_containment": contained,
        }
        payload["text"] = (
            f"theta = ({', '.join(theta.to_json())})\n"
            + _fmt_resolution(fan)
            + f"\nfixed points: {len(fixed)}, containment "
            + ("pass" if contained else "FAIL")
        )
        code = 0 if contained else 1
        return code, _emit(cfg, payload, drawing=_drawing(cfg, fan))

    if cfg.command == "verify":
        # the context's quiver may carry another presentation of the group
        rep = replace(verify_main_theorem(_context(A).quiver, cfg.samples,
                                          cfg.budget, seed=cfg.seed), action=A)
        payload = rep.to_json()
        lines = [
            f"only-if audit: {cfg.samples} samples, "
            f"{payload['only_if']['violations']} containment violations",
            f"realized {sum(o.realized for o in rep.outcomes)}/{len(rep.outcomes)}"
            " admissible resolutions",
            f"verdict: {payload['verdict']}",
        ]
        payload["text"] = "\n".join(lines)
        return (0 if rep.passed else 1), _emit(cfg, payload)

    raise UsageError(f"unknown command {cfg.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    obj = json.load(fh)
            except OSError as e:
                raise UsageError(f"cannot read config: {e}") from None
            cfg = RunConfig.from_json(obj)
        else:
            if args.command is None:
                raise UsageError("a command is required")
            theta = None
            if args.theta is not None:
                theta = _parse_theta(args.theta.split(","))
            cfg = RunConfig(
                command=args.command,
                n=args.n,
                gens=_parse_gens(args.gens),
                theta=theta,
                seed=args.seed,
                samples=args.samples,
                budget=args.budget,
                format=args.format,
                out=args.out,
                resolution=args.resolution,
            )
        code, output = run(cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, NonGenericThetaError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as e:
            print(f"error: cannot write output: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
