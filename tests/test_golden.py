"""The CLI's output on a fixed sweep of 183 requests, against committed
hashes.

Each case is one `clab` command line.  A JSON reply is hashed byte for byte
with its `generated_at` line removed, an SVG or DOT reply whole; a usage
error is kept as its message.  The hashes in `golden_sweep.json` pin the
output of every `triangulate` selector (also on two groups whose slice has
two amp tents, with one resolution the weld search could not certify),
every admissible list, every seeded `verify` and `moduli` report, the
`group`, `minres` and `maxres` reports of every group in the sweep, `moduli`
at explicit thetas (integers, integral fractions such as -2/1, proper
fractions, a non-generic one), the drawings of the maximal resolution
and of one moduli fan for three groups, three indices among the 2^20
admissible resolutions of 1/84(1,41), and the refusal of a group with too
many optional rays, so a refactor that changes any of them fails here.

To re-record after an intended change of output:

    PYTHONPATH=src python -m tests.test_golden --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from clab.cli import main

GOLDEN = Path(__file__).with_name("golden_sweep.json")

TRIANGULATE_GROUPS = ("24:1,7", "12:1,7;0,6", "12:1,5;0,6", "30:1,11",
                      "18:1,5;0,9")
SELECTORS = ("min", "max", "0", "1", "5", "17", "-1")
# slices with m = 3; index 15 of 12:1,1;0,4 does not weld back to the junior
# simplex (the weld search of tests/oracles.py sticks), but its recorded
# insertions certify it like every other case
M3_GROUPS = {"9:1,2;0,3": SELECTORS, "12:1,1;0,4": SELECTORS + ("15",)}
VERIFY_GROUPS = ("4:1,3", "2:1,1;1,0", "5:1,2", "6:2,1;0,3", "7:1,3", "8:1,3",
                 "4:1,1;2,0", "8:1,2", "9:3,1", "10:1,3")
SEEDS = ("0", "1", "7")
# a small cyclic group, a cyclic group with a reflection, two generators
DRAWN_GROUPS = ("8:1,3", "9:3,1", "4:1,1;2,0")
DRAWINGS = ("svg", "dot")
# group, theta entries: integers, integral fractions, proper fractions, a mix,
# and a theta on a wall (a usage error naming the zero-sum characters)
THETA_CASES = (("4:1,3", "-7,3,2,2"), ("4:1,3", "-6/2,2/2,1,1/1"),
               ("3:1,2", "-1/2,1/4,1/4"), ("5:1,2", "-4,1/3,2/3,-2/1,5"),
               ("4:1,1;2,0", "-5/2,-7/2,11/2,15/2,8,11/2,3,-47/2"),
               ("4:1,3", "-1,1,3,-3"))
# 2^20 admissible resolutions: the first, the last and one in the middle
LARGE_GROUP, LARGE_SELECTORS = "84:1,41", ("0", "-1", "524288")
# the smallest cyclic group with 21 optional rays, one more than served
REFUSED_GROUP = "69:1,22"


def _group_args(group):
    n, gens = group.split(":")
    return ["--n", n, "--gens", gens]


def cases():
    """Case label -> argv, in a fixed order."""
    out = {}
    for g in TRIANGULATE_GROUPS:
        for sel in SELECTORS:
            out[f"triangulate {g} {sel}"] = [*_group_args(g), "triangulate",
                                             "--resolution", sel]
        out[f"resolutions {g}"] = [*_group_args(g), "resolutions"]
    for g, selectors in M3_GROUPS.items():
        for sel in selectors:
            out[f"triangulate {g} {sel}"] = [*_group_args(g), "triangulate",
                                             "--resolution", sel]
    for g in VERIFY_GROUPS:
        for cmd in ("verify", "moduli"):
            for seed in SEEDS:
                out[f"{cmd} {g} seed {seed}"] = [*_group_args(g), cmd,
                                                 "--seed", seed]
    for g, theta in THETA_CASES:
        out[f"moduli {g} theta {theta}"] = [*_group_args(g), "moduli",
                                            f"--theta={theta}"]
    for g in TRIANGULATE_GROUPS + VERIFY_GROUPS:
        for cmd in ("group", "minres", "maxres"):
            out[f"{cmd} {g}"] = [*_group_args(g), cmd]
    for g in DRAWN_GROUPS:
        for fmt in DRAWINGS:
            out[f"maxres {g} {fmt}"] = [*_group_args(g), "maxres",
                                        "--format", fmt]
            out[f"moduli {g} seed 0 {fmt}"] = [*_group_args(g), "moduli",
                                               "--seed", "0", "--format", fmt]
    for sel in LARGE_SELECTORS:
        out[f"triangulate {LARGE_GROUP} {sel}"] = [
            *_group_args(LARGE_GROUP), "triangulate", "--resolution", sel]
    out[f"resolutions {REFUSED_GROUP}"] = [*_group_args(REFUSED_GROUP),
                                           "resolutions"]
    out[f"triangulate {REFUSED_GROUP} 0"] = [*_group_args(REFUSED_GROUP),
                                             "triangulate", "--resolution", "0"]
    return out


def digest(argv):
    """{"exit", "sha256"} of a JSON reply without its generated_at line or
    of a drawing whole, or {"exit", "error"} with the message of a failed
    request.  A case without a --format asks for JSON."""
    if "--format" not in argv:
        argv = [*argv, "--format", "json"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    if code == 2:
        return {"exit": code, "error": stderr.getvalue().strip()}
    if argv[argv.index("--format") + 1] != "json":
        return {"exit": code,
                "sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    lines = stdout.getvalue().splitlines(keepends=True)
    kept = "".join(ln for ln in lines if not ln.startswith('  "generated_at": '))
    if len(kept) == len(stdout.getvalue()):
        raise ValueError(f"no generated_at line in the reply to {argv}")
    return {"exit": code, "sha256": hashlib.sha256(kept.encode()).hexdigest()}


def sweep():
    return {label: digest(argv) for label, argv in cases().items()}


def test_sweep_matches_golden_hashes():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = sweep()
    assert len(got) == 183
    assert sorted(got) == sorted(expected)
    changed = [label for label in got if got[label] != expected[label]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden --write")
    GOLDEN.write_text(json.dumps(sweep(), indent=1) + "\n", encoding="utf-8")
