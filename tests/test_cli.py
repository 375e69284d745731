import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import clab
from clab.cli import (
    MAX_MODULI_ORDER,
    MAX_ORDER,
    RunConfig,
    UsageError,
    _context,
    _json,
    _order,
    _select_resolution,
    main,
)
from clab.quiver import build_mckay_quiver, enumerate_fixed_stable
from clab.surface import build_action, enumerate_admissible_resolutions
from clab.thetaspace import verify_main_theorem

from .test_golden import GOLDEN, digest
from .test_golden import cases as golden_cases
from .test_surface import TRIANGULATE_GROUPS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_reflection(capsys):
    code, out, _ = run_cli(capsys, "--n", "2", "--gens", "1,0", "group")
    assert code == 0
    assert "small=false" in out
    assert "1/2*B1" in out


def test_maxres_one_eighth_json(capsys):
    code, out, _ = run_cli(capsys, "--n", "8", "--gens", "1,3", "maxres",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["resolution"]["rays"] == [["3/8", "1/8"], ["1/2", "1/2"],
                                             ["1/8", "3/8"]]
    assert payload["resolution"]["discrepancies"] == ["-1/2", "0", "-1/2"]


def test_minres_trivial(capsys):
    code, out, _ = run_cli(capsys, "--n", "1", "minres")
    assert code == 0
    assert "exceptional rays: none" in out


def test_resolutions_count(capsys):
    code, out, _ = run_cli(capsys, "--n", "8", "--gens", "1,3", "resolutions",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_triangulate_one_eighth(capsys):
    code, out, _ = run_cli(capsys, "--n", "8", "--gens", "1,3", "triangulate",
                           "--resolution", "max", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["triangles"] == 8
    assert payload["basic"] and payload["regular"]
    assert payload["amp_restriction_surjective"] is True


def test_triangulate_trivial(capsys):
    code, out, _ = run_cli(capsys, "--n", "1", "triangulate", "--format", "json")
    assert code == 0
    assert json.loads(out)["triangles"] == 1


def test_triangulate_min_max_skip_admissible_list(capsys, monkeypatch):
    def refuse(N2):
        raise AssertionError("admissible list built for a min/max selector")

    _context.cache_clear()
    monkeypatch.setattr("clab.cli.AdmissibleSequences", refuse)
    for sel in ("min", "max"):
        code, out, err = run_cli(capsys, "--n", "8", "--gens", "1,3",
                                 "triangulate", "--resolution", sel,
                                 "--format", "json")
        assert code == 0, err
        assert json.loads(out)["triangles"] == 8


def test_triangulate_index_selector(capsys):
    # index 1 of 1/8(1,3)'s two admissible resolutions is the maximal one
    code, out, _ = run_cli(capsys, "--n", "8", "--gens", "1,3", "triangulate",
                           "--resolution", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["resolution"]["rays"] == [
        ["3/8", "1/8"], ["1/2", "1/2"], ["1/8", "3/8"]]
    for bad in ("2", "first"):
        code, _, err = run_cli(capsys, "--n", "8", "--gens", "1,3",
                               "triangulate", "--resolution", bad)
        assert code == 2
        assert "bad resolution selector" in err


def test_index_selector_picks_from_admissible_list():
    # the selector validates only the sequence it picks; that is the
    # resolution at the same index of the validated list, and an index past
    # either end is a bad selector
    for n, gens in TRIANGULATE_GROUPS:
        ctx = _context(build_action(n, gens))
        admissible = enumerate_admissible_resolutions(ctx.N2)
        k = len(admissible)
        for i in range(-k - 1, k + 1):
            cfg = RunConfig("triangulate", n=n, gens=tuple(gens), resolution=str(i))
            if i in (-k - 1, k):
                with pytest.raises(UsageError, match="bad resolution selector"):
                    _select_resolution(cfg, ctx)
                continue
            Y = _select_resolution(cfg, ctx)
            assert Y == admissible[i]
            assert Y.discrepancies == admissible[i].discrepancies


def test_triangulate_one_third(capsys):
    code, out, _ = run_cli(capsys, "--n", "3", "--gens", "1,1", "triangulate",
                           "--resolution", "min", "--format", "json")
    assert code == 0
    assert json.loads(out)["triangles"] == 3


def test_moduli_explicit_theta(capsys):
    code, out, _ = run_cli(capsys, "--n", "3", "--gens", "1,1", "moduli",
                           "--theta=-2,1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["fan"]["rays"] == [["1/3", "1/3"]]
    assert payload["fixed_point_count"] == 2
    assert payload["delta_prime_containment"] is True


def test_moduli_rejects_nongeneric_theta(capsys):
    code, _, err = run_cli(capsys, "--n", "3", "--gens", "1,1", "moduli",
                           "--theta=-1,1,0")
    assert code == 2
    assert "not generic" in err
    assert "[2]" in err  # the violated subset is reported


def test_moduli_fractional_theta_matches_integer_multiple(capsys):
    # mixed denominators 4, 6, 9, 18 and 36: the subset sums are scaled by
    # their lcm, so the fractional theta must act as its integer multiple
    generic = [12, 8, 12, -4, 12, 2, 12, -54]
    reports = []
    for theta in (generic, [F(t, 72) for t in generic]):
        code, out, _ = run_cli(capsys, "--n", "8", "--gens", "1,3", "moduli",
                               "--theta=" + ",".join(map(str, theta)),
                               "--format", "json")
        assert code == 0
        reports.append(json.loads(out))
    for key in ("fan", "fixed_points", "fixed_point_count"):
        assert reports[0][key] == reports[1][key]
    assert reports[0]["fan"]["rays"]
    # on a wall both name the same zero-sum characters
    wall = [-6, 2, 3, 1, 1, -1, 2, -2]
    errors = []
    for theta in (wall, [F(t, 12) for t in wall]):
        code, _, err = run_cli(capsys, "--n", "8", "--gens", "1,3", "moduli",
                               "--theta=" + ",".join(map(str, theta)))
        assert code == 2
        errors.append(err)
    assert errors[0] == errors[1]
    assert "not generic" in errors[0]


@pytest.mark.parametrize("entry", ["1/0", "x", "", "1/2/3"])
def test_bad_theta_entry_is_usage_error(tmp_path, capsys, entry):
    # on the command line and on replay, a theta entry that is not a
    # rational exits 2 with the entry named, not with a traceback
    theta = [entry, "1", "-1"]
    for code, out, err in (
            run_cli(capsys, "--n", "3", "--gens", "1,2",
                    "--theta", ",".join(theta), "moduli"),
            _replay(tmp_path, capsys, {"command": "moduli", "n": 3,
                                       "gens": [[1, 2]], "theta": theta})):
        assert code == 2
        assert out == ""
        assert f"bad theta entry {entry!r}" in err
        assert "Traceback" not in err


def test_replayed_theta_of_strings_and_integers(tmp_path, capsys):
    code, out, _ = _replay(tmp_path, capsys, {
        "command": "moduli", "n": 3, "gens": [[1, 1]],
        "theta": ["-2", 1, "1"], "format": "json"})
    assert code == 0
    assert json.loads(out)["theta"] == ["-2", "1", "1"]


def test_moduli_sampled_seed(capsys):
    code, out, _ = run_cli(capsys, "--n", "8", "--gens", "1,3", "moduli",
                           "--seed", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    allowed = {("3/8", "1/8"), ("1/2", "1/2"), ("1/8", "3/8")}
    assert {tuple(r) for r in payload["fan"]["rays"]} <= allowed
    assert payload["delta_prime_containment"] is True


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "--n", "3", "--gens", "1,1", "verify",
                           "--samples", "10", "--budget", "50",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"


def test_verify_rejects_negative_samples(capsys):
    code, out, err = run_cli(capsys, "--n", "3", "--gens", "1,1", "verify",
                             "--samples", "-1", "--format", "json")
    assert code == 2
    assert out == ""
    assert "samples must be at least 0" in err


@pytest.mark.parametrize("command", ["moduli", "verify"])
def test_moduli_and_verify_refuse_large_groups(capsys, command):
    # order 18 is past the bound: refused before any enumeration or sampling
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "--n", "18", "--gens", "1,5", command)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "order 18" in err and f"at most {MAX_MODULI_ORDER}" in err


@pytest.mark.parametrize("command, n, order",
                         [("verify", 1000, 10 ** 6), ("moduli", 1500, 1500 ** 2)])
def test_oversized_requests_refused_before_the_group_is_built(
        capsys, monkeypatch, command, n, order):
    # closing a group of order 10^6 takes seconds; the order comes from the
    # generators alone, so the refusal must not build the group
    def refuse(*args):
        raise AssertionError("the group was built for a refused request")

    monkeypatch.setattr("clab.cli.build_action", refuse)
    code, out, err = run_cli(capsys, "--n", str(n), "--gens", "1,0;0,1",
                             command)
    assert code == 2
    assert out == ""
    assert f"this one has order {order}" in err


@pytest.mark.parametrize("command", ["group", "minres", "maxres",
                                     "resolutions", "triangulate"])
@pytest.mark.parametrize("n, gens, order", [
    (1000, "1,0;0,1", 10 ** 6), (MAX_ORDER + 1, "1,7", MAX_ORDER + 1)])
def test_large_groups_refused_before_the_group_is_built(
        capsys, monkeypatch, command, n, gens, order):
    # a kept group context would hold such a group; the order comes from
    # the generators alone, so the refusal must not build the group
    def refuse(*args):
        raise AssertionError("the group was built for a refused request")

    monkeypatch.setattr("clab.cli.build_action", refuse)
    code, out, err = run_cli(capsys, "--n", str(n), "--gens", gens, command)
    assert code == 2
    assert out == ""
    assert (f"{command} supports groups of order at most {MAX_ORDER}; "
            f"this one has order {order}") in err


def test_group_of_the_largest_order_is_served(capsys):
    code, out, _ = run_cli(capsys, "--n", str(MAX_ORDER), "--gens", "1,7",
                           "group", "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == MAX_ORDER


def test_order_from_generators_matches_group():
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randint(1, 24)
        gens = [(rng.randint(-30, 30), rng.randint(-30, 30))
                for _ in range(rng.randint(0, 3))]
        assert _order(n, gens) == build_action(n, gens).order, (n, gens)


def test_each_command_builds_N2_once(monkeypatch, capsys):
    # cli, the quiver and the surface layer each look build_N2 up by name
    calls = []
    real = clab.surface.build_N2

    def counted(A):
        calls.append(A)
        return real(A)

    for module in (clab.cli, clab.quiver, clab.surface):
        monkeypatch.setattr(module, "build_N2", counted)
    for command in ("group", "minres", "maxres", "resolutions", "triangulate",
                    "moduli", "verify"):
        calls.clear()
        _context.cache_clear()  # a kept context would serve N2 unbuilt
        code, _, _ = run_cli(capsys, "--n", "8", "--gens", "1,3", command)
        assert code == 0, command
        assert len(calls) == 1, command


def test_moduli_reads_the_context_maximal_resolution(monkeypatch, capsys):
    # the containment check of every moduli request after the first reads
    # the maximal resolution the group's context keeps
    calls = []
    real = clab.cli.maximal_resolution
    monkeypatch.setattr(clab.cli, "maximal_resolution",
                        lambda N2: calls.append(N2) or real(N2))
    _context.cache_clear()
    for seed in range(3):
        code, _, _ = run_cli(capsys, "--n", "7", "--gens", "1,3", "moduli",
                             "--seed", str(seed))
        assert code == 0
    assert len(calls) == 1


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "--n", "2", "--gens", "bogus", "group")
    assert code == 2
    assert "error" in err


def test_svg_and_dot_deterministic(capsys):
    code1, svg1, _ = run_cli(capsys, "--n", "8", "--gens", "1,3", "maxres",
                             "--format", "svg")
    code2, svg2, _ = run_cli(capsys, "--n", "8", "--gens", "1,3", "maxres",
                             "--format", "svg")
    assert code1 == code2 == 0
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    code3, dot, _ = run_cli(capsys, "--n", "8", "--gens", "1,3", "triangulate",
                            "--format", "dot")
    assert code3 == 0
    assert dot.startswith("graph triangulation")


def test_config_replay_byte_identical(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--n", "3", "--gens", "1,1", "verify",
                           "--samples", "5", "--budget", "20",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload["config"]))
    code2, out2, _ = run_cli(capsys, "--config", str(cfg_path))
    assert code2 == 0
    a, b = json.loads(out), json.loads(out2)
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--n", "2", "--gens", "1,1", "verify",
                           "--samples", "5", "--budget", "20",
                           "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["verdict"] == "pass"


def test_missing_config_is_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--config", str(tmp_path / "none.json"))
    assert code == 2
    assert out == ""
    assert "cannot read config" in err and "none.json" in err


def _replay(tmp_path, capsys, obj):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(obj))
    return run_cli(capsys, "--config", str(cfg_path))


def test_config_without_command_is_usage_error(tmp_path, capsys):
    code, out, err = _replay(tmp_path, capsys, {"n": 3, "gens": [[1, 1]]})
    assert code == 2
    assert out == ""
    assert "bad config" in err and "command" in err
    code, out, err = _replay(tmp_path, capsys, ["group", 3])
    assert code == 2
    assert "a config must be a JSON object" in err


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    code, out, err = _replay(tmp_path, capsys,
                             {"command": "group", "n": 3, "colour": "red"})
    assert code == 2
    assert out == ""
    assert "bad config" in err and "colour" in err


def test_config_format_checked_against_choices(tmp_path, capsys):
    code, out, err = _replay(tmp_path, capsys,
                             {"command": "group", "n": 3, "format": "xml"})
    assert code == 2
    assert out == ""
    assert "format 'xml'" in err


@pytest.mark.parametrize("key,value", [
    ("n", "abc"), ("n", True), ("seed", "x"), ("samples", "x"),
    ("budget", 1.5), ("gens", [[1, "1"]]), ("gens", [[1, 1, 1]]),
    ("resolution", 3), ("command", 7), ("out", 5), ("theta", "1,2,-3"),
    ("theta", [1.5, 1, -2.5]), ("theta", [[1], 2, -3]),
])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, key, value):
    obj = {"command": "verify", "n": 3, "gens": [[1, 1]], key: value}
    code, out, err = _replay(tmp_path, capsys, obj)
    assert code == 2
    assert out == ""
    assert f"bad config: {key} must be" in err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "--n", "3", "--gens", "1,1", "group",
                             "--out", str(target))
    assert code == 2
    assert out == ""
    assert "cannot write output" in err and "report.json" in err
    assert not target.exists()


def test_verify_same_under_python_O():
    # `python -O` strips asserts: every check must be an explicit raise, and
    # the report must not depend on one
    src = str(Path(clab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys; from clab.cli import main; sys.exit(main(sys.argv[1:]))"
    runs = {"verify": ["--n", "7", "--gens", "1,3"],
            "resolutions": ["--n", "18", "--gens", "1,5;0,9"],
            "triangulate": ["--n", "18", "--gens", "1,5;0,9",
                            "--resolution", "36"]}
    plain = {}
    for command, argv in runs.items():
        reports = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-c", code, *argv, command,
                 "--format", "json"],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            body = json.loads(proc.stdout)
            body.pop("generated_at")
            reports.append(body)
        assert reports[0] == reports[1], command
        plain[command] = reports[0]
    assert plain["verify"]["verdict"] == "pass"
    assert plain["resolutions"]["count"] == 72
    tri = plain["triangulate"]
    assert tri["basic"] and tri["regular"] and tri["amp_restriction_surjective"]


def _triangulate_cases():
    return {label: argv for label, argv in golden_cases().items()
            if label.startswith("triangulate ")}


def test_triangulate_replies_same_cold_and_warm():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = _triangulate_cases()
    assert len(cases) == 54
    for label, argv in cases.items():
        _context.cache_clear()
        cold = digest(argv)
        assert digest(argv) == cold == expected[label], label


def test_presentations_of_one_group_share_a_context(capsys):
    # 1/8(3,1) is 1/8(1,3): (3, 1) = 3 * (1, 3) mod 8
    _context.cache_clear()
    replies = {}
    for gens in ("1,3", "3,1"):
        code, out, _ = run_cli(capsys, "--n", "8", "--gens", gens,
                               "triangulate", "--resolution", "0",
                               "--format", "json")
        assert code == 0
        replies[gens] = json.loads(out)
    info = _context.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    assert replies["1,3"]["action"]["gens"] == [[1, 3]]
    assert replies["3,1"]["action"]["gens"] == [[3, 1]]
    for key in ("resolution", "triangulation", "svg", "dot"):
        assert replies["1,3"][key] == replies["3,1"][key], key


def test_repeated_request_builds_no_group_state(capsys, monkeypatch):
    calls = []
    for name in ("build_N2", "build_junior", "AdmissibleSequences"):
        real = getattr(clab.cli, name)

        def counted(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(clab.cli, name, counted)
    argv = ("--n", "30", "--gens", "1,11", "triangulate", "--resolution", "7",
            "--format", "json")
    _context.cache_clear()
    first = run_cli(capsys, *argv)
    assert sorted(calls) == ["AdmissibleSequences", "build_N2",
                             "build_junior"]
    calls.clear()
    second = run_cli(capsys, *argv)
    assert calls == []
    assert first[0] == second[0] == 0


def test_repeated_verify_rescans_no_resolution(capsys, monkeypatch):
    # a verify request after the first reads the maximal resolution and the
    # admissible sequences the context keeps
    calls = []
    for name in ("_minimal_rays", "_maximal_rays"):
        real = getattr(clab.surface, name)
        monkeypatch.setattr(clab.surface, name, lambda N2, name=name,
                            real=real: calls.append(name) or real(N2))
    argv = ("--n", "4", "--gens", "1,1;2,0", "verify", "--samples", "5",
            "--format", "json")
    _context.cache_clear()
    first = run_cli(capsys, *argv)
    assert calls
    calls.clear()
    second = run_cli(capsys, *argv)
    assert calls == []
    assert first[0] == second[0] == 0
    replies = [json.loads(out) for _, out, _ in (first, second)]
    for body in replies:
        body.pop("generated_at")
    assert replies[0] == replies[1]
    want = verify_main_theorem(
        build_mckay_quiver(build_action(4, [(1, 1), (2, 0)])), samples=5,
        budget=10000).to_json()
    assert {key: replies[0][key] for key in want} == want
    assert len(want["realizations"]) == 4


def test_moduli_and_verify_share_the_context_quiver(capsys, monkeypatch):
    # 1/8(3,1) is 1/8(1,3); the quiver the context keeps carries the first
    # presentation, and each reply still names its own
    calls = []
    real = clab.cli.build_mckay_quiver
    monkeypatch.setattr(clab.cli, "build_mckay_quiver",
                        lambda A: calls.append(A) or real(A))
    _context.cache_clear()
    replies = {}
    for gens in ("1,3", "3,1"):
        for command in ("moduli", "verify"):
            code, out, _ = run_cli(capsys, "--n", "8", "--gens", gens,
                                   command, "--samples", "5", "--seed", "2",
                                   "--format", "json")
            assert code == 0
            body = json.loads(out)
            body.pop("generated_at")
            body.pop("config")
            assert body.pop("action")["gens"] == [[int(g) for g in
                                                   gens.split(",")]]
            replies[gens, command] = body
    assert len(calls) == 1
    for command in ("moduli", "verify"):
        assert replies["1,3", command] == replies["3,1", command], command


def test_repeated_boundary_requests_reuse_their_resolutions(capsys,
                                                          monkeypatch):
    calls = []
    for name in ("minimal_resolution", "maximal_resolution"):
        real = getattr(clab.cli, name)
        monkeypatch.setattr(clab.cli, name, lambda N2, name=name, real=real:
                            calls.append(name) or real(N2))
    requests = [("triangulate", "--resolution", "min"),
                ("triangulate", "--resolution", "max"), ("minres",),
                ("maxres",)]
    _context.cache_clear()
    first = [run_cli(capsys, "--n", "30", "--gens", "1,11", *r)
             for r in requests]
    assert sorted(calls) == ["maximal_resolution", "minimal_resolution"]
    calls.clear()
    second = [run_cli(capsys, "--n", "30", "--gens", "1,11", *r)
              for r in requests]
    assert calls == []
    assert first == second and all(code == 0 for code, _, _ in first)


def test_context_serves_a_large_group_from_per_gap_parts(capsys):
    # 1/84(1,41) has 2^20 admissible resolutions; the first is the minimal
    # one, the last the maximal one, and the context keeps the 42 parts of
    # its gaps with their counts, not the sequences
    A = build_action(84, [(1, 41)])
    _context.cache_clear()
    replies = {}
    for sel in ("0", "-1", "min", "max"):
        code, out, _ = run_cli(capsys, "--n", "84", "--gens", "1,41",
                               "triangulate", "--resolution", sel,
                               "--format", "json")
        assert code == 0
        body = json.loads(out)
        replies[sel] = body["resolution"], body["triangulation"]
    assert replies["0"] == replies["min"]
    assert replies["-1"] == replies["max"]
    admissible = _context(A).admissible
    assert len(admissible) == 2 ** 20
    assert vars(admissible).keys() == {"first", "parts", "counts", "_len"}
    assert sum(map(len, admissible.parts)) == 42


def test_moduli_leaves_stable_cache_unchanged(capsys):
    # the fixed points are the stable set the fan is cut from; no request
    # goes through the enumerate_fixed_stable cache
    before = enumerate_fixed_stable.cache_info()
    for seed in range(20):
        code, _, _ = run_cli(capsys, "--n", "7", "--gens", "1,3", "moduli",
                             "--seed", str(seed), "--format", "json")
        assert code == 0
    assert enumerate_fixed_stable.cache_info() == before


def test_reply_encoder_matches_json_dumps(capsys):
    # every JSON reply of the golden sweep, then the corners of each type
    replies = 0
    for argv in golden_cases().values():
        if "--format" in argv:
            continue
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        if code != 2:
            replies += 1
            assert out == json.dumps(json.loads(out), sort_keys=True,
                                     indent=2) + "\n"
    assert replies > 100
    odd = {"b": [], "a": {}, "\u00e9\n\"\\": ["\u00fc\u2603", -3, True, False,
                                              None, (1, [2, ()])],
           "": [{"x": 0, "X": ""}]}
    assert _json(odd) == json.dumps(odd, sort_keys=True, indent=2)
    for bad in (1.5, {1: 2}, {"a": {1, 2}}, [b"x"], [1.5]):
        with pytest.raises(TypeError):
            _json(bad)
