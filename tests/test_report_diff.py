"""The float ledger of tools/report_diff.py on hand-made pairs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_SPEC = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)


def _ledger(x, y):
    return report_diff.ledger("f.stdout", json.dumps(x).encode(),
                              json.dumps(y).encode())


def test_a_one_ulp_move_is_a_float_move():
    x = 0.1
    y = math.nextafter(x, 1.0)
    assert list(report_diff.walk({"v": [x]}, {"v": [y]})) == [
        ("float", "$.v[0]", x, y)]
    lines, structural = _ledger({"v": [x, 2.0]}, {"v": [y, 2.0]})
    assert not structural
    assert lines == ["f.stdout: 1 floats moved, largest %.2g relative, "
                     "1 ulps" % ((y - x) / y)]


def test_a_flipped_pass_is_structural():
    diffs = list(report_diff.walk({"pass": True, "margins": [0.5]},
                                  {"pass": False, "margins": [0.5]}))
    assert diffs == [("structural", "$.pass", "true against false")]
    assert _ledger({"pass": True}, {"pass": False})[1]


def test_a_moved_count_is_structural():
    # JSON integers are counts: any change is structural, not a float move
    diffs = list(report_diff.walk({"violations": 0}, {"violations": 1}))
    assert diffs == [("structural", "$.violations", "0 against 1")]


def test_an_added_key_is_structural():
    diffs = list(report_diff.walk({"a": 1.0}, {"a": 1.0, "b": 2.0}))
    assert diffs == [("structural", "$", "keys [] against ['b']")]
    assert list(report_diff.walk([1.0], [1.0, 2.0])) == [
        ("structural", "$", "1 items against 2")]


def test_nan_against_nan_is_no_move():
    x = {"worst_margin": math.nan, "sides": [math.nan, 1.0]}
    text = json.dumps(x).encode()
    assert list(report_diff.walk(json.loads(text), json.loads(text))) == []
    assert report_diff.ledger("f", text, b" " + text) == ([], False)
    # a number that becomes NaN is no measurable move
    assert list(report_diff.walk(1.0, math.nan)) == [
        ("structural", "$", "1.0 against nan")]


def test_negative_zero_against_zero_moves_zero_ulps():
    assert list(report_diff.walk(-0.0, 0.0)) == [("float", "$", -0.0, 0.0)]
    lines, structural = _ledger([-0.0], [0.0])
    assert not structural
    assert lines == ["f.stdout: 1 floats moved, largest 0 relative, 0 ulps"]
    # the ordinals straddle zero: the smallest subnormals are 2 ulps apart
    tiny = 5e-324
    assert report_diff._ordinal(tiny) - report_diff._ordinal(-tiny) == 2


def test_a_switched_worst_instance_lists_both_margins():
    def summary(margin, y, side):
        return {"worst_margin": margin, "violations": 0,
                "worst_instance": {"instance": {"y": y},
                                   "sides": [["mid", side]]}}

    lines, structural = _ledger([summary(-8.9e-16, 0.3, 1.0)],
                                [summary(-1.3e-15, 0.4, 2.0)])
    # the switched row's sides are another row's and are not walked
    assert lines == ["f.stdout: worst_instance switched at $[0], "
                     "worst_margin -8.9e-16 -> -1.3e-15"]
    assert not structural
    # the same instance with moved sides is a float move
    lines, _ = _ledger([summary(-8.9e-16, 0.3, 1.0)],
                       [summary(-8.9e-16, 0.3, math.nextafter(1.0, 2.0))])
    assert lines[0].startswith("f.stdout: 1 floats moved")


@pytest.mark.parametrize("x, y", [(b"digest a\n", b"digest b\n"),
                                  (b"1\n", b"2\n")])
def test_other_differences_are_structural(x, y):
    # output that is not JSON, exit codes and stderr
    lines, structural = report_diff.ledger("f.exit", x, y)
    assert structural and len(lines) == 1


def test_the_two_sides_run_under_fixed_hash_seeds(monkeypatch, tmp_path):
    # the parent export and the working tree differ in PYTHONHASHSEED, so
    # `--parent HEAD` compares one code under two string-hash seeds
    seeds = []

    def run(argv, cwd, env, capture_output):
        seeds.append((cwd, env["PYTHONHASHSEED"]))
        return report_diff.subprocess.CompletedProcess(argv, 0, b"", b"")

    parent, tree = tmp_path / "parent", tmp_path / "tree"
    parent.mkdir()
    tree.mkdir()
    monkeypatch.setattr(report_diff, "ROOT", tree)
    monkeypatch.setattr(report_diff.subprocess, "run", run)
    for checkout in (parent, tree):
        report_diff._write_reports(checkout)
    n = len(report_diff._commands())
    assert seeds == [(parent, "1")] * n + [(tree, "2")] * n
    # the set holds the searches of two and three chunks on the
    # half-plane and the products, E for h = identity and two lone
    # fractional integrals
    cli = ["-c", report_diff.CLI]
    verify = cli + ["verify", "--suite", "all", "--space"]
    added = [verify + [s, "--trials", t, "--seed", "1"]
             for s, t in (("halfplane", "130"),
                          ("product(euclidean2,spider3)", "130"),
                          ("product(euclidean2,halfplane)", "70"),
                          ("product(euclidean2,spider3)", "70"))]
    added += [cli + ["constants", "--which", "E", "--h", "identity"],
              cli + ["fracint", "--op", "katugampola-left", "--f", "t^2",
                     "--alpha", "0.5", "--rho", "2", "--a", "0", "--x", "1"],
              cli + ["fracint", "--op", "rl-right", "--f", "t^(1/4)",
                     "--alpha", "0.25", "--x", "0", "--b", "1"]]
    argvs = [argv for _, argv in report_diff._commands()]
    assert all(argv in argvs for argv in added)
