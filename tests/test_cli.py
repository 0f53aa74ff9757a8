"""Command-line interface tests: exit codes, schemas, determinism."""

import contextlib
import io
import json
import math
import subprocess
import sys

import pytest

from geofrac.chains import TheoremParams, thm_ty1
from geofrac.cli import main, parse_space
from geofrac.convexity import squared_distance_function
from geofrac.errors import DomainError
from geofrac.spaces import Geodesic, euclidean, half_plane, product, spider


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _json(argv):
    code, out, err = _run(argv)
    assert out, "no output (stderr: %r)" % err
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# space selectors
# ---------------------------------------------------------------------------


def test_parse_space_forms():
    assert parse_space("euclidean2") == euclidean(2)
    assert parse_space("euclidean(3)") == euclidean(3)
    assert parse_space("halfplane") == half_plane()
    assert parse_space("half_plane") == half_plane()
    assert parse_space("SPIDER3") == spider(3)
    assert parse_space("spider(4)") == spider(4)
    assert (parse_space("product(euclidean(2), spider3)")
            == product(euclidean(2), spider(3)))
    nested = parse_space("product(product(euclidean1,halfplane),spider(3))")
    assert nested == product(product(euclidean(1), half_plane()), spider(3))


@pytest.mark.parametrize("bad", [
    "klein", "euclidean", "euclidean0", "euclidean99", "spider1",
    "product(euclidean2)", "product(euclidean2,spider3,spider4)",
    "product(euclidean2", "hyperbolic3", "euclidean(2", "spider3)",
    # a factor list that closes before it opens, or never closes
    "product(euclidean2),spider3)", "product((euclidean2,spider3)",
])
def test_parse_space_rejects(bad):
    with pytest.raises(DomainError):
        parse_space(bad)


# ---------------------------------------------------------------------------
# fracint
# ---------------------------------------------------------------------------


def test_fracint_katugampola_closed_form():
    code, payload = _json(["fracint", "--op", "katugampola-left",
                           "--alpha", "0.5", "--rho", "2",
                           "--a", "0", "--x", "1", "--f", "1"])
    assert code == 0
    expected = math.sqrt(0.5) / math.gamma(1.5)
    assert payload["value"] == pytest.approx(expected, rel=1e-9)
    assert payload["schema"] == 1
    assert payload["error_estimate"] >= 0.0


def test_fracint_rl_polynomial():
    code, payload = _json(["fracint", "--op", "rl-left", "--alpha", "1",
                           "--f", "t^2", "--a", "0", "--x", "1"])
    assert code == 0
    assert payload["value"] == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_fracint_hadamard():
    code, payload = _json(["fracint", "--op", "hadamard-left",
                           "--alpha", "1", "--f", "1",
                           "--a", "1", "--x", str(math.e)])
    assert code == 0
    assert payload["value"] == pytest.approx(1.0, rel=1e-9)


def test_fracint_right_operator():
    code, payload = _json(["fracint", "--op", "rl-right", "--alpha", "1",
                           "--f", "t^2", "--x", "0", "--b", "1"])
    assert code == 0
    assert payload["value"] == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_fracint_csv_row():
    code, out, _ = _run(["fracint", "--op", "rl-left", "--alpha", "1",
                         "--f", "t", "--a", "0", "--x", "1",
                         "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("schema,op,f,alpha")
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "rl-left"


@pytest.mark.parametrize("argv", [
    ["fracint", "--op", "rl-left", "--alpha", "1", "--f", "t^^2",
     "--a", "0", "--x", "1"],
    ["fracint", "--op", "rl-left", "--alpha", "1", "--f", "t"],
    ["fracint", "--op", "rl-left", "--alpha", "1", "--f", "t",
     "--a", "0", "--x", "1", "--b", "2"],
    ["fracint", "--op", "rl-left", "--alpha", "1", "--f", "t",
     "--a", "0", "--x", "1", "--rho", "2"],
    ["fracint", "--op", "katugampola-right", "--alpha", "1", "--f", "t",
     "--a", "0", "--x", "1"],
    ["fracint", "--op", "warp", "--alpha", "1", "--f", "t",
     "--a", "0", "--x", "1"],
    ["fracint", "--op", "rl-left", "--alpha", "1", "--f", "t",
     "--a", "0", "--x", "1", "--tol", "0"],
    ["fracint", "--op", "rl-left", "--alpha", "1", "--f", "t",
     "--a", "0", "--x", "1", "--tol", "nan"],
    ["fracint", "--op", "rl-left", "--alpha", "1", "--f", "t",
     "--a", "0", "--x", "1", "--tol", "inf"],
    # fracint checks nothing, so it takes no tolerance at all
    ["fracint", "--op", "rl-left", "--alpha", "1", "--f", "t",
     "--a", "0", "--x", "1", "--tol", "1e-3"],
])
def test_fracint_usage_errors(argv):
    code, _, _ = _run(argv)
    assert code == 2


def test_fracint_lost_accuracy_exits_one():
    # the right Riemann-Liouville integral of 1/t at 0 diverges: one error
    # line, no traceback and no report
    code, out, err = _run(["fracint", "--op", "rl-right", "--f", "t^-1",
                           "--alpha", "0.5", "--x", "0", "--b", "1"])
    assert code == 1 and out == ""
    assert err.startswith("error: quadrature did not converge")
    assert err.count("\n") == 1 and "Traceback" not in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_unknown_space_is_usage_error():
    code, _, err = _run(["verify", "--space", "klein"])
    assert code == 2
    assert "klein" in err


def test_verify_unknown_suite_is_usage_error():
    code, _, _ = _run(["verify", "--suite", "nonsense", "--trials", "0"])
    assert code == 2


def test_verify_negative_trials_is_usage_error():
    code, _, _ = _run(["verify", "--suite", "regression", "--trials", "-1"])
    assert code == 2


def test_verify_negative_seed_is_usage_error():
    code, out, err = _run(["verify", "--suite", "classic_hh", "--trials",
                           "1", "--seed", "-1"])
    assert code == 2
    assert out == ""
    assert "seed" in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["0", "nan", "inf"])
def test_verify_tol_must_be_positive_and_finite(tol):
    code, out, err = _run(["verify", "--suite", "regression", "--tol", tol])
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_verify_corollary_zero_trials_empty_summary():
    code, payload = _json(["verify", "--suite", "corollary",
                           "--space", "halfplane", "--trials", "0"])
    assert code == 0
    assert payload["pass"] is True
    assert payload["violations"] == 0
    summary = payload["falsify"][0]
    assert summary["chain"] == "corollary_distance"
    assert summary["evaluated"] == 0
    assert summary["worst_margin"] is None
    names = [r["name"] for r in payload["regression"]]
    assert names == ["corollary_parallel", "corollary_identical"]


def test_verify_regression_suite_all_green():
    code, payload = _json(["verify", "--suite", "regression",
                           "--trials", "0"])
    assert code == 0
    assert payload["falsify"] == []
    assert len(payload["regression"]) == 10
    assert all(r["report"]["pass"] for r in payload["regression"])
    assert "discrepancy" not in payload


def test_verify_suite_all_emits_discrepancy():
    code, payload = _json(["verify", "--suite", "all", "--trials", "5",
                           "--seed", "42"])
    assert code == 0
    disc = payload["discrepancy"]
    assert set(disc) == {"cb2_normalization", "corollary_c_term"}
    cb2 = disc["cb2_normalization"]
    assert cb2["literal_minus_canonical"] == pytest.approx(0.25, abs=1e-9)
    cor = disc["corollary_c_term"]
    assert cor["difference_form_side"] == pytest.approx(4.0 / 3.0,
                                                        rel=1e-9)
    assert cor["product_form_side"] < cor["operator_side"]
    assert cor["product_form_search"]["trials"] == 5
    assert len(payload["falsify"]) == 7


def test_verify_single_chain_suite():
    code, payload = _json(["verify", "--suite", "conde_hh",
                           "--trials", "10", "--seed", "1"])
    assert code == 0
    assert [s["chain"] for s in payload["falsify"]] == ["conde_hh"]
    assert [r["name"] for r in payload["regression"]] == ["conde_halfplane"]


def test_verify_deterministic_bytes(tmp_path):
    args = ["verify", "--suite", "all", "--trials", "10", "--seed", "3",
            "--space", "spider3"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_out_file_keeps_stdout_clean(tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = _run(["verify", "--suite", "regression", "--trials", "0",
                         "--out", str(path)])
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1


def test_verify_unwritable_out_is_usage_error(tmp_path):
    path = tmp_path / "missing" / "report.json"
    code, out, err = _run(["verify", "--suite", "regression", "--out",
                           str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not path.exists()


def test_verify_csv_sections():
    code, out, _ = _run(["verify", "--suite", "all", "--trials", "5",
                         "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",")[:4] == ["schema", "section", "name", "chain"]
    sections = {line.split(",")[1] for line in lines[1:]}
    assert sections == {"falsify", "regression", "discrepancy"}
    # 7 falsify + 10 regression + 2 discrepancy + header
    assert len(lines) == 20


def test_verify_violation_exit_code(monkeypatch):
    import geofrac.cli as cli_mod

    def fake_search(chain, space, trials, seed=0, tol=1e-8, **kw):
        return {"chain": chain, "space": space.name, "trials": trials,
                "seed": seed, "tol": tol, "evaluated": trials,
                "discarded": 0, "quadrature_failures": 0, "violations": 1,
                "worst_margin": -1.0, "worst_instance": None}

    monkeypatch.setattr(cli_mod, "falsify_search", fake_search)
    code, out, _ = _run(["verify", "--suite", "conde_hh", "--trials", "1"])
    assert code == 1
    assert json.loads(out)["pass"] is False


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_ty1_grid_csv():
    code, out, _ = _run(["sweep", "thm_ty1", "--alphas", "0.5,1,2",
                         "--rhos", "1,2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    header = lines[0].split(",")
    assert header == ["schema", "chain", "space", "h", "alpha", "rho", "a",
                      "b", "q", "side1", "side2", "side3", "side4",
                      "margin1", "margin2", "margin3", "pass"]
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "1"
        assert cells[-1] == "true"
        # three-sided chain leaves side4 and margin3 blank
        assert cells[12] == "" and cells[15] == ""


def test_sweep_json_rows():
    code, payload = _json(["sweep", "conde_hh"])
    assert code == 0
    assert payload["command"] == "sweep"
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["pass"] is True
    assert payload["h"] is None


def test_sweep_violation_exits_one():
    # t^3 < t on (0, 1), so d(., y)^2 is not h-convex for h = t^3, and the
    # h-Hermite-Hadamard chain fails on both of its margins
    argv = ["sweep", "h_hh", "--h", "power(3)", "--alphas", "1"]
    code, payload = _json(argv)
    assert code == 1
    assert payload["violations"] == 1 and payload["pass"] is False
    (row,) = payload["rows"]
    assert row["pass"] is False
    assert row["margins"] == [pytest.approx(-4.0 / 3.0),
                              pytest.approx(-1.0 / 6.0)]
    code, out, _ = _run(argv + ["--format", "csv"])
    assert code == 1
    assert out.splitlines()[1].split(",")[-1] == "false"


def test_sweep_on_the_half_plane_fixed_instance():
    # sweep's half-plane instance: the geodesic from (-1, 1) to (1, 1) and
    # f = d(., (0, 1))^2
    code, payload = _json(["sweep", "thm_ty1", "--space", "halfplane"])
    assert code == 0 and payload["space"] == "half_plane"
    hp = half_plane()
    want = thm_ty1(squared_distance_function(hp, hp.point(0.0, 1.0)),
                   Geodesic(hp.point(-1.0, 1.0), hp.point(1.0, 1.0)),
                   "identity", TheoremParams(1.0, 1.0, 0.0, 1.0)).to_dict()
    (row,) = payload["rows"]
    assert [v for _, v in row["sides"]] == [v for _, v in want["sides"]]
    assert row["pass"] is True


def test_sweep_corollary_on_product_space():
    code, payload = _json(["sweep", "corollary",
                           "--space", "product(euclidean(2),spider3)",
                           "--alphas", "1", "--rhos", "1,2"])
    assert code == 0
    assert payload["chain"] == "corollary_distance"
    assert len(payload["rows"]) == 2
    assert all(r["pass"] for r in payload["rows"])
    assert all(len(r["sides"]) == 4 for r in payload["rows"])


def test_sweep_cb1_records_q():
    code, payload = _json(["sweep", "thm_cb1", "--alphas", "1,2",
                           "--q", "3"])
    assert code == 0
    assert all(r["q"] == 3.0 for r in payload["rows"])


def test_sweep_empty_grid_is_usage_error():
    code, _, _ = _run(["sweep", "thm_ty1", "--alphas", ""])
    assert code == 2


def test_sweep_grid_entry_not_a_number_is_usage_error():
    code, out, err = _run(["sweep", "thm_ty1", "--alphas", "1,x"])
    assert code == 2 and out == ""
    assert err == "error: --alphas: not a number: 'x'\n"


def test_sweep_bad_interval_is_usage_error():
    for argv in (["thm_ty1", "--a-values", "0.9", "--b-values", "0.5"],
                 # a < b, but (b^rho - a^rho)^alpha underflows to 0
                 ["thm_cb2", "--alphas", "3", "--a-values", "0",
                  "--b-values", "1e-110"],
                 # a < b, but b^rho rounds onto a^rho
                 ["thm_ty1", "--rhos", "0.5", "--a-values", "0.5",
                  "--b-values", "0.5000000000000001"]):
        code, _, err = _run(["sweep", *argv])
        assert code == 2, argv
        assert err.startswith("error: ") and "Traceback" not in err, argv


@pytest.mark.parametrize("argv", [
    ["fracint", "--op", "rl-left", "--f", "t", "--alpha", "200", "--a", "0",
     "--x", "1"],
    ["fracint", "--op", "katugampola-right", "--f", "t", "--alpha", "0.5",
     "--rho", "2", "--x", "0", "--b", "1e200"],
    ["fracint", "--op", "katugampola-right", "--f", "t", "--alpha", "0.5",
     "--rho", "2", "--x", "1e200", "--b", "1e201"],
    ["sweep", "thm_cb2", "--alphas", "200"],
    ["sweep", "thm_ty1", "--alphas", "172"],
    ["sweep", "thm_cb1", "--alphas", "170.7"],
    ["sweep", "corollary_distance", "--alphas", "170.7"]],
    ids=lambda argv: " ".join(argv[:2] + argv[-4:]))
def test_overflow_is_usage_error(argv):
    # Gamma(alpha) past alpha ~ 171.6, Gamma(alpha + 1) of a chain's
    # operator side past alpha ~ 170.6, and x ** rho or b ** rho past the
    # double range: one error line naming the overflowing term, no
    # traceback
    code, out, err = _run(argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "overflows" in err and "Traceback" not in err


def test_large_alpha_without_gamma_still_runs():
    # the constants need no Gamma, and alpha = 170.5 keeps Gamma(alpha + 1)
    # finite: neither is refused
    assert _json(["constants", "--alphas", "200"])[0] == 0
    code, payload = _json(["sweep", "thm_cb1", "--alphas", "170.5"])
    assert code == 0 and payload["pass"]


def test_sweep_incompatible_holder_exponent_is_usage_error():
    # alpha q <= 1 has no Holder bound to state
    code, _, _ = _run(["sweep", "thm_cb1", "--alphas", "0.25", "--q", "2"])
    assert code == 2


def test_sweep_unknown_chain_is_usage_error():
    code, _, _ = _run(["sweep", "warp_drive"])
    assert code == 2


def test_sweep_deterministic_bytes(tmp_path):
    args = ["sweep", "thm_cb2", "--alphas", "0.5,1", "--rhos", "1,2",
            "--format", "csv"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_default_grid_green():
    code, payload = _json(["constants"])
    assert code == 0
    c_rows = [r for r in payload["rows"] if r["constant"] == "C"]
    e_rows = [r for r in payload["rows"] if r["constant"] == "E"]
    # 4 alphas x 3 rhos x 3 a x 2 b
    assert len(c_rows) == len(e_rows) == 72
    assert all(r["value"] >= 0 for r in c_rows)
    assert all(r["abs_error"] <= 1e-8 for r in c_rows)
    # default h is constant_one, whose closed form doubles the kernel mass
    assert all(r["abs_error"] <= 1e-8 for r in e_rows)


def test_constants_identity_e_rows_are_checked():
    # h = identity: h(b^rho - w) + h(1 - b^rho + w) = 1, so E = W^alpha / 2
    code, payload = _json(["constants", "--which", "E", "--h", "identity"])
    assert code == 0 and payload["pass"] and payload["failures"] == 0
    assert len(payload["rows"]) == 72
    for r in payload["rows"]:
        want = 0.5 * (r["b"] ** r["rho"] - r["a"] ** r["rho"]) ** r["alpha"]
        assert r["oracle"] == want
        assert r["abs_error"] == abs(r["value"] - want) <= 1e-14
        assert r["pass"] is True
    # a weight without a closed form still reports no oracle
    code, payload = _json(["constants", "--which", "E", "--h", "power(0.5)",
                           "--alphas", "1", "--rhos", "1"])
    assert code == 0
    assert all(r["oracle"] is None and r["abs_error"] is None
               for r in payload["rows"])


def test_constants_spot_values():
    code, payload = _json(["constants", "--which", "C", "--alphas", "1,2",
                           "--rhos", "1", "--a-values", "0",
                           "--b-values", "1"])
    assert code == 0
    vals = {r["alpha"]: r["value"] for r in payload["rows"]}
    assert vals[1.0] == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert vals[2.0] == pytest.approx(1.0 / 6.0, abs=1e-10)


def test_constants_csv_shape():
    code, out, _ = _run(["constants", "--which", "C", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("schema,constant,h,alpha,rho,a,b,value,oracle,"
                        "abs_error,pass")
    assert len(lines) == 73


def test_constants_bad_interval_is_usage_error():
    code, _, _ = _run(["constants", "--a-values", "0.9",
                       "--b-values", "0.5,1"])
    assert code == 2


def test_constants_failure_exit_code(monkeypatch):
    import geofrac.cli as cli_mod
    monkeypatch.setattr(cli_mod, "compute_C",
                        lambda alpha, rho, a, b, **kw: -1.0)
    code, out, _ = _run(["constants", "--which", "C", "--alphas", "1",
                         "--rhos", "1", "--a-values", "0",
                         "--b-values", "1"])
    assert code == 1
    assert json.loads(out)["pass"] is False


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_no_arguments_is_usage_error():
    code, _, _ = _run([])
    assert code == 2


def test_help_exits_zero():
    code, out, _ = _run(["--help"])
    assert code == 0
    assert "verify" in out and "fracint" in out


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "geofrac.cli", "fracint", "--op", "rl-left",
         "--alpha", "1", "--f", "t", "--a", "0", "--x", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(0.5, rel=1e-9)


def test_main_calls_in_one_process_match_fresh_processes():
    # main builds its parser once per process: a sequence of calls in this
    # one, a usage error among them, gives every call the exit code and
    # the bytes of a fresh process
    verify = ["verify", "--suite", "thm_cb2", "--space", "halfplane",
              "--trials", "4", "--seed", "3"]
    calls = [verify, ["verify", "--trials", "many"],
             ["fracint", "--op", "rl-left", "--f", "t^2", "--alpha", "0.5",
              "--a", "0", "--x", "1"], verify]
    in_process = [_run(argv) for argv in calls]
    assert [r[0] for r in in_process] == [0, 2, 0, 0]
    fresh = {}
    for argv in calls:
        if tuple(argv) not in fresh:
            proc = subprocess.run([sys.executable, "-m", "geofrac.cli",
                                   *argv], capture_output=True, text=True)
            fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    for argv, got in zip(calls, in_process):
        assert got == fresh[tuple(argv)], argv
