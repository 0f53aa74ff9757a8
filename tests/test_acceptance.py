"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
verdict line (PASS/FAIL) so the whole gate can be read off the console.
The falsification grid is computed once and shared between criteria.
"""

import json
import math

import numpy as np
import pytest

from geofrac import (CHAIN_NAMES, Geodesic, TheoremParams,
                     check_convex, check_h_convex, classic_hh, compute_C,
                     compute_C_oracle, corollary_distance, distance,
                     distance_between_geodesics_function, euclidean,
                     falsify_search, h_hh, hadamard_left, hadamard_right,
                     half_plane, katugampola_left, katugampola_right,
                     product, random_geodesic, random_point, rl_left,
                     rl_right, sample_points, scalar_pullback, spider,
                     squared_distance_function, thm_cb1, thm_cb2, thm_ty1)
from geofrac.cli import main as cli_main
from geofrac.quadrature import REL_TOL
from geofrac.spaces import (busemann_gap_batch, cn_gap_batch,
                            comparison_gap_batch, four_point_gap_batch,
                            sturm_gap_batch)

MODEL_SPACES = (euclidean(2), half_plane(), spider(3),
                product(euclidean(2), half_plane()))
ALPHAS = (0.25, 0.5, 1.0, 1.5, 2.5)
RHOS = (0.5, 1.0, 2.0)
GAP_TOL = 1e-9
CHAIN_TOL = 1e-8
# 10^3 trials per chain and space, split across the three seeds
SEED_SLICES = ((1, 334), (2, 333), (3, 333))


def _unit(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _verdict(capsys, num, label, failures, note=""):
    ok = not failures
    line = "criterion %d: %-38s %s" % (num, label, "PASS" if ok else "FAIL")
    if note:
        line += "  (%s)" % note
    with capsys.disabled():
        print("\n" + line, flush=True)
    assert ok, "criterion %d: %s" % (num, failures[:5])


@pytest.fixture(scope="module")
def falsify_grid():
    grid = {}
    for space in MODEL_SPACES:
        for chain in CHAIN_NAMES:
            grid[(chain, space.name)] = [
                falsify_search(chain, space, n, seed=s, tol=CHAIN_TOL)
                for s, n in SEED_SLICES]
    return grid


# ---------------------------------------------------------------------------
# 1. fractional operators against closed forms
# ---------------------------------------------------------------------------


def test_criterion_1_operator_oracles(capsys):
    failures = []
    a, x = 0.25, 2.0
    ha, hx = 1.0, 2.5

    def check(tag, got, want, tol=1e-8):
        err = abs(got - want) / max(1.0, abs(want))
        if not err <= tol:
            failures.append("%s err %.3e" % (tag, err))

    for alpha in ALPHAS:
        gam = math.gamma(alpha + 1.0)
        check("rl_left a%.2f" % alpha,
              rl_left(_unit, alpha, a, x), (x - a) ** alpha / gam)
        check("rl_right a%.2f" % alpha,
              rl_right(_unit, alpha, a, x), (x - a) ** alpha / gam)
        check("hadamard_left a%.2f" % alpha,
              hadamard_left(_unit, alpha, ha, hx),
              math.log(hx / ha) ** alpha / gam)
        check("hadamard_right a%.2f" % alpha,
              hadamard_right(_unit, alpha, ha, hx),
              math.log(hx / ha) ** alpha / gam)
        for rho in RHOS:
            want = ((x ** rho - a ** rho) / rho) ** alpha / gam
            check("kat_left a%.2f r%g" % (alpha, rho),
                  katugampola_left(_unit, alpha, rho, a, x), want)
            check("kat_right a%.2f r%g" % (alpha, rho),
                  katugampola_right(_unit, alpha, rho, a, x), want)
        # rho = 1 collapses to Riemann-Liouville within quadrature tolerance
        check("reduction a%.2f" % alpha,
              katugampola_left(_unit, alpha, 1.0, a, x),
              rl_left(_unit, alpha, a, x), tol=REL_TOL)
        # rho -> 0 walks monotonically into the Hadamard value at x = e
        target = 1.0 / gam
        errs = [abs(katugampola_left(_unit, alpha, rho, 1.0, math.e) - target)
                for rho in (1e-1, 1e-2, 1e-3)]
        if not errs[0] > errs[1] > errs[2]:
            failures.append("hadamard limit a%.2f errs %s" % (alpha, errs))

    _verdict(capsys, 1, "fractional operator closed forms", failures)


# ---------------------------------------------------------------------------
# 2. geometry: axioms, constant speed, comparison gaps
# ---------------------------------------------------------------------------


def test_criterion_2_geometry_suite(capsys):
    failures = []
    n = 10_000
    for space in MODEL_SPACES:
        rng = np.random.default_rng(202)

        for i in range(n):
            xp, yp, zp = (random_point(space, rng) for _ in range(3))
            dxy, dyx = distance(xp, yp), distance(yp, xp)
            if distance(xp, xp) > 1e-12 or dxy < 0.0:
                failures.append("%s axiom identity #%d" % (space.name, i))
                break
            if abs(dxy - dyx) > GAP_TOL:
                failures.append("%s axiom symmetry #%d" % (space.name, i))
                break
            if distance(xp, zp) - dxy - distance(yp, zp) > GAP_TOL:
                failures.append("%s axiom triangle #%d" % (space.name, i))
                break

        ts = np.linspace(0.0, 1.0, 17)
        for i in range(250):
            g = random_geodesic(space, rng, min_length=1e-3)
            pts = [g.eval(t) for t in ts]
            steps = [distance(pts[j], pts[j + 1]) for j in range(16)]
            if not np.allclose(steps, g.length / 16.0,
                               atol=GAP_TOL * (1.0 + g.length)):
                failures.append("%s constant speed #%d" % (space.name, i))
                break

        A, B, C, D = (sample_points(space, n, rng) for _ in range(4))
        t = rng.uniform(0.0, 1.0, size=n)
        gaps = {"cn": cn_gap_batch(space, A, B, C),
                "busemann": busemann_gap_batch(space, A, B, C),
                "comparison": comparison_gap_batch(space, A, B, C, t),
                "four_point": four_point_gap_batch(space, A, B, C, D, t),
                "sturm": sturm_gap_batch(space, A, B, C, D, t)}
        for name, arr in gaps.items():
            worst = float(np.min(arr))
            if worst < -GAP_TOL:
                failures.append("%s %s gap %.3e" % (space.name, name, worst))
        if isinstance(space, type(euclidean(2))):
            for name in ("cn", "comparison"):
                peak = float(np.max(np.abs(gaps[name])))
                if peak > GAP_TOL:
                    failures.append("euclidean %s not flat: %.3e"
                                    % (name, peak))

    _verdict(capsys, 2, "geometry axioms and comparison gaps", failures)


# ---------------------------------------------------------------------------
# 3. h-convexity claims
# ---------------------------------------------------------------------------


def _power_claim(r, k):
    # convex powers (r outside (0,1)) stay h-convex for k <= 1; concave
    # powers only while k <= r
    if 0.0 < r < 1.0:
        return k <= r
    return k <= 1.0


def test_criterion_3_convexity_claims(capsys):
    failures = []
    for r in (-1.0, 0.25, 0.5, 1.0, 2.0, 3.0):
        for k in (0.25, 0.5, 1.0):
            lo = 1e-6 if r < 0 else 0.0
            f, g = scalar_pullback(lambda t, r=r: np.power(t, r),
                                   lo=lo, hi=1.0)
            got = check_h_convex(f, g, "power(%g)" % k).holds
            if got != _power_claim(r, k):
                failures.append("power r=%g k=%g got %s" % (r, k, got))

    for space in MODEL_SPACES:
        rng = np.random.default_rng(33)
        for i in range(1000):
            dfun = distance_between_geodesics_function(
                random_geodesic(space, rng), random_geodesic(space, rng))
            f, seg = scalar_pullback(dfun)
            if not check_convex(f, seg).holds:
                failures.append("%s geodesic pair #%d" % (space.name, i))

    _verdict(capsys, 3, "h-convexity claims", failures)


# ---------------------------------------------------------------------------
# 4. inequality chains: spot values and randomized falsification
# ---------------------------------------------------------------------------


def test_criterion_4_chains(capsys, falsify_grid):
    failures = []

    sides = [v for _, v in classic_hh(lambda t: t * t, 0.0, 1.0).sides]
    if not np.allclose(sides, [0.25, 1.0 / 3.0, 0.5], atol=CHAIN_TOL):
        failures.append("classic_hh sides %s" % sides)

    sides = [v for _, v in h_hh(np.sqrt, "power(0.5)", 0.0, 1.0).sides]
    if not np.allclose(sides, [0.5, 2.0 / 3.0, 2.0 / 3.0], atol=CHAIN_TOL):
        failures.append("h_hh sides %s" % sides)

    E2 = euclidean(2)
    seg = Geodesic(E2.point(0.0, 0.0), E2.point(1.0, 0.0))
    f_sq = squared_distance_function(E2, E2.point(0.0, 0.0))
    unit_params = TheoremParams(1.0, 1.0, 0.0, 1.0, 2.0)
    for chain_fn in (thm_cb1, thm_cb2, thm_ty1):
        rep = chain_fn(f_sq, seg, "identity", unit_params)
        mid = dict(rep.sides)["operators"]
        if abs(mid - 1.0 / 3.0) > CHAIN_TOL:
            failures.append("%s reduction %.10f" % (rep.chain_name, mid))

    total = 0
    for (chain, space_name), rows in falsify_grid.items():
        trials = sum(r["trials"] for r in rows)
        evaluated = sum(r["evaluated"] for r in rows)
        violations = sum(r["violations"] for r in rows)
        total += trials
        if trials != 1000 or evaluated == 0:
            failures.append("%s/%s thin slice (%d trials, %d evaluated)"
                            % (chain, space_name, trials, evaluated))
        if violations:
            worst = min(r["worst_margin"] for r in rows
                        if r["worst_margin"] is not None)
            failures.append("%s/%s %d violations (worst %.3e)"
                            % (chain, space_name, violations, worst))

    note = "%d randomized trials, seeds {1,2,3}" % total
    _verdict(capsys, 4, "inequality chains", failures, note)


# ---------------------------------------------------------------------------
# 5. the constant C
# ---------------------------------------------------------------------------


def test_criterion_5_constant_c(capsys):
    failures = []
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for rho in RHOS:
            for a, b in ((0.0, 1.0), (0.25, 0.75), (0.5, 1.0)):
                val = compute_C(alpha, rho, a, b)
                oracle = compute_C_oracle(alpha, rho, a, b)
                if not (val >= 0.0 and abs(val - oracle) <= 1e-8):
                    failures.append("C(%g,%g,%g,%g)=%.3e vs %.3e"
                                    % (alpha, rho, a, b, val, oracle))
    for alpha, want in ((1.0, 1.0 / 3.0), (2.0, 1.0 / 6.0)):
        got = compute_C(alpha, 1.0, 0.0, 1.0)
        if abs(got - want) > 1e-10:
            failures.append("spot C(%g,1,0,1) = %.12f" % (alpha, got))

    _verdict(capsys, 5, "constant C closed form vs oracle", failures)


# ---------------------------------------------------------------------------
# 6. corollary: parallel translate, random instances, product-form probe
# ---------------------------------------------------------------------------


def test_criterion_6_corollary(capsys, falsify_grid):
    failures = []

    E2 = euclidean(2)
    g1 = Geodesic(E2.point(0.0, 0.0), E2.point(1.0, 0.0))
    g2 = Geodesic(E2.point(0.0, 1.0), E2.point(1.0, 1.0))
    rep = corollary_distance(g1, g2, "identity",
                             TheoremParams(1.0, 1.0, 0.0, 1.0))
    sides = [v for _, v in rep.sides]
    if not np.allclose(sides, 1.0, atol=CHAIN_TOL):
        failures.append("parallel translate sides %s" % sides)

    for space in MODEL_SPACES:
        rows = falsify_grid[("corollary_distance", space.name)]
        if any(r["c_term"] != "difference" for r in rows):
            failures.append("%s searched a non-difference C-term"
                            % space.name)
        violations = sum(r["violations"] for r in rows)
        if violations:
            failures.append("%s difference form: %d violations"
                            % (space.name, violations))

    # informational probe of the product-form C-term; logged, not gated
    probe = falsify_search("corollary_distance", euclidean(2), 200, seed=1,
                           product_c_term=True)
    note = ("product-form probe: %d/%d violations, worst %.3g"
            % (probe["violations"], probe["evaluated"],
               probe["worst_margin"]))

    _verdict(capsys, 6, "corollary distance chain", failures, note)


# ---------------------------------------------------------------------------
# 7. discrepancy ledger in the verify report
# ---------------------------------------------------------------------------


def test_criterion_7_discrepancy_ledger(capsys, tmp_path):
    failures = []
    out = tmp_path / "report.json"
    code = cli_main(["verify", "--suite", "all", "--trials", "3",
                     "--seed", "5", "--out", str(out)])
    payload = json.loads(out.read_text())
    disc = payload.get("discrepancy", {})
    if code != 0:
        failures.append("verify exit code %d" % code)
    if "cb2_normalization" not in disc:
        failures.append("cb2 comparison missing")
    elif abs(disc["cb2_normalization"]["literal_minus_canonical"]) <= 0.0:
        failures.append("cb2 comparison shows no factor-rho difference")
    if "corollary_c_term" not in disc:
        failures.append("corollary comparison missing")
    else:
        cor = disc["corollary_c_term"]
        if not {"difference_form_side", "product_form_side",
                "product_form_search"} <= set(cor):
            failures.append("corollary comparison incomplete: %s"
                            % sorted(cor))

    out_csv = tmp_path / "report.csv"
    cli_main(["verify", "--suite", "all", "--trials", "3", "--seed", "5",
              "--format", "csv", "--out", str(out_csv)])
    rows = out_csv.read_text().splitlines()
    if not any(line.split(",")[1] == "discrepancy" for line in rows[1:]):
        failures.append("csv report has no discrepancy rows")

    _verdict(capsys, 7, "discrepancy ledger in verify reports", failures)
