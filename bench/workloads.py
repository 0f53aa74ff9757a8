"""The benchmark's workloads and the correctness checks on their outputs.

Every workload is a fixed list of jobs per pass.  A pass runs its jobs one
at a time in this process (a closed loop with one client).  Pass p of a
run uses inputs derived from (run seed, p), so no pass can reuse the
inputs of an earlier one.  Jobs only return raw outputs; the checks on
them run after the pass, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

SPACES = ("euclidean2", "halfplane", "spider3",
          "product(euclidean2,halfplane)")
FRACTIONAL_CHAINS = ("thm_cb1", "thm_cb2", "thm_ty1", "corollary_distance")
SCALAR_CHAINS = ("classic_hh", "h_hh", "conde_hh")
TOL = "1e-8"
GAP_TOL = 1e-9
ORACLE_RTOL = 1e-8
# warm-up passes run every job at this share of its input size
WARMUP_SCALE = 0.1


def pass_seed(seed: int, p: int) -> int:
    """CLI seed of pass p: distinct per pass, fixed by the run seed."""
    return int(np.random.SeedSequence([seed, p]).generate_state(1)[0])


class Tally:
    """Operations attempted and failed, and outputs that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def wrong_output(self, note: str) -> None:
        self.wrong += 1
        self.note(note)

    def failure(self, ops: int, note: str) -> None:
        self.failed += ops
        self.note(note)

    def note(self, note: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(note)


# ---------------------------------------------------------------------------
# verify: one job is one in-process `geofrac verify` call
# ---------------------------------------------------------------------------


class VerifyWorkload:
    """`geofrac verify --suite <chain> --space <space>` over chain x space."""

    # calibration chunks (see calibrate.py) the jobs are scaled by
    chunk_kinds = ("interp",)

    def __init__(self, chains, trials: int):
        self.trials = trials
        self.cells = [(c, s) for c in chains for s in SPACES]

    def size(self) -> dict:
        return {"jobs_per_pass": len(self.cells),
                "trials_per_job": self.trials,
                "chains": sorted({c for c, _ in self.cells}),
                "spaces": list(SPACES), "tol": float(TOL)}

    def argv(self, cell, seed: int, trials: int = None) -> list:
        chain, space = cell
        return ["verify", "--suite", chain, "--space", space, "--trials",
                str(self.trials if trials is None else trials), "--seed",
                str(seed), "--tol", TOL]

    def jobs(self, seed: int, trials: int = None) -> list:
        return [self.argv(cell, seed, trials) for cell in self.cells]

    def warmup_jobs(self, seed: int) -> list:
        return self.jobs(seed, max(1, int(self.trials * WARMUP_SCALE)))

    @staticmethod
    def cell(argv) -> str:
        return "%s %s" % (argv[2], argv[4])

    @staticmethod
    def chunk_kind(argv) -> str:
        return "interp"

    @staticmethod
    def run_job(argv):
        import geofrac.cli

        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = geofrac.cli.main(argv)
        except Exception as exc:  # a crashed job is a failed operation
            return ("raised", "%s: %s" % (type(exc).__name__, exc))
        return (code, buf.getvalue())

    def check(self, argv, out, tally: Tally) -> int:
        """Count the job's trials and failures; returns its output bytes."""
        trials = int(argv[argv.index("--trials") + 1])
        tally.attempted += trials
        code, text = out
        where = " ".join(argv)
        if code == "raised" or code == 2:
            tally.failure(trials, "%s failed: %s" % (where, str(text)[:200]))
            return 0
        report = json.loads(text)
        summaries = report["falsify"]
        tally.failed += sum(s["quadrature_failures"] for s in summaries)
        if code != 0 or report["violations"] != 0 or not report["pass"]:
            tally.wrong_output("%s: exit %s, %s violations"
                               % (where, code, report["violations"]))
        for s in summaries:
            if (s["trials"] != trials or s["evaluated"] + s["discarded"]
                    + s["quadrature_failures"] != trials):
                tally.wrong_output("%s: trial accounting %r"
                                   % (where, {k: s[k] for k in (
                                       "trials", "evaluated", "discarded",
                                       "quadrature_failures")}))
        for row in report["regression"]:
            if not row["report"]["pass"]:
                tally.wrong_output("%s: regression row %s fails"
                                   % (where, row["name"]))
        return len(text.encode("utf-8"))

    def replay(self, argv, out, tally: Tally) -> None:
        """Re-run one job and require the same report bytes."""
        again = self.run_job(argv)
        if again != out:
            tally.wrong_output("%s: re-run output differs" % " ".join(argv))


# ---------------------------------------------------------------------------
# geometry: the public space layer, per point and in large batches
# ---------------------------------------------------------------------------


class GeometryWorkload:
    """Per-point and batch use of `geofrac.spaces` on the four spaces.

    A points job draws triples for the metric axioms and geodesics
    evaluated at 17 parameters, like the acceptance suite's geometry
    loops; a batch job runs the five comparison gaps on large coordinate
    batches.  Each (kind, space) cell's work is split into two jobs at a
    share drawn from the pass seed: the work per pass stays fixed, while
    job sizes spread out, so that job-time percentiles do not sit on the
    gap between two cells' fixed costs.
    """

    PARAMS = np.linspace(0.0, 1.0, 17)
    # calibration chunks (see calibrate.py): points jobs are interpreter
    # bound, batch jobs stream over large arrays
    chunk_kinds = ("interp", "stream")

    def __init__(self, triples: int, geodesics: int, rows: int):
        self.triples = triples
        self.geodesics = geodesics
        self.rows = rows
        self.cells = [(kind, s) for s in SPACES for kind in ("points",
                                                              "batch")]
        import geofrac.cli

        self.spaces = {s: geofrac.cli.parse_space(s) for s in SPACES}

    def size(self) -> dict:
        return {"jobs_per_pass": 2 * len(self.cells),
                "triples_per_points_cell": self.triples,
                "geodesics_per_points_cell": self.geodesics,
                "params_per_geodesic": len(self.PARAMS),
                "rows_per_batch_cell": self.rows,
                "split_share": list(SPLIT_SHARE), "spaces": list(SPACES)}

    def jobs(self, seed: int, scale: float = 1.0) -> list:
        """(kind, space, seed, job index, input size), two jobs a cell."""
        shares = np.random.default_rng([seed, 1 << 16]).uniform(
            *SPLIT_SHARE, size=len(self.cells))
        out = []
        for i, ((kind, space), share) in enumerate(zip(self.cells, shares)):
            for part, f in enumerate((share, 1.0 - share)):
                triples, geodesics, rows = (
                    max(1, round(v * scale * f))
                    for v in (self.triples, self.geodesics, self.rows))
                size = (triples, geodesics) if kind == "points" else rows
                out.append((kind, space, seed, 2 * i + part, size))
        return out

    def warmup_jobs(self, seed: int) -> list:
        return self.jobs(seed, WARMUP_SCALE)

    @staticmethod
    def cell(job) -> str:
        return "%s %s" % job[:2]

    @staticmethod
    def chunk_kind(job) -> str:
        return "interp" if job[0] == "points" else "stream"

    def run_job(self, job):
        import geofrac.spaces as sp

        kind, space_text, seed, i, size = job
        space = self.spaces[space_text]
        rng = np.random.default_rng([seed, i])
        try:
            if kind == "points":
                return ("ok", self._points(sp, space, rng, *size))
            return ("ok", self._batch(sp, space, rng, size))
        except Exception as exc:  # a crashed job is a failed operation
            return ("raised", "%s: %s" % (type(exc).__name__, exc))

    def _points(self, sp, space, rng, n, m):
        d = np.empty((n, 5))
        for i in range(n):
            x, y, z = (sp.random_point(space, rng) for _ in range(3))
            d[i] = (sp.distance(x, x), sp.distance(x, y), sp.distance(y, x),
                    sp.distance(x, z), sp.distance(y, z))
        steps = np.empty((m, len(self.PARAMS) - 1))
        lengths = np.empty(m)
        for i in range(m):
            g = sp.random_geodesic(space, rng, min_length=1e-3)
            pts = [g.eval(t) for t in self.PARAMS]
            steps[i] = [sp.distance(a, b) for a, b in zip(pts, pts[1:])]
            lengths[i] = g.length
        return d, steps, lengths

    def _batch(self, sp, space, rng, n):
        A, B, C, D = (sp.sample_points(space, n, rng) for _ in range(4))
        t = rng.uniform(0.0, 1.0, size=n)
        return {"cn": sp.cn_gap_batch(space, A, B, C),
                "busemann": sp.busemann_gap_batch(space, A, B, C),
                "comparison": sp.comparison_gap_batch(space, A, B, C, t),
                "four_point": sp.four_point_gap_batch(space, A, B, C, D, t),
                "sturm": sp.sturm_gap_batch(space, A, B, C, D, t)}

    def check(self, job, out, tally: Tally) -> int:
        kind, space, _seed, _i, size = job
        status, value = out
        # operations are public calls: 3 points and 5 distances a triple,
        # 1 geodesic, 17 evaluations and 16 distances a geodesic, and 4
        # samples and 5 gap batches a batch job
        if kind == "points":
            ops = 8 * size[0] + 2 * len(self.PARAMS) * size[1]
        else:
            ops = 9
        tally.attempted += ops
        if status != "ok":
            tally.failure(ops, "%s %s failed: %s" % (kind, space, value))
            return 0
        if kind == "points":
            d, steps, lengths = value
            dxx, dxy, dyx, dxz, dyz = d.T
            if np.any(dxx > 1e-12) or np.any(dxy < 0.0):
                tally.wrong_output("%s axiom identity" % space)
            if np.any(np.abs(dxy - dyx) > GAP_TOL):
                tally.wrong_output("%s axiom symmetry" % space)
            if np.any(dxz - dxy - dyz > GAP_TOL):
                tally.wrong_output("%s axiom triangle" % space)
            want = lengths[:, None] / (len(self.PARAMS) - 1)
            if np.any(np.abs(steps - want)
                      > GAP_TOL * (1.0 + lengths[:, None])):
                tally.wrong_output("%s constant speed" % space)
            return 0
        for name, gaps in value.items():
            if not float(np.min(gaps)) >= -GAP_TOL:
                tally.wrong_output("%s %s gap %.3e"
                                   % (space, name, float(np.min(gaps))))
        if space == "euclidean2":
            for name in ("cn", "comparison"):
                if float(np.max(np.abs(value[name]))) > GAP_TOL:
                    tally.wrong_output("euclidean2 %s gap not flat" % name)
        return 0

    def replay(self, job, out, tally: Tally) -> None:
        """Re-run one job and require the same outputs."""
        again = self.run_job(job)
        same = again[0] == out[0] == "ok"
        if same and job[0] == "points":
            same = all(np.array_equal(a, b) for a, b in zip(again[1], out[1]))
        elif same:
            same = all(np.array_equal(again[1][k], out[1][k])
                       for k in out[1])
        if not same:
            tally.wrong_output("%s %s: re-run output differs" % job[:2])


# range of the share of a geometry cell's work given to its first job
SPLIT_SHARE = (0.2, 0.8)

WORKLOADS = {
    "verify_fractional": lambda: VerifyWorkload(FRACTIONAL_CHAINS, 16),
    "verify_scalar": lambda: VerifyWorkload(SCALAR_CHAINS, 160),
    "geometry": lambda: GeometryWorkload(800, 150, 60_000),
}

# ---------------------------------------------------------------------------
# operator panel: the acceptance suite's closed forms, checked every run
# ---------------------------------------------------------------------------


def operator_panel(tally: Tally) -> int:
    """Constant operand through all six operators against closed forms."""
    import geofrac.fractional as fr

    def unit(x):
        return np.ones_like(np.asarray(x, dtype=float))

    a, x = 0.25, 2.0
    ha, hx = 1.0, 2.5
    cells = []
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.5):
        gam = math.gamma(alpha + 1.0)
        rl = (x - a) ** alpha / gam
        had = math.log(hx / ha) ** alpha / gam
        cells += [("rl_left", fr.rl_left(unit, alpha, a, x), rl),
                  ("rl_right", fr.rl_right(unit, alpha, a, x), rl),
                  ("hadamard_left", fr.hadamard_left(unit, alpha, ha, hx),
                   had),
                  ("hadamard_right", fr.hadamard_right(unit, alpha, ha, hx),
                   had)]
        for rho in (0.5, 1.0, 2.0):
            want = ((x ** rho - a ** rho) / rho) ** alpha / gam
            cells += [("katugampola_left",
                       fr.katugampola_left(unit, alpha, rho, a, x), want),
                      ("katugampola_right",
                       fr.katugampola_right(unit, alpha, rho, a, x), want)]
    for name, got, want in cells:
        if not abs(got - want) / max(1.0, abs(want)) <= ORACLE_RTOL:
            tally.wrong_output("operator panel %s: %r != %r"
                               % (name, got, want))
    return len(cells)
