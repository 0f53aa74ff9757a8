"""geofrac benchmark: time to solution of `geofrac verify` and of the
public space layer, end to end and layer by layer.

Run from the repository root; the program is imported from ./src:

    python3 bench/run.py --workload verify_fractional --seed 1 \\
        --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json.  With --trace 0 the run reports
the end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics, the tracing overhead and the
fixed quadrature probe, and writes its spans under .bench_out/.  Every run
checks the program's outputs.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# fresh interpreters started to time set-up; the median is reported
SETUP_REPEATS = 9
# each run measures at least this many passes, whatever --seconds says
MIN_PASSES = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

SETUP_SCRIPT = """
import geofrac, geofrac.cli
for s in ("euclidean2", "halfplane", "spider3",
          "product(euclidean2,halfplane)"):
    geofrac.cli.parse_space(s)
code = geofrac.cli.main(["fracint", "--op", "rl-left", "--f", "t",
                         "--alpha", "0.5", "--a", "0", "--x", "1"])
raise SystemExit(code)
"""


def load_program():
    """Import geofrac from this checkout's src/, or exit without a result."""
    if not (SRC / "geofrac" / "__init__.py").is_file():
        sys.exit("bench: %s holds no geofrac sources" % SRC)
    sys.path.insert(0, str(SRC))
    import geofrac
    import geofrac.cli  # noqa: F401

    if Path(geofrac.__file__).resolve().parent != SRC / "geofrac":
        sys.exit("bench: geofrac imported from %s, not %s"
                 % (geofrac.__file__, SRC))


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one vCPU of the ones it may
    use.  Each vCPU of the host drifts in speed on its own; a process
    that migrates mid-pass would be timed on one vCPU and calibrated on
    the other."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def machine_info(args, workload, cpu: int) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "pinned_cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "loadavg_start": list(os.getloadavg()),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "input_size": workload.size()}


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def launch_cpu_s(script: str, env: dict, expect: bytes) -> float:
    """CPU time of a fresh interpreter running `script`; it must exit 0
    and print `expect`."""
    c0 = children_cpu_s()
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=120)
    if proc.returncode != 0 or expect not in proc.stdout:
        sys.exit("bench: launch failed: %s"
                 % proc.stderr.decode(errors="replace")[-500:])
    return children_cpu_s() - c0


def setup_samples() -> tuple:
    """CPU times of fresh interpreters importing and calling geofrac once
    (an in-process import is already cached), each scaled to reference
    seconds by the reference launches just before and after it; returns
    (scaled times, raw times, reference launch times)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    refs = [launch_cpu_s(calibrate.LAUNCH_SCRIPT, env, b"17.5")]
    for _ in range(SETUP_REPEATS):
        times.append(launch_cpu_s(SETUP_SCRIPT, env, b'"value"'))
        refs.append(launch_cpu_s(calibrate.LAUNCH_SCRIPT, env, b"17.5"))
    scaled = [t * calibrate.scale("launch", b, a)
              for t, b, a in zip(times, refs, refs[1:])]
    return scaled, times, refs


class Runner:
    """Runs passes of one workload and keeps their timings and checks."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.tally = workloads.Tally()
        self.pass_s = []
        self.wall_pass_s = []
        self.chunk_s = []
        self.job_s = []
        self.job_s_by_cell = {}
        self.output_bytes = []
        self.passes = 0

    def run_pass(self, jobs, tracer=None):
        """Run jobs one after another, with the workload's calibration
        chunks before the first job and after each; returns (pass
        seconds, job seconds, outputs, wall seconds, median chunk seconds
        by kind).  A job's seconds are its CPU time scaled by its kind of
        chunk just before and after it; the pass's are their sum."""
        kinds = self.wl.chunk_kinds
        chunks = {k: [calibrate.CHUNKS[k]()] for k in kinds}
        job_s = []
        outs = []
        wall_s = 0.0
        for j, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = self.passes * len(jobs) + j
            w0, c0 = time.perf_counter(), time.process_time()
            outs.append(self.wl.run_job(job))
            cpu_s = time.process_time() - c0
            wall_s += time.perf_counter() - w0
            for k in kinds:
                chunks[k].append(calibrate.CHUNKS[k]())
            kind = self.wl.chunk_kind(job)
            job_s.append(cpu_s * calibrate.scale(kind, *chunks[kind][-2:]))
        return (sum(job_s), job_s, outs, wall_s,
                {k: statistics.median(v) for k, v in chunks.items()})

    def measured_pass(self, tracer=None) -> float:
        p = self.passes
        jobs = self.wl.jobs(workloads.pass_seed(self.seed, p))
        if tracer is not None:
            tracer.install()
        try:
            pass_s, job_s, outs, wall_s, chunk_s = self.run_pass(jobs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.wall_pass_s.append(wall_s)
        self.chunk_s.append(chunk_s)
        self.passes += 1
        self.job_s += job_s
        for job, t in zip(jobs, job_s):
            self.job_s_by_cell.setdefault(self.wl.cell(job), []).append(t)
        self.output_bytes.append(sum(self.wl.check(job, out, self.tally)
                                     for job, out in zip(jobs, outs)))
        # untimed: one job of the pass, rotating over the cells, re-run
        k = p % len(jobs)
        self.wl.replay(jobs[k], outs[k], self.tally)
        return pass_s


def measure_plain(runner, deadline: float) -> tuple:
    """Untraced passes until the deadline: the end-to-end metrics."""
    while time.perf_counter() < deadline or runner.passes < MIN_PASSES:
        runner.pass_s.append(runner.measured_pass())
    p90 = statistics.quantiles(runner.job_s, n=10, method="inclusive")[-1]
    metrics = {"pass_s": statistics.median(runner.pass_s),
               "job_s_p50": statistics.median(runner.job_s),
               "job_s_p90": p90,
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    summary = {"passes": runner.passes, "jobs": len(runner.job_s),
               "jobs_beyond_p90": sum(1 for s in runner.job_s if s > p90),
               "wall_pass_s_median": statistics.median(runner.wall_pass_s),
               "chunk_s_median": {
                   k: statistics.median(c[k] for c in runner.chunk_s)
                   for k in runner.wl.chunk_kinds},
               "job_s_median_by_cell": {
                   k: statistics.median(v)
                   for k, v in runner.job_s_by_cell.items()}}
    return metrics, summary, {"pass_s_all": runner.pass_s,
                              "wall_pass_s_all": runner.wall_pass_s,
                              "chunk_s_all": runner.chunk_s}


def measure_traced(runner, deadline: float, workload: str) -> tuple:
    """Untraced and traced passes in turn: the per-layer metrics."""
    tracer = tracing.Tracer()
    traced_s, untraced_s = [], []
    while time.perf_counter() < deadline or len(traced_s) < 2:
        untraced_s.append(runner.measured_pass())
        traced_s.append(runner.measured_pass(tracer))
    metrics = tracer.layer_metrics(len(traced_s))
    metrics.update(tracing.probe_metrics())
    t_med = statistics.median(traced_s)
    u_med = statistics.median(untraced_s)
    metrics["cli.output_bytes"] = statistics.mean(runner.output_bytes)
    metrics["trace.overhead_s"] = t_med - u_med
    metrics["trace.overhead_frac"] = (t_med - u_med) / u_med
    for note in tracing.interaction_errors(workload, metrics):
        runner.tally.wrong_output("interaction table: " + note)
    spans = OUT_DIR / ("spans-%s-seed%d.tsv" % (workload, runner.seed))
    tracer.write_spans(spans)
    print("spans %s (%d kept, %d dropped)"
          % (spans.relative_to(ROOT), len(tracer.spans), tracer.dropped))
    summary = {"passes_traced": len(traced_s),
               "passes_untraced": len(untraced_s),
               "pass_s_traced_median": t_med,
               "pass_s_untraced_median": u_med}
    return metrics, summary, {"traced_pass_s_all": traced_s,
                              "untraced_pass_s_all": untraced_s}


def run(args) -> dict:
    cpu = pin_to_one_cpu()
    load_program()
    units = declared_units(args.trace)
    wl = workloads.WORKLOADS[args.workload]()
    info = machine_info(args, wl, cpu)
    print("info " + json.dumps(info, sort_keys=True), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    detail = {"info": info}
    setup = None if args.trace else setup_samples()

    runner = Runner(wl, args.seed)
    panel_cells = workloads.operator_panel(runner.tally)
    # warm-up: every job once at a tenth of its size, on its own seed
    runner.run_pass(wl.warmup_jobs(workloads.pass_seed(args.seed, 1 << 20)))
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        metrics, summary, samples = measure_traced(runner, deadline,
                                                   args.workload)
    else:
        metrics, summary, samples = measure_plain(runner, deadline)
        setup_s, cpu_setup_s, ref_launch_s = setup
        metrics["setup_s"] = statistics.median(setup_s)
        summary["cpu_setup_s_median"] = statistics.median(cpu_setup_s)
        summary["ref_launch_s_median"] = statistics.median(ref_launch_s)
        samples.update(setup_s_all=setup_s, cpu_setup_s_all=cpu_setup_s,
                       ref_launch_s_all=ref_launch_s)

    tally = runner.tally
    summary.update({"failed_frac": tally.failed / max(1, tally.attempted),
                    "wrong_outputs": tally.wrong,
                    "operator_panel_cells": panel_cells,
                    "notes": tally.notes})
    print("summary " + json.dumps(summary, sort_keys=True), flush=True)
    detail.update(samples, summary=summary,
                  job_s_by_cell=runner.job_s_by_cell)
    with open(OUT_DIR / ("run-%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    if set(units) != set(metrics):
        sys.exit("bench: metrics differ from BENCHMARK.json: %s"
                 % sorted(set(units) ^ set(metrics)))
    for name, value in metrics.items():
        print("metric %-48s %.6g %s" % (name, value, units[name]))
    return {"correct": tally.wrong == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def declared_units(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
