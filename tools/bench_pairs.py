"""Alternating parent/change pairs of bench/run.py, with or without a claim.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent REV --label one_path \
        [--claim verify_fractional] --pairs 10 --seconds 30 --seed0 900

Both sides run from a fresh export, each in its own temporary
directory, so that they differ in their files alone: the parent side is
the committed files of REV (`git archive REV`), and the change side is
this working tree's tracked files as they are now, committed or not
(`git stash create`, then `git archive` of the commit it prints, or of
HEAD when nothing is modified).  The working tree must differ from REV,
and the tool refuses to run while untracked files exist under src/ or
tests/, since the export would leave them out.  For each workload of
BENCHMARK.json, pair i
runs `bench/run.py --workload W --seed <seed0 + i> --seconds S --trace 0`
on both sides with the same seed, the first side alternating between
pairs.  BENCH_<label>.json gets
every run's result line (and, for the claimed workload, its
.bench_out/run-*.json detail) and, per workload and end-to-end metric,
both sides' medians and quartiles, the relative change of the medians
and the number of pairs in which the change was lower.  Without --claim
the record claims no workload and keeps no detail: it only shows
whether any workload got worse.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "pass_s", "job_s_p50", "job_s_p90", "peak_rss_mb")
WORKLOADS = tuple(w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"])


def _run(checkout: Path, workload: str, seed: int, seconds: float,
         detail: bool) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout
    record = {"result": json.loads(out.strip().splitlines()[-1])}
    if detail:
        path = (checkout / ".bench_out"
                / ("run-%s-seed%d-trace0.json" % (workload, seed)))
        record["detail"] = json.loads(path.read_text())
    return record


def _quartiles(values: list) -> list:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _summary(runs: list, workload: str) -> dict:
    sides = {side: [r["result"] for r in runs
                    if r["workload"] == workload and r["side"] == side]
             for side in ("parent", "change")}
    out = {"all_correct": all(r["correct"] for v in sides.values()
                              for r in v),
           "failed_share": {side: sum(r["failed"] for r in v)
                            / max(1, sum(r["attempted"] for r in v))
                            for side, v in sides.items()}}
    for metric in METRICS:
        parent = [r["metrics"][metric]["value"] for r in sides["parent"]]
        change = [r["metrics"][metric]["value"] for r in sides["change"]]
        out[metric] = {
            "pairs": len(parent),
            "parent_median": statistics.median(parent),
            "parent_quartiles": _quartiles(parent),
            "change_median": statistics.median(change),
            "change_quartiles": _quartiles(change),
            "change_lower_in_pairs": sum(c < p for p, c in zip(parent,
                                                                change)),
            "relative_change": (statistics.median(change)
                                / statistics.median(parent) - 1.0)}
    return out


def _git(*argv, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                          **kwargs)


def _export(rev: str, into: str) -> Path:
    archive = _git("archive", rev, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return Path(into)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="the parent revision to compare with")
    parser.add_argument("--label", required=True)
    parser.add_argument("--claim", choices=WORKLOADS,
                        help="the workload whose gain is claimed, if any")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("need at least two pairs for quartiles")
    rev = _git("rev-parse", "--short", args.parent, check=True,
               text=True).stdout.strip()
    if _git("diff", "--quiet", rev).returncode == 0:
        parser.error("the working tree has no change against %s" % rev)
    untracked = _git("ls-files", "--others", "--exclude-standard", "--",
                     "src", "tests", check=True, text=True).stdout.split()
    if untracked:
        parser.error("untracked files under src/ or tests/, which the "
                     "export leaves out: %s" % " ".join(untracked))
    change = (_git("stash", "create", check=True, text=True).stdout.strip()
              or "HEAD")
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_dir:
        checkouts = {"parent": _export(rev, parent_dir),
                     "change": _export(change, change_dir)}
        for workload in WORKLOADS:
            for i in range(args.pairs):
                seed = args.seed0 + i
                order = ("parent", "change") if i % 2 == 0 else ("change",
                                                                 "parent")
                for side in order:
                    record = _run(checkouts[side], workload, seed,
                                  args.seconds, workload == args.claim)
                    runs.append({"workload": workload, "seed": seed,
                                 "side": side, **record})
                    print(workload, seed, side,
                          record["result"]["metrics"]["pass_s"]["value"],
                          flush=True)
    if args.claim:
        detail = ("for the claimed workload %s, its .bench_out/run-"
                  "<workload>-seed<n>-trace0.json file (detail)"
                  % args.claim)
    else:
        detail = "no detail file: no workload is claimed"
    record = {
        "label": args.label,
        "parent": rev,
        "command": ("python3 bench/run.py --workload <workload> --seed "
                    "<seed> --seconds %g --trace 0" % args.seconds),
        "host": "%d vCPUs (each run pins itself to one), Python %s, numpy %s"
                % (os.cpu_count(), platform.python_version(),
                   numpy.__version__),
        "what": ("bench/run.py --trace 0 runs of the parent commit and of "
                 "this change, each exported into its own temporary "
                 "directory, in alternating pairs (same seed within a "
                 "pair, the first side alternating): each run's last stdout "
                 "line (result) and " + detail),
        "summary": {w: _summary(runs, w) for w in WORKLOADS},
        "runs": runs,
    }
    path = ROOT / ("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("wrote", path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
