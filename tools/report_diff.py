"""Byte-identity gate: a fixed set of reports from REV and from this tree.

Usage (from the repository root):

    python3 tools/report_diff.py --parent REV [--ledger]

The committed files of REV are exported (`git archive`) into a temporary
directory; the change is this working tree.  In each checkout every
command of the fixed set runs in a fresh interpreter with the checkout's
`src` on PYTHONPATH, and its stdout, stderr and exit code go to
`.report_diff/<name>.stdout`, `.stderr` and `.exit` under that checkout.
The set is:

  * `verify --suite all --trials 40` on five spaces, seeds 1-3, and
    `verify --suite all --space spider3 --trials 130 --seed 1`, whose
    searches run three chunks (the last of 2 rows), so that the worst
    rows of all seven chains and of the corollary's product probe are
    compared across chunks;
  * `sweep` of every chain on the same spaces over a 3 x 3 x 2 x 2 grid
    (`thm_cb1` with q = 4, since its Hoelder bound needs alpha * q > 1
    and the grid's smallest alpha is 0.3);
  * `sweep` of the chains whose constants diverge for h = godunova_levin
    (error exits);
  * `constants`, the default grid and `--which E --h power(0.5)`;
  * the 84 falsifier summaries of acceptance criterion 4 (7 chains x 4
    spaces x 3 seed slices), as one JSON file;
  * sha256 digests of the space layer's outputs: `sample_points` and the
    five `*_gap_batch` functions at 20 000 rows, and per-point `distance`,
    `Geodesic.eval` and geodesic lengths in loops like the geometry
    benchmark's, on the four benchmark spaces and euclidean(n), n = 1..8.

The files that differ are listed; the exit code is 0 when none does.

With --ledger the same reports are written, and the files that differ
are walked instead: each pair of JSON outputs is parsed and walked
together.  Per file the ledger lists the floats whose bits moved, the
largest relative move |x - y| / max(|x|, |y|) and the largest move in
ulps (-0.0 against 0.0 is a move of 0 ulps; NaN against NaN is no move).
A summary whose `worst_instance` describes another instance is listed as
a switch with both sides' `worst_margin`, and its sides are not walked.
Every other difference is structural: keys, list lengths, strings,
booleans such as `pass`, integers such as `violations`, a float that
turns NaN or infinite, output that is not JSON, exit codes and stderr.
The exit code is 1 when a structural difference exists, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ".report_diff"
SPACES = ("euclidean2", "halfplane", "spider3",
          "product(euclidean2,halfplane)", "product(euclidean2,spider3)")
CHAINS = ("classic_hh", "h_hh", "conde_hh", "thm_cb1", "thm_cb2", "thm_ty1",
          "corollary_distance")
GRID = ["--alphas", "0.3,1,2.5", "--rhos", "0.5,1,2.2",
        "--a-values", "0,0.3", "--b-values", "0.8,1"]
CLI = "import sys; from geofrac.cli import main; sys.exit(main(sys.argv[1:]))"
# tests/test_acceptance.py's falsify_grid, printed as JSON
CRITERION_4 = """
import json
from geofrac.chains import CHAIN_NAMES, falsify_search
from geofrac.spaces import euclidean, half_plane, product, spider
out = []
for space in (euclidean(2), half_plane(), spider(3),
              product(euclidean(2), half_plane())):
    for chain in CHAIN_NAMES:
        for seed, n in ((1, 334), (2, 333), (3, 333)):
            out.append(falsify_search(chain, space, n, seed=seed, tol=1e-8))
print(json.dumps(out, indent=1, sort_keys=True))
"""

# the space layer's batch and per-point outputs, as digests
SPACE_LAYER = """
import hashlib
import numpy as np
import geofrac.spaces as sp
from geofrac.cli import parse_space

def leaves(batch):
    if isinstance(batch, tuple):
        for item in batch:
            yield from leaves(item)
    else:
        yield np.ascontiguousarray(batch)

def digest(*batches):
    h = hashlib.sha256()
    for a in leaves(batches):
        h.update(("%s %s;" % (a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()

names = ["euclidean2", "halfplane", "spider3",
         "product(euclidean2,halfplane)"]
for name in names + ["euclidean%d" % n for n in range(1, 9)]:
    space = parse_space(name)
    rng = np.random.default_rng(20000)
    A, B, C, D = (sp.sample_points(space, 20000, rng) for _ in range(4))
    t = rng.uniform(0.0, 1.0, 20000)
    print(name, "sample_points", digest(A, B, C, D, t))
    print(name, "cn", digest(sp.cn_gap_batch(space, A, B, C)))
    print(name, "busemann", digest(sp.busemann_gap_batch(space, A, B, C)))
    print(name, "comparison",
          digest(sp.comparison_gap_batch(space, A, B, C, t)))
    print(name, "four_point",
          digest(sp.four_point_gap_batch(space, A, B, C, D, t)))
    print(name, "sturm", digest(sp.sturm_gap_batch(space, A, B, C, D, t)))
    d = []
    for _ in range(100):
        x, y, z = (sp.random_point(space, rng) for _ in range(3))
        d += [sp.distance(x, x), sp.distance(x, y), sp.distance(y, x),
              sp.distance(x, z), sp.distance(y, z)]
    print(name, "distance", digest(np.array(d)))
    rows, steps = [], []
    for _ in range(30):
        g = sp.random_geodesic(space, rng, min_length=1e-3)
        pts = [g.eval(s) for s in np.linspace(0.0, 1.0, 17)]
        rows += [p.row for p in pts]
        steps += [sp.distance(p, q) for p, q in zip(pts, pts[1:])]
        steps.append(g.length)
    print(name, "geodesic_eval", digest(tuple(rows), np.array(steps)))
"""


def _commands() -> list:
    """(file name, interpreter argv) of every report in the fixed set."""
    out = []
    for i, space in enumerate(SPACES):
        for seed in (1, 2, 3):
            out.append(("verify-s%d-seed%d" % (i, seed),
                        ["-c", CLI, "verify", "--suite", "all", "--space",
                         space, "--trials", "40", "--seed", str(seed)]))
        for chain in CHAINS:
            # GRID's alpha = 0.3 needs alpha * q > 1 in thm_cb1's Hoelder
            # bound, which sweep's default q = 2 does not give
            q = ["--q", "4"] if chain == "thm_cb1" else []
            out.append(("sweep-%s-s%d" % (chain, i),
                        ["-c", CLI, "sweep", chain, "--space", space, *GRID,
                         *q]))
    out.append(("verify-spider3-trials130-seed1",
                ["-c", CLI, "verify", "--suite", "all", "--space", "spider3",
                 "--trials", "130", "--seed", "1"]))
    for chain in ("thm_cb2", "h_hh", "corollary"):
        out.append(("sweep-%s-godunova_levin" % chain,
                    ["-c", CLI, "sweep", chain, "--h", "godunova_levin"]))
    out.append(("constants-default", ["-c", CLI, "constants"]))
    out.append(("constants-E-power0.5",
                ["-c", CLI, "constants", "--which", "E", "--h",
                 "power(0.5)"]))
    out.append(("criterion-4-summaries", ["-c", CRITERION_4]))
    out.append(("space-layer-digests", ["-c", SPACE_LAYER]))
    return out


def _write_reports(checkout: Path) -> None:
    out = checkout / OUT
    out.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for name, argv in _commands():
        run = subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                             capture_output=True)
        (out / (name + ".stdout")).write_bytes(run.stdout)
        (out / (name + ".stderr")).write_bytes(run.stderr)
        (out / (name + ".exit")).write_text("%d\n" % run.returncode)


def _ordinal(x: float) -> int:
    # the double's place in the ordered line of doubles, -0.0 and 0.0 at 0
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _same_float(x: float, y: float) -> bool:
    return (struct.pack("<d", x) == struct.pack("<d", y)
            or (math.isnan(x) and math.isnan(y)))


def walk(x, y, path: str = "$"):
    """The differences of two parsed JSON values, walked together:
    ("float", path, x, y) per float whose bits moved between finite
    values, ("switch", path, margin_x, margin_y) per summary whose
    worst_instance describes another instance, and ("structural", path,
    text) for every other difference."""
    if isinstance(x, dict) and isinstance(y, dict):
        if set(x) != set(y):
            yield ("structural", path, "keys %s against %s"
                   % (sorted(set(x) - set(y)), sorted(set(y) - set(x))))
        switched = ("worst_margin" in x and "worst_margin" in y
                    and isinstance(x.get("worst_instance"), dict)
                    and isinstance(y.get("worst_instance"), dict)
                    and x["worst_instance"].get("instance")
                    != y["worst_instance"].get("instance"))
        if switched:
            yield ("switch", path, x["worst_margin"], y["worst_margin"])
        for key in sorted(set(x) & set(y)):
            if switched and key in ("worst_instance", "worst_margin"):
                continue
            yield from walk(x[key], y[key], "%s.%s" % (path, key))
    elif isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            yield ("structural", path,
                   "%d items against %d" % (len(x), len(y)))
        for i, (a, b) in enumerate(zip(x, y)):
            yield from walk(a, b, "%s[%d]" % (path, i))
    elif type(x) is float and type(y) is float:
        if _same_float(x, y):
            return
        if math.isfinite(x) and math.isfinite(y):
            yield ("float", path, x, y)
        else:
            yield ("structural", path, "%r against %r" % (x, y))
    elif type(x) is not type(y) or x != y:
        yield ("structural", path, "%s against %s"
               % (json.dumps(x), json.dumps(y)))


def ledger(name: str, x: bytes, y: bytes) -> tuple:
    """(lines, structural) for one file of the set: its float moves, its
    switches and its structural differences."""
    if x == y:
        return [], False
    try:
        diffs = list(walk(json.loads(x), json.loads(y)))
    except ValueError:
        diffs = [("structural", "$", "output differs and is not JSON")]
    moves = [(abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0,
              abs(_ordinal(a) - _ordinal(b)))
             for kind, _, a, b in (d for d in diffs if d[0] == "float")]
    lines = []
    if moves:
        lines.append("%s: %d floats moved, largest %.2g relative, %d ulps"
                     % (name, len(moves), max(m[0] for m in moves),
                        max(m[1] for m in moves)))
    structural = False
    for d in diffs:
        if d[0] == "switch":
            lines.append("%s: worst_instance switched at %s, worst_margin "
                         "%r -> %r" % (name, d[1], d[2], d[3]))
        elif d[0] == "structural":
            structural = True
            lines.append("%s: structural at %s: %s" % (name, d[1], d[2]))
    return lines, structural


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="the parent revision to compare with")
    parser.add_argument("--ledger", action="store_true",
                        help="walk the JSON outputs that differ and list "
                             "their float moves and structural differences")
    args = parser.parse_args(argv)
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="report-parent-") as tmp:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        parent = Path(tmp)
        for checkout in (parent, ROOT):
            _write_reports(checkout)
        names = [name + ext for name, _ in _commands()
                 for ext in (".stdout", ".stderr", ".exit")]
        sides = {n: ((parent / OUT / n).read_bytes(),
                     (ROOT / OUT / n).read_bytes()) for n in names}
    differ = [n for n in names if sides[n][0] != sides[n][1]]
    print("%s vs the working tree: %d files, %d differ"
          % (rev, len(names), len(differ)))
    if not args.ledger:
        for name in differ:
            print("differs:", name)
        return 1 if differ else 0
    structural = False
    for name in differ:
        lines, bad = ledger(name, *sides[name])
        structural |= bad
        print("\n".join(lines))
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main())
