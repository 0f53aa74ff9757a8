"""Command-line front end for the verification machinery.

Four subcommands:

  verify     falsification searches plus fixed regression instances
  sweep      one chain across a parameter grid on a fixed instance
  constants  the C and E constants across a grid, against their oracles
  fracint    a single fractional-integral evaluation of a formula in t

Reports are deterministic: the same flags and seed produce byte-identical
output.  JSON is written with sorted keys, two-space indentation, and a
schema field.  CSV projects the JSON rows onto a fixed tuple of columns
per command, each column a key of the rows: sweep spreads side1-side4
and margin1-margin3 from a row's sides and margins, section and name tag
verify's falsify, regression and discrepancy rows, and every row takes
the report's schema.  Exit codes: 0 clean, 1 a violated inequality or
lost accuracy, 2 usage or parse errors, including an --out path that
cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import re
import sys
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .chains import (CHAIN_NAMES, TheoremParams, chain_spec, classic_hh,
                     compute_C, compute_C_oracle, compute_E, conde_hh,
                     corollary_distance, falsify_search, h_hh, thm_cb1,
                     thm_cb2, thm_ty1)
from .convexity import squared_distance_function
from .errors import AccuracyError, DomainError, SpaceMismatchError
from .expressions import parse_expression
from .fractional import (hadamard_left, hadamard_right, katugampola_left,
                         katugampola_right, rl_left, rl_right)
from .spaces import (EuclideanSpace, Geodesic, HalfPlaneSpace, ProductSpace,
                     Space, SpiderSpace, euclidean, half_plane, product,
                     spider)

__all__ = ["main", "entrypoint", "parse_space"]

SCHEMA_VERSION = 1

_SUITE_ALIASES = {"corollary": "corollary_distance"}


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def _split_factors(text: str) -> List[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise DomainError("unbalanced parentheses in space %r"
                                  % text)
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise DomainError("unbalanced parentheses in space %r" % text)
    parts.append(text[start:])
    return parts


def parse_space(text: str) -> Space:
    """Build a model space from a selector such as euclidean2 or
    product(euclidean(2),spider3)."""
    s = text.strip().lower().replace(" ", "")
    if s.startswith("product(") and s.endswith(")"):
        parts = _split_factors(s[len("product("):-1])
        if len(parts) != 2:
            raise DomainError("product takes two comma-separated factors,"
                              " got %r" % text)
        return product(parse_space(parts[0]), parse_space(parts[1]))
    m = re.fullmatch(r"euclidean([0-9]+|\([0-9]+\))", s)
    if m is not None:
        return euclidean(int(m.group(1).strip("()")))
    if s in ("halfplane", "half_plane", "half-plane"):
        return half_plane()
    m = re.fullmatch(r"spider([0-9]+|\([0-9]+\))", s)
    if m is not None:
        return spider(int(m.group(1).strip("()")))
    raise DomainError("unknown space %r (try euclidean2, halfplane,"
                      " spider3, or product(...,...))" % text)


def _parse_grid(text: str, flag: str) -> List[float]:
    vals = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            vals.append(float(piece))
        except ValueError:
            raise DomainError("%s: not a number: %r" % (flag, piece))
    if not vals:
        raise DomainError("%s: empty grid" % flag)
    return vals


def _grid(args) -> Iterator[Tuple[float, float, float, float]]:
    """(alpha, rho, a, b) over the four grid flags, alpha slowest."""
    return itertools.product(_parse_grid(args.alphas, "--alphas"),
                             _parse_grid(args.rhos, "--rhos"),
                             _parse_grid(args.a_values, "--a-values"),
                             _parse_grid(args.b_values, "--b-values"))


def _suite_chains(suite: str) -> List[str]:
    if suite == "all":
        return list(CHAIN_NAMES)
    if suite == "regression":
        return []
    name = _SUITE_ALIASES.get(suite, suite)
    if name not in CHAIN_NAMES:
        raise DomainError(
            "unknown suite %r; expected all, regression, corollary, or one"
            " of %s" % (suite, ", ".join(CHAIN_NAMES)))
    return [name]


# ---------------------------------------------------------------------------
# fixed instances
# ---------------------------------------------------------------------------


def _fixed_coords(space: Space):
    # (start, end, reference point) coordinates, recursing into products
    if isinstance(space, EuclideanSpace):
        n = space.n
        return (tuple([0.0] * n), tuple([1.0] * n),
                tuple([1.0] + [0.0] * (n - 1)))
    if isinstance(space, HalfPlaneSpace):
        return ((-1.0, 1.0), (1.0, 1.0), (0.0, 1.0))
    if isinstance(space, SpiderSpace):
        return ((0, 1.0), (1, 1.0), (min(2, space.k - 1), 1.0))
    if isinstance(space, ProductSpace):
        ls, le, ly = _fixed_coords(space.left)
        rs, re_, ry = _fixed_coords(space.right)
        return ((ls, rs), (le, re_), (ly, ry))
    raise DomainError("no fixed instance for space %r" % space.name)


def _fixed_instance(space: Space):
    s, e, y = _fixed_coords(space)
    return Geodesic(space.point(s), space.point(e)), space.point(y)


def _regression_rows(chains: Sequence[str], include_all: bool,
                     tol: float) -> List[dict]:
    e2 = euclidean(2)
    hp = half_plane()
    origin = e2.point(0.0, 0.0)
    seg = Geodesic(origin, e2.point(1.0, 0.0))
    f_sq = squared_distance_function(e2, origin)
    unit = TheoremParams(1.0, 1.0, 0.0, 1.0, 2.0)
    hp_g = Geodesic(hp.point(-1.0, 1.0), hp.point(1.0, 1.0))
    hp_f = squared_distance_function(hp, hp.point(0.0, 1.0))
    specs = [
        ("classic_square", "classic_hh",
         lambda: classic_hh(parse_expression("t^2"), 0.0, 1.0, tol=tol)),
        ("classic_affine", "classic_hh",
         lambda: classic_hh(parse_expression("2*t + 1"), 0.0, 1.0,
                            tol=tol)),
        ("h_sqrt", "h_hh",
         lambda: h_hh(parse_expression("t^(1/2)"), "power(0.5)", 0.0, 1.0,
                      tol=tol)),
        ("conde_halfplane", "conde_hh",
         lambda: conde_hh(hp_f, hp_g, tol=tol)),
        ("cb1_square", "thm_cb1",
         lambda: thm_cb1(f_sq, seg, "identity", unit, tol=tol)),
        ("cb2_square", "thm_cb2",
         lambda: thm_cb2(f_sq, seg, "identity", unit, tol=tol)),
        ("ty1_square", "thm_ty1",
         lambda: thm_ty1(f_sq, seg, "identity", unit, tol=tol)),
        ("ty1_halfplane", "thm_ty1",
         lambda: thm_ty1(hp_f, hp_g, "power(1)",
                         TheoremParams(0.5, 2.0, 0.1, 0.9), tol=tol)),
        ("corollary_parallel", "corollary_distance",
         lambda: corollary_distance(
             Geodesic(e2.point(0.0, 0.0), e2.point(1.0, 0.0)),
             Geodesic(e2.point(0.0, 1.0), e2.point(1.0, 1.0)),
             "identity", TheoremParams(1.0, 1.0, 0.0, 1.0), tol=tol)),
        ("corollary_identical", "corollary_distance",
         lambda: corollary_distance(
             Geodesic(e2.point(0.5, 0.5), e2.point(2.0, 1.0)),
             Geodesic(e2.point(0.5, 0.5), e2.point(2.0, 1.0)),
             "identity", TheoremParams(1.0, 1.0, 0.0, 1.0), tol=tol)),
    ]
    rows = []
    for name, chain, thunk in specs:
        if include_all or chain in chains:
            rows.append({"name": name, "chain": chain,
                         "report": thunk().to_dict()})
    return rows


def _discrepancy_section(space: Space, trials: int, seed: int,
                         tol: float) -> dict:
    # both printed-formula comparisons, on fixed instances plus a
    # randomized probe of the product-form subtracted term
    e2 = euclidean(2)
    origin = e2.point(0.0, 0.0)
    seg = Geodesic(origin, e2.point(1.0, 0.0))
    f_sq = squared_distance_function(e2, origin)
    rep2 = thm_cb2(f_sq, seg, "identity", TheoremParams(1.0, 2.0, 0.0, 1.0),
                   tol=tol)
    cb2 = {
        "instance": {"space": "euclidean(2)", "f": "squared distance to 0",
                     "h": "identity", "alpha": 1.0, "rho": 2.0,
                     "a": 0.0, "b": 1.0},
        "right_side_canonical": rep2.sides[-1][1],
        "right_side_literal": rep2.extras["right_side_literal"],
        "literal_minus_canonical": rep2.extras["literal_minus_canonical"],
    }
    repc = corollary_distance(
        Geodesic(e2.point(0.0, 0.0), e2.point(1.0, 0.0)),
        Geodesic(e2.point(0.0, 1.0), e2.point(2.0, 1.0)),
        "identity", TheoremParams(1.0, 1.0, 0.0, 1.0), tol=tol)
    probe = falsify_search("corollary_distance", space, trials, seed=seed,
                           tol=tol, product_c_term=True)
    slim = {k: probe[k] for k in ("space", "trials", "seed", "evaluated",
                                  "violations", "worst_margin")}
    corollary = {
        "instance": {"space": "euclidean(2)",
                     "g1": "unit segment", "g2": "translate, twice as long",
                     "h": "identity", "alpha": 1.0, "rho": 1.0,
                     "a": 0.0, "b": 1.0},
        "operator_side": repc.sides[1][1],
        "difference_form_side": repc.sides[2][1],
        "product_form_side": repc.extras["right_product_bare_c"],
        "product_form_search": slim,
    }
    return {"cb2_normalization": cb2, "corollary_c_term": corollary}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run_verify(args) -> Tuple[dict, int]:
    space = parse_space(args.space)
    chains = _suite_chains(args.suite)
    trials = int(args.trials)
    if trials < 0:
        raise DomainError("--trials must be >= 0")
    summaries = [falsify_search(c, space, trials, seed=args.seed,
                                tol=args.tol) for c in chains]
    regression = _regression_rows(chains,
                                  args.suite in ("all", "regression"),
                                  args.tol)
    payload = {
        "schema": SCHEMA_VERSION, "command": "verify", "suite": args.suite,
        "space": space.name, "trials": trials, "seed": int(args.seed),
        "tol": float(args.tol), "falsify": summaries,
        "regression": regression,
    }
    if args.suite == "all":
        payload["discrepancy"] = _discrepancy_section(space, trials,
                                                      args.seed, args.tol)
    violations = sum(s["violations"] for s in summaries)
    violations += sum(0 if r["report"]["pass"] else 1 for r in regression)
    payload["violations"] = violations
    payload["pass"] = violations == 0
    return payload, (0 if violations == 0 else 1)


def _run_sweep(args) -> Tuple[dict, int]:
    chain = _SUITE_ALIASES.get(args.chain, args.chain)
    spec = chain_spec(chain)
    space = parse_space(args.space)
    grid = _grid(args)
    g, y = _fixed_instance(space)
    f = squared_distance_function(space, y)
    if spec.two_geodesics:
        g = (g, Geodesic(g.eval(0.5), g.end))
    hname = args.h if spec.takes_h else None
    q = args.q if spec.needs_q else None
    rows = []
    violations = 0
    for alpha, rho, a, b in grid:
        p = TheoremParams(alpha, rho, a, b, q)
        d = spec.evaluate(f, g, hname, p, tol=args.tol).to_dict()
        rows.append({"alpha": alpha, "rho": rho, "a": a, "b": b, "q": q,
                     "sides": d["sides"], "margins": d["margins"],
                     "pass": d["pass"]})
        if not d["pass"]:
            violations += 1
    payload = {"schema": SCHEMA_VERSION, "command": "sweep", "chain": chain,
               "space": space.name, "h": hname, "tol": float(args.tol),
               "rows": rows, "violations": violations,
               "pass": violations == 0}
    return payload, (0 if violations == 0 else 1)


# h whose two kernel terms h(b^rho - w) + h(1 - b^rho + w) add up to a
# constant m: E = h(1/2) m W^alpha with W = b^rho - a^rho
_E_ORACLE = {"constant_one": 2.0, "identity": 0.5}


def _run_constants(args) -> Tuple[dict, int]:
    rows = []
    failures = 0
    for alpha, rho, a, b in _grid(args):
        if a >= b:
            raise DomainError("constants grid needs a < b, got a=%g b=%g"
                              % (a, b))
        if args.which in ("C", "both"):
            val = compute_C(alpha, rho, a, b)
            oracle = compute_C_oracle(alpha, rho, a, b)
            err = abs(val - oracle)
            ok = val >= 0.0 and err <= args.tol
            rows.append({"constant": "C", "h": None, "alpha": alpha,
                         "rho": rho, "a": a, "b": b, "value": val,
                         "oracle": oracle, "abs_error": err, "pass": ok})
            failures += 0 if ok else 1
        if args.which in ("E", "both"):
            val = compute_E(args.h, alpha, rho, a, b)
            oracle = None
            err = None
            ok = True
            if args.h in _E_ORACLE:
                oracle = _E_ORACLE[args.h] * (b ** rho - a ** rho) ** alpha
                err = abs(val - oracle)
                ok = err <= args.tol
            rows.append({"constant": "E", "h": args.h, "alpha": alpha,
                         "rho": rho, "a": a, "b": b, "value": val,
                         "oracle": oracle, "abs_error": err, "pass": ok})
            failures += 0 if ok else 1
    payload = {"schema": SCHEMA_VERSION, "command": "constants",
               "which": args.which, "h": args.h, "tol": float(args.tol),
               "rows": rows, "failures": failures, "pass": failures == 0}
    return payload, (0 if failures == 0 else 1)


_OPS = {
    "rl-left": (rl_left, ("a", "x"), False),
    "rl-right": (rl_right, ("x", "b"), False),
    "hadamard-left": (hadamard_left, ("a", "x"), False),
    "hadamard-right": (hadamard_right, ("x", "b"), False),
    "katugampola-left": (katugampola_left, ("a", "x"), True),
    "katugampola-right": (katugampola_right, ("x", "b"), True),
}


def _run_fracint(args) -> Tuple[dict, int]:
    fn, bounds, needs_rho = _OPS[args.op]
    f = parse_expression(args.f)
    limits = []
    for name in bounds:
        value = getattr(args, name)
        if value is None:
            raise DomainError("--%s is required for %s" % (name, args.op))
        limits.append(float(value))
    for name in ("a", "x", "b"):
        if name not in bounds and getattr(args, name) is not None:
            raise DomainError("--%s does not apply to %s" % (name, args.op))
    if needs_rho:
        rho = 1.0 if args.rho is None else float(args.rho)
        value, err = fn(f, args.alpha, rho, limits[0], limits[1],
                        full_output=True)
    else:
        if args.rho is not None:
            raise DomainError("--rho only applies to katugampola operators")
        rho = None
        value, err = fn(f, args.alpha, limits[0], limits[1],
                        full_output=True)
    payload = {"schema": SCHEMA_VERSION, "command": "fracint",
               "op": args.op, "f": args.f, "alpha": float(args.alpha),
               "rho": rho, "a": args.a, "x": args.x, "b": args.b,
               "value": value, "error_estimate": err}
    return payload, 0


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


_CSV_COLUMNS = {
    "verify": ("schema", "section", "name", "chain", "space", "trials",
               "seed", "tol", "evaluated", "discarded",
               "quadrature_failures", "violations", "worst_margin", "pass"),
    "sweep": ("schema", "chain", "space", "h", "alpha", "rho", "a", "b",
              "q", "side1", "side2", "side3", "side4", "margin1",
              "margin2", "margin3", "pass"),
    "constants": ("schema", "constant", "h", "alpha", "rho", "a", "b",
                  "value", "oracle", "abs_error", "pass"),
    "fracint": ("schema", "op", "f", "alpha", "rho", "a", "x", "b",
                "value", "error_estimate"),
}


def _csv_rows(payload: dict) -> List[dict]:
    """The report's CSV rows, each a dict keyed by column name."""
    command = payload["command"]
    if command == "fracint":
        return [payload]
    if command == "constants":
        return payload["rows"]
    if command == "sweep":
        return [{**r, "chain": payload["chain"], "space": payload["space"],
                 "h": payload["h"],
                 **{"side%d" % i: v
                    for i, (_, v) in enumerate(r["sides"], 1)},
                 **{"margin%d" % i: v
                    for i, v in enumerate(r["margins"], 1)}}
                for r in payload["rows"]]
    space, tol = payload["space"], payload["tol"]
    rows = [{**s, "section": "falsify", "name": s["chain"],
             "pass": s["violations"] == 0} for s in payload["falsify"]]
    for r in payload["regression"]:
        report = r["report"]
        rows.append({"section": "regression", "name": r["name"],
                     "chain": r["chain"], "space": space,
                     "tol": report["tol"],
                     "violations": 0 if report["pass"] else 1,
                     "worst_margin": min(report["margins"]),
                     "pass": report["pass"]})
    disc = payload.get("discrepancy")
    if disc is not None:
        cb2 = disc["cb2_normalization"]
        search = disc["corollary_c_term"]["product_form_search"]
        rows.append({"section": "discrepancy", "name": "cb2_normalization",
                     "chain": "thm_cb2", "space": space, "tol": tol,
                     "worst_margin": cb2["literal_minus_canonical"]})
        rows.append({**search, "section": "discrepancy",
                     "name": "corollary_c_term",
                     "chain": "corollary_distance", "tol": tol})
    return rows


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    columns = _CSV_COLUMNS[payload["command"]]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in _csv_rows(payload):
        row = dict(row, schema=payload["schema"])
        writer.writerow([_cell(row.get(column)) for column in columns])
    return buf.getvalue()


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# argument parser and entry points
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and shared by
    every later one: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="geofrac",
        description="verify Hermite-Hadamard chains on geodesic spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report to PATH instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def checked(p):
        # fracint reports check nothing, so only the other commands take
        # a tolerance
        common(p)
        p.add_argument("--tol", type=float, default=1e-8,
                       help="tolerance of the report's checks")

    v = sub.add_parser("verify", help="falsification and regression suites")
    v.add_argument("--suite", default="all",
                   help="all, regression, corollary, or a chain name")
    v.add_argument("--space", default="euclidean2")
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    checked(v)

    s = sub.add_parser("sweep", help="one chain over a parameter grid")
    s.add_argument("chain", help="chain name, e.g. thm_ty1")
    s.add_argument("--space", default="euclidean2")
    s.add_argument("--alphas", default="1")
    s.add_argument("--rhos", default="1")
    s.add_argument("--a-values", dest="a_values", default="0")
    s.add_argument("--b-values", dest="b_values", default="1")
    s.add_argument("--h", default="identity")
    s.add_argument("--q", type=float, default=2.0,
                   help="Holder exponent (thm_cb1 only)")
    checked(s)

    c = sub.add_parser("constants", help="C and E constants over a grid")
    c.add_argument("--which", choices=("C", "E", "both"), default="both")
    c.add_argument("--alphas", default="0.5,1,2,3")
    c.add_argument("--rhos", default="0.5,1,2")
    c.add_argument("--a-values", dest="a_values", default="0,0.25,0.5")
    c.add_argument("--b-values", dest="b_values", default="0.75,1")
    c.add_argument("--h", default="constant_one",
                   help="weight for E (constant_one and identity have an"
                   " oracle)")
    checked(c)

    f = sub.add_parser("fracint", help="evaluate one fractional integral")
    f.add_argument("--op", required=True, choices=sorted(_OPS))
    f.add_argument("--f", required=True, metavar="EXPR",
                   help="formula in t, e.g. 't^2' or '1'")
    f.add_argument("--alpha", type=float, required=True)
    f.add_argument("--rho", type=float, default=None,
                   help="katugampola operators only (default 1)")
    f.add_argument("--a", type=float, default=None)
    f.add_argument("--x", type=float, default=None)
    f.add_argument("--b", type=float, default=None)
    common(f)
    return parser


_RUNNERS = {"verify": _run_verify, "sweep": _run_sweep,
            "constants": _run_constants, "fracint": _run_fracint}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)  # argparse: 0 for --help, 2 for usage
    try:
        if "tol" in args and not (args.tol > 0 and math.isfinite(args.tol)):
            raise DomainError("--tol must be positive and finite")
        payload, code = _RUNNERS[args.command](args)
        _write(_render(payload, args.format), args.out)
        return code
    except (DomainError, SpaceMismatchError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        # only _write touches the file system: --out cannot be written
        print("error: cannot write %s: %s" % (args.out, exc.strerror or exc),
              file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
