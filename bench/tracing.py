"""Outside tracer for geofrac: spans and counters around public names.

The tracer never edits the package's source.  `Tracer.install` replaces
every public function of the layer modules (and the public methods of
`Geodesic`) with a wrapper that records a span, and it rebinds the
wrapper in *every* geofrac namespace that holds the original object:
`chains`, `fractional`, `cli` and `convexity` use `from .x import y`, so
a wrapper set only on the defining module would miss their calls.
`Tracer.uninstall` puts the originals back.

A span is (id, name, start, end, parent id, job id).  Self time is the
span's duration minus the time covered by its child spans and is summed
per span name as spans close.  Spans are kept in memory, up to
`SPAN_CAP`, and written out by `write_spans` when the benchmark ends.

Operand calls are counted once, at the `integrate` level: the operand
handed to `integrate` is wrapped, not `as_array_function`, which both
`integrate` and `power_kernel_integral` call and which would double the
count.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

SPAN_CAP = 100_000

LAYERS = ("quadrature", "fractional", "spaces", "convexity", "chains",
          "cli")

CHAINS = ("classic_hh", "h_hh", "conde_hh", "thm_cb1", "thm_cb2",
          "thm_ty1", "corollary_distance")

# kernel-exponent bands of power_kernel_integral
BANDS = ("int", "lt1", "1to2", "ge2")

GEODESIC_METHODS = ("__init__", "eval", "eval_batch", "restrict")

GAP_BATCH = ("cn_gap_batch", "busemann_gap_batch", "comparison_gap_batch",
             "four_point_gap_batch", "sturm_gap_batch")

POINT_OPS = ("distance", "random_point", "random_geodesic",
             "geodesic_point", "geodesic_restrict", "cn_gap", "busemann_gap",
             "comparison_gap", "four_point_gap", "sturm_gap",
             "Geodesic.eval", "Geodesic.restrict")

CHECKS = ("check_h_convex", "check_convex", "check_quasi_or_p_convex")


def band(exponent: float) -> str:
    e = float(exponent)
    if e.is_integer():
        return "int"
    if e < 1.0:
        return "lt1"
    return "1to2" if e < 2.0 else "ge2"


def _nbytes(obj) -> int:
    # coordinate batches are arrays or (nested) tuples of arrays
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


class Tracer:
    """Records spans and counters while installed; see module docstring."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        self.spans = []
        self.dropped = 0
        self.job = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._next_id = 0
        self._stack = []
        self._bands = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, name, parent, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, name, parent, start, child = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        if len(self.spans) < self.span_cap:
            self.spans.append((sid, name, start, end, parent, self.job))
        else:
            self.dropped += 1

    def span(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result) runs inside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            finally:
                self._exit()

        return traced

    # -- hooks for the names whose counts need their arguments ------------

    def _integrate(self, fn):
        from geofrac.errors import AccuracyError

        def operand_of(f):
            def operand(x):
                self._enter("quadrature.operand")
                try:
                    return f(x)
                finally:
                    self._exit()
                    self.counts["quadrature.operand.points"] += np.size(x)
                    if self._bands:
                        self.counts["quadrature.power_kernel.operand_calls."
                                    + self._bands[-1]] += 1

            return operand

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            self._enter("quadrature.integrate")
            try:
                return fn(operand_of(f), *args, **kwargs)
            except AccuracyError:
                self.counts["quadrature.accuracy_errors"] += 1
                raise
            finally:
                self._exit()

        return traced

    def _power_kernel(self, fn):
        @functools.wraps(fn)
        def traced(g, upper, exponent, *args, **kwargs):
            b = band(exponent)
            self.counts["quadrature.power_kernel.calls." + b] += 1
            self._bands.append(b)
            self._enter("quadrature.power_kernel_integral")
            try:
                return fn(g, upper, exponent, *args, **kwargs)
            finally:
                self._exit()
                self._bands.pop()

        return traced

    def _eval_batch_after(self, args, out):
        self.counts["spaces.eval_batch.points"] += np.size(args[1])

    def _gap_after(self, args, out):
        self.counts["spaces.gap_batch.rows"] += np.size(out)
        self.counts["spaces.gap_batch.bytes_computed"] += (
            _nbytes(args[1:]) + _nbytes(out))

    def _check_after(self, args, verdict):
        self.counts["convexity.check.points"] += verdict.samples
        self.counts["convexity.check.accepted"] += bool(verdict.holds)

    def _falsify_after(self, args, summary):
        for key in ("trials", "evaluated", "discarded",
                    "quadrature_failures"):
            self.counts["chains.falsify." + key] += summary[key]

    # -- install / uninstall -----------------------------------------------

    def _targets(self):
        """(owner, attribute, original, wrapper) for every traced name."""
        import geofrac.spaces as spaces

        hooks = {
            "quadrature.integrate": self._integrate,
            "quadrature.power_kernel_integral": self._power_kernel,
        }
        after = {"spaces.Geodesic.eval_batch": self._eval_batch_after,
                 "convexity.check_h_convex": self._check_after,
                 "convexity.check_quasi_or_p_convex": self._check_after,
                 "chains.falsify_search": self._falsify_after}
        for name in GAP_BATCH:
            after["spaces." + name] = self._gap_after
        out = []
        for layer in LAYERS:
            mod = sys.modules["geofrac." + layer]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                # classes, catalogs and constants are not calls
                if not callable(fn) or isinstance(fn, type):
                    continue
                name = "%s.%s" % (layer, attr)
                if name in hooks:
                    wrapper = hooks[name](fn)
                else:
                    wrapper = self.span(name, fn, after.get(name))
                out.append((mod, attr, fn, wrapper))
        for attr in GEODESIC_METHODS:
            fn = getattr(spaces.Geodesic, attr)
            name = "spaces.Geodesic." + attr
            out.append((spaces.Geodesic, attr, fn,
                        self.span(name, fn, after.get(name))))
        return out

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        by_id = {id(fn): wrapper for _owner, _attr, fn, wrapper in targets}
        for owner, attr, fn, wrapper in targets:
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        # rebind each module-level name in every geofrac namespace holding
        # one of the originals, whichever module defined it
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "geofrac"
                                   or modname.startswith("geofrac.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def _sum(self, table, names) -> float:
        return float(sum(table.get(n, 0) for n in names))

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, each a per-pass mean over `passes` passes."""
        c, s, k = self.calls, self.self_s, self.counts
        m = {}

        def put(prefix, names):
            m[prefix + ".calls"] = self._sum(c, names)
            m[prefix + ".self_s"] = self._sum(s, names)

        def per_call(prefix, points):
            calls = m[prefix + ".calls"]
            m[prefix + ".points"] = points
            m[prefix + ".points_per_call"] = points / calls if calls else 0.0

        put("quadrature.integrate", ["quadrature.integrate"])
        put("quadrature.operand", ["quadrature.operand"])
        per_call("quadrature.operand", k["quadrature.operand.points"])
        for b in BANDS:
            m["quadrature.power_kernel.calls." + b] = float(
                k["quadrature.power_kernel.calls." + b])
            m["quadrature.power_kernel.operand_calls." + b] = float(
                k["quadrature.power_kernel.operand_calls." + b])
        m["quadrature.accuracy_errors"] = float(
            k["quadrature.accuracy_errors"])
        put("fractional.katugampola", ["fractional.katugampola_left",
                                       "fractional.katugampola_right"])
        put("fractional.lq_norm", ["fractional.lq_norm_unit"])
        put("spaces.eval_batch", ["spaces.Geodesic.eval_batch"])
        per_call("spaces.eval_batch", k["spaces.eval_batch.points"])
        put("spaces.geodesic_new", ["spaces.Geodesic.__init__"])
        put("spaces.point_ops", ["spaces." + n for n in POINT_OPS])
        m["spaces.gap_batch.rows"] = float(k["spaces.gap_batch.rows"])
        m["spaces.gap_batch.self_s"] = self._sum(
            s, ["spaces." + n for n in GAP_BATCH])
        m["spaces.gap_batch.bytes_computed"] = float(
            k["spaces.gap_batch.bytes_computed"])
        # check_convex only delegates to check_h_convex: count one call
        m["convexity.check.calls"] = self._sum(
            c, ["convexity.check_h_convex",
                "convexity.check_quasi_or_p_convex"])
        m["convexity.check.self_s"] = self._sum(
            s, ["convexity." + n for n in CHECKS])
        m["convexity.check.points"] = float(k["convexity.check.points"])
        checks = m["convexity.check.calls"]
        m["convexity.check.accept_ratio"] = (
            k["convexity.check.accepted"] / checks if checks else 0.0)
        for chain in CHAINS:
            put("chains." + chain, ["chains." + chain])
        m["chains.falsify.self_s"] = self._sum(s, ["chains.falsify_search"])
        for key in ("trials", "evaluated", "discarded",
                    "quadrature_failures"):
            m["chains.falsify." + key] = float(k["chains.falsify." + key])
        put("cli.main", ["cli.main"])
        # ratios stay ratios; totals become per-pass means
        ratios = {"quadrature.operand.points_per_call",
                  "spaces.eval_batch.points_per_call",
                  "convexity.check.accept_ratio"}
        n = max(1, passes)
        return {key: (v if key in ratios else v / n) for key, v in m.items()}

    def write_spans(self, path) -> None:
        """Tab-separated spans, one a line, with a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# dropped_after_cap\t%d\n" % self.dropped)
            fh.write("id\tname\tstart_s\tend_s\tparent\tjob\n")
            for sid, name, start, end, parent, job in sorted(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (sid, name, start, end, parent, job))


# ---------------------------------------------------------------------------
# interaction table: which layers each workload must use or bypass
# ---------------------------------------------------------------------------

_FRACTIONAL_CHAINS = ("thm_cb1", "thm_cb2", "thm_ty1", "corollary_distance")
_SCALAR_CHAINS = ("classic_hh", "h_hh", "conde_hh")
_KERNEL = (["quadrature.power_kernel.calls." + b for b in BANDS]
           + ["quadrature.power_kernel.operand_calls." + b for b in BANDS])
_VERIFY_USES = ["quadrature.integrate.calls", "quadrature.operand.calls",
                "spaces.eval_batch.calls", "spaces.geodesic_new.calls",
                "convexity.check.calls", "chains.falsify.trials",
                "cli.main.calls"]

INTERACTIONS = {
    "verify_fractional": {
        "uses": _VERIFY_USES + ["fractional.katugampola.calls",
                                "fractional.lq_norm.calls"]
        + ["chains.%s.calls" % c for c in _FRACTIONAL_CHAINS],
        "bypasses": ["spaces.gap_batch.rows"]
        + ["chains.%s.calls" % c for c in _SCALAR_CHAINS],
    },
    "verify_scalar": {
        "uses": _VERIFY_USES
        + ["chains.%s.calls" % c for c in _SCALAR_CHAINS],
        "bypasses": _KERNEL + ["fractional.katugampola.calls",
                               "fractional.lq_norm.calls",
                               "spaces.gap_batch.rows"]
        + ["chains.%s.calls" % c for c in _FRACTIONAL_CHAINS],
    },
    "geometry": {
        "uses": ["spaces.point_ops.calls", "spaces.geodesic_new.calls",
                 "spaces.gap_batch.rows"],
        "bypasses": ["quadrature.integrate.calls",
                     "quadrature.operand.calls", "quadrature.accuracy_errors",
                     "fractional.katugampola.calls",
                     "fractional.lq_norm.calls", "convexity.check.calls",
                     "chains.falsify.trials", "cli.main.calls"]
        + _KERNEL + ["chains.%s.calls" % c for c in CHAINS],
    },
}


def interaction_errors(workload: str, metrics: dict) -> list:
    """Predicted uses that read 0 and predicted bypasses that do not."""
    table = INTERACTIONS[workload]
    errors = ["%s predicted in use but reads 0" % k
              for k in table["uses"] if not metrics[k] > 0.0]
    errors += ["%s predicted bypassed but reads %r" % (k, metrics[k])
               for k in table["bypasses"] if metrics[k] != 0.0]
    return errors


# ---------------------------------------------------------------------------
# fixed probe: operand calls of one katugampola_left integral
# ---------------------------------------------------------------------------

PROBE_ALPHAS = (0.3, 0.5, 0.9, 1.0, 1.5, 2.5)
PROBE_RHOS = (0.5, 1.0, 2.0)


def _probe_exact(alpha: float, rho: float) -> float:
    # left Katugampola integral of exp on (0, 1) at x = 1, from the series
    # exp(t) = sum t^n / n!, since the integral of t^n is
    # rho^-alpha Gamma(n/rho + 1) / Gamma(alpha + n/rho + 1)
    total = 0.0
    for n in range(60):
        s = n / rho
        total += math.exp(math.lgamma(s + 1.0) - math.lgamma(alpha + s + 1.0)
                          - math.lgamma(n + 1.0))
    return rho ** (-alpha) * total


def _probe_key(alpha: float, rho: float) -> str:
    return "a%g_r%g" % (alpha, rho)


def probe_metrics() -> dict:
    """Operand calls per (alpha, rho) for exp through katugampola_left on
    (0, 1), and the number of cells whose error estimate misses the
    series value by more than roundoff."""
    import geofrac.fractional as fractional

    out = {}
    misses = 0
    for alpha in PROBE_ALPHAS:
        for rho in PROBE_RHOS:
            tracer = Tracer(span_cap=0)
            with tracer:
                value, err = fractional.katugampola_left(
                    np.exp, alpha, rho, 0.0, 1.0, full_output=True)
            exact = _probe_exact(alpha, rho)
            if abs(value - exact) > err + 1e-15 * abs(exact):
                misses += 1
            out["quadrature.probe.operand_calls." + _probe_key(alpha, rho)] = (
                float(tracer.calls["quadrature.operand"]))
    out["quadrature.probe.estimate_misses"] = float(misses)
    return out
