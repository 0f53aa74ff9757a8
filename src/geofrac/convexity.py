"""Convexity checks for functions along geodesics.

A "space function" maps a coordinate batch of m points to a float array
of shape (m,); `squared_distance_function` and friends build the common
ones.  A function f of one Point pulls back along g as the operand
`pointwise(lambda t: f(g.eval(t)))`.

`check_h_convex` samples restrictions of one geodesic and tests the
endpoint form of h-convexity on each: with F(lam) the function along the
restriction,

    F(lam) <= h(1 - lam) F(0) + h(lam) F(1)

for a grid of lam.  The slack of the worst sample is reported together
with a witness, so a failed check is reproducible.  A sample whose bound
is not finite (h not finite, as godunova_levin at 0, or an infinite end
value of F times a zero weight) is vacuous and skipped; a NaN value of F
fails, as does F(lam) = +inf under a finite bound.

Checks are sampling-based: a `holds` verdict certifies the inequality on
the sampled grid only, while a failed verdict carries a concrete witness.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, SpaceMismatchError
from .quadrature import as_array_function
from .spaces import Geodesic, Point, Space, _take_rows, euclidean

__all__ = ["HFunction", "h_function", "H_CATALOG", "ConvexityVerdict",
           "check_h_convex", "check_convex", "check_quasi_or_p_convex",
           "squared_distance_function", "distance_between_geodesics_function",
           "on_geodesic", "scalar_pullback"]


@dataclass(frozen=True)
class HFunction:
    """Multiplier function on (0, 1); h(0) and h(1) may be infinite.

    k is the exponent when h(t) = t**k and None otherwise.  The chains'
    constants of h use their Beta closed forms when k is set, so k must
    describe fn, as it does by construction for the catalog (`_power_h`);
    a bare callable keeps None and quadrature.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    k: Optional[float] = None

    def __call__(self, t) -> np.ndarray:
        tt = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(self.fn(tt), dtype=float)

    def __repr__(self) -> str:
        return "HFunction(%s)" % self.name


H_CATALOG = ("identity", "constant_one", "godunova_levin", "power(k)")

# the exponent k of each named catalog member h = t**k
_NAMED_K = {"identity": 1.0, "constant_one": 0.0, "godunova_levin": -1.0}

_POWER_RE = re.compile(r"^power\(\s*([^)\s]+)\s*\)$")


def _power_h(k: float, name: Optional[str] = None) -> HFunction:
    # t**k (numpy's power gives the bits of t, 1 and 1 / t at k = 1, 0
    # and -1), named power(k) unless a name is given; repr round-trips
    # through float(); integral k prints as power(2)
    text = repr(float(k))
    text = text[:-2] if text.endswith(".0") else text
    return HFunction(name or "power(%s)" % text, lambda t: np.power(t, k), k)


def h_function(spec: Union[str, HFunction, Callable]) -> HFunction:
    """Resolve a catalog name, an HFunction, or a bare callable."""
    if isinstance(spec, HFunction):
        return spec
    if callable(spec):
        return HFunction(getattr(spec, "__name__", "custom"),
                         as_array_function(spec))
    name = str(spec).strip()
    if name in _NAMED_K:
        return _power_h(_NAMED_K[name], name)
    m = _POWER_RE.match(name)
    if m:
        try:
            k = float(m.group(1))
        except ValueError:
            raise DomainError("bad power exponent in %r" % name) from None
        if not np.isfinite(k):
            raise DomainError("power exponent must be finite")
        return _power_h(k)
    raise DomainError("unknown h function %r; catalog: %s"
                      % (name, ", ".join(H_CATALOG)))


# ---------------------------------------------------------------------------
# space functions
# ---------------------------------------------------------------------------


def _batch_values(f: Callable, batch, m: int) -> np.ndarray:
    """f on a coordinate batch of m points; the result must have shape (m,)."""
    vals = np.asarray(f(batch), dtype=float)
    if vals.shape != (m,):
        raise DomainError("space function returned shape %s for a batch of "
                          "%d points; a function of one Point pulls back as "
                          "pointwise(lambda t: f(g.eval(t)))"
                          % (vals.shape, m))
    return vals


def squared_distance_function(space: Space, y: Point,
                              k: float = 2.0) -> Callable:
    """d(., y)**k as a space function; convex along geodesics for k >= 1."""
    if y.space != space:
        raise SpaceMismatchError("reference point lives in a different space")
    k = float(k)
    if not (np.isfinite(k) and k >= 1.0):
        raise DomainError("exponent k must be >= 1")

    def f(batch) -> np.ndarray:
        return _dist_pow(space, batch, y.row, k)

    f.__name__ = "dist_to_point_pow_%g" % k
    return f


def distance_between_geodesics_function(g1: Geodesic,
                                        g2: Geodesic) -> Callable:
    """t -> d(g1(t), g2(t))**2, an array function of the parameter."""
    if g1.space != g2.space:
        raise SpaceMismatchError("geodesics live in different spaces")
    space = g1.space

    def fn(ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return _dist_pow(space, g1.eval_batch(ts), g2.eval_batch(ts),
                         2).reshape(ts.shape)

    fn.__name__ = "squared_geodesic_distance"
    return fn


def _dist_pow(space: Space, P, Q, k: float) -> np.ndarray:
    # the one formula of the distance pullbacks, per trial and stacked
    return space._dist(P, Q) ** k


def on_geodesic(f: Callable, geodesic: Geodesic) -> Callable:
    """Pull a space function back along a geodesic: t -> f(g(t)), an
    array function of the parameter (the result has the input's shape)."""

    def fn(ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        vals = _batch_values(f, geodesic.eval_batch(ts), ts.size)
        return vals.reshape(ts.shape)

    return fn


# ---------------------------------------------------------------------------
# the same pullbacks for R geodesics at once
# ---------------------------------------------------------------------------
#
# A parameter array of shape (..., K, m) comes with the row of each of its
# K lines: line k goes to geodesic rows[k].  The geodesics come as the
# constants of one endpoint stage (`Space._ends`), and each call takes
# the rows it needs from them, so every point comes from the same
# arithmetic as on its own geodesic.


def _along_rows(space: Space, ends, ts: np.ndarray, rows: np.ndarray):
    # the points of ts as one batch, line k on geodesic rows[k] of ends,
    # and the row of each point
    rows = np.broadcast_to(rows[:, None], ts.shape).ravel()
    return space._along(_take_rows(ends, rows), ts.ravel()), rows


def _distance_pullback_rows(space: Space, ends, ys, k: float) -> Callable:
    """(ts, rows) -> d(g_r(t), y_r)**k, r = rows[line], for the geodesics
    of the endpoint-stage batch ends and the coordinate batch ys: the
    pullbacks of `squared_distance_function(space, y_r, k)`, shaped as
    ts."""
    def fn(ts, rows) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        pts, rows = _along_rows(space, ends, ts, rows)
        return _dist_pow(space, pts, _take_rows(ys, rows),
                         k).reshape(ts.shape)

    return fn


def _geodesic_distance_rows(space: Space, ends1, ends2) -> Callable:
    """(ts, rows) -> d(g1_r(t), g2_r(t))**2, r = rows[line], for two
    endpoint-stage batches: the `distance_between_geodesics_function` of
    each pair, shaped as ts."""
    def fn(ts, rows) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return _dist_pow(space, _along_rows(space, ends1, ts, rows)[0],
                         _along_rows(space, ends2, ts, rows)[0],
                         2).reshape(ts.shape)

    return fn


def scalar_pullback(fn: Callable, lo: float = 0.0,
                    hi: float = 1.0) -> Tuple[Callable, Geodesic]:
    """View a function on [lo, hi] as a space function on a segment."""
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise DomainError("need finite lo < hi")
    line = euclidean(1)
    g = Geodesic(line.point(lo), line.point(hi))
    arr = as_array_function(fn)

    def f(batch) -> np.ndarray:
        return arr(np.asarray(batch, dtype=float)[:, 0])

    return f, g


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexityVerdict:
    holds: bool
    worst_slack: float
    witness: Optional[Tuple[float, float, float]]
    samples: int


@functools.lru_cache(maxsize=16, typed=True)
def _restriction_grid(samples: int, pairs: int, seed: int):
    # the restrictions [t1, t2] (the whole geodesic first, then `pairs`
    # random ones), the lam grid and the geodesic parameter of each sample
    rng = np.random.default_rng(seed)
    draws = rng.uniform(0.0, 1.0, (pairs, 2))
    t1 = np.concatenate(([0.0], draws.min(axis=1)))
    t2 = np.concatenate(([1.0], draws.max(axis=1)))
    degenerate = (t2 - t1) < 1e-9
    t1 = np.where(degenerate, 0.25, t1)
    t2 = np.where(degenerate, 0.75, t2)
    lam = np.linspace(0.0, 1.0, samples + 2)
    params = t1[:, None] * (1.0 - lam)[None, :] + t2[:, None] * lam[None, :]
    for arr in (t1, t2, lam, params):
        arr.flags.writeable = False
    return t1, t2, lam, params


def _restriction_values(f: Callable, geodesic: Geodesic, samples: int,
                        pairs: int, seed: int):
    if samples < 1 or pairs < 0:
        raise DomainError("need samples >= 1 and pairs >= 0")
    if isinstance(seed, (int, np.integer)):
        # the grid depends on (samples, pairs, seed) alone: cached
        grid = _restriction_grid(samples, pairs, seed)
    else:
        grid = _restriction_grid.__wrapped__(samples, pairs, seed)
    t1, t2, lam, params = grid
    values = _batch_values(f, geodesic.eval_batch(params.ravel()),
                           params.size).reshape(params.shape)
    return t1, t2, lam, values


def _verdict(bound: np.ndarray, values: np.ndarray, t1, t2, lam,
             tol: float) -> ConvexityVerdict:
    # values <= bound per sample; a bound that is not finite is vacuous,
    # unless a value of F that the sample reads is NaN (module docstring)
    vacuous = ~np.isfinite(bound)
    if vacuous.any():
        nan = np.isnan(values)
        vacuous = vacuous & ~(nan | nan[:, :1] | nan[:, -1:])
        # a vacuous slack is inf - 0, so no inf - inf is formed
        bound = np.where(vacuous, np.inf, bound)
        values = np.where(vacuous, 0.0, values)
    n = values.size - int(np.count_nonzero(vacuous))
    if n == 0:
        return ConvexityVerdict(True, np.inf, None, 0)
    slack = bound - values
    holds = bool((slack >= -tol).all())
    idx = int(np.argmin(slack))
    r, j = divmod(idx, values.shape[1])
    witness = (float(t1[r]), float(t2[r]), float(lam[j]))
    return ConvexityVerdict(holds, float(slack.flat[idx]), witness, n)


def check_h_convex(f: Callable, geodesic: Geodesic,
                   h: Union[str, HFunction, Callable] = "identity", *,
                   samples: int = 64, pairs: int = 8, tol: float = 1e-9,
                   seed: int = 0) -> ConvexityVerdict:
    """Sampled h-convexity of f along one geodesic and its restrictions."""
    hf = h_function(h)
    t1, t2, lam, values = _restriction_values(f, geodesic, samples, pairs,
                                              seed)
    hl = hf(lam)
    hr = hf(1.0 - lam)
    with np.errstate(invalid="ignore"):
        bound = (hr[None, :] * values[:, :1]
                 + hl[None, :] * values[:, -1:])
    return _verdict(bound, values, t1, t2, lam, tol)


def check_convex(f: Callable, geodesic: Geodesic, *, samples: int = 64,
                 pairs: int = 8, tol: float = 1e-9,
                 seed: int = 0) -> ConvexityVerdict:
    """Sampled ordinary convexity (h = identity)."""
    return check_h_convex(f, geodesic, "identity", samples=samples,
                          pairs=pairs, tol=tol, seed=seed)


def check_quasi_or_p_convex(f: Callable, geodesic: Geodesic,
                            mode: str = "quasi", p: float = 2.0, *,
                            samples: int = 64, pairs: int = 8,
                            tol: float = 1e-9,
                            seed: int = 0) -> ConvexityVerdict:
    """Sampled quasiconvexity, or convexity of f**p for mode="p"."""
    if mode not in ("quasi", "p"):
        raise DomainError("mode must be 'quasi' or 'p'")
    t1, t2, lam, values = _restriction_values(f, geodesic, samples, pairs,
                                              seed)
    if mode == "quasi":
        return _verdict(np.maximum(values[:, :1], values[:, -1:]), values,
                        t1, t2, lam, tol)
    p = float(p)
    if not (np.isfinite(p) and p > 0.0):
        raise DomainError("p must be positive and finite")
    if np.any(values < 0.0):
        raise DomainError("p-convexity needs nonnegative sampled values")
    vp = values ** p
    bound = (1.0 - lam)[None, :] * vp[:, :1] + lam[None, :] * vp[:, -1:]
    return _verdict(bound, vp, t1, t2, lam, tol)
