"""Adaptive Gauss quadrature with a Gauss-Jacobi panel for power kernels.

`integrate` is the one adaptive engine.  It integrates

    (x - lo)**(exponent - 1) * f(x)   over [lo, hi]

by panel bisection: each panel is compared with its two halves and split
again until the difference falls under the panel's share of the budget.
With the default exponent 1 the weight is absent and every panel uses
the n-node Gauss-Legendre rule.  Otherwise the panel that touches lo uses
the n-node Gauss-Jacobi rule for the weight u**(exponent-1) on (0, 1),
built by the Golub-Welsch method, so the endpoint kernel is integrated
exactly and smooth f needs no refinement there; every other panel uses
Gauss-Legendre on the weighted integrand, which is smooth away from lo.

The first level, the whole interval and its two halves, is written once
for R integrals at a time (`_first_level`): their 3 NODES nodes per row
go to the operand as one (R, 3 NODES) array, their Jacobi rules come
from one stacked Golub-Welsch `eigh` (`_jacobi_rules`; `_jacobi_rule` is
its cached one-row case), and the panel sums are one stacked product.
`integrate` is its one-row case, so a smooth operand costs one operand
call, followed by the bisection stack for the halves that miss.
`_integrate_rows` applies integrate's own bisection test to each of R
rows and returns the values of those that pass, bit for bit the values
`integrate` returns; the falsifier evaluates trials that way
(`chains.falsify_search`).  Per-row powers stay Python-float powers, as
in a lone integral, so stacking never changes a number.

:func:`power_kernel_integral` puts the kernel w**(exponent-1) through this
engine.  An operand with a power singularity of its own at w = 0 defeats
the Jacobi panel; for it the integral is re-run once through the
substitution v = w**exponent, which folds the kernel into the measure.

Every integral runs at one fixed accuracy, set by the module constants
REL_TOL, ABS_TOL, NODES and MAX_PANELS.

Operands are array functions: an array of nodes in, the same shape out
(a 0-d result broadcasts).  They are never probed: a scalar-only function
is wrapped in :func:`pointwise`, and an operand's exceptions propagate.
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


@functools.lru_cache(maxsize=16)
def _jacobi_rule(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss rule for the weight u**beta on (0, 1), beta > -1: the
    one-row case of `_jacobi_rules`, cached."""
    nodes, weights = (v[0] for v in _jacobi_rules(n, [beta]))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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


def _accepted(err: float, budget: float, width: float, span: float) -> bool:
    # a panel may take its width's share of the budget or an equal 1/max
    # share; the latter keeps deep refinements near a hard point from
    # demanding ever smaller absolute errors than the sum requires
    return err <= budget * width / span or err <= budget / MAX_PANELS


def _rules(exponent: list) -> list:
    """The Jacobi rule of each of R integrals' weights, None for a row
    without one (exponent 1): one stacked build for R > 1 rows."""
    betas = [e - 1.0 for e in exponent]
    weighted = [i for i, beta in enumerate(betas) if beta != 0.0]
    rules = [None] * len(betas)
    if len(betas) == 1 and weighted:
        rules[0] = _jacobi_rule(NODES, betas[0])
    elif weighted:
        nodes, weights = _jacobi_rules(NODES, [betas[i] for i in weighted])
        for i, us, lams in zip(weighted, nodes, weights):
            rules[i] = (us, lams)
    return rules


def _panel(a: float, b: float, lo: float, exponent: float, rule):
    """Nodes, weights and scale of the rule on the panel [a, b] of an
    integral from lo: the Jacobi rule (us, lams) of its weight at lo,
    Gauss-Legendre on the weighted integrand elsewhere."""
    beta = exponent - 1.0
    if beta != 0.0 and a == lo:
        width = b - a
        us, lams = rule
        return a + width * us, lams, width ** exponent
    xs, ws = _rule(NODES)
    half = 0.5 * (b - a)
    pts = 0.5 * (a + b) + half * xs
    return pts, ws if beta == 0.0 else ws * (pts - lo) ** beta, half


def _first_level(g: Callable, lo, hi, exponent) -> list:
    """Whole panel and both halves of R integrals in one operand call.

    Row r integrates (x - lo[r])**(exponent[r] - 1) f_r(x) over
    [lo[r], hi[r]], lo < hi.  g takes the (R, 3 NODES) node array whose
    row r holds the nodes of [lo, hi], [lo, m] and [m, hi] (m the
    midpoint) and returns f_r there, same shape.  The panel sums are one
    stacked product, (3R, 1, n) @ (3R, n, 1), which takes each panel's
    dot as the 1-D `w @ v` does (einsum and gemv do not).  Returns R
    lists [coarse, left, right].
    """
    lo, hi, exponent = ([float(v) for v in x] for x in (lo, hi, exponent))
    panels = []
    for a, b, e, rule in zip(lo, hi, exponent, _rules(exponent)):
        m = 0.5 * (a + b)
        panels += [_panel(a, b, a, e, rule), _panel(a, m, a, e, rule),
                   _panel(m, b, a, e, rule)]
    pts, w, scale = zip(*panels)
    vals = np.asarray(g(np.concatenate(pts).reshape(len(lo), 3 * NODES)),
                      dtype=float).reshape(len(pts), NODES, 1)
    w = np.concatenate(w).reshape(len(pts), 1, NODES)
    dots = (w @ vals)[:, 0, 0].tolist()
    sums = [s * d for s, d in zip(scale, dots)]
    return [sums[i:i + 3] for i in range(0, len(sums), 3)]


def _integrate_rows(g: Callable, lo, hi, exponent) -> list:
    """R integrals that the first level resolves; None for the others.

    The integrals and g are those of `_first_level`.  A row is accepted
    by `integrate`'s own bisection test on its whole panel and halves,
    and its value is then `integrate`'s, bit for bit.  A row that misses
    the test, or whose sums are not finite, is None: it needs the
    bisection stack of `integrate`.
    """
    lo, hi = list(map(float, lo)), list(map(float, hi))
    out = []
    for (coarse, left, right), a, b in zip(_first_level(g, lo, hi, exponent),
                                           lo, hi):
        fine = left + right
        budget = max(ABS_TOL, REL_TOL * abs(coarse))
        if (math.isfinite(fine) and math.isfinite(coarse)
                and _accepted(abs(fine - coarse), budget, b - a, b - a)):
            out.append(0.0 + fine)
        else:
            out.append(None)
    return out


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

    g = as_array_function(f)

    def flat(x):
        # the operand sees one flat array of nodes
        return g(x.reshape(-1)).reshape(x.shape)

    [[coarse, left, right]] = _first_level(flat, [lo], [hi], [exponent])
    span = hi - lo
    budget = max(ABS_TOL, REL_TOL * abs(coarse))
    [rule] = _rules([exponent])

    def two_panels(a: float, m: float, b: float) -> tuple[float, float]:
        p1, w1, s1 = _panel(a, m, lo, exponent, rule)
        p2, w2, s2 = _panel(m, b, lo, exponent, rule)
        vals = g(np.concatenate((p1, p2)))
        return s1 * float(w1 @ vals[:NODES]), s2 * float(w2 @ vals[NODES:])

    total = 0.0
    err_total = 0.0
    panels = 3
    stack = []
    a, m, b = lo, 0.5 * (lo + hi), hi
    failure = None
    while True:
        fine = left + right
        err = abs(fine - coarse)
        if _accepted(err, budget, b - a, span):
            total += fine
            err_total += err
        elif panels >= MAX_PANELS or (b - a) <= span * 2.0 ** -50:
            # budget exhausted or interval unresolvable: flush the best
            # available estimates, then report failure
            failure = ("quadrature did not converge (%d panels, estimate "
                       "%%.6g, error %%.3g)" % panels)
            total += fine
            err_total += err
            for (_ra, _rb, rest) in stack:
                total += rest
                err_total += abs(rest)
            break
        else:
            stack.append((m, b, right))
            stack.append((a, m, left))
        if not stack:
            break
        a, b, coarse = stack.pop()
        m = 0.5 * (a + b)
        left, right = two_panels(a, m, b)
        panels += 2
    if failure is not None:
        raise AccuracyError(failure % (total, err_total),
                            estimate=total, error=err_total)
    return (total, err_total) if full_output else total


def power_kernel_integral(g: Callable, upper: float, exponent: float, *,
                          full_output: bool = False):
    """Integral of w**(exponent-1) * g(w) over (0, upper).

    The kernel goes into the Gauss-Jacobi panel of `integrate`, which
    integrates it exactly, so smooth g converges without refinement.  If
    that raises AccuracyError (g with a power singularity of its own at
    w = 0), the integral is re-run once through the substitution
    v = w**exponent, which turns the kernel into a constant:

        integral = (1/exponent) * integral of g(v**(1/exponent)) dv
                   over (0, upper**exponent),

    and an AccuracyError from that run propagates.
    """
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

    def transformed(v):
        return g(v ** inv)

    value, err = integrate(transformed, 0.0, upper ** exponent,
                           full_output=True)
    value, err = value / exponent, err / exponent
    return (value, err) if full_output else value
