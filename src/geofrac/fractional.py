"""Fractional integral operators and weighted integral norms.

Implements the left/right Riemann-Liouville, Hadamard, and Katugampola
fractional integrals together with the weighted norm on X_c^p(a, b) and the
L^q norm on the unit interval.  The Katugampola family interpolates between
the other two: rho = 1 recovers Riemann-Liouville and rho -> 0+ recovers
Hadamard on intervals with a >= 1.

All operators share one kernel reduction.  After the substitution that
absorbs the measure (w = x - t, w = ln(x/t), or w = x**rho - t**rho), each
integral becomes

    prefactor * integral of w**(alpha-1) * g(w) dw over (0, W)

with g smooth whenever the operand is.  The quadrature layer integrates
the power kernel exactly with a Gauss-Jacobi rule on the panel at w = 0
and Gauss-Legendre elsewhere; an operand with its own power singularity
at w = 0 falls back to the substitution v = w**alpha.  Every operator and
norm runs at the quadrature layer's one fixed accuracy.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError
from .quadrature import integrate, power_kernel_integral

__all__ = ["gamma_fn", "rl_left", "rl_right", "hadamard_left",
           "hadamard_right", "katugampola_left", "katugampola_right",
           "xcp_norm", "lq_norm_unit"]

#: array function of one real variable (quadrature.pointwise wraps scalar ones)
RealFunction = Callable[[np.ndarray], np.ndarray]


def gamma_fn(x: float) -> float:
    """Euler gamma on the positive half line, up to its overflow at 171.6."""
    if not (isinstance(x, (int, float)) and 0.0 < x < math.inf):
        raise DomainError("gamma_fn requires a finite x > 0")
    return _no_overflow("Gamma(x = %r)", math.gamma, x)


def _no_overflow(term: str, fn: Callable, *args) -> float:
    # fn(*args), or a DomainError naming term % args where a double overflows
    try:
        return fn(*args)
    except OverflowError:
        raise DomainError((term + " overflows a double") % args) from None


def _beta(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y).

    It is Int_0^1 t^(x-1) (1-t)^(y-1) dt, which diverges unless x, y > 0;
    a divergent integral raises AccuracyError, as its quadrature would.
    """
    if not (x > 0.0 and y > 0.0):
        raise AccuracyError("Beta integral B(%r, %r) diverges" % (x, y))
    if x + y < 171.0:
        return math.gamma(x) / math.gamma(x + y) * math.gamma(y)
    # Gamma overflows past 171.6; there the log form keeps about 13 digits
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _lq_power(k: float, q: float) -> float:
    # ||t**k||_q on (0, 1) = B(kq + 1, 1)**(1/q)
    return _beta(k * q + 1.0, 1.0) ** (1.0 / q)


def _check_order(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError("fractional order alpha must be positive and finite")


#: where `_kernel` looks at an operand whose kernel integral is not finite
_PROBE = (np.arange(16) + 0.5) / 16.0


def _kernel(g: Callable, upper: float, alpha: float, points=()) -> tuple:
    # power_kernel_integral with its error.  An integral whose estimate
    # leaves the doubles while g stays finite overflows: a DomainError
    # that says so, not the engine's AccuracyError with a NaN estimate
    try:
        return power_kernel_integral(g, upper, alpha, full_output=True,
                                     points=points)
    except AccuracyError as exc:
        if math.isfinite(exc.estimate) or not np.isfinite(
                np.asarray(g(upper * _PROBE), dtype=float)).all():
            raise
        raise DomainError("the kernel integral of order %r over (0, %r) "
                          "overflows a double" % (alpha, upper)) from None


def _finite(term: str, value: float, *args) -> float:
    # value, or a DomainError naming term % args where a double overflowed
    if not math.isfinite(value):
        raise DomainError((term + " overflows a double") % args)
    return value


def _finish(kernel_out, alpha: float, full_output: bool, scale=1.0):
    # the kernel integral times scale / Gamma(alpha)
    prefactor = scale / _no_overflow("Gamma(alpha = %r)", math.gamma, alpha)
    value, err = kernel_out
    if full_output:
        return prefactor * value, abs(prefactor) * err
    return prefactor * value


def rl_left(f: RealFunction, alpha: float, a: float, x: float, *,
            full_output: bool = False):
    """Left Riemann-Liouville integral of order alpha, from a, at x > a."""
    _check_order(alpha)
    if not (math.isfinite(a) and math.isfinite(x) and a < x):
        raise DomainError("rl_left requires a < x")
    out = _kernel(lambda w: f(x - w),
                  _finite("x - a = %r - %r", x - a, x, a), alpha)
    return _finish(out, alpha, full_output)


def rl_right(f: RealFunction, alpha: float, x: float, b: float, *,
             full_output: bool = False):
    """Right Riemann-Liouville integral of order alpha, at x, up to b > x."""
    _check_order(alpha)
    if not (math.isfinite(x) and math.isfinite(b) and x < b):
        raise DomainError("rl_right requires x < b")
    out = _kernel(lambda w: f(x + w),
                  _finite("b - x = %r - %r", b - x, b, x), alpha)
    return _finish(out, alpha, full_output)


def hadamard_left(f: RealFunction, alpha: float, a: float, x: float, *,
                  full_output: bool = False):
    """Left Hadamard integral of order alpha on (a, x) with 0 < a < x."""
    _check_order(alpha)
    if not (math.isfinite(a) and math.isfinite(x) and 0.0 < a < x):
        raise DomainError("hadamard_left requires 0 < a < x")
    out = _kernel(lambda w: f(x * np.exp(-w)), math.log(
        _finite("log(x/a): x / a = %r / %r", x / a, x, a)), alpha)
    return _finish(out, alpha, full_output)


def hadamard_right(f: RealFunction, alpha: float, x: float, b: float, *,
                   full_output: bool = False):
    """Right Hadamard integral of order alpha on (x, b) with 0 < x < b."""
    _check_order(alpha)
    if not (math.isfinite(x) and math.isfinite(b) and 0.0 < x < b):
        raise DomainError("hadamard_right requires 0 < x < b")
    out = _kernel(lambda w: f(x * np.exp(w)), math.log(
        _finite("log(b/x): b / x = %r / %r", b / x, b, x)), alpha)
    return _finish(out, alpha, full_output)


def _check_rho(rho: float) -> None:
    if not (math.isfinite(rho) and rho > 0.0):
        raise DomainError("rho must be positive and finite")


def katugampola_left(f: RealFunction, alpha: float, rho: float, a: float,
                     x: float, *, full_output: bool = False, points=()):
    """Left Katugampola integral of order alpha and parameter rho.

    Requires 0 <= a < x.  The substitution w = x**rho - t**rho folds the
    t**(rho-1) measure into the kernel, leaving the operand evaluated at
    t = (x**rho - w)**(1/rho).  points are breakpoints in t, as in
    `quadrature.integrate`: those in (a, x) start the kernel panels at
    w = x**rho - t**rho.
    """
    _check_order(alpha)
    _check_rho(rho)
    if not (math.isfinite(a) and math.isfinite(x) and 0.0 <= a < x):
        raise DomainError("katugampola_left requires 0 <= a < x")
    xr = _no_overflow("x ** rho = %r ** %r", pow, x, rho)
    inv = 1.0 / rho

    def g(w):
        return f(np.maximum(xr - w, 0.0) ** inv)

    ws = [xr - t ** rho for t in map(float, points) if a < t < x]
    out = _kernel(g, xr - a ** rho, alpha, ws)
    return _finish(out, alpha, full_output,
                   _no_overflow("rho ** -alpha = %r ** %r", pow, rho, -alpha))


def katugampola_right(f: RealFunction, alpha: float, rho: float, x: float,
                      b: float, *, full_output: bool = False):
    """Right Katugampola integral of order alpha and parameter rho.

    Requires 0 <= x < b; the kernel substitution is w = t**rho - x**rho.
    """
    _check_order(alpha)
    _check_rho(rho)
    if not (math.isfinite(x) and math.isfinite(b) and 0.0 <= x < b):
        raise DomainError("katugampola_right requires 0 <= x < b")
    xr = _no_overflow("x ** rho = %r ** %r", pow, x, rho)
    inv = 1.0 / rho

    def g(w):
        return f((xr + w) ** inv)

    br = _no_overflow("b ** rho = %r ** %r", pow, b, rho)
    out = _kernel(g, br - xr, alpha)
    return _finish(out, alpha, full_output,
                   _no_overflow("rho ** -alpha = %r ** %r", pow, rho, -alpha))


def xcp_norm(f: RealFunction, c: float, p: float,
             interval: tuple[float, float]) -> float:
    """Weighted norm (integral of |t**c f(t)|**p dt/t)**(1/p) on (a, b).

    Requires 0 < a < b and p >= 1.  p = inf takes the max of |t**c f(t)|
    over a 10^4-point grid plus the endpoints.  With c = 1/p the weight
    cancels and the classical L^p norm is recovered.
    """
    a, b = interval
    if not (math.isfinite(a) and math.isfinite(b) and 0.0 < a < b):
        raise DomainError("xcp_norm requires an interval with 0 < a < b")
    if not (p >= 1.0):
        raise DomainError("xcp_norm requires p >= 1")
    if math.isinf(p):
        grid = np.linspace(a, b, 10_002)
        vals = np.abs(grid ** c * np.asarray(f(grid), dtype=float))
        return float(np.max(vals))

    def integrand(t):
        return np.abs(t ** c * f(t)) ** p / t

    return integrate(integrand, a, b) ** (1.0 / p)


def lq_norm_unit(h: RealFunction, q: float) -> float:
    """L^q norm of h on (0, 1) for q > 1.

    An h with an exponent attribute k that is not None is t**k (an
    `HFunction` of the power family); its norm is the closed form
    B(kq + 1, 1)**(1/q) = (kq + 1)**(-1/q).  Any other h is integrated:
    quadrature nodes stay interior to the interval, so integrable endpoint
    behaviour is tolerated.  Divergent integrals (kq <= -1) surface as
    AccuracyError on both paths.
    """
    if not (math.isfinite(q) and q > 1.0):
        raise DomainError("lq_norm_unit requires q > 1")
    k = getattr(h, "k", None)
    if k is not None:
        return _lq_power(k, q)

    def integrand(t):
        return np.abs(h(t)) ** q

    return integrate(integrand, 0.0, 1.0) ** (1.0 / q)
