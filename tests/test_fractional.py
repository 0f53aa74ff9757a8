from __future__ import annotations

import math

import numpy as np
import pytest

from geofrac.errors import AccuracyError, DomainError
from geofrac.fractional import (gamma_fn, hadamard_left, hadamard_right,
                                katugampola_left, katugampola_right,
                                lq_norm_unit, rl_left, rl_right, xcp_norm)
from geofrac.quadrature import power_kernel_integral

# ---------------------------------------------------------------------------
# brute-force oracle: composite midpoint rule, 1e6 uniform panels, applied
# after the same singularity substitution the operators rely on.  Kept free
# of any package quadrature code so it stays an independent check.
# ---------------------------------------------------------------------------


def _midpoint(f, lo, hi, panels=1_000_000):
    step = (hi - lo) / panels
    xs = lo + (np.arange(panels) + 0.5) * step
    return step * float(np.sum(f(xs)))


def _oracle_kernel(g, upper, alpha):
    if float(alpha).is_integer():
        return _midpoint(lambda w: w ** (alpha - 1.0) * g(w), 0.0, upper)
    return _midpoint(lambda v: g(v ** (1.0 / alpha)), 0.0, upper ** alpha) / alpha


def oracle_rl_left(f, alpha, a, x):
    return _oracle_kernel(lambda w: f(x - w), x - a, alpha) / math.gamma(alpha)


def oracle_rl_right(f, alpha, x, b):
    return _oracle_kernel(lambda w: f(x + w), b - x, alpha) / math.gamma(alpha)


def oracle_hadamard_left(f, alpha, a, x):
    return _oracle_kernel(lambda w: f(x * np.exp(-w)), math.log(x / a),
                          alpha) / math.gamma(alpha)


def oracle_katugampola_left(f, alpha, rho, a, x):
    g = lambda w: f(np.maximum(x ** rho - w, 0.0) ** (1.0 / rho))
    kern = _oracle_kernel(g, x ** rho - a ** rho, alpha)
    return kern * rho ** (-alpha) / math.gamma(alpha)


def oracle_katugampola_right(f, alpha, rho, x, b):
    g = lambda w: f((x ** rho + w) ** (1.0 / rho))
    kern = _oracle_kernel(g, b ** rho - x ** rho, alpha)
    return kern * rho ** (-alpha) / math.gamma(alpha)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_reference_values():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(5.0) == 24.0
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-13


def test_gamma_functional_equation():
    for x in (0.3, 1.7, 4.2, 9.9):
        assert abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) <= 1e-12 * gamma_fn(x + 1.0)


def test_gamma_domain():
    for bad in (0.0, -1.0, -2.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            gamma_fn(bad)


def test_overflows_raise_domain_errors_naming_the_term():
    # Gamma(x) past x ~ 171.6, 1/Gamma(alpha) of every operator, and the
    # Python powers x ** rho and rho ** -alpha of the Katugampola operators
    # raise DomainError, not OverflowError
    assert gamma_fn(171.6) == pytest.approx(1.5859e308, rel=1e-4)
    for x in (172, 171.7, 10 ** 400):
        with pytest.raises(DomainError, match=r"Gamma\(x = .+\) overflows"):
            gamma_fn(x)
    f = lambda t: t  # noqa: E731
    for op, args in ((rl_left, (172.0, 0.0, 1.0)),
                     (rl_right, (172.0, 0.0, 1.0)),
                     (hadamard_left, (172.0, 1.0, 2.0)),
                     (hadamard_right, (172.0, 1.0, 2.0)),
                     (katugampola_left, (172.0, 1.0, 0.0, 1.0)),
                     (katugampola_right, (172.0, 1.0, 0.0, 1.0))):
        with pytest.raises(DomainError, match=r"^Gamma\(alpha = 172\.0\) "):
            op(f, *args)
    huge = r" = 1e\+200 \*\* 2\.0 overflows"
    with pytest.raises(DomainError, match=r"^b \*\* rho" + huge):
        katugampola_right(np.exp, 0.5, 2.0, 0.0, 1e200)
    with pytest.raises(DomainError, match=r"^x \*\* rho" + huge):
        katugampola_left(np.exp, 0.5, 2.0, 0.0, 1e200)
    with pytest.raises(DomainError,
                       match=r"^rho \*\* -alpha = 1e-05 \*\* -100\.0 "):
        katugampola_left(f, 100.0, 1e-5, 0.0, 1.0)


def test_overflowing_integrals_name_the_overflow():
    # a kernel range that is finite but whose integral leaves the doubles,
    # not an AccuracyError with a NaN estimate; the integral of t over
    # (0, 1.5e308) against w**-0.5 is about 1.2e462
    with pytest.raises(DomainError, match=r"^the kernel integral of order "
                       r"0\.5 over \(0, 1\.5e\+308\) overflows a double"):
        rl_right(lambda t: t, 0.5, 0.0, 1.5e308)
    # log(x/a), not "integration limits must be finite"
    with pytest.raises(DomainError, match=r"^log\(x/a\): x / a = "
                       r"1e\+300 / 1e-300 overflows a double"):
        hadamard_left(np.cos, 0.5, 1e-300, 1e300)
    with pytest.raises(DomainError, match=r"^log\(b/x\): b / x = "):
        hadamard_right(np.cos, 0.5, 1e-300, 1e300)
    with pytest.raises(DomainError, match=r"^b - x = 1e\+308 - -1e\+308 "):
        rl_right(lambda t: t, 0.5, -1e308, 1e308)
    with pytest.raises(DomainError, match=r"^x - a = 1e\+308 - -1e\+308 "):
        rl_left(lambda t: t, 0.5, -1e308, 1e308)
    # a kernel panel at 0 whose scale width ** alpha overflows, with no
    # RuntimeWarning from the weights beside it
    scale = r"^the Jacobi panel's scale width \*\* exponent = %s overflows"
    with pytest.raises(DomainError, match=scale % r"1e\+300 \*\* 2\.5"):
        power_kernel_integral(np.cos, 1e300, 2.5)
    with pytest.raises(DomainError, match=scale % r"1e\+130 \*\* 2\.5"):
        rl_left(np.cos, 2.5, 0.0, 1e130)
    # x ** rho of the right operator, as of the left one, not a bare
    # OverflowError
    with pytest.raises(DomainError,
                       match=r"^x \*\* rho = 1e\+200 \*\* 2\.0 overflows"):
        katugampola_right(np.exp, 0.5, 2.0, 1e200, 1e201)
    # an operand that is not finite keeps the engine's AccuracyError
    with np.errstate(invalid="ignore"), pytest.raises(AccuracyError):
        rl_right(np.log, 0.5, -2.0, 1.0)


def test_katugampola_points_start_the_kernel_panels():
    # |t - 0.6| kinks at t = 0.6, that is at w = x**rho - 0.6**rho: as a
    # point it converges in one operand call, to the mpmath value with
    # the kink as a breakpoint; points outside (a, x) are ignored
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    calls = []

    def f(t):
        calls.append(t.size)
        return np.abs(t - 0.6)

    alpha, rho, a, x = 0.7, 2.0, 0.5, 1.0
    value, err = katugampola_left(f, alpha, rho, a, x, full_output=True,
                                  points=(0.6, -1.0, 0.5, 1.0, 3.0))
    assert len(calls) == 1
    # rho^-alpha / Gamma(alpha) Int_0^W w^(alpha-1) f((x^rho - w)^(1/rho))
    # dw, W = x^rho - a^rho, through v = w^alpha, split at the kink
    A, R, X, K = (mp.mpf(v) for v in (alpha, rho, x, 0.6))
    ends = [0, (X ** R - K ** R) ** A, (X ** R - mp.mpf(a) ** R) ** A]
    want = mp.quad(lambda v: abs((X ** R - v ** (1 / A)) ** (1 / R) - K),
                   ends)
    want = float(want / (R ** A * A * mp.gamma(A)))
    assert abs(value - want) <= err + 1e-15 * abs(want)
    calls.clear()
    assert katugampola_left(f, alpha, rho, a, x, full_output=True,
                            points=(-1.0, 0.5, 1.0)) == katugampola_left(
        f, alpha, rho, a, x, full_output=True)


# ---------------------------------------------------------------------------
# Riemann-Liouville
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.5])
def test_rl_left_of_one(alpha):
    for a, x in ((0.0, 1.0), (-1.0, 2.0), (0.5, 0.75)):
        want = (x - a) ** alpha / math.gamma(alpha + 1.0)
        got = rl_left(lambda t: 1.0, alpha, a, x)
        assert abs(got - want) < 1e-10 * max(1.0, want)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.5])
def test_rl_right_of_one(alpha):
    want = 1.5 ** alpha / math.gamma(alpha + 1.0)
    got = rl_right(lambda t: 1.0, alpha, 0.5, 2.0)
    assert abs(got - want) < 1e-10 * max(1.0, want)


def test_rl_half_order_of_identity_map():
    # closed form: (4 / (3 sqrt(pi))) x**1.5
    for x in (0.5, 1.0, 2.0):
        want = 4.0 / (3.0 * math.sqrt(math.pi)) * x ** 1.5
        got = rl_left(lambda t: t, 0.5, 0.0, x)
        assert abs(got - want) < 1e-10 * want


def test_rl_order_one_is_plain_integral():
    got = rl_left(np.cos, 1.0, 0.0, 1.5)
    assert abs(got - math.sin(1.5)) < 1e-11


def test_rl_matches_bruteforce_oracle():
    f = lambda t: t ** 2 + 1.0
    got = rl_left(f, 0.75, 0.0, 1.5)
    assert abs(got - oracle_rl_left(f, 0.75, 0.0, 1.5)) < 1e-6 * abs(got)
    got_r = rl_right(f, 1.25, 0.25, 2.0)
    assert abs(got_r - oracle_rl_right(f, 1.25, 0.25, 2.0)) < 1e-6 * abs(got_r)


def test_rl_domain_errors():
    with pytest.raises(DomainError):
        rl_left(lambda t: 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        rl_left(lambda t: 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        rl_right(lambda t: 1.0, 1.0, 2.0, 1.0)


# ---------------------------------------------------------------------------
# Hadamard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_hadamard_left_of_one(alpha):
    for a, x in ((1.0, math.e), (0.5, 2.0)):
        want = math.log(x / a) ** alpha / math.gamma(alpha + 1.0)
        got = hadamard_left(lambda t: 1.0, alpha, a, x)
        assert abs(got - want) < 1e-10 * max(1.0, want)


def test_hadamard_left_log_integrand():
    # alpha=1, a=1: integral of ln(t)/t dt = ln(x)**2 / 2
    got = hadamard_left(np.log, 1.0, 1.0, 2.5)
    assert abs(got - math.log(2.5) ** 2 / 2.0) < 1e-11


def test_hadamard_right_of_one():
    want = math.log(3.0 / 1.5) ** 0.5 / math.gamma(1.5)
    got = hadamard_right(lambda t: 1.0, 0.5, 1.5, 3.0)
    assert abs(got - want) < 1e-10


def test_hadamard_matches_bruteforce_oracle():
    f = lambda t: t
    got = hadamard_left(f, 0.5, 1.0, 2.0)
    assert abs(got - oracle_hadamard_left(f, 0.5, 1.0, 2.0)) < 1e-6 * abs(got)


def test_hadamard_domain_errors():
    with pytest.raises(DomainError):
        hadamard_left(lambda t: 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        hadamard_left(lambda t: 1.0, 1.0, -1.0, 2.0)
    with pytest.raises(DomainError):
        hadamard_right(lambda t: 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        hadamard_right(lambda t: 1.0, 1.0, 2.0, 2.0)


# ---------------------------------------------------------------------------
# Katugampola
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_katugampola_of_one_closed_form(alpha, rho):
    a, x = 0.0, 1.0
    want = ((x ** rho - a ** rho) / rho) ** alpha / math.gamma(alpha + 1.0)
    got = katugampola_left(lambda t: 1.0, alpha, rho, a, x)
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    xr, b = 0.25, 1.25
    want_r = ((b ** rho - xr ** rho) / rho) ** alpha / math.gamma(alpha + 1.0)
    got_r = katugampola_right(lambda t: 1.0, alpha, rho, xr, b)
    assert abs(got_r - want_r) < 1e-8 * max(1.0, abs(want_r))


def test_katugampola_rho_one_reduces_to_rl():
    f = lambda t: t ** 3 - t + 2.0
    for alpha in (0.5, 1.0, 2.5):
        k = katugampola_left(f, alpha, 1.0, 0.25, 1.5)
        r = rl_left(f, alpha, 0.25, 1.5)
        assert abs(k - r) < 1e-9 * max(1.0, abs(r))
        k2 = katugampola_right(f, alpha, 1.0, 0.25, 1.5)
        r2 = rl_right(f, alpha, 0.25, 1.5)
        assert abs(k2 - r2) < 1e-9 * max(1.0, abs(r2))


def test_katugampola_small_rho_approaches_hadamard():
    # on [1, e] with f == 1 the values are (e**rho - 1)/rho -> 1 = hadamard
    f = lambda t: 1.0
    href = hadamard_left(f, 1.0, 1.0, math.e)
    gaps = []
    for rho in (0.1, 0.01, 0.001):
        k = katugampola_left(f, 1.0, rho, 1.0, math.e)
        gaps.append(abs(k - href))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 6e-4  # gap decays like rho/2


def test_katugampola_small_rho_polynomial():
    f = lambda t: t ** 2 + 1.0
    href = hadamard_left(f, 1.5, 1.0, 2.0)
    gaps = []
    for rho in (0.1, 0.01, 0.001):
        k = katugampola_left(f, 1.5, rho, 1.0, 2.0)
        gaps.append(abs(k - href))
    assert gaps[0] > gaps[1] > gaps[2]


def test_katugampola_matches_bruteforce_oracle():
    f = lambda t: np.sin(t) + 2.0
    got = katugampola_left(f, 0.75, 1.5, 0.25, 1.0)
    want = oracle_katugampola_left(f, 0.75, 1.5, 0.25, 1.0)
    assert abs(got - want) < 1e-6 * abs(got)
    got_r = katugampola_right(f, 1.25, 0.5, 0.25, 1.0)
    want_r = oracle_katugampola_right(f, 1.25, 0.5, 0.25, 1.0)
    assert abs(got_r - want_r) < 1e-6 * abs(got_r)


def test_katugampola_domain_errors():
    with pytest.raises(DomainError):
        katugampola_left(lambda t: 1.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        katugampola_left(lambda t: 1.0, 1.0, 1.0, -0.5, 1.0)
    with pytest.raises(DomainError):
        katugampola_left(lambda t: 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        katugampola_right(lambda t: 1.0, 1.0, 1.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# mpmath oracle: 30 digits, each operator from its definition with the
# kernel folded into the measure (v = w**alpha), no package quadrature
# ---------------------------------------------------------------------------

OPERATORS = {"rl_left": rl_left, "rl_right": rl_right,
             "hadamard_left": hadamard_left, "hadamard_right": hadamard_right,
             "katugampola_left": katugampola_left,
             "katugampola_right": katugampola_right}


def _mp_operator(mp, name, f, alpha, rho, lo, hi):
    # c / Gamma(alpha) * Int_0^W w**(alpha-1) F(w) dw, taken as
    # c / (alpha Gamma(alpha)) * Int_0^(W**alpha) F(v**(1/alpha)) dv; the
    # left operators are at hi, the right ones at lo
    al, rho, lo, hi = (mp.mpf(v) for v in (alpha, rho, lo, hi))
    c, W = 1, hi - lo
    if name == "rl_left":
        F = lambda w: f(hi - w)
    elif name == "rl_right":
        F = lambda w: f(lo + w)
    elif name.startswith("hadamard"):
        W = mp.log(hi / lo)
        F = ((lambda w: f(hi * mp.exp(-w))) if name == "hadamard_left"
             else (lambda w: f(lo * mp.exp(w))))
    else:
        c, W = rho ** -al, hi ** rho - lo ** rho
        F = ((lambda w: f(max(hi ** rho - w, 0) ** (1 / rho)))
             if name == "katugampola_left"
             else (lambda w: f((lo ** rho + w) ** (1 / rho))))
    return c / (al * mp.gamma(al)) * mp.quad(lambda v: F(v ** (1 / al)),
                                             [0, W ** al])


def _assert_matches(out, ref):
    value, err = out
    assert abs(value - ref) <= err + 8.0 * np.finfo(float).eps * abs(ref)
    assert abs(value - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 2.5])
@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_operators_match_mpmath(name, alpha):
    mp = pytest.importorskip("mpmath")
    op = OPERATORS[name]
    if name.startswith("katugampola"):
        # a = 0: the left operand has a (W - w)**(1/rho) cusp at the far
        # kernel end, the right one a w**(1/rho) cusp at w = 0
        cases = [(rho, 0.0, hi) for rho in (0.2, 0.5, 2.0)
                 for hi in (0.7, 1.3)]
    else:
        cases = [(None, 0.4, 1.7)]
    for rho, lo, hi in cases:
        with mp.workdps(30):
            ref = float(_mp_operator(
                mp, name, lambda t: mp.exp(-t) * mp.cos(2 * t) + t * t,
                alpha, 1.0 if rho is None else rho, lo, hi))
        args = (alpha, lo, hi) if rho is None else (alpha, rho, lo, hi)
        out = op(lambda t: np.exp(-t) * np.cos(2.0 * t) + t * t, *args,
                 full_output=True)
        _assert_matches(out, ref)


def test_fallback_operator_matches_mpmath():
    # t**(1/4) defeats the Jacobi panel of w**(-3/4): the rerun through
    # v = w**(1/4); the exact value is 2 / Gamma(1/4)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        exact = 2 / mp.gamma(mp.mpf(0.25))
        ref = _mp_operator(mp, "rl_right", lambda t: t ** mp.mpf(0.25), 0.25,
                           1.0, 0.0, 1.0)
        assert abs(ref - exact) < mp.mpf(10) ** -25
    out = rl_right(lambda t: t ** 0.25, 0.25, 0.0, 1.0, full_output=True)
    _assert_matches(out, float(exact))


# ---------------------------------------------------------------------------
# linearity / positivity (seeded random polynomials)
# ---------------------------------------------------------------------------


def _random_poly(rng):
    coeffs = rng.normal(size=3)
    return lambda t: coeffs[0] + coeffs[1] * t + coeffs[2] * t ** 2


def test_operator_linearity():
    rng = np.random.default_rng(7)
    for _ in range(5):
        f, g = _random_poly(rng), _random_poly(rng)
        lam = float(rng.normal())
        combo = lambda t: f(t) + lam * g(t)
        for op, args in (
            (rl_left, (0.75, 0.0, 1.0)),
            (katugampola_left, (1.25, 2.0, 0.25, 1.0)),
            (hadamard_left, (0.5, 1.0, 2.0)),
        ):
            lhs = op(combo, *args)
            rhs = op(f, *args) + lam * op(g, *args)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_operator_positivity():
    rng = np.random.default_rng(11)
    for _ in range(5):
        base = _random_poly(rng)
        f = lambda t: base(t) ** 2  # nonnegative
        assert rl_left(f, 0.5, 0.0, 1.0) >= -1e-12
        assert katugampola_right(f, 1.5, 0.5, 0.1, 0.9) >= -1e-12


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_xcp_norm_reduces_to_lp():
    # c = 1/p collapses the weight: ||f||_{L^p(a,b)}
    want = math.sqrt(7.0 / 3.0)  # L2 norm of t on (1,2)
    got = xcp_norm(lambda t: t, 0.5, 2.0, (1.0, 2.0))
    assert abs(got - want) < 1e-10


def test_xcp_norm_log_weight():
    # c=0, p=1 on (1, e) with f == 1: integral of dt/t = 1
    got = xcp_norm(lambda t: 1.0, 0.0, 1.0, (1.0, math.e))
    assert abs(got - 1.0) < 1e-10


def test_xcp_norm_zero_function():
    assert xcp_norm(lambda t: 0.0, 1.0, 2.0, (1.0, 2.0)) == 0.0


def test_xcp_norm_sup_variant():
    got = xcp_norm(lambda t: t, 1.0, math.inf, (1.0, 2.0))
    assert abs(got - 4.0) < 1e-6


def test_xcp_norm_domain_errors():
    with pytest.raises(DomainError):
        xcp_norm(lambda t: 1.0, 1.0, 2.0, (0.0, 1.0))
    with pytest.raises(DomainError):
        xcp_norm(lambda t: 1.0, 1.0, 2.0, (2.0, 1.0))
    with pytest.raises(DomainError):
        xcp_norm(lambda t: 1.0, 1.0, 0.5, (1.0, 2.0))


def test_lq_norm_unit_values():
    assert abs(lq_norm_unit(lambda t: t, 2.0) - 1.0 / math.sqrt(3.0)) < 1e-10
    assert abs(lq_norm_unit(lambda t: 1.0, 3.0) - 1.0) < 1e-10
    assert abs(lq_norm_unit(np.sqrt, 2.0) - math.sqrt(0.5)) < 1e-10


def test_lq_norm_unit_domain():
    with pytest.raises(DomainError):
        lq_norm_unit(lambda t: t, 1.0)


def test_lq_norm_unit_divergent():
    with pytest.raises(AccuracyError):
        lq_norm_unit(lambda t: 1.0 / t, 2.0)
