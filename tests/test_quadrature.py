from __future__ import annotations

import math

import numpy as np
import pytest

from geofrac.errors import AccuracyError, DomainError
from geofrac.fractional import rl_left
from geofrac.quadrature import (NODES, _integrate_rows, _jacobi_rule,
                                _jacobi_rules, as_array_function, integrate,
                                pointwise, power_kernel_integral)


def test_polynomial_is_exact():
    value = integrate(lambda t: 3.0 * t ** 2 + 2.0 * t + 1.0, 0.0, 1.0)
    assert abs(value - 3.0) < 1e-13


def test_sine_and_error_estimate():
    value, err = integrate(np.sin, 0.0, math.pi, full_output=True)
    assert abs(value - 2.0) < 1e-12
    assert 0.0 <= err < 1e-8


def test_oscillatory_needs_refinement():
    value = integrate(lambda t: np.sin(40.0 * t), 0.0, math.pi)
    exact = (1.0 - math.cos(40.0 * math.pi)) / 40.0
    assert abs(value - exact) < 1e-10


def test_empty_and_reversed_interval():
    assert integrate(np.exp, 1.0, 1.0) == 0.0
    with pytest.raises(DomainError):
        integrate(np.exp, 1.0, 0.0)


def test_scalar_only_callable_needs_pointwise():
    def f(t):
        return math.exp(t)  # rejects ndarray input

    # no probing: the operand's own error reaches the caller
    with pytest.raises(TypeError):
        integrate(f, 0.0, 1.0)
    with pytest.raises(TypeError):
        rl_left(f, 0.5, 0.0, 1.0)
    value = integrate(pointwise(f), 0.0, 1.0)
    assert abs(value - (math.e - 1.0)) < 1e-12
    assert rl_left(pointwise(f), 0.5, 0.0, 1.0) == pytest.approx(
        rl_left(np.exp, 0.5, 0.0, 1.0), rel=1e-14)


def test_pointwise_is_the_element_loop():
    def f(t):
        return max(t, 0.25) ** 2  # ambiguous truth value on arrays

    with pytest.raises(ValueError):
        integrate(f, 0.0, 1.0)
    # the per-element loop a scalar-only operand used to fall back to
    loop = integrate(lambda x: np.array([float(f(t)) for t in x]), 0.0, 1.0)
    assert integrate(pointwise(f), 0.0, 1.0) == loop
    assert loop == pytest.approx(
        integrate(lambda x: np.maximum(x, 0.25) ** 2, 0.0, 1.0), rel=1e-14)
    wrapped = pointwise(f)
    assert wrapped.__name__ == "f"
    x = np.array([[0.0, 0.5], [1.0, 2.0]])
    assert wrapped(x).tolist() == [[0.0625, 0.25], [1.0, 4.0]]
    assert wrapped(0.5).shape == ()


def test_wrong_shaped_operand_names_pointwise():
    with pytest.raises(DomainError, match=r"pointwise\(f\)"):
        integrate(lambda x: x[:1], 0.0, 1.0)
    with pytest.raises(DomainError, match=r"pointwise\(f\)"):
        as_array_function(lambda x: [1.0, 2.0])(np.zeros(3))


def test_constant_callable_broadcasts():
    assert abs(integrate(lambda t: 2.5, 0.0, 2.0) - 5.0) < 1e-13


def test_divergent_integrand_raises_accuracy_error():
    with pytest.raises(AccuracyError) as info:
        integrate(lambda t: 1.0 / t, 0.0, 1.0)
    assert math.isfinite(info.value.error)


def test_options_are_keyword_only():
    # accuracy is fixed: a fourth positional argument (once a config) is
    # rejected instead of binding to full_output
    with pytest.raises(TypeError):
        integrate(np.exp, 0.0, 1.0, None)
    with pytest.raises(TypeError):
        integrate(np.exp, 0.0, 1.0, True)
    with pytest.raises(TypeError):
        power_kernel_integral(np.exp, 1.0, 0.5, True)
    with pytest.raises(TypeError):
        rl_left(np.exp, 0.5, 0.0, 1.0, None)


EXPONENTS = [0.05, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]
EPS = np.finfo(float).eps


def _assert_honest(out, exact):
    value, err = out
    assert abs(value - exact) <= err + 8.0 * EPS * abs(exact)


@pytest.mark.parametrize("exponent", EXPONENTS)
def test_power_kernel_pure_moment(exponent):
    # integral of w**(e-1) over (0,1) is 1/e; singular endpoints included
    out = power_kernel_integral(lambda w: 1.0, 1.0, exponent,
                                full_output=True)
    assert abs(out[0] - 1.0 / exponent) < 1e-12
    _assert_honest(out, 1.0 / exponent)
    # integral of w**(e+1) over (0,1) is 1/(e+2)
    out = power_kernel_integral(lambda w: w * w, 1.0, exponent,
                                full_output=True)
    assert abs(out[0] - 1.0 / (exponent + 2.0)) < 1e-12
    _assert_honest(out, 1.0 / (exponent + 2.0))


def test_power_kernel_with_smooth_factor():
    # integral of w**(-1/2) (1 + w) dw over (0,1) = 2 + 2/3
    value = power_kernel_integral(lambda w: 1.0 + w, 1.0, 0.5)
    assert abs(value - 8.0 / 3.0) < 1e-11


def test_power_kernel_scaled_upper_limit():
    # integral of w**(e-1) over (0,W) = W**e / e, and of w**(e+1) is
    # W**(e+2) / (e+2); each bound scales with W**power
    for w_up in (0.25, 1.7):
        for e in (0.05, 0.5, 2.5):
            for g, power in ((lambda w: 1.0, e), (lambda w: w * w, e + 2.0)):
                exact = w_up ** power / power
                out = power_kernel_integral(g, w_up, e, full_output=True)
                assert abs(out[0] - exact) < 1e-11 * max(1.0, w_up ** power)
                _assert_honest(out, exact)


def test_power_kernel_operand_singularity_falls_back():
    # w**0.25 defeats the Jacobi panel for w**(-3/4); the substitution
    # v = w**(1/4) makes the operand linear.  Integral of w**(-1/2) is 2.
    value, err = power_kernel_integral(lambda w: w ** 0.25, 1.0, 0.25,
                                       full_output=True)
    assert abs(value - 2.0) < 1e-12
    assert err < 1e-8
    with pytest.raises(AccuracyError):
        integrate(lambda w: w ** 0.25, 0.0, 1.0, exponent=0.25)


def test_weighted_integrate_shifted_interval():
    # integral of (x-1)**(-1/2) cos(x) over [1, 3] against the
    # substituted form 2 * integral of cos(1 + u**2) over [0, sqrt 2]
    value = integrate(np.cos, 1.0, 3.0, exponent=0.5)
    exact = 2.0 * integrate(lambda u: np.cos(1.0 + u * u), 0.0,
                            math.sqrt(2.0))
    assert abs(value - exact) < 1e-12


@pytest.mark.parametrize("beta", [-0.95, -0.5, 0.0, 0.5, 1.5, 2.0])
def test_jacobi_rule_matches_scipy(beta):
    special = pytest.importorskip("scipy.special")
    nodes, weights = _jacobi_rule(16, beta)
    x, lam = special.roots_jacobi(16, 0.0, beta)
    ref_nodes = 0.5 * (1.0 + x)
    ref_weights = lam * 2.0 ** (-beta - 1.0)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
    assert (np.max(np.abs(weights - ref_weights))
            <= 1e-12 * np.max(ref_weights))


def test_power_kernel_domain_errors():
    with pytest.raises(DomainError):
        power_kernel_integral(lambda w: 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        integrate(np.exp, 0.0, 1.0, exponent=-0.5)
    with pytest.raises(DomainError):
        power_kernel_integral(lambda w: 1.0, -1.0, 1.0)
    assert power_kernel_integral(lambda w: 1.0, 0.0, 1.0) == 0.0


def test_deterministic_repeats():
    f = lambda t: np.exp(-t) * np.cos(3.0 * t)
    assert integrate(f, 0.0, 2.0) == integrate(f, 0.0, 2.0)


def test_as_array_function_shapes():
    g = as_array_function(lambda x: x ** 2)
    out = g(np.array([1.0, 2.0]))
    assert out.tolist() == [1.0, 4.0]


# ---------------------------------------------------------------------------
# first level for R rows and the stacked Jacobi rules
# ---------------------------------------------------------------------------


def _golub_welsch_alone(n, beta):
    # one Jacobi matrix built with np.diag and solved on its own
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + beta
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    jac = np.diag(0.5 * (1.0 + diag)) + np.diag(0.5 * off, 1)
    nodes, vecs = np.linalg.eigh(jac, UPLO="U")
    return nodes, vecs[0] ** 2 / (beta + 1.0)


def test_jacobi_rule_is_a_row_of_the_stacked_build():
    betas = np.random.default_rng(9).uniform(-0.75, 2.0, 64)
    nodes, weights = _jacobi_rules(16, betas)
    for i, beta in enumerate(betas.tolist()):
        us, lams = _jacobi_rule(16, beta)
        assert np.array_equal(us, nodes[i])
        assert np.array_equal(lams, weights[i])
        alone = _golub_welsch_alone(16, beta)
        assert np.array_equal(alone[0], nodes[i])
        assert np.array_equal(alone[1], weights[i])


@pytest.mark.parametrize("exponent", [1.0, 0.3, 1.7])
def test_smooth_operand_is_one_operand_call(exponent):
    # the whole first panel and its two halves go out as one call
    shapes = []

    def f(x):
        shapes.append(np.shape(x))
        return np.exp(x)

    integrate(f, 0.0, 1.0, exponent=exponent)
    assert shapes == [(3 * NODES,)]
    shapes.clear()
    power_kernel_integral(f, 0.8, exponent)
    assert shapes == [(3 * NODES,)]


def test_integrate_rows_equal_integrate_bit_for_bit():
    # R integrands of their own, with and without a kernel weight, as one
    # stacked operand; the kinked row is left to integrate's bisection
    lo = [0.0, 0.2, -1.0, 0.0, 0.0]
    hi = [1.0, 0.9, 2.0, 0.6, 1.0]
    exponent = [1.0, 0.3, 1.0, 2.5, 1.7]
    scales = np.array([[1.0], [-2.0], [0.5], [3.0], [1.0]])
    kink = 0.3137

    def row(r):
        if r == 4:
            return lambda x: np.abs(x - kink)
        return lambda x: np.exp(scales[r, 0] * x) * np.cos(x)

    def stacked(x):
        out = np.exp(scales * x) * np.cos(x)
        out[4] = np.abs(x[4] - kink)
        return out

    calls = []

    def counted(x):
        calls.append(x.shape)
        return stacked(x)

    values = _integrate_rows(counted, lo, hi, exponent)
    assert calls == [(5, 3 * NODES)]
    assert values[4] is None
    for r in range(4):
        assert values[r] == integrate(row(r), lo[r], hi[r],
                                      exponent=exponent[r])
