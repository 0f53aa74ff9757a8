from __future__ import annotations

import math

import numpy as np
import pytest

from geofrac.errors import AccuracyError, DomainError
from geofrac.fractional import rl_left
from geofrac.quadrature import (ABS_TOL, MAX_PANELS, NODES, REL_TOL,
                                _integrate_rows, _jacobi_rules,
                                _power_kernel_rows, _rule, _rules,
                                as_array_function,
                                integrate, pointwise, power_kernel_integral)


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
    [nodes], [weights] = _jacobi_rules(16, [beta])
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
    # a lone integral's rule (the one-row build) is its row of a batch's
    exponents = np.random.default_rng(9).uniform(0.25, 3.0, 64).tolist()
    betas = [e - 1.0 for e in exponents]
    nodes, weights = _jacobi_rules(16, betas)
    stacked = _rules(tuple(exponents))
    assert np.array_equal(stacked[0], nodes)
    assert np.array_equal(stacked[1], weights)
    for i, (e, beta) in enumerate(zip(exponents, betas)):
        [us], [lams] = _rules((e,))
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


# ---------------------------------------------------------------------------
# the breadth-first engine against the depth-first bisection it replaced
# ---------------------------------------------------------------------------


def _reference_panel(a, b, lo, exponent):
    # nodes, weights and scale of one panel, as the depth-first code built
    # them one panel at a time
    beta = exponent - 1.0
    if beta != 0.0 and a == lo:
        [us], [lams] = _jacobi_rules(NODES, [beta])
        width = b - a
        return a + width * us, lams, width ** exponent
    xs, ws = _rule(NODES)
    half = 0.5 * (b - a)
    pts = 0.5 * (a + b) + half * xs
    return pts, ws if beta == 0.0 else ws * (pts - lo) ** beta, half


def _depth_first(f, lo, hi, exponent=1.0):
    """`integrate` as it was before its breadth-first engine: a stack of
    panels, left half first.  Returns ((value, error), depth, operand
    calls) or (AccuracyError, depth, operand calls)."""
    calls = [0]

    def sums(*panels):
        built = [_reference_panel(a, b, lo, exponent) for a, b in panels]
        calls[0] += 1
        vals = np.asarray(f(np.concatenate([pts for pts, _, _ in built])),
                          dtype=float)
        return [scale * float(w @ vals[i * NODES:(i + 1) * NODES])
                for i, (_, w, scale) in enumerate(built)]

    m = 0.5 * (lo + hi)
    coarse, left, right = sums((lo, hi), (lo, m), (m, hi))
    span = hi - lo
    budget = max(ABS_TOL, REL_TOL * abs(coarse))
    total = err_total = 0.0
    panels, depth, deepest = 3, 0, 0
    stack = []
    a, b = lo, hi
    while True:
        deepest = max(deepest, depth)
        fine = left + right
        err = abs(fine - coarse)
        if err <= budget * (b - a) / span or err <= budget / MAX_PANELS:
            total += fine
            err_total += err
        elif panels >= MAX_PANELS or (b - a) <= span * 2.0 ** -50:
            total += fine
            err_total += err
            for (_a, _b, rest, _d) in stack:
                total += rest
                err_total += abs(rest)
            failure = AccuracyError(
                "quadrature did not converge (%d panels, estimate %.6g, "
                "error %.3g)" % (panels, total, err_total),
                estimate=total, error=err_total)
            return failure, deepest, calls[0]
        else:
            stack.append((m, b, right, depth + 1))
            stack.append((a, m, left, depth + 1))
        if not stack:
            return (total, err_total), deepest, calls[0]
        a, b, coarse, depth = stack.pop()
        m = 0.5 * (a + b)
        left, right = sums((a, m), (m, b))
        panels += 2


def _outcome(out):
    # (value, error), or an AccuracyError's message, estimate and error
    if isinstance(out, AccuracyError):
        return str(out), out.estimate, out.error
    return out


def _same_outcome(got, want):
    # the same (value, error) bit for bit, or an AccuracyError from both:
    # a failure's panel count, estimate and error are the engine's own
    if isinstance(want, AccuracyError):
        return isinstance(got, AccuracyError) and math.isfinite(got.error)
    return got == want


def _integrate_outcome(f, lo, hi, exponent):
    try:
        return integrate(f, lo, hi, exponent=exponent, full_output=True)
    except AccuracyError as exc:
        return exc


OPERANDS = {
    "smooth": lambda x: np.exp(-x) * np.cos(3.0 * x),
    "kink": lambda x: np.abs(x - 0.3137),
    "cusp_low": lambda x: np.abs(x - 0.0) ** 0.3,
    "cusp_high": lambda x: np.abs(1.0 - x) ** 0.4,
    "two_kinks": lambda x: np.abs(x - 0.7) ** 0.5 + np.abs(x - 0.2),
    "pole": lambda x: 1.0 / x,
    "far_pole": lambda x: np.abs(1.0 - x) ** -1.5,
    "oscillating": lambda x: np.sin(1.0 / (x + 0.01)),
    "step": lambda x: (x > 0.61).astype(float),
}


@pytest.mark.parametrize("exponent", [1.0, 0.05, 0.3, 1.5, 2.5])
@pytest.mark.parametrize("name", sorted(OPERANDS))
def test_integrate_is_the_depth_first_bisection_bit_for_bit(name, exponent):
    # value and error are the depth-first code's bit for bit, and an
    # integral that failed there fails here, on smooth, kinked, cusped and
    # divergent operands; a level costs one operand call
    f = OPERANDS[name]
    for lo, hi in ((0.0, 1.0), (0.0, 0.37), (-1.0, 2.0)):
        want, depth, _ = _depth_first(f, lo, hi, exponent)
        calls = []

        def counted(x):
            calls.append(x.shape)
            return f(x)

        with np.errstate(all="ignore"):
            got = _integrate_outcome(counted, lo, hi, exponent)
        assert _same_outcome(got, want)
        if not isinstance(want, AccuracyError):
            assert len(calls) == depth + 1


def test_kinked_integral_takes_one_operand_call_per_level():
    # the depth-first code made one call per refined panel
    f = OPERANDS["kink"]
    want, depth, dfs_calls = _depth_first(f, 0.0, 1.0)
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)

    assert integrate(counted, 0.0, 1.0, full_output=True) == want
    assert 1 < len(calls) <= depth + 1 < dfs_calls


def test_integrate_rows_equal_integrate_bit_for_bit():
    # R integrands of their own, with and without a kernel weight and of
    # mixed depth, as one stacked operand; each row is its own integral
    lo = [0.0, 0.2, -1.0, 0.0, 0.0, 0.0, 0.0]
    hi = [1.0, 0.9, 2.0, 0.6, 1.0, 1.0, 1.0]
    exponent = [1.0, 0.3, 1.0, 2.5, 1.7, 0.05, 1.0]
    scales = np.array([[1.0], [-2.0], [0.5], [3.0], [1.0], [1.0], [1.0]])
    special = {4: OPERANDS["kink"], 5: OPERANDS["cusp_high"],
               6: OPERANDS["pole"]}

    def row(r):
        if r in special:
            return special[r]
        return lambda x: np.exp(scales[r, 0] * x) * np.cos(x)

    def stacked(x, rows):
        out = np.exp(scales[rows] * x) * np.cos(x)
        for r, f in special.items():
            out[rows == r] = f(x[rows == r])
        return out

    calls = []

    def counted(x, rows):
        calls.append(x.shape)
        return stacked(x, rows)

    with np.errstate(all="ignore"):
        values = _integrate_rows(counted, lo, hi, exponent)
        wants = [_depth_first(row(r), lo[r], hi[r], exponent[r])
                 for r in range(len(lo))]
    assert calls[0] == (len(lo), 3 * NODES)
    assert all(shape[1] == 2 * NODES for shape in calls[1:])
    assert len(calls) == max(depth for _, depth, _ in wants) + 1
    for r, (want, _, _) in enumerate(wants):
        assert _same_outcome(values[r], want)
        with np.errstate(all="ignore"):
            assert _outcome(values[r]) == _outcome(_integrate_outcome(
                row(r), lo[r], hi[r], exponent[r]))
    assert isinstance(values[6], AccuracyError)


def _reference_power_kernel(g, upper, exponent):
    # power_kernel_integral on the depth-first code: the Jacobi attempt,
    # then the substitution v = w**exponent
    out, _, _ = _depth_first(g, 0.0, upper, exponent)
    if not isinstance(out, AccuracyError) or exponent == 1.0:
        return out
    inv = 1.0 / exponent
    out, _, _ = _depth_first(lambda v: g(v ** inv), 0.0, upper ** exponent)
    if isinstance(out, AccuracyError):
        return out
    return out[0] / exponent, out[1] / exponent


def test_power_kernel_rows_retry_the_substitution_as_one_batch():
    # rows whose Jacobi attempt fails (an operand cusp at w = 0) rerun
    # through v = w**exponent together; each row is the depth-first
    # power_kernel_integral's, and the one-row function's
    operands = [lambda w: w ** 0.25, np.exp, lambda w: w ** 0.5 + w,
                lambda w: np.abs(w - 0.4), lambda w: w ** 0.1 + 1.0,
                lambda w: w ** 0.25]
    upper = [1.0, 0.8, 1.3, 1.0, 0.9, 0.7]
    exponent = [0.25, 0.3, 1.5, 2.5, 0.5, 1.0]

    def stacked(w, rows):
        return np.stack([operands[r](line)
                         for r, line in zip(rows.tolist(), w)])

    batches = []

    def counted(w, rows):
        batches.append(rows.tolist())
        return stacked(w, rows)

    with np.errstate(all="ignore"):
        got = _power_kernel_rows(counted, upper, exponent)
        for r, g in enumerate(operands):
            want = _reference_power_kernel(g, upper[r], exponent[r])
            assert _same_outcome(got[r], want)
            try:
                one = power_kernel_integral(g, upper[r], exponent[r],
                                            full_output=True)
            except AccuracyError as exc:
                one = exc
            assert _outcome(got[r]) == _outcome(one)
    # the Jacobi attempt runs all six rows; the retry's first level is
    # one call on exactly the rows whose attempt failed
    with np.errstate(all="ignore"):
        failed = [r for r in range(6) if exponent[r] != 1.0
                  and isinstance(_depth_first(operands[r], 0.0, upper[r],
                                              exponent[r])[0],
                                 AccuracyError)]
    assert batches[0] == [0, 1, 2, 3, 4, 5]
    assert failed == [0, 4] and failed in batches[1:]
    assert not isinstance(got[0], AccuracyError)


def test_non_finite_panel_fails_its_row_at_once():
    # halves that sum to nan or inf fail their row at that level; the
    # other rows of the batch go on and keep their values
    calls = []

    def nan(x):
        calls.append(x.size)
        return np.full_like(x, np.nan)

    with pytest.raises(AccuracyError):
        integrate(nan, 0.0, 1.0, exponent=2.5)
    assert calls == [3 * NODES]

    def stacked(x, rows):
        out = np.exp(x) * np.abs(x - 0.3137)
        out[rows == 1] = np.inf
        return out

    with np.errstate(all="ignore"):
        got = _integrate_rows(stacked, [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    assert isinstance(got[1], AccuracyError)
    assert got[0] == integrate(lambda x: np.exp(x) * np.abs(x - 0.3137),
                               0.0, 1.0, full_output=True)
