from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from geofrac.errors import AccuracyError, DomainError
from geofrac.fractional import rl_left
from geofrac.quadrature import (ABS_TOL, MAX_PANELS, NODES, REL_TOL,
                                _cut, _integrate_rows, _jacobi_rules,
                                _line_power,
                                _panel_sums, _rule, _rules, _weighted_rows,
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
    # the fallback is integrate's own: power_kernel_integral is integrate
    # from 0
    assert integrate(lambda w: w ** 0.25, 0.0, 1.0, exponent=0.25,
                     full_output=True) == (value, err)


def test_weighted_integrate_rescues_an_operand_cusp_at_lo():
    # x**-0.4 over (0, 1) is 1/0.6: the operand's own cusp at lo defeats
    # the Jacobi panel, and the rerun through v = x**0.3 converges
    out = integrate(lambda x: np.abs(x) ** 0.3, 0.0, 1.0, exponent=0.3,
                    full_output=True)
    _assert_honest(out, 1.0 / 0.6)
    # (x - 1)**-0.5 over (1, 2) is 2: the rerun's nodes are lo + v**4; the
    # Jacobi attempt's deepest nodes round onto lo, and a converged
    # result reaches its caller without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = integrate(lambda x: np.abs(x - 1.0) ** 0.25, 1.0, 2.0,
                        exponent=0.25, full_output=True)
    _assert_honest(out, 2.0)


def test_weighted_rows_take_no_errstate():
    # the same cusps at lo = 1 as rows of one batch: the Jacobi panels'
    # deepest Legendre nodes round onto lo, and their gaps of 1 keep the
    # unused power finite, so the rows emit no RuntimeWarning either and
    # each is the lone integral's, bit for bit
    def g(x, rows):
        return np.abs(x - 1.0) ** 0.25

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _weighted_rows(g, [1.0, 2.0, 1.0], [2.0, 3.0, 1.5],
                             [0.25, 0.5, 1.0])
        want = [integrate(lambda x: np.abs(x - 1.0) ** 0.25, lo, hi,
                          exponent=e, full_output=True)
                for lo, hi, e in ((1.0, 2.0, 0.25), (2.0, 3.0, 0.5),
                                  (1.0, 1.5, 1.0))]
    assert got == want
    _assert_honest(got[0], 2.0)


def test_divergent_weighted_integral_keeps_a_finite_error_bar():
    # 1/x at exponent 0.05 diverges at lo; the rerun's operand 1/v**20
    # overflows at its first nodes, so the rerun fails with an infinite
    # estimate and error: the row keeps the Jacobi attempt's failure, and
    # the overflow inside the discarded rerun warns no one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError) as info:
            integrate(lambda x: 1.0 / x, 0.0, 1.0, exponent=0.05)
        [first] = _integrate_rows(lambda x, rows: 1.0 / x, [0.0], [1.0],
                                  [0.05])
    got = info.value
    assert math.isfinite(got.estimate) and math.isfinite(got.error)
    assert ((str(got), got.estimate, got.error)
            == (str(first), first.estimate, first.error))
    # a rerun that fails with a finite estimate and error is the row's:
    # x**-0.5 at exponent 0.5 is the integral of 1/v over (0, 1)
    with pytest.raises(AccuracyError) as info:
        integrate(lambda x: x ** -0.5, 0.0, 1.0, exponent=0.5)
    [rerun] = _integrate_rows(lambda v, rows: (0.0 + v ** 2.0) ** -0.5,
                              [0.0], [1.0], [1.0])
    assert ((str(info.value), info.value.estimate, info.value.error)
            == (str(rerun), rerun.estimate, rerun.error))


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


def _engine_outcome(f, lo, hi, exponent):
    # the engine's one-row call, without integrate's rerun at lo
    [out] = _integrate_rows(lambda x, rows: f(x.reshape(-1)).reshape(x.shape),
                            [lo], [hi], [exponent])
    return out


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


INTERVALS = ((0.0, 1.0), (0.0, 0.37), (-1.0, 2.0))


@pytest.mark.parametrize("exponent", [1.0, 0.05, 0.3, 1.5, 2.5])
@pytest.mark.parametrize("name", sorted(OPERANDS))
def test_integrate_is_the_depth_first_bisection_bit_for_bit(name, exponent):
    # the engine's value and error are the depth-first code's bit for bit,
    # and an integral that failed there fails here, on smooth, kinked,
    # cusped and divergent operands; a level costs one operand call
    f = OPERANDS[name]
    for lo, hi in INTERVALS:
        want, depth, _ = _depth_first(f, lo, hi, exponent)
        calls = []

        def counted(x):
            calls.append(x.shape)
            return f(x)

        with np.errstate(all="ignore"):
            got = _engine_outcome(counted, lo, hi, exponent)
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
    # mixed depth, as one stacked operand; each row is its own integral.
    # The 128 random rows at exponent 1.5 and 3 weigh their panels by
    # gap ** 0.5 and gap ** 2, where numpy's scalar power takes sqrt and
    # square, which an array of exponents does not
    rng = np.random.default_rng(7)
    starts = rng.uniform(-1.0, 1.0, 128)
    lo = [0.0, 0.2, -1.0, 0.0, 0.0, 0.0, 0.0] + starts.tolist()
    hi = [1.0, 0.9, 2.0, 0.6, 1.0, 1.0, 1.0] + (
        starts + rng.uniform(0.05, 2.0, 128)).tolist()
    exponent = [1.0, 0.3, 1.0, 2.5, 1.7, 0.05, 1.0] + [1.5] * 64 + [3.0] * 64
    scales = np.concatenate(([[1.0], [-2.0], [0.5], [3.0], [1.0], [1.0],
                              [1.0]], rng.uniform(-2.0, 2.0, (128, 1))))
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


def _reference_power_kernel(g, lo, hi, exponent):
    # a weighted integral on the depth-first code: the Jacobi attempt,
    # then the substitution v = (x - lo)**exponent
    out, _, _ = _depth_first(g, lo, hi, exponent)
    if not isinstance(out, AccuracyError) or exponent == 1.0:
        return out
    inv = 1.0 / exponent
    out, _, _ = _depth_first(lambda v: g(lo + v ** inv), 0.0,
                             (hi - lo) ** exponent)
    if isinstance(out, AccuracyError):
        return out
    return out[0] / exponent, out[1] / exponent


@pytest.mark.parametrize("exponent", [1.0, 0.05, 0.3, 1.5, 2.5])
@pytest.mark.parametrize("name", ["cusp_low", "cusp_high", "pole",
                                  "far_pole"])
def test_integrate_is_the_depth_first_rule_with_its_rerun(name, exponent):
    # integrate is the engine's attempt, then the rerun through
    # v = (x - lo)**exponent: a rescued integral is the depth-first
    # rule's bit for bit, and one that diverges still raises
    f = OPERANDS[name]
    for lo, hi in INTERVALS:
        with np.errstate(all="ignore"):
            want = _reference_power_kernel(f, lo, hi, exponent)
            got = _integrate_outcome(f, lo, hi, exponent)
            first = _engine_outcome(f, lo, hi, exponent)
        if isinstance(want, AccuracyError):
            assert isinstance(got, AccuracyError)
        else:
            assert got == want
        if name == "cusp_low" and exponent < 1.0 and lo == 0.0:
            # the cusp at lo defeats the Jacobi panel: these are rescues
            assert isinstance(first, AccuracyError)


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
        got = _weighted_rows(counted, [0.0] * 6, upper, exponent)
        for r, g in enumerate(operands):
            want = _reference_power_kernel(g, 0.0, upper[r], exponent[r])
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


def test_line_power_keeps_the_scalar_power_bits():
    # one array power for every line, and numpy's scalar power (sqrt,
    # square, reciprocal) on the lines at 0.5, 2 and -1: each line is a
    # lone integral's x ** e bit for bit
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 3.0, (40, 48))
    e = np.concatenate((rng.uniform(-1.5, 3.0, 34),
                        [0.5, 2.0, -1.0, 1.0, 0.0, 0.5]))
    got = _line_power(x, e, {0.5, 2.0, -1.0})
    for k in range(len(e)):
        assert np.array_equal(got[k], x[k] ** float(e[k])), e[k]


def test_rerun_rows_keep_the_lone_substitution_bits():
    # at exponent 0.5 the cusp of g at 0 fails the Jacobi attempt, and the
    # rerun maps v to v ** 2, numpy's square on the depth-first code's
    # scalar exponent; rerun in a batch with a row at exponent 0.3, each
    # row is the depth-first code's bit for bit, and so the lone one's
    def g(w):
        return np.log1p(w) + w ** 0.12

    attempt = _integrate_rows(lambda w, rows: g(w), [0.0], [0.9], [0.5])
    assert isinstance(attempt[0], AccuracyError)
    with np.errstate(all="ignore"):
        got = _weighted_rows(lambda w, rows: g(w), [0.0, 0.0], [0.9, 0.7],
                             [0.5, 0.3])
        for r, (hi, e) in enumerate(((0.9, 0.5), (0.7, 0.3))):
            want = _reference_power_kernel(g, 0.0, hi, e)
            assert got[r] == want
            assert got[r] == power_kernel_integral(g, hi, e,
                                                   full_output=True)


def test_non_finite_panel_fails_its_row_at_once():
    # halves that sum to nan or inf fail their row at that level; the
    # other rows of the batch go on and keep their values
    calls = []

    def nan(x):
        calls.append(x.size)
        return np.full_like(x, np.nan)

    with pytest.raises(AccuracyError):
        integrate(nan, 0.0, 1.0, exponent=2.5)
    # the Jacobi attempt and the rerun through v = x**2.5 each stop at
    # level 0
    assert calls == [3 * NODES, 3 * NODES]

    def stacked(x, rows):
        out = np.exp(x) * np.abs(x - 0.3137)
        out[rows == 1] = np.inf
        return out

    with np.errstate(all="ignore"):
        got = _integrate_rows(stacked, [0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    assert isinstance(got[1], AccuracyError)
    assert got[0] == integrate(lambda x: np.exp(x) * np.abs(x - 0.3137),
                               0.0, 1.0, full_output=True)


# ---------------------------------------------------------------------------
# breakpoints: a row's first panels end at its breaks
# ---------------------------------------------------------------------------


def _kink_exact(c):
    # Int_0^1 |x - c| dx
    return 0.5 * (c * c + (1.0 - c) ** 2)


def test_points_start_the_first_panels():
    # the kink as a point: both pieces and their halves in one operand
    # call, exact; without it the bisection refines toward the kink
    calls = []

    def counted(x):
        calls.append(x.size)
        return OPERANDS["kink"](x)

    out = integrate(counted, 0.0, 1.0, points=(0.3137,), full_output=True)
    assert calls == [2 * 3 * NODES]
    _assert_honest(out, _kink_exact(0.3137))
    calls.clear()
    integrate(counted, 0.0, 1.0)
    assert len(calls) > 1


def test_points_outside_the_interval_are_ignored():
    # the ends, points beyond them and NaN cut nothing: the integral is
    # the one without points, bit for bit; duplicates cut once
    f = OPERANDS["two_kinks"]
    for exponent in (1.0, 0.3):
        want = integrate(f, 0.0, 1.0, exponent=exponent, full_output=True)
        got = integrate(f, 0.0, 1.0, exponent=exponent, full_output=True,
                        points=(0.0, 1.0, -0.5, 1.5, math.nan))
        assert got == want
    once = integrate(f, 0.0, 1.0, points=(0.2, 0.7), full_output=True)
    assert integrate(f, 0.0, 1.0, points=[0.7, 0.2, 0.2, 0.7],
                     full_output=True) == once


def test_break_rows_beside_rows_without_breaks():
    # one batch: a row without breaks is its integral without points bit
    # for bit, and a row with breaks is integrate with those points; the
    # level-0 call holds 3 panels per piece, a line per piece
    f = OPERANDS["kink"]
    lo, hi = [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]
    exponent = [1.0, 1.0, 0.3, 2.5]
    breaks = [[], [0.3137, math.nan], [0.3137], [math.nan]]
    calls = []

    def stacked(x, rows):
        calls.append(x.shape)
        return f(x)

    got = _integrate_rows(stacked, lo, hi, exponent, breaks)
    assert calls[0] == (1 + 2 + 2 + 1, 3 * NODES)
    for r in range(4):
        points = [c for c in breaks[r] if not math.isnan(c)]
        assert got[r] == integrate(f, lo[r], hi[r], exponent=exponent[r],
                                   points=points, full_output=True)
    assert got[0] == integrate(f, 0.0, 1.0, full_output=True)
    assert got[1] == integrate(f, 0.0, 1.0, points=(0.3137,),
                               full_output=True)


def test_weighted_rows_grade_the_piece_after_a_break_near_lo():
    # a break c near lo leaves the next piece close to the kernel's
    # singular point: it is cut at lo + 4^k (c - lo) below the next break,
    # and the integral converges at level 0
    assert _cut(0.0, 1.0, [0.01], True) == [0.0, 0.01, 0.04, 0.16, 0.64, 1.0]
    assert _cut(0.0, 1.0, [0.01, 0.1], True) == [0.0, 0.01, 0.04, 0.1, 0.4,
                                                 1.0]
    assert _cut(0.0, 1.0, [0.01], False) == [0.0, 0.01, 1.0]
    assert _cut(0.0, 1.0, [0.3], True) == [0.0, 0.3, 1.0]
    calls = []

    def f(x):
        calls.append(x.size)
        return np.abs(x - 0.01)

    e = 0.3
    out = integrate(f, 0.0, 1.0, exponent=e, points=(0.01,),
                    full_output=True)
    assert calls == [5 * 3 * NODES]
    # Int_0^1 x^(e-1) |x - c| dx in closed form
    c = 0.01
    exact = (2.0 * c ** (e + 1.0) / (e * (e + 1.0))
             + 1.0 / (e + 1.0) - c / e)
    _assert_honest(out, exact)
    # an exponent-1 row takes no graded cuts
    calls.clear()
    integrate(f, 0.0, 1.0, points=(0.01,))
    assert calls == [2 * 3 * NODES]


def test_rerun_maps_the_breaks_through_the_substitution():
    # x^-0.4 (1 + |x - 1/2|): the operand's cusp at lo fails the Jacobi
    # attempt; the rerun through v = x**0.3 starts its panels at
    # v = 0.5**0.3 and converges at its level 0
    def f(x):
        calls.append(x.copy())
        return np.abs(x) ** 0.3 * (1.0 + np.abs(x - 0.5))

    calls = []
    out = integrate(f, 0.0, 1.0, exponent=0.3, points=(0.5,),
                    full_output=True)
    rerun = calls[-1]
    assert rerun.size == 2 * 3 * NODES
    # the rerun's nodes are lo + v**(1/0.3) for v in (0, 1): its second
    # piece starts at the mapped break, whose image is 0.5
    assert rerun[:3 * NODES].max() < 0.5 < rerun[3 * NODES:].min()
    F = lambda x: x ** 0.6 / 0.6  # noqa: E731
    G = lambda x: x ** 1.6 / 1.6  # noqa: E731
    exact = (F(1.0) + 0.5 * F(0.5) - G(0.5) + G(1.0) - G(0.5)
             - 0.5 * (F(1.0) - F(0.5)))
    _assert_honest(out, exact)


# ---------------------------------------------------------------------------
# level 0 on columns: a batch's rows that pass there skip the list loop
# ---------------------------------------------------------------------------


def test_level_zero_row_of_negative_zero_sums_returns_zero():
    # -1e-300 over a width of 1e-30: every level-0 panel sums to -0.0
    # (scale * dot underflows), and the row adds them from 0.0 as Python
    # does, to +0.0, in a batch as alone
    def stacked(x, rows):
        return np.where(rows[:, None] == 0, -1e-300, np.exp(x))

    sums = _panel_sums(stacked, np.zeros(1), np.ones(1))
    a, b = np.array([0.0, 0.0, 0.5e-30]), np.array([1e-30, 0.5e-30, 1e-30])
    first = sums(np.array([0]), a, b, 0.5 * (a + b), 0.5 * (b - a))
    assert [math.copysign(1.0, v) for v in first] == [-1.0] * 3
    got = _integrate_rows(stacked, [0.0, 0.0], [1e-30, 1.0], [1.0, 1.0])
    assert got[0] == (0.0, 0.0)
    assert math.copysign(1.0, got[0][0]) == 1.0
    alone = integrate(lambda x: np.full_like(x, -1e-300), 0.0, 1e-30,
                      full_output=True)
    assert alone == (0.0, 0.0) and math.copysign(1.0, alone[0]) == 1.0


def test_level_zero_pieces_add_left_to_right():
    # a step at each break: the pieces' values, about 1, 1e-16, 1e-16 and
    # -1, add left to right, ((1 + 1e-16) + 1e-16) - 1, which the reverse
    # order, a pairwise sum and an exact sum do not give; rows of one
    # piece stand beside the row of 4
    steps = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    heights = np.array([1.0, 1e-16, 1e-16, -1.0])
    calls = []

    def f(x):
        return heights[np.searchsorted(steps, x) - 1]

    def stacked(x, rows):
        calls.append(x.shape)
        return np.where(rows[:, None] == 1, f(x), np.cos(x))

    got = _integrate_rows(stacked, [0.0, 0.0, 1.0], [1.0, 4.0, 2.5],
                          [1.0, 1.0, 1.0], [[], [1.0, 2.0, 3.0], [math.nan]])
    assert calls == [(1 + 4 + 1, 3 * NODES)]
    pieces = [integrate(f, x, y, full_output=True)
              for x, y in zip(steps, steps[1:])]
    values = [v for v, _ in pieces]
    total = err_total = 0.0
    for value, err in pieces:
        total += value
        err_total += err
    assert got[1] == (total, err_total)
    backward = 0.0
    for value in reversed(values):
        backward += value
    assert total not in (backward, (values[0] + values[1])
                         + (values[2] + values[3]), math.fsum(values))
    assert got[0] == integrate(np.cos, 0.0, 1.0, full_output=True)
    assert got[2] == integrate(np.cos, 1.0, 2.5, full_output=True)


def test_rows_that_pass_level_zero_take_one_operand_call():
    # weighted and unweighted rows, with and without breaks, all passing
    # at level 0: one operand call, and each row is its lone integral
    lo, hi = [0.0, 0.5, -1.0, 0.0], [1.0, 2.0, 1.0, 0.8]
    exponent = [1.0, 0.4, 1.0, 2.5]
    breaks = [[0.3], [], [0.0, 0.5], [math.nan]]
    calls = []

    def stacked(x, rows):
        calls.append(x.shape)
        return np.exp(x)

    got = _integrate_rows(stacked, lo, hi, exponent, breaks)
    assert len(calls) == 1
    for r in range(4):
        assert got[r] == integrate(np.exp, lo[r], hi[r], exponent=exponent[r],
                                   points=breaks[r], full_output=True)


def test_level_zero_rows_beside_rows_that_fail():
    # rows that pass at level 0, a row that refines and converges, and
    # rows that refine to an AccuracyError, in one batch: each row is its
    # lone run, value and error, or message, estimate and error
    operands = [np.exp, OPERANDS["kink"], OPERANDS["pole"], np.cos,
                OPERANDS["step"], OPERANDS["far_pole"]]
    lo = [0.0, 0.0, 0.0, -2.0, 0.0, 0.0]
    hi = [1.0, 1.0, 1.0, 2.0, 1.0, 1.0]

    def stacked(x, rows):
        out = np.empty_like(x)
        for r, f in enumerate(operands):
            out[rows == r] = f(x[rows == r])
        return out

    with np.errstate(all="ignore"):
        got = _integrate_rows(stacked, lo, hi, [1.0] * 6)
        alone = [_integrate_rows(
            lambda x, rows, f=f: f(x), [lo[r]], [hi[r]], [1.0])[0]
            for r, f in enumerate(operands)]
    assert [isinstance(v, AccuracyError) for v in got] == [
        False, False, True, False, False, True]
    assert [_outcome(v) for v in got] == [_outcome(v) for v in alone]
