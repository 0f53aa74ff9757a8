"""Inequality chains against analytic values and randomized instances."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geofrac.chains import (CHAIN_NAMES, InequalityReport, TheoremParams,
                            chain_spec, classic_hh, compute_C,
                            compute_C_oracle, compute_E, conde_hh,
                            corollary_distance, falsify_search, h_hh,
                            thm_cb1, thm_cb2, thm_ty1)
from geofrac.convexity import (distance_between_geodesics_function,
                               h_function, on_geodesic, scalar_pullback,
                               squared_distance_function)
from geofrac.errors import AccuracyError, DomainError, SpaceMismatchError
from geofrac.quadrature import integrate
from geofrac.spaces import (Geodesic, distance, euclidean, half_plane,
                            product, random_geodesic, random_point, spider)


def _values(report):
    return [v for _, v in report.sides]


def _pullback(fn):
    # geodesic on the unit segment whose parameter is the coordinate
    return scalar_pullback(fn)


# ---------------------------------------------------------------------------
# parameter and report plumbing
# ---------------------------------------------------------------------------


def test_theorem_params_validation():
    p = TheoremParams(1.0, 1.0, 0.0, 1.0, 2.0)
    assert p.to_dict() == {"alpha": 1.0, "rho": 1.0, "a": 0.0, "b": 1.0,
                           "q": 2.0}
    with pytest.raises(DomainError):
        TheoremParams(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        TheoremParams(1.0, -1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        TheoremParams(1.0, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        TheoremParams(1.0, 1.0, 0.0, 1.5)
    with pytest.raises(DomainError):
        TheoremParams(1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        # alpha * q must exceed 1 for the Hoelder exponent to integrate
        TheoremParams(0.3, 1.0, 0.0, 1.0, 2.0)


def test_report_serialization_shape():
    rep = classic_hh(lambda t: t * t, 0.0, 1.0)
    d = rep.to_dict()
    assert d["chain_name"] == "classic_hh"
    assert d["pass"] is True
    assert len(d["sides"]) == 3 and len(d["margins"]) == 2
    assert d["margins"][0] == pytest.approx(d["sides"][1][1]
                                            - d["sides"][0][1])
    assert d["tol"] == rep.tol
    assert isinstance(rep, InequalityReport)


@pytest.mark.parametrize("space", [half_plane(), spider(3)],
                         ids=lambda s: s.name)
def test_pullbacks_keep_the_input_shape(space):
    # the pullbacks are array functions, so they pass as operands as they are
    rng = np.random.default_rng(3)
    g1, g2 = random_geodesic(space, rng), random_geodesic(space, rng)
    y = g2.eval(0.3)
    x = np.full((2, 2), 0.5)
    cases = [(on_geodesic(squared_distance_function(space, y), g1),
              distance(g1.eval(0.5), y) ** 2),
             (distance_between_geodesics_function(g1, g2),
              distance(g1.eval(0.5), g2.eval(0.5)) ** 2)]
    for pullback, want in cases:
        out = pullback(x)
        assert out.shape == (2, 2)
        assert np.all(out == pytest.approx(want, rel=1e-14))
        assert pullback(0.5).shape == ()


# ---------------------------------------------------------------------------
# scalar chains
# ---------------------------------------------------------------------------


def test_classic_hh_square():
    rep = classic_hh(lambda t: t * t, 0.0, 1.0)
    assert _values(rep) == pytest.approx([0.25, 1.0 / 3.0, 0.5], rel=1e-10)
    assert rep.passed


def test_classic_hh_affine_is_tight():
    rep = classic_hh(lambda t: 3.0 * t - 1.0, -1.0, 2.0)
    v = _values(rep)
    assert v[0] == pytest.approx(v[1], abs=1e-12)
    assert v[1] == pytest.approx(v[2], abs=1e-12)
    assert rep.passed


def test_classic_hh_concave_fails():
    rep = classic_hh(lambda t: -t * t, 0.0, 1.0)
    assert not rep.passed
    assert all(m < 0 for m in rep.margins)


def test_classic_hh_rejects_degenerate_interval():
    with pytest.raises(DomainError):
        classic_hh(lambda t: t, 1.0, 1.0)


def test_h_hh_identity_reduces_to_classic():
    f = lambda t: (t - 0.2) ** 2
    a, b = 0.1, 0.9
    assert _values(h_hh(f, "identity", a, b)) == pytest.approx(
        _values(classic_hh(f, a, b)), rel=1e-12)


def test_h_hh_sqrt_with_sqrt_weight():
    rep = h_hh(np.sqrt, "power(0.5)", 0.0, 1.0)
    assert _values(rep) == pytest.approx([0.5, 2.0 / 3.0, 2.0 / 3.0],
                                         rel=1e-9)
    assert rep.passed


def test_h_hh_constant_function():
    rep = h_hh(lambda t: 4.0, "identity", 0.0, 1.0)
    assert _values(rep) == pytest.approx([4.0, 4.0, 4.0], rel=1e-12)


def test_h_hh_rejects_vanishing_h_half():
    with pytest.raises(DomainError):
        h_hh(lambda t: t, lambda t: np.zeros_like(t), 0.0, 1.0)


def test_conde_matches_classic_on_euclidean_pullback():
    e2 = euclidean(2)
    g = Geodesic(e2.point(0.0, 0.0), e2.point(2.0, 0.0))
    y = e2.point(0.0, 0.0)
    f = squared_distance_function(e2, y)
    rep = conde_hh(f, g)
    pull = classic_hh(lambda t: (2.0 * t) ** 2, 0.0, 1.0)
    assert _values(rep) == pytest.approx(_values(pull), rel=1e-10)


def test_conde_half_plane_instance_passes():
    hp = half_plane()
    g = Geodesic(hp.point(-1.0, 1.0), hp.point(1.0, 1.0))
    f = squared_distance_function(hp, hp.point(0.0, 1.0))
    rep = conde_hh(f, g)
    assert rep.passed
    assert rep.instance["geodesic"]["space"] == "half_plane"


def test_geodesic_mean_is_reflection_invariant():
    hp = half_plane()
    g = Geodesic(hp.point(0.5, 2.0), hp.point(3.0, 0.5))
    f = squared_distance_function(hp, hp.point(1.0, 1.0))
    fg = on_geodesic(f, g)
    forward = integrate(fg, 0.0, 1.0)
    backward = integrate(lambda t: fg(1.0 - t), 0.0, 1.0)
    assert forward == pytest.approx(backward, abs=1e-10)


# ---------------------------------------------------------------------------
# fractional chains, analytic instances
# ---------------------------------------------------------------------------

UNIT_PARAMS = TheoremParams(1.0, 1.0, 0.0, 1.0, 2.0)


def test_cb1_square_pullback():
    f, g = _pullback(lambda t: t * t)
    rep = thm_cb1(f, g, "identity", UNIT_PARAMS)
    expected_right = 0.5 * (1.0 / math.sqrt(3.0) + 0.5)
    assert _values(rep) == pytest.approx([0.25, 1.0 / 3.0, expected_right],
                                         rel=1e-9)
    assert rep.passed


def test_cb1_constant_function():
    f, g = _pullback(lambda t: np.full_like(t, 2.0))
    rep = thm_cb1(f, g, "identity", UNIT_PARAMS)
    assert _values(rep) == pytest.approx(
        [2.0, 2.0, 2.0 * (1.0 / math.sqrt(3.0) + 0.5)], rel=1e-9)
    assert rep.passed


def test_cb1_needs_q():
    f, g = _pullback(lambda t: t * t)
    with pytest.raises(DomainError):
        thm_cb1(f, g, "identity", TheoremParams(1.0, 1.0, 0.0, 1.0))


def test_fractional_chains_name_the_gamma_that_overflows():
    # Gamma(alpha + 1) of the operator side overflows past alpha ~ 170.6,
    # and the operators' Gamma(alpha) past 171.6: a DomainError each, not
    # an OverflowError; alpha = 170.5 still runs
    f, g = _pullback(lambda t: t * t)
    g2 = Geodesic(g.eval(0.5), g.end)
    chains = ((thm_cb1, (f, g), 2.0), (thm_cb2, (f, g), None),
              (thm_ty1, (f, g), None), (corollary_distance, (g, g2), None))
    for chain, objects, q in chains:
        for alpha, term in ((170.7, r"^Gamma\(alpha \+ 1 = \[171\.7\]\) "),
                            (200.0, r"^Gamma\(alpha")):
            with pytest.raises(DomainError, match=term):
                chain(*objects, "identity",
                      TheoremParams(alpha, 1.0, 0.0, 1.0, q))
        assert chain(*objects, "identity",
                     TheoremParams(170.5, 1.0, 0.0, 1.0, q)).passed


def test_cb1_holder_step_bound():
    # alpha rho Int t^(a r - 1) h(t^r) dt <= alpha ((q-1)/(alpha q-1))^((q-1)/q) ||h||_q
    from geofrac.chains import _exact_h_term
    from geofrac.fractional import lq_norm_unit
    hf = h_function("identity")
    exact = _exact_h_term(UNIT_PARAMS.alpha, hf.k, hf)
    bound = 1.0 * (1.0 / 1.0) ** 0.5 * lq_norm_unit(hf, 2.0)
    assert exact == pytest.approx(0.5, rel=1e-10)
    assert bound == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-10)
    assert exact <= bound


@pytest.mark.parametrize("alpha", [0.25, 0.9, 2.5])
@pytest.mark.parametrize("rho", [0.5, 1.7])
def test_exact_h_term_closed_forms(alpha, rho):
    # alpha rho Int_0^1 t^(alpha rho - 1) h(t^rho) dt = alpha Int_0^1
    # v^(alpha - 1) h(v) dv, independent of rho
    from geofrac.chains import _exact_h_term
    p = TheoremParams(alpha, rho, 0.1, 0.9)
    cases = [("identity", alpha / (alpha + 1.0)), ("constant_one", 1.0)]
    cases += [("power(%r)" % k, alpha / (alpha + k))
              for k in (0.25, 0.6, 2.0)]
    for name, want in cases:
        hf = h_function(name)
        got = _exact_h_term(p.alpha, hf.k, hf)
        assert got == pytest.approx(want, rel=1e-10), name


def test_cb2_square_pullback():
    f, g = _pullback(lambda t: t * t)
    rep = thm_cb2(f, g, "identity", TheoremParams(1.0, 1.0, 0.0, 1.0))
    assert _values(rep) == pytest.approx([0.25, 1.0 / 3.0, 0.5], rel=1e-9)
    assert rep.passed


def test_cb2_literal_variant_differs_by_rho_factor():
    f, g = _pullback(lambda t: t * t)
    p = TheoremParams(1.0, 2.0, 0.0, 1.0)
    rep = thm_cb2(f, g, "identity", p)
    assert _values(rep) == pytest.approx([0.25, 1.0 / 3.0, 0.5], rel=1e-9)
    ex = rep.extras
    assert ex["exact_h_term"] == pytest.approx(0.5, rel=1e-10)
    assert ex["right_side_literal"] == pytest.approx(0.75, rel=1e-9)
    # the gap is h(1/2) (f0 + f1) (rho - 1) times the exact h-term
    assert ex["literal_minus_canonical"] == pytest.approx(
        0.5 * 1.0 * (p.rho - 1.0) * ex["exact_h_term"], rel=1e-9)


def test_ty1_square_pullback():
    f, g = _pullback(lambda t: t * t)
    rep = thm_ty1(f, g, "identity", TheoremParams(1.0, 1.0, 0.0, 1.0))
    assert _values(rep) == pytest.approx([0.25, 1.0 / 3.0, 0.5], rel=1e-9)
    assert rep.passed


def test_ty1_constant_function():
    f, g = _pullback(lambda t: np.full_like(t, 3.0))
    rep = thm_ty1(f, g, "identity", TheoremParams(1.0, 1.0, 0.0, 1.0))
    assert _values(rep) == pytest.approx([3.0, 3.0, 3.0], rel=1e-9)


def test_ty1_half_plane_instance():
    hp = half_plane()
    rng = np.random.default_rng(6)
    g = random_geodesic(hp, rng, min_length=0.1)
    f = squared_distance_function(hp, hp.point(0.0, 1.0))
    rep = thm_ty1(f, g, "power(1)", TheoremParams(0.5, 2.0, 0.1, 0.9))
    assert rep.passed


def test_fractional_chains_reduce_to_geodesic_mean():
    # alpha = rho = 1, h = identity, [0, 1]: middle side is the mean
    hp = half_plane()
    rng = np.random.default_rng(12)
    g = random_geodesic(hp, rng, min_length=0.2)
    f = squared_distance_function(hp, hp.point(0.5, 2.0))
    mean = integrate(on_geodesic(f, g), 0.0, 1.0)
    for thm in (thm_cb1, thm_cb2, thm_ty1):
        rep = thm(f, g, "identity", UNIT_PARAMS)
        assert rep.sides[1][1] == pytest.approx(mean, abs=1e-8)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_compute_c_known_values():
    assert compute_C(1.0, 1.0, 0.0, 1.0) == pytest.approx(1.0 / 3.0,
                                                          abs=1e-10)
    assert compute_C(2.0, 1.0, 0.0, 1.0) == pytest.approx(1.0 / 6.0,
                                                          abs=1e-10)


def test_compute_c_oracle_agrees_on_grid():
    for alpha in (0.5, 1.0, 2.0, 3.0):
        for rho in (0.5, 1.0, 2.0):
            for a, b in ((0.0, 1.0), (0.25, 0.75), (0.5, 1.0)):
                closed = compute_C(alpha, rho, a, b)
                oracle = compute_C_oracle(alpha, rho, a, b)
                assert closed == pytest.approx(oracle, abs=1e-8)
                assert closed >= 0.0


def test_compute_c_oracle_degenerate_probe():
    # a == b == 1 makes the integrand vanish identically
    assert compute_C_oracle(1.5, 2.0, 1.0, 1.0) == pytest.approx(0.0,
                                                                 abs=1e-12)
    with pytest.raises(DomainError):
        compute_C(1.5, 2.0, 1.0, 1.0)


def test_compute_e_identity_unit_interval():
    assert compute_E("identity", 1.0, 1.0, 0.0, 1.0) == pytest.approx(
        0.5, rel=1e-10)


def test_compute_e_constant_one_identity():
    # exact identity: reflected interval has the same rho-width, so the
    # two operator terms coincide and E = 2 (b^rho - a^rho)^alpha
    for alpha, rho, a, b in ((1.0, 1.0, 0.0, 1.0), (0.5, 2.0, 0.1, 0.9),
                             (2.0, 0.5, 0.25, 0.75)):
        expected = 2.0 * (b ** rho - a ** rho) ** alpha
        assert compute_E("constant_one", alpha, rho, a, b) == pytest.approx(
            expected, rel=1e-11)
        # a bare callable may return its constant as a scalar
        assert compute_E(lambda t: 1.0, alpha, rho, a, b) == pytest.approx(
            expected, rel=1e-11)


def test_compute_e_quadratic_scaling():
    base = compute_E("identity", 0.75, 1.5, 0.2, 0.8)
    scaled = compute_E(lambda t: 3.0 * t, 0.75, 1.5, 0.2, 0.8)
    assert scaled == pytest.approx(9.0 * base, rel=1e-9)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 2.5])
@pytest.mark.parametrize("rho", [0.5, 2.0])
def test_h_constants_match_closed_forms_for_power_h(alpha, rho):
    # for h = t^k: k0 = alpha Int_0^1 w^(alpha-1) (1-w)^k dw
    # = alpha B(alpha, k+1), and with W = b^rho - a^rho, B = b^rho,
    # C = 1 - B and F(z) = 2F1(-k, alpha; alpha+1; z),
    # E = h(1/2) W^alpha [B^k F(W/B) + C^k F(-W/C)]
    mp = pytest.importorskip("mpmath")
    from geofrac.chains import _k0_term
    for k in (1.0, 0.5, 0.25):
        name = "power(%r)" % k
        for a, b in ((0.0, 0.8), (0.3, 0.9)):
            with mp.workdps(30):
                al = mp.mpf(alpha)
                k0 = al * mp.beta(al, k + 1)
                B = mp.mpf(b) ** rho
                C = 1 - B
                W = B - mp.mpf(a) ** rho
                E = (mp.mpf(0.5) ** k * W ** al
                     * (B ** k * mp.hyp2f1(-k, al, al + 1, W / B)
                        + C ** k * mp.hyp2f1(-k, al, al + 1, -W / C)))
            hf = h_function(name)
            assert _k0_term(alpha, hf.k, hf) == pytest.approx(
                float(k0), rel=1e-12), (name, a, b)
            assert compute_E(name, alpha, rho, a, b) == pytest.approx(
                float(E), rel=1e-12), (name, a, b)


def _h_constants(hf, alpha, q):
    # the four h-only constants: exact h-term, k0 term, h_hh's h_mass and
    # the L^q norm on (0, 1)
    from geofrac.chains import _exact_h_term, _k0_term
    from geofrac.fractional import lq_norm_unit
    mass = h_hh(lambda t: t * t, hf, 0.0, 1.0).extras["h_mass"]
    return (_exact_h_term(alpha, hf.k, hf), _k0_term(alpha, hf.k, hf), mass,
            lq_norm_unit(hf, q))


@pytest.mark.parametrize("alpha", [0.05, 0.5, 2.5])
@pytest.mark.parametrize("k", [0.0, 0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("q", [1.5, 4.0])
def test_power_h_closed_forms_match_quadrature_and_mpmath(alpha, k, q):
    # for h = t^k: alpha/(alpha+k), alpha B(alpha, k+1), 1/(k+1) and
    # (kq+1)^(-1/q).  A bare callable has no exponent and is integrated;
    # that path carries its own quadrature error, up to 1.5e-13 relative
    # on this grid (REL_TOL is 1e-10), so it is held to 1e-12
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        al, kk, qq = mp.mpf(alpha), mp.mpf(k), mp.mpf(q)
        want = [float(v) for v in (al / (al + kk), al * mp.beta(al, kk + 1),
                                   1 / (kk + 1),
                                   (kk * qq + 1) ** (-1 / qq))]
    hf = h_function("power(%r)" % k)
    assert hf.k == k
    closed = _h_constants(hf, alpha, q)
    quad = _h_constants(h_function(lambda t: t ** k), alpha, q)
    for name, c, qd, w in zip(("exact", "k0", "h_mass", "lq_norm"),
                              closed, quad, want):
        assert c == pytest.approx(w, rel=1e-13), name
        assert qd == pytest.approx(c, rel=1e-12), name


def test_power_h_closed_forms_past_gamma_overflow():
    # Gamma(x) overflows for x > 171.6, the Beta values do not
    mp = pytest.importorskip("mpmath")
    from geofrac.chains import _exact_h_term, _k0_term
    from geofrac.fractional import lq_norm_unit
    hf = h_function("power(200)")
    assert _exact_h_term(2.5, hf.k, hf) == pytest.approx(2.5 / 202.5,
                                                        rel=1e-12)
    assert lq_norm_unit(hf, 4.0) == pytest.approx(801.0 ** -0.25,
                                                  rel=1e-12)
    with mp.workdps(30):
        want = float(mp.mpf(2.5) * mp.beta(mp.mpf(2.5), 201))
    assert _k0_term(2.5, hf.k, hf) == pytest.approx(want, rel=1e-12)


def test_catalog_h_exponents():
    assert h_function("identity").k == 1.0
    assert h_function("constant_one").k == 0.0
    assert h_function("godunova_levin").k == -1.0
    assert h_function("power(0.3)").k == 0.3
    assert h_function(lambda t: t).k is None


def test_divergent_h_constants_raise_accuracy_error():
    from geofrac.chains import _exact_h_term, _k0_term
    from geofrac.fractional import lq_norm_unit
    gl = h_function("godunova_levin")
    for alpha in (0.5, 2.5):
        with pytest.raises(AccuracyError):
            _k0_term(alpha, gl.k, gl)
    for alpha in (0.5, 1.0):
        with pytest.raises(AccuracyError):
            _exact_h_term(alpha, gl.k, gl)
    with pytest.raises(AccuracyError):
        h_hh(lambda t: t * t, gl, 0.0, 1.0)
    for q in (1.5, 2.0, 4.0):
        with pytest.raises(AccuracyError):
            lq_norm_unit(gl, q)
    with pytest.raises(AccuracyError):
        lq_norm_unit(h_function("power(-0.5)"), 2.0)
    # convergent for alpha > 1: alpha/(alpha - 1)
    assert _exact_h_term(2.5, gl.k, gl) == (
        pytest.approx(2.5 / 1.5, rel=1e-12))


def test_singular_convergent_h_constants_take_beta_values():
    # h = t^(-1/2) is singular at 0 but these integrals converge; their
    # quadrature raised AccuracyError, the closed forms give the value
    mp = pytest.importorskip("mpmath")
    from geofrac.chains import _exact_h_term, _k0_term
    from geofrac.fractional import lq_norm_unit
    hf = h_function("power(-0.5)")
    with mp.workdps(30):
        half = mp.mpf(1) / 2
        for alpha in (0.5, 1.0, 2.5):
            al = mp.mpf(alpha)
            got = _k0_term(alpha, hf.k, hf)
            assert got == pytest.approx(float(al * mp.beta(al, half)),
                                        rel=1e-14), alpha
        # alpha Int_0^1 v^(alpha - 3/2) dv converges for alpha > 1/2
        assert _exact_h_term(1.0, hf.k, hf) == (
            pytest.approx(float(mp.beta(half, 1)), rel=1e-14))
        mass = h_hh(lambda t: t * t, hf, 0.0, 1.0).extras["h_mass"]
        assert mass == pytest.approx(float(mp.beta(half, 1)), rel=1e-14)
        # Int_0^1 t^(-3/4) dt = B(1/4, 1)
        q = mp.mpf(3) / 2
        assert lq_norm_unit(hf, 1.5) == pytest.approx(
            float(mp.beta(1 - half * q, 1) ** (1 / q)), rel=1e-14)


def _operator_sides(fg, reflected):
    # (folded, separate, error bar) per parameter set: J_left of fg(x^rho)
    # on [a, b] plus J_right of it on [a, b] (thm_cb1, thm_cb2) or on the
    # reflected interval [s, c], s^rho = 1 - b^rho and c^rho = 1 - a^rho
    # (thm_ty1, corollary), against the one-trial source's one left
    # integral of fg(u) + fg(shift - u), shift = a^rho + b^rho or 1
    from geofrac.chains import _OneTrial, _operator_side
    from geofrac.fractional import katugampola_left, katugampola_right
    out = []
    for alpha, rho, a, b in ((0.3, 0.7, 0.0, 1.0), (1.0, 1.0, 0.2, 0.8),
                             (2.5, 2.2, 0.45, 0.9), (2.5, 2.2, 0.0, 0.9),
                             (0.6, 0.5, 0.0, 0.7), (0.3, 0.5, 0.3, 1.0)):
        F = lambda x: fg(np.clip(x ** rho, 0.0, 1.0))
        kl, el = katugampola_left(F, alpha, rho, a, b, full_output=True)
        if reflected:
            shift = 1.0
            lo = max(0.0, 1.0 - b ** rho) ** (1.0 / rho)
            hi = (1.0 - a ** rho) ** (1.0 / rho)
        else:
            shift = a ** rho + b ** rho
            lo, hi = a, b
        kr, er = katugampola_right(F, alpha, rho, lo, hi, full_output=True)
        pref = (rho ** alpha * math.gamma(alpha + 1.0)
                / (b ** rho - a ** rho) ** alpha)
        # h = identity, h(1/2) = 0.5
        trial = _OneTrial(fg, h_function("identity"),
                          TheoremParams(alpha, rho, a, b))
        [folded] = trial.operators([shift])
        [merged] = _operator_side(trial, folded)
        out.append((merged, pref * 0.5 * (kl + kr), pref * 0.5 * (el + er)))
    return out


@pytest.mark.parametrize("space", [euclidean(2), half_plane(), spider(3),
                                   product(euclidean(2), spider(3))],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("reflected", [False, True])
def test_merged_operator_side_matches_two_operators(space, reflected):
    rng = np.random.default_rng(11)
    f = squared_distance_function(space, random_point(space, rng))
    fg = on_geodesic(f, random_geodesic(space, rng, min_length=0.05))
    for merged, want, bar in _operator_sides(fg, reflected):
        # plus roundoff: a panel that is exact for the operand reports 0
        assert abs(merged - want) <= bar + 1e-15 * abs(want)


def test_merged_operator_side_is_one_batch_per_operand_call():
    # fg(u) and fg(shift - u) go through the pullback in one call
    from geofrac.chains import _OneTrial
    f, g = _pullback(lambda t: np.exp(t))
    fg = on_geodesic(f, g)
    shapes = []

    def recorded(u):
        shapes.append(np.shape(u))
        return fg(u)

    _OneTrial(recorded,
              params=TheoremParams(0.7, 1.5, 0.1, 0.9)).operators([1.0])
    assert shapes and all(len(s) == 2 and s[0] == 2 for s in shapes)


@pytest.mark.parametrize("space", [spider(3), product(euclidean(2),
                                                      spider(3))],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("reflected", [False, True])
def test_merged_operator_side_across_the_spider_hub(space, reflected):
    # g crosses the hub at t = 7/11 and y lies on the third ray, so f along
    # g has a kink that the quadrature refines.  There the bisection error
    # bars are not a bound: at (alpha, rho) = (2.5, 2.2) the folded value
    # is 6.8e-14 off a 30-digit reference while the bars sum to about
    # 1e-14, so the two sides are held to the quadrature's REL_TOL
    from geofrac.quadrature import REL_TOL
    if space.name.startswith("product"):
        g = Geodesic(space.point(((0.0, 0.0), (0, 0.7))),
                     space.point(((1.0, 0.5), (1, 0.4))))
        y = space.point(((0.2, 0.1), (2, 0.3)))
    else:
        g = Geodesic(space.point(0, 0.7), space.point(1, 0.4))
        y = space.point(2, 0.3)
    fg = on_geodesic(squared_distance_function(space, y), g)
    for merged, want, _bar in _operator_sides(fg, reflected):
        assert abs(merged - want) <= REL_TOL * abs(want)


def test_compute_e_rejects_bad_interval():
    with pytest.raises(DomainError):
        compute_E("identity", 1.0, 1.0, 0.9, 0.2)


# ---------------------------------------------------------------------------
# corollary
# ---------------------------------------------------------------------------


def test_corollary_parallel_translates_all_equal():
    e2 = euclidean(2)
    g1 = Geodesic(e2.point(0.0, 0.0), e2.point(1.0, 0.0))
    g2 = Geodesic(e2.point(0.0, 1.0), e2.point(1.0, 1.0))
    rep = corollary_distance(g1, g2, "identity",
                             TheoremParams(1.0, 1.0, 0.0, 1.0))
    assert _values(rep) == pytest.approx([1.0, 1.0, 1.0, 1.0], rel=1e-9)
    assert rep.passed


def test_corollary_identical_geodesics():
    e2 = euclidean(2)
    g = Geodesic(e2.point(0.5, 0.5), e2.point(2.0, 1.0))
    rep = corollary_distance(g, g, "identity",
                             TheoremParams(1.0, 1.0, 0.0, 1.0))
    assert _values(rep) == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-12)


def test_corollary_collinear_probe_pins_c_coefficient():
    # same-direction segments of different lengths make the comparison
    # bound an equality, so the subtracted term must carry exactly the
    # alpha rho h(1/2) factor; the bare-constant variant undershoots
    e2 = euclidean(2)
    g1 = Geodesic(e2.point(0.0, 0.0), e2.point(1.0, 0.0))
    g2 = Geodesic(e2.point(0.0, 1.0), e2.point(2.0, 1.0))
    rep = corollary_distance(g1, g2, "identity",
                             TheoremParams(1.0, 1.0, 0.0, 1.0))
    v = _values(rep)
    assert v == pytest.approx([1.25, 4.0 / 3.0, 4.0 / 3.0, 1.5], rel=1e-9)
    assert rep.passed
    assert rep.extras["c_value"] == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert rep.extras["right_difference_bare_c"] == pytest.approx(
        7.0 / 6.0, rel=1e-9)
    # the bare-constant right side dips below the operator side
    assert rep.extras["right_difference_bare_c"] < v[1] - 1e-3


def test_corollary_collinear_probe_sub_interval():
    # same equality configuration on the sub-interval [0, 1/2]: operator
    # side is (G(0)+G(1))/2 - C/2 = 4/3 by hand, and the subtracted term
    # carries no extra interval normalization (dividing it by
    # (b^rho - a^rho)^alpha would drop the third side to 7/6 < 4/3)
    e2 = euclidean(2)
    g1 = Geodesic(e2.point(0.0, 0.0), e2.point(1.0, 0.0))
    g2 = Geodesic(e2.point(0.0, 1.0), e2.point(2.0, 1.0))
    rep = corollary_distance(g1, g2, "identity",
                             TheoremParams(1.0, 1.0, 0.0, 0.5))
    v = _values(rep)
    assert v == pytest.approx([1.25, 4.0 / 3.0, 4.0 / 3.0, 1.5], rel=1e-9)
    assert rep.extras["c_value"] == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert rep.passed


#: |margin| / endpoint side allowed at equality, in units of eps; random
#: draws of the property below reach about 7
SHARP_EPS = 32


def _collinear_margin(p, theta, offset, s1, gap, l1, l2, moved=0, eps=0.0):
    # corollary_distance with h = identity on two same-direction segments
    # of one euclidean2 line, lengths l1 and l2, starting at s1 and
    # s1 + gap, after end `moved` (g1's start and end, g2's start and
    # end) moves eps off the line: the operators -> endpoints_minus_c
    # margin and the endpoint side
    u = np.array([math.cos(theta), math.sin(theta)])
    n = np.array([-u[1], u[0]])
    ends = [offset * n + s * u for s in (s1, s1 + l1, s1 + gap,
                                         s1 + gap + l2)]
    ends[moved] = ends[moved] + eps * n
    e2 = euclidean(2)
    g1 = Geodesic(e2.point(ends[0]), e2.point(ends[1]))
    g2 = Geodesic(e2.point(ends[2]), e2.point(ends[3]))
    rep = corollary_distance(g1, g2, "identity", p)
    return rep.margins[1], dict(rep.sides)["endpoints"]


@settings(max_examples=60, deadline=None)
@given(st.floats(0.25, 3.0), st.floats(0.5, 2.5), st.floats(0.0, 0.9),
       st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.25, 2.0),
       st.sampled_from([-1.0, 1.0]), st.floats(0.25, 2.0),
       st.floats(0.25, 2.0), st.integers(0, 3))
def test_corollary_is_essentially_sharp(alpha, rho, a, b_frac, theta,
                                        offset, s1, gap, sign, l1, l2,
                                        moved):
    # collinear same-direction segments make the comparison step an
    # equality: the operator side meets the endpoint side minus the
    # alpha rho h(1/2) C (L2 - L1)^2 term to rounding; one end moved eps
    # off the line opens a positive margin of order eps^2
    p = TheoremParams(alpha, rho, a, min(1.0, a + 0.05 + b_frac * (0.95 - a)))
    segments = (theta, offset, s1, sign * gap, l1, l2, moved)
    margin, endpoints = _collinear_margin(p, *segments)
    assert abs(margin) <= SHARP_EPS * np.finfo(float).eps * endpoints
    small, _ = _collinear_margin(p, *segments, 1e-3)
    double, _ = _collinear_margin(p, *segments, 2e-3)
    assert small > 0.0
    assert double / small == pytest.approx(4.0, rel=1e-3)
    assert _collinear_margin(p, *segments, 0.1)[0] > 0.0


@settings(max_examples=60, deadline=None)
@given(st.floats(0.25, 3.0), st.floats(0.5, 2.5), st.floats(0.0, 0.9),
       st.floats(0.0, 1.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.floats(0.0, 2.0 * math.pi), st.floats(0.05, 2.0),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
# a subnormal c0: classic_hh's margins are a few subnormal steps
@example(1.0, 1.0, 0.0, 1.0, 0.0, 0.3, 0.4, 0.05, 2.225073858507e-311, 0.0,
         0.0)
def test_affine_pullbacks_make_the_chains_equalities(alpha, rho, a, b_frac,
                                                     x0, y0, theta, length,
                                                     c0, c1, d):
    # f(B) = B.c + d on euclidean2 pulls back to an affine function of t,
    # and with h = identity every margin of these chains is 0 to rounding
    # (classic_hh takes the pullback as its scalar f); so is thm_cb1's
    # when q = alpha, where its Hoelder bound is the exact h-integral.
    # The bound scales with the size of the pullback's terms, |c| |B| +
    # |d| along g, since the sides themselves can cancel to 0; it is
    # floored at the least normal double, below which a float's spacing
    # no longer scales with its size
    p = TheoremParams(alpha, rho, a, min(1.0, a + 0.05 + b_frac * (0.95 - a)),
                      alpha if alpha > 1.0 else None)
    start = np.array([x0, y0])
    end = start + length * np.array([math.cos(theta), math.sin(theta)])
    c = np.array([c0, c1])
    e2 = euclidean(2)
    g = Geodesic(e2.point(start), e2.point(end))
    size = max(np.abs(c) @ np.maximum(np.abs(start), np.abs(end)) + abs(d),
               np.finfo(float).tiny)
    chains = ["classic_hh", "h_hh", "conde_hh", "thm_cb2", "thm_ty1"]
    for chain in chains + ["thm_cb1"] * (p.q is not None):
        rep = chain_spec(chain).evaluate(lambda B: B @ c + d, g,
                                         h_function("identity"), p)
        assert (max(map(abs, rep.margins))
                <= SHARP_EPS * np.finfo(float).eps * size), chain


def test_corollary_swap_invariance():
    hp = half_plane()
    rng = np.random.default_rng(44)
    g1 = random_geodesic(hp, rng, min_length=0.1)
    g2 = random_geodesic(hp, rng, min_length=0.1)
    p = TheoremParams(0.5, 1.5, 0.2, 0.8)
    r12 = corollary_distance(g1, g2, "power(1)", p)
    r21 = corollary_distance(g2, g1, "power(1)", p)
    assert _values(r12) == pytest.approx(_values(r21), abs=1e-9)
    assert r12.passed


def test_corollary_requires_dominating_h():
    e2 = euclidean(2)
    g1 = Geodesic(e2.point(0.0, 0.0), e2.point(1.0, 0.0))
    g2 = Geodesic(e2.point(0.0, 1.0), e2.point(1.0, 1.0))
    with pytest.raises(DomainError):
        corollary_distance(g1, g2, "power(2)",
                           TheoremParams(1.0, 1.0, 0.0, 1.0))


def test_corollary_rejects_space_mismatch():
    e2 = euclidean(2)
    hp = half_plane()
    g1 = Geodesic(e2.point(0.0, 0.0), e2.point(1.0, 0.0))
    g2 = Geodesic(hp.point(0.0, 1.0), hp.point(1.0, 1.0))
    with pytest.raises(SpaceMismatchError):
        corollary_distance(g1, g2, "identity",
                           TheoremParams(1.0, 1.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# falsification search
# ---------------------------------------------------------------------------


def test_falsify_conde_euclidean_clean():
    summary = falsify_search("conde_hh", euclidean(2), 50, seed=1)
    assert summary["violations"] == 0
    assert summary["evaluated"] + summary["discarded"] == 50
    assert summary["worst_margin"] > -1e-8
    assert summary["worst_instance"]["chain_name"] == "conde_hh"


@pytest.mark.parametrize("chain", ["classic_hh", "h_hh"])
def test_mean_chains_worst_instance_names_f_and_its_geodesic(chain):
    # the worst instance of a mean chain names f and the geodesic it is
    # pulled back along, as conde_hh's does, and keeps h, a and b: with
    # the drawn reference point, its geodesic replays the worst report
    import geofrac.chains as chains

    space = euclidean(2)
    spec = chains.chain_spec(chain)
    worst = falsify_search(chain, space, 5, seed=1)["worst_instance"]
    got = worst["instance"]
    assert got["f"] == "dist_to_point_pow_2"
    chunk = chains._draw_trials(spec, space, 5, np.random.default_rng(1))
    f, _, h, p = next(o for o in map(chunk.objects, range(5))
                      if spec.instance(*o) == got)
    g = Geodesic(space.point(got["geodesic"]["start"]),
                 space.point(got["geodesic"]["end"]))
    assert spec.evaluate(f, g, h, p).to_dict() == worst


def test_falsify_corollary_spider_clean():
    summary = falsify_search("corollary_distance", spider(3), 30, seed=2)
    assert summary["violations"] == 0
    assert summary["evaluated"] == 30
    assert summary["c_term"] == "difference"


def test_falsify_corollary_product_probe():
    # the printed product form is a probe, not an assertion: the search
    # must run, label itself, and draw the same instances as the
    # difference form
    probe = falsify_search("corollary_distance", euclidean(2), 30, seed=2,
                           product_c_term=True)
    base = falsify_search("corollary_distance", euclidean(2), 30, seed=2)
    assert probe["c_term"] == "product"
    assert probe["evaluated"] == base["evaluated"] == 30
    assert probe["violations"] >= 0
    with pytest.raises(DomainError):
        falsify_search("conde_hh", euclidean(2), 1, product_c_term=True)


def test_product_probe_reports_the_worst_rows_product_margins():
    # the probe's worst instance carries the product-form third side that
    # its margins come from: its least margin is the search's worst
    # margin, and it fails like the violations it counts
    summary = falsify_search("corollary_distance", euclidean(2), 40, seed=1,
                             product_c_term=True)
    worst = summary["worst_instance"]
    assert summary["violations"] > 0
    assert min(worst["margins"]) == summary["worst_margin"] < -1e-8
    assert worst["pass"] is False
    assert worst["sides"][2][0] == "endpoints_minus_c_product"
    assert worst["sides"][2][1] == worst["extras"]["right_product_bare_c"]


def test_falsify_cb2_half_plane_clean():
    summary = falsify_search("thm_cb2", half_plane(), 20, seed=3)
    assert summary["violations"] == 0
    assert summary["quadrature_failures"] == 0


def test_falsify_zero_trials_empty_summary():
    summary = falsify_search("conde_hh", euclidean(2), 0, seed=0)
    assert summary["evaluated"] == 0
    assert summary["violations"] == 0
    assert summary["worst_margin"] is None
    assert summary["worst_instance"] is None


def test_falsify_unknown_chain():
    with pytest.raises(DomainError):
        falsify_search("no_such_chain", euclidean(2), 1)
    assert "thm_cb1" in CHAIN_NAMES


@pytest.mark.parametrize("kwargs, name", [
    ({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
    ({"trials": 2.7}, "trials"), ({"tol": float("nan")}, "tol"),
    ({"tol": -1.0}, "tol")], ids=["negative_seed", "fractional_seed",
                                  "fractional_trials", "nan_tol",
                                  "negative_tol"])
def test_falsify_rejects_what_the_cli_rejects(kwargs, name):
    # a negative or fractional seed, a fractional trial count and a tol
    # that is not positive and finite (the CLI's --tol rule)
    kwargs = {"trials": 3, **kwargs}
    with pytest.raises(DomainError, match=name):
        falsify_search("classic_hh", euclidean(2), **kwargs)


def test_falsify_is_deterministic():
    a = falsify_search("thm_ty1", euclidean(2), 10, seed=7)
    b = falsify_search("thm_ty1", euclidean(2), 10, seed=7)
    assert a == b


def test_chain_table_reaches_chains_by_module_name(monkeypatch, capsys):
    # the table must call a rebound name (as an outside tracer does), not
    # a function object captured at import; `geofrac sweep` evaluates
    # through the table
    import geofrac.chains as chains
    from geofrac.cli import main

    calls = []
    for name in CHAIN_NAMES:
        def counted(*args, _fn=getattr(chains, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(chains, name, counted)
    for name in CHAIN_NAMES:
        assert main(["sweep", name]) == 0
    capsys.readouterr()
    assert calls == list(CHAIN_NAMES)


def test_chain_table_flags():
    from geofrac.chains import CHAINS

    assert CHAIN_NAMES == tuple(CHAINS)
    assert [c for c in CHAIN_NAMES if CHAINS[c].needs_q] == ["thm_cb1"]
    assert [c for c in CHAIN_NAMES if not CHAINS[c].takes_h] == [
        "classic_hh", "conde_hh"]
    assert [c for c in CHAIN_NAMES if CHAINS[c].two_geodesics] == [
        "corollary_distance"]


# ---------------------------------------------------------------------------
# trial-batched falsification against the per-trial chains
# ---------------------------------------------------------------------------

BATCH_SPACES = [euclidean(2), half_plane(), spider(3),
                product(euclidean(2), half_plane()),
                product(euclidean(2), spider(3))]


def _per_trial_search(chain, space, trials, seed, tol=1e-8,
                      product_c_term=False):
    # the falsifier's accounting, with each trial that chains._draw_trials
    # draws (chunk by chunk, from the same stream) evaluated by its public
    # chain through ChainSpec.evaluate, one after another; no trial is
    # discarded
    import geofrac.chains as chains

    spec = chains.chain_spec(chain)
    rng = np.random.default_rng(seed)
    evaluated = failures = violations = 0
    worst_margin = None
    worst_instance = None
    for start in range(0, trials, chains.CHUNK):
        draws = min(chains.CHUNK, trials - start)
        chunk = chains._draw_trials(spec, space, draws, rng)
        for i in range(draws):
            try:
                report = spec.evaluate(*chunk.objects(i), tol=tol)
            except AccuracyError:
                failures += 1
                continue
            evaluated += 1
            if product_c_term:
                sides = list(report.sides)
                sides[2] = ("endpoints_minus_c_product",
                            report.extras["right_product_bare_c"])
                vals = [v for _, v in sides]
                margins = tuple(b - a for a, b in zip(vals, vals[1:]))
                report = dataclasses.replace(
                    report, sides=tuple(sides), margins=margins,
                    passed=all(m >= -tol for m in margins))
            margin = min(report.margins)
            if not report.passed:
                violations += 1
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
                worst_instance = report.to_dict()
    summary = {"chain": chain, "space": space.name, "trials": trials,
               "seed": int(seed), "tol": float(tol), "evaluated": evaluated,
               "discarded": 0, "quadrature_failures": failures,
               "violations": violations, "worst_margin": worst_margin,
               "worst_instance": worst_instance}
    if chain == "corollary_distance":
        summary["c_term"] = "product" if product_c_term else "difference"
    return summary


@pytest.mark.parametrize("chain", CHAIN_NAMES)
def test_batched_falsifier_matches_per_trial_oracle(chain):
    for space in BATCH_SPACES:
        for seed in (1, 2, 3):
            assert (falsify_search(chain, space, 40, seed=seed)
                    == _per_trial_search(chain, space, 40, seed))


def test_batched_falsifier_across_chunk_boundaries(monkeypatch):
    # 40 trials in chunks of 7 draws: the last chunk is short, and the
    # worst row and the ties span chunks, with the corollary's product
    # probe too
    import geofrac.chains as chains

    monkeypatch.setattr(chains, "CHUNK", 7)
    searches = [(chain, False) for chain in CHAIN_NAMES]
    for chain, product_c_term in searches + [("corollary_distance", True)]:
        for space in (spider(3), product(euclidean(2), half_plane())):
            assert (falsify_search(chain, space, 40, seed=4,
                                   product_c_term=product_c_term)
                    == _per_trial_search(chain, space, 40, 4,
                                         product_c_term=product_c_term))


@pytest.mark.parametrize("chain", CHAIN_NAMES)
def test_a_search_builds_one_report(monkeypatch, chain):
    # 130 trials are three chunks, the last of 2 rows: the search takes
    # every row's margins from its sides and builds the worst row's report
    # alone; the public check_h_convex runs once, on the worst row's
    # objects, the only ones built (none on the corollary's two geodesics).
    # The params and h stay columns: the search builds one TheoremParams
    # and one HFunction, the worst row's (identity, for the check of a
    # chain without h)
    import geofrac.chains as chains
    from geofrac.convexity import HFunction

    calls = {"_report": [], "check_h_convex": [], "objects": [],
             "__post_init__": [], "__init__": []}
    for owner, name in ((chains, "_report"), (chains, "check_h_convex"),
                        (chains._Chunk, "objects"),
                        (TheoremParams, "__post_init__"),
                        (HFunction, "__init__")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name].append(args[0])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    one_geodesic = not chains.chain_spec(chain).two_geodesics
    probes = [False] + [True] * (chain == "corollary_distance")
    for product_c_term in probes:
        for made in calls.values():
            made.clear()
        summary = falsify_search(chain, spider(3), 130, seed=1,
                                 product_c_term=product_c_term)
        assert summary["evaluated"] > 0 and summary["discarded"] == 0
        assert calls["_report"] == [chain]
        assert len(calls["check_h_convex"]) == one_geodesic
        assert len(calls["objects"]) == 1
        assert len(calls["__post_init__"]) == 1
        assert len(calls["__init__"]) == 1


def _script_classic_hh(monkeypatch, rows):
    # classic_hh's body replaced by one that hands out the sides of rows
    # in draw order, chunk after chunk
    import geofrac.chains as chains

    script = iter(rows)

    def body(chunk):
        n = len(chunk.params)
        values = np.array([next(script) for _ in range(n)])
        return chains._Sides(("midpoint", "mean", "endpoints"), values.T,
                             {}, [None] * n)

    monkeypatch.setitem(chains.CHAINS, "classic_hh",
                        chains.CHAINS["classic_hh"]._replace(rows=body))


@pytest.mark.parametrize("chunk", [64, 7])
def test_a_nan_margin_makes_its_row_the_worst(monkeypatch, chunk):
    # margins rank as np.min and np.argmin rank them: a NaN margin makes
    # its row the worst, wherever it sits in the row, the first such row
    # stays the worst, and it counts as a violation; rows 2, 3, 9 and 10
    # are in one chunk of 64 draws, or in two chunks of 7
    import geofrac.chains as chains

    monkeypatch.setattr(chains, "CHUNK", chunk)
    nan = math.nan
    cases = [({3: (nan, 1.0, 2.0), 9: (0.0, -5.0, 0.0)}, 3),
             ({3: (0.0, -5.0, 0.0), 9: (nan, 1.0, 2.0)}, 9),
             ({3: (0.0, 1.0, nan), 9: (0.0, -5.0, 0.0)}, 3),
             ({3: (0.0, -5.0, 0.0), 9: (0.0, 1.0, nan)}, 9),
             ({2: (0.0, 1.0, nan), 10: (nan, 3.0, 4.0)}, 2)]
    for script, worst in cases:
        rows = [script.get(i, (i, i + 1.0, i + 2.0)) for i in range(14)]
        _script_classic_hh(monkeypatch, rows)
        summary = falsify_search("classic_hh", euclidean(2), 14, seed=1)
        assert math.isnan(summary["worst_margin"])
        assert summary["violations"] == 2
        sides = summary["worst_instance"]["sides"]
        np.testing.assert_array_equal([v for _, v in sides], rows[worst])


@pytest.mark.parametrize("row, value, message", [
    ("alpha", 0.0, "alpha must be positive and finite"),
    ("alpha", -1.0, "alpha must be positive and finite"),
    ("alpha", math.inf, "alpha must be positive and finite"),
    ("alpha", math.nan, "alpha must be positive and finite"),
    ("rho", 0.0, "rho must be positive and finite"),
    ("rho", -0.5, "rho must be positive and finite"),
    ("a", 0.9, "need 0 <= a < b <= 1"), ("a", 0.95, "need 0 <= a < b <= 1"),
    ("a", -0.1, "need 0 <= a < b <= 1"), ("b", 1.5, "need 0 <= a < b <= 1"),
    ("q", 1.0, "q must be finite and > 1"),
    ("q", math.inf, "q must be finite and > 1"),
    ("alpha", 0.3, "need alpha * q > 1")])
def test_column_checks_keep_the_theorem_params_checks(row, value, message):
    # hand-made columns with one bad row raise the DomainError of that
    # row's TheoremParams, with its text; without the row they pass
    import geofrac.chains as chains

    columns = {"alpha": np.array([1.0, 2.0, 0.5]),
               "rho": np.array([1.0, 0.7, 2.0]),
               "a": np.array([0.0, 0.2, 0.5]), "b": np.array([1.0, 0.9, 0.6]),
               "q": np.array([2.0, 3.0, 4.0])}
    columns[row][1] = value
    with pytest.raises(DomainError) as want:
        TheoremParams(*(c[1] for c in columns.values()))
    with pytest.raises(DomainError) as got:
        chains._check_params(**columns)
    assert str(got.value) == str(want.value) == message
    chains._check_params(**{k: c[::2] for k, c in columns.items()})


def _row_verdicts(chunk):
    # the public check_h_convex of every row of a chunk, on its objects,
    # with h = identity where the chain takes none
    import geofrac.chains as chains

    out = []
    for i in range(len(chunk.params)):
        f, g, h, _ = chunk.objects(i)
        out.append(chains.check_h_convex(f, g, h or "identity", seed=0))
    return out


@pytest.mark.parametrize("space", BATCH_SPACES, ids=lambda s: s.name)
def test_every_drawn_row_is_admissible(space):
    # the falsifier checks no row's convexity: d(., y)^2 is convex on a
    # CAT(0) space, and every drawn h has h(t) >= t, so every drawn row is
    # h-convex.  A full chunk and a short one, of chains with and without
    # h: every row's public check holds
    import geofrac.chains as chains

    rng = np.random.default_rng(4)
    for chain in ("h_hh", "classic_hh", "thm_cb2"):
        for size in (chains.CHUNK, 5):
            chunk = chains._draw_trials(chains.chain_spec(chain), space,
                                        size, rng)
            verdicts = _row_verdicts(chunk)
            assert len(verdicts) == size
            assert all(v.holds for v in verdicts)


def test_batched_product_probe_matches_per_trial_oracle():
    for space in BATCH_SPACES:
        for seed in (1, 2, 3):
            assert (falsify_search("corollary_distance", space, 40, seed=seed,
                                   product_c_term=True)
                    == _per_trial_search("corollary_distance", space, 40,
                                         seed, product_c_term=True))


def _with_hub_row(spec, chunk, i):
    # the chunk with one more row at i: a spider3 instance whose geodesic
    # crosses the hub at t = 7/11 with the reference point on the third
    # ray, so that f along g has a kink there; its one-row batches are
    # spliced into the chunk's columns
    import geofrac.chains as chains
    from geofrac.chains import TheoremParams

    sp = chunk.space
    p = np.array([[2.5, 2.2, 0.45, 0.9, 2.0 if spec.needs_q else math.nan]])
    pairs = [((0, 0.7), (1, 0.4))]
    if spec.two_geodesics:
        # the distance to a geodesic on the third ray has the same kink
        pairs.append(((2, 0.3), (2, 0.5)))
    hub = []
    for start, end in pairs:
        A, B = sp._stack([start]), sp._stack([end])
        hub.append((A, B) + sp._ends(A, B))

    def splice(batch, row):
        if isinstance(batch, tuple):
            return tuple(map(splice, batch, row))
        return np.concatenate((batch[:i], row, batch[i:]))

    ys = None if chunk.ys is None else splice(chunk.ys, sp._stack([(2, 0.3)]))
    # h = identity, t**1, on the hub row
    hs = None if chunk.k is None else splice(
        (chunk.kinds, chunk.k), (np.array(["identity"]), np.array([1.0])))
    return chains._Chunk(sp, splice(chunk.params, p), hs, ys,
                         splice(chunk.geodesics, tuple(hub)))


@pytest.mark.parametrize("chain", CHAIN_NAMES)
def test_batch_rows_equal_the_per_trial_chain(chain):
    # every row, the hub-crossing one included, carries the sides and
    # extras of the public chain's report bit for bit: the same body on a
    # lone trial with the public integrals; the chain's instance comes
    # from the table's helper
    import geofrac.chains as chains

    spec = chains.chain_spec(chain)
    for space in BATCH_SPACES:
        chunk = chains._draw_trials(spec, space, 40,
                                    np.random.default_rng(1))
        if space.name == "spider(3)":
            chunk = _with_hub_row(spec, chunk, 5)
        rows = spec.rows(chunk)
        assert len(rows) == len(chunk.params)
        for i, (sides, extras) in enumerate(rows):
            objects = chunk.objects(i)
            want = spec.evaluate(*objects, tol=1e-8)
            got = chains._report(chain, sides, 1e-8, spec.instance(*objects),
                                 extras)
            assert got.sides == want.sides
            assert got.margins == want.margins
            assert got.passed == want.passed
            assert got.extras == want.extras
            assert got.instance == want.instance


def test_rows_that_miss_are_refined_in_the_batch(monkeypatch):
    # rows whose first quadrature level misses (the spider hub) are
    # refined in the batch: the falsifier calls no public chain, and the
    # worst row's report is built from its batch sides
    import geofrac.chains as chains

    spec = chains.chain_spec("conde_hh")
    chunk = chains._draw_trials(spec, spider(3), 40,
                                np.random.default_rng(1))
    pull, shapes = chunk.pull, []

    def counted_pull(ts, index):
        shapes.append(ts.shape)
        return pull(ts, index)

    chunk.pull = counted_pull
    chunk.means(np.zeros(len(chunk.params)), np.ones(len(chunk.params)))
    assert shapes[0] == (len(chunk.params), 48) and len(shapes) > 1
    calls = []
    for name in CHAIN_NAMES:
        def counted(*args, _fn=getattr(chains, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(chains, name, counted)
    summary = falsify_search("conde_hh", spider(3), 40, seed=1)
    assert summary["evaluated"] == 40
    assert calls == []


def test_operator_rows_call_no_per_row_function(monkeypatch):
    # the operator sides and E map every row's kernel nodes to
    # u = b^rho - w in one array expression, with no per-row function
    # (`_by_row`), and E's h is the drawn exponent column, with no
    # HFunction call; each row still equals its one-trial source bit for
    # bit: the operator side, and compute_E for every drawn kind of h
    import geofrac.chains as chains
    from geofrac.convexity import HFunction

    assert not hasattr(chains, "_by_row")
    spec = chains.chain_spec("thm_ty1")
    chunk = chains._draw_trials(spec, spider(3), 40,
                                np.random.default_rng(1))
    trials = [chunk.objects(i) for i in range(len(chunk.params))]
    shifts = [1.0 if k % 2 else p.a ** p.rho + p.b ** p.rho
              for k, (f, g, h, p) in enumerate(trials)]
    want = [chains._OneTrial(on_geodesic(f, g), params=p)
            .operators([s])[0] for (f, g, h, p), s in zip(trials, shifts)]
    assert chunk.operators(shifts) == want

    assert ({h.name.partition("(")[0] for f, g, h, p in trials}
            == {"identity", "constant_one", "power"})
    want = [compute_E(h, p.alpha, p.rho, p.a, p.b).hex()
            for f, g, h, p in trials]

    def no_call(*args):
        raise AssertionError("an HFunction ran")

    monkeypatch.setattr(HFunction, "__call__", no_call)
    assert [v.hex() for v in chunk.e_values()] == want


def test_drawn_h_is_dominating():
    # corollary_distance checks h(t) >= t at its public entry only: the
    # falsifier relies on every h it draws passing that check
    import geofrac.chains as chains

    kinds, ks = chains._draw_hs(1000, np.random.default_rng(0))
    assert set(kinds) == set(chains._H_DOMINATING)
    for kind, k in zip(kinds, ks):
        name = "power(%r)" % float(k) if kind == "power" else str(kind)
        chains._require_dominating_h(h_function(name))


@pytest.mark.parametrize("space", BATCH_SPACES, ids=lambda s: s.name)
def test_drawn_trials_keep_the_draw_invariants(space):
    # every drawn instance is admissible: length >= 0.05, alpha q > 1.05,
    # a dominating h (the geodesics' bits: test_spaces); the drawn
    # columns are read-only
    import geofrac.chains as chains

    rng = np.random.default_rng(5)
    for chain in ("thm_cb1", "corollary_distance"):
        spec = chains.chain_spec(chain)
        chunk = chains._draw_trials(spec, space, 256, rng)
        assert len(chunk.params) == 256
        for i in range(256):
            f, g, h, p = chunk.objects(i)
            chains._require_dominating_h(h)
            if spec.two_geodesics:
                assert f is None and min(x.length for x in g) >= 0.05
            else:
                assert g.length >= 0.05
                assert p.alpha * p.q > 1.05
        for leaf in _leaves((chunk.ys, chunk.geodesics)):
            assert not leaf.flags.writeable


def _leaves(batch):
    # the arrays of a (nested) tuple of batches, None skipped
    if isinstance(batch, tuple):
        return [leaf for item in batch for leaf in _leaves(item)]
    return [] if batch is None else [batch]


def test_q_rows_alone_are_redrawn():
    # thm_cb1's rows 0-2 are drawn with alpha q = 0.45 <= 1.05: alpha and
    # q are redrawn for those three rows alone
    import geofrac.chains as chains

    class Scripted:
        def __init__(self):
            self.rng, self.draws = np.random.default_rng(3), []

        def uniform(self, low, high, size=None):
            out = self.rng.uniform(low, high, size)
            if len(self.draws) in (0, 4):
                # alpha, then q
                out[:3] = 0.3 if not self.draws else 1.5
            self.draws.append(out.copy())
            return out

    rng = Scripted()
    params = chains._draw_params(chains.chain_spec("thm_cb1"), 16, rng)
    alpha, q = rng.draws[0], rng.draws[4]
    assert [d.size for d in rng.draws[5:7]] == [3, 3]
    assert all(d.size <= 3 for d in rng.draws[5:])
    # the params' columns are alpha, rho, a, b and q
    assert params[3:, 0].tolist() == alpha[3:].tolist()
    assert params[3:, 4].tolist() == q[3:].tolist()
    assert all(params[:, 0] * params[:, 4] > 1.05)
    assert all(params[:3, 0] != 0.3)


@pytest.mark.parametrize("chain", ["thm_ty1", "corollary_distance"])
def test_a_chunk_makes_a_fixed_number_of_batch_calls(monkeypatch, chain):
    # the geometry of a chunk takes a fixed number of _sample, _dist and
    # _ends calls, plus two samples and a _dist per redraw round,
    # whatever its size; the falsifier makes no per-trial random point or
    # geodesic
    import geofrac.chains as chains
    import geofrac.spaces as spaces

    def no_call(*args, **kwargs):
        raise AssertionError("per-trial draw")

    monkeypatch.setattr(spaces, "random_point", no_call)
    monkeypatch.setattr(spaces, "random_geodesic", no_call)
    monkeypatch.setattr(spaces.Space, "random_point", no_call)
    assert falsify_search(chain, euclidean(2), 70, seed=1)["evaluated"] == 70

    # a draw runs no convexity check: falsify_search runs the worst
    # row's
    monkeypatch.setattr(chains, "check_h_convex", no_call)
    spec = chains.chain_spec(chain)
    geodesics = 2 if spec.two_geodesics else 1
    for m in (8, 64, 512):
        space, calls = euclidean(2), {"_sample": [], "_dist": [],
                                      "_ends": []}
        for name, args in calls.items():
            def counted(*a, _fn=getattr(space, name), _args=args):
                _args.append(a)
                return _fn(*a)
            monkeypatch.setattr(space, name, counted)
        assert len(chains._draw_trials(spec, space, m,
                                       np.random.default_rng(m)).params) == m
        # the euclidean _ends takes its distances from _dist: a
        # geodesic batch makes one _dist for its redraw test and one
        # with its endpoint constants
        rounds = len(calls["_dist"]) - 2 * geodesics
        assert len(calls["_ends"]) == geodesics
        ys = 0 if spec.two_geodesics else 1
        assert len(calls["_sample"]) == ys + 2 * (geodesics + rounds)
        assert rounds <= 2 and calls["_sample"][0][0] == m


@pytest.mark.parametrize("trials", [5, 70, 130])
def test_corollary_builds_only_the_worst_rows_objects(monkeypatch, trials):
    # a chunk stays columns: the corollary's falsifier, which runs no
    # check_h_convex, builds the two Geodesics and four Points of its
    # worst row alone, whatever the trial count
    from geofrac.spaces import Point

    made = {Point: 0, Geodesic: 0}
    for cls in made:
        def counted(self, *args, _cls=cls, _fn=cls._hold):
            made[_cls] += 1
            return _fn(self, *args)
        monkeypatch.setattr(cls, "_hold", counted)
    summary = falsify_search("corollary_distance", spider(3), trials, seed=1)
    assert summary["evaluated"] == trials
    assert made == {Point: 4, Geodesic: 2}


@pytest.mark.parametrize("chain, a_zero", [
    ("thm_cb2", False), ("h_hh", False), ("thm_ty1", True),
    ("corollary_distance", True)])
def test_failed_rows_match_the_per_trial_oracle(monkeypatch, chain, a_zero):
    # every trial draws h = 1/t (godunova_levin): the constants of h of
    # thm_cb2 and h_hh diverge (a Beta argument <= 0), and with a = 0 the
    # E integral of thm_ty1 and the corollary reaches h(0) and fails in
    # the quadrature engine.  Each row carries its AccuracyError, which
    # the public chain raises, and counts as a quadrature failure

    import geofrac.chains as chains

    monkeypatch.setattr(chains, "_draw_hs", lambda m, rng: (
        np.full(m, "godunova_levin"), np.full(m, -1.0)))
    if a_zero:
        draw = chains._draw_params

        def zero_a(spec, m, rng):
            params = draw(spec, m, rng)
            params[:, 2] = 0.0
            return params

        monkeypatch.setattr(chains, "_draw_params", zero_a)
    spec = chains.chain_spec(chain)
    space = euclidean(2)
    chunk = chains._draw_trials(spec, space, 3, np.random.default_rng(1))
    rows = spec.rows(chunk)
    for i, got in enumerate(rows):
        assert isinstance(got, AccuracyError)
        with pytest.raises(AccuracyError) as want:
            spec.evaluate(*chunk.objects(i))
        assert str(got) == str(want.value)
    summary = falsify_search(chain, space, 20, seed=1)
    assert summary["evaluated"] == 0
    assert summary["quadrature_failures"] == 20 - summary["discarded"] > 0
    assert summary == _per_trial_search(chain, space, 20, 1)
