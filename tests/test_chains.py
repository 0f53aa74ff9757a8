"""Inequality chains against analytic values and randomized instances."""

import math

import numpy as np
import pytest

from geofrac.chains import (CHAIN_NAMES, CompositeOperand, InequalityReport,
                            TheoremParams, classic_hh, compute_C,
                            compute_C_oracle, compute_E, conde_hh,
                            corollary_distance, falsify_search, h_hh,
                            thm_cb1, thm_cb2, thm_ty1)
from geofrac.convexity import (distance_between_geodesics_function,
                               h_function, on_geodesic, scalar_pullback,
                               squared_distance_function)
from geofrac.errors import AccuracyError, DomainError, SpaceMismatchError
from geofrac.quadrature import integrate
from geofrac.spaces import (Geodesic, distance, euclidean, half_plane,
                            random_geodesic, spider)


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


def test_composite_operand_powers():
    op = CompositeOperand(lambda t: t * t, 2.0)
    x = np.array([0.3, 0.9])
    assert np.allclose(op(x), x ** 4)
    # out-of-range parameters are clipped into [0, 1]
    assert op(np.array([1.0 + 1e-12]))[0] == pytest.approx(1.0)
    with pytest.raises(DomainError):
        CompositeOperand(lambda t: t, 0.0)


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
        out = CompositeOperand(pullback, 1.0)(x)
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


def test_cb1_holder_step_bound():
    # alpha rho Int t^(a r - 1) h(t^r) dt <= alpha ((q-1)/(alpha q-1))^((q-1)/q) ||h||_q
    from geofrac.chains import _exact_h_term
    from geofrac.fractional import lq_norm_unit
    hf = h_function("identity")
    exact = _exact_h_term(hf, UNIT_PARAMS)
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
        got = _exact_h_term(h_function(name), p)
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


def test_compute_e_quadratic_scaling():
    base = compute_E("identity", 0.75, 1.5, 0.2, 0.8)
    scaled = compute_E(lambda t: 3.0 * t, 0.75, 1.5, 0.2, 0.8)
    assert scaled == pytest.approx(9.0 * base, rel=1e-9)


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


def test_falsify_negative_seed_is_a_domain_error():
    with pytest.raises(DomainError, match="seed"):
        falsify_search("classic_hh", euclidean(2), 1, seed=-1)


def test_falsify_is_deterministic():
    a = falsify_search("thm_ty1", euclidean(2), 10, seed=7)
    b = falsify_search("thm_ty1", euclidean(2), 10, seed=7)
    assert a == b


def test_chain_table_reaches_chains_by_module_name(monkeypatch):
    # the table must call a rebound name (as an outside tracer does), not
    # a function object captured at import
    import geofrac.chains as chains

    calls = []
    for name in CHAIN_NAMES:
        def counted(*args, _fn=getattr(chains, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(chains, name, counted)
    for name in CHAIN_NAMES:
        falsify_search(name, euclidean(2), 3, seed=1)
    assert sorted(set(calls)) == sorted(CHAIN_NAMES)


def test_chain_table_flags():
    from geofrac.chains import CHAINS

    assert CHAIN_NAMES == tuple(CHAINS)
    assert [c for c in CHAIN_NAMES if CHAINS[c].needs_q] == ["thm_cb1"]
    assert [c for c in CHAIN_NAMES if not CHAINS[c].takes_h] == [
        "classic_hh", "conde_hh"]
    assert [c for c in CHAIN_NAMES if CHAINS[c].two_geodesics] == [
        "corollary_distance"]
