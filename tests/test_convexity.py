"""Convexity checkers against functions with known behavior."""

import math

import numpy as np
import pytest

from geofrac.convexity import (ConvexityVerdict, H_CATALOG, HFunction,
                               check_convex, check_h_convex,
                               check_quasi_or_p_convex,
                               distance_between_geodesics_function,
                               h_function, on_geodesic, scalar_pullback,
                               squared_distance_function)
from geofrac.errors import DomainError, SpaceMismatchError
from geofrac.quadrature import pointwise
from geofrac.spaces import (Geodesic, distance, euclidean, half_plane,
                            product, random_geodesic, random_point, spider)

ALL_SPACES = [euclidean(2), half_plane(), spider(3),
              product(euclidean(2), half_plane())]


# ---------------------------------------------------------------------------
# h catalog
# ---------------------------------------------------------------------------


def test_h_function_parsing():
    # the named members are t**k and keep the bits of t, 1 and 1 / t
    t = np.concatenate(([0.0, 5e-324, 0.25, 1.0, np.inf, np.nan],
                        np.random.default_rng(3).uniform(0.0, 1.0, 1000)))
    with np.errstate(divide="ignore", over="ignore"):
        for name, want in (("identity", t), ("constant_one", np.ones_like(t)),
                           ("godunova_levin", 1.0 / t)):
            assert np.array_equal(h_function(name)(t), want, equal_nan=True)
    assert h_function("godunova_levin")(0.25) == 4.0
    assert h_function("power(0.5)")(0.25) == pytest.approx(0.5)
    assert h_function("power( 2 )").name == "power(2)"
    hf = h_function("power(0.5)")
    assert h_function(hf) is hf
    wrapped = h_function(lambda t: t * t)
    assert wrapped(np.array([0.5]))[0] == pytest.approx(0.25)


def test_h_function_rejects_unknown():
    with pytest.raises(DomainError):
        h_function("sigmoid")
    with pytest.raises(DomainError):
        h_function("power(abc)")
    with pytest.raises(DomainError):
        h_function("power(inf)")
    assert "power(k)" in H_CATALOG


def test_power_h_name_round_trips():
    rng = np.random.default_rng(7)
    ks = np.concatenate((rng.uniform(0.0, 3.0, 50),
                         rng.uniform(-1e6, 1e6, 5), [2.0, 1e-7, 1e22]))
    for k in map(float, ks):
        name = h_function("power(%r)" % k).name
        assert float(name[6:-1]) == k
        assert h_function(name).name == name
    assert h_function("power(2.0)").name == "power(2)"


def test_godunova_levin_is_infinite_at_zero():
    h = h_function("godunova_levin")
    vals = h(np.array([0.0, 0.5]))
    assert np.isinf(vals[0]) and vals[1] == 2.0


# ---------------------------------------------------------------------------
# power-function truth grid on the unit segment
# ---------------------------------------------------------------------------


def _power_holds(r: float, k: float) -> bool:
    # t**r is power(k)-convex on (0, 1] when the convexity survives the
    # weakened weights: true for convex t**r (r outside (0, 1)) with k <= 1,
    # and for concave t**r exactly when k <= r
    if 0.0 < r < 1.0:
        return k <= r
    return k <= 1.0


@pytest.mark.parametrize("r", [-1.0, 0.25, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("k", [0.25, 0.5, 1.0])
def test_power_family_h_convexity_grid(r, k):
    lo = 1e-6 if r < 0 else 0.0
    f, g = scalar_pullback(lambda t: np.power(t, r), lo=lo, hi=1.0)
    verdict = check_h_convex(f, g, "power(%g)" % k)
    assert verdict.holds == _power_holds(r, k)
    if not verdict.holds:
        assert verdict.worst_slack < -1e-6
        assert verdict.witness is not None


def test_failed_check_witness_is_reproducible():
    f, g = scalar_pullback(np.sqrt)
    verdict = check_convex(f, g)
    assert not verdict.holds
    t1, t2, lam = verdict.witness
    mid = (1.0 - lam) * t1 + lam * t2
    slack = ((1.0 - lam) * math.sqrt(t1) + lam * math.sqrt(t2)
             - math.sqrt(mid))
    assert slack == pytest.approx(verdict.worst_slack, abs=1e-12)


def test_convex_quadratics_are_h_convex_for_dominating_h():
    # h(t) >= t on [0, 1] keeps every nonnegative convex function h-convex
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.uniform(0.1, 3.0)
        b = rng.uniform(-2.0, 2.0)
        c = abs(b) + rng.uniform(0.0, 1.0)
        f, g = scalar_pullback(lambda t, a=a, b=b, c=c: a * t * t + b * t + c)
        for name in ("identity", "constant_one", "power(0.5)",
                     "godunova_levin"):
            assert check_h_convex(f, g, name).holds, name


def test_godunova_levin_masks_endpoint_columns():
    f, g = scalar_pullback(lambda t: t * t)
    verdict = check_h_convex(f, g, "godunova_levin", samples=64, pairs=8)
    # both endpoint columns of the lambda grid hit an infinite h value
    assert verdict.samples == 9 * 64


def test_identity_verdict_counts_full_grid():
    # a NaN value of f fails the check: it is not a vacuous sample
    for fn, holds in ((lambda t: t, True),
                      (lambda t: np.full_like(t, np.nan), False)):
        f, g = scalar_pullback(fn)
        for verdict in (check_convex(f, g, samples=16, pairs=2),
                        check_h_convex(f, g, samples=16, pairs=2),
                        check_quasi_or_p_convex(f, g, samples=16, pairs=2)):
            assert verdict.holds == holds
            assert verdict.samples == 3 * 18


def test_an_infinite_end_value_makes_its_restriction_vacuous():
    # F(0) = +inf: every bound of the whole-segment restriction reads it
    # and is not finite, so all its samples are vacuous, in every mode
    f, g = scalar_pullback(lambda t: np.where(t == 0.0, np.inf, t * t))
    for verdict in (check_h_convex(f, g, samples=16, pairs=2),
                    check_quasi_or_p_convex(f, g, samples=16, pairs=2)):
        assert verdict.holds
        assert verdict.samples == 2 * 18


# ---------------------------------------------------------------------------
# quasi and p modes
# ---------------------------------------------------------------------------


def test_sqrt_is_quasiconvex_but_not_convex():
    f, g = scalar_pullback(np.sqrt)
    assert not check_convex(f, g).holds
    assert check_quasi_or_p_convex(f, g, "quasi").holds


def test_concave_bump_fails_quasiconvexity():
    # F(lam) = +inf under the finite bound of the whole segment fails
    for bump in (lambda t: t * (1.0 - t),
                 lambda t: np.where(np.abs(t - 0.5) < 0.2, np.inf, 0.0)):
        f, g = scalar_pullback(bump)
        for verdict in (check_quasi_or_p_convex(f, g, "quasi"),
                        check_convex(f, g)):
            assert not verdict.holds
            assert verdict.worst_slack < -0.1


def test_p_convexity_of_roots():
    f, g = scalar_pullback(np.sqrt)
    assert check_quasi_or_p_convex(f, g, "p", p=2.0).holds
    f3, g3 = scalar_pullback(lambda t: np.power(t, 1.0 / 3.0))
    assert check_quasi_or_p_convex(f3, g3, "p", p=3.0).holds


def test_p_mode_rejects_negative_values():
    f, g = scalar_pullback(lambda t: t - 0.5)
    with pytest.raises(DomainError):
        check_quasi_or_p_convex(f, g, "p", p=2.0)


def test_mode_and_p_validation():
    f, g = scalar_pullback(lambda t: t)
    with pytest.raises(DomainError):
        check_quasi_or_p_convex(f, g, "strange")
    with pytest.raises(DomainError):
        check_quasi_or_p_convex(f, g, "p", p=-1.0)


# ---------------------------------------------------------------------------
# space functions
# ---------------------------------------------------------------------------


def test_squared_distance_is_convex_in_every_space():
    for space in ALL_SPACES:
        rng = np.random.default_rng(8)
        y = random_point(space, rng)
        for k in (1.0, 2.0):
            f = squared_distance_function(space, y, k)
            for _ in range(5):
                g = random_geodesic(space, rng, min_length=1e-2)
                verdict = check_convex(f, g)
                assert verdict.holds, (space.name, k, verdict)


def test_squared_distance_values():
    e2 = euclidean(2)
    f = squared_distance_function(e2, e2.point(0.0, 0.0))
    batch = np.array([[3.0, 4.0], [1.0, 0.0]])
    assert np.allclose(f(batch), [25.0, 1.0])
    with pytest.raises(DomainError):
        squared_distance_function(e2, e2.point(0.0, 0.0), k=0.5)
    with pytest.raises(SpaceMismatchError):
        squared_distance_function(e2, half_plane().point(0.0, 1.0))


def test_distance_between_geodesics_is_convex():
    for space in ALL_SPACES:
        rng = np.random.default_rng(19)
        g1 = random_geodesic(space, rng, min_length=1e-2)
        g2 = random_geodesic(space, rng, min_length=1e-2)
        fn = distance_between_geodesics_function(g1, g2)
        f, seg = scalar_pullback(fn)
        assert check_convex(f, seg).holds, space.name


def test_distance_between_geodesics_values():
    e2 = euclidean(2)
    g1 = Geodesic(e2.point(0.0, 0.0), e2.point(1.0, 0.0))
    g2 = Geodesic(e2.point(0.0, 1.0), e2.point(1.0, 2.0))
    fn = distance_between_geodesics_function(g1, g2)
    ts = np.array([0.0, 0.5, 1.0])
    assert np.allclose(fn(ts), [1.0, 2.25, 4.0])
    with pytest.raises(SpaceMismatchError):
        distance_between_geodesics_function(
            g1, Geodesic(half_plane().point(0, 1), half_plane().point(0, 2)))


def test_on_geodesic_pullback_matches_direct_values():
    e2 = euclidean(2)
    g = Geodesic(e2.point(0.0, 0.0), e2.point(2.0, 0.0))
    f = squared_distance_function(e2, e2.point(0.0, 0.0))
    fn = on_geodesic(f, g)
    ts = np.array([0.0, 0.25, 1.0])
    assert np.allclose(fn(ts), (2.0 * ts) ** 2)


def test_per_point_function_pulls_back_through_pointwise():
    e2 = euclidean(2)
    g = Geodesic(e2.point(0.0, 0.0), e2.point(1.0, 0.0))
    fn = pointwise(lambda t: float(g.eval(t).coords[0]))
    ts = np.array([0.1, 0.4, 0.9])
    assert np.allclose(fn(ts), ts)
    # a function of one Point is not a space function
    with pytest.raises(AttributeError):
        on_geodesic(lambda pt: float(pt.coords[0]), g)(ts)
    y = e2.point(0.3, 1.0)
    per_point = pointwise(lambda t: distance(g.eval(t), y) ** 2)
    verdict = check_convex(*scalar_pullback(per_point))
    assert verdict.holds
    batch = check_convex(squared_distance_function(e2, y), g)
    assert verdict.worst_slack == pytest.approx(batch.worst_slack, abs=1e-12)


def test_space_function_errors_propagate():
    e2 = euclidean(2)
    g = Geodesic(e2.point(0.0, 0.0), e2.point(1.0, 1.0))
    with pytest.raises(IndexError):
        check_convex(lambda b: b[:, 2] ** 2, g)
    with pytest.raises(IndexError):
        on_geodesic(lambda b: b[:, 2] ** 2, g)(np.array([0.5]))
    with pytest.raises(DomainError, match="pointwise"):
        check_convex(lambda b: b ** 2, g)
    with pytest.raises(DomainError, match="pointwise"):
        on_geodesic(lambda b: 1.0, g)(np.array([0.25, 0.5]))


def test_check_is_deterministic_per_seed():
    hp = half_plane()
    rng = np.random.default_rng(2)
    y = random_point(hp, rng)
    f = squared_distance_function(hp, y)
    g = random_geodesic(hp, rng, min_length=0.1)
    v1 = check_convex(f, g, seed=13)
    v2 = check_convex(f, g, seed=13)
    assert v1 == v2
    assert isinstance(v1, ConvexityVerdict)


def test_scalar_pullback_validation():
    with pytest.raises(DomainError):
        scalar_pullback(lambda t: t, lo=1.0, hi=1.0)
    with pytest.raises(DomainError):
        scalar_pullback(lambda t: t, lo=math.inf, hi=1.0)


def test_precheck_grid_is_cached_read_only_and_unchanged():
    # the restriction grid depends on (samples, pairs, seed) alone
    from geofrac.convexity import _restriction_grid, _restriction_values
    grid = _restriction_grid(64, 8, 0)
    assert _restriction_grid(64, 8, 0) is grid
    for cached, fresh in zip(grid, _restriction_grid.__wrapped__(64, 8, 0)):
        assert not cached.flags.writeable
        assert np.array_equal(cached, fresh)
    # the seed is a key, a whole number: a whole float and a numpy
    # integer take the int's grid, and a generator, None or a
    # SeedSequence raises instead of drawing a grid of its own
    e2 = euclidean(2)
    f = squared_distance_function(e2, e2.point(0.3, -0.2))
    g = Geodesic(e2.point(-1.0, 0.5), e2.point(1.0, 1.5))
    first = _restriction_values(f, g, 64, 8, 5, 1e-9)[0]
    for seed in (5.0, np.int64(5)):
        assert _restriction_values(f, g, 64, 8, seed, 1e-9)[0] is first
    for seed in (np.random.default_rng(5), None, np.random.SeedSequence(5)):
        with pytest.raises(DomainError, match="seed"):
            _restriction_values(f, g, 64, 8, seed, 1e-9)


@pytest.mark.parametrize("bad", [
    {"samples": 2.5}, {"samples": 0}, {"samples": "64"}, {"pairs": 1.5},
    {"pairs": -1}, {"pairs": None}, {"seed": -1}, {"seed": 0.5},
    {"seed": math.inf}, {"tol": math.nan}, {"tol": -1e-9},
    {"tol": math.inf}], ids=lambda bad: "%s=%r" % next(iter(bad.items())))
def test_checks_refuse_bad_arguments(bad):
    # every check refuses a samples, pairs or seed that is not a whole
    # number in range and a tol that is not finite and >= 0 with a
    # DomainError naming it, before f is called; tol = nan used to fail
    # every check with worst_slack 0.0
    calls = []
    f, g = scalar_pullback(lambda t: calls.append(t) or t * t)
    name = next(iter(bad))
    for check in (check_h_convex, check_convex, check_quasi_or_p_convex):
        with pytest.raises(DomainError, match=name):
            check(f, g, **bad)
    assert not calls
    # the edges of the ranges are valid
    for check in (check_h_convex, check_convex, check_quasi_or_p_convex):
        assert check(f, g, samples=1.0, pairs=0, seed=np.int64(0),
                     tol=0.0).holds


def _marked(*marks):
    # F = 0 along [0, 1], plus each mark's value at its parameter
    def fn(t):
        values = np.zeros(np.shape(t))
        for at, value in marks:
            values[t == at] += value
        return values

    return scalar_pullback(fn)


def test_check_keeps_the_tolerance_and_the_first_witness():
    # F raised by 1 at two samples, whose witness is the first of the two
    # least slacks, and by 5e-10 at one sample, which holds within tol
    # 1e-9
    from geofrac.convexity import _restriction_grid

    t1, t2, lam, params = _restriction_grid(64, 8, 0)
    low = check_h_convex(*_marked((params[2, 10], 1.0), (params[5, 20], 1.0)),
                         tol=1e-9, seed=0)
    assert (low.holds, low.worst_slack) == (False, -1.0)
    assert low.witness == (t1[2], t2[2], lam[10])
    near = check_h_convex(*_marked((params[1, 30], 5e-10)), tol=1e-9, seed=0)
    assert near.holds and near.worst_slack == -5e-10


def test_nan_and_infinite_values_of_f_fail():
    # a NaN value of F is the least slack, and F = +inf under a finite
    # bound a slack of -inf; a NaN end value makes every bound of its
    # restriction NaN, and those samples fail instead of being vacuous
    from geofrac.convexity import _restriction_grid

    t1, t2, lam, params = _restriction_grid(64, 8, 0)
    inner = check_h_convex(*_marked((params[2, 10], np.nan)), seed=0)
    assert not inner.holds and math.isnan(inner.worst_slack)
    assert inner.witness == (t1[2], t2[2], lam[10])
    high = check_h_convex(*_marked((params[4, 30], np.inf)), seed=0)
    assert (high.holds, high.worst_slack) == (False, -math.inf)
    assert high.witness == (t1[4], t2[4], lam[30])
    end = check_h_convex(*_marked((params[0, -1], np.nan)), seed=0)
    assert not end.holds and end.samples == 9 * 66
