"""Geometry layer: spaces, geodesics, comparison gaps."""

import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geofrac.convexity import on_geodesic, squared_distance_function
from geofrac.errors import DomainError, SpaceMismatchError
from geofrac.spaces import (busemann_gap, busemann_gap_batch, cn_gap,
                            cn_gap_batch, comparison_gap,
                            comparison_gap_batch, distance, euclidean,
                            four_point_gap, four_point_gap_batch,
                            geodesic_point, geodesic_restrict, Geodesic,
                            half_plane, HalfPlaneSpace, Point, product,
                            ProductSpace, random_geodesic, random_point,
                            sample_points, spider, SpiderSpace, sturm_gap,
                            sturm_gap_batch, _point_of_row, _put_rows,
                            _random_ends, _row_floats, _row_geodesic,
                            _take_rows)

E2 = euclidean(2)
H = half_plane()
S3 = spider(3)
PROD = product(euclidean(2), half_plane())
ALL_SPACES = [E2, H, S3, PROD]


def _prod_point(xy, hp):
    return PROD.point((xy, hp))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_euclidean_distance_is_exact():
    assert distance(E2.point(0.0, 0.0), E2.point(3.0, 4.0)) == 5.0


def test_half_plane_vertical_distance_is_log_ratio():
    d = distance(H.point(0.0, 1.0), H.point(0.0, 2.0))
    assert d == pytest.approx(math.log(2.0), rel=1e-14)


def test_half_plane_symmetric_arc_distance():
    # endpoints (-1, 1), (1, 1) lie on the circle x^2 + y^2 = 2
    d = distance(H.point(-1.0, 1.0), H.point(1.0, 1.0))
    assert d == pytest.approx(math.acosh(3.0), rel=1e-14)


def test_half_plane_distance_keeps_close_pairs():
    # arccosh(1 + delta) rounds separations below about 1e-8 to 0
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    for sep in np.logspace(-12.0, 0.0, 25):
        x1, y1 = rng.normal(), 1.0 + rng.lognormal(0.0, 0.5)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        x2, y2 = x1 + sep * math.cos(theta), y1 + sep * math.sin(theta)
        got = distance(H.point(x1, y1), H.point(x2, y2))
        with mp.workdps(50):
            X1, Y1, X2, Y2 = (mp.mpf(v) for v in (x1, y1, x2, y2))
            exact = mp.acosh(1 + ((X1 - X2) ** 2 + (Y1 - Y2) ** 2)
                             / (2 * Y1 * Y2))
            assert abs(got - exact) <= 1e-14 * exact, sep


# the first pass of such a batch under- or overflows before the rows are
# rescaled
@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
def test_half_plane_works_far_from_unit_height():
    # valid points whose y1 y2 or |z1 - z2|^2 leaves the double range
    p = H.point(0.0, 1e-200)
    assert distance(p, p) == 0.0
    assert distance(p, H.point(1e-200, 1e-200)) == pytest.approx(
        2.0 * math.asinh(0.5), rel=1e-14)
    assert distance(H.point(0.0, 1.0), H.point(0.0, 1e300)) == pytest.approx(
        300.0 * math.log(10.0), rel=1e-14)
    # rows whose x overflows once rescaled to y1 y2 near 1 are translated
    # to the midpoint of x1 and x2 first
    far = H.point(-2.5e183, 2.7e-296)
    assert distance(far, far) == 0.0
    assert distance(H.point(1e300, 1e-300), H.point(1e300, 2e-300)) == (
        pytest.approx(math.log(2.0), rel=1e-14))
    # the metric is invariant under z -> lam z
    unit = distance(H.point(0.0, 1.0), H.point(0.3, 1.7))
    for lam in (1e-300, 1e-200, 1e160, 1e300):
        got = distance(H.point(0.0, lam), H.point(0.3 * lam, 1.7 * lam))
        assert got == pytest.approx(unit, rel=1e-14), lam
    # a batch against one reference point broadcasts, also when rescaled
    g, y = (Geodesic(H.point(0.0, 1e-200), H.point(1e-200, 1e-200)),
            H.point(0.0, 2e-200))
    g1, y1 = Geodesic(H.point(0.0, 1.0), H.point(1.0, 1.0)), H.point(0.0, 2.0)
    ts = np.linspace(0.0, 1.0, 5)
    got = on_geodesic(squared_distance_function(H, y), g)(ts)
    want = on_geodesic(squared_distance_function(H, y1), g1)(ts)
    assert np.all(got == pytest.approx(want, rel=1e-13))
    # the geodesic weights 1/(y sinh d) underflow: the error says so and
    # does not blame the input points
    with pytest.raises(DomainError, match="double-precision range"):
        Geodesic(H.point(0.0, 1e-200), H.point(0.0, 1e120))


@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
def test_half_plane_distance_beyond_709():
    # |z1 - z2|^2 / (4 y1 y2) overflows for pairs farther apart than about
    # 709, even after the rows are rescaled to y1 y2 near 1
    mp = pytest.importorskip("mpmath")
    pairs = [((0.0, 1e-200), (0.0, 1e120)), ((0.0, 1.0), (1e200, 1.0)),
             ((-1e150, 1e-150), (1e150, 1e-150)),
             ((0.0, 1e-300), (0.0, 1e300)), ((3.0, 2.0), (-1e300, 5.0)),
             # x or y rescaled to y1 y2 near 1 overflows
             ((-1e300, 5.0), (0.0, 1e-300)), ((0.0, 1e-300), (-1e300, 5.0)),
             ((0.0, 1e308), (0.0, 5e-324)), ((0.0, 5e-324), (0.0, 1e308)),
             # x1 - x2, or the hypot of the rescaled gaps, overflows
             ((1e308, 0.5), (-1e308, 0.5)), ((-1e308, 0.5), (1e308, 0.5)),
             ((1.5e298, 1e-10), (-1.5e298, 1e-10)),
             ((-1.5e298, 1e-10), (1.5e298, 1e-10)),
             ((8e307, 1e308), (-8e307, 1e-308)),
             ((-8e307, 1e-308), (8e307, 1e308)),
             ((1.7e308, 1e308), (0.0, 1e-308)),
             ((0.0, 1e-308), (1.7e308, 1e308))]
    for (x1, y1), (x2, y2) in pairs:
        got = distance(H.point(x1, y1), H.point(x2, y2))
        with mp.workdps(50):
            X1, Y1, X2, Y2 = (mp.mpf(v) for v in (x1, y1, x2, y2))
            exact = 2 * mp.asinh(mp.sqrt((X1 - X2) ** 2 + (Y1 - Y2) ** 2)
                                 / (2 * mp.sqrt(Y1 * Y2)))
            assert exact > 709
            assert abs(got - exact) <= 1e-14 * exact, (x1, y1, x2, y2)


# the first pass over such a pair under- or overflows before the row is
# rescaled
@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
def test_half_plane_distance_rescales_out_of_range_denominator():
    # 4 y1 y2 is subnormal or overflows while |z1 - z2|^2 / (4 y1 y2) stays
    # finite; the unrescaled formula reads 0.0, 0.0 and 0.576126 here
    mp = pytest.importorskip("mpmath")
    pairs = [((0.0, 1e-162), (1e-162, 1e-162)),
             ((0.0, 1e160), (1e150, 1e160)),
             ((0.0, 1e-160), (0.3e-160, 1.7e-160))]
    normal = (H.point(0.3, 1.2), H.point(-1.1, 0.7))
    for (x1, y1), (x2, y2) in pairs:
        got = distance(H.point(x1, y1), H.point(x2, y2))
        with mp.workdps(40):
            X1, Y1, X2, Y2 = (mp.mpf(v) for v in (x1, y1, x2, y2))
            exact = 2 * mp.asinh(mp.sqrt((X1 - X2) ** 2 + (Y1 - Y2) ** 2)
                                 / (2 * mp.sqrt(Y1 * Y2)))
        assert abs(got - exact) <= 1e-14 * exact, (x1, y1, x2, y2)
        # in a batch the pair is rescaled alone: a normal row keeps the
        # bits of its own one-row call
        both = H._dist(H._stack([(x1, y1), normal[0].coords]),
                       H._stack([(x2, y2), normal[1].coords]))
        assert both[0] == got
        assert both[1] == distance(*normal)


def test_half_plane_distance_keeps_underflowing_pairs():
    # distinct points whose |z1 - z2|^2, or its ratio to 4 y1 y2, is
    # subnormal or 0: the unrescaled formula reads 0.0, 0.0, a value
    # 5.6e-6 off, 0.0 and 0.0 here (the last pair is one ulp apart)
    mp = pytest.importorskip("mpmath")
    pairs = [((0.0, 1.0), (1e-170, 1.0)),
             ((0.0, 1e-150), (1e-163, 1e-150)),
             ((0.0, 1e-150), (1e-160, 1e-150)),
             ((0.0, 1e100), (1e-100, 1e100)),
             ((2.0, 1e-154), (2.0, math.nextafter(1e-154, 1.0)))]
    normal = (H.point(0.3, 1.2), H.point(-1.1, 0.7))
    for (x1, y1), (x2, y2) in pairs:
        got = distance(H.point(x1, y1), H.point(x2, y2))
        with mp.workdps(40):
            X1, Y1, X2, Y2 = (mp.mpf(v) for v in (x1, y1, x2, y2))
            exact = 2 * mp.asinh(mp.sqrt((X1 - X2) ** 2 + (Y1 - Y2) ** 2)
                                 / (2 * mp.sqrt(Y1 * Y2)))
        assert exact > 0
        assert abs(got - exact) <= 1e-15 * exact, (x1, y1, x2, y2)
        # in a batch the pair is rescaled alone, and identical points
        # stay at 0
        both = H._dist(H._stack([(x1, y1), normal[0].coords, (x1, y1)]),
                       H._stack([(x2, y2), normal[1].coords, (x1, y1)]))
        assert both.tolist() == [got, distance(*normal), 0.0]


def test_identical_half_plane_points_take_the_first_formula(monkeypatch):
    # identical points give 0.0 without the rescaled path, which alone
    # calls np.frexp; so do identical rows of a batch, and the points
    # far from y = 1 whose formula needs no rescaling
    def no_rescale(*args):
        raise AssertionError("rescaled")

    monkeypatch.setattr(np, "frexp", no_rescale)
    for x, y in ((0.3, 1.2), (0.0, 1e-150), (-2.0, 1e150)):
        p = H.point(x, y)
        assert distance(p, p) == 0.0
        assert distance(p, H.point(x, y)) == 0.0
        assert distance(_prod_point((x, y), (x, y)),
                        _prod_point((x, y), (x, y))) == 0.0
    A = H._sample(50, np.random.default_rng(4))
    assert H._dist(A, A.copy()).tolist() == [0.0] * 50
    assert H._dist(A[:1], A[:1]).tolist() == [0.0]


def test_spider_distances():
    assert distance(S3.point(0, 1.0), S3.point(0, 3.0)) == 2.0
    assert distance(S3.point(0, 1.0), S3.point(1, 2.0)) == 3.0
    assert distance(S3.point(2, 0.0), S3.point(1, 2.0)) == 2.0
    # hub is the same point regardless of ray label
    assert distance(S3.point(0, 0.0), S3.point(2, 0.0)) == 0.0


def test_spider_radii_near_the_top_warn_only_where_the_distance_does():
    # two points of one ray at radius 1e308 are close; no stage forms
    # r1 + r2 for them, so none overflows or warns (no filterwarnings
    # mark: a RuntimeWarning fails the test)
    p, q = S3.point(1, 1e308), S3.point(1, 1.5e308)
    assert distance(p, q) == distance(q, p) == 1.5e308 - 1e308
    g = Geodesic(p, q)
    assert g.length == 1.5e308 - 1e308
    mid = g.eval(0.5).coords
    assert mid[0] == 1 and mid[1] == pytest.approx(1.25e308, rel=1e-15)
    assert np.isnan(S3._kinks(g._ends)).all()
    # across the hub the distance r1 + r2 overflows, and that warns
    with pytest.warns(RuntimeWarning, match="overflow encountered"):
        assert distance(p, S3.point(2, 1e308)) == math.inf


def test_product_distance_adds_in_squares():
    p = _prod_point((0.0, 0.0), (0.0, 1.0))
    q = _prod_point((3.0, 4.0), (0.0, 2.0))
    expected = math.hypot(5.0, math.log(2.0))
    assert distance(p, q) == pytest.approx(expected, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.floats(0.0, 5.0), st.integers(0, 2),
       st.floats(0.0, 5.0), st.integers(0, 2), st.floats(0.0, 5.0))
def test_spider_metric_axioms(r1, a, r2, b, r3, c):
    x, y, z = S3.point(r1, a), S3.point(r2, b), S3.point(r3, c)
    dxy = distance(x, y)
    assert dxy == distance(y, x)
    assert dxy >= 0.0
    assert dxy <= distance(x, z) + distance(z, y) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(0.1, 5.0),
       st.floats(-3.0, 3.0), st.floats(0.1, 5.0))
def test_half_plane_metric_symmetry(x1, y1, x2, y2):
    p, q = H.point(x1, y1), H.point(x2, y2)
    assert distance(p, q) == pytest.approx(distance(q, p), abs=1e-13)
    if (x1, y1) != (x2, y2):
        assert distance(p, q) >= 0.0


# ---------------------------------------------------------------------------
# column-wise batch kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_euclidean_dist_is_the_norm_bit_for_bit(n):
    # the squares are added column by column in numpy's own order, so the
    # distances are np.linalg.norm(A - B, axis=-1), bit for bit: on empty,
    # one-row and many-row batches, on a row against a batch, and on
    # coordinates whose squares near 1e308 overflow or near 1e-308 lose
    # digits, spread over many scales so that the order of the sum counts
    space = euclidean(n)
    rng = np.random.default_rng(n)

    def draw(m, scale):
        return (rng.normal(0.0, 1.0, (m, n))
                * np.exp(rng.uniform(-8.0, 8.0, (m, n))) * scale)

    cases = [(draw(0, 1.0), draw(0, 1.0)), (draw(1, 1.0), draw(1, 1.0)),
             (draw(300, 1.0), draw(300, 1.0)), (draw(1, 1.0), draw(300, 1.0)),
             (draw(300, 1.0), draw(1, 1.0)),
             (draw(300, 1e154), draw(300, 1e154)),
             (draw(300, 1e-160), draw(300, 1e-160)),
             (draw(300, 1e-300), draw(300, 1e-300))]
    for A, B in cases:
        with np.errstate(over="ignore"):
            want = np.linalg.norm(A - B, axis=-1)
            got = space._dist(A, B)
        assert _same_bits(got, want)
    if n == 8:
        # one after another, the eight squares would not always give
        # numpy's bits: the pairwise order is needed
        A, B = cases[2]
        d = (A - B) ** 2
        naive = d[:, 0].copy()
        for i in range(1, 8):
            naive += d[:, i]
        assert not _same_bits(np.sqrt(naive),
                              np.linalg.norm(A - B, axis=-1))


def _stacked_sample(m, rng):
    x = rng.normal(0.0, 1.0, m)
    y = rng.lognormal(0.0, 0.5, m)
    return np.stack((x, y), axis=-1)


def _stacked_along(ends, t):
    A, B, d, w1, w2 = ends
    t = np.asarray(t, dtype=float)
    c1 = np.sinh((1.0 - t) * d) * w1
    c2 = np.sinh(t * d) * w2
    y = 1.0 / (c1 + c2)
    out = np.stack(((c1 * A[:, 0] + c2 * B[:, 0]) * y, y), axis=-1)
    for at, P in ((t == 0.0, A), (t == 1.0, B)):
        if np.count_nonzero(at):
            out = np.where(at[..., None], P, out)
    return out


def test_half_plane_kernels_fill_their_columns():
    # _sample and _along fill a C-contiguous (..., 2) array column by
    # column: the np.stack formulas' bits, and _sample draws x, then y,
    # from the same stream
    for m in (0, 1, 200):
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        got, want = H._sample(m, rng), _stacked_sample(m, ref)
        assert got.flags.c_contiguous and _same_bits(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state
    rng = np.random.default_rng(10)
    A, B = H._sample(200, rng), H._sample(200, rng)
    ends, one = H._ends(A, B)[0], H._ends(A[:1], B[:1])[0]
    ts = rng.uniform(0.0, 1.0, 200)
    ts[:3] = 0.0, 1.0, 0.5
    for e, t in ((ends, ts), (ends, 0.3), (ends, 1.0), (one, ts),
                 (one, np.array([0.25])), (one, np.zeros(0))):
        got = H._along(e, t)
        assert got.flags.c_contiguous and _same_bits(
            got, _stacked_along(e, t))


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def test_euclidean_geodesic_is_affine():
    g = Geodesic(E2.point(0.0, 0.0), E2.point(2.0, 4.0))
    assert np.allclose(g.eval(0.25).coords, [0.5, 1.0], atol=1e-15)
    assert g.length == pytest.approx(math.sqrt(20.0), rel=1e-15)


def test_geodesic_endpoints_are_exact():
    geodesics = []
    for space in ALL_SPACES:
        rng = np.random.default_rng(5)
        geodesics += [random_geodesic(space, rng) for _ in range(5)]
    # a spider geodesic from the hub keeps the start's ray label at t = 0,
    # alone and as a product factor
    s3e2 = product(S3, E2)
    geodesics += [Geodesic(S3.point(0, 0.0), S3.point(1, 1.0)),
                  Geodesic(s3e2.point(((0, 0.0), (0.0, 0.0))),
                           s3e2.point(((2, 1.5), (1.0, 0.0))))]
    for g in geodesics:
        space = g.space
        assert g.eval(0.0) is g.start
        assert g.eval(1.0) is g.end
        # pinned, not the roundoff of A + 1 * (B - A) or of the
        # Moebius round trip
        batch = g.eval_batch([0.0, 1.0])
        for i, end in enumerate((g.start, g.end)):
            assert (space._coords_json(space._single(batch, i))
                    == space._coords_json(end.coords)), space.name


def test_half_plane_vertical_midpoint():
    g = Geodesic(H.point(0.0, 1.0), H.point(0.0, 4.0))
    mid = g.eval(0.5)
    assert mid.coords[0] == 0.0
    assert mid.coords[1] == pytest.approx(2.0, rel=1e-14)


def test_half_plane_arc_midpoint_is_circle_apex():
    g = Geodesic(H.point(-1.0, 1.0), H.point(1.0, 1.0))
    mid = g.eval(0.5)
    assert mid.coords[0] == pytest.approx(0.0, abs=1e-14)
    assert mid.coords[1] == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_half_plane_geodesic_traces_orthogonal_circle():
    g = Geodesic(H.point(-1.0, 1.0), H.point(1.0, 1.0))
    xs, ys = g.eval_batch(np.linspace(0.0, 1.0, 33)).T
    assert np.max(np.abs(xs * xs + ys * ys - 2.0)) < 1e-12


def test_near_vertical_pair_uses_stable_branch():
    g = Geodesic(H.point(1e-16, 1.0), H.point(0.0, 2.0))
    mid = g.eval(0.5)
    assert abs(mid.coords[0]) < 1e-15
    assert mid.coords[1] == pytest.approx(math.sqrt(2.0), rel=1e-13)


def _mobius_oracle(mp, x1, y1, x2, y2, t):
    # the geodesic through the Moebius map sending its ideal endpoints to
    # 0 and infinity, where it is the exponential on the imaginary axis
    x1, y1, x2, y2, t = (mp.mpf(v) for v in (x1, y1, x2, y2, t))
    if x1 == x2:
        return x1, y1 * (y2 / y1) ** t
    c = (x2 * x2 + y2 * y2 - x1 * x1 - y1 * y1) / (2 * (x2 - x1))
    r = mp.sqrt((x1 - c) ** 2 + y1 * y1)
    p, q = c - r, c + r
    u1 = ((mp.mpc(x1, y1) - p) / (q - mp.mpc(x1, y1))).imag
    u2 = ((mp.mpc(x2, y2) - p) / (q - mp.mpc(x2, y2))).imag
    w = mp.mpc(0, u1 * (u2 / u1) ** t)
    z = (q * w + p) / (w + 1)
    return z.real, z.imag


def test_half_plane_geodesic_matches_mobius_oracle():
    mp = pytest.importorskip("mpmath")
    pairs = [(0.3, 1.0, 0.3 + dx, 3.0)
             for dx in (0.0, 1e-13, 2e-13, 1e-12, 1e-9, 1e-6, 1e-3)]
    rng = np.random.default_rng(41)
    for _ in range(50):
        pairs.append((rng.normal(), rng.lognormal(0.0, 0.5),
                      rng.normal(), rng.lognormal(0.0, 0.5)))
    ts = np.linspace(0.0, 1.0, 17)
    for x1, y1, x2, y2 in pairs:
        got = Geodesic(H.point(x1, y1), H.point(x2, y2)).eval_batch(ts)
        bound = 1e-14 * max(abs(x1), abs(x2), y1, y2)
        for t, (x, y) in zip(ts, got):
            with mp.workdps(40):
                ox, oy = _mobius_oracle(mp, x1, y1, x2, y2, t)
                assert abs(x - ox) <= bound, (x1, y1, x2, y2, t)
                assert abs(y - oy) <= bound, (x1, y1, x2, y2, t)


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.name)
def test_zero_length_geodesic_stays_at_its_point(space):
    rng = np.random.default_rng(13)
    ts = np.linspace(0.0, 1.0, 9)
    for _ in range(20):
        p = space.random_point(rng)
        g = Geodesic(p, p)
        assert g.length == 0.0
        want = _flat(space._stack([p.coords] * ts.size))
        got = _flat(g.eval_batch(ts))
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)
        for t in ts:
            one = _flat(space._stack([g.eval(t).coords]))
            assert np.allclose(one, want[:1], rtol=1e-15, atol=0.0)


def _flat(batch):
    # a coordinate batch as one float array (rays become floats)
    if isinstance(batch, tuple):
        return np.column_stack([_flat(b) for b in batch])
    return np.asarray(batch, dtype=float).reshape(len(batch), -1)


def test_spider_geodesic_passes_through_hub():
    g = Geodesic(S3.point(0, 1.0), S3.point(1, 2.0))
    ray, rad = g.eval(1.0 / 3.0).coords
    assert rad == pytest.approx(0.0, abs=1e-15)
    ray, rad = g.eval(0.5).coords
    assert (ray, rad) == (1, pytest.approx(0.5, rel=1e-12))


def test_spider_geodesic_from_hub_lies_on_target_ray():
    g = Geodesic(S3.point(2, 0.0), S3.point(1, 2.0))
    ray, rad = g.eval(0.25).coords
    assert ray == 1
    assert rad == pytest.approx(0.5, rel=1e-14)


def test_constant_speed_on_random_geodesics():
    ts = np.linspace(0.0, 1.0, 17)
    for space in ALL_SPACES:
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_geodesic(space, rng, min_length=1e-3)
            pts = [g.eval(t) for t in ts]
            steps = [distance(pts[i], pts[i + 1]) for i in range(16)]
            assert np.allclose(steps, g.length / 16.0, atol=1e-9 * (1 + g.length))


def test_geodesic_point_matches_eval():
    p, q = H.point(0.5, 1.0), H.point(3.0, 0.25)
    g = Geodesic(p, q)
    for t in (0.0, 0.3, 0.75, 1.0):
        a = geodesic_point(p, q, t)
        b = g.eval(t)
        assert distance(a, b) < 1e-13


def test_restrict_matches_parent_parametrization():
    for space in ALL_SPACES:
        rng = np.random.default_rng(23)
        g = random_geodesic(space, rng, min_length=1e-2)
        sub = geodesic_restrict(g, 0.2, 0.7)
        for lam in (0.0, 0.25, 0.5, 0.8, 1.0):
            expected = g.eval(0.2 + 0.5 * lam)
            assert distance(sub.eval(lam), expected) < 1e-12


def test_restrict_of_restrict():
    g = Geodesic(H.point(-2.0, 0.5), H.point(4.0, 3.0))
    sub = g.restrict(0.1, 0.9).restrict(0.5, 1.0)
    assert distance(sub.eval(0.0), g.eval(0.5)) < 1e-12
    assert distance(sub.eval(1.0), g.eval(0.9)) < 1e-12


def test_eval_batch_layouts():
    ts = np.array([0.0, 0.5, 1.0])
    g = Geodesic(E2.point(0.0, 0.0), E2.point(1.0, 0.0))
    assert g.eval_batch(ts).shape == (3, 2)
    g = Geodesic(S3.point(0, 1.0), S3.point(1, 1.0))
    rays, rads = g.eval_batch(ts)
    assert rays.shape == (3,) and rads.shape == (3,)
    g = Geodesic(_prod_point((0.0, 0.0), (0.0, 1.0)),
                 _prod_point((1.0, 0.0), (0.0, 2.0)))
    left, right = g.eval_batch(ts)
    assert left.shape == (3, 2) and right.shape == (3, 2)


def _same_batch(a, b) -> bool:
    # coordinate batches are arrays or nested tuples of arrays
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(_same_batch(x, y) for x, y in zip(a, b)))
    return a.dtype == b.dtype and np.array_equal(a, b)


def _special_geodesics():
    # vertical half-plane segment, spider segments through the hub, along
    # one ray and from the hub, plus random geodesics of every space
    yield Geodesic(H.point(0.3, 0.5), H.point(0.3, 4.0))
    yield Geodesic(S3.point(0, 1.5), S3.point(2, 0.5))
    yield Geodesic(S3.point(1, 2.0), S3.point(1, 0.5))
    yield Geodesic(S3.point(0, 0.0), S3.point(2, 1.0))
    rng = np.random.default_rng(77)
    for space in ALL_SPACES:
        for _ in range(20):
            yield random_geodesic(space, rng)


def test_eval_batch_is_the_batch_primitive_bit_for_bit():
    ts = np.concatenate(([0.0, 1.0, 0.5], np.linspace(0.0, 1.0, 29)))
    for g in _special_geodesics():
        space = g.space
        A = space._stack([g.start.coords] * ts.size)
        B = space._stack([g.end.coords] * ts.size)
        assert _same_batch(g.eval_batch(ts),
                           space._along(space._ends(A, B)[0], ts))


# ---------------------------------------------------------------------------
# the one-row lane on Python floats
# ---------------------------------------------------------------------------


def _wide(positive=False):
    # doubles of every size from 1e-300 to 1e301, and 0 or either sign
    # unless positive
    size = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
                     st.integers(-300, 300))
    if positive:
        return size
    return st.one_of(st.just(0.0), size, size.map(lambda v: -v))


def _coords(space):
    """Strategy: the coordinates of a point of space, as a point takes
    them; half-plane heights from 1e-300 to 1e301, spider points on the
    hub and radii whose sums overflow, euclidean coordinates from small
    to overflowing."""
    if isinstance(space, ProductSpace):
        return st.tuples(_coords(space.left), _coords(space.right))
    if isinstance(space, SpiderSpace):
        return st.tuples(st.integers(0, space.k - 1),
                         st.one_of(st.just(0.0), st.floats(0.0, 5.0),
                                   _wide(positive=True),
                                   st.floats(1e307, 1.7e308)))
    if isinstance(space, HalfPlaneSpace):
        return st.tuples(st.one_of(st.floats(-3.0, 3.0), _wide()),
                         st.one_of(st.floats(0.1, 5.0), _wide(True)))
    return st.lists(st.one_of(st.floats(-3.0, 3.0), _wide()),
                    min_size=space.n, max_size=space.n)


def _nudged(coords):
    # the coordinates with their last float one ulp larger
    if isinstance(coords[-1], (tuple, list)):
        return (*coords[:-1], _nudged(coords[-1]))
    return (*coords[:-1], math.nextafter(coords[-1], math.inf))


def _pairs(space):
    """Strategy: two points of space, drawn apart, identical, or one ulp
    apart in their last coordinate."""
    c = _coords(space)
    return st.one_of(st.tuples(c, c), c.map(lambda a: (a, a)),
                     c.map(lambda a: (a, _nudged(a))))


def _caught(fn, *args):
    """fn(*args), or the DomainError it raised, and the messages of the
    warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except DomainError as exc:
            out = exc
    return out, [str(w.message) for w in caught]


def _lane_is_the_kernel(space, a, b, t):
    """distance(p, q) is `_dist` of their rows and g.eval(t) the row of
    g.eval_batch([t]), or the DomainError of its invalid point, bit for
    bit and with the same warnings; the lane itself raises no warning,
    and where it takes a row it returns the kernel's bits."""
    p, q = space.point(a), space.point(b)
    lane = space._float_dist(p._floats, q._floats)
    want, warned = _caught(lambda: float(space._dist(p.row, q.row)[0]))
    got, got_warned = _caught(distance, p, q)
    assert _same_bits(got, want) and got_warned == warned
    assert lane is None or _same_bits(lane, want)
    g, _ = _caught(Geodesic, p, q)
    if isinstance(g, DomainError):
        return  # half-plane weights out of range
    want, warned = _caught(g.eval_batch, [t])
    lane = space._float_along(_row_floats(g._ends), t)
    got, got_warned = _caught(g.eval, t)
    assert got_warned == warned
    if isinstance(got, DomainError):
        assert lane is None
    else:
        assert _same_bits(got.row, want)
        assert lane is None or _same_bits(space._stack([lane]), want)


INNER = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
LANE = settings(max_examples=200, deadline=None)


@LANE
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(euclidean(n)), _pairs(euclidean(n)))), INNER)
def test_float_lane_is_the_kernel_on_euclidean(case, t):
    space, (a, b) = case
    _lane_is_the_kernel(space, a, b, t)


@LANE
@given(_pairs(H), INNER)
def test_float_lane_is_the_kernel_on_the_half_plane(pair, t):
    _lane_is_the_kernel(H, *pair, t)


@LANE
@given(_pairs(S3), INNER)
def test_float_lane_is_the_kernel_on_spider3(pair, t):
    _lane_is_the_kernel(S3, *pair, t)


PROD_SPIDER = [product(euclidean(2), spider(3)),
               product(half_plane(), spider(3))]


@LANE
@given(st.sampled_from(PROD_SPIDER).flatmap(
    lambda sp: st.tuples(st.just(sp), _pairs(sp))), INNER)
def test_float_lane_is_the_kernel_on_products(case, t):
    space, (a, b) = case
    _lane_is_the_kernel(space, a, b, t)


def test_float_lane_is_the_kernel_on_many_drawn_rows():
    # np.hypot and math.hypot differ in about 0.3 % of random pairs, fewer
    # than the properties above draw: the distances of 3 000 drawn rows of
    # each product against the batch kernel on all of them
    rng = np.random.default_rng(72)
    for space in PROD_SPIDER + [PROD]:
        A, B = space._sample(3000, rng), space._sample(3000, rng)
        want = space._dist(A, B).tolist()
        for i, d in enumerate(want):
            row = slice(i, i + 1)
            p, q = (_point_of_row(space, _take_rows(X, row)) for X in (A, B))
            assert _same_bits(distance(p, q), d), (space, i)


def test_ordinary_rows_take_the_float_lane(monkeypatch):
    # points of ordinary size never reach the batch kernels of distance
    # and eval
    rng = np.random.default_rng(71)
    cases = [(space, random_point(space, rng), random_point(space, rng),
              random_geodesic(space, rng))
             for space in ROW_SPACES + PROD_SPIDER + [PROD, euclidean(8)]]

    def kernel(*args):
        raise AssertionError("the kernel ran")

    for cls in (type(E2), HalfPlaneSpace, SpiderSpace, ProductSpace):
        monkeypatch.setattr(cls, "_dist", kernel)
        monkeypatch.setattr(cls, "_along", kernel)
    for space, p, q, g in cases:
        assert distance(p, q) >= 0.0
        for t in (0.1, 0.5, 0.9):
            assert distance(g.eval(t), p) >= 0.0


# ---------------------------------------------------------------------------
# comparison gaps
# ---------------------------------------------------------------------------


def test_cn_gap_vanishes_in_euclidean():
    rng = np.random.default_rng(3)
    P, X, Y = (sample_points(E2, 200, rng) for _ in range(3))
    gaps = cn_gap_batch(E2, P, X, Y)
    assert np.max(np.abs(gaps)) < 1e-9


def test_cn_gap_spider_tripod():
    gap = cn_gap(S3.point(0, 1.0), S3.point(1, 1.0), S3.point(2, 1.0))
    assert gap == pytest.approx(2.0, rel=1e-12)


def test_busemann_gap_from_hub_is_zero():
    gap = busemann_gap(S3.point(0, 0.0), S3.point(1, 2.0), S3.point(2, 2.0))
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_busemann_gap_spider_positive_case():
    gap = busemann_gap(S3.point(2, 1.0), S3.point(0, 2.0), S3.point(1, 2.0))
    assert gap == pytest.approx(2.0, rel=1e-12)


def test_comparison_gap_vanishes_in_euclidean():
    rng = np.random.default_rng(17)
    P, X0, X1 = (sample_points(E2, 200, rng) for _ in range(3))
    t = rng.uniform(0.0, 1.0, 200)
    gaps = comparison_gap_batch(E2, P, X0, X1, t)
    assert np.max(np.abs(gaps)) < 1e-9


def test_sturm_gap_zero_for_parallel_translates():
    g1 = Geodesic(E2.point(0.0, 0.0), E2.point(1.0, 0.0))
    g2 = Geodesic(E2.point(0.0, 1.0), E2.point(1.0, 1.0))
    for t in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert sturm_gap(g1, g2, t) == pytest.approx(0.0, abs=1e-12)


def test_gaps_nonnegative_on_random_batches():
    n = 400
    for space in ALL_SPACES:
        rng = np.random.default_rng(41)
        A, B, C, D = (sample_points(space, n, rng) for _ in range(4))
        t = rng.uniform(0.0, 1.0, n)
        assert np.min(cn_gap_batch(space, A, B, C)) > -1e-9
        assert np.min(busemann_gap_batch(space, A, B, C)) > -1e-9
        assert np.min(comparison_gap_batch(space, A, B, C, t)) > -1e-9
        assert np.min(four_point_gap_batch(space, A, B, C, D, t)) > -1e-9
        assert np.min(sturm_gap_batch(space, A, B, C, D, t)) > -1e-9


@pytest.mark.parametrize("space", [H, PROD], ids=lambda s: s.name)
def test_gap_batches_stage_each_pair_once(monkeypatch, space):
    # a gap batch takes one endpoint stage per geodesic pair and reads the
    # pair's distance from it: outside a stage it calls _dist on no pair
    # that it stages
    ends, dist = space._ends, space._dist
    staged, measured, inside = [], [], []

    def stage(A, B):
        staged.append({id(A), id(B)})
        inside.append(True)
        try:
            return ends(A, B)
        finally:
            inside.pop()

    def measure(A, B):
        if not inside:
            measured.append({id(A), id(B)})
        return dist(A, B)

    monkeypatch.setattr(space, "_ends", stage)
    monkeypatch.setattr(space, "_dist", measure)
    rng = np.random.default_rng(7)
    A, B, C, D = (sample_points(space, 50, rng) for _ in range(4))
    t = rng.uniform(0.0, 1.0, 50)
    for gap, args, stages in ((cn_gap_batch, (A, B, C), 1),
                              (busemann_gap_batch, (A, B, C), 2),
                              (comparison_gap_batch, (A, B, C, t), 1),
                              (four_point_gap_batch, (A, B, C, D, t), 1),
                              (sturm_gap_batch, (A, B, C, D, t), 2)):
        staged.clear()
        measured.clear()
        gap(space, *args)
        assert len(staged) == stages, gap.__name__
        assert not [pair for pair in measured if pair in staged], gap.__name__


def test_scalar_gap_wrappers_match_batch():
    rng = np.random.default_rng(9)
    p, x, y, z = (random_point(H, rng) for _ in range(4))
    stacked = [H._stack([q.coords]) for q in (p, x, y, z)]
    assert cn_gap(p, x, y) == pytest.approx(
        float(cn_gap_batch(H, *stacked[:3])[0]), rel=1e-12)
    assert four_point_gap(p, x, y, z, 0.3) == pytest.approx(
        float(four_point_gap_batch(H, *stacked, 0.3)[0]), rel=1e-12)


def test_scalar_sturm_gap_is_the_batch_row():
    rng = np.random.default_rng(53)
    for space in ALL_SPACES:
        for restrict in (False, True):
            g1 = random_geodesic(space, rng, min_length=0.1)
            g2 = random_geodesic(space, rng, min_length=0.1)
            if restrict:
                g1 = g1.restrict(0.1, 0.8)
                g2 = g2.restrict(0.35, 1.0)
            stacks = [space._stack([p.coords])
                      for p in (g1.start, g1.end, g2.start, g2.end)]
            for t in (0.0, 0.2, 0.5, 0.7, 1.0):
                row = float(sturm_gap_batch(space, *stacks, t)[0])
                assert sturm_gap(g1, g2, t) == row


def test_sturm_gap_on_restricted_geodesics():
    rng = np.random.default_rng(31)
    g1 = random_geodesic(H, rng, min_length=0.1).restrict(0.1, 0.8)
    g2 = random_geodesic(H, rng, min_length=0.1)
    for t in (0.2, 0.5, 0.7):
        assert sturm_gap(g1, g2, t) > -1e-9


# ---------------------------------------------------------------------------
# sampling, serialization, errors
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic_per_seed():
    # and every sampled row is a valid point: the falsifier keeps its draws
    # as columns and validates a row only when it builds the row's Point
    for space in ALL_SPACES + [product(E2, S3)]:
        a = sample_points(space, 4096, np.random.default_rng(2))
        b = sample_points(space, 4096, np.random.default_rng(2))
        pa = space._single(a, 3)
        pb = space._single(b, 3)
        assert distance(space.point(pa), space.point(pb)) == 0.0
        for i in range(4096):
            space._validate(space._single(a, i))


ROW_SPACES = [E2, H, S3, product(euclidean(2), spider(3)),
              product(product(euclidean(1), half_plane()), spider(3))]


def _leaves(obj):
    # the arrays or scalars of coordinates or a batch, depth first
    if isinstance(obj, tuple):
        return [leaf for item in obj for leaf in _leaves(item)]
    return [obj]


def _same_bits(a, b) -> bool:
    la, lb = ([np.asarray(v) for v in _leaves(x)] for x in (a, b))
    return len(la) == len(lb) and all(
        x.dtype == y.dtype and x.shape == y.shape
        and x.tobytes() == y.tobytes() for x, y in zip(la, lb))


def _as_arrays(coords_json):
    # fresh caller-owned arrays holding a point's coordinates
    if isinstance(coords_json[0], list):
        return tuple(_as_arrays(c) for c in coords_json)
    return np.array(coords_json, dtype=float)


def _made_points(space, rng):
    """One point from each way of making a point."""
    g = random_geodesic(space, rng, min_length=0.1)
    sub = g.restrict(0.2, 0.7)
    coords = space._single(space._sample(1, rng), 0)
    return {"space.point": space.point(coords),
            "Point": Point(space, coords),
            "random_point": random_point(space, rng),
            "eval": g.eval(0.3),
            "restrict start": sub.start, "restrict end": sub.end}


def test_point_row_is_its_one_row_batch():
    rng = np.random.default_rng(61)
    for space in ROW_SPACES:
        for how, p in _made_points(space, rng).items():
            assert _same_bits(p.row, space._stack([p.coords])), (space, how)


def test_point_coords_and_row_are_read_only():
    rng = np.random.default_rng(62)
    for space in ROW_SPACES:
        for how, p in _made_points(space, rng).items():
            for part in (p.coords, p.row):
                if isinstance(part, tuple):
                    with pytest.raises(TypeError):
                        part[0] = part[1]
                for leaf in _leaves(part):
                    if isinstance(leaf, np.ndarray):
                        with pytest.raises(ValueError):
                            leaf[...] = 0.0
            assert _same_bits(p.row, space._stack([p.coords])), (space, how)


def test_point_keeps_no_view_of_its_input():
    # a write into the caller's array must not reach the point: for the
    # half-plane it would give y < 0 past validation
    rng = np.random.default_rng(63)
    for space in ROW_SPACES:
        want = space._coords_json(space._single(space._sample(1, rng), 0))
        for make in (space.point, lambda c: Point(space, c)):
            arrays = _as_arrays(want)
            p = make(arrays)
            row = space._stack([p.coords])
            for leaf in _leaves(arrays):
                leaf[...] = -3.0
            assert space._coords_json(p.coords) == want, space
            assert _same_bits(p.row, row), space


def test_point_rows_give_the_batch_formulas_bits():
    # distance, length and the scalar gaps against the batch formulas on
    # freshly stacked coordinates
    rng = np.random.default_rng(64)
    for space in ROW_SPACES:
        pts = list(_made_points(space, rng).values())
        stacks = [space._stack([p.coords]) for p in pts]
        for i in range(len(pts) - 1):
            want = float(space._dist(stacks[i], stacks[i + 1])[0])
            assert distance(pts[i], pts[i + 1]) == want, space
            assert Geodesic(pts[i], pts[i + 1]).length == want, space
        a, b, c, d = pts[:4]
        A, B, C, D = stacks[:4]
        t = 0.35
        for got, want in (
                (cn_gap(a, b, c), cn_gap_batch(space, A, B, C)),
                (busemann_gap(a, b, c), busemann_gap_batch(space, A, B, C)),
                (comparison_gap(a, b, c, t),
                 comparison_gap_batch(space, A, B, C, t)),
                (four_point_gap(a, b, c, d, t),
                 four_point_gap_batch(space, A, B, C, D, t)),
                (sturm_gap(Geodesic(a, b), Geodesic(c, d), t),
                 sturm_gap_batch(space, A, B, C, D, t))):
            assert got == float(want[0]), space


def test_random_point_draws_as_before():
    # the same draws from the generator, in the same order: 200
    # consecutive points against 200 one-row batches, so that a draw
    # that takes more or fewer of the stream's bits (integers for some k)
    # moves every later point
    spaces = ([euclidean(n) for n in range(1, 9)]
              + [spider(k) for k in range(2, 17)] + ROW_SPACES)
    for space in spaces:
        rng1, rng2 = np.random.default_rng(65), np.random.default_rng(65)
        for i in range(200):
            p = random_point(space, rng1)
            batch = space._sample(1, rng2)
            assert _same_bits(p.row, batch), (space, i)
            assert (space._coords_json(p.coords)
                    == space._coords_json(space._single(batch, 0)))
        assert rng1.bit_generator.state == rng2.bit_generator.state, space


def _count_rows(monkeypatch):
    """A counter of the calls that build a coordinate batch: every
    space's `_stack` and `spaces._read_only`."""
    import geofrac.spaces as sp

    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)
        return wrapper

    for cls in (type(E2), HalfPlaneSpace, SpiderSpace, ProductSpace):
        monkeypatch.setattr(cls, "_stack", counted(cls._stack))
    monkeypatch.setattr(sp, "_read_only", counted(sp._read_only))
    return calls


def test_per_point_calls_build_no_row(monkeypatch):
    # random_point, distance and Geodesic.eval on rows the lane takes
    # hold Python numbers alone; a later p.row is built then, with the
    # bits of the point's stacked coordinates
    rng = np.random.default_rng(66)
    geodesics = {space: random_geodesic(space, rng, min_length=0.1)
                 for space in ROW_SPACES + [PROD]}
    calls = _count_rows(monkeypatch)
    for space, g in geodesics.items():
        p, q = random_point(space, rng), random_point(space, rng)
        assert distance(p, q) >= 0.0
        pts = [g.eval(t) for t in (0.1, 0.5, 0.9)]
        assert all(distance(x, p) >= 0.0 for x in pts)
        assert not calls, space
        for x in [p, q] + pts:
            assert _same_bits(x.row, space._stack([x.coords])), space
        assert calls
        del calls[:]


def _array_validate(space, coords):
    # the coordinate check of a euclidean or half-plane point on a numpy
    # array, the reference for the check on Python floats
    arr = np.asarray(coords, dtype=float).reshape(-1)
    if isinstance(space, HalfPlaneSpace):
        if arr.shape != (2,) or not np.isfinite(arr).all() or arr[1] <= 0.0:
            raise DomainError("half-plane points are (x, y) with y > 0")
    elif arr.shape != (space.n,) or not np.isfinite(arr).all():
        raise DomainError("expected %d finite coordinates" % space.n)
    return arr


def _float_leaves(obj):
    if isinstance(obj, (tuple, list)):
        return [leaf for item in obj for leaf in _float_leaves(item)]
    return [obj]


@pytest.mark.parametrize("space", [E2, euclidean(1), H],
                         ids=lambda s: s.name)
def test_coordinates_check_as_the_array_check_did(space):
    # NaN and inf, wrong lengths, y <= 0 and y = -0.0, numpy scalars,
    # ints and bools, nested lists and arrays: the same points with the
    # same Python floats, or the same DomainError message
    n = 2 if space is H else space.n
    good = [0.5] * n
    cases = [good, [math.nan] * n, [0.5] * (n - 1) + [math.inf],
             [-math.inf] + [0.5] * (n - 1), [], [0.5] * (n + 1),
             [0.5] * (n - 1) if n > 1 else [0.5, 0.5], [0.5, 0.0],
             [0.5, -1.0], [0.5, -0.0], [0.5, 5e-324],
             [np.float64(0.25)] * n, [1] * n, [True] * n,
             [np.int64(3)] * n, [good], [[v] for v in good], [[good]],
             np.array(good), np.array([good]), tuple(good)]
    for coords in cases:
        try:
            want = _array_validate(space, coords).tolist()
        except DomainError as exc:
            want = str(exc)
        makers = [lambda: Point(space, coords), lambda: space.point(coords)]
        flat = np.asarray(coords, dtype=float).reshape(-1)
        if flat.size == n:  # a one-row batch, as the kernels return it
            makers.append(lambda: _point_of_row(space, flat[None, :]))
        for make in makers:
            try:
                p = make()
            except DomainError as exc:
                assert str(exc) == want, (space, coords)
                continue
            assert p._floats == want, (space, coords)
            assert all(type(v) is float for v in p._floats)
            assert type(p.coords) is np.ndarray and p.coords.tolist() == want


def test_points_hold_python_numbers_and_print_as_before():
    cases = [(E2.point(np.float64(1.5), True), "[1.5, 1.0]"),
             (H.point(0, 1), "[0.0, 1.0]"),
             (H.point([[np.float32(0.5), 2]]), "[0.5, 2.0]"),
             (S3.point(True, 2), "[1, 2.0]"),
             (S3.point(np.float64(2.0), np.int64(0)), "[2, 0.0]"),
             (_prod_point([np.int8(1), 2.5], np.array([0.0, 3.0])),
              "[[1.0, 2.5], [0.0, 3.0]]"),
             (product(H, S3).point(([0.0, 1.0], [1, 0.5])),
              "[[0.0, 1.0], [1, 0.5]]")]
    for p, text in cases:
        assert repr(p) == "Point(%s, %s)" % (p.space.name, text)
        assert p.to_dict() == {"space": p.space.name,
                               "coords": json.loads(text)}
        assert [type(v) for v in _float_leaves(p._floats)] == [
            type(v) for v in _float_leaves(json.loads(text))]
    assert type(cases[0][0].coords) is np.ndarray
    assert type(cases[3][0].coords) is tuple
    assert type(cases[3][0].coords[0]) is int
    assert [type(c) for c in cases[5][0].coords] == [np.ndarray, np.ndarray]
    with pytest.raises(DomainError, match="spider points"):
        S3.point(0, 1.0, 2.0)
    with pytest.raises(DomainError, match="ray index"):
        S3.point(math.nan, 1.0)
    with pytest.raises(DomainError, match="radius"):
        S3.point(1, -0.5)
    with pytest.raises(DomainError, match="radius"):
        S3.point(1, math.inf)
    with pytest.raises(DomainError, match="product points"):
        PROD.point([[0.0, 1.0]])
    with pytest.raises(DomainError, match="y > 0"):
        PROD.point(([0.0, 1.0], [0.0, -0.0]))


def test_point_serialization_round_trip():
    p = E2.point(1.0, -2.5)
    assert p.to_dict() == {"space": "euclidean(2)", "coords": [1.0, -2.5]}
    s = S3.point(2, 1.5)
    assert s.to_dict() == {"space": "spider(3)", "coords": [2, 1.5]}
    pr = _prod_point((0.0, 1.0), (2.0, 3.0))
    d = pr.to_dict()
    assert d["space"] == "product(euclidean(2),half_plane)"
    assert d["coords"] == [[0.0, 1.0], [2.0, 3.0]]


def test_space_equality_and_names():
    assert euclidean(2) == euclidean(2)
    assert euclidean(2) != euclidean(3)
    assert spider(3) != half_plane()
    assert product(euclidean(2), spider(3)).name == "product(euclidean(2),spider(3))"


def test_invalid_points_rejected():
    with pytest.raises(DomainError):
        H.point(0.0, 0.0)
    with pytest.raises(DomainError):
        H.point(0.0, -1.0)
    with pytest.raises(DomainError):
        E2.point(1.0)
    with pytest.raises(DomainError):
        E2.point(np.nan, 0.0)
    with pytest.raises(DomainError):
        S3.point(3, 1.0)
    with pytest.raises(DomainError):
        S3.point(0, -0.5)
    with pytest.raises(DomainError):
        S3.point(0.5, 1.0)
    with pytest.raises(DomainError):
        euclidean(9)
    with pytest.raises(DomainError):
        spider(1)


def test_space_mismatch_rejected():
    p = E2.point(0.0, 0.0)
    q = euclidean(3).point(0.0, 0.0, 0.0)
    with pytest.raises(SpaceMismatchError):
        distance(p, q)
    with pytest.raises(SpaceMismatchError):
        Geodesic(p, q)
    with pytest.raises(SpaceMismatchError):
        cn_gap(p, p, q)


def test_parameter_domain_checks():
    g = Geodesic(E2.point(0.0, 0.0), E2.point(1.0, 0.0))
    with pytest.raises(DomainError):
        g.eval(1.5)
    with pytest.raises(DomainError):
        g.eval(-0.1)
    with pytest.raises(DomainError):
        g.restrict(0.5, 0.5)
    with pytest.raises(DomainError):
        g.restrict(-0.1, 0.5)
    with pytest.raises(DomainError):
        g.eval_batch([0.0, 2.0])
    for bad in ([math.nan], [0.5, math.nan], [math.nan, 0.0, 1.0]):
        with pytest.raises(DomainError):
            g.eval_batch(bad)
    with pytest.raises(DomainError):
        g.eval(math.nan)
    with pytest.raises(DomainError):
        comparison_gap(g.start, g.start, g.end, 1.2)


@pytest.mark.parametrize("space", ROW_SPACES + [PROD], ids=lambda s: s.name)
def test_geodesic_rows_are_their_geodesics_bit_for_bit(space):
    # a row of a geodesic batch has the length and the endpoint constants
    # of Geodesic(start, end), bit for bit
    A, B = _random_ends(space, 1024, np.random.default_rng(5), 0.05)
    ends, dist = space._ends(A, B)
    for i in range(1024):
        g = _row_geodesic(space, A, B, ends, dist, i)
        want = Geodesic(g.start, g.end)
        assert g.length >= 0.05
        assert g.length == want.length
        assert _same_bits(g._ends, want._ends)


@pytest.mark.parametrize("space", ROW_SPACES + [PROD], ids=lambda s: s.name)
def test_random_geodesic_is_the_one_row_draw(space):
    # random_geodesic takes the draws of a geodesic batch with m = 1,
    # redraws included (min_length 1.5 rejects some pairs on every space)
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(64):
        g = random_geodesic(space, rng1, min_length=1.5)
        A, B = _random_ends(space, 1, rng2, 1.5)
        want = _row_geodesic(space, A, B, *space._ends(A, B), 0)
        assert g.length >= 1.5 and g.length == want.length
        assert _same_bits((g.start.row, g.end.row, g._ends),
                          (want.start.row, want.end.row, want._ends))
    assert rng1.bit_generator.state == rng2.bit_generator.state


def test_random_geodesic_rejects_a_min_length_that_is_not_a_length():
    # nan let every pair through, and inf redrew forever; each is refused
    # before anything is drawn
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for space in ALL_SPACES:
        for bad in (math.nan, -1.0, math.inf):
            with pytest.raises(DomainError):
                random_geodesic(space, rng, min_length=bad)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.name)
def test_an_unreachable_min_length_raises(space):
    # no draw reaches length 100: the redraw rounds are capped, and the
    # error names min_length instead of the loop running forever
    start = time.perf_counter()
    with pytest.raises(DomainError, match="min_length"):
        random_geodesic(space, np.random.default_rng(0), min_length=100.0)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("space", ROW_SPACES + [PROD], ids=lambda s: s.name)
def test_short_geodesic_rows_alone_are_redrawn(monkeypatch, space):
    # the first batch of ends repeats rows 1 and 4 of the starts: those two
    # rows, and only they, get new starts and ends, two rows a batch
    sample, batches = space._sample, []

    def scripted(m, rng):
        batch = sample(m, rng)
        if len(batches) == 1:
            _put_rows(batch, np.array([1, 4]),
                      _take_rows(batches[0], np.array([1, 4])))
        batches.append(_take_rows(batch, np.arange(m)))
        return batch

    monkeypatch.setattr(space, "_sample", scripted)
    A, B = _random_ends(space, 8, np.random.default_rng(2), 0.05)
    ends, dist = space._ends(A, B)
    assert [len(_leaves(b)[0]) for b in batches] == [8, 8, 2, 2]
    for i in range(8):
        g = _row_geodesic(space, A, B, ends, dist, i)
        if i in (1, 4):
            j = [(1, 4).index(i)]
            want = _take_rows(batches[2], j), _take_rows(batches[3], j)
        else:
            want = _take_rows(batches[0], [i]), _take_rows(batches[1], [i])
        assert _same_bits((g.start.row, g.end.row), want)


@pytest.mark.parametrize("space", ROW_SPACES + [PROD], ids=lambda s: s.name)
def test_take_rows_gathers_the_bits_of_fancy_indexing(space):
    # an index array (repeats, any order) gathers through take the bits
    # that batch[rows] gives, leaf by leaf, for coordinate and
    # endpoint-stage batches, nested product tuples included; a slice
    # still returns views of the batch
    rng = np.random.default_rng(8)
    A, B = _random_ends(space, 16, rng, 0.05)
    ends, dist = space._ends(A, B)
    rows = rng.integers(0, 16, 200)
    for batch in (A, B, ends, dist):
        fancy = [leaf[rows] for leaf in _leaves(batch)]
        assert _same_bits(_take_rows(batch, rows), tuple(fancy))
        for view, leaf in zip(_leaves(_take_rows(batch, slice(3, 9))),
                              _leaves(batch)):
            assert np.shares_memory(view, leaf)
            assert view.tobytes() == leaf[3:9].tobytes()


def _flat_points(batch, nd: int):
    # a batch over its first nd axes as one flat batch of points
    if isinstance(batch, tuple):
        return tuple(_flat_points(b, nd) for b in batch)
    return batch.reshape((-1,) + batch.shape[nd:])


@pytest.mark.parametrize("space", ROW_SPACES + [PROD], ids=lambda s: s.name)
def test_along_broadcasts_lines_of_constants(space):
    # K rows of endpoint constants, each gathered as a line of one point,
    # against parameters (2, K, m) give the bits of the per-point
    # constants against the flat parameters
    rng = np.random.default_rng(9)
    A, B = _random_ends(space, 16, rng, 0.05)
    ends, _ = space._ends(A, B)
    rows = rng.integers(0, 16, 5)
    ts = rng.uniform(0.0, 1.0, (2, 5, 7))
    ts[0, 1, :2] = 0.0, 1.0
    per_point = np.broadcast_to(rows[:, None], ts.shape).ravel()
    want = space._along(_take_rows(ends, per_point), ts.ravel())
    got = _flat_points(space._along(_take_rows(ends, rows[:, None]), ts),
                      ts.ndim)
    assert _same_bits(got, want)


def _edge_lines(space, P, Y):
    """P (2, K, m) and Y (K, 1), K >= 3, with lines at the edges of the
    half-plane distance and at the spider hub, in every factor.  On a
    half-plane, line 0 is scaled to y ~ 1e-200, where 4 y1 y2 underflows,
    and line 1 to y ~ 1e200, where the squares overflow, so both take the
    rescale path, and a point of line 2 is its y.  On a spider, the y of
    each line is on the ray of its first point, and the line has points
    on that ray, and its last point is on the next ray, past the hub."""
    if isinstance(space, ProductSpace):
        (pl, yl), (pr, yr) = (_edge_lines(s, p, y) for s, p, y in
                              zip((space.left, space.right), P, Y))
        return (pl, pr), (yl, yr)
    if isinstance(space, HalfPlaneSpace):
        P, Y = P.copy(), Y.copy()
        for k, scale in ((0, 1e-200), (1, 1e200)):
            P[:, k] *= scale
            Y[k] *= scale
        P[0, 2, 3] = Y[2, 0]
    elif isinstance(space, SpiderSpace):
        rays = P[0].copy()
        Y = (rays[0, :, :1].copy(), Y[1])
        rays[1, :, -1] = (Y[0][:, 0] + 1) % space.k
        P = (rays, P[1])
    return P, Y


@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
@pytest.mark.parametrize("space", ROW_SPACES + [PROD], ids=lambda s: s.name)
def test_dist_broadcasts_lines_of_points(space):
    # points (2, K, m) against y gathered as (K, 1), one y per line, give
    # the bits of the flat distances of each point against its own copy
    # of its line's y; half-plane lines take the rescale path, with an
    # identical pair among them, and spider lines cross the hub
    rng = np.random.default_rng(10)
    A, B = _random_ends(space, 16, rng, 0.05)
    ends, _ = space._ends(A, B)
    ys = space._sample(16, rng)
    rows = rng.integers(0, 16, 5)
    ts = rng.uniform(0.0, 1.0, (2, 5, 7))
    lines = rows[:, None]
    P, Y = _edge_lines(space, space._along(_take_rows(ends, lines), ts),
                       _take_rows(ys, lines))
    per_point = np.broadcast_to(np.arange(5)[:, None], ts.shape).ravel()
    want = space._dist(_flat_points(P, ts.ndim),
                       _flat_points(_take_rows(Y, per_point), 2))
    got = space._dist(P, Y)
    assert got.shape == ts.shape
    assert np.isfinite(got).all()
    assert got.tobytes() == want.reshape(ts.shape).tobytes()


# ---------------------------------------------------------------------------
# kinks: where a geodesic passes a branch point
# ---------------------------------------------------------------------------


def _kinks_of(space, pairs):
    A = space._stack([p for p, _ in pairs])
    B = space._stack([q for _, q in pairs])
    return space._kinks(space._ends(A, B)[0])


SPIDER_PAIRS = [((0, 0.7), (1, 0.4)),  # crosses the hub at t = 7/11
                ((0, 0.0), (1, 0.4)),  # starts at the hub
                ((2, 0.5), (1, 0.0)),  # ends at the hub
                ((1, 0.2), (1, 0.9)),  # on one ray, outward
                ((1, 0.9), (1, 0.2)),  # on one ray, inward
                ((0, 0.0), (2, 0.0))]  # from the hub to the hub


def test_spider_kinks_are_the_hub_crossings():
    kinks = _kinks_of(S3, SPIDER_PAIRS)
    assert kinks.shape == (6, 1)
    assert kinks[0, 0] == 0.7 / (0.7 + 0.4)
    # a start or an end at the hub passes it at t = 0 or 1, not inside
    assert np.isnan(kinks[1:, 0]).all()
    # the geodesic is at the hub there, and d(g(t), y)^2 with y on the
    # third ray has one-sided slopes of opposite sign
    g = Geodesic(S3.point(0, 0.7), S3.point(1, 0.4))
    t = kinks[0, 0]
    assert g.eval(t).coords[1] <= 1e-15
    fg = on_geodesic(squared_distance_function(S3, S3.point(2, 0.3)), g)
    h = 1e-6
    left, mid, right = fg(np.array([t - h, t, t + h]))
    assert (mid - left) / h < -0.5 and (right - mid) / h > 0.5


@pytest.mark.parametrize("space", [E2, H, euclidean(5)],
                         ids=lambda s: s.name)
def test_smooth_spaces_report_no_kinks(space):
    rng = np.random.default_rng(3)
    A, B = space._sample(4, rng), space._sample(4, rng)
    assert space._kinks(space._ends(A, B)[0]).shape == (4, 0)


@pytest.mark.parametrize("spider_left", [True, False])
def test_product_kinks_are_its_factors_columns(spider_left):
    # the spider factor's column, on either side of the other factor's
    # none, and two spider factors' columns side by side
    other = [((0.0, 1.0), (1.0, 2.0))] * len(SPIDER_PAIRS)
    if spider_left:
        space = product(S3, H)
        pairs = [((p, o), (q, r)) for (p, q), (o, r)
                 in zip(SPIDER_PAIRS, other)]
    else:
        space = product(E2, S3)
        pairs = [((o, p), (r, q)) for (p, q), (o, r)
                 in zip(SPIDER_PAIRS, other)]
    want = _kinks_of(S3, SPIDER_PAIRS)
    np.testing.assert_array_equal(_kinks_of(space, pairs), want)
    both = product(S3, S3)
    swapped = SPIDER_PAIRS[::-1]
    got = _kinks_of(both, [((p, s), (q, e)) for (p, q), (s, e)
                           in zip(SPIDER_PAIRS, swapped)])
    np.testing.assert_array_equal(
        got, np.concatenate((want, _kinks_of(S3, swapped)), axis=1))
