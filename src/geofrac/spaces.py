"""Model geodesic spaces of global nonpositive curvature.

Four families: euclidean(n) for n <= 8, the Poincare upper half-plane,
spider trees (k rays glued at a hub, k <= 16), and l2 products of any two
spaces.  Every space provides an exact distance and exact constant-speed
geodesics; no geodesic is obtained by numerical optimization.

Half-plane geodesics come from the hyperboloid model (Bridson & Haefliger,
Metric Spaces of Non-Positive Curvature, 1999, I.2), where the geodesic
from P to Q at distance d is (sinh((1-t)d) P + sinh(td) Q) / sinh d.  Both
1/y and x/y are linear in hyperboloid coordinates, so the point at t is
y = 1/(c1 + c2), x = (c1 x1 + c2 x2) y with weights
c1 = sinh((1-t)d) / (y1 sinh d) and c2 = sinh(td) / (y2 sinh d): one
formula for every pair, vertical or not.  The half-plane distance is
2 asinh(|z1 - z2| / (2 sqrt(y1 y2))); a pair of distinct points for which
that loses digits, because |z1 - z2|^2, 4 y1 y2 or their ratio under- or
overflows, is rescaled by a power of two, exactly, since the metric is
invariant under z -> lam z.  A pair whose coordinates that power would
take to 2**1022 or more, where x1 - x2, a y or the hypot of the gaps
could overflow, is translated to the midpoint of its x first, or takes
its distance from logarithms where that does not suffice.  A
geodesic whose weights are not finite normal doubles raises DomainError.
Spider geodesics run piecewise through the hub.  Product geodesics
interpolate coordinatewise.

On top of the spaces the module exposes comparison quantities, each
returned as (bound) - (value) so nonnegative results certify the defining
inequality: cn_gap (midpoint inequality), busemann_gap (convexity of the
distance between geodesics issuing from one point), comparison_gap (the
quadratic comparison along a geodesic), four_point_gap, and sturm_gap (the
comparison bound for the distance between two geodesics, with the squared
difference of endpoint distances subtracted).

Internally every space operates on coordinate batches (vectorized over a
leading axis) so that bulk randomized checks stay cheap.  A Point is
validated once, when it is made, and holds its validated one-row batch,
`row`; its `coords` are read back from that row.  Both are read-only.
Geodesics and the scalar gaps hand the rows to the batch layer as they
are.  A distance and a point at 0 < t < 1 on a Geodesic are one row,
where numpy's cost per call, about half a microsecond a ufunc, is most of
the work; they take a one-row lane on Python floats (`Space._float_dist`,
`Space._float_along`), which does the batch kernel's IEEE operations in
the kernel's order and returns its bits.  Its transcendental functions
are numpy's ufuncs called on floats (np.sinh, np.arcsinh, np.hypot),
which give the bits of the array loops, where math.sinh, math.asinh and
math.hypot miss them by an ulp in a share of values; math.sqrt,
correctly rounded, is np.sqrt.  A row that the lane's guard declines
goes to the batch kernel: a half-plane pair that `_dist` rescales, and a
result that is not a valid finite point or distance, so that warnings
and errors stay the kernel's.  A Geodesic takes the float form of its
constants on its first evaluation.  For batches each space writes its
geodesic formula once, in two stages: the endpoint stage `_ends(A, B)`
turns two endpoint batches into per-row constants and returns them
with the distances, the geodesics' lengths, and the parameter stage
`_along(ends, t)` broadcasts those constants against the parameters t,
as `_dist` broadcasts its two batches (the `Space` docstring states the
rule).  A space whose constants need the
distance (the half-plane, and products with a half-plane factor) thus
computes it once per geodesic.  A Geodesic runs the endpoint stage once
and every evaluation only the parameter stage; a gap batch stages each of its
geodesic pairs once and takes that pair's distance from the stage.
Random geodesics are drawn by one redraw loop of at most `_MAX_ROUNDS`
rounds, `_random_ends`, for one row (`random_geodesic`) or a batch,
whose constants and lengths then take one endpoint stage and stay
columns; its test for short rows takes one more `_dist` per round.
`_row_geodesic` makes one row of such a batch a Geodesic, for a caller
that needs the object.  An
array batch is C-contiguous, with a point's few coordinates on its last
axis; a reduction along that short axis, or an `np.stack` of columns,
costs more per row than the arithmetic, so the batch kernels work on
columns instead: `_squared_gaps` adds the squared coordinate gaps column
by column, in numpy's own order of summation, and half-plane samples and
geodesic points fill the columns of one preallocated array.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from .errors import DomainError, SpaceMismatchError

__all__ = ["Space", "Point", "Geodesic", "euclidean", "half_plane", "spider",
           "product", "distance", "geodesic_point", "geodesic_restrict",
           "cn_gap", "busemann_gap", "comparison_gap", "four_point_gap",
           "sturm_gap", "cn_gap_batch", "busemann_gap_batch",
           "comparison_gap_batch", "four_point_gap_batch", "sturm_gap_batch",
           "sample_points", "random_point", "random_geodesic"]

class Point:
    """A point of a model space, validated once, when it is made.

    `row` is the point as a one-row coordinate batch, the form the batch
    layer takes, built from the validated coordinates; `coords` (the layout
    is space-specific) is read back from it.  Both are read-only and share
    no memory with the caller's input, so they cannot come to disagree.
    """

    __slots__ = ("space", "coords", "row")

    def __init__(self, space: "Space", coords: Any):
        self._hold(space, space._stack([space._validate(coords)]))

    def _hold(self, space: "Space", row) -> "Point":
        self.space = space
        self.row = _read_only(row)
        # a view of the read-only row where the layout is an array
        self.coords = space._single(row, 0)
        return self

    def to_dict(self) -> dict:
        return {"space": self.space.name,
                "coords": self.space._coords_json(self.coords)}

    def __repr__(self) -> str:
        return "Point(%s, %s)" % (self.space.name,
                                  self.space._coords_json(self.coords))


def _read_only(batch):
    # a coordinate batch is an array or a (nested) tuple of arrays
    if isinstance(batch, tuple):
        for item in batch:
            _read_only(item)
    else:
        batch.setflags(write=False)
    return batch


def _point_of_row(space: "Space", row) -> Point:
    """The point of a freshly computed one-row batch, validated like any
    other point; the batch itself becomes its row."""
    p = Point.__new__(Point)._hold(space, row)
    space._validate(p.coords)
    return p


class Space:
    """Common interface: validated points, batch distance, batch geodesics.

    Geodesics come from two stages that subclasses provide: the endpoint
    stage `_ends(A, B)` returns `(ends, dist)`, the per-row constants of
    the geodesics from A to B and their lengths, a fresh array equal to
    `_dist(A, B)` bit for bit; the parameter stage `_along(ends, t)`
    evaluates the constants at parameters t.  The broadcast rule: `_dist`
    broadcasts the leading (point) axes of A and B, as `_along` broadcasts
    its constants against t, so a single row goes against many points,
    many rows against one point each, or K rows gathered as lines of one
    point, `_take_rows(batch, rows[:, None])`, against lines (..., K, m).

    The one-row lane takes a single row on Python floats, with the batch
    kernel's IEEE operations in its order, so that it returns the
    kernel's bits: `_float_dist(a, b)` is the distance of two points
    given by their `coords`, and `_float_along(ends, t)` the one-row
    batch of the point at 0 < t < 1 of a geodesic, from `_row_floats` of
    its endpoint constants.  Each returns None for a row that its guard
    declines, which the caller then hands to the kernel.

    The kink stage `_kinks(ends)` returns an (R, K) array: per row of an
    endpoint-stage batch the parameters t in (0, 1) at which its geodesic
    passes a branch point, where a pullback such as d(g(t), y)^2 may kink,
    padded with NaN.  Quadrature starts its panels there.
    """

    name: str = "abstract"

    # -- public layer -----------------------------------------------------

    def point(self, *coords) -> Point:
        if len(coords) == 1 and isinstance(coords[0], (list, tuple, np.ndarray)):
            coords = tuple(coords[0])
        return Point(self, coords)

    def distance(self, p: Point, q: Point) -> float:
        _require_space(self, p, q)
        d = self._float_dist(p.coords, q.coords)
        if d is None:
            d = float(self._dist(p.row, q.row)[0])
        return d

    def random_point(self, rng: np.random.Generator) -> Point:
        return _point_of_row(self, self._sample(1, rng))

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return self is other or (type(self) is type(other)
                                 and self._key() == other._key())

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()

    # -- batch layer (subclass responsibility) -----------------------------

    def _validate(self, coords):
        raise NotImplementedError

    def _dist(self, A, B) -> np.ndarray:
        raise NotImplementedError

    def _ends(self, A, B) -> tuple:
        raise NotImplementedError

    def _along(self, ends, t) -> Any:
        raise NotImplementedError

    def _float_dist(self, a, b):
        raise NotImplementedError

    def _float_along(self, ends, t: float):
        raise NotImplementedError

    def _kinks(self, ends) -> np.ndarray:
        # no branch points: the euclidean and half-plane geodesics, whose
        # endpoint constants lead with the start batch
        return np.empty((len(ends[0]), 0))

    def _stack(self, coords_list: Sequence[Any]):
        raise NotImplementedError

    def _single(self, batch, i: int):
        raise NotImplementedError

    def _sample(self, m: int, rng: np.random.Generator):
        raise NotImplementedError

    def _coords_json(self, coords):
        raise NotImplementedError


def _squared_gaps(A, B) -> np.ndarray:
    """|A - B|^2 row by row for coordinate batches (..., n), n <= 8: the
    squares added column by column, in the order in which numpy adds a
    row of n, one after another for n < 8 and pairwise for n = 8, so that
    the root is np.linalg.norm(A - B, axis=-1) bit for bit."""
    d = A - B
    d *= d
    n = d.shape[-1]
    if n == 8:
        s = d[..., 0] + d[..., 1]
        s += d[..., 2] + d[..., 3]
        right = d[..., 4] + d[..., 5]
        right += d[..., 6] + d[..., 7]
        s += right
        return s
    s = d[..., 0] + d[..., 1] if n > 1 else d[..., 0]
    for i in range(2, n):
        s += d[..., i]
    return s


def _float_squared_gaps(a: list, b: list) -> float:
    """`_squared_gaps` of one row, on Python floats: the same squares
    added in the same order."""
    if len(a) == 8:
        d = [(u - v) * (u - v) for u, v in zip(a, b)]
        return ((d[0] + d[1]) + (d[2] + d[3])) + ((d[4] + d[5])
                                                  + (d[6] + d[7]))
    # 0.0 + x is x for a square, which is never -0.0
    s = 0.0
    for u, v in zip(a, b):
        s += (u - v) * (u - v)
    return s


class EuclideanSpace(Space):
    def __init__(self, n: int):
        if not (isinstance(n, int) and 1 <= n <= 8):
            raise DomainError("euclidean dimension must be an int in [1, 8]")
        self.n = n
        self.name = "euclidean(%d)" % n

    def _key(self):
        return (self.n,)

    def _validate(self, coords):
        arr = np.asarray(coords, dtype=float).reshape(-1)
        if arr.shape != (self.n,) or not np.isfinite(arr).all():
            raise DomainError("expected %d finite coordinates" % self.n)
        return arr

    def _dist(self, A, B):
        s = _squared_gaps(A, B)
        return np.sqrt(s, out=s)

    def _ends(self, A, B):
        return (A, B, B - A), self._dist(A, B)

    def _float_dist(self, a, b):
        s = _float_squared_gaps(a.tolist(), b.tolist())
        # an overflowing square is the kernel's, with its warning
        return math.sqrt(s) if s <= _HUGE else None

    def _float_along(self, ends, t):
        A, _, delta = ends
        out = [x + t * dx for x, dx in zip(A, delta)]
        return np.array([out]) if all(map(math.isfinite, out)) else None

    def _along(self, ends, t):
        A, B, delta = ends
        t = np.asarray(t, dtype=float)
        out = A + t[..., None] * delta
        # A + 1 * (B - A) may miss B by an ulp; the end is exact
        at = t == 1.0
        if np.count_nonzero(at):
            out = np.where(at[..., None], B, out)
        return out

    def _stack(self, coords_list):
        return np.asarray(coords_list, dtype=float).reshape(len(coords_list),
                                                            self.n)

    def _single(self, batch, i):
        return batch[i]

    def _sample(self, m, rng):
        return rng.normal(0.0, 1.0, (m, self.n))

    def _coords_json(self, coords):
        return [float(v) for v in coords]


# smallest normal and largest finite double: the range that 4 y1 y2, the
# squared distance |z1 - z2|^2 and the geodesic weights must stay in
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)


def _rescaled_dist(A, B, e):
    # the half-plane distance of rows (x, y) scaled by 2**-e, exactly, with
    # |z1 - z2| by hypot and the root of y1 y2 taken factor by factor
    A, B = np.ldexp(A, -e[:, None]), np.ldexp(B, -e[:, None])
    return 2.0 * np.arcsinh(
        np.hypot(A[:, 0] - B[:, 0], A[:, 1] - B[:, 1])
        / (2.0 * np.sqrt(A[:, 1]) * np.sqrt(B[:, 1])))


def _far_dist(A, B, e):
    # rows with a coordinate of 2**(e + 1022) or more, translated by the
    # midpoint of x1 and x2 to (g, y1) and (-g, y2), g = (x1 - x2) / 2,
    # which is finite where x1 - x2 is not.  Where g or a y still reaches
    # 2**1022 at 2**-e, |z1 - z2| / (2 sqrt(y1 y2)) exceeds 2**1020, and
    # 2 asinh of it is 2 log(|z1 - z2| / sqrt(y1 y2)) to double precision;
    # in the other rows both gaps stay below 2**1023 and their hypot is
    # finite
    g = 0.5 * A[:, 0] - 0.5 * B[:, 0]
    logs = np.frexp(np.fmax(abs(g), np.fmax(A[:, 1], B[:, 1])))[1] - e > 1022
    out = np.empty(len(g))
    y1, y2 = A[logs, 1], B[logs, 1]
    out[logs] = (2.0 * (np.log(np.hypot(0.5 * g[logs], 0.25 * (y1 - y2)))
                        + math.log(4.0)) - (np.log(y1) + np.log(y2)))
    g, near = g[~logs], ~logs
    out[near] = _rescaled_dist(np.stack((g, A[near, 1]), axis=-1),
                               np.stack((-g, B[near, 1]), axis=-1), e[near])
    return out


class HalfPlaneSpace(Space):
    """Poincare upper half-plane, curvature -1."""

    name = "half_plane"

    def _validate(self, coords):
        arr = np.asarray(coords, dtype=float).reshape(-1)
        if arr.shape != (2,) or not np.isfinite(arr).all() or arr[1] <= 0.0:
            raise DomainError("half-plane points are (x, y) with y > 0")
        return arr

    def _dist(self, A, B):
        # 2 asinh(|z1 - z2| / (2 sqrt(y1 y2))) keeps the digits of close
        # pairs that arccosh(1 + ...) rounds away, in every row whose
        # |z1 - z2|^2, 4 y1 y2 and their ratio are normal doubles and whose
        # distance is finite; identical points give 0 as well
        num = _squared_gaps(A, B)
        den = 4.0 * A[..., 1] * B[..., 1]
        d = num / den
        low = np.minimum(np.minimum(num, den), d)
        del num, den  # fewer live arrays: fewer fresh pages in a large batch
        d = 2.0 * np.arcsinh(np.sqrt(d))
        if math.isfinite(np.add.reduce(d, axis=None)) and (
                np.minimum.reduce(low, axis=None, initial=_TINY) >= _TINY
                or not np.count_nonzero(A != B)):
            return d
        # a row of distinct points, far from y = 1 or very close together,
        # whose squares or 4 y1 y2 under- or overflowed: the metric is
        # invariant under z -> lam z, so rescale it by the power of two
        # that brings y1 y2 near 1, which is exact, and take |z1 - z2| by
        # hypot and the root of y1 y2 factor by factor, so that no square
        # is formed (pairs beyond d ~ 709 need this too)
        bad = (low < _TINY) & (A != B).any(axis=-1)
        bad |= ~np.isfinite(d)
        A, B = (X[bad] for X in np.broadcast_arrays(A, B))
        e = (np.frexp(A[:, 1])[1] + np.frexp(B[:, 1])[1]) // 2
        # below 2**(e + 1022) a coordinate keeps the rescaled gaps under
        # 2**1023 and their hypot finite; a larger one could take x1 - x2,
        # a y or that hypot past the doubles
        far = np.frexp(np.fmax(abs(A), abs(B)).max(axis=-1))[1] - e > 1022
        out = np.empty(len(e))
        out[far] = _far_dist(A[far], B[far], e[far])
        out[~far] = _rescaled_dist(A[~far], B[~far], e[~far])
        d[bad] = out
        return d

    def _float_dist(self, a, b):
        (x1, y1), (x2, y2) = a.tolist(), b.tolist()
        dx, dy = x1 - x2, y1 - y2
        num = dx * dx + dy * dy
        den = 4.0 * y1 * y2
        # the rows that `_dist` takes by its first formula, num as
        # `_squared_gaps` adds it: num, den and their ratio normal doubles,
        # or identical points; den is tested before it divides, and a
        # normal ratio has a finite distance
        if _TINY <= den <= _HUGE:
            r = num / den
            if ((_TINY <= num and _TINY <= r <= _HUGE)
                    or (x1 == x2 and y1 == y2)):
                return 2.0 * float(np.arcsinh(math.sqrt(r)))
        return None

    def _ends(self, A, B):
        dist = self._dist(A, B)
        # below the floor sinh(s d) / sinh d equals s to double precision,
        # and a zero-length geodesic keeps finite weights; the distances
        # handed back are not floored
        d = np.maximum(dist, 1e-8)
        s = np.sinh(d)
        w1, w2 = 1.0 / (A[:, 1] * s), 1.0 / (B[:, 1] * s)
        if not (_TINY <= min(w1.min(initial=_HUGE), w2.min(initial=_HUGE))
                and max(w1.max(initial=0.0), w2.max(initial=0.0)) <= _HUGE):
            raise DomainError("half-plane geodesic weights 1/(y sinh d) "
                              "leave the double-precision range")
        return (A, B, d, w1, w2), dist

    def _along(self, ends, t):
        A, B, d, w1, w2 = ends
        t = np.asarray(t, dtype=float)
        c1 = np.sinh((1.0 - t) * d) * w1
        c2 = np.sinh(t * d) * w2
        y = 1.0 / (c1 + c2)
        # x = (c1 x1 + c2 x2) y, formed in c1; each temporary goes once it
        # is used, so that a large batch holds fewer arrays at a time
        c1 *= A[..., 0]
        c2 *= B[..., 0]
        c1 += c2
        del c2
        c1 *= y
        out = np.empty(y.shape + (2,))
        out[..., 0] = c1
        out[..., 1] = y
        del c1, y
        # the ends are exact, not the roundoff of the weights
        for at, P in ((t == 0.0, A), (t == 1.0, B)):
            if np.count_nonzero(at):
                out = np.where(at[..., None], P, out)
        return out

    def _float_along(self, ends, t):
        (x1, _), (x2, _), d, w1, w2 = ends
        c1 = float(np.sinh((1.0 - t) * d)) * w1
        c2 = float(np.sinh(t * d)) * w2
        s = c1 + c2
        if s > 0.0:
            y = 1.0 / s
            x = (c1 * x1 + c2 * x2) * y
            if 0.0 < y <= _HUGE and -_HUGE <= x <= _HUGE:
                return np.array([[x, y]])
        return None

    def _stack(self, coords_list):
        return np.asarray(coords_list, dtype=float).reshape(len(coords_list), 2)

    def _single(self, batch, i):
        return batch[i]

    def _sample(self, m, rng):
        out = np.empty((m, 2))
        out[:, 0] = rng.normal(0.0, 1.0, m)
        out[:, 1] = rng.lognormal(0.0, 0.5, m)
        return out

    def _coords_json(self, coords):
        return [float(coords[0]), float(coords[1])]


class SpiderSpace(Space):
    """k rays glued at a common hub; an R-tree."""

    def __init__(self, k: int):
        if not (isinstance(k, int) and 2 <= k <= 16):
            raise DomainError("spider ray count must be an int in [2, 16]")
        self.k = k
        self.name = "spider(%d)" % k

    def _key(self):
        return (self.k,)

    def _validate(self, coords):
        if len(coords) != 2:
            raise DomainError("spider points are (ray, radius)")
        ray, radius = coords
        if not (float(ray).is_integer() and 0 <= int(ray) < self.k):
            raise DomainError("ray index must be an int in [0, %d)" % self.k)
        radius = float(radius)
        if not (math.isfinite(radius) and radius >= 0.0):
            raise DomainError("radius must be finite and nonnegative")
        return (int(ray), radius)

    def _dist(self, A, B):
        rays1, r1 = A
        rays2, r2 = B
        # the end's signed radius, negative on another ray, less the
        # start's: one IEEE operation per row, so that a row warns only
        # where its own distance overflows
        return np.abs(np.where(rays1 == rays2, r2, -r2) - r1)

    def _ends(self, A, B):
        rays1, r1 = A
        rays2, r2 = B
        # signed radius s = r1 + slope t: while s >= 0 the point sits at
        # radius s on the first ray; a segment between two rays passes the
        # hub where s turns negative and goes on along the second ray at
        # radius -s (from a hub start, s >= 0 holds only at t = 0)
        slope = np.where(rays1 == rays2, r2, -r2) - r1
        return (r1, slope, rays1, rays2, r2), np.abs(slope)

    def _along(self, ends, t):
        r1, slope, ray_a, ray_b, r2 = ends
        t = np.asarray(t, dtype=float)
        s = r1 + slope * t
        rays, radii = np.where(s >= 0.0, ray_a, ray_b), np.abs(s)
        # r1 + slope may miss the end radius by an ulp; the end is exact
        at = t == 1.0
        if np.count_nonzero(at):
            rays, radii = np.where(at, ray_b, rays), np.where(at, r2, radii)
        return (rays, radii)

    def _float_dist(self, a, b):
        (ray1, r1), (ray2, r2) = a, b
        # an overflowing distance is the kernel's, with its warning
        d = abs((r2 if ray1 == ray2 else -r2) - r1)
        return d if d <= _HUGE else None

    def _float_along(self, ends, t):
        r1, slope, ray_a, ray_b, _ = ends
        s = r1 + slope * t
        if abs(s) <= _HUGE:
            return (np.array([ray_a if s >= 0.0 else ray_b], dtype=np.int64),
                    np.array([abs(s)]))
        return None

    def _kinks(self, ends):
        # a segment between two rays passes the hub at t = r1 / (r1 + r2),
        # inside (0, 1) when neither end is the hub
        r1, slope, ray_a, ray_b, r2 = ends
        crosses = (ray_a != ray_b) & (r1 > 0.0) & (r2 > 0.0)
        return (np.where(crosses, r1, np.nan) / -slope)[:, None]

    def _stack(self, coords_list):
        rays = np.array([c[0] for c in coords_list], dtype=np.int64)
        rads = np.array([c[1] for c in coords_list], dtype=float)
        return (rays, rads)

    def _single(self, batch, i):
        return (int(batch[0][i]), float(batch[1][i]))

    def _sample(self, m, rng):
        rays = rng.integers(0, self.k, m)
        rads = np.abs(rng.normal(0.0, 1.0, m))
        return (rays.astype(np.int64), rads)

    def _coords_json(self, coords):
        return [int(coords[0]), float(coords[1])]


class ProductSpace(Space):
    """l2 product: squared distances add coordinatewise."""

    def __init__(self, left: Space, right: Space):
        if not isinstance(left, Space) or not isinstance(right, Space):
            raise DomainError("product factors must be spaces")
        self.left = left
        self.right = right
        self.name = "product(%s,%s)" % (left.name, right.name)

    def _key(self):
        return (self.left, self.right)

    def _validate(self, coords):
        if len(coords) != 2:
            raise DomainError("product points are (left coords, right coords)")
        return (self.left._validate(coords[0]), self.right._validate(coords[1]))

    def _dist(self, A, B):
        return np.hypot(self.left._dist(A[0], B[0]),
                        self.right._dist(A[1], B[1]))

    def _ends(self, A, B):
        left, dl = self.left._ends(A[0], B[0])
        right, dr = self.right._ends(A[1], B[1])
        return (left, right), np.hypot(dl, dr)

    def _along(self, ends, t):
        return (self.left._along(ends[0], t), self.right._along(ends[1], t))

    def _float_dist(self, a, b):
        dl = self.left._float_dist(a[0], b[0])
        dr = None if dl is None else self.right._float_dist(a[1], b[1])
        return None if dr is None else float(np.hypot(dl, dr))

    def _float_along(self, ends, t):
        left = self.left._float_along(ends[0], t)
        right = None if left is None else self.right._float_along(ends[1], t)
        return None if right is None else (left, right)

    def _kinks(self, ends):
        return np.concatenate((self.left._kinks(ends[0]),
                               self.right._kinks(ends[1])), axis=1)

    def _stack(self, coords_list):
        return (self.left._stack([c[0] for c in coords_list]),
                self.right._stack([c[1] for c in coords_list]))

    def _single(self, batch, i):
        return (self.left._single(batch[0], i), self.right._single(batch[1], i))

    def _sample(self, m, rng):
        return (self.left._sample(m, rng), self.right._sample(m, rng))

    def _coords_json(self, coords):
        return [self.left._coords_json(coords[0]),
                self.right._coords_json(coords[1])]


def euclidean(n: int) -> EuclideanSpace:
    return EuclideanSpace(n)


def half_plane() -> HalfPlaneSpace:
    return HalfPlaneSpace()


def spider(k: int) -> SpiderSpace:
    return SpiderSpace(k)


def product(left: Space, right: Space) -> ProductSpace:
    return ProductSpace(left, right)


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def _check_unit(t: float) -> float:
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise DomainError("t must lie in [0, 1]")
    return t


class Geodesic:
    """Constant-speed geodesic segment parametrized on [0, 1]."""

    __slots__ = ("space", "start", "end", "length", "_ends", "_floats")

    def __init__(self, start: Point, end: Point):
        if start.space != end.space:
            raise SpaceMismatchError("geodesic endpoints live in different "
                                     "spaces")
        ends, dist = start.space._ends(start.row, end.row)
        self._hold(start, end, ends, float(dist[0]))

    def _hold(self, start: Point, end: Point, ends, length: float):
        self.space = start.space
        self.start = start
        self.end = end
        self.length = length
        self._ends = ends
        # the float form of the constants, taken on the first eval
        self._floats = None
        return self

    def eval(self, t: float) -> Point:
        t = _check_unit(t)
        if t == 0.0:
            return self.start
        if t == 1.0:
            return self.end
        if self._floats is None:
            self._floats = _row_floats(self._ends)
        row = self.space._float_along(self._floats, t)
        if row is None:
            return _point_of_row(self.space,
                                 self.space._along(self._ends, np.array([t])))
        # the lane returns valid coordinates only
        return Point.__new__(Point)._hold(self.space, row)

    def eval_batch(self, ts) -> Any:
        ts = np.asarray(ts, dtype=float).ravel()
        if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):
            raise DomainError("geodesic parameters must lie in [0, 1]")
        return self.space._along(self._ends, ts)

    def restrict(self, t1: float, t2: float) -> "Geodesic":
        t1, t2 = float(t1), float(t2)
        if not (0.0 <= t1 < t2 <= 1.0):
            raise DomainError("restriction needs 0 <= t1 < t2 <= 1")
        # geodesics are unique in CAT(0): the sub-segment is the geodesic
        # between its end points
        return Geodesic(self.eval(t1), self.eval(t2))

    def __repr__(self) -> str:
        return "Geodesic(%r -> %r)" % (self.start, self.end)


def _take_rows(batch, rows):
    # batch[rows] of a coordinate or endpoint-constant batch, memberwise
    # for a tuple batch; a view when rows is a slice, and an index array
    # goes through take, the same gather as batch[rows] but many times
    # faster for the falsifier's long row arrays
    if isinstance(batch, tuple):
        return tuple(_take_rows(b, rows) for b in batch)
    if isinstance(rows, slice):
        return batch[rows]
    return batch.take(rows, axis=0)


def _row_floats(batch):
    # the one row of a coordinate or endpoint-constant batch as Python
    # numbers, memberwise for a tuple batch
    if isinstance(batch, tuple):
        return tuple(_row_floats(b) for b in batch)
    return batch.tolist()[0]


def _put_rows(batch, rows: np.ndarray, new) -> None:
    # batch[rows] = new, memberwise for a tuple batch
    if isinstance(batch, tuple):
        for b, n in zip(batch, new):
            _put_rows(b, rows, n)
    else:
        batch[rows] = new


def distance(p: Point, q: Point) -> float:
    """Distance between two points of the same space."""
    return p.space.distance(p, q)


def geodesic_point(x: Point, y: Point, t: float) -> Point:
    """The point at parameter t on the geodesic from x to y."""
    return Geodesic(x, y).eval(t)


def geodesic_restrict(g: Geodesic, t1: float, t2: float) -> Geodesic:
    """Sub-geodesic lam -> g((1-lam) t1 + lam t2)."""
    return g.restrict(t1, t2)


def _require_space(space: Space, *points: Point) -> None:
    for p in points:
        if p.space is not space and p.space != space:
            raise SpaceMismatchError("points belong to different spaces")


# ---------------------------------------------------------------------------
# comparison gaps: each returns (upper bound) - (value), batch and scalar
# ---------------------------------------------------------------------------


def _geodesic_points(space: Space, A, B, *ts) -> tuple:
    """The points at each of ts on the geodesics from A to B, and their
    lengths, from one endpoint stage; its constants are freed on return,
    before the caller computes its next distances.  The lengths are a
    fresh array, the caller's to overwrite."""
    ends, dist = space._ends(A, B)
    return [space._along(ends, t) for t in ts], dist


def cn_gap_batch(space: Space, P, X, Y) -> np.ndarray:
    (mid,), d2xy = _geodesic_points(space, X, Y, 0.5)
    d2xy **= 2
    d2px = space._dist(P, X) ** 2
    d2py = space._dist(P, Y) ** 2
    d2pm = space._dist(P, mid) ** 2
    return 0.5 * (d2px + d2py) - 0.25 * d2xy - d2pm


def busemann_gap_batch(space: Space, X, Y, Z) -> np.ndarray:
    # the stages' lengths are not needed and go at once
    m1 = _geodesic_points(space, X, Y, 0.5)[0][0]
    m2 = _geodesic_points(space, X, Z, 0.5)[0][0]
    return space._dist(Y, Z) - 2.0 * space._dist(m1, m2)


def comparison_gap_batch(space: Space, P, X0, X1, t) -> np.ndarray:
    tt = np.asarray(t, dtype=float)
    (xt,), d201 = _geodesic_points(space, X0, X1, tt)
    d201 **= 2
    d2p0 = space._dist(P, X0) ** 2
    d2p1 = space._dist(P, X1) ** 2
    d2pt = space._dist(P, xt) ** 2
    return (1.0 - tt) * d2p0 + tt * d2p1 - tt * (1.0 - tt) * d201 - d2pt


def four_point_gap_batch(space: Space, X0, X1, Y0, Y1, t) -> np.ndarray:
    tt = np.asarray(t, dtype=float)
    (xt, xs), dx = _geodesic_points(space, X0, X1, tt, 1.0 - tt)
    dy = space._dist(Y0, Y1)
    rhs = (space._dist(X0, Y0) ** 2 + space._dist(X1, Y1) ** 2
           + 2.0 * tt * tt * dx * dx + tt * (dy * dy - dx * dx)
           - tt * (dy - dx) ** 2)
    lhs = space._dist(xt, Y0) ** 2 + space._dist(xs, Y1) ** 2
    return rhs - lhs


def sturm_gap_batch(space: Space, X0, X1, Y0, Y1, t) -> np.ndarray:
    tt = np.asarray(t, dtype=float)
    (xt,), dx = _geodesic_points(space, X0, X1, tt)
    (yt,), dns = _geodesic_points(space, Y0, Y1, tt)
    dns -= dx
    del dx
    rhs = ((1.0 - tt) * space._dist(X0, Y0) ** 2
           + tt * space._dist(X1, Y1) ** 2
           - tt * (1.0 - tt) * dns * dns)
    return rhs - space._dist(xt, yt) ** 2


def _scalar_gap(batch_fn, space: Space, points: Sequence[Point],
                *extra) -> float:
    _require_space(space, *points)
    return float(batch_fn(space, *(p.row for p in points), *extra)[0])


def cn_gap(p: Point, x: Point, y: Point) -> float:
    """Slack in the midpoint (CN) inequality at p for the pair x, y."""
    return _scalar_gap(cn_gap_batch, p.space, (p, x, y))


def busemann_gap(x: Point, y: Point, z: Point) -> float:
    """d(y, z) minus twice the distance between the midpoints of [x,y], [x,z]."""
    return _scalar_gap(busemann_gap_batch, x.space, (x, y, z))


def comparison_gap(p: Point, x0: Point, x1: Point, t: float) -> float:
    """Slack in the quadratic comparison inequality along [x0, x1] at t."""
    t = _check_unit(t)
    return _scalar_gap(comparison_gap_batch, p.space, (p, x0, x1), t)


def four_point_gap(x0: Point, x1: Point, y0: Point, y1: Point,
                   t: float) -> float:
    """Slack in the four-point comparison estimate at parameter t."""
    t = _check_unit(t)
    return _scalar_gap(four_point_gap_batch, x0.space, (x0, x1, y0, y1), t)


def sturm_gap(g1: Geodesic, g2: Geodesic, t: float) -> float:
    """Slack in the two-geodesic comparison bound at parameter t.

    Bound: d^2(g2(t), g1(t)) <= (1-t) d^2(g2(0), g1(0))
    + t d^2(g2(1), g1(1)) - t(1-t) (d(g2(0), g2(1)) - d(g1(0), g1(1)))^2.
    """
    t = _check_unit(t)
    if g1.space != g2.space:
        raise SpaceMismatchError("geodesics live in different spaces")
    return _scalar_gap(sturm_gap_batch, g1.space,
                       (g1.start, g1.end, g2.start, g2.end), t)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_points(space: Space, m: int, rng: np.random.Generator):
    """Batch of m random points (coordinate-batch layout)."""
    return space._sample(m, rng)


def random_point(space: Space, rng: np.random.Generator) -> Point:
    return space.random_point(rng)


#: redraw rounds of `_random_ends` before it gives up.  A row redrawn
#: with probability p per round reaches the cap with probability p**100;
#: the falsifier's min_length 0.05 has p <= 0.02 on the model spaces
_MAX_ROUNDS = 100


def _random_ends(space: Space, m: int, rng: np.random.Generator,
                 min_length: float) -> tuple:
    """m starts and m ends at least min_length apart, drawn as batches: m
    starts, m ends, then new starts and ends for the rows that are too
    short, and again for those of them that still are, for at most
    _MAX_ROUNDS rounds (DomainError beyond); the lengths of each round
    come from one `_dist` call."""
    A, B = space._sample(m, rng), space._sample(m, rng)
    redo = np.flatnonzero(space._dist(A, B) < min_length)
    for _ in range(_MAX_ROUNDS):
        if not redo.size:
            break
        A2, B2 = space._sample(redo.size, rng), space._sample(redo.size, rng)
        _put_rows(A, redo, A2)
        _put_rows(B, redo, B2)
        redo = redo[space._dist(A2, B2) < min_length]
    if redo.size:
        raise DomainError("no geodesic of length >= min_length = %r in %d "
                          "redraw rounds on %s"
                          % (min_length, _MAX_ROUNDS, space.name))
    return A, B


def random_geodesic(space: Space, rng: np.random.Generator,
                    min_length: float = 1e-6) -> Geodesic:
    """Random geodesic with distinct endpoints: the one-row draw of
    `_random_ends`, built by `Geodesic(start, end)`.  min_length must be
    finite and nonnegative."""
    if not (math.isfinite(min_length) and min_length >= 0.0):
        raise DomainError("min_length must be finite and nonnegative")
    A, B = _random_ends(space, 1, rng, min_length)
    # the public constructor, which bench/tracing.py counts as a new
    # geodesic
    return Geodesic(_point_of_row(space, A), _point_of_row(space, B))


def _row_geodesic(space: Space, A, B, ends, dist, i: int) -> Geodesic:
    """Row i of the geodesics from A to B, with `ends, dist =
    space._ends(A, B)`, as `Geodesic(start, end)` makes it, from one-row
    views: its points are validated, nothing is recomputed."""
    row = slice(i, i + 1)
    return Geodesic.__new__(Geodesic)._hold(
        _point_of_row(space, _take_rows(A, row)),
        _point_of_row(space, _take_rows(B, row)), _take_rows(ends, row),
        float(dist[i]))
