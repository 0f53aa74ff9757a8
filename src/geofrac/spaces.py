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
formula for every pair, vertical or not.  Spider geodesics run piecewise
through the hub.  Product geodesics interpolate coordinatewise.

On top of the spaces the module exposes comparison quantities, each
returned as (bound) - (value) so nonnegative results certify the defining
inequality: cn_gap (midpoint inequality), busemann_gap (convexity of the
distance between geodesics issuing from one point), comparison_gap (the
quadratic comparison along a geodesic), four_point_gap, and sturm_gap (the
comparison bound for the distance between two geodesics, with the squared
difference of endpoint distances subtracted).

Internally every space operates on coordinate batches (vectorized over a
leading axis) so that bulk randomized checks stay cheap; the public Point
and Geodesic layer wraps batches of size one.  Each space writes its
geodesic formula once, in two stages: an endpoint stage (`_ends`) turns
two endpoint batches into per-row constants, and a parameter stage
(`_along`) broadcasts those constants against the parameters t.  The batch
primitive `_interp` is their composition; a Geodesic runs the endpoint
stage once and every evaluation only the parameter stage.
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
    """A point of a model space; coords layout is space-specific."""

    __slots__ = ("space", "coords")

    def __init__(self, space: "Space", coords: Any):
        self.space = space
        self.coords = space._validate(coords)

    def to_dict(self) -> dict:
        return {"space": self.space.name,
                "coords": self.space._coords_json(self.coords)}

    def __repr__(self) -> str:
        return "Point(%s, %s)" % (self.space.name,
                                  self.space._coords_json(self.coords))


class Space:
    """Common interface: validated points, batch distance, batch geodesics.

    Geodesics come from two stages that subclasses provide:
    `_ends(A, B)` computes per-row constants from the endpoint batches, and
    `_along(ends, t)` evaluates them at parameters t, broadcasting a single
    row against many parameters or many rows against one parameter each.
    `_interp(A, B, t)` is the composition of the two.
    """

    name: str = "abstract"

    # -- public layer -----------------------------------------------------

    def point(self, *coords) -> Point:
        if len(coords) == 1 and isinstance(coords[0], (list, tuple, np.ndarray)):
            coords = tuple(coords[0])
        return Point(self, coords)

    def distance(self, p: Point, q: Point) -> float:
        _require_space(self, p, q)
        return float(self._dist(self._stack([p.coords]),
                                self._stack([q.coords]))[0])

    def geodesic(self, p: Point, q: Point) -> "Geodesic":
        return Geodesic(p, q)

    def random_point(self, rng: np.random.Generator) -> Point:
        return Point(self, self._single(self._sample(1, rng), 0))

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()

    # -- batch layer (subclass responsibility) -----------------------------

    def _validate(self, coords):
        raise NotImplementedError

    def _dist(self, A, B) -> np.ndarray:
        raise NotImplementedError

    def _interp(self, A, B, t) -> Any:
        return self._along(self._ends(A, B), t)

    def _ends(self, A, B) -> Any:
        raise NotImplementedError

    def _along(self, ends, t) -> Any:
        raise NotImplementedError

    def _stack(self, coords_list: Sequence[Any]):
        raise NotImplementedError

    def _single(self, batch, i: int):
        raise NotImplementedError

    def _sample(self, m: int, rng: np.random.Generator):
        raise NotImplementedError

    def _coords_json(self, coords):
        raise NotImplementedError


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
        if arr.shape != (self.n,) or not np.all(np.isfinite(arr)):
            raise DomainError("expected %d finite coordinates" % self.n)
        return arr

    def _dist(self, A, B):
        return np.linalg.norm(A - B, axis=-1)

    def _ends(self, A, B):
        return A, B, B - A

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
        return np.array(batch[i], dtype=float)

    def _sample(self, m, rng):
        return rng.normal(0.0, 1.0, (m, self.n))

    def _coords_json(self, coords):
        return [float(v) for v in coords]


class HalfPlaneSpace(Space):
    """Poincare upper half-plane, curvature -1."""

    name = "half_plane"

    def _validate(self, coords):
        arr = np.asarray(coords, dtype=float).reshape(-1)
        if arr.shape != (2,) or not np.all(np.isfinite(arr)) or arr[1] <= 0.0:
            raise DomainError("half-plane points are (x, y) with y > 0")
        return arr

    def _dist(self, A, B):
        dx = A[:, 0] - B[:, 0]
        dy = A[:, 1] - B[:, 1]
        # 2 asinh(|z1 - z2| / (2 sqrt(y1 y2))) keeps the digits of close
        # pairs that arccosh(1 + ...) rounds away
        return 2.0 * np.arcsinh(np.sqrt((dx * dx + dy * dy)
                                        / (4.0 * A[:, 1] * B[:, 1])))

    def _ends(self, A, B):
        # below the floor sinh(s d) / sinh d equals s to double precision,
        # and a zero-length geodesic keeps finite weights
        d = np.maximum(self._dist(A, B), 1e-8)
        s = np.sinh(d)
        return A, B, d, 1.0 / (A[:, 1] * s), 1.0 / (B[:, 1] * s)

    def _along(self, ends, t):
        A, B, d, w1, w2 = ends
        t = np.asarray(t, dtype=float)
        c1 = np.sinh((1.0 - t) * d) * w1
        c2 = np.sinh(t * d) * w2
        y = 1.0 / (c1 + c2)
        out = np.stack(((c1 * A[:, 0] + c2 * B[:, 0]) * y, y), axis=-1)
        # the ends are exact, not the roundoff of the weights
        for at, P in ((t == 0.0, A), (t == 1.0, B)):
            if np.count_nonzero(at):
                out = np.where(at[..., None], P, out)
        return out

    def _stack(self, coords_list):
        return np.asarray(coords_list, dtype=float).reshape(len(coords_list), 2)

    def _single(self, batch, i):
        return np.array(batch[i], dtype=float)

    def _sample(self, m, rng):
        x = rng.normal(0.0, 1.0, m)
        y = rng.lognormal(0.0, 0.5, m)
        return np.stack((x, y), axis=-1)

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
        return np.where(rays1 == rays2, np.abs(r1 - r2), r1 + r2)

    def _ends(self, A, B):
        rays1, r1 = A
        rays2, r2 = B
        # signed radius s = r1 + slope t: while s >= 0 the point sits at
        # radius s on the first ray; a segment between two rays passes the
        # hub where s turns negative and goes on along the second ray at
        # radius -s (from a hub start, s >= 0 holds only at t = 0)
        slope = np.where(rays1 == rays2, r2 - r1, -(r1 + r2))
        return r1, slope, rays1, rays2, r2

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
        return (self.left._ends(A[0], B[0]), self.right._ends(A[1], B[1]))

    def _along(self, ends, t):
        return (self.left._along(ends[0], t), self.right._along(ends[1], t))

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


def _check_unit(t: float, what: str = "t") -> float:
    t = float(t)
    if not (0.0 <= t <= 1.0):
        raise DomainError("%s must lie in [0, 1]" % what)
    return t


class Geodesic:
    """Constant-speed geodesic segment parametrized on [0, 1]."""

    __slots__ = ("space", "start", "end", "length", "_ends")

    def __init__(self, start: Point, end: Point):
        if start.space != end.space:
            raise SpaceMismatchError("geodesic endpoints live in different "
                                     "spaces")
        space = self.space = start.space
        self.start = start
        self.end = end
        A = space._stack([start.coords])
        B = space._stack([end.coords])
        self.length = float(space._dist(A, B)[0])
        self._ends = space._ends(A, B)

    def eval(self, t: float) -> Point:
        t = _check_unit(t)
        if t == 0.0:
            return self.start
        if t == 1.0:
            return self.end
        batch = self.space._along(self._ends, np.array([t]))
        return Point(self.space, self.space._single(batch, 0))

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


def distance(p: Point, q: Point) -> float:
    """Distance between two points of the same space."""
    _require_space(p.space, p, q)
    return p.space.distance(p, q)


def geodesic_point(x: Point, y: Point, t: float) -> Point:
    """The point at parameter t on the geodesic from x to y."""
    return Geodesic(x, y).eval(t)


def geodesic_restrict(g: Geodesic, t1: float, t2: float) -> Geodesic:
    """Sub-geodesic lam -> g((1-lam) t1 + lam t2)."""
    return g.restrict(t1, t2)


def _require_space(space: Space, *points: Point) -> None:
    for p in points:
        if p.space != space:
            raise SpaceMismatchError("points belong to different spaces")


# ---------------------------------------------------------------------------
# comparison gaps: each returns (upper bound) - (value), batch and scalar
# ---------------------------------------------------------------------------


def cn_gap_batch(space: Space, P, X, Y) -> np.ndarray:
    mid = space._interp(X, Y, 0.5)
    d2px = space._dist(P, X) ** 2
    d2py = space._dist(P, Y) ** 2
    d2xy = space._dist(X, Y) ** 2
    d2pm = space._dist(P, mid) ** 2
    return 0.5 * (d2px + d2py) - 0.25 * d2xy - d2pm


def busemann_gap_batch(space: Space, X, Y, Z) -> np.ndarray:
    m1 = space._interp(X, Y, 0.5)
    m2 = space._interp(X, Z, 0.5)
    return space._dist(Y, Z) - 2.0 * space._dist(m1, m2)


def comparison_gap_batch(space: Space, P, X0, X1, t) -> np.ndarray:
    tt = np.asarray(t, dtype=float)
    xt = space._interp(X0, X1, tt)
    d2p0 = space._dist(P, X0) ** 2
    d2p1 = space._dist(P, X1) ** 2
    d201 = space._dist(X0, X1) ** 2
    d2pt = space._dist(P, xt) ** 2
    return (1.0 - tt) * d2p0 + tt * d2p1 - tt * (1.0 - tt) * d201 - d2pt


def four_point_gap_batch(space: Space, X0, X1, Y0, Y1, t) -> np.ndarray:
    tt = np.asarray(t, dtype=float)
    xt = space._interp(X0, X1, tt)
    xs = space._interp(X0, X1, 1.0 - tt)
    dx = space._dist(X0, X1)
    dy = space._dist(Y0, Y1)
    rhs = (space._dist(X0, Y0) ** 2 + space._dist(X1, Y1) ** 2
           + 2.0 * tt * tt * dx * dx + tt * (dy * dy - dx * dx)
           - tt * (dy - dx) ** 2)
    lhs = space._dist(xt, Y0) ** 2 + space._dist(xs, Y1) ** 2
    return rhs - lhs


def sturm_gap_batch(space: Space, X0, X1, Y0, Y1, t) -> np.ndarray:
    tt = np.asarray(t, dtype=float)
    xt = space._interp(X0, X1, tt)
    yt = space._interp(Y0, Y1, tt)
    dns = space._dist(Y0, Y1) - space._dist(X0, X1)
    rhs = ((1.0 - tt) * space._dist(X0, Y0) ** 2
           + tt * space._dist(X1, Y1) ** 2
           - tt * (1.0 - tt) * dns * dns)
    return rhs - space._dist(xt, yt) ** 2


def _scalar_gap(batch_fn, space: Space, points: Sequence[Point],
                *extra) -> float:
    _require_space(space, *points)
    stacks = [space._stack([p.coords]) for p in points]
    return float(batch_fn(space, *stacks, *extra)[0])


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


def random_geodesic(space: Space, rng: np.random.Generator,
                    min_length: float = 1e-6) -> Geodesic:
    """Random geodesic with distinct endpoints."""
    while True:
        p = space.random_point(rng)
        q = space.random_point(rng)
        g = Geodesic(p, q)
        if g.length >= min_length:
            return g
