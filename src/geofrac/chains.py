"""Hermite-Hadamard inequality chains and their verification.

Three scalar chains (classic, h-weighted, and the geodesic
midpoint/mean/endpoint chain) plus the fractional-operator chains, whose
operator sides fold the pullback f(gamma(u)) in u = x^rho (below).
Each evaluator returns an InequalityReport: labeled side values, the
consecutive margins, and a pass flag (every margin >= -tol).

The endpoint sides of the fractional chains carry constants of h alone
(`_exact_h_term`, `_k0_term`, `compute_E`).  The Katugampola integral of
phi(x^rho) is rho^(-alpha) times a Riemann-Liouville integral of phi in
u = x^rho (Katugampola, AMC 218, 2011), so after the chains'
rho^alpha Gamma(alpha+1) normalisation each such constant is
alpha Int w^(alpha-1) h(.) dw, one power-kernel integral in which rho
enters only through a^rho and b^rho.  For h = t^k (`HFunction.k` set)
these are Beta values B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y):

    exact h-term  alpha B(alpha + k, 1) = alpha / (alpha + k)
    k0 term       alpha B(alpha, k + 1)
    h_hh's mass   B(k + 1, 1) = 1 / (k + 1)
    ||h||_q       B(kq + 1, 1)^(1/q)   (in `fractional.lq_norm_unit`)

and a Beta argument <= 0 (a divergent integral) raises AccuracyError.
`compute_E` keeps quadrature: its closed form needs 2F1.  An h without
an exponent is integrated.

Only the geodesic operand goes through the Katugampola operators.
With u = x^rho, the right operator of fg(u) on [a, b] runs over the same
kernel range W = b^rho - a^rho as the left one, and its integrand at
kernel variable w is fg(a^rho + w) = fg(sigma - (b^rho - w)) with
sigma = a^rho + b^rho; on the reflected interval [s, c] of thm_ty1 and
the corollary (s^rho = 1 - b^rho, c^rho = 1 - a^rho) it is
fg(s^rho + w) = fg(1 - (b^rho - w)), sigma = 1.  So the two operators
are rho^(-alpha) times one fold integral

    (1/Gamma(alpha)) Int_0^W w^(alpha-1) [fg(u) + fg(sigma - u)] dw,

u = b^rho - w: the fractional Hermite-Hadamard reflection identity
(Sarikaya, Set, Yaldiz, Basak, Math. Comput. Modelling 57, 2013), and
both arguments go through the pullback in one batch.  The normalisation
cancels rho^(-alpha), so rho enters only through a^rho and b^rho, and
`compute_E` is the same fold of h with sigma = 1.  A public chain
reaches it through `katugampola_left` with rho = 1 on [a^rho, b^rho].
The fractional chains divide by (b^rho - a^rho)^alpha and raise
DomainError where it is 0.

Two printed formula variants with a suspected normalization problem are
computed alongside the asserted forms and stored in report extras rather
than asserted:
  * thm_cb2's right side: the asserted form uses the exact integral
    alpha rho Int t^(alpha rho - 1) h(t^rho) dt; the variant with an extra
    factor rho on that term is logged as right_side_literal.
  * corollary_distance's subtracted term: the asserted form scales the
    constant by alpha rho h(1/2) (the coefficient produced by integrating
    the two-geodesic comparison bound against the kernel; the interval
    normalization cancels in the substitution) and uses the squared
    difference of geodesic lengths; the bare-constant difference and
    product variants are logged in extras.

`falsify_search` hammers one chain with random admissible instances and
reports the worst margin and any violations beyond tolerance.  It draws
a chunk of instances as columns, each parameter, h and geometry column
in one call (the order is in its docstring), and the chunk stays columns
(`_Chunk`) up to the sides: a row becomes Points, Geodesics and an f
only for the worst row's instance.  Every drawn instance is admissible
by theorem, so none is prechecked: f = d(., y)^2 is geodesically convex
on a CAT(0) space, all four model spaces are CAT(0), f >= 0, and every
drawn h has h(t) >= t, so f is h-convex along every g (the `convexity`
module docstring).  A summary's "discarded" count is therefore always 0.
Each chain picks its points and integrals, and builds each row's sides
and extras, in one function, its `ChainSpec.rows` body.  The falsifier
runs the body on every row of a chunk and builds one report, the worst
row's; a public chain checks its inputs and runs it on its one trial
(`_OneTrial`), whose integrals are the public `integrate`,
`katugampola_left` (rho = 1) and `compute_E`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from .convexity import (HFunction, _distance_pullback_rows,
                        _geodesic_distance_rows, _power_h, check_h_convex,
                        distance_between_geodesics_function, h_function,
                        on_geodesic, squared_distance_function)
from .errors import AccuracyError, DomainError, SpaceMismatchError
from .fractional import _beta, katugampola_left, lq_norm_unit
from .quadrature import (_integrate_rows, _weighted_rows, as_array_function,
                         integrate, power_kernel_integral)
from .spaces import (Geodesic, Space, _point_of_row, _random_ends,
                     _read_only, _row_geodesic, _take_rows)

__all__ = ["TheoremParams", "InequalityReport", "classic_hh", "h_hh",
           "conde_hh", "thm_cb1", "thm_cb2", "thm_ty1", "compute_C",
           "compute_C_oracle", "compute_E", "corollary_distance",
           "falsify_search", "CHAIN_NAMES", "CHAINS", "ChainSpec",
           "chain_spec"]

DEFAULT_CHAIN_TOL = 1e-8


@dataclass(frozen=True)
class TheoremParams:
    """Order alpha, deformation rho, interval [a, b] in [0, 1], optional q."""

    alpha: float
    rho: float
    a: float
    b: float
    q: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError("alpha must be positive and finite")
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise DomainError("rho must be positive and finite")
        if not (0.0 <= self.a < self.b <= 1.0):
            raise DomainError("need 0 <= a < b <= 1")
        if self.q is not None:
            object.__setattr__(self, "q", float(self.q))
            if not (math.isfinite(self.q) and self.q > 1.0):
                raise DomainError("q must be finite and > 1")
            if self.alpha * self.q <= 1.0:
                # Hoelder conjugate exponent (alpha-1)q/(q-1) must stay
                # integrable, which needs alpha q > 1
                raise DomainError("need alpha * q > 1")

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "rho": self.rho, "a": self.a,
                "b": self.b, "q": self.q}


@dataclass(frozen=True)
class InequalityReport:
    """Evaluated chain: labeled sides, consecutive margins, pass flag."""

    chain_name: str
    sides: Tuple[Tuple[str, float], ...]
    margins: Tuple[float, ...]
    passed: bool
    tol: float
    instance: dict
    extras: dict

    def to_dict(self) -> dict:
        return {"chain_name": self.chain_name,
                "sides": [[label, value] for label, value in self.sides],
                "margins": list(self.margins),
                "pass": self.passed,
                "tol": self.tol,
                "instance": self.instance,
                "extras": self.extras}


def _report(chain_name: str, sides, tol: float, instance: dict,
            extras: Optional[dict] = None) -> InequalityReport:
    values = [float(v) for _, v in sides]
    labeled = tuple((label, float(v)) for label, v in sides)
    margins = tuple(values[i + 1] - values[i] for i in range(len(values) - 1))
    passed = all(m >= -tol for m in margins)
    return InequalityReport(chain_name, labeled, margins, passed, float(tol),
                            instance, extras or {})


def _geodesic_json(g: Geodesic) -> dict:
    return {"space": g.space.name,
            "start": g.space._coords_json(g.start.coords),
            "end": g.space._coords_json(g.end.coords)}


def _fname(f: Callable) -> str:
    return getattr(f, "__name__", "f")


# ---------------------------------------------------------------------------
# scalar chains
# ---------------------------------------------------------------------------


def classic_hh(f: Callable, a: float, b: float, *,
               tol: float = DEFAULT_CHAIN_TOL) -> InequalityReport:
    """Midpoint <= mean <= endpoint average, for f convex on [a, b]."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("need a < b")
    return _evaluate("classic_hh",
                     _OneTrial(as_array_function(f), interval=(a, b)), tol,
                     _mean_instance(f, None, a, b))


def _mean_instance(f: Callable, hf: Optional[HFunction], a: float,
                   b: float) -> dict:
    # classic_hh's instance, and h_hh's with its h
    h = {} if hf is None else {"h": hf.name}
    return {"f": _fname(f), **h, "a": a, "b": b}


def _pullback_instance(f: Callable, g: Geodesic,
                       h: Optional[Union[str, HFunction, Callable]],
                       p: TheoremParams) -> dict:
    # the table's classic_hh and h_hh instance, on the pullback of f along
    # g: f and g named as conde_hh names them, with h, a and b
    hf = None if h is None else h_function(h)
    return {**_mean_instance(f, hf, p.a, p.b), "geodesic": _geodesic_json(g)}


def h_hh(f: Callable, h: Union[str, HFunction, Callable], a: float, b: float,
         *, tol: float = DEFAULT_CHAIN_TOL) -> InequalityReport:
    """Weighted chain for h-convex f: the endpoint side carries Int h."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("need a < b")
    hf = h_function(h)
    h_half = float(hf(0.5))
    if not (math.isfinite(h_half) and h_half > 0.0):
        raise DomainError("h(1/2) must be positive")
    return _evaluate("h_hh",
                     _OneTrial(as_array_function(f), hf=hf, interval=(a, b)),
                     tol, _mean_instance(f, hf, a, b))


def conde_hh(f: Callable, g: Geodesic, *,
             tol: float = DEFAULT_CHAIN_TOL) -> InequalityReport:
    """Midpoint/mean/endpoint chain of f along one geodesic."""
    return _evaluate("conde_hh", _OneTrial(on_geodesic(f, g)), tol,
                     _conde_instance(f, g))


def _conde_instance(f: Callable, g: Geodesic) -> dict:
    return {"f": _fname(f), "geodesic": _geodesic_json(g)}


# ---------------------------------------------------------------------------
# fractional-operator chains
# ---------------------------------------------------------------------------


def _den(p: TheoremParams) -> float:
    return (p.b ** p.rho - p.a ** p.rho) ** p.alpha


def _fractional_params(p: TheoremParams) -> TheoremParams:
    # the chains divide by _den, 0 where b^rho rounds onto a^rho or where
    # the power underflows
    if not _den(p) > 0.0:
        raise DomainError("(b^rho - a^rho)^alpha is 0 at %r" % (p,))
    return p


def _exact_h_term(hf: HFunction, p: TheoremParams) -> float:
    # alpha rho Int_0^1 t^(alpha rho - 1) h(t^rho) dt; with v = t^rho it
    # is alpha Int_0^1 v^(alpha - 1) h(v) dv, free of the t^rho factor
    if hf.k is not None:
        return p.alpha * _beta(p.alpha + hf.k, 1.0)
    return p.alpha * power_kernel_integral(hf, 1.0, p.alpha)


def _k0_term(hf: HFunction, p: TheoremParams) -> float:
    # the normalised left operator of h(x^rho) on (0, 1):
    # alpha Int_0^1 w^(alpha - 1) h(1 - w) dw
    if hf.k is not None:
        return p.alpha * _beta(p.alpha, hf.k + 1.0)
    return p.alpha * power_kernel_integral(lambda w: hf(1.0 - w), 1.0,
                                           p.alpha)


def _folded(fg: Callable, u: np.ndarray, shift) -> np.ndarray:
    # fg(u) + fg(shift - u), both halves through the pullback in one batch
    both = fg(np.stack((u, np.clip(shift - u, 0.0, 1.0))))
    return both[0] + both[1]


def _operator_side(kl: float, p: TheoremParams, h_half: float) -> float:
    # the normalised operator side: kl is the fold integral of the left
    # operator on [a, b] plus the right one on [a, b] (shift = a^rho +
    # b^rho) or on the reflected interval (shift = 1)
    return math.gamma(p.alpha + 1.0) / _den(p) * h_half * kl


def _instance(f: Callable, g: Geodesic, hf: HFunction,
              p: TheoremParams) -> dict:
    return {"f": _fname(f), "h": hf.name, "params": p.to_dict(),
            "geodesic": _geodesic_json(g)}


def _fractional(chain: str, f: Callable, g: Geodesic,
                h: Union[str, HFunction, Callable], p: TheoremParams,
                tol: float) -> InequalityReport:
    # thm_cb1, thm_cb2 and thm_ty1 on the pullback of f along g
    hf = h_function(h)
    return _evaluate(chain, _OneTrial(on_geodesic(f, g), hf,
                                      _fractional_params(p)), tol,
                     _instance(f, g, hf, p))


def thm_cb1(f: Callable, g: Geodesic, h: Union[str, HFunction, Callable],
            params: TheoremParams, *,
            tol: float = DEFAULT_CHAIN_TOL) -> InequalityReport:
    """Fractional chain whose right side bounds the h-integral via Hoelder.

    Needs params.q; requires nonnegative f, h-convex along g (asserted by
    the caller).
    """
    if params.q is None:
        raise DomainError("thm_cb1 needs the Hoelder exponent q")
    return _fractional("thm_cb1", f, g, h, params, tol)


def thm_cb2(f: Callable, g: Geodesic, h: Union[str, HFunction, Callable],
            params: TheoremParams, *,
            tol: float = DEFAULT_CHAIN_TOL) -> InequalityReport:
    """Variant of thm_cb1 with the Hoelder bound replaced by the exact
    h-integral; no integrability exponent needed.

    The asserted right side uses alpha rho Int t^(alpha rho - 1) h(t^rho) dt;
    the variant with an extra factor rho on that term is logged in extras
    as right_side_literal.
    """
    return _fractional("thm_cb2", f, g, h, params, tol)


def thm_ty1(f: Callable, g: Geodesic, h: Union[str, HFunction, Callable],
            params: TheoremParams, *,
            tol: float = DEFAULT_CHAIN_TOL) -> InequalityReport:
    """Fractional chain pairing [a, b] with the reflected interval [s, c]."""
    return _fractional("thm_ty1", f, g, h, params, tol)


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------


def compute_C(alpha: float, rho: float, a: float, b: float) -> float:
    """Closed-form kernel constant of the corollary's subtracted term;
    `compute_C_oracle` evaluates the same constant by quadrature."""
    p = TheoremParams(alpha, rho, a, b)
    ar = p.a ** p.rho
    br = p.b ** p.rho
    num = ((ar * p.alpha + br) * (2.0 * (p.alpha + 2.0) - 4.0 * br)
           - 2.0 * ar * ar * p.alpha * (p.alpha + 1.0))
    den = p.alpha * p.rho * (p.alpha + 1.0) * (p.alpha + 2.0)
    return num / den


def compute_C_oracle(alpha: float, rho: float, a: float, b: float) -> float:
    """Quadrature oracle: Int_0^1 2 u (1 - u) t^(alpha rho - 1) dt with
    u = t^rho a^rho + (1 - t^rho) b^rho.  Accepts a == b probes."""
    alpha, rho, a, b = map(float, (alpha, rho, a, b))
    if not (math.isfinite(alpha) and alpha > 0.0
            and math.isfinite(rho) and rho > 0.0):
        raise DomainError("alpha and rho must be positive and finite")
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise DomainError("need a, b in [0, 1]")
    ar, br = a ** rho, b ** rho

    def g(t):
        u = br + np.power(t, rho) * (ar - br)
        return 2.0 * u * (1.0 - u)

    return power_kernel_integral(g, 1.0, alpha * rho)


def compute_E(h: Union[str, HFunction, Callable], alpha: float, rho: float,
              a: float, b: float) -> float:
    """Kernel constant of the reflected-interval chain's endpoint side.

    h(1/2) times the normalised left operator of h(x^rho) on [a, b] plus
    the right one on the reflected interval: the fold integral of h with
    shift 1 (module docstring),

        alpha h(1/2) Int_0^W w^(alpha-1) [h(u) + h(1 - u)] dw,

    u = b^rho - w and W = b^rho - a^rho.
    """
    p = TheoremParams(alpha, rho, a, b)
    hf = h_function(h)
    h_array = as_array_function(hf)  # a bare h may return a 0-d constant
    br = p.b ** p.rho
    return p.alpha * float(hf(0.5)) * power_kernel_integral(
        lambda w: _folded(h_array, np.maximum(br - w, 0.0), 1.0),
        br - p.a ** p.rho, p.alpha)


# ---------------------------------------------------------------------------
# corollary: squared distance between two geodesics
# ---------------------------------------------------------------------------


def _require_dominating_h(hf: HFunction) -> None:
    t = np.linspace(0.0, 1.0, 101)
    vals = hf(t)
    with np.errstate(invalid="ignore"):
        bad = ~(vals >= t - 1e-12)
    if np.any(np.isnan(vals)) or np.any(bad):
        raise DomainError("corollary needs h(t) >= t on [0, 1]")


def corollary_distance(g1: Geodesic, g2: Geodesic,
                       h: Union[str, HFunction, Callable],
                       params: TheoremParams, *,
                       tol: float = DEFAULT_CHAIN_TOL) -> InequalityReport:
    """Four-sided chain bounding the squared distance between geodesics.

    The third side subtracts alpha rho h(1/2) C (L2 - L1)^2 from the
    endpoint side, where L1, L2 are the geodesic lengths; that coefficient
    makes the comparison step an equality for collinear same-direction
    euclidean segments with h = identity, on the full interval and on
    sub-intervals alike.  Extras carry the bare-constant difference and
    product variants for comparison.
    """
    if g1.space != g2.space:
        raise SpaceMismatchError("geodesics live in different spaces")
    hf = h_function(h)
    _require_dominating_h(hf)
    return _evaluate("corollary_distance",
                     _OneTrial(distance_between_geodesics_function(g1, g2),
                               hf, _fractional_params(params),
                               lengths=(g1.length, g2.length)), tol,
                     _corollary_instance(g1, g2, hf, params))


def _corollary_instance(g1: Geodesic, g2: Geodesic, hf: HFunction,
                        p: TheoremParams) -> dict:
    return {"h": hf.name, "params": p.to_dict(),
            "g1": _geodesic_json(g1), "g2": _geodesic_json(g2)}


# ---------------------------------------------------------------------------
# chain bodies, on R falsifier trials or on one trial
# ---------------------------------------------------------------------------


def _values(results) -> list:
    # each row's value, or the AccuracyError of a row that did not converge
    return [v if isinstance(v, AccuracyError) else v[0] for v in results]


class _Chunk:
    """Falsifier draws as columns, and their R trials of one chain
    evaluated together.  The columns are the params and h lists, the
    batch ys of the reference points y of f = d(., y)^2 (None for two
    geodesics), and per geodesic batch its starts, ends, endpoint stage
    and lengths (A, B, ends, dist); they are read-only, so the row view
    that a Point or Geodesic of `objects` holds cannot change.
    `pull(ts, rows)` is every trial's pullback, line k of ts (..., K, m)
    on trial rows[k]; an integral is the row's AccuracyError where it
    does not converge.  The operator sides are one fold integral of every
    row (`_fold`), and E is another."""

    def __init__(self, space: Space, params: list, hs: list, ys,
                 geodesics: tuple):
        self.space, self.params, self.hs = space, params, hs
        self.ys = None if ys is None else _read_only(ys)
        self.geodesics = _read_only(geodesics)
        self.intervals = [(p.a, p.b) for p in params]
        self.index = np.arange(len(params))
        # each row's exponent of h = t**k; k = 1 (identity) without h
        self.k = np.array([1.0 if hf is None else hf.k for hf in hs])
        # each row's geodesic lengths, and the endpoint-stage batches
        self.lengths = list(zip(*(g[3].tolist() for g in geodesics)))
        ends = [g[2] for g in geodesics]
        if ys is None:
            self.pull = _geodesic_distance_rows(space, *ends)
        else:
            self.pull = _distance_pullback_rows(space, *ends, ys, 2.0)

    def objects(self, i: int) -> tuple:
        """Row i as ChainSpec.evaluate's (f, g, h, params): g is a
        Geodesic, or a pair for two geodesics, whose f is None."""
        gs = tuple(_row_geodesic(self.space, *batch, i)
                   for batch in self.geodesics)
        if self.ys is None:
            return None, gs, self.hs[i], self.params[i]
        y = _point_of_row(self.space, _take_rows(self.ys, slice(i, i + 1)))
        return (squared_distance_function(self.space, y, 2.0), gs[0],
                self.hs[i], self.params[i])

    def at(self, ts) -> np.ndarray:
        """The pullbacks at ts, R rows of parameters."""
        return self.pull(np.array(ts, dtype=float), self.index)

    def means(self, ab) -> list:
        """Int_a^b of the pullback, per row (a, b)."""
        lo, hi = zip(*ab)
        return _values(_integrate_rows(self.pull, lo, hi, [1.0] * len(lo)))

    def _fold(self, phi: Callable, shifts, scales) -> list:
        """scale times Int_0^W w^(alpha-1) [phi(u, rows) + phi(shift - u,
        rows)] dw per row, u = b^rho - w and W = b^rho - a^rho: every
        row's node map and shift in one array expression, one
        `_weighted_rows` call."""
        shift = np.array(shifts, dtype=float)
        brs = [p.b ** p.rho for p in self.params]
        ends = np.array(brs)
        values = _values(_weighted_rows(
            lambda w, rows: _folded(lambda x: phi(x, rows),
                                    np.maximum(ends[rows, None] - w, 0.0),
                                    shift[rows, None]),
            [0.0] * len(brs),
            [br - p.a ** p.rho for br, p in zip(brs, self.params)],
            [p.alpha for p in self.params]))
        return [v if isinstance(v, AccuracyError) else scale * v
                for v, scale in zip(values, scales)]

    def operators(self, shifts) -> list:
        """The fold integral of u -> fg(u) + fg(shift - u) over Gamma(alpha),
        `katugampola_left` with rho = 1 on [a^rho, b^rho]
        (`_OneTrial.operators`)."""
        return self._fold(self.pull, shifts,
                          [1.0 / math.gamma(p.alpha) for p in self.params])

    def e_values(self) -> list:
        """`compute_E` of each row: alpha h(1/2) times the fold of
        u -> h(u) + h(1 - u), h = t**k one power of the drawn exponent
        column, h(1/2) = 0.5**k.  It is `compute_E` bit for bit but on
        numpy's scalar-exponent fast paths (k = -1, 0.5, 2); the falsifier
        never draws k = -1, and draws exactly 0.5 or 2 with negligible
        probability."""
        k = self.k
        return self._fold(lambda x, rows: x ** k[rows, None], [1.0] * len(k),
                          [p.alpha * h_half for p, h_half
                           in zip(self.params, (0.5 ** k).tolist())])


class _OneTrial:
    """A public chain's one trial, with the four evaluation methods of a
    falsifier `_Chunk`: fg is its pullback (f itself for classic_hh and
    h_hh, on their own interval), and its integrals are the public
    `integrate`, `katugampola_left` and `compute_E`, whose AccuracyError
    propagates.  Its operator side is the fold integral as
    `katugampola_left` with rho = 1 on [a^rho, b^rho], whose node map is
    then u = b^rho - w."""

    def __init__(self, fg: Callable, hf: Optional[HFunction] = None,
                 params: Optional[TheoremParams] = None, interval=None,
                 lengths=None):
        self.fg = fg
        self.params, self.hs, self.intervals = [params], [hf], [interval]
        self.lengths = [lengths]

    def at(self, ts) -> np.ndarray:
        return self.fg(np.array(ts, dtype=float))

    def means(self, ab) -> list:
        [(a, b)] = ab
        return [integrate(self.fg, a, b)]

    def operators(self, shifts) -> list:
        [shift], [p] = shifts, self.params
        return [katugampola_left(lambda u: _folded(self.fg, u, shift),
                                 p.alpha, 1.0, p.a ** p.rho, p.b ** p.rho)]

    def e_values(self) -> list:
        [hf], [p] = self.hs, self.params
        return [compute_E(hf, p.alpha, p.rho, p.a, p.b)]


def _evaluate(chain: str, trial: _OneTrial, tol: float,
              instance: dict) -> InequalityReport:
    # a public chain: its ChainSpec.rows body on its one trial
    [row] = CHAINS[chain].rows(trial)
    if isinstance(row, AccuracyError):
        raise row
    return _report(chain, row[0], tol, instance, row[1])


def _row_sides(sides_of: Callable, *columns) -> list:
    # sides_of(*row) -> (sides, extras) per row; a row whose integral or
    # constant raises AccuracyError carries the error
    out = []
    for row in zip(*columns):
        failed = [v for v in row if isinstance(v, AccuracyError)]
        if failed:
            out.append(failed[0])
            continue
        try:
            out.append(sides_of(*row))
        except AccuracyError as exc:
            out.append(exc)
    return out


def _mean_rows(unit: bool, rows) -> list:
    # classic_hh and h_hh on [a, b], conde_hh on [0, 1]: the midpoint, the
    # mean and the endpoint average; h_hh divides the midpoint by 2 h(1/2)
    # and weighs the endpoints by Int_0^1 h, 1/(k + 1) for h = t^k
    ab = [(0.0, 1.0)] * len(rows.hs) if unit else rows.intervals

    def sides(hf, ends, v, integral):
        mean = ("mean", integral / (ends[1] - ends[0]))
        if hf is None:
            return [("midpoint", float(v[0])), mean,
                    ("endpoints", float(v[1] + v[2]) / 2.0)], None
        if hf.k is None:
            h_mass = integrate(hf, 0.0, 1.0)
        else:
            h_mass = _beta(hf.k + 1.0, 1.0)
        return ([("midpoint", float(v[0]) / (2.0 * float(hf(0.5)))), mean,
                 ("endpoints", float(v[1] + v[2]) * h_mass)],
                {"h_mass": h_mass})

    return _row_sides(sides, rows.hs, ab,
                      rows.at([[0.5 * (a + b), a, b] for a, b in ab]),
                      rows.means(ab))


def _thm_cb_rows(holder: bool, rows) -> list:
    # thm_cb1 (holder: the Hoelder bound of the h-integral) and thm_cb2
    # (its exact value): the pullback at the midpoint and the ends of
    # [a^rho, b^rho], and the operator side with shift a^rho + b^rho
    ends = [(p.a ** p.rho, p.b ** p.rho) for p in rows.params]

    def sides(hf, p, v, kl):
        h_half = float(hf(0.5))
        if holder:
            term = (p.alpha * ((p.q - 1.0) / (p.alpha * p.q - 1.0))
                    ** ((p.q - 1.0) / p.q) * lq_norm_unit(hf, p.q))
        else:
            term = _exact_h_term(hf, p)
        k0 = _k0_term(hf, p)
        f_ends = float(v[1] + v[2])
        right = h_half * f_ends * (term + k0)
        if holder:
            extras = {"holder_bound": term, "k0_term": k0}
        else:
            literal = h_half * f_ends * (p.rho * term + k0)
            extras = {"exact_h_term": term, "k0_term": k0,
                      "right_side_literal": literal,
                      "literal_minus_canonical": literal - right}
        return [("midpoint", float(v[0])),
                ("operators", _operator_side(kl, p, h_half)),
                ("endpoints", right)], extras

    return _row_sides(sides, rows.hs, rows.params,
                      rows.at([[0.5 * (a + b), a, b] for a, b in ends]),
                      rows.operators([a + b for a, b in ends]))


def _reflected_rows(rows):
    # the pullback at 1/2, 0 and 1, the operator side on the reflected
    # interval and E: the inputs of thm_ty1 and the corollary
    n = len(rows.params)
    return (rows.at([[0.5, 0.0, 1.0]] * n), rows.operators([1.0] * n),
            rows.e_values())


def _thm_ty1_rows(rows) -> list:
    def sides(hf, p, v, kl, e_val):
        return [("midpoint", float(v[0])),
                ("operators", _operator_side(kl, p, float(hf(0.5)))),
                ("endpoints", float(v[1] + v[2]) * e_val / _den(p))], None

    return _row_sides(sides, rows.hs, rows.params, *_reflected_rows(rows))


def _corollary_rows(rows) -> list:
    # the endpoint bound minus alpha rho h(1/2) C (L2 - L1)^2, and the
    # bare-constant variants in extras
    def sides(hf, p, lengths, v, kl, e_val):
        l1, l2 = lengths
        h_half = float(hf(0.5))
        c_val = compute_C(p.alpha, p.rho, p.a, p.b)
        delta = l2 - l1
        bound = float(v[1] + v[2]) * e_val / _den(p)
        coef = p.alpha * p.rho * h_half
        extras = {"c_value": c_val, "e_value": e_val,
                  "length_difference": delta, "c_coefficient": coef,
                  "right_difference_bare_c": bound - c_val * delta * delta,
                  "right_product_bare_c":
                      bound - c_val * (l1 * l2) ** 2}
        return [("midpoint", float(v[0])),
                ("operators", _operator_side(kl, p, h_half)),
                ("endpoints_minus_c", bound - coef * c_val * delta * delta),
                ("endpoints", bound)], extras

    return _row_sides(sides, rows.hs, rows.params, rows.lengths,
                      *_reflected_rows(rows))


# ---------------------------------------------------------------------------
# chain table
# ---------------------------------------------------------------------------


class ChainSpec(NamedTuple):
    """How one chain is instantiated and evaluated.

    evaluate(f, g, h, params, tol=...) returns the report.  f is a space
    function and g a geodesic; for a two_geodesics chain g is a pair of
    geodesics and f is unused.  h is None unless takes_h, and
    params.q is None unless needs_q.  The evaluators reach the chains
    through their module-level names, so rebinding a name takes effect.
    rows(rows) is the chain's one body: it evaluates a falsifier `_Chunk`
    or a public chain's `_OneTrial` and returns per row its labeled sides
    and its extras (None when the chain has none), or the row's
    AccuracyError; `_report` turns a row into the report.
    instance(f, g, h, params) is evaluate's instance, from the chain's own
    helper.
    """

    evaluate: Callable[..., InequalityReport]
    rows: Callable[[Union[_Chunk, _OneTrial]], list]
    instance: Callable[..., dict]
    takes_h: bool = True
    needs_q: bool = False
    two_geodesics: bool = False


CHAINS = {
    "classic_hh": ChainSpec(
        lambda f, g, h, p, **kw: replace(
            classic_hh(on_geodesic(f, g), p.a, p.b, **kw),
            instance=_pullback_instance(f, g, h, p)),
        functools.partial(_mean_rows, False),
        _pullback_instance, takes_h=False),
    "h_hh": ChainSpec(
        lambda f, g, h, p, **kw: replace(
            h_hh(on_geodesic(f, g), h, p.a, p.b, **kw),
            instance=_pullback_instance(f, g, h, p)),
        functools.partial(_mean_rows, False),
        _pullback_instance),
    "conde_hh": ChainSpec(lambda f, g, h, p, **kw: conde_hh(f, g, **kw),
                          functools.partial(_mean_rows, True),
                          lambda f, g, h, p: _conde_instance(f, g),
                          takes_h=False),
    "thm_cb1": ChainSpec(lambda f, g, h, p, **kw: thm_cb1(f, g, h, p, **kw),
                         functools.partial(_thm_cb_rows, True),
                         _instance, needs_q=True),
    "thm_cb2": ChainSpec(lambda f, g, h, p, **kw: thm_cb2(f, g, h, p, **kw),
                         functools.partial(_thm_cb_rows, False),
                         _instance),
    "thm_ty1": ChainSpec(lambda f, g, h, p, **kw: thm_ty1(f, g, h, p, **kw),
                         _thm_ty1_rows, _instance),
    "corollary_distance": ChainSpec(
        lambda f, g, h, p, **kw: corollary_distance(*g, h, p, **kw),
        _corollary_rows, lambda f, g, h, p: _corollary_instance(*g, h, p),
        two_geodesics=True),
}

CHAIN_NAMES = tuple(CHAINS)


def chain_spec(chain: str) -> ChainSpec:
    """The table entry of a chain; DomainError for unknown names."""
    if chain not in CHAINS:
        raise DomainError("unknown chain %r; expected one of %s"
                          % (chain, ", ".join(CHAIN_NAMES)))
    return CHAINS[chain]


# ---------------------------------------------------------------------------
# randomized falsification
# ---------------------------------------------------------------------------

_H_DOMINATING = ("identity", "constant_one", "power")

#: falsifier draws per chunk; a chunk's trials are evaluated as one
#: batch, whose arrays grow with it
CHUNK = 64


def _draw_params(spec: ChainSpec, m: int,
                 rng: np.random.Generator) -> list:
    # m draws of alpha, then of rho, a and b (and of q); thm_cb1 redraws
    # alpha and q of the rows with alpha q <= 1.05, and only those
    alpha = rng.uniform(0.25, 3.0, m)
    rho = rng.uniform(0.5, 2.5, m)
    a = rng.uniform(0.0, 0.9, m)
    b = rng.uniform(a + 0.05, 1.0)
    q = [None] * m
    if spec.needs_q:
        q = rng.uniform(1.5, 4.0, m)
        redo = np.flatnonzero(alpha * q <= 1.05)
        while redo.size:
            alpha[redo] = rng.uniform(0.25, 3.0, redo.size)
            q[redo] = rng.uniform(1.5, 4.0, redo.size)
            redo = redo[alpha[redo] * q[redo] <= 1.05]
        q = q.tolist()
    return [TheoremParams(*row) for row in zip(
        alpha.tolist(), rho.tolist(), a.tolist(), b.tolist(), q)]


def _draw_hs(m: int, rng: np.random.Generator) -> list:
    # m kinds, then m exponents, which only the power rows use; restricted
    # to catalog members with h(t) >= t and finite chain integrals
    # (godunova_levin fails the second requirement)
    kinds = rng.integers(0, len(_H_DOMINATING), m).tolist()
    ks = rng.uniform(0.25, 1.0, m).tolist()
    return [_power_h(k) if _H_DOMINATING[kind] == "power"
            else h_function(_H_DOMINATING[kind])
            for kind, k in zip(kinds, ks)]


def _draw_trials(spec: ChainSpec, space: Space, trials: int,
                 rng: np.random.Generator) -> _Chunk:
    # the next `trials` draws of falsify_search as one chunk; the columns
    # are drawn in the order of falsify_search's docstring
    params = _draw_params(spec, trials, rng)
    hs = _draw_hs(trials, rng) if spec.takes_h else [None] * trials
    ys = None if spec.two_geodesics else space._sample(trials, rng)
    drawn = [_random_ends(space, trials, rng, 0.05)
             for _ in range(1 + spec.two_geodesics)]
    return _Chunk(space, params, hs, ys, tuple(
        (A, B) + space._ends(A, B) for A, B in drawn))


def _whole(name: str, value) -> int:
    # trials and seed: an integral number >= 0
    try:
        whole = int(value) == value and value >= 0
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise DomainError("%s must be an integer >= 0" % name)
    return int(value)


def falsify_search(chain: str, space: Space, trials: int, seed: int = 0,
                   tol: float = DEFAULT_CHAIN_TOL, *,
                   product_c_term: bool = False) -> dict:
    """Randomized search for chain violations beyond tol.

    Every drawn instance satisfies the chain's convexity precondition by
    theorem (module docstring), so none is discarded: "discarded" is
    always 0.  Quadrature failures are counted, not treated as
    violations, and skipped.  Identical (chain, space, trials,
    seed, tol) inputs give identical summaries; trials and seed must be
    integers >= 0 and tol positive and finite.

    Instances come from one random stream in chunks of m = CHUNK draws
    (fewer in the last chunk).  A chunk is drawn column by column, each
    column one call for all m rows, in this order: alpha, rho, a, b
    (uniform on [a + 0.05, 1]), and for thm_cb1 q, after which alpha
    and q are redrawn for the rows with alpha q <= 1.05 alone, until
    none is left; the h kinds and the power exponents, when the chain
    takes h; the reference points y of f = d(., y)^2, unless the chain
    takes two geodesics; then the geodesics' starts and ends, after
    which starts and ends are redrawn for the rows shorter than 0.05
    alone, until none is left (the corollary draws its first and then
    its second geodesics so).  Every trial of the chunk is evaluated,
    together from its columns, by the chain's body (`ChainSpec.rows`).
    A row that carries an AccuracyError counts as a quadrature failure.
    A row's margins come from its sides, as its report takes them; the
    one report built, the worst row's with `ChainSpec.instance` of its
    objects, becomes worst_instance; ties go to the first trial.  A chain
    with one geodesic runs the public `check_h_convex(f, g, h, seed=0)`
    once, on those objects (h = identity for a chain without h); its
    verdict is not read.

    product_c_term swaps the corollary's third side for the bare-constant
    product variant (`extras["right_product_bare_c"]`) in the margins, the
    violation count and worst_instance, whose third side is then labeled
    endpoints_minus_c_product; it is a probe of that printed form, so
    violations under it are expected and reported, not a defect.
    """
    spec = chain_spec(chain)
    if product_c_term and chain != "corollary_distance":
        raise DomainError("product_c_term only applies to"
                          " corollary_distance")
    trials, seed = _whole("trials", trials), _whole("seed", seed)
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError("tol must be positive and finite")
    rng = np.random.default_rng(seed)
    evaluated = failures = violations = 0
    worst_margin = worst = None
    for start in range(0, trials, CHUNK):
        draws = min(CHUNK, trials - start)
        chunk = _draw_trials(spec, space, draws, rng)
        for i, row in enumerate(spec.rows(chunk)):
            if isinstance(row, AccuracyError):
                failures += 1
                continue
            evaluated += 1
            sides, extras = row
            if product_c_term:
                sides = [*sides[:2], ("endpoints_minus_c_product",
                                      extras["right_product_bare_c"]),
                         *sides[3:]]
            values = [float(v) for _, v in sides]
            margins = [b - a for a, b in zip(values, values[1:])]
            violations += not all(m >= -tol for m in margins)
            margin = min(margins)
            if worst_margin is None or margin < worst_margin:
                worst_margin, worst = margin, (chunk, i, sides, extras)
    worst_instance = None
    if worst is not None:
        chunk, i, sides, extras = worst
        f, g, hf, _ = objects = chunk.objects(i)
        if not spec.two_geodesics:
            # the only convexity call left in the falsifier; its verdict
            # holds by theorem and is not read.  It keeps the benchmark's
            # traced counters of check_h_convex and eval_batch
            # (bench/tracing.py) nonzero until ROADMAP item 9
            check_h_convex(f, g, hf or "identity", seed=0)
        worst_instance = _report(chain, sides, tol, spec.instance(*objects),
                                 extras).to_dict()
    summary = {"chain": chain, "space": space.name, "trials": trials,
               "seed": seed, "tol": float(tol), "evaluated": evaluated,
               "discarded": 0, "quadrature_failures": failures,
               "violations": violations, "worst_margin": worst_margin,
               "worst_instance": worst_instance}
    if chain == "corollary_distance":
        summary["c_term"] = "product" if product_c_term else "difference"
    return summary

