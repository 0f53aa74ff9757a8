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

and a Beta argument <= 0 (a divergent integral) raises AccuracyError; an
h without an exponent, and `compute_E` (whose closed form needs 2F1), are
integrated.

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
`compute_E` is the same fold of h with sigma = 1.

Two printed formula variants with a suspected normalization problem are
computed alongside the asserted forms and kept in report extras, not
asserted: thm_cb2's right side with an extra factor rho on its h-term
(right_side_literal), and the corollary's subtracted term with the bare
constant C in place of the coefficient alpha rho h(1/2) C that
integrating the two-geodesic comparison bound against the kernel gives
(the interval normalization cancels in the substitution), as a
difference and as a product of the geodesic lengths.

`falsify_search` hammers one chain with random admissible instances and
reports the worst margin and any violations beyond tolerance.  A chunk
of instances stays columns (`_Chunk`) from the draw to the verdict:
params checked per column with TheoremParams' conditions, h as kinds and
exponents k, and the sides from the chain's one body (`ChainSpec.rows`)
as one (R, S) array (`_Sides`).  Only the worst row becomes
TheoremParams, HFunction, Points, Geodesics, f and a report.  A public
chain runs the same body on its one trial (`_OneTrial`), whose integrals
are the public `integrate`, `katugampola_left` (rho = 1) and
`compute_E`; powers, Gamma and Beta values are Python-float loops over
the columns, so a row has its public chain's bits.  The pullback kinks
where its geodesic passes a branch point (`Space._kinks`), and there
the integrals start their panels: the means at the kink t, the fold
integral at w = b^rho - t and w = b^rho - (sigma - t), where fg(u) and
fg(sigma - u) kink; the corollary takes both geodesics' kinks, the
constants of h none.  A public chain passes the same points to
`integrate` and `katugampola_left`.  Every drawn instance
is admissible by theorem, so none is prechecked: f = d(., y)^2 is
geodesically convex on the four CAT(0) model spaces, f >= 0, and every
drawn h has h(t) >= t, so f is h-convex along every g (the `convexity`
module docstring).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from .convexity import (HFunction, _distance_pullback_rows,
                        _geodesic_distance_rows, _power_h, _whole,
                        check_h_convex, distance_between_geodesics_function,
                        h_function, on_geodesic, squared_distance_function)
from .errors import AccuracyError, DomainError, SpaceMismatchError
from .fractional import (_beta, _lq_power, _no_overflow, katugampola_left,
                         lq_norm_unit)
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


def _check_params(alpha, rho, a, b, q=None) -> None:
    # TheoremParams' conditions, on floats or on columns of them; alpha q
    # > 1 keeps the Hoelder conjugate exponent (alpha-1)q/(q-1) integrable
    def fails(holds) -> bool:
        return not (holds.all() if isinstance(holds, np.ndarray) else holds)

    for name, x in (("alpha", alpha), ("rho", rho)):
        if fails((x > 0.0) & (x < math.inf)):
            raise DomainError("%s must be positive and finite" % name)
    if fails((0.0 <= a) & (a < b) & (b <= 1.0)):
        raise DomainError("need 0 <= a < b <= 1")
    if q is not None and fails((q > 1.0) & (q < math.inf)):
        raise DomainError("q must be finite and > 1")
    if q is not None and fails(alpha * q > 1.0):
        raise DomainError("need alpha * q > 1")


@dataclass(frozen=True)
class TheoremParams:
    """Order alpha, deformation rho, interval [a, b] in [0, 1], optional q."""

    alpha: float
    rho: float
    a: float
    b: float
    q: Optional[float] = None

    def __post_init__(self):
        for name in ("alpha", "rho", "a", "b") + ("q",) * (self.q is not None):
            object.__setattr__(self, name, float(getattr(self, name)))
        _check_params(self.alpha, self.rho, self.a, self.b, self.q)

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


def _report(chain_name: str, sides: list, tol: float, instance: dict,
            extras: dict) -> InequalityReport:
    values = [v for _, v in sides]
    margins = tuple(b - a for a, b in zip(values, values[1:]))
    return InequalityReport(chain_name, tuple(sides), margins,
                            all(m >= -tol for m in margins), float(tol),
                            instance, extras)


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
               tol: float = DEFAULT_CHAIN_TOL, points=()) -> InequalityReport:
    """Midpoint <= mean <= endpoint average, for f convex on [a, b];
    points are the mean's breakpoints (`quadrature.integrate`)."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("need a < b")
    return _evaluate("classic_hh",
                     _OneTrial(as_array_function(f), interval=(a, b),
                               kinks=points), tol,
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
         *, tol: float = DEFAULT_CHAIN_TOL, points=()) -> InequalityReport:
    """Weighted chain for h-convex f: the endpoint side carries Int h;
    points are the mean's breakpoints (`quadrature.integrate`)."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("need a < b")
    hf = h_function(h)
    h_half = float(hf(0.5))
    if not (math.isfinite(h_half) and h_half > 0.0):
        raise DomainError("h(1/2) must be positive")
    return _evaluate("h_hh",
                     _OneTrial(as_array_function(f), hf=hf, interval=(a, b),
                               kinks=points),
                     tol, _mean_instance(f, hf, a, b))


def conde_hh(f: Callable, g: Geodesic, *,
             tol: float = DEFAULT_CHAIN_TOL) -> InequalityReport:
    """Midpoint/mean/endpoint chain of f along one geodesic."""
    return _evaluate("conde_hh",
                     _OneTrial(on_geodesic(f, g), kinks=_kinks(g)), tol,
                     _conde_instance(f, g))


def _conde_instance(f: Callable, g: Geodesic) -> dict:
    return {"f": _fname(f), "geodesic": _geodesic_json(g)}


def _kinks(*gs: Geodesic) -> list:
    # the parameters at which the geodesics pass a branch point, where a
    # pullback along them may kink (`Space._kinks`), one geodesic's after
    # the other's
    return [t for g in gs for t in g.space._kinks(g._ends)[0].tolist()
            if not math.isnan(t)]


# ---------------------------------------------------------------------------
# fractional-operator chains
# ---------------------------------------------------------------------------


def _on_floats(fn: Callable, nin: int) -> Callable:
    # fn per row on Python floats: numpy's array power differs from
    # Python's in the last bit in about 5 % of rows
    ufunc = np.frompyfunc(fn, nin, 1)
    return lambda *columns: ufunc(*columns).astype(float)


_powers, _gamma = _on_floats(pow, 2), _on_floats(math.gamma, 1)


def _exact_h_term(alpha: float, k: Optional[float], hf=None) -> float:
    # alpha rho Int_0^1 t^(alpha rho - 1) h(t^rho) dt; with v = t^rho it
    # is alpha Int_0^1 v^(alpha - 1) h(v) dv, free of the t^rho factor:
    # alpha B(alpha + k, 1) for h = t**k, else by quadrature of hf
    return alpha * (power_kernel_integral(hf, 1.0, alpha) if k is None
                    else _beta(alpha + k, 1.0))


def _k0_term(alpha: float, k: Optional[float], hf=None) -> float:
    # the normalised left operator of h(x^rho) on (0, 1):
    # alpha Int_0^1 w^(alpha - 1) h(1 - w) dw = alpha B(alpha, k + 1)
    return alpha * (power_kernel_integral(lambda w: hf(1.0 - w), 1.0, alpha)
                    if k is None else _beta(alpha, k + 1.0))


def _holder_term(alpha: float, q: float, k: Optional[float], hf) -> float:
    # the Hoelder bound of the exact h-term; ||h||_q is `lq_norm_unit`'s
    # for a public trial, its closed form in k for a falsifier row
    norm = _lq_power(k, q) if hf is None else lq_norm_unit(hf, q)
    return alpha * ((q - 1.0) / (alpha * q - 1.0)) ** ((q - 1.0) / q) * norm


def _folded(fg: Callable, u: np.ndarray, shift) -> np.ndarray:
    # fg(u) + fg(shift - u), both halves through the pullback in one batch
    both = fg(np.stack((u, np.clip(shift - u, 0.0, 1.0))))
    return both[0] + both[1]


def _operator_side(rows, kl) -> np.ndarray:
    # the normalised operator side: kl is the fold integral of the left
    # operator on [a, b] plus the right one on [a, b] (shift = a^rho +
    # b^rho) or on the reflected interval (shift = 1)
    gamma = _no_overflow("Gamma(alpha + 1 = %s)", _gamma, rows.alpha + 1.0)
    return gamma / rows.den * rows.h_half * kl


def _instance(f: Callable, g: Geodesic, hf: HFunction,
              p: TheoremParams) -> dict:
    return {"f": _fname(f), "h": hf.name, "params": p.to_dict(),
            "geodesic": _geodesic_json(g)}


def _fractional(chain: str, f: Callable, g: Geodesic,
                h: Union[str, HFunction, Callable], p: TheoremParams,
                tol: float) -> InequalityReport:
    # thm_cb1, thm_cb2 and thm_ty1 on the pullback of f along g
    hf = h_function(h)
    return _evaluate(chain,
                     _OneTrial(on_geodesic(f, g), hf, p, kinks=_kinks(g)),
                     tol, _instance(f, g, hf, p))


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
    return _kernel_c(p.alpha, p.rho, p.a ** p.rho, p.b ** p.rho)


def _kernel_c(alpha, rho, ar, br):
    # compute_C from a^rho and b^rho, on floats or on columns
    num = ((ar * alpha + br) * (2.0 * (alpha + 2.0) - 4.0 * br)
           - 2.0 * ar * ar * alpha * (alpha + 1.0))
    return num / (alpha * rho * (alpha + 1.0) * (alpha + 2.0))


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
                               hf, params, lengths=(g1.length, g2.length),
                               kinks=_kinks(g1, g2)),
                     tol,
                     _corollary_instance(g1, g2, hf, params))


def _corollary_instance(g1: Geodesic, g2: Geodesic, hf: HFunction,
                        p: TheoremParams) -> dict:
    return {"h": hf.name, "params": p.to_dict(),
            "g1": _geodesic_json(g1), "g2": _geodesic_json(g2)}


# ---------------------------------------------------------------------------
# chain bodies, on R falsifier trials or on one trial
# ---------------------------------------------------------------------------


def _each(fn: Callable, *columns) -> list:
    # fn on each row of the columns, or the row's AccuracyError
    out = []
    for row in zip(*columns):
        try:
            out.append(fn(*row))
        except AccuracyError as exc:
            out.append(exc)
    return out


def _failed(*columns) -> tuple:
    # each row's first AccuracyError or None, and float columns, NaN there
    errors, arrays = [None] * len(columns[0]), []
    for column in columns:
        values = list(column)
        for i, v in enumerate(values):
            if isinstance(v, AccuracyError):
                errors[i], values[i] = errors[i] or v, math.nan
        arrays.append(np.array(values))
    return errors, arrays


class _Sides:
    """A chain body's R rows: S side labels, the (R, S) values of the S
    side columns, the extras as columns, and each row's AccuracyError or
    None.  Row i is its sides and extras as `_report` takes them."""

    def __init__(self, labels, sides, extras, errors):
        self.labels, self.values = labels, np.array(sides).T
        self.extras, self.errors = extras, errors

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, i: int):
        if self.errors[i] is not None:
            return self.errors[i]
        return (list(zip(self.labels, self.values[i].tolist())),
                {name: c[i].item() for name, c in self.extras.items()})


def _breaks(points: np.ndarray) -> Optional[list]:
    # the engine's per-row breaks, or None where no row has a column
    return points.tolist() if points.shape[1] else None


class _Rows:
    """The columns a chain body reads: params (R, 5) of alpha, rho, a, b, q
    (NaN without q); k of h = t**k and hfs, the HFunctions (None without
    h, or for a falsifier row); h_half; kinks (R, K), the parameters at
    which the pullback may kink, NaN-padded; and, on first use (the
    scalar chains read none of them), ar, br and den = (br - ar)^alpha."""

    def __init__(self, params: np.ndarray, k, hfs: list, h_half, lengths,
                 kinks: np.ndarray):
        self.params, self.k, self.hfs = params, k, hfs
        self.alpha, self.rho, self.a, self.b, self.q = params.T
        self.h_half, self.lengths, self.kinks = h_half, lengths, kinks

    @functools.cached_property
    def ar(self) -> np.ndarray:
        return _powers(self.a, self.rho)

    @functools.cached_property
    def br(self) -> np.ndarray:
        return _powers(self.b, self.rho)

    @functools.cached_property
    def den(self) -> np.ndarray:
        return _powers(self.br - self.ar, self.alpha)


class _Chunk(_Rows):
    """R falsifier draws of one chain as columns, evaluated together: hs
    the h kinds and exponents (None without h), ys the points y of
    f = d(., y)^2 (None for two geodesics), and per geodesic batch its
    read-only starts, ends, endpoint stage and lengths.  `pull(ts, rows)`
    is every trial's pullback, line k of ts (..., K, m) on trial rows[k];
    an integral is the row's AccuracyError where it does not converge."""

    def __init__(self, space: Space, params: np.ndarray, hs, ys,
                 geodesics: tuple):
        # k in Python floats, as a public trial's h holds it
        self.kinds, k = (None, None) if hs is None else hs
        super().__init__(params, None if k is None else k.tolist(),
                         [None] * len(params),
                         None if k is None else 0.5 ** k,
                         np.stack([g[3] for g in geodesics], axis=1),
                         np.concatenate([space._kinks(g[2])
                                         for g in geodesics], axis=1))
        self.space, self.index = space, np.arange(len(params))
        self.ys = None if ys is None else _read_only(ys)
        self.geodesics = _read_only(geodesics)
        ends = [g[2] for g in geodesics]
        self.pull = (_geodesic_distance_rows(space, *ends) if ys is None
                     else _distance_pullback_rows(space, *ends, ys, 2.0))

    def objects(self, i: int) -> tuple:
        """Row i as ChainSpec.evaluate's (f, g, h, params): g is a
        Geodesic, or a pair for two geodesics, whose f is None."""
        gs = tuple(_row_geodesic(self.space, *batch, i)
                   for batch in self.geodesics)
        alpha, rho, a, b, q = self.params[i].tolist()
        p = TheoremParams(alpha, rho, a, b, None if math.isnan(q) else q)
        hf = None if self.k is None else (
            _power_h(self.k[i]) if self.kinds[i] == "power"
            else h_function(self.kinds[i]))
        if self.ys is None:
            return None, gs, hf, p
        y = _point_of_row(self.space, _take_rows(self.ys, slice(i, i + 1)))
        return squared_distance_function(self.space, y, 2.0), gs[0], hf, p

    def at(self, ts) -> np.ndarray:
        return self.pull(np.array(ts, dtype=float), self.index)

    def means(self, lo, hi) -> list:
        return [v if isinstance(v, AccuracyError) else v[0] for v in
                _integrate_rows(self.pull, lo, hi, np.ones(len(lo)),
                                _breaks(self.kinks))]

    def _fold(self, phi: Callable, shift, scales, breaks=None) -> list:
        """scale Int_0^W w^(alpha-1) [phi(u, rows) + phi(shift - u, rows)] dw
        per row, u = b^rho - w and W = b^rho - a^rho, in one batch, with
        each row's panels starting at its breaks in w."""
        values = _weighted_rows(
            lambda w, rows: _folded(lambda x: phi(x, rows),
                                    np.maximum(self.br[rows, None] - w, 0.0),
                                    shift[rows, None]),
            np.zeros(len(shift)), self.br - self.ar, self.alpha, breaks)
        return [v if isinstance(v, AccuracyError) else scale * v[0]
                for v, scale in zip(values, scales.tolist())]

    def operators(self, shift) -> list:
        """The fold integral of fg over Gamma(alpha) per row: a public
        trial's `katugampola_left` with rho = 1 on [a^rho, b^rho], whose
        points, the kinks of fg(u) and of fg(shift - u), are u = kink and
        u = shift - kink, so its panels start at w = b^rho - u."""
        shift = np.asarray(shift, dtype=float)
        u = np.concatenate((self.kinks, shift[:, None] - self.kinks), axis=1)
        return self._fold(self.pull, shift, 1.0 / _gamma(self.alpha),
                          _breaks(self.br[:, None] - u))

    def e_values(self) -> list:
        """`compute_E` per row, bit for bit but at k = -1, 0.5 and 2 (numpy's
        scalar-power fast paths), which the falsifier never draws."""
        k = np.array(self.k)
        return self._fold(lambda x, rows: x ** k[rows, None], np.ones(len(k)),
                          self.alpha * self.h_half)


class _OneTrial(_Rows):
    """A public chain's one trial as one-row columns: fg is its pullback
    (f itself for classic_hh and h_hh), kinks the parameters at which it
    may kink, and its integrals are the public `integrate`,
    `katugampola_left` (rho = 1 on [a^rho, b^rho]) with those points, and
    `compute_E`, whose AccuracyError propagates.  den = 0 (b^rho rounds
    onto a^rho, or the power underflows) is a DomainError."""

    def __init__(self, fg: Callable, hf: Optional[HFunction] = None,
                 params: Optional[TheoremParams] = None,
                 interval=(0.0, 1.0), lengths=None, kinks=()):
        p = params
        fields = ((None, None, *interval, None) if p is None
                  else (p.alpha, p.rho, p.a, p.b, p.q))
        super().__init__(
            np.array([fields], dtype=float),  # NaN for None
            None if hf is None else [hf.k], [hf],
            None if hf is None else np.array([float(hf(0.5))]),
            np.array([lengths], dtype=float),
            np.array([kinks], dtype=float).reshape(1, -1))
        self.fg, self.hf, self.p = fg, hf, p
        if p is not None and not self.den[0] > 0.0:
            raise DomainError("(b^rho - a^rho)^alpha is 0 at %r" % (p,))

    def at(self, ts) -> np.ndarray:
        return self.fg(np.array(ts, dtype=float))

    def means(self, lo, hi) -> list:
        return [integrate(self.fg, float(lo[0]), float(hi[0]),
                          points=self.kinks[0].tolist())]

    def operators(self, shift) -> list:
        p, s = self.p, float(shift[0])
        kinks = np.concatenate((self.kinks[0], s - self.kinks[0]))
        return [katugampola_left(lambda u: _folded(self.fg, u, s), p.alpha,
                                 1.0, float(self.ar[0]), float(self.br[0]),
                                 points=kinks.tolist())]

    def e_values(self) -> list:
        p = self.p
        return [compute_E(self.hf, p.alpha, p.rho, p.a, p.b)]


def _evaluate(chain: str, trial: _OneTrial, tol: float,
              instance: dict) -> InequalityReport:
    # a public chain: its ChainSpec.rows body on its one trial
    [row] = CHAINS[chain].rows(trial)
    if isinstance(row, AccuracyError):
        raise row
    return _report(chain, row[0], tol, instance, row[1])


def _mean_rows(unit: bool, rows) -> _Sides:
    # classic_hh and h_hh on [a, b], conde_hh on [0, 1]: the midpoint, the
    # mean and the endpoint average; h_hh divides the midpoint by 2 h(1/2)
    # and weighs the endpoints by Int_0^1 h, B(k + 1, 1) for h = t**k
    n = len(rows.params)
    lo, hi = (np.zeros(n), np.ones(n)) if unit else (rows.a, rows.b)
    v = rows.at(np.stack((0.5 * (lo + hi), lo, hi), axis=1))
    if rows.k is None:
        errors, (integral,) = _failed(rows.means(lo, hi))
        mid, ends, extras = v[:, 0], (v[:, 1] + v[:, 2]) / 2.0, {}
    else:
        errors, (integral, h_mass) = _failed(rows.means(lo, hi), _each(
            lambda k, hf: integrate(hf, 0.0, 1.0) if k is None
            else _beta(k + 1.0, 1.0), rows.k, rows.hfs))
        mid = v[:, 0] / (2.0 * rows.h_half)
        ends, extras = (v[:, 1] + v[:, 2]) * h_mass, {"h_mass": h_mass}
    return _Sides(("midpoint", "mean", "endpoints"),
                  (mid, integral / (hi - lo), ends), extras, errors)


def _thm_cb_rows(holder: bool, rows) -> _Sides:
    # thm_cb1 (holder: the Hoelder bound of the h-integral) and thm_cb2
    # (its exact value): the pullback at the midpoint and the ends of
    # [a^rho, b^rho], and the operator side with shift a^rho + b^rho
    ar, br, alpha = rows.ar, rows.br, rows.alpha.tolist()
    v = rows.at(np.stack((0.5 * (ar + br), ar, br), axis=1))
    errors, (kl, term, k0) = _failed(
        rows.operators(ar + br),
        _each(_holder_term, alpha, rows.q.tolist(), rows.k, rows.hfs) if holder
        else _each(_exact_h_term, alpha, rows.k, rows.hfs),
        _each(_k0_term, alpha, rows.k, rows.hfs))
    h_half, f_ends = rows.h_half, v[:, 1] + v[:, 2]
    right = h_half * f_ends * (term + k0)
    if holder:
        extras = {"holder_bound": term, "k0_term": k0}
    else:
        literal = h_half * f_ends * (rows.rho * term + k0)
        extras = {"exact_h_term": term, "k0_term": k0,
                  "right_side_literal": literal,
                  "literal_minus_canonical": literal - right}
    return _Sides(("midpoint", "operators", "endpoints"),
                  (v[:, 0], _operator_side(rows, kl), right), extras, errors)


def _reflected_rows(rows) -> tuple:
    # thm_ty1's sides from the pullback at 1/2, 0 and 1, the operator side
    # on the reflected interval and E, with each row's error, h(1/2) and E
    n = len(rows.params)
    v = rows.at(np.full((n, 3), [0.5, 0.0, 1.0]))
    errors, (kl, e_val) = _failed(rows.operators(np.ones(n)),
                                  rows.e_values())
    sides = (v[:, 0], _operator_side(rows, kl),
             (v[:, 1] + v[:, 2]) * e_val / rows.den)
    return errors, sides, e_val


def _thm_ty1_rows(rows) -> _Sides:
    errors, sides, _ = _reflected_rows(rows)
    return _Sides(("midpoint", "operators", "endpoints"), sides, {}, errors)


def _corollary_rows(rows) -> _Sides:
    # the endpoint bound minus alpha rho h(1/2) C (L2 - L1)^2, and the
    # bare-constant variants in extras
    errors, (mid, ops, bound), e_val = _reflected_rows(rows)
    l1, l2 = rows.lengths.T
    c_val = _kernel_c(rows.alpha, rows.rho, rows.ar, rows.br)
    delta, coef = l2 - l1, rows.alpha * rows.rho * rows.h_half
    extras = {"c_value": c_val, "e_value": e_val,
              "length_difference": delta, "c_coefficient": coef,
              "right_difference_bare_c": bound - c_val * delta * delta,
              "right_product_bare_c":
                  bound - c_val * _powers(l1 * l2, 2.0)}
    return _Sides(("midpoint", "operators", "endpoints_minus_c", "endpoints"),
                  (mid, ops, bound - coef * c_val * delta * delta, bound),
                  extras, errors)


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
    rows(rows) is the chain's one body: on the columns of a falsifier
    `_Chunk` or a public chain's `_OneTrial` it returns `_Sides`.
    instance(f, g, h, params) is evaluate's instance, from the chain's own
    helper.
    """

    evaluate: Callable[..., InequalityReport]
    rows: Callable[[Union[_Chunk, _OneTrial]], _Sides]
    instance: Callable[..., dict]
    takes_h: bool = True
    needs_q: bool = False
    two_geodesics: bool = False


CHAINS = {
    "classic_hh": ChainSpec(
        lambda f, g, h, p, **kw: replace(
            classic_hh(on_geodesic(f, g), p.a, p.b, points=_kinks(g), **kw),
            instance=_pullback_instance(f, g, h, p)),
        functools.partial(_mean_rows, False),
        _pullback_instance, takes_h=False),
    "h_hh": ChainSpec(
        lambda f, g, h, p, **kw: replace(
            h_hh(on_geodesic(f, g), h, p.a, p.b, points=_kinks(g), **kw),
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
                 rng: np.random.Generator) -> np.ndarray:
    # m draws of alpha, then of rho, a and b (and of q); thm_cb1 redraws
    # alpha and q of the rows with alpha q <= 1.05, and only those
    alpha = rng.uniform(0.25, 3.0, m)
    rho = rng.uniform(0.5, 2.5, m)
    a = rng.uniform(0.0, 0.9, m)
    b = rng.uniform(a + 0.05, 1.0)
    q = None
    if spec.needs_q:
        q = rng.uniform(1.5, 4.0, m)
        redo = np.flatnonzero(alpha * q <= 1.05)
        while redo.size:
            alpha[redo] = rng.uniform(0.25, 3.0, redo.size)
            q[redo] = rng.uniform(1.5, 4.0, redo.size)
            redo = redo[alpha[redo] * q[redo] <= 1.05]
    _check_params(alpha, rho, a, b, q)
    return np.stack((alpha, rho, a, b, np.full(m, math.nan) if q is None
                     else q), axis=1)


def _draw_hs(m: int, rng: np.random.Generator) -> tuple:
    # m kinds, then m exponents k for the power rows (identity is t**1 and
    # constant_one t**0): the members with h(t) >= t and finite integrals
    kinds = np.array(_H_DOMINATING)[rng.integers(0, len(_H_DOMINATING), m)]
    ks = rng.uniform(0.25, 1.0, m)
    return kinds, np.where(kinds == "power", ks, kinds == "identity")


def _draw_trials(spec: ChainSpec, space: Space, trials: int,
                 rng: np.random.Generator) -> _Chunk:
    # the next `trials` draws of falsify_search as one chunk; the columns
    # are drawn in the order of falsify_search's docstring
    params = _draw_params(spec, trials, rng)
    hs = _draw_hs(trials, rng) if spec.takes_h else None
    ys = None if spec.two_geodesics else space._sample(trials, rng)
    drawn = [_random_ends(space, trials, rng, 0.05)
             for _ in range(1 + spec.two_geodesics)]
    return _Chunk(space, params, hs, ys, tuple(
        (A, B) + space._ends(A, B) for A, B in drawn))


def falsify_search(chain: str, space: Space, trials: int, seed: int = 0,
                   tol: float = DEFAULT_CHAIN_TOL, *,
                   product_c_term: bool = False) -> dict:
    """Randomized search for chain violations beyond tol.

    Every drawn instance is admissible by theorem (module docstring), so
    "discarded" is always 0.  Equal inputs give equal summaries; trials
    and seed must be integers >= 0 and tol positive and finite.

    Instances come from one random stream in chunks of m = CHUNK draws
    (fewer in the last chunk), each column one call for all m rows, in
    this order: alpha, rho, a, b (uniform on [a + 0.05, 1]), and for
    thm_cb1 q, after which alpha and q are redrawn for the rows with
    alpha q <= 1.05 alone, until none is left; the h kinds and the power
    exponents, when the chain takes h; the reference points y of
    f = d(., y)^2, unless the chain takes two geodesics; then the
    geodesics' starts and ends, after which starts and ends are redrawn
    for the rows shorter than 0.05 alone, until none is left (the
    corollary draws its first and then its second geodesics so).  A row
    that carries an AccuracyError is a quadrature failure, counted and
    skipped.  A margin below -tol, or NaN, is a violation; the worst row
    has the first least margin, NaN below any number, and its report is
    worst_instance.  A chain with one geodesic runs the public
    `check_h_convex(f, g, h, seed=0)` once on that row's objects
    (h = identity for a chain without h); its verdict is not read.

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
    failures = violations = 0
    worst_margin = worst = None
    for start in range(0, trials, CHUNK):
        chunk = _draw_trials(spec, space, min(CHUNK, trials - start), rng)
        out = spec.rows(chunk)
        if product_c_term:
            sides = list(out.values.T)
            sides[2] = out.extras["right_product_bare_c"]
            out = _Sides((*out.labels[:2], "endpoints_minus_c_product",
                          *out.labels[3:]), sides, out.extras, out.errors)
        ok = np.flatnonzero([e is None for e in out.errors])
        failures += len(out) - len(ok)
        if not len(ok):
            continue
        margins = np.diff(out.values[ok], axis=1)
        violations += int(np.sum(~np.all(margins >= -tol, axis=1)))
        least = np.min(margins, axis=1)
        i = int(np.argmin(least))
        # a NaN margin is the least, and the first one stays the worst
        if worst_margin is None or not (math.isnan(worst_margin)
                                        or least[i] >= worst_margin):
            worst_margin, worst = float(least[i]), (chunk, out, int(ok[i]))
    worst_instance = None
    if worst is not None:
        chunk, out, i = worst
        sides, extras = out[i]
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
               "seed": seed, "tol": float(tol), "evaluated": trials - failures,
               "discarded": 0, "quadrature_failures": failures,
               "violations": violations, "worst_margin": worst_margin,
               "worst_instance": worst_instance}
    if chain == "corollary_distance":
        summary["c_term"] = "product" if product_c_term else "difference"
    return summary

