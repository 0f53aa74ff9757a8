"""Hermite-Hadamard inequality chains and their verification.

Three scalar chains (classic, h-weighted, and the geodesic
midpoint/mean/endpoint chain) plus the fractional-operator chains built
from Katugampola integrals of composite operands x -> f(gamma(x^rho)).
Each evaluator returns an InequalityReport: labeled side values, the
consecutive margins, and a pass flag (every margin >= -tol).

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
reports the worst margin and any violations beyond tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple, Union

import numpy as np

from .convexity import (HFunction, check_convex, check_h_convex, h_function,
                        on_geodesic, squared_distance_function,
                        distance_between_geodesics_function)
from .errors import AccuracyError, DomainError, SpaceMismatchError
from .fractional import katugampola_left, katugampola_right, lq_norm_unit
from .quadrature import as_array_function, integrate, power_kernel_integral
from .spaces import Geodesic, Space, random_geodesic, random_point

__all__ = ["TheoremParams", "InequalityReport", "CompositeOperand",
           "classic_hh", "h_hh", "conde_hh", "thm_cb1", "thm_cb2", "thm_ty1",
           "compute_C", "compute_C_oracle", "compute_E",
           "corollary_distance", "falsify_search", "CHAIN_NAMES", "CHAINS",
           "ChainSpec", "chain_spec"]

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


class CompositeOperand:
    """Operand x -> base(x^rho) of an array function base.

    With the pullback `on_geodesic(f, g)` as base it is x -> f(g(x^rho)).
    Parameters are clipped to [0, 1] to absorb roundoff at interval ends.
    """

    __slots__ = ("rho", "_fn", "name")

    def __init__(self, base: Callable, rho: float):
        rho = float(rho)
        if not (math.isfinite(rho) and rho > 0.0):
            raise DomainError("rho must be positive and finite")
        self.rho = rho
        self._fn = as_array_function(base)
        self.name = getattr(base, "__name__", "f")

    def __call__(self, x) -> np.ndarray:
        xx = np.asarray(x, dtype=float)
        return self._fn(np.clip(xx ** self.rho, 0.0, 1.0))


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
    arr = as_array_function(f)
    mid = float(arr(np.array([0.5 * (a + b)]))[0])
    mean = integrate(arr, a, b) / (b - a)
    ends = float(arr(np.array([a]))[0] + arr(np.array([b]))[0]) / 2.0
    instance = {"f": _fname(f), "a": a, "b": b}
    return _report("classic_hh",
                   [("midpoint", mid), ("mean", mean), ("endpoints", ends)],
                   tol, instance)


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
    arr = as_array_function(f)
    mid = float(arr(np.array([0.5 * (a + b)]))[0]) / (2.0 * h_half)
    mean = integrate(arr, a, b) / (b - a)
    h_mass = integrate(hf, 0.0, 1.0)
    ends = float(arr(np.array([a]))[0] + arr(np.array([b]))[0]) * h_mass
    instance = {"f": _fname(f), "h": hf.name, "a": a, "b": b}
    return _report("h_hh",
                   [("midpoint", mid), ("mean", mean), ("endpoints", ends)],
                   tol, instance, {"h_mass": h_mass})


def conde_hh(f: Callable, g: Geodesic, *,
             tol: float = DEFAULT_CHAIN_TOL) -> InequalityReport:
    """Midpoint/mean/endpoint chain of f along one geodesic."""
    fg = on_geodesic(f, g)
    mid = float(fg(0.5))
    mean = integrate(fg, 0.0, 1.0)
    ends = float(fg(0.0) + fg(1.0)) / 2.0
    instance = {"f": _fname(f), "geodesic": _geodesic_json(g)}
    return _report("conde_hh",
                   [("midpoint", mid), ("mean", mean), ("endpoints", ends)],
                   tol, instance)


# ---------------------------------------------------------------------------
# fractional-operator chains
# ---------------------------------------------------------------------------


def _reflected(p: TheoremParams) -> Tuple[float, float]:
    # s, c with s^rho = 1 - b^rho and c^rho = 1 - a^rho
    s = max(0.0, 1.0 - p.b ** p.rho) ** (1.0 / p.rho)
    c = (1.0 - p.a ** p.rho) ** (1.0 / p.rho)
    return s, c


def _den(p: TheoremParams) -> float:
    return (p.b ** p.rho - p.a ** p.rho) ** p.alpha


def _exact_h_term(hf: HFunction, p: TheoremParams) -> float:
    # alpha rho Int_0^1 t^(alpha rho - 1) h(t^rho) dt; with v = t^rho it
    # is alpha Int_0^1 v^(alpha - 1) h(v) dv, free of the t^rho factor
    return p.alpha * power_kernel_integral(hf, 1.0, p.alpha)


def _k0_term(hf: HFunction, p: TheoremParams) -> float:
    # rho^alpha Gamma(alpha+1) times the left operator of h(x^rho) at 1
    operand = CompositeOperand(hf, p.rho)
    k0 = katugampola_left(operand, p.alpha, p.rho, 0.0, 1.0)
    return p.rho ** p.alpha * math.gamma(p.alpha + 1.0) * k0


def _operator_mean(F: CompositeOperand, p: TheoremParams, h_half: float,
                   right_interval: Tuple[float, float]) -> float:
    lo, hi = right_interval
    kl = katugampola_left(F, p.alpha, p.rho, p.a, p.b)
    kr = katugampola_right(F, p.alpha, p.rho, lo, hi)
    pref = p.rho ** p.alpha * math.gamma(p.alpha + 1.0) / _den(p)
    return pref * h_half * (kl + kr)


def _instance(chain: str, f: Callable, g: Geodesic, hf: HFunction,
              p: TheoremParams) -> dict:
    return {"f": _fname(f), "h": hf.name, "params": p.to_dict(),
            "geodesic": _geodesic_json(g)}


def _thm_cb(chain: str, holder: bool, f: Callable, g: Geodesic,
            h: Union[str, HFunction, Callable], p: TheoremParams,
            tol: float) -> InequalityReport:
    # shared body of thm_cb1 (holder: the Hoelder bound of the h-integral)
    # and thm_cb2 (its exact value)
    if holder and p.q is None:
        raise DomainError("thm_cb1 needs the Hoelder exponent q")
    hf = h_function(h)
    h_half = float(hf(0.5))
    fg = on_geodesic(f, g)
    F = CompositeOperand(fg, p.rho)
    mid = float(fg(0.5 * (p.a ** p.rho + p.b ** p.rho)))
    ops = _operator_mean(F, p, h_half, (p.a, p.b))
    f_ends = float(fg(p.a ** p.rho) + fg(p.b ** p.rho))
    if holder:
        term = (p.alpha * ((p.q - 1.0) / (p.alpha * p.q - 1.0))
                ** ((p.q - 1.0) / p.q) * lq_norm_unit(hf, p.q))
    else:
        term = _exact_h_term(hf, p)
    k0 = _k0_term(hf, p)
    ends = h_half * f_ends * (term + k0)
    if holder:
        extras = {"holder_bound": term, "k0_term": k0}
    else:
        literal = h_half * f_ends * (p.rho * term + k0)
        extras = {"exact_h_term": term, "k0_term": k0,
                  "right_side_literal": literal,
                  "literal_minus_canonical": literal - ends}
    return _report(chain,
                   [("midpoint", mid), ("operators", ops),
                    ("endpoints", ends)],
                   tol, _instance(chain, f, g, hf, p), extras)


def thm_cb1(f: Callable, g: Geodesic, h: Union[str, HFunction, Callable],
            params: TheoremParams, *,
            tol: float = DEFAULT_CHAIN_TOL) -> InequalityReport:
    """Fractional chain whose right side bounds the h-integral via Hoelder.

    Needs params.q; requires nonnegative f, h-convex along g (asserted by
    the caller).
    """
    return _thm_cb("thm_cb1", True, f, g, h, params, tol)


def thm_cb2(f: Callable, g: Geodesic, h: Union[str, HFunction, Callable],
            params: TheoremParams, *,
            tol: float = DEFAULT_CHAIN_TOL) -> InequalityReport:
    """Variant of thm_cb1 with the Hoelder bound replaced by the exact
    h-integral; no integrability exponent needed.

    The asserted right side uses alpha rho Int t^(alpha rho - 1) h(t^rho) dt;
    the variant with an extra factor rho on that term is logged in extras
    as right_side_literal.
    """
    return _thm_cb("thm_cb2", False, f, g, h, params, tol)


def thm_ty1(f: Callable, g: Geodesic, h: Union[str, HFunction, Callable],
            params: TheoremParams, *,
            tol: float = DEFAULT_CHAIN_TOL) -> InequalityReport:
    """Fractional chain pairing [a, b] with the reflected interval [s, c]."""
    p = params
    hf = h_function(h)
    h_half = float(hf(0.5))
    fg = on_geodesic(f, g)
    F = CompositeOperand(fg, p.rho)
    mid = float(fg(0.5))
    ops = _operator_mean(F, p, h_half, _reflected(p))
    ends = (float(fg(0.0) + fg(1.0))
            * compute_E(hf, p.alpha, p.rho, p.a, p.b) / _den(p))
    return _report("thm_ty1",
                   [("midpoint", mid), ("operators", ops),
                    ("endpoints", ends)],
                   tol, _instance("thm_ty1", f, g, hf, p))


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
    """Kernel constant of the reflected-interval chain's endpoint side."""
    p = TheoremParams(alpha, rho, a, b)
    hf = h_function(h)
    operand = CompositeOperand(hf, p.rho)
    s, c = _reflected(p)
    kl = katugampola_left(operand, p.alpha, p.rho, p.a, p.b)
    kr = katugampola_right(operand, p.alpha, p.rho, s, c)
    return (p.rho ** p.alpha * math.gamma(p.alpha + 1.0) * float(hf(0.5))
            * (kl + kr))


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
    p = params
    hf = h_function(h)
    _require_dominating_h(hf)
    h_half = float(hf(0.5))
    gd = distance_between_geodesics_function(g1, g2)
    G = CompositeOperand(gd, p.rho)
    mid = float(gd(0.5))
    ops = _operator_mean(G, p, h_half, _reflected(p))
    sigma = float(gd(0.0) + gd(1.0))
    e_val = compute_E(hf, p.alpha, p.rho, p.a, p.b)
    c_val = compute_C(p.alpha, p.rho, p.a, p.b)
    delta = g2.length - g1.length
    den = _den(p)
    bound = sigma * e_val / den
    coef = p.alpha * p.rho * h_half
    ends_minus = bound - coef * c_val * delta * delta
    extras = {"c_value": c_val, "e_value": e_val,
              "length_difference": delta, "c_coefficient": coef,
              "right_difference_bare_c": bound - c_val * delta * delta,
              "right_product_bare_c":
                  bound - c_val * (g1.length * g2.length) ** 2}
    instance = {"h": hf.name, "params": p.to_dict(),
                "g1": _geodesic_json(g1), "g2": _geodesic_json(g2)}
    return _report("corollary_distance",
                   [("midpoint", mid), ("operators", ops),
                    ("endpoints_minus_c", ends_minus), ("endpoints", bound)],
                   tol, instance, extras)


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
    """

    evaluate: Callable[..., InequalityReport]
    takes_h: bool = True
    needs_q: bool = False
    two_geodesics: bool = False


CHAINS = {
    "classic_hh": ChainSpec(
        lambda f, g, h, p, **kw: classic_hh(on_geodesic(f, g), p.a, p.b,
                                            **kw),
        takes_h=False),
    "h_hh": ChainSpec(
        lambda f, g, h, p, **kw: h_hh(on_geodesic(f, g), h, p.a, p.b, **kw)),
    "conde_hh": ChainSpec(lambda f, g, h, p, **kw: conde_hh(f, g, **kw),
                          takes_h=False),
    "thm_cb1": ChainSpec(lambda f, g, h, p, **kw: thm_cb1(f, g, h, p, **kw),
                         needs_q=True),
    "thm_cb2": ChainSpec(lambda f, g, h, p, **kw: thm_cb2(f, g, h, p, **kw)),
    "thm_ty1": ChainSpec(lambda f, g, h, p, **kw: thm_ty1(f, g, h, p, **kw)),
    "corollary_distance": ChainSpec(
        lambda f, g, h, p, **kw: corollary_distance(*g, h, p, **kw),
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


def _draw_h(rng: np.random.Generator) -> HFunction:
    # restricted to catalog members with h(t) >= t and finite chain
    # integrals; godunova_levin fails the second requirement
    kind = _H_DOMINATING[int(rng.integers(0, 3))]
    if kind == "power":
        return h_function("power(%r)" % float(rng.uniform(0.25, 1.0)))
    return h_function(kind)


def _draw_params(spec: ChainSpec,
                 rng: np.random.Generator) -> TheoremParams:
    alpha = float(rng.uniform(0.25, 3.0))
    rho = float(rng.uniform(0.5, 2.5))
    a = float(rng.uniform(0.0, 0.9))
    b = float(rng.uniform(a + 0.05, 1.0))
    q = None
    if spec.needs_q:
        q = float(rng.uniform(1.5, 4.0))
        while alpha * q <= 1.05:
            alpha = float(rng.uniform(0.25, 3.0))
            q = float(rng.uniform(1.5, 4.0))
    return TheoremParams(alpha, rho, a, b, q)


def falsify_search(chain: str, space: Space, trials: int, seed: int = 0,
                   tol: float = DEFAULT_CHAIN_TOL, *,
                   product_c_term: bool = False) -> dict:
    """Randomized search for chain violations beyond tol.

    Instances whose convexity precondition fails on the sampled grid are
    discarded (counted, not treated as violations); quadrature failures
    are likewise counted and skipped.  Identical (chain, space, trials,
    seed, tol) inputs give identical summaries; seed must be >= 0.

    product_c_term swaps the corollary's third side for the bare-constant
    product variant before counting violations; it is a probe of that
    printed form, so violations under it are expected and reported, not a
    defect.
    """
    spec = chain_spec(chain)
    if product_c_term and chain != "corollary_distance":
        raise DomainError("product_c_term only applies to"
                          " corollary_distance")
    trials = int(trials)
    if trials < 0:
        raise DomainError("trials must be >= 0")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    evaluated = discarded = failures = violations = 0
    worst_margin = None
    worst_instance = None
    for _ in range(trials):
        p = _draw_params(spec, rng)
        hf = _draw_h(rng) if spec.takes_h else None
        try:
            if spec.two_geodesics:
                f = None
                g = (random_geodesic(space, rng, min_length=0.05),
                     random_geodesic(space, rng, min_length=0.05))
            else:
                y = random_point(space, rng)
                f = squared_distance_function(space, y, 2.0)
                g = random_geodesic(space, rng, min_length=0.05)
                if hf is None:
                    ok = check_convex(f, g, seed=0).holds
                else:
                    ok = check_h_convex(f, g, hf, seed=0).holds
                if not ok:
                    discarded += 1
                    continue
            report = spec.evaluate(f, g, hf, p, tol=tol)
        except AccuracyError:
            failures += 1
            continue
        evaluated += 1
        if product_c_term:
            vals = [v for _, v in report.sides]
            vals[2] = report.extras["right_product_bare_c"]
            margins = [b - a for a, b in zip(vals, vals[1:])]
            margin = min(margins)
            if margin < -tol:
                violations += 1
        else:
            margin = min(report.margins)
            if not report.passed:
                violations += 1
        if worst_margin is None or margin < worst_margin:
            worst_margin = margin
            worst_instance = report.to_dict()
    summary = {"chain": chain, "space": space.name, "trials": trials,
               "seed": int(seed), "tol": float(tol), "evaluated": evaluated,
               "discarded": discarded, "quadrature_failures": failures,
               "violations": violations, "worst_margin": worst_margin,
               "worst_instance": worst_instance}
    if chain == "corollary_distance":
        summary["c_term"] = "product" if product_c_term else "difference"
    return summary
