"""Adaptive Gauss quadrature with a Gauss-Jacobi panel for power kernels.

One engine integrates (x - lo)**(exponent - 1) * f(x) over [lo, hi] for
R integrals at a time by panel bisection: a panel is compared with its
two halves and split again until the difference falls under its share of
the budget.  The panel at lo uses the n-node Gauss-Jacobi rule of the
weight u**(exponent-1) on (0, 1) (Golub-Welsch), so the endpoint kernel
is integrated exactly; every other panel uses Gauss-Legendre on the
weighted integrand.  The engine (`_integrate_rows`) refines
breadth-first, one operand call per level for all rows, and adds a row's
accepted panels in order of left end, the order in which a depth-first
bisection adds them.  A batch decides its level 0 on float columns,
where most rows pass; the rows that miss, and a lone integral, refine in
Python lists, since a later level holds few panels and numpy's cost per
call would exceed its arithmetic.  `_weighted_rows` re-runs the
weighted rows that fail there (an operand singular at lo) once through
v = (x - lo)**exponent; `integrate` is its one-row case, and
:func:`power_kernel_integral` is `integrate` from 0.

A row may come with breaks, the known places where its operand kinks
(QUADPACK's QAGP breakpoints, `integrate`'s `points`): level 0 cuts
the row's interval there and sums each piece and its two halves, and
the row's budget is set by the sum of its pieces.  In a weighted row a
piece that starts at x > lo and is wider than 3 (x - lo) is cut again
at lo + 4 (x - lo), so that no Legendre piece lies closer to the
kernel's singular point lo than a third of its width.  The rerun maps
each break c to v = (c - lo)**exponent.  A row without breaks inside its
interval is one piece, whose level 0 is its interval and its halves.

Every integral runs at one fixed accuracy, set by the module constants
REL_TOL, ABS_TOL, NODES and MAX_PANELS.  Operands are array functions:
an array of nodes in, the same shape out (a 0-d result broadcasts).
They are never probed: a scalar-only function is wrapped in
:func:`pointwise`, and an operand's exceptions propagate.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError

__all__ = ["integrate", "power_kernel_integral", "as_array_function",
           "pointwise"]


# One fixed accuracy for every integral.  The budget of an integral is
# max(ABS_TOL, REL_TOL * |integral|): REL_TOL scales with its magnitude and
# ABS_TOL is the floor for integrals near zero.  A panel of NODES nodes is
# accepted when its bisection error estimate falls under its share of the
# budget; MAX_PANELS bounds the refinement work before AccuracyError.
REL_TOL = 1e-10
ABS_TOL = 1e-12
NODES = 16
MAX_PANELS = 4096


@functools.lru_cache(maxsize=16)
def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule on (-1, 1)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _jacobi_rules(n: int, betas) -> tuple[np.ndarray, np.ndarray]:
    """Stacked n-node Gauss rules for the weights u**beta on (0, 1).

    Row i of the (R, n) nodes and weights is the rule of betas[i] > -1.
    Golub-Welsch: the three-term recurrence of the Jacobi polynomials for
    (1 + x)**beta on (-1, 1), mapped by u = (1 + x)/2, gives a symmetric
    tridiagonal matrix whose eigenvalues are the nodes; the weights are
    the squared first eigenvector components times the mass 1/(beta + 1).
    One `eigh` call on the (R, n, n) stack solves every matrix, each as
    it would be solved alone.
    """
    beta = np.asarray(betas, dtype=float).reshape(-1, 1)
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + beta
    jac = np.zeros((beta.shape[0], n, n))
    diag = np.empty((beta.shape[0], n))
    diag[:, 0] = beta[:, 0] / (beta[:, 0] + 2.0)
    diag[:, 1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    i = np.arange(n)
    jac[:, i, i] = 0.5 * (1.0 + diag)
    jac[:, i[:-1], i[1:]] = 0.5 * off
    nodes, vecs = np.linalg.eigh(jac, UPLO="U")
    return nodes, vecs[:, 0, :] ** 2 / (beta + 1.0)


def as_array_function(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Normalise an array operand: f(x) has x's shape, or is 0-d.

    A 0-d result (a constant operand) is broadcast to x's shape; any other
    shape raises DomainError.  f is called once, on the whole array, and
    its exceptions propagate: wrap a scalar-only f in `pointwise`.
    """

    def call(x: np.ndarray) -> np.ndarray:
        y = np.asarray(f(x), dtype=float)
        if y.ndim == 0:
            return np.full(x.shape, float(y))
        if y.shape != x.shape:
            raise DomainError("operand returned shape %s for an input of "
                              "shape %s; wrap a scalar-only function in "
                              "pointwise(f)" % (y.shape, x.shape))
        return y

    return call


def pointwise(f: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """Array function that calls the scalar-only f once per element."""

    @functools.wraps(f)
    def call(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([float(f(t)) for t in x.ravel()],
                        dtype=float).reshape(x.shape)

    return call


def _check_exponent(exponent: float) -> None:
    if not (exponent > 0.0 and math.isfinite(exponent)):
        raise DomainError("kernel exponent must be positive and finite")


@functools.lru_cache(maxsize=16)
def _rules(exponent: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(R, n) Jacobi nodes and weights of R integrals' weights, zeros for
    exponent 1, from one stacked build; cached (a lone exponent's rule,
    and the rules that a batch's operator sides and its E share)."""
    nodes, weights = np.zeros((2, len(exponent), NODES))
    at = [i for i, e in enumerate(exponent) if e != 1.0]
    if at:
        nodes[at], weights[at] = _jacobi_rules(
            NODES, [exponent[i] - 1.0 for i in at])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _line_power(x: np.ndarray, e: np.ndarray, fast) -> np.ndarray:
    # x ** e[k] on line k of x in one array power, but on the lines at the
    # exponents in fast, those of e in {0.5, 2, -1}, numpy's scalar power,
    # sqrt, square or reciprocal, as a lone integral's power takes them
    out = x ** e[:, None]
    for s in fast:
        out[e == s] = x[e == s] ** s
    return out


def _panel_sums(g: Callable, lo: np.ndarray, exponent: np.ndarray) -> Callable:
    """sums(rows, a, b, mid, half): the rule sums of the panels [a[i], b[i]]
    of centres mid[i] and half-widths half[i], P to a line, line k of the
    integral rows[k], from one call g(nodes, rows) on a (K, P NODES)
    array.  rows, mid, half and the sums are arrays; a and b, read for
    the Jacobi panels alone, are arrays at a batch's level 0 and lists
    in the list levels (`_list_sums`).  The callers take mid and half
    as 0.5 (a + b) and 0.5 (b - a), elementwise or on Python floats,
    which round alike; a Jacobi panel's scale width**exponent is
    Python's pow.  The dots are one stacked product of contiguous rows,
    which takes each dot as the 1-D `w @ v` does (einsum, gemv and
    strided rows do not)."""
    xs, ws = _rule(NODES)
    flat = ws[None]  # the Legendre weights of every panel, as a row
    exps = exponent.tolist()
    weighted = any(e != 1.0 for e in exps)
    if weighted:
        jac_us, jac_lams = _rules(tuple(exps))
        powers = exponent - 1.0
        fast = {0.5, 2.0, -1.0}.intersection(powers.tolist())
        start = lo.tolist()[0]

    def sums(rows, a, b, mid: np.ndarray, half: np.ndarray) -> np.ndarray:
        pts = mid[:, None] + half[:, None] * xs
        w, scale = flat, half
        # the panel at lo of a weighted integral takes its Jacobi rule; its
        # Legendre nodes, replaced below, can round onto lo, so its gaps
        # x - lo are set to 1, which keeps their unused power finite
        if len(exps) == 1 and weighted:
            # a lone integral, whose levels are lists: one power, and its
            # Jacobi panels, those at lo, lead (a is in increasing order)
            jac, e = a.count(start), exps[0]
            gap = pts - start
            gap[:jac] = 1.0
            w = ws * gap ** (e - 1.0)
            if jac:
                width = [y - start for y in b[:jac]]
                pts[:jac] = start + np.array(width)[:, None] * jac_us[0]
                w[:jac] = jac_lams[0]
                scale = half.copy()
                scale[:jac] = [x ** e for x in width]
            w = w[:, None]
        elif weighted:
            a, b = np.asarray(a), np.asarray(b)
            per = rows.repeat(len(mid) // len(rows))
            gap = pts - lo[per][:, None]
            i = np.flatnonzero((a == lo[per]) & (powers[per] != 0.0))
            gap[i] = 1.0
            w = ws * _line_power(gap, powers[per], fast)
            if len(i):
                r, width = per[i], b[i] - a[i]
                pts[i] = lo[r][:, None] + width[:, None] * jac_us[r]
                w[i] = jac_lams[r]
                scale = half.copy()
                scale[i] = [x ** e for x, e
                            in zip(width.tolist(), exponent[r].tolist())]
            w = w[:, None]
        vals = np.ascontiguousarray(g(pts.reshape(len(rows), -1), rows),
                                    dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            return scale * (w @ vals.reshape(-1, NODES, 1)).ravel()

    return sums


def _list_sums(sums: Callable, rows: list, a: list, b: list) -> list:
    # sums of the panels of a list level, centres and half-widths taken on
    # Python floats
    return sums(np.array(rows), a, b,
                np.array([0.5 * (x + y) for x, y in zip(a, b)]),
                np.array([0.5 * (y - x) for x, y in zip(a, b)])).tolist()


def _added(panels: list) -> tuple[float, float]:
    # the sums and errors of panels (left end, sum, error), added in order
    # of left end: the order of a depth-first bisection, left half first
    total = err_total = 0.0
    for _, fine, err in sorted(panels, key=lambda panel: panel[0]):
        total += fine
        err_total += err
    return total, err_total


def _inside(lo: float, hi: float, breaks) -> list:
    # the breaks strictly inside (lo, hi), as increasing floats
    return sorted({float(c) for c in breaks if lo < c < hi})


def _cut(lo: float, hi: float, inner: list, weighted: bool) -> list:
    # [lo, *inner, hi]; in a weighted row a piece that starts at x > lo
    # and is more than 3 (x - lo) wide is cut again at lo + 4 (x - lo),
    # so that the weight's singular point lo lies at least a third of a
    # piece's width from it
    cuts = [lo]
    for y in inner + [hi]:
        x = cuts[-1]
        while weighted and x > lo and lo + 4.0 * (x - lo) < y:
            x = lo + 4.0 * (x - lo)
            cuts.append(x)
        cuts.append(y)
    return cuts


def _integrate_rows(g: Callable, lo, hi, exponent, breaks=None) -> list:
    """R integrals over [lo[r], hi[r]], lo < hi, of the operand g of
    `_panel_sums`: (value, error) or AccuracyError per row.

    Level 0 is each row's interval cut at its breaks (breaks[r], an
    iterable of floats; those not strictly inside the interval, NaN
    among them, are ignored), each piece with its halves; the row's
    budget is set by the sum of its pieces.  Each later level is the
    halves of every panel that missed, in all rows, in one operand call.
    A row fails when a panel misses once it has MAX_PANELS panels, when
    a panel narrower than span 2**-50 misses, or when the halves of a
    panel do not sum to a finite number; its estimate then adds the
    panels that missed to those accepted.

    A batch runs level 0 on float columns, one element per piece, and a
    row whose pieces all pass there is done (`_column_level`).  The rows
    with a missed piece refine in Python lists, and so does a lone
    integral from its level 0: those levels hold a few panels, where
    numpy's cost per call exceeds the arithmetic.  (An array level loop
    made the batch engine about 40 % cheaper, but a lone integral that
    refines about 3 times slower.)  Both take the same float operations
    in the same order, so a row's bits do not depend on its batch.
    """
    lo, hi, exponent = (np.asarray(x, dtype=float)
                        for x in (lo, hi, exponent))
    sums = _panel_sums(g, lo, exponent)
    if len(lo) != 1:
        out, level, budget, span, count = _column_level(sums, lo, hi,
                                                        exponent, breaks)
    else:
        [a], [b], [e] = lo.tolist(), hi.tolist(), exponent.tolist()
        cuts = ([a, b] if breaks is None
                else _cut(a, b, _inside(a, b, breaks[0]), e != 1.0))
        pieces = list(zip(cuts, cuts[1:]))
        mid = [0.5 * (a + b) for a, b in pieces]
        first = _list_sums(
            sums, [0] * len(pieces),
            [x for (a, _), m in zip(pieces, mid) for x in (a, a, m)],
            [x for (_, b), m in zip(pieces, mid) for x in (b, m, b)])
        # a panel: row, ends, its sum and its halves' sums; a level is in
        # order of row, then of left end
        level = [(0, a, b, *first[3 * k:3 * k + 3])
                 for k, (a, b) in enumerate(pieces)]
        whole = 0.0
        for panel in level:
            whole += panel[3]
        out, budget = [None], [max(ABS_TOL, REL_TOL * abs(whole))]
        span, count = [b - a], [3 * len(pieces)]
    accepted = {panel[0]: [] for panel in level}
    while level:
        missed = []
        for r, a, b, coarse, left, right in level:
            fine = left + right
            err = abs(fine - coarse)
            # a panel's share of the budget: its width's, or 1/MAX_PANELS,
            # so that deep refinements need no ever smaller errors
            if (err <= budget[r] * (b - a) / span[r]
                    or err <= budget[r] / MAX_PANELS):
                accepted[r].append((a, fine, err))
            else:
                missed.append((r, a, b, left, right, fine, err))
        stop = {r for r, a, b, _, _, fine, _ in missed
                if count[r] >= MAX_PANELS or b - a <= span[r] * 2.0 ** -50
                or not math.isfinite(fine)}
        for r in sorted(stop):
            total, err_total = _added(
                accepted.pop(r) + [(a, fine, err) for s, a, _, _, _, fine,
                                   err in missed if s == r])
            out[r] = AccuracyError("quadrature did not converge (%d panels, "
                                   "estimate %.6g, error %.3g)"
                                   % (count[r], total, err_total),
                                   estimate=total, error=err_total)
        # the halves of each panel that missed, and their halves
        level, ends_a, ends_b = [], [], []
        for r, a, b, left, right, _, _ in missed:
            if r in stop:
                continue
            m = 0.5 * (a + b)
            q1, q3 = 0.5 * (a + m), 0.5 * (m + b)
            level += [(r, a, m, left), (r, m, b, right)]
            ends_a += [a, q1, m, q3]
            ends_b += [q1, m, q3, b]
            count[r] += 2
        if level:
            halves = _list_sums(sums, [panel[0] for panel in level],
                                ends_a, ends_b)
            level = [panel + tuple(halves[2 * k:2 * k + 2])
                     for k, panel in enumerate(level)]
    for r, panels in accepted.items():
        out[r] = _added(panels)
    return out


def _column_level(sums: Callable, lo, hi, exponent, breaks) -> tuple:
    """Level 0 of `_integrate_rows` on float columns: each row's (value,
    error), and for the rows with a missed piece (whose values are
    placeholders) their pieces as the first list level, in order of row
    and left end, with every row's budget, span and panel count.  Each
    operation is the list code's on floats, and a row adds its pieces in
    their order from 0.0, as a Python sum does (0.0 + -0.0 is 0.0):
    np.add.at adds in index order."""
    n = len(lo)
    rows, a, b = np.arange(n), lo, hi
    if breaks is not None:
        cuts = [_cut(x, y, _inside(x, y, c), e != 1.0) for x, y, c, e
                in zip(lo.tolist(), hi.tolist(), breaks, exponent.tolist())]
        if any(len(c) > 2 for c in cuts):
            rows = rows.repeat([len(c) - 1 for c in cuts])
            a = np.array([x for c in cuts for x in c[:-1]])
            b = np.array([x for c in cuts for x in c[1:]])
    one = len(a) == n  # one piece a row
    with np.errstate(over="ignore", invalid="ignore"):
        width = b - a
        span = width if one else hi - lo
        ends_a, ends_b = a.repeat(3), b.repeat(3)
        ends_a[2::3] = ends_b[1::3] = 0.5 * (a + b)
        mid, half = 0.5 * (ends_a + ends_b), 0.5 * (ends_b - ends_a)
    # a piece's sum and its halves'
    coarse, left, right = sums(rows, ends_a, ends_b, mid,
                               half).reshape(-1, 3).T
    with np.errstate(over="ignore", invalid="ignore"):
        fine = left + right
        err = abs(fine - coarse)
        if one:
            # |whole| and err >= 0 do not see the sign of a zero
            whole, total, err_total = coarse, fine + 0.0, err
        else:
            whole, total, err_total = np.zeros((3, n))
            for sum_, x in ((whole, coarse), (total, fine), (err_total, err)):
                np.add.at(sum_, rows, x)
        # fmax takes ABS_TOL where REL_TOL |whole| is NaN, as Python's max
        budget = np.fmax(ABS_TOL, REL_TOL * abs(whole))
        share = budget if one else budget[rows]
        hit = err <= np.fmax(share * width / (span if one else span[rows]),
                             share / MAX_PANELS)
    out = list(zip(total.tolist(), err_total.tolist()))
    if hit.all():
        return out, [], [], [], []
    redo = np.zeros(n, dtype=bool)
    redo[rows[~hit]] = True
    at = np.flatnonzero(redo[rows])
    level = list(zip(*(c[at].tolist()
                       for c in (rows, a, b, coarse, left, right))))
    return (out, level, budget.tolist(), span.tolist(),
            (3 * np.bincount(rows, minlength=n)).tolist())


def _weighted_rows(g: Callable, lo, hi, exponent, breaks=None) -> list:
    """R integrals of (x - lo)**(exponent - 1) * g(x) over [lo, hi], as
    `_integrate_rows`; the rows with exponent != 1 whose Jacobi attempt
    fails (g singular at lo) rerun together once, as (1/exponent) times
    the integral of g(lo + v**(1/exponent)) over (0, (hi - lo)**exponent),
    with each break c at v = (c - lo)**exponent; a rerun's AccuracyError
    is the row's when its estimate and error are finite, and the first
    attempt's stays the row's otherwise."""
    out = _integrate_rows(g, lo, hi, exponent, breaks)
    at = [r for r, v in enumerate(out) if exponent[r] != 1.0
          and isinstance(v, AccuracyError)]
    if at:
        # Python floats, so that (hi - lo)**exponent is Python's pow
        lo, hi, exponent = (np.asarray(x, dtype=float).tolist()
                            for x in (lo, hi, exponent))
        again, starts = np.array(at), np.array([lo[r] for r in at])
        inv = np.array([1.0 / exponent[r] for r in at])
        fast = {0.5, 2.0, -1.0}.intersection(inv.tolist())
        # near v = 0, v**(1/exponent) underflows onto lo, where g may
        # overflow: such a rerun fails with a non-finite estimate or
        # error, and the row keeps its first failure
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            redo = _integrate_rows(
                lambda v, rows: g(starts[rows, None]
                                  + _line_power(v, inv[rows], fast),
                                  again[rows]),
                [0.0] * len(at), [(hi[r] - lo[r]) ** exponent[r] for r in at],
                [1.0] * len(at), None if breaks is None else
                [[(c - lo[r]) ** exponent[r]
                  for c in _inside(lo[r], hi[r], breaks[r])] for r in at])
        for r, v in zip(at, redo):
            if not isinstance(v, AccuracyError):
                out[r] = v[0] / exponent[r], v[1] / exponent[r]
            elif math.isfinite(v.estimate) and math.isfinite(v.error):
                out[r] = v
    return out


def integrate(f: Callable, lo: float, hi: float, *,
              full_output: bool = False, exponent: float = 1.0,
              points=()):
    """Integral of (x - lo)**(exponent - 1) * f(x) over [lo, hi].

    Returns (value, error) if full_output.  With exponent != 1 the panel
    at lo carries the weight in a Gauss-Jacobi rule, and an integral that
    fails so (f singular at lo) is re-run once through
    v = (x - lo)**exponent (module docstring).  points are breakpoints,
    as in QUADPACK's QAGP: the places in (lo, hi) where f may kink, at
    which the first panels end (points outside (lo, hi) are ignored).
    Raises AccuracyError when the panel budget is exhausted before the
    tolerance is met (divergent or unresolvable integrands).
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration limits must be finite")
    if hi < lo:
        raise DomainError("upper integration limit lies below the lower one")
    _check_exponent(exponent)
    if hi == lo:
        return (0.0, 0.0) if full_output else 0.0

    g = as_array_function(f)  # called on one flat array of nodes
    [out] = _weighted_rows(lambda x, rows: g(x.reshape(-1)).reshape(x.shape),
                           [lo], [hi], [exponent], [points])
    if isinstance(out, AccuracyError):
        raise out
    return out if full_output else out[0]


def power_kernel_integral(g: Callable, upper: float, exponent: float, *,
                          full_output: bool = False, points=()):
    """Integral of w**(exponent-1) * g(w) over (0, upper): `integrate`
    from 0, whose Gauss-Jacobi panel carries the kernel and whose rerun
    through v = w**exponent takes an operand singular at w = 0; points
    are `integrate`'s breakpoints, in w."""
    _check_exponent(exponent)
    if upper < 0.0:
        raise DomainError("upper endpoint must be nonnegative")
    return integrate(g, 0.0, upper, exponent=exponent,
                     full_output=full_output, points=points)
