"""Threshold constants of the index conditions, from closed forms.

The thresholds are

    1/m = sup_{t in [0,1]}  int_0^1 |k(t, s)| ds,
    1/M = inf_{t in [0,b]}  int_0^b  k(t, s) ds,

with the envelope estimates

    1/m_hat = int_0^1 Phi(s) ds,      1/M_hat = int_0^b c * Phi(s) ds,

which always satisfy m >= m_hat and M <= M_hat.

The kernel is a constant plus two power functions, so each integral has
an exact antiderivative. With G = Gamma(alpha + 1),

    K(s) = beta*s - (eta - s)_+^alpha / G + (t - s)_+^alpha / G

is continuous with K' = k(t, .), and k(t, .) keeps its sign between its
sign crossings. k(., s) is nonincreasing in t, so the infimum defining M
sits at t = b; the supremum defining m is located numerically on a grid
of t values and refined by golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import KernelModel, ProblemParams

__all__ = [
    "row_crossings",
    "abs_row_integral",
    "compute_m",
    "compute_M",
    "compute_hat_constants",
    "ConstantsReport",
    "compute_constants",
]

# t values of the grid that brackets the supremum defining m
_T_POINTS = 513

# width at which the bisection for a crossing in (0, eta) stops; it is
# above the float spacing on (0, 1), so the halving always makes progress
_XTOL = 1e-15


def row_crossings(p: ProblemParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Sign crossings of k(t, .) on (0, eta) and on (eta, t), NaN where absent.

    k(t, .) is positive for t <= eta. For t > eta it decreases on [0, eta],
    increases on [eta, t] and equals beta on [t, 1], so each side of its
    minimum k(t, eta) holds at most one crossing. The crossing on (eta, t)
    solves beta = (t - s)^(alpha-1)/Gamma(alpha) exactly; the one on
    (0, eta) is found by bisection over the whole t-array at once.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    g = math.gamma(p.alpha)
    e = p.alpha - 1.0
    width = (p.beta * g) ** (1.0 / e)
    hi = np.where(t - p.eta > width, t - width, np.nan)
    # the (0, eta) crossing needs k(t, 0) > 0 > k(t, eta)
    need = ~np.isnan(hi) & (p.beta + (p.eta ** e - t ** e) / g > 0.0)
    tt = t[need]
    a = np.zeros_like(tt)
    b = np.full_like(tt, p.eta)
    while np.any(b - a > _XTOL):
        mid = 0.5 * (a + b)
        pos = p.beta + ((p.eta - mid) ** e - (tt - mid) ** e) / g > 0.0
        a = np.where(pos, mid, a)
        b = np.where(pos, b, mid)
    lo = np.full(t.shape, np.nan)
    lo[need] = 0.5 * (a + b)
    return lo, hi


def abs_row_integral(p: ProblemParams, t) -> np.ndarray:
    """R(t) = int_0^1 |k(t, s)| ds as sum_j |K(z_{j+1}) - K(z_j)|.

    The z_j are 0, the sign crossings of k(t, .) and 1; an absent crossing
    collapses onto s = 0 and adds nothing.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    G = math.gamma(p.alpha + 1.0)
    lo, hi = row_crossings(p, t)
    z = np.stack((np.zeros_like(t), np.nan_to_num(lo), np.nan_to_num(hi), np.ones_like(t)), axis=1)
    K = (p.beta * z - np.maximum(p.eta - z, 0.0) ** p.alpha / G
         + np.maximum(t[:, None] - z, 0.0) ** p.alpha / G)
    return np.abs(np.diff(K, axis=1)).sum(axis=1)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo: float, hi: float, xtol: float = 1e-11) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (argmax, max)."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
    x = x1 if f1 >= f2 else x2
    return x, max(f1, f2)


def compute_m(model: KernelModel) -> tuple[float, float]:
    """Tight threshold m with 1/m = sup_t int_0^1 |k(t, s)| ds.

    The supremum is located on a grid of 513 t values and refined by
    golden-section search between the neighbours of the best grid point.
    Returns (m, t_star).
    """
    p = model.params
    ts = np.linspace(0.0, 1.0, _T_POINTS)
    vals = abs_row_integral(p, ts)
    i = int(np.argmax(vals))
    x, sup = _golden_max(lambda t: float(abs_row_integral(p, t)[0]),
                         float(ts[max(i - 1, 0)]), float(ts[min(i + 1, _T_POINTS - 1)]))
    if vals[i] >= sup:
        x, sup = float(ts[i]), float(vals[i])
    return 1.0 / sup, x


def compute_M(model: KernelModel) -> tuple[float, float]:
    """Tight threshold M with 1/M = inf_{t in [0,b]} int_0^b k(t, s) ds.

    k(., s) is nonincreasing in t, so the infimum is attained at t = b:
    1/M = beta*b + (eta^alpha - b^alpha)/Gamma(alpha+1). Returns (M, b).
    Raises ValueError if the infimum is not positive (cannot happen for a
    model whose cone bounds verified).
    """
    p = model.params
    inf = p.beta * p.b + (p.eta ** p.alpha - p.b ** p.alpha) / math.gamma(p.alpha + 1.0)
    if not inf > 0.0:
        raise ValueError(f"kernel integral lost positivity on [0, b]: inf = {inf:.3e}")
    return 1.0 / inf, p.b


def compute_hat_constants(model: KernelModel) -> tuple[float, float]:
    """Estimates (m_hat, M_hat) from the envelope integrals.

    1/m_hat = beta*eta + eta^alpha/Gamma(alpha+1) + (1-eta)*U and
    1/M_hat = c*(beta*eta + eta^alpha/Gamma(alpha+1) + (b-eta)*U), where
    U = (1-eta)^(alpha-1)/Gamma(alpha) - beta is Phi on (eta, 1].
    Conservative for the index conditions since m_hat <= m and M_hat >= M.
    """
    p = model.params
    head = p.beta * p.eta + p.eta ** p.alpha / math.gamma(p.alpha + 1.0)
    upper = (1.0 - p.eta) ** (p.alpha - 1.0) / model.gamma_alpha - p.beta
    inv_m_hat = head + (1.0 - p.eta) * upper
    inv_M_hat = model.c * (head + (p.b - p.eta) * upper)
    return 1.0 / inv_m_hat, 1.0 / inv_M_hat


@dataclass(frozen=True)
class ConstantsReport:
    """Threshold constants of one equation.

    Invariants: all entries positive and finite, m >= m_hat and
    M <= M_hat exactly.
    """

    m: float
    M: float
    m_hat: float
    M_hat: float
    t_star_m: float
    t_star_M: float

    def __post_init__(self):
        for name in ("m", "M", "m_hat", "M_hat"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"constant {name} must be positive finite, got {v!r}")
        if self.m < self.m_hat:
            raise ValueError(f"m = {self.m!r} fell below its estimate m_hat = {self.m_hat!r}")
        if self.M > self.M_hat:
            raise ValueError(f"M = {self.M!r} exceeded its estimate M_hat = {self.M_hat!r}")


def compute_constants(model: KernelModel) -> ConstantsReport:
    """Compute every threshold constant of one equation."""
    m, t_star_m = compute_m(model)
    M, t_star_M = compute_M(model)
    m_hat, M_hat = compute_hat_constants(model)
    return ConstantsReport(m=m, M=M, m_hat=m_hat, M_hat=M_hat,
                           t_star_m=t_star_m, t_star_M=t_star_M)
