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
sits at t = b; the supremum defining m sits at t = 0 or t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# width at which the bisection for a crossing in (0, eta) stops; it is
# above the float spacing on (0, 1), so the halving always makes progress
_XTOL = 1e-15


def row_crossings(p: ProblemParams, t: float) -> tuple[float, float]:
    """Sign crossings (lo, hi) of k(t, .) on (0, eta) and on (eta, t), 0.0 where absent.

    k(t, .) is positive for t <= eta. For t > eta it decreases on [0, eta],
    increases on [eta, t] and equals beta on [t, 1], so each side of its
    minimum k(t, eta) holds at most one crossing. The crossing on (eta, t)
    solves beta = (t - s)^(alpha-1)/Gamma(alpha) exactly; the one on
    (0, eta) is found by bisection, halving until the bracket is narrower
    than _XTOL. Both lie above 0, so 0.0 marks an absent one.
    """
    g = math.gamma(p.alpha)
    e = p.alpha - 1.0
    width = (p.beta * g) ** (1.0 / e)
    if not t - p.eta > width:
        return 0.0, 0.0
    # the (0, eta) crossing needs k(t, 0) > 0 > k(t, eta)
    if not p.beta + (p.eta ** e - t ** e) / g > 0.0:
        return 0.0, t - width
    a, b = 0.0, p.eta
    while b - a > _XTOL:
        mid = 0.5 * (a + b)
        if p.beta + ((p.eta - mid) ** e - (t - mid) ** e) / g > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b), t - width


def abs_row_integral(p: ProblemParams, t: float) -> float:
    """R(t) = int_0^1 |k(t, s)| ds as sum_j |K(z_{j+1}) - K(z_j)|.

    The z_j are 0, the sign crossings of k(t, .) and 1; an absent crossing
    collapses onto s = 0 and adds nothing.
    """
    G = math.gamma(p.alpha + 1.0)
    lo, hi = row_crossings(p, t)
    k0, k1, k2, k3 = (p.beta * z - max(p.eta - z, 0.0) ** p.alpha / G
                      + max(t - z, 0.0) ** p.alpha / G for z in (0.0, lo, hi, 1.0))
    return abs(k1 - k0) + abs(k2 - k1) + abs(k3 - k2)


def compute_m(model: KernelModel) -> tuple[float, float]:
    """Tight threshold m with 1/m = sup_t R(t), R(t) = int_0^1 |k(t, s)| ds.

    The supremum is max(R(0), R(1)); a tie goes to t = 0. Returns (m, t_star).

    Proof. Let w = (beta*Gamma(alpha))^(1/(alpha-1)). For t <= eta + w,
    k(t, .) >= 0, so R(t) = beta + (eta^alpha - t^alpha)/Gamma(alpha+1)
    decreases. For t > eta + w, k(t, .) < 0 exactly between its crossings
    lo in (0, eta), if any (else 0), and hi = t - w; as k(t, lo) = k(t, hi)
    = 0, differentiating R = 2K(lo) - 2K(hi) + K(1) - K(0) in t gives
        R' Gamma(alpha) = 2(eta - lo)^(alpha-1) - t^(alpha-1)   with lo,
        R' Gamma(alpha) = t^(alpha-1) - 2w^(alpha-1)            without,
    which agree where lo leaves s = 0 and match the left piece at
    t = eta + w. With A = (eta-lo)^(alpha-2) > B = (t-lo)^(alpha-2) >=
    C = t^(alpha-2), implicit differentiation of k(t, lo) = 0 gives
    R'' Gamma(alpha)/(alpha-1) = 2AB/(A-B) - C >= 2B - C > 0 with lo, and
    C > 0 without, so R is convex past eta + w. At alpha = 2, w = beta and
    k(t, .) = beta + eta - t is constant on [0, eta), so past eta + w no lo
    exists, R(t) = eta(t-beta-eta) + (t-beta-eta)^2/2 + beta^2/2 + beta(1-t),
    R' = t - 2 beta and R'' = 1. Either way R decreases and then is convex,
    so its maximum sits at an endpoint.
    """
    r0, r1 = (abs_row_integral(model.params, t) for t in (0.0, 1.0))
    return (1.0 / r1, 1.0) if r1 > r0 else (1.0 / r0, 0.0)


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
