"""Green's kernel of the nonlocal fractional boundary value problem.

Each equation of the system is determined by a parameter tuple
(alpha, beta, eta, b): the fractional order alpha in (1, 2], the weight
beta > 0 of the nonlocal derivative term, the interior evaluation point
eta in [0, 1), and the right endpoint b of the interval [0, b] on which
solutions stay above a fixed fraction of their sup-norm.

The kernel is

    k(t, s) = beta + (eta - s)^(alpha-1)/Gamma(alpha) * [s <= eta]
                   - (t - s)^(alpha-1)/Gamma(alpha)   * [s <= t],

with the envelope

    Phi(s) = beta + (eta - s)^(alpha-1)/Gamma(alpha)      for s <= eta,
             (1 - eta)^(alpha-1)/Gamma(alpha) - beta      for s > eta,

satisfying |k(t, s)| <= Phi(s) for all t and almost every s, and
k(t, s) >= c * Phi(s) on [0, b] x [0, 1], where c = compute_c(params).

The parameter regime enforced here is the sign-changing one:
beta * Gamma(alpha) < (1 - eta)^(alpha-1), together with the interval
condition beta * Gamma(alpha) > (b - eta)^(alpha-1) for eta <= b < 1.
The envelope inequality itself holds only in part of that regime; model
construction verifies it numerically and fails loudly outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specialfn import gamma

__all__ = [
    "ParamError",
    "OrderOutOfRange",
    "NonpositiveBeta",
    "EtaOutOfRange",
    "FocusCaseViolated",
    "IntervalChoiceViolated",
    "KernelBoundError",
    "ProblemParams",
    "validate_params",
    "check_params",
    "default_interval_end",
    "kernel_eval",
    "phi_eval",
    "compute_c",
    "KernelModel",
    "build_model",
    "BoundReport",
    "verify_kernel_bounds",
]


class ParamError(ValueError):
    """A parameter tuple violates one of the admissibility inequalities."""


class OrderOutOfRange(ParamError):
    """Fractional order outside (1, 2]."""


class NonpositiveBeta(ParamError):
    """Nonlocal weight beta must be strictly positive."""


class EtaOutOfRange(ParamError):
    """Interior point eta outside [0, 1)."""


class FocusCaseViolated(ParamError):
    """beta * Gamma(alpha) < (1 - eta)^(alpha-1) fails (kernel would not change sign)."""


class IntervalChoiceViolated(ParamError):
    """b outside [eta, 1) or beta * Gamma(alpha) > (b - eta)^(alpha-1) fails."""


class KernelBoundError(RuntimeError):
    """Sampled envelope bounds failed at model construction."""


@dataclass(frozen=True)
class ProblemParams:
    """Validated parameter tuple of one equation."""

    alpha: float
    beta: float
    eta: float
    b: float


def check_params(alpha: float, beta: float, eta: float, b: float) -> list[tuple[type[ParamError], str]]:
    """Collect every violated admissibility condition as an (error class, message) pair."""
    problems: list[tuple[type[ParamError], str]] = []
    for name, val in (("alpha", alpha), ("beta", beta), ("eta", eta), ("b", b)):
        if not (isinstance(val, (int, float)) and math.isfinite(float(val))):
            problems.append((ParamError, f"{name} must be a finite real number, got {val!r}"))
    if problems:
        return problems
    alpha, beta, eta, b = float(alpha), float(beta), float(eta), float(b)
    if not 1.0 < alpha <= 2.0:
        problems.append((OrderOutOfRange, f"order alpha must lie in (1, 2], got {alpha!r}"))
    if beta <= 0.0:
        problems.append((NonpositiveBeta, f"beta must be > 0, got {beta!r}"))
    if not 0.0 <= eta < 1.0:
        problems.append((EtaOutOfRange, f"eta must lie in [0, 1), got {eta!r}"))
    if problems:
        return problems
    g = gamma(alpha)
    if not beta * g < (1.0 - eta) ** (alpha - 1.0):
        problems.append((FocusCaseViolated,
                         f"sign-changing regime requires beta*Gamma(alpha) < (1-eta)^(alpha-1); "
                         f"got {beta * g:.6g} >= {(1.0 - eta) ** (alpha - 1.0):.6g}"))
        return problems
    if not eta <= b < 1.0:
        problems.append((IntervalChoiceViolated,
                         f"interval end b must lie in [eta, 1) = [{eta!r}, 1), got {b!r}"))
        return problems
    if not beta * g > (b - eta) ** (alpha - 1.0):
        problems.append((IntervalChoiceViolated,
                         f"interval condition requires beta*Gamma(alpha) > (b-eta)^(alpha-1); "
                         f"got {beta * g:.6g} <= {(b - eta) ** (alpha - 1.0):.6g} (reduce b "
                         f"toward eta; any b < eta + (beta*Gamma(alpha))^(1/(alpha-1)) works)"))
    return problems


def validate_params(alpha: float, beta: float, eta: float, b: float | None = None) -> ProblemParams:
    """Validate a parameter tuple, raising the first violated condition.

    When ``b`` is omitted, the midpoint default (eta + 1)/2 is used if it
    satisfies the interval condition; otherwise IntervalChoiceViolated is
    raised with the admissible range.
    """
    if b is None:
        b = (float(eta) + 1.0) / 2.0
    problems = check_params(alpha, beta, eta, b)
    if problems:
        kind, msg = problems[0]
        raise kind(msg)
    return ProblemParams(float(alpha), float(beta), float(eta), float(b))


def default_interval_end(alpha: float, beta: float, eta: float) -> float | None:
    """Return the midpoint default b = (eta + 1)/2 if admissible, else None."""
    b = (float(eta) + 1.0) / 2.0
    return b if not check_params(alpha, beta, eta, b) else None


def _power(x, p: float):
    """x**p for x >= 0 with exact zero at x = 0 (numpy-safe)."""
    return np.where(x > 0.0, np.maximum(x, 0.0) ** p, 0.0)


def kernel_values(p: ProblemParams, t: float, s) -> np.ndarray:
    """Vectorized k(t, s) over an array of s values at fixed t."""
    s = np.asarray(s, dtype=float)
    g = gamma(p.alpha)
    e = p.alpha - 1.0
    out = np.full(s.shape, p.beta)
    out = out + np.where(s <= p.eta, _power(p.eta - s, e), 0.0) / g
    out = out - np.where(s <= t, _power(t - s, e), 0.0) / g
    return out


def kernel_eval(p: ProblemParams, t: float, s: float) -> float:
    """Evaluate k(t, s) for t, s in [0, 1].

    The indicator convention is closed: the (eta - s) term contributes for
    s <= eta and the (t - s) term for s <= t, each vanishing continuously
    at its breakpoint.
    """
    t, s = float(t), float(s)
    if not (0.0 <= t <= 1.0 and 0.0 <= s <= 1.0):
        raise ValueError(f"kernel arguments must lie in [0, 1], got t={t!r}, s={s!r}")
    g = gamma(p.alpha)
    e = p.alpha - 1.0
    val = p.beta
    if s <= p.eta:
        val += (p.eta - s) ** e / g
    if s <= t:
        val -= (t - s) ** e / g
    return val


def phi_values(p: ProblemParams, s) -> np.ndarray:
    """Vectorized Phi(s) over an array of s values."""
    s = np.asarray(s, dtype=float)
    g = gamma(p.alpha)
    e = p.alpha - 1.0
    upper = (1.0 - p.eta) ** e / g - p.beta
    return np.where(s <= p.eta, p.beta + _power(p.eta - s, e) / g, upper)


def phi_eval(p: ProblemParams, s: float) -> float:
    """Evaluate the envelope Phi(s) for s in [0, 1].

    Phi is the printed L-infinity envelope; its value at the jump point
    s = eta follows the closed s <= eta branch (so Phi(eta) = beta).
    """
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"envelope argument must lie in [0, 1], got {s!r}")
    g = gamma(p.alpha)
    e = p.alpha - 1.0
    if s <= p.eta:
        return p.beta + (p.eta - s) ** e / g
    return (1.0 - p.eta) ** e / g - p.beta


def compute_c(p: ProblemParams) -> float:
    """Cone constant c in (0, 1] with k(t, s) >= c * Phi(s) on [0, b] x [0, 1].

    c = min( (bG - d) / ((1-eta)^(alpha-1) - bG),
             (bG - d) / (bG + eta^(alpha-1)) ),

    where bG = beta * Gamma(alpha) and d = (b - eta)^(alpha-1).
    """
    g = gamma(p.alpha)
    e = p.alpha - 1.0
    bg = p.beta * g
    num = bg - (p.b - p.eta) ** e
    c = min(num / ((1.0 - p.eta) ** e - bg), num / (bg + p.eta**e))
    if not 0.0 < c <= 1.0:
        raise ParamError(f"cone constant fell outside (0, 1]: {c!r}")
    return c


@dataclass(frozen=True)
class KernelModel:
    """A validated kernel with its cone constant.

    Invariants (enforced by build_model): c in (0, 1], and the sampled
    envelope bounds pass on the construction grid within 1e-10.
    """

    params: ProblemParams
    c: float
    gamma_alpha: float

    @property
    def positivity_interval(self) -> tuple[float, float]:
        return (0.0, self.params.b)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the sampled kernel-bound verification."""

    n_t: int
    n_s: int
    max_envelope_violation: float
    envelope_location: tuple[float, float]
    max_cone_violation: float
    cone_location: tuple[float, float]
    tol: float
    passed: bool


def verify_kernel_bounds(model: KernelModel, n_t: int, n_s: int, tol: float = 1e-10) -> BoundReport:
    """Check |k| <= Phi on [0,1]^2 and k >= c*Phi on [0,b] x [0,1] on a grid.

    Both envelope inequalities hold only almost everywhere in s; Phi jumps
    at s = eta. A sample landing exactly on the jump is therefore compared
    against the essential (two-sided limit) envelope
    max(beta, (1-eta)^(alpha-1)/Gamma(alpha) - beta) instead of the branch
    value, so that null-set artifacts are not reported as violations. The
    cone inequality keeps the branch value (it only gets easier at the jump).
    """
    if n_t < 2 or n_s < 2:
        raise ValueError(f"verification grid needs n_t, n_s >= 2, got {n_t}, {n_s}")
    p = model.params
    g = model.gamma_alpha
    e = p.alpha - 1.0
    s = np.linspace(0.0, 1.0, n_s)
    phi = phi_values(p, s)
    phi_env = phi.copy()
    at_jump = np.isclose(s, p.eta, rtol=0.0, atol=1e-13)
    phi_env[at_jump] = max(p.beta, (1.0 - p.eta) ** e / g - p.beta)

    worst_env = -math.inf
    env_loc = (0.0, 0.0)
    for t in np.linspace(0.0, 1.0, n_t):
        viol = np.abs(kernel_values(p, t, s)) - phi_env
        j = int(np.argmax(viol))
        if viol[j] > worst_env:
            worst_env, env_loc = float(viol[j]), (float(t), float(s[j]))

    worst_cone = -math.inf
    cone_loc = (0.0, 0.0)
    for t in np.linspace(0.0, p.b, n_t):
        viol = model.c * phi - kernel_values(p, t, s)
        j = int(np.argmax(viol))
        if viol[j] > worst_cone:
            worst_cone, cone_loc = float(viol[j]), (float(t), float(s[j]))

    return BoundReport(
        n_t=n_t,
        n_s=n_s,
        max_envelope_violation=worst_env,
        envelope_location=env_loc,
        max_cone_violation=worst_cone,
        cone_location=cone_loc,
        tol=tol,
        passed=(worst_env <= tol and worst_cone <= tol),
    )


def build_model(params: ProblemParams, n_t: int = 101, n_s: int = 101, tol: float = 1e-10) -> KernelModel:
    """Construct a KernelModel, verifying the envelope bounds on a grid.

    Raises KernelBoundError when the sampled bounds fail: validate_params
    admits parameter tuples outside the regime in which the printed
    envelope actually dominates |k|, and such tuples must be rejected here
    rather than silently producing unsound cone constants.
    """
    model = KernelModel(params=params, c=compute_c(params), gamma_alpha=gamma(params.alpha))
    report = verify_kernel_bounds(model, n_t, n_s, tol)
    if not report.passed:
        raise KernelBoundError(
            "sampled kernel bounds failed: "
            f"max |k|-Phi violation {report.max_envelope_violation:.3e} at "
            f"(t, s) = {report.envelope_location}, "
            f"max c*Phi-k violation {report.max_cone_violation:.3e} at "
            f"(t, s) = {report.cone_location} (tol {tol:g})"
        )
    return model
