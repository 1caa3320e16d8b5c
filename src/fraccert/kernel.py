"""Green's kernel of the nonlocal fractional boundary value problem.

Each equation of the system is determined by a parameter tuple
(alpha, beta, eta, b): the fractional order alpha in (1, 2], the weight
beta > 0 of the nonlocal derivative term, the interior evaluation point
eta in [0, 1), and the right endpoint b of the interval [0, b] on which
solutions stay above a fixed fraction of their sup-norm. Each, like every
number a user gives, is 0 or of magnitude in [1/RANGE, RANGE].

The kernel is

    k(t, s) = beta + (eta - s)^(alpha-1)/Gamma(alpha) * [s <= eta]
                   - (t - s)^(alpha-1)/Gamma(alpha)   * [s <= t],

with the envelope

    Phi(s) = beta + (eta - s)^(alpha-1)/Gamma(alpha)      for s <= eta,
             (1 - eta)^(alpha-1)/Gamma(alpha) - beta      for s > eta,

and the cone constant c = compute_c(params). The theory uses the kernel
only through |k| <= Phi on [0, 1]^2 and k >= c * Phi on [0, b] x [0, 1].

The parameter regime enforced here is the sign-changing one:
beta * Gamma(alpha) < (1 - eta)^(alpha-1), together with the interval
condition beta * Gamma(alpha) > (b - eta)^(alpha-1) for eta <= b < 1.
The envelope bound can fail in that regime on a set of positive measure:
on the reference tuple (1.5, 0.2, 0.75, 0.775), -k(1, s) exceeds Phi(s)
by up to 0.164 for s in (0.74429, 0.75). Model construction checks both
bounds on a GRID x GRID sample only, which proves nothing between its
points, and rejects the tuples that fail there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


__all__ = [
    "ParamError",
    "OrderOutOfRange",
    "NonpositiveBeta",
    "EtaOutOfRange",
    "FocusCaseViolated",
    "IntervalChoiceViolated",
    "KernelBoundError",
    "RANGE",
    "in_range",
    "ProblemParams",
    "validate_params",
    "check_params",
    "default_interval_end",
    "kernel_values",
    "phi_values",
    "compute_c",
    "KernelModel",
    "build_model",
    "BoundReport",
    "verify_kernel_bounds",
]


RANGE = 2.0 ** 480
RANGE_RULE = "magnitude in [2^-480, 2^480]"


def in_range(x, top: float = RANGE) -> bool:
    """x is 0 or its magnitude lies in [1/RANGE, top]: never nan or an infinity."""
    return x == 0.0 or 1.0 / RANGE <= abs(x) <= top


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
    """b <= 0, b outside [eta, 1) or beta * Gamma(alpha) > (b - eta)^(alpha-1) fails."""


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
        if not (isinstance(val, (int, float)) and in_range(val)):
            problems.append((ParamError, f"{name} must be 0 or of {RANGE_RULE}, got {val!r}"))
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
    g = math.gamma(alpha)
    if not beta * g < (1.0 - eta) ** (alpha - 1.0):
        problems.append((FocusCaseViolated,
                         f"sign-changing regime requires beta*Gamma(alpha) < (1-eta)^(alpha-1); "
                         f"got {beta * g:.6g} >= {(1.0 - eta) ** (alpha - 1.0):.6g}"))
        return problems
    if not (eta <= b < 1.0 and b > 0.0):
        problems.append((IntervalChoiceViolated,
                         f"interval end b must be > 0 and lie in [eta, 1) = [{eta!r}, 1), "
                         f"got {b!r}"))
        return problems
    if not beta * g > (b - eta) ** (alpha - 1.0):
        problems.append((IntervalChoiceViolated,
                         f"interval condition requires beta*Gamma(alpha) > (b-eta)^(alpha-1); "
                         f"got {beta * g:.6g} <= {(b - eta) ** (alpha - 1.0):.6g} (reduce b "
                         f"toward eta; any b < eta + (beta*Gamma(alpha))^(1/(alpha-1)) works)"))
    return problems


def validate_params(alpha: float, beta: float, eta: float, b: float) -> ProblemParams:
    """Validate a parameter tuple, raising the first violated condition."""
    problems = check_params(alpha, beta, eta, b)
    if problems:
        kind, msg = problems[0]
        raise kind(msg)
    return ProblemParams(float(alpha), float(beta), float(eta), float(b))


def default_interval_end(alpha: float, beta: float, eta: float) -> float:
    """The interval end b a config may omit: the midpoint (eta + 1)/2 if it
    is admissible, else eta ([0, eta] is admissible whenever eta > 0 and the
    rest of the tuple is)."""
    b = (float(eta) + 1.0) / 2.0
    return b if not check_params(alpha, beta, eta, b) else float(eta)


def _power(x, p: float):
    """x**p for x > 0 and an exact zero elsewhere, so it carries the indicator [x > 0]."""
    return np.where(x > 0.0, np.maximum(x, 0.0) ** p, 0.0)


def kernel_values(p: ProblemParams, t, s) -> np.ndarray:
    """k(t, s) broadcast over arrays of t and s values in [0, 1].

    The indicator convention is closed: the (eta - s) term contributes for
    s <= eta and the (t - s) term for s <= t, each vanishing continuously
    at its breakpoint; _power is zero past it.
    """
    s = np.asarray(s, dtype=float)
    g = math.gamma(p.alpha)
    e = p.alpha - 1.0
    return p.beta + _power(p.eta - s, e) / g - _power(t - s, e) / g


def phi_values(p: ProblemParams, s) -> np.ndarray:
    """Phi(s) over an array of s values; Phi(eta) = beta (closed s <= eta branch)."""
    s = np.asarray(s, dtype=float)
    g = math.gamma(p.alpha)
    e = p.alpha - 1.0
    upper = (1.0 - p.eta) ** e / g - p.beta
    return np.where(s <= p.eta, p.beta + _power(p.eta - s, e) / g, upper)


def compute_c(p: ProblemParams) -> float:
    """Cone constant c in [1/RANGE, 1] with k(t, s) >= c * Phi(s) on [0, b] x [0, 1].

    c = min( (bG - d) / ((1-eta)^(alpha-1) - bG),
             (bG - d) / (bG + eta^(alpha-1)) ),

    where bG = beta * Gamma(alpha) and d = (b - eta)^(alpha-1).
    """
    g = math.gamma(p.alpha)
    e = p.alpha - 1.0
    bg = p.beta * g
    num = bg - (p.b - p.eta) ** e
    c = min(num / ((1.0 - p.eta) ** e - bg), num / (bg + p.eta**e))
    if not 1.0 / RANGE <= c <= 1.0:
        raise ParamError(f"cone constant fell outside [2^-480, 1]: {c!r}")
    return c


# samples per axis and tolerance of the sampled kernel-bound check
GRID = 101
TOL = 1e-10


@dataclass(frozen=True)
class KernelModel:
    """A validated kernel with its cone constant.

    Invariants (enforced by build_model): c in [1/RANGE, 1], and the envelope
    bounds pass on the GRID x GRID sample within TOL (not a proof).
    """

    params: ProblemParams
    c: float
    gamma_alpha: float


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the sampled kernel-bound verification."""

    max_envelope_violation: float
    envelope_location: tuple[float, float]
    max_cone_violation: float
    cone_location: tuple[float, float]
    passed: bool


def _worst(viol: np.ndarray, t: np.ndarray, s: np.ndarray) -> tuple[float, tuple[float, float]]:
    """Largest entry of a (t, s) violation table; the first in row-major order wins ties."""
    i, j = np.unravel_index(int(np.argmax(viol)), viol.shape)
    return float(viol[i, j]), (float(t[i]), float(s[j]))


def verify_kernel_bounds(model: KernelModel) -> BoundReport:
    """Check |k| <= Phi on [0,1]^2 and k >= c*Phi on [0,b] x [0,1] on a GRID x GRID sample.

    Both envelope inequalities hold only almost everywhere in s; Phi jumps
    at s = eta. A sample landing exactly on the jump is therefore compared
    against the essential (two-sided limit) envelope
    max(beta, (1-eta)^(alpha-1)/Gamma(alpha) - beta) instead of the branch
    value, so that null-set artifacts are not reported as violations. The
    cone inequality keeps the branch value (it only gets easier at the jump).
    A passing report proves nothing between the sample points.
    """
    p = model.params
    s = np.linspace(0.0, 1.0, GRID)
    phi = phi_values(p, s)
    phi_env = phi.copy()  # phi[-1] is Phi's (eta, 1] branch, as s = 1 > eta
    phi_env[np.isclose(s, p.eta, rtol=0.0, atol=1e-13)] = max(p.beta, phi[-1])
    t = np.linspace(0.0, 1.0, GRID)
    env = _worst(np.abs(kernel_values(p, t[:, None], s)) - phi_env, t, s)
    t = np.linspace(0.0, p.b, GRID)
    cone = _worst(model.c * phi - kernel_values(p, t[:, None], s), t, s)
    return BoundReport(*env, *cone, passed=env[0] <= TOL and cone[0] <= TOL)


def build_model(params: ProblemParams) -> KernelModel:
    """Construct a KernelModel, verifying the envelope bounds on the sample grid.

    Raises KernelBoundError when the sampled bounds fail: validate_params
    admits parameter tuples outside the regime in which the printed
    envelope actually dominates |k|, and such tuples must be rejected here
    rather than silently producing unsound cone constants.
    """
    model = KernelModel(params=params, c=compute_c(params), gamma_alpha=math.gamma(params.alpha))
    report = verify_kernel_bounds(model)
    if not report.passed:
        raise KernelBoundError(
            "sampled kernel bounds failed: "
            f"max |k|-Phi violation {report.max_envelope_violation:.3e} at "
            f"(t, s) = {report.envelope_location}, "
            f"max c*Phi-k violation {report.max_cone_violation:.3e} at "
            f"(t, s) = {report.cone_location} (tol {TOL:g})"
        )
    return model
