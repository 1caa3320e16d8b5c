"""Fixed-point-index certificates for the two-equation Hammerstein system.

A certificate asserts a minimum number of nontrivial solutions (or their
absence) from strict inequalities between sampled extrema of the
nonlinearities and the kernel thresholds:

* (I1) at radii (rho_1, rho_2): for both equations,
      sup { f_i(t, u, v) / rho_i : t in [0,1], |u| <= rho_1, |v| <= rho_2 }
  lies strictly below m_i  (index 1 on the open ball).

* (I0) at (rho_1, rho_2): for equation 1,
      inf { f_1(t, u, v) / rho_1 : t in [0, b_1],
            u in [rho_1, rho_1/c_1], |v| <= rho_2/c_2 }
  lies strictly above M_1, and symmetrically for equation 2 with
  v in [rho_2, rho_2/c_2], |u| <= rho_1/c_1  (index 0 on V_rho).

* (I0)* at (rho_1, rho_2) for a single equation i: as (I0) but with the
  enlarged range [0, rho_i/c_i] for the equation's own component.

Alternating conditions along a strictly ordered ladder of radii yield 1,
2 or 3 nontrivial solutions (patterns S1..S6); linear-growth comparisons
against m_i (below) or M_i (above) on a user box yield a nonexistence
certificate scoped to that box (patterns NONEXIST-1/2/3).

All extrema are sampled estimates, not proved bounds: a sup estimate is a
lower bound of the true sup, an inf estimate an upper bound of the true
inf. Every box, index or nonexistence, is sampled by one rule: on an open
grid, never a materialised mesh, with the expression evaluated un-broadcast.
Only the axes it reads are built (a growth ratio also reads its own
component); an unread axis is its first point, where the full grid's first
maximum lies, and ``samples`` counts the full grid, a one-point range once.
A ladder level checks its equations in order and stops at the first that
fails (``check_I1`` and ``check_I0`` return both); so does each assignment
a nonexistence check tries, so a growth ratio past the first failure is
never sampled and cannot overflow. An index condition stops refining at
its first failing round, which no later one can rescue.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .exprlang import Expr, _compiled
from .kernel import RANGE, RANGE_RULE, in_range
from .problem import Problem

__all__ = [
    "Box3",
    "ExtremumEstimate",
    "box_sup",
    "box_inf",
    "ConditionResult",
    "Certificate",
    "CertificateInvalid",
    "LadderOrderViolation",
    "ConditionFailed",
    "PATTERNS",
    "check_I1",
    "check_I0",
    "check_I0_star",
    "check_pattern",
    "search_certificate",
    "check_nonexistence",
    "revalidate_certificate",
]

# relative width of the slab |w_i| < eps excluded from variant-1
# nonexistence sampling (the condition quantifies over w_i != 0)
NE_EXCLUSION = 1e-6
_BOX_TOP = 2.0 * RANGE ** 2  # the largest magnitude of a box end


@dataclass(frozen=True)
class Box3:
    """Axis-aligned sampling box for (t, u, v); the t range stays in [0, 1]. Each end is 0
    or of magnitude in [1/RANGE, 2 RANGE^2]: room for rho/c at a search's top point past hi."""

    t_range: tuple[float, float]
    u_range: tuple[float, float]
    v_range: tuple[float, float]

    def __post_init__(self):
        for name, (lo, hi) in (("t_range", self.t_range), ("u_range", self.u_range),
                               ("v_range", self.v_range)):
            if not (lo <= hi and in_range(lo, _BOX_TOP) and in_range(hi, _BOX_TOP)):
                raise ValueError(f"box {name} = ({lo!r}, {hi!r}) is not an ordered pair of ends "
                                 "0 or of magnitude in [2^-480, 2^961]")
        if not (0.0 <= self.t_range[0] and self.t_range[1] <= 1.0):
            raise ValueError(f"box t_range {self.t_range!r} must lie within [0, 1]")


@dataclass(frozen=True)
class ExtremumEstimate:
    """Sampled extremum over a box.

    ``value`` is inside the true range: below the true sup for kind "sup",
    above the true inf for kind "inf". ``refine_rounds`` counts the rounds that ran.
    """

    kind: str
    value: float
    location: tuple[float, float, float]
    samples: int
    refine_rounds: int

    @property
    def refined(self) -> bool:
        return self.refine_rounds > 0


def _scan(fn, axes, sign: float) -> tuple[float, tuple[float, float, float]]:
    """Maximize sign * fn on the open grid of ``axes``; the first maximum wins ties.

    ``fn`` gets the axes shaped (n,1,1), (1,n,1), (1,1,n) and returns its value
    un-broadcast: 0-d (a constant) or 3-d, of length 1 along each axis it does
    not read. The full grid is constant along those axes, so its first (C-order)
    maximum has index 0 there, and the search runs on the small value: its first
    max for a sup, its first min for an inf, which is then negated (+0.0 and
    -0.0 tie in both, as in sign * fn).
    """
    t, u, v = axes
    vals = fn(t[:, None, None], u[None, :, None], v[None, None, :])
    k = int(vals.argmax() if sign > 0.0 else vals.argmin())
    nu, nv = vals.shape[1:] or (1, 1)
    rest, iv = divmod(k, nv)
    it, iu = divmod(rest, nu)
    return sign * vals.item(k), (t.item(it), u.item(iu), v.item(iv))


def _axis(lo: float, hi: float, grid: int) -> np.ndarray:
    """``np.linspace(lo, hi, grid)`` bit for bit at a normal step, or the single point lo."""
    if hi <= lo:
        return np.array([lo])
    axis = np.arange(grid, dtype=float) * ((hi - lo) / (grid - 1)) + lo
    axis[-1] = hi
    return axis


def _axes(bounds, reads, grid: int) -> tuple[list[np.ndarray], list[int]]:
    """The open grid over ``bounds`` (t, u, v) and the full grid's size along each
    axis, in one pass over the ranges.

    A variable in ``reads`` gets ``_axis``; an unread one is _axis's first point,
    0 * step + lo (so -0.0 becomes +0.0), where the full grid's first maximum
    lies. A one-point range is its point lo, -0.0 included, and counts once.
    """
    axes, sizes = [], []
    for (lo, hi), name in zip(bounds, "tuv"):
        if hi > lo:
            axes.append(_axis(lo, hi, grid) if name in reads else np.array([lo + 0.0]))
            sizes.append(grid)
        else:
            axes.append(np.array([lo]))
            sizes.append(1)
    return axes, sizes


def _box_extremum(expr: Expr, box: Box3, grid: int, refine_rounds: int,
                  sign: float, until=None) -> ExtremumEstimate:
    """Maximize sign * expr over the box: coarse scan plus shrinking rescans.

    Each round builds the axes the expression reads and the grid's sizes in
    one pass over its ranges, in Python floats, then makes one ``_scan``.
    Rescans stop when every half-width is below 1e-15 or ``until(value)`` holds.
    Box3 checked the box once (ends in range), so the compiled code
    runs unchecked on its axes, in one errstate block for all rounds.
    """
    if grid < 3:
        raise ValueError(f"grid must be >= 3 points per axis, got {grid}")
    code, reads = _compiled(expr)
    ranges = (box.t_range, box.u_range, box.v_range)
    half = [(hi - lo) / (grid - 1) if hi > lo else 0.0 for lo, hi in ranges]
    with np.errstate(all="raise", under="ignore"):
        axes, sizes = _axes(ranges, reads, grid)
        best, loc = _scan(code, axes, sign)
        total = math.prod(sizes)
        rounds = 0
        while rounds < refine_rounds and not (until and until(sign * best)):
            if max(half) < 1e-15:
                break
            axes, sizes = _axes([(max(lo, x - h), min(hi, x + h))
                                 for (lo, hi), x, h in zip(ranges, loc, half)], reads, grid)
            val, where = _scan(code, axes, sign)
            total += math.prod(sizes)
            rounds += 1
            if val > best:
                best, loc = val, where
            half = [h / 2.0 for h in half]
    return ExtremumEstimate(
        kind="sup" if sign > 0 else "inf",
        value=sign * best,
        location=loc,
        samples=total,
        refine_rounds=rounds,
    )


def box_sup(expr: Expr, box: Box3, grid: int = 33, refine_rounds: int = 8, *,
            until=None) -> ExtremumEstimate:
    """Sampled supremum over a box (monotone under refinement, stopped once ``until(sup)``)."""
    return _box_extremum(expr, box, grid, refine_rounds, 1.0, until)


def box_inf(expr: Expr, box: Box3, grid: int = 33, refine_rounds: int = 8, *,
            until=None) -> ExtremumEstimate:
    """Sampled infimum over a box (monotone under refinement, stopped once ``until(inf)``)."""
    return _box_extremum(expr, box, grid, refine_rounds, -1.0, until)


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of one index or growth condition for one equation.

    ``lhs`` is the quantity compared against ``threshold``: the sampled
    extremum of f_i / rho_i for index conditions, of the growth ratio for
    nonexistence conditions, or, with threshold 0, of f_i on the plane w_i = 0.
    """

    kind: str  # I1 | I0 | I0star | NE1 | NE2
    equation: int
    rho: tuple[float, float] | None
    box: Box3
    lhs: float
    threshold: float
    holds: bool
    conservative: bool
    margin: float
    estimate: ExtremumEstimate


class CertificateInvalid(ValueError):
    """A certificate was assembled from a condition that does not hold."""


class LadderOrderViolation(ValueError):
    """Radius ladder violates the pattern's strict ordering constraints."""


class ConditionFailed(Exception):
    """A required condition failed; carries the failing ConditionResult."""

    def __init__(self, result: ConditionResult):
        self.result = result
        plane = f" on the plane {'uv'[result.equation - 1]} = 0"
        super().__init__(
            f"condition {result.kind} failed for equation {result.equation}"
            f"{plane if result.rho is None and result.threshold == 0.0 else ''}: "
            f"lhs {result.lhs:.6g} vs threshold {result.threshold:.6g}"
        )


@dataclass(frozen=True)
class Certificate:
    """A verified pattern of conditions and its solution-count conclusion."""

    pattern: str
    ladder: tuple[tuple[float, float], ...]
    conditions: tuple[ConditionResult, ...]
    solutions: int
    conclusion: str
    conservative: bool
    ne_box: Box3 | None = None
    samples_per_axis: int | None = None

    def __post_init__(self):
        for cond in self.conditions:
            if not cond.holds:
                raise CertificateInvalid(
                    f"certificate contains a failed {cond.kind} condition "
                    f"(equation {cond.equation})"
                )


def _index_box(problem: Problem, kind: str, rho: tuple[float, float], i: int) -> Box3:
    """The box of condition ``kind`` (I1, I0 or I0star) for equation i at rho."""
    reach = [_ladder_bound(problem, "I1" if kind == "I1" else "I0", r, j)[0]
             for j, r in enumerate(rho, 1)]
    ranges = [(-x, x) for x in reach]
    if kind != "I1":
        ranges[i - 1] = (0.0 if kind == "I0star" else rho[i - 1], reach[i - 1])
    return Box3((0.0, 1.0 if kind == "I1" else problem.b(i)), *ranges)


def _radii(rho) -> tuple[float, float]:
    rho = (rho, rho) if isinstance(rho, (int, float)) else rho
    rho = (float(rho[0]), float(rho[1]))
    if not all(r > 0.0 and in_range(r) for r in rho):
        raise ValueError(f"radii must be positive, of {RANGE_RULE}, got {rho!r}")
    return rho


def _passes(problem: Problem, sup: bool, i: int):
    """The test an lhs of equation i must pass, its limit computed once:
    a sup strictly below m_i or an inf strictly above M_i, past the margin."""
    margin = problem.options.margin
    if sup:
        limit = problem.m_used(i) - margin
        return lambda lhs: lhs < limit
    limit = problem.M_used(i) + margin
    return lambda lhs: lhs > limit


def _condition(problem: Problem, kind: str, i: int, rho: tuple[float, float] | None,
               box: Box3, est: ExtremumEstimate) -> ConditionResult:
    """Compare one extremum with its threshold, strictly past the margin.

    A sup must lie below m_i and an inf above M_i. Index conditions divide
    the extremum by rho_i first; growth ratios (rho None) are compared as
    they are.
    """
    lhs = est.value if rho is None else est.value / rho[i - 1]
    if not math.isfinite(lhs):
        raise ValueError(f"condition {kind} for equation {i}: f{i}/rho_{i} overflows")
    sup = est.kind == "sup"
    return ConditionResult(
        kind=kind, equation=i, rho=rho, box=box, lhs=lhs,
        threshold=problem.m_used(i) if sup else problem.M_used(i),
        holds=_passes(problem, sup, i)(lhs), conservative=problem.options.conservative,
        margin=problem.options.margin, estimate=est,
    )


def _check_one(problem: Problem, kind: str, rho: tuple[float, float], i: int) -> ConditionResult:
    """One index condition (I1, I0 or I0star) of equation i at rho; refining stops once it fails."""
    sup, r = kind == "I1", rho[i - 1]
    box, passes = _index_box(problem, kind, rho, i), _passes(problem, sup, i)
    est = (box_sup if sup else box_inf)(problem.f[i - 1], box,
                                        until=lambda value: not passes(value / r))
    return _condition(problem, kind, i, rho, box, est)


def check_I1(problem: Problem, rho1: float, rho2: float) -> tuple[ConditionResult, ConditionResult]:
    """Index-1 condition: sup f_i / rho_i < m_i for both equations."""
    rho = _radii((rho1, rho2))
    return (_check_one(problem, "I1", rho, 1), _check_one(problem, "I1", rho, 2))


def check_I0(problem: Problem, rho1: float, rho2: float) -> tuple[ConditionResult, ConditionResult]:
    """Index-0 condition: inf f_i / rho_i > M_i for both equations.

    The infimum of equation 1 ranges over u in [rho_1, rho_1/c_1] with
    |v| <= rho_2/c_2; equation 2 mirrors this in v.
    """
    rho = _radii((rho1, rho2))
    return (_check_one(problem, "I0", rho, 1), _check_one(problem, "I0", rho, 2))


def check_I0_star(problem: Problem, rho1: float, rho2: float, i: int) -> ConditionResult:
    """Starred index-0 condition for one equation with range [0, rho_i/c_i]."""
    if i not in (1, 2):
        raise ValueError(f"equation index must be 1 or 2, got {i!r}")
    return _check_one(problem, "I0star", _radii((rho1, rho2)), i)


# pattern -> (condition kinds per ladder level, guaranteed solution count)
PATTERNS = {
    "S1": (("I0", "I1"), 1),
    "S2": (("I1", "I0"), 1),
    "S3": (("I0", "I1", "I0"), 2),
    "S4": (("I1", "I0", "I1"), 2),
    "S5": (("I0", "I1", "I0", "I1"), 3),
    "S6": (("I1", "I0", "I1", "I0"), 3),
}


def _ladder_bound(problem: Problem, kind: str, x: float, i: int) -> tuple[float, str]:
    """The radius the next level must exceed in equation i after a ``kind`` level
    at x, and its name's suffix: leaving an index-0 level crosses K_{x/c_i}."""
    return (x / problem.c(i), f"/c_{i}") if kind == "I0" else (x, "")


def _check_ladder(problem: Problem, kinds, ladder) -> None:
    names = ("rho", "r", "s", "sigma")
    for j in range(len(kinds) - 1):
        for i in (1, 2):
            lhs, over = _ladder_bound(problem, kinds[j], ladder[j][i - 1], i)
            if not lhs < ladder[j + 1][i - 1]:
                raise LadderOrderViolation(
                    f"pattern requires {names[j]}_{i}{over} < {names[j + 1]}_{i}: "
                    f"{lhs:.6g} >= {ladder[j + 1][i - 1]:.6g}")


def _eval_level(problem: Problem, kind: str, rho: tuple[float, float],
                star_allowed: bool) -> tuple[ConditionResult, ...]:
    """Evaluate one ladder level equation by equation; raises ConditionFailed
    at the first equation that fails, without sampling the next one."""
    results = []
    for i in (1, 2):
        res = _check_one(problem, kind, rho, i)
        if not res.holds:
            for j in (1, 2) if star_allowed else ():
                starred = check_I0_star(problem, *rho, j)
                if starred.holds:
                    return (starred,)
            raise ConditionFailed(res)
        results.append(res)
    return tuple(results)


def _kinds(pattern: str) -> tuple[str, ...]:
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {sorted(PATTERNS)}")
    return PATTERNS[pattern][0]


def _star_allowed(kinds, j: int) -> bool:
    # the starred index-0 fallback is sound only at the first level of S1/S3/S5
    return j == 0 and kinds[j] == "I0"


def _certificate(problem: Problem, pattern: str, ladder, conditions) -> Certificate:
    solutions = PATTERNS[pattern][1]
    return Certificate(
        pattern=pattern, ladder=ladder, conditions=tuple(conditions), solutions=solutions,
        conclusion=f"at least {solutions} nontrivial solution" + ("s" if solutions > 1 else ""),
        conservative=problem.options.conservative,
    )


def check_pattern(problem: Problem, pattern: str, ladder) -> Certificate:
    """Verify a solution-count pattern along a ladder of radius pairs.

    ``ladder`` holds one radius pair (or one scalar, used for both
    equations) per level. The starred index-0 fallback is accepted only at
    the first level of S1/S3/S5, mirroring where the theory allows it.
    Raises LadderOrderViolation or ConditionFailed.
    """
    kinds = _kinds(pattern)
    ladder = tuple(_radii(level) for level in ladder)
    if len(ladder) != len(kinds):
        raise ValueError(
            f"pattern {pattern} needs {len(kinds)} ladder levels, got {len(ladder)}"
        )
    _check_ladder(problem, kinds, ladder)
    conditions: list[ConditionResult] = []
    for j, kind in enumerate(kinds):
        conditions.extend(_eval_level(problem, kind, ladder[j], _star_allowed(kinds, j)))
    return _certificate(problem, pattern, ladder, conditions)


def search_certificate(problem: Problem, pattern: str, lo: float, hi: float,
                       points: int) -> Certificate | None:
    """Search a geometric radius grid for the first certifiable ladder.

    Ladders are diagonal (both equations share each level's radius) and
    enumerated in lexicographic order of grid indices, so the result is
    deterministic and uses the smallest certifiable radii. Returns None
    when the grid is exhausted; that outcome is normal, not an error.
    """
    kinds = _kinds(pattern)
    lo, hi = _radii((lo, hi))
    if not (lo < hi and points >= 2):
        raise ValueError(f"need 0 < lo < hi and points >= 2, got lo={lo!r}, hi={hi!r}, "
                         f"points={points!r}")
    grid = [lo * (hi / lo) ** (k / (points - 1)) for k in range(points)]

    @functools.cache  # a level's outcome at one radius, held or failed (None)
    def level_results(kind: str, star_allowed: bool, r: float):
        try:
            return _eval_level(problem, kind, (r, r), star_allowed)
        except ConditionFailed:
            return None

    def extend(level: int, prefix: list[float], conds: list[ConditionResult]):
        if level == len(kinds):
            return _certificate(problem, pattern, tuple((r, r) for r in prefix), conds)
        star_allowed = _star_allowed(kinds, level)
        bound = max(_ladder_bound(problem, kinds[level - 1], prefix[-1], i)[0]
                    for i in (1, 2)) if prefix else -math.inf
        for r in grid:
            results = level_results(kinds[level], star_allowed, r) if bound < r else None
            if results is None:
                continue
            found = extend(level + 1, prefix + [r], conds + list(results))
            if found is not None:
                return found
        return None

    return extend(0, [], [])


def _ne_condition(problem: Problem, kind: str, i: int, box: Box3, n: int) -> ConditionResult:
    """Sampled growth comparison for one equation of a nonexistence variant.

    NE1: sup f_i / |w_i| < m_i over t in [0,1] and box samples with
    |w_i| >= NE_EXCLUSION * box scale and w_i != 0, as the condition requires.
    NE2: inf f_i / w_i > M_i over t in [0, b_i] and box samples with
    w_i > 0. When that holds and the box's w_i range holds 0, a sup > 0
    (NE1) or an inf < 0 (NE2) of f_i on the plane w_i = 0, a box with the
    same t and other ranges, fails the condition with threshold 0.
    """
    code, reads = _compiled(problem.f[i - 1])
    ranges = [(0.0, 1.0 if kind == "NE1" else problem.b(i)), box.u_range, box.v_range]
    lo, hi = own = ranges[i]
    scale = max(abs(lo), abs(hi))
    if scale <= 0.0:
        raise ValueError(f"equation {i} component box {own!r} has zero scale")
    eps = NE_EXCLUSION * scale
    if kind == "NE2":
        ranges[i] = (max(lo, eps), hi)
        if not hi >= ranges[i][0]:
            raise ValueError(f"variant 2 needs positive samples of component {i}; "
                             f"box {own!r} has none above {eps:g}")
    axes, sizes = _axes(ranges, reads | {"tuv"[i]}, n)  # the ratio reads its own component
    if kind == "NE1":
        # never empty: the axis keeps both ends, and one has |w_i| = scale
        axes[i] = axes[i][np.abs(axes[i]) >= eps]
        sizes[i] = axes[i].size
    # variant 2 samples only w_i > 0, where |w_i| = w_i
    sign = 1.0 if kind == "NE1" else -1.0
    ratio = lambda tg, ug, vg: code(tg, ug, vg) / np.abs(ug if i == 1 else vg)
    try:
        with np.errstate(all="raise", under="ignore"):
            best, loc = _scan(ratio, axes, sign)
    except FloatingPointError:
        raise ValueError(f"condition {kind} for equation {i}: growth ratio "
                         f"f{i}/|{'uv'[i - 1]}| overflows") from None
    est = ExtremumEstimate(kind="sup" if sign > 0 else "inf", value=sign * best, location=loc,
                           samples=math.prod(sizes), refine_rounds=0)
    result = _condition(problem, kind, i, None, box, est)
    if not (result.holds and lo <= 0.0 <= hi):
        return result
    ranges[i] = (0.0, 0.0)  # the ratio leaves out w_i = 0, where f_i's sign matters
    est = _box_extremum(problem.f[i - 1], Box3(*ranges), n, 0, sign)
    return result if sign * est.value <= 0.0 else replace(
        result, lhs=est.value, threshold=0.0, holds=False, estimate=est)


# nonexistence variant -> the (equation 1, equation 2) growth kinds to try, in order
_NE_VARIANTS = {1: [("NE1", "NE1")], 2: [("NE2", "NE2")], 3: [("NE1", "NE2"), ("NE2", "NE1")]}


def check_nonexistence(problem: Problem, variant: int, box: Box3, n: int = 41) -> Certificate:
    """Certify absence of nontrivial solutions, sampled on a user box.

    Variant 1 compares both nonlinearities below m_i * |w_i| (excluding
    the slab |w_i| < NE_EXCLUSION * scale); variant 2 above M_i * w_i for
    positive components; variant 3 mixes one equation of each kind (both
    assignments are tried). Where the box's w_i range holds 0, f_i must
    also be <= 0 (below) or >= 0 (above) on the plane w_i = 0, which the
    ratio leaves out. The conclusion is explicitly scoped: the growth
    conditions are verified on the sampled box only.
    """
    if variant not in _NE_VARIANTS:
        raise ValueError(f"variant must be 1, 2 or 3, got {variant!r}")
    if n < 3:
        raise ValueError(f"need n >= 3 samples per axis, got {n}")
    for kinds in _NE_VARIANTS[variant]:
        conditions = ()
        for i, kind in enumerate(kinds, 1):  # stop at the first equation that fails
            conditions += (_ne_condition(problem, kind, i, box, n),)
            if not conditions[-1].holds:
                break
        else:
            break
    else:
        raise ConditionFailed(conditions[-1])
    scope = "growth conditions verified on sampled points of that box only"
    if any(cond.kind == "NE1" for cond in conditions):
        scope += f"; a slab |w_i| < {NE_EXCLUSION:g} * scale is excluded near w_i = 0"
    return Certificate(
        pattern=f"NONEXIST-{variant}", ladder=(), conditions=conditions, solutions=0,
        conclusion=(
            "no nontrivial solution with components ranging in the tested box "
            f"({scope})"
        ),
        conservative=problem.options.conservative,
        ne_box=box, samples_per_axis=n,
    )


def revalidate_certificate(problem: Problem, certificate: Certificate) -> Certificate:
    """Re-verify a certificate with the tight thresholds (m, M).

    Since m_hat <= m and M_hat >= M, every certificate issued with the
    conservative estimates must also hold with the tight constants; this
    is the soundness cross-check.
    """
    tight = problem.with_conservative(False)
    if certificate.pattern.startswith("NONEXIST"):
        variant = int(certificate.pattern.rsplit("-", 1)[1])
        return check_nonexistence(tight, variant, certificate.ne_box,
                                  certificate.samples_per_axis)
    return check_pattern(tight, certificate.pattern, certificate.ladder)
