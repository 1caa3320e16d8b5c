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
inf. Boxes are sampled on open grids (``np.ix_`` axes), never on
materialised meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprlang import Expr, eval_expr_array
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


@dataclass(frozen=True)
class Box3:
    """Axis-aligned sampling box for (t, u, v); the t range stays in [0, 1]."""

    t_range: tuple[float, float]
    u_range: tuple[float, float]
    v_range: tuple[float, float]

    def __post_init__(self):
        for name, (lo, hi) in (("t_range", self.t_range), ("u_range", self.u_range),
                               ("v_range", self.v_range)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"box {name} = ({lo!r}, {hi!r}) is not a finite ordered pair")
        if not (0.0 <= self.t_range[0] and self.t_range[1] <= 1.0):
            raise ValueError(f"box t_range {self.t_range!r} must lie within [0, 1]")


@dataclass(frozen=True)
class ExtremumEstimate:
    """Sampled extremum over a box.

    ``value`` is inside the true range: below the true sup for kind "sup",
    above the true inf for kind "inf".
    """

    kind: str
    value: float
    location: tuple[float, float, float]
    samples: int
    refine_rounds: int

    @property
    def refined(self) -> bool:
        return self.refine_rounds > 0


def _scan(fn, axes) -> tuple[float, tuple[float, float, float], int]:
    """Maximize fn on the open grid ``np.ix_(*axes)``; the first maximum wins ties."""
    vals = fn(*np.ix_(*axes))
    idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return float(vals[idx]), tuple(float(axis[k]) for axis, k in zip(axes, idx)), vals.size


def _axis(lo: float, hi: float, grid: int) -> np.ndarray:
    return np.array([lo]) if hi <= lo else np.linspace(lo, hi, grid)


def _box_extremum(fn, box: Box3, grid: int, refine_rounds: int, sign: float) -> ExtremumEstimate:
    """Maximize sign * fn over the box: coarse scan plus shrinking rescans."""
    if grid < 3:
        raise ValueError(f"grid must be >= 3 points per axis, got {grid}")
    ranges = (box.t_range, box.u_range, box.v_range)
    signed = lambda tg, ug, vg: sign * fn(tg, ug, vg)
    axes = [_axis(lo, hi, grid) for lo, hi in ranges]
    best, loc, n = _scan(signed, axes)
    total = n
    half = [(hi - lo) / (grid - 1) if hi > lo else 0.0 for lo, hi in ranges]
    for _ in range(refine_rounds):
        if all(h < 1e-15 for h in half):
            break
        axes = [
            _axis(max(lo, x - h), min(hi, x + h), grid)
            for (lo, hi), x, h in zip(ranges, loc, half)
        ]
        val, where, n = _scan(signed, axes)
        total += n
        if val > best:
            best, loc = val, where
        half = [h / 2.0 for h in half]
    return ExtremumEstimate(
        kind="sup" if sign > 0 else "inf",
        value=sign * best,
        location=loc,
        samples=total,
        refine_rounds=refine_rounds,
    )


def box_sup(expr: Expr, box: Box3, grid: int = 33, refine_rounds: int = 8) -> ExtremumEstimate:
    """Sampled supremum of an expression over a box (monotone under refinement)."""
    fn = lambda tg, ug, vg: eval_expr_array(expr, tg, ug, vg)
    return _box_extremum(fn, box, grid, refine_rounds, 1.0)


def box_inf(expr: Expr, box: Box3, grid: int = 33, refine_rounds: int = 8) -> ExtremumEstimate:
    """Sampled infimum of an expression over a box (monotone under refinement)."""
    fn = lambda tg, ug, vg: eval_expr_array(expr, tg, ug, vg)
    return _box_extremum(fn, box, grid, refine_rounds, -1.0)


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of one index or growth condition for one equation.

    ``lhs`` is the quantity compared against ``threshold``: the sampled
    extremum of f_i / rho_i for index conditions, of the growth ratio for
    nonexistence conditions.
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
        super().__init__(
            f"condition {result.kind} failed for equation {result.equation}: "
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


def _i1_box(rho: tuple[float, float]) -> Box3:
    return Box3(t_range=(0.0, 1.0), u_range=(-rho[0], rho[0]), v_range=(-rho[1], rho[1]))


def _i0_box(problem: Problem, rho: tuple[float, float], i: int, star: bool) -> Box3:
    c1, c2 = problem.c(1), problem.c(2)
    if i == 1:
        u = (0.0 if star else rho[0], rho[0] / c1)
        v = (-rho[1] / c2, rho[1] / c2)
    else:
        u = (-rho[0] / c1, rho[0] / c1)
        v = (0.0 if star else rho[1], rho[1] / c2)
    return Box3(t_range=(0.0, problem.b(i)), u_range=u, v_range=v)


def _radii(rho) -> tuple[float, float]:
    if isinstance(rho, (int, float)):
        rho = (float(rho), float(rho))
    rho = (float(rho[0]), float(rho[1]))
    if any(not (math.isfinite(r) and r > 0.0) for r in rho):
        raise ValueError(f"radii must be positive finite, got {rho!r}")
    return rho


def _condition(problem: Problem, kind: str, i: int, rho: tuple[float, float] | None,
               box: Box3, est: ExtremumEstimate) -> ConditionResult:
    """Compare one extremum with its threshold, strictly past the margin.

    A sup must lie below m_i and an inf above M_i. Index conditions divide
    the extremum by rho_i first; growth ratios (rho None) are compared as
    they are.
    """
    lhs = est.value if rho is None else est.value / rho[i - 1]
    margin = problem.options.margin
    if est.kind == "sup":
        thr = problem.m_used(i)
        holds = lhs < thr - margin
    else:
        thr = problem.M_used(i)
        holds = lhs > thr + margin
    return ConditionResult(
        kind=kind, equation=i, rho=rho, box=box, lhs=lhs, threshold=thr, holds=holds,
        conservative=problem.options.conservative, margin=margin, estimate=est,
    )


def check_I1(problem: Problem, rho1: float, rho2: float) -> tuple[ConditionResult, ConditionResult]:
    """Index-1 condition: sup f_i / rho_i < m_i for both equations."""
    rho = _radii((rho1, rho2))
    box = _i1_box(rho)
    return tuple(_condition(problem, "I1", i, rho, box, box_sup(problem.f[i - 1], box))
                 for i in (1, 2))


def _check_I0_one(problem: Problem, rho: tuple[float, float], i: int, star: bool) -> ConditionResult:
    box = _i0_box(problem, rho, i, star)
    return _condition(problem, "I0star" if star else "I0", i, rho, box,
                      box_inf(problem.f[i - 1], box))


def check_I0(problem: Problem, rho1: float, rho2: float) -> tuple[ConditionResult, ConditionResult]:
    """Index-0 condition: inf f_i / rho_i > M_i for both equations.

    The infimum of equation 1 ranges over u in [rho_1, rho_1/c_1] with
    |v| <= rho_2/c_2; equation 2 mirrors this in v.
    """
    rho = _radii((rho1, rho2))
    return (_check_I0_one(problem, rho, 1, False), _check_I0_one(problem, rho, 2, False))


def check_I0_star(problem: Problem, rho1: float, rho2: float, i: int) -> ConditionResult:
    """Starred index-0 condition for one equation with range [0, rho_i/c_i]."""
    if i not in (1, 2):
        raise ValueError(f"equation index must be 1 or 2, got {i!r}")
    return _check_I0_one(problem, _radii((rho1, rho2)), i, True)


# pattern -> (condition kinds per ladder level, guaranteed solution count)
PATTERNS = {
    "S1": (("I0", "I1"), 1),
    "S2": (("I1", "I0"), 1),
    "S3": (("I0", "I1", "I0"), 2),
    "S4": (("I1", "I0", "I1"), 2),
    "S5": (("I0", "I1", "I0", "I1"), 3),
    "S6": (("I1", "I0", "I1", "I0"), 3),
}


def _check_ladder(problem: Problem, kinds, ladder) -> None:
    names = ("rho", "r", "s", "sigma")
    for j in range(len(kinds) - 1):
        for i in (1, 2):
            x, y = ladder[j][i - 1], ladder[j + 1][i - 1]
            if kinds[j] == "I0":
                # leaving an index-0 level crosses the enlarged set K_{rho/c}
                lhs, desc = x / problem.c(i), f"{names[j]}_{i}/c_{i}"
            else:
                lhs, desc = x, f"{names[j]}_{i}"
            if not lhs < y:
                raise LadderOrderViolation(
                    f"pattern requires {desc} < {names[j + 1]}_{i}: "
                    f"{lhs:.6g} >= {y:.6g}"
                )


def _eval_level(problem: Problem, kind: str, rho: tuple[float, float],
                star_allowed: bool) -> tuple[ConditionResult, ...]:
    """Evaluate one ladder level; raises ConditionFailed if it cannot hold."""
    if kind == "I1":
        results = check_I1(problem, *rho)
        for res in results:
            if not res.holds:
                raise ConditionFailed(res)
        return results
    results = check_I0(problem, *rho)
    if all(res.holds for res in results):
        return results
    if star_allowed:
        for i in (1, 2):
            starred = check_I0_star(problem, *rho, i)
            if starred.holds:
                return (starred,)
    raise ConditionFailed(next(res for res in results if not res.holds))


def _conclusion(solutions: int) -> str:
    return f"at least {solutions} nontrivial solution" + ("s" if solutions > 1 else "")


def check_pattern(problem: Problem, pattern: str, ladder) -> Certificate:
    """Verify a solution-count pattern along a ladder of radius pairs.

    ``ladder`` holds one radius pair (or one scalar, used for both
    equations) per level. The starred index-0 fallback is accepted only at
    the first level of S1/S3/S5, mirroring where the theory allows it.
    Raises LadderOrderViolation or ConditionFailed.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {sorted(PATTERNS)}")
    kinds, solutions = PATTERNS[pattern]
    ladder = tuple(_radii(level) for level in ladder)
    if len(ladder) != len(kinds):
        raise ValueError(
            f"pattern {pattern} needs {len(kinds)} ladder levels, got {len(ladder)}"
        )
    _check_ladder(problem, kinds, ladder)
    conditions: list[ConditionResult] = []
    for j, kind in enumerate(kinds):
        star_allowed = j == 0 and kind == "I0"
        conditions.extend(_eval_level(problem, kind, ladder[j], star_allowed))
    return Certificate(
        pattern=pattern, ladder=ladder, conditions=tuple(conditions),
        solutions=solutions, conclusion=_conclusion(solutions),
        conservative=problem.options.conservative,
    )


def search_certificate(problem: Problem, pattern: str, lo: float, hi: float,
                       points: int) -> Certificate | None:
    """Search a geometric radius grid for the first certifiable ladder.

    Ladders are diagonal (both equations share each level's radius) and
    enumerated in lexicographic order of grid indices, so the result is
    deterministic and uses the smallest certifiable radii. Returns None
    when the grid is exhausted; that outcome is normal, not an error.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {sorted(PATTERNS)}")
    if not (lo > 0.0 and hi > lo and points >= 2):
        raise ValueError(f"need 0 < lo < hi and points >= 2, got {lo!r}, {hi!r}, {points!r}")
    kinds, solutions = PATTERNS[pattern]
    grid = [lo * (hi / lo) ** (k / (points - 1)) for k in range(points)]
    c_min = min(problem.c(1), problem.c(2))
    memo: dict[tuple[str, bool, float], tuple[ConditionResult, ...] | None] = {}

    def level_results(kind: str, star_allowed: bool, r: float):
        key = (kind, star_allowed, r)
        if key not in memo:
            try:
                memo[key] = _eval_level(problem, kind, (r, r), star_allowed)
            except ConditionFailed:
                memo[key] = None
        return memo[key]

    def extend(level: int, prefix: list[float], conds: list[ConditionResult]):
        if level == len(kinds):
            return Certificate(
                pattern=pattern, ladder=tuple((r, r) for r in prefix),
                conditions=tuple(conds), solutions=solutions,
                conclusion=_conclusion(solutions),
                conservative=problem.options.conservative,
            )
        for r in grid:
            if prefix:
                prev = prefix[-1]
                bound = prev / c_min if kinds[level - 1] == "I0" else prev
                if not bound < r:
                    continue
            results = level_results(kinds[level], level == 0 and kinds[level] == "I0", r)
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
    |w_i| >= NE_EXCLUSION * box scale (the condition requires w_i != 0).
    NE2: inf f_i / w_i > M_i over t in [0, b_i] and box samples with
    w_i > 0.
    """
    expr = problem.f[i - 1]
    own = box.u_range if i == 1 else box.v_range
    other = box.v_range if i == 1 else box.u_range
    scale = max(abs(own[0]), abs(own[1]))
    if scale <= 0.0:
        raise ValueError(f"equation {i} component box {own!r} has zero scale")
    eps = NE_EXCLUSION * scale
    if kind == "NE1":
        t_axis = np.linspace(0.0, 1.0, n)
        own_axis = np.linspace(own[0], own[1], n)
        own_axis = own_axis[np.abs(own_axis) >= eps]
        if own_axis.size == 0:
            raise ValueError(
                f"equation {i} component box {own!r} lies inside the excluded "
                f"zone |w| < {eps:g}"
            )
    else:
        t_axis = np.linspace(0.0, problem.b(i), n)
        lo = max(own[0], eps)
        if not own[1] >= lo:
            raise ValueError(
                f"variant 2 needs positive samples of component {i}; "
                f"box {own!r} has none above {eps:g}"
            )
        own_axis = np.linspace(lo, own[1], n)
    other_axis = np.linspace(other[0], other[1], n)
    u_axis, v_axis = (own_axis, other_axis) if i == 1 else (other_axis, own_axis)
    # variant 2 samples only w_i > 0, where |w_i| = w_i
    sign = 1.0 if kind == "NE1" else -1.0
    signed_ratio = lambda tg, ug, vg: sign * (
        eval_expr_array(expr, tg, ug, vg) / np.abs(ug if i == 1 else vg))
    best, loc, samples = _scan(signed_ratio, (t_axis, u_axis, v_axis))
    est = ExtremumEstimate(
        kind="sup" if sign > 0 else "inf", value=sign * best, location=loc,
        samples=samples, refine_rounds=0,
    )
    return _condition(problem, kind, i, None, box, est)


def check_nonexistence(problem: Problem, variant: int, box: Box3, n: int = 41) -> Certificate:
    """Certify absence of nontrivial solutions, sampled on a user box.

    Variant 1 compares both nonlinearities below m_i * |w_i| (excluding
    the slab |w_i| < NE_EXCLUSION * scale); variant 2 above M_i * w_i for
    positive components; variant 3 mixes one equation of each kind (both
    assignments are tried). The conclusion is explicitly scoped: the
    growth conditions are verified on the sampled box only.
    """
    if variant not in (1, 2, 3):
        raise ValueError(f"variant must be 1, 2 or 3, got {variant!r}")
    if n < 3:
        raise ValueError(f"need n >= 3 samples per axis, got {n}")
    if variant in (1, 2):
        kind = "NE1" if variant == 1 else "NE2"
        conditions = tuple(_ne_condition(problem, kind, i, box, n) for i in (1, 2))
        for cond in conditions:
            if not cond.holds:
                raise ConditionFailed(cond)
    else:
        last_fail = None
        conditions = None
        for one, two in (("NE1", "NE2"), ("NE2", "NE1")):
            attempt = (
                _ne_condition(problem, one, 1, box, n),
                _ne_condition(problem, two, 2, box, n),
            )
            if all(cond.holds for cond in attempt):
                conditions = attempt
                break
            last_fail = next(cond for cond in attempt if not cond.holds)
        if conditions is None:
            raise ConditionFailed(last_fail)
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
