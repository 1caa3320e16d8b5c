"""The four benchmark workloads: seeded inputs, jobs and correctness checks.

Each workload builds one round of jobs from ``--seed`` during set-up; a
run serves that round again and again in a closed loop.  Job kinds and
problem sizes are fixed per position in the round and only the values
come from the seed, so every seed gives the same mix of work.

The package is called only through module attributes (``cli.main``,
``certify.search_certificate``, ...), so the tracer's wrappers see every
call.  Expected answers are computed here from closed forms with
``math.gamma`` and never from the package itself, except where a check
replays a certificate through ``revalidate_certificate``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

import fraccert.certify as certify
import fraccert.cli as cli
import fraccert.exprlang as exprlang
import fraccert.kernel as kernel
import fraccert.problem as problem
import fraccert.solver as solver

REPO = Path(__file__).resolve().parent.parent
SHIPPED_CONFIGS = (REPO / "configs" / "reference.json", REPO / "configs" / "nonexistence.json")

# relative agreement required between reported and closed-form thresholds
CONSTANTS_RTOL = 1e-9
# criterion 2: a constant forcing is solved to this absolute error
SOLVE_ATOL = 1e-8
PICARD_TOL = 1e-12


# ------------------------------------------------------------ closed forms


def closed_forms(alpha: float, beta: float, eta: float, b: float) -> dict:
    """Cone constant c and thresholds M, m_hat, M_hat of one equation."""
    e = alpha - 1.0
    g = math.gamma(alpha)
    g1 = math.gamma(alpha + 1.0)
    bg = beta * g
    num = bg - (b - eta) ** e
    c = min(num / ((1.0 - eta) ** e - bg), num / (bg + eta ** e))
    upper = (1.0 - eta) ** e / g - beta
    head = beta * eta + eta ** alpha / g1
    return {
        "c": c,
        "M": 1.0 / (beta * b + (eta ** alpha - b ** alpha) / g1),
        "m_hat": 1.0 / (head + (1.0 - eta) * upper),
        "M_hat": 1.0 / (c * (head + (b - eta) * upper)),
    }


def sampled_bounds_hold(alpha: float, beta: float, eta: float, b: float, c: float) -> bool:
    """Whether the 101 x 101 sampled envelope and cone checks pass.

    This is the acceptance rule of kernel model construction, written out
    from the kernel formula: |k| <= Phi on [0,1]^2 (with the essential
    envelope at the jump s = eta) and k >= c*Phi on [0,b] x [0,1], both
    within 1e-10.
    """
    e = alpha - 1.0
    g = math.gamma(alpha)
    s = np.linspace(0.0, 1.0, 101)

    def power(x):
        return np.where(x > 0.0, np.maximum(x, 0.0) ** e, 0.0)

    def k(t):
        t = t[:, None]
        return (beta + np.where(s <= eta, power(eta - s), 0.0) / g
                - np.where(s <= t, power(t - s), 0.0) / g)

    upper = (1.0 - eta) ** e / g - beta
    phi = np.where(s <= eta, beta + power(eta - s) / g, upper)
    env = phi.copy()
    env[np.isclose(s, eta, rtol=0.0, atol=1e-13)] = max(beta, upper)
    envelope_ok = float(np.max(np.abs(k(np.linspace(0.0, 1.0, 101))) - env)) <= 1e-10
    cone_ok = float(np.max(c * phi - k(np.linspace(0.0, b, 101)))) <= 1e-10
    return envelope_ok and cone_ok


def draw_tuple(rng: random.Random, alpha_range=(1.05, 1.45), eta_range=(0.3, 0.8)) -> tuple:
    """One kernel tuple from the randomized-kernel family, without a strip filter.

    frac <= 0.48 and the b factor <= 0.8 keep every draw strictly inside
    the admissible regime, so no draw is discarded here; about 5% of them
    fail the sampled kernel bounds and are rejected by the program.
    """
    alpha = rng.uniform(*alpha_range)
    eta = rng.uniform(*eta_range)
    e = alpha - 1.0
    g = math.gamma(alpha)
    beta = rng.uniform(0.38, 0.48) * (1.0 - eta) ** e / g
    span = (beta * g) ** (1.0 / e)
    b = eta + rng.uniform(0.05, 0.8) * min(span, 1.0 - eta)
    return (alpha, beta, eta, b)


def reference_equations() -> list[tuple]:
    raw = json.loads(SHIPPED_CONFIGS[0].read_text(encoding="utf-8"))
    return [(eq["alpha"], eq["beta"], eq["eta"], eq["b"]) for eq in raw["equations"]]


def write_config(path: Path, equations, f1: str, f2: str) -> None:
    eqs = [dict(zip(("alpha", "beta", "eta", "b"), eq)) for eq in equations]
    path.write_text(json.dumps({"equations": eqs,
                                "nonlinearities": {"f1": f1, "f2": f2}}), encoding="utf-8")


def sha256(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# ------------------------------------------------------------ base class


class Workload:
    """A seeded round of jobs served in a closed loop.

    ``setup`` builds the round and every object its jobs share, ``reset``
    clears the state one round carries from job to job and ``run`` is the
    timed call of position ``i``.  ``digest`` reduces a job's outcome to a
    digest of its output bytes plus what ``verify`` needs to list every
    correctness problem.
    """

    name = ""
    round_jobs = 0

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.max_rel_err = 0.0
        self.max_abs_err = 0.0
        self._verified: dict[int, str] = {}

    def rng(self) -> random.Random:
        """The generator of every seeded input of this workload."""
        return random.Random(f"{self.name}:{self.seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        pass

    def run(self, i: int):
        raise NotImplementedError

    def digest(self, i: int, outcome) -> tuple[str, object]:
        raise NotImplementedError

    def verify(self, i: int, payload) -> list[str]:
        raise NotImplementedError

    def check(self, i: int, outcome) -> tuple[str, list[str]]:
        """Digest and problems of one job's outcome.

        Every round repeats the same inputs, so a position is verified in
        full until it passes once; after that its output must repeat that
        digest byte for byte.
        """
        if isinstance(outcome, Exception) and not self.expected_exception(outcome):
            return sha256(repr(outcome)), [f"raised {outcome!r}"]
        digest, payload = self.digest(i, outcome)
        if i in self._verified:
            if digest == self._verified[i]:
                return digest, []
            return digest, ["output differs from an earlier round of the same inputs"]
        errors = self.verify(i, payload)
        if not errors:
            self._verified[i] = digest
        return digest, errors

    def expected_exception(self, exc: Exception) -> bool:
        return False


# ------------------------------------------------------------ cli_constants


class CliConstants(Workload):
    """``fraccert constants`` in process, on the two shipped configs and on
    seeded kernel tuples; the threshold quadrature is nearly all of a job.

    Seeded tuples are drawn in turn from the four cells of a 2 x 2 grid
    over (alpha, eta), which set the quadrature's cost.  The round keeps
    the first accepted draw of each cell and the first draw the kernel
    checks reject, so every seed's round holds the same mix of work and
    every round exercises the documented exit-1 rejection.
    """

    name = "cli_constants"
    CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))
    round_jobs = len(SHIPPED_CONFIGS) + len(CELLS) + 1
    MAX_DRAWS = 10000

    def setup(self) -> None:
        ref = reference_equations()
        cfg_dir = self.tmp / "constants_configs"
        cfg_dir.mkdir(exist_ok=True)
        (self.tmp / "out").mkdir(exist_ok=True)
        rng = self.rng()
        picked: dict = {cell: None for cell in self.CELLS}
        picked["rejected"] = None
        for k in range(self.MAX_DRAWS):
            a_half, e_half = self.CELLS[k % len(self.CELLS)]
            a_lo, e_lo = 1.05 + 0.2 * a_half, 0.3 + 0.25 * e_half
            drawn = draw_tuple(rng, (a_lo, a_lo + 0.2), (e_lo, e_lo + 0.25))
            ok = sampled_bounds_hold(*drawn, closed_forms(*drawn)["c"])
            slot = (a_half, e_half) if ok else "rejected"
            if picked[slot] is None:
                picked[slot] = drawn
            if None not in picked.values():
                break
        else:
            raise RuntimeError(f"no rejected kernel tuple in {self.MAX_DRAWS} draws")
        self.pool = [(str(path), [closed_forms(*eq) for eq in ref], True)
                     for path in SHIPPED_CONFIGS]
        # each drawn tuple is paired with a shipped equation in the other
        # slot, taking turns over which slot it fills
        for k, (name, drawn) in enumerate(picked.items()):
            eqs = [ref[0], drawn] if k % 2 else [drawn, ref[1]]
            path = cfg_dir / f"seeded_{k}.json"
            write_config(path, eqs, "0.6*abs(u)", "0.5*abs(v)")
            self.pool.append((str(path), [closed_forms(*eq) for eq in eqs], name != "rejected"))

    def run(self, i: int):
        path, _, _ = self.pool[i]
        out = self.tmp / "out" / f"constants_{i}.json"
        code, stdout, stderr = run_cli(["constants", "--config", path, "--out", str(out)])
        return code, stdout, stderr, out

    def digest(self, i, outcome):
        code, stdout, stderr, out = outcome
        text = out.read_text(encoding="utf-8") if out.exists() else None
        out.unlink(missing_ok=True)
        return sha256(code, stdout, stderr, text), (code, stdout, stderr, text)

    def verify(self, i, payload):
        code, stdout, stderr, text = payload
        _, forms, accepted = self.pool[i]
        if not accepted:
            if code == 1 and "KernelBoundError" in stderr and text is None:
                return []
            return [f"expected a kernel-bound rejection, got exit {code}: {stderr.strip()}"]
        if code != 0 or text is None:
            return [f"exit {code}: {stderr.strip()}"]
        errors = []
        if text != stdout:
            errors.append("report file differs from stdout")
        for eq, want in zip(json.loads(text)["equations"], forms):
            for key in ("M", "m_hat", "M_hat", "c"):
                err = rel_err(eq[key], want[key])
                if key != "c":
                    self.max_rel_err = max(self.max_rel_err, err)
                if err > CONSTANTS_RTOL:
                    errors.append(f"eq{eq['equation']} {key}={eq[key]!r} vs closed form "
                                  f"{want[key]!r} (rel {err:.2e})")
            if not eq["m"] >= eq["m_hat"]:
                errors.append(f"eq{eq['equation']} m={eq['m']!r} < m_hat={eq['m_hat']!r}")
        return errors


# ------------------------------------------------------------ certify_sweep

# condition kinds per ladder level of each pattern
PATTERN_KINDS = {
    "S1": ("I0", "I1"),
    "S2": ("I1", "I0"),
    "S3": ("I0", "I1", "I0"),
    "S4": ("I1", "I0", "I1"),
    "S5": ("I0", "I1", "I0", "I1"),
    "S6": ("I1", "I0", "I1", "I0"),
}
SEARCH_GRID = (0.001, 10000.0, 17)
NE_BOX = ((-10.0, 10.0), (-10.0, 10.0))
POS_BOX = ((0.01, 10.0), (0.01, 10.0))


def ramp_sum(terms, w: float) -> float:
    """Python-float evaluation of sum_j h_j*min(1, max((w-s_j)/d_j, 0)),
    in the same operation order as the expression text."""
    total = None
    for h, s, d in terms:
        term = h * min(1.0, max((w - s) / d, 0.0))
        total = term if total is None else total + term
    return total


def ramp_text(terms, var: str) -> str:
    return " + ".join(f"{h!r}*min(1, max(({var}-{s!r})/{d!r}, 0))" for h, s, d in terms)


def design_plateaus(rng: random.Random, kinds, forms) -> tuple[list[float], list]:
    """A ladder and nondecreasing ramp nonlinearities that certify it.

    For a nondecreasing f_i of its own component only, every sampled
    extremum of an index condition at radius r is f_i(r), so a level holds
    exactly when f_i(r)/r is below m_i (I1) or above M_i (I0).  The ladder
    radii are spaced so the targets f_i(r_j) can increase with j.
    """
    lam = [rng.uniform(1.5, 4.0) for _ in kinds]
    mu = [rng.uniform(0.2, 0.7) for _ in kinds]
    c_min = min(f["c"] for f in forms)
    radii = [10.0 ** rng.uniform(-3.0, -2.0)]
    for j in range(1, len(kinds)):
        if kinds[j - 1] == "I0":
            need = max(1.0 / c_min,
                       max(f["M_hat"] * lam[j - 1] / (f["m_hat"] * mu[j]) for f in forms))
            radii.append(radii[-1] * need * rng.uniform(1.1, 3.0))
        else:
            radii.append(radii[-1] * rng.uniform(2.0, 30.0))
    starts = [radii[0] * rng.uniform(0.2, 0.8)]
    for j in range(1, len(kinds)):
        starts.append(radii[j - 1] + rng.uniform(0.2, 0.8) * (radii[j] - radii[j - 1]))
    terms = []
    for f in forms:
        targets = [r * (f["M_hat"] * lam[j] if kind == "I0" else f["m_hat"] * mu[j])
                   for j, (kind, r) in enumerate(zip(kinds, radii))]
        steps = [targets[0]] + [b - a for a, b in zip(targets, targets[1:])]
        terms.append([(h, s, r - s) for h, s, r in zip(steps, starts, radii)])
    return radii, terms


def expected_search(prob, kinds, terms) -> tuple[list[float] | None, int]:
    """The first ladder search_certificate must return (or None), and how
    many box extrema that search samples.

    Enumerates diagonal ladders on the search grid in the same
    lexicographic order, with the same ordering rule and the same memo of
    evaluated levels, deciding each level from f_i(r)/r.  A level samples
    two boxes, plus two for the starred fallback when a first-level I0
    fails; that fallback never holds because every designed f_i vanishes
    at 0.
    """
    lo, hi, points = SEARCH_GRID
    grid = [lo * (hi / lo) ** (k / (points - 1)) for k in range(points)]
    margin = prob.options.margin
    c_min = min(prob.c(1), prob.c(2))
    memo: dict[tuple[str, bool, float], bool] = {}

    def holds(kind, star, r):
        if (kind, star, r) not in memo:
            ok = True
            for i in (1, 2):
                lhs = ramp_sum(terms[i - 1], r) / r
                if kind == "I1":
                    ok = ok and lhs < prob.m_used(i) - margin
                else:
                    ok = ok and lhs > prob.M_used(i) + margin
            memo[(kind, star, r)] = ok
        return memo[(kind, star, r)]

    def extend(level, prefix):
        if level == len(kinds):
            return prefix
        for r in grid:
            if prefix:
                bound = prefix[-1] / c_min if kinds[level - 1] == "I0" else prefix[-1]
                if not bound < r:
                    continue
            if holds(kinds[level], level == 0 and kinds[level] == "I0", r):
                found = extend(level + 1, prefix + [r])
                if found is not None:
                    return found
        return None

    ladder = extend(0, [])
    boxes = sum(4 if star and not ok else 2 for (_, star, _), ok in memo.items())
    return ladder, boxes


def cert_digest(obj) -> str:
    if obj is None:
        return sha256("none")
    if isinstance(obj, certify.ConditionFailed):
        return sha256("failed", json.dumps(dataclasses.asdict(obj.result), sort_keys=True))
    return sha256(json.dumps(dataclasses.asdict(obj), sort_keys=True))


class CertifySweep(Workload):
    """Library certification on two problems whose thresholds are computed
    in set-up: ladder searches that hit or run out, single-ladder checks,
    replays with the tight thresholds and nonexistence checks.  Certify and
    exprlang do the work; quadrature runs only in set-up.
    """

    name = "certify_sweep"
    CASES = 12
    CANDIDATES = 9
    STEPS = ("search", "check", "revalidate", "nonexistence")
    round_jobs = CASES * len(STEPS)

    def setup(self) -> None:
        rng = self.rng()
        ref = reference_equations()
        while True:
            seeded = [draw_tuple(rng), draw_tuple(rng)]
            if all(sampled_bounds_hold(*eq, closed_forms(*eq)["c"]) for eq in seeded):
                break
        self.bases = []
        for eqs in (ref, seeded):
            params = tuple(kernel.validate_params(*eq) for eq in eqs)
            base = problem.Problem.build(params, ("0", "0"))
            forms = [closed_forms(*eq) for eq in eqs]
            for rep, want in zip(base.constants, forms):
                for key in ("M", "m_hat", "M_hat"):
                    self.max_rel_err = max(self.max_rel_err, rel_err(getattr(rep, key), want[key]))
            self.bases.append((base, forms))
        patterns = sorted(PATTERN_KINDS)
        self.cases = []
        for k in range(self.CASES):
            base, forms = self.bases[k % 2]
            pattern = patterns[(k // 2) % len(patterns)]
            radii, terms, search = self._design(rng, base, forms, pattern)
            prob = self._swap(base, ramp_text(terms[0], "u"), ramp_text(terms[1], "v"))
            variant = 1 + k % 3
            ne_prob, ne_box, ne_holds = self._ne_case(rng, base, forms, variant)
            self.cases.append({
                "pattern": pattern, "radii": radii, "problem": prob, "search": search,
                "variant": variant, "ne_problem": ne_prob, "ne_box": ne_box,
                "ne_holds": ne_holds,
            })

    def _design(self, rng, base, forms, pattern):
        """Plateau design of one case with a typical search cost.

        S5 searches are meant to run out of grid and all others to find a
        ladder.  Among the first CANDIDATES designs with that outcome, the
        one whose search samples the median number of boxes is kept, so the
        search cost of a round position hardly depends on the seed.
        """
        kinds = PATTERN_KINDS[pattern]
        want_hit = pattern != "S5"
        drawn, matching = [], []
        while len(matching) < self.CANDIDATES and len(drawn) < 50 * self.CANDIDATES:
            radii, terms = design_plateaus(rng, kinds, forms)
            ladder, boxes = expected_search(base, kinds, terms)
            drawn.append((boxes, radii, terms, ladder))
            if (ladder is not None) == want_hit:
                matching.append(drawn[-1])
        pool = sorted(matching or drawn, key=lambda d: d[0])
        _, radii, terms, ladder = pool[len(pool) // 2]
        return radii, terms, ladder

    @staticmethod
    def _swap(base, f1: str, f2: str):
        """Swap nonlinearities into a problem whose constants are computed."""
        return dataclasses.replace(base, f=(exprlang.parse(f1), exprlang.parse(f2)),
                                   f_text=(f1, f2))

    def _ne_case(self, rng, base, forms, variant):
        """Linear growth with coefficients on a seeded side of m_hat / M_hat.

        Variant 1 uses a_i*|w_i| against m_i, variant 2 a_i*w_i against
        M_i, variant 3 the first of each.  The case holds when every
        coefficient sits on the holding side.
        """
        kinds = {1: ("NE1", "NE1"), 2: ("NE2", "NE2"), 3: ("NE1", "NE2")}[variant]
        holds = rng.random() < 0.5
        failing = None if holds else rng.randrange(2)
        texts = []
        for i, (kind, f, var) in enumerate(zip(kinds, forms, ("u", "v"))):
            delta = rng.uniform(0.05, 0.5)
            below = (kind == "NE1") == (i != failing)
            if kind == "NE1":
                a = f["m_hat"] * (1.0 - delta if below else 1.0 + delta)
                texts.append(f"{a!r}*abs({var})")
            else:
                a = f["M_hat"] * (1.0 - delta if below else 1.0 + delta)
                texts.append(f"{a!r}*{var}")
        box = POS_BOX if variant == 2 else NE_BOX
        return self._swap(base, *texts), certify.Box3((0.0, 1.0), *box), holds

    def reset(self) -> None:
        self.certified = {}

    def run(self, i: int):
        case = self.cases[i // len(self.STEPS)]
        step = self.STEPS[i % len(self.STEPS)]
        prob = case["problem"]
        try:
            if step == "search":
                return certify.search_certificate(prob, case["pattern"], *SEARCH_GRID)
            if step == "check":
                cert = certify.check_pattern(prob, case["pattern"], case["radii"])
                self.certified[i] = cert
                return cert
            if step == "revalidate":
                return certify.revalidate_certificate(prob, self.certified.pop(i - 1))
            return certify.check_nonexistence(case["ne_problem"], case["variant"], case["ne_box"])
        except certify.ConditionFailed as exc:
            return exc

    def expected_exception(self, exc):
        return isinstance(exc, certify.ConditionFailed)

    def digest(self, i, outcome):
        return cert_digest(outcome), outcome

    def verify(self, i, outcome):
        case = self.cases[i // len(self.STEPS)]
        step = self.STEPS[i % len(self.STEPS)]
        if step == "search":
            want = case["search"]
            got = None if outcome is None else [level[0] for level in outcome.ladder]
            if got != want:
                return [f"search {case['pattern']} returned ladder {got}, expected {want}"]
        elif step == "nonexistence":
            if isinstance(outcome, certify.ConditionFailed) == case["ne_holds"]:
                return [f"NE{case['variant']} verdict {type(outcome).__name__}, "
                        f"expected holds={case['ne_holds']}"]
        elif not isinstance(outcome, certify.Certificate):
            return [f"{step} {case['pattern']} at {case['radii']} did not certify: {outcome}"]
        if not isinstance(outcome, certify.Certificate):
            return []
        if step == "revalidate":
            replay = outcome
        else:
            replay = certify.revalidate_certificate(
                case["ne_problem"] if step == "nonexistence" else case["problem"], outcome)
        if replay.conservative or not all(c.holds for c in replay.conditions):
            return [f"{step} certificate {outcome.pattern} does not replay with tight thresholds"]
        return []


# ------------------------------------------------------------ solve_cold


class SolveCold(Workload):
    """``fraccert solve`` in process from a cold start on grids whose sizes
    are spread evenly over 201-801 nodes, alternating constant forcings
    (closed-form solution) and smooth contractive ones; weight assembly
    dominates.  Neighbouring sizes cost about the same, so the latency
    percentiles rest on several jobs each.
    """

    name = "solve_cold"
    SIZES = tuple(round(201 + 600 * k / 14) for k in range(15))
    round_jobs = len(SIZES)

    def setup(self) -> None:
        self.ref = reference_equations()
        cfg_dir = self.tmp / "solve_configs"
        cfg_dir.mkdir(exist_ok=True)
        (self.tmp / "out").mkdir(exist_ok=True)
        rng = self.rng()
        self.pool = []
        for k, size in enumerate(self.SIZES):
            n = min(801, max(201, size + rng.randint(-10, 10)))
            constant = k % 2 == 0
            if constant:
                amp = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
                f1, f2 = repr(amp[0]), repr(amp[1])
                damping = 1.0
            else:
                amp = None
                f1 = (f"{rng.uniform(0.5, 2.0)!r} + {rng.uniform(0.05, 0.3)!r}*sin(u)"
                      f" + {rng.uniform(0.05, 0.3)!r}*cos(v)")
                f2 = (f"{rng.uniform(0.5, 2.0)!r} + {rng.uniform(0.05, 0.3)!r}*cos(u)"
                      f" + {rng.uniform(0.05, 0.3)!r}*sin(t*v)")
                damping = rng.uniform(0.6, 1.0)
            path = cfg_dir / f"s{k}.json"
            write_config(path, self.ref, f1, f2)
            self.pool.append((str(path), n, damping, amp))

    def run(self, i: int):
        path, n, damping, _ = self.pool[i]
        out = self.tmp / "out" / f"solve_{i}.csv"
        code, stdout, stderr = run_cli([
            "solve", "--config", path, "--grid", str(n), "--damping", repr(damping),
            "--tol", repr(PICARD_TOL), "--max-iter", "500", "--out", str(out)])
        return code, stdout, stderr, out

    def digest(self, i, outcome):
        code, stdout, stderr, out = outcome
        sidecar = out.with_suffix(".json")
        csv_text = out.read_text(encoding="utf-8") if out.exists() else None
        side_text = sidecar.read_text(encoding="utf-8") if sidecar.exists() else None
        out.unlink(missing_ok=True)
        sidecar.unlink(missing_ok=True)
        return (sha256(code, stdout, stderr, csv_text, side_text),
                (code, stdout, stderr, csv_text, side_text))

    def verify(self, i, payload):
        code, stdout, stderr, csv_text, side_text = payload
        _, n, _, amp = self.pool[i]
        if code != 0 or csv_text is None or side_text is None:
            return [f"exit {code}: {stderr.strip()}"]
        meta = json.loads(side_text)
        errors = []
        if side_text != stdout:
            errors.append("sidecar differs from stdout")
        if not (meta["converged"] and meta["residual_sup"] <= meta["tol"]):
            errors.append(f"not converged: residual {meta['residual_sup']!r}")
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        if meta["grid_requested"] != n or len(rows) != meta["nodes"]:
            errors.append(f"grid {meta['grid_requested']}/{len(rows)} rows, asked for n={n}")
        if amp is not None:
            t = np.array([float(r["t"]) for r in rows])
            for col, (alpha, beta, eta, _), c in zip(("u", "v"), self.ref, amp):
                exact = c * (beta + (eta ** alpha - t ** alpha) / math.gamma(alpha + 1.0))
                err = float(np.max(np.abs(np.array([float(r[col]) for r in rows]) - exact)))
                self.max_abs_err = max(self.max_abs_err, err)
                if err > SOLVE_ATOL:
                    errors.append(f"{col} off the closed form by {err:.3e}")
        return errors


# ------------------------------------------------------------ picard_warm


class PicardWarm(Workload):
    """Library Picard continuation on grids of 401 and 801 nodes built in
    set-up: each solve starts from the previous solution on its grid while
    the forcing amplitude and the damping change.  Operator application and
    expression evaluation dominate.
    """

    name = "picard_warm"
    round_jobs = 60

    def setup(self) -> None:
        params = tuple(kernel.validate_params(*eq) for eq in reference_equations())
        prob = problem.Problem.build(params, ("1", "1"), with_constants=False)
        self.grids = {n: solver.build_grid(prob.models, n) for n in (401, 801)}
        rng = self.rng()
        amp0, step = rng.uniform(0.7, 0.8), rng.uniform(0.009, 0.011)
        # the dampings are a seeded order of one fixed grid, so every seed's
        # round needs about the same number of iterations in total
        dampings = [0.5 + 0.4 * k / (self.round_jobs - 1) for k in range(self.round_jobs)]
        rng.shuffle(dampings)
        self.pool = []
        for k, damping in enumerate(dampings):
            amp = amp0 + step * k
            f1 = exprlang.parse(f"{amp!r}*(1 + 0.4*sin(u)) + 0.2*cos(v)")
            f2 = exprlang.parse(f"{amp!r}*(1 + 0.3*cos(u)) + 0.2*sin(v)")
            # one job in three on the coarse grid keeps both medians inside
            # the fine grid's spread of iteration counts
            n = 401 if k % 3 == 0 else 801
            self.pool.append((n, f1, f2, damping))

    def reset(self) -> None:
        self.previous = {401: None, 801: None}

    def run(self, i: int):
        n, f1, f2, damping = self.pool[i]
        sol = solver.solve_picard(self.grids[n], f1, f2, init=self.previous[n],
                                  tol=PICARD_TOL, max_iter=1000, damping=damping)
        self.previous[n] = (sol.u_values, sol.v_values)
        return sol

    def digest(self, i, outcome):
        return (sha256(outcome.u_values.tobytes(), outcome.v_values.tobytes(),
                       outcome.iterations, repr(outcome.residual_sup), outcome.converged),
                outcome)

    def verify(self, i, outcome):
        if outcome.converged and outcome.residual_sup <= outcome.tol:
            return []
        return [f"not converged after {outcome.iterations} iterations "
                f"(residual {outcome.residual_sup!r})"]


WORKLOADS = {cls.name: cls for cls in (CliConstants, CertifySweep, SolveCold, PicardWarm)}
