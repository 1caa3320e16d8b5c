"""Command-line interface: config ingestion, dispatch, report emission.

Configs are JSON documents naming the two equations, the nonlinearities
and the certification options; reports are JSON (constants, certificates,
solve metadata) or CSV (solution and kernel grids). All floats are
serialized with 17 significant digits, nested keys are emitted in sorted
order, and files are written atomically (temp + rename), so identical
inputs produce byte-identical outputs.

Exit codes: 0 on success (including certificate found), 2 when the run
completed but certified nothing (no certificate, failed condition,
non-convergence), 1 on any error (bad flags, bad config, bad ladder).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .certify import (Box3, Certificate, ConditionFailed, PATTERNS, box_inf,
                      check_nonexistence, check_pattern, search_certificate)
from .exprlang import EvalError, ExprError, parse
from .kernel import (RANGE_RULE, IntervalChoiceViolated, KernelBoundError, ProblemParams,
                     check_params, default_interval_end, in_range, kernel_values, phi_values)
from .problem import Options, Problem
from .solver import build_grid, cone_metrics, interpolate_nodes, solve_picard

__all__ = [
    "ConfigError",
    "SchemaError",
    "ValidationError",
    "ProblemConfig",
    "load_config",
    "dumps_report",
    "certificate_to_dict",
    "main",
    "run",
]


class ConfigError(ValueError):
    """Config rejected; ``errors`` lists every problem with a JSON pointer."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class SchemaError(ConfigError):
    """Config structure does not match the schema (missing/bad-typed keys)."""


class ValidationError(ConfigError):
    """Config is well-formed but semantically invalid (parameters, expressions)."""


@dataclass(frozen=True)
class ProblemConfig:
    """Validated configuration ready to assemble into a Problem."""

    params: tuple[ProblemParams, ProblemParams]
    f_text: tuple[str, str]
    options: Options

    def to_problem(self, with_constants: bool = True) -> Problem:
        return Problem.build(self.params, self.f_text, self.options, with_constants)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(float(x))


# key -> (required, test, what a value must be), for each config object
_EQUATION_KEYS = {key: (key != "b", _is_num, "a finite number")
                  for key in ("alpha", "beta", "eta", "b")}
_NONLINEARITY_KEYS = {key: (True, lambda x: isinstance(x, str), "a string expression")
                      for key in ("f1", "f2")}
_OPTION_KEYS = {"conservative": (False, lambda x: isinstance(x, bool), "a boolean"),
                "margin": (False, _is_num, "a finite number")}


def _scan_object(obj, keys: dict, path: str, shape: str = "an object") -> list[str]:
    """Messages for an object: unknown keys (sorted), then each key in table order."""
    if not isinstance(obj, dict):
        return [f"{path}: must be {shape}"]
    errs = [f"{path}/{key}: unknown key" for key in sorted(set(obj) - set(keys))]
    for key, (required, test, what) in keys.items():
        if key not in obj:
            if required:
                errs.append(f"{path}/{key}: required key missing")
        elif not test(obj[key]):
            errs.append(f"{path}/{key}: must be {what}")
    return errs


def _schema_scan(raw) -> list[str]:
    """Structural checks only; returns messages with JSON-pointer paths."""
    if not isinstance(raw, dict):
        return ["/: top level must be a JSON object"]
    known = {"equations", "nonlinearities", "options"}
    errs = [f"/{key}: unknown key" for key in sorted(set(raw) - known)]
    eqs = raw.get("equations")
    if not isinstance(eqs, list) or len(eqs) != 2:
        errs.append("/equations: must be a list of exactly 2 entries")
    else:
        for i, eq in enumerate(eqs):
            errs += _scan_object(eq, _EQUATION_KEYS, f"/equations/{i}")
    errs += _scan_object(raw.get("nonlinearities"), _NONLINEARITY_KEYS, "/nonlinearities",
                         "an object with keys f1, f2")
    return errs + _scan_object(raw.get("options", {}), _OPTION_KEYS, "/options")


def load_config(path) -> ProblemConfig:
    """Load and fully validate a JSON problem configuration.

    Every structural problem is reported at once (SchemaError); when the
    structure is sound, every semantic problem -- parameter inequalities
    and expression syntax -- is likewise aggregated (ValidationError).
    Both carry JSON-pointer paths. I/O problems propagate as OSError.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError([f"/: not valid JSON: {exc}"]) from exc
    schema_errs = _schema_scan(raw)
    if schema_errs:
        raise SchemaError(schema_errs)

    sem: list[str] = []
    params: list[ProblemParams] = []
    for i, eq in enumerate(raw["equations"]):
        alpha, beta, eta = float(eq["alpha"]), float(eq["beta"]), float(eq["eta"])
        b = float(eq["b"]) if "b" in eq else default_interval_end(alpha, beta, eta)
        msgs = check_params(alpha, beta, eta, b)
        if msgs and "b" not in eq and all(kind is IntervalChoiceViolated for kind, _ in msgs):
            hi = eta + (beta * math.gamma(alpha)) ** (1.0 / (alpha - 1.0))
            msgs = [(IntervalChoiceViolated,
                     "interval end b was omitted and neither the midpoint (eta + 1)/2 nor "
                     f"eta is admissible; set b in ({eta!r}, {hi!r})")]
        sem.extend(f"/equations/{i}: {msg}" for _, msg in msgs)
        params.append(ProblemParams(alpha, beta, eta, b))
    f_text = []
    for key in ("f1", "f2"):
        text_i = raw["nonlinearities"][key]
        try:
            parse(text_i)
        except ExprError as exc:
            sem.append(f"/nonlinearities/{key}: {exc}")
        f_text.append(text_i)
    options = raw.get("options", {})
    if options.get("margin", 0.0) < 0.0:
        sem.append("/options/margin: must be >= 0")
    if sem:
        raise ValidationError(sem)
    return ProblemConfig(params=tuple(params), f_text=tuple(f_text), options=Options(**options))


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return f"{x:.17g}"


def _encode(obj, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, (dict, list, tuple)):
        keyed = isinstance(obj, dict)
        keys = sorted(obj) if keyed else range(len(obj))
        brackets = "{}" if keyed else "[]"
        if not keys:
            out.append(brackets)
            return
        out.append(brackets[0] + "\n")
        for pos, key in enumerate(keys):
            if keyed and not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out.append(f"{pad}  {json.dumps(key)}: " if keyed else pad + "  ")
            _encode(obj[key], indent + 1, out)
            out.append(",\n" if pos < len(keys) - 1 else "\n")
        out.append(pad + brackets[1])
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_report(obj) -> str:
    """Serialize a report deterministically: sorted keys, 17-digit floats."""
    out: list[str] = []
    _encode(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _write_atomic(path: str, parts) -> None:
    """Write an iterable of strings to ``path`` through a temp file and a rename;
    the temp file is removed if the write or the rename fails."""
    # plain strings: pathlib interns every name it parses, and a fresh name
    # per call makes the interpreter's interned-string table reallocate
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _sidecar(out: str) -> str:
    """The JSON sidecar that ``solve`` writes beside its CSV."""
    return os.path.splitext(out)[0] + ".json"


def _emit_json(report: dict, out_path: str | None) -> None:
    text = dumps_report(report)
    if out_path:
        _write_atomic(out_path, (text,))
    sys.stdout.write(text)


# ---------------------------------------------------------------- reports


def certificate_to_dict(cert: Certificate) -> dict:
    report = asdict(cert)
    for cond, entry in zip(cert.conditions, report["conditions"]):
        entry["estimate"]["refined"] = cond.estimate.refined
    return report


def _constants_report(problem: Problem) -> dict:
    eqs = [{"equation": i, "c": problem.c(i), **asdict(problem.params(i)),
            **asdict(problem.constants[i - 1])} for i in (1, 2)]
    return {"equations": eqs, "conservative": problem.options.conservative}


def _nonneg_warnings(problem: Problem, cert: Certificate) -> list[str]:
    """Sampled nonnegativity of f_i on each condition box (standing hypothesis)."""
    warnings = []
    for cond in cert.conditions:  # no certificate repeats an (equation, box) pair
        rep = box_inf(problem.f[cond.equation - 1], cond.box, grid=21, refine_rounds=0)
        if rep.value < 0.0:
            warnings.append(
                f"f{cond.equation} sampled negative ({rep.value:.6g} at "
                f"t={rep.location[0]:.6g}, u={rep.location[1]:.6g}, "
                f"v={rep.location[2]:.6g}); the theory assumes f >= 0 there"
            )
    return warnings


# ------------------------------------------------------------- commands


def _cmd_constants(args) -> int:
    problem = load_config(args.config).to_problem()
    _emit_json(_constants_report(problem), args.out)
    return 0


def _numbers(flag: str, parts, types=itertools.repeat(float)) -> list:
    try:
        vals = [kind(x) for kind, x in zip(types, parts)]
    except (TypeError, ValueError) as exc:  # a short CSV row reads None
        raise ValueError(f"{flag}: {exc}") from exc
    for x in vals:
        if not in_range(x):
            raise ValueError(f"{flag}: {x!r} is neither 0 nor of {RANGE_RULE}")
    return vals


def _parse_ladder(text: str, levels: int) -> list[tuple[float, float]]:
    vals = _numbers("--ladder", [x for x in text.split(",") if x.strip() != ""])
    if len(vals) == levels:
        return [(x, x) for x in vals]
    if len(vals) == 2 * levels:
        return [(vals[2 * j], vals[2 * j + 1]) for j in range(levels)]
    raise ValueError(
        f"--ladder needs {levels} radii (shared) or {2 * levels} "
        f"(per-equation pairs), got {len(vals)}"
    )


def _parse_search(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--search expects lo:hi:points")
    return tuple(_numbers("--search", parts, (float, float, int)))


def _parse_box(text: str) -> tuple[float, float, float, float]:
    vals = _numbers("--box", text.split(","))
    if len(vals) != 4:
        raise ValueError("--box expects u_lo,u_hi,v_lo,v_hi")
    return tuple(vals)


def _cmd_certify(args) -> int:
    problem = load_config(args.config).to_problem()
    report: dict = {"pattern": args.pattern, "certificate": None,
                    "conservative": problem.options.conservative, "warnings": []}
    try:
        if args.pattern.startswith("NE"):
            if args.ladder or args.search:
                raise ValueError("--ladder/--search do not apply to nonexistence patterns")
            u_lo, u_hi, v_lo, v_hi = _parse_box(args.box)
            box = Box3(t_range=(0.0, 1.0), u_range=(u_lo, u_hi), v_range=(v_lo, v_hi))
            cert = check_nonexistence(problem, int(args.pattern[2]), box, args.samples)
        elif (args.ladder is None) == (args.search is None):
            raise ValueError("supply exactly one of --ladder or --search")
        elif args.ladder is not None:
            ladder = _parse_ladder(args.ladder, len(PATTERNS[args.pattern][0]))
            cert = check_pattern(problem, args.pattern, ladder)
        else:
            cert = search_certificate(problem, args.pattern, *_parse_search(args.search))
    except ConditionFailed as exc:
        failed = exc.result
        report["failure"] = {"kind": failed.kind, "equation": failed.equation,
                             "lhs": failed.lhs, "threshold": failed.threshold}
        if failed.rho is not None:
            report["failure"]["rho"] = list(failed.rho)
        _emit_json(report, args.out)
        sys.stderr.write(f"no certificate: {exc}\n")
        return 2
    if cert is None:
        report["message"] = "no certificate found"
        _emit_json(report, args.out)
        sys.stderr.write("no certificate found\n")
        return 2
    report["certificate"] = certificate_to_dict(cert)
    report["warnings"] = _nonneg_warnings(problem, cert)
    _emit_json(report, args.out)
    for warning in report["warnings"]:
        sys.stderr.write(f"warning: {warning}\n")
    return 0


def _parse_init(text: str, grid) -> tuple[np.ndarray, np.ndarray]:
    if text.startswith("const:"):
        parts = text[len("const:"):].split(",")
        if len(parts) != 2:
            raise ValueError("--init const form expects const:a,b")
        a, b = _numbers("--init", parts)
        return np.full(grid.nodes.size, a), np.full(grid.nodes.size, b)
    if text.startswith("file:"):
        path = text[len("file:"):]
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"t", "u", "v"} <= set(reader.fieldnames):
                raise ValueError(f"--init file {path} must have columns t,u,v")
            rows = np.array(sorted(_numbers(f"--init file {path}", map(r.get, "tuv"))
                                   for r in reader))
        if len(rows) < 4:
            raise ValueError(f"--init file {path} needs at least 4 rows")
        ts, us, vs = rows.T
        repeats = ts[1:][ts[1:] == ts[:-1]]
        if repeats.size:
            raise ValueError(f"--init file {path} repeats t = {float(repeats[0])!r}")
        try:
            with np.errstate(all="raise", under="ignore"):
                return interpolate_nodes(ts, us, grid.nodes), interpolate_nodes(ts, vs, grid.nodes)
        except FloatingPointError:
            raise ValueError(f"--init file {path} does not interpolate to finite values "
                             "(t rows too close together, or values too large)") from None
    raise ValueError("--init expects const:a,b or file:path.csv")


def _csv_text(header: str, columns) -> str:
    """CSV text of equal-length float columns under ``header``, 17 digits."""
    rows = np.column_stack(columns)
    finite = np.isfinite(rows)
    if not finite.all():
        _fmt_float(float(rows[~finite][0]))  # raises, naming the first non-finite value
    line = ",".join(["{:.17g}"] * rows.shape[1]) + "\n"
    return header + "\n" + "".join(line.format(*row) for row in rows.tolist())


def _cmd_solve(args) -> int:
    problem = load_config(args.config).to_problem(with_constants=False)
    grid = build_grid(problem.models, args.grid)
    init = _parse_init(args.init, grid)
    sol = solve_picard(grid, problem.f[0], problem.f[1], init=init,
                       tol=args.tol, max_iter=args.max_iter, damping=args.damping)
    cones = cone_metrics(sol, problem.models)
    _write_atomic(args.out, (_csv_text("t,u,v", (grid.nodes, sol.u_values, sol.v_values)),))
    sidecar = {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "residual_sup": sol.residual_sup,
        "tol": sol.tol,
        "damping": sol.damping,
        "nodes": int(grid.nodes.size),
        "grid_requested": int(grid.nodes.size),
        "init": args.init,
        "cone": [asdict(rep) for rep in cones],
    }
    _emit_json(sidecar, _sidecar(args.out))
    if not sol.converged:
        sys.stderr.write(
            f"not converged after {sol.iterations} iterations "
            f"(residual {sol.residual_sup:.3e} > tol {sol.tol:.3e})\n"
        )
        return 2
    return 0


def _cmd_kernel(args) -> int:
    problem_cfg = load_config(args.config)
    if args.grid < 2:
        raise ValueError(f"--grid must be >= 2, got {args.grid}")
    p = problem_cfg.params[args.which - 1]
    grid = np.linspace(0.0, 1.0, args.grid)
    k = kernel_values(p, grid[:, None], grid)
    if not np.isfinite(k).all():
        _fmt_float(float(k[~np.isfinite(k)][0]))  # raises, naming the first non-finite value
    # t, s and phi repeat over the n^2 rows: each is formatted once, into one
    # template for the n rows of a t, whose fields are t and those rows' k;
    # the file is streamed one t at a time
    text = [_fmt_float(x) for x in grid.tolist()]
    template = "".join(f"{{0}},{s},{{{q}:.17g}},{_fmt_float(f)}\n"
                       for q, (s, f) in enumerate(zip(text, phi_values(p, grid).tolist()), 1))
    _write_atomic(args.out, itertools.chain(
        ("t,s,k,phi\n",), (template.format(t, *row.tolist()) for t, row in zip(text, k))))
    return 0


# ------------------------------------------------------------ dispatch


class _UsageError(Exception):
    """Flag-level mistake; converted to exit code 1 (2 is reserved)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap to 1 (error)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fraccert",
        description="Certify and solve a system of two nonlocal fractional "
                    "boundary value problems in Hammerstein integral form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="kernel threshold constants")
    p_const.add_argument("--config", required=True)
    p_const.add_argument("--out", default=None)
    p_const.set_defaults(fn=_cmd_constants)

    p_cert = sub.add_parser("certify", help="check or search index-condition certificates")
    p_cert.add_argument("--config", required=True)
    p_cert.add_argument("--pattern", required=True,
                        choices=[*sorted(PATTERNS), "NE1", "NE2", "NE3"])
    p_cert.add_argument("--ladder", default=None,
                        help="comma-separated radii: one per level, or 2 x levels as pairs")
    p_cert.add_argument("--search", default=None, help="geometric grid lo:hi:points")
    p_cert.add_argument("--box", default="-10,10,-10,10",
                        help="nonexistence box u_lo,u_hi,v_lo,v_hi")
    p_cert.add_argument("--samples", type=int, default=41,
                        help="nonexistence samples per axis")
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(fn=_cmd_certify)

    p_solve = sub.add_parser("solve", help="solve the integral system by Anderson-mixed Picard")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--grid", type=int, default=201)
    p_solve.add_argument("--tol", type=float, default=1e-12)
    p_solve.add_argument("--max-iter", type=int, default=200)
    p_solve.add_argument("--damping", type=float, default=0.5)
    p_solve.add_argument("--init", default="const:0,0",
                         help="const:a,b or file:path.csv")
    p_solve.add_argument("--out", required=True, help="solution CSV (JSON sidecar beside it)")
    p_solve.set_defaults(fn=_cmd_solve)

    p_kernel = sub.add_parser("kernel", help="dump kernel and envelope values")
    p_kernel.add_argument("--config", required=True)
    p_kernel.add_argument("--which", type=int, required=True, choices=(1, 2))
    p_kernel.add_argument("--grid", type=int, required=True)
    p_kernel.add_argument("--out", required=True)
    p_kernel.set_defaults(fn=_cmd_kernel)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out:
            if not os.path.isdir(os.path.dirname(args.out) or "."):
                raise ValueError(f"--out {args.out}: its directory does not exist")
            if os.path.isdir(args.out):
                raise ValueError(f"--out {args.out}: it is a directory")
            if args.fn is _cmd_solve and os.path.isdir(_sidecar(args.out)):
                raise ValueError(f"--out {args.out}: its sidecar {_sidecar(args.out)} "
                                 "is a directory")
        return args.fn(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ConfigError as exc:
        sys.stderr.write("config rejected:\n")
        for msg in exc.errors:
            sys.stderr.write(f"  {msg}\n")
        return 1
    except (KernelBoundError, EvalError, ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def run() -> None:
    raise SystemExit(main())
