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
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .certify import (Box3, Certificate, ConditionFailed, ExtremumEstimate,
                      LadderOrderViolation, PATTERNS, box_inf, check_nonexistence,
                      check_pattern, search_certificate)
from .exprlang import EvalError, ExprError, parse
from .kernel import (KernelBoundError, ParamError, ProblemParams, check_params,
                     default_interval_end, kernel_values, phi_values,
                     validate_params)
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


def _schema_scan(raw) -> list[str]:
    """Structural checks only; returns messages with JSON-pointer paths."""
    errs: list[str] = []
    if not isinstance(raw, dict):
        return ["/: top level must be a JSON object"]
    known = {"equations", "nonlinearities", "options"}
    for key in sorted(set(raw) - known):
        errs.append(f"/{key}: unknown key")
    eqs = raw.get("equations")
    if not isinstance(eqs, list) or len(eqs) != 2:
        errs.append("/equations: must be a list of exactly 2 entries")
    else:
        for i, eq in enumerate(eqs):
            if not isinstance(eq, dict):
                errs.append(f"/equations/{i}: must be an object")
                continue
            for key in sorted(set(eq) - {"alpha", "beta", "eta", "b"}):
                errs.append(f"/equations/{i}/{key}: unknown key")
            for key in ("alpha", "beta", "eta"):
                if key not in eq:
                    errs.append(f"/equations/{i}/{key}: required key missing")
                elif not _is_num(eq[key]):
                    errs.append(f"/equations/{i}/{key}: must be a finite number")
            if "b" in eq and not _is_num(eq["b"]):
                errs.append(f"/equations/{i}/b: must be a finite number")
    nls = raw.get("nonlinearities")
    if not isinstance(nls, dict):
        errs.append("/nonlinearities: must be an object with keys f1, f2")
    else:
        for key in sorted(set(nls) - {"f1", "f2"}):
            errs.append(f"/nonlinearities/{key}: unknown key")
        for key in ("f1", "f2"):
            if key not in nls:
                errs.append(f"/nonlinearities/{key}: required key missing")
            elif not isinstance(nls[key], str):
                errs.append(f"/nonlinearities/{key}: must be a string expression")
    opts = raw.get("options", {})
    if not isinstance(opts, dict):
        errs.append("/options: must be an object")
        return errs
    for key in sorted(set(opts) - {"conservative", "margin"}):
        errs.append(f"/options/{key}: unknown key")
    if "conservative" in opts and not isinstance(opts["conservative"], bool):
        errs.append("/options/conservative: must be a boolean")
    if "margin" in opts and not _is_num(opts["margin"]):
        errs.append("/options/margin: must be a finite number")
    return errs


def load_config(path) -> ProblemConfig:
    """Load and fully validate a JSON problem configuration.

    Every structural problem is reported at once (SchemaError); when the
    structure is sound, every semantic problem -- parameter inequalities
    and expression syntax -- is likewise aggregated (ValidationError).
    Both carry JSON-pointer paths. I/O problems propagate as OSError.
    """
    text = Path(path).read_text(encoding="utf-8")
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
        if "b" in eq:
            b = float(eq["b"])
        else:
            b = default_interval_end(alpha, beta, eta)
            if b is None:
                # fall back to eta so the interval check reports the range
                b = eta
        msgs = check_params(alpha, beta, eta, b)
        if msgs:
            sem.extend(f"/equations/{i}: {msg}" for _, msg in msgs)
        else:
            params.append(validate_params(alpha, beta, eta, b))
    f_text = []
    for key in ("f1", "f2"):
        text_i = raw["nonlinearities"][key]
        try:
            parse(text_i)
        except ExprError as exc:
            sem.append(f"/nonlinearities/{key}: {exc}")
        f_text.append(text_i)
    opts_raw = raw.get("options", {})
    margin = float(opts_raw.get("margin", 1e-9))
    if margin < 0.0:
        sem.append("/options/margin: must be >= 0")
        margin = 0.0
    if sem:
        raise ValidationError(sem)
    options = Options(conservative=bool(opts_raw.get("conservative", True)), margin=margin)
    return ProblemConfig(params=(params[0], params[1]),
                         f_text=(f_text[0], f_text[1]), options=options)


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
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for pos, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            out.append(f"{pad}  {json.dumps(key)}: ")
            _encode(obj[key], indent + 1, out)
            out.append(",\n" if pos < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for pos, item in enumerate(seq):
            out.append(pad + "  ")
            _encode(item, indent + 1, out)
            out.append(",\n" if pos < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps_report(obj) -> str:
    """Serialize a report deterministically: sorted keys, 17-digit floats."""
    out: list[str] = []
    _encode(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="")
    os.replace(tmp, path)


def _emit_json(report: dict, out_path: str | None) -> None:
    text = dumps_report(report)
    if out_path:
        _write_atomic(Path(out_path), text)
    sys.stdout.write(text)


# ---------------------------------------------------------------- reports


def _box_dict(box: Box3 | None):
    if box is None:
        return None
    return {"t_range": list(box.t_range), "u_range": list(box.u_range),
            "v_range": list(box.v_range)}


def _estimate_dict(est: ExtremumEstimate) -> dict:
    return {
        "kind": est.kind, "value": est.value, "location": list(est.location),
        "samples": est.samples, "refined": est.refined,
        "refine_rounds": est.refine_rounds,
    }


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "pattern": cert.pattern,
        "ladder": [list(level) for level in cert.ladder],
        "solutions": cert.solutions,
        "conclusion": cert.conclusion,
        "conservative": cert.conservative,
        "ne_box": _box_dict(cert.ne_box),
        "samples_per_axis": cert.samples_per_axis,
        "conditions": [
            {
                "kind": cond.kind, "equation": cond.equation,
                "rho": None if cond.rho is None else list(cond.rho),
                "box": _box_dict(cond.box), "lhs": cond.lhs,
                "threshold": cond.threshold, "holds": cond.holds,
                "conservative": cond.conservative, "margin": cond.margin,
                "estimate": _estimate_dict(cond.estimate),
            }
            for cond in cert.conditions
        ],
    }


def _constants_report(problem: Problem) -> dict:
    eqs = []
    for i in (1, 2):
        p = problem.params(i)
        rep = problem.constants[i - 1]
        eqs.append({
            "equation": i,
            "alpha": p.alpha, "beta": p.beta, "eta": p.eta, "b": p.b,
            "c": problem.c(i),
            "m": rep.m, "M": rep.M, "m_hat": rep.m_hat, "M_hat": rep.M_hat,
            "t_star_m": rep.t_star_m, "t_star_M": rep.t_star_M,
        })
    return {"equations": eqs, "conservative": problem.options.conservative}


def _nonneg_warnings(problem: Problem, cert: Certificate) -> list[str]:
    """Sampled nonnegativity of f_i on each condition box (standing hypothesis)."""
    warnings = []
    seen = set()
    for cond in cert.conditions:
        key = (cond.equation, cond.box.t_range, cond.box.u_range, cond.box.v_range)
        if key in seen:
            continue
        seen.add(key)
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


def _parse_ladder(text: str, levels: int) -> list[tuple[float, float]]:
    try:
        vals = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--ladder: {exc}") from exc
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
    return float(parts[0]), float(parts[1]), int(parts[2])


def _parse_box(text: str) -> tuple[float, float, float, float]:
    vals = [float(x) for x in text.split(",")]
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
        a, b = float(parts[0]), float(parts[1])
        return np.full(grid.nodes.size, a), np.full(grid.nodes.size, b)
    if text.startswith("file:"):
        path = Path(text[len("file:"):])
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"t", "u", "v"} <= set(reader.fieldnames):
                raise ValueError(f"--init file {path} must have columns t,u,v")
            rows = [(float(r["t"]), float(r["u"]), float(r["v"])) for r in reader]
        if len(rows) < 4:
            raise ValueError(f"--init file {path} needs at least 4 rows")
        rows.sort()
        ts = np.array([r[0] for r in rows])
        us = np.array([r[1] for r in rows])
        vs = np.array([r[2] for r in rows])
        return (interpolate_nodes(ts, us, grid.nodes),
                interpolate_nodes(ts, vs, grid.nodes))
    raise ValueError("--init expects const:a,b or file:path.csv")


def _solution_csv(grid, u: np.ndarray, v: np.ndarray) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "u", "v"])
    for t, a, b in zip(grid.nodes, u, v):
        writer.writerow([_fmt_float(float(t)), _fmt_float(float(a)), _fmt_float(float(b))])
    return buf.getvalue()


def _cmd_solve(args) -> int:
    problem = load_config(args.config).to_problem(with_constants=False)
    grid = build_grid(problem.models, args.grid)
    init = _parse_init(args.init, grid)
    sol = solve_picard(grid, problem.f[0], problem.f[1], init=init,
                       tol=args.tol, max_iter=args.max_iter, damping=args.damping)
    cones = cone_metrics(sol, problem.models)
    out_path = Path(args.out)
    _write_atomic(out_path, _solution_csv(grid, sol.u_values, sol.v_values))
    sidecar = {
        "converged": sol.converged,
        "iterations": sol.iterations,
        "residual_sup": sol.residual_sup,
        "tol": sol.tol,
        "damping": sol.damping,
        "nodes": int(grid.nodes.size),
        "grid_requested": grid.n_requested,
        "init": args.init,
        "cone": [
            {
                "equation": rep.equation, "min_on_interval": rep.min_on_interval,
                "sup_norm": rep.sup_norm, "c": rep.c, "margin": rep.margin,
                "in_cone": rep.in_cone, "tolerance": rep.tolerance,
            }
            for rep in cones
        ],
    }
    _write_atomic(out_path.with_suffix(".json"), dumps_report(sidecar))
    sys.stdout.write(dumps_report(sidecar))
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
    table = kernel_values(p, grid[:, None], grid)
    phis = phi_values(p, grid)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "s", "k", "phi"])
    for t, ks in zip(grid, table):
        for s, k, phi in zip(grid, ks, phis):
            writer.writerow([_fmt_float(float(t)), _fmt_float(float(s)),
                             _fmt_float(float(k)), _fmt_float(float(phi))])
    _write_atomic(Path(args.out), buf.getvalue())
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
                        help="comma-separated radii, one per level (or pairs)")
    p_cert.add_argument("--search", default=None, help="geometric grid lo:hi:points")
    p_cert.add_argument("--box", default="-10,10,-10,10",
                        help="nonexistence box u_lo,u_hi,v_lo,v_hi")
    p_cert.add_argument("--samples", type=int, default=41,
                        help="nonexistence samples per axis")
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(fn=_cmd_certify)

    p_solve = sub.add_parser("solve", help="solve the integral system by damped Picard")
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
        return args.fn(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ConfigError as exc:
        sys.stderr.write("config rejected:\n")
        for msg in exc.errors:
            sys.stderr.write(f"  {msg}\n")
        return 1
    except (ParamError, KernelBoundError, ExprError, EvalError, LadderOrderViolation,
            ValueError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def run() -> None:
    raise SystemExit(main())
