"""fraccert benchmark: seeded closed-loop workloads with correctness checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

One process, one client, no extra threads or processes: each job starts
only after the previous one has finished.  Every job's output is checked
(``workloads.py``), and the last line printed is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` serves the workload's round of jobs again and again until
``--seconds`` of job time have passed, and reports the end-to-end
metrics over every job served; ``setup_s`` is the import time plus the
median of several set-ups.

``--trace 1`` serves one round twice, first untraced and then
with every public package function wrapped (``tracer.py``), so its counts
repeat exactly for a given seed.  It reports the per-layer metrics, checks
that both passes produced byte-identical outputs, writes the spans to
``.perfbench_out/<workload>.spans.jsonl`` and prints each layer's share of
self time together with the predictions it was built to test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

# fixed before numpy is imported; one BLAS thread keeps a single-client
# closed loop free of thread scheduling noise on a shared machine
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
SELFTEST_SEED = 1
SELFTEST_SECONDS = 0.2
SELFTEST_TRACE_JOBS = 4


class MissingPackage(RuntimeError):
    """The checkout does not hold the fraccert sources next to the benchmark."""


def load_package():
    """Import numpy, fraccert from ``src/`` and the benchmark modules; time it.

    Nothing above this point imports numpy, so the measured time is the
    whole import cost a user of the package pays.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import fraccert
    except ImportError as exc:
        raise MissingPackage(f"cannot import fraccert from {ROOT / 'src'}: {exc}") from exc
    if Path(fraccert.__file__).resolve().parent != ROOT / "src" / "fraccert":
        raise MissingPackage(f"fraccert resolved to {fraccert.__file__}, not this checkout")
    if not all(path.is_file() for path in (ROOT / "configs" / "reference.json",
                                           ROOT / "configs" / "nonexistence.json")):
        raise MissingPackage(f"shipped configs missing under {ROOT / 'configs'}")
    import tracer
    import workloads
    return time.perf_counter() - start, tracer, workloads


# ---------------------------------------------------------------- the loop


def run_pass(wl, tr, jobs: int) -> dict:
    """Serve ``jobs`` jobs of the round in a closed loop.

    Checks run between jobs with tracing paused; their time is excluded
    from the timed phase, so ``wall_s`` is the loop's own wall-clock time.
    """
    wl.reset()
    records = []
    check_ns = 0
    start = time.perf_counter_ns()
    for i in range(jobs):
        t0 = time.perf_counter_ns()
        with tr.root("bench.job"):
            try:
                outcome = wl.run(i)
            except Exception as exc:  # a job that raises is counted, not fatal
                outcome = exc
        t1 = time.perf_counter_ns()
        with tr.paused():
            digest, errors = wl.check(i, outcome)
        check_ns += time.perf_counter_ns() - t1
        records.append((i, (t1 - t0) / 1e6, digest, errors))
    return {"records": records, "wall_s": (time.perf_counter_ns() - start - check_ns) / 1e9}


def failures(records, seed: int) -> list[str]:
    return [f"seed {seed} job {i}: {'; '.join(errors)}" for i, _, _, errors in records if errors]


def end_to_end(wl, tr, import_s: float, seconds: float) -> tuple[dict, dict, list[str]]:
    """Set up ``SETUP_REPS`` times, then serve whole rounds for ``seconds``
    of job time.

    Latency percentiles and throughput are taken over every job the closed
    loop served.  ``setup_s`` is the import time plus the median set-up.
    """
    import numpy as np

    setups = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    rounds = []
    job_s = 0.0
    while job_s < seconds:
        rounds.append(run_pass(wl, tr, jobs=wl.round_jobs))
        job_s += rounds[-1]["wall_s"]
    records = [rec for r in rounds for rec in r["records"]]
    n = len(records)
    p50, p90 = (float(x) for x in np.percentile([rec[1] for rec in records], [50, 90]))
    failed = sum(1 for rec in records if rec[3])
    metrics = {
        "setup_s": (import_s + float(np.median(setups)), "s"),
        "jobs_per_s": (n / job_s, "1/s"),
        "job_p50_ms": (p50, "ms"),
        "job_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    per_job = f"{n} jobs in {len(rounds)} rounds of {wl.round_jobs}"
    info = {"attempted": n, "failed": failed, "identical": True,
            "samples": {"setup_s": f"1 import + median of {SETUP_REPS} set-ups",
                        "jobs_per_s": per_job, "job_p50_ms": per_job, "job_p90_ms": per_job,
                        "peak_rss_mb": "1 process"}}
    lines = [f"import {import_s:.4f} s; set-ups {', '.join(f'{s:.4f}' for s in setups)} s",
             f"{len(rounds)} rounds of {wl.round_jobs} jobs: round wall "
             + ", ".join(f"{r['wall_s']:.3f}" for r in rounds) + " s",
             f"error_share {failed / n:.6g} ({failed} of {n} jobs)"]
    lines += failures(records, wl.seed)
    return metrics, info, lines


# ---------------------------------------------------------------- tracing

# what each workload was built to show in the traced run
PREDICTIONS = {
    "cli_constants": ("quadrature",),
    "solve_cold": ("solver.build_grid",),
    "certify_sweep": ("certify", "exprlang"),
    "picard_warm": ("solver.apply_T", "exprlang"),
}
NO_QUADRATURE_IN_JOBS = ("certify_sweep", "solve_cold", "picard_warm")


def traced(wl, tr, jobs: int) -> tuple[dict, dict, list[str]]:
    import numpy as np
    from tracer import LAYERS

    wl.setup()
    plain = run_pass(wl, tr, jobs=jobs)
    try:
        tr.install()
        tr.active = True
        with tr.root("bench.setup"):
            wl.setup()
        traced_pass = run_pass(wl, tr, jobs=jobs)
    finally:
        tr.active = False
        tr.uninstall()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{wl.name}.spans.jsonl"
    tr.write_jsonl(spans_path)

    records = plain["records"] + traced_pass["records"]
    mismatched = [a[0] for a, b in zip(plain["records"], traced_pass["records"]) if a[2] != b[2]]
    st = tr.self_times()
    n_names = len(tr.names)
    self_ms = np.bincount(st["name"], weights=st["self"], minlength=n_names) / 1e6
    calls = np.bincount(st["name"], minlength=n_names)
    job_id = tr.names.index("bench.job")
    in_jobs = st["name"][st["root"]] == job_id
    timed_ms = np.bincount(st["name"][in_jobs], weights=st["self"][in_jobs],
                           minlength=n_names) / 1e6
    layers = [name.split(".")[0] for name in tr.names]

    def by_name(arr, name):
        return float(arr[tr.names.index(name)]) if name in tr.names else 0.0

    def layer_timed(layer):
        return float(sum(v for v, lay in zip(timed_ms, layers) if lay == layer))

    def ratio(num, den):
        return num / den if den else 0.0

    cnt = tr.counters
    total_timed = float(timed_ms.sum())
    m = {}
    for layer in (*LAYERS, "bench"):
        m[f"{layer}.self_ms"] = (layer_timed(layer), "ms")
        m[f"{layer}.share_pct"] = (100.0 * ratio(layer_timed(layer), total_timed), "%")
    for span in ("cli.load_config", "cli.dumps_report", "problem.build", "kernel.build_model",
                 "kernel.verify_kernel_bounds", "quadrature.compute_constants",
                 "quadrature.compute_m", "quadrature.compute_M",
                 "quadrature.compute_hat_constants", "certify.search_certificate",
                 "certify.check_pattern", "certify.revalidate_certificate",
                 "certify.check_nonexistence", "exprlang.eval_expr_array", "solver.build_grid",
                 "solver.solve_picard", "solver.apply_T", "solver.cone_metrics"):
        m[f"{span}.ms"] = (by_name(self_ms, span), "ms")
    for span in ("cli.main", "problem.build", "kernel.build_model", "kernel.kernel_values",
                 "quadrature.find_sign_crossings", "certify.check_I1", "certify.check_I0",
                 "certify.check_I0_star", "exprlang.eval_expr_array", "exprlang.parse",
                 "solver.build_grid", "solver.apply_T"):
        m[f"{span}.calls"] = (by_name(calls, span), "count")
    box_calls = by_name(calls, "certify.box_sup") + by_name(calls, "certify.box_inf")
    m["certify.box_extremum.calls"] = (box_calls, "count")
    m["certify.box_extremum.ms"] = (by_name(self_ms, "certify.box_sup")
                                    + by_name(self_ms, "certify.box_inf"), "ms")
    m["certify.samples"] = (cnt.get("certify.samples", 0), "count")
    m["certify.held_ratio"] = (ratio(cnt.get("certify.held", 0),
                                     cnt.get("certify.conditions", 0)), "ratio")
    m["certify.search_certificate.hit_ratio"] = (
        ratio(cnt.get("certify.search_certificate.hits", 0),
              by_name(calls, "certify.search_certificate")), "ratio")
    m["kernel.kernel_values.points"] = (cnt.get("kernel.kernel_values.points", 0), "count")
    m["kernel.accept_ratio"] = (ratio(cnt.get("kernel.build_model.accepted", 0),
                                      by_name(calls, "kernel.build_model")), "ratio")
    m["exprlang.eval_expr_array.points"] = (cnt.get("exprlang.eval_expr_array.points", 0), "count")
    m["solver.build_grid.nodes"] = (cnt.get("solver.build_grid.nodes", 0), "count")
    m["solver.picard_iterations"] = (cnt.get("solver.picard_iterations", 0), "count")
    m["solver.converged_ratio"] = (ratio(cnt.get("solver.converged", 0),
                                         by_name(calls, "solver.solve_picard")), "ratio")
    m["quadrature.max_rel_err"] = (wl.max_rel_err, "1")
    m["solver.max_abs_err"] = (wl.max_abs_err, "1")
    m["trace.overhead_pct"] = (100.0 * (traced_pass["wall_s"] / plain["wall_s"] - 1.0), "%")
    m["trace.spans"] = (len(tr.start), "count")

    failed = sum(1 for r in records if r[3])
    info = {"attempted": len(records), "failed": failed, "identical": not mismatched,
            "samples": {}}
    lines = [f"traced pass of {jobs} jobs: untraced {plain['wall_s']:.4f} s, "
             f"traced {traced_pass['wall_s']:.4f} s; {len(tr.start)} spans -> "
             f"{spans_path.relative_to(ROOT)}",
             "outputs byte-identical with tracing on and off" if not mismatched else
             f"OUTPUTS DIFFER with tracing on and off at jobs {mismatched}"]
    lines.append("self-time share of the timed phase: " + ", ".join(
        f"{layer} {m[f'{layer}.share_pct'][0]:.1f}%" for layer in (*LAYERS, "bench")))
    outer = in_jobs & st["outer"]
    incl = np.bincount(st["name"][outer], weights=st["dur"][outer], minlength=n_names) / 1e6
    lines.append("inclusive share (time inside each layer's outermost calls): " + ", ".join(
        f"{layer} {100.0 * ratio(sum(v for v, lay in zip(incl, layers) if lay == layer), total_timed):.1f}%"
        for layer in LAYERS))
    lines += predictions(wl.name, {layer: layer_timed(layer) for layer in (*LAYERS, "bench")},
                         dict(zip(tr.names, timed_ms)))
    lines += failures(records, wl.seed)
    return m, info, lines


def predictions(workload, layer_ms: dict, span_ms: dict) -> list[str]:
    """Compare the predicted dominant part of the timed phase with the trace."""
    group = PREDICTIONS[workload]
    parts = dict(layer_ms)
    for item in group:
        if "." in item:
            value = float(span_ms.get(item, 0.0))
            layer = item.split(".")[0]
            parts[f"{layer} (rest)"] = parts.pop(layer) - value
            parts[item] = value
    predicted = sum(parts.pop(item) for item in group)
    rival, rival_ms = max(parts.items(), key=lambda kv: kv[1])
    label = " + ".join(group)
    verdict = "confirmed" if predicted > rival_ms else "NOT confirmed"
    lines = [f"prediction '{label} is largest on {workload}': {verdict} "
             f"({predicted:.1f} ms vs {rival} {rival_ms:.1f} ms)"]
    if workload in NO_QUADRATURE_IN_JOBS:
        q = layer_ms["quadrature"]
        lines.append(f"prediction 'no quadrature in the timed phase of {workload}': "
                     f"{'confirmed' if q == 0.0 else 'NOT confirmed'} ({q:.3f} ms)")
    return lines


# ---------------------------------------------------------------- entry point


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float,
                 tracer_mod, workloads_mod, trace_jobs: int | None = None):
    cls = workloads_mod.WORKLOADS[name]
    tr = tracer_mod.Tracer()
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        wl = cls(seed, Path(tmp))
        if trace:
            return traced(wl, tr, trace_jobs or cls.round_jobs)
        return end_to_end(wl, tr, import_s, seconds)


def environment_line() -> str:
    import numpy
    return (f"nproc {os.cpu_count()}, python {platform.python_version()}, numpy "
            f"{numpy.__version__}, OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def selftest(import_s, tracer_mod, workloads_mod) -> int:
    """Fast run of every workload: metric names and units, and trace identity."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads_mod.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in workloads_mod.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            metrics, info, lines = run_workload(name, SELFTEST_SEED, SELFTEST_SECONDS, trace,
                                                import_s, tracer_mod, workloads_mod,
                                                SELFTEST_TRACE_JOBS)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: unit for k, (_, unit) in metrics.items()}
            if got != want:
                problems.append(f"{name} {section}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            if info["failed"] or not info["identical"]:
                problems.append(f"{name} trace={int(trace)}: " + "; ".join(lines))
            print(f"selftest {name} trace={int(trace)}: {info['attempted']} jobs, "
                  f"{info['failed']} failed", flush=True)
    for problem in problems:
        print(f"selftest FAILED: {problem}", file=sys.stderr)
    print("selftest ok" if not problems else "selftest failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        import_s, tracer_mod, workloads_mod = load_package()
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(import_s, tracer_mod, workloads_mod)
    if args.workload not in workloads_mod.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads_mod.WORKLOADS)}")
    print(environment_line())
    metrics, info, lines = run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), import_s, tracer_mod, workloads_mod)
    for line in lines:
        print(line)
    for key, (value, unit) in metrics.items():
        n = info["samples"].get(key)
        print(f"{args.workload} {key} = {value:.6g} {unit}" + (f" ({n})" if n else ""))
    result = {
        "correct": info["failed"] == 0 and info["identical"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
