"""The fraclap benchmark.

    python3 bench/run.py --workload cube-audit --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --seed 1          # every workload, one after another

Each operation of a workload runs its pipeline in fresh worker interpreters
(``worker.py``), one at a time: a closed loop with one client, where the
next operation starts when the previous one has finished.  Operations are
started until the next one would end after ``--seconds``, with at least two
per run.  BLAS threads are pinned to 1 in every worker before numpy loads.

Every operation's outputs are checked (``checks.py``); an operation with an
exception or a failed check counts as failed and contributes no time.  The
seed draws the workload's inputs (``make_inputs``); the library receives
only the generated inputs.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: medians over the operations of the run.  With
``--trace 1`` every other operation is traced (see ``spans.py``) and the
per-layer metrics are reported instead, as means over the traced
operations, so that their self times add up to the traced time to
solution.  Run results go to ``.bench_work/results/`` and spans to
``.bench_work/trace/`` in the checkout.
"""
from __future__ import annotations

import argparse
import compileall
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"

WORKLOADS = ("cube-audit", "extend-ladder", "boundary-study")
MIN_OPS = 2
# set-up-only worker launches at the start of each run, on top of the set-up
# of every operation, so that the set-up median rests on several samples
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 60.0

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("time_to_solution_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("eig_rel_error", "ratio", "lower", 0.05),
)
# accuracy figures that exist on some workloads only, and the share of
# failed checks (0 at a correct commit): printed and stored with every
# result, not part of the JSON line
SCOPED = (
    ("dtn_rel_error", "ratio"),
    ("isometry_rel_error", "ratio"),
    ("audit_residual", "ratio"),
)

_SPAN_NAMES = sorted({name for _, _, name in spans.SPANNED if name}
                     | {"extension.extend_new", "extension.extend_repeat",
                        "cli.main.move-boundary", "cli.main.sweep-lambda",
                        spans.Tracer.ROOT})
# name, unit, better
PER_LAYER = (
    ("trace.time_to_solution_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    *((f"{name}.self_s", "s", "lower") for name in _SPAN_NAMES),
    ("spectral.eigendecompose.calls", "count", "lower"),
    ("spectral.eigendecompose.pairs", "count", "lower"),
    ("spectral.eigendecompose.n_free_max", "count", "lower"),
    ("extension.extend_new.calls", "count", "lower"),
    ("extension.extend_repeat.calls", "count", "lower"),
    ("extension.extend.unknowns", "count", "lower"),
    ("critical.minimize_quotient.calls", "count", "lower"),
    ("critical.minimize_quotient.iterations", "count", "lower"),
    ("critical.minimize_quotient.polish_steps", "count", "lower"),
    ("critical.minimize_quotient.nonexistence_flags", "count", "lower"),
    ("fractional.critical_norm.calls", "count", "lower"),
    ("fractional.kappa_s.calls", "count", "lower"),
    ("fractional.frac_apply.calls", "count", "lower"),
    ("fractional.frac_norm.calls", "count", "lower"),
    ("experiments.run.calls", "count", "lower"),
    ("experiments.run.bytes_written", "B", "lower"),
    ("cli.main.move-boundary.wall_s", "s", "lower"),
    ("cli.main.sweep-lambda.wall_s", "s", "lower"),
)

ALPHAS = (1.0, 0.75, 0.5, 0.25, 0.125)
SUPER_FRACTIONS = (1.0, 1.03, 1.06, 1.1)


def make_inputs(workload: str, seed: int) -> dict:
    """The seeded inputs of one run; the same seed gives the same inputs.

    cube-audit: lambda / lambda_1^s drawn from [0.45, 0.55].
    extend-ladder: field i is mode i plus each other of the 8 lowest modes
    with a weight drawn from [-0.25, 0.25].
    boundary-study: sub-lambda_1^s sweep point k (k = 0..9) drawn from
    [0.08 k, 0.08 k + 0.04], plus the fixed points 1, 1.03, 1.06, 1.1.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cube-audit":
        return {"lam_fraction": rng.uniform(0.45, 0.55)}
    if workload == "extend-ladder":
        return {"mix": [[1.0 if k == i else rng.uniform(-0.25, 0.25)
                         for k in range(8)] for i in range(8)]}
    if workload == "boundary-study":
        sub = [0.08 * k + rng.uniform(0.0, 0.04) for k in range(10)]
        return {"alphas": list(ALPHAS),
                "lambda_fractions": sub + list(SUPER_FRACTIONS)}
    raise ValueError(f"unknown workload {workload!r}")


def boundary_config(inputs: dict) -> dict:
    """One config shared by both subcommands, as a user's batch would."""
    return {
        "domain": {"kind": "box", "extents": [[0.0, 1.0], [0.0, 1.0]],
                   "n": [40, 40]},
        "partition": {"dirichlet_faces": [[0, 0]]},
        "s": 0.75,
        "alphas": inputs["alphas"],
        "lambda_grid": [{"fraction_of_lambda1s": x}
                        for x in inputs["lambda_fractions"]],
        "outdir": "runs",
    }


def spawn(cwd: Path, task: str, inputs: dict, run_id: str, traced: bool,
          setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its result."""
    out = cwd / f"result-{run_id}.json"
    out.unlink(missing_ok=True)
    request = {"task": task, "inputs": inputs, "run_id": run_id,
               "trace": traced, "setup_only": setup_only, "out": str(out),
               "t_spawn": time.perf_counter()}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(request)], cwd=cwd,
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        stderr = proc.stderr
    except subprocess.TimeoutExpired as e:
        stderr = f"worker timed out after {e.timeout} s"
    try:
        result = json.loads(out.read_text())
        out.unlink()
    except (OSError, ValueError):
        result = {"ok": False}
    if not result["ok"]:
        result["error"] = result.get("error") or stderr[-2000:]
    return result


def launch(workload: str, inputs: dict, cwd: Path, run_id: str, traced: bool,
           setup_only: bool = False) -> list[dict]:
    """The worker processes of one operation, one after another."""
    if workload != "boundary-study":
        return [spawn(cwd, workload, inputs, run_id, traced, setup_only)]
    shutil.rmtree(cwd / "runs", ignore_errors=True)
    return [spawn(cwd, "cli", {"argv": [sub, "--config", "config.json"]},
                  f"{run_id}-{sub}", traced, setup_only)
            for sub in ("move-boundary", "sweep-lambda")]


def run_op(workload: str, inputs: dict, cwd: Path, run_id: str,
           traced: bool) -> dict:
    procs = launch(workload, inputs, cwd, run_id, traced)
    op = {"run_id": run_id, "traced": traced, "procs": procs,
          "checks": evaluate(workload, inputs, procs)}
    op["ok"] = all(op["checks"].values())
    for p in procs:
        if not p["ok"]:
            print(f"{run_id}: worker failed\n{p['error']}", file=sys.stderr)
    if op["ok"]:
        op["setup_s"] = sum(p["setup_s"] for p in procs)
        op["solve_s"] = sum(p["solve_s"] for p in procs)
        op["rss_mb"] = max(p["rss_mb"] for p in procs)
        op["accuracy"] = accuracy(procs)
    return op


def evaluate(workload: str, inputs: dict, procs: list[dict]) -> dict:
    if not all(p["ok"] for p in procs):
        return {"completed": False}
    summaries = [p["summary"] for p in procs]
    if workload == "cube-audit":
        found = checks.cube_audit(summaries[0])
    elif workload == "extend-ladder":
        found = checks.extend_ladder(summaries[0])
    else:
        found = checks.boundary_study(*summaries,
                                      len(inputs["lambda_fractions"]))
    return {"completed": True, **found}


def accuracy(procs: list[dict]) -> dict:
    summary = procs[-1]["summary"]  # sweep-lambda carries lambda_1
    names = ["eig_rel_error"] + [name for name, _ in SCOPED]
    return {n: summary[n] for n in names if n in summary}


def layer_values(op: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    all_spans = [s for p in op["procs"] for s in p["spans"]]
    own = spans.self_times(all_spans)
    counts = Counter(f"{s['name']}.calls" for s in all_spans)
    wall = Counter()
    for s in all_spans:
        wall[f"{s['name']}.wall_s"] += s["end"] - s["start"]
    for p in op["procs"]:
        for name, value in p["counters"].items():
            counts[name] = (max(counts[name], value) if name.endswith("_max")
                            else counts[name] + value)
    values = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = own.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".wall_s"):
            values[name] = wall[name]
        elif not name.startswith("trace."):
            values[name] = counts[name]
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = make_inputs(workload, seed)
    cwd = WORK / workload
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    if workload == "boundary-study":
        (cwd / "config.json").write_text(json.dumps(boundary_config(inputs)))

    start = time.perf_counter()
    setups = []
    for i in range(SETUP_SAMPLES):
        procs = launch(workload, inputs, cwd, f"{workload}-{seed}-setup{i}",
                       False, setup_only=True)
        if all(p["ok"] for p in procs):
            setups.append(sum(p["setup_s"] for p in procs))
    ops: list[dict] = []
    while True:
        t0 = time.perf_counter()
        traced = trace and len(ops) % 2 == 1
        ops.append(run_op(workload, inputs, cwd, f"{workload}-{seed}-{len(ops)}",
                          traced))
        ops[-1]["wall_s"] = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        typical = statistics.median(op["wall_s"] for op in ops)
        if len(ops) >= MIN_OPS and elapsed + typical > seconds:
            break

    good = [op for op in ops if op["ok"]]
    plain = [op for op in good if not op["traced"]]
    traced_ops = [op for op in good if op["traced"]]
    checks_run = sum(len(op["checks"]) for op in ops)
    checks_failed = sum(not ok for op in ops for ok in op["checks"].values())
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": inputs,
        "env": next((p["env"] for op in ops for p in op["procs"]
                     if p.get("env")), {}),
        "attempted": len(ops), "failed": len(ops) - len(good),
        "checks_attempted": checks_run, "checks_failed": checks_failed,
        "failed_frac": checks_failed / checks_run,
        "samples": len(plain),
        "setup_samples": setups,
    }
    if plain:
        acc = [op["accuracy"] for op in plain]
        result["end_to_end"] = {
            "time_to_solution_s": statistics.median(op["solve_s"] for op in plain),
            "setup_s": statistics.median(
                setups + [op["setup_s"] for op in plain]),
            "peak_rss_mb": statistics.median(op["rss_mb"] for op in plain),
            "eig_rel_error": statistics.median(a["eig_rel_error"] for a in acc),
        }
        result["scoped"] = {name: statistics.median(a[name] for a in acc)
                            for name, _ in SCOPED if name in acc[0]}
    if traced_ops and plain:
        rows = [layer_values(op) for op in traced_ops]
        layer = {name: statistics.fmean(r[name] for r in rows) for name in rows[0]}
        traced_tts = statistics.fmean(op["solve_s"] for op in traced_ops)
        layer["trace.time_to_solution_s"] = traced_tts
        layer["trace.overhead_s"] = traced_tts - statistics.fmean(
            op["solve_s"] for op in plain)
        result["per_layer"] = layer

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        (WORK / "trace").mkdir(parents=True, exist_ok=True)
        with open(WORK / "trace" / f"{stem}.jsonl", "w") as f:
            for op in ops:
                for p in op["procs"]:
                    for s in p.get("spans", []):
                        f.write(json.dumps(s) + "\n")
    for op in ops:
        for p in op["procs"]:
            p.pop("spans", None)
    result["ops"] = ops
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(result, indent=1))
    return result


def report(result: dict) -> dict:
    """Print one workload's metrics by name with their units; return the
    JSON line's metrics."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"operations {result['attempted']} (closed loop, one client), "
          f"{result['samples']} untraced samples")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"checks {result['checks_attempted']} attempted, "
          f"{result['checks_failed']} failed, "
          f"failed_frac {result['failed_frac']:.6g}")
    metrics = {}
    if result["trace"]:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = result.get("per_layer", {})
        if values:
            own = sum(v for k, v in values.items() if k.endswith(".self_s"))
            print(f"self times sum to {own:.6g} s; traced time_to_solution_s "
                  f"{values['trace.time_to_solution_s']:.6g} s")
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        values = result.get("end_to_end", {})
        for name, unit in SCOPED:
            if name in result.get("scoped", {}):
                print(f"{name} {result['scoped'][name]:.6g} {unit}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
        metrics[name] = {"value": value, "unit": units[name]}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fraclap" / "__init__.py").is_file():
        print(f"fraclap sources not found under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        metrics = report(result)
        print(json.dumps({
            "correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}))
        return 0

    results = [run_workload(w, args.seed, args.seconds, bool(args.trace))
               for w in WORKLOADS]
    for result in results:
        report(result)
        print()
    summary = {r["workload"]: {k: r.get(k) for k in (
        "attempted", "failed", "failed_frac", "end_to_end", "scoped",
        "per_layer", "env")} for r in results}
    (WORK / "results" / f"all-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(summary, indent=1))
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
