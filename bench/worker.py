"""One benchmark operation, run in a fresh interpreter by ``run.py``.

    python3 bench/worker.py '<request json>'

The request names a task, its seeded inputs, the parent's clock reading
when it started this process, whether to trace, whether to stop after
set-up, and the file to write the result to.  The result holds the set-up time (process start, imports and
input construction), the solve time, the peak resident set size, the
environment, a summary of the outputs for the checks in ``checks.py`` and,
when traced, the spans and counters.

The library is driven only through its public functions and
``fraclap.cli.main``, imported from ``src/`` of the checkout this file
lives in.
"""
import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# pinned before numpy is imported: the BLAS thread count changes trailing
# digits of dense eigensolves and the timings
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

S = 0.75                       # fractional power of every workload
X0 = (0.5, 0.5, 0.5)           # centre of the boundary-identity audit
CUBE_CELLS = 12                # 12^3 cells, one Dirichlet face: 2028 free DOFs
CUBE_J = 32
SQUARE_CELLS = 64              # 64^2 cells, one Dirichlet face: 4160 free DOFs
LADDER_J = (64, 128)
GAMMA = 3.0                    # y-grid grading of every cylinder
# principal eigenvalue of the Laplacian on a unit box with one Dirichlet face
# and Neumann elsewhere
LAM1_EXACT = (math.pi / 2.0) ** 2


def eig_rel_error(lam1: float) -> float:
    return abs(float(lam1) - LAM1_EXACT) / LAM1_EXACT


class SetupDone(Exception):
    """Raised at the end of set-up when the request measures set-up only."""


class Clock:
    """Marks the end of set-up and the end of the solve; opens the root span."""

    def __init__(self, tracer, setup_only: bool):
        self.tracer = tracer
        self.setup_only = setup_only
        self.t_ready = self.t_done = self.cpu_s = None

    @contextlib.contextmanager
    def solving(self):
        self.t_ready = time.perf_counter()
        if self.setup_only:
            raise SetupDone
        cpu_ready = time.process_time()
        root = (self.tracer.open(self.tracer.ROOT, start=self.t_ready)
                if self.tracer else None)
        try:
            yield
        finally:
            self.t_done = time.perf_counter()
            self.cpu_s = time.process_time() - cpu_ready
            if root is not None:
                self.tracer.close(root, end=self.t_done)


def _m_rel(ops, got, want) -> float:
    """Relative M-norm distance of two fields over the free nodes."""
    g, w = got.free_values(ops), want.free_values(ops)
    d = g - w
    return math.sqrt(float(d @ (ops.M @ d)) / float(w @ (ops.M @ w)))


def cube_audit(fl, inputs, clock) -> dict:
    params = fl.FracParams(s=S, N=3)
    mesh = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [CUBE_CELLS] * 3)
    part = fl.partition_boundary(mesh, [(0, 0)])
    with clock.solving():
        ops = fl.assemble_operators(mesh, part)
        basis = fl.eigendecompose(ops, m="all")
        lam = inputs["lam_fraction"] * fl.lambda1s(basis, params)
        rep = fl.minimize_quotient(basis, params, lam)
        sol = fl.rescale_to_solution(rep, basis, params)
        kappa = fl.kappa_s(params)
        cyl = fl.build_cylinder(mesh, 6.0 / math.sqrt(basis.lams[0]),
                                CUBE_J, GAMMA)
        w = fl.extend(cyl, part, params, sol.v)
        flux = fl.dtn(cyl, params, w, kappa)
        ext_norm = fl.x_norm(cyl, params, w, kappa)
        spectral = fl.frac_apply(basis, params, sol.v)
        spec_norm = fl.frac_norm(basis, params, sol.v)
        audit = fl.pohozaev_terms(sol.v, w, fl.linear_plus_critical(params, lam),
                                  params, kappa, X0)
        threshold = fl.attainment_threshold(params, kappa)
    return {
        "converged": bool(rep.converged),
        "el_residual": float(rep.el_residual),
        "positive": bool(sol.positive),
        "S": float(rep.value),
        "threshold": float(threshold),
        "audit_residual": abs(float(audit.residual_over_scale)),
        "dtn_rel_error": _m_rel(ops, flux, spectral),
        "isometry_rel_error": abs(ext_norm - spec_norm) / spec_norm,
        "eig_rel_error": eig_rel_error(basis.lams[0]),
    }


def extend_ladder(fl, inputs, clock) -> dict:
    import numpy as np

    params = fl.FracParams(s=S, N=2)
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [SQUARE_CELLS] * 2)
    part = fl.partition_boundary(mesh, [(0, 0)])
    mix = np.asarray(inputs["mix"], dtype=float)
    with clock.solving():
        ops = fl.assemble_operators(mesh, part)
        basis = fl.eigendecompose(ops, m=mix.shape[1])
        kappa = fl.kappa_s(params)
        fields = [fl.Field.from_free(ops, basis.vecs @ c) for c in mix]
        spectral = [fl.frac_apply(basis, params, u, allow_truncated=True)
                    for u in fields]
        Y = 6.0 / math.sqrt(basis.lams[0])
        by_j = {}
        for J in LADDER_J:
            cyl = fl.build_cylinder(mesh, Y, J, GAMMA)
            by_j[J] = []
            for u in fields:
                w = fl.extend(cyl, part, params, u)
                by_j[J].append((fl.dtn(cyl, params, w, kappa),
                                fl.x_norm(cyl, params, w, kappa)))
    # each field lies in the span of the computed modes, so its fractional
    # norm is exact in coefficient space
    spec_norms = np.sqrt((basis.lams ** S * mix ** 2).sum(axis=1))
    dtn_err = {str(J): [_m_rel(ops, flux, ref)
                        for (flux, _), ref in zip(rows, spectral)]
               for J, rows in by_j.items()}
    iso_err = {str(J): [abs(xn - sn) / sn
                        for (_, xn), sn in zip(rows, spec_norms)]
               for J, rows in by_j.items()}
    finest = str(max(LADDER_J))
    return {
        "dtn_rel_error_by_J": dtn_err,
        "isometry_rel_error_by_J": iso_err,
        "dtn_rel_error": max(dtn_err[finest]),
        "isometry_rel_error": max(iso_err[finest]),
        "eig_rel_error": eig_rel_error(basis.lams[0]),
    }


def cli(fl, inputs, clock) -> dict:
    import fraclap.cli

    argv = list(inputs["argv"])
    captured = io.StringIO()
    with clock.solving(), contextlib.redirect_stdout(captured):
        try:
            code = fraclap.cli.main(argv)
        except SystemExit as e:  # argparse rejects a malformed command line
            code = e.code
    out = {"subcommand": argv[0], "exit_code": code}
    if code != 0:
        return out
    run_dir = Path(json.loads(captured.getvalue())["run_dir"])
    if argv[0] == "move-boundary":
        table = json.loads((run_dir / "move_boundary.json").read_text())
        out["onset_alpha"] = table["onset_alpha"]
        out["alphas"] = [row["alpha"] for row in table["rows"]]
    elif argv[0] == "sweep-lambda":
        table = json.loads((run_dir / "sweep.json").read_text())
        s = json.loads((run_dir / "config.json").read_text())["s"]
        out["lam1s"] = table["lam1s"]
        out["rows"] = [{"lam": r["lam"], "nonexistence": r["nonexistence"]}
                       for r in table["rows"]]
        out["eig_rel_error"] = eig_rel_error(table["lam1s"] ** (1.0 / s))
    return out


TASKS = {"cube-audit": cube_audit, "extend-ladder": extend_ladder, "cli": cli}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((ln.split(":", 1)[1].strip() for ln in f
                    if ln.startswith("model name")), cpu)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main() -> int:
    request = json.loads(sys.argv[1])
    result = {"ok": False, "run_id": request["run_id"]}
    tracer = None
    try:
        sys.path.insert(0, str(SRC))
        import fraclap as fl

        if not Path(fl.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fraclap imported from {fl.__file__}, "
                               f"not from {SRC}")
        if request["trace"]:
            import spans

            tracer = spans.Tracer(request["run_id"])
            spans.install(tracer)
        clock = Clock(tracer, request["setup_only"])
        try:
            summary = TASKS[request["task"]](fl, request["inputs"], clock)
            result.update(summary=summary, solve_s=clock.t_done - clock.t_ready,
                          solve_cpu_s=clock.cpu_s)
        except SetupDone:
            pass
        result.update(ok=True, setup_s=clock.t_ready - request["t_spawn"])
    except Exception:
        result["error"] = traceback.format_exc()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if result["ok"]:
        result["env"] = environment()
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    Path(request["out"]).write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
