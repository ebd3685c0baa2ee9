"""Experiment orchestration: run subcommands, persist reports and plot series.

Every run lands in ``<outdir>/<config-hash>/<subcommand>/`` and is
reproducible: the same resolved config writes byte-identical JSON and CSV
payloads.  Timing lives only in the manifest, which is therefore the one
file excluded from that guarantee.  All file output funnels through a
single sink per run, so a future fan-out over grid cells keeps one
serialized writer.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, build_domain, config_hash, resolve_lambda
from .config import _domain_dim, _num
from .critical import (
    MinimizeOptions,
    minimize_quotient,
    move_boundary_experiment,
    rescale_to_solution,
    sweep_lambda,
)
from .extension import build_cylinder, dtn, extend, x_norm
from .fractional import (
    Field,
    FracParams,
    constants_report,
    frac_apply,
    kappa_s,
    lambda1s,
    mode_field,
)
from .mesh import moving_family
from .pohozaev import (
    critical_power,
    linear_plus_critical,
    nonexistence_check,
    pohozaev_terms,
)
from .spectral import assemble_operators, eigendecompose, quotient_operator

__all__ = [
    "ExperimentError",
    "RunManifest",
    "SUBCOMMANDS",
    "run",
    "fmt17",
]

SUBCOMMANDS = (
    "eig",
    "frac-apply",
    "extend-check",
    "minimize",
    "sweep-lambda",
    "move-boundary",
    "constants",
    "pohozaev",
)

# the two-column plot series written with a CSV table: table -> (x, y, series)
_PLOTS = {
    "sweep.csv": ("lam", "S_lambda", "S_vs_lambda.dat"),
    "move_boundary.csv": ("alpha", "lam_1_s", "lambda1s_vs_alpha.dat"),
    "pohozaev.csv": ("level", "residual_over_scale", "residual_vs_level.dat"),
}


class ExperimentError(RuntimeError):
    """A run failed mid-flight; ``stage`` names where."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def fmt17(x) -> str:
    """One CSV cell: floats at 17 significant digits, '.' decimal, no locale."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    return "%.17g" % xf


def _jsonable(obj):
    # canonical JSON payloads: numpy scalars unwrapped, arrays listed,
    # non-finite floats nulled so every report re-parses cleanly
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        xf = float(obj)
        return xf if math.isfinite(xf) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


class _Sink:
    """Serialized writer owning one run directory."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.artifacts: dict[str, str] = {}

    def _emit(self, name: str, text: str) -> None:
        path = self.run_dir / name
        path.write_text(text)
        self.artifacts[name] = str(path)

    def write_json(self, name: str, payload) -> None:
        self._emit(name, json.dumps(_jsonable(payload), sort_keys=True,
                                    indent=2) + "\n")

    def write_csv(self, name: str, header: list[str], rows: list[dict]) -> None:
        """Write a table and, if ``_PLOTS`` names one, its plot series.

        A series line is the x and y cell of one row, as the table has
        them; rows whose y cell is "nan" are left out.
        """
        cells = [[fmt17(row[h]) for h in header] for row in rows]
        self._emit(name, "\n".join([",".join(header)]
                                   + [",".join(c) for c in cells]) + "\n")
        if name in _PLOTS:
            x, y, series = _PLOTS[name]
            xi, yi = header.index(x), header.index(y)
            (self.run_dir / "plots").mkdir(exist_ok=True)
            self._emit(f"plots/{series}", "".join(
                f"{c[xi]} {c[yi]}\n" for c in cells if c[yi] != "nan"))


@dataclass
class RunManifest:
    """What a run produced and under which exact configuration.

    ``timings`` is wall-clock seconds per stage and is excluded from the
    reproducibility contract; everything else is deterministic in the
    resolved config.  ``threads`` records the BLAS/OpenMP thread variables
    (None when unset) and the CPU count: the artifacts are byte-identical
    only between runs at the same BLAS thread count.
    """

    subcommand: str
    config_hash: str
    run_dir: str
    artifacts: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    overrides: list = field(default_factory=list)
    threads: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def _versions() -> dict:
    from . import __version__

    out = {"python": platform.python_version(), "numpy": np.__version__}
    # scipy only when the run loaded it (a dense partial-facet basis of more
    # than 32 modes); reading its installed version would cost every run
    # more than most of them compute
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        out["scipy"] = scipy.__version__
    out["fraclap"] = __version__
    return out


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _threads() -> dict:
    out = {name: os.environ.get(name) for name in _THREAD_VARS}
    out["cpu_count"] = os.cpu_count()
    return out


# keys each subcommand reads beyond the domain
_NEEDS = {"frac-apply": ["field"], "minimize": ["lambda"],
          "sweep-lambda": ["lambda_grid"], "move-boundary": ["alphas"],
          "pohozaev": ["lambda", "pohozaev.x0"]}


def _preflight(subcommand: str, resolved: dict) -> FracParams:
    # every ConfigError a subcommand can meet, raised before any directory
    # exists; returns the run's (s, N)
    if subcommand != "constants":
        _, part = build_domain(resolved)
    dim = _domain_dim(resolved.get("domain") or {})
    if not dim:
        raise ConfigError("cannot infer dimension from domain",
                          keys=["domain"])
    params = FracParams(s=float(resolved["s"]), N=dim)
    given = dict(resolved, **{"pohozaev.x0": resolved["pohozaev"].get("x0")})
    missing = [k for k in _NEEDS.get(subcommand, []) if given.get(k) is None]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing),
                          keys=missing)
    # all but these need the critical exponent 2N/(N-2s)
    if (subcommand not in ("eig", "frac-apply", "extend-check")
            and params.N <= 2 * params.s):
        raise ConfigError(
            f"{subcommand} needs the critical exponent, undefined for "
            f"N={params.N} <= 2s={2 * params.s}", keys=["domain"])
    if subcommand == "frac-apply":
        modes = resolved["field"].get("modes", [])
        if not modes or len(modes) != len(resolved["field"].get("coeffs", [])):
            raise ConfigError("field.modes and field.coeffs must be nonempty "
                              "and of equal length",
                              keys=["field.modes", "field.coeffs"])
        limit = min(int(resolved["mode_count"]), len(part.free_nodes))
        if not all(_num(k) and float(k).is_integer() and 1 <= k <= limit
                   for k in modes):
            raise ConfigError(f"field.modes entries must be mode numbers in "
                              f"1..{limit} (mode_count or free nodes)",
                              keys=["field.modes"])
    if subcommand == "move-boundary":
        # the family fills partition.dirichlet_faces, so it refuses an
        # alpha above their measure |Sigma_D|
        try:
            moving_family(part.mesh, resolved["alphas"],
                          resolved["partition"]["dirichlet_faces"])
        except ValueError as e:
            raise ConfigError(f"invalid alphas: {e}", keys=["alphas"]) from e
    if subcommand == "pohozaev" and len(resolved["pohozaev"]["x0"]) != dim:
        raise ConfigError(f"pohozaev.x0 needs {dim} components, one per "
                          f"axis", keys=["pohozaev.x0"])
    specs = {"minimize": [resolved["lambda"]], "pohozaev": [resolved["lambda"]],
             "sweep-lambda": resolved.get("lambda_grid")}
    for spec in specs.get(subcommand) or []:
        resolve_lambda(spec, 1.0)
    return params


def _options(resolved: dict) -> MinimizeOptions:
    knobs = {k: v for k, v in resolved["solver"].items() if k != "init"}
    return MinimizeOptions(**knobs)


def _initial_field(resolved: dict, ops) -> Field | None:
    # "principal" lets the minimizer pick its default; "random" draws a
    # seeded start so distinct basins are reachable reproducibly
    if resolved["solver"]["init"] == "principal":
        return None
    rng = np.random.default_rng(resolved["seed"])
    return Field.from_free(ops, rng.standard_normal(len(ops.free)))


def _cylinder_for(resolved: dict, mesh, lam1: float):
    cyl_cfg = resolved["cylinder"]
    Y = cyl_cfg["Y"]
    if Y is None:
        # decay scale of the slowest extension mode
        Y = 6.0 / math.sqrt(lam1)
    return build_cylinder(mesh, Y=float(Y), J=int(cyl_cfg["J"]),
                          gamma=float(cyl_cfg["gamma"]))


def _run_constants(resolved: dict, params: FracParams, sink: _Sink) -> None:
    rep = constants_report(params)
    payload = rep.as_dict()
    payload["two_star"] = params.two_star
    payload["dim_at_least_4s"] = params.dim_at_least_4s
    sink.write_json("constants.json", payload)


def _run_eig(resolved: dict, params: FracParams, sink: _Sink) -> None:
    mesh, part = build_domain(resolved)
    ops = assemble_operators(mesh, part)
    m = min(int(resolved["mode_count"]), len(ops.free))
    basis = eigendecompose(ops, m=m)
    rows = [
        {"k": k + 1, "lambda_k": float(basis.lams[k]),
         "lambda_k_s": float(basis.lams[k] ** params.s)}
        for k in range(m)
    ]
    sink.write_csv("eigenvalues.csv", ["k", "lambda_k", "lambda_k_s"], rows)
    sink.write_json("eig.json", {
        "s": params.s, "N": params.N, "alpha": part.alpha,
        "n_free": len(ops.free), "eigenvalues": [r["lambda_k"] for r in rows],
    })


def _run_frac_apply(resolved: dict, params: FracParams, sink: _Sink) -> None:
    modes = [int(k) for k in resolved["field"]["modes"]]
    coeffs = [float(c) for c in resolved["field"]["coeffs"]]
    mesh, part = build_domain(resolved)
    ops = assemble_operators(mesh, part)
    m = min(int(resolved["mode_count"]), len(ops.free))
    basis = eigendecompose(ops, m=m)
    u = Field.from_free(ops, np.zeros(len(ops.free)))
    for k, c in zip(modes, coeffs):
        u = u + c * mode_field(basis, k)
    # u lies in the resolved span by construction, so the truncated apply
    # and the coefficient-space norms are exact
    out = frac_apply(basis, params, u, allow_truncated=True)
    a_in = basis.coefficients(u.free_values(ops))
    a_out = basis.coefficients(out.free_values(ops))
    lam_s = basis.lams ** params.s
    rows = [
        {"k": k + 1, "lambda_k": float(basis.lams[k]),
         "coeff_in": float(a_in[k]), "coeff_out": float(a_out[k])}
        for k in range(m)
    ]
    sink.write_csv("frac_apply.csv",
                   ["k", "lambda_k", "coeff_in", "coeff_out"], rows)
    sink.write_json("frac_apply.json", {
        "s": params.s, "modes": modes, "coeffs": coeffs,
        "frac_norm_in": math.sqrt(float(np.sum(lam_s * a_in**2))),
        "frac_norm_out": math.sqrt(float(np.sum(lam_s * a_out**2))),
    })


def _run_extend_check(resolved: dict, params: FracParams, sink: _Sink) -> None:
    mesh, part = build_domain(resolved)
    ops = assemble_operators(mesh, part)
    m = min(int(resolved["mode_count"]), len(ops.free))
    basis = eigendecompose(ops, m=m)
    kappa = kappa_s(params)
    cyl = _cylinder_for(resolved, mesh, float(basis.lams[0]))

    rows = []
    for k in range(1, m + 1):
        u = mode_field(basis, k)
        w = extend(cyl, part, params, u)
        lam_k = float(basis.lams[k - 1])
        got = dtn(cyl, params, w, kappa).free_values(ops)
        want = lam_k ** params.s * u.free_values(ops)
        # M-norms from the coordinates (OperatorPair.coordinates)
        c_err, c_want = ops.coordinates(np.column_stack([got - want, want])).T
        dtn_rel = math.sqrt(float(c_err @ c_err) / float(c_want @ c_want))
        ext_norm = x_norm(cyl, params, w, kappa)
        spec_norm = lam_k ** (params.s / 2.0)  # mode k is M-normalized
        rows.append({
            "k": k, "lambda_k": lam_k,
            "dtn_rel_error": dtn_rel,
            "isometry_rel_error": abs(ext_norm - spec_norm) / spec_norm,
        })
    sink.write_csv("extend_check.csv",
                   ["k", "lambda_k", "dtn_rel_error", "isometry_rel_error"],
                   rows)
    sink.write_json("extend_check.json", {
        "s": params.s, "kappa": kappa,
        "cylinder": {"Y": cyl.Y, "J": cyl.J, "gamma": cyl.gamma},
        "rows": rows,
    })


def _run_minimize(resolved: dict, params: FracParams, sink: _Sink) -> None:
    mesh, part = build_domain(resolved)
    ops = assemble_operators(mesh, part)
    basis = quotient_operator(ops)
    lam1s = lambda1s(basis, params)
    lam = resolve_lambda(resolved["lambda"], lam1s)
    rep = minimize_quotient(basis, params, lam,
                            init=_initial_field(resolved, ops),
                            opts=_options(resolved))
    payload = rep.as_dict()
    payload["lam1s"] = lam1s
    sink.write_json("minimize.json", payload)
    sink.write_csv("trace.csv", ["iteration", "quotient"], [
        {"iteration": i, "quotient": q} for i, q in enumerate(rep.trace_q)
    ])
    if rep.flag == "OK" and rep.converged and rep.value > 0:
        sol = rescale_to_solution(rep, basis, params)
        sink.write_json("solution.json", sol.as_dict())


def _run_sweep(resolved: dict, params: FracParams, sink: _Sink) -> None:
    mesh, part = build_domain(resolved)
    ops = assemble_operators(mesh, part)
    basis = quotient_operator(ops)
    lam1s = lambda1s(basis, params)
    grid = [resolve_lambda(v, lam1s) for v in resolved["lambda_grid"]]
    result = sweep_lambda(basis, params, grid, opts=_options(resolved))
    header = ["lam", "nonexistence", "witness_quotient", "S_lambda",
              "converged", "iterations", "max_abs", "participation"]
    sink.write_csv("sweep.csv", header, result.rows)
    sink.write_json("sweep.json",
                    {"lam1s": result.lam1s, "rows": result.rows})


def _run_move_boundary(resolved: dict, params: FracParams, sink: _Sink) -> None:
    mesh, _ = build_domain(resolved)
    result = move_boundary_experiment(
        mesh, params, [float(a) for a in resolved["alphas"]],
        faces=resolved["partition"]["dirichlet_faces"],
        opts=_options(resolved))
    header = ["alpha_requested", "alpha", "lam_1_1", "lam_1_s", "S_tilde",
              "bound", "threshold", "sufficient", "frac_rel_error"]
    sink.write_csv("move_boundary.csv", header, result.rows)
    sink.write_json("move_boundary.json", {
        "threshold": result.threshold,
        "onset_alpha": result.onset_alpha,
        "rows": result.rows,
    })


def _nonlinearity(resolved: dict, params: FracParams, lam: float):
    if resolved["pohozaev"]["nonlinearity"] == "critical":
        return critical_power(params)
    return linear_plus_critical(params, lam)


def _run_pohozaev(resolved: dict, params: FracParams, sink: _Sink) -> None:
    poh = resolved["pohozaev"]
    x0 = [float(c) for c in poh["x0"]]
    kappa = kappa_s(params)

    levels = resolved.get("levels")
    if levels is None:
        levels = [[None, int(resolved["cylinder"]["J"])]]

    rows = []
    reports = []
    last = None
    for idx, (n_cells, J) in enumerate(levels, start=1):
        level_cfg = json.loads(json.dumps(resolved))
        if n_cells is not None:
            dim = len(level_cfg["domain"]["n"])
            level_cfg["domain"]["n"] = [int(n_cells)] * dim
        level_cfg["cylinder"]["J"] = int(J)
        mesh, part = build_domain(level_cfg)
        ops = assemble_operators(mesh, part)
        basis = quotient_operator(ops)
        lam1s = lambda1s(basis, params)
        lam = resolve_lambda(resolved["lambda"], lam1s)
        rep = minimize_quotient(basis, params, lam, opts=_options(resolved))
        if rep.flag != "OK":
            raise ExperimentError(
                "minimize", f"level {idx}: lambda {lam} is in the "
                f"nonexistence regime (lam1s={lam1s})")
        sol = rescale_to_solution(rep, basis, params)
        cyl = _cylinder_for(level_cfg, mesh, float(basis.lam1))
        w = extend(cyl, part, params, sol.v)
        nl = _nonlinearity(resolved, params, lam)
        report = pohozaev_terms(sol.v, w, nl, params, kappa, x0).as_dict()
        rows.append({"level": idx, "n": mesh.n[0], "J": cyl.J, "lam": lam,
                     **report})
        reports.append(report)
        last = (mesh, part, nl)
    header = ["level", "n", "J", "lam", "volume_uf", "volume_F",
              "lateral_neumann", "lateral_dirichlet", "boundary_neumann",
              "residual", "scale", "residual_over_scale"]
    sink.write_csv("pohozaev.csv", header, rows)
    sink.write_json("pohozaev.json", {"x0": x0, "reports": reports})

    mesh, part, nl = last
    check = nonexistence_check(
        mesh, part, nl, params, x0,
        tol=float(poh["geometry_tol"]), rho=float(poh["exempt_radius"]))
    sink.write_json("nonexistence.json", check.as_dict())


_DISPATCH = {
    "constants": _run_constants,
    "eig": _run_eig,
    "frac-apply": _run_frac_apply,
    "extend-check": _run_extend_check,
    "minimize": _run_minimize,
    "sweep-lambda": _run_sweep,
    "move-boundary": _run_move_boundary,
    "pohozaev": _run_pohozaev,
}


def run(subcommand: str, resolved: dict, overrides=None) -> RunManifest:
    """Execute one subcommand under a resolved config.

    Writes the config echo, the subcommand's reports and tables, plot
    series where one is defined, and the manifest, all under
    ``<outdir>/<config-hash>/<subcommand>/``, so the subcommands run on
    one config keep their artifacts and manifests apart.  Everything the
    subcommand needs from the config is checked before any directory is
    created, and the files go to a scratch directory that is renamed to
    that name only when the run succeeds, so a failed run leaves nothing
    behind.

    Parameters
    ----------
    subcommand : str
        One of :data:`SUBCOMMANDS`.
    resolved : dict
        Output of :func:`fraclap.config.validate`.
    overrides : list of str, optional
        Raw ``key=value`` strings, echoed in the manifest.

    Returns
    -------
    RunManifest

    Raises
    ------
    ConfigError
        On missing or inconsistent keys for this subcommand, found before
        any directory is created.
    ExperimentError
        On a stage-tagged numerical failure.
    """
    if subcommand not in _DISPATCH:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    params = _preflight(subcommand, resolved)
    digest = config_hash(resolved)
    outdir = Path(resolved["outdir"])
    run_dir = outdir / digest / subcommand
    # one scratch directory per process, named apart from any run directory
    work = outdir / f".{digest}-{subcommand}-{os.getpid()}"
    stale = work.with_name(work.name + "-stale")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sink = _Sink(work)
    manifest = RunManifest(
        subcommand=subcommand, config_hash=digest, run_dir=str(work),
        overrides=list(overrides or []), threads=_threads())
    try:
        t0 = time.perf_counter()
        sink.write_json("config.json", resolved)
        manifest.timings["setup"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        _DISPATCH[subcommand](resolved, params, sink)
        manifest.timings["compute"] = time.perf_counter() - t0
        # read after the run, which may have loaded scipy
        manifest.versions = _versions()

        t0 = time.perf_counter()
        manifest.run_dir = str(run_dir)
        manifest.artifacts = {name: str(run_dir / name)
                              for name in sink.artifacts}
        manifest.timings["write"] = time.perf_counter() - t0
        (work / "manifest.json").write_text(
            json.dumps(_jsonable(manifest.as_dict()), sort_keys=True,
                       indent=2) + "\n")
        # a rerun of this subcommand on this config replaces the earlier
        # run as a whole, so the manifest lists exactly the directory
        run_dir.parent.mkdir(exist_ok=True)
        if run_dir.exists():
            run_dir.rename(stale)
        work.rename(run_dir)
    except (ConfigError, ExperimentError):
        raise
    except Exception as e:
        raise ExperimentError(subcommand, f"{type(e).__name__}: {e}") from e
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(stale, ignore_errors=True)
    return manifest
