"""The benchmarked calls, their checks, every subcommand and ``import
fraclap`` load no scipy module, and nothing loads OpenSSL.

Any scipy submodule costs a process about 0.2 s and 25 MB on import, more
than most runs compute, so every call of the three benchmark workloads is
numpy only.  So are the constants, which come from closed forms, and the
M-norms and products with ``OperatorPair.A`` and ``.M`` that the
benchmark's checks and the demos take, on face-aligned and partial-facet
partitions alike, and all eight subcommands on face-aligned configs.
``hashlib`` would load OpenSSL's libcrypto through ``_hashlib``, about
3.5 MB, so the digests that name every run directory come from CPython's
built-in SHA-256 instead.  The calls run in a fresh interpreter, since
this one has loaded scipy for the reference checks of other tests.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraclap
import fraclap.cli

SRC = Path(fraclap.__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, io, json, math, sys
from pathlib import Path

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "_hashlib")

stages = {}
import numpy as np
import fraclap as fl
import fraclap.cli
stages["import"] = loaded()

# the cube-audit pipeline on 4^3
params = fl.FracParams(s=0.75, N=3)
mesh = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [4] * 3)
part = fl.partition_boundary(mesh, [(0, 0)])
ops = fl.assemble_operators(mesh, part)
basis = fl.eigendecompose(ops, m="all")
lam = 0.5 * fl.lambda1s(basis, params)
rep = fl.minimize_quotient(basis, params, lam)
sol = fl.rescale_to_solution(rep, basis, params)
kappa = fl.kappa_s(params)
cyl = fl.build_cylinder(mesh, 6.0 / math.sqrt(basis.lams[0]), 16, 3.0)
w = fl.extend(cyl, part, params, sol.v)
fl.dtn(cyl, params, w, kappa)
fl.x_norm(cyl, params, w, kappa)
fl.frac_apply(basis, params, sol.v)
fl.frac_norm(basis, params, sol.v)
fl.pohozaev_terms(sol.v, w, fl.linear_plus_critical(params, lam), params,
                  kappa, (0.5, 0.5, 0.5))
fl.attainment_threshold(params, kappa)
stages["cube-audit"] = loaded()

# extend, dtn and x_norm on 8^2 at J = 16, fields from 8 modes
params = fl.FracParams(s=0.75, N=2)
mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [8, 8])
part = fl.partition_boundary(mesh, [(0, 0)])
ops = fl.assemble_operators(mesh, part)
basis = fl.eigendecompose(ops, m=8)
u = fl.Field.from_free(ops, basis.vecs.sum(axis=1))
fl.frac_apply(basis, params, u, allow_truncated=True)
cyl = fl.build_cylinder(mesh, 6.0 / math.sqrt(basis.lams[0]), 16, 3.0)
for _ in range(2):
    w = fl.extend(cyl, part, params, u)
    fl.dtn(cyl, params, w, kappa)
    fl.x_norm(cyl, params, w, kappa)
stages["extend"] = loaded()

# the checks' M-norms and a product with A, on the face-aligned 8^2 square
# and its alpha = 1/2 partial-facet partition
for part in (part, fl.moving_family(mesh, [0.5])[0]):
    ops = fl.assemble_operators(mesh, part)
    d = np.linspace(1.0, 2.0, ops.n_free)
    assert math.sqrt(d @ (ops.M @ d)) > 0
    assert (ops.A @ np.stack([d, d * d], axis=1)).shape == (ops.n_free, 2)
stages["m-norm"] = loaded()

# all eight subcommands through the command line; move-boundary at
# alpha = 1/2 assembles a partial-facet partition
config = {"domain": {"kind": "box", "extents": [[0, 1], [0, 1]],
                     "n": [8, 8]},
          "partition": {"dirichlet_faces": [[0, 0]]},
          "alphas": [1.0, 0.5],
          "lambda": {"fraction_of_lambda1s": 0.5},
          "lambda_grid": [{"fraction_of_lambda1s": 0.5},
                          {"fraction_of_lambda1s": 1.05}],
          "field": {"modes": [1, 2], "coeffs": [1.0, 0.5]},
          "pohozaev": {"x0": [0.5, 0.5]},
          "outdir": "runs"}
Path("box.json").write_text(json.dumps(config))
versions = {}
for sub in fraclap.cli.SUBCOMMANDS:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = fraclap.cli.main([sub, "--config", "box.json"])
    stages[sub] = loaded() if code == 0 else f"exit {code}"
    manifest = Path(json.loads(out.getvalue())["run_dir"]) / "manifest.json"
    manifest = json.loads(manifest.read_text())
    versions[sub] = sorted(manifest["versions"])
    assert manifest["config_hash"] == fl.config_hash(fl.validate(config))
print(json.dumps([stages, versions]))
"""


@pytest.fixture(scope="module")
def workload_run(tmp_path_factory):
    # the modules each stage of SCRIPT has loaded, and each run's versions
    proc = subprocess.run([sys.executable, "-c", SCRIPT],
                          cwd=tmp_path_factory.mktemp("workloads"),
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_workload_calls_load_no_scipy(workload_run):
    stages, versions = workload_run
    assert list(stages) == ["import", "cube-audit", "extend", "m-norm",
                            *fraclap.cli.SUBCOMMANDS]
    assert not any(m.split(".")[0] == "scipy"
                   for mods in stages.values() for m in mods)
    # a run that never loaded scipy records no scipy version
    assert versions == {sub: ["fraclap", "numpy", "python"]
                        for sub in fraclap.cli.SUBCOMMANDS}


def test_no_stage_loads_openssl(workload_run):
    # every run's config hash and the keys of its mesh and partition come
    # from the built-in SHA-256, and each run's manifest records the digest
    # config_hash gives
    stages, _ = workload_run
    assert [name for name, mods in stages.items() if "_hashlib" in mods] == []


LOADING = r"""
import json, sys
from pathlib import Path
from fraclap import experiments, validate

assert "scipy" not in sys.modules
eig = experiments._DISPATCH["eig"]

def loading(*args):
    # the computation loads scipy part-way through the run
    import scipy.linalg
    return eig(*args)

experiments._DISPATCH["eig"] = loading
config = {"domain": {"kind": "box", "extents": [[0, 1], [0, 1]],
                     "n": [4, 4]},
          "partition": {"dirichlet_faces": [[0, 0]]},
          "mode_count": 3, "outdir": "runs"}
manifest = experiments.run("eig", validate(config))
print((Path(manifest.run_dir) / "manifest.json").read_text())
"""


def test_manifest_records_scipy_loaded_during_the_run(tmp_path):
    # the versions are read after the subcommand has run, so a run that
    # loads scipy part-way records its version
    import scipy

    proc = subprocess.run([sys.executable, "-c", LOADING], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    versions = json.loads(proc.stdout)["versions"]
    assert versions["scipy"] == scipy.__version__
    assert sorted(versions) == ["fraclap", "numpy", "python", "scipy"]
