"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Heavy discretizations are shared through module fixtures;
each runtime-bounded criterion times its own pipeline, fixture work
included, and asserts the bound.
"""
import json
import math
import os
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

import fraclap as fl
from fraclap.experiments import run
from fraclap.pohozaev import (
    critical_power,
    growth_defect,
    linear_plus_critical,
    nonexistence_check,
    pohozaev_terms,
)

import kappa_oracle

S = 0.75


@pytest.fixture(scope="module")
def p1():
    return fl.FracParams(s=S, N=1)


@pytest.fixture(scope="module")
def p2():
    return fl.FracParams(s=S, N=2)


@pytest.fixture(scope="module")
def p3():
    return fl.FracParams(s=S, N=3)


@pytest.fixture(scope="module")
def oracle():
    # interval (0,1), Dirichlet at 0, Neumann at 1: eigenpairs in closed form
    mesh = fl.build_tensor_mesh(1, [(0.0, 1.0)], [256])
    part = fl.partition_boundary(mesh, [(0, 0)])
    ops = fl.assemble_operators(mesh, part)
    basis = fl.eigendecompose(ops, m="all")
    return mesh, part, ops, basis


@pytest.fixture(scope="module")
def isometry_margin(oracle, p1):
    # measured discretization error of the energy isometry; criterion 7
    # reuses the largest observed value as its softening margin
    mesh, part, ops, basis = oracle
    kap = fl.kappa_s(p1)
    Y = 6.0 / math.sqrt(float(basis.lams[0]))
    cyl = fl.build_cylinder(mesh, Y, 64, 3.0)
    u1 = fl.mode_field(basis, 1)
    u12 = fl.Field(values=u1.values + fl.mode_field(basis, 2).values,
                   mesh=mesh, partition=part)
    errors = {}
    for label, u in (("phi1", u1), ("phi1_plus_phi2", u12)):
        w = fl.extend(cyl, part, p1, u)
        xn = fl.x_norm(cyl, p1, w, kap)
        fn = fl.frac_norm(basis, p1, u)
        errors[label] = abs(xn - fn) / fn
    return errors


@pytest.fixture(scope="module")
def square_sweep(p2):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [12, 12])
    part = fl.partition_boundary(mesh, [(0, 0)])
    ops = fl.assemble_operators(mesh, part)
    basis = fl.eigendecompose(ops, m="all")
    lam1s = float(basis.lams[0] ** S)
    grid = [f * lam1s for f in (0.25, 0.5, 0.75, 1.0, 1.1)]
    result = fl.sweep_lambda(basis, p2, grid)
    return ops, basis, lam1s, result


@pytest.fixture(scope="module")
def cube_solution(p3):
    # unit cube, one Dirichlet face, lambda at half the fractional
    # principal eigenvalue; elapsed covers the whole pipeline
    t0 = time.perf_counter()
    mesh = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [12] * 3)
    part = fl.partition_boundary(mesh, [(0, 0)])
    ops = fl.assemble_operators(mesh, part)
    basis = fl.eigendecompose(ops, m="all")
    lam1s = float(basis.lams[0] ** S)
    lam = 0.5 * lam1s
    rep = fl.minimize_quotient(basis, p3, lam)
    sol = fl.rescale_to_solution(rep, basis, p3)
    elapsed = time.perf_counter() - t0
    return {"mesh": mesh, "part": part, "ops": ops, "basis": basis,
            "lam1s": lam1s, "lam": lam, "rep": rep, "sol": sol,
            "elapsed": elapsed}


def test_criterion_01_interval_eigen_oracle():
    t0 = time.perf_counter()
    mesh = fl.build_tensor_mesh(1, [(0.0, 1.0)], [256])
    part = fl.partition_boundary(mesh, [(0, 0)])
    ops = fl.assemble_operators(mesh, part)
    basis = fl.eigendecompose(ops, m=5)
    elapsed = time.perf_counter() - t0
    for k in range(1, 6):
        exact = ((k - 0.5) * math.pi) ** 2
        assert float(basis.lams[k - 1]) == pytest.approx(exact, rel=0.01)
    assert elapsed < 5.0


def test_criterion_02_fractional_eigenvalue_identity(oracle, p1, p2):
    # lambda_{1,s} = lambda_{1,1}^s on every partition tested
    cases = []
    mesh1, part1, ops1, basis1 = oracle
    cases.append((basis1, p1))
    sq = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [10, 10])
    for faces in ([(0, 0)], [(0, 0), (1, 1)]):
        part = fl.partition_boundary(sq, faces)
        cases.append((fl.eigendecompose(fl.assemble_operators(sq, part),
                                        m="all"), p2))
    for part in fl.moving_family(sq, [0.75, 0.25]):
        cases.append((fl.eigendecompose(fl.assemble_operators(sq, part),
                                        m="all"), p2))
    for basis, params in cases:
        phi1 = fl.mode_field(basis, 1)
        out = fl.frac_apply(basis, params, phi1)
        uf = phi1.free_values(basis.ops)
        rayleigh = float(out.free_values(basis.ops) @ (basis.ops.M @ uf))
        rayleigh /= float(uf @ (basis.ops.M @ uf))
        assert rayleigh == pytest.approx(
            float(basis.lams[0]) ** params.s, rel=1e-12)


def test_criterion_03_definition_equivalence_dtn(oracle, p1):
    mesh, part, ops, basis = oracle
    t0 = time.perf_counter()
    kap = fl.kappa_s(p1)
    Y = 6.0 / math.sqrt(float(basis.lams[0]))
    errors = {}
    for J in (64, 128):
        cyl = fl.build_cylinder(mesh, Y, J, 3.0)
        errs = []
        for k in (1, 2, 3):
            phi = fl.mode_field(basis, k)
            w = fl.extend(cyl, part, p1, phi)
            got = fl.dtn(cyl, p1, w, kap).free_values(ops)
            want = float(basis.lams[k - 1]) ** S
            d = got - want * phi.free_values(ops)
            errs.append(math.sqrt(float(d @ (ops.M @ d))) / want)
        errors[J] = errs
    elapsed = time.perf_counter() - t0
    assert max(errors[64]) < 0.05
    for e64, e128 in zip(errors[64], errors[128]):
        assert e128 < e64
    assert elapsed < 30.0


def test_criterion_04_extension_isometry(isometry_margin):
    for label, rel in isometry_margin.items():
        assert rel < 0.05, label


def test_criterion_05_nonexistence_flags(square_sweep, p2):
    ops, basis, lam1s, result = square_sweep
    phi1_free = basis.vecs[:, 0]
    crit_sq = fl.critical_norm(ops, p2, phi1_free) ** 2
    for row in result.rows:
        assert row["nonexistence"] == (row["lam"] >= lam1s)
        witness = (lam1s - row["lam"]) / crit_sq
        assert row["witness_quotient"] == pytest.approx(witness, rel=1e-10)
        if row["nonexistence"]:
            assert np.isnan(row["S_lambda"])


def test_criterion_06_existence_minimizer_cube(cube_solution):
    rep = cube_solution["rep"]
    sol = cube_solution["sol"]
    assert rep.flag == "OK" and rep.converged
    assert np.all(np.diff(rep.trace_q) <= 0)
    assert rep.el_residual < 1e-6
    assert sol.positive and sol.min_interior > 0
    assert cube_solution["elapsed"] < 600.0


def test_criterion_07_strict_upper_bound(cube_solution, square_sweep,
                                         isometry_margin, p2, p3):
    margin = max(isometry_margin.values())
    # every converged S_lambda sits under its domain's threshold
    thr2 = fl.attainment_threshold(p2)
    _, _, lam1s2, sweep = square_sweep
    for row in sweep.rows:
        if not row["nonexistence"] and 0 < row["lam"] < lam1s2:
            assert row["S_lambda"] < thr2 * (1 + margin)
    thr3 = fl.attainment_threshold(p3)
    assert cube_solution["rep"].value < thr3 * (1 + margin)
    # a concentrated cut-off bubble witnesses the bound directly
    q = fl.test_function_quotient(
        cube_solution["mesh"], cube_solution["part"], p3,
        (1.0, 1.0, 1.0), rho=0.5, eps=0.34, lam=cube_solution["lam"])
    assert q.value < thr3


def test_criterion_08_moving_boundary_onset(p2):
    t0 = time.perf_counter()
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [40, 40])
    res = fl.move_boundary_experiment(
        mesh, p2, [1.0, 0.75, 0.5, 0.25, 0.125])
    elapsed = time.perf_counter() - t0
    lam1s_col = res.column("lam_1_s")
    assert all(b < a for a, b in zip(lam1s_col, lam1s_col[1:]))
    assert any(res.column("sufficient"))
    assert res.onset_alpha == 0.125
    assert elapsed < 900.0


def test_criterion_09_pohozaev_ladder(cube_solution, p3):
    kap = fl.kappa_s(p3)
    x0 = (0.5, 0.5, 0.5)

    # u = 0 closes the identity exactly
    mesh0 = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [4] * 3)
    part0 = fl.partition_boundary(mesh0, [(0, 0)])
    zero = fl.Field(values=np.zeros(mesh0.n_nodes), mesh=mesh0,
                    partition=part0)
    cyl0 = fl.build_cylinder(mesh0, 2.0, 16, 2.0)
    w0 = fl.extend(cyl0, part0, p3, zero)
    rep0 = pohozaev_terms(zero, w0, critical_power(p3), p3, kap, x0)
    assert rep0.residual == 0.0
    assert rep0.residual_over_scale == 0.0

    ratios = []
    for n, J in ((6, 16), (9, 24), (12, 32)):
        if n == 12:
            mesh = cube_solution["mesh"]
            part = cube_solution["part"]
            basis = cube_solution["basis"]
            lam = cube_solution["lam"]
            sol = cube_solution["sol"]
        else:
            mesh = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [n] * 3)
            part = fl.partition_boundary(mesh, [(0, 0)])
            ops = fl.assemble_operators(mesh, part)
            basis = fl.eigendecompose(ops, m="all")
            lam = 0.5 * float(basis.lams[0] ** S)
            rep = fl.minimize_quotient(basis, p3, lam)
            sol = fl.rescale_to_solution(rep, basis, p3)
        cyl = fl.build_cylinder(mesh, 6.0 / math.sqrt(float(basis.lams[0])),
                                J, 3.0)
        w = fl.extend(cyl, part, p3, sol.v)
        spec = linear_plus_critical(p3, lam)
        report = pohozaev_terms(sol.v, w, spec, p3, kap, x0)
        ratios.append(abs(report.residual_over_scale))
    assert ratios[-1] < 0.1
    assert all(b <= a for a, b in zip(ratios, ratios[1:]))


def test_criterion_10_cone_algebra(p2, p3):
    ts = np.linspace(0.01, 10.0, 1000)
    for params in (p2, p3):
        spec = critical_power(params)
        g = growth_defect(spec, params, ts)
        scale = np.max(np.abs(2 * params.N * spec.F(ts)))
        assert np.max(np.abs(g)) < 1e-14 * scale
    # the cone [0, 1]^3 with its apex at the origin: the faces through it
    # Neumann, the far faces Dirichlet
    mesh = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [6] * 3)
    part = fl.partition_boundary(mesh, [(d, 1) for d in range(3)])
    rep = nonexistence_check(mesh, part, critical_power(p3), p3,
                             (0.0, 0.0, 0.0))
    assert rep.max_neumann_pairing <= 1e-10
    assert rep.flag == "NO-SOLUTION-PREDICTED"


def test_criterion_11_constants(p2, p3):
    for params in (p3, p2):
        with mpmath.workdps(60):
            s = mpmath.mpf(params.s)
            N = mpmath.mpf(params.N)
            ref = float(2 * mpmath.pi**s * mpmath.gamma(1 - s)
                        * mpmath.gamma((N + 2 * s) / 2)
                        * mpmath.gamma(N / 2) ** (2 * s / N)
                        / (mpmath.gamma(s) * mpmath.gamma((N - 2 * s) / 2)
                           * mpmath.gamma(N) ** s))
        assert fl.sobolev_constant(params) == pytest.approx(ref, rel=1e-12)
    values = kappa_oracle.calibrate_kappa(p3.s, mus=(1.0, 4.0))
    assert kappa_oracle.spread(values) <= 1e-6


def test_criterion_12_byte_reproducibility(tmp_path):
    cfg = fl.validate({
        "domain": {"kind": "interval", "extents": [[0.0, 1.0]], "n": [32]},
        "partition": {"dirichlet_faces": [[0, 0]]},
        "mode_count": 3,
        "outdir": "runs",
    })
    cwd = os.getcwd()
    snapshots = []
    try:
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            os.chdir(d)
            manifest = run("eig", cfg)
            snapshots.append({
                art: Path(p).read_bytes()
                for art, p in manifest.artifacts.items()
            })
    finally:
        os.chdir(cwd)
    assert snapshots[0] == snapshots[1]
