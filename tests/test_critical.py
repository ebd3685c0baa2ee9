"""Constrained quotient minimization, rescaling, sweeps, moving boundary."""
import numpy as np
import pytest
import scipy.linalg

import fraclap as fl
from fraclap.critical import NONEXISTENCE, _participation
from fraclap.spectral import TensorEigs, _column_signs

from conftest import m_norm
from sparse_oracle import mass, stiffness


@pytest.fixture(scope="module")
def lam1s(square_basis, params2):
    return float(square_basis.lams[0] ** params2.s)


@pytest.fixture(scope="module")
def minrep(square_basis, params2, lam1s):
    return fl.minimize_quotient(square_basis, params2, 0.5 * lam1s)


def test_quotient_at_principal_eigenfunction(square_basis, params2, lam1s):
    phi1 = fl.mode_field(square_basis, 1)
    rep = fl.quotient(square_basis, params2, lam1s, phi1)
    assert rep.route == "spectral"
    assert rep.energy == pytest.approx(lam1s, rel=1e-12)
    assert rep.l2_sq == pytest.approx(1.0, rel=1e-12)
    assert abs(rep.value) < 1e-12 * lam1s


def test_quotient_scale_invariant(square_basis, params2, lam1s):
    u = fl.Field.from_callable(
        square_basis.ops.mesh, square_basis.ops.partition,
        lambda x: x[:, 0] * (1.0 + x[:, 1]))
    scaled = fl.Field(values=3.7 * u.values, mesh=u.mesh,
                      partition=u.partition)
    q1 = fl.quotient(square_basis, params2, 0.3 * lam1s, u)
    q2 = fl.quotient(square_basis, params2, 0.3 * lam1s, scaled)
    assert q2.value == pytest.approx(q1.value, rel=1e-12)
    assert q2.crit_sq == pytest.approx(3.7**2 * q1.crit_sq, rel=1e-12)


def test_quotient_rejects_zero_field(square_basis, params2):
    zero = fl.Field(values=np.zeros(square_basis.ops.mesh.n_nodes),
                    mesh=square_basis.ops.mesh,
                    partition=square_basis.ops.partition)
    with pytest.raises(ValueError):
        fl.quotient(square_basis, params2, 0.0, zero)


def test_minimize_basic_descent(minrep, square_basis, params2, lam1s):
    assert minrep.flag == "OK"
    assert minrep.converged
    assert 0 < minrep.value < minrep.witness_quotient * (1 + 1e-12)
    assert np.all(np.diff(minrep.trace_q) <= 0)
    assert minrep.iterations == len(minrep.trace_q) - 1
    assert minrep.el_residual < 1e-6
    assert 0 < minrep.participation <= 1
    vals = minrep.minimizer.values
    assert np.all(vals >= 0)
    assert minrep.max_abs == pytest.approx(np.max(vals), rel=1e-15)


def test_grad_residual_is_tangential(minrep, square_basis, params2):
    # at a converged minimizer only the constraint-normal component of the
    # gradient survives
    basis = square_basis
    a = basis.coefficients(minrep.minimizer.free_values(basis.ops))
    full = np.linalg.norm(2.0 * (basis.lams**params2.s - minrep.lam) * a)
    assert minrep.grad_residual <= 1e-6 * full


def test_participation_mesh_independent():
    values = []
    for n in (12, 24):
        mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [n, n])
        part = fl.partition_boundary(mesh, [(0, 0)])
        ops = fl.assemble_operators(mesh, part)
        phi1 = fl.eigendecompose(ops, m=1).eigenfunction(1)
        values.append(_participation(ops, phi1[ops.free]))
    assert 0 < values[0] <= 1
    assert values[1] == pytest.approx(values[0], rel=0.02)


@pytest.fixture(scope="module")
def cube6(params3):
    mesh = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [6, 6, 6])
    ops = fl.assemble_operators(mesh, fl.partition_boundary(mesh, [(0, 0)]))
    basis = fl.eigendecompose(ops, m="all")
    return ops, basis, 0.5 * fl.lambda1s(basis, params3)


def test_matrix_free_minimizer_matches_dense_basis(cube6, params3):
    ops, basis, lam = cube6
    lams, U = scipy.linalg.eigh(stiffness(ops).toarray(),
                                mass(ops).toarray())
    dense = fl.SpectralBasis(lams=lams, ops=ops,
                             coords=ops.coordinates(U * _column_signs(U)))
    got = fl.minimize_quotient(basis, params3, lam)
    want = fl.minimize_quotient(dense, params3, lam)
    assert got.value == pytest.approx(want.value, rel=1e-10)
    assert got.el_residual < 1e-6 and want.el_residual < 1e-6


def test_cube_pipeline_never_builds_vecs(cube6, params3, monkeypatch):
    ops, _, lam = cube6

    def refuse(self):
        raise AssertionError("dense eigenvectors were requested")

    monkeypatch.setattr(fl.SpectralBasis, "vecs", property(refuse))
    basis = fl.eigendecompose(ops, m="all")
    rep = fl.minimize_quotient(basis, params3, lam)
    sol = fl.rescale_to_solution(rep, basis, params3)
    out = fl.frac_apply(basis, params3, sol.v)
    norm = fl.frac_norm(basis, params3, sol.v)
    assert rep.converged and np.all(np.isfinite(out.values))
    assert norm > 0


def test_quotient_and_fractional_consumers_never_form_signs(cube6, params3,
                                                           monkeypatch):
    ops, _, _ = cube6

    def refuse(self, flat):
        raise AssertionError("mode signs were formed")

    monkeypatch.setattr(TensorEigs, "signs", refuse)
    basis = fl.eigendecompose(ops, m="all")
    lam = 0.5 * fl.lambda1s(basis, params3)
    rep = fl.minimize_quotient(basis, params3, lam)
    sol = fl.rescale_to_solution(rep, basis, params3)
    out = fl.frac_apply(basis, params3, sol.v)
    norm = fl.frac_norm(basis, params3, sol.v)
    assert rep.converged and np.all(np.isfinite(out.values)) and norm > 0
    sweep = fl.sweep_lambda(basis, params3, [0.0, lam])
    assert sweep.column("converged") == [True, True]
    # alpha = 1 is face-aligned, alpha = 1/2 a partial facet
    moved = fl.move_boundary_experiment(ops.mesh, params3, [1.0, 0.5],
                                        faces=[(0, 0)])
    assert moved.column("alpha") == pytest.approx([1.0, 0.5])


def test_lazy_signs_equal_given_signs_bit_for_bit(cube6):
    ops, _, _ = cube6
    tensor = ops.tensor
    order = tensor.order(ops.n_free)
    given = fl.SpectralBasis(lams=tensor.values[order], ops=ops, order=order,
                             signs=tensor.signs(order))
    rng = np.random.default_rng(33)
    c = rng.standard_normal((ops.n_free, 2))
    f = rng.standard_normal((ops.n_free, 2))
    reads = (lambda b: b.vecs, lambda b: b.eigenfunction(2),
             lambda b: b.coefficients(f), lambda b: b.synthesize(c),
             lambda b: b.dual(f))
    for read in reads:
        # a fresh basis each time, so that each map is the first read
        lazy = fl.eigendecompose(ops, m="all")
        assert read(lazy).tobytes() == read(given).tobytes()


def test_consumer_outputs_do_not_depend_on_a_prior_mode_read(cube6, params3):
    ops, _, lam = cube6

    def outputs(read_first: bool) -> tuple:
        basis = fl.eigendecompose(ops, m="all")
        if read_first:
            basis.eigenfunction(1)
        rep = fl.minimize_quotient(basis, params3, lam)
        sol = fl.rescale_to_solution(rep, basis, params3)
        return (rep.value, rep.iterations, rep.el_residual, rep.grad_residual,
                rep.minimizer.values.tobytes(), sol.residual.values.tobytes(),
                fl.frac_apply(basis, params3, sol.v).values.tobytes(),
                fl.frac_norm(basis, params3, sol.v),
                fl.quotient(basis, params3, lam, sol.v).value)

    assert outputs(False) == outputs(True)


@pytest.fixture(scope="module")
def cube12(params3):
    mesh = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [12, 12, 12])
    ops = fl.assemble_operators(mesh, fl.partition_boundary(mesh, [(0, 0)]))
    basis = fl.eigendecompose(ops, m="all")
    return basis, fl.lambda1s(basis, params3)


def test_converged_means_stationary(cube12, params3):
    basis, lam1s = cube12
    # at 0.55 the residual stalls at about 1.03e-8, just above polish_tol:
    # the quotient cannot resolve it further, so the refused step raises Q
    # by round-off only and still counts as converged
    for fraction in (0.45, 0.5, 0.55):
        rep = fl.minimize_quotient(basis, params3, fraction * lam1s)
        assert rep.converged
        assert rep.el_residual < 1e-6
    # a bump at the all-Neumann corner (1, 1, 1) runs into a one-node spike
    # where the next step raises Q by far more than round-off
    ops = basis.ops
    corner = fl.Field.from_callable(
        ops.mesh, ops.partition,
        lambda x: np.exp(-30.0 * np.sum((x - 1.0) ** 2, axis=1)))
    rep = fl.minimize_quotient(basis, params3, 0.5 * lam1s, init=corner)
    assert rep.flag == "OK"
    assert not rep.converged
    assert rep.el_residual > 1e-6


def test_rescale_refuses_unconverged_report(cube12, params3):
    # the corner-bump start stops at a one-node spike with a large residual:
    # no critical point, so no candidate solution
    basis, lam1s = cube12
    ops = basis.ops
    corner = fl.Field.from_callable(
        ops.mesh, ops.partition,
        lambda x: np.exp(-30.0 * np.sum((x - 1.0) ** 2, axis=1)))
    rep = fl.minimize_quotient(basis, params3, 0.5 * lam1s, init=corner)
    assert rep.flag == "OK" and rep.value > 0 and not rep.converged
    with pytest.raises(ValueError, match="did not converge"):
        fl.rescale_to_solution(rep, basis, params3)


def test_minimize_nonexistence_regime(square_basis, params2, lam1s):
    rep = fl.minimize_quotient(square_basis, params2, 1.1 * lam1s)
    assert rep.flag == NONEXISTENCE
    assert rep.witness_quotient <= 0
    assert np.isnan(rep.value)
    assert rep.iterations == 0
    assert rep.minimizer is None
    # the boundary case lam = lam_1^s is already nonexistence
    edge = fl.minimize_quotient(square_basis, params2, lam1s)
    assert edge.flag == NONEXISTENCE


def test_minimize_warm_start_stability(square_basis, params2, lam1s, minrep):
    # re-minimizing from a converged minimizer stays put: the property the
    # lambda sweep's warm starting relies on
    rep = fl.minimize_quotient(square_basis, params2, 0.5 * lam1s,
                               init=minrep.minimizer)
    assert rep.value <= minrep.value * (1 + 1e-12)
    assert rep.value == pytest.approx(minrep.value, rel=1e-8)


def test_minimize_landscape_has_multiple_basins(square_basis, params2, lam1s,
                                                minrep):
    # a concentrated start can land in a different, lower critical point;
    # both endpoints still satisfy the optimality system
    bump = fl.Field.from_callable(
        square_basis.ops.mesh, square_basis.ops.partition,
        lambda x: 1.0 + 0.5 * np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1]))
    rep = fl.minimize_quotient(square_basis, params2, 0.5 * lam1s, init=bump)
    assert rep.flag == "OK" and rep.converged
    assert rep.el_residual < 1e-6
    assert 0 < rep.value <= minrep.value * (1 + 1e-12)


def test_minimize_guards(square_basis, params2, square_ops):
    with pytest.raises(ValueError):
        fl.minimize_quotient(square_basis, params2, -1.0)
    other = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [4, 4])
    part = fl.partition_boundary(other, [(0, 0)])
    foreign = fl.Field.from_callable(other, part, lambda x: 1.0 + x[:, 0])
    with pytest.raises(ValueError):
        fl.minimize_quotient(square_basis, params2, 0.1, init=foreign)
    zero = fl.Field(values=np.zeros(square_ops.mesh.n_nodes),
                    mesh=square_ops.mesh, partition=square_ops.partition)
    with pytest.raises(ValueError):
        fl.minimize_quotient(square_basis, params2, 0.1, init=zero)
    trunc = fl.eigendecompose(square_ops, m=4)
    with pytest.raises(fl.TruncatedBasisError):
        fl.minimize_quotient(trunc, params2, 0.1)


def test_sobolev_constant_dirichlet_bound(square_basis, params2):
    rep = fl.sobolev_constant_dirichlet(square_basis, params2)
    assert rep.flag == "OK"
    vol = square_basis.ops.mesh.volume
    bound = vol ** (2 * params2.s / params2.N) * square_basis.lams[0] ** params2.s
    assert rep.value <= bound * (1 + 1e-10)


def test_rescale_to_solution(minrep, square_basis, params2):
    sol = fl.rescale_to_solution(minrep, square_basis, params2)
    p = params2.two_star
    assert sol.k == pytest.approx(minrep.value ** (1.0 / (p - 2)), rel=1e-14)
    assert sol.S == minrep.value
    assert np.allclose(sol.v.values, sol.k * minrep.minimizer.values,
                       rtol=1e-14, atol=0)
    # the relative optimality residual is scale invariant
    assert sol.residual_rel == pytest.approx(minrep.el_residual, rel=1e-10)
    assert sol.positive == (sol.min_interior > 0)
    ops = square_basis.ops
    a = square_basis.coefficients(minrep.minimizer.free_values(ops))
    lam_s = square_basis.lams ** params2.s
    manual = (0.5 * sol.k**2 * float(np.sum(lam_s * a**2))
              - 0.5 * minrep.lam * sol.k**2 * float(np.sum(a**2))
              - sol.k**p / p)
    assert sol.energy_value == pytest.approx(manual, rel=1e-12)


def test_rescale_rejects_nonexistence(square_basis, params2, lam1s):
    rep = fl.minimize_quotient(square_basis, params2, 1.15 * lam1s)
    with pytest.raises(ValueError):
        fl.rescale_to_solution(rep, square_basis, params2)


def test_sweep_lambda_table(square_basis, params2, lam1s):
    grid = [0.8 * lam1s, 0.0, 1.1 * lam1s, 0.4 * lam1s, lam1s]
    res = fl.sweep_lambda(square_basis, params2, grid)
    lams = res.column("lam")
    assert lams == sorted(lams)
    assert res.lam1s == pytest.approx(lam1s, rel=1e-15)
    flags = res.column("nonexistence")
    assert flags == [lam >= lam1s for lam in lams]
    ok_S = [r["S_lambda"] for r in res.rows if not r["nonexistence"]]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(ok_S, ok_S[1:]))
    for row in res.rows:
        if row["nonexistence"]:
            assert np.isnan(row["S_lambda"])
            assert row["iterations"] == 0


def test_sweep_reports_the_lam1s_it_flags_against():
    # on the 15^2 square at s = 0.6 the vectorized power of the eigenvalues
    # and the scalar power of lambda_1 can differ by one ulp (they do with
    # an AVX-512 numpy); the sweep must report the value its flags use
    params = fl.FracParams(s=0.6, N=2)
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [15, 15])
    ops = fl.assemble_operators(mesh, fl.partition_boundary(mesh, [(0, 0)]))
    basis = fl.quotient_operator(ops)
    lam1s = basis.lam1s(params.s)
    res = fl.sweep_lambda(basis, params, [np.nextafter(lam1s, 0.0), lam1s])
    assert res.lam1s == lam1s == fl.lambda1s(basis, params)
    assert res.column("nonexistence") == [False, True]


def test_sweep_lambda_guards(square_basis, params2, lam1s):
    with pytest.raises(ValueError):
        fl.sweep_lambda(square_basis, params2, [])
    with pytest.raises(ValueError):
        fl.sweep_lambda(square_basis, params2, [-0.1])
    with pytest.raises(ValueError):
        fl.sweep_lambda(square_basis, params2, [1.3 * lam1s])


def test_move_boundary_small_family(params2):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [8, 8])
    kap = fl.kappa_s(params2)
    res = fl.move_boundary_experiment(mesh, params2, [1.0, 0.5, 0.25])
    thr = fl.attainment_threshold(params2, kappa=kap)
    assert res.threshold == pytest.approx(thr, rel=1e-15)
    alphas = res.column("alpha")
    assert all(b < a for a, b in zip(alphas, alphas[1:]))
    lam11 = res.column("lam_1_1")
    assert all(b <= a * (1 + 1e-12) for a, b in zip(lam11, lam11[1:]))
    for row in res.rows:
        assert row["lam_1_s"] == pytest.approx(row["lam_1_1"] ** params2.s,
                                               rel=1e-14)
        assert row["sufficient"] == (row["bound"] < thr)
    if not np.isnan(res.onset_alpha):
        hits = [r for r in res.rows if r["sufficient"]]
        assert hits and hits[0]["alpha"] == res.onset_alpha


def test_move_boundary_rejects_non_distinct_alphas(params2):
    # on a 4x4 square both requests snap down to the same 15-facet union
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [4, 4])
    with pytest.raises(ValueError):
        fl.move_boundary_experiment(mesh, params2, [0.99, 0.98])


def test_move_boundary_refuses_alpha_above_its_faces(params2, monkeypatch):
    # y = 2 of the 1 x 2 box measures 1: alpha = 1.5 is refused before any
    # operator is assembled
    def refuse(*args, **kwargs):
        raise AssertionError("an operator was assembled")

    monkeypatch.setattr(fl.critical, "assemble_operators", refuse)
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 2.0)], [4, 8])
    with pytest.raises(ValueError, match="measure 1.0 of faces"):
        fl.move_boundary_experiment(mesh, params2, [1.5, 0.5],
                                    faces=[[1, 1]])


ALPHAS = [1.0, 0.75, 0.5, 0.25, 0.125]


def test_move_boundary_matches_dense_loop(params2):
    # the same experiment written out with a dense complete basis per alpha
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [16, 16])
    kap = fl.kappa_s(params2)
    res = fl.move_boundary_experiment(mesh, params2, ALPHAS)
    thr = fl.attainment_threshold(params2, kappa=kap)
    vol_pow = mesh.volume ** (2 * params2.s / params2.N)
    onset = float("nan")
    for row, part in zip(res.rows, fl.moving_family(mesh, ALPHAS)):
        basis = fl.eigendecompose(fl.assemble_operators(mesh, part), m="all")
        lam11 = float(basis.lams[0])
        S_tilde = fl.sobolev_constant_dirichlet(basis, params2).value
        if vol_pow * lam11**params2.s < thr and np.isnan(onset):
            onset = part.alpha
        assert row["lam_1_1"] == pytest.approx(lam11, rel=1e-10)
        assert row["S_tilde"] == pytest.approx(S_tilde, rel=1e-10)
        assert row["sufficient"] == (vol_pow * lam11**params2.s < thr)
    assert res.onset_alpha == onset
    assert not np.isnan(onset)


def test_move_boundary_runs_without_dense_eigensolve(params2, monkeypatch):
    # above the face-aligned alpha = 1 no alpha takes a dense eigensolve, so
    # the size limit of that solve no longer applies
    def refuse(*args, **kwargs):
        raise AssertionError("dense constrained eigensolve was called")

    monkeypatch.setattr(fl.spectral, "_constrained_eigh", refuse)
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [40, 40])
    res = fl.move_boundary_experiment(mesh, params2, ALPHAS)
    assert res.onset_alpha == 0.125
    errors = res.column("frac_rel_error")
    assert errors[0] == 0.0
    assert all(0.0 < e <= 1e-12 for e in errors[1:])
