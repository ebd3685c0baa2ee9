"""Weighted cylinder extension: 1-D blocks, the solve, and the D-to-N trace."""
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special

import fraclap as fl
from fraclap._weighted1d import (
    cell_moments,
    graded_grid,
    harmonic_conductances,
    solve_mode_deviation,
    solve_mode_profile,
    weighted_matrices,
    weighted_slope_limit,
)
from fraclap.extension import MIN_Y_CELLS

from conftest import m_norm

S = 0.75


def test_graded_grid_shape_and_clustering():
    y = graded_grid(2.0, 10, 3.0)
    assert y.shape == (11,)
    assert y[0] == 0.0 and y[-1] == 2.0
    assert np.all(np.diff(y) > 0)
    assert y[1] == pytest.approx(2.0 * 0.1**3, rel=1e-15)
    uniform = graded_grid(1.0, 8, 1.0)
    assert np.allclose(np.diff(uniform), 0.125)


def test_graded_grid_guards():
    with pytest.raises(ValueError):
        graded_grid(0.0, 10, 2.0)
    with pytest.raises(ValueError):
        graded_grid(1.0, 1, 2.0)
    with pytest.raises(ValueError):
        graded_grid(1.0, 10, 0.5)


def test_cell_moments_match_quadrature():
    y = graded_grid(1.5, 8, 2.0)
    mom = cell_moments(y, S)
    for k in range(3):
        for j in range(8):
            ref, _ = scipy.integrate.quad(
                lambda t: t ** (k + 1.0 - 2 * S), y[j], y[j + 1])
            assert mom[k][j] == pytest.approx(ref, rel=1e-9)


def test_harmonic_conductance_is_reciprocal_resistance():
    y = graded_grid(1.0, 6, 3.0)
    a = harmonic_conductances(y, S)
    for j in range(6):
        # epsabs=0 keeps quad honest on the tiny first cells
        resistance, _ = scipy.integrate.quad(
            lambda t: t ** (2 * S - 1.0), y[j], y[j + 1], epsabs=0)
        assert a[j] == pytest.approx(1.0 / resistance, rel=1e-10)


def test_weighted_stiffness_exact_on_layer_profile():
    # flux of y^(2s) through every harmonic conductance is exactly 2s, so
    # interior rows cancel identically and the end rows carry +-2s
    y = graded_grid(2.0, 40, 4.0)
    A, M = weighted_matrices(y, S)
    ones = np.ones(len(y))
    # residuals round at the scale of the first-cell conductances
    scale = harmonic_conductances(y, S).max()
    assert np.max(np.abs(A @ ones)) < 1e-12 * scale
    v = y ** (2 * S)
    r = A @ v
    assert np.max(np.abs(r[1:-1])) < 1e-11
    assert r[0] == pytest.approx(-2 * S, rel=1e-13)
    assert r[-1] == pytest.approx(2 * S, rel=1e-13)


def test_weighted_mass_total_and_symmetry():
    Y = 2.0
    y = graded_grid(Y, 30, 3.0)
    A, M = weighted_matrices(y, S)
    total = Y ** (2 - 2 * S) / (2 - 2 * S)
    assert M.sum() == pytest.approx(total, rel=1e-12)
    assert np.max(np.abs((A - A.T).toarray())) == 0.0
    assert np.max(np.abs((M - M.T).toarray())) == 0.0
    assert np.min(np.linalg.eigvalsh(M.toarray())) > 0


def test_mode_profile_deviation_consistency():
    y = graded_grid(40.0, 200, 4.0)
    v = solve_mode_deviation(y, S, 1.0)
    w = solve_mode_profile(y, S, 1.0)
    assert np.array_equal(w, 1.0 + v)
    assert v[0] == 0.0 and v[-1] == -1.0
    assert np.all(w > -1e-10) and np.all(w < 1.0 + 1e-10)
    assert w[5] > w[50] > w[150]


def test_mode_profile_matches_bessel_transform():
    # closed form at a second power: w = 2^(1-s)/Gamma(s) (sqrt(mu) y)^s K_s
    s, mu = 0.6, 2.0
    y = graded_grid(20.0, 400, 4.0)
    w = solve_mode_profile(y, s, mu)
    z = math.sqrt(mu) * y[1:]
    exact = 2.0 ** (1 - s) / math.gamma(s) * z**s * scipy.special.kv(s, z)
    keep = z < 5.0
    rel = np.abs(w[1:][keep] - exact[keep]) / np.abs(exact[keep])
    assert np.max(rel) < 5e-3


def test_weighted_slope_limit_exact_on_model():
    # the two-point fit eliminates the y^2 term by construction
    y1, y2 = 1e-3, 3e-3
    for c, b in [(2.0, 0.0), (-1.5, 4.0), (0.3, 1e3)]:
        d1 = c * y1 ** (2 * S) + b * y1**2
        d2 = c * y2 ** (2 * S) + b * y2**2
        lim = weighted_slope_limit(d1, d2, y1, y2, S)
        assert lim == pytest.approx(2 * S * c, rel=1e-10)


def test_weighted_slope_limit_guards():
    with pytest.raises(ValueError):
        weighted_slope_limit(0.1, 0.2, 0.0, 1.0, S)
    with pytest.raises(ValueError):
        weighted_slope_limit(0.1, 0.2, 2.0, 1.0, S)


def test_build_cylinder_attributes_and_guards():
    mesh = fl.build_tensor_mesh(1, [(0.0, 1.0)], [16])
    cyl = fl.build_cylinder(mesh, 3.0, MIN_Y_CELLS, 2.0)
    assert cyl.base is mesh
    assert cyl.y.shape == (MIN_Y_CELLS + 1,)
    assert cyl.y[-1] == 3.0
    with pytest.raises(ValueError):
        fl.build_cylinder(mesh, 3.0, MIN_Y_CELLS - 1, 2.0)
    with pytest.raises(ValueError):
        fl.build_cylinder(mesh, 3.0, 32, 0.5)


@pytest.fixture(scope="module")
def interval_cylinder(interval_ops):
    lam1 = (math.pi / 2) ** 2
    return fl.build_cylinder(interval_ops.mesh, 6.0 / math.sqrt(lam1), 48, 3.0)


def test_extension_field_validation(interval_cylinder, interval_ops):
    cyl, part = interval_cylinder, interval_ops.partition
    good = np.zeros((cyl.base.n_nodes, cyl.J + 1))
    fl.ExtensionField(values=good, cyl=cyl, partition=part)
    with pytest.raises(ValueError):
        fl.ExtensionField(values=good[:, :-1], cyl=cyl, partition=part)
    bad = good.copy()
    bad[5, 3] = np.nan
    with pytest.raises(ValueError):
        fl.ExtensionField(values=bad, cyl=cyl, partition=part)
    pinned = good.copy()
    pinned[part.dirichlet_node_mask, 2] = 1.0
    with pytest.raises(ValueError):
        fl.ExtensionField(values=pinned, cyl=cyl, partition=part)


def test_extend_trace_cap_and_clamping(interval_cylinder, interval_ops, params1):
    cyl, ops = interval_cylinder, interval_ops
    u = fl.Field.from_callable(ops.mesh, ops.partition,
                               lambda x: np.sin(np.pi * x[:, 0] / 2))
    w = fl.extend(cyl, ops.partition, params1, u)
    assert np.array_equal(w.trace().values, u.values)
    assert np.all(w.values[:, -1] == 0.0)
    assert np.all(w.values[ops.partition.dirichlet_node_mask] == 0.0)
    # repeated solve through the cache is bitwise stable
    again = fl.extend(cyl, ops.partition, params1, u)
    assert np.array_equal(w.values, again.values)


def test_cylinder_keeps_a_solver_per_power(interval_cylinder, interval_ops,
                                           monkeypatch):
    # alternating powers on one cylinder reuse the solvers it holds
    built = []
    shifted = fl.OperatorPair.shifted

    def counting(ops, theta):
        built.append(theta)
        return shifted(ops, theta)

    monkeypatch.setattr(fl.OperatorPair, "shifted", counting)
    ops, old = interval_ops, interval_cylinder
    cyl = fl.build_cylinder(ops.mesh, old.Y, old.J, old.gamma)
    u = fl.Field.from_callable(ops.mesh, ops.partition,
                               lambda x: np.sin(np.pi * x[:, 0] / 2))
    for s in (0.6, 0.75, 0.6, 0.75):
        fl.extend(cyl, ops.partition, fl.FracParams(s=s, N=1), u)
    assert len(built) == 2


def test_extend_zero_and_linearity(interval_cylinder, interval_ops, params1):
    cyl, ops = interval_cylinder, interval_ops
    zero = fl.Field(values=np.zeros(ops.mesh.n_nodes), mesh=ops.mesh,
                    partition=ops.partition)
    assert np.all(fl.extend(cyl, ops.partition, params1, zero).values == 0.0)
    u = fl.Field.from_callable(ops.mesh, ops.partition,
                               lambda x: np.sin(np.pi * x[:, 0] / 2))
    v = fl.Field.from_callable(ops.mesh, ops.partition,
                               lambda x: x[:, 0] ** 2)
    combo = fl.Field(values=2.0 * u.values - 3.0 * v.values, mesh=ops.mesh,
                     partition=ops.partition)
    Wc = fl.extend(cyl, ops.partition, params1, combo)
    Wu = fl.extend(cyl, ops.partition, params1, u)
    Wv = fl.extend(cyl, ops.partition, params1, v)
    diff = Wc.values - (2.0 * Wu.values - 3.0 * Wv.values)
    assert np.max(np.abs(diff)) < 1e-10


def test_extend_warns_on_coarse_first_cell(interval_ops, params1):
    cyl = fl.build_cylinder(interval_ops.mesh, 1.0, 16, 1.0)
    u = fl.Field.from_callable(interval_ops.mesh, interval_ops.partition,
                               lambda x: x[:, 0])
    with pytest.warns(RuntimeWarning, match="first y-cell"):
        fl.extend(cyl, interval_ops.partition, params1, u)


def test_extend_rejects_foreign_trace(interval_cylinder, params1):
    other = fl.build_tensor_mesh(1, [(0.0, 1.0)], [32])
    part = fl.partition_boundary(other, [(0, 0)])
    u = fl.Field(values=np.zeros(other.n_nodes), mesh=other, partition=part)
    with pytest.raises(ValueError):
        fl.extend(interval_cylinder, part, params1, u)


def test_dtn_and_x_norm_refuse_another_cylinder(params2):
    # both read the y-grid of their cylinder argument, so it must be the
    # grid the extension was solved on
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [16, 16])
    part = fl.partition_boundary(mesh, [(0, 0)])
    basis = fl.eigendecompose(fl.assemble_operators(mesh, part), m=1)
    kap = fl.kappa_s(params2)
    cyl = fl.build_cylinder(mesh, 6.0 / math.sqrt(basis.lams[0]), 32, 3.0)
    w = fl.extend(cyl, part, params2, fl.mode_field(basis, 1))
    assert fl.x_norm(cyl, params2, w, kap) > 0.0
    assert np.all(np.isfinite(fl.dtn(cyl, params2, w, kap).values))
    for other in (fl.build_cylinder(mesh, 1.0, 32, 3.0),
                  fl.build_cylinder(mesh, cyl.Y, 48, 3.0)):
        with pytest.raises(ValueError, match="another cylinder"):
            fl.x_norm(other, params2, w, kap)
        with pytest.raises(ValueError, match="another cylinder"):
            fl.dtn(other, params2, w, kap)


def test_dtn_matches_spectral_per_mode(interval_cylinder, interval_ops,
                                       interval_basis, params1):
    cyl, ops = interval_cylinder, interval_ops
    kap = fl.kappa_s(params1)
    for k in (1, 2, 3):
        phi = fl.mode_field(interval_basis, k)
        w = fl.extend(cyl, ops.partition, params1, phi)
        g = fl.dtn(cyl, params1, w, kap)
        want = interval_basis.lams[k - 1] ** params1.s
        err = m_norm(ops, g.free_values(ops) - want * phi.free_values(ops))
        assert err / want < 5e-3


def test_dtn_error_shrinks_with_finer_grid(interval_ops, interval_basis,
                                           params1):
    ops = interval_ops
    phi = fl.mode_field(interval_basis, 1)
    want = interval_basis.lams[0] ** params1.s
    kap = fl.kappa_s(params1)
    errs = []
    for J in (24, 96):
        cyl = fl.build_cylinder(ops.mesh, 3.8, J, 3.0)
        w = fl.extend(cyl, ops.partition, params1, phi)
        g = fl.dtn(cyl, params1, w, kap)
        errs.append(m_norm(ops, g.free_values(ops) - want * phi.free_values(ops)))
    assert errs[1] < 0.5 * errs[0]


def test_energy_isometry_and_minimality(interval_cylinder, interval_ops,
                                        interval_basis, params1):
    cyl, ops = interval_cylinder, interval_ops
    u = fl.Field.from_callable(ops.mesh, ops.partition,
                               lambda x: np.sin(np.pi * x[:, 0] / 2)
                               + 0.3 * x[:, 0] ** 2)
    kap = fl.kappa_s(params1)
    w = fl.extend(cyl, ops.partition, params1, u)
    cyl_norm = fl.x_norm(cyl, params1, w, kap)
    spec_norm = fl.frac_norm(interval_basis, params1, u)
    assert cyl_norm == pytest.approx(spec_norm, rel=5e-4)
    # the extension minimizes the weighted energy among same-trace fields
    rng = np.random.default_rng(7)
    delta = 0.05 * rng.standard_normal((ops.mesh.n_nodes, cyl.J - 1))
    bumped = w.perturbed(delta)
    assert np.array_equal(bumped.trace().values, u.values)
    assert fl.x_norm(cyl, params1, bumped, kap) > cyl_norm


@pytest.mark.parametrize("face_aligned", [True, False])
def test_extend_matches_assembled_cylinder_solve(face_aligned):
    # the interior cylinder system kron(A, Mw) + kron(M, Aw), with the trace
    # level moved to the right-hand side, solved directly; face-aligned
    # partitions take the factorization-free tensor solve, the others LU
    params = fl.FracParams(s=S, N=2)
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.5)], [8, 6])
    if face_aligned:
        part = fl.partition_boundary(mesh, [(0, 0), (1, 1)])
    else:
        part = fl.moving_family(mesh, [0.5])[0]
    ops = fl.assemble_operators(mesh, part)
    assert (ops.tensor is not None) == face_aligned
    cyl = fl.build_cylinder(mesh, 4.0, 24, 2.0)
    u = fl.Field.from_callable(
        mesh, part, lambda x: np.cos(x[:, 0]) * (1.0 + x[:, 1] ** 2))
    w = fl.extend(cyl, part, params, u)

    Aw, Mw = weighted_matrices(cyl.y, S)
    inner = slice(1, cyl.J)
    K = sp.kron(ops.A, Mw[inner, inner]) + sp.kron(ops.M, Aw[inner, inner])
    uf = u.free_values(ops)
    rhs = -(np.outer(ops.A @ uf, Mw[inner, [0]].toarray().ravel())
            + np.outer(ops.M @ uf, Aw[inner, [0]].toarray().ravel()))
    want = spla.spsolve(K.tocsc(), rhs.ravel()).reshape(ops.n_free, -1)
    # both are direct solves of one well-posed system: round-off only
    err = np.max(np.abs(w.values[ops.free, 1:cyl.J] - want))
    assert err < 1e-12 * np.max(np.abs(uf))


def _face_aligned_or_partial(face_aligned):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.5)], [8, 6])
    if face_aligned:
        part = fl.partition_boundary(mesh, [(0, 0), (1, 1)])
    else:
        part = fl.moving_family(mesh, [0.5])[0]
    return mesh, part


@pytest.mark.parametrize("face_aligned", [True, False])
def test_x_norm_is_the_assembled_quadratic_form(face_aligned):
    # x_norm^2 / kappa is w^T (kron(A, Mw) + kron(M, Aw)) w for any field,
    # not only for extensions: the minimality test compares perturbed ones
    params = fl.FracParams(s=S, N=2)
    mesh, part = _face_aligned_or_partial(face_aligned)
    ops = fl.assemble_operators(mesh, part)
    cyl = fl.build_cylinder(mesh, 4.0, 24, 2.0)
    u = fl.Field.from_callable(
        mesh, part, lambda x: np.cos(x[:, 0]) * (1.0 + x[:, 1] ** 2))
    w = fl.extend(cyl, part, params, u)
    Aw, Mw = weighted_matrices(cyl.y, S)
    K = sp.kron(ops.A, Mw) + sp.kron(ops.M, Aw)
    kap = fl.kappa_s(params)
    rng = np.random.default_rng(11)
    for scale in (0.0, 1e-3, 1.0):
        delta = scale * rng.standard_normal((mesh.n_nodes, cyl.J - 1))
        field = w.perturbed(delta)
        vec = field.values[ops.free, :].ravel()
        want = math.sqrt(kap * (vec @ (K @ vec)))
        got = fl.x_norm(cyl, params, field, kap)
        assert got == pytest.approx(want, rel=1e-12)


def test_x_norm_keeps_its_digits_on_a_graded_cylinder():
    # the Aw part of the energy sums conductances of size y_1^(-2s) against
    # level differences of size y^(2s); a reference in long double with
    # conductances from the long-double grid exposes any cancellation
    # (W^T Aw W formed in double misses by 8.5e-8 here)
    params = fl.FracParams(s=S, N=2)
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [16, 16])
    part = fl.partition_boundary(mesh, [(0, 0)])
    ops = fl.assemble_operators(mesh, part)
    basis = fl.eigendecompose(ops, m=1)
    cyl = fl.build_cylinder(mesh, 6.0 / math.sqrt(basis.lams[0]), 256, 3.0)
    w = fl.extend(cyl, part, params, fl.mode_field(basis, 1))

    ld = np.longdouble
    y, s = cyl.y.astype(ld), ld(S)
    cond = 2 * s / np.diff(y ** (2 * s))
    yl, yr, h = y[:-1], y[1:], np.diff(y)
    m0, m1, m2 = ((yr ** e - yl ** e) / e
                  for e in (k + 2 - 2 * s for k in range(3)))
    diag = np.zeros(len(y), dtype=ld)
    diag[:-1] += (m2 - 2 * yr * m1 + yr**2 * m0) / h**2
    diag[1:] += (m2 - 2 * yl * m1 + yl**2 * m0) / h**2
    off = (-m2 + (yl + yr) * m1 - yl * yr * m0) / h**2
    W = w.values[ops.free, :].astype(ld)
    AW = ops.A.toarray().astype(ld) @ W
    dW = np.diff(W, axis=1)
    want = (diag @ np.einsum("ij,ij->j", AW, W)
            + 2 * off @ np.einsum("ij,ij->j", AW[:, :-1], W[:, 1:])
            + cond @ np.einsum("ij,ij->j", ops.M.toarray().astype(ld) @ dW, dW))
    kap = fl.kappa_s(params)
    got = ld(fl.x_norm(cyl, params, w, kap)) ** 2 / ld(kap)
    assert abs(got - want) / want < 1e-12


@pytest.mark.parametrize("face_aligned", [True, False])
def test_extend_maps_a_rank_two_right_side(face_aligned, monkeypatch):
    # the right side -(A u) Mw[1:J, 0]^T - (M u) Aw[1:J, 0]^T has rank 2, so
    # the base dual sees its two factors, never J - 1 columns
    params = fl.FracParams(s=S, N=2)
    mesh, part = _face_aligned_or_partial(face_aligned)
    owner = fl.spectral.TensorEigs if face_aligned \
        else fl.spectral._CapacitanceKernel
    columns = []
    dual = owner.dual

    def counting(self, X):
        columns.append(X.shape[1])
        return dual(self, X)

    monkeypatch.setattr(owner, "dual", counting)
    cyl = fl.build_cylinder(mesh, 4.0, 24, 2.0)
    u = fl.Field.from_callable(mesh, part, lambda x: np.sin(x[:, 0] + x[:, 1]))
    for calls in (1, 2, 3):
        fl.extend(cyl, part, params, u)
        assert columns == [2] * calls
