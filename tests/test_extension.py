"""Weighted cylinder extension: 1-D blocks, the solve, and the D-to-N trace."""
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special

import fraclap as fl
from fraclap._weighted1d import (
    cell_moments,
    graded_grid,
    harmonic_conductances,
    weighted_bands,
)
from fraclap.extension import _LEVEL_BLOCK, MIN_Y_CELLS

from conftest import m_norm
from kappa_oracle import (
    solve_mode_deviation,
    solve_mode_profile,
    weighted_slope_limit,
)
from sparse_oracle import mass, stiffness

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


def _weighted_matrices(y, s):
    # the weighted stiffness and mass as sparse CSR, from the library's bands
    dA, a, dM, eM = weighted_bands(y, s)
    return (sp.diags_array([dA, -a, -a], offsets=[0, 1, -1], format="csr"),
            sp.diags_array([dM, eM, eM], offsets=[0, 1, -1], format="csr"))


def test_weighted_stiffness_exact_on_layer_profile():
    # flux of y^(2s) through every harmonic conductance is exactly 2s, so
    # interior rows cancel identically and the end rows carry +-2s
    y = graded_grid(2.0, 40, 4.0)
    A, M = _weighted_matrices(y, S)
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
    A, M = _weighted_matrices(y, S)
    total = Y ** (2 - 2 * S) / (2 - 2 * S)
    assert M.sum() == pytest.approx(total, rel=1e-12)
    assert np.max(np.abs((A - A.T).toarray())) == 0.0
    assert np.max(np.abs((M - M.T).toarray())) == 0.0
    assert np.min(np.linalg.eigvalsh(M.toarray())) > 0


@pytest.mark.parametrize("s, J, gamma, mu", [
    (0.6, 50, 3.0, 1.0), (0.75, 200, 4.0, 7.5), (0.97, 400, 6.0, 1e-3)])
def test_mode_deviation_matches_sparse_assembled_system(s, J, gamma, mu):
    # the banded solve reads K = A + mu M and the right side -mu M 1 from
    # the bands; the system assembled from the sparse matrices gives the
    # same bits
    y = graded_grid(40.0, J, gamma)
    A, M = _weighted_matrices(y, s)
    K = A + mu * M
    rhs = (-mu * (M @ np.ones(J + 1)))[1:-1]
    rhs[-1] += K.diagonal(1)[-1]
    ab = np.zeros((3, J - 1))
    ab[0, 1:] = K.diagonal(1)[1:-1]
    ab[1] = K.diagonal(0)[1:-1]
    ab[2, :-1] = K.diagonal(-1)[1:-1]
    want = np.concatenate([[0.0], scipy.linalg.solve_banded((1, 1), ab, rhs),
                           [-1.0]])
    np.testing.assert_array_equal(solve_mode_deviation(y, s, mu), want)


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
    # a partition of another mesh, with equal node counts (a longer
    # interval) and with different ones
    for other in (fl.build_tensor_mesh(1, [(0.0, 2.0)], [128]),
                  fl.build_tensor_mesh(1, [(0.0, 1.0)], [32])):
        foreign = fl.partition_boundary(other, [(0, 0)])
        with pytest.raises(ValueError, match="does not belong"):
            fl.ExtensionField(values=good, cyl=cyl, partition=foreign)


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


def test_cylinder_keeps_a_solver_per_power(monkeypatch):
    # alternating powers on one cylinder reuse the solvers it holds: two
    # solvers are built for two powers, and on a partial facet each build
    # makes the one set of shifted base solves of its y-eigenvalues, which
    # the face-aligned elimination does without
    from fraclap import extension

    from fraclap.spectral import _CapacitanceKernel

    built, shifts = [], []
    solver = extension._InteriorSolver
    factor = _CapacitanceKernel.shifts

    def counting_solver(**fields):
        built.append(fields["s"])
        return solver(**fields)

    def counting_shifts(kernel, theta):
        shifts.append(theta)
        return factor(kernel, theta)

    monkeypatch.setattr(extension, "_InteriorSolver", counting_solver)
    monkeypatch.setattr(_CapacitanceKernel, "shifts", counting_shifts)
    for face_aligned in (True, False):
        built.clear()
        shifts.clear()
        mesh, part = _face_aligned_or_partial(face_aligned)
        cyl = fl.build_cylinder(mesh, 4.0, 24, 2.0)
        u = fl.Field.from_callable(mesh, part,
                                   lambda x: np.sin(x[:, 0] + x[:, 1]))
        for s in (0.6, 0.75, 0.6, 0.75):
            fl.extend(cyl, part, fl.FracParams(s=s, N=2), u)
        assert built == [0.6, 0.75]
        assert len(shifts) == (0 if face_aligned else 2)


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


def test_dtn_and_x_norm_refuse_another_cylinder(params2, monkeypatch):
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
    # a cylinder equal to w's grid is accepted, w's own one without
    # hashing the grid
    same = fl.build_cylinder(mesh, cyl.Y, 32, 3.0)
    assert fl.x_norm(same, params2, w, kap) == fl.x_norm(cyl, params2, w, kap)
    with monkeypatch.context() as m:
        m.delattr(fl.Mesh, "key")
        fl.x_norm(cyl, params2, w, kap)
        fl.dtn(cyl, params2, w, kap)
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


@pytest.mark.parametrize("s", [0.6, 0.75, 0.9, 0.97, 0.99])
def test_dtn_first_mode_holds_as_s_nears_one(interval_ops, interval_basis, s):
    # the discrete Neumann flux keeps the first-mode error near 1e-4 on the
    # default cylinder (Y = 6 / sqrt(lambda_1), J = 32, gamma = 3) up to
    # s = 0.99, where a fit of y^(2s) against y^2 reads 0.10
    ops = interval_ops
    params = fl.FracParams(s=s, N=1)
    phi = fl.mode_field(interval_basis, 1)
    lam1 = float(interval_basis.lams[0])
    cyl = fl.build_cylinder(ops.mesh, 6.0 / math.sqrt(lam1), 32, 3.0)
    w = fl.extend(cyl, ops.partition, params, phi)
    g = fl.dtn(cyl, params, w, fl.kappa_s(params))
    want = lam1 ** s
    err = m_norm(ops, g.free_values(ops) - want * phi.free_values(ops))
    assert err / want <= 1e-3


@pytest.mark.parametrize("form", ["per-mode", "partial-facet", "values-read"])
def test_dtn_pairs_with_the_trace_to_the_energy(form):
    # the interior rows of the weak form vanish on an extension and its
    # cap level is zero, so W^T K W = <u, dtn(w)>_M / kappa: the flux
    # paired with the trace is x_norm^2, whichever form w is held in.  A
    # field held per mode reads both from its solver's symbol, so they
    # agree to round-off; the others hold to 5e-11 here.  Reading C_0 for
    # C_1 in the mass term, a change below the discretization error,
    # moves it to 6e-7 (partial facet 4.3e-7)
    case = "square-half" if form == "partial-facet" else "square"
    mesh, part = _extension_cases()[case]
    ops = fl.assemble_operators(mesh, part)
    params, cyl, u, w = _extension_of(mesh, part)
    held = {"per-mode": "_modes", "partial-facet": "_coordinates"}
    if form == "values-read":
        w.values
        assert not {"_modes", "_coordinates"} & set(w.__dict__)
    else:
        assert held[form] in w.__dict__
    kap = fl.kappa_s(params)
    g = fl.dtn(cyl, params, w, kap)
    c = ops.coordinates(np.column_stack([u.free_values(ops),
                                         g.free_values(ops)]))
    paired = float(c[:, 0] @ c[:, 1])
    assert paired == pytest.approx(fl.x_norm(cyl, params, w, kap) ** 2,
                                   rel=1e-13 if form == "per-mode" else 1e-8)


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

    Aw, Mw = _weighted_matrices(cyl.y, S)
    A, M = stiffness(ops), mass(ops)
    inner = slice(1, cyl.J)
    K = sp.kron(A, Mw[inner, inner]) + sp.kron(M, Aw[inner, inner])
    uf = u.free_values(ops)
    rhs = -(np.outer(A @ uf, Mw[inner, [0]].toarray().ravel())
            + np.outer(M @ uf, Aw[inner, [0]].toarray().ravel()))
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
    Aw, Mw = _weighted_matrices(cyl.y, S)
    K = sp.kron(stiffness(ops), Mw) + sp.kron(mass(ops), Aw)
    kap = fl.kappa_s(params)
    # the extension in the form extend returns it, before perturbed reads
    # its values
    unperturbed = fl.x_norm(cyl, params, w, kap)
    rng = np.random.default_rng(11)
    for scale in (0.0, 1e-3, 1.0):
        delta = scale * rng.standard_normal((mesh.n_nodes, cyl.J - 1))
        field = w.perturbed(delta)
        vec = field.values[ops.free, :].ravel()
        want = math.sqrt(kap * (vec @ (K @ vec)))
        got = fl.x_norm(cyl, params, field, kap)
        assert got == pytest.approx(want, rel=1e-12)
        if scale == 0.0:
            assert unperturbed == pytest.approx(want, rel=1e-12)


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
    AW = stiffness(ops).toarray().astype(ld) @ W
    dW = np.diff(W, axis=1)
    MdW = mass(ops).toarray().astype(ld) @ dW
    want = (diag @ np.einsum("ij,ij->j", AW, W)
            + 2 * off @ np.einsum("ij,ij->j", AW[:, :-1], W[:, 1:])
            + cond @ np.einsum("ij,ij->j", MdW, dW))
    kap = fl.kappa_s(params)
    got = ld(fl.x_norm(cyl, params, w, kap)) ** 2 / ld(kap)
    assert abs(got - want) / want < 1e-12


@pytest.mark.parametrize("face_aligned", [True, False])
def test_extend_maps_a_rank_one_right_side(face_aligned, monkeypatch):
    # only interior level 1 couples to the trace, so in the y-eigenvectors
    # the right side is g Z[0]: each call takes one coordinate column to the
    # base, never J - 1, and forms no product with A or M
    params = fl.FracParams(s=S, N=2)
    mesh, part = _face_aligned_or_partial(face_aligned)
    columns = []
    coordinates = fl.OperatorPair.coordinates

    def counting(self, f):
        columns.append(1 if np.ndim(f) == 1 else np.shape(f)[1])
        return coordinates(self, f)

    def refuse(self):
        raise AssertionError("extend read A or M")

    monkeypatch.setattr(fl.OperatorPair, "coordinates", counting)
    for name in ("A", "M"):
        monkeypatch.setattr(fl.OperatorPair, name, property(refuse))
    cyl = fl.build_cylinder(mesh, 4.0, 24, 2.0)
    u = fl.Field.from_callable(mesh, part, lambda x: np.sin(x[:, 0] + x[:, 1]))
    for calls in (1, 2, 3):
        fl.extend(cyl, part, params, u)
        assert columns == [1] * calls


def test_solve_path_builds_no_sparse_matrix(monkeypatch):
    # A and M are filled from their 1-D bands, and the cylinder's Aw and Mw
    # enter extend and x_norm as bands: from assembly through x_norm no
    # sparse Kronecker product, diagonal constructor, sum or slice runs
    from fraclap import _weighted1d

    def refuse(*args, **kwargs):
        raise AssertionError("sparse matrix built on the solve path")

    for name in ("kron", "diags", "diags_array"):
        monkeypatch.setattr(sp, name, refuse)
        # a name imported from scipy.sparse into the module
        monkeypatch.setattr(_weighted1d, name, refuse, raising=False)
    owners = set()
    for cls in (sp.csr_matrix, sp.csr_array, sp.csc_matrix, sp.csc_array,
                sp.coo_matrix, sp.coo_array, sp.dia_matrix, sp.dia_array):
        for attr in ("__add__", "__radd__", "__getitem__"):
            owners |= {(c, attr) for c in cls.__mro__ if attr in vars(c)}
    for owner, attr in owners:
        monkeypatch.setattr(owner, attr, refuse)

    params = fl.FracParams(s=S, N=3)
    mesh = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [12] * 3)
    part = fl.partition_boundary(mesh, [(0, 0)])
    ops = fl.assemble_operators(mesh, part)
    assert ops.tensor is not None
    cyl = fl.build_cylinder(mesh, 4.0, 32, 3.0)
    u = fl.Field.from_callable(mesh, part, lambda x: x[:, 0] * (1.0 - x[:, 1]))
    w = fl.extend(cyl, part, params, u)
    assert fl.x_norm(cyl, params, w, fl.kappa_s(params)) > 0

    square = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [40, 40])
    half = fl.moving_family(square, [0.5])[0]
    assert fl.assemble_operators(square, half).kernel is not None


def _extension_cases():
    # face-aligned 2-D and 3-D (the 3-D one Dirichlet on a middle-axis
    # face), partial-facet 16^2 at alpha = 1/2 and a 3-D partial facet
    square = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [16, 16])
    cube = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [6, 6, 6])
    return {
        "square": (square, fl.partition_boundary(square, [(0, 0)])),
        "cube-middle-face": (cube, fl.partition_boundary(cube, [(1, 0)])),
        "square-half": (square, fl.moving_family(square, [0.5])[0]),
        "cube-half": (cube, fl.moving_family(cube, [0.5])[0]),
    }


def _extension_of(mesh, part, J=32):
    params = fl.FracParams(s=S, N=mesh.dim)
    cyl = fl.build_cylinder(mesh, 4.0, J, 3.0)
    u = fl.Field.from_callable(
        mesh, part, lambda x: np.cos(x[:, 0]) * (1.0 + x[:, 1] ** 2))
    return params, cyl, u, fl.extend(cyl, part, params, u)


def _eager_values(cyl, ops, params, u):
    # the nodal extension formed eagerly: every shifted solve synthesized
    # to nodal values first, then the product with Z^T
    from fraclap.spectral import _pencil_eigh, _tridiagonal

    dA, a, dM, eM = weighted_bands(cyl.y, params.s)
    J = cyl.J
    theta, Z = _pencil_eigh(_tridiagonal(dA[1:J], -a[1:J - 1]),
                            _tridiagonal(dM[1:J], eM[1:J - 1]))
    uf = u.free_values(ops)
    c = ops.coordinates(uf)
    g = a[0] * c - eM[0] * ops.stiffness(c)
    G = np.multiply.outer(g, Z[0])
    if ops.tensor is not None:
        X = G / (ops.tensor.values[:, None] + theta)
    else:
        X = ops.kernel.solve(G, ops.kernel.shifts(theta))
    full = np.zeros((cyl.base.n_nodes, J + 1))
    full[ops.free, 0] = uf
    full[ops.free, 1:J] = ops.synthesize(X) @ Z.T
    return full


@pytest.mark.parametrize("case", list(_extension_cases()))
def test_extension_from_coordinates_matches_its_nodal_copy(case):
    # an extension holds the coordinates of its levels and synthesizes
    # values on demand; the same field rebuilt from those values must give
    # the same x_norm and, up to the synthesis round-off, the same dtn
    mesh, part = _extension_cases()[case]
    ops = fl.assemble_operators(mesh, part)
    assert (ops.tensor is None) == case.endswith("half")
    params, cyl, u, w = _extension_of(mesh, part)
    kap = fl.kappa_s(params)
    flux = fl.dtn(cyl, params, w, kap).values
    norm = fl.x_norm(cyl, params, w, kap)

    eager = _eager_values(cyl, ops, params, u)
    scale = np.max(np.abs(eager))
    assert np.max(np.abs(w.values - eager)) <= 1e-13 * scale
    assert np.array_equal(w.values[:, 0], u.values)
    assert np.all(w.values[:, -1] == 0.0)
    assert np.all(w.values[part.dirichlet_node_mask] == 0.0)

    nodal = fl.ExtensionField(values=w.values, cyl=cyl, partition=part)
    assert fl.x_norm(cyl, params, nodal, kap) == pytest.approx(norm, rel=1e-13)
    # dtn weighs C_0 - C_1 by the first-cell conductance a_0 = 1.1e6; the
    # extension holds it in coordinates and the nodal copy takes it back
    # from level 1, which values synthesize as the trace less that
    # deviation, so the two differ by its round-off: at most 1.6e-11 of
    # the largest flux on these cases
    want = fl.dtn(cyl, params, nodal, kap).values
    assert np.max(np.abs(flux - want)) <= 1e-10 * np.max(np.abs(want))


def test_extension_values_are_read_only_copies():
    mesh, part = _extension_cases()["square"]
    params, cyl, u, w = _extension_of(mesh, part)
    with pytest.raises(ValueError):
        w.values[0, 1] = 1.0
    given = w.values.copy()
    nodal = fl.ExtensionField(values=given, cyl=cyl, partition=part)
    given[~part.dirichlet_node_mask, 1] += 1.0
    assert np.array_equal(nodal.values, w.values)
    with pytest.raises(ValueError):
        nodal.values[0, 1] = 1.0
    # a perturbed field is the field made from its values
    kap = fl.kappa_s(params)
    delta = 1e-2 * np.random.default_rng(5).standard_normal(
        (mesh.n_nodes, cyl.J - 1))
    v = w.values.copy()
    v[:, 1:-1] += delta
    v[part.dirichlet_node_mask] = 0.0
    made = fl.ExtensionField(values=v, cyl=cyl, partition=part)
    assert (fl.x_norm(cyl, params, w.perturbed(delta), kap)
            == fl.x_norm(cyl, params, made, kap))


@pytest.mark.parametrize("case", ["square", "square-half"])
def test_extension_holds_one_form_after_values_are_read(case):
    # an extension holds one coordinate form: on a face-aligned partition
    # its per-mode trace coordinates c and right side g with the solver,
    # on a partial facet the coordinates C of every level.  Reading values
    # drops that form, and x_norm forms C again from the values, as for a
    # field made from nodal values
    forms = {"_coordinates", "_modes"}
    mesh, part = _extension_cases()[case]
    params, cyl, u, w = _extension_of(mesh, part)
    kap = fl.kappa_s(params)
    before = fl.x_norm(cyl, params, w, kap)
    held = "_coordinates" if case.endswith("half") else "_modes"
    assert forms & set(w.__dict__) == {held}
    w.values
    assert not forms & set(w.__dict__)
    assert fl.x_norm(cyl, params, w, kap) == pytest.approx(before, rel=1e-13)


@pytest.mark.parametrize("case", list(_extension_cases()))
def test_extension_reads_as_the_coordinates_it_stands_for(case):
    # a face-aligned extension held per mode gives the same values, bit for
    # bit, and the same dtn and x_norm, through its solver's symbol, as
    # the field holding its level coordinates C = [c, g P, 0]
    mesh, part = _extension_cases()[case]
    params, cyl, u, w = _extension_of(mesh, part)
    kap = fl.kappa_s(params)
    levels = fl.ExtensionField._held(w._trace, cyl, part,
                                     _coordinates=w._levels())
    flux = fl.dtn(cyl, params, w, kap).values
    want = fl.dtn(cyl, params, levels, kap).values
    if case.endswith("half"):
        assert np.array_equal(flux, want)
    else:
        # the symbol forms c - C_1 as c (e_1 + eM_0 lambda) / d_1, the
        # level form as the difference of two coordinates near |c|, which
        # a_0 = 1.1e6 weighs: they agree to the round-off of the latter
        assert np.max(np.abs(flux - want)) <= 1e-10 * np.max(np.abs(want))
    assert (fl.x_norm(cyl, params, w, kap)
            == pytest.approx(fl.x_norm(cyl, params, levels, kap), rel=1e-13))
    # at a power other than its own, dtn and x_norm read C as well
    other = fl.FracParams(s=0.6, N=mesh.dim)
    assert np.array_equal(fl.dtn(cyl, other, w, kap).values,
                          fl.dtn(cyl, other, levels, kap).values)
    assert (fl.x_norm(cyl, other, w, kap)
            == fl.x_norm(cyl, other, levels, kap))
    assert np.array_equal(w.values, levels.values)


def test_repeat_extension_allocates_no_level_array():
    # with the solver warm, a repeat extend, its dtn and its x_norm on a
    # face-aligned partition work per mode and on three nodal levels: all
    # of it takes less memory than one n_R x (J+1) array of coordinates
    import tracemalloc

    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [32, 32])
    part = fl.partition_boundary(mesh, [(0, 0)])
    params, cyl, u, w = _extension_of(mesh, part, J=64)
    kap = fl.kappa_s(params)
    fl.dtn(cyl, params, w, kap)
    fl.x_norm(cyl, params, w, kap)
    n_R = len(fl.assemble_operators(mesh, part).relaxed.values)
    tracemalloc.start()
    try:
        w = fl.extend(cyl, part, params, u)
        fl.dtn(cyl, params, w, kap)
        fl.x_norm(cyl, params, w, kap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_R * (cyl.J + 1) * np.dtype(float).itemsize


def test_cold_extension_forms_no_profile():
    # a first extend on a new cylinder builds its solver by one elimination
    # per mode and forms no y-profile: with dtn and x_norm it takes less
    # memory than one n_R x (J+1) array, and the values read afterwards
    # form the profile and match the eager ones
    import tracemalloc

    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [32, 32])
    part = fl.partition_boundary(mesh, [(0, 0)])
    ops = fl.assemble_operators(mesh, part)
    params, old, u, _ = _extension_of(mesh, part)
    cyl = fl.build_cylinder(mesh, old.Y, old.J, old.gamma)
    kap = fl.kappa_s(params)
    tracemalloc.start()
    try:
        w = fl.extend(cyl, part, params, u)
        fl.dtn(cyl, params, w, kap)
        fl.x_norm(cyl, params, w, kap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_R = len(ops.relaxed.values)
    assert peak < n_R * (cyl.J + 1) * np.dtype(float).itemsize
    assert "profile" not in w._modes[2].__dict__
    eager = _eager_values(cyl, ops, params, u)
    assert np.max(np.abs(w.values - eager)) <= 1e-13 * np.max(np.abs(eager))


def _whole_values(w):
    # the nodal values with every interior level synthesized in one call
    J = w.cyl.J
    ops = w._ops
    C = w._levels()
    X = C[:, 1:J].copy()
    np.subtract(C[:, 0], X[:, 0], out=X[:, 0])
    v = np.zeros((w.cyl.base.n_nodes, J + 1))
    v[:, 0] = w._trace
    v[ops.free, 1:J] = ops.synthesize(X)
    v[:, 1] = v[:, 0] - v[:, 1]
    return v


@pytest.mark.parametrize("case, J", [("square", 32), ("square", 128),
                                     ("cube-middle-face", 32),
                                     ("square-half", 32)])
def test_blocked_values_equal_one_synthesis(case, J):
    # the values read a block of levels at a time equal, bit for bit, the
    # values of one synthesis of all J - 1 interior levels; J - 1 = 127 is
    # not a multiple of the block
    mesh, part = _extension_cases()[case]
    _, _, _, w = _extension_of(mesh, part, J=J)
    want = _whole_values(w)
    assert np.array_equal(w.values, want)


def test_blocked_values_on_a_larger_partial_facet():
    # BLAS tiles a product by its column count, so on the 40^2 partial
    # facet at alpha = 1/2 a block of levels can differ from one whole
    # synthesis in the last bits of an entry
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [40, 40])
    part = fl.moving_family(mesh, [0.5])[0]
    _, _, _, w = _extension_of(mesh, part)
    want = _whole_values(w)
    eps = np.finfo(float).eps
    assert np.max(np.abs(w.values - want)) <= 4 * eps * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["cube-12", "square-half"])
def test_reading_values_peaks_below_three_level_arrays(case):
    # reading an extension's values holds the values, the profile P on a
    # face-aligned partition and a few blocks of levels: under 3 n_R x
    # (J+1) arrays, where forming C and synthesizing all interior levels
    # at once took 4.9 (3.8 on the partial facet)
    import tracemalloc

    if case == "cube-12":
        mesh = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [12] * 3)
        part = fl.partition_boundary(mesh, [(0, 0)])
    else:
        mesh, part = _extension_cases()[case]
    _, cyl, _, w = _extension_of(mesh, part)
    n_R = len(fl.assemble_operators(mesh, part).relaxed.values)
    tracemalloc.start()
    try:
        w.values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n_R * (cyl.J + 1) * np.dtype(float).itemsize


def test_elimination_matches_dense_mode_solves():
    # the face-aligned solver's symbol and lazily formed profile against a
    # dense solve of (Aw + lambda_i Mw) P_i = e_1 on levels 1..J-1 for
    # every mode.  The symbol is the energy of the mode's extension with
    # trace 1, levels [1, g_i P_i, 0] for g_i = a_0 - eM_0 lambda_i:
    # lambda_i (dM_0 + 2 eM_0 q_i) + a_0 (1 - q_i)^2 + g_i^2 (lambda_i
    # sigma_i + tau_i), q_i = g_i P_i1, sigma_i and tau_i the Mw and Aw sums
    # of the dense P_i.  The y-eigenvector expansion that the elimination
    # replaced, P_i = (Z[0] / (lambda_i + theta)) Z^T, missed the dense
    # profile of the first mode by 3.2e-9 of its maximum here
    from fraclap.extension import _interior_solver

    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [16, 16])
    part = fl.partition_boundary(mesh, [(0, 0)])
    ops = fl.assemble_operators(mesh, part)
    cyl = fl.build_cylinder(mesh, 4.0, 128, 3.0)
    J = cyl.J
    solver = _interior_solver(part, cyl, S)
    dA, a, dM, eM = weighted_bands(cyl.y, S)
    Aw = np.diag(dA[1:J]) - np.diag(a[1:J - 1], 1) - np.diag(a[1:J - 1], -1)
    Mw = np.diag(dM[1:J]) + np.diag(eM[1:J - 1], 1) + np.diag(eM[1:J - 1], -1)
    lam = ops.relaxed.values
    e1 = np.eye(J - 1)[0]
    P = np.array([np.linalg.solve(Aw + mu * Mw, e1) for mu in lam])
    sigma = (np.einsum("ij,j,ij->i", P, dM[1:J], P)
             + 2.0 * np.einsum("ij,j,ij->i", P[:, :-1], eM[1:J - 1], P[:, 1:]))
    step = np.diff(P, axis=1)
    tau = (np.einsum("ij,j,ij->i", step, a[1:J - 1], step)
           + a[J - 1] * P[:, -1] ** 2)
    g = a[0] - eM[0] * lam
    q = g * P[:, 0]
    energy = (lam * (dM[0] + 2.0 * eM[0] * q) + a[0] * (1.0 - q) ** 2
              + g * g * (lam * sigma + tau))
    assert np.max(np.abs(solver.symbol / energy - 1.0)) <= 1e-13
    profile = solver.profile
    assert profile.shape == (J - 1, len(lam))
    assert np.max(np.abs(profile[0] / P[:, 0] - 1.0)) <= 1e-13
    err = np.abs(profile - P.T)
    # each mode's profile and each level, against its own maximum
    assert np.all(err <= 1e-13 * np.max(np.abs(P), axis=1))
    assert np.all(err <= 1e-13 * np.max(np.abs(P), axis=0)[:, None])


def test_extension_synthesizes_only_the_levels_it_reads(monkeypatch):
    # extend, dtn and x_norm stay in coordinates: one coordinate column (the
    # trace) and one synthesized column (dtn's flux); reading values
    # synthesizes each of the J - 1 interior levels once, in blocks of at
    # most _LEVEL_BLOCK
    coordinated, synthesized = [], []
    coordinates = fl.OperatorPair.coordinates
    synthesize = fl.OperatorPair.synthesize

    def columns(a):
        return 1 if np.ndim(a) == 1 else np.shape(a)[1]

    def counting_coordinates(self, f):
        coordinated.append(columns(f))
        return coordinates(self, f)

    def counting_synthesize(self, c):
        synthesized.append(columns(c))
        return synthesize(self, c)

    monkeypatch.setattr(fl.OperatorPair, "coordinates", counting_coordinates)
    monkeypatch.setattr(fl.OperatorPair, "synthesize", counting_synthesize)
    mesh, part = _extension_cases()["square"]
    params, cyl, u, w = _extension_of(mesh, part, J=32)
    kap = fl.kappa_s(params)
    fl.dtn(cyl, params, w, kap)
    fl.x_norm(cyl, params, w, kap)
    assert coordinated == [1]
    assert synthesized == [1]
    synthesized.clear()
    first = w.values
    assert w.values is first
    assert sum(synthesized) == cyl.J - 1
    assert max(synthesized) <= _LEVEL_BLOCK
