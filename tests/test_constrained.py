"""Spectrum-free operator of partial-facet partitions: kernel, rule, powers."""
import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg._dsolve import _superlu

import fraclap as fl
from fraclap import spectral
from fraclap.spectral import (
    ConstrainedOperator,
    _CapacitanceKernel,
    _constrained_eigh,
    _gauss_jacobi,
    _kron_rows,
    _lanczos,
    _PowerRule,
    _sign_normalize,
    quotient_operator,
)

from test_spectral import _facet_labelings, _mixed_partition

S = 0.75
# shifts from below lambda_1 to far above the largest eigenvalue
THETAS = np.geomspace(1e-2, 1e6, 9)


def _kernel_solve(ops, F, theta):
    kernel = ops.kernel
    return kernel.synthesize(kernel.solve(kernel.dual(F), kernel.shifts(theta)))


def _assert_kernel_matches_spsolve(ops, seed=0):
    F = np.random.default_rng(seed).standard_normal((ops.n_free, len(THETAS)))
    got = _kernel_solve(ops, F, THETAS)
    for j, theta in enumerate(THETAS):
        want = spla.spsolve((ops.A + theta * ops.M).tocsc(), F[:, j])
        err = np.max(np.abs(got[:, j] - want))
        assert err <= 1e-12 * np.max(np.abs(want)), (theta, err)


def test_interval_partitions_are_face_aligned():
    # a 1-d face is one facet, so no 1-d partition is partial-facet and the
    # kernel never serves one; the tensor solve does
    mesh = fl.build_tensor_mesh(1, [(0.0, 1.0)], [9])
    assert len(mesh.facets) == 2
    for faces in ([(0, 0)], [(0, 1)]):
        ops = fl.assemble_operators(mesh, fl.partition_boundary(mesh, faces))
        assert ops.tensor is not None and ops.kernel is None
        assert isinstance(quotient_operator(ops), fl.SpectralBasis)


@pytest.mark.parametrize("part", [
    _mixed_partition((9, 7), {(0, 0): [True] * 4 + [False] * 3}),
    _mixed_partition((6, 5), {(0, 0): True,
                              (1, 0): [True, True, False, False, True,
                                       False]}),
    _mixed_partition((4, 3, 5), {(2, 1): [True] * 5 + [False] * 7}),
    _mixed_partition((5, 5, 5), {(0, 0): [True, False] * 12 + [True]}),
], ids=["2d-all-neumann-relaxation", "2d-dirichlet-neighbour",
        "3d-half-face", "3d-checkerboard"])
def test_capacitance_kernel_matches_sparse_solve(part):
    ops = fl.assemble_operators(part.mesh, part)
    assert ops.tensor is None
    _assert_kernel_matches_spsolve(ops)


@settings(max_examples=30, deadline=None)
@given(_facet_labelings())
def test_capacitance_kernel_matches_sparse_solve_on_random_labelings(part):
    ops = fl.assemble_operators(part.mesh, part)
    assume(ops.tensor is None)
    _assert_kernel_matches_spsolve(ops, seed=1)


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75, 0.9])
def test_gauss_jacobi_rule_matches_mpmath(a):
    # the n-point rule for (1 - x)^-a (1 + x)^(a - 1) integrates every
    # polynomial of degree below 2n exactly; exact moments from mpmath
    n = 10
    x, w = _gauss_jacobi(a, n)
    assert np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1
    assert np.all(w > 0)
    mpmath.mp.dps = 50
    alpha, beta = -mpmath.mpf(a), mpmath.mpf(a) - 1
    for k in range(2 * n):
        # x = 2y - 1 turns each moment into a sum of Beta integrals
        want = sum(mpmath.binomial(k, i) * 2**i * (-1) ** (k - i)
                   * mpmath.beta(beta + i + 1, alpha + 1)
                   for i in range(k + 1)) * 2 ** (alpha + beta + 1)
        assert abs(float(np.sum(w * x**k)) - float(want)) < 1e-13


@pytest.fixture(scope="module")
def square_partial():
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [12, 12])
    return fl.assemble_operators(mesh, fl.moving_family(mesh, [1.0, 0.5])[1])


@pytest.fixture(scope="module")
def cube_partial():
    part = _mixed_partition((5, 4, 6), {(0, 0): [True] * 12 + [False] * 12})
    return fl.assemble_operators(part.mesh, part)


@pytest.mark.parametrize("a", [1 - S, S])
def test_power_rule_error_against_mpmath(square_partial, a):
    op = ConstrainedOperator(square_partial)
    rule = op._rule(a)
    assert 0 < rule.error <= 1e-12
    lam_max = float(op._kernel.lam.max())
    theta, w = rule.shifts.theta, rule.weights
    mpmath.mp.dps = 30
    for lam in np.geomspace(op.lam1, lam_max, 97):
        got = float(np.sum(w / (lam + theta)))
        want = float(mpmath.mpf(lam) ** (-a))
        assert abs(got - want) <= 1.01e-12 * want
    assert op.frac_rel_error(S) == max(op._rule(S).error,
                                       op._rule(1 - S).error)


@pytest.mark.parametrize("ops_name", ["square_partial", "cube_partial"])
def test_constrained_operator_matches_dense_basis(request, ops_name):
    ops = request.getfixturevalue(ops_name)
    assert ops.tensor is None
    op = quotient_operator(ops)
    assert isinstance(op, ConstrainedOperator) and op.complete
    lams, U = scipy.linalg.eigh(ops.A.toarray(), ops.M.toarray())
    assert op.lam1 == pytest.approx(lams[0], rel=1e-12)
    phi1 = op.eigenfunction(1)[ops.free]
    assert abs(phi1 @ (ops.M @ U[:, 0])) == pytest.approx(1.0, abs=1e-10)
    assert phi1[np.argmax(np.abs(phi1))] > 0
    with pytest.raises(IndexError):
        op.eigenfunction(2)

    u = np.random.default_rng(3).standard_normal(ops.n_free)
    coeffs = U.T @ (ops.M @ u)
    c = op.coefficients(u)
    # coordinates are isometric: Euclidean products are M-products
    assert float(c @ c) == pytest.approx(float(u @ (ops.M @ u)), rel=1e-12)
    np.testing.assert_allclose(op.synthesize(c), u, rtol=0,
                               atol=1e-12 * np.max(np.abs(u)))

    def close(got, want):
        err = np.max(np.abs(got - want))
        assert err <= 1e-10 * np.max(np.abs(want))

    lam_s = lams**S
    energy, lc = op.form(c, S)
    close(op.synthesize(lc), U @ (lam_s * coeffs))
    assert energy == pytest.approx(float(np.sum(lam_s * coeffs**2)),
                                   rel=1e-10)
    for lam in (0.0, 0.5 * lam_s[0]):
        close(op.synthesize(op.power(c, S, lam)), U @ ((lam_s - lam) * coeffs))
        close(op.synthesize(op.resolvent(c, S, lam)),
              U @ (coeffs / (lam_s - lam)))
    assert op.lam1s(S) == pytest.approx(lams[0] ** S, rel=1e-12)


def test_fractional_functions_take_the_constrained_operator(square_partial):
    # frac_apply, frac_norm and lambda1s through the basis interface match
    # the dense complete basis on a partial-facet partition
    ops = square_partial
    params = fl.FracParams(s=S, N=2)
    op, dense = quotient_operator(ops), fl.eigendecompose(ops, m="all")
    u = fl.Field.from_free(
        ops, np.random.default_rng(4).standard_normal(ops.n_free))
    got, want = (fl.frac_apply(b, params, u).values for b in (op, dense))
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert fl.frac_norm(op, params, u) == pytest.approx(
        fl.frac_norm(dense, params, u), rel=1e-10)
    assert fl.lambda1s(op, params) == pytest.approx(
        fl.lambda1s(dense, params), rel=1e-12)


def test_quotient_operator_picks_by_partition_shape(square_ops, square_partial):
    basis = quotient_operator(square_ops)
    assert isinstance(basis, fl.SpectralBasis) and basis.complete
    assert basis.frac_rel_error(S) == 0.0
    with pytest.raises(ValueError):
        ConstrainedOperator(square_ops)
    assert isinstance(quotient_operator(square_partial), ConstrainedOperator)


def test_partition_builds_one_kernel_for_every_consumer(monkeypatch):
    # the dense eigensolve, the spectrum-free operator and the extension
    # solvers of two cylinders all use the pair's one capacitance kernel
    built = []
    init = _CapacitanceKernel.__init__

    def spy(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(_CapacitanceKernel, "__init__", spy)
    params = fl.FracParams(s=S, N=2)
    part = _mixed_partition((8, 8), {(0, 0): [True] * 4 + [False] * 4})
    ops = fl.assemble_operators(part.mesh, part)
    assert fl.eigendecompose(ops, m=3).m == 3
    op = quotient_operator(ops)
    assert fl.minimize_quotient(op, params, 0.0).converged
    u = fl.Field.from_callable(part.mesh, part, lambda x: x[:, 0])
    for J in (16, 24):
        fl.extend(fl.build_cylinder(part.mesh, 4.0, J, 2.0), part, params, u)
    assert built == [ops.kernel]
    assert op._kernel is ops.kernel


def test_spectral_basis_powers_are_coefficientwise(square_basis):
    a = np.random.default_rng(5).standard_normal(square_basis.m)
    lam_s = square_basis.lams**S
    lam = 0.3 * lam_s[0]
    energy, la = square_basis.form(a, S)
    assert energy == float(np.sum(lam_s * a**2))
    np.testing.assert_array_equal(la, lam_s * a)
    np.testing.assert_array_equal(square_basis.power(a, S, lam),
                                  (lam_s - lam) * a)
    np.testing.assert_array_equal(square_basis.resolvent(a, S, lam),
                                  a / (lam_s - lam))
    assert square_basis.lam1s(S) == lam_s[0]
    assert square_basis.lam1 == square_basis.lams[0]


# -- the face-tensor factorization of the kernel against its dense B ------

def _dense_c(B, h):
    return (B * h) @ B.T


def _assert_close(got, want, rel=1e-12):
    err = np.max(np.abs(got - want))
    assert err <= rel * np.max(np.abs(want)), err


def _dense_b(kernel):
    # V_R[D, :], multiplied out from R's 1-D eigenvectors at the nodes D
    # that R frees and the partition does not
    cut = np.setdiff1d(np.arange(len(kernel.lam)), kernel.pos)
    return _kron_rows(kernel.relaxed.vecs, cut)


def _assert_factored_kernel_matches_dense_b(ops, seed=0):
    kernel = ops.kernel
    B, lam = _dense_b(kernel), kernel.lam
    n_r = len(lam)
    rng = np.random.default_rng(seed)
    H = 1.0 / (lam[:, None] + THETAS[None, :])
    for C, h in zip(kernel._capacitance(H), H.T):
        _assert_close(np.tril(C), np.tril(_dense_c(B, h)))

    def dense_solve(g, h):
        z = np.linalg.solve(_dense_c(B, h), B @ (g * h))
        return (g - B.T @ z) * h

    sh = kernel.shifts(THETAS)
    G = rng.standard_normal((n_r, len(THETAS)))
    _assert_close(kernel.solve(G, sh),
                  np.stack([dense_solve(g, h) for g, h in zip(G.T, H.T)], 1))

    w = rng.uniform(0.5, 2.0, len(THETAS))
    g = rng.standard_normal(n_r)
    rule = _PowerRule(weights=w, shifts=sh, error=0.0)
    want = sum(wj * dense_solve(g, h) for wj, h in zip(w, H.T))
    _assert_close(kernel.weighted(g, rule), want)

    X = rng.standard_normal((n_r, 3))
    want = X - B.T @ np.linalg.solve(B @ B.T, B @ X)
    _assert_close(kernel.project(X), want)
    _assert_close(kernel.project(X[:, 0]), want[:, 0])


def _ops(part):
    return fl.assemble_operators(part.mesh, part)


def _one_face(n, alpha):
    mesh = fl.build_tensor_mesh(len(n), [(0.0, 1.0)] * len(n), n)
    return fl.assemble_operators(mesh, fl.moving_family(mesh, [alpha])[0])


@pytest.mark.parametrize("ops", [
    pytest.param(lambda: _one_face((40, 40), 0.5), id="40x40-half"),
    pytest.param(lambda: _one_face((16, 16, 16), 0.5), id="16^3-half"),
    pytest.param(lambda: _ops(_mixed_partition(
        (6, 5), {(0, 0): True, (1, 0): [True, True, False, False, True,
                                        False]})),
        id="2d-dirichlet-neighbour"),
])
def test_factored_kernel_matches_dense_b(ops):
    ops = ops()
    # D lies on one face, so the kernel holds B_f with fewer columns than B
    assert ops.kernel._layout[1] > 1
    assert ops.kernel.B_f.shape[1] < _dense_b(ops.kernel).shape[1]
    _assert_factored_kernel_matches_dense_b(ops)


@st.composite
def _one_face_fills(draw):
    # one face labelled facet by facet with both labels present, every
    # other face wholly Dirichlet or wholly Neumann
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.lists(st.integers(3, 8 if dim == 2 else 5),
                      min_size=dim, max_size=dim))
    mesh = fl.build_tensor_mesh(dim, [(0.0, 1.0)] * dim, n)
    faces = list(mesh.faces())
    mixed = draw(st.integers(0, len(faces) - 1))
    labels = []
    for k, (_, _, facets, _, _) in enumerate(faces):
        count = facets.stop - facets.start
        if k == mixed:
            face = draw(st.lists(st.booleans(), min_size=count,
                                 max_size=count))
            assume(any(face) and not all(face))
            labels += face
        else:
            labels += [draw(st.booleans())] * count
    return fl.BoundaryPartition(mesh, tuple(labels))


@settings(max_examples=30, deadline=None)
@given(_one_face_fills())
def test_factored_kernel_matches_dense_b_on_random_one_face_fills(part):
    ops = _ops(part)
    assert ops.tensor is None and ops.kernel._layout[1] > 1
    _assert_factored_kernel_matches_dense_b(ops, seed=2)


def test_one_face_move_boundary_never_builds_dense_b(monkeypatch):
    # every row block of R's eigenvectors is multiplied out by _kron_rows;
    # on the partial-facet alphas none may be as wide as R's eigenbasis
    widths = []

    def spy(mats, flat):
        rows = _kron_rows(mats, flat)
        widths.append(rows.shape[1])
        return rows

    monkeypatch.setattr(spectral, "_kron_rows", spy)
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [8, 8])
    res = fl.move_boundary_experiment(mesh, fl.FracParams(s=S, N=2),
                                      [1.0, 0.5, 0.25])
    assert len(res.rows) == 3
    assert widths  # the face rows B_f of each partial-facet kernel
    # partly Dirichlet x = 0 relaxes to all Neumann: R frees all 9 x 9 nodes
    n_r = {len(_ops(part).kernel.lam)
           for part in fl.moving_family(mesh, [0.5, 0.25])}
    assert n_r == {81} and 81 not in widths


# -- Lanczos with the kernel as its inverse --------------------------------

@pytest.fixture(scope="module")
def square40_family():
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [40, 40])
    return dict(zip([0.75, 0.5, 0.25, 0.125],
                    fl.moving_family(mesh, [0.75, 0.5, 0.25, 0.125])))


@pytest.mark.parametrize("alpha", [0.75, 0.5, 0.25, 0.125])
def test_lanczos_matches_dense_eigh(square40_family, alpha):
    ops = _ops(square40_family[alpha])
    lams, vecs = _lanczos(ops, 1)
    mu, X = _constrained_eigh(ops.kernel, 1)
    assert lams[0] == pytest.approx(mu[0], rel=1e-10)
    d = _sign_normalize(vecs)[:, 0] - _sign_normalize(X)[:, 0]
    assert np.sqrt(d @ (ops.M @ d)) <= 1e-8


def test_lanczos_builds_no_sparse_lu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sparse LU factorization built")

    monkeypatch.setattr(_superlu, "gstrf", refuse)
    part = _mixed_partition((9, 7), {(0, 0): [True] * 4 + [False] * 3})
    ops = _ops(part)
    op = ConstrainedOperator(ops)
    basis = fl.eigendecompose(ops, m=3)
    lams = scipy.linalg.eigh(ops.A.toarray(), ops.M.toarray(),
                             eigvals_only=True)
    assert op.lam1 == pytest.approx(lams[0], rel=1e-10)
    np.testing.assert_allclose(basis.lams, lams[:3], rtol=1e-10)
