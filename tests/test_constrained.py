"""Spectrum-free operator of partial-facet partitions: kernel, rule, powers."""
import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings

import fraclap as fl
from fraclap.spectral import (
    ConstrainedOperator,
    _CapacitanceKernel,
    _gauss_jacobi,
    quotient_operator,
)

from test_spectral import _facet_labelings, _mixed_partition

S = 0.75
# shifts from below lambda_1 to far above the largest eigenvalue
THETAS = np.geomspace(1e-2, 1e6, 9)


def _kernel_solve(ops, F, theta):
    kernel = _CapacitanceKernel(*ops._relaxation)
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
        assert ops.tensor is not None and ops._relaxation is None
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
