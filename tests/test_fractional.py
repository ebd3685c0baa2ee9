"""Fractional operator through the eigenbasis: fields, powers, quotients."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclap as fl
from fraclap.fractional import Field, FracParams, TruncatedBasisError

from conftest import m_norm


def test_params_validation():
    with pytest.raises(ValueError):
        FracParams(s=0.5, N=2)
    with pytest.raises(ValueError):
        FracParams(s=1.0, N=2)
    with pytest.raises(ValueError):
        FracParams(s=0.75, N=4)


def test_critical_exponent_values():
    assert FracParams(s=0.75, N=3).two_star == pytest.approx(4.0)
    assert FracParams(s=0.75, N=2).two_star == pytest.approx(8.0)
    assert FracParams(s=0.6, N=3).two_star == pytest.approx(10 / 3)
    with pytest.raises(ValueError):
        FracParams(s=0.75, N=1).two_star  # N <= 2s: no critical regime


def test_dim_at_least_4s_label():
    assert FracParams(s=0.75, N=3).dim_at_least_4s
    assert not FracParams(s=0.8, N=3).dim_at_least_4s
    assert not FracParams(s=0.75, N=2).dim_at_least_4s


def test_field_validation(square_ops):
    mesh, part = square_ops.mesh, square_ops.partition
    with pytest.raises(ValueError):
        Field(values=np.zeros(3), mesh=mesh, partition=part)
    bad = np.ones(mesh.n_nodes)
    with pytest.raises(ValueError):
        Field(values=bad, mesh=mesh, partition=part)  # nonzero on Dirichlet
    nan = np.zeros(mesh.n_nodes)
    nan[5] = np.nan
    with pytest.raises(ValueError):
        Field(values=nan, mesh=mesh, partition=part)


def test_field_from_callable_zeroes_dirichlet(square_ops):
    mesh, part = square_ops.mesh, square_ops.partition
    u = Field.from_callable(mesh, part, lambda x: 1.0 + x[:, 0])
    assert np.all(u.values[part.dirichlet_node_mask] == 0.0)
    free = u.free_values(square_ops)
    assert free.shape == (len(square_ops.free),)


def test_field_arithmetic(square_ops):
    u = Field.from_free(square_ops, np.ones(len(square_ops.free)))
    v = 2.0 * u - u
    np.testing.assert_allclose(v.values, u.values)
    other_mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [5, 5])
    other_part = fl.partition_boundary(other_mesh, [(0, 0)])
    w = Field(values=np.zeros(other_mesh.n_nodes), mesh=other_mesh,
              partition=other_part)
    with pytest.raises(ValueError):
        u + w


def test_field_refuses_a_partition_of_another_mesh(square_ops):
    # with equal node counts (a stretched square) and with different ones
    mesh = square_ops.mesh
    for other in (fl.build_tensor_mesh(2, [(0.0, 2.0), (0.0, 1.0)], [12, 12]),
                  fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [5, 5])):
        part = fl.partition_boundary(other, [(0, 0)])
        with pytest.raises(ValueError, match="does not belong"):
            Field(values=np.zeros(mesh.n_nodes), mesh=mesh, partition=part)


def test_field_from_another_partition_is_refused(params2):
    # same mesh, two partitions: a field is read only through its own
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [16, 16])
    bases = [fl.eigendecompose(fl.assemble_operators(
        mesh, fl.partition_boundary(mesh, [face])), m="all")
        for face in ((0, 0), (1, 1))]
    u = fl.mode_field(bases[0], 1)
    assert fl.frac_norm(bases[0], params2, u) > 0.0
    other = bases[1]
    with pytest.raises(ValueError, match="another partition"):
        u.free_values(other.ops)
    for call in (fl.frac_norm, fl.frac_apply, fl.spectral_tail_bound):
        with pytest.raises(ValueError, match="another partition"):
            call(other, params2, u)
    with pytest.raises(ValueError, match="another partition"):
        fl.quotient(other, params2, 0.0, u)


def test_mode_field_coefficients_are_unit_vectors(square_basis, params2):
    for k in (1, 2, 5):
        u = fl.mode_field(square_basis, k)
        a = square_basis.coefficients(u.free_values(square_basis.ops))
        e = np.zeros_like(a)
        e[k - 1] = 1.0
        np.testing.assert_allclose(a, e, atol=1e-10)


def test_frac_apply_eigenfunction(square_basis, params2):
    # (operator)^s phi_k = lambda_k^s phi_k, exactly in the discrete model
    for k in (1, 3):
        u = fl.mode_field(square_basis, k)
        out = fl.frac_apply(square_basis, params2, u)
        lam_s = square_basis.lams[k - 1] ** params2.s
        np.testing.assert_allclose(out.values, lam_s * u.values,
                                   rtol=1e-11, atol=1e-11)


def test_frac_apply_s_one_recovers_weak_laplacian(interval_basis):
    # at s -> 1 the power law gives lambda_k itself; compare on a mode
    params = FracParams(s=0.999, N=1)
    u = fl.mode_field(interval_basis, 2)
    out = fl.frac_apply(interval_basis, params, u)
    lam = interval_basis.lams[1]
    np.testing.assert_allclose(out.values, lam**0.999 * u.values, rtol=1e-9,
                               atol=1e-9)


def test_frac_apply_requires_complete_basis(square_ops, params2):
    trunc = fl.eigendecompose(square_ops, m=4)
    u = fl.mode_field(trunc, 1)
    with pytest.raises(TruncatedBasisError):
        fl.frac_apply(trunc, params2, u)
    out = fl.frac_apply(trunc, params2, u, allow_truncated=True)
    lam_s = trunc.lams[0] ** params2.s
    np.testing.assert_allclose(out.values, lam_s * u.values, rtol=1e-11,
                               atol=1e-12)


def test_spectral_tail_estimate_prices_last_band(square_ops, square_basis,
                                                 params2):
    # the estimate is lambda_m^s times the unresolved M-mass; it sits below
    # the true tail because every dropped eigenvalue exceeds the last
    # retained one
    trunc = fl.eigendecompose(square_ops, m=6)
    rng = np.random.default_rng(3)
    uf = rng.standard_normal(len(square_ops.free))
    u = Field.from_free(square_ops, uf)
    a_full = square_basis.coefficients(uf)
    lam_s = square_basis.lams ** params2.s
    true_tail = float(np.sum(lam_s[6:] * a_full[6:] ** 2))
    missing = float(np.sum(a_full[6:] ** 2))
    est = fl.spectral_tail_bound(trunc, params2, u)
    assert est == pytest.approx(lam_s[5] * missing, rel=1e-8)
    assert 0.0 < est <= true_tail * (1 + 1e-10)
    # a field inside the resolved span has no tail to report
    in_span = fl.mode_field(trunc, 2)
    assert fl.spectral_tail_bound(trunc, params2, in_span) < 1e-10


def test_parseval_and_frac_norm(square_basis, params2):
    ops = square_basis.ops
    rng = np.random.default_rng(11)
    uf = rng.standard_normal(len(ops.free))
    u = Field.from_free(ops, uf)
    a = square_basis.coefficients(uf)
    # Parseval in the M inner product
    np.testing.assert_allclose(float(a @ a), m_norm(ops, uf) ** 2, rtol=1e-10)
    want = math.sqrt(float(np.sum(square_basis.lams**params2.s * a**2)))
    assert fl.frac_norm(square_basis, params2, u) == pytest.approx(want)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=-8.0, max_value=8.0,
                   allow_nan=False, allow_infinity=False))
def test_frac_apply_homogeneous(square_basis, params2, c):
    u = fl.mode_field(square_basis, 2) + 0.5 * fl.mode_field(square_basis, 4)
    left = fl.frac_apply(square_basis, params2, c * u)
    right = c * fl.frac_apply(square_basis, params2, u)
    np.testing.assert_allclose(left.values, right.values, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_interpolation_inequality(square_basis, params2, seed):
    # spectral Hoelder: ||u||_s^2 <= (||u||_1^2)^s (||u||_0^2)^(1-s)
    ops = square_basis.ops
    rng = np.random.default_rng(seed)
    uf = rng.standard_normal(len(ops.free))
    a = square_basis.coefficients(uf)
    lams = square_basis.lams
    e_s = float(np.sum(lams**params2.s * a**2))
    e_1 = float(np.sum(lams * a**2))
    e_0 = float(np.sum(a**2))
    assert e_s <= e_1**params2.s * e_0 ** (1 - params2.s) * (1 + 1e-12)


def test_lambda1s_is_principal_power(square_basis, params2):
    assert fl.lambda1s(square_basis, params2) == pytest.approx(
        float(square_basis.lams[0] ** params2.s), rel=1e-15)


def test_critical_norm_homogeneity_and_quadratures(square_ops, params2):
    rng = np.random.default_rng(5)
    uf = rng.standard_normal(len(square_ops.free))
    n1 = fl.critical_norm(square_ops, params2, uf)
    n3 = fl.critical_norm(square_ops, params2, 3.0 * uf)
    assert n3 == pytest.approx(3.0 * n1, rel=1e-12)


def test_cutoff_profile_shape():
    t = np.linspace(0.0, 1.5, 301)
    vals = fl.cutoff_profile(t)
    assert np.all(vals[t <= 0.5] == 1.0)
    assert np.all(vals[t >= 1.0] == 0.0)
    mid = vals[(t > 0.5) & (t < 1.0)]
    assert np.all(np.diff(mid) <= 1e-12)
    assert np.all((mid >= 0.0) & (mid <= 1.0))


def test_extremal_bubble_profile(params3):
    r = np.array([0.0, 0.5, 1.0])
    eps = 0.3
    vals = fl.extremal_bubble(params3, eps, r)
    q = (params3.N - 2 * params3.s) / 2.0
    np.testing.assert_allclose(vals, eps**q / (eps**2 + r**2) ** q, rtol=1e-14)
    assert np.all(np.diff(vals) < 0)
    with pytest.raises(ValueError):
        fl.extremal_bubble(params3, 0.0, r)


def test_test_function_quotient_guards(params2):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [16, 16])
    part = fl.partition_boundary(mesh, [(0, 0)])
    x0 = (1.0, 0.5)  # interior point of the Neumann face x=1
    with pytest.raises(ValueError):
        fl.test_function_quotient(mesh, part, params2, (0.0, 0.5),
                                  rho=0.4, eps=0.3)  # on the Dirichlet face
    with pytest.raises(ValueError):
        fl.test_function_quotient(mesh, part, params2, x0, rho=0.2, eps=0.3)
    with pytest.raises(ValueError):
        fl.test_function_quotient(mesh, part, params2, x0, rho=0.7, eps=0.3)
    with pytest.raises(ValueError):
        fl.test_function_quotient(mesh, part, params2, x0, rho=0.4, eps=0.01)
    with pytest.raises(ValueError):
        fl.test_function_quotient(mesh, part, params2, x0, rho=0.4, eps=0.3,
                                  route="spectral")  # needs a basis
    with pytest.raises(ValueError):
        fl.test_function_quotient(mesh, part, params2, (0.5,), rho=0.4,
                                  eps=0.3)


def test_test_function_quotient_routes_agree(params2):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0), (0.0, 1.0)], [16, 16])
    part = fl.partition_boundary(mesh, [(0, 0)])
    ops = fl.assemble_operators(mesh, part)
    basis = fl.eigendecompose(ops, m="all")
    x0 = (1.0, 0.5)
    spec = fl.test_function_quotient(mesh, part, params2, x0, rho=0.45,
                                     eps=0.3, route="spectral", basis=basis)
    ext = fl.test_function_quotient(mesh, part, params2, x0, rho=0.45,
                                    eps=0.3, route="extension", J=48)
    assert spec.route == "spectral" and ext.route == "extension"
    assert spec.value > 0 and ext.value > 0
    # two independent energy routes agree to discretization accuracy
    assert ext.energy == pytest.approx(spec.energy, rel=0.02)
    assert ext.l2_sq == pytest.approx(spec.l2_sq, rel=1e-10)
    assert ext.crit_sq == pytest.approx(spec.crit_sq, rel=1e-10)
