"""Identity term bookkeeping and the geometric nonexistence test."""
import math

import numpy as np
import pytest

import fraclap as fl
from fraclap._weighted1d import cell_moments
from fraclap.pohozaev import (
    NonlinearitySpec,
    critical_power,
    growth_defect,
    linear_plus_critical,
    nonexistence_check,
    pohozaev_terms,
)


def test_nonlinearity_spec_rejects_wrong_primitive(params2):
    with pytest.raises(ValueError, match="not a primitive"):
        NonlinearitySpec(f=lambda t: t, F=lambda t: t**3)
    with pytest.raises(ValueError, match="vanish at 0"):
        NonlinearitySpec(f=lambda t: 2 * t, F=lambda t: t**2 + 1.0)
    NonlinearitySpec(f=lambda t: 2 * t, F=lambda t: t**2)


def test_critical_power_defect_vanishes(params2, params3):
    ts = np.linspace(0.01, 10.0, 500)
    for params in (params2, params3):
        spec = critical_power(params)
        g = growth_defect(spec, params, ts)
        scale = np.max(np.abs(2 * params.N * spec.F(ts)))
        assert np.max(np.abs(g)) < 1e-14 * scale


def test_linear_term_breaks_the_defect_sign(params2):
    # g(t) = -2 s lam t^2 once the critical part cancels
    lam = 0.7
    spec = linear_plus_critical(params2, lam)
    ts = np.linspace(0.05, 5.0, 200)
    g = growth_defect(spec, params2, ts)
    want = -2.0 * params2.s * lam * ts**2
    assert np.all(g < 0)
    assert np.allclose(g, want, rtol=1e-10)


@pytest.fixture(scope="module")
def square_solution(params2):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [8, 8])
    part = fl.partition_boundary(mesh, [(0, 0)])
    ops = fl.assemble_operators(mesh, part)
    basis = fl.eigendecompose(ops, m="all")
    lam = 0.5 * float(basis.lams[0] ** params2.s)
    rep = fl.minimize_quotient(basis, params2, lam)
    sol = fl.rescale_to_solution(rep, basis, params2)
    Y = 6.0 / math.sqrt(float(basis.lams[0]))
    cyl = fl.build_cylinder(mesh, Y, 16, 3.0)
    w = fl.extend(cyl, part, params2, sol.v)
    return mesh, part, lam, sol, cyl, w


def test_zero_field_gives_exact_zero_terms(params2):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [4, 4])
    part = fl.partition_boundary(mesh, [(0, 0)])
    u = fl.Field(values=np.zeros(mesh.n_nodes), mesh=mesh, partition=part)
    cyl = fl.build_cylinder(mesh, 2.0, 16, 2.0)
    w = fl.extend(cyl, part, params2, u)
    spec = critical_power(params2)
    rep = pohozaev_terms(u, w, spec, params2, 0.478, (0.5, 0.5))
    assert rep.volume_uf == 0.0 and rep.volume_F == 0.0
    assert rep.lateral_neumann == 0.0 and rep.lateral_dirichlet == 0.0
    assert rep.boundary_neumann == 0.0
    assert rep.residual == 0.0
    assert rep.residual_over_scale == 0.0


def test_bookkeeping_identity_is_exact(square_solution, params2):
    mesh, part, lam, sol, cyl, w = square_solution
    spec = linear_plus_critical(params2, lam)
    kap = fl.kappa_s(params2)
    rep = pohozaev_terms(sol.v, w, spec, params2, kap, (0.5, 0.5))
    lhs = rep.volume_uf - rep.volume_F
    rhs = rep.lateral_neumann - rep.lateral_dirichlet - rep.boundary_neumann
    assert rep.residual == pytest.approx(lhs - rhs, abs=1e-14 * rep.scale)
    assert rep.scale == max(
        abs(rep.volume_uf), abs(rep.volume_F), abs(rep.lateral_neumann),
        abs(rep.lateral_dirichlet), abs(rep.boundary_neumann))
    assert rep.x0 == (0.5, 0.5)


def test_solution_residual_small_and_shrinking(square_solution, params2):
    mesh, part, lam, sol, cyl, w = square_solution
    spec = linear_plus_critical(params2, lam)
    kap = fl.kappa_s(params2)
    coarse = pohozaev_terms(sol.v, w, spec, params2, kap, (0.5, 0.5))
    assert abs(coarse.residual_over_scale) < 0.01

    fine_mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [12, 12])
    fine_part = fl.partition_boundary(fine_mesh, [(0, 0)])
    ops = fl.assemble_operators(fine_mesh, fine_part)
    basis = fl.eigendecompose(ops, m="all")
    lam_f = 0.5 * float(basis.lams[0] ** params2.s)
    rep = fl.minimize_quotient(basis, params2, lam_f)
    sol_f = fl.rescale_to_solution(rep, basis, params2)
    cyl_f = fl.build_cylinder(fine_mesh, 6.0 / math.sqrt(float(basis.lams[0])),
                              24, 3.0)
    w_f = fl.extend(cyl_f, fine_part, params2, sol_f.v)
    spec_f = linear_plus_critical(params2, lam_f)
    fine = pohozaev_terms(sol_f.v, w_f, spec_f, params2, kap, (0.5, 0.5))
    assert abs(fine.residual_over_scale) < abs(coarse.residual_over_scale)


def test_terms_reject_mismatched_inputs(square_solution, params2):
    mesh, part, lam, sol, cyl, w = square_solution
    spec = critical_power(params2)
    with pytest.raises(ValueError, match="x0 must have"):
        pohozaev_terms(sol.v, w, spec, params2, 0.478, (0.5,))
    # a field that does not match the trace of w
    other = fl.Field(values=sol.v.values * 1.5, mesh=mesh, partition=part)
    with pytest.raises(ValueError, match="traces differ"):
        pohozaev_terms(other, w, spec, params2, 0.478, (0.5, 0.5))
    foreign_mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [6, 6])
    foreign_part = fl.partition_boundary(foreign_mesh, [(0, 0)])
    foreign = fl.Field(values=np.zeros(foreign_mesh.n_nodes),
                       mesh=foreign_mesh, partition=foreign_part)
    with pytest.raises(ValueError, match="different meshes"):
        pohozaev_terms(foreign, w, spec, params2, 0.478, (0.5, 0.5))


def _corner(n):
    # the cone [0, 1]^2 with its apex at the origin: the faces through it
    # Neumann, the far faces Dirichlet
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [n, n])
    return fl.partition_boundary(mesh, [(0, 1), (1, 1)])


def test_cone_apex_predicts_nonexistence(params2):
    part = _corner(8)
    spec = critical_power(params2)
    rep = nonexistence_check(part.mesh, part, spec, params2, (0.0, 0.0))
    assert rep.flag == "NO-SOLUTION-PREDICTED"
    assert rep.geometry_ok and rep.growth_ok and not rep.mixed_sign
    assert rep.max_neumann_pairing <= 1e-10
    assert rep.min_dirichlet_pairing == pytest.approx(1.0, rel=1e-14)
    assert rep.exempted_facets == 0


def test_linear_term_blocks_the_prediction(params2):
    part = _corner(8)
    spec = linear_plus_critical(params2, 0.5)
    rep = nonexistence_check(part.mesh, part, spec, params2, (0.0, 0.0))
    assert rep.flag == "NO-PREDICTION"
    assert rep.geometry_ok and not rep.growth_ok
    assert rep.g_min < 0


def test_mixed_sign_pairing_is_inconclusive(params2):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [6, 6])
    part = fl.partition_boundary(mesh, [(0, 0)])
    spec = critical_power(params2)
    # center outside the box: the Neumann faces pair with both signs
    rep = nonexistence_check(mesh, part, spec, params2, (2.0, 0.5))
    assert rep.flag == "INCONCLUSIVE"
    assert rep.mixed_sign


def test_center_in_the_box_is_no_prediction(params2):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [6, 6])
    part = fl.partition_boundary(mesh, [(0, 0)])
    spec = critical_power(params2)
    rep = nonexistence_check(mesh, part, spec, params2, (0.5, 0.5))
    assert rep.flag == "NO-PREDICTION"
    assert not rep.mixed_sign and not rep.geometry_ok


def test_exempt_radius_counts_apex_facets(params2):
    part = _corner(8)
    spec = critical_power(params2)
    rep = nonexistence_check(part.mesh, part, spec, params2, (0.0, 0.0),
                             rho=0.2)
    # Neumann facet centroids within 0.2 of the apex: (0.0625, 0) and
    # (0.1875, 0) on each of the two lateral faces
    assert rep.exempted_facets == 4
    assert rep.flag == "NO-SOLUTION-PREDICTED"


def test_nonexistence_mismatched_partition_rejected(params2):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [4, 4])
    other = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [6, 6])
    part = fl.partition_boundary(other, [(0, 0)])
    with pytest.raises(ValueError):
        nonexistence_check(mesh, part, critical_power(params2), params2,
                           (0.0, 0.0))
    with pytest.raises(ValueError, match="components"):
        nonexistence_check(other, part, critical_power(params2), params2,
                           (0.0,))


def _per_facet_terms(u, w, spec, params, kappa, x0):
    """The boundary terms by a loop over facets, one base cell each.

    Gradients are one-sided element-centroid values of the multilinear
    interpolant on the cell next to the facet, from its 2^dim corners.
    """
    mesh = u.mesh
    y = w.cyl.y
    y_m0 = cell_moments(y, params.s)[0]
    lat = {True: 0.0, False: 0.0}
    bdry = 0.0
    for facet, is_dir in zip(mesh.facets, u.partition.dirichlet):
        a = facet.axis
        pairing = (1.0 if facet.side == 1 else -1.0) * (
            facet.centroid[a] - x0[a])
        cell = list(facet.index)
        cell.insert(a, mesh.n[a] - 1 if facet.side == 1 else 0)
        corners = [np.ravel_multi_index([c + o for c, o in zip(cell, offs)],
                                        mesh.shape)
                   for offs in np.ndindex(*(2,) * mesh.dim)]
        wc = w.values[corners, :].reshape(*(2,) * mesh.dim, len(y))
        per_cell = 0.0
        for d in range(mesh.dim):
            g = np.diff(wc, axis=d).reshape(-1, len(y)).mean(axis=0)
            g = g / mesh.spacing[d]
            per_cell = per_cell + (0.5 * (g[:-1] + g[1:])) ** 2
        mean = wc.reshape(-1, len(y)).mean(axis=0)
        per_cell = per_cell + (np.diff(mean) / np.diff(y)) ** 2
        lat[bool(is_dir)] += float(np.sum(per_cell * y_m0)) * facet.measure \
            * pairing
        if not is_dir:
            f_mean = float(np.mean(spec.F(u.values[mesh.facet_nodes(facet)])))
            bdry += f_mean * facet.measure * pairing
    return kappa * lat[False], kappa * lat[True], 2.0 * bdry


@pytest.mark.parametrize("dim, n, partial", [
    (1, 32, False), (2, 8, False), (2, 8, True), (3, 4, False), (3, 4, True),
])
@pytest.mark.parametrize("centred", [True, False])
def test_per_face_terms_match_per_facet_loop(dim, n, partial, centred):
    mesh = fl.build_tensor_mesh(dim, [(0.0, 1.0)] * dim, [n] * dim)
    part = (fl.moving_family(mesh, [0.4])[0] if partial
            else fl.partition_boundary(mesh, [(0, 0)]))
    ops = fl.assemble_operators(mesh, part)
    assert (ops.tensor is None) == partial
    basis = fl.eigendecompose(ops, m=3)
    u = fl.mode_field(basis, 1) + 0.4 * fl.mode_field(basis, 3)
    params = fl.FracParams(s=0.75, N=dim)
    cyl = fl.build_cylinder(mesh, 2.0, 16, 2.0)
    w = fl.extend(cyl, part, params, u)
    # a non-critical pair, so the 1-d case needs no critical exponent
    spec = NonlinearitySpec(f=lambda t: t**3 + t, F=lambda t: t**4 / 4 + t**2 / 2)
    x0 = (0.5,) * dim if centred else (0.2, 0.7, 0.4)[:dim]
    rep = pohozaev_terms(u, w, spec, params, 0.478, x0)
    got = (rep.lateral_neumann, rep.lateral_dirichlet, rep.boundary_neumann)
    want = _per_facet_terms(u, w, spec, params, 0.478, x0)
    for g, ref in zip(got, want):
        assert ref != 0.0
        assert abs(g - ref) <= 1e-12 * abs(ref)


def _per_facet_geometry(mesh, part, x0, rho):
    # Neumann and Dirichlet pairings and the exemption count, facet by facet
    neu, dirichlet, exempt = [], [], 0
    for facet, is_dir in zip(mesh.facets, part.dirichlet):
        pairing = float(np.dot(np.subtract(facet.centroid, x0), facet.normal))
        if is_dir:
            dirichlet.append(pairing)
        elif rho > 0 and np.linalg.norm(np.subtract(facet.centroid, x0)) <= rho:
            exempt += 1
        else:
            neu.append(pairing)
    return neu, dirichlet, exempt


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nonexistence_geometry_matches_per_facet_loop(dim):
    mesh = fl.build_tensor_mesh(dim, [(0.0, 1.0), (-0.5, 1.5), (0.0, 2.0)][:dim],
                                [4 + d for d in range(dim)])
    params = fl.FracParams(s=0.75, N=3)
    spec = critical_power(params)
    parts = [fl.partition_boundary(mesh, [(0, 1)])]
    if dim > 1:
        parts.append(fl.moving_family(mesh, [0.9])[0])
    for part in parts:
        for x0 in [(0.0, -0.5, 0.0)[:dim], (0.3, 1.2, 1.7)[:dim],
                   (1.4, 0.1, -0.2)[:dim]]:
            for rho in (0.0, 0.7, 1.3):
                rep = nonexistence_check(mesh, part, spec, params, x0, rho=rho)
                neu, dirichlet, exempt = _per_facet_geometry(mesh, part, x0, rho)
                assert rep.exempted_facets == exempt
                assert rep.max_neumann_pairing == pytest.approx(
                    max(map(abs, neu), default=0.0), abs=1e-15)
                assert rep.min_dirichlet_pairing == pytest.approx(
                    min(dirichlet), abs=1e-15)
                tol = 1e-10 * max(hi - lo for lo, hi in mesh.extents)
                assert rep.mixed_sign == (max(neu, default=0.0) > tol
                                          and min(neu, default=0.0) < -tol)
