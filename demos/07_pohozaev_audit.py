"""Auditing computed solutions with the boundary identity.

A genuine solution of the critical problem satisfies an integral identity
tying the extension energy to boundary flux terms.  Evaluated on discrete
solutions the identity leaves a residual that must shrink under refinement;
evaluated symbolically on a cone with the vertex at the dilation center it
predicts nonexistence outright for supercritical-type nonlinearities.  The
cone here is the unit cube seen from its corner at the origin: the faces
through that corner are Neumann and pair to 0 with x - x0, the far faces
Dirichlet.
"""
import math

import fraclap as fl

params = fl.FracParams(s=0.75, N=3)
kap = fl.kappa_s(params)
x0 = (0.5, 0.5, 0.5)

print("residual / scale of the identity on computed cube solutions:")
for n, J in ((6, 16), (9, 24), (12, 32)):
    mesh = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [n] * 3)
    part = fl.partition_boundary(mesh, [(0, 0)])
    ops = fl.assemble_operators(mesh, part)
    basis = fl.eigendecompose(ops, m="all")
    lam = 0.5 * float(basis.lams[0]) ** params.s
    sol = fl.rescale_to_solution(fl.minimize_quotient(basis, params, lam),
                                 basis, params)
    cyl = fl.build_cylinder(mesh, 6.0 / math.sqrt(float(basis.lams[0])), J, 3.0)
    w = fl.extend(cyl, part, params, sol.v)
    rep = fl.pohozaev_terms(sol.v, w, fl.linear_plus_critical(params, lam),
                            params, kap, x0)
    print(f"  {n:>2}^3 cells, J = {J:<3}  residual/scale = "
          f"{abs(rep.residual_over_scale):.3e}")

print("\ncone with apex at the dilation center:")
mesh = fl.build_tensor_mesh(3, [(0.0, 1.0)] * 3, [6] * 3)
part = fl.partition_boundary(mesh, [(d, 1) for d in range(3)])
rep = fl.nonexistence_check(mesh, part, fl.critical_power(params), params,
                            (0.0, 0.0, 0.0))
print(f"  max |<x - x0, nu>| on the Neumann part: {rep.max_neumann_pairing:.1e}")
print(f"  min <x - x0, nu> on the Dirichlet part: {rep.min_dirichlet_pairing:.3f}")
print(f"  verdict: {rep.flag}")
