"""Shrinking the Dirichlet part until the minimizer can exist.

The Dirichlet part, filled facet by facet from the face x = 0 on, is
shrunk through a family of measures alpha.  As it shrinks, lambda_{1,s}
decreases, the quotient bound kappa * lambda_{1,s}^(N/(2s)) * |Omega| (a
sufficient condition) eventually drops below the attainment threshold, and
the experiment records the onset.

Every alpha < 1 is a partial-facet partition (the Dirichlet-Neumann
interface runs through the inside of a face).  Those run on the
spectrum-free operator: lambda_1 by Lanczos, L^s and (L^s - lambda)^-1 by
Gauss-Jacobi sums of shifted solves, whose measured error is the
frac_rel_error column.  Each shifted solve is a capacitance correction
through the one partial face.  No dense eigensolve runs, so the 64^2
square and the 16^3 cube below, with more free nodes than the dense
solve's cap DEFAULT_DOF_CAP, run as well.
"""
import fraclap as fl

square = [1.0, 0.75, 0.5, 0.25, 0.125]
# (dimension, cells per axis, alphas)
families = [(2, 40, square), (2, 64, square), (3, 16, [1.0, 0.5])]

for dim, cells, alphas in families:
    params = fl.FracParams(s=0.75, N=dim)
    mesh = fl.build_tensor_mesh(dim, [(0.0, 1.0)] * dim, [cells] * dim)
    n_free = [fl.assemble_operators(mesh, part).n_free
              for part in fl.moving_family(mesh, alphas)]
    res = fl.move_boundary_experiment(mesh, params, alphas)

    print(f"{cells}^{dim} cells, {min(n_free)}..{max(n_free)} free nodes "
          f"(dense cap {fl.DEFAULT_DOF_CAP})")
    print("alpha (requested -> snapped), lambda_1, lambda_1^s, sufficient?, "
          "rational error")
    for row in res.rows:
        mark = ("  <-- onset" if row["alpha"] == res.onset_alpha
                and row["sufficient"] else "")
        print(f"  {row['alpha_requested']:.3f} -> {row['alpha']:.4f}   "
              f"lam1 = {row['lam_1_1']:.6f}   lam1^s = {row['lam_1_s']:.6f}   "
              f"bound = {row['bound']:.4f}   "
              f"{'yes' if row['sufficient'] else 'no '}   "
              f"{row['frac_rel_error']:.1e}{mark}")
    assert all(e <= 1e-12 for e in res.column("frac_rel_error"))
    print(f"threshold = {res.threshold:.6f}")
    print(f"onset alpha = {res.onset_alpha}\n")
