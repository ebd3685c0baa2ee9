"""Shrinking the Dirichlet part until the minimizer can exist.

The Dirichlet portion of the bottom face is shrunk through a family of
fractions alpha.  As it shrinks, lambda_{1,s} decreases, the quotient bound
kappa * lambda_{1,s}^(N/(2s)) * |Omega| (a sufficient condition) eventually
drops below the attainment threshold, and the experiment records the onset.

Every alpha < 1 is a partial-facet partition (the Dirichlet-Neumann
interface runs through the inside of a face).  Those run on the
spectrum-free operator: lambda_1 by Lanczos, L^s and (L^s - lambda)^-1 by
Gauss-Jacobi sums of shifted solves, whose measured error is the
frac_rel_error column.  No dense eigensolve runs, so the 64^2 family below,
with more free nodes than the dense solve's cap DEFAULT_DOF_CAP, runs as
well.
"""
import fraclap as fl

params = fl.FracParams(s=0.75, N=2)
kap = fl.kappa_s(params)
alphas = [1.0, 0.75, 0.5, 0.25, 0.125]

for cells in (40, 64):
    mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [cells, cells])
    n_free = [fl.assemble_operators(mesh, part).n_free
              for part in fl.moving_family(mesh, alphas)]
    res = fl.move_boundary_experiment(mesh, params, alphas, kappa=kap)

    print(f"{cells}^2 cells, {min(n_free)}..{max(n_free)} free nodes "
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
