"""Minimizing the critical quotient below the principal eigenvalue.

For 0 < lambda < lambda_{1,s} the quotient S_lambda is positive and its
minimizer, rescaled, solves the critical problem.  At or above lambda_{1,s}
the infimum is not positive and no solution exists; the solver flags this
instead of iterating.  Below it the solver runs the monotone fixed point
u <- |(L^s - lambda)^-1 u^(2*-1)| on the critical-norm sphere until the
Euler-Lagrange residual reaches solver precision.  The script minimizes on
a mixed square, rescales, and then sweeps lambda across the eigenvalue to
show the flag flipping.
"""
import numpy as np

import fraclap as fl

mesh = fl.build_tensor_mesh(2, [(0.0, 1.0)] * 2, [12, 12])
part = fl.partition_boundary(mesh, [(0, 0)])
ops = fl.assemble_operators(mesh, part)
basis = fl.eigendecompose(ops, m="all")
params = fl.FracParams(s=0.75, N=2)

lam1s = fl.lambda1s(basis, params)
lam = 0.5 * lam1s
print(f"lambda_1,s = {lam1s:.6f}; minimizing at lambda = {lam:.6f}")

rep = fl.minimize_quotient(basis, params, lam)
print(f"flag {rep.flag}, converged {rep.converged} "
      f"in {rep.iterations} fixed-point steps")
print(f"S_lambda       = {rep.value:.8f}")
print(f"EL residual    = {rep.el_residual:.2e}")
print(f"participation  = {rep.participation:.4f}")

sol = fl.rescale_to_solution(rep, basis, params)
print(f"rescaled solution: positive {sol.positive}, "
      f"min interior {sol.min_interior:.4f}, max {np.max(sol.v.values):.4f}")
print(f"equation residual (relative) {sol.residual_rel:.2e}")

print("\nsweep across the eigenvalue:")
res = fl.sweep_lambda(basis, params, [f * lam1s for f in (0.3, 0.6, 0.9, 1.0, 1.2)])
for row in res.rows:
    tag = "NONEXISTENCE" if row["nonexistence"] else "OK          "
    val = "     --   " if np.isnan(row["S_lambda"]) else f"{row['S_lambda']:.6f}"
    print(f"  lambda/lambda_1,s = {row['lam'] / lam1s:.2f}   {tag}   S = {val}"
          f"   witness = {row['witness_quotient']:+.4f}")
