"""Eigenmodes of the mixed interval against the closed form.

On (0, 1) with a Dirichlet end at x = 0 and a Neumann end at x = 1 the
Laplacian eigenvalues are ((k - 1/2) pi)^2, so every piece of the spectral
machinery can be checked against pencil and paper.  This script builds the
discretization, prints the first few eigenvalues next to the exact ones,
and shows how the fractional powers lambda_k^s follow.
"""
import math

import numpy as np

import fraclap as fl

mesh = fl.build_tensor_mesh(1, [(0.0, 1.0)], [256])
part = fl.partition_boundary(mesh, [(0, 0)])
ops = fl.assemble_operators(mesh, part)
basis = fl.eigendecompose(ops, m=6)

params = fl.FracParams(s=0.75, N=1)

print("interval (0,1), Dirichlet at 0, Neumann at 1, n = 256")
print(f"{'k':>3} {'lambda_k':>14} {'exact':>14} {'rel err':>10} {'lambda_k^s':>14}")
for k in range(1, 7):
    lam = float(basis.lams[k - 1])
    exact = ((k - 0.5) * math.pi) ** 2
    rel = abs(lam - exact) / exact
    print(f"{k:>3} {lam:>14.6f} {exact:>14.6f} {rel:>10.2e} {lam**params.s:>14.6f}")

phi1 = basis.eigenfunction(1)
positive = bool(np.all(phi1[ops.mesh.interior_node_mask] > 0))
print(f"\nphi_1 is positive on the interior nodes: {positive}")
print(f"lambda_1^s via lambda1s(): {fl.lambda1s(basis, params):.8f}")
