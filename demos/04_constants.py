"""Coupling constant, Sobolev constant, attainment threshold.

All three come from closed forms.  kappa_s = 2^(2s-1) Gamma(s) /
Gamma(1-s), so every s in (1/2, 1) is served, s = 0.99 included.  The
threshold that decides attainment combines kappa_s with the critical
Sobolev constant and a factor 2^(-2s/N) for concentration at the Neumann
part.
"""
import fraclap as fl

for N in (2, 3):
    params = fl.FracParams(s=0.75, N=N)
    rep = fl.constants_report(params)
    print(f"s = 0.75, N = {N}")
    print(f"  kappa_s              {rep.kappa:.12f}")
    print(f"  sobolev constant     {rep.sobolev:.12f}")
    print(f"  threshold            {rep.threshold:.12f}")
    print(f"  critical exponent    {params.two_star:.6f}")

print("\ns sweep (N = 3)")
for s in (0.55, 0.65, 0.75, 0.85, 0.95, 0.99):
    rep = fl.constants_report(fl.FracParams(s=s, N=3))
    print(f"  s = {s:.2f}   kappa = {rep.kappa:.12f}   sobolev = "
          f"{rep.sobolev:.10f}   threshold = {rep.threshold:.10f}")
