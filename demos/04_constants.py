"""Coupling constant, Sobolev constant, attainment threshold.

kappa_s = 2^(2s-1) Gamma(s) / Gamma(1-s) comes from its closed form, so
every s in (1/2, 1) is served, s = 0.99 included.  The constants report
audits it against a one-mode ODE calibration: the calibration must not
depend on the decay rate mu, and its relative difference from the closed
form grows as s -> 1, where its fit of y^(2s) against y^2 degenerates.  The
threshold that decides attainment combines kappa_s with the critical
Sobolev constant and a factor 2^(-2s/N) for concentration at the Neumann
part.
"""
import fraclap as fl

for N in (2, 3):
    params = fl.FracParams(s=0.75, N=N)
    rep = fl.constants_report(params, mus=(1.0, 2.0, 4.0))
    print(f"s = 0.75, N = {N}")
    print(f"  kappa_s              {rep.kappa:.12f}")
    print(f"  calibration spread   {rep.notes['kappa_calibration_spread']:.2e}"
          f"   over mu = {rep.notes['kappa_calibration_mus']}")
    print(f"  closed-form rel diff {rep.notes['kappa_closed_form_rel_diff']:.2e}")
    print(f"  sobolev constant     {rep.sobolev:.12f}")
    print(f"  threshold            {rep.threshold:.12f}")
    print(f"  critical exponent    {params.two_star:.6f}")

print("\ns sweep (N = 3): closed-form kappa, the calibration's distance to it")
for s in (0.55, 0.65, 0.75, 0.85, 0.95, 0.99):
    rep = fl.constants_report(fl.FracParams(s=s, N=3))
    print(f"  s = {s:.2f}   kappa = {rep.kappa:.12f}   calibration rel diff "
          f"{rep.notes['kappa_closed_form_rel_diff']:.1e}   threshold = "
          f"{rep.threshold:.10f}")
