"""Closed-form constants against arbitrary-precision and ODE oracles."""
import math

import mpmath
import numpy as np
import pytest

import fraclap as fl
from fraclap.fractional import FracParams

import kappa_oracle

# 2^(2s-1) Gamma(s) / Gamma(1-s) at s = 3/4 from mpmath at 60 digits,
# 0.47798879748612499536...
KAPPA_075 = 0.47798879748612500

# 2^(-2s/N) kappa S(s, N) at s = 3/4, N = 3 from mpmath at 60 digits,
# 2.44252869767681977...
THRESHOLD_075_3 = 2.4425286976768198


def mp_sobolev(s: float, N: int) -> float:
    # independent high-precision evaluation of the Gamma-product formula
    with mpmath.workdps(60):
        s_ = mpmath.mpf(s)
        N_ = mpmath.mpf(N)
        val = (2 * mpmath.pi**s_ * mpmath.gamma(1 - s_)
               * mpmath.gamma((N_ + 2 * s_) / 2)
               * mpmath.gamma(N_ / 2) ** (2 * s_ / N_)
               / (mpmath.gamma(s_) * mpmath.gamma((N_ - 2 * s_) / 2)
                  * mpmath.gamma(N_) ** s_))
        return float(val)


@pytest.mark.parametrize("s,N", [(0.75, 3), (0.75, 2), (0.6, 3), (0.55, 2),
                                 (0.9, 3), (0.85, 2)])
def test_sobolev_constant_matches_high_precision(s, N):
    got = fl.sobolev_constant(FracParams(s=s, N=N))
    assert got == pytest.approx(mp_sobolev(s, N), rel=1e-12)


def test_sobolev_constant_needs_subcritical_dimension():
    with pytest.raises(ValueError):
        fl.sobolev_constant(FracParams(s=0.75, N=1))


def mp_kappa(s: float) -> float:
    with mpmath.workdps(60):
        s_ = mpmath.mpf(s)
        return float(2 ** (2 * s_ - 1) * mpmath.gamma(s_)
                     / mpmath.gamma(1 - s_))


@pytest.mark.parametrize("s", [0.55, 0.75, 0.95, 0.99])
def test_kappa_matches_high_precision_closed_form(s):
    assert fl.kappa_s(FracParams(s=s, N=3)) == pytest.approx(mp_kappa(s),
                                                            rel=1e-14)


def _calibration_rel_diff(s: float) -> float:
    # the first calibrated value (mu = 1) against the library's closed form
    kappa = fl.kappa_s(FracParams(s=s, N=3))
    return abs(kappa_oracle.calibrate_kappa(s)[0] - kappa) / kappa


def test_kappa_calibration_reproduces_closed_form():
    rep = fl.constants_report(FracParams(s=0.75, N=3))
    assert rep.kappa == pytest.approx(KAPPA_075, rel=1e-14)
    assert _calibration_rel_diff(0.75) <= 1e-10


@pytest.mark.parametrize("s,rel", [(0.6, 1e-6), (0.85, 1e-6), (0.95, 5e-5)])
def test_kappa_calibration_other_powers(s, rel):
    # the calibration grid follows s; its accuracy degrades as the y^(2s)
    # and y^2 fit exponents approach each other
    assert _calibration_rel_diff(s) <= rel


def test_kappa_mu_independent_within_tolerance():
    # a third mu triple-checks the calibration against itself
    values = kappa_oracle.calibrate_kappa(0.75, mus=(1.0, 2.0, 9.0))
    assert len(values) == 3
    assert kappa_oracle.spread(values) <= 1e-6


def test_attainment_threshold_value_and_formula(params3):
    thr = fl.attainment_threshold(params3)
    assert thr == pytest.approx(THRESHOLD_075_3, rel=1e-12)
    manual = (2.0 ** (-2 * 0.75 / 3) * fl.kappa_s(params3)
              * fl.sobolev_constant(params3))
    assert thr == pytest.approx(manual, rel=1e-14)
    # an explicit kappa replaces the closed form
    assert fl.attainment_threshold(params3, kappa=1.0) == pytest.approx(
        2.0 ** (-0.5) * fl.sobolev_constant(params3), rel=1e-14)


def test_constants_report_contents(params3):
    rep = fl.constants_report(params3)
    assert rep.s == 0.75 and rep.N == 3
    assert rep.kappa == pytest.approx(KAPPA_075, rel=1e-14)
    assert rep.threshold == pytest.approx(THRESHOLD_075_3, rel=1e-13)
    # every constant comes from its closed form; no calibration is run
    assert list(rep.notes) == ["kappa_definition"]
    assert "closed form" in rep.notes["kappa_definition"]
    d = rep.as_dict()
    assert d["sobolev"] == rep.sobolev
    for bad in ({"bogus": 1}, {"mus": (1.0, 4.0)}):
        with pytest.raises(TypeError):
            fl.constants_report(params3, **bad)


def test_threshold_below_whole_space_level(params3):
    # concentrating at the Neumann boundary halves the bubble: the mixed
    # threshold must sit strictly below kappa times the full constant
    full = fl.kappa_s(params3) * fl.sobolev_constant(params3)
    assert fl.attainment_threshold(params3) < full


def test_weighted_profile_matches_bessel_closed_form():
    # one-mode profile against the modified-Bessel solution
    # w(y) = 2^(1-s)/Gamma(s) (sqrt(mu) y)^s K_s(sqrt(mu) y)
    from scipy.special import kv

    from fraclap._weighted1d import graded_grid

    s, mu = 0.75, 4.0
    y = graded_grid(Y=20.0, J=400, gamma=4.0)
    w = kappa_oracle.solve_mode_profile(y, s, mu)
    z = np.sqrt(mu) * y[1:-1]
    exact = 2.0 ** (1 - s) / math.gamma(s) * z**s * kv(s, z)
    keep = y[1:-1] < 5.0 / math.sqrt(mu)
    rel = np.abs(w[1:-1][keep] - exact[keep]) / np.abs(exact[keep])
    assert float(rel.max()) < 5e-3
