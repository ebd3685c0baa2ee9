"""One-dimensional building blocks for the weighted cylinder direction.

Graded grids, exact per-cell moments of the degenerate weight y^(1-2s),
and the bands of the weighted stiffness and mass matrices.

The stiffness uses per-cell harmonic conductances (closed-form integral
of the reciprocal weight): in one dimension a tridiagonal stiffness is a
two-point flux scheme, and harmonic conductances make nodal values of
local weight-harmonic solutions (span of 1 and y^(2s)) exact.  With
arithmetic cell averages the first cells at the degenerate end carry an
O(1) conductance bias (Cauchy-Schwarz defect 1/((2-2s) 2s) on the first
cell), which pollutes the flux at the degenerate end by a grading-dependent
constant that refinement never removes.  The mass matrix stays the exact
Galerkin one built from the weight moments.
"""
from __future__ import annotations

import numpy as np


def graded_grid(Y: float, J: int, gamma: float) -> np.ndarray:
    """Nodes Y * (j/J)**gamma, j = 0..J, clustered at 0 for gamma > 1."""
    if not Y > 0:
        raise ValueError("Y must be positive")
    if J < 2:
        raise ValueError("need at least two cells")
    if gamma < 1:
        raise ValueError("grading exponent below 1 coarsens the layer end")
    return Y * (np.arange(J + 1) / J) ** gamma


def cell_moments(y: np.ndarray, s: float):
    """Exact integrals of y^(k+1-2s) over each cell, k = 0, 1, 2.

    Closed form per cell: (y_r^(k+2-2s) - y_l^(k+2-2s)) / (k+2-2s); all
    exponents are positive for 1/2 < s < 1, so the degenerate end is
    integrable and the first cell remains well defined.
    """
    yl, yr = y[:-1], y[1:]
    out = []
    for k in range(3):
        e = k + 2.0 - 2.0 * s
        out.append((yr**e - yl**e) / e)
    return tuple(out)


def harmonic_conductances(y: np.ndarray, s: float) -> np.ndarray:
    """Per-cell conductance (integral of y^(2s-1) over the cell)^(-1)."""
    yl, yr = y[:-1], y[1:]
    return 2.0 * s / (yr ** (2.0 * s) - yl ** (2.0 * s))


def weighted_bands(y: np.ndarray, s: float):
    """Bands of the weighted stiffness and mass on the graded grid.

    Stiffness entries come from harmonic cell conductances; mass entries
    from the exact weight moments against the P1 hat products.

    Returns
    -------
    (dA, a, dM, eM) : numpy.ndarray
        The stiffness diagonal (J+1,) and cell conductances a (J,), whose
        negatives are its off-diagonal; the mass diagonal (J+1,) and
        off-diagonal eM (J,).
    """
    h = np.diff(y)
    a = harmonic_conductances(y, s)
    m0, m1, m2 = cell_moments(y, s)
    yl, yr = y[:-1], y[1:]
    M00 = (m2 - 2 * yr * m1 + yr**2 * m0) / h**2
    M11 = (m2 - 2 * yl * m1 + yl**2 * m0) / h**2
    M01 = (-m2 + (yl + yr) * m1 - yl * yr * m0) / h**2

    J = len(y) - 1
    dA = np.zeros(J + 1)
    dA[:-1] += a
    dA[1:] += a
    dM = np.zeros(J + 1)
    dM[:-1] += M00
    dM[1:] += M11
    return dA, a, dM, M01
