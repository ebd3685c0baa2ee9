"""One-dimensional building blocks for the weighted cylinder direction.

Graded grids, exact per-cell moments of the degenerate weight y^(1-2s),
the bands of the weighted stiffness and mass matrices, a one-mode profile
solver, and the boundary-layer slope extraction.

The stiffness uses per-cell harmonic conductances (closed-form integral
of the reciprocal weight): in one dimension a tridiagonal stiffness is a
two-point flux scheme, and harmonic conductances make nodal values of
local weight-harmonic solutions (span of 1 and y^(2s)) exact.  With
arithmetic cell averages the first cells at the degenerate end carry an
O(1) conductance bias (Cauchy-Schwarz defect 1/((2-2s) 2s) on the first
cell), which pollutes any nodal slope extraction by a grading-dependent
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


def solve_mode_deviation(y: np.ndarray, s: float, mu: float) -> np.ndarray:
    """Deviation v = w - 1 of the one-mode profile, solved directly.

    w solves the weighted two-point problem with w(0) = 1 and w(Y) = 0;
    working in the deviation keeps the boundary-layer values v(y_j), of
    size y_j^(2s) near the degenerate end, free of the catastrophic
    cancellation that extracting w - 1 from w would suffer.

    Returns
    -------
    ndarray, shape (J+1,)
        v at every node; v[0] = 0, v[-1] = -1.

    Notes
    -----
    Imports ``scipy.linalg`` for its banded solver on the first call; only
    the one-mode calibration of :func:`~fraclap.fractional.constants_report`
    runs it.
    """
    from scipy.linalg import solve_banded

    if mu <= 0:
        raise ValueError("mode number must be positive")
    dA, a, dM, eM = weighted_bands(y, s)
    # K = A + mu M; K v = -mu M 1 on the interior, with v0 = 0 and vJ = -1
    # eliminated (each row of M 1 summed left to right)
    diag = dA + mu * dM
    off = -a + mu * eM
    rhs = -mu * ((eM[:-1] + dM[1:-1]) + eM[1:])
    rhs[-1] += off[-1]
    ab = np.zeros((3, len(rhs)))
    ab[0, 1:] = off[1:-1]
    ab[1, :] = diag[1:-1]
    ab[2, :-1] = off[1:-1]
    vi = solve_banded((1, 1), ab, rhs)
    return np.concatenate([[0.0], vi, [-1.0]])


def solve_mode_profile(y: np.ndarray, s: float, mu: float) -> np.ndarray:
    """One-mode profile w with w(0) = 1, w(Y) = 0; see the deviation form."""
    return 1.0 + solve_mode_deviation(y, s, mu)


def weighted_slope_limit(
    d1: float, d2: float, y1: float, y2: float, s: float
) -> float:
    """Boundary-layer limit of y^(1-2s) dw/dy at y = 0 from two deviations.

    The local expansion w = w(0) + c y^(2s) + d y^2 + ... gives the limit
    2s c.  A two-point fit in the layer coordinate t = y^(2s) eliminates
    the y^2 term: with deviations d_i = w(y_i) - w(0),

        c = (d1 y2^2 - d2 y1^2) / (t1 y2^2 - t2 y1^2).

    The factor 2s is the chain rule of t = y^(2s); dropping it would bias
    the limit by exactly 2s.

    Parameters
    ----------
    d1, d2 : float
        Deviations from the boundary value at the first two nodes.
    y1, y2 : float
        The node heights, 0 < y1 < y2.
    s : float

    Returns
    -------
    float
    """
    if not 0 < y1 < y2:
        raise ValueError("need 0 < y1 < y2")
    t1 = y1 ** (2.0 * s)
    t2 = y2 ** (2.0 * s)
    c = (d1 * y2**2 - d2 * y1**2) / (t1 * y2**2 - t2 * y1**2)
    return 2.0 * s * c
