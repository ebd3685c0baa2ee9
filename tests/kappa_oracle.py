"""One-mode ODE oracle for the extension coupling constant kappa_s.

The decaying solution of -(y^(1-2s) w')' + mu y^(1-2s) w = 0 with w(0) = 1
has -lim_{y->0} y^(1-2s) w'(y) = mu^s / kappa_s for every mu > 0.  This
module solves the weighted two-point problem for one mode on a long
graded grid (the library's bands, scipy's banded solve), reads the limit
from a two-point boundary-layer fit, and so calibrates kappa_s
numerically: an independent check of the closed form that the library
uses.  The fit separates y^(2s) from y^2, so it needs finer grids as
s -> 1, and the library's ``dtn`` takes the discrete Neumann flux instead.
"""
import numpy as np
from scipy.linalg import solve_banded

from fraclap._weighted1d import graded_grid, weighted_bands


def solve_mode_deviation(y: np.ndarray, s: float, mu: float) -> np.ndarray:
    """Deviation v = w - 1 of the one-mode profile, solved directly.

    w solves the weighted two-point problem with w(0) = 1 and w(Y) = 0;
    working in the deviation keeps the boundary-layer values v(y_j), of
    size y_j^(2s) near the degenerate end, free of the cancellation that
    extracting w - 1 from w would suffer.  Returns v at every node, (J+1,),
    with v[0] = 0 and v[-1] = -1.
    """
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

    The factor 2s is the chain rule of t = y^(2s).  Needs 0 < y1 < y2.
    """
    if not 0 < y1 < y2:
        raise ValueError("need 0 < y1 < y2")
    t1 = y1 ** (2.0 * s)
    t2 = y2 ** (2.0 * s)
    c = (d1 * y2**2 - d2 * y1**2) / (t1 * y2**2 - t2 * y1**2)
    return 2.0 * s * c


def calibration_grid(s: float) -> tuple[int, float]:
    """Cells and grading of the calibration grid at power s.

    The slope fit separates y^(2s) from y^2; as s -> 1 the exponents
    collide and the grid must grow ahead of the conditioning.
    """
    if s <= 0.8:
        return 2000, 4.0
    if s <= 0.9:
        return 8000, 5.2
    return 16000, 7.0


def calibrate_kappa(s: float, mus=(1.0, 4.0)) -> list[float]:
    """mu^s / (-lim y^(1-2s) w') per decay rate mu in ``mus``.

    Each value should reproduce the closed form kappa_s, whatever mu.
    """
    y = graded_grid(40.0, *calibration_grid(s))
    values = []
    for mu in mus:
        v = solve_mode_deviation(y, s, mu)
        limit = weighted_slope_limit(v[1], v[2], y[1], y[2], s)
        values.append(mu**s / -float(limit))
    return values


def spread(values: list[float]) -> float:
    """Relative spread (max - min) / min of calibrated values."""
    return (max(values) - min(values)) / min(values)
