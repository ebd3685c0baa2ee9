"""Degenerate-elliptic extension to a truncated cylinder.

Realizes the fractional operator without touching the spectrum: solve
div(y^(1-2s) grad w) = 0 on Omega x (0, Y) with w(.,0) = u, zero on the
lateral Dirichlet part and on the artificial cap y = Y, natural elsewhere;
then read the weighted normal derivative at y = 0.  The y-grid is graded
toward 0 where the solution carries a y^(2s) boundary layer.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from ._weighted1d import (
    graded_grid,
    harmonic_conductances,
    weighted_matrices,
    weighted_slope_limit,
)
from .fractional import Field, FracParams
from .mesh import BoundaryPartition, Mesh
from .spectral import assemble_operators

__all__ = [
    "CylinderMesh",
    "ExtensionField",
    "build_cylinder",
    "extend",
    "dtn",
    "x_norm",
]

MIN_Y_CELLS = 16


@dataclass(frozen=True, eq=False)
class CylinderMesh:
    """Base mesh times a graded grid in the extension variable.

    The cylinder keeps the extension solver of each partition and power s
    it has served, built by the first :func:`extend` with them and freed
    with the cylinder.

    Attributes
    ----------
    base : Mesh
    y : numpy.ndarray
        Grid 0 = y_0 < ... < y_J = Y with y_j = Y (j/J)**gamma.
    Y : float
        Truncation height.
    J : int
        Number of y-cells (at least 16).
    gamma : float
        Grading strength; 1 gives a uniform grid.
    """

    base: Mesh
    y: np.ndarray = field(repr=False)
    Y: float
    J: int
    gamma: float
    _solvers: dict = field(default_factory=dict, init=False, repr=False)

    def grid_key(self) -> tuple:
        return (self.base.key(), self.Y, self.J, self.gamma)


def build_cylinder(mesh: Mesh, Y: float, J: int, gamma: float) -> CylinderMesh:
    """Build the truncated cylinder over a base mesh.

    Parameters
    ----------
    mesh : Mesh
    Y : float
        Truncation height, positive.  A useful default is 6 / sqrt(lambda_1),
        which the helpers of the experiment layer apply.
    J : int
        y-cells; fewer than 16 is rejected as unable to carry the boundary
        layer and the truncation at once.
    gamma : float
        Grading exponent, at least 1.

    Returns
    -------
    CylinderMesh
    """
    if J < MIN_Y_CELLS:
        raise ValueError(f"J={J} too coarse; need at least {MIN_Y_CELLS} y-cells")
    y = graded_grid(float(Y), int(J), float(gamma))
    return CylinderMesh(base=mesh, y=y, Y=float(Y), J=int(J), gamma=float(gamma))


@dataclass(frozen=True, eq=False)
class ExtensionField:
    """Nodal values on base nodes x y-levels, zero on the lateral Dirichlet part.

    Attributes
    ----------
    values : numpy.ndarray
        Shape (n_base_nodes, J+1); column j is the slice at height y_j.
    cyl : CylinderMesh
    partition : BoundaryPartition
    """

    values: np.ndarray = field(repr=False)
    cyl: CylinderMesh
    partition: BoundaryPartition

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        want = (self.cyl.base.n_nodes, self.cyl.J + 1)
        if v.shape != want:
            raise ValueError(f"expected values of shape {want}")
        if not np.all(np.isfinite(v)):
            raise ValueError("extension has non-finite entries")
        mask = self.partition.dirichlet_node_mask
        if np.any(v[mask] != 0.0):
            raise ValueError("extension must vanish on the lateral Dirichlet part")
        object.__setattr__(self, "values", v)

    def trace(self) -> Field:
        """Restriction to the base plane y = 0."""
        return Field(values=self.values[:, 0].copy(), mesh=self.cyl.base,
                     partition=self.partition)

    def perturbed(self, delta: np.ndarray) -> ExtensionField:
        """Same trace, interior levels shifted by delta (test competitor)."""
        d = np.asarray(delta, dtype=float)
        v = self.values.copy()
        v[:, 1:-1] += d
        v[self.partition.dirichlet_node_mask] = 0.0
        return replace(self, values=v)


def _interior_solver(partition: BoundaryPartition, cyl: CylinderMesh, s: float):
    # y-direction eigenpairs plus the base shifted solves of
    # OperatorPair.shifted, built once per partition and s and kept on the
    # cylinder
    solver = cyl._solvers.get((partition, s))
    if solver is not None:
        return solver

    ops = assemble_operators(cyl.base, partition)
    Aw, Mw = weighted_matrices(cyl.y, s)
    J = cyl.J
    Aw_II = Aw[1:J, 1:J].toarray()
    Mw_II = Mw[1:J, 1:J].toarray()
    theta, Z = scipy.linalg.eigh(Aw_II, Mw_II)
    # the trace couples to the interior through column 0 of Mw and Aw; in
    # the y-eigenbasis those are the rows Z^T Mw[1:J, 0] and Z^T Aw[1:J, 0]
    zMA = -np.stack([Mw[1:J, 0].toarray().ravel() @ Z,
                     Aw[1:J, 0].toarray().ravel() @ Z])
    solver = (ops, Z, zMA, *ops.shifted(theta))
    cyl._solvers[partition, s] = solver
    return solver


def extend(
    cyl: CylinderMesh,
    partition: BoundaryPartition,
    params: FracParams,
    u: Field,
) -> ExtensionField:
    """Solve the weighted extension problem with trace u.

    The discrete system diagonalizes in the y-direction into one shifted
    base system (A + theta_j M) per weighted y-eigenvalue theta_j.  The
    trace enters through the right side -(A u) Mw[1:J, 0]^T - (M u)
    Aw[1:J, 0]^T, which has rank 2: only A u and M u are taken to the base
    coordinates, and the y-eigenvectors Z turn the two coupling columns
    into the rows Z^T Mw[1:J, 0] and Z^T Aw[1:J, 0] kept with the solver.
    On face-aligned partitions (every face wholly Dirichlet or wholly
    Neumann) the shifted systems are solved in the Kronecker basis of 1-D
    eigenvectors, with no factorization; on other partitions the same
    solves get a capacitance correction at the nodes that the face-aligned
    relaxation frees, from the partition's one capacitance kernel
    (``OperatorPair.kernel``), with one small Cholesky factor per theta_j.
    The solver is built by the first call with a given partition and s and
    kept on the cylinder, so repeat calls only solve.  No base-operator
    spectrum is involved either way.

    Parameters
    ----------
    cyl : CylinderMesh
    partition : BoundaryPartition
        Lateral faces over Dirichlet facets are clamped to zero.
    params : FracParams
    u : Field
        Trace at y = 0; must live on the cylinder's base mesh.

    Returns
    -------
    ExtensionField
    """
    if u.mesh != cyl.base or u.partition != partition:
        raise ValueError("trace does not live on this cylinder's base")
    s = params.s
    y1, Ytop = cyl.y[1], cyl.Y
    if y1 ** (2 * s) >= 0.01 * Ytop ** (2 * s):
        warnings.warn(
            "first y-cell too coarse for the boundary layer; increase J or gamma",
            RuntimeWarning, stacklevel=2)

    ops, Z, zMA, dual, solve = _interior_solver(partition, cyl, s)
    uf = u.free_values(ops)
    G = dual(np.column_stack([ops.A @ uf, ops.M @ uf])) @ zMA
    W_int = solve(G) @ Z.T

    full = np.zeros((cyl.base.n_nodes, cyl.J + 1))
    full[ops.free, 0] = uf
    full[ops.free, 1:cyl.J] = W_int
    return ExtensionField(values=full, cyl=cyl, partition=partition)


def _check_grid(cyl: CylinderMesh, w: ExtensionField) -> None:
    # dtn and x_norm read the y-grid of cyl, so it must be the one w is on
    if w.cyl.grid_key() != cyl.grid_key():
        raise ValueError("extension lives on another cylinder grid")


def dtn(
    cyl: CylinderMesh,
    params: FracParams,
    w: ExtensionField,
    kappa: float,
) -> Field:
    """Weighted Dirichlet-to-Neumann trace of an extension.

    Returns -kappa * lim_{y->0+} y^(1-2s) dw/dy as a Field; for the true
    extension of u this is the fractional operator applied to u.  The limit
    comes from the two-point boundary-layer fit of :mod:`_weighted1d`.
    ``w`` must have been built on ``cyl``'s grid.
    """
    _check_grid(cyl, w)
    limit = weighted_slope_limit(
        w.values[:, 1] - w.values[:, 0], w.values[:, 2] - w.values[:, 0],
        cyl.y[1], cyl.y[2], params.s)
    vals = -kappa * limit
    vals[w.partition.dirichlet_node_mask] = 0.0
    return Field(values=vals, mesh=cyl.base, partition=w.partition)


def x_norm(
    cyl: CylinderMesh,
    params: FracParams,
    w: ExtensionField,
    kappa: float,
) -> float:
    """Weighted cylinder energy norm sqrt(kappa * int y^(1-2s) |grad w|^2).

    For the extension of u this matches the fractional norm of u; the
    discrete quadratic form uses the same exactly-integrated weight as the
    solve, so the match is limited only by discretization.  It is the form
    kappa W^T (kron(A, Mw) + kron(M, Aw)) W of any field W, taken without
    forming either Kronecker factor's product with W: the Mw part from the
    two bands of the tridiagonal Mw as inner products of adjacent levels,
    sum_j d_j <A W_j, W_j> + 2 sum_j e_j <A W_j, W_j+1>, and the Aw part in
    conductance-difference form, sum_c a_c <M dW_c, dW_c> with dW_c =
    W_c+1 - W_c and a_c the cell conductances.  The rows of Aw sum to zero
    while its entries grow like y_1^(-2s), so the difference form keeps the
    digits that W^T Aw W would lose to cancellation.  ``w`` must have been
    built on ``cyl``'s grid.
    """
    _check_grid(cyl, w)
    ops = assemble_operators(cyl.base, w.partition)
    _, Mw = weighted_matrices(cyl.y, params.s)
    a = harmonic_conductances(cyl.y, params.s)
    W = w.values[ops.free, :]
    AW = ops.A @ W
    dW = np.diff(W, axis=1)
    energy = Mw.diagonal(0) @ np.einsum("ij,ij->j", AW, W)
    energy += 2.0 * Mw.diagonal(1) @ np.einsum("ij,ij->j", AW[:, :-1], W[:, 1:])
    energy += a @ np.einsum("ij,ij->j", ops.M @ dW, dW)
    return float(np.sqrt(kappa * energy))
