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

from ._weighted1d import graded_grid, weighted_matrices, weighted_slope_limit
from .fractional import Field, FracParams
from .mesh import BoundaryPartition, Mesh
from .spectral import OperatorPair, _CapacitanceKernel, assemble_operators

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

    def level(self, j: int) -> np.ndarray:
        return self.values[:, j]

    def perturbed(self, delta: np.ndarray) -> ExtensionField:
        """Same trace, interior levels shifted by delta (test competitor)."""
        d = np.asarray(delta, dtype=float)
        v = self.values.copy()
        v[:, 1:-1] += d
        v[self.partition.dirichlet_node_mask] = 0.0
        return replace(self, values=v)


def _shifted_solver(ops: OperatorPair, theta: np.ndarray):
    """Solver of the shifted systems (A + theta_j M) x_j = b_j, by column.

    On face-aligned partitions A and M are diagonal in the Kronecker basis
    of ``ops.tensor``, so each solve is two per-axis contractions and a
    division by (lambda_i + theta_j).  Partial-facet partitions add the
    capacitance correction of their relaxation's kernel, one r x r
    Cholesky factor per shift; no shifted matrix is factored.
    """
    t = ops.tensor
    if t is not None:
        denom = t.values[:, None] + theta[None, :]
        return lambda B: t.synthesize(t.dual(B) / denom)
    kernel = _CapacitanceKernel(*ops._relaxation)
    shifts = kernel.shifts(theta)
    return lambda B: kernel.synthesize(kernel.solve(kernel.dual(B), shifts))


# one-slot cache: y-direction eigenpairs plus the base shifted solver
_SOLVER_CACHE: dict = {}


def _interior_solver(partition: BoundaryPartition, cyl: CylinderMesh, s: float):
    key = (partition.key(), cyl.grid_key(), s)
    if _SOLVER_CACHE.get("key") == key:
        return _SOLVER_CACHE["value"]

    ops = assemble_operators(cyl.base, partition)
    Aw, Mw = weighted_matrices(cyl.y, s)
    J = cyl.J
    Aw_II = Aw[1:J, 1:J].toarray()
    Mw_II = Mw[1:J, 1:J].toarray()
    theta, Z = scipy.linalg.eigh(Aw_II, Mw_II)
    Aw0 = Aw[1:J, 0].toarray().ravel()
    Mw0 = Mw[1:J, 0].toarray().ravel()
    value = (ops, Z, Aw0, Mw0, _shifted_solver(ops, theta))
    _SOLVER_CACHE["key"] = key
    _SOLVER_CACHE["value"] = value
    return value


def extend(
    cyl: CylinderMesh,
    partition: BoundaryPartition,
    params: FracParams,
    u: Field,
) -> ExtensionField:
    """Solve the weighted extension problem with trace u.

    The discrete system diagonalizes in the y-direction into one shifted
    base system (A + theta_j M) per weighted y-eigenvalue theta_j.  On
    face-aligned partitions (every face wholly Dirichlet or wholly Neumann)
    those are solved in the Kronecker basis of 1-D eigenvectors, with no
    factorization; on other partitions the same solves get a capacitance
    correction at the nodes that the face-aligned relaxation frees, with
    one small Cholesky factor per theta_j, built once per cylinder and
    partition.  No base-operator spectrum is involved either way.

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

    ops, Z, Aw0, Mw0, shifted_solve = _interior_solver(partition, cyl, s)
    uf = u.free_values(ops)
    R = -np.outer(ops.A @ uf, Mw0) - np.outer(ops.M @ uf, Aw0)
    W_int = shifted_solve(R @ Z) @ Z.T

    full = np.zeros((cyl.base.n_nodes, cyl.J + 1))
    full[ops.free, 0] = uf
    full[ops.free, 1:cyl.J] = W_int
    return ExtensionField(values=full, cyl=cyl, partition=partition)


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
    """
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
    solve, so the match is limited only by discretization.
    """
    ops = assemble_operators(cyl.base, w.partition)
    Aw, Mw = weighted_matrices(cyl.y, params.s)
    W = w.values[ops.free, :]
    energy = float(np.sum((ops.A @ W) * (Mw @ W.T).T))
    energy += float(np.sum((ops.M @ W) * (Aw @ W.T).T))
    return float(np.sqrt(kappa * energy))
