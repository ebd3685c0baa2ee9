"""Degenerate-elliptic extension to a truncated cylinder.

Realizes the fractional operator without touching the spectrum: solve
div(y^(1-2s) grad w) = 0 on Omega x (0, Y) with w(.,0) = u, zero on the
lateral Dirichlet part and on the artificial cap y = Y, natural elsewhere;
then take the weighted normal derivative at y = 0 as the discrete Neumann
flux of the same weak form.  The y-grid is graded toward 0 where the
solution carries a y^(2s) boundary layer.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from ._weighted1d import graded_grid, weighted_bands
from .fractional import Field, FracParams
from .mesh import BoundaryPartition, Mesh
from .spectral import (OperatorPair, _pencil_eigh, _tridiagonal,
                       assemble_operators)

__all__ = [
    "CylinderMesh",
    "ExtensionField",
    "build_cylinder",
    "extend",
    "dtn",
    "x_norm",
]

MIN_Y_CELLS = 16
# interior levels synthesized at a time when an extension's values are read
_LEVEL_BLOCK = 8


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


@dataclass(frozen=True, eq=False, init=False)
class ExtensionField:
    """Values on base nodes x y-levels, zero on the lateral Dirichlet part.

    A field holds its levels in the form it was made in and forms the other
    on first need.  An extension from :func:`extend` holds the
    M-coordinates C of every level in the face-aligned relaxation's
    eigenbasis (:meth:`~fraclap.spectral.OperatorPair.coordinates`, n_R x
    (J+1)): on a face-aligned partition as the two columns c and g and the
    solver, where C = [c, g P, 0], whose y-profile P is formed only when
    ``values`` are read, elsewhere as C itself.  At the power s it was
    solved with, the per-mode form gives :func:`dtn` and :func:`x_norm`
    from c and the solver's symbol alone; every other form, and the
    per-mode one at another s, gives them from C.
    Its nodal ``values`` are synthesized on first read
    (:meth:`~fraclap.spectral.OperatorPair.synthesize`), 8 interior levels
    at a time (a last single level joins the block before), straight into
    the free rows: per mode a block's coordinates are g times its rows of
    P, so C is not formed, and otherwise they are a slice of the C held.
    Level 1 is the trace less the synthesized C_0 - C_1, the difference
    :func:`dtn` weighs by a_0.  The values are kept in place of the
    coordinate form, so that the field holds one form at a time.  A field
    made from nodal values, by this constructor or
    :meth:`perturbed`, or one whose values were read, takes C from them
    when :func:`dtn` or :func:`x_norm` first needs it, and keeps it.  The
    constructor copies ``values``, and ``values`` is read-only, so the two
    forms cannot drift apart.  ``partition`` must belong to the
    cylinder's base mesh.

    Attributes
    ----------
    values : numpy.ndarray
        Shape (n_base_nodes, J+1); column j is the slice at height y_j.
    cyl : CylinderMesh
    partition : BoundaryPartition
    """

    cyl: CylinderMesh
    partition: BoundaryPartition

    def __init__(self, values: np.ndarray, cyl: CylinderMesh,
                 partition: BoundaryPartition) -> None:
        if partition.mesh != cyl.base:
            raise ValueError("partition does not belong to this mesh")
        v = np.array(values, dtype=float)
        want = (cyl.base.n_nodes, cyl.J + 1)
        if v.shape != want:
            raise ValueError(f"expected values of shape {want}")
        if not np.all(np.isfinite(v)):
            raise ValueError("extension has non-finite entries")
        if np.any(v[partition.dirichlet_node_mask] != 0.0):
            raise ValueError("extension must vanish on the lateral Dirichlet part")
        v.flags.writeable = False
        self._hold(cyl, partition, v[:, 0], values=v)

    @classmethod
    def _held(cls, trace: np.ndarray, cyl: CylinderMesh,
              partition: BoundaryPartition, **form) -> ExtensionField:
        # an extension held as its nodal trace and one coordinate form:
        # _coordinates=C, or _modes=(c, g, solver) with C = [c, g P, 0]
        w = cls.__new__(cls)
        w._hold(cyl, partition, trace, **form)
        return w

    def _hold(self, cyl, partition, trace, **forms) -> None:
        object.__setattr__(self, "cyl", cyl)
        object.__setattr__(self, "partition", partition)
        # the forms are the cached properties below, filled in advance
        self.__dict__.update(forms, _trace=trace)

    @property
    def _ops(self):
        return assemble_operators(self.cyl.base, self.partition)

    @cached_property
    def values(self) -> np.ndarray:
        """Nodal values, (n_base_nodes, J+1), read-only.

        Synthesized a block of levels at a time.  On a face-aligned
        partition that equals one synthesis of all levels bit for bit; on
        partial facets only to the last bits, since OpenBLAS tiles a
        product by its column count and so rounds some rows differently
        for a block than for the whole array: those entries differ by at
        most 6e-19 of the largest value.
        """
        J = self.cyl.J
        ops = self._ops
        if "_modes" in self.__dict__:
            # held per mode only by a face-aligned extend, whose solver has
            # the y-profile P: a block's coordinates are g P^T, formed
            # transposed, in P's layout
            c, g, solver = self._modes
            profile = solver.profile

            def block(lo: int, hi: int) -> np.ndarray:
                return (profile[lo - 1:hi - 1] * g).T
        else:
            C = self._coordinates
            c = C[:, 0]

            def block(lo: int, hi: int) -> np.ndarray:
                return C[:, lo:hi].copy()

        v = np.zeros((self.cyl.base.n_nodes, J + 1))
        v[:, 0] = self._trace
        # _LEVEL_BLOCK levels at a time; a last block of one level joins
        # the one before, since BLAS multiplies a single column otherwise
        edges = [*range(1, J, _LEVEL_BLOCK), J]
        if edges[-1] - edges[-2] == 1:
            del edges[-2]
        for lo, hi in zip(edges, edges[1:]):
            X = block(lo, hi)
            if lo == 1:
                # level 1 is synthesized as the trace less its deviation
                # C_0 - C_1, so that the values keep that first-cell
                # difference, which dtn weighs by a_0, free of the
                # synthesis round-off of the trace
                np.subtract(c, X[:, 0], out=X[:, 0])
            v[ops.free, lo:hi] = ops.synthesize(X)
        v[:, 1] = v[:, 0] - v[:, 1]
        v.flags.writeable = False
        # held in place of the coordinates, which dtn and x_norm form
        # again from them if needed
        self.__dict__.pop("_coordinates", None)
        self.__dict__.pop("_modes", None)
        return v

    @cached_property
    def _coordinates(self) -> np.ndarray:
        ops = self._ops
        return ops.coordinates(self.values[ops.free, :])

    def _levels(self) -> np.ndarray:
        # C of every level, formed from the per-mode form if that is held
        if "_modes" in self.__dict__:
            c, g, solver = self._modes
            return solver.levels(c, g)
        return self._coordinates

    def trace(self) -> Field:
        """Restriction to the base plane y = 0."""
        return Field(values=self._trace.copy(), mesh=self.cyl.base,
                     partition=self.partition)

    def perturbed(self, delta: np.ndarray) -> ExtensionField:
        """Same trace, interior levels shifted by delta (test competitor)."""
        v = self.values.copy()
        v[:, 1:-1] += np.asarray(delta, dtype=float)
        v[self.partition.dirichlet_node_mask] = 0.0
        return ExtensionField(values=v, cyl=self.cyl, partition=self.partition)


@dataclass(frozen=True, eq=False)
class _InteriorSolver:
    """The extension solver of one partition and power s on one cylinder.

    a, dM and eM are the cylinder's bands of Aw and Mw at s.  On
    face-aligned partitions row i of the coordinates of interior levels 1
    to J - 1 is g_i P_i, P_i = K_i^-1 e_1 for K_i = Aw + lambda_i Mw on
    those levels, and the discrete Dirichlet-to-Neumann map is diagonal:
    the flux of the extension of mode i with trace 1 is its ``symbol``

        delta_i = lambda_i (dM_0 + eM_0 q_i) + a_0 (e_1 + eM_0 lambda_i) / d_1,

    q_i = g_i P_i1 = (a_0 - eM_0 lambda_i) / d_1 the coordinate of level 1,
    from one elimination of the K_i (:func:`_eliminate`).  Its second term
    is a_0 (1 - q_i), written so that no first-cell difference cancels,
    and delta_i is also the mode's energy, the flux paired with the trace.
    ``profile`` is formed only when the levels are read.  On other
    partitions ``interior(g, out)`` writes those coordinates for the right
    side g Z[0] into ``out``.
    """

    ops: OperatorPair
    s: float
    a: np.ndarray
    dM: np.ndarray
    eM: np.ndarray
    interior: Callable[[np.ndarray, np.ndarray], None] | None = None
    symbol: np.ndarray | None = None

    @cached_property
    def profile(self) -> np.ndarray:
        """P_ik at row k - 1, (J - 1) x n_R; row 0 is P_i1 = 1 / d_1."""
        # the ratios rho_k = P_k+1 / P_k in row k, then a row at a time
        P = np.empty((len(self.a) - 1, len(self.symbol)))
        d, _ = _eliminate(self.ops.relaxed.values, self.a, self.dM, self.eM,
                          ratios=P)
        P[0] = 1.0 / d
        for k in range(1, len(P)):
            P[k] *= P[k - 1]
        return P

    def levels(self, c: np.ndarray, g: np.ndarray) -> np.ndarray:
        """C = [c, interior coordinates, 0], n_R x (J+1)."""
        J = len(self.a)
        C = np.empty((len(c), J + 1))
        C[:, 0] = c
        C[:, J] = 0.0
        if self.interior is None:
            np.multiply(g[:, None], self.profile.T, out=C[:, 1:J])
        else:
            self.interior(g, C[:, 1:J])
        return C


def _eliminate(lam: np.ndarray, a: np.ndarray, dM: np.ndarray,
               eM: np.ndarray, ratios: np.ndarray | None = None):
    # Gaussian elimination of every K_i = Aw + lambda_i Mw on levels
    # 1..J-1 from the cap down, in place in n_R buffers.  It carries e_k =
    # d_k - a_k-1, the pivot less the conductance below, so that no
    # conductance cancels: e_J-1 = a_J-1 + lambda dM_J-1, d_k+1 = a_k +
    # e_k+1, e_k = lambda dM_k + [a_k e_k+1 + lambda eM_k (2 a_k - lambda
    # eM_k)] / d_k+1.  Returns d_1 and e_1, and writes rho_k = (a_k -
    # lambda eM_k) / d_k+1 to ratios[k] if given.
    J = len(a)
    e = lam * dM[J - 1]
    e += a[J - 1]
    d, t, u = np.empty((3, len(e)))
    for k in range(J - 2, 0, -1):
        np.add(e, a[k], out=d)
        np.multiply(lam, eM[k], out=t)
        if ratios is not None:
            np.subtract(a[k], t, out=ratios[k])
            ratios[k] /= d
        np.subtract(2.0 * a[k], t, out=u)
        u *= t
        e *= a[k]
        e += u
        e /= d
        np.multiply(lam, dM[k], out=u)
        e += u
    np.add(e, a[0], out=d)
    return d, e


def _interior_solver(partition: BoundaryPartition, cyl: CylinderMesh,
                     s: float) -> _InteriorSolver:
    # built once per partition and s and kept on the cylinder
    solver = cyl._solvers.get((partition, s))
    if solver is not None:
        return solver

    ops = assemble_operators(cyl.base, partition)
    dA, a, dM, eM = weighted_bands(cyl.y, s)
    bands = dict(ops=ops, s=s, a=a, dM=dM, eM=eM)
    if ops.tensor is not None:
        lam = ops.relaxed.values
        d, e = _eliminate(lam, a, dM, eM)
        t = eM[0] * lam
        q = (a[0] - t) / d
        symbol = lam * (dM[0] + eM[0] * q) + a[0] * (e + t) / d
        solver = _InteriorSolver(**bands, symbol=symbol)
    else:
        # y-direction eigenpairs plus the base shifted solves of the
        # pair's capacitance kernel: the trace couples to the interior
        # through column 0 of Mw and Aw, whose one interior entry is row 1,
        # eM_0 and -a_0, which the y-eigenvectors turn into the row Z[0]
        J = cyl.J
        theta, Z = _pencil_eigh(_tridiagonal(dA[1:J], -a[1:J - 1]),
                                _tridiagonal(dM[1:J], eM[1:J - 1]))
        kernel = ops.kernel
        shifts = kernel.shifts(theta)

        def interior(g: np.ndarray, out: np.ndarray) -> None:
            G = np.multiply.outer(g, Z[0])
            np.matmul(kernel.solve(G, shifts), Z.T, out=out)

        solver = _InteriorSolver(**bands, interior=interior)
    cyl._solvers[partition, s] = solver
    return solver


def extend(
    cyl: CylinderMesh,
    partition: BoundaryPartition,
    params: FracParams,
    u: Field,
) -> ExtensionField:
    """Solve the weighted extension problem with trace u.

    The trace enters the interior system on levels 1 to J - 1 through the
    right side -(A u) Mw[1:J, 0]^T - (M u) Aw[1:J, 0]^T.  Only interior
    level 1 couples to the trace, so Mw[1:J, 0] = eM_0 e_1 and Aw[1:J, 0]
    = -a_0 e_1, and in the base coordinates the right side has rank one: g
    e_1^T with g = a_0 c - eM_0 Lambda c, where c are the M-coordinates of
    u (:meth:`~fraclap.spectral.OperatorPair.coordinates`) and Lambda c
    those of A u.  So one coordinate column is formed per call, and no
    product with A or M; nothing is synthesized, and the field's nodal
    ``values`` are formed on first read (:class:`ExtensionField`).

    On face-aligned partitions (every face wholly Dirichlet or wholly
    Neumann) the system splits by mode: row i of the interior coordinates
    is g_i times the y-profile P_i = K_i^-1 e_1 of the tridiagonal K_i =
    Aw + lambda_i Mw on the interior levels.  The solver eliminates all the
    K_i at once, from the cap down, and keeps the per-mode symbol delta_i
    of the discrete Dirichlet-to-Neumann map that :func:`dtn` and
    :func:`x_norm` read; it forms no y-eigenpair, and the profiles, (J -
    1) x n_R, only when the levels are read.  So C = [c, g P, 0] carries
    nothing beyond c and g: the field holds those two columns and the
    solver, and a repeat call costs O(n_R) besides the coordinates of u.
    On other partitions the y-eigenvectors Z split the
    system into shifted base systems (A + theta_j M) with right side g
    Z[0], solved with a capacitance correction from the partition's one
    kernel (``OperatorPair.kernel``), one small r x r inverse per theta_j;
    the product with Z^T follows, and the field holds C = [c, (G / (Lambda
    + theta)) Z^T, 0] for G = g Z[0].  The solver is built by the first
    call with a given partition and s and kept on the cylinder, so repeat
    calls only solve.  No base-operator spectrum is involved either way.

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

    solver = _interior_solver(partition, cyl, s)
    ops = solver.ops
    uf = u.free_values(ops)
    c = ops.coordinates(uf)
    g = solver.a[0] * c - solver.eM[0] * ops.stiffness(c)
    trace = np.zeros(cyl.base.n_nodes)
    trace[ops.free] = uf
    if solver.interior is None:
        return ExtensionField._held(trace, cyl, partition,
                                    _modes=(c, g, solver))
    return ExtensionField._held(trace, cyl, partition,
                                _coordinates=solver.levels(c, g))


def _check_grid(cyl: CylinderMesh, w: ExtensionField) -> None:
    # dtn and x_norm read the y-grid of cyl, so it must be the one w is on
    if w.cyl is not cyl and w.cyl.grid_key() != cyl.grid_key():
        raise ValueError("extension lives on another cylinder grid")


def dtn(
    cyl: CylinderMesh,
    params: FracParams,
    w: ExtensionField,
    kappa: float,
) -> Field:
    """Weighted Dirichlet-to-Neumann trace of an extension.

    Returns -kappa * lim_{y->0+} y^(1-2s) dw/dy as a Field; for the true
    extension of u this is the fractional operator applied to u.  The
    limit is the discrete Neumann flux of the cylinder's weak form: the
    residual at y = 0 of kron(A, Mw) + kron(M, Aw), whose trace row reads
    only levels 0 and 1 (Mw row 0 is [dM_0, eM_0], Aw row 0 is [a_0,
    -a_0]), so in the M-coordinates C_0 = c, C_1 of those levels the
    Riesz representative of the flux has coordinates

        F = Pi (Lambda (dM_0 c + eM_0 C_1)) + a_0 (c - C_1)

    (:meth:`~fraclap.spectral.OperatorPair.stiffness`, Pi the projection
    onto the partition's space on partial facets), and one column kappa F
    is synthesized.  A face-aligned field from :func:`extend`, at the power
    it was solved with, has C_1 = q c per mode, and F is its solver's
    symbol times c, delta_i c_i, with a_0 (1 - q_i) formed without the
    difference c - C_1 (:class:`_InteriorSolver`).  Every other field takes
    C_0 and C_1 from the level coordinates C it holds or forms.  For an
    extension the interior rows of the weak form vanish, so <u, dtn(w)>_M
    = x_norm(w)^2, to round-off for a field held per mode and up to the
    round-off of c - C_1 weighed by a_0 for the others.  ``w`` must have
    been built on ``cyl``'s grid.
    """
    _check_grid(cyl, w)
    ops = w._ops
    solver = _own_solver(w, params)
    if solver is not None:
        flux = solver.symbol * w._modes[0]
    else:
        _, a, dM, eM = weighted_bands(cyl.y, params.s)
        C = w._levels()
        c, c1 = C[:, 0], C[:, 1]
        flux = ops.stiffness(dM[0] * c + eM[0] * c1)
        flux += a[0] * (c - c1)
    return Field.from_free(ops, ops.synthesize(kappa * flux))


def _own_solver(w: ExtensionField, params: FracParams) -> _InteriorSolver | None:
    # the solver of a field held per mode at the power s it was solved
    # with, whose symbol gives dtn and x_norm; None for any other form
    if "_modes" not in w.__dict__:
        return None
    solver = w._modes[2]
    return solver if solver.s == params.s else None


# entries of level differences x_norm forms at a time
_DIFF_BLOCK = 1 << 15


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
    kappa W^T (kron(A, Mw) + kron(M, Aw)) W of any field W, taken from the
    M-coordinates C_j of every level W_j, which a partial-facet field from
    :func:`extend` holds and a field made from nodal values forms once in
    one contraction (:meth:`~fraclap.spectral.OperatorPair.coordinates`),
    so that <A W_j, W_k> = <Lambda C_j, C_k> and <M W_j, W_k> = <C_j, C_k>:
    the Mw part from the two bands of the tridiagonal Mw as products of
    adjacent levels, sum_j d_j <Lambda C_j, C_j> + 2 sum_j e_j <Lambda C_j,
    C_j+1>, and the Aw part in conductance-difference form, sum_c a_c
    |C_c+1 - C_c|^2 with a_c the cell conductances, a block of rows at a
    time.  The rows of Aw sum to zero while its entries grow like
    y_1^(-2s), so the difference form keeps the digits that W^T Aw W would
    lose to cancellation.  A face-aligned field from :func:`extend`, C =
    [c, g P, 0], at the power it was solved with, is an extension, whose
    energy is its flux paired with its trace: the form is kappa sum_i
    delta_i c_i^2 with its solver's symbol delta, O(n_R) work, and no
    profile is formed.  ``w`` must have been built on ``cyl``'s grid.
    """
    _check_grid(cyl, w)
    solver = _own_solver(w, params)
    if solver is not None:
        c = w._modes[0]
        return float(np.sqrt(kappa * (solver.symbol @ (c * c))))
    _, a, dM, eM = weighted_bands(cyl.y, params.s)
    C = w._levels()
    lam = w._ops.relaxed.values
    energy = dM @ np.einsum("i,ij,ij->j", lam, C, C)
    energy += 2.0 * eM @ np.einsum("i,ij,ij->j", lam, C[:, :-1], C[:, 1:])
    # the Aw part a block of rows at a time, each difference scaled by
    # sqrt(a_c), so that a block is one dot product and no n_R x J array
    # is formed
    root_a = np.sqrt(a)
    step = max(1, _DIFF_BLOCK // cyl.J)
    work = np.empty((min(step, len(C)), cyl.J))
    for i in range(0, len(C), step):
        rows = C[i:i + step]
        d = work[:len(rows)]
        np.subtract(rows[:, 1:], rows[:, :-1], out=d)
        d *= root_a
        energy += d.ravel() @ d.ravel()
    return float(np.sqrt(kappa * energy))
