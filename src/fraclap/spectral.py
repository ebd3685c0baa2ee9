"""Assembly and eigendecomposition of the constrained Laplacian.

Lowest-order conforming elements on the tensor grid with consistent mass,
restricted to free nodes (Dirichlet nodes eliminated).  Eigenpairs of
A phi = lambda M phi are M-orthonormal and define everything spectral
downstream.

Every partition has a face-aligned relaxation R: the same box with each
partly Dirichlet face made Neumann.  R's free nodes form a product set
containing the partition's, R's A is a Kronecker sum and M a Kronecker
product of restricted 1-D matrices, and R's eigenpairs are sums and
Kronecker products of 1-D eigenpairs (Lynch, Rice & Thomas 1964).
Assembly takes each axis's generalized eigenpairs from its dense
tridiagonal 1-D stiffness and mass (:func:`_pencil_eigh`) and keeps
U_d = V_d^T M_d with them.  A field's M-coordinates V_R^T M_R f
are then one per-axis contraction with the U_d, and they give every
product with A or M the library needs: V^T M f, |f|_M^2 and V^T A f =
Lambda_R V^T M f (:meth:`OperatorPair.coordinates`).  So no library path
forms A or M, and the package imports no scipy module.  For checks, A and
M apply per axis from the same 1-D matrices, equal bit for bit to their
sparse Kronecker products.

When every face is wholly Dirichlet or wholly Neumann, the partition is
its own relaxation.  It never needs a dense n x n eigensolve, its bases
apply the eigenvector matrix by per-axis contractions instead of storing
it, and the sign of each eigenvector follows from per-axis tables without
multiplying it out.  A partial-facet partition is R constrained to vanish
on the r nodes R frees and it does not; in R's eigen-coordinates that is
a standard eigenproblem of a diagonal plus a rank-2r term, the
constrained-subspace view of the capacitance-matrix method (Buzbee, Dorr,
George & Golub 1971).  A few of its eigenpairs come from shift-invert
Lanczos in those coordinates, with the capacitance kernel below as the
inverse, and many or all of them from one dense solve of that standard
problem, which imports scipy's LAPACK drivers on first use; either way
the basis keeps the eigenvectors' coordinates, not their nodal values.

The critical quotient needs no such eigensolve.  In the same coordinates
a shifted solve (A + theta M) x = b of a partial-facet partition is a
diagonal solve plus a Lagrange correction through an r x r capacitance
matrix; on the one partial face of a moving family that matrix factors
through the face's own Kronecker eigenvectors (Proskurowski & Widlund
1976).  Each partial-facet pair holds one ``_CapacitanceKernel`` as
``OperatorPair.kernel``, and the dense eigensolve, the Lanczos inverse,
``extend`` and :class:`ConstrainedOperator` all use it.  A Gauss-Jacobi
rule for the Balakrishnan integral (Aceto & Novati 2017), taken in t =
tau s^2 (Hale, Higham & Trefethen 2008), turns L^-a into one kernel call
over its few dozen shifts, so :class:`ConstrainedOperator`
gives L^s and (L^s - lam)^-1 with only lambda_1 and phi_1 computed, at
any size; :func:`quotient_operator` chooses it or a complete basis by the
partition's shape.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mesh import BoundaryPartition, Mesh

__all__ = [
    "OperatorPair",
    "SpectralBasis",
    "assemble_operators",
    "eigendecompose",
    "ConstrainedOperator",
    "quotient_operator",
]

# a partial-facet request for at most this many eigenpairs (and fewer than
# the free nodes) runs Lanczos; any other runs the dense solve
_ITERATIVE_MAX = 32
# Lanczos stops once each wanted Ritz value mu of the inverse has a residual
# of at most this times mu; it restarts from a fresh vector when the next
# vector's norm falls to this times the largest Ritz value
_LANCZOS_TOL = 1e-13
_LANCZOS_BREAKDOWN = 1e-10
# the fractional part of the golden ratio, which spreads Lanczos starts
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# columns multiplied out at a time when a tensor basis needs them explicitly
_COLUMN_CHUNK = 256


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense symmetric tridiagonal matrix from its diagonal and off-diagonal."""
    out = np.diag(diag)
    i = np.arange(len(off))
    out[i, i + 1] = out[i + 1, i] = off
    return out


def _line_matrices(n: int, h: float,
                   keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense 1-D P1 stiffness and consistent mass on n uniform cells,
    over the kept nodes ``keep``."""
    inv, sixth = 1.0 / h, h / 6.0
    a = _tridiagonal(np.full(n + 1, 2.0 * inv), np.full(n, -inv))
    m = _tridiagonal(np.full(n + 1, 4.0 * sixth), np.full(n, sixth))
    a[0, 0] = a[-1, -1] = inv
    m[0, 0] = m[-1, -1] = 2.0 * sixth
    kept = np.ix_(keep, keep)
    return a[kept], m[kept]


def _pencil_eigh(a: np.ndarray,
                 m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the symmetric pencil (a, m), m positive definite.

    Jacobi scaling d = diag(m)^-1/2, the Cholesky factor L L^T = d m d and
    one standard eigensolve of L^-1 (d a d) L^-T = Y diag(lam) Y^T.  Returns
    the ascending lam and v = d L^-T Y, so a v = m v diag(lam) and
    v^T m v = I.
    """
    d = 1.0 / np.sqrt(np.diag(m))
    Linv = np.linalg.inv(np.linalg.cholesky(d[:, None] * m * d))
    lam, Y = np.linalg.eigh(Linv @ (d[:, None] * a * d) @ Linv.T)
    return lam, d[:, None] * (Linv.T @ Y)


def _trapezoid_weights(mesh: Mesh) -> np.ndarray:
    """Trapezoid weights at every mesh node, flat in C order.

    Up to round-off they are the row sums of the consistent tensor mass;
    the positive quadrature weights of nodal p-norms.
    """
    w = np.ones(1)
    for n, h in zip(mesh.n, mesh.spacing):
        wd = np.full(n + 1, h)
        wd[0] = wd[-1] = 0.5 * h
        w = np.multiply.outer(w, wd)
    return w.ravel()


def _kron_rows(mats, flat: np.ndarray) -> np.ndarray:
    # rows of the Kronecker product of the square mats at C-order indices
    idx = np.unravel_index(flat, tuple(len(a) for a in mats))
    rows = mats[0][idx[0]]
    for a, i in zip(mats[1:], idx[1:]):
        rows = (rows[:, :, None] * a[i][:, None, :]).reshape(len(flat), -1)
    return rows


@dataclass(frozen=True, eq=False)
class TensorEigs:
    """1-D generalized eigenpairs of a face-aligned partition, one per axis.

    Axis d contributes ``A_d V_d = M_d V_d diag(lams[d])`` with
    ``V_d^T M_d V_d = I``, over the free nodes of that axis.  The free-node
    eigenpairs are the Kronecker sums of ``lams`` and the Kronecker products
    of ``vecs``, in the C order of the free nodes.

    Attributes
    ----------
    lams : tuple of numpy.ndarray
        Ascending 1-D eigenvalues per axis.
    vecs : tuple of numpy.ndarray
        Matching 1-D eigenvectors per axis, one per column.
    inverses : tuple of numpy.ndarray or None
        U_d = V_d^T M_d = V_d^-1 per axis, which :meth:`coordinates`
        contracts with; None when only the eigenpairs were given.
    """

    lams: tuple[np.ndarray, ...] = field(repr=False)
    vecs: tuple[np.ndarray, ...] = field(repr=False)
    inverses: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(lam) for lam in self.lams)

    @cached_property
    def values(self) -> np.ndarray:
        """All eigenvalues, flat in C order of the 1-D index tuples."""
        out = self.lams[0]
        for lam in self.lams[1:]:
            out = (out[:, None] + lam[None, :]).ravel()
        return out

    def order(self, k: int) -> np.ndarray:
        """C-order indices of the k lowest eigenpairs, stably sorted."""
        return np.argsort(self.values, kind="stable")[:k]

    def columns(self, flat: np.ndarray) -> np.ndarray:
        """Eigenvectors at the C-order indices ``flat``, one per column.

        Only the selected 1-D columns are multiplied out.  The result is the
        transpose of a C-order (len(flat), n) array, so each eigenvector is
        contiguous in memory.
        """
        return _kron_rows([V.T for V in self.vecs], flat).T

    @cached_property
    def _peak_candidates(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        # per axis: (starts, rows) in CSR layout; column j of vecs[d] may
        # take its largest magnitude only at the ascending rows
        # rows[starts[j]:starts[j + 1]]
        out = []
        for V in self.vecs:
            mag = np.abs(V)
            near = mag >= mag.max(axis=0) * (1.0 - 4.0 * np.finfo(float).eps)
            cols, rows = np.nonzero(near.T)
            starts = np.searchsorted(cols, np.arange(V.shape[1] + 1))
            out.append((starts, rows))
        return tuple(out)

    def signs(self, flat: np.ndarray) -> np.ndarray:
        """Sign of the largest-magnitude entry of each column ``flat``.

        Equal, bit for bit, to the sign of the first largest entry of the
        multiplied-out ``columns(flat)`` in C order, at a cost of the few
        candidate entries per column instead of n.  A column entry is the float product ((a_p b_q) c_r) of one entry per
        axis.  Rounding is monotone and sign-symmetric, so the largest
        magnitude is reached at the per-axis maxima, and an entry can tie it
        only if each factor lies within 4 eps of its axis maximum.  Those
        few candidate entries are formed with the same products and compared
        in C order, so ties resolve as ``np.argmax`` resolves them.
        """
        flat = np.asarray(flat)
        idx = np.unravel_index(flat, self.shape)
        owner = np.arange(len(flat))
        value = np.ones(len(flat))
        for V, i, (starts, rows) in zip(self.vecs, idx, self._peak_candidates):
            # expand each partial product by the candidates of this axis
            col = i[owner]
            count = starts[col + 1] - starts[col]
            parent = np.repeat(np.arange(len(owner)), count)
            within = np.arange(len(parent)) - np.repeat(np.cumsum(count) - count,
                                                        count)
            entry = V[rows[starts[col][parent] + within], col[parent]]
            value = value[parent] * entry
            owner = owner[parent]
        mag = np.abs(value)
        first = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        hit = np.flatnonzero(mag == np.maximum.reduceat(mag, first)[owner])
        winner = hit[np.r_[True, owner[hit][1:] != owner[hit][:-1]]]
        signs = np.sign(value[winner])
        signs[signs == 0] = 1.0
        return signs

    def _per_axis(self, mats, X: np.ndarray) -> np.ndarray:
        # applies the Kronecker product of the square mats to each column
        r = X.shape[1]
        shape = self.shape
        T = X
        for d, op in enumerate(mats):
            T = op @ T.reshape(math.prod(shape[:d]), shape[d], -1)
        return T.reshape(-1, r)

    def dual(self, X: np.ndarray) -> np.ndarray:
        """V^T X for V the Kronecker product of ``vecs``; X is (n, r)."""
        return self._per_axis([V.T for V in self.vecs], X)

    def coordinates(self, X: np.ndarray) -> np.ndarray:
        """V^T M X = V^-1 X, with the Kronecker product of ``inverses``."""
        return self._per_axis(self.inverses, X)

    def synthesize(self, C: np.ndarray) -> np.ndarray:
        """V C for V the Kronecker product of ``vecs``; C is (n, r)."""
        return self._per_axis(self.vecs, C)


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """Stiffness/mass pair restricted to free nodes.

    Assembly builds the face-aligned relaxation R of the partition: the
    same box with every partly Dirichlet face made Neumann.  Its free nodes
    form a product set that contains the free nodes here, and its
    eigenpairs are Kronecker products of 1-D eigenpairs, computed from the
    1-D stiffness and mass bands with U_d = V_d^T M_d kept per axis
    (``relaxed``).  A partition that is its own relaxation (every face
    wholly Dirichlet or wholly Neumann) exposes them as ``tensor``; a
    partial-facet partition holds them in its one capacitance ``kernel``,
    whose shifted solves its eigensolves, its :class:`ConstrainedOperator`
    and its extension solvers all share.  The library takes every product
    with A or M from R's eigen-coordinates (:meth:`coordinates`,
    :meth:`stiffness`), so it never forms either matrix, and every basis
    maps its modes to fields through :meth:`synthesize`, :meth:`dual` and
    :meth:`coordinates`.

    Attributes
    ----------
    A, M : _KroneckerSum
        Symmetric stiffness and consistent mass over free nodes, for
        checks; no library function applies either.  Each keeps R's dense
        1-D lines from its own first read and applies them per axis with
        ``@`` to (n_free,) or (n_free, k) operands: M is the Kronecker
        product of the 1-D masses, A the sum over axes of the products
        with one 1-D stiffness in place of the mass.  Applied to the
        identity, each equals the sparse Kronecker assembly bit for bit.
    lumped : numpy.ndarray
        Trapezoid weights at the free nodes (the row sums of the full
        consistent mass); the positive quadrature weights of nodal p-norms.
    free : numpy.ndarray
        Flat node indices kept after Dirichlet elimination.
    mesh : Mesh
    partition : BoundaryPartition
    tensor : TensorEigs or None
        Per-axis 1-D eigenpairs when every face is wholly Dirichlet or
        wholly Neumann; None for partial-facet partitions.
    kernel : _CapacitanceKernel or None
        Shifted solves in the relaxation's eigen-coordinates on a
        partial-facet partition; None on face-aligned ones.
    """

    lumped: np.ndarray = field(repr=False)
    free: np.ndarray = field(repr=False)
    mesh: Mesh
    partition: BoundaryPartition
    tensor: TensorEigs | None = field(default=None, repr=False)
    kernel: _CapacitanceKernel | None = field(default=None, repr=False)
    # per axis: the nodes R keeps
    _keep: tuple = field(default=(), repr=False)

    @property
    def n_free(self) -> int:
        return len(self.free)

    @property
    def relaxed(self) -> TensorEigs:
        """R's per-axis eigenpairs; ``tensor`` on face-aligned partitions."""
        return self.tensor if self.kernel is None else self.kernel.relaxed

    def _lines(self) -> list[tuple[np.ndarray, np.ndarray]]:
        # R's dense 1-D stiffness and mass per axis, as assembly formed
        # them; formed again here, so that the pair does not keep them
        return [_line_matrices(nd, hd, k) for nd, hd, k
                in zip(self.mesh.n, self.mesh.spacing, self._keep)]

    @cached_property
    def A(self) -> _KroneckerSum:
        lines = self._lines()
        return _KroneckerSum(self, [[a if k == d else m
                                     for k, (a, m) in enumerate(lines)]
                                    for d in range(len(lines))])

    @cached_property
    def M(self) -> _KroneckerSum:
        return _KroneckerSum(self, [[m for _, m in self._lines()]])

    def coordinates(self, f: np.ndarray) -> np.ndarray:
        """c = V_R^T M_R f~ for free-node values f, (n,) or (n, k).

        V_R is R's M-orthonormal eigenvector matrix and f~ is f on R's
        grid, zero where R frees a node the partition does not; with
        U = V_R^T M_R, the Kronecker product of the per-axis U_d, c is one
        per-axis contraction.  These are the M-coordinates of f: V_R c = f~,
        f^T M g = c^T c_g, |f|_M^2 = |c|^2, and V_R^T A f~ = Lambda_R c
        (:meth:`stiffness`), so no product with A or M is formed.  On
        partial facets c lies in null(B), because V_R c = f~ vanishes on D;
        the kernel's projection removes the round-off.  c has R's n_R rows.
        """
        f = np.asarray(f, dtype=float)
        if self.kernel is not None:
            return self.kernel.coordinates(f)
        return self.tensor.coordinates(f.reshape(len(f), -1)).reshape(f.shape)

    def dual(self, f: np.ndarray) -> np.ndarray:
        """g = V_R^T f~ for free-node values f, (n,) or (n, k).

        f~ is f on R's grid, zero where R frees a node the partition does
        not: the Euclidean products of f with R's eigenvectors, projected
        onto null(B) on partial facets (the kernel's ``dual``).  g has R's
        n_R rows.
        """
        f = np.asarray(f, dtype=float)
        if self.kernel is not None:
            return self.kernel.dual(f)
        return self.tensor.dual(f.reshape(len(f), -1)).reshape(f.shape)

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """Free-node values f = V_R c of coordinates c, (n_R,) or (n_R, k).

        The inverse of :meth:`coordinates` on coordinates in null(B): the
        per-axis contraction with the 1-D eigenvectors, restricted to the
        partition's free nodes on partial facets (the kernel's
        ``synthesize``).  Returns f, (n,) or (n, k).
        """
        c = np.asarray(c, dtype=float)
        if self.kernel is not None:
            return self.kernel.synthesize(c)
        return self.tensor.synthesize(c.reshape(len(c), -1)).reshape(c.shape)

    def stiffness(self, c: np.ndarray) -> np.ndarray:
        """V^T A f from the coordinates c of f: Lambda_R c, projected onto
        null(B) on partial facets."""
        out = _times_rows(self.relaxed.values, c)
        return out if self.kernel is None else self.kernel.project(out)


class _KroneckerSum:
    """A sum of Kronecker products of R's dense 1-D lines over the free
    nodes: ``@`` sets x on R's grid (zero on D on partial facets), applies
    each term per axis, sums the terms left to right and reads the free
    nodes."""

    def __init__(self, pair: OperatorPair, terms: list) -> None:
        self.shape = (pair.n_free, pair.n_free)
        self._relaxed, self._kernel = pair.relaxed, pair.kernel
        self._terms = terms

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or len(x) != self.shape[0]:
            raise ValueError(f"operand of shape {x.shape}: need (n_free,) or "
                             f"(n_free, k) with n_free = {self.shape[0]}")
        kernel = self._kernel
        X = x.reshape(len(x), -1) if kernel is None else kernel._scatter(x)
        terms = (self._relaxed._per_axis(t, X) for t in self._terms)
        out = sum(terms, next(terms))
        return (out if kernel is None else out[kernel.pos]).reshape(x.shape)


def _times_rows(d: np.ndarray, c: np.ndarray) -> np.ndarray:
    # d_i c_i for c of shape (n,) or (n, k)
    return d.reshape((-1,) + (1,) * (c.ndim - 1)) * c


def _assemble(partition: BoundaryPartition) -> OperatorPair:
    mesh = partition.mesh
    # per axis, the end nodes the relaxation keeps: a face stays Dirichlet
    # only if it is wholly Dirichlet
    labels = np.asarray(partition.dirichlet)
    keep = [np.ones(nd + 1, dtype=bool) for nd in mesh.n]
    for axis, side, facets, _, _ in mesh.faces():
        if labels[facets].all():
            keep[axis][0 if side == 0 else -1] = False

    lams, vecs, inverses = [], [], []
    for nd, hd, k in zip(mesh.n, mesh.spacing, keep):
        a, m = _line_matrices(nd, hd, k)
        lam, vec = _pencil_eigh(a, m)
        lams.append(lam)
        vecs.append(vec)
        inverses.append(vec.T @ m)
    relaxed = TensorEigs(lams=tuple(lams), vecs=tuple(vecs),
                         inverses=tuple(inverses))

    # the free nodes here, as positions in the relaxation's C-order free set
    kept = ~partition.dirichlet_node_mask.reshape(mesh.shape)[np.ix_(*keep)]
    pos = np.flatnonzero(kept)
    free = partition.free_nodes
    aligned = len(pos) == math.prod(relaxed.shape)
    return OperatorPair(
        lumped=_trapezoid_weights(mesh)[free], free=free, mesh=mesh,
        partition=partition, tensor=relaxed if aligned else None,
        kernel=None if aligned else _CapacitanceKernel(relaxed, pos),
        _keep=tuple(keep))


def assemble_operators(mesh: Mesh, partition: BoundaryPartition) -> OperatorPair:
    """Assemble stiffness and consistent mass on the free nodes.

    Parameters
    ----------
    mesh : Mesh
    partition : BoundaryPartition
        Must belong to ``mesh``; its Dirichlet closure nodes are eliminated.

    Returns
    -------
    OperatorPair

    Notes
    -----
    Results are cached on the partition, so repeated calls with the same
    partition object return the same pair.  The pair lives as long as the
    partition does and is freed with it; an equal partition built anew
    assembles its own.
    """
    if partition.mesh != mesh:
        raise ValueError("partition does not belong to this mesh")
    return partition._operators


class SpectralBasis:
    """Ascending M-orthonormal eigenpairs of the constrained Laplacian.

    Every eigenvector is held by its coordinates in the eigenbasis of the
    face-aligned relaxation R (:meth:`OperatorPair.coordinates`), and every
    map is one :class:`OperatorPair` map composed with one mode map:
    :meth:`synthesize` (V c) is ``ops.synthesize`` of the modes'
    coordinates, :meth:`dual` (V^T f) and :meth:`coefficients` (V^T M u)
    take each mode's component of ``ops.dual`` and ``ops.coordinates``,
    and :meth:`eigenfunction` synthesizes one mode.  On a face-aligned
    partition those coordinates are unit vectors: mode j is R's Kronecker
    eigenvector at the C-order index ``order[j]``, scaled by ``signs[j]``,
    so the mode map is a signed selection, each map costs per-axis
    contractions of n * sum(n_d) work, and the basis may be complete at
    any size.  On a partial facet the basis holds the n_R x m coordinate
    array ``coords`` that its eigensolve computed, and the mode map is the
    product with it; no nodal copy is kept and M is never applied.

    Parameters
    ----------
    lams : numpy.ndarray
        Eigenvalues, ascending, all positive.
    ops : OperatorPair
    order, signs : numpy.ndarray, optional
        On a face-aligned partition (``ops.tensor`` set): the C-order
        Kronecker index and the +-1 factor of each mode.
    coords : numpy.ndarray, optional
        Instead of ``order`` and ``signs``, on any partition: the
        eigenvectors' coordinates (:meth:`OperatorPair.coordinates`), (n_R,
        m), one per column, orthonormal and in null(B).

    Attributes
    ----------
    complete : bool
        True when m equals the number of free nodes.
    vecs : numpy.ndarray
        Eigenvectors over free nodes, shape (n_free, m), M-orthonormal.
        Each column is sign-normalized to be nonnegative at its node of
        largest magnitude (the first such node in C order on ties).  It is
        multiplied out on first access and kept, n_free x m floats, which a
        complete basis on a large mesh may not fit in memory; no library
        code reads it.
    """

    def __init__(self, lams: np.ndarray, ops: OperatorPair, *,
                 order: np.ndarray | None = None,
                 signs: np.ndarray | None = None,
                 coords: np.ndarray | None = None) -> None:
        self.lams = lams
        self.ops = ops
        self._order = order
        self._signs = signs
        self._coords = coords
        self._powers: dict[float, np.ndarray] = {}
        m = len(lams)
        if coords is not None:
            ok = (order is None and signs is None
                  and coords.shape == (len(ops.relaxed.values), m))
        else:
            ok = (ops.tensor is not None and order is not None
                  and signs is not None and order.shape == signs.shape == (m,))
        if lams.ndim != 1 or not ok:
            raise ValueError("inconsistent basis shapes")
        if np.any(np.diff(lams) < 0):
            raise ValueError("eigenvalues must be ascending")
        if lams[0] <= 0:
            raise ValueError("first eigenvalue must be positive; "
                             "is the Dirichlet part empty?")

    def __repr__(self) -> str:
        return (f"SpectralBasis(m={self.m}, complete={self.complete}, "
                f"ops={self.ops!r})")

    @property
    def m(self) -> int:
        return len(self.lams)

    @property
    def complete(self) -> bool:
        return self.m == self.ops.n_free

    @cached_property
    def vecs(self) -> np.ndarray:
        if self._coords is not None:
            return self.ops.synthesize(self._coords)
        # filled row by row from the multiplied-out Kronecker columns, so
        # each eigenvector is contiguous
        rows = np.empty((self.m, self.ops.n_free))
        for start in range(0, self.m, _COLUMN_CHUNK):
            modes = slice(start, start + _COLUMN_CHUNK)
            rows[modes] = (self.ops.tensor.columns(self._order[modes])
                           * self._signs[modes]).T
        return rows.T

    def _modes(self, c: np.ndarray) -> np.ndarray:
        # R-coordinates c, (n_R,) or (n_R, r), to each mode's component
        if self._coords is not None:
            return self._coords.T @ c
        return _times_rows(self._signs, c[self._order])

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """V c: free-node values from mode coefficients, (m,) or (m, r)."""
        c = np.asarray(c, dtype=float)
        if self._coords is not None:
            return self.ops.synthesize(self._coords @ c)
        z = np.zeros((self.ops.n_free,) + c.shape[1:])
        z[self._order] = _times_rows(self._signs, c)
        return self.ops.synthesize(z)

    def dual(self, f: np.ndarray) -> np.ndarray:
        """V^T f: Euclidean products with each eigenvector, (n,) or (n, r)."""
        return self._modes(self.ops.dual(f))

    def coefficients(self, values_free: np.ndarray) -> np.ndarray:
        """M-inner products of a free-node vector with each eigenvector.

        The modes' components of its coordinates
        (:meth:`OperatorPair.coordinates`), so M is never applied.
        """
        return self._modes(self.ops.coordinates(values_free))

    # the quotient's view of the operator, coefficientwise; shared with
    # ConstrainedOperator, and exact on the span of the basis

    @property
    def lam1(self) -> float:
        return self.lams[0]

    def _lam_s(self, s: float) -> np.ndarray:
        out = self._powers.get(s)
        if out is None:
            out = self._powers[s] = self.lams**s
        return out

    def lam1s(self, s: float) -> float:
        return self._lam_s(s)[0]

    def power(self, c: np.ndarray, s: float, lam: float = 0.0) -> np.ndarray:
        """(L^s - lam) c."""
        return (self._lam_s(s) - lam) * c

    def form(self, c: np.ndarray, s: float) -> tuple[float, np.ndarray]:
        """<L^s c, c> and L^s c."""
        lam_s = self._lam_s(s)
        return float(np.sum(lam_s * c**2)), lam_s * c

    def resolvent(self, b: np.ndarray, s: float, lam: float) -> np.ndarray:
        """(L^s - lam)^-1 b."""
        return b / (self._lam_s(s) - lam)

    def frac_rel_error(self, s: float) -> float:
        """Error of the power against the basis's own eigenvalues: none."""
        return 0.0

    def eigenfunction(self, k: int) -> np.ndarray:
        """Eigenvector k scattered to all mesh nodes (zeros on Dirichlet).

        Modes are numbered from 1; k = 1 is the principal one.
        """
        if not 1 <= k <= self.m:
            raise IndexError(f"mode {k} not in 1..{self.m}")
        full = np.zeros(self.ops.mesh.n_nodes)
        full[self.ops.free] = self.synthesize(np.eye(1, self.m, k - 1)[0])
        return full


def _column_signs(vecs: np.ndarray) -> np.ndarray:
    # +-1 per column: the sign of its largest-magnitude entry (first on
    # ties); a block of columns at a time, since the magnitudes and the
    # copy that argmax over rows makes would each take vecs's size
    signs = np.empty(vecs.shape[1])
    for start in range(0, len(signs), _COLUMN_CHUNK):
        block = vecs[:, start:start + _COLUMN_CHUNK]
        idx = np.argmax(np.abs(block), axis=0)
        signs[start:start + len(idx)] = np.sign(
            block[idx, np.arange(len(idx))])
    signs[signs == 0] = 1.0
    return signs


def _sign_normalize(vecs: np.ndarray) -> np.ndarray:
    # in place: every caller passes a freshly computed array
    vecs *= _column_signs(vecs)
    return vecs


def _constrained_eigh(kernel: _CapacitanceKernel,
                      k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of a partial-facet partition, via its relaxation.

    In the eigen-coordinates c of the relaxation R (x = V_R c), stiffness
    and mass are diag(Lambda_R) and I.  The partition's space is the
    subspace where x vanishes on the r nodes D that R frees and the
    partition does not: B c = 0 with B = V_R[D, :], of full row rank since
    V_R is invertible; B^T is formed from the kernel's factors (v, B_f).
    The Householder QR of B^T, Q = I - W T W^T in compact-WY form, spans
    null(B) by the last n columns of Q, so the problem is the standard one
    for K = (Q^T Lambda_R Q)[r:, r:], a diagonal plus a symmetric rank-2r
    term, and c = Q [0; Y] for the eigenvectors Y of K.  Only Lambda_R
    enters, so a singular R (every face Neumann) is harmless.  Returns the
    eigenvalues and the eigenvectors' coordinates c, (n_R, k),
    orthonormal, so the eigenvectors are M-orthonormal.  Imports scipy's
    LAPACK drivers on its first call, for the compact-WY QR, the rank-2k
    update and the subset eigensolve.
    """
    import scipy.linalg

    lam = kernel.lam
    n_r, r = len(lam), kernel.B_f.shape[0]
    # B^T is a fresh array, which dgeqrt may overwrite
    W, T, info = scipy.linalg.lapack.dgeqrt(
        r, np.asfortranarray(kernel._Bt(np.eye(r))), overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrt failed with info={info}")
    W = np.tril(W, -1)
    W[np.arange(r), np.arange(r)] = 1.0
    W2 = W[r:]
    # K = diag(lam[r:]) - U X^T - X U^T, with U = W2 T^T and
    # X = diag(lam[r:]) W2 - U (W^T diag(lam) W) / 2; lower triangle only
    U = W2 @ T.T
    X = lam[r:, None] * W2 - U @ (0.5 * (W.T @ (lam[:, None] * W)))
    K = np.zeros((n_r - r, n_r - r), order="F")
    np.fill_diagonal(K, lam[r:])
    K = scipy.linalg.blas.dsyr2k(-1.0, U, X, beta=1.0, c=K, lower=1,
                                 overwrite_c=1)
    if k == n_r - r:
        mu, Y = scipy.linalg.eigh(K, overwrite_a=True, check_finite=False,
                                  driver="evd")
    else:
        mu, Y = scipy.linalg.eigh(K, overwrite_a=True, check_finite=False,
                                  subset_by_index=[0, k - 1], driver="evr")
    # K and Y are n x n for a complete basis; drop each once consumed
    del K
    Z = T @ (W2.T @ Y)
    C = np.zeros((n_r, k))
    C[r:] = Y
    del Y
    C -= W @ Z
    return mu, C


def _lanczos(ops: OperatorPair, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of a partial-facet partition by Lanczos, ascending.

    In the eigen-coordinates of the relaxation R the partition's problem is
    the standard one for Pi Lambda_R Pi on null(B), Euclidean product
    included (see :class:`_CapacitanceKernel`).  Lanczos runs on its
    shift-invert operator (Pi Lambda_R Pi + theta_0)^-1, one kernel solve
    per step, at theta_0 the second-lowest eigenvalue of R: positive, since
    R's null space holds at most the constants.  Each new Lanczos vector is
    orthogonalized twice against all earlier ones, so no restart is needed:
    a run stops once the k largest Ritz values mu of the inverse have
    residuals of at most ``_LANCZOS_TOL`` mu, or once its Krylov space is
    all that is left of null(B).  One Krylov space holds one direction of
    each eigenspace, so a further run, on the complement of the Ritz
    vectors found so far, looks for the copies of a multiple eigenvalue;
    its pairs are merged in until a run finds none above the k-th.  Starts
    are the coordinates of 1 + x on the free nodes, x_i the fractional part
    of (i + n t) phi for the t-th start and the golden ratio phi: fixed, and
    without a symmetry of the partition that could hide a mode.  A
    breakdown continues from a fresh such vector.  Returns lambda = 1 / mu
    - theta_0 and the Ritz vectors' coordinates, (n_R, k), orthonormal, so
    the Ritz vectors are M-orthonormal.  A is never factored.
    """
    kernel = ops.kernel
    n = ops.n_free
    theta0 = float(np.partition(kernel.lam, 1)[1])
    shifts = kernel.shifts(np.array([theta0]))
    starts = 0

    def orthonormal(w: np.ndarray,
                    basis: np.ndarray) -> tuple[np.ndarray, float]:
        # w orthogonalized twice against the rows of basis, then projected
        # onto null(B) last: the round-off that takes w out of null(B)
        # would grow from step to step by the division by its norm
        for _ in range(2):
            w -= basis.T @ (basis @ w)
        w = kernel.project(w)
        b = float(np.linalg.norm(w))
        return w / b, b

    def start(basis: np.ndarray) -> np.ndarray:
        nonlocal starts
        x = 1.0 + ((np.arange(n) + n * starts) * _GOLDEN) % 1.0
        starts += 1
        return orthonormal(ops.coordinates(x), basis)[0]

    def run(X: np.ndarray, want: int) -> tuple[np.ndarray, np.ndarray]:
        # the want largest Ritz pairs of the inverse on the complement of
        # the rows of X, descending
        size = n - len(X)
        Q = np.empty((len(X) + min(size, 2 * want + 32), X.shape[1]))
        Q[:len(X)] = X
        q0 = len(X)
        Q[q0] = start(X)
        # the Lanczos tridiagonal grows in place with Q; its leading block
        # of order j + 1 is the matrix of step j
        T = np.zeros((len(Q) - q0,) * 2)
        for j in range(size):
            i = q0 + j
            w = kernel.solve(Q[i][:, None], shifts)[:, 0]
            T[j, j] = Q[i] @ w
            w, b = orthonormal(w, Q[:i + 1])
            mu, Y = np.linalg.eigh(T[:j + 1, :j + 1])
            top = slice(max(len(mu) - want, 0), None)
            if j + 1 == size or (j + 1 >= want and np.all(
                    np.abs(b * Y[-1, top]) <= _LANCZOS_TOL * mu[top])):
                return mu[top][::-1], Q[q0:i + 1].T @ Y[:, top][:, ::-1]
            if i + 1 == len(Q):
                Q = np.concatenate([Q, np.empty((min(len(X) + size, 2 * len(Q))
                                                 - len(Q), Q.shape[1]))])
                T = np.pad(T, (0, len(Q) - q0 - len(T)))
            if b > _LANCZOS_BREAKDOWN * mu[-1]:
                T[j, j + 1] = T[j + 1, j] = b
                Q[i + 1] = w
            else:
                # an invariant subspace: go on from a vector orthogonal to
                # it, with a zero off-diagonal
                Q[i + 1] = start(Q[:i + 1])

    mu = np.empty(0)
    X = np.empty((0, len(kernel.lam)))
    while len(X) < n:
        m, Y = run(X, k)
        if len(mu) == k and m[0] <= mu[-1] * (1.0 + _LANCZOS_TOL):
            break
        mu = np.concatenate([mu, m])
        X = np.concatenate([X, Y.T])
        keep = np.argsort(-mu, kind="stable")[:k]
        mu, X = mu[keep], X[keep]
    return 1.0 / mu - theta0, X.T


def eigendecompose(ops: OperatorPair, m: int | str = "all") -> SpectralBasis:
    """Solve A phi = lambda M phi for the lowest m eigenpairs.

    The backend follows from the partition's shape.  On face-aligned
    partitions (every face wholly Dirichlet or wholly Neumann, so
    ``ops.tensor`` is set) the eigenpairs are sums and Kronecker products of
    the 1-D eigenpairs, for any m at any size, complete bases included.
    The basis then holds no eigenvector matrix, only the stably sorted
    Kronecker indices and one sign per mode.  The signs come from the
    per-axis rule of :meth:`TensorEigs.signs`, which never multiplies a
    column out, yet matches the dense convention exactly; the whole call
    costs the sort plus O(n) past the 1-D tables.  On partial-facet
    partitions (some face partly Dirichlet) the number of pairs picks the
    solver, at any size: at most 32 pairs, fewer than n, come from
    shift-invert Lanczos with the partition's capacitance kernel as the
    inverse, so no sparse LU is built; any other request takes one standard
    dense ``eigh`` in the eigen-coordinates of the face-aligned relaxation,
    O(n^3) time and O(n^2) memory like any dense complete basis.  Their
    bases keep the coordinates the solver computed, (n_R, m), each column
    signed by the dense convention on its synthesized eigenvector.  The
    critical quotient on such a partition needs none of this: see
    :func:`quotient_operator`.

    Parameters
    ----------
    ops : OperatorPair
    m : int or "all"
        Number of eigenpairs.  "all" yields a complete basis.

    Returns
    -------
    SpectralBasis
        Reading ``vecs`` multiplies out the n x m eigenvector matrix; the
        basis maps never do.

    Raises
    ------
    ValueError
        If m is neither "all" nor an integer in [1, n]; a bool is not one.
    """
    n = ops.n_free
    if isinstance(m, str):
        if m.lower() != "all":
            raise ValueError(f"m must be an integer or 'all', got {m!r}")
        k = n
    else:
        if isinstance(m, bool) or not isinstance(m, numbers.Integral):
            raise ValueError(f"m must be an integer or 'all', got {m!r}")
        k = int(m)
        if not 1 <= k <= n:
            raise ValueError(f"m must be in [1, {n}], got {k}")

    tensor = ops.tensor
    if tensor is not None:
        order = tensor.order(k)
        return SpectralBasis(lams=tensor.values[order], ops=ops, order=order,
                             signs=tensor.signs(order))
    if k <= _ITERATIVE_MAX and k < n:
        lams, coords = _lanczos(ops, k)
    else:
        lams, coords = _constrained_eigh(ops.kernel, k)
    coords *= _column_signs(ops.synthesize(coords))
    return SpectralBasis(lams=np.ascontiguousarray(lams), ops=ops,
                         coords=coords)


# a Gauss-Jacobi rule for L^-a gains nodes until the measured sup of
# |f(lam) lam^a - 1| over [lam_1, lam_max(R)] is at most this
_RULE_TOL = 1e-12
_RULE_MAX_NODES = 400
# sample points of that sup per node of the rule
_RULE_SAMPLES = 50
# CG on (I - lam L^-s) stops at this residual relative to its right side
_CG_TOL = 1e-13
_CG_MAX_ITER = 2000


# order up to which a matrix is factored whole before its factor is inverted
_CHOLESKY_BLOCK = 32
# entries formed at a time: the capacitance matrices of a block of shifts,
# or the row-pair products of a several-face B; a block of rows of a rule's
# sup sample takes a _RULE_SAMPLES-th of it
_SHIFT_BLOCK = 1 << 20


def _inverse_lower(L: np.ndarray) -> np.ndarray:
    """L^-1 for each lower triangular matrix of L, (..., r, r).

    By halves down to order 1: L = [[A, 0], [B, D]] has the inverse [[A^-1,
    0], [-D^-1 B A^-1, D^-1]], so all of the work is batched matrix
    products, with no pivoting and none of a general inverse's LU.
    """
    r = L.shape[-1]
    if r == 1:
        return 1.0 / L
    h = r // 2
    out = np.zeros_like(L)
    A = out[..., :h, :h] = _inverse_lower(L[..., :h, :h])
    D = out[..., h:, h:] = _inverse_lower(L[..., h:, h:])
    out[..., h:, :h] = -D @ (L[..., h:, :h] @ A)
    return out


def _inverse_cholesky(C: np.ndarray, _leaf=_inverse_lower) -> np.ndarray:
    """L^-1 for the lower Cholesky factor L of each matrix of C, (..., r, r).

    C^-1 v is then applied as L^-T (L^-1 v), two products.  By halves, as
    in a right-looking Cholesky factorization: with L11^-1 from C11, L21 =
    C21 L11^-T, L22^-1 from the Schur complement C22 - L21 L21^T, and the
    off-diagonal block of L^-1 is -L22^-1 L21 L11^-1; so nearly all of the
    work is matrix products.  A block of order ``_CHOLESKY_BLOCK`` or less
    is factored whole, and its factor inverted by :func:`_inverse_lower`,
    whose batched products win on a batch of several matrices.  The
    blocks of a single larger matrix are a batch of one, where the
    halving's recursion costs about 9x ``numpy.linalg.inv`` of the
    factor, so they take that instead.  A single matrix of block order or
    less, such as a 2-D kernel's Gram matrix, formed once per kernel,
    keeps the halving: there the difference is a few hundred
    microseconds.  A matrix that is not positive definite raises
    ``numpy.linalg.LinAlgError``.
    """
    r = C.shape[-1]
    if r <= _CHOLESKY_BLOCK:
        return _leaf(np.linalg.cholesky(C))
    if C.size == r * r:
        _leaf = _inverse_factor
    h = r // 2
    out = np.zeros_like(C)
    A = out[..., :h, :h] = _inverse_cholesky(C[..., :h, :h], _leaf)
    L21 = C[..., h:, :h] @ A.swapaxes(-1, -2)
    D = out[..., h:, h:] = _inverse_cholesky(
        C[..., h:, h:] - L21 @ L21.swapaxes(-1, -2), _leaf)
    out[..., h:, :h] = -D @ (L21 @ A)
    return out


def _inverse_factor(L: np.ndarray) -> np.ndarray:
    # L^-1 of one lower triangular matrix, its upper triangle exactly zero
    return np.tril(np.linalg.inv(L))


@dataclass(frozen=True, eq=False)
class _Shifts:
    """Shifts theta_j with 1 / (Lambda_R + theta_j) and inverse factors.

    ``H[f, i, j]`` is 1 / (Lambda_R + theta_j) at R's eigen-index (p, i,
    q), f = (p, q): the shifts' one n_R x k array, face-major in the
    layout of the kernel that built it, which its solves read through a
    (p, i, q, k) view and its weighted applies as n_f blocks (i, j).
    ``Linv[j]`` is the inverse of the lower Cholesky factor of C_theta_j,
    so applying all r x r inverses is two batched products.  (One
    explicit C_theta^-1 per shift would make it one product, but at the
    small shifts of a singular R it misses the dense solve by up to 1e-11
    relative, where the factors stay within 1e-13.)
    """

    theta: np.ndarray
    H: np.ndarray = field(repr=False)
    Linv: np.ndarray = field(repr=False)

    def solve(self, V: np.ndarray) -> np.ndarray:
        """C_theta_j^-1 v_j for each column v_j of V, (r, k)."""
        W = np.matmul(self.Linv, V.T[:, :, None])
        return np.matmul(self.Linv.transpose(0, 2, 1), W)[:, :, 0].T


class _CapacitanceKernel:
    """Shifted solves of a partial-facet partition, with no factorization of A.

    In the eigen-coordinates c of the face-aligned relaxation R (x = V_R c)
    the partition's space is null(B), B = V_R[D, :] for the r nodes D that
    R frees and the partition does not; there the mass is I and the
    stiffness is Pi Lambda_R Pi, with Pi the orthogonal projector onto
    null(B).  The solution in null(B) of (Pi Lambda_R Pi + theta) c = Pi g
    is the diagonal solve with a Lagrange correction (Buzbee, Dorr, George
    & Golub 1971):

        c = (g - B^T z) / (Lambda_R + theta),  C_theta z = B (g / (Lambda_R + theta)),

    where the capacitance matrix C_theta = B (Lambda_R + theta)^-1 B^T is
    r x r and positive definite for theta > 0, singular R included.

    The solves never multiply by B itself.  When every node of D has the
    same index e on some axis a, as on the one partial face a moving
    family leaves, B factors through that face (Proskurowski & Widlund
    1976): with R's eigen-index split as (p, i, q) around axis a and the
    face index f = (p, q),

        B[:, (p, i, q)] = v_i B_f[:, f],  v = V_a[e, :],

    where B_f (r x n_f) holds the rows at D of the face's own Kronecker
    eigenvectors.  Then C_theta = B_f diag(g_theta) B_f^T with g_theta(f) =
    sum_i v_i^2 / (mu_i + nu_f + theta), for R's 1-D eigenvalues mu on axis
    a and the face's eigenvalues nu, and B x and B^T z are a contraction
    with v and one product with B_f.  So forming C_theta costs r^2 n_f and
    an apply O(n_R k + r n_f k) for k shifts, against r^2 n_R and r n_R k
    with B itself.  When D spans several faces the same code runs with
    the trivial factorization v = [1], B_f = B, and the C_theta of all
    shifts come from one product of B's row pairs with their weights.  The
    kernel uses numpy only.  (v, B_f) is the only form of B kept; the QR
    of :func:`_constrained_eigh` reads B^T through it.  A partition
    assembles one kernel, which every consumer of the partition shares.
    """

    def __init__(self, relaxed: TensorEigs, pos: np.ndarray) -> None:
        self.relaxed = relaxed
        self.pos = pos
        self.lam = relaxed.values
        cut = np.ones(len(self.lam), dtype=bool)
        cut[pos] = False
        cut = np.flatnonzero(cut)
        shape = relaxed.shape
        idx = np.unravel_index(cut, shape)
        # axes along which all of D has one index; factor through the longest
        constant = [d for d, i in enumerate(idx) if np.all(i == i[0])]
        if constant:
            a = max(constant, key=lambda d: shape[d])
            others = [d for d in range(len(shape)) if d != a]
            self._v = relaxed.vecs[a][idx[a][0]]
            face = np.ravel_multi_index([idx[d] for d in others],
                                        [shape[d] for d in others])
            self.B_f = _kron_rows([relaxed.vecs[d] for d in others], face)
            # (p, i, q) extents of R's eigen-index around axis a
            self._layout = (math.prod(shape[:a]), shape[a],
                            math.prod(shape[a + 1:]))
        else:
            self._v = np.ones(1)
            self.B_f = _kron_rows(relaxed.vecs, cut)
            self._layout = (1, 1, len(self.lam))
        # R's eigenvalues in face-major order (p q, i), the order of every
        # _Shifts.H
        self._lam_faces = np.ascontiguousarray(self._faces(self.lam))
        # B B^T = (v . v) B_f B_f^T, factored once for the projector
        self._gram = _inverse_cholesky(
            (self._v @ self._v) * (self.B_f @ self.B_f.T))

    def _faces(self, x: np.ndarray) -> np.ndarray:
        # x of R's eigen-index (p, i, q) in face-major order; (p q, i)
        pre, n_a, post = self._layout
        return x.reshape(pre, n_a, post).transpose(0, 2, 1).reshape(
            pre * post, n_a)

    def _B(self, X: np.ndarray) -> np.ndarray:
        # B X for X of shape (n_R, k): B_f times sum_i v_i X[(p, i, q), :]
        pre, n_a, post = self._layout
        k = X.shape[1]
        Y = self._v @ X.reshape(pre, n_a, post * k)
        return self.B_f @ Y.reshape(pre * post, k)

    def _Bt(self, Z: np.ndarray) -> np.ndarray:
        # B^T Z for Z of shape (r, k)
        pre, n_a, post = self._layout
        Y = (self.B_f.T @ Z).reshape(pre, 1, -1)
        return (self._v[:, None] * Y).reshape(pre * n_a * post, -1)

    def project(self, c: np.ndarray) -> np.ndarray:
        """Pi c, the orthogonal projection onto null(B), (n_R,) or (n_R, k)."""
        X = c.reshape(len(self.lam), -1)
        z = self._gram.T @ (self._gram @ self._B(X))
        return (X - self._Bt(z)).reshape(c.shape)

    def _scatter(self, f: np.ndarray) -> np.ndarray:
        # f at the partition's free nodes onto R's grid, zero on D; (n_R, k)
        x = np.zeros((len(self.lam),) + f.shape[1:])
        x[self.pos] = f
        return x.reshape(len(self.lam), -1)

    def coordinates(self, f: np.ndarray) -> np.ndarray:
        """Pi U f~ = Pi V_R^T M_R f~ for free-node values f, (n,) or (n, k)."""
        c = self.relaxed.coordinates(self._scatter(f))
        return self.project(c).reshape((len(self.lam),) + f.shape[1:])

    def dual(self, f: np.ndarray) -> np.ndarray:
        """Pi V_R^T f, f given at the partition's free nodes, (n,) or (n, k)."""
        g = self.relaxed.dual(self._scatter(f))
        return self.project(g).reshape((len(self.lam),) + f.shape[1:])

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """(V_R c) at the partition's free nodes, (n_R,) or (n_R, k)."""
        x = self.relaxed.synthesize(c.reshape(len(self.lam), -1))
        return x[self.pos].reshape((len(self.pos),) + c.shape[1:])

    def _capacitance(self, H: np.ndarray) -> np.ndarray:
        # C_theta_j = B_f diag(g_j) B_f^T for each shift j of a face-major
        # H[f, i, j] = 1 / (Lambda_R + theta_j), g_j > 0 for theta_j > 0;
        # (k, r, r)
        g = np.matmul(self._v**2, H)
        r, n_f = self.B_f.shape
        C = np.empty((g.shape[1], r, r))
        if len(self._v) > 1:
            # one partial face: B_f has the face's n_f columns, and each C
            # is a product X X^T, which numpy takes to BLAS syrk
            for j, gj in enumerate(g.T):
                X = self.B_f * np.sqrt(gj)
                C[j] = X @ X.T
            return C
        # D on several faces, B_f = B with all n_R columns: the entries (a,
        # b), a >= b, of every shift come from one product of the row pairs
        # B[a] B[b] with g, a block of pairs at a time
        a, b = np.tril_indices(r)
        step = max(1, _SHIFT_BLOCK // n_f)
        for i in range(0, len(a), step):
            ab = slice(i, i + step)
            low = ((self.B_f[a[ab]] * self.B_f[b[ab]]) @ g).T
            C[:, a[ab], b[ab]] = C[:, b[ab], a[ab]] = low
        return C

    def shifts(self, theta: np.ndarray) -> _Shifts:
        """Factor C_theta for every shift in ``theta`` (all positive)."""
        theta = np.asarray(theta, dtype=float)
        H = 1.0 / (self._lam_faces[:, :, None] + theta)
        r = self.B_f.shape[0]
        Linv = np.empty((len(theta), r, r))
        # a block of shifts at a time, so that their matrices, factors and
        # inverses take a bounded amount of memory besides Linv itself
        step = max(1, _SHIFT_BLOCK // (r * r))
        for j in range(0, len(theta), step):
            block = slice(j, j + step)
            Linv[block] = _inverse_cholesky(self._capacitance(H[:, :, block]))
        return _Shifts(theta=theta, H=H, Linv=Linv)

    def solve(self, G: np.ndarray, sh: _Shifts) -> np.ndarray:
        """Column j of the result solves (Pi Lambda_R Pi + theta_j) c = Pi g_j."""
        pre, n_a, post = self._layout
        n_r, k = G.shape
        H = sh.H.reshape(pre, post, n_a, k).transpose(0, 2, 1, 3)
        G = G.reshape(pre, n_a, post, k)
        Z = sh.solve(self._B((G * H).reshape(n_r, k)))
        return ((G - self._Bt(Z).reshape(G.shape)) * H).reshape(n_r, k)

    def weighted(self, g: np.ndarray, rule: _PowerRule) -> np.ndarray:
        """sum_j w_j (Pi Lambda_R Pi + theta_j)^-1 Pi g for one vector g.

        The weights w_j and shifts theta_j are the rule's.  Both products
        with B are matrix products batched over the face index f of the
        shifts' face-major H: B X takes g v_i times each face's block
        H[f] (n_a x k), and B^T Z takes each block times the face's row of
        E = B_f^T Z scaled by the weights, a small n_f x k array.  So no
        n_R x k array is formed besides the shifts' own H.
        """
        sh = rule.shifts
        pre, n_a, post = self._layout
        gf = self._faces(g)
        Y = np.matmul((gf * self._v)[:, None, :], sh.H)[:, 0]
        E = (self.B_f.T @ sh.solve(self.B_f @ Y)) * rule.weights
        out = (gf * rule.H_sum
               - np.matmul(sh.H, E[:, :, None])[:, :, 0] * self._v)
        return out.reshape(pre, post, n_a).transpose(0, 2, 1).ravel()


def _gauss_jacobi(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1 - x)^b (1 + x)^-b, b = 1 - 2a.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    monic Jacobi recurrence with alpha = b, beta = -b.  As alpha + beta = 0
    its diagonal is -b at k = 0 and 0 after, its squared off-diagonal (k^2
    - b^2) / (4k^2 - 1), and the weights are mu_0 times the squared first
    eigenvector components, mu_0 = 2 Gamma(1 + b) Gamma(1 - b) = 2 pi b /
    sin(pi b), which is 2 at b = 0.
    """
    b = 1.0 - 2.0 * a
    k = np.arange(1, n, dtype=float)
    diag = np.zeros(n)
    diag[0] = -b
    off_sq = (k * k - b * b) / (4.0 * k * k - 1.0)
    x, V = np.linalg.eigh(_tridiagonal(diag, np.sqrt(off_sq)))
    mu0 = 2.0 * math.pi * b / math.sin(math.pi * b) if b else 2.0
    return x, mu0 * V[0] ** 2


@dataclass(frozen=True, eq=False)
class _PowerRule:
    """L^-a ~ sum_j w_j (L + theta_j)^-1 with its measured relative error.

    The k shifts theta_j = tau ((1 - x_j) / (1 + x_j))^2 come from the
    Gauss-Jacobi nodes x_j of :func:`_power_rule`, a few dozen on 2-D and
    3-D moving families.  The rule holds one n_R x k array, its shifts'
    face-major H; an apply scales the kernel's small n_f x k intermediate
    by the weights.
    """

    weights: np.ndarray = field(repr=False)
    shifts: _Shifts
    error: float

    @cached_property
    def H_sum(self) -> np.ndarray:
        """H w, sum_j w_j / (Lambda_R + theta_j), face-major (n_f, n_a)."""
        return self.shifts.H @ self.weights


def _rule_error(weights: np.ndarray, theta: np.ndarray, a: float,
                grid: np.ndarray) -> float:
    """max over the grid of |f(lam) lam^a - 1|, f = sum_j w_j / (. + theta_j).

    The len(grid) x n sample is taken a block of rows at a time, in one
    buffer of at most ``_SHIFT_BLOCK / _RULE_SAMPLES`` entries, small
    enough to stay in cache; only a rule of about 20 nodes or fewer forms
    its sample whole.  Each row is summed whole, so the sup is bit for bit
    that of the full sample.
    """
    n = len(theta)
    rows = max(1, _SHIFT_BLOCK // (_RULE_SAMPLES * n))
    buf = np.empty((min(rows, len(grid)), n))
    error = 0.0
    for i in range(0, len(grid), rows):
        lam = grid[i:i + rows]
        t = buf[:len(lam)]
        np.add(lam[:, None], theta, out=t)
        np.divide(weights, t, out=t)
        f = t.sum(axis=1)
        error = max(error, float(np.max(np.abs(f * lam**a - 1.0))))
    return error


def _power_rule(kernel: _CapacitanceKernel, a: float, lam1: float) -> _PowerRule:
    """Gauss-Jacobi quadrature of the Balakrishnan integral for L^-a.

    L^-a = sin(pi a)/pi int_0^inf t^-a (L + t)^-1 dt.  With t = tau s^2, s
    = (1 - x) / (1 + x) and tau = sqrt(lam_1 lam_max), the integrand is the
    Jacobi weight (1 - x)^b (1 + x)^-b, b = 1 - 2a, times 1 / (L (1 + x)^2
    + tau (1 - x)^2), which is smooth on [-1, 1] (the square-root change
    of variables of Hale, Higham & Trefethen 2008).  So Gauss-Jacobi nodes
    x_j give the shifts theta_j = tau ((1 - x_j) / (1 + x_j))^2 and the
    weights 4 sin(pi a)/pi tau^(1-a) omega_j / (1 + x_j)^2.  Nodes are
    added until the sup of |f(lam) lam^a - 1| over [lam_1, lam_max],
    sampled densely on a logarithmic grid, is at most ``_RULE_TOL``;
    lam_max is the relaxation's largest eigenvalue, which bounds the
    partition's.  The error falls like rho^(-2n), rho = |x* + sqrt(x*^2 -
    1)| on the larger branch, for the integrand's nearest poles x* = (1 -+
    i sigma) / (1 +- i sigma), sigma = sqrt(lam_1 / tau), which lie on the
    unit circle; rho sizes each increase of n.  On the 40^2 moving family
    a rule takes 32-44 shifts, against 72-108 with t = tau (1 - x) / (1 +
    x), whose pole sits at 1 + O(kappa^-1/2), kappa = lam_max / lam_1.
    """
    lam_max = float(kernel.lam.max())
    tau = math.sqrt(lam1 * lam_max)
    sigma = math.sqrt(lam1 / tau)
    pole = (1.0 - 1j * sigma) / (1.0 + 1j * sigma)
    root = cmath.sqrt(pole * pole - 1.0)
    log_rho = math.log(max(abs(pole + root), abs(pole - root)))
    n = 16
    while True:
        x, omega = _gauss_jacobi(a, n)
        theta = tau * ((1.0 - x) / (1.0 + x)) ** 2
        weights = (4.0 * math.sin(math.pi * a) / math.pi
                   * tau ** (1.0 - a) * omega / (1.0 + x) ** 2)
        error = _rule_error(
            weights, theta, a, np.geomspace(lam1, lam_max, _RULE_SAMPLES * n))
        if error <= _RULE_TOL:
            return _PowerRule(weights=weights,
                              shifts=kernel.shifts(theta), error=error)
        if n >= _RULE_MAX_NODES:
            raise RuntimeError(
                f"L^-{a} rule reached {error:.1e} > {_RULE_TOL:.0e} with "
                f"{n} shifts")
        gain = math.ceil(math.log(error / _RULE_TOL) / (2.0 * log_rho))
        n = min(n + max(4, gain), _RULE_MAX_NODES)


class ConstrainedOperator:
    """The operator of a partial-facet partition without its spectrum.

    Serves the critical quotient where a complete basis would need a dense
    eigensolve.  Coordinates are those of the face-aligned relaxation R's
    Kronecker eigenbasis, restricted to the partition's subspace null(B)
    (see :class:`_CapacitanceKernel`): Euclidean products of coordinates are
    M-products of fields, as with a complete :class:`SpectralBasis`, but a
    coordinate vector has R's n_R entries.  Only lambda_1 and phi_1 are
    computed, by shift-invert Lanczos whose inverse is one kernel solve
    (see :func:`_lanczos`), so A is never factored.  L^-a (0 < a < 1) is
    a Gauss-Jacobi sum of shifted solves in the variable t = tau s^2 of
    :func:`_power_rule`, 32-48 shifts on the 40^2 and 64^2 moving
    families, each apply one capacitance-corrected kernel call for all
    shifts; L^s c = Pi (Lambda_R L^-(1-s) c); (L^s - lam)^-1 is L^-s at
    lam = 0 and CG on (I - lam L^-s) otherwise, whose condition number is
    at most 1 / (1 - lam / lambda_1^s).  Rules are built on
    first use, one per power; the kernel is the pair's own ``ops.kernel``.

    Parameters
    ----------
    ops : OperatorPair
        A partial-facet partition's pair (``ops.kernel`` set).
    """

    complete = True

    def __init__(self, ops: OperatorPair) -> None:
        if ops.kernel is None:
            raise ValueError("face-aligned partition: use eigendecompose")
        self.ops = ops
        self._kernel = ops.kernel
        lams, coords = _lanczos(ops, 1)
        self.lam1 = float(lams[0])
        self._phi1 = _sign_normalize(ops.synthesize(coords))[:, 0]
        self._rules: dict[float, _PowerRule] = {}

    def __repr__(self) -> str:
        return f"ConstrainedOperator(lam1={self.lam1!r}, ops={self.ops!r})"

    def eigenfunction(self, k: int) -> np.ndarray:
        """phi_1 scattered to all mesh nodes; only k = 1 is available."""
        if k != 1:
            raise IndexError(f"mode {k} not available; only the first is "
                             f"computed")
        full = np.zeros(self.ops.mesh.n_nodes)
        full[self.ops.free] = self._phi1
        return full

    def dual(self, f: np.ndarray) -> np.ndarray:
        """Coordinates of M^-1 f for a free-node vector f."""
        return self.ops.dual(f)

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """Free-node values of the field with coordinates c."""
        return self.ops.synthesize(c)

    def coefficients(self, values_free: np.ndarray) -> np.ndarray:
        """Coordinates of a free-node field (``OperatorPair.coordinates``)."""
        return self.ops.coordinates(values_free)

    def _rule(self, a: float) -> _PowerRule:
        rule = self._rules.get(a)
        if rule is None:
            rule = self._rules[a] = _power_rule(self._kernel, a, self.lam1)
        return rule

    def inverse_power(self, c: np.ndarray, a: float) -> np.ndarray:
        """L^-a c for 0 < a < 1, one kernel call."""
        return self._kernel.weighted(c, self._rule(a))

    def lam1s(self, s: float) -> float:
        return self.lam1 ** s

    def power(self, c: np.ndarray, s: float, lam: float = 0.0) -> np.ndarray:
        """(L^s - lam) c."""
        out = self._kernel.project(self._kernel.lam
                                   * self.inverse_power(c, 1.0 - s))
        return out - lam * c if lam else out

    def form(self, c: np.ndarray, s: float) -> tuple[float, np.ndarray]:
        """<L^s c, c> and L^s c."""
        out = self.power(c, s)
        return float(c @ out), out

    def resolvent(self, b: np.ndarray, s: float, lam: float) -> np.ndarray:
        """(L^s - lam)^-1 b for 0 <= lam < lambda_1^s."""
        if not 0.0 <= lam < self.lam1s(s):
            raise ValueError(f"lam={lam} outside [0, lambda_1^s): "
                             f"L^s - lam is not positive definite")
        y = self.inverse_power(b, s)
        if lam == 0.0:
            return y
        # CG on (I - lam L^-s) x = L^-s b, symmetric positive definite
        x = np.zeros_like(y)
        r = y.copy()
        p = r.copy()
        rr = float(r @ r)
        stop = (_CG_TOL * math.sqrt(rr)) ** 2
        for _ in range(_CG_MAX_ITER):
            if rr <= stop:
                return x
            q = p - lam * self.inverse_power(p, s)
            step = rr / float(p @ q)
            x += step * p
            r -= step * q
            rr_next = float(r @ r)
            p = r + (rr_next / rr) * p
            rr = rr_next
        raise RuntimeError(f"CG for (L^s - {lam})^-1 did not reach "
                           f"{_CG_TOL:.0e} in {_CG_MAX_ITER} steps")

    def frac_rel_error(self, s: float) -> float:
        """Measured sup relative error of the L^-s and L^-(1-s) rules."""
        return max(self._rule(s).error, self._rule(1.0 - s).error)


# what the critical quotient and the fractional functions run on: a complete
# basis, or a partial-facet partition's operator without its spectrum
Operator = SpectralBasis | ConstrainedOperator


def quotient_operator(ops: OperatorPair) -> Operator:
    """What the critical quotient runs on, chosen by the partition's shape.

    A face-aligned partition (``ops.tensor`` set) gets its complete
    Kronecker basis from :func:`eigendecompose`; a partial-facet one gets a
    :class:`ConstrainedOperator`, which needs no spectrum beyond lambda_1
    and no dense eigensolve.  Both give lambda_1, phi_1, the coordinate maps, L^s
    and (L^s - lam)^-1 to :mod:`fraclap.critical` and
    :mod:`fraclap.fractional`.
    """
    if ops.tensor is not None:
        return eigendecompose(ops, m="all")
    return ConstrainedOperator(ops)
