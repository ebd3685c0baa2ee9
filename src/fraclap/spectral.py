"""Assembly and eigendecomposition of the constrained Laplacian.

Lowest-order conforming elements on the tensor grid with consistent mass.
Stiffness and mass are Kronecker products of 1-D matrices, restricted to
free nodes (Dirichlet nodes eliminated).  Eigenpairs of A phi = lambda M phi
are M-orthonormal and define everything spectral downstream.

When every face of the box is wholly Dirichlet or wholly Neumann, the free
nodes form a product set, A is a Kronecker sum and M a Kronecker product of
1-D matrices restricted to it, and the eigenpairs are sums and Kronecker
products of 1-D eigenpairs (Lynch, Rice & Thomas 1964).  Those partitions
never need a dense n x n eigensolve, their bases apply the eigenvector
matrix by per-axis contractions instead of storing it, and the sign of
each eigenvector follows from per-axis tables without multiplying it out.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import BoundaryPartition, Mesh

__all__ = [
    "OperatorPair",
    "SpectralBasis",
    "assemble_operators",
    "eigendecompose",
    "first_eigenpair",
    "DofCapError",
]

DEFAULT_DOF_CAP = 3000
# largest eigenpair count served by the Lanczos path on big meshes
_ITERATIVE_MAX = 32
# columns multiplied out at a time when a tensor basis needs them explicitly
_COLUMN_CHUNK = 256


class DofCapError(RuntimeError):
    """Request refused above ``dof_cap``; the message names what is served."""


def _line_matrices(n: int, h: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """1-D P1 stiffness and consistent mass on n uniform cells."""
    e = np.ones(n + 1)
    a_main = 2.0 * e
    a_main[0] = a_main[-1] = 1.0
    a = sp.diags([-e[:-1], a_main, -e[:-1]], [-1, 0, 1]) / h
    m_main = 4.0 * e
    m_main[0] = m_main[-1] = 2.0
    m = sp.diags([e[:-1], m_main, e[:-1]], [-1, 0, 1]) * (h / 6.0)
    return a.tocsr(), m.tocsr()


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
    """

    lams: tuple[np.ndarray, ...] = field(repr=False)
    vecs: tuple[np.ndarray, ...] = field(repr=False)

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
        idx = np.unravel_index(flat, self.shape)
        rows = self.vecs[0].T[idx[0]]
        for V, i in zip(self.vecs[1:], idx[1:]):
            rows = rows[:, :, None] * V.T[i][:, None, :]
            rows = rows.reshape(len(flat), -1)
        return rows.T

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

    def synthesize(self, C: np.ndarray) -> np.ndarray:
        """V C for V the Kronecker product of ``vecs``; C is (n, r)."""
        return self._per_axis(self.vecs, C)


@dataclass(frozen=True)
class OperatorPair:
    """Stiffness/mass pair restricted to free nodes.

    Attributes
    ----------
    A, M : scipy.sparse.csr_matrix
        Symmetric stiffness and consistent mass over free nodes.
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
    """

    A: sp.csr_matrix = field(repr=False)
    M: sp.csr_matrix = field(repr=False)
    lumped: np.ndarray = field(repr=False)
    free: np.ndarray = field(repr=False)
    mesh: Mesh
    partition: BoundaryPartition
    tensor: TensorEigs | None = field(default=None, repr=False, compare=False)

    @property
    def n_free(self) -> int:
        return len(self.free)


def _tensor_eigs(partition: BoundaryPartition, mats_a,
                 mats_m) -> TensorEigs | None:
    """1-D eigenpairs per axis, or None unless every face has one label."""
    labels = np.asarray(partition.dirichlet)
    free = [np.ones(a.shape[0], dtype=bool) for a in mats_a]
    for axis, side, facets, _, _ in partition.mesh.faces():
        on = labels[facets]
        if on.any() != on.all():
            return None
        free[axis][0 if side == 0 else -1] = not on[0]
    lams, vecs = [], []
    for a, m, keep in zip(mats_a, mats_m, free):
        lam, vec = scipy.linalg.eigh(a[keep][:, keep].toarray(),
                                     m[keep][:, keep].toarray())
        lams.append(lam)
        vecs.append(vec)
    return TensorEigs(lams=tuple(lams), vecs=tuple(vecs))


@lru_cache(maxsize=64)
def _assemble_cached(partition: BoundaryPartition) -> OperatorPair:
    mesh = partition.mesh
    ones = [_line_matrices(nd, hd) for nd, hd in zip(mesh.n, mesh.spacing)]
    mats_a = [a for a, _ in ones]
    mats_m = [m for _, m in ones]

    def kron_all(mats):
        out = mats[0]
        for m in mats[1:]:
            out = sp.kron(out, m, format="csr")
        return out

    M_full = kron_all(mats_m)
    A_full = sp.csr_matrix(M_full.shape)
    for d in range(mesh.dim):
        factors = [mats_a[d] if k == d else mats_m[k] for k in range(mesh.dim)]
        A_full = A_full + kron_all(factors)

    free = partition.free_nodes
    lumped = _trapezoid_weights(mesh)[free]
    A = A_full[free][:, free].tocsr()
    M = M_full[free][:, free].tocsr()
    return OperatorPair(A=A, M=M, lumped=lumped, free=free,
                        mesh=mesh, partition=partition,
                        tensor=_tensor_eigs(partition, mats_a, mats_m))


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
    Results are cached on the partition, so repeated calls are cheap.
    """
    if partition.mesh != mesh:
        raise ValueError("partition does not belong to this mesh")
    return _assemble_cached(partition)


class SpectralBasis:
    """Ascending M-orthonormal eigenpairs of the constrained Laplacian.

    Consumers reach the eigenvectors V through :meth:`synthesize` (V c),
    :meth:`dual` (V^T f), :meth:`coefficients` (V^T M u) and
    :meth:`eigenfunction`.  A basis on a face-aligned partition stores no
    eigenvector matrix: V is the Kronecker product of the 1-D eigenvectors
    in ``ops.tensor``, its columns taken at the C-order indices ``order``
    and scaled by ``signs``, and each map costs per-axis contractions of
    n * sum(n_d) work instead of a dense n * m product.  Such a basis may
    be complete at any size.  Other partitions store V densely and the maps
    multiply by it.

    Parameters
    ----------
    lams : numpy.ndarray
        Eigenvalues, ascending, all positive.
    vecs : numpy.ndarray or None
        Dense eigenvectors over free nodes, shape (n_free, m); None for a
        Kronecker basis.
    ops : OperatorPair
    complete : bool
        True when m equals the number of free nodes.
    order, signs : numpy.ndarray, optional
        For a Kronecker basis (``ops.tensor`` set, ``vecs`` None): the
        C-order Kronecker index and the +-1 factor of each mode.

    Attributes
    ----------
    vecs : numpy.ndarray
        Eigenvectors over free nodes, shape (n_free, m), M-orthonormal.
        Each column is sign-normalized to be nonnegative at its node of
        largest magnitude (the first such node in C order on ties).  A
        Kronecker basis multiplies it out on first access and keeps it,
        n_free x m floats, which a complete basis on a large mesh may not
        fit in memory; no library code reads it.
    """

    def __init__(self, lams: np.ndarray, vecs: np.ndarray | None,
                 ops: OperatorPair, complete: bool, *,
                 order: np.ndarray | None = None,
                 signs: np.ndarray | None = None) -> None:
        self.lams = lams
        self.ops = ops
        self.complete = complete
        self._vecs = vecs
        self._order = order
        self._signs = signs
        m = len(lams)
        if vecs is not None:
            ok = (order is None and signs is None
                  and vecs.shape == (ops.n_free, m))
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

    def _columns(self, modes: slice) -> np.ndarray:
        # multiplied-out, sign-normalized columns of a Kronecker basis
        return self.ops.tensor.columns(self._order[modes]) * self._signs[modes]

    @property
    def vecs(self) -> np.ndarray:
        if self._vecs is None:
            # filled row by row, so each eigenvector is contiguous
            rows = np.empty((self.m, self.ops.n_free))
            for start in range(0, self.m, _COLUMN_CHUNK):
                modes = slice(start, start + _COLUMN_CHUNK)
                rows[modes] = self._columns(modes).T
            self._vecs = rows.T
        return self._vecs

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """V c: free-node values from mode coefficients, (m,) or (m, r)."""
        if self._order is None:
            return self._vecs @ c
        c = np.asarray(c, dtype=float)
        n = self.ops.n_free
        z = np.zeros((n,) + c.shape[1:])
        z[self._order] = self._signs.reshape((-1,) + (1,) * (c.ndim - 1)) * c
        return self.ops.tensor.synthesize(z.reshape(n, -1)).reshape(z.shape)

    def dual(self, f: np.ndarray) -> np.ndarray:
        """V^T f: Euclidean products with each eigenvector, (n,) or (n, r)."""
        if self._order is None:
            return self._vecs.T @ f
        f = np.asarray(f, dtype=float)
        out = self.ops.tensor.dual(f.reshape(self.ops.n_free, -1))[self._order]
        out *= self._signs[:, None]
        return out.reshape((self.m,) + f.shape[1:])

    def coefficients(self, values_free: np.ndarray) -> np.ndarray:
        """M-inner products of a free-node vector with each eigenvector."""
        return self.dual(self.ops.M @ values_free)

    def eigenfunction(self, k: int) -> np.ndarray:
        """Eigenvector k scattered to all mesh nodes (zeros on Dirichlet).

        Modes are numbered from 1; k = 1 is the principal one.
        """
        if not 1 <= k <= self.m:
            raise IndexError(f"mode {k} not in 1..{self.m}")
        if self._order is None:
            column = self._vecs[:, k - 1]
        else:
            column = self._columns(slice(k - 1, k))[:, 0]
        full = np.zeros(self.ops.mesh.n_nodes)
        full[self.ops.free] = column
        return full


def _column_signs(vecs: np.ndarray) -> np.ndarray:
    # +-1 per column: the sign of its largest-magnitude entry (first on ties)
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def _sign_normalize(vecs: np.ndarray) -> np.ndarray:
    # in place: every caller passes a freshly computed array
    vecs *= _column_signs(vecs)
    return vecs


def eigendecompose(
    ops: OperatorPair,
    m: int | str = "all",
    dof_cap: int = DEFAULT_DOF_CAP,
) -> SpectralBasis:
    """Solve A phi = lambda M phi for the lowest m eigenpairs.

    The backend follows from the partition's shape.  On face-aligned
    partitions (every face wholly Dirichlet or wholly Neumann, so
    ``ops.tensor`` is set) the eigenpairs are sums and Kronecker products of
    the 1-D eigenpairs, for any m at any size, complete bases included.
    The basis then holds no eigenvector matrix, only the stably sorted
    Kronecker indices and one sign per mode.  The signs come from the
    per-axis rule of :meth:`TensorEigs.signs`, which never multiplies a
    column out, yet matches the dense convention exactly; the whole call
    costs the sort plus O(n) past the 1-D tables.  Other partitions use a
    dense generalized ``eigh`` up to ``dof_cap`` free nodes, and
    shift-invert Lanczos above it for at most 32 pairs, and keep the dense
    eigenvectors.

    Parameters
    ----------
    ops : OperatorPair
    m : int or "all"
        Number of eigenpairs.  "all" yields a complete basis.
    dof_cap : int
        Upper bound on the free-node count for a dense solve on a
        partial-facet partition.  Face-aligned partitions ignore it.

    Returns
    -------
    SpectralBasis
        Reading ``vecs`` of a face-aligned basis multiplies out the n x m
        eigenvector matrix; the basis maps never do.

    Raises
    ------
    DofCapError
        If a partial-facet partition has more than ``dof_cap`` free nodes
        and the request is a complete basis or more than 32 pairs.
    """
    n = ops.n_free
    want_all = isinstance(m, str)
    if want_all:
        if m.lower() != "all":
            raise ValueError(f"m must be an integer or 'all', got {m!r}")
        k = n
    else:
        k = int(m)
        if not 1 <= k <= n:
            raise ValueError(f"m must be in [1, {n}], got {k}")

    tensor = ops.tensor
    if tensor is None and n > dof_cap and (k == n or k > _ITERATIVE_MAX):
        raise DofCapError(
            f"{n} free nodes exceed dof_cap={dof_cap}; above the cap this "
            f"partial-facet partition serves m <= {_ITERATIVE_MAX}; "
            f"face-aligned partitions (every face wholly Dirichlet or "
            f"Neumann) serve any m at any size; or raise dof_cap")

    if tensor is not None:
        order = tensor.order(k)
        return SpectralBasis(lams=tensor.values[order], vecs=None, ops=ops,
                             complete=(k == n), order=order,
                             signs=tensor.signs(order))
    if n <= dof_cap:
        if k == n:
            lams, vecs = scipy.linalg.eigh(ops.A.toarray(), ops.M.toarray())
        else:
            lams, vecs = scipy.linalg.eigh(
                ops.A.toarray(), ops.M.toarray(),
                subset_by_index=[0, k - 1], driver="gvx")
    else:
        # deterministic start vector; shift-invert targets the low end
        v0 = np.full(n, 1.0 / np.sqrt(n))
        lams, vecs = spla.eigsh(ops.A, k=k, M=ops.M, sigma=0.0, v0=v0)
        order = np.argsort(lams)
        lams, vecs = lams[order], vecs[:, order]
        # eigsh returns M-orthonormal columns for the generalized problem

    return SpectralBasis(
        lams=np.ascontiguousarray(lams),
        vecs=_sign_normalize(np.ascontiguousarray(vecs)),
        ops=ops,
        complete=(k == n),
    )


def first_eigenpair(ops: OperatorPair) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and eigenvector, scattered to all nodes.

    The eigenvector is M-normalized and sign-fixed to be nonnegative at its
    largest-magnitude node.  A sign change on interior free nodes indicates
    a discretization pathology and raises a warning, not an error.

    Returns
    -------
    (float, numpy.ndarray)
    """
    basis = eigendecompose(ops, m=1)
    lam1 = float(basis.lams[0])
    phi1 = basis.eigenfunction(1)
    interior = ops.mesh.interior_node_mask
    if np.any(phi1[interior] <= 0):
        warnings.warn(
            "first eigenvector is not strictly positive on interior nodes",
            RuntimeWarning, stacklevel=2)
    return lam1, phi1
