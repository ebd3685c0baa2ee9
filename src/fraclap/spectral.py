"""Assembly and eigendecomposition of the constrained Laplacian.

Lowest-order conforming elements on the tensor grid with consistent mass.
Stiffness and mass are Kronecker products of 1-D matrices, restricted to
free nodes (Dirichlet nodes eliminated).  Eigenpairs of A phi = lambda M phi
are M-orthonormal and define everything spectral downstream.

When every face of the box is wholly Dirichlet or wholly Neumann, the free
nodes form a product set, A is a Kronecker sum and M a Kronecker product of
1-D matrices restricted to it, and the eigenpairs are sums and Kronecker
products of 1-D eigenpairs (Lynch, Rice & Thomas 1964).  Those partitions
never need a dense n x n eigensolve.
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
    "save_basis",
    "load_basis",
    "DofCapError",
]

DEFAULT_DOF_CAP = 3000
# largest eigenpair count served by the Lanczos path on big meshes
_ITERATIVE_MAX = 32


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

    def lowest(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k lowest eigenpairs, eigenvalues stably sorted.

        Only the selected 1-D columns are multiplied out; the last product
        is the returned (n, k) array, and no n x n array is built.
        """
        order = np.argsort(self.values, kind="stable")[:k]
        idx = np.unravel_index(order, self.shape)
        vecs = self.vecs[0][:, idx[0]]
        for V, i in zip(self.vecs[1:], idx[1:]):
            # C-order output, so the reshape below is a view, not a copy
            out = np.empty((vecs.shape[0], V.shape[0], k))
            np.multiply(vecs[:, None, :], V[:, i][None, :, :], out=out)
            vecs = out.reshape(-1, k)
        return self.values[order], vecs

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
        Full-mass row sums at the free nodes; the positive quadrature
        weights used for nodal p-norms.
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
    faces: dict[tuple[int, int], set[bool]] = {}
    for f, d in zip(partition.mesh.facets, partition.dirichlet):
        faces.setdefault((f.axis, f.side), set()).add(d)
    if any(len(labels) > 1 for labels in faces.values()):
        return None
    lams, vecs = [], []
    for axis, (a, m) in enumerate(zip(mats_a, mats_m)):
        keep = np.ones(a.shape[0], dtype=bool)
        keep[0] = faces[(axis, 0)] != {True}
        keep[-1] = faces[(axis, 1)] != {True}
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
    lumped = np.asarray(M_full.sum(axis=1)).ravel()[free]
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


@dataclass(frozen=True)
class SpectralBasis:
    """Ascending M-orthonormal eigenpairs of the constrained Laplacian.

    Attributes
    ----------
    lams : numpy.ndarray
        Eigenvalues, ascending, all positive.
    vecs : numpy.ndarray
        Eigenvectors over free nodes, shape (n_free, m), M-orthonormal.
        Each column is sign-normalized to be nonnegative at its node of
        largest magnitude.
    ops : OperatorPair
    complete : bool
        True when m equals the number of free nodes.
    """

    lams: np.ndarray = field(repr=False)
    vecs: np.ndarray = field(repr=False)
    ops: OperatorPair
    complete: bool

    def __post_init__(self) -> None:
        if self.lams.ndim != 1 or self.vecs.shape != (self.ops.n_free, len(self.lams)):
            raise ValueError("inconsistent basis shapes")
        if np.any(np.diff(self.lams) < 0):
            raise ValueError("eigenvalues must be ascending")
        if self.lams[0] <= 0:
            raise ValueError("first eigenvalue must be positive; "
                             "is the Dirichlet part empty?")

    @property
    def m(self) -> int:
        return len(self.lams)

    def eigenfunction(self, k: int) -> np.ndarray:
        """Eigenvector k scattered to all mesh nodes (zeros on Dirichlet).

        Modes are numbered from 1; k = 1 is the principal one.
        """
        if not 1 <= k <= self.vecs.shape[1]:
            raise IndexError(f"mode {k} not in 1..{self.vecs.shape[1]}")
        full = np.zeros(self.ops.mesh.n_nodes)
        full[self.ops.free] = self.vecs[:, k - 1]
        return full

    def coefficients(self, values_free: np.ndarray) -> np.ndarray:
        """M-inner products of a free-node vector with each eigenvector."""
        return self.vecs.T @ (self.ops.M @ values_free)


def _sign_normalize(vecs: np.ndarray) -> np.ndarray:
    # in place: every caller passes a freshly computed array
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    vecs *= signs
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
    the 1-D eigenpairs, for any m.  Other partitions use a dense generalized
    ``eigh`` up to ``dof_cap`` free nodes, and shift-invert Lanczos above it
    for at most 32 pairs.

    Parameters
    ----------
    ops : OperatorPair
    m : int or "all"
        Number of eigenpairs.  "all" yields a complete basis.
    dof_cap : int
        Upper bound on the free-node count for a complete basis, and for
        any dense solve on a partial-facet partition.

    Returns
    -------
    SpectralBasis

    Raises
    ------
    DofCapError
        If the request exceeds ``dof_cap``.  Face-aligned partitions serve
        any m short of a complete basis; partial-facet partitions serve
        m <= 32.  Otherwise raise the cap.
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
    if n > dof_cap and (k == n or tensor is None and k > _ITERATIVE_MAX):
        if tensor is not None:
            hint = (f"complete bases stop at the cap, but this face-aligned "
                    f"partition serves any m < {n}")
        else:
            hint = (f"above the cap this partial-facet partition serves "
                    f"m <= {_ITERATIVE_MAX}; face-aligned partitions (every "
                    f"face wholly Dirichlet or Neumann) serve any m < n_free")
        raise DofCapError(f"{n} free nodes exceed dof_cap={dof_cap}; {hint}; "
                          f"or raise dof_cap")

    if tensor is not None:
        lams, vecs = tensor.lowest(k)
    elif n <= dof_cap:
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


def save_basis(path, basis: SpectralBasis) -> None:
    """Persist a basis keyed by the mesh and partition content hashes."""
    np.savez_compressed(
        path,
        lams=basis.lams,
        vecs=basis.vecs,
        free=basis.ops.free,
        complete=np.array([basis.complete]),
        mesh_key=np.array([basis.ops.mesh.key()]),
        partition_key=np.array([basis.ops.partition.key()]),
    )


def load_basis(path, mesh: Mesh, partition: BoundaryPartition) -> SpectralBasis:
    """Load a persisted basis, verifying it matches mesh and partition."""
    with np.load(path, allow_pickle=False) as data:
        if str(data["mesh_key"][0]) != mesh.key():
            raise ValueError("basis artifact was built on a different mesh")
        if str(data["partition_key"][0]) != partition.key():
            raise ValueError("basis artifact was built on a different partition")
        ops = assemble_operators(mesh, partition)
        return SpectralBasis(
            lams=data["lams"],
            vecs=data["vecs"],
            ops=ops,
            complete=bool(data["complete"][0]),
        )
