"""Assembly and eigendecomposition of the constrained Laplacian.

Lowest-order conforming elements on the tensor grid with consistent mass.
Stiffness and mass are Kronecker products of 1-D matrices, restricted to
free nodes (Dirichlet nodes eliminated).  Eigenpairs of A phi = lambda M phi
are M-orthonormal and define everything spectral downstream.

Every partition has a face-aligned relaxation R: the same box with each
partly Dirichlet face made Neumann.  R's free nodes form a product set
containing the partition's, R's A is a Kronecker sum and M a Kronecker
product of restricted 1-D matrices, and R's eigenpairs are sums and
Kronecker products of 1-D eigenpairs (Lynch, Rice & Thomas 1964).
Assembly builds R once, and A and M are R's matrices sliced to the free
nodes.

When every face is wholly Dirichlet or wholly Neumann, the partition is
its own relaxation.  It never needs a dense n x n eigensolve, its bases
apply the eigenvector matrix by per-axis contractions instead of storing
it, and the sign of each eigenvector follows from per-axis tables without
multiplying it out.  A partial-facet partition is R constrained to vanish
on the r nodes R frees and it does not; in R's eigen-coordinates that is
a standard eigenproblem of a diagonal plus a rank-2r term, the
constrained-subspace view of the capacitance-matrix method (Buzbee, Dorr,
George & Golub 1971).  A few of its eigenpairs come from shift-invert
Lanczos with the capacitance kernel below as the inverse, and many or all
of them from one dense solve of that standard problem.

The critical quotient needs no such eigensolve.  In the same coordinates
a shifted solve (A + theta M) x = b of a partial-facet partition is a
diagonal solve plus a Lagrange correction through an r x r capacitance
matrix; on the one partial face of a moving family that matrix factors
through the face's own Kronecker eigenvectors (Proskurowski & Widlund
1976).  Each partial-facet pair holds one ``_CapacitanceKernel`` as
``OperatorPair.kernel``, and the dense eigensolve, the Lanczos inverse,
``extend`` and :class:`ConstrainedOperator` all use it.  A Gauss-Jacobi
rule for the Balakrishnan integral (Aceto & Novati 2017) turns L^-a into
one kernel call over all its shifts, so :class:`ConstrainedOperator`
gives L^s and (L^s - lam)^-1 with only lambda_1 and phi_1 computed, at
any size; :func:`quotient_operator` chooses it or a complete basis by the
partition's shape.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

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
    "ConstrainedOperator",
    "quotient_operator",
]

# a partial-facet request for at most this many eigenpairs (and fewer than
# the free nodes) runs Lanczos; any other runs the dense solve
_ITERATIVE_MAX = 32
# columns multiplied out at a time when a tensor basis needs them explicitly
_COLUMN_CHUNK = 256


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

    def synthesize(self, C: np.ndarray) -> np.ndarray:
        """V C for V the Kronecker product of ``vecs``; C is (n, r)."""
        return self._per_axis(self.vecs, C)


@dataclass(frozen=True)
class OperatorPair:
    """Stiffness/mass pair restricted to free nodes.

    Assembly also builds the face-aligned relaxation R of the partition:
    the same box with every partly Dirichlet face made Neumann.  Its free
    nodes form a product set that contains the free nodes here, and its
    eigenpairs are Kronecker products of 1-D eigenpairs.  A partition that
    is its own relaxation (every face wholly Dirichlet or wholly Neumann)
    exposes them as ``tensor``; a partial-facet partition holds them in its
    one capacitance ``kernel``, which its eigensolves, its
    :class:`ConstrainedOperator` and its extension solvers all share, each
    through :meth:`shifted` or the kernel itself.

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
    kernel : _CapacitanceKernel or None
        Shifted solves in the relaxation's eigen-coordinates on a
        partial-facet partition; None on face-aligned ones.
    """

    A: sp.csr_matrix = field(repr=False)
    M: sp.csr_matrix = field(repr=False)
    lumped: np.ndarray = field(repr=False)
    free: np.ndarray = field(repr=False)
    mesh: Mesh
    partition: BoundaryPartition
    tensor: TensorEigs | None = field(default=None, repr=False, compare=False)
    kernel: _CapacitanceKernel | None = field(default=None, repr=False,
                                              compare=False)

    @property
    def n_free(self) -> int:
        return len(self.free)

    def shifted(self, theta: np.ndarray):
        """Coordinates and shifted solves of (A + theta_j M) x_j = b_j.

        Returns ``(dual, solve)``.  ``dual(B)`` takes right sides b to the
        base coordinates, one column per right side; ``solve(G)`` takes a
        coordinate array with one column per shift to the solutions x_j.  So
        ``solve(dual(B))`` solves column by column, and a right side of low
        rank in the shift direction needs ``dual`` on its few factors only.

        On face-aligned partitions A and M are diagonal in the Kronecker
        basis of ``tensor``, so each solve is two per-axis contractions and
        a division by (lambda_i + theta_j).  Partial-facet partitions add
        the capacitance correction of the pair's one ``kernel``, one r x r
        Cholesky factor per shift; no shifted matrix is factored.
        """
        t = self.tensor
        if t is not None:
            denom = t.values[:, None] + theta[None, :]
            return t.dual, lambda G: t.synthesize(G / denom)
        k = self.kernel
        shifts = k.shifts(theta)
        return k.dual, lambda G: k.synthesize(k.solve(G, shifts))


def _assemble(partition: BoundaryPartition) -> OperatorPair:
    mesh = partition.mesh
    # per axis, the end nodes the relaxation keeps: a face stays Dirichlet
    # only if it is wholly Dirichlet
    labels = np.asarray(partition.dirichlet)
    keep = [np.ones(nd + 1, dtype=bool) for nd in mesh.n]
    for axis, side, facets, _, _ in mesh.faces():
        if labels[facets].all():
            keep[axis][0 if side == 0 else -1] = False

    mats_a, mats_m, lams, vecs = [], [], [], []
    for nd, hd, k in zip(mesh.n, mesh.spacing, keep):
        a, m = _line_matrices(nd, hd)
        a, m = a[k][:, k], m[k][:, k]
        lam, vec = scipy.linalg.eigh(a.toarray(), m.toarray())
        mats_a.append(a)
        mats_m.append(m)
        lams.append(lam)
        vecs.append(vec)
    relaxed = TensorEigs(lams=tuple(lams), vecs=tuple(vecs))

    def kron_all(mats):
        out = mats[0]
        for m in mats[1:]:
            out = sp.kron(out, m, format="csr")
        return out

    M = kron_all(mats_m)
    A = sp.csr_matrix(M.shape)
    for d in range(mesh.dim):
        factors = [mats_a[d] if k == d else mats_m[k] for k in range(mesh.dim)]
        A = A + kron_all(factors)

    free = partition.free_nodes
    lumped = _trapezoid_weights(mesh)[free]
    # the free nodes here, as positions in the relaxation's C-order free set
    pos = np.flatnonzero(
        ~partition.dirichlet_node_mask.reshape(mesh.shape)[np.ix_(*keep)])
    if len(pos) == M.shape[0]:
        # a sparse sum keeps a buffer sized for both operands; the copy is
        # compact, as the sliced matrices below are
        return OperatorPair(A=A.copy(), M=M, lumped=lumped, free=free,
                            mesh=mesh, partition=partition, tensor=relaxed)
    return OperatorPair(A=A[pos][:, pos].tocsr(), M=M[pos][:, pos].tocsr(),
                        lumped=lumped, free=free, mesh=mesh,
                        partition=partition,
                        kernel=_CapacitanceKernel(relaxed, pos))


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
        self._powers: dict[float, np.ndarray] = {}
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
    enters, so a singular R (every face Neumann) is harmless.  Returns
    eigenvalues and eigenvectors over the partition's free nodes,
    M-orthonormal.
    """
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
    return mu, kernel.relaxed.synthesize(C)[kernel.pos]


def _lanczos(ops: OperatorPair, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of a partial-facet partition by Lanczos, ascending.

    Shift-invert at sigma = -theta_0, with theta_0 the second-lowest
    eigenvalue of the relaxation R: positive, since R's null space holds
    at most the constants.  The inverse (A + theta_0 M)^-1 that ``eigsh``
    needs is the pair's one-shift solve (:meth:`OperatorPair.shifted`),
    through its capacitance kernel, so A is never factored.  The columns
    are M-orthonormal, as ``eigsh`` returns them for the generalized
    problem.
    """
    n = ops.n_free
    theta0 = float(np.partition(ops.kernel.lam, 1)[1])
    dual, solve = ops.shifted(np.array([theta0]))

    def inverse(b: np.ndarray) -> np.ndarray:
        return solve(dual(b.reshape(n, 1))).ravel()

    # deterministic start vector; shift-invert targets the low end
    v0 = np.full(n, 1.0 / np.sqrt(n))
    lams, vecs = spla.eigsh(
        ops.A, k=k, M=ops.M, sigma=-theta0, v0=v0,
        OPinv=spla.LinearOperator((n, n), matvec=inverse, dtype=float))
    order = np.argsort(lams)
    return lams[order], vecs[:, order]


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
    bases keep the dense eigenvectors.  The critical quotient on such a
    partition needs none of this: see :func:`quotient_operator`.

    Parameters
    ----------
    ops : OperatorPair
    m : int or "all"
        Number of eigenpairs.  "all" yields a complete basis.

    Returns
    -------
    SpectralBasis
        Reading ``vecs`` of a face-aligned basis multiplies out the n x m
        eigenvector matrix; the basis maps never do.

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
        return SpectralBasis(lams=tensor.values[order], vecs=None, ops=ops,
                             complete=(k == n), order=order,
                             signs=tensor.signs(order))
    if k <= _ITERATIVE_MAX and k < n:
        lams, vecs = _lanczos(ops, k)
    else:
        lams, vecs = _constrained_eigh(ops.kernel, k)

    return SpectralBasis(
        lams=np.ascontiguousarray(lams),
        vecs=_sign_normalize(np.ascontiguousarray(vecs)),
        ops=ops,
        complete=(k == n),
    )


# a Gauss-Jacobi rule for L^-a gains nodes until the measured sup of
# |f(lam) lam^a - 1| over [lam_1, lam_max(R)] is at most this
_RULE_TOL = 1e-12
_RULE_MAX_NODES = 400
# sample points of that sup per node of the rule
_RULE_SAMPLES = 50
# CG on (I - lam L^-s) stops at this residual relative to its right side
_CG_TOL = 1e-13
_CG_MAX_ITER = 2000


@dataclass(frozen=True, eq=False)
class _Shifts:
    """Shifts theta_j with 1 / (Lambda_R + theta_j) and inverse factors.

    ``H[:, j]`` is 1 / (Lambda_R + theta_j); ``Linv[j]`` is the inverse of
    the lower Cholesky factor of C_theta_j, so applying all r x r inverses
    is two batched products.
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
    the trivial factorization v = [1], B_f = B.  (v, B_f) is the only form
    of B kept; the QR of :func:`_constrained_eigh` reads B^T through it.
    A partition assembles one kernel, which every consumer of the
    partition shares.
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
        # B B^T = (v . v) B_f B_f^T, factored once for the projector
        self._gram = scipy.linalg.cholesky(
            (self._v @ self._v) * (self.B_f @ self.B_f.T), lower=True)

    def _face_sum(self, X: np.ndarray, v: np.ndarray) -> np.ndarray:
        # sum_i v_i X[(p, i, q), :] for X of shape (n_R, k); (n_f, k)
        pre, n_a, post = self._layout
        k = X.shape[1]
        return (v @ X.reshape(pre, n_a, post * k)).reshape(pre * post, k)

    def _B(self, X: np.ndarray) -> np.ndarray:
        # B X for X of shape (n_R, k)
        return self.B_f @ self._face_sum(X, self._v)

    def _Bt(self, Z: np.ndarray) -> np.ndarray:
        # B^T Z for Z of shape (r, k)
        pre, n_a, post = self._layout
        Y = (self.B_f.T @ Z).reshape(pre, 1, -1)
        return (self._v[:, None] * Y).reshape(pre * n_a * post, -1)

    def project(self, c: np.ndarray) -> np.ndarray:
        """Pi c, the orthogonal projection onto null(B), (n_R,) or (n_R, k)."""
        X = c.reshape(len(self.lam), -1)
        z, _ = scipy.linalg.lapack.dpotrs(self._gram, self._B(X), lower=1)
        return (X - self._Bt(z)).reshape(c.shape)

    def dual(self, f: np.ndarray) -> np.ndarray:
        """Pi V_R^T f, f given at the partition's free nodes, (n,) or (n, k)."""
        x = np.zeros((len(self.lam),) + f.shape[1:])
        x[self.pos] = f
        g = self.relaxed.dual(x.reshape(len(self.lam), -1)).reshape(x.shape)
        return self.project(g)

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """(V_R c) at the partition's free nodes, (n_R,) or (n_R, k)."""
        x = self.relaxed.synthesize(c.reshape(len(self.lam), -1))
        return x[self.pos].reshape((len(self.pos),) + c.shape[1:])

    def _capacitance(self, H: np.ndarray):
        # the lower triangle of C_theta_j = B_f diag(g_j) B_f^T for each
        # column H[:, j] = 1 / (Lambda_R + theta_j); g_j > 0 for theta_j > 0
        for g in self._face_sum(H, self._v**2).T:
            yield scipy.linalg.blas.dsyrk(1.0, self.B_f * np.sqrt(g), lower=1)

    def shifts(self, theta: np.ndarray) -> _Shifts:
        """Factor C_theta for every shift in ``theta`` (all positive)."""
        theta = np.asarray(theta, dtype=float)
        H = 1.0 / (self.lam[:, None] + theta[None, :])
        r = self.B_f.shape[0]
        Linv = np.empty((len(theta), r, r))
        for j, C in enumerate(self._capacitance(H)):
            L, info = scipy.linalg.lapack.dpotrf(C, lower=1, overwrite_a=1)
            if info == 0:
                L, info = scipy.linalg.lapack.dtrtri(L, lower=1, overwrite_c=1)
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"capacitance factor failed with info={info}")
            Linv[j] = L
        return _Shifts(theta=theta, H=H, Linv=Linv)

    def solve(self, G: np.ndarray, sh: _Shifts) -> np.ndarray:
        """Column j of the result solves (Pi Lambda_R Pi + theta_j) c = Pi g_j."""
        Z = sh.solve(self._B(G * sh.H))
        return (G - self._Bt(Z)) * sh.H

    def weighted(self, g: np.ndarray, rule: _PowerRule) -> np.ndarray:
        """sum_j w_j (Pi Lambda_R Pi + theta_j)^-1 Pi g for one vector g.

        The weights w_j and shifts theta_j are the rule's.  Both products
        with B are taken in the (p, i, q) split of R's eigen-index, so no
        n_R x k intermediate is formed besides the rule's own.
        """
        sh = rule.shifts
        pre, n_a, post = self._layout
        k = len(sh.theta)
        H = sh.H.reshape(pre, n_a, post, k)
        gv = g.reshape(pre, n_a, post) * self._v[:, None]
        Y = np.einsum("piq,piqj->pqj", gv, H).reshape(pre * post, k)
        E = (self.B_f.T @ sh.solve(self.B_f @ Y)).reshape(pre, post, k)
        out = np.einsum("piqj,pqj->piq",
                        rule.H_weighted.reshape(pre, n_a, post, k), E)
        return g * rule.H_sum - (out * self._v[:, None]).ravel()


def _gauss_jacobi(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1 - x)^-a (1 + x)^(a-1) on (-1, 1).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    monic Jacobi recurrence with alpha = -a, beta = a - 1 (alpha + beta =
    -1, where the textbook coefficients for k = 0 and 1 are 0/0 and are
    taken in the limit), the weights mu_0 times the squared first
    eigenvector components, mu_0 = Gamma(1 - a) Gamma(a) = pi / sin(pi a).
    """
    k = np.arange(1, n, dtype=float)
    diag = np.empty(n)
    diag[0] = 2.0 * a - 1.0
    diag[1:] = (1.0 - 2.0 * a) / ((2.0 * k - 1.0) * (2.0 * k + 1.0))
    off_sq = (k - a) * (k + a - 1.0) / (2.0 * k - 1.0) ** 2
    if n > 1:
        off_sq[0] = 2.0 * a * (1.0 - a)
    x, V = scipy.linalg.eigh_tridiagonal(diag, np.sqrt(off_sq))
    return x, (math.pi / math.sin(math.pi * a)) * V[0] ** 2


@dataclass(frozen=True, eq=False)
class _PowerRule:
    """L^-a ~ sum_j w_j (L + theta_j)^-1 with its measured relative error."""

    weights: np.ndarray = field(repr=False)
    shifts: _Shifts
    error: float

    # the products with the shifts' H = 1 / (Lambda_R + theta_j) that every
    # apply of the rule needs; fixed per rule, so formed once

    @cached_property
    def H_weighted(self) -> np.ndarray:
        """H w_j, column j scaled by its weight."""
        return self.shifts.H * self.weights

    @cached_property
    def H_sum(self) -> np.ndarray:
        """H w, the sum of those columns."""
        return self.shifts.H @ self.weights


def _power_rule(kernel: _CapacitanceKernel, a: float, lam1: float) -> _PowerRule:
    """Gauss-Jacobi quadrature of the Balakrishnan integral for L^-a.

    L^-a = sin(pi a)/pi int_0^inf t^-a (L + t)^-1 dt.  With t = tau (1 - x)
    / (1 + x) and tau = sqrt(lam_1 lam_max), the integrand is the Jacobi
    weight (1 - x)^-a (1 + x)^(a-1) times a function smooth on [-1, 1]
    (Aceto & Novati 2017), so Gauss-Jacobi nodes x_j give the shifts
    theta_j = tau (1 - x_j) / (1 + x_j).  Nodes are added until the sup of
    |f(lam) lam^a - 1| over [lam_1, lam_max], sampled densely on a
    logarithmic grid, is at most ``_RULE_TOL``; lam_max is the relaxation's
    largest eigenvalue, which bounds the partition's.  The error falls
    like rho^(-2n), rho = x* + sqrt(x*^2 - 1) for the integrand's nearest
    pole x* = (tau + lam_1) / (tau - lam_1), which sizes each increase of n.
    """
    lam_max = float(kernel.lam.max())
    tau = math.sqrt(lam1 * lam_max)
    pole = (tau + lam1) / (tau - lam1)
    log_rho = math.log(pole + math.sqrt(pole * pole - 1.0))
    n = 16
    while True:
        x, omega = _gauss_jacobi(a, n)
        theta = tau * (1.0 - x) / (1.0 + x)
        weights = (2.0 * math.sin(math.pi * a) / math.pi
                   * tau ** (1.0 - a) * omega / (1.0 + x))
        grid = np.geomspace(lam1, lam_max, _RULE_SAMPLES * n)
        f = (weights / (grid[:, None] + theta[None, :])).sum(axis=1)
        error = float(np.max(np.abs(f * grid**a - 1.0)))
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
    a Gauss-Jacobi sum of shifted solves, each apply one
    capacitance-corrected kernel call for all shifts; L^s c = Pi (Lambda_R
    L^-(1-s) c); (L^s - lam)^-1 is L^-s at lam = 0 and CG on (I - lam L^-s) otherwise, whose condition
    number is at most 1 / (1 - lam / lambda_1^s).  Rules are built on
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
        lams, vecs = _lanczos(ops, 1)
        self.lam1 = float(lams[0])
        self._phi1 = _sign_normalize(vecs)[:, 0]
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
        return self._kernel.dual(np.asarray(f, dtype=float))

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """Free-node values of the field with coordinates c."""
        return self._kernel.synthesize(np.asarray(c, dtype=float))

    def coefficients(self, values_free: np.ndarray) -> np.ndarray:
        """Coordinates of a free-node field."""
        return self.dual(self.ops.M @ values_free)

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
