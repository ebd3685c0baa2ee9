"""CSR stiffness and mass of an ``OperatorPair``, built with scipy.sparse.

The library applies ``OperatorPair.A`` and ``.M`` per axis and forms
neither matrix.  Checks that need a real matrix (``toarray``, Kronecker
products with the cylinder's matrices, sums with a shift, ``spsolve``)
build it here, as the library once did: M is the Kronecker product of the
relaxation R's dense 1-D masses and A the sum over axes of the products
with one 1-D stiffness in place of the mass, multiplied left to right,
restricted to the partition's free nodes on partial facets.  The result
is symmetric, with sorted column indices and no stored zeros.
"""
import scipy.sparse as sp


def _kron(mats):
    # Kronecker product of the dense square mats as a CSR matrix, multiplied
    # left to right
    out = sp.csr_matrix(mats[0])
    for a in mats[1:]:
        out = sp.kron(out, a, format="csr")
    return out


def _free_block(ops, X):
    # R's matrix X restricted to the partition's free nodes
    if ops.kernel is None:
        return X
    pos = ops.kernel.pos
    return X[pos][:, pos]


def stiffness(ops) -> sp.csr_matrix:
    """A over the free nodes of ``ops``."""
    lines = ops._lines()
    terms = (_kron([a if k == d else m for k, (a, m) in enumerate(lines)])
             for d in range(len(lines)))
    return _free_block(ops, sum(terms, next(terms)))


def mass(ops) -> sp.csr_matrix:
    """M over the free nodes of ``ops``."""
    return _free_block(ops, _kron([m for _, m in ops._lines()]))
