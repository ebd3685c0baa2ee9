"""Inverse Cholesky factors of a kernel's shifts, built out of place.

``_CapacitanceKernel.shifts`` forms each block's capacitance matrices in
its slice of ``Linv`` and factors them there.  This is the recipe it
replaced, kept as a check: H as one quotient, each block's C_theta a fresh
array, and its inverse factor by halves into fresh arrays, copied into
``Linv``.  Both run the same floating-point operations in the same order,
so their results agree bit for bit.
"""
import numpy as np

from fraclap import spectral


def inverse_lower(L):
    """L^-1 for each lower triangular matrix of L, by halves to order 1."""
    r = L.shape[-1]
    if r == 1:
        return 1.0 / L
    h = r // 2
    out = np.zeros_like(L)
    A = out[..., :h, :h] = inverse_lower(L[..., :h, :h])
    D = out[..., h:, h:] = inverse_lower(L[..., h:, h:])
    out[..., h:, :h] = -D @ (L[..., h:, :h] @ A)
    return out


def _inverse_factor(L):
    return np.tril(np.linalg.inv(L))


def inverse_cholesky(C, _leaf=inverse_lower):
    """L^-1 for the lower Cholesky factor L of each matrix of C, (..., r, r).

    The blocks of a single matrix above the block order take
    ``numpy.linalg.inv`` of their factors.
    """
    r = C.shape[-1]
    if r <= spectral._CHOLESKY_BLOCK:
        return _leaf(np.linalg.cholesky(C))
    if C.size == r * r:
        _leaf = _inverse_factor
    h = r // 2
    out = np.zeros_like(C)
    A = out[..., :h, :h] = inverse_cholesky(C[..., :h, :h], _leaf)
    L21 = C[..., h:, :h] @ A.swapaxes(-1, -2)
    D = out[..., h:, h:] = inverse_cholesky(
        C[..., h:, h:] - L21 @ L21.swapaxes(-1, -2), _leaf)
    out[..., h:, :h] = -D @ (L21 @ A)
    return out


def capacitance(kernel, H):
    """C_theta_j = B_f diag(g_j) B_f^T for each shift j of H, (k, r, r)."""
    v, B_f = kernel._v, kernel.B_f
    g = np.matmul(v**2, H)
    r, n_f = B_f.shape
    C = np.empty((g.shape[1], r, r))
    if len(v) > 1:
        for j, gj in enumerate(g.T):
            X = B_f * np.sqrt(gj)
            C[j] = X @ X.T
        return C
    a, b = np.tril_indices(r)
    step = max(1, spectral._SHIFT_BLOCK // n_f)
    for i in range(0, len(a), step):
        ab = slice(i, i + step)
        low = ((B_f[a[ab]] * B_f[b[ab]]) @ g).T
        C[:, a[ab], b[ab]] = C[:, b[ab], a[ab]] = low
    return C


def shifts(kernel, theta):
    """(H, Linv) of ``kernel.shifts(theta)``, block by block."""
    theta = np.asarray(theta, dtype=float)
    H = 1.0 / (kernel._lam_faces[:, :, None] + theta)
    r = kernel.B_f.shape[0]
    Linv = np.empty((len(theta), r, r))
    step = max(1, spectral._SHIFT_BLOCK // (r * r))
    for j in range(0, len(theta), step):
        block = slice(j, j + step)
        Linv[block] = inverse_cholesky(capacitance(kernel, H[:, :, block]))
    return H, Linv


def gram(kernel):
    """The kernel's ``_gram``: the inverse factor of B B^T."""
    return inverse_cholesky(
        (kernel._v @ kernel._v) * (kernel.B_f @ kernel.B_f.T))
