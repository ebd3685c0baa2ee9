"""Identity audit for computed solutions and nonexistence geometry checks.

Every term of the translated-center identity

    (N-2s) int u f(u) - 2N int F(u)
        = kappa int_{lat,Neumann} y^(1-2s) |grad w|^2 <x-x0, nu>
        - kappa int_{lat,Dirichlet} y^(1-2s) |grad w|^2 <x-x0, nu>
        - 2 int_{Neumann} F(u) <x-x0, nu>

is evaluated with the same exact-in-y weighted quadrature used by the
extension solver; the leftover is reported as a residual against the
largest term.  The geometric nonexistence test checks the sign pattern of
<x-x0, nu> on the Dirichlet and Neumann facets together with the growth
defect g(t) = (N-2s) t f(t) - 2N F(t).

Both work one whole box face at a time (2 * dim faces), never one facet
at a time: <x-x0, nu> is constant on a face, and :meth:`Mesh.faces` gives
the slice of ``partition.dirichlet`` labelling its cells in C order, so a
face's lateral strips, Neumann F-means and labels are arrays.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from ._weighted1d import cell_moments
from .extension import ExtensionField
from .fractional import Field, FracParams
from .mesh import BoundaryPartition, Mesh
from .spectral import _trapezoid_weights

__all__ = [
    "NonlinearitySpec",
    "critical_power",
    "linear_plus_critical",
    "growth_defect",
    "PohozaevReport",
    "pohozaev_terms",
    "NonexistenceReport",
    "nonexistence_check",
]

# the growth condition g(t) >= 0 is sampled at this many points of (0, max]
_GROWTH_T_MAX = 10.0
_GROWTH_SAMPLES = 400


@dataclass(frozen=True)
class NonlinearitySpec:
    """A nonlinearity f together with its primitive F, F(0) = 0.

    Both callables must be vectorized over numpy arrays.  Consistency of
    the pair is checked at construction by central differences on a fixed
    sample grid.

    Attributes
    ----------
    f : callable
    F : callable
    tag : str
        One of "CRITICAL_POWER", "LINEAR_PLUS_CRITICAL", "CUSTOM".
    """

    f: Callable[[np.ndarray], np.ndarray]
    F: Callable[[np.ndarray], np.ndarray]
    tag: str = "CUSTOM"

    def __post_init__(self):
        ts = np.linspace(0.125, 2.0, 9)
        h = 1e-5
        approx = (self.F(ts + h) - self.F(ts - h)) / (2.0 * h)
        fv = self.f(ts)
        err = np.max(np.abs(approx - fv) / np.maximum(1.0, np.abs(fv)))
        if not err < 1e-6:
            raise ValueError(
                f"F is not a primitive of f: central-difference mismatch "
                f"{err:.3e}")
        f0 = float(np.abs(self.F(np.asarray([0.0]))[0]))
        if not f0 <= 1e-14:
            raise ValueError("primitive must vanish at 0")


def critical_power(params: FracParams) -> NonlinearitySpec:
    """f(t) = |t|^(2*-2) t with primitive |t|^(2*) / 2*."""
    p = params.two_star
    return NonlinearitySpec(
        f=lambda t: np.abs(t) ** (p - 2.0) * t,
        F=lambda t: np.abs(t) ** p / p,
        tag="CRITICAL_POWER")


def linear_plus_critical(params: FracParams, lam: float) -> NonlinearitySpec:
    """f(t) = lam t + |t|^(2*-2) t and its primitive."""
    p = params.two_star
    return NonlinearitySpec(
        f=lambda t: lam * t + np.abs(t) ** (p - 2.0) * t,
        F=lambda t: 0.5 * lam * t**2 + np.abs(t) ** p / p,
        tag="LINEAR_PLUS_CRITICAL")


def growth_defect(spec: NonlinearitySpec, params: FracParams,
                  t: np.ndarray) -> np.ndarray:
    """g(t) = (N - 2s) t f(t) - 2N F(t); identically 0 at the pure
    critical power."""
    t = np.asarray(t, dtype=float)
    return ((params.N - 2.0 * params.s) * t * spec.f(t)
            - 2.0 * params.N * spec.F(t))


@dataclass(frozen=True)
class PohozaevReport:
    """The five integrals of the identity plus the leftover.

    ``residual`` is LHS - RHS with LHS = volume_uf - volume_F and
    RHS = lateral_neumann - lateral_dirichlet - boundary_neumann; ``scale``
    is the largest absolute term, and ``residual_over_scale`` is their
    ratio, 0 at the zero field where every term vanishes.
    """

    volume_uf: float
    volume_F: float
    lateral_neumann: float
    lateral_dirichlet: float
    boundary_neumann: float
    residual: float
    scale: float
    residual_over_scale: float
    x0: tuple

    def as_dict(self) -> dict:
        return asdict(self)


def _pairing(mesh: Mesh, axis: int, side: int, x0: tuple) -> float:
    """<x - x0, nu> on the face (axis, side), the same at each of its points."""
    return (1.0 if side == 1 else -1.0) * (mesh.extents[axis][side] - x0[axis])


def _pair_means(x: np.ndarray, axes) -> np.ndarray:
    """Mean of each pair of adjacent entries along every axis in ``axes``.

    Along all of a cell's axes this is the mean over its 2^k corners, taken
    one axis at a time, so each temporary is at most the size of ``x``.
    """
    for e in axes:
        lo = [slice(None)] * x.ndim
        hi = list(lo)
        lo[e], hi[e] = slice(None, -1), slice(1, None)
        x = 0.5 * (x[tuple(lo)] + x[tuple(hi)])
    return x


def _lateral_strips(slab: np.ndarray, spacing, y: np.ndarray,
                    y_moment0: np.ndarray) -> np.ndarray:
    """Integral of y^(1-2s) |grad w|^2 over each lateral strip of one face.

    ``slab`` holds the extension values on the layer of base cells next to
    the face, shape (*node shape, J+1), two nodes thick along the face's
    axis.  Gradients are one-sided element-centroid values of the
    multilinear interpolant: node differences along each axis averaged
    over the transverse node pairs, then averaged over adjacent y-levels
    and weighted by the exact moments ``y_moment0`` of each y-cell.
    Returns one value per facet, C-ordered over the transverse cells.
    """
    dim = slab.ndim - 1
    per_cell = 0.0
    for d in range(dim):
        g = _pair_means(np.diff(slab, axis=d),
                        [e for e in range(dim) if e != d]) / spacing[d]
        per_cell = per_cell + (0.5 * (g[..., :-1] + g[..., 1:])) ** 2
    mean = _pair_means(slab, range(dim))
    g_y = (mean[..., 1:] - mean[..., :-1]) / np.diff(y)
    per_cell = per_cell + g_y ** 2
    return (per_cell * y_moment0).sum(axis=-1).ravel()


def pohozaev_terms(
    u: Field,
    w: ExtensionField,
    spec: NonlinearitySpec,
    params: FracParams,
    kappa: float,
    x0,
) -> PohozaevReport:
    """Evaluate all identity terms on a field and its extension.

    Parameters
    ----------
    u : Field
    w : ExtensionField
        Extension of ``u`` on the same base mesh and partition.
    spec : NonlinearitySpec
    params : FracParams
    kappa : float
        Coupling constant of the extension boundary flux.
    x0 : sequence of float
        Translation center of the position field.

    Returns
    -------
    PohozaevReport

    Raises
    ------
    ValueError
        On mismatched meshes or when ``w`` does not trace back to ``u``.
    """
    mesh = u.mesh
    if w.cyl.base != mesh or w.partition != u.partition:
        raise ValueError("u and w live on different meshes or partitions")
    scale_u = float(np.max(np.abs(u.values))) if u.values.size else 0.0
    if float(np.max(np.abs(w.values[:, 0] - u.values))) > 1e-12 * max(
            scale_u, 1.0):
        raise ValueError("w is not an extension of u: traces differ")
    x0 = tuple(float(c) for c in x0)
    if len(x0) != mesh.dim:
        raise ValueError(f"x0 must have {mesh.dim} components")

    vals = u.values
    weights = _trapezoid_weights(mesh)
    vol_uf = float((params.N - 2.0 * params.s)
                   * np.sum(weights * vals * spec.f(vals)))
    vol_F = float(2.0 * params.N * np.sum(weights * spec.F(vals)))

    y = w.cyl.y
    y_m0 = cell_moments(y, params.s)[0]

    dirichlet = np.asarray(u.partition.dirichlet)
    W = w.values.reshape(*mesh.shape, len(y))
    U = vals.reshape(mesh.shape)
    lat_neu = 0.0
    lat_dir = 0.0
    bdry_neu = 0.0
    for a, side, facets, _, measure in mesh.faces():
        pairing = _pairing(mesh, a, side, x0)
        layer = [slice(None)] * mesh.dim
        layer[a] = slice(0, 2) if side == 0 else slice(-2, None)
        strips = _lateral_strips(W[tuple(layer)], mesh.spacing, y, y_m0)
        contrib = strips * measure * pairing
        is_dir = dirichlet[facets]
        # summed one facet after another, so batching by face changes no bit
        lat_dir = np.cumsum(np.r_[lat_dir, contrib[is_dir]])[-1]
        lat_neu = np.cumsum(np.r_[lat_neu, contrib[~is_dir]])[-1]
        if not is_dir.all():
            layer[a] = slice(0, 1) if side == 0 else slice(-1, None)
            face_F = np.moveaxis(spec.F(U[tuple(layer)]), a, -1)
            f_mean = _pair_means(face_F, range(mesh.dim - 1)).ravel()
            bdry = f_mean[~is_dir] * measure * pairing
            bdry_neu = np.cumsum(np.r_[bdry_neu, bdry])[-1]
    lat_neu, lat_dir, bdry_neu = float(lat_neu), float(lat_dir), float(bdry_neu)
    lat_neu *= kappa
    lat_dir *= kappa
    bdry_neu *= 2.0

    lhs = vol_uf - vol_F
    rhs = lat_neu - lat_dir - bdry_neu
    residual = lhs - rhs
    scale = max(abs(t) for t in (vol_uf, vol_F, lat_neu, lat_dir, bdry_neu))
    return PohozaevReport(
        volume_uf=vol_uf, volume_F=vol_F, lateral_neumann=lat_neu,
        lateral_dirichlet=lat_dir, boundary_neumann=bdry_neu,
        residual=residual, scale=scale,
        residual_over_scale=residual / scale if scale > 0 else 0.0, x0=x0)


@dataclass(frozen=True)
class NonexistenceReport:
    """Geometric and growth evidence behind a nonexistence prediction.

    ``flag`` is NO-SOLUTION-PREDICTED when both the sign pattern of
    <x-x0, nu> and the growth condition g >= 0 hold, INCONCLUSIVE when the
    Neumann pairing changes sign, NO-PREDICTION otherwise.
    """

    flag: str
    geometry_ok: bool
    growth_ok: bool
    mixed_sign: bool
    max_neumann_pairing: float
    min_dirichlet_pairing: float
    exempted_facets: int
    g_min: float
    g_scale: float
    x0: tuple

    def as_dict(self) -> dict:
        return asdict(self)


def nonexistence_check(
    mesh: Mesh,
    partition: BoundaryPartition,
    spec: NonlinearitySpec,
    params: FracParams,
    x0,
    tol: float = 1e-10,
    rho: float = 0.0,
) -> NonexistenceReport:
    """Check the sign geometry of <x-x0, nu> plus the growth condition.

    Neumann facet centroids must pair to 0 with the outward normal (within
    ``tol`` times the largest side), Dirichlet ones strictly positively;
    facets whose centroid lies within distance ``rho`` of ``x0`` are
    exempt from the Neumann test, as on a corner at ``x0`` smoothed out to
    radius ``rho``.  The growth condition samples
    g(t) = (N-2s) t f(t) - 2N F(t) >= 0 at 400 evenly spaced points of
    (0, 10].

    Returns
    -------
    NonexistenceReport
    """
    if partition.mesh != mesh:
        raise ValueError("partition does not belong to this mesh")
    x0 = tuple(float(c) for c in x0)
    if len(x0) != mesh.dim:
        raise ValueError(f"x0 must have {mesh.dim} components")
    geo_tol = tol * max(hi - lo for lo, hi in mesh.extents)

    # <x-x0, nu> is constant on each face, so a face contributes its one
    # pairing value to each list it has facets in
    dirichlet = np.asarray(partition.dirichlet)
    neu_pair = []
    dir_pair = []
    exempt = 0
    for a, side, facets, _, _ in mesh.faces():
        pairing = _pairing(mesh, a, side, x0)
        is_dir = dirichlet[facets]
        if is_dir.any():
            dir_pair.append(pairing)
        kept = ~is_dir
        if rho > 0:
            # |centroid - x0| per facet, squares summed in axis order
            sq = 0.0
            for d in range(mesh.dim):
                c = mesh.extents[a][side] if d == a else mesh.cell_centers(d)
                sq = np.add.outer(sq, (c - x0[d]) ** 2)
            near = kept & (np.sqrt(np.ravel(sq)) <= rho)
            exempt += int(np.count_nonzero(near))
            kept &= ~near
        if kept.any():
            neu_pair.append(pairing)

    neu_pair = np.asarray(neu_pair)
    dir_pair = np.asarray(dir_pair)
    pos = bool(np.any(neu_pair > geo_tol))
    neg = bool(np.any(neu_pair < -geo_tol))
    mixed = pos and neg
    neumann_flat = not (pos or neg)
    dirichlet_out = bool(dir_pair.size and np.all(dir_pair > 0))
    geometry_ok = neumann_flat and dirichlet_out

    ts = np.linspace(_GROWTH_T_MAX / _GROWTH_SAMPLES, _GROWTH_T_MAX,
                     _GROWTH_SAMPLES)
    g = growth_defect(spec, params, ts)
    g_scale = float(max(
        1.0,
        np.max(np.abs((params.N - 2 * params.s) * ts * spec.f(ts))),
        np.max(np.abs(2 * params.N * spec.F(ts)))))
    g_min = float(np.min(g))
    growth_ok = bool(g_min >= -1e-12 * g_scale)

    if mixed:
        flag = "INCONCLUSIVE"
    elif geometry_ok and growth_ok:
        flag = "NO-SOLUTION-PREDICTED"
    else:
        flag = "NO-PREDICTION"
    return NonexistenceReport(
        flag=flag, geometry_ok=geometry_ok, growth_ok=growth_ok,
        mixed_sign=mixed,
        max_neumann_pairing=float(np.max(np.abs(neu_pair))) if neu_pair.size
        else 0.0,
        min_dirichlet_pairing=float(np.min(dir_pair)) if dir_pair.size
        else float("nan"),
        exempted_facets=exempt, g_min=g_min, g_scale=g_scale, x0=x0)
