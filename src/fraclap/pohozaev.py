"""Identity audit for computed solutions and nonexistence geometry checks.

Every term of the translated-center identity

    (N-2s) int u f(u) - 2N int F(u)
        = kappa int_{lat,Neumann} y^(1-2s) |grad w|^2 <x-x0, nu>
        - kappa int_{lat,Dirichlet} y^(1-2s) |grad w|^2 <x-x0, nu>
        - 2 int_{Neumann} F(u) <x-x0, nu>

is evaluated with the same exact-in-y weighted quadrature used by the
extension solver; the leftover is reported as a residual against the
largest term.  The geometric nonexistence test checks the sign pattern of
<x-x0, nu> facet by facet together with the growth defect
g(t) = (N-2s) t f(t) - 2N F(t).
"""
from __future__ import annotations

from dataclasses import dataclass
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
    is the largest absolute term, and ``residual_over_scale`` degrades to
    0 at the zero field where every term vanishes.
    """

    volume_uf: float
    volume_F: float
    lateral_neumann: float
    lateral_dirichlet: float
    boundary_neumann: float
    residual: float
    scale: float
    x0: tuple

    @property
    def residual_over_scale(self) -> float:
        return self.residual / self.scale if self.scale > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "volume_uf": self.volume_uf, "volume_F": self.volume_F,
            "lateral_neumann": self.lateral_neumann,
            "lateral_dirichlet": self.lateral_dirichlet,
            "boundary_neumann": self.boundary_neumann,
            "residual": self.residual, "scale": self.scale,
            "residual_over_scale": self.residual_over_scale,
            "x0": list(self.x0),
        }


def _element_corner_nodes(mesh: Mesh, cell: tuple) -> np.ndarray:
    # flat node indices of the 2^dim corners of a base-mesh cell, in
    # ascending order
    shape = mesh.shape
    idx = []
    for offsets in np.ndindex(*(2,) * mesh.dim):
        multi = tuple(c + o for c, o in zip(cell, offsets))
        idx.append(np.ravel_multi_index(multi, shape))
    return np.array(sorted(idx), dtype=np.intp)


def _lateral_facet_integral(
    w_corners: np.ndarray,
    mesh: Mesh,
    y: np.ndarray,
    y_moment0: np.ndarray,
) -> np.ndarray:
    """Per-y-cell integral of y^(1-2s) |grad w|^2 on one lateral strip.

    ``w_corners`` has shape (2^dim, J+1): extension values at the corners
    of the base element adjacent to the facet, all y-levels.  Gradients
    are one-sided element-centroid values of the multilinear interpolant.
    """
    dim = mesh.dim
    n_corners = w_corners.shape[0]
    grads = []
    for d in range(dim):
        stride = 1 << (dim - 1 - d)
        hi = [i for i in range(n_corners) if (i // stride) % 2 == 1]
        lo = [i - stride for i in hi]
        g = (w_corners[hi, :] - w_corners[lo, :]).mean(axis=0) / mesh.spacing[d]
        grads.append(g)
    dy = np.diff(y)
    per_cell = np.zeros(len(dy))
    for g in grads:
        g_cell = 0.5 * (g[:-1] + g[1:])
        per_cell += g_cell**2
    g_y = (w_corners.mean(axis=0)[1:] - w_corners.mean(axis=0)[:-1]) / dy
    per_cell += g_y**2
    return per_cell * y_moment0


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

    lat_neu = 0.0
    lat_dir = 0.0
    bdry_neu = 0.0
    coords = mesh.node_coords
    for facet, is_dir in zip(mesh.facets, u.partition.dirichlet):
        a = facet.axis
        sign = 1.0 if facet.side == 1 else -1.0
        pairing = sign * (facet.centroid[a] - x0[a])
        cell_along = mesh.n[a] - 1 if facet.side == 1 else 0
        cell = facet.index[:a] + (cell_along,) + facet.index[a:]
        corners = _element_corner_nodes(mesh, cell)
        w_corners = w.values[corners, :]
        strip = float(np.sum(_lateral_facet_integral(w_corners, mesh, y, y_m0)))
        contrib = strip * facet.measure * pairing
        if is_dir:
            lat_dir += contrib
        else:
            lat_neu += contrib
            fnodes = mesh.facet_nodes(facet)
            f_mean = float(np.mean(spec.F(vals[fnodes])))
            bdry_neu += f_mean * facet.measure * pairing
    lat_neu *= kappa
    lat_dir *= kappa
    bdry_neu *= 2.0

    lhs = vol_uf - vol_F
    rhs = lat_neu - lat_dir - bdry_neu
    terms = [vol_uf, vol_F, lat_neu, lat_dir, bdry_neu]
    return PohozaevReport(
        volume_uf=vol_uf, volume_F=vol_F, lateral_neumann=lat_neu,
        lateral_dirichlet=lat_dir, boundary_neumann=bdry_neu,
        residual=lhs - rhs, scale=max(abs(t) for t in terms), x0=x0)


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
        return {
            "flag": self.flag, "geometry_ok": self.geometry_ok,
            "growth_ok": self.growth_ok, "mixed_sign": self.mixed_sign,
            "max_neumann_pairing": self.max_neumann_pairing,
            "min_dirichlet_pairing": self.min_dirichlet_pairing,
            "exempted_facets": self.exempted_facets,
            "g_min": self.g_min, "g_scale": self.g_scale,
            "x0": list(self.x0),
        }


def nonexistence_check(
    mesh: Mesh,
    partition: BoundaryPartition,
    spec: NonlinearitySpec,
    params: FracParams,
    x0,
    t_max: float = 10.0,
    n_samples: int = 400,
    tol: float = 1e-10,
    rho: float = 0.0,
) -> NonexistenceReport:
    """Check the sign geometry of <x-x0, nu> plus the growth condition.

    Neumann facet centroids must pair to 0 with the outward normal (within
    ``tol`` times the largest side), Dirichlet ones strictly positively;
    facets whose centroid lies within distance ``rho`` of ``x0`` are
    exempt from the Neumann test, mirroring the smoothed-corner region of
    the cone construction.  The growth condition samples
    g(t) = (N-2s) t f(t) - 2N F(t) >= 0 on (0, t_max].

    Returns
    -------
    NonexistenceReport
    """
    if partition.mesh != mesh:
        raise ValueError("partition does not belong to this mesh")
    x0 = tuple(float(c) for c in x0)
    if len(x0) != mesh.dim:
        raise ValueError(f"x0 must have {mesh.dim} components")
    side = max(hi - lo for lo, hi in mesh.extents)
    geo_tol = tol * side

    neu_pair = []
    dir_pair = []
    exempt = 0
    for facet, is_dir in zip(mesh.facets, partition.dirichlet):
        a = facet.axis
        sign = 1.0 if facet.side == 1 else -1.0
        pairing = sign * (facet.centroid[a] - x0[a])
        if is_dir:
            dir_pair.append(pairing)
        else:
            dist = float(np.linalg.norm(np.subtract(facet.centroid, x0)))
            if rho > 0 and dist <= rho:
                exempt += 1
                continue
            neu_pair.append(pairing)

    neu_pair = np.asarray(neu_pair) if neu_pair else np.zeros(0)
    dir_pair = np.asarray(dir_pair) if dir_pair else np.zeros(0)
    pos = bool(np.any(neu_pair > geo_tol))
    neg = bool(np.any(neu_pair < -geo_tol))
    mixed = pos and neg
    neumann_flat = not (pos or neg)
    dirichlet_out = bool(dir_pair.size and np.all(dir_pair > 0))
    geometry_ok = neumann_flat and dirichlet_out

    ts = np.linspace(t_max / n_samples, t_max, n_samples)
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
