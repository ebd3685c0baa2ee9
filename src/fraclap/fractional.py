"""Spectral fractional Laplacian, its norms, and the attached constants.

The operator acts through the basis interface of :mod:`fraclap.spectral`:
take coordinates, apply ``power``, resynthesize.  On a
:class:`~fraclap.spectral.SpectralBasis` that scales eigen-coefficient j by
lambda_j**s; a :class:`~fraclap.spectral.ConstrainedOperator` applies L^s
with no spectrum beyond lambda_1.  The power s lives strictly between 1/2
and 1.  Constants: the critical Sobolev constant and the extension coupling
constant from their Gamma-function formulas; a one-mode ODE calibration of
the coupling constant is kept as the constants report's cross-check.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import _weighted1d
from .mesh import BoundaryPartition, Mesh
from .spectral import Operator, OperatorPair, SpectralBasis, assemble_operators

__all__ = [
    "FracParams",
    "Field",
    "ConstantsReport",
    "QuotientReport",
    "TruncatedBasisError",
    "mode_field",
    "frac_apply",
    "frac_norm",
    "spectral_tail_bound",
    "lambda1s",
    "sobolev_constant",
    "kappa_s",
    "attainment_threshold",
    "constants_report",
    "critical_norm",
    "cutoff_profile",
    "extremal_bubble",
    "test_function_quotient",
]


class TruncatedBasisError(RuntimeError):
    """Operator application needs a complete basis unless explicitly allowed."""


@dataclass(frozen=True)
class FracParams:
    """Fractional power and ambient dimension.

    Parameters
    ----------
    s : float
        Fractional power, restricted to 1/2 < s < 1.
    N : int
        Spatial dimension of the base domain.
    """

    s: float
    N: int

    def __post_init__(self) -> None:
        if not 0.5 < self.s < 1.0:
            raise ValueError(f"s must lie strictly in (1/2, 1), got {self.s}")
        if self.N not in (1, 2, 3):
            raise ValueError(f"N must be 1, 2, or 3, got {self.N}")

    @property
    def two_star(self) -> float:
        """Critical exponent 2N/(N-2s); requires N > 2s."""
        if self.N <= 2 * self.s:
            raise ValueError(
                f"critical exponent undefined: N={self.N} <= 2s={2 * self.s}")
        return 2.0 * self.N / (self.N - 2.0 * self.s)

    @property
    def dim_at_least_4s(self) -> bool:
        """Whether N >= 4s, the regime where existence results are guaranteed.

        Recorded as a label on experiment output; computations run either way.
        """
        return self.N >= 4 * self.s


@dataclass(frozen=True)
class Field:
    """Nodal scalar field vanishing on the Dirichlet part.

    Attributes
    ----------
    values : numpy.ndarray
        One value per mesh node (Dirichlet nodes exactly zero).
    mesh : Mesh
    partition : BoundaryPartition
    """

    values: np.ndarray = field(repr=False)
    mesh: Mesh
    partition: BoundaryPartition

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.mesh.n_nodes,):
            raise ValueError(f"expected {self.mesh.n_nodes} nodal values")
        if not np.all(np.isfinite(v)):
            raise ValueError("field has non-finite entries")
        mask = self.partition.dirichlet_node_mask
        scale = max(float(np.max(np.abs(v))), 1.0)
        if np.any(np.abs(v[mask]) > 1e-12 * scale):
            raise ValueError("field does not vanish on the Dirichlet part")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_free(cls, ops: OperatorPair, values_free: np.ndarray) -> Field:
        full = np.zeros(ops.mesh.n_nodes)
        full[ops.free] = values_free
        return cls(values=full, mesh=ops.mesh, partition=ops.partition)

    @classmethod
    def from_callable(
        cls, mesh: Mesh, partition: BoundaryPartition,
        fn: Callable[[np.ndarray], np.ndarray],
    ) -> Field:
        """Sample fn on node coordinates and zero the Dirichlet nodes."""
        vals = np.asarray(fn(mesh.node_coords), dtype=float)
        vals = vals.copy()
        vals[partition.dirichlet_node_mask] = 0.0
        return cls(values=vals, mesh=mesh, partition=partition)

    def free_values(self, ops: OperatorPair) -> np.ndarray:
        """Values at the free nodes of ``ops``, which must be on this
        field's partition."""
        if ops.partition != self.partition:
            raise ValueError("field lives on another partition than the "
                             "operators")
        return self.values[ops.free]

    def __add__(self, other: Field) -> Field:
        self._check_compatible(other)
        return replace(self, values=self.values + other.values)

    def __sub__(self, other: Field) -> Field:
        self._check_compatible(other)
        return replace(self, values=self.values - other.values)

    def __mul__(self, c: float) -> Field:
        return replace(self, values=self.values * float(c))

    __rmul__ = __mul__

    def _check_compatible(self, other: Field) -> None:
        if other.mesh != self.mesh or other.partition != self.partition:
            raise ValueError("fields live on different meshes or partitions")


def mode_field(basis: Operator, k: int) -> Field:
    """Eigenfunction k as a Field; modes are numbered from 1."""
    return Field(values=basis.eigenfunction(k), mesh=basis.ops.mesh,
                 partition=basis.ops.partition)


def _coeffs(basis: Operator, u: Field) -> np.ndarray:
    return basis.coefficients(u.free_values(basis.ops))


def frac_apply(
    basis: Operator,
    params: FracParams,
    u: Field,
    allow_truncated: bool = False,
) -> Field:
    """Apply the fractional operator through the basis interface.

    Parameters
    ----------
    basis : SpectralBasis or ConstrainedOperator
        Complete unless ``allow_truncated``; a truncated apply drops the
        unresolved spectral tail (see :func:`spectral_tail_bound`).  A
        :class:`~fraclap.spectral.ConstrainedOperator` (from
        :func:`~fraclap.spectral.quotient_operator` on a partial-facet
        partition) applies L^s without an eigenbasis.
    params : FracParams
    u : Field

    Returns
    -------
    Field
        sum_j lambda_j**s <u, phi_j>_M phi_j.
    """
    if not basis.complete and not allow_truncated:
        raise TruncatedBasisError(
            "basis is truncated; pass allow_truncated=True to accept the "
            "dropped spectral tail")
    a = _coeffs(basis, u)
    out_free = basis.synthesize(basis.power(a, params.s))
    return Field.from_free(basis.ops, out_free)


def frac_norm(basis: Operator, params: FracParams, u: Field) -> float:
    """Fractional energy norm: sqrt(sum_j lambda_j**s <u, phi_j>_M**2)."""
    if not basis.complete:
        raise TruncatedBasisError("fractional norm needs a complete basis")
    return float(np.sqrt(basis.form(_coeffs(basis, u), params.s)[0]))


def spectral_tail_bound(basis: SpectralBasis, params: FracParams, u: Field) -> float:
    """Energy estimate for the tail a truncated apply drops.

    Prices all unresolved M-mass at the last retained band:
    lambda_m**s * (||u||_M**2 - sum_{j<=m} a_j**2).  Since every dropped
    eigenvalue sits above the last retained one, this underestimates the
    true tail; it is an accounting figure, not a certified bound.
    """
    a = _coeffs(basis, u)
    uf = u.free_values(basis.ops)
    total = float(uf @ (basis.ops.M @ uf))
    missing = max(total - float(a @ a), 0.0)
    return float(basis.lams[-1] ** params.s * missing)


def lambda1s(basis: Operator, params: FracParams) -> float:
    """First eigenvalue of the fractional operator: lambda_1 ** s.

    The one spelling of it, ``basis.lam1s``, which the nonexistence witness
    also uses; the scalar power of lambda_1 may differ from it by one ulp.
    """
    return float(basis.lam1s(params.s))


def sobolev_constant(params: FracParams) -> float:
    """Best fractional Sobolev constant on the whole space.

    Evaluates the closed Gamma-function form

        S = 2 pi^s G(1-s) G((N+2s)/2) G(N/2)^(2s/N)
            / ( G(s) G((N-2s)/2) G(N)^s ).
    """
    s, N = params.s, float(params.N)
    if N <= 2 * s:
        raise ValueError(f"constant undefined for N={params.N} <= 2s={2 * s}")
    g = math.gamma
    num = 2.0 * math.pi**s * g(1 - s) * g((N + 2 * s) / 2) * g(N / 2) ** (2 * s / N)
    den = g(s) * g((N - 2 * s) / 2) * g(N) ** s
    return num / den


def kappa_s(params: FracParams) -> float:
    """Extension coupling constant, from its closed form.

    kappa_s = 2^(2s-1) Gamma(s) / Gamma(1-s), the constant of Caffarelli &
    Silvestre (2007) in this package's trace-derivative convention: the
    decaying solution of -(y^(1-2s) w')' + mu y^(1-2s) w = 0 with w(0) = 1
    has -lim_{y->0} y^(1-2s) w'(y) = mu^s / kappa_s for every mu > 0, so
    :func:`~fraclap.extension.dtn` returns L^s u.  Finite on all of
    1/2 < s < 1; :func:`constants_report` cross-checks it against a
    numerical one-mode calibration.
    """
    s = params.s
    return 2.0 ** (2 * s - 1) * math.gamma(s) / math.gamma(1 - s)


def attainment_threshold(params: FracParams, kappa: float | None = None) -> float:
    """Level below which the constrained quotient infimum is attained.

    2**(-2s/N) * kappa * S(s, N): the half-bubble energy barrier for
    concentration at the Neumann part of the boundary.  ``kappa`` defaults
    to the closed form :func:`kappa_s`.
    """
    if kappa is None:
        kappa = kappa_s(params)
    return 2.0 ** (-2.0 * params.s / params.N) * kappa * sobolev_constant(params)


@dataclass(frozen=True)
class ConstantsReport:
    """Bundle of the constants attached to (s, N), with provenance notes."""

    s: float
    N: int
    sobolev: float
    kappa: float
    threshold: float
    notes: dict

    def as_dict(self) -> dict:
        return asdict(self)


def _calibration_grid(s: float) -> tuple[int, float]:
    # The slope fit separates y^(2s) from y^2; as s -> 1 the exponents
    # collide and the grid must grow ahead of the conditioning.
    if s <= 0.8:
        return 2000, 4.0
    if s <= 0.9:
        return 8000, 5.2
    return 16000, 7.0


def _calibrate_kappa(s: float, mus: tuple[float, ...]) -> list[float]:
    # mu^s / (-lim y^(1-2s) w') per mu from the one-mode ODE profile, the
    # quantity the closed form should reproduce for every mu
    y = _weighted1d.graded_grid(40.0, *_calibration_grid(s))
    values = []
    for mu in mus:
        v = _weighted1d.solve_mode_deviation(y, s, mu)
        limit = _weighted1d.weighted_slope_limit(v[1], v[2], y[1], y[2], s)
        values.append(mu**s / -float(limit))
    return values


def constants_report(
    params: FracParams, mus: tuple[float, ...] = (1.0, 4.0),
) -> ConstantsReport:
    """Compute the Sobolev constant, coupling constant, and threshold.

    ``kappa`` and ``threshold`` use the closed form :func:`kappa_s`.  The
    notes audit it against a one-mode ODE calibration run at every decay
    rate in ``mus``: the per-mu values, their relative spread (the result
    should not depend on mu) and the relative difference of the first one
    from the closed form.  The calibration's fit of y^(2s) against y^2
    degrades as s -> 1, so both figures grow there; they are reported,
    never enforced.
    """
    kappa = kappa_s(params)
    values = _calibrate_kappa(params.s, tuple(mus))
    notes = {
        "kappa_calibration_mus": list(mus),
        "kappa_calibration_values": values,
        "kappa_calibration_spread": (max(values) - min(values)) / min(values),
        "kappa_closed_form": kappa,
        "kappa_closed_form_rel_diff": abs(values[0] - kappa) / kappa,
        "kappa_definition": (
            "closed form 2^(2s-1) Gamma(s)/Gamma(1-s) (normative); one-mode "
            "ODE calibration listed as a cross-check"),
    }
    return ConstantsReport(
        s=params.s, N=params.N, sobolev=sobolev_constant(params),
        kappa=kappa, threshold=attainment_threshold(params, kappa),
        notes=notes,
    )


def critical_norm(
    ops: OperatorPair,
    params: FracParams,
    values_free: np.ndarray,
) -> float:
    """Nodal L^{2*} norm with lumped-mass weights.

    The lumped rule is positivity-preserving, which the minimization loop
    relies on.
    """
    p = params.two_star
    return float(np.sum(ops.lumped * np.abs(values_free) ** p)) ** (1.0 / p)


@dataclass(frozen=True)
class QuotientReport:
    """Ingredients and value of the constrained quotient at one field.

    Attributes
    ----------
    energy : float
        Fractional energy (squared norm).
    l2_sq : float
        Squared L2 norm (consistent mass).
    crit_sq : float
        Squared critical norm.
    lam : float
        Linear-term weight.
    value : float
        (energy - lam * l2_sq) / crit_sq.
    route : str
        "spectral" or "extension".
    """

    energy: float
    l2_sq: float
    crit_sq: float
    lam: float
    value: float
    route: str

    def as_dict(self) -> dict:
        return asdict(self)


def cutoff_profile(t: np.ndarray) -> np.ndarray:
    """Quintic smoothstep cutoff: 1 for t <= 1/2, 0 for t >= 1, C^2 between."""
    t = np.asarray(t, dtype=float)
    tau = np.clip((t - 0.5) / 0.5, 0.0, 1.0)
    return 1.0 - tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)


def extremal_bubble(params: FracParams, eps: float, r: np.ndarray) -> np.ndarray:
    """Concentration profile eps^((N-2s)/2) / (eps^2 + r^2)^((N-2s)/2)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    q = (params.N - 2.0 * params.s) / 2.0
    return eps**q / (eps**2 + np.asarray(r, dtype=float) ** 2) ** q


def test_function_quotient(
    mesh: Mesh,
    partition: BoundaryPartition,
    params: FracParams,
    x0,
    rho: float,
    eps: float,
    lam: float = 0.0,
    route: str = "extension",
    basis: SpectralBasis | None = None,
    Y: float | None = None,
    J: int = 32,
    gamma: float = 3.0,
) -> QuotientReport:
    """Quotient of the cut-off concentration bubble centered on the boundary.

    Builds u(x) = bubble_eps(|x - x0|) * cutoff(|x - x0| / rho) with x0 on
    the closure of the Neumann part, and evaluates the quotient with the
    energy taken through the extension (default) or the spectral route.
    Probing this family for small eps is how the attainment threshold is
    approached from above.

    Parameters
    ----------
    mesh, partition : Mesh, BoundaryPartition
    params : FracParams
    x0 : array-like
        Concentration point; must lie on the closure of the Neumann part.
    rho : float
        Cutoff radius; needs eps < rho and rho below half the shortest side.
    eps : float
        Concentration scale; at least 4 cells must span it.
    lam : float
        Linear-term weight in the quotient.
    route : {"extension", "spectral"}
    basis : SpectralBasis, optional
        Required for the spectral route.
    Y, J, gamma
        Extension-route cylinder; Y defaults to 1.5 * longest side.  The
        energy takes the closed-form coupling constant :func:`kappa_s`.

    Returns
    -------
    QuotientReport
    """
    from .extension import build_cylinder, extend, x_norm  # deferred: avoids cycle

    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (mesh.dim,):
        raise ValueError(f"x0 must have {mesh.dim} coordinates")
    _require_on_neumann_closure(mesh, partition, x0)

    min_side = min(b - a for a, b in mesh.extents)
    if not eps < rho:
        raise ValueError(f"need eps < rho, got eps={eps}, rho={rho}")
    if not rho <= 0.5 * min_side:
        raise ValueError(f"rho={rho} too large for domain side {min_side}")
    hmax = max(mesh.spacing)
    if eps < 4.0 * hmax:
        raise ValueError(
            f"eps={eps} under-resolved: need at least 4 cells across eps "
            f"(h_max={hmax})")

    r = np.linalg.norm(mesh.node_coords - x0, axis=1)
    vals = extremal_bubble(params, eps, r) * cutoff_profile(r / rho)
    mask = partition.dirichlet_node_mask
    clipped = float(np.max(np.abs(vals[mask]))) if np.any(mask) else 0.0
    vals[mask] = 0.0
    if clipped > 1e-14 * float(np.max(np.abs(vals))):
        raise ValueError(
            "cutoff support reaches the Dirichlet part; shrink rho or move x0")
    u = Field(values=vals, mesh=mesh, partition=partition)
    ops = assemble_operators(mesh, partition)
    uf = u.free_values(ops)
    l2_sq = float(uf @ (ops.M @ uf))
    crit_sq = critical_norm(ops, params, uf) ** 2

    if route == "extension":
        if Y is None:
            Y = 1.5 * max(b - a for a, b in mesh.extents)
        cyl = build_cylinder(mesh, Y=Y, J=J, gamma=gamma)
        w = extend(cyl, partition, params, u)
        energy = x_norm(cyl, params, w, kappa_s(params)) ** 2
    elif route == "spectral":
        if basis is None:
            raise ValueError("spectral route needs a basis")
        energy = frac_norm(basis, params, u) ** 2
    else:
        raise ValueError(f"unknown route {route!r}")

    value = (energy - lam * l2_sq) / crit_sq
    return QuotientReport(energy=energy, l2_sq=l2_sq, crit_sq=crit_sq,
                          lam=lam, value=value, route=route)


def _require_on_neumann_closure(
    mesh: Mesh, partition: BoundaryPartition, x0: np.ndarray,
) -> None:
    # x0 must lie, within tol, on a closed facet with a Neumann label; per
    # face the test is an outer AND of one interval test per axis
    tol = 1e-9 * max(b - a for a, b in mesh.extents)
    labels = np.asarray(partition.dirichlet)
    touched = []  # labels of the facets x0 lies on
    for axis, side, facets, _, _ in mesh.faces():
        coord = mesh.extents[axis][side]
        hit = np.array(coord - tol <= x0[axis] <= coord + tol)
        for d in (d for d in range(mesh.dim) if d != axis):
            h = mesh.spacing[d]
            c = mesh.extents[d][0] + (np.arange(mesh.n[d]) + 0.5) * h
            inside = (x0[d] >= c - 0.5 * h - tol) & (x0[d] <= c + 0.5 * h + tol)
            hit = np.multiply.outer(hit, inside)
        touched.append(labels[facets][hit.ravel()])
    touched = np.concatenate(touched)
    if not touched.size:
        raise ValueError(f"x0={x0.tolist()} is not on the boundary")
    if touched.all():
        raise ValueError(f"x0={x0.tolist()} does not touch the Neumann part")
