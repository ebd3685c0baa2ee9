"""Constrained quotient minimization at the critical exponent.

Minimizes (energy - lam * L2) / critical-norm**2 over the constrained space
by the monotone fixed point u <- |(L^s - lam)^-1 N(u)| on the critical-norm
unit sphere, where N(u) is the nonlinear term u^(2*-1); every accepted step
lowers the quotient and the iteration stops once the discrete
Euler-Lagrange residual reaches solver precision.  Rescaling the minimizer
by S**(1/(2*-2)) turns it into a candidate solution of the critical
equation.

The operator enters only through lambda_1, phi_1, the coordinate maps, L^s
and (L^s - lam)^-1.  A complete :class:`~fraclap.spectral.SpectralBasis`
gives them coefficientwise from its eigenvalues; on a partial-facet
partition a :class:`~fraclap.spectral.ConstrainedOperator` gives them with
no spectrum beyond lambda_1, from Gauss-Jacobi sums of capacitance-corrected
shifted solves.  :func:`~fraclap.spectral.quotient_operator` picks one by
the partition's shape.  No result here depends on the signs of the modes:
each mode's coefficient and its image under L^s and (L^s - lam)^-1 flip
sign together, exactly, and synthesis flips them back.  So every function
runs on the operator's sign-free twin, and a face-aligned basis never forms
its signs for the quotient.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .fractional import (
    Field,
    FracParams,
    QuotientReport,
    TruncatedBasisError,
    attainment_threshold,
    critical_norm,
    lambda1s,
    mode_field,
)
from .mesh import Mesh, moving_family
from .spectral import (
    Operator,
    OperatorPair,
    assemble_operators,
    quotient_operator,
)

__all__ = [
    "MinimizeOptions",
    "MinimizerReport",
    "SolutionReport",
    "quotient",
    "minimize_quotient",
    "sobolev_constant_dirichlet",
    "rescale_to_solution",
    "sweep_lambda",
    "move_boundary_experiment",
    "SweepResult",
    "MoveBoundaryResult",
]

NONEXISTENCE = "NONEXISTENCE-REGIME"


def _scalars(report) -> dict:
    # every field of a report but those holding a Field, which a JSON report
    # leaves out; annotations are strings here (postponed evaluation)
    return {f.name: getattr(report, f.name) for f in fields(report)
            if not f.type.startswith("Field")}


def quotient(
    basis: Operator,
    params: FracParams,
    lam: float,
    u: Field,
) -> QuotientReport:
    """Evaluate the quotient at a field through the spectral route.

    Parameters
    ----------
    basis : SpectralBasis or ConstrainedOperator
        Complete basis on the field's partition, or its operator.
    params : FracParams
    lam : float
        Linear-term weight.
    u : Field
        Nonzero field.

    Returns
    -------
    QuotientReport
    """
    if not basis.complete:
        raise TruncatedBasisError("quotient needs a complete basis")
    basis = basis._unsigned
    ops = basis.ops
    uf = u.free_values(ops)
    if not np.any(uf):
        raise ValueError("quotient undefined at the zero field")
    a = basis.coefficients(uf)
    energy, _ = basis.form(a, params.s)
    # coordinates in a complete basis are isometric: |a|^2 = u^T M u
    l2_sq = float(a @ a)
    crit_sq = critical_norm(ops, params, uf) ** 2
    return QuotientReport(
        energy=energy, l2_sq=l2_sq, crit_sq=crit_sq, lam=float(lam),
        value=(energy - lam * l2_sq) / crit_sq, route="spectral")


@dataclass(frozen=True)
class MinimizeOptions:
    """Stopping rule of the fixed-point minimization.

    Attributes
    ----------
    polish_tol : float
        Stop once the relative Euler-Lagrange residual is at most this.
    polish_max : int
        Fixed-point step cap.
    """

    polish_tol: float = 1e-8
    polish_max: int = 500


@dataclass(frozen=True)
class MinimizerReport:
    """Outcome of one quotient minimization.

    ``flag`` is "OK" for a genuine minimization and "NONEXISTENCE-REGIME"
    when the first-eigenfunction witness already makes the quotient
    nonpositive, in which case no iteration happens and ``value`` is NaN.

    ``participation`` is (sum w u^2)^2 / (|Omega| sum w u^4) over the free
    nodes with the lumped-mass weights w: it lies in (0, 1], equals 1 for a
    field constant on the whole mesh, is small for a concentrated one, and
    converges under mesh refinement.  ``grad_residual`` is the norm of the
    coefficient vector of the quotient numerator's gradient after its
    projection onto the constraint normal (the nonlinear coefficients b) is
    removed; it vanishes at a constrained critical point.  ``el_residual``
    is the relative Euler-Lagrange residual |(L^s - lam) a - value * b| /
    |L^s a| in coefficient space.
    """

    lam: float
    flag: str
    witness_quotient: float
    value: float
    minimizer: Field | None
    converged: bool
    iterations: int
    trace_q: list[float] = field(repr=False)
    max_abs: float
    participation: float
    grad_residual: float
    el_residual: float

    def as_dict(self) -> dict:
        return _scalars(self)


def _nonlinear_coeffs(basis: Operator, uf: np.ndarray, p: float) -> np.ndarray:
    # coefficients of M^{-1}(lumped * u^(p-1)); the discrete dual of the
    # nonlinear term under the lumped critical quadrature
    return basis.dual(basis.ops.lumped * np.abs(uf) ** (p - 1.0))


def _participation(ops: OperatorPair, uf: np.ndarray) -> float:
    # (sum w u^2)^2 / (|Omega| sum w u^4) with the lumped weights w
    w = ops.lumped
    l2 = float(np.sum(w * uf**2))
    l4 = float(np.sum(w * uf**4))
    return l2**2 / (ops.mesh.volume * l4) if l4 > 0 else float("nan")


def _el_residual_rel(
    lam: float, a: np.ndarray, la: np.ndarray, mult: float, b: np.ndarray,
) -> float:
    # la is L^s a
    rho = la - lam * a - mult * b
    denom = float(np.linalg.norm(la))
    return float(np.linalg.norm(rho)) / max(denom, 1e-300)


def minimize_quotient(
    basis: Operator,
    params: FracParams,
    lam: float,
    init: Field | None = None,
    opts: MinimizeOptions | None = None,
) -> MinimizerReport:
    """Minimize the quotient at weight lam over the constrained space.

    Monotone fixed point on the critical-norm unit sphere: from the
    nonlinear coefficients b of the current u, solve (L^s - lam) a = b,
    take the nodewise absolute value of the synthesized field and
    renormalize.  A step is accepted only if it does not raise the
    quotient, so the trace is nonincreasing; ``iterations`` counts the
    accepted steps, ``len(trace_q) - 1``.  The loop stops once the relative
    Euler-Lagrange residual is at most ``opts.polish_tol``, at the first
    step that would raise the quotient, or after ``opts.polish_max`` steps.
    ``converged`` is True when the residual is at most ``opts.polish_tol``,
    or when the refused rise is round-off, at most 1e-12 |Q|: the quotient
    resolves the residual only down to about 1e-8.

    The operator enters only through lambda_1, phi_1, the coordinate maps,
    L^s and (L^s - lam)^-1, so a complete basis (coefficientwise, exact)
    and a :class:`~fraclap.spectral.ConstrainedOperator` (spectrum-free,
    rational) serve alike.

    If the first-eigenfunction witness quotient is already nonpositive
    (lam at or above the fractional principal eigenvalue), returns
    immediately with the NONEXISTENCE-REGIME flag.

    Parameters
    ----------
    basis : SpectralBasis or ConstrainedOperator
        Complete basis on the target partition, or the partition's
        operator from :func:`~fraclap.spectral.quotient_operator`.
    params : FracParams
    lam : float
        Nonnegative weight.
    init : Field, optional
        Starting point; default is the first eigenfunction.
    opts : MinimizeOptions, optional

    Returns
    -------
    MinimizerReport
    """
    if not basis.complete:
        raise TruncatedBasisError("minimization needs a complete basis")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    basis = basis._unsigned
    opts = opts or MinimizeOptions()
    ops = basis.ops
    p = params.two_star
    s = params.s

    phi1 = basis.eigenfunction(1)[ops.free]
    witness = float(
        (basis.lam1s(s) - lam) / critical_norm(ops, params, phi1) ** 2)
    if witness <= 0.0:
        return MinimizerReport(
            lam=float(lam), flag=NONEXISTENCE, witness_quotient=witness,
            value=float("nan"), minimizer=None, converged=False, iterations=0,
            trace_q=[], max_abs=float("nan"),
            participation=float("nan"), grad_residual=float("nan"),
            el_residual=float("nan"))

    if init is None:
        uf = np.abs(phi1)
    else:
        if init.mesh != ops.mesh or init.partition != ops.partition:
            raise ValueError("init lives on the wrong mesh or partition")
        uf = np.abs(init.free_values(ops))
        if not np.any(uf):
            raise ValueError("init must be nonzero")
    uf = uf / critical_norm(ops, params, uf)
    a = basis.coefficients(uf)

    def q_of(coeffs: np.ndarray) -> tuple[float, np.ndarray]:
        energy, l_coeffs = basis.form(coeffs, s)
        return float(energy - lam * np.sum(coeffs**2)), l_coeffs

    Q, la = q_of(a)
    trace_q = [Q]
    b = _nonlinear_coeffs(basis, uf, p)
    el = _el_residual_rel(lam, a, la, Q, b)
    rise = float("inf")
    for _ in range(opts.polish_max):
        if el <= opts.polish_tol:
            break
        # b != 0 and lam < lam_1^s, so u_hat is nonzero
        u_hat = np.abs(basis.synthesize(basis.resolvent(b, s, lam)))
        u_hat = u_hat / critical_norm(ops, params, u_hat)
        a_hat = basis.coefficients(u_hat)
        Q_hat, la_hat = q_of(a_hat)
        if Q_hat > Q:
            rise = Q_hat - Q
            break
        uf, a, la, Q = u_hat, a_hat, la_hat, Q_hat
        trace_q.append(Q)
        b = _nonlinear_coeffs(basis, uf, p)
        el = _el_residual_rel(lam, a, la, Q, b)
    # Q resolves el only down to about 1e-8, so a step that raises Q by
    # round-off alone also marks a stationary point
    converged = el <= opts.polish_tol or rise <= 1e-12 * abs(Q)

    # coefficients of the numerator's M-gradient 2 (L^s - lam) u, minus
    # their component along the constraint normal b
    a_g = 2.0 * basis.power(a, s, lam)
    grad_res = float(np.linalg.norm(a_g - (a_g @ b) / (b @ b) * b))

    return MinimizerReport(
        lam=float(lam), flag="OK", witness_quotient=witness, value=Q,
        minimizer=Field.from_free(ops, uf), converged=converged,
        iterations=len(trace_q) - 1, trace_q=trace_q,
        max_abs=float(np.max(np.abs(uf))),
        participation=_participation(ops, uf),
        grad_residual=grad_res, el_residual=el)


def sobolev_constant_dirichlet(
    basis: Operator,
    params: FracParams,
    opts: MinimizeOptions | None = None,
) -> MinimizerReport:
    """Quotient infimum at lam = 0: the domain-constrained Sobolev constant.

    Always at most |Omega|^(2s/N) * lambda_1^s by testing with the first
    eigenfunction and Hoelder; that bound is asserted on every run.
    """
    rep = minimize_quotient(basis, params, lam=0.0, opts=opts)
    vol = basis.ops.mesh.volume
    bound = vol ** (2.0 * params.s / params.N) * lambda1s(basis, params)
    if not rep.value <= bound * (1.0 + 1e-10):
        raise AssertionError(
            f"constrained constant {rep.value} exceeds its eigenvalue bound "
            f"{bound}; discretization is inconsistent")
    return rep


@dataclass(frozen=True)
class SolutionReport:
    """Rescaled minimizer as a candidate solution of the critical equation."""

    v: Field
    k: float
    S: float
    residual: Field
    residual_rel: float
    min_interior: float
    positive: bool
    energy_value: float

    def as_dict(self) -> dict:
        return _scalars(self)


def rescale_to_solution(
    minrep: MinimizerReport,
    basis: Operator,
    params: FracParams,
) -> SolutionReport:
    """Rescale a minimizer so it solves the critical equation.

    v = k u* with k = S**(1/(2*-2)) satisfies (operator)v = lam v + v^(2*-1)
    in the discrete weak sense; the residual reported here measures exactly
    that optimality system, with the nonlinear term mapped through the
    inverse consistent mass so both sides live in the same duality.

    Raises
    ------
    ValueError
        If the report is flagged NONEXISTENCE-REGIME or did not converge.
    """
    if minrep.flag != "OK" or minrep.minimizer is None:
        raise ValueError("cannot rescale: minimization was in the "
                         "nonexistence regime")
    if not minrep.converged:
        raise ValueError(
            f"cannot rescale: minimization did not converge (Euler-Lagrange "
            f"residual {minrep.el_residual:.3g}), so the minimizer is no "
            f"critical point")
    if minrep.value <= 0:
        raise ValueError("cannot rescale a nonpositive quotient value")
    basis = basis._unsigned
    ops = basis.ops
    p = params.two_star
    lam = minrep.lam
    S = minrep.value
    k = S ** (1.0 / (p - 2.0))

    uf = minrep.minimizer.free_values(ops)
    a = basis.coefficients(uf)
    b = _nonlinear_coeffs(basis, uf, p)
    energy_a, la = basis.form(a, params.s)
    rho = k * (la - lam * a - S * b)
    res_free = basis.synthesize(rho)
    denom = k * float(np.linalg.norm(la))
    residual_rel = float(np.linalg.norm(rho)) / max(denom, 1e-300)

    v = Field.from_free(ops, k * uf)
    interior = ops.mesh.interior_node_mask
    min_interior = float(np.min(v.values[interior]))
    energy = (0.5 * k**2 * energy_a
              - 0.5 * lam * k**2 * float(np.sum(a**2))
              - (k**p / p) * 1.0)
    return SolutionReport(
        v=v, k=k, S=S, residual=Field.from_free(ops, res_free),
        residual_rel=residual_rel, min_interior=min_interior,
        positive=bool(min_interior > 0), energy_value=energy)


@dataclass(frozen=True)
class SweepResult:
    """Row-per-lambda table of quotient minimizations."""

    rows: list[dict]
    lam1s: float

    def column(self, name: str) -> list:
        return [r[name] for r in self.rows]


# the top of a lambda sweep, as a fraction of lambda_1^s
_SWEEP_TOP = 1.2


def sweep_lambda(
    basis: Operator,
    params: FracParams,
    lam_grid,
    opts: MinimizeOptions | None = None,
) -> SweepResult:
    """Minimize the quotient over an ascending grid of lambda values.

    Values must lie in [0, 1.2 * lambda_1^s].  Each minimization warm-starts
    from the previous minimizer, which makes the S_lambda column monotone
    nonincreasing by construction; grid points at or above the fractional
    principal eigenvalue are flagged instead of iterated.  The reported
    ``lam1s`` is :func:`~fraclap.fractional.lambda1s`, the very value the
    flags are decided against.

    Returns
    -------
    SweepResult
    """
    lam1s = lambda1s(basis, params)
    grid = np.sort(np.asarray(list(lam_grid), dtype=float))
    if grid.size == 0:
        raise ValueError("empty lambda grid")
    if grid[0] < 0 or grid[-1] > _SWEEP_TOP * lam1s * (1 + 1e-12):
        raise ValueError(
            f"lambda grid must lie in [0, {_SWEEP_TOP * lam1s}] to stay "
            f"within the two regimes")

    rows = []
    init = None
    prev_S = None
    for lam in grid:
        rep = minimize_quotient(basis, params, float(lam), init=init, opts=opts)
        if rep.flag == "OK":
            init = rep.minimizer
            if prev_S is not None and rep.value > prev_S * (1 + 1e-12):
                raise AssertionError(
                    "S_lambda failed to decrease along the sweep")
            prev_S = rep.value
        rows.append({
            "lam": float(lam),
            "nonexistence": rep.flag == NONEXISTENCE,
            "witness_quotient": rep.witness_quotient,
            "S_lambda": rep.value,
            "converged": rep.converged,
            "iterations": rep.iterations,
            "max_abs": rep.max_abs,
            "participation": rep.participation,
        })
    return SweepResult(rows=rows, lam1s=lam1s)


@dataclass(frozen=True)
class MoveBoundaryResult:
    """Row-per-alpha table for the shrinking Dirichlet family."""

    rows: list[dict]
    threshold: float
    onset_alpha: float

    def column(self, name: str) -> list:
        return [r[name] for r in self.rows]


def move_boundary_experiment(
    mesh: Mesh,
    params: FracParams,
    alphas,
    faces=None,
    opts: MinimizeOptions | None = None,
) -> MoveBoundaryResult:
    """Shrink the Dirichlet part and track eigenvalues against the threshold.

    For each alpha (snapped down to a facet union) the table records the
    principal eigenvalue, its fractional power, the constrained Sobolev
    constant at lam = 0, and whether |Omega|^(2s/N) lambda_1^s has dropped
    below the attainment threshold, taken with the closed-form coupling
    constant :func:`~fraclap.fractional.kappa_s`; the first alpha where it
    has is ``onset_alpha`` (NaN if none).  Eigenvalue columns are monotone
    nonincreasing as alpha decreases, which is asserted.  Each alpha runs
    on :func:`~fraclap.spectral.quotient_operator`: a complete Kronecker
    basis when the partition is face-aligned, otherwise the spectrum-free
    operator, whose measured rational error is the row's
    ``frac_rel_error`` (0.0 on face-aligned rows).  No alpha needs a dense
    eigensolve, so the O(n^3) cost of one does not bound the mesh.

    Parameters
    ----------
    mesh : Mesh
    params : FracParams
    alphas : sequence of float
        Strictly decreasing Dirichlet measures.
    faces : sequence, optional
        Fill order restriction passed to :func:`fraclap.mesh.moving_family`.
    opts : MinimizeOptions, optional

    Returns
    -------
    MoveBoundaryResult

    Raises
    ------
    ValueError
        Before any operator is assembled, if :func:`fraclap.mesh.moving_family`
        refuses the alphas: among others, an alpha above the measure of
        ``faces``.
    """
    parts = moving_family(mesh, alphas, faces)
    thr = attainment_threshold(params)
    vol_pow = mesh.volume ** (2.0 * params.s / params.N)

    rows = []
    onset = float("nan")
    prev = None
    for alpha_req, part in zip(alphas, parts):
        ops = assemble_operators(mesh, part)
        basis = quotient_operator(ops)
        lam11 = float(basis.lam1)
        lam1s_val = lambda1s(basis, params)
        srep = sobolev_constant_dirichlet(basis, params, opts)
        frac_err = basis.frac_rel_error(params.s)
        # release this alpha's operator before the next one is built, so
        # two complete bases never coexist
        del basis
        bound = vol_pow * lam1s_val
        sufficient = bool(bound < thr)
        if sufficient and np.isnan(onset):
            onset = part.alpha
        if prev is not None and lam11 > prev * (1 + 1e-12):
            raise AssertionError("principal eigenvalue increased as the "
                                 "Dirichlet part shrank")
        prev = lam11
        rows.append({
            "alpha_requested": float(alpha_req),
            "alpha": part.alpha,
            "lam_1_1": lam11,
            "lam_1_s": lam1s_val,
            "S_tilde": srep.value,
            "bound": bound,
            "threshold": thr,
            "sufficient": sufficient,
            "frac_rel_error": frac_err,
        })
    return MoveBoundaryResult(rows=rows, threshold=thr, onset_alpha=onset)
