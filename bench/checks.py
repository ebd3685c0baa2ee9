"""Correctness checks of one benchmark operation.

Each function takes the summaries the worker processes of one operation
returned and gives a dict of check name to pass/fail.  An operation whose
worker raised or exited nonzero gets the single failed check ``completed``;
an operation with any failed check counts as failed, and its times are not
used.
"""
from __future__ import annotations

ONSET_ALPHA = 0.125


def cube_audit(summary: dict) -> dict[str, bool]:
    return {
        "converged": summary["converged"] is True,
        "el_residual_below_1e-6": summary["el_residual"] < 1e-6,
        "solution_positive": summary["positive"] is True,
        "S_below_attainment_threshold": summary["S"] < summary["threshold"],
        "audit_residual_below_0.1": summary["audit_residual"] < 0.1,
    }


def extend_ladder(summary: dict) -> dict[str, bool]:
    by_j = summary["dtn_rel_error_by_J"]
    ladder = sorted(by_j, key=int)
    out = {}
    for i, errors in enumerate(zip(*(by_j[j] for j in ladder))):
        out[f"field{i}.dtn_rel_error_below_0.05"] = max(errors) < 0.05
        out[f"field{i}.dtn_rel_error_decreases_with_J"] = all(
            b < a for a, b in zip(errors, errors[1:]))
    return out


def boundary_study(move: dict, sweep: dict, grid_points: int) -> dict[str, bool]:
    out = {
        "move-boundary.exit_code_0": move["exit_code"] == 0,
        "sweep-lambda.exit_code_0": sweep["exit_code"] == 0,
    }
    if move["exit_code"] == 0:
        out["onset_alpha"] = move["onset_alpha"] == ONSET_ALPHA
    if sweep["exit_code"] == 0:
        out["sweep_rows"] = len(sweep["rows"]) == grid_points
        for i, row in enumerate(sweep["rows"]):
            out[f"row{i}.nonexistence_iff_lambda_at_least_lambda1s"] = (
                row["nonexistence"] == (row["lam"] >= sweep["lam1s"]))
    return out
