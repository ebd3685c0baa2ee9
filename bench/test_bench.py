"""Tests of the benchmark itself: python3 -m pytest bench"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans

HERE = Path(__file__).resolve().parent


def test_inputs_repeat_per_seed_and_stay_in_their_ranges():
    for workload in run.WORKLOADS:
        assert run.make_inputs(workload, 7) == run.make_inputs(workload, 7)
        assert run.make_inputs(workload, 7) != run.make_inputs(workload, 8)
    for seed in range(20):
        assert 0.45 <= run.make_inputs("cube-audit", seed)["lam_fraction"] <= 0.55
        mix = run.make_inputs("extend-ladder", seed)["mix"]
        for i, row in enumerate(mix):
            assert row[i] == 1.0
            assert all(abs(c) <= 0.25 for k, c in enumerate(row) if k != i)
        grid = run.make_inputs("boundary-study", seed)["lambda_fractions"]
        assert len(grid) == 14 and grid == sorted(grid)
        for k, x in enumerate(grid[:10]):
            assert 0.08 * k <= x <= 0.08 * k + 0.04
        assert grid[10:] == list(run.SUPER_FRACTIONS)


def _cube_summary(**changes):
    summary = {"converged": True, "el_residual": 3e-8, "positive": True,
               "S": 0.79, "threshold": 2.44, "audit_residual": 2.7e-4,
               "dtn_rel_error": 7e-4, "isometry_rel_error": 6e-5,
               "eig_rel_error": 1.4e-3}
    summary.update(changes)
    return summary


def _fake_spawn(summary):
    def spawn(cwd, task, inputs, run_id, traced, setup_only=False):
        return {"ok": True, "summary": summary, "setup_s": 0.5,
                "solve_s": 4.0, "rss_mb": 280.0, "env": {}}
    return spawn


def test_a_wrong_result_fails_its_operation(monkeypatch):
    monkeypatch.setattr(run, "spawn", _fake_spawn(_cube_summary()))
    good = run.run_workload("cube-audit", 0, 0.0, False)
    assert good["failed"] == 0 and good["failed_frac"] == 0.0
    assert good["end_to_end"]["time_to_solution_s"] == 4.0

    monkeypatch.setattr(run, "spawn",
                        _fake_spawn(_cube_summary(audit_residual=0.5)))
    bad = run.run_workload("cube-audit", 0, 0.0, False)
    assert bad["failed"] == bad["attempted"] == 2
    assert bad["failed_frac"] == pytest.approx(2 / 12)
    assert "end_to_end" not in bad  # a failed operation contributes no time


def test_a_crashed_worker_counts_as_failed(monkeypatch):
    monkeypatch.setattr(run, "spawn",
                        lambda *a: {"ok": False, "error": "Traceback ..."})
    result = run.run_workload("extend-ladder", 0, 0.0, False)
    assert result["failed"] == 2 and result["failed_frac"] == 1.0


def test_checks_flag_each_wrong_output():
    assert all(checks.cube_audit(_cube_summary()).values())
    for wrong in ({"converged": False}, {"el_residual": 1e-5},
                  {"positive": False}, {"S": 2.5}, {"audit_residual": 0.2}):
        assert not all(checks.cube_audit(_cube_summary(**wrong)).values())

    ladder = {"dtn_rel_error_by_J": {"64": [5e-4, 6e-4], "128": [2e-4, 2e-4]}}
    assert all(checks.extend_ladder(ladder).values())
    ladder["dtn_rel_error_by_J"]["128"][1] = 7e-4
    assert sum(not ok for ok in checks.extend_ladder(ladder).values()) == 1

    move = {"exit_code": 0, "onset_alpha": 0.125}
    sweep = {"exit_code": 0, "lam1s": 2.0,
             "rows": [{"lam": 1.0, "nonexistence": False},
                      {"lam": 2.0, "nonexistence": True}]}
    assert all(checks.boundary_study(move, sweep, 2).values())
    sweep["rows"][1]["nonexistence"] = False
    assert not all(checks.boundary_study(move, sweep, 2).values())
    assert not all(checks.boundary_study({"exit_code": 3}, sweep, 2).values())


def _span(i, parent, name, start, end):
    return {"run": "r", "id": str(i), "parent": parent, "name": name,
            "start": start, "end": end}


def test_self_times_add_up_to_the_root():
    tree = [
        _span(0, None, "bench", 0.0, 10.0),
        _span(1, "0", "a", 1.0, 4.0),
        _span(2, "1", "b", 1.5, 2.0),
        _span(3, "1", "b", 2.5, 3.0),
        _span(4, "0", "a", 5.0, 9.0),
        _span(5, "4", "c", 6.0, 8.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({"bench": 3.0, "a": 4.0, "b": 1.0, "c": 2.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cube-audit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_cube_audit_accounts_for_its_time():
    result = run.run_workload("cube-audit", 0, 0.0, True)
    assert result["failed"] == 0
    layer = result["per_layer"]
    assert set(layer) == {name for name, _, _ in run.PER_LAYER}
    own = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert own == pytest.approx(layer["trace.time_to_solution_s"], rel=1e-9)
    assert layer["extension.extend_new.calls"] == 1
    assert layer["extension.extend_repeat.calls"] == 0
    assert layer["spectral.eigendecompose.n_free_max"] == 2028
    assert layer["extension.extend.unknowns"] == 2028 * 31
    assert layer["pohozaev.pohozaev_terms.self_s"] > 0
    assert math.isfinite(layer["trace.overhead_s"])
