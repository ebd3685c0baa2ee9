"""Config schema, overrides, hashing, and the command-line wrapper."""
import json
import math
import re
from pathlib import Path

import pytest

import fraclap as fl
from fraclap.config import DEFAULTS
from fraclap.experiments import fmt17, run


def test_validate_fills_defaults_without_mutating():
    cfg = {"solver": {"polish_max": 10}}
    resolved = fl.validate(cfg)
    assert resolved["s"] == 0.75
    assert resolved["solver"]["polish_max"] == 10
    assert resolved["solver"]["polish_tol"] == DEFAULTS["solver"]["polish_tol"]
    assert resolved["cylinder"] == {"Y": None, "J": 32, "gamma": 3.0}
    assert cfg == {"solver": {"polish_max": 10}}


def test_validate_lists_every_bad_key():
    cfg = {"bogus": 1, "s": "big",
           "solver": {"steps": 3, "polish_max": "many"}}
    with pytest.raises(fl.ConfigError) as exc:
        fl.validate(cfg)
    keys = exc.value.keys
    assert "bogus" in keys
    assert "s (expected number)" in keys
    assert "solver.steps" in keys
    assert "solver.polish_max (expected integer)" in keys
    assert keys == sorted(keys)


def _readme_config_keys() -> set[str]:
    # dotted names in README code spans and fenced blocks whose first
    # segment is a top-level config key
    from fraclap.config import _SCHEMA

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    fences = re.findall(r"```.*?```", text, flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text,
                                              flags=re.S))
    names = set()
    for code in fences + spans:
        names.update(re.findall(r"(?<![\w./])[A-Za-z_]\w*(?:\.\w+)+", code))
    return {n for n in names if n.split(".")[0] in _SCHEMA}


def test_readme_config_keys_resolve_in_schema():
    from fraclap.config import _SCHEMA

    keys = _readme_config_keys()
    assert "solver.polish_max" in keys
    for key in sorted(keys):
        node = _SCHEMA
        for part in key.split("."):
            assert isinstance(node, dict) and part in node, (
                f"README names {key!r}, which the config schema lacks")
            node = node[part]


def test_validate_rejects_boolean_numbers():
    with pytest.raises(fl.ConfigError):
        fl.validate({"seed": True})
    with pytest.raises(fl.ConfigError):
        fl.validate({"s": True})
    with pytest.raises(fl.ConfigError, match="expected object"):
        fl.validate({"solver": 3})


def test_apply_overrides_parses_json_with_string_fallback():
    cfg = {"s": 0.6}
    out = fl.apply_overrides(cfg, [
        "s=0.8", "domain.kind=box", "cylinder.J=64", "alphas=[1.0,0.5]",
        "solver.polish_tol=1e-9", "lambda=null",
    ])
    assert out["s"] == 0.8
    assert out["domain"] == {"kind": "box"}
    assert out["cylinder"]["J"] == 64
    assert out["alphas"] == [1.0, 0.5]
    assert out["solver"]["polish_tol"] == 1e-9
    assert out["lambda"] is None
    assert cfg == {"s": 0.6}


def test_apply_overrides_guards():
    with pytest.raises(fl.ConfigError, match="key=value"):
        fl.apply_overrides({}, ["nonsense"])
    with pytest.raises(fl.ConfigError, match="non-object"):
        fl.apply_overrides({"s": 0.6}, ["s.deep=1"])


def test_config_hash_canonical():
    a = fl.config_hash({"x": 1, "y": [1, 2], "z": {"a": True}})
    b = fl.config_hash({"z": {"a": True}, "y": [1, 2], "x": 1})
    assert a == b
    assert len(a) == 12 and all(c in "0123456789abcdef" for c in a)
    assert fl.config_hash({"x": 2, "y": [1, 2], "z": {"a": True}}) != a


def test_config_hash_is_frozen():
    # the 40^2 box with x = 0 Dirichlet that two command-line runs share,
    # with the sweep points of a seeded study: its run directories are
    # named by this digest
    fractions = [0.029678280300930292, 0.11732325040179642,
                 0.19996709181463682, 0.24371975103092167,
                 0.33851073908786994, 0.4088146780652925,
                 0.5105541563243596, 0.5868326912117363,
                 0.6791190401099165, 0.7533603378440958,
                 1.0, 1.03, 1.06, 1.1]
    cfg = {"domain": {"kind": "box", "extents": [[0.0, 1.0], [0.0, 1.0]],
                      "n": [40, 40]},
           "partition": {"dirichlet_faces": [[0, 0]]},
           "s": 0.75,
           "alphas": [1.0, 0.75, 0.5, 0.25, 0.125],
           "lambda_grid": [{"fraction_of_lambda1s": x} for x in fractions],
           "outdir": "runs"}
    assert fl.config_hash(fl.validate(cfg)) == "55a27a85e52b"


def test_resolve_lambda_forms():
    assert fl.resolve_lambda(1.25, 2.0) == 1.25
    assert fl.resolve_lambda({"fraction_of_lambda1s": 0.5}, 2.0) == 1.0
    with pytest.raises(fl.ConfigError):
        fl.resolve_lambda("half", 2.0)
    with pytest.raises(fl.ConfigError):
        fl.resolve_lambda({"fraction_of_lambda1s": "x"}, 2.0)
    with pytest.raises(fl.ConfigError):
        fl.resolve_lambda({"fraction": 0.5}, 2.0)
    with pytest.raises(fl.ConfigError):
        fl.resolve_lambda(True, 2.0)


def test_build_domain_box_interval_cone():
    box = fl.validate({
        "domain": {"kind": "box", "extents": [[0.0, 1.0], [0.0, 2.0]],
                   "n": [4, 6]},
        "partition": {"dirichlet_faces": [[0, 0]]},
    })
    mesh, part = fl.build_domain(box)
    assert mesh.dim == 2 and mesh.n == (4, 6)
    assert any(part.dirichlet) and not all(part.dirichlet)

    # a cone with its apex at the origin is the box with its far faces
    # Dirichlet; the domain has no kind of its own for it
    corner = fl.validate({
        "domain": {"kind": "box", "extents": [[0.0, 1.0], [0.0, 1.0]],
                   "n": [8, 8]},
        "partition": {"dirichlet_faces": [[0, 1], [1, 1]]},
    })
    cmesh, cpart = fl.build_domain(corner)
    assert cmesh.extents == ((0.0, 1.0), (0.0, 1.0))
    # Dirichlet cap on the far faces only
    for facet, is_dir in zip(cmesh.facets, cpart.dirichlet):
        assert is_dir == (facet.side == 1)
    with pytest.raises(fl.ConfigError) as exc:
        fl.validate({"domain": {"kind": "cone", "extents": [[0.0, 1.0]] * 2,
                                "n": [8, 8]}})
    assert [k.split(" ")[0] for k in exc.value.keys] == ["domain.kind"]


def test_build_domain_errors():
    with pytest.raises(fl.ConfigError, match="domain"):
        fl.build_domain(fl.validate({}))
    with pytest.raises(fl.ConfigError, match="domain.kind"):
        fl.validate({"domain": {"kind": "sphere"}})
    with pytest.raises(fl.ConfigError, match="extents"):
        fl.build_domain(fl.validate({"domain": {"kind": "box"}}))
    # the cone's keys are unknown ones
    with pytest.raises(fl.ConfigError) as exc:
        fl.validate({"domain": {"kind": "cone", "dim": 2, "radius": 1.0,
                                "n": [4]}})
    assert exc.value.keys == ["domain.dim", "domain.radius"]
    with pytest.raises(fl.ConfigError, match="dirichlet_faces"):
        fl.build_domain(fl.validate(
            {"domain": {"kind": "box", "extents": [[0.0, 1.0]], "n": [4]}}))


def test_load_config_errors(tmp_path):
    with pytest.raises(fl.ConfigError, match="cannot read"):
        fl.load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(fl.ConfigError, match="not valid JSON"):
        fl.load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(fl.ConfigError, match="JSON object"):
        fl.load_config(arr)


INTERVAL_CFG = {
    "domain": {"kind": "interval", "extents": [[0.0, 1.0]], "n": [32]},
    "partition": {"dirichlet_faces": [[0, 0]]},
    "mode_count": 3,
}


def _write_cfg(tmp_path, extra=None) -> Path:
    cfg = json.loads(json.dumps(INTERVAL_CFG))
    cfg["outdir"] = str(tmp_path / "runs")
    cfg.update(extra or {})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_eig_success(tmp_path, capsys):
    from fraclap.cli import main

    rc = main(["eig", "--config", str(_write_cfg(tmp_path))])
    out = capsys.readouterr()
    assert rc == 0
    summary = json.loads(out.out)
    assert summary["ok"] is True
    assert summary["subcommand"] == "eig"
    run_dir = Path(summary["run_dir"])
    assert run_dir.name == "eig"
    assert run_dir.parent.name == summary["config_hash"]
    for name in ("config.json", "eigenvalues.csv", "eig.json"):
        assert name in summary["artifacts"]
        assert (run_dir / name).exists()
    assert (run_dir / "manifest.json").exists()

    lines = (run_dir / "eigenvalues.csv").read_text().strip().split("\n")
    assert lines[0] == "k,lambda_k,lambda_k_s"
    lam1 = float(lines[1].split(",")[1])
    assert lam1 == pytest.approx((math.pi / 2) ** 2, rel=1e-2)
    echoed = json.loads((run_dir / "config.json").read_text())
    assert echoed == fl.validate(json.loads(
        (tmp_path / "run.json").read_text()))


def test_cli_unknown_key_exits_2(tmp_path, capsys):
    from fraclap.cli import main

    rc = main(["eig", "--config", str(_write_cfg(tmp_path)),
               "--set", "bogus=1"])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    err = json.loads(out.err)
    assert err["ok"] is False
    assert err["error"]["stage"] == "config"
    assert err["error"]["keys"] == ["bogus"]


_BAD_VALUES = [
    ("s=1.5", "s"),
    ("s=0.5", "s"),
    ("domain.n=[0,4,4]", "domain.n"),
    ("domain.n=[1]", "domain.n"),
    ("domain.n=[4,4,4,4]", "domain.n"),
    ("partition.dirichlet_faces=[[5,0]]", "partition.dirichlet_faces"),
    ("partition.dirichlet_faces=[[0,2]]", "partition.dirichlet_faces"),
    ('faces=[["y","lo"]]', "faces"),
    ("mode_count=-3", "mode_count"),
    # a deleted solver key is unknown, not out of range
    ("solver.max_iter=10", "solver.max_iter"),
    ("solver.polish_max=0", "solver.polish_max"),
]
# a 2-d square, so that each subcommand's own requirements are what fails
_SQUARE = ["domain.extents=[[0,1],[0,1]]", "domain.n=[4,4]"]
_X0 = "pohozaev.x0=[1.0,0.5]"
_LAM = "lambda=1.0"
_CONE = '"kind":"cone"'
_BAD_RUNS = [
    ("minimize", _SQUARE, "lambda"),
    ("pohozaev", [*_SQUARE, _X0], "lambda"),
    ("pohozaev", [*_SQUARE, _LAM], "pohozaev.x0"),
    ("frac-apply", _SQUARE, "field"),
    ("sweep-lambda", _SQUARE, "lambda_grid"),
    ("move-boundary", _SQUARE, "alphas"),
    ("minimize", [*_SQUARE, _LAM, "solver.init=best"], "solver.init"),
    ("pohozaev", [*_SQUARE, _LAM, _X0, "pohozaev.nonlinearity=cubic"],
     "pohozaev.nonlinearity"),
    ("minimize", [*_SQUARE, 'lambda={"fraction":0.5}'], "lambda"),
    ("sweep-lambda", [*_SQUARE, 'lambda_grid=[0.5,"half"]'], "lambda"),
    ("eig", ["partition={}"], "partition.dirichlet_faces"),
    # N = 1 <= 2s: no critical exponent on the interval
    ("minimize", [_LAM], "domain"),
    ("sweep-lambda", ["lambda_grid=[0.5]"], "domain"),
    ("move-boundary", ["alphas=[1.0]"], "domain"),
    ("constants", [], "domain"),
    ("pohozaev", [_LAM, "pohozaev.x0=[1.0]"], "domain"),
    # checked against the built domain, before any compute
    ("pohozaev", [*_SQUARE, _LAM, "pohozaev.x0=[1.0]"], "pohozaev.x0"),
    ("frac-apply", [*_SQUARE, "field.modes=[0]", "field.coeffs=[1.0]"],
     "field.modes"),
    ("frac-apply", [*_SQUARE, "field.modes=[1,4]", "field.coeffs=[1.0,0.5]"],
     "field.modes"),
    ("eig", [*_SQUARE, "partition.dirichlet_faces=[[0,0],[0,1],[1,0],[1,1]]"],
     "partition.dirichlet_faces"),
    ("eig", ["domain.extents=[[1.0,0.0]]"], "domain"),
    # the 4^2 square's facets measure 0.25, so both alphas snap to 0.75
    ("move-boundary", [*_SQUARE, "alphas=[0.99,0.98]"], "alphas"),
    # above the top of every sweep, 1.2 lambda_1^s, whatever the mesh
    ("sweep-lambda", [*_SQUARE, 'lambda_grid=[{"fraction_of_lambda1s":1.5}]'],
     "lambda_grid"),
    # a cone is the box [0, R]^N with its far faces Dirichlet: the domain
    # has no cone kind, and its keys are extents and n alone
    ("eig", ["domain.radius=1.0"], "domain.radius"),
    ("eig", [*_SQUARE, "domain.dim=2"], "domain.dim"),
    ("eig", [f'domain={{{_CONE},"extents":[[0,1],[0,1]],"n":[8,8]}}'],
     "domain.kind"),
    ("eig", [f'domain={{{_CONE},"radius":1.0,"n":[8]}}'], "domain.radius"),
    # the apex exemption is pohozaev.exempt_radius; no domain key sets it
    ("pohozaev", [*_SQUARE, _LAM, _X0, "domain.smoothing=0.3"],
     "domain.smoothing"),
    # refused although constants builds no domain
    ("constants", [f'domain={{{_CONE},"extents":[[0,1],[0,1]],"n":[8,8]}}'],
     "domain.kind"),
]
# values that the library itself would refuse once the run had started; an
# 8^2 square so that each subcommand gets as far as its computation
_SQUARE8 = ["domain.extents=[[0,1],[0,1]]", "domain.n=[8,8]"]
_BAD_NUMBERS = [
    ("extend-check", ["cylinder.J=8"], "cylinder.J"),
    ("extend-check", ["cylinder.gamma=0.5"], "cylinder.gamma"),
    ("extend-check", ["cylinder.Y=0"], "cylinder.Y"),
    ("extend-check", ["cylinder.Y=-1.0"], "cylinder.Y"),
    ("move-boundary", ['alphas=[1.0,"half"]'], "alphas"),
    ("move-boundary", ["alphas=[0.5,1.0]"], "alphas"),
    ("move-boundary", ["alphas=[1.0,1.0]"], "alphas"),
    # the square's boundary measures 4, and alpha = 4 leaves no Neumann part
    ("move-boundary", ["alphas=[5.0]"], "alphas"),
    ("move-boundary", ["alphas=[4.0]"], "alphas"),
    ("pohozaev", [_LAM, _X0, "levels=[[1,32]]"], "levels"),
    ("pohozaev", [_LAM, _X0, "levels=[[8,8]]"], "levels"),
    ("pohozaev", [_LAM, _X0, "levels=[[8]]"], "levels"),
    ("pohozaev", [_LAM, _X0, 'levels=[[null,32],["eight",32]]'], "levels"),
    ("pohozaev", [_LAM, 'pohozaev.x0=[1.0,"mid"]'], "pohozaev.x0"),
    ("frac-apply", ["field.modes=[1]", 'field.coeffs=["one"]'], "field.coeffs"),
    ("minimize", ["lambda=-1.0"], "lambda"),
    ("minimize", ['lambda={"fraction_of_lambda1s":-0.5}'], "lambda"),
    ("sweep-lambda", ["lambda_grid=[-0.5,0.5]"], "lambda_grid"),
    # a tolerance outside (0, 1) stops the minimizer at once or never
    ("minimize", [_LAM, "solver.polish_tol=1e300"], "solver.polish_tol"),
    ("minimize", [_LAM, "solver.polish_tol=1.0"], "solver.polish_tol"),
    ("minimize", [_LAM, "solver.polish_tol=0"], "solver.polish_tol"),
    ("minimize", [_LAM, "solver.polish_tol=-1e-8"], "solver.polish_tol"),
    ("minimize", [_LAM, "solver.polish_tol=NaN"], "solver.polish_tol"),
    ("minimize", [_LAM, "solver.polish_tol=Infinity"], "solver.polish_tol"),
    ("pohozaev", [_LAM, _X0, "pohozaev.geometry_tol=-1"],
     "pohozaev.geometry_tol"),
    ("pohozaev", [_LAM, _X0, "pohozaev.geometry_tol=NaN"],
     "pohozaev.geometry_tol"),
    ("pohozaev", [_LAM, _X0, "pohozaev.exempt_radius=-1"],
     "pohozaev.exempt_radius"),
    ("pohozaev", [_LAM, _X0, "pohozaev.exempt_radius=NaN"],
     "pohozaev.exempt_radius"),
    # an empty list would run no rung, alpha or lambda
    ("sweep-lambda", ["lambda_grid=[]"], "lambda_grid"),
    ("pohozaev", [_LAM, _X0, "levels=[]"], "levels"),
    ("move-boundary", ["alphas=[]"], "alphas"),
]


@pytest.mark.parametrize("subcommand, overrides, key", [
    pytest.param("minimize", [_LAM, override], key, id=f"{override}-{key}")
    for override, key in _BAD_VALUES
] + [
    pytest.param(sub, overrides, key, id=f"{sub}-{key}-{i}")
    for i, (sub, overrides, key) in enumerate(_BAD_RUNS)
] + [
    pytest.param(sub, [*_SQUARE8, *overrides], key, id=f"{sub}-{overrides[-1]}")
    for sub, overrides, key in _BAD_NUMBERS
])
def test_cli_bad_value_exits_2_before_writing(tmp_path, capsys, subcommand,
                                              overrides, key):
    from fraclap.cli import main

    argv = [subcommand, "--config", str(_write_cfg(tmp_path))]
    for override in overrides:
        argv += ["--set", override]
    rc = main(argv)
    out = capsys.readouterr()
    assert rc == 2
    err = json.loads(out.err)["error"]
    assert err["stage"] == "config"
    assert [k.split(" ")[0] for k in err["keys"]] == [key]
    outdir = tmp_path / "runs"
    assert not outdir.exists() or not any(outdir.iterdir())


# s near 1, where a one-mode calibration of kappa cannot separate y^(2s)
# from y^2, so only the closed form serves; a 6^3 box for the partial-facet
# move-boundary path in 3-d
_NEAR_ONE = [
    ("constants", _SQUARE, "constants.json", "kappa"),
    ("extend-check", [], "extend_check.json", "kappa"),
    ("move-boundary", ["domain.extents=[[0,1],[0,1],[0,1]]",
                       "domain.n=[6,6,6]", "alphas=[1.0,0.5]"],
     "move_boundary.json", "threshold"),
]


@pytest.mark.parametrize("subcommand, overrides, artifact, key", [
    pytest.param(*case, id=case[0]) for case in _NEAR_ONE])
def test_cli_runs_at_s_near_one(tmp_path, capsys, subcommand, overrides,
                                artifact, key):
    from fraclap.cli import main

    argv = [subcommand, "--config", str(_write_cfg(tmp_path)),
            "--set", "s=0.97"]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 0
    run_dir = Path(json.loads(capsys.readouterr().out)["run_dir"])
    report = json.loads((run_dir / artifact).read_text())
    assert math.isfinite(report[key]) and report[key] > 0


def test_validate_lists_every_bad_value():
    with pytest.raises(fl.ConfigError, match="invalid configuration values"):
        fl.validate({"s": 1.0})
    with pytest.raises(fl.ConfigError) as exc:
        fl.validate({"s": 0.4, "mode_count": 0,
                     "domain": {"kind": "box", "n": [4, 1]},
                     "partition": {"dirichlet_faces": [["z", 0]]}})
    assert [k.split(" ")[0] for k in exc.value.keys] == [
        "domain.n", "mode_count", "partition.dirichlet_faces", "s"]
    ok = fl.validate({"domain": {"kind": "box", "n": [4, 4]},
                      "partition": {"dirichlet_faces": [["y", "hi"], [0, 0]]},
                      "faces": [[1, 1]]})
    assert ok["partition"]["dirichlet_faces"] == [["y", "hi"], [0, 0]]


def test_cli_missing_config_exits_2(tmp_path, capsys):
    from fraclap.cli import main

    rc = main(["constants", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["stage"] == "config"


def test_cli_numerical_failure_exits_3(tmp_path, capsys):
    from fraclap.cli import main

    # above lambda_1^s the quotient has no minimizer, so the audit fails in
    # compute and leaves no directory, alone or next to an earlier eig run
    # on the same config
    cfg = _write_cfg(tmp_path, {
        "domain": {"kind": "box", "extents": [[0.0, 1.0], [0.0, 1.0]],
                   "n": [6, 6]},
        "lambda": {"fraction_of_lambda1s": 1.5},
        "pohozaev": {"x0": [1.0, 0.5]},
    })
    runs = tmp_path / "runs"
    listing = []

    def now():
        return sorted(runs.iterdir()) if runs.exists() else []

    for first in (True, False):
        if not first:
            assert main(["eig", "--config", str(cfg)]) == 0
            run_dir = Path(json.loads(capsys.readouterr().out)["run_dir"])
            before = {p: p.read_bytes() for p in run_dir.rglob("*")}
            listing = now()
        rc = main(["pohozaev", "--config", str(cfg)])
        out = capsys.readouterr()
        assert rc == 3
        assert json.loads(out.err)["error"]["stage"] == "minimize"
        assert now() == listing
    assert {p: p.read_bytes() for p in run_dir.rglob("*")} == before


def test_run_unknown_subcommand():
    with pytest.raises(fl.ConfigError, match="unknown subcommand"):
        run("nope", fl.validate({}))


def test_each_subcommand_keeps_its_own_run_directory(tmp_path):
    # every file of a run directory is listed in that directory's manifest,
    # also after other subcommands and a rerun on the same config
    field = {"field": {"modes": [1, 2], "coeffs": [1.0, 0.5]}}
    cfg = fl.validate(json.loads(_write_cfg(tmp_path, field).read_text()))
    first = run("eig", cfg)
    for sub in ("frac-apply", "extend-check", "eig"):
        last = run(sub, cfg)
    runs = tmp_path / "runs"
    assert sorted(p.name for p in runs.iterdir()) == [first.config_hash]
    subdirs = sorted(p.name for p in (runs / first.config_hash).iterdir())
    assert subdirs == ["eig", "extend-check", "frac-apply"]
    assert last.run_dir == first.run_dir
    for sub in subdirs:
        run_dir = runs / first.config_hash / sub
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == sub
        assert manifest["run_dir"] == str(run_dir)
        listed = {Path(p) for p in manifest["artifacts"].values()}
        on_disk = {p for p in run_dir.rglob("*") if p.is_file()}
        assert on_disk == listed | {run_dir / "manifest.json"}


def test_run_manifest_round_trip(tmp_path):
    cfg = fl.validate(json.loads(_write_cfg(tmp_path).read_text()))
    manifest = run("eig", cfg, overrides=["mode_count=3"])
    on_disk = json.loads(
        (Path(manifest.run_dir) / "manifest.json").read_text())
    assert on_disk["subcommand"] == "eig"
    assert on_disk["config_hash"] == manifest.config_hash
    assert on_disk["overrides"] == ["mode_count=3"]
    assert set(on_disk["timings"]) == {"setup", "compute", "write"}
    assert "numpy" in on_disk["versions"]
    assert set(on_disk["threads"]) == {
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "cpu_count"}
    assert on_disk["threads"]["cpu_count"] >= 1
    assert on_disk["artifacts"] == manifest.artifacts


_HALF = {"fraction_of_lambda1s": 0.5}
_ABOVE = {"fraction_of_lambda1s": 1.1}


@pytest.mark.parametrize("subcommand, extra, table, x, y, series, dropped", [
    ("sweep-lambda", {"lambda_grid": [0.0, _HALF, _ABOVE]}, "sweep.csv",
     "lam", "S_lambda", "S_vs_lambda.dat", 1),
    ("move-boundary", {"alphas": [1.0, 0.5, 0.25]}, "move_boundary.csv",
     "alpha", "lam_1_s", "lambda1s_vs_alpha.dat", 0),
])
def test_plot_series_are_the_cells_of_their_table(tmp_path, subcommand, extra,
                                                  table, x, y, series,
                                                  dropped):
    # each series line is the x and y cell of one table row, rows whose y
    # cell is "nan" (a flagged lambda above lambda_1^s) left out
    square = {"domain": {"kind": "box", "extents": [[0.0, 1.0], [0.0, 1.0]],
                         "n": [6, 6]}}
    cfg = fl.validate(json.loads(
        _write_cfg(tmp_path, {**square, **extra}).read_text()))
    run_dir = Path(run(subcommand, cfg).run_dir)
    header, *rows = [line.split(",") for line in
                     (run_dir / table).read_text().splitlines()]
    xi, yi = header.index(x), header.index(y)
    want = [f"{r[xi]} {r[yi]}" for r in rows if r[yi] != "nan"]
    assert len(want) == len(rows) - dropped > 0
    path = run_dir / "plots" / series
    assert path.read_text().splitlines() == want
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["artifacts"][f"plots/{series}"] == str(path)


def test_fmt17_cells():
    assert fmt17(True) == "true" and fmt17(False) == "false"
    assert fmt17(7) == "7"
    assert fmt17(float("nan")) == "nan"
    for x in (0.1, 1.0 / 3.0, 1e-300, 2.4674011002723395):
        assert float(fmt17(x)) == x


def test_runs_are_byte_reproducible(tmp_path):
    cfg = json.loads(json.dumps(INTERVAL_CFG))
    cfg["outdir"] = "runs"
    resolved = fl.validate(cfg)
    import os

    cwd = os.getcwd()
    payload = {}
    try:
        for name in ("first", "second"):
            d = tmp_path / name
            d.mkdir()
            os.chdir(d)
            manifest = run("eig", resolved)
            payload[name] = {
                art: Path(manifest.artifacts[art]).read_bytes()
                for art in manifest.artifacts
            }
            payload[name]["hash"] = manifest.config_hash
    finally:
        os.chdir(cwd)
    assert payload["first"]["hash"] == payload["second"]["hash"]
    assert payload["first"] == payload["second"]


@pytest.mark.parametrize("polish_max, converged", [(1, False), (500, True)])
def test_cli_minimize_writes_solution_only_when_converged(
        tmp_path, capsys, polish_max, converged):
    # one fixed-point step from the principal start is no critical point,
    # so there is no candidate solution to rescale
    from fraclap.cli import main

    rc = main(["minimize", "--config", str(_write_cfg(tmp_path)),
               "--set", "domain.extents=[[0,1],[0,1]]",
               "--set", "domain.n=[8,8]",
               "--set", 'lambda={"fraction_of_lambda1s":0.5}',
               "--set", f"solver.polish_max={polish_max}"])
    assert rc == 0
    run_dir = Path(json.loads(capsys.readouterr().out)["run_dir"])
    report = json.loads((run_dir / "minimize.json").read_text())
    assert report["converged"] is converged
    assert (run_dir / "solution.json").exists() == converged
