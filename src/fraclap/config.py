"""Run configuration: loading, overrides, schema validation, hashing.

One JSON file describes one run.  Validation happens in two layers, both
before any run directory exists: the schema walk here rejects unknown or
mistyped keys, then out-of-range values, with their dotted paths; then each
subcommand checks that the keys it needs are present.  The fully-resolved
config (user file, overrides, then defaults) is what gets hashed and echoed,
so a run directory name pins down every knob.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path
from typing import Any, Sequence

from .critical import _SWEEP_TOP
from .extension import MIN_Y_CELLS
from .mesh import (
    _digest,
    _parse_face,
    build_tensor_mesh,
    partition_boundary,
)

__all__ = [
    "ConfigError",
    "DEFAULTS",
    "load_config",
    "apply_overrides",
    "validate",
    "config_hash",
    "build_domain",
    "resolve_lambda",
]


class ConfigError(ValueError):
    """Invalid run configuration; ``keys`` lists the offending paths."""

    def __init__(self, message: str, keys: Sequence[str] = ()):
        super().__init__(message)
        self.keys = list(keys)


def _num(x) -> bool:
    # bool is an int subclass; a bare True is never a valid number here
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# leaf validators: (predicate, human-readable expectation)
_NUM = (_num, "number")
_INT = (_is_int, "integer")
_STR = (lambda x: isinstance(x, str), "string")
_LIST = (lambda x: isinstance(x, list), "list")
_LAM = (
    lambda x: x is None or _num(x) or isinstance(x, dict),
    "number, null, or {\"fraction_of_lambda1s\": x}",
)

_SCHEMA: dict[str, Any] = {
    "domain": {
        "kind": _STR,          # "box" or "interval"
        "extents": _LIST,      # [[lo, hi], ...] per axis
        "n": _LIST,            # cells per axis
    },
    "partition": {
        "dirichlet_faces": _LIST,   # [[axis, side], ...]
    },
    "s": _NUM,
    "lambda": _LAM,
    "lambda_grid": _LIST,           # entries numbers or fraction dicts
    "alphas": _LIST,
    "mode_count": _INT,
    "field": {
        "modes": _LIST,
        "coeffs": _LIST,
    },
    "cylinder": {
        "Y": (lambda x: x is None or _num(x), "number or null"),
        "J": _INT,
        "gamma": _NUM,
    },
    "levels": _LIST,                # [[n, J], ...] refinement ladder
    "pohozaev": {
        "x0": _LIST,
        "nonlinearity": _STR,       # "critical" or "linear_plus_critical"
        "exempt_radius": _NUM,
        "geometry_tol": _NUM,
    },
    "solver": {
        "polish_tol": _NUM,
        "polish_max": _INT,
        "init": _STR,               # "principal" or "random"
    },
    "outdir": _STR,
    "seed": _INT,
}

DEFAULTS: dict[str, Any] = {
    "s": 0.75,
    "lambda": None,
    "mode_count": 5,
    "cylinder": {"Y": None, "J": 32, "gamma": 3.0},
    "pohozaev": {
        "nonlinearity": "linear_plus_critical",
        "exempt_radius": 0.0,
        "geometry_tol": 1e-10,
    },
    "solver": {
        "polish_tol": 1e-8,
        "polish_max": 500,
        "init": "principal",
    },
    "outdir": "runs",
    "seed": 0,
}


def load_config(path) -> dict:
    """Read a JSON config file into a plain dict.

    Parameters
    ----------
    path : str or Path

    Raises
    ------
    ConfigError
        If the file is missing, unparsable, or not a JSON object.
    """
    p = Path(path)
    try:
        raw = p.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {p}: {e}") from e
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {p} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {p} must be a JSON object")
    return cfg


def apply_overrides(cfg: dict, assignments: Sequence[str]) -> dict:
    """Apply ``key=value`` overrides to a copy of ``cfg``.

    Keys are dotted paths (``solver.polish_max``); values parse as JSON
    literals, falling back to a bare string so ``--set domain.kind=box``
    works without quoting gymnastics.
    """
    out = copy.deepcopy(cfg)
    for item in assignments:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(
                    f"override {key!r} descends into a non-object")
        node[parts[-1]] = value
    return out


def _walk(cfg: dict, schema: dict, prefix: str, bad: list[str]) -> None:
    for key, value in cfg.items():
        path = f"{prefix}{key}"
        if key not in schema:
            bad.append(path)
            continue
        rule = schema[key]
        if isinstance(rule, dict):
            if not isinstance(value, dict):
                bad.append(f"{path} (expected object)")
            else:
                _walk(value, rule, path + ".", bad)
        else:
            pred, want = rule
            if not pred(value):
                bad.append(f"{path} (expected {want})")


def _merge_defaults(cfg: dict, defaults: dict) -> dict:
    out = copy.deepcopy(cfg)
    for key, dval in defaults.items():
        if key not in out:
            out[key] = copy.deepcopy(dval)
        elif isinstance(dval, dict) and isinstance(out[key], dict):
            out[key] = _merge_defaults(out[key], dval)
    return out


def _domain_dim(dom: dict) -> int | None:
    for key in ("n", "extents"):
        if key in dom:
            return len(dom[key])
    return None


def _negative(spec) -> bool:
    # a lambda spec that resolves below 0 whatever lambda_1^s is
    if isinstance(spec, dict):
        spec = spec.get("fraction_of_lambda1s")
    return _num(spec) and spec < 0


def _above_sweep(spec) -> bool:
    # a fraction of lambda_1^s above the top of every lambda sweep
    frac = spec.get("fraction_of_lambda1s") if isinstance(spec, dict) else None
    return _num(frac) and frac > _SWEEP_TOP


def _level_ok(level) -> bool:
    # one rung of the refinement ladder: [n >= 2 or null, J >= MIN_Y_CELLS]
    return (isinstance(level, list) and len(level) == 2
            and (level[0] is None or _is_int(level[0]) and level[0] >= 2)
            and _is_int(level[1]) and level[1] >= MIN_Y_CELLS)


def _check_values(resolved: dict, bad: list[str]) -> None:
    # value ranges of well-typed keys; numbers the library would reject
    # later, after the run directory exists
    if not 0.5 < resolved["s"] < 1.0:
        bad.append("s (expected a number in (1/2, 1))")
    cyl = resolved["cylinder"]
    if cyl["J"] < MIN_Y_CELLS:
        bad.append(f"cylinder.J (expected an integer >= {MIN_Y_CELLS})")
    if cyl["gamma"] < 1:
        bad.append("cylinder.gamma (expected a number >= 1)")
    if cyl["Y"] is not None and cyl["Y"] <= 0:
        bad.append("cylinder.Y (expected a positive number or null)")
    for key in ("lambda_grid", "alphas", "levels"):
        if resolved.get(key) == []:
            bad.append(f"{key} (expected a nonempty list)")
    if not all(_level_ok(level) for level in resolved.get("levels") or []):
        bad.append(f"levels (expected [n >= 2 or null, J >= {MIN_Y_CELLS}] "
                   f"entries)")
    for key, values in (("alphas", resolved.get("alphas")),
                        ("pohozaev.x0", resolved["pohozaev"].get("x0")),
                        ("field.coeffs",
                         resolved.get("field", {}).get("coeffs"))):
        if not all(_num(v) for v in values or []):
            bad.append(f"{key} (expected numbers)")
    if _negative(resolved["lambda"]):
        bad.append("lambda (expected a nonnegative number or fraction)")
    if any(_negative(v) or _above_sweep(v)
           for v in resolved.get("lambda_grid") or []):
        bad.append(f"lambda_grid (expected nonnegative numbers or fractions "
                   f"up to {_SWEEP_TOP})")
    if resolved["mode_count"] < 1:
        bad.append("mode_count (expected an integer >= 1)")
    if not 0.0 < resolved["solver"]["polish_tol"] < 1.0:
        bad.append("solver.polish_tol (expected a number in (0, 1))")
    if resolved["solver"]["polish_max"] < 1:
        bad.append("solver.polish_max (expected an integer >= 1)")
    if resolved["solver"]["init"] not in ("principal", "random"):
        bad.append("solver.init (expected 'principal' or 'random')")
    for key in ("geometry_tol", "exempt_radius"):
        if not resolved["pohozaev"][key] >= 0.0:
            bad.append(f"pohozaev.{key} (expected a number >= 0)")
    if resolved["pohozaev"]["nonlinearity"] not in (
            "critical", "linear_plus_critical"):
        bad.append("pohozaev.nonlinearity (expected 'critical' or "
                   "'linear_plus_critical')")
    dom = resolved.get("domain", {})
    n, extents = dom.get("n", [2]), dom.get("extents")
    dim = _domain_dim(dom)
    # one key per domain fault, the first that fails
    if dom.get("kind", "box") not in ("box", "interval"):
        bad.append("domain.kind (expected 'box' or 'interval')")
    elif not (1 <= len(n) <= 3 and all(_is_int(v) and v >= 2 for v in n)):
        bad.append("domain.n (expected 1 to 3 integers >= 2)")
    elif extents is not None and not (1 <= len(extents) == dim <= 3 and all(
            isinstance(e, list) and len(e) == 2 and all(map(_num, e))
            and -math.inf < e[0] < e[1] < math.inf for e in extents)):
        bad.append("domain.extents (expected one [lo, hi] of finite numbers "
                   "with lo < hi per axis)")
    elif dom.get("kind") == "interval" and (dim or 1) > 1:
        bad.append("domain.kind (expected 'box' for more than one axis)")
    if not _is_int(dim) or not 1 <= dim <= 3:
        return
    try:
        for face in resolved.get("partition", {}).get("dirichlet_faces", []):
            _parse_face(face, dim)
    except ValueError:
        bad.append(f"partition.dirichlet_faces (expected [axis, side] faces "
                   f"of a {dim}-d box)")


def validate(cfg: dict) -> dict:
    """Check ``cfg`` against the schema and fill defaults.

    Keys are checked first for name and type, then the resolved values
    for range: ``domain.kind`` a box or an interval, ``domain.n`` with
    1 to 3 entries of at least 2, ``domain.extents`` one finite [lo, hi]
    with lo < hi per axis, an interval of one axis (a domain fault names
    one key, the first of these that fails), ``s`` in (1/2, 1),
    ``partition.dirichlet_faces`` on the box, ``mode_count`` and
    ``solver.polish_max`` of at least 1, ``solver.polish_tol`` in (0, 1),
    ``pohozaev.geometry_tol`` and ``pohozaev.exempt_radius`` of at least
    0 (NaN fails those three), ``solver.init`` and
    ``pohozaev.nonlinearity`` among their choices, a cylinder with
    J >= 16, gamma >= 1 and Y > 0 (or null), ``levels`` entries
    [n >= 2 or null, J >= 16], nonempty ``lambda_grid``, ``alphas`` and
    ``levels`` lists, numeric ``alphas``, ``pohozaev.x0`` and
    ``field.coeffs`` entries, and no negative ``lambda`` or
    ``lambda_grid`` spec.  ``move-boundary`` shrinks
    ``partition.dirichlet_faces``; no key sets another fill order.

    Returns
    -------
    dict
        The fully-resolved config that every run echoes and hashes.

    Raises
    ------
    ConfigError
        Listing every unknown, mistyped or out-of-range key by dotted path.
    """
    bad: list[str] = []
    _walk(cfg, _SCHEMA, "", bad)
    if bad:
        raise ConfigError(
            "invalid configuration keys: " + ", ".join(sorted(bad)),
            keys=sorted(bad))
    resolved = _merge_defaults(cfg, DEFAULTS)
    _check_values(resolved, bad)
    if bad:
        raise ConfigError(
            "invalid configuration values: " + ", ".join(sorted(bad)),
            keys=sorted(bad))
    return resolved


def config_hash(resolved: dict) -> str:
    """12-hex-digit digest of the canonical JSON form of a resolved config."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return _digest(canonical, 12)


def build_domain(resolved: dict):
    """Construct the mesh and boundary partition a config describes.

    Returns
    -------
    (Mesh, BoundaryPartition)

    Raises
    ------
    ConfigError
        If the domain or partition section is missing or inconsistent.
    """
    dom = resolved.get("domain")
    if dom is None:
        raise ConfigError("missing required section: domain", keys=["domain"])
    if "extents" not in dom or "n" not in dom:
        raise ConfigError("box domain needs domain.extents and domain.n",
                          keys=["domain.extents", "domain.n"])
    if "dirichlet_faces" not in resolved.get("partition", {}):
        raise ConfigError("missing partition.dirichlet_faces",
                          keys=["partition.dirichlet_faces"])
    n = [int(v) for v in dom["n"]]
    mesh = build_tensor_mesh(len(n), dom["extents"], n)
    faces = resolved["partition"]["dirichlet_faces"]
    try:
        return mesh, partition_boundary(mesh, faces)
    except ValueError as e:
        # e.g. every face Dirichlet, so no Neumann part is left
        raise ConfigError(f"invalid partition.dirichlet_faces: {e}",
                          keys=["partition.dirichlet_faces"]) from e


def resolve_lambda(spec, lam1s: float) -> float:
    """Turn a config lambda spec into a number.

    ``spec`` is a number (taken as-is) or ``{"fraction_of_lambda1s": x}``,
    resolved against the fractional principal eigenvalue of the run's
    discretization.
    """
    if _num(spec):
        return float(spec)
    if isinstance(spec, dict) and set(spec) == {"fraction_of_lambda1s"}:
        frac = spec["fraction_of_lambda1s"]
        if not _num(frac):
            raise ConfigError("fraction_of_lambda1s must be a number",
                              keys=["lambda.fraction_of_lambda1s"])
        return float(frac) * lam1s
    raise ConfigError(
        "lambda must be a number or {\"fraction_of_lambda1s\": x}",
        keys=["lambda"])
