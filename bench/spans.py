"""Span recorder for the traced benchmark run, and self-time accounting.

The traced run replaces every binding of the library's public entry points
(in ``fraclap`` and each ``fraclap.*`` submodule) with a wrapper that opens a
span around the call.  Because a function such as ``eigendecompose`` is bound
in ``spectral``, ``critical`` and ``experiments`` alike, calls made inside
``move_boundary_experiment`` or ``experiments.run`` nest as child spans.
Nothing under ``src/`` is edited: the wrappers are installed at run time in
the worker process only.

Spans are kept in memory and handed to the parent process when the worker
exits.  A span's self time is its duration minus the part of that interval
its child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from pathlib import Path

# (module, function, span name); every binding of the function object found
# in a fraclap module is wrapped
SPANNED = (
    ("fraclap.mesh", "build_tensor_mesh", "mesh"),
    ("fraclap.mesh", "partition_boundary", "mesh"),
    ("fraclap.mesh", "moving_family", "mesh"),
    ("fraclap.spectral", "assemble_operators", "spectral.assemble_operators"),
    ("fraclap.spectral", "eigendecompose", "spectral.eigendecompose"),
    ("fraclap.extension", "build_cylinder", "extension.build_cylinder"),
    ("fraclap.extension", "extend", None),  # extend_new / extend_repeat
    ("fraclap.extension", "dtn", "extension.dtn"),
    ("fraclap.extension", "x_norm", "extension.x_norm"),
    ("fraclap.critical", "minimize_quotient", "critical.minimize_quotient"),
    ("fraclap.critical", "rescale_to_solution", "critical.rescale_to_solution"),
    ("fraclap.critical", "sweep_lambda", "critical.sweep_lambda"),
    ("fraclap.critical", "move_boundary_experiment",
     "critical.move_boundary_experiment"),
    ("fraclap.fractional", "kappa_s", "fractional.kappa_s"),
    ("fraclap.fractional", "frac_apply", "fractional.frac_apply"),
    ("fraclap.fractional", "frac_norm", "fractional.frac_norm"),
    ("fraclap.pohozaev", "pohozaev_terms", "pohozaev.pohozaev_terms"),
    ("fraclap.experiments", "run", "experiments.run"),
    ("fraclap.config", "validate", "config.validate"),
    ("fraclap.cli", "main", None),  # cli.main.<subcommand>
)

# called once per line-search trial: counted, never spanned, so the
# wrapper costs a counter increment and no allocation
COUNTED = (("fraclap.fractional", "critical_norm", "fractional.critical_norm.calls"),)


class Tracer:
    """In-memory spans and counters of one worker process."""

    # the span around a worker's whole solve; its self time is the
    # benchmark's own time
    ROOT = "bench"

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[dict] = []
        self._seen_extend: set = set()

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def open(self, name: str, start: float | None = None) -> dict:
        span = {
            "run": self.run_id,
            "id": f"{os.getpid()}.{len(self.spans)}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter() if start is None else start,
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict, end: float | None = None) -> None:
        span["end"] = time.perf_counter() if end is None else end
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def extend_span_name(self, cyl, partition, params) -> str:
        # the first extend of a process on a (partition, cylinder, s) key
        # builds the factorizations; later ones on the same key may reuse them
        key = (partition.key(), cyl.grid_key(), params.s)
        if key in self._seen_extend:
            return "extension.extend_repeat"
        self._seen_extend.add(key)
        return "extension.extend_new"

    def after(self, name: str, result) -> None:
        """Work counts read from a call's result."""
        c = self.counters
        if name == "spectral.eigendecompose":
            c["spectral.eigendecompose.pairs"] += result.m
            c["spectral.eigendecompose.n_free_max"] = max(
                c["spectral.eigendecompose.n_free_max"], result.ops.n_free)
        elif name.startswith("extension.extend_"):
            n_free = int(result.partition.free_nodes.size)
            c["extension.extend.unknowns"] += n_free * (result.cyl.J - 1)
        elif name == "critical.minimize_quotient":
            c["critical.minimize_quotient.iterations"] += result.iterations
            c["critical.minimize_quotient.polish_steps"] += (
                len(result.trace_q) - 1 - result.iterations)
            c["critical.minimize_quotient.nonexistence_flags"] += (
                result.flag != "OK")
        elif name == "experiments.run":
            paths = [Path(p) for p in result.artifacts.values()]
            paths.append(Path(result.run_dir) / "manifest.json")
            c["experiments.run.bytes_written"] += sum(
                p.stat().st_size for p in paths if p.is_file())


def _rebind(orig, wrapper) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fraclap"
                               or mod_name.startswith("fraclap.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def _spanning_wrapper(tracer: Tracer, orig, fixed_name: str | None):
    signature = inspect.signature(orig)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return orig(*args, **kwargs)
        if fixed_name is not None:
            name = fixed_name
        elif orig.__name__ == "extend":
            bound = signature.bind(*args, **kwargs).arguments
            name = tracer.extend_span_name(
                bound["cyl"], bound["partition"], bound["params"])
        else:
            argv = signature.bind(*args, **kwargs).arguments["argv"]
            name = f"cli.main.{argv[0]}"
        span = tracer.open(name)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.close(span)
        tracer.after(name, result)
        return result
    return wrapper


def _counting_wrapper(tracer: Tracer, orig, counter: str):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.counters[counter] += 1
        return orig(*args, **kwargs)
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every binding of the traced functions; fraclap must be imported."""
    import importlib

    for mod_name, func, name in SPANNED:
        orig = getattr(importlib.import_module(mod_name), func)
        _rebind(orig, _spanning_wrapper(tracer, orig, name))
    for mod_name, func, counter in COUNTED:
        orig = getattr(importlib.import_module(mod_name), func)
        _rebind(orig, _counting_wrapper(tracer, orig, counter))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name.

    Self time is a span's duration minus the union of its children's
    intervals clipped to it, so the self times of a tree add up to the
    duration of its root.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out: dict[str, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return out
