"""Driving experiments through the command line.

Each run takes a JSON config, hashes it, and writes artifacts into
<hash>/<subcommand>/, so identical configs land in identical places with
identical bytes and each subcommand keeps its own manifest.  Overrides
are applied with --set before hashing.
This script shells out to the command line the same way a batch job would,
running `python -m fraclap.cli` with this checkout's `src/` on the path, so
it works without installing the package.
"""
import json
import os
import pathlib
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(
           p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
FRACLAP = [sys.executable, "-m", "fraclap.cli"]

cfg = {
    "domain": {"kind": "interval", "extents": [[0.0, 1.0]], "n": [64]},
    "partition": {"dirichlet_faces": [[0, 0]]},
    "s": 0.75,
    "mode_count": 4,
    "outdir": "runs",
}

with tempfile.TemporaryDirectory() as tmp:
    tmp = pathlib.Path(tmp)
    cfg_path = tmp / "eig.json"
    cfg_path.write_text(json.dumps(cfg))

    cmd = FRACLAP + ["eig", "--config", str(cfg_path)]
    print("$ fraclap", " ".join(cmd[len(FRACLAP):]))
    out = subprocess.run(cmd, cwd=tmp, env=ENV, capture_output=True,
                         text=True)
    print(out.stdout.strip())
    if out.returncode != 0:
        print(out.stderr, file=sys.stderr)
        raise SystemExit(out.returncode)

    run_dir = tmp / json.loads(out.stdout)["run_dir"]
    print(f"\nartifacts in {run_dir.relative_to(tmp)}:")
    for p in sorted(run_dir.iterdir()):
        print(f"  {p.name:<18} {p.stat().st_size:>6} bytes")

    # an override changes the hash, so the original run is untouched
    cmd2 = cmd + ["--set", "mode_count=6"]
    print("\n$ fraclap", " ".join(cmd2[len(FRACLAP):]))
    out2 = subprocess.run(cmd2, cwd=tmp, env=ENV, capture_output=True,
                          text=True)
    print(out2.stdout.strip())
    dirs = sorted(p.name for p in (tmp / "runs").iterdir())
    print(f"\nrun directories now: {dirs}")

    # a bad config is rejected before any work happens
    bad = tmp / "bad.json"
    bad.write_text(json.dumps({**cfg, "mode_cont": 4}))
    out3 = subprocess.run(FRACLAP + ["eig", "--config", str(bad)],
                          cwd=tmp, env=ENV, capture_output=True, text=True)
    print(f"\nmisspelled key: exit code {out3.returncode}, "
          f"stderr: {out3.stderr.strip()}")
