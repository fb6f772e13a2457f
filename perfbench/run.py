#!/usr/bin/env python3
"""Benchmark of the fso-geoloss CLI commands at the paper's configurations.

    python3 perfbench/run.py --workload fig4-average-loss --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src`
directory, never from an installed copy.  The workload's config is generated
from --seed (see workloads.py) and written to a scratch directory inside the
checkout, and `fso_geoloss.cli.main` runs it repeatedly in this process for
--seconds seconds after one warm-up repetition.  Every table is checked (see
check.py); rows that error or fail the check are counted in `failed`.

--trace 0 reports the end-to-end metrics, with nothing wrapped:
  wall_s       median seconds of one `cli.main` call, from argv through the
               config load and the command to the emitted table file
  poses_per_s  median pose evaluations per second (trials x kernels per row
               on the Monte Carlo workloads, table rows on bounds-table)
  setup_s      median wall time of fresh interpreters that import
               fso_geoloss.cli and load the config
  peak_rss_mb  peak resident memory of this process
--trace 1 alternates untraced and traced repetitions.  The traced ones wrap
the package's cross-module functions (tracing.py) and report the per-layer
metrics as medians over traced repetitions, plus trace.overhead_frac (median
traced over median untraced wall, minus one).  The spans of the last traced
repetition are written to .perfbench-out/ in the checkout.

The last line of stdout is one JSON object: correct, attempted, failed (table
rows, with the metadata counted as a row) and metrics.  Earlier lines give
each metric by name with its unit and a JSON record of the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("cli", "montecarlo", "stochastic", "geoloss", "numerics", "beam", "geometry")
THREADS_ENV = "FSO_GEOLOSS_THREADS"
# one worker thread: on a 2-vCPU machine shared with other tenants, runs on
# both vCPUs spread twice as much from repetition to repetition
THREADS = 1
SETUP_REPEATS = 3
MIN_REPS = 3
SUBPROCESS_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "poses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import fso_geoloss.cli as cli; cli.load_config(sys.argv[2])")


def import_package() -> dict:
    """The package's modules, imported from this checkout's src directory."""
    if not (SRC / "fso_geoloss" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fso_geoloss package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"fso_geoloss.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: fso_geoloss imported from {origin}, not {SRC}")
    return mods


def poses_per_rep(command: str, cfg: dict) -> int:
    if command == "average-loss":
        return 2 * int(cfg["mc.n_trials"]) * len(cfg["sweep.values"].split(","))
    if command == "pdf":
        return int(cfg["mc.n_trials"])
    return len(cfg["sweep.values"].split(",")) * len(cfg["bounds.offsets_m"].split(";"))


def environment(wl: workloads.Workload, cfg: dict, mods: dict) -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=SUBPROCESS_TIMEOUT_S).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha or "unknown", "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "fso_geoloss": mods["cli"].__version__,
        "workload": wl.name, "command": wl.command, "threads": THREADS,
        "trials_per_row": int(cfg["mc.n_trials"]) if wl.command != "bounds" else None,
        "poses_per_rep": poses_per_rep(wl.command, cfg),
    }


def measure_setup(cfg_path: Path) -> float:
    """Median wall time of a fresh interpreter importing the CLI and loading
    the config.  This process has imported the package already, so the
    bytecode caches are written."""
    cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(cfg_path)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL, timeout=SUBPROCESS_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Repeats one workload's CLI command and checks every table."""

    def __init__(self, mods: dict, wl: workloads.Workload, config_text: str,
                 workdir: Path, reference: dict | None):
        self.mods, self.wl, self.config_text = mods, wl, config_text
        self.reference = reference
        self.cfg_path = workdir / "workload.cfg"
        self.cfg_path.write_text(config_text, encoding="utf-8")
        self.out_path = workdir / "table.json"
        self.argv = [wl.command, "--config", str(self.cfg_path), "--out", str(self.out_path)]
        self.attempted = 0
        self.failed = 0
        self.last_table: dict = {}

    def rep(self, tracer: tracing.Tracer | None = None) -> float:
        """One CLI call; returns its wall time after checking the table.
        With a tracer, the call is the root span of the repetition."""
        gc.collect()
        if self.out_path.exists():
            self.out_path.unlink()
        root = tracer.span("cli.main") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with root:
                code = self.mods["cli"].main(self.argv)
        except Exception:  # a crashing repetition is counted, not fatal
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0
        table = {"columns": [], "rows": [], "meta": {}}
        if code == 0:
            with open(self.out_path, encoding="utf-8") as fh:
                table = json.load(fh)
        self.last_table = table
        if self.reference is not None:
            attempted, failed = check.compare_to_reference(table, self.reference)
        else:
            attempted, failed = check.check_invariants(self.wl.command, table, self.config_text)
        self.attempted += attempted
        self.failed += failed
        return wall


def run_untraced(runner: Runner, seconds: float) -> list[float]:
    deadline = time.perf_counter() + seconds
    runner.rep()  # warm-up
    walls = []
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        walls.append(runner.rep())
    return walls


def run_traced(runner: Runner, seconds: float):
    """Alternating untraced and traced repetitions.  Returns the untraced
    walls, the traced walls, per-rep layer metrics, and the last tracer."""
    tracer = tracing.Tracer(runner.mods)
    deadline = time.perf_counter() + seconds
    runner.rep()  # warm-up
    plain, traced, layers = [], [], []
    while len(traced) < MIN_REPS or time.perf_counter() < deadline:
        plain.append(runner.rep())
        tracer.reset()
        with tracer, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traced.append(runner.rep(tracer))
        far_field = sum("far-field" in str(w.message) for w in caught)
        layers.append(tracing.layer_metrics(
            tracer.spans, tracer.absent,
            {"threads": THREADS, "far_field_warnings": far_field}))
    return plain, traced, layers, tracer


def _metric(value, unit: str) -> dict:
    if value is None:
        return {"value": None, "unit": unit, "absent": True}
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    mods = import_package()
    wl = workloads.WORKLOADS[args.workload]
    config_text = workloads.config_text(wl.name, args.seed)
    cfg = check.parse_config(config_text)
    reference = check.load_reference(wl.name) if args.seed == workloads.DEFAULT_SEED else None
    env = environment(wl, cfg, mods)

    os.environ[THREADS_ENV] = str(THREADS)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        runner = Runner(mods, wl, config_text, Path(tmp), reference)
        if args.trace:
            plain, traced, layers, tracer = run_traced(runner, args.seconds)
        else:
            setup_s = measure_setup(runner.cfg_path)
            walls = run_untraced(runner, args.seconds)

    poses = env["poses_per_rep"]
    if args.trace:
        metrics = {}
        for name, (unit, _better, _reads, _fn) in tracing.PER_LAYER.items():
            values = [m[name] for m in layers]
            metrics[name] = _metric(None if None in values else statistics.median(values), unit)
        metrics["trace.overhead_frac"] = _metric(
            statistics.median(traced) / statistics.median(plain) - 1.0, "fraction")
        env["reps"] = {"untraced": len(plain), "traced": len(traced)}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "config": config_text, "absent": sorted(tracer.absent),
                       "layers_per_rep": layers, "spans": tracing.spans_json(tracer.spans)}, fh)
        print(f"trace: {trace_path}")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "poses_per_s": statistics.median(poses / w for w in walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
        env["reps"] = {"untraced": len(walls)}

    meta = runner.last_table.get("meta", {})
    env["gof_p_value"] = meta.get("gof_p_value")
    env["reference_checked"] = reference is not None
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"failed_frac = {runner.failed / runner.attempted} "
          f"({runner.failed} of {runner.attempted} table rows)")
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
