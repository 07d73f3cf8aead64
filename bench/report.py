#!/usr/bin/env python3
"""Run every workload, plain and traced, and print the full report.

The report gives every metric by name and unit, the machine, the git
revision and the rows of ROADMAP's Baseline table.

    python3 bench/report.py

Each workload runs with seed 0 for BENCHMARK.json's ``run_seconds`` in its
own process through ``bench/run.py``, one after the other.  The metrics are
printed as run.py reports them, with times in units of its reference kernel;
the Baseline rows are converted back to wall-clock time on this machine with
each run's ``machine_scale``.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "estimate", "region", "certify")
SEED = 0
sys.path.insert(0, str(HERE))

from metrics import FUNCTION_STATS  # noqa: E402


def machine():
    import numpy as np

    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": sha,
    }


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0 or not out.stdout.strip():
        sys.stderr.write(out.stderr)
        raise SystemExit(f"report: {' '.join(cmd[1:])} exited with {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # "# raw <name> = <value>" comments: figures before machine-speed scaling.
    result["raw"] = {ln.split()[2]: float(ln.split()[4]) for ln in lines if ln.startswith("# raw ")}
    return result


def baseline_rows(res):
    """Markdown rows for ROADMAP's Baseline table, in wall-clock time."""

    def m(workload, trace, name):
        return res[workload][trace]["metrics"][name]["value"]

    def wall(workload, trace, name):
        return m(workload, trace, name) / res[workload][trace]["raw"]["machine_scale"]

    def per_call(workload, fn):
        return f"{wall(workload, 'traced', f'{fn}.us_per_call') / 1e3:.3g} ms ({workload}, traced)"

    sweep_ms = 1e3 / res["sweep"]["plain"]["raw"]["unscaled_items_per_s"]
    rows = [
        ("`cube_eight_point` (one call)",
         f"{wall('estimate', 'plain', 'latency_ms_p50'):.3g} ms p50, "
         f"{wall('estimate', 'plain', 'latency_ms_p99'):.3g} ms p99 (estimate, untraced); "
         + per_call("estimate", "estimators.cube_eight_point")),
        ("`seven_point`", per_call("sweep", "estimators.seven_point")),
        ("`pencil_solve`", per_call("estimate", "estimators.pencil_solve")),
        ("`build_Z`", per_call("estimate", "degeneracy.build_Z")),
        ("`project_all`", per_call("sweep", "projective.project_all")),
        ("`random_combinatorial_cube`",
         per_call("sweep", "degeneracy.random_combinatorial_cube")
         + f"; {100 * m('sweep', 'traced', 'degeneracy.cube_accept_ratio'):.1f}% of exact "
         "candidates pass the convexity check"),
        ("`sample_camera_pair`", per_call("sweep", "simulate.sample_camera_pair")),
        ("Sweep geometry",
         f"{100 * m('sweep', 'traced', 'simulate.geometry_accept_ratio'):.1f}% of camera pairs "
         "give a non-ruled quadric and are kept"),
        ("Sweep time split",
         f"{sweep_ms:.3g} ms per trial-level untraced; of `run_trial`'s traced time, geometry "
         f"{100 * m('sweep', 'traced', 'simulate.run_trial.geometry_frac'):.0f}% and the three "
         f"estimators {100 * m('sweep', 'traced', 'simulate.run_trial.estimator_frac'):.0f}%"),
    ]
    return ["| What | Cost |", "|---|---|"] + [f"| {a} | {b} |" for a, b in rows]


def main():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    info = machine()
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# seed={SEED} seconds={seconds}; times are in reference-kernel units, "
          "and machine_scale is reported time over wall-clock time")
    res = {}
    for wl in WORKLOADS:
        res[wl] = {"plain": run(wl, SEED, seconds, 0), "traced": run(wl, SEED, seconds, 1)}
        for mode, r in res[wl].items():
            print(f"\n## {wl} ({mode}): correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} machine_scale={r['raw']['machine_scale']:.4g}")
            for name, v in r["metrics"].items():
                print(f"{name:48s} {v['value']:>16.6g} {v['unit']}")
    print("\n## What each per-layer metric should move\n")
    for fn, stat, moves in FUNCTION_STATS:
        print(f"{fn + '.' + stat:48s} {moves}")
    print("\n## Baseline (wall-clock on this machine)\n")
    print("\n".join(baseline_rows(res)))
    return 0 if all(r[m]["correct"] for r in res.values() for m in r) else 1


if __name__ == "__main__":
    sys.exit(main())
