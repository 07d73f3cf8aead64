#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics ``run.py`` reports,
with the same units, directions and bounds; that every workload's outputs
pass their checks on each seed, plain and traced; and that two traced runs
with the same seed give identical counts and count ratios.  Runs every
workload through ``run.py`` in its own process, one after the other.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, per_layer_spec, repeatable  # noqa: E402
from report import WORKLOADS, run  # noqa: E402

SEEDS = (1, 2)
# Seconds of each run: the outputs checked, not the timings, matter here.
SECONDS = 2


def check_manifest(errors):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END]
    layer = [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_spec()]
    if manifest["end_to_end"] != e2e:
        errors.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if manifest["per_layer"] != layer:
        errors.append("BENCHMARK.json per_layer differs from metrics.per_layer_spec()")
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from report.WORKLOADS")


def main():
    errors = []
    check_manifest(errors)
    for wl in WORKLOADS:
        traced = {}
        for seed in SEEDS:
            for trace in (0, 1):
                r = run(wl, seed, SECONDS, trace)
                if not (r["correct"] and r["failed"] == 0):
                    errors.append(f"{wl} seed {seed} trace {trace}: outputs failed their checks")
                if trace:
                    traced.setdefault(seed, r["metrics"])
        first = traced[SEEDS[0]]
        again = run(wl, SEEDS[0], SECONDS, 1)["metrics"]
        for name, unit, _ in per_layer_spec():
            if repeatable(name, unit) and first[name] != again[name]:
                errors.append(f"{wl}: {name} was {first[name]['value']}, then {again[name]['value']}")
        print(f"selftest: {wl} done", flush=True)
    for e in errors:
        print(f"selftest: FAIL {e}")
    print("selftest: " + ("FAILED" if errors else "all checks passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
