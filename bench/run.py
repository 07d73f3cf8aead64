#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ``epicube`` is imported from its
``src/`` directory and from nowhere else.  One process runs one workload as
a closed loop with a single caller: the next step starts when the previous
one returned.  No extra threads or processes run during the timed region.

``--trace 0`` sets the workload up several times and reports the set-up time
(the median import in a fresh interpreter plus the median input generation
and warm-up), then runs steps for ``--seconds`` seconds and reports the
end-to-end metrics: items per second over the summed step times, the median
and 99th percentile of per-item time over the latency samples (one per input
on estimate and certify, one per input block of calls on sweep and region;
see ``end_to_end``; their number is printed) and peak RSS.  ``--trace 1``
runs the workload's first ``trace_steps`` steps twice, once plain and once
with every public function of the six layers wrapped, and reports the
per-layer metrics; that step list depends only on the seed, so its counts
repeat exactly.  Either way the outputs are checked after the timed region,
and the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Machine speed.  On a shared host the speed of the CPU this process gets
drifts by tens of percent over seconds to minutes.  The timed region therefore
runs a fixed reference kernel (benchmark code, no ``epicube``) every
REF_EVERY_S seconds, between steps and outside their timings, and scales
each step's time by REF_NOMINAL_S over the median of the three reference
times nearest to it: times read as they would on a machine where the
reference kernel takes REF_NOMINAL_S, so every reported time is in units of
that kernel, not wall-clock seconds.  Set-up time is scaled by the median
of the reference times taken between its repetitions, and per-layer times
by the traced pass's median scale.  The raw figures, and ``machine_scale``
(reported time over wall-clock time), are printed as comments.

A run that passes its wall-clock deadline stops with a message on standard
error, exit code 3 and no result line.
"""

import argparse
import itertools
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEADLINE_S = 170
SETUP_REPS = 7
# Reference-kernel runs before each set-up and after the last.
SETUP_REFS = 5
REF_NOMINAL_S = 3e-3
REF_EVERY_S = 0.1
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import epicube; print(time.perf_counter() - t)"
)

_REF_M = np.linspace(0.5, 2.0, 72).reshape(8, 9)
_REF_S = np.linspace(-1.0, 1.0, 16).reshape(4, 4) + np.linspace(-1.0, 1.0, 16).reshape(4, 4).T


def reference_kernel():
    """Fixed work in the mix epicube runs: many different small-array numpy
    calls, interpreted float loops and exact Fraction elimination.  A kernel
    with a tiny code footprint tracks the machine's speed for epicube poorly."""
    acc = 0.0
    for i in range(3):
        _, s, vt = np.linalg.svd(_REF_M)
        acc += s[-1] + np.linalg.det(vt[:3, :3])
        acc += np.linalg.eigvalsh(_REF_S + i)[0] + np.abs(np.roots([1.0, -2.0, 0.5 + i, 0.1])).sum()
        z = np.vstack([np.kron(r[:3], r[3:6]) for r in _REF_M])
        acc += np.einsum("ij,ij->", z, z) + np.linalg.norm(np.cross(_REF_M[0, :3], _REF_M[1, :3]))
        acc += np.allclose(_REF_S, _REF_S.T) + np.linalg.solve(_REF_S + 5 * np.eye(4), np.ones(4))[0]
        acc += sum(x * 0.5 for x in range(30))
        # Fraction-free elimination of a 5x5 rational matrix.
        A = [[Fraction(3 * r + c + i, c + 2) for c in range(5)] for r in range(5)]
        A[0][0] += 1
        prev = Fraction(1)
        for k in range(4):
            for r in range(k + 1, 5):
                for c in range(k + 1, 5):
                    A[r][c] = (A[r][c] * A[k][k] - A[r][k] * A[k][c]) / prev
            prev = A[k][k] or Fraction(1)
        acc += float(A[4][4])
    return float(acc)


def reference_seconds():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Deadline(Exception):
    pass


def fail(message, code):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def import_epicube():
    """Import epicube from this checkout's src/, refusing any other copy."""
    if not (SRC / "epicube" / "__init__.py").is_file():
        fail(f"no epicube sources under {SRC}; run from a source checkout", 2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import epicube

    if Path(epicube.__file__).resolve().parent != SRC / "epicube":
        fail(f"imported epicube from {epicube.__file__}, not from {SRC}", 2)


def import_seconds():
    """Seconds a fresh interpreter takes to import epicube (numpy included)."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def percentile(sorted_values, q):
    """Linear-interpolated q-quantile of sorted values."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Runner:
    def __init__(self, workload, seed):
        self.wl = workload
        self.seed = seed
        self.failed = 0
        self.attempted = 0
        self.problems = []
        self.phase = "import"
        self.raw = {}
        self.refs = []
        self.kept = {}

    def set_up(self):
        """Set the workload up SETUP_REPS times.

        Returns the state and the set-up seconds, raw and scaled: the median
        time of a fresh interpreter's import plus the median time of input
        generation and warm-up in this process, scaled by the median of the
        reference times taken between the set-ups.
        """
        self.phase = "set-up"
        refs, imports, in_process = [], [], []
        for _ in range(SETUP_REPS):
            refs += [reference_seconds() for _ in range(SETUP_REFS)]
            imports.append(import_seconds())
            t0 = time.perf_counter()
            state = self.wl.setup(self.seed)
            self.wl.warm()
            in_process.append(time.perf_counter() - t0)
        refs += [reference_seconds() for _ in range(SETUP_REFS)]
        raw = statistics.median(imports) + statistics.median(in_process)
        return state, raw, raw * REF_NOMINAL_S / statistics.median(refs)

    def steps(self, state, indices=None, seconds=None, calibrate=False):
        """Run the steps in ``indices``, or steps 0, 1, ... for ``seconds``.

        Returns per-step seconds and per-step scales.  With ``calibrate``
        the reference kernel runs every REF_EVERY_S between steps, and a
        step's scale is REF_NOMINAL_S over the median of the three reference
        times nearest to it; otherwise the scale is 1.

        The first output of each input slot is kept for the checks; a later
        step on the same slot must give an equal output.  A step that raises
        counts its items as failed.
        """
        lat, marks, refs = [], [], []
        start = time.perf_counter()
        last_ref = -float("inf")
        for j in indices if indices is not None else itertools.count():
            if calibrate and time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(reference_seconds())
                last_ref = time.perf_counter()
            marks.append(len(refs) - 1)
            inp = self.wl.step_input(state, j)
            t0 = time.perf_counter()
            try:
                out = self.wl.run(inp)
            except Exception:
                out = None
                self.failed += self.wl.items
                if len(self.problems) < 3:
                    self.problems.append(traceback.format_exc())
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            self.attempted += self.wl.items
            slot = self.wl.slot(state, j)
            if out is None:
                pass
            elif slot not in self.kept:
                self.kept[slot] = (inp, out)
            elif not self.wl.same(self.kept[slot][1], out):
                self.failed += self.wl.items
                self.problems.append(f"step {j} repeated an input and gave a different output")
            if seconds is not None and t1 - start >= seconds and len(lat) >= self.wl.block:
                break
        if not calibrate:
            return lat, [1.0] * len(lat)
        refs.append(reference_seconds())
        self.refs += refs
        scale = [REF_NOMINAL_S / statistics.median(refs[max(m - 1, 0) : m + 2]) for m in marks]
        return lat, scale

    def check(self, state):
        from tracer import Tracer

        self.phase = "output checks"
        if not self.kept:
            self.problems.append("no step completed")
            return
        inputs, outputs = zip(*(self.kept[k] for k in sorted(self.kept)))
        failed, problems = self.wl.check(state, inputs, outputs, Tracer)
        self.failed += failed
        self.problems.extend(problems)

    def end_to_end(self, seconds):
        """Untraced metrics of ``seconds`` of steps.

        Throughput counts every step's scaled time.  A latency sample is one
        input's typical time per item: blocks of ``wl.block`` consecutive
        steps (one call on estimate and certify; on sweep and region a block
        of calls whose average evens out their heavy-tailed or two-valued
        costs) are grouped by the inputs they ran, and a sample is the
        median scaled time of a group.  The p99 is therefore taken across
        inputs: it shows inputs that are slow every time, not occasional
        slow calls, which on a shared host come mostly from other tenants.
        The p99 of single scaled calls (whole steps, not per item) is printed
        as a comment.
        """
        state, setup_raw, setup_scaled = self.set_up()
        self.phase = "timed run"
        lat, scale = self.steps(state, seconds=seconds, calibrate=True)
        self.check(state)

        size = self.wl.block
        by_input = {}
        for b in range(0, len(lat) - size + 1, size):
            key = tuple(self.wl.slot(state, j) for j in range(b, b + size))
            by_input.setdefault(key, []).append(sum(lat[j] * scale[j] for j in range(b, b + size)))
        per_item = sorted(statistics.median(ts) / (size * self.wl.items) for ts in by_input.values())
        per_call = sorted(t * f for t, f in zip(lat, scale))
        ref = statistics.median(self.refs)
        self.raw.update(
            reference_ms=1e3 * ref,
            machine_scale=REF_NOMINAL_S / ref,
            unscaled_items_per_s=len(lat) * self.wl.items / sum(lat),
            unscaled_setup_s=setup_raw,
            latency_samples=len(per_item),
            per_call_p99_ms=1e3 * percentile(per_call, 0.99),
        )
        return {
            "items_per_s": len(lat) * self.wl.items / sum(t * f for t, f in zip(lat, scale)),
            "latency_ms_p50": 1e3 * percentile(per_item, 0.50),
            "latency_ms_p99": 1e3 * percentile(per_item, 0.99),
            "setup_s": setup_scaled,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, len(lat)

    def per_layer(self):
        from metrics import per_layer_values
        from tracer import Tracer

        self.phase = "set-up"
        state = self.wl.setup(self.seed)
        self.wl.warm()
        self.phase = "traced run"
        n = self.wl.trace_steps
        plain, plain_scale = self.steps(state, indices=range(n), calibrate=True)
        with Tracer() as tracer:
            traced, traced_scale = self.steps(state, indices=range(n), calibrate=True)
        self.check(state)
        scaled = sum(t * f for t, f in zip(traced, traced_scale))
        self.raw["machine_scale"] = statistics.median(traced_scale)
        values = per_layer_values(tracer, sum(traced), self.raw["machine_scale"])
        values["tracing_overhead_frac"] = 1.0 - sum(t * f for t, f in zip(plain, plain_scale)) / scaled
        return values, n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def on_alarm(signum, frame):
        raise Deadline()

    runner = None
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        import_epicube()
        from metrics import END_TO_END, per_layer_spec
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", 2)
        runner = Runner(WORKLOADS[args.workload](), args.seed)
        if args.trace:
            values, steps = runner.per_layer()
            spec = per_layer_spec()
        else:
            values, steps = runner.end_to_end(args.seconds)
            spec = [m[:3] for m in END_TO_END]
    except Deadline:
        fail(
            f"workload {args.workload!r} passed its {DEADLINE_S} s deadline during the "
            f"{runner.phase if runner else 'import'}; a rejection loop may not be terminating",
            3,
        )
    finally:
        signal.alarm(0)

    for problem in runner.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"steps={steps} items/step={runner.wl.items}")
    for name, value in runner.raw.items():
        print(f"# raw {name} = {value:.6g}")
    metrics = {}
    for name, unit, better in spec:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:48s} {values[name]:>16.6g} {unit:8s} ({better} is better)")
    correct = runner.failed == 0 and not runner.problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
