"""The four benchmark workloads.

Each workload turns ``--seed`` into inputs, hands them to one public
``epicube`` entry point a step at a time, and checks the outputs afterwards.
A step is the unit the runner times; ``items`` says how many items (the unit
of ``items_per_s``) one step completes.  Steps are numbered from 0 and
``step_input(state, j)`` is a pure function of the seed and ``j``, so the
first ``trace_steps`` steps are the same work in every run with that seed.
Workloads that cycle through a pool of inputs map step ``j`` to the pool
slot it reuses (``slot``); the runner keeps one output per slot.

Why these four (recorded in BENCHMARK.json too):

- sweep: the noise-sweep research workload.  Its time sits in the geometry
  rejection loop (cube sampler, camera sampler, quadric fit), so it shows
  sampler and geometry-reuse changes and barely moves with estimator work.
- estimate: single ``cube_eight_point`` calls, the library's headline call.
  Its time sits in the estimator core and never in the samplers, so it
  shows estimator changes and predicts no change for sampler work.
- region: ``region_grid`` over the unit cube (diagonal fast path) and over
  random cubes (general Veronese path), many quadric fits against one cube.
- certify: the exact certificate, the only workload that runs the Bareiss
  determinant, ``exact_rank`` and the exact bracket invariant.
"""

import dataclasses

import numpy as np

from epicube import degeneracy, estimators, exact, projective, quadrics, simulate
from epicube.exceptions import EpicubeError

# Stream keys for derive(): one per workload, and timed vs warm-up inputs.
TIMED, WARMUP = 0, 1
# Warm-up inputs do not depend on --seed, so that every seed's set-up does
# the same warm-up work.
WARMUP_SEED = 0


class Workload:
    # Consecutive steps that form one latency sample.
    block = 1

    @staticmethod
    def slot(state, j):
        """Key of the input step ``j`` runs; equal keys mean equal inputs."""
        return j


def derive(seed, *keys):
    """A 32-bit seed that is a pure function of ``seed`` and ``keys``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


class Sweep(Workload):
    name = "sweep"
    key = 1
    # C6's noise grid.
    levels = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10)
    trials = 2
    items = trials * len(levels)
    # A latency sample is a 48-trial sweep: trial costs are heavy-tailed
    # (geometric rejection counts), so smaller samples make a noisy tail.
    # Short steps let the machine-speed scale follow the step it corrects.
    block = 24
    trace_steps = 16
    angle_tol = 1e-6
    exact_share = 0.99

    def setup(self, seed):
        return {"seed": seed}

    def step_input(self, state, j, stream=TIMED):
        return simulate.ExperimentConfig(
            trials=self.trials,
            noise_levels=self.levels,
            seed=derive(state["seed"], self.key, stream, j),
        )

    def run(self, cfg):
        return simulate.run_noise_sweep(cfg)

    def warm(self):
        self.run(dataclasses.replace(self.step_input({"seed": WARMUP_SEED}, 0, WARMUP), trials=1))

    @staticmethod
    def same(a, b):
        # repr keeps NaN residuals comparable.
        return repr(a) == repr(b)

    def check(self, state, inputs, outputs, tracer_cls):
        failed, problems = 0, []
        expected = self.trials * len(self.levels) * 3
        exact_total = exact_ok = 0
        for j, records in enumerate(outputs):
            bad = len(records) != expected
            for r in records:
                if r.noise != 0.0:
                    continue
                if r.algo == "8pt" and not r.failed:
                    bad = True
                elif r.algo == "cube8":
                    exact_total += 1
                    exact_ok += r.angle_rad < self.angle_tol
            if bad:
                failed += self.items
                problems.append(f"step {j}: wrong record count or 8pt succeeded at sigma=0")
        if exact_total and exact_ok < self.exact_share * exact_total:
            failed += exact_total - exact_ok
            problems.append(f"cube8 exact on only {exact_ok}/{exact_total} sigma=0 trials")
        # Determinism contract, and the reason 8pt fails at sigma=0, on the
        # first trial of step 0.
        cfg = dataclasses.replace(inputs[0], trials=1)
        with tracer_cls() as tr:
            again = self.run(cfg)
        if not self.same(again, [r for r in outputs[0] if r.trial == 0]):
            failed += self.items
            problems.append("step 0 records differ between two runs with the same seed")
        eight = [r for r in again if r.algo == "8pt"]
        for r, err in zip(eight, tr.errors_of("estimators.eight_point")):
            if r.noise == 0.0 and err != "DegenerateInput":
                failed += 1
                problems.append(f"8pt at sigma=0 ended with {err}, not DegenerateInput")
        return failed, problems


class Estimate(Workload):
    name = "estimate"
    key = 2
    geometries = 60
    # Noise-free once per geometry; the noisy levels vary the root structure
    # of the pencil, so each gets many draws.  1200 inputs leave 12 latency
    # samples beyond p99.
    sigmas = (0.0,) + (0.02,) * 10 + (0.10,) * 9
    camera_radius = 6.0
    items = 1
    trace_steps = 1200
    angle_tol = 1e-6
    # Same rank-2 tolerance the pencil solver applies to its candidates.
    rank2_tol = 1e-8

    def _instances(self, rng, geometries):
        out = []
        for _ in range(geometries):
            cube = degeneracy.random_combinatorial_cube(rng)
            A1, A2 = simulate.sample_camera_pair(rng, self.camera_radius)
            X = projective.project_all(A1, cube.vertices)
            Y = projective.project_all(A2, cube.vertices)
            points = np.vstack([cube.vertices, projective.focal_point(A1), projective.focal_point(A2)])
            try:
                tag = quadrics.classify(quadrics.quadric_through_points(points)).tag
            except EpicubeError:
                tag = quadrics.DEGENERATE
            F_true = estimators.fundamental_from_cameras(A1, A2)
            for sigma in self.sigmas:
                out.append(
                    {
                        "X": simulate.add_noise(X, sigma, rng),
                        "Y": simulate.add_noise(Y, sigma, rng),
                        "sigma": sigma,
                        "nonruled": tag == quadrics.NONRULED_NONDEGENERATE,
                        "F_true": F_true,
                    }
                )
        return out

    def setup(self, seed):
        rng = np.random.default_rng(derive(seed, self.key, TIMED))
        return {"pool": self._instances(rng, self.geometries), "seed": seed}

    def step_input(self, state, j, stream=TIMED):
        return state["pool"][self.slot(state, j)]

    @staticmethod
    def slot(state, j):
        return j % len(state["pool"])

    def run(self, inst):
        return estimators.cube_eight_point(inst["X"], inst["Y"])

    def warm(self):
        rng = np.random.default_rng(derive(WARMUP_SEED, self.key, WARMUP))
        for inst in self._instances(rng, 3):
            self.run(inst)

    @staticmethod
    def same(a, b):
        return np.array_equal(a, b)

    def check(self, state, inputs, outputs, tracer_cls):
        failed, problems = 0, []
        exact_calls = 0
        for j, (inst, F) in enumerate(zip(inputs, outputs)):
            F = np.asarray(F)
            if not np.all(np.isfinite(F)):
                ok, why = False, "non-finite F"
            elif inst["sigma"] == 0.0 and inst["nonruled"]:
                exact_calls += 1
                angle = projective.grassmann_angle(F, inst["F_true"])
                ok, why = angle < self.angle_tol, f"angle {angle:.3g} at sigma=0 on a non-ruled instance"
            else:
                sv = np.linalg.svd(F, compute_uv=False)
                ok, why = sv[2] <= self.rank2_tol * sv[0], f"not rank 2 (s3/s1 = {sv[2] / sv[0]:.3g})"
            if not ok:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"pool instance {j}: {why}")
        if exact_calls == 0:
            problems.append("no sigma=0 non-ruled instance was checked against the true F")
        return failed, problems


class Region(Workload):
    name = "region"
    key = 3
    resolution = 50
    # Two charts, so that each latency sample is the median of many passes.
    pool = 2
    items = resolution * resolution
    # Even steps classify a grid over the unit cube (diagonal fast path), odd
    # steps the same chart over a random cube (general path); a latency
    # sample is the pair, so samples are unimodal.
    block = 2
    trace_steps = 2

    def _grids(self, rng, n):
        grids = []
        for _ in range(n):
            f1 = np.append(np.array([2.0, 3.0, 4.0]) + rng.uniform(-0.5, 0.5, 3), 1.0)
            chart = quadrics.PlaneChart(
                origin=(0.0, 0.0, 5.0 + float(rng.uniform(-0.5, 0.5))),
                u_dir=(1.0, 0.0, 0.0),
                v_dir=(0.0, 1.0, 0.0),
            )
            grids.append({"cube": degeneracy.random_combinatorial_cube(rng), "f1": f1, "chart": chart})
        return grids

    def setup(self, seed):
        rng = np.random.default_rng(derive(seed, self.key, TIMED))
        return {"pool": self._grids(rng, self.pool), "seed": seed, "unit": degeneracy.unit_cube()}

    def step_input(self, state, j, stream=TIMED):
        g = state["pool"][self.slot(state, j) // 2]
        cube = state["unit"] if j % 2 == 0 else g["cube"]
        return {"cube": cube, "f1": g["f1"], "chart": g["chart"], "unit": j % 2 == 0}

    @staticmethod
    def slot(state, j):
        return j % (2 * len(state["pool"]))

    def run(self, inp, resolution=None):
        return quadrics.region_grid(inp["cube"], inp["f1"], inp["chart"], resolution or self.resolution)

    def warm(self):
        rng = np.random.default_rng(derive(WARMUP_SEED, self.key, WARMUP))
        g = self._grids(rng, 1)[0]
        for cube in (degeneracy.unit_cube(), g["cube"]):
            self.run({"cube": cube, "f1": g["f1"], "chart": g["chart"]}, resolution=10)

    @staticmethod
    def same(a, b):
        return a == b

    def check(self, state, inputs, outputs, tracer_cls):
        failed, problems = 0, []
        tags = set()
        for inp, cells in zip(inputs, outputs):
            ok = len(cells) == self.items
            if ok and inp["unit"]:
                ok = self._unit_ok(inp, cells, tags) and self._paths_agree(inp, cells)
            if not ok:
                failed += self.items
                problems.append(f"{'unit' if inp['unit'] else 'random'}-cube grid check failed")
        missing = {quadrics.RULED_NONDEGENERATE, quadrics.NONRULED_NONDEGENERATE} - tags
        if missing:
            failed += 1
            problems.append(f"unit-cube grids never produced {sorted(missing)}")
        return failed, problems

    @staticmethod
    def _unit_ok(g, cells, tags):
        for u, v, qc in cells:
            tags.add(qc.tag)
            if qc.margin <= 1e-6 or qc.tag not in (
                quadrics.RULED_NONDEGENERATE,
                quadrics.NONRULED_NONDEGENERATE,
            ):
                continue
            try:
                a, b = quadrics.delta1_coordinates(g["f1"], g["chart"].point(u, v))
            except EpicubeError:
                continue
            if quadrics.ruled_region_delta1(a, b) != (qc.tag == quadrics.RULED_NONDEGENERATE):
                return False
        return True

    def _paths_agree(self, g, cells):
        """The general Veronese path, run on the same unit-cube grid, gives
        the fast path's tag wherever the fast path's margin exceeds 1e-6."""
        general = quadrics.region_grid(g["cube"], g["f1"], g["chart"], self.resolution, method="general")
        return all(
            a.tag == b.tag for (_, _, a), (_, _, b) in zip(cells, general) if a.margin > 1e-6
        )


class Certify(Workload):
    name = "certify"
    key = 4
    trials = 10
    controls = 2
    items = trials
    # Certificate seeds cycle through a pool so that each latency sample is
    # the median of several calls.
    pool = 60
    trace_steps = 24

    def setup(self, seed):
        return {"seed": seed}

    def step_input(self, state, j, stream=TIMED):
        return derive(state["seed"], self.key, stream, self.slot(state, j))

    def slot(self, state, j):
        return j % self.pool

    def run(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        return exact.vanishing_certificate(rng, trials=self.trials, controls=self.controls)

    def warm(self):
        self.run(self.step_input({"seed": WARMUP_SEED}, 0, WARMUP))

    @staticmethod
    def same(a, b):
        return a == b

    def check(self, state, inputs, outputs, tracer_cls):
        failed, problems = 0, []
        for j, r in enumerate(outputs):
            if not (
                r["trials"] == r["vanished"] == r["rank_ok"] == self.trials
                and r["nonzero_controls"] == r["controls"] == self.controls
            ):
                failed += self.items
                problems.append(f"step {j}: certificate {r}")
        return failed, problems


WORKLOADS = {w.name: w for w in (Sweep, Estimate, Region, Certify)}

