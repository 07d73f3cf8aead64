import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epicube import quadrics, simulate
from epicube.degeneracy import random_combinatorial_cube, unit_cube
from epicube.estimators import fundamental_from_cameras
from epicube.exceptions import EpicubeError, ExhaustedRetries
from epicube.projective import _focal_points, dehomogenize, focal_point, homogenize, proj_equal, project_all
from epicube.quadrics import (
    DEGENERATE,
    NONRULED_NONDEGENERATE,
    _class_rows,
    _classify_stack,
    _cube_quadrics,
    _nonruled,
    classify,
    cube_quadric,
)
from epicube.simulate import (
    ALGOS,
    CSV_HEADER,
    ExperimentConfig,
    add_noise,
    look_at_camera,
    records_to_csv,
    run_noise_sweep,
    run_trial,
    sample_camera_pair,
    summarize,
)


class TestLookAtCamera:
    def test_center_is_focal_point(self, rng):
        f = rng.uniform(-6, 6, 3)
        A = look_at_camera(f)
        assert proj_equal(focal_point(A), np.append(f, 1.0), tol=1e-9)

    def test_principal_axis_toward_origin(self):
        A = look_at_camera([0.0, 0.0, 6.0])
        img = A @ np.array([0.0, 0.0, 0.0, 1.0])
        # The origin projects onto the principal point with positive depth.
        assert img[2] > 0
        assert np.allclose(img[:2], 0.0, atol=1e-12)

    def test_rotation_is_orthonormal(self, rng):
        A = look_at_camera(rng.uniform(-5, 5, 3))
        R = A[:, :3]
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize(
        "centre", [[0.0, 0.0, 0.0], [math.nan, 0.0, 1.0], [math.inf, 1.0, 0.0]], ids=["zero", "nan", "inf"]
    )
    def test_rejects_zero_and_non_finite_centres(self, centre):
        with pytest.raises(ValueError, match="finite and nonzero"):
            look_at_camera(centre)

    @pytest.mark.parametrize("scale", [2.0**-1000, 1e-200, 1e200, 2.0**1000])
    def test_tiny_and_huge_centres(self, rng, scale):
        # The norm of f would under- or overflow; a power-of-two scale leaves
        # the rotation's bits as they are.
        f = rng.uniform(-5, 5, 3)
        A, ref = look_at_camera(scale * f), look_at_camera(f)
        assert np.isfinite(A).all()
        assert np.allclose(A[:, :3], ref[:, :3], rtol=0.0, atol=1e-15)
        assert np.array_equal(A[:, :3], ref[:, :3]) or math.frexp(scale)[0] != 0.5
        assert np.array_equal(A[:, 3], -A[:, :3] @ (scale * f))

    def test_matches_np_cross_bit_for_bit(self, rng):
        # The written-out cross products round each product on its own, as
        # np.cross does, on both choices of the up vector.
        def reference(f):
            f = np.asarray(f, dtype=float)
            z = -f / np.linalg.norm(f)
            up = np.array([0.0, 0.0, 1.0])
            if abs(z @ up) > 0.99:
                up = np.array([0.0, 1.0, 0.0])
            x = np.cross(up, z)
            x /= np.linalg.norm(x)
            R = np.vstack([x, np.cross(z, x), z])
            return np.hstack([R, (-R @ f)[:, None]])

        centres = np.vstack([rng.standard_normal((500, 3)), rng.uniform(-0.1, 0.1, (200, 3)) + [0.0, 0.0, 6.0]])
        centres[-100:, 2] *= -1.0
        switched = np.abs(centres[:, 2]) / np.linalg.norm(centres, axis=1) > 0.99
        assert 100 < switched.sum() < len(centres)
        for f in centres:
            assert np.array_equal(look_at_camera(f), reference(f))


def reference_separation(draw, radius):
    """The centers of a draw ((v1, u1), (v2, u2)) and their distance, with
    the numpy expressions of the per-draw sampler."""
    centers = []
    for v, u in draw:
        v = v / math.sqrt(v.dot(v))
        centers.append(radius * u * v)
    d = centers[0] - centers[1]
    return centers, math.sqrt(d.dot(d))


def reference_pair(rng, radius):
    """sample_camera_pair as one numpy expression per draw, in absolute units."""
    for _ in range(simulate.MAX_CAMERA_DRAWS):
        draw = [(rng.standard_normal(3), rng.uniform(0.95, 1.05)) for _ in range(2)]
        centers, sep = reference_separation(draw, radius)
        if sep >= simulate.MIN_SEPARATION * radius:
            return look_at_camera(centers[0]), look_at_camera(centers[1])
    raise ExhaustedRetries("no separated camera pair")


class ScriptedStream:
    """Stands in for a Generator: replays (v, u) draws as standard_normal(3)
    and random(), and logs each dot product taken of a replayed vector or of
    an array computed from one."""

    def __init__(self, draws):
        dots = self.dots = []

        class Logged(np.ndarray):
            def dot(self, other):
                dots.append(1)
                return np.asarray(self).dot(np.asarray(other))

        self.queue = [x for v, u in draws for x in (np.array(v, dtype=float).view(Logged), u)]

    def standard_normal(self, size):
        assert size == 3
        return self.queue.pop(0)

    def random(self):
        return self.queue.pop(0)

    def uniform(self, low, high):
        return low + (high - low) * self.random()


class TestSampleCameraPair:
    @pytest.mark.parametrize("separation", [1.0, 1.5, 1.97])
    def test_matches_the_per_draw_sampler(self, separation, monkeypatch):
        # The test in units of the radius changes no camera and no generator
        # state: after every call both samplers have drawn the same numbers.
        # Lower bounds accept more draws; 700 pairs per bound.
        monkeypatch.setattr(simulate, "MIN_SEPARATION", separation)
        fast, slow = np.random.default_rng(31), np.random.default_rng(31)
        for _ in range(700):
            pair, expected = sample_camera_pair(fast, 6.0), reference_pair(slow, 6.0)
            assert all(np.array_equal(a, b) for a, b in zip(pair, expected))
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_draws_at_the_bound_match_the_reference(self, rng):
        # Draws within 1e-10 below the bound are rejected and the first one
        # above it is accepted, as the reference decides; draws far below it
        # are rejected too.  Opposite directions put the centers r1 + r2 apart.
        radius, lim = 6.0, simulate.MIN_SEPARATION * 6.0

        def draw(eps):
            v = rng.standard_normal(3)
            u = (lim * (1.0 + eps) / (2.0 * radius) - 0.95) / (1.05 - 0.95)
            return [(v, u), (-2.0 * v, u)]

        for _ in range(20):
            near = [draw(-rng.uniform(1e-13, 1e-10)) for _ in range(rng.integers(1, 4))]
            far = [draw(-rng.uniform(0.05, 0.5)) for _ in range(rng.integers(1, 4))]
            script = [(near + far)[i] for i in rng.permutation(len(near) + len(far))]
            script.append(draw(rng.uniform(1e-13, 1e-10)))
            seps = [reference_separation([(v, 0.95 + (1.05 - 0.95) * u) for v, u in d], radius)[1] for d in near]
            assert all(lim * (1.0 - 1e-9) < sep < lim for sep in seps)
            stream = ScriptedStream([x for d in script for x in d])
            pair = sample_camera_pair(stream, radius)
            expected = reference_pair(ScriptedStream([x for d in script for x in d]), radius)
            assert all(np.array_equal(a, b) for a, b in zip(pair, expected))
            assert stream.queue == []
            # Only the accepted draw's two norms take a dot product.
            assert len(stream.dots) == 2

    @given(st.integers(-900, 1000), st.integers(0, 2**32 - 1))
    @example(-900, 0)
    @example(1000, 0)
    @settings(max_examples=100, deadline=None)
    def test_any_radius_takes_the_same_draws(self, k, seed):
        # The separation is tested in units of the radius, so at radius
        # 6 * 2**k the sampler accepts the draws it accepts at radius 6, and
        # each centre is 2**k times the centre there, bit for bit.
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        centres = simulate._camera_centres(rng, 6.0 * 2.0**k)
        expected = simulate._camera_centres(ref, 6.0)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert all(np.array_equal(c, np.ldexp(e, k)) for c, e in zip(centres, expected))

    def test_radius_shell_and_separation(self, rng):
        for _ in range(10):
            A1, A2 = sample_camera_pair(rng, 6.0)
            c1 = focal_point(A1)
            c2 = focal_point(A2)
            p1, p2 = c1[:3] / c1[3], c2[:3] / c2[3]
            for p in (p1, p2):
                assert 6.0 * 0.95 - 1e-9 <= np.linalg.norm(p) <= 6.0 * 1.05 + 1e-9
            assert np.linalg.norm(p1 - p2) >= 1.97 * 6.0 - 1e-9

    def test_invalid_radius(self, rng):
        for radius in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                sample_camera_pair(rng, radius)

    def test_radius_bound_is_where_the_shell_overflows(self):
        # The largest radius whose 1.05 * radius is finite draws what radius
        # 6 draws, at finite centres; the next float up, and 1.75e308, raise
        # before any draw.
        top = math.nextafter(1.7976931348623157e308 / 1.05, 0.0)
        while math.isfinite(math.nextafter(top, math.inf) * 1.05):
            top = math.nextafter(top, math.inf)
        assert math.isfinite(top * 1.05)
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        centres = simulate._camera_centres(rng, top)
        simulate._camera_centres(ref, 6.0)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert all(np.isfinite(c).all() for c in centres)
        state = rng.bit_generator.state
        for radius in (math.nextafter(top, math.inf), 1.75e308, np.float64(1.75e308)):
            with pytest.raises(ValueError, match="radius"):
                simulate._camera_centres(rng, radius)
        assert rng.bit_generator.state == state

    def test_unreachable_separation_exhausts_budget(self, rng, monkeypatch):
        # The +-5% shell puts the centers at most 2.1 radii apart.
        monkeypatch.setattr(simulate, "MIN_SEPARATION", 2.2)
        with pytest.raises(ExhaustedRetries):
            sample_camera_pair(rng, 6.0)


class TestAddNoise:
    def test_zero_sigma_identity(self, rng):
        pts = homogenize(rng.uniform(-1, 1, (8, 2)))
        state = rng.bit_generator.state
        out = add_noise(pts, 0.0, rng)
        assert np.array_equal(out, pts)
        # Nothing is drawn at sigma 0: callers that share one generator
        # across levels see the same stream after a noise-free cloud.
        assert rng.bit_generator.state == state

    def test_single_point_cloud_is_rehomogenized(self, rng):
        # A zero bounding box scales the noise to zero, but a positive level
        # still returns the points at w = 1.
        pts = np.tile([0.5, -3.0, 2.0], (8, 1))
        out = add_noise(pts, 0.05, rng)
        assert np.array_equal(out, homogenize(dehomogenize(pts)))
        assert np.all(out[:, 2] == 1.0)

    def test_noise_scales_with_sigma(self, rng):
        pts = homogenize(rng.uniform(-1, 1, (8, 2)))
        seed = rng.integers(2**32)
        a = add_noise(pts, 0.01, np.random.default_rng(seed))
        b = add_noise(pts, 0.02, np.random.default_rng(seed))
        da = (a - pts)[:, :2]
        db = (b - pts)[:, :2]
        assert np.allclose(db, 2.0 * da)

    def test_matches_generator_normal(self, rng):
        # The shared expression rounds as the draw it replaces: normal noise
        # of scale sigma * (bbox diagonal) from the same generator.
        for _ in range(50):
            pts = np.column_stack([rng.normal(0, 10, (8, 2)), rng.uniform(0.5, 2, 8)])
            sigma, seed = rng.uniform(0, 0.2), rng.integers(2**32)
            aff = dehomogenize(pts)
            diag = np.linalg.norm(aff.max(axis=0) - aff.min(axis=0))
            expected = homogenize(aff + np.random.default_rng(seed).normal(0.0, sigma * diag, aff.shape))
            assert np.array_equal(add_noise(pts, sigma, np.random.default_rng(seed)), expected)

    def test_deterministic_given_rng(self, rng):
        pts = homogenize(rng.uniform(-1, 1, (8, 2)))
        a = add_noise(pts, 0.05, np.random.default_rng(7))
        b = add_noise(pts, 0.05, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_negative_sigma_rejected(self, rng):
        for sigma in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                add_noise(homogenize(np.zeros((2, 2))), sigma, rng)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        # A fractional count would fail later, inside range.
        for bad in (2.5, 3.0, "3"):
            with pytest.raises(ValueError, match="integer"):
                ExperimentConfig(trials=bad)
        assert ExperimentConfig(trials=np.int64(3)).trials == 3
        with pytest.raises(ValueError):
            ExperimentConfig(noise_levels=(-0.1,))
        with pytest.raises(ValueError):
            ExperimentConfig(noise_levels=())
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ExperimentConfig(noise_levels=(0.0, bad))
        # A fractional or negative seed would fail later, inside
        # SeedSequence; a bool would run as 0 or 1.
        for bad in (1.5, 2.0, -1, True, np.True_, "0"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                ExperimentConfig(seed=bad)
        for bad in (True, False, np.True_):
            with pytest.raises(ValueError, match="trials must be an integer"):
                ExperimentConfig(trials=bad)
        cfg = ExperimentConfig(trials=np.int32(2), seed=np.uint32(5))
        assert (cfg.trials, cfg.seed) == (2, 5) and ExperimentConfig(seed=0).seed == 0
        # A scalar level would fail later, inside len.
        for bad in (0.05, "0.05", {0.05}, ((0.0, 0.05),), None):
            with pytest.raises(ValueError, match="noise_levels must be a sequence"):
                ExperimentConfig(noise_levels=bad)
        assert len(ExperimentConfig(noise_levels=np.array([0.0, 0.1])).noise_levels) == 2


class TestRunTrial:
    def test_record_structure(self):
        cfg = ExperimentConfig(trials=1, noise_levels=(0.0, 0.05), seed=11)
        records = run_trial(cfg, 0)
        assert [r.algo for r in records] == list(ALGOS) * 2
        assert [r.noise for r in records] == [0.0] * len(ALGOS) + [0.05] * len(ALGOS)
        for r in records:
            assert r.trial == 0
        # One geometry serves every level.
        assert len({(r.cube_seed, r.cam_seed) for r in records}) == 1

    def test_noise_free_outcomes(self):
        cfg = ExperimentConfig(trials=1, noise_levels=(0.0,), seed=11)
        by_algo = {r.algo: r for r in run_trial(cfg, 0)}
        # The cube defeats the plain 8-point algorithm ...
        assert by_algo["8pt"].failed
        assert by_algo["8pt"].angle_rad == pytest.approx(math.pi / 2)
        assert math.isnan(by_algo["8pt"].residual)
        # ... while the cube-aware variant reconstructs F essentially exactly.
        assert not by_algo["cube8"].failed
        assert by_algo["cube8"].angle_rad < 1e-8

    def test_always_ruled_geometry_exhausts_budget(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simulate, "_nonruled", lambda C, c1, c2: calls.append(1) and False)
        monkeypatch.setattr(simulate, "MAX_GEOMETRY_ATTEMPTS", 20)
        cfg = ExperimentConfig(trials=1, noise_levels=(0.0,), seed=11)
        with pytest.raises(ExhaustedRetries):
            run_trial(cfg, 0)
        assert len(calls) == 20

    def test_gate_retries_after_a_failed_quadric(self, monkeypatch):
        # A first pair whose quadric is zero (a pencil fits: both centres on
        # the line where the unit cube's planes z = -1 and y = -1 meet) is
        # skipped like a first pair that the predicate rejects.  Trial 6 of
        # seed 0 accepts its first pair, so both runs differ from the
        # unpatched one.
        cfg = ExperimentConfig(trials=1, noise_levels=(0.0,), seed=0)
        zero_pair = unit_cube(), np.array([6.0, -1.0, -1.0]), np.array([-6.0, -1.0, -1.0])
        real, cores = simulate._nonruled, []

        def geometry(first):
            calls = []

            def patched(*args):
                calls.append(args)
                return first(*args) if len(calls) == 1 else real(*args)

            monkeypatch.setattr(simulate, "_nonruled", patched)
            g = simulate._geometry(cfg, 6)
            monkeypatch.setattr(simulate, "_nonruled", real)
            return g, len(calls)

        unpatched, first_attempts = geometry(real)
        rejected, attempts = geometry(lambda *args: False)
        monkeypatch.setattr(quadrics, "_class_rows", lambda Q: cores.append(Q) or _class_rows(Q))
        failed, failed_attempts = geometry(lambda *args: real(*zero_pair))
        assert first_attempts == 1 and failed_attempts == attempts > 1
        assert not cores[0].any()
        assert all(np.array_equal(a, b) for a, b in zip(failed, rejected))
        assert not np.array_equal(failed[4], unpatched[4])

    # Trial 32 of seed 0 accepts, and these (seed, trial) reject (0, 1644;
    # 7, 1388 and 1654) or accept (7, 302), a pair that the sign of det Q
    # leaves to the stacked core.
    BAND = ((0, 1644), (7, 302), (7, 1388), (7, 1654))

    def test_geometry_matches_the_public_gate(self, monkeypatch):
        # Reference: the gate through the public functions, one focal_point
        # per camera, cube_quadric, classify and fundamental_from_cameras, on
        # the per-draw camera sampler.  The sweep's predicate and cores give
        # the same verdicts, cameras and F_true bit for bit.
        cores = []
        monkeypatch.setattr(quadrics, "_class_rows", lambda Q: cores.append(Q) or _class_rows(Q))
        for seed, t in [(0, t) for t in range(40)] + list(self.BAND):
            cfg = ExperimentConfig(trials=1, noise_levels=(0.0,), seed=seed)
            cube_ss, cam_ss, noise_ss = np.random.SeedSequence([cfg.seed, t]).spawn(3)
            cube_rng, cam_rng = np.random.default_rng(cube_ss), np.random.default_rng(cam_ss)
            cube = random_combinatorial_cube(cube_rng)
            for attempt in range(1, simulate.MAX_GEOMETRY_ATTEMPTS + 1):
                if attempt % 16 == 0:
                    cube = random_combinatorial_cube(cube_rng)
                A1, A2 = reference_pair(cam_rng, simulate.CAMERA_RADIUS)
                try:
                    Q = cube_quadric(cube, focal_point(A1), focal_point(A2))
                except EpicubeError:
                    continue
                if classify(Q).tag == NONRULED_NONDEGENERATE:
                    break
            X, Y = project_all(A1, cube.vertices), project_all(A2, cube.vertices)
            z = np.random.default_rng(noise_ss).standard_normal((2, 8, 2))
            F_true = fundamental_from_cameras(A1, A2)
            expected = (simulate._seed_of(cube_ss), simulate._seed_of(cam_ss), z, F_true, X, Y)
            cores.clear()
            got = simulate._geometry(cfg, t)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected)), (seed, t)
            assert len(cores) == ((seed, t) in self.BAND or (seed, t) == (0, 32)), (seed, t)

    def test_levels_are_common_random_numbers(self):
        # Each level of a sweep gives the records of a sweep at that level
        # alone: the levels share the geometry and scale one noise draw, so a
        # noise generator carried over from one level to the next shows here.
        cfg = ExperimentConfig(trials=2, noise_levels=(0.0, 0.03, 0.07), seed=3)
        records = run_noise_sweep(cfg)
        for lv in cfg.noise_levels:
            alone = run_noise_sweep(replace(cfg, noise_levels=(lv,)))
            assert repr([r for r in records if r.noise == lv]) == repr(alone)


def gate(cube, centres):
    """The sweep's former gate on stacks of centre pairs: look-at cameras,
    their SVD centres, ``_cube_quadrics`` and ``_classify_stack``; whether
    each pair is NONRULED_NONDEGENERATE."""
    c = _focal_points(np.array([look_at_camera(f) for pair in centres for f in pair])).reshape(-1, 2, 4)
    Q = np.concatenate([_cube_quadrics(C, pair)[0] for C, pair in zip(cube, c)])
    return [qc.tag == NONRULED_NONDEGENERATE for qc in _classify_stack(Q)]


class TestRuledScreen:
    def test_rejects_only_what_the_gate_rejects(self):
        # The predicate accepts exactly the pairs the gate accepts, on 5,000
        # sampled pairs with a fresh cube every 10, and gives both verdicts.
        rng = np.random.default_rng(23)
        cubes, centres = [], []
        for i in range(5000):
            if i % 10 == 0:
                cube = random_combinatorial_cube(rng)
            cubes.append(cube)
            centres.append(simulate._camera_centres(rng, simulate.CAMERA_RADIUS))
        verdicts = [_nonruled(C, *pair) for C, pair in zip(cubes, centres)]
        assert verdicts == gate(cubes, centres)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_near_pencil_pairs_go_to_the_gate(self, monkeypatch, rng):
        # Centres c and -c + 1e-5 d nearly see the unit cube's planes alike,
        # so Q is near a pencil, ||Q||_F << |c1|^2 |c2|^2, and its rounding
        # is no longer small against it: the sign of det Q leaves these to the
        # stacked core, even where det Q alone would decide.
        cores, decided, pairs = [], 0, []
        monkeypatch.setattr(quadrics, "_class_rows", lambda Q: cores.append(Q) or _class_rows(Q))
        for _ in range(200):
            c = rng.standard_normal(3)
            c *= simulate.CAMERA_RADIUS / np.linalg.norm(c)
            pairs.append((c, -c + 1e-5 * rng.standard_normal(3)))
            _nonruled(unit_cube(), *pairs[-1])
            assert len(cores) == len(pairs)
            Q = cores[-1][0]
            decided += abs(np.linalg.det(Q)) > 1e-8 * np.linalg.norm(Q) ** 4
        monkeypatch.undo()
        assert decided > 0
        assert [_nonruled(unit_cube(), *pair) for pair in pairs] == gate([unit_cube()] * len(pairs), pairs)

    def test_zero_quadric_reaches_the_gate(self, monkeypatch):
        # Both centres on the line where the unit cube's facet planes z = -1
        # and y = -1 meet: a pencil of quadrics fits, Q is zero, and the
        # sign of det Q leaves the pair to the stacked core, which finds it
        # DEGENERATE.
        centres = np.array([6.0, -1.0, -1.0]), np.array([-6.0, -1.0, -1.0])
        Q, ok = _cube_quadrics(unit_cube(), homogenize(np.array(centres)))
        assert not ok[0] and _classify_stack(Q)[0].tag == DEGENERATE
        # In the sweep's loop: the first pair of a trial on the unit cube
        # reaches the quadric core, is rejected and the loop draws again.
        sampler, seen, drawn = simulate._camera_centres, [], []

        def scripted(rng, radius):
            drawn.append(1)
            return centres if len(drawn) == 1 else sampler(rng, radius)

        monkeypatch.setattr(simulate, "random_combinatorial_cube", lambda rng: unit_cube())
        monkeypatch.setattr(simulate, "_camera_centres", scripted)
        monkeypatch.setattr(quadrics, "_class_rows", lambda Q: seen.append(Q) or _class_rows(Q))
        simulate._geometry(ExperimentConfig(trials=1, noise_levels=(0.0,), seed=0), 0)
        assert not seen[0].any() and len(drawn) > 1

    def test_cameras_only_for_screened_pairs(self, monkeypatch):
        # The sweep decides each pair on the centres it drew and builds the
        # two look-at cameras and their SVD centres once per trial, for the
        # pair it accepts.
        counts = {"_nonruled": 0, "look_at_camera": 0, "_focal_points": 0}
        for name in counts:
            real = getattr(simulate, name)

            def counted(*args, real=real, name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(simulate, name, counted)
        cfg = ExperimentConfig(trials=1, noise_levels=(0.0,), seed=0)
        for t in range(10):
            simulate._geometry(cfg, t)
        assert counts["look_at_camera"] == 2 * counts["_focal_points"] == 20
        assert counts["_nonruled"] > 10


class TestSweep:
    def test_images_match_per_level_add_noise(self, monkeypatch):
        # Reference: the images as add_noise builds them one cloud at a time,
        # from a fresh generator on the trial's noise stream at every level,
        # X's noise drawn before Y's.  The sweep's stacked pass must give
        # them bit for bit.
        cfg = ExperimentConfig(trials=3, noise_levels=(0.0, 0.02, 0.1), seed=4)
        seen = []
        estimate_all = simulate._estimate_all

        def spy(algos, X, Y):
            seen.append((X.copy(), Y.copy()))
            return estimate_all(algos, X, Y)

        monkeypatch.setattr(simulate, "_estimate_all", spy)
        run_noise_sweep(cfg)
        X_ref, Y_ref = [], []
        for sigma in cfg.noise_levels:
            for t in range(cfg.trials):
                X0, Y0 = simulate._geometry(cfg, t)[4:]
                noise_ss = np.random.SeedSequence([cfg.seed, t]).spawn(3)[2]
                noise_rng = np.random.default_rng(noise_ss)
                X_ref.append(add_noise(X0, sigma, noise_rng))
                Y_ref.append(add_noise(Y0, sigma, noise_rng))
        assert len(seen) == 1
        for X, Y in seen:
            assert np.array_equal(X, np.array(X_ref)) and np.array_equal(Y, np.array(Y_ref))

    def test_interleaves_the_trials_level_by_level(self):
        # The sweep runs every trial's geometry first and each estimator once
        # over all levels x trials; its records are run_trial's, reordered.
        cfg = ExperimentConfig(trials=3, noise_levels=(0.0, 0.04, 0.1), seed=7)
        per_trial = [run_trial(cfg, t) for t in range(cfg.trials)]
        n = len(ALGOS)
        expected = [r for lv in range(3) for records in per_trial for r in records[lv * n : (lv + 1) * n]]
        assert repr(run_noise_sweep(cfg)) == repr(expected)

    def test_deterministic(self, tmp_path):
        cfg = ExperimentConfig(trials=3, noise_levels=(0.0, 0.05), seed=5)
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        records_to_csv(run_noise_sweep(cfg), pa)
        records_to_csv(run_noise_sweep(cfg), pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_record_count(self):
        cfg = ExperimentConfig(trials=3, noise_levels=(0.0, 0.05), seed=5)
        records = run_noise_sweep(cfg)
        assert len(records) == 3 * 2 * len(ALGOS)

    def test_csv_round_trip(self, tmp_path):
        cfg = ExperimentConfig(trials=2, noise_levels=(0.0, 0.03), seed=5)
        records = run_noise_sweep(cfg)
        path = tmp_path / "sweep.csv"
        records_to_csv(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_HEADER
        assert len(rows) == 1 + len(records)
        # Aggregation recomputed from the raw CSV matches summarize().
        body = rows[1:]
        for s in summarize(records):
            angles = [
                float(r[3])
                for r in body
                if float(r[1]) == s["noise"] and r[2] == s["algo"]
            ]
            assert np.isclose(np.median(angles), s["median_angle"])

    def test_summarize_keys(self):
        cfg = ExperimentConfig(trials=2, noise_levels=(0.0,), seed=5)
        out = summarize(run_noise_sweep(cfg))
        assert {(s["noise"], s["algo"]) for s in out} == {
            (0.0, a) for a in ALGOS
        }
