"""Monte-Carlo harness: random cameras, image noise, and the noise-sweep
experiment comparing the 8-point, 7-point and cube-8-point estimators.

Determinism contract: every output is a pure function of the master seed.
Trial geometry (cube, cameras) and one noise draw are keyed by (seed, trial)
and shared across noise levels: the sweep scales that draw for every level
in one stacked pass, which ``add_noise`` runs on one cloud.  Common random
numbers keep the per-level medians directly comparable along the noise grid.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .degeneracy import _cross3, random_combinatorial_cube
from .estimators import ALGOS, _estimate_all, _fundamental
from .exceptions import ExhaustedRetries
from .quadrics import _nonruled
from .projective import (
    _angles,
    _focal_points,
    _unit,
    as_points,
    dehomogenize,
    homogenize,
    project_all,
)

FAILED_ANGLE = math.pi / 2.0
CAMERA_RADIUS = 6.0
# Least camera-center separation, in units of the camera radius; the +-5%
# shell allows at most 2.1.
MIN_SEPARATION = 1.97
# Retry budgets: about 1 in 34 camera draws is separated enough and 18% of
# camera pairs give a non-ruled quadric, so one budget runs out with
# probability (33/34)^10000 ~ 2e-130 or 0.82^1000 ~ 7e-87, and a 2000-trial
# x 11-level sweep (~122_000 pairs, 22_000 geometries) hits one below 1e-80.
MAX_CAMERA_DRAWS = 10_000
MAX_GEOMETRY_ATTEMPTS = 1_000


@dataclass(slots=True)
class TrialRecord:
    trial: int
    noise: float
    algo: str
    angle_rad: float
    residual: float
    failed: bool
    cube_seed: int
    cam_seed: int


@dataclass
class ExperimentConfig:
    trials: int = 2000
    noise_levels: tuple = tuple(np.linspace(0.0, 0.10, 11))
    seed: int = 0

    def __post_init__(self):
        for name, least in (("trials", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
                raise ValueError(f"{name} must be an integer >= {least}")
        if np.ndim(self.noise_levels) != 1 or len(self.noise_levels) < 1:
            raise ValueError("noise_levels must be a sequence of at least one level")
        if not all(0 <= n < math.inf for n in self.noise_levels):
            raise ValueError("noise levels must be finite and nonnegative")


def look_at_camera(f):
    """Camera [R | -R f] at affine center f, principal axis toward origin; a
    zero or non-finite center raises ValueError."""
    f = np.asarray(f, dtype=float).reshape(3)
    if not (np.isfinite(f).all() and f.any()):
        raise ValueError("camera center must be finite and nonzero")
    z = -_unit(f[None])[0]
    up = (0.0, 1.0, 0.0) if abs(z[2]) > 0.99 else (0.0, 0.0, 1.0)
    # up x z and z x x in Python floats: np.cross costs about 20 us per call.
    x = np.array(_cross3(up, z.tolist()))
    x /= math.sqrt(x.dot(x))
    R = np.array([x, _cross3(z.tolist(), x.tolist()), z])
    return np.hstack([R, (-R @ f)[:, None]])


def sample_camera_pair(rng, radius):
    """Two look-at cameras, at the centres that ``_camera_centres`` draws."""
    return tuple(map(look_at_camera, _camera_centres(rng, radius)))


def _camera_centres(rng, radius):
    """Two affine camera centres on a +-5% shell of the radius, resampled
    until they are at least 1.97 * radius apart (wide-baseline pairs viewing
    the scene from nearly opposite sides): narrow baselines amplify image
    noise dramatically in the near-critical cube geometry.  Raises
    ExhaustedRetries after MAX_CAMERA_DRAWS draws.

    Each draw makes rng.standard_normal(3) and rng.random() per center, in
    that order; 0.95 + (1.05 - 0.95) * random() is rng.uniform(0.95, 1.05)
    bit for bit.  The separation is tested in units of the radius, so no
    square under- or overflows at any radius and every radius accepts the
    same draws.
    """
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    for _ in range(MAX_CAMERA_DRAWS):
        v1 = rng.standard_normal(3)
        f1 = 0.95 + (1.05 - 0.95) * rng.random()
        v2 = rng.standard_normal(3)
        f2 = 0.95 + (1.05 - 0.95) * rng.random()
        (x1, y1, z1), (x2, y2, z2) = v1.tolist(), v2.tolist()
        s1 = f1 / math.sqrt(x1 * x1 + y1 * y1 + z1 * z1)
        s2 = f2 / math.sqrt(x2 * x2 + y2 * y2 + z2 * z2)
        dx, dy, dz = s1 * x1 - s2 * x2, s1 * y1 - s2 * y2, s1 * z1 - s2 * z2
        if dx * dx + dy * dy + dz * dz >= MIN_SEPARATION**2:
            # Norms as sqrt(x.dot(x)), which is what np.linalg.norm computes
            # for a vector, without its per-call overhead.
            return radius * f1 * (v1 / math.sqrt(v1.dot(v1))), radius * f2 * (v2 / math.sqrt(v2.dot(v2)))
    raise ExhaustedRetries(f"no separated camera pair in {MAX_CAMERA_DRAWS} draws")


def add_noise(pts, sigma_frac, rng):
    """Gaussian pixel noise scaled by the bounding-box diagonal.

    Points are dehomogenized, perturbed i.i.d. with standard deviation
    sigma_frac * (bbox diagonal of the cloud), and rehomogenized.
    """
    if not 0 <= sigma_frac < math.inf:
        raise ValueError("sigma_frac must be finite and nonnegative")
    P = as_points(pts, 3)
    aff = dehomogenize(P)
    if sigma_frac == 0.0:
        return P.copy()
    return _perturb(aff, sigma_frac, rng.standard_normal(aff.shape))


def _perturb(aff, sigma, z):
    """homogenize(aff + sigma * diag * z) on a (..., n, 2) stack of affine
    clouds, diag each cloud's bbox diagonal and sigma broadcast over the
    stack axes.  It rounds as np.linalg.norm and Generator.normal(0.0,
    sigma * diag) do when that normal draws the standard normals z."""
    d = aff.max(axis=-2) - aff.min(axis=-2)
    scale = sigma * np.sqrt(np.vecdot(d, d))
    return homogenize(aff + (0.0 + scale[..., None, None] * z))


def _seed_of(seq):
    return int(seq.generate_state(1)[0])


def _geometry(cfg, trial_idx):
    """A trial's well-posed geometry and noise draw: (cube_seed, cam_seed,
    z, F_true, X, Y), z the standard normals that perturb X, then Y."""
    geo = np.random.SeedSequence([cfg.seed, trial_idx])
    cube_ss, cam_ss, noise_ss = geo.spawn(3)
    cube_rng = np.random.default_rng(cube_ss)
    cam_rng = np.random.default_rng(cam_ss)
    cube = random_combinatorial_cube(cube_rng)
    for attempt in range(1, MAX_GEOMETRY_ATTEMPTS + 1):
        # A ruled 10-point quadric is a critical configuration: several
        # rank-2 pencil members fit the data exactly and residual selection
        # cannot tell them apart (a facet score can; no estimator uses one).
        # Resample until well-posed (a fresh cube every 16 camera draws).
        if attempt % 16 == 0:
            cube = random_combinatorial_cube(cube_rng)
        c1, c2 = _camera_centres(cam_rng, CAMERA_RADIUS)
        if _nonruled(cube, c1, c2):
            break
    else:
        raise ExhaustedRetries(f"no non-ruled geometry in {MAX_GEOMETRY_ATTEMPTS} attempts")
    A1, A2 = look_at_camera(c1), look_at_camera(c2)
    F_true = _fundamental(A1, A2, *_focal_points(np.array([A1, A2])))
    X = project_all(A1, cube.vertices)
    Y = project_all(A2, cube.vertices)
    z = np.random.default_rng(noise_ss).standard_normal((2, len(X), 2))
    return _seed_of(cube_ss), _seed_of(cam_ss), z, F_true, X, Y


def _run(cfg, trials):
    """Records of the trials at every level of cfg: level by level, trial by
    trial within a level, one record per algorithm.

    Every trial's geometry and noise draw come first, then the images of all
    levels x trials in one pass (clean at noise 0).  One ``_estimate_all``
    call runs every estimator over that stack: each F and residual (inf where
    it raised).
    """
    geos = [_geometry(cfg, t) for t in trials]
    # Axes (X or Y, [level,] trial, point, coordinate).
    clean = np.array([[g[4] for g in geos], [g[5] for g in geos]])
    z = np.array([g[2] for g in geos]).swapaxes(0, 1)[:, None]
    sigma = np.array(cfg.noise_levels, dtype=float)
    images = _perturb(dehomogenize(clean)[:, None], sigma[:, None], z)
    images[:, sigma == 0.0] = clean[:, None]
    X, Y = images.reshape(2, -1, *clean.shape[2:])
    F_true = np.array([g[3] for g in geos] * len(cfg.noise_levels))
    # (instance, algorithm) in record order.
    F, resid, _ = _estimate_all(ALGOS, X, Y)
    F, resid = np.stack(F, axis=1), np.stack(resid, axis=1)
    failed = np.isinf(resid)
    inst, algo = np.nonzero(~failed)
    angle = np.zeros(failed.shape)
    angle[inst, algo] = _angles(F[inst, algo].reshape(-1, 9), F_true[inst].reshape(-1, 9))
    scores = zip(angle.tolist(), resid.tolist(), failed.tolist())
    records = []
    for sigma in cfg.noise_levels:
        noise = float(sigma)
        for t, (cube_seed, cam_seed, *_) in zip(trials, geos):
            for algo, a, r, fail in zip(ALGOS, *next(scores)):
                a, r = (FAILED_ANGLE, math.nan) if fail else (a, r)
                records.append(TrialRecord(t, noise, algo, a, r, fail, cube_seed, cam_seed))
    return records


def run_trial(cfg, trial_idx):
    """One trial at every noise level of cfg; returns a record per
    algorithm and level, level by level.

    The geometry is built once; each level adds its own scaling of the same
    noise draw.
    """
    return _run(cfg, [trial_idx])


def run_noise_sweep(cfg):
    """Full sweep: cfg.trials per noise level, three algorithms each.

    Records come level by level, trial by trial within a level.  Every
    trial's geometry is built first, then each estimator runs once over
    all levels x trials.
    """
    return _run(cfg, range(cfg.trials))


CSV_HEADER = ("trial", "noise", "algo", "angle_rad", "residual", "failed", "cube_seed", "cam_seed")


def records_to_csv(records, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        # csv writes a float as its repr, so NaN as "nan".
        w.writerows(
            [r.trial, r.noise, r.algo, r.angle_rad, r.residual, int(r.failed), r.cube_seed, r.cam_seed]
            for r in records
        )


def summarize(records):
    """Per (noise, algo): mean/median angle and failure rate."""
    keys = sorted({(r.noise, r.algo) for r in records})
    out = []
    for noise, algo in keys:
        angles = [r.angle_rad for r in records if r.noise == noise and r.algo == algo]
        fails = [r.failed for r in records if r.noise == noise and r.algo == algo]
        out.append(
            {
                "noise": noise,
                "algo": algo,
                "median_angle": float(np.median(angles)),
                "mean_angle": float(np.mean(angles)),
                "fail_rate": float(np.mean(fails)),
                "n": len(angles),
            }
        )
    return out
