"""Estimator inputs shared by the tests, and the digests that pin the
estimators' outputs on them.

Run as a script from a source checkout to print those digests for the
``epicube`` on the path, so two commits can be compared:

    PYTHONPATH=src python tests/estimate_pool.py

It imports nothing of ``epicube`` that a caller of the estimators does not
see, so it runs against older commits as well.
"""

import hashlib

import numpy as np

from conftest import X_IMAGE, Y_IMAGE
from epicube.degeneracy import build_Z, random_combinatorial_cube
from epicube.estimators import ALGOS, _estimate_all, cube_eight_point, fundamental_from_cameras, pencil_solve, seven_point
from epicube.exceptions import EpicubeError
from epicube.projective import focal_point, homogenize, project_all
from epicube.quadrics import NONRULED_NONDEGENERATE, classify, quadric_through_points
from epicube.simulate import add_noise, sample_camera_pair


def generic_scene(rng, n=8):
    """n generic world points viewed by two fixed cameras."""
    P = homogenize(rng.uniform(-1.0, 1.0, size=(n, 3)))
    A1 = np.hstack([np.eye(3), np.array([[4.0], [0.0], [8.0]])])
    A2 = np.hstack([np.eye(3), np.array([[-3.0], [2.0], [9.0]])])
    return project_all(A1, P), project_all(A2, P), fundamental_from_cameras(A1, A2)


def nonruled_geometries():
    """Noise-free images of a few well-posed cube geometries, with true F."""
    rng = np.random.default_rng(2024)
    pool = []
    while len(pool) < 4:
        cube = random_combinatorial_cube(rng)
        A1, A2 = sample_camera_pair(rng, 6.0)
        P = np.vstack([cube.vertices, focal_point(A1), focal_point(A2)])
        if classify(quadric_through_points(P)).tag == NONRULED_NONDEGENERATE:
            X = project_all(A1, cube.vertices)
            Y = project_all(A2, cube.vertices)
            pool.append((X, Y, fundamental_from_cameras(A1, A2)))
    return pool


def mixed_stack(nonruled):
    """(N, 8, 3) image stacks: noise-free and noisy images of the
    ``nonruled_geometries``, a generic scene, the standard instance (a point
    at infinity, so cube8 runs unconditioned), coincident points in the
    first image, collinear ones (every member of cube8's pencil has rank 1),
    and a repeated correspondence among the first seven."""
    rng = np.random.default_rng(99)
    X, Y = [], []
    for Xc, Yc, _ in nonruled:
        for sigma in (0.0, 0.02, 0.1):
            X.append(add_noise(Xc, sigma, rng))
            Y.append(add_noise(Yc, sigma, rng))
    Xg, Yg, _ = generic_scene(rng)
    repeat = [0, 1, 2, 2, 4, 5, 6, 7]
    t = rng.uniform(-1.0, 1.0, 8)
    collinear = homogenize(np.stack([t, 0.5 * t + 0.2], axis=1))
    X += [Xg, X_IMAGE, np.tile([1.0, 2.0, 1.0], (8, 1)), collinear, Xg[repeat]]
    Y += [Yg, Y_IMAGE, Yg, Yg, Yg[repeat]]
    return np.array(X), np.array(Y)


def special_pencils():
    """Generator pairs that reach every branch of the pencil solve: generic,
    rank-2 and near-dependent pairs, a cubic with a zero constant term, a
    trimmed cubic with no real root, dependent generators, an identically
    singular pencil, and the triple root of the standard instance."""
    rng = np.random.default_rng(7)
    pairs = [tuple(rng.standard_normal((2, 3, 3))) for _ in range(12)]
    U, s, Vt = np.linalg.svd(pairs[0][0])
    pairs.append(((U * [s[0], s[1], 0.0]) @ Vt, pairs[1][1]))
    pairs.append((pairs[2][0], pairs[2][0] + 1e-7 * pairs[2][1]))
    F2 = pairs[3][1].copy()
    F2[2] = 0.0
    pairs.append((pairs[3][0], F2))
    rotation = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    pairs.append((np.eye(3), rotation))
    pairs.append((pairs[4][0], -3.0 * pairs[4][0]))
    E = np.zeros((2, 3, 3))
    E[0, 0, 0] = E[1, 0, 1] = 1.0
    pairs.append(tuple(E))
    return pairs


def bench_like_pool(geometries=30):
    """(N, 8, 3) image stacks like the estimate benchmark's: random cubes seen
    by sample_camera_pair at radius 6, each at noise 0, 0.02 and 0.10, with
    each instance's geometry ruled or not."""
    rng = np.random.default_rng(30)
    X, Y, ruled = [], [], []
    for _ in range(geometries):
        cube = random_combinatorial_cube(rng)
        A1, A2 = sample_camera_pair(rng, 6.0)
        Xc, Yc = project_all(A1, cube.vertices), project_all(A2, cube.vertices)
        tag = classify(quadric_through_points(np.vstack([cube.vertices, focal_point(A1), focal_point(A2)]))).tag
        for sigma in (0.0, 0.02, 0.1):
            X.append(add_noise(Xc, sigma, rng))
            Y.append(add_noise(Yc, sigma, rng))
            ruled.append(tag != NONRULED_NONDEGENERATE)
    return np.array(X), np.array(Y), np.array(ruled)


def pinned_pool():
    """The (N, 8, 3) stacks the pinned digests are taken on: bench_like_pool
    followed by mixed_stack's failure cases and its live neighbours."""
    X, Y, _ = bench_like_pool()
    Xm, Ym = mixed_stack(nonruled_geometries())
    return np.concatenate([X, Xm]), np.concatenate([Y, Ym])


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _outcome(call):
    """call()'s result as a list of parts, or its exception's type and message."""
    try:
        out = call()
    except EpicubeError as exc:
        return [type(exc).__name__, str(exc)]
    return list(out) if isinstance(out, tuple) else [out]


def estimate_hashes(X, Y):
    """sha256 digests of _estimate_all over ALGOS on the (N, 8, 3) stacks
    (X, Y), and of cube_eight_point, seven_point(...).best and pencil_solve
    (on the two kernel generators of each instance's Z, then on
    special_pencils) called one by one."""
    F, residual, failures = _estimate_all(ALGOS, X, Y)
    stacked = [
        part
        for k in range(len(ALGOS))
        for part in (F[k], residual[k], [(n, type(e).__name__, str(e)) for n, e in failures[k].items()])
    ]
    pairs = [np.linalg.svd(build_Z(x, y))[2][7:].reshape(2, 3, 3) for x, y in zip(X, Y)] + special_pencils()

    def solved(F1, F2):
        sol = pencil_solve(F1, F2)
        return sol.roots, np.array(sol.candidates)

    return {
        "_estimate_all": _digest(stacked),
        "cube_eight_point": _digest(p for x, y in zip(X, Y) for p in _outcome(lambda: cube_eight_point(x, y))),
        "seven_point": _digest(
            p for x, y in zip(X, Y) for p in _outcome(lambda: seven_point(x[:7], y[:7]).best(x, y))
        ),
        "pencil_solve": _digest(p for F1, F2 in pairs for p in _outcome(lambda: solved(F1, F2))),
    }


if __name__ == "__main__":
    for name, digest in estimate_hashes(*pinned_pool()).items():
        print(name, digest)
