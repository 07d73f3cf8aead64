"""One ``label sha256`` line per output of ``epicube``, 141 in all, to show
that two commits give the same outputs, or which of them moved:

    git worktree add --detach ../base <base commit>
    PYTHONPATH=src python tests/fingerprint.py > pr.txt
    (cd ../base && PYTHONPATH=src python "$OLDPWD/tests/fingerprint.py") > base.txt
    diff base.txt pr.txt

It uses only ``epicube.cli.main``, the public region API and
``estimate_pool``, so it runs on older commits' ``src/`` too.  A family that
raises prints ``label ERROR <type>: <message>``, and the others still run.
"""

import contextlib
import hashlib
import io
import tempfile
import traceback
from pathlib import Path

import numpy as np

from epicube.cli import main as epicube
from epicube.degeneracy import random_combinatorial_cube, unit_cube
from epicube.quadrics import PlaneChart, region_grid
from estimate_pool import cube8_hash, estimate_hashes, pinned_pool, ruled_geometries

# The grids' first focal point, a tilted chart at z = 5 and one through F1.
F1 = [2.0, 3.0, 4.0, 1.0]
CHARTS = (
    PlaneChart((0.0, 0.0, 5.0), (1.0, 0.2, 0.0), (0.0, 1.0, -0.3)),
    PlaneChart((2.0, 3.0, 4.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-8.0, 11.0), (-8.0, 11.0)),
)


def sha256(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def grid_digests(cells):
    """sha256 of a ``region_grid``'s (u, v, tag, inertia) rows, and of its
    repr, margins included, so a margin change still shows its classes."""
    return sha256(repr([(u, v, qc.tag, qc.inertia) for u, v, qc in cells])), sha256(repr(cells))


def run(*argv):
    """The ``epicube`` command argv in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = epicube([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def written(path, *argv):
    """sha256 of the file that the command argv writes to path."""
    code, _, err = run(*argv, "--out", path)
    if code:
        raise RuntimeError(err.strip() or f"exit code {code}")
    return sha256(path.read_bytes())


def printed(*argv):
    """sha256 of the command argv's stdout and exit code."""
    code, out, _ = run(*argv)
    return sha256(f"{out}exit code {code}\n")


def cube_images(path):
    """Noisy images of the unit cube from two fixed cameras, as an estimate
    CSV written with numpy alone, so the input is the same on every commit."""
    cube = np.array([[x, y, z, 1.0] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    c, s = np.cos(1.2), np.sin(1.2)
    cameras = (
        np.array([[1.0, 0.0, 0.0, 0.3], [0.0, 1.0, 0.0, -0.2], [0.0, 0.0, 1.0, 6.0]]),
        np.array([[c, 0.0, -s, 0.1], [0.0, 1.0, 0.0, 0.4], [s, 0.0, c, 6.5]]),
    )
    rng = np.random.default_rng(0)
    images = [x[:, :2] / x[:, 2:] + 0.01 * rng.standard_normal((8, 2)) for x in (cube @ A.T for A in cameras)]
    with open(path, "w") as fh:
        fh.write("x1,x2,x3,y1,y2,y3\n")
        for (a, b), (u, v) in zip(*images):
            fh.write(",".join(repr(float(t)) for t in (a, b, 1.0, u, v, 1.0)) + "\n")


def bench_draw(i):
    """Draw i of the benchmark's grid family, all from one stream: a random
    cube, f1 = (2, 3, 4) + U(-0.5, 0.5)^3 and a chart at z = 5 + U(-0.5, 0.5)."""
    rng = np.random.default_rng(0)
    for _ in range(i + 1):
        f1 = np.append(np.array([2.0, 3.0, 4.0]) + rng.uniform(-0.5, 0.5, 3), 1.0)
        chart = PlaneChart((0.0, 0.0, 5.0 + float(rng.uniform(-0.5, 0.5))), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        drawn = random_combinatorial_cube(rng)
    return drawn, f1, chart


def families(tmp):
    """(labels, compute) in print order, compute() giving one digest per
    label, with files in the directory tmp.  Each grid's inputs() gives
    region_grid's (cube, f1, chart, resolution)."""
    for seed in (0, 7):
        args = ("simulate", "--trials", 300, "--seed", seed, "--noise-max", "0.10", "--levels", 6)
        yield [f"sweep-csv seed={seed}"], lambda args=args: [written(tmp / "sweep.csv", *args)]
    args = ("region", "--resolution", 50, "--f1", "2,3,4", "--plane-z", 5)
    yield ["region-csv"], lambda: [written(tmp / "region.csv", *args)]
    # The unit cube and random cubes 1-5 over both CHARTS at an odd and an
    # even resolution, then the bench family.
    grids = []
    for seed in ("unit", 1, 2, 3, 4, 5):
        cube = unit_cube if seed == "unit" else lambda seed=seed: random_combinatorial_cube(np.random.default_rng(seed))
        for k, chart in enumerate(CHARTS):
            for res in (41, 50):
                grids.append((f"{seed} {k} {res}", lambda cube=cube, chart=chart, res=res: (cube(), F1, chart, res)))
    for i in range(4):
        grids.append((f"bench {i} unit 50", lambda i=i: (unit_cube(), *bench_draw(i)[1:], 50)))
        grids.append((f"bench {i} random 50", lambda i=i: (*bench_draw(i), 50)))
    for label, inputs in grids:
        for method in ("auto", "general"):
            labels = [f"grid-{part} {label} {method}" for part in ("classes", "cells")]
            yield labels, lambda inputs=inputs, method=method: grid_digests(region_grid(*inputs(), method=method))
    for seed in (0, 7):
        args = ("exact-check", "--trials", 100, "--controls", 20, "--seed", seed)
        yield [f"exact-check seed={seed}"], lambda args=args: [printed(*args)]
    images = tmp / "images.csv"
    cube_images(images)
    for algo in ("8pt", "7pt", "cube8"):
        yield [f"estimate algo={algo}"], lambda algo=algo: [printed("estimate", "--input", images, "--algo", algo)]
    names = ("_estimate_all", "cube_eight_point", "seven_point", "pencil_solve")
    yield [f"estimates {name}" for name in names], lambda: [estimate_hashes(*pinned_pool())[n] for n in names]
    yield ["estimates cube_eight_point ruled"], lambda: [cube8_hash(ruled_geometries())]


def lines(labels, compute):
    """``label digest`` per label, or ``label ERROR <type>: <message>`` on
    every label where compute() raises."""
    try:
        digests = compute()
    except Exception as exc:
        traceback.print_exc()
        digests = [f"ERROR {type(exc).__name__}: {exc}"] * len(labels)
    return [f"{label} {digest}" for label, digest in zip(labels, digests, strict=True)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for labels, compute in families(Path(tmp)):
            print(*lines(labels, compute), sep="\n", flush=True)
