"""Command-line surface.

Subcommands: estimate, verify-degeneracy, simulate, region, exact-check.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import csv
import math
import sys

import numpy as np

from . import degeneracy, exact, quadrics, simulate
from .estimators import ALGOS, _estimate_one
from .exceptions import EpicubeError
from .projective import canonical_fmatrix


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _finite(text):
    """A finite float option value."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _point(text):
    """Three finite comma-separated numbers."""
    xyz = [_finite(t) for t in text.split(",")]
    if len(xyz) != 3:
        raise argparse.ArgumentTypeError(f"need three numbers x,y,z, got {text!r}")
    return xyz


def _read_columns(path, names):
    """The named float columns of a CSV file with a header row, as (n, k)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None or not set(names).issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected header {','.join(names)}")
        rows = [[float(row[k]) for k in names] for row in reader]
    return np.array(rows, dtype=float).reshape(-1, len(names))


def _cmd_estimate(args):
    XY = _read_columns(args.input, ("x1", "x2", "x3", "y1", "y2", "y3"))
    F, residual = _estimate_one(args.algo, XY[:, :3], XY[:, 3:])
    for row in canonical_fmatrix(F):
        print(" ".join(repr(float(v)) for v in row))
    print(f"residual: {residual!r}")
    return 0


def _cmd_verify_degeneracy(args):
    P = _read_columns(args.input, ("p1", "p2", "p3", "p4"))
    V = degeneracy.veronese_matrix(P)
    vrank = degeneracy.numerical_rank(V)
    print(f"n_points: {len(P)}")
    print(f"veronese_rank: {vrank}")
    print(f"z_rank_bound: {min(vrank, 9)}")
    if len(P) == 8:
        ok, _ = degeneracy.is_combinatorial_cube(P)
        print(f"combinatorial_cube: {ok}")
    else:
        print("combinatorial_cube: n/a (need 8 labeled points)")
    return 0


def _cmd_simulate(args):
    levels = np.linspace(0.0, args.noise_max, args.levels)
    cfg = simulate.ExperimentConfig(
        trials=args.trials, noise_levels=tuple(levels), seed=args.seed
    )
    records = simulate.run_noise_sweep(cfg)
    simulate.records_to_csv(records, args.out)
    for row in simulate.summarize(records):
        print(
            f"noise={row['noise']:.4f} algo={row['algo']:>5s} "
            f"median_angle={row['median_angle']:.3e} fail_rate={row['fail_rate']:.3f}"
        )
    return 0


def _cmd_region(args):
    f1 = np.array(args.f1 + [1.0])
    chart = quadrics.PlaneChart(
        origin=(0.0, 0.0, args.plane_z),
        u_dir=(1.0, 0.0, 0.0),
        v_dir=(0.0, 1.0, 0.0),
        u_range=(-args.extent, args.extent),
        v_range=(-args.extent, args.extent),
    )
    cells = quadrics.region_grid(
        degeneracy.unit_cube(), f1, chart, args.resolution
    )
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "v", "class", "n_plus", "n_minus", "n_zero"])
        for u, v, qc in cells:
            w.writerow([repr(u), repr(v), qc.tag, *qc.inertia])
    tags = {qc.tag for _, _, qc in cells}
    print(f"cells: {len(cells)}")
    print(f"classes: {sorted(tags)}")
    return 0


def _cmd_exact_check(args):
    rng = np.random.default_rng(args.seed)
    res = exact.vanishing_certificate(rng, trials=args.trials, controls=args.controls)
    print(f"invariant vanished: {res['vanished']}/{res['trials']}")
    print(f"veronese rank <= 7: {res['rank_ok']}/{res['trials']}")
    print(f"nonzero controls:   {res['nonzero_controls']}/{res['controls']}")
    ok = (
        res["vanished"] == res["trials"]
        and res["rank_ok"] == res["trials"]
        and res["nonzero_controls"] == res["controls"]
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


def build_parser():
    parser = _Parser(prog="epicube", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate F from a correspondence CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--algo", choices=ALGOS, default="cube8")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("verify-degeneracy", help="rank audit of a 3D point file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_verify_degeneracy)

    p = sub.add_parser("simulate", help="noise-sweep experiment, CSV output")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-max", type=_finite, default=0.10)
    p.add_argument("--levels", type=int, default=11)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("region", help="quadric-class grid for the unit cube")
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--f1", type=_point, default="2,3,4", help="first focal point x,y,z")
    p.add_argument("--plane-z", type=_finite, default=5.0)
    p.add_argument("--extent", type=_finite, default=6.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("exact-check", help="exact rational vanishing certificate")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--controls", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_exact_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    minimums = (("trials", 1), ("controls", 1), ("levels", 1), ("resolution", 2), ("noise_max", 0))
    for name, minimum in minimums:
        if getattr(args, name, minimum) < minimum:
            parser.error(f"--{name.replace('_', '-')} must be >= {minimum}")
    if getattr(args, "extent", 1) <= 0:
        parser.error("--extent must be > 0")
    try:
        return args.func(args)
    except (EpicubeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
