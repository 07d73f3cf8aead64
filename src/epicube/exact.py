"""Exact rational-arithmetic backend.

The algebra itself (Veronese lift, brackets, the invariant, the cube
closure) is the ring-generic code of ``degeneracy``, as is the integer cube
sampler; this module runs the algebra on Python ints, each rational row
scaled by the lcm of its denominators, and returns the Fractions it equals.
It adds what only the rationals need: one fraction-free elimination behind
the determinant and the rank, the rational samplers, and the randomized
certificate that the reduced Turnbull-Young invariant vanishes on the
facet-coplanarity variety of the combinatorial cube.
"""

from fractions import Fraction
from math import lcm, prod

import numpy as np

from .degeneracy import CUBE_LABELS, _integer_cube, invariant_terms, veronese_lift


def _as_matrix(M, width=None):
    """M as rows of exact rationals (ints and Fractions kept, the rest through
    Fraction), nonempty, of equal length, and ``width`` long if it is given."""
    rows = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in M]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix rows must be nonempty and of equal length")
    if width is not None and len(rows[0]) != width:
        raise ValueError(f"expected rows of length {width}, got {len(rows[0])}")
    return rows


def _integer_rows(M, width=None):
    """The rows of the rational matrix M, each times the positive lcm of its
    denominators, and those multipliers; rows with multiplier 1 pass as they are
    (ints, or Fractions of denominator 1, which ``_eliminate`` divides exactly)."""
    # ints and Fractions already carry a numerator and a denominator.
    rows = _as_matrix(M, width)
    mults = [lcm(*(x.denominator for x in r)) for r in rows]
    ints = [r if m == 1 else [x.numerator * (m // x.denominator) for x in r] for r, m in zip(rows, mults)]
    return ints, mults


def _eliminate(A):
    """Fraction-free (Bareiss) elimination of the integer matrix A in place.

    Returns the pivots, one per rank, and the sign of the row permutation.
    After each step every updated entry is a minor of A, so the division by
    the previous pivot is exact and the last pivot of a nonsingular square A
    is its determinant up to that sign.
    """
    n_rows, n_cols = len(A), len(A[0])
    sign, prev = 1, 1
    pivots = []
    for col in range(n_cols):
        row = len(pivots)
        if row == n_rows:
            break
        pivot = next((i for i in range(row, n_rows) if A[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != row:
            A[row], A[pivot] = A[pivot], A[row]
            sign = -sign
        top = A[row]
        pv = top[col]
        for i in range(row + 1, n_rows):
            r = A[i]
            f = r[col]
            r[col + 1 :] = [(x * pv - f * t) // prev for x, t in zip(r[col + 1 :], top[col + 1 :])]
        pivots.append(pv)
        prev = pv
    return pivots, sign


def exact_det(M):
    """Exact determinant: the signed last Bareiss pivot over the row multipliers."""
    A, mults = _integer_rows(M)
    n = len(A)
    if any(len(r) != n for r in A):
        raise ValueError("determinant needs a square matrix")
    pivots, sign = _eliminate(A)
    return Fraction(sign * pivots[-1], prod(mults)) if len(pivots) == n else Fraction(0)


def exact_rank(M):
    """Exact rank over the rationals."""
    return len(_eliminate(_integer_rows(M)[0])[0])


def exact_veronese_matrix(P):
    """Degree-2 Veronese lifts of rational points of P^3, one row each."""
    return veronese_lift(np.array(_as_matrix(P, 4), dtype=object)).tolist()


def exact_turnbull_young(config):
    """Exact reduced Turnbull-Young invariant of a 10-point configuration.

    ``config`` is indexable by label 0..9, each entry a rational 4-vector.
    """
    if len(config) != 10:
        raise ValueError("need the full 10-point labeled configuration")
    # Every monomial has degree 2 in each point, so scaling point i by L_i
    # scales the invariant by L_i**2.
    rows, mults = _integer_rows(config, 4)
    return Fraction(sum(invariant_terms(rows)), prod(mults) ** 2)


def random_fraction(rng, lo, hi):
    """Uniform-ish rational in [lo, hi] with denominator <= 1000."""
    den = int(rng.integers(1, 1001))
    num = int(rng.integers(int(lo * den), int(hi * den) + 1))
    return Fraction(num, den)


def random_rational_point(rng):
    """Random affine rational point of P^3 with coordinates in [-10, 10]."""
    return tuple([random_fraction(rng, -10, 10) for _ in range(3)] + [Fraction(1)])


def random_rational_cube(rng, apply_map=True):
    """Random combinatorial-cube candidate with exact rational vertices,
    affinely mapped into the box [-1, 1]^3.

    Facet coplanarity holds exactly by construction; convexity is not
    checked here (callers reject on the floating-point incidence test).
    """
    nums, dens = _integer_cube(rng, apply_map)
    return tuple(
        tuple(Fraction(n, d) for n, d in zip(row, dens)) + (Fraction(1),) for row in nums
    )


def vanishing_certificate(rng, trials=100, controls=20):
    """Randomized certificate that the bracket invariant vanishes on cubes.

    Evaluates the exact invariant on random rational cubes (alternating
    normal-form and affinely mapped samples) with random rational focal
    points, checks the exact Veronese rank bound, and evaluates perturbed
    non-cube controls that must give a nonzero invariant.

    Returns a dict with counts: cube trials where the invariant vanished
    and the rank stayed <= 7, and controls where it did not vanish.  Raises
    ValueError unless ``trials`` and ``controls`` are integers (not bools) >= 1.
    """
    for v in (trials, controls):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise ValueError("trials and controls must be integers >= 1")
    vanished = rank_ok = nonzero_controls = 0
    for i in range(trials + controls):
        control = i >= trials
        nums, dens = _integer_cube(rng, apply_map=control or bool(i % 2))
        # The map diag(dens, 1) takes the cube to the integer points
        # (nums, 1): it keeps the Veronese rank and scales the invariant by
        # its determinant to the fifth power, which is nonzero.
        cube = [row + [1] for row in nums]
        if control:
            # Knock vertex 8 (position 6) off its three facet planes.
            cube[6] = [x + d * random_fraction(rng, 1, 3) / 7 for x, d in zip(nums[6], dens)] + [1]
        f1 = [x * d for x, d in zip(random_rational_point(rng), dens)] + [1]
        f2 = [x * d for x, d in zip(random_rational_point(rng), dens)] + [1]
        invariant = exact_turnbull_young(exact_config_ten(cube, f1, f2))
        if control:
            nonzero_controls += invariant != 0
        else:
            vanished += invariant == 0
            # w first: the same rank, and Bareiss pivots on the lift's constant column first.
            rank_ok += exact_rank(exact_veronese_matrix([r[3:] + r[:3] for r in cube])) <= 7
    return {
        "trials": trials,
        "vanished": vanished,
        "rank_ok": rank_ok,
        "controls": controls,
        "nonzero_controls": nonzero_controls,
    }


def exact_config_ten(cube_vertices, f1, f2):
    """Labeled 10-point configuration from cube vertices + focals, the rows
    as given (``exact_turnbull_young`` takes ints and Fractions alike)."""
    if len(cube_vertices) != 8:
        raise ValueError("a cube has exactly 8 vertices")
    config = [None] * 10
    for lab, v in zip(CUBE_LABELS, cube_vertices):
        config[lab] = v
    config[4], config[5] = f1, f2
    return config
