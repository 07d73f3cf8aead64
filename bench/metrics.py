"""Metric names, units and directions, and the per-layer metrics of a trace.

BENCHMARK.json lists the same metrics; ``selftest.py`` checks that the two
agree.
"""

from tracer import LAYERS

# (name, unit, better, bound): reported with tracing off.  On a shared
# host the speed one process gets drifts by 20-40% from run to run; scaled
# by the reference kernel (see run.py), ten-seed spreads of the step
# timings measured 1-9%, and of setup_s, whose input generation depends on
# the seed, 12-20%.
END_TO_END = (
    ("items_per_s", "items/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p99", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

# (function, stat, the end-to-end metric and workload it should move), read
# straight off the trace.  us_per_call is the mean inclusive time of one
# call; self_ms is the total self time.
FUNCTION_STATS = (
    ("simulate.run_trial", "self_ms", "items_per_s on sweep"),
    ("simulate.sample_camera_pair", "calls", "items_per_s on sweep; nothing on estimate"),
    ("simulate.sample_camera_pair", "us_per_call", "items_per_s on sweep"),
    ("degeneracy.random_combinatorial_cube", "calls", "items_per_s on sweep"),
    ("degeneracy.random_combinatorial_cube", "self_ms", "items_per_s on sweep"),
    ("degeneracy.random_combinatorial_cube", "us_per_call", "items_per_s on sweep"),
    ("degeneracy.is_combinatorial_cube", "us_per_call", "items_per_s on sweep"),
    ("degeneracy.build_Z", "us_per_call", "latency_ms_p50 on estimate"),
    ("degeneracy.kernel_basis", "calls", "estimate and region"),
    ("degeneracy.kernel_basis", "us_per_call", "estimate and region"),
    ("degeneracy.veronese_matrix", "us_per_call", "items_per_s on region"),
    ("exact.random_rational_cube", "calls", "items_per_s on sweep"),
    ("exact.random_rational_cube", "us_per_call", "items_per_s on sweep (its largest share)"),
    ("exact.exact_det", "calls", "items_per_s on certify, and sweep"),
    ("exact.exact_det", "self_ms", "items_per_s on certify, and sweep"),
    ("exact.exact_rank", "us_per_call", "items_per_s on certify"),
    ("exact.exact_turnbull_young", "us_per_call", "items_per_s on certify"),
    ("estimators.cube_eight_point", "us_per_call", "latency_ms_p50 on estimate"),
    ("estimators.cube_eight_point", "self_ms", "items_per_s on estimate"),
    ("estimators.hartley_normalize", "us_per_call", "estimate"),
    ("estimators.eckart_young_rank7", "calls", "estimate; 0 once the second SVD goes"),
    ("estimators.pencil_solve", "us_per_call", "estimate"),
    ("estimators.seven_point", "us_per_call", "sweep"),
    ("estimators.eight_point", "us_per_call", "sweep"),
    ("quadrics.quadric_through_points", "us_per_call", "region, and a smaller share of sweep"),
    ("quadrics.classify", "us_per_call", "region, and a smaller share of sweep"),
    ("quadrics.unit_cube_quadric", "us_per_call", "region"),
    ("quadrics.region_grid", "self_ms", "region"),
    ("projective.project_all", "us_per_call", "sweep"),
    ("projective.focal_point", "calls", "sweep"),
    ("projective.epipolar_residual", "calls", "estimate (residual selection) and sweep"),
    ("projective.epipolar_residual", "us_per_call", "estimate and sweep"),
    ("projective.grassmann_angle", "us_per_call", "sweep"),
)

STAT_UNITS = {"calls": ("count", "lower"), "self_ms": ("ms", "lower"), "us_per_call": ("us", "lower")}

# What run_trial calls to build a well-posed geometry, and the estimators it
# compares; their inclusive times split the sweep.
GEOMETRY_CALLS = (
    "degeneracy.random_combinatorial_cube",
    "simulate.sample_camera_pair",
    "projective.focal_point",
    "quadrics.quadric_through_points",
    "quadrics.classify",
)
ESTIMATOR_CALLS = ("estimators.eight_point", "estimators.seven_point", "estimators.cube_eight_point")

# (name, unit, better) of the derived per-layer metrics.
DERIVED = (
    # Non-ruled classifications per camera pair drawn: items_per_s on sweep.
    ("simulate.geometry_accept_ratio", "ratio", "higher"),
    # Shares of run_trial's time in geometry and in the three estimators.
    ("simulate.run_trial.geometry_frac", "ratio", "lower"),
    ("simulate.run_trial.estimator_frac", "ratio", "lower"),
    # Cubes returned per exact candidate drawn: items_per_s on sweep.
    ("degeneracy.cube_accept_ratio", "ratio", "higher"),
    # Rank-2 pencil members per pencil_solve call: estimate.
    ("estimators.pencil_candidates_per_call", "count", "lower"),
    # DEGENERATE cells per region_grid cell: region.
    ("quadrics.degenerate_cell_frac", "ratio", "lower"),
) + tuple((f"{layer}.self_ms", "ms", "lower") for layer in LAYERS) + (
    ("root_coverage_frac", "ratio", "higher"),
    ("tracing_overhead_frac", "ratio", "lower"),
)


# Counts, and ratios of counts: fixed by the seed, so they repeat exactly.
COUNTED_RATIOS = (
    "simulate.geometry_accept_ratio",
    "degeneracy.cube_accept_ratio",
    "estimators.pencil_candidates_per_call",
    "quadrics.degenerate_cell_frac",
)


def repeatable(name, unit):
    return unit == "count" or name in COUNTED_RATIOS


def per_layer_spec():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    spec = [(f"{fn}.{stat}", *STAT_UNITS[stat]) for fn, stat, _ in FUNCTION_STATS]
    return spec + list(DERIVED)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_values(tracer, steps_s, scale):
    """The per-layer metrics of a traced pass whose steps took ``steps_s``.

    Times are multiplied by ``scale``, the pass's machine-speed scale.
    tracing_overhead_frac needs the untraced pass and is left to the caller.
    """
    stats, root_s = tracer.summary()
    values = {}
    for fn, stat, _ in FUNCTION_STATS:
        st = stats[fn]
        if stat == "calls":
            values[f"{fn}.{stat}"] = st["calls"]
        elif stat == "self_ms":
            values[f"{fn}.{stat}"] = 1e3 * scale * st["self_s"]
        else:
            values[f"{fn}.{stat}"] = 1e6 * scale * _ratio(st["incl_s"], st["calls"])

    pairs = stats["simulate.sample_camera_pair"]["calls"]
    nonruled = tracer.counts["quadrics.classify.nonruled<simulate.run_trial"]
    values["simulate.geometry_accept_ratio"] = _ratio(nonruled, pairs)
    trial_s = stats["simulate.run_trial"]["incl_s"]
    values["simulate.run_trial.geometry_frac"] = _ratio(
        tracer.child_time("simulate.run_trial", GEOMETRY_CALLS), trial_s
    )
    values["simulate.run_trial.estimator_frac"] = _ratio(
        tracer.child_time("simulate.run_trial", ESTIMATOR_CALLS), trial_s
    )
    cubes = stats["degeneracy.random_combinatorial_cube"]
    candidates = tracer.calls_under("exact.random_rational_cube", "degeneracy.random_combinatorial_cube")
    values["degeneracy.cube_accept_ratio"] = _ratio(cubes["calls"] - cubes["errors"], candidates)
    pencil = stats["estimators.pencil_solve"]
    values["estimators.pencil_candidates_per_call"] = _ratio(
        tracer.counts["estimators.pencil_solve.candidates"], pencil["calls"] - pencil["errors"]
    )
    values["quadrics.degenerate_cell_frac"] = _ratio(
        tracer.counts["quadrics.region_grid.degenerate"], tracer.counts["quadrics.region_grid.cells"]
    )
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = 1e3 * scale * sum(
            st["self_s"] for name, st in stats.items() if name.startswith(layer + ".")
        )
    values["root_coverage_frac"] = _ratio(root_s, steps_s)
    return values
