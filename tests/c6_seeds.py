"""Criterion C6 of ``test_acceptance.py`` at seeds 0-15: for each seed, the
six noise-level medians of 7pt and cube8 and whether C6's two conditions
hold (cube8 <= 7pt at every level, cube8's medians non-decreasing).  Only
the seed differs from C6; its trials, levels and conditions are the same.

    PYTHONPATH=src python tests/c6_seeds.py

It uses only the public ``epicube.simulate`` API, so it runs on older
commits' ``src/`` too, and a change's numbers can be set beside its base's.
"""

from epicube.simulate import ExperimentConfig, run_noise_sweep, summarize

LEVELS = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10)
TRIALS = 300
SEEDS = range(16)


def medians(seed):
    """{algo: [median angle at each of LEVELS]} of C6's sweep at seed."""
    cfg = ExperimentConfig(trials=TRIALS, noise_levels=LEVELS, seed=seed)
    med = {(s["noise"], s["algo"]): s["median_angle"] for s in summarize(run_noise_sweep(cfg))}
    return {algo: [med[(level, algo)] for level in LEVELS] for algo in ("7pt", "cube8")}


def conditions(med):
    """C6's two conditions on medians(seed): (dominated, monotone)."""
    c8 = med["cube8"]
    return all(a <= b for a, b in zip(c8, med["7pt"])), all(a <= b for a, b in zip(c8, c8[1:]))


def fmt(values):
    return "[" + ", ".join(f"{v:.4g}" for v in values) + "]"


if __name__ == "__main__":
    held = 0
    for seed in SEEDS:
        med = medians(seed)
        dominated, monotone = conditions(med)
        held += dominated and monotone
        print(
            f"seed {seed:2d} dominated={dominated} monotone={monotone} "
            f"7pt={fmt(med['7pt'])} cube8={fmt(med['cube8'])}",
            flush=True,
        )
    print(f"C6 holds at {held} of {len(SEEDS)} seeds")
