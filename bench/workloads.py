"""Workload inputs of the benchmark, made from the benchmark seed alone.

The same seed always gives the same inputs; the program under test only
ever sees what these functions return.  Why each workload exists is
recorded in README.md next to this file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WORKLOADS = ("cycle_small", "cycle_large", "sweep_cli", "nist_cli")

# Scenario documents handed to ``parse_scenario`` during set-up.
CYCLE_SCENARIOS = {
    "cycle_small": (
        "n_vehicles = 4\n"
        "pair_distance_m = 2.0\n"
        "slots = 200\n"
        "z_iterations = 1\n"
        "n_intervals = 2\n"
        "grid_size = 64\n"
    ),
    "cycle_large": (
        "n_vehicles = 10\n"
        "pair_distance_m = 2.0\n"
        "slots = 1000\n"
        "z_iterations = 10\n"
        "n_intervals = 8\n"
        "grid_size = 64\n"
    ),
}

# Distinct cycle seeds per run.  The closed loop goes round them until the
# run's time is up, so a revisited seed must reproduce its key.  One round
# takes about a second on cycle_small and about two on cycle_large, so a
# traced run covers every seed both untraced and traced.
CYCLE_SEED_COUNT = {"cycle_small": 256, "cycle_large": 16}

# The CLI's ``--seed-base`` replaces the listed seeds with the base onward,
# so the seed count per point stays the one listed here.  An untraced run
# goes round SWEEP_BASES seed bases: the sweep's peak memory depends on
# the keys (the battery's DFT size follows the corpus length), so one base
# alone would make the run's peak depend on the seed.
SWEEP_SEEDS_PER_POINT = 50
SWEEP_BASES = 8
SWEEP_SLOTS = 2000
SWEEP_SCENARIO = (
    "n_vehicles = 4\n"
    "pair_distance_m = 2.0\n"
    f"slots = {SWEEP_SLOTS}\n"
    "z_iterations = 1\n"
    "n_intervals = 2\n"
    "grid_size = 64\n"
    "beacon_loss_prob = 0.2\n"
    "data_loss_prob = 0.2\n"
    f"seeds = 0..{SWEEP_SEEDS_PER_POINT - 1}\n"
    "sweep_axis = n_vehicles\n"
    "sweep_values = 4,8\n"
)
SWEEP_POINTS = 2
SWEEP_UNITS = SWEEP_POINTS * SWEEP_SEEDS_PER_POINT

NIST_FILES = 4
NIST_BITS = 200_000


def cycle_seeds(workload: str, seed: int) -> list[tuple[int, int]]:
    """Entropy of each distinct cycle, for ``np.random.SeedSequence``."""
    return [(seed, k) for k in range(CYCLE_SEED_COUNT[workload])]


def sweep_seed_bases(seed: int) -> list[int]:
    """The ``--seed-base`` of each distinct sweep; the bases' seed ranges
    do not overlap."""
    return [(seed * SWEEP_BASES + j) * SWEEP_SEEDS_PER_POINT
            for j in range(SWEEP_BASES)]


def nist_bits(seed: int) -> list[np.ndarray]:
    """The 0/1 streams fed to ``platoonkey nist``, one per file."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    return [rng.integers(0, 2, size=NIST_BITS, dtype=np.uint8)
            for _ in range(NIST_FILES)]


def write_nist_files(bits: list[np.ndarray], directory: Path) -> list[Path]:
    """Write each stream as one line of ASCII 0/1 characters."""
    paths = []
    for i, stream in enumerate(bits):
        path = directory / f"bits{i}.txt"
        path.write_bytes((stream + ord("0")).tobytes() + b"\n")
        paths.append(path)
    return paths
