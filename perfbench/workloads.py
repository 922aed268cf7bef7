"""Seeded scenario lists for the four benchmark workloads.

A workload is a fixed list of scenario classes (space, experiment, size).
The seed only changes the content of each class: the random-instance seeds
and the inline atoms. A run makes several passes over the same list, so
every run of a workload has the same mix of classes and the same number of
samples, and a burst of outside load hits one pass rather than the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from cat0ot.harness import Scenario

E2 = {"kind": "euclidean", "dim": 2}
BOOK3 = {"kind": "open_book", "pages": 3}
TRIPOD = {"kind": "tripod"}
COMB316 = {"kind": "comb", "depth": 3, "grid": 16}
COMB14 = {"kind": "comb", "depth": 1, "grid": 4}
SPACES = (E2, BOOK3, TRIPOD, COMB316, COMB14)

# simplex-random: non-uniform random weights, so every solve takes the dense
# transportation simplex; (space, n, m), with m != n allowed.
SIMPLEX_CLASSES = (
    (E2, 40, 48),
    (BOOK3, 55, 45),
    (TRIPOD, 70, 60),
    (E2, 100, 110),
    (BOOK3, 110, 100),
    (TRIPOD, 100, 110),
    (E2, 105, 95),
    (BOOK3, 95, 105),
    (TRIPOD, 130, 120),
    (E2, 150, 150),
)
MONOTONICITY = ((TRIPOD, 36), (E2, 36))
# assign-grid: uniform n = m >= 256 atoms, so the assignment fast path runs.
# 17^2 = 289 atoms sit under DUAL_REFINE_CAP (n m <= 200,000), the rest above.
GRID_SIDES = (17, 25, 33)
UNIFORM_ATOMS = (289, 576, 1089)
IDENTITY_LADDER = [5, 9, 17, 33]
# geometry-tree sample counts; comb(3,16) has 9,826 vertices.
SUITE_SAMPLES = {"comb316": 400, "other": 1000}
COMB_SOLVE_N = 24


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _solve(space: dict, n: int, m: int, rng) -> Scenario:
    return Scenario(space, "solve", {"instance": "random", "n": n, "m": m}, _seed(rng))


def _uniform_atoms(n: int, rng) -> dict:
    pts = rng.uniform(-1.0, 1.0, (n, 2))
    return {"points": [[0, float(x), float(y)] for x, y in pts]}


def simplex_random(rng: np.random.Generator) -> list[Scenario]:
    out = [_solve(space, n, m, rng) for space, n, m in SIMPLEX_CLASSES]
    for space, n in MONOTONICITY:
        out.append(Scenario(space, "monotonicity", {"instance": "random", "n": n, "max_len": 3}, _seed(rng)))
    return out


def assign_grid(rng: np.random.Generator) -> list[Scenario]:
    out = []
    for side, atoms in zip(GRID_SIDES, UNIFORM_ATOMS):
        out.append(Scenario(E2, "solve", {"instance": "translation", "n": side}, _seed(rng)))
        params = {"mu": _uniform_atoms(atoms, rng), "nu": _uniform_atoms(atoms, rng)}
        out.append(Scenario(E2, "solve", params, _seed(rng)))
    out.append(Scenario(E2, "transport-identity", {"sizes": list(IDENTITY_LADDER)}, _seed(rng)))
    return out


def geometry_tree(rng: np.random.Generator) -> list[Scenario]:
    out = [
        Scenario(COMB316, "geometry-suite", {"samples": SUITE_SAMPLES["comb316"]}, _seed(rng)),
        _solve(COMB316, COMB_SOLVE_N, COMB_SOLVE_N, rng),
    ]
    for space in (COMB14, TRIPOD, BOOK3, E2):
        out.append(Scenario(space, "geometry-suite", {"samples": SUITE_SAMPLES["other"]}, _seed(rng)))
    for space in (TRIPOD, BOOK3, E2):
        for experiment in ("twist", "polar", "eilenberg"):
            out.append(Scenario(space, experiment, {}, _seed(rng)))
    return out


def batch_sweep(rng: np.random.Generator) -> list[Scenario]:
    """BATCHES batches, each a fixed pick of classes from the other three workloads."""
    out = []
    for _ in range(BATCHES):
        sr, ag, gt = simplex_random(rng), assign_grid(rng), geometry_tree(rng)
        out += [sr[i] for i in (1, 2, 4, 11)]  # book3 55x45, tripod 70x60, book3 110x100, e2 monotonicity
        out += [ag[i] for i in (2, 3)]  # 25x25 translation grid, 576 uniform atoms
        out += [gt[i] for i in (2, 6, 10, 14)]  # comb(1,4) suite, tripod twist, book3 polar, e2 eilenberg
    return out


BATCHES = 3
BATCH_SIZE = 10


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[np.random.Generator], list[Scenario]]
    # wall time of one pass on the reference machine (2-core Xeon); a run
    # makes round(seconds / nominal_pass_s) passes, at least two
    nominal_pass_s: float
    # the cheap scenario that also goes through the CLI
    parity_index: int = 0
    # scenarios per run_batch call; 0 runs them one at a time
    batch_size: int = 0

    def scenarios(self, seed: int) -> list[Scenario]:
        return self.cycle(np.random.default_rng([seed, sum(map(ord, self.name))]))

    def units(self, scenarios: list[Scenario]) -> list[list[Scenario]]:
        """The scenarios grouped as they are submitted: one per call, or one batch per call."""
        size = self.batch_size or 1
        return [scenarios[k : k + size] for k in range(0, len(scenarios), size)]

    def passes(self, seconds: float) -> int:
        return max(2, round(seconds / self.nominal_pass_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simplex-random", simplex_random, 6.5),
        Workload("assign-grid", assign_grid, 7.0, parity_index=2),
        Workload("geometry-tree", geometry_tree, 4.0, parity_index=6),
        Workload("batch-sweep", batch_sweep, 6.5, batch_size=BATCH_SIZE),
    )
}
