"""Workload table shared by the orchestrator and its child processes.

Every workload trains with a published preset's hidden-node base and
generation budget at a reduced population, on fixed data and a fixed list
of training seeds, so every run of a workload does identical work. Early
stopping makes a run's length depend on its seed (on waveform a two-stage
run either stops 20 generations into stage two or runs all 500), so a seed
list drawn afresh per run would change the work by a factor of two.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    dataset: str        # preset name and generator in evopunn.datasets
    config: str         # configuration id from evopunn.experiment.CONFIGURATIONS
    pop_size: int
    seeds: int          # training runs per round
    pool: bool          # True: run the seeds through run_experiment's process pool
    setups: int         # fresh set-up processes per run; setup_s is their median
    split: tuple[int, int]  # published train/test sizes


WORKLOADS = {
    "balance-tsea": Workload("balance", "1star", 40, 4, False, 7, (469, 156)),
    "waveform-tsea": Workload("waveform", "1star", 20, 3, False, 3, (3750, 1250)),
    "balance-edd-cell": Workload("balance", "1", 40, 4, True, 7, (469, 156)),
}

WAVEFORM_ROWS = 5000
WAVEFORM_SEED = 1       # generator seed, the CLI's default
SPLIT_RATIO = 0.75
SPLIT_SEED = 20100      # the master seed of the published Balance cell
SAMPLE_GENERATION = 10  # main-loop generation whose population feeds the layer sampler


def training_seeds(workload: Workload, seed_list: int) -> list[int]:
    """Seed list j holds 1000 j + 1 ... 1000 j + seeds; lists never overlap."""
    return [1000 * seed_list + 1 + i for i in range(workload.seeds)]
