"""Two-stage population seeding, built from evolution.run_evolution stages.

A full-length run is one stage, "run"; a two-stage run is three. Stage one
seeds and briefly evolves two independent populations whose networks differ
in their hidden-node cap (neu and neu + 1), with no early stopping. The best
half of each is merged into a single population that the standard loop then
evolves to completion under the larger cap. Every generation of every stage
reaches the caller's callback as on_generation(stage, gen_index, population,
counter), with stage "stage1-a", "stage1-b" or "stage2". Also provides the
closed-form evaluation accounting that compares this schedule against a pair
of independent full-length runs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .evolution import (
    SEEDING_FACTOR,
    EaParams,
    EvalCounter,
    Individual,
    generation_split,
    run_evolution,
    sort_population,
)
# unused here: perfbench's tracer (tracing.PATCHES) rebinds this name
from .evolution import initialize_population  # noqa: F401

STAGE_A = "stage1-a"
STAGE_B = "stage1-b"


def final_hidden_cap(neu: int) -> int:
    """Hidden-node cap of the second stage-one population and of stage two,
    and so of the network a two-stage run returns."""
    return neu + 1


def stage1_length(gen: int) -> int:
    """Generations each stage-one population evolves: a tenth of the budget."""
    return gen // 10


def _require_even(pop_size: int) -> None:
    if pop_size % 2:
        raise ValueError("pop_size must be even (the merge takes half of each population)")


def merge_populations(
    pop_a: list[Individual], pop_b: list[Individual]
) -> list[Individual]:
    """Best half of each sorted population, sorted together; writes neither."""
    if len(pop_a) != len(pop_b):
        raise ValueError("populations must have equal size")
    _require_even(len(pop_a))
    half = len(pop_a) // 2
    merged = pop_a[:half] + pop_b[:half]
    sort_population(merged)
    return merged


def run_two_stage(
    params: EaParams,
    rng: np.random.Generator,
    train,
    counter: EvalCounter,
    on_generation=None,
) -> tuple[list[Individual], int]:
    """Full two-stage run. params.max_hidden is the smaller cap, neu; the
    second stage-one population and all of stage two run at
    final_hidden_cap(neu), neu + 1.

    Three independent substreams are derived from the caller's generator (one
    per stage-one population, one for stage two), so the stage-one runs could
    execute in parallel without changing the outcome. Stage one runs
    stage1_length(gen) generations per population without early stopping;
    stage two applies the standard loop with early stopping to the merged
    population as it is. Returns run_evolution's (final population,
    generations executed), the generations counting both stage-one runs.
    """
    _require_even(params.pop_size)
    rng_a, rng_b, rng_stage2 = rng.spawn(3)
    final_params = replace(params, max_hidden=final_hidden_cap(params.max_hidden))
    stage1 = stage1_length(params.gen)
    halves = [
        run_evolution(label, replace(stage_params, gen=stage1), stream, train, counter,
                      on_generation, early_stopping=False)[0]
        for label, stage_params, stream in (
            (STAGE_A, params, rng_a), (STAGE_B, final_params, rng_b))
    ]
    population, executed = run_evolution("stage2", final_params, rng_stage2, train, counter,
                                         on_generation, population=merge_populations(*halves))
    return population, 2 * stage1 + executed


def expected_evaluations(pop_size: int, gen: int) -> dict[str, int]:
    """Closed-form fitness-evaluation counts of the schedule the runs follow.

    A full-length run seeds from SEEDING_FACTOR * N random networks, then
    scores the working set of generation_split(N) each generation; the
    baseline is two such runs, one per hidden-node cap. The two-stage run
    seeds two populations, evolves each for stage1_length(gen) generations,
    then evolves the merged one for gen. A run with no early stop spends
    exactly these counts. The reduction is a whole percentage.
    """
    if pop_size < 1 or gen < 0:
        raise ValueError("pop_size must be positive and gen nonnegative")
    _require_even(pop_size)
    per_generation = pop_size - generation_split(pop_size)[0]  # elites are not rescored
    seeding = SEEDING_FACTOR * pop_size
    edd_single = seeding + gen * per_generation
    tsea = 2 * (seeding + stage1_length(gen) * per_generation) + gen * per_generation
    return {
        "edd_single": edd_single,
        "edd_pair": 2 * edd_single,
        "tsea": tsea,
        "reduction_percent": round(100 * (1 - tsea / (2 * edd_single))),
    }
