"""Seed-then-evolve stages, and two-stage population seeding built from them.

run_stage is the one path from a population to an evolved one: it seeds
SEEDING_FACTOR * N random networks tagged with the stage's label, unless it
is handed a population, and applies the main loop. A full-length run is one
stage, "run", and a two-stage run three; both return (final population,
generations executed). Stage one builds and briefly evolves two independent
populations whose networks differ in their hidden-node cap (neu and
neu + 1), with no early stopping. The best half of each is merged into a
single population that the standard loop then evolves to completion under
the larger cap. Every generation of every stage reaches the caller's callback
through run_evolution as on_generation(stage, gen_index, population,
counter), with stage "run", "stage1-a", "stage1-b" or "stage2". Also
provides the closed-form evaluation accounting that compares this schedule
against a pair of independent full-length runs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .evolution import (
    SEEDING_FACTOR,
    EaParams,
    EvalCounter,
    Individual,
    MutationState,
    generation_split,
    initialize_population,
    run_evolution,
    sort_population,
)

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


def run_stage(
    label: str,
    params: EaParams,
    rng: np.random.Generator,
    train,
    counter: EvalCounter,
    on_generation=None,
    early_stopping: bool = True,
    population: list[Individual] | None = None,
) -> tuple[list[Individual], int]:
    """One stage under params, drawing from rng: seed a population tagged
    label, which every descendant inherits, unless population is given, then
    evolve it with fresh step sizes. Returns run_evolution's (final
    population, generations executed)."""
    if population is None:
        seeds = initialize_population(rng, params, train, counter)
        population = [replace(ind, origin=label) for ind in seeds]
    state = MutationState(params.alpha1, params.alpha2)
    return run_evolution(
        population, state, rng, params, train, counter,
        early_stopping=early_stopping, on_generation=on_generation, stage=label,
    )


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
    population as it is. Returns run_stage's (final population, generations
    executed), the generations counting both stage-one runs.
    """
    _require_even(params.pop_size)
    rng_a, rng_b, rng_stage2 = rng.spawn(3)
    final_params = replace(params, max_hidden=final_hidden_cap(params.max_hidden))
    stage1 = stage1_length(params.gen)
    halves = [
        run_stage(label, replace(stage_params, gen=stage1), stream, train, counter,
                  on_generation, early_stopping=False)[0]
        for label, stage_params, stream in (
            (STAGE_A, params, rng_a), (STAGE_B, final_params, rng_b))
    ]
    population, executed = run_stage("stage2", final_params, rng_stage2, train, counter,
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
