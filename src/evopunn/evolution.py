"""Evolutionary programming engine for product-unit networks.

Generational loop without crossover: every generation, copies of the best
tenth overwrite the worst tenth and pass through unchanged; the surviving
individuals are mutated (the best few in parameter space under a simulated
annealing schedule, the rest structurally) and re-evaluated. Mutation
severity is driven by each individual's temperature 1 - fitness, and the
parametric step sizes adapt with Rechenberg's one-fifth success rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .network import (
    PunnNetwork,
    WEIGHT_INTERVAL,
    count_connections,
    fitness,
    random_network,
    random_node_links,
)

STRUCTURAL_OPS = (
    "add_node",
    "delete_node",
    "add_connection",
    "delete_connection",
    "fuse_nodes",
)

ALPHA_MIN = 1e-4
ALPHA_MAX = 5.0
ONE_FIFTH_FACTOR = 0.9


@dataclass
class EaParams:
    gen: int                       # generation budget
    max_hidden: int                # hidden-node cap
    pop_size: int = 1000
    alpha1: float = 0.5            # initial exponent-noise variance scale
    alpha2: float = 1.0            # initial coefficient/bias-noise variance scale
    gen_without_improving: int = 20
    weight_interval: tuple[float, float] = WEIGHT_INTERVAL
    node_op_count_range: tuple[int, int] = (1, 2)
    link_density: float = 0.5
    improvement_epsilon: float = 1e-9
    structural_ops: tuple[str, ...] = STRUCTURAL_OPS

    def validate(self) -> None:
        if self.gen < 0:
            raise ValueError("gen must be nonnegative")
        if self.pop_size < 1:
            raise ValueError("pop_size must be positive")
        if self.max_hidden < 1:
            raise ValueError("max_hidden must be at least 1")
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ValueError("alpha values must be nonnegative")
        if self.gen_without_improving < 1:
            raise ValueError("gen_without_improving must be positive")
        lo, hi = self.node_op_count_range
        if not 1 <= lo <= hi:
            raise ValueError("node_op_count_range must be an increasing range from >= 1")
        unknown = set(self.structural_ops) - set(STRUCTURAL_OPS)
        if unknown:
            raise ValueError(f"unknown structural operators: {sorted(unknown)}")


@dataclass
class MutationState:
    """Adaptive step-size state for parametric mutation."""
    alpha1: float
    alpha2: float
    successes: int = 0
    attempts: int = 0
    alpha_min: float = ALPHA_MIN
    alpha_max: float = ALPHA_MAX


class EvalCounter:
    """Counts fitness evaluations; incremented once per network scored."""

    __slots__ = ("total",)

    def __init__(self, total: int = 0):
        self.total = total

    def add(self, n: int = 1) -> None:
        self.total += n

    def __repr__(self):
        return f"EvalCounter({self.total})"


@dataclass
class Individual:
    """A network with its cached score. Treated as immutable once evaluated:
    mutation operators build new individuals instead of editing these, so an
    instance may safely appear in several population lists."""
    net: PunnNetwork
    fitness: float
    connections: int
    origin: str | None = None


def evaluate_individual(
    net: PunnNetwork, train, counter: EvalCounter, origin: str | None = None
) -> Individual:
    score = fitness(net, train)
    counter.add(1)
    return Individual(net, score, count_connections(net), origin)


def sort_population(population: list[Individual]) -> None:
    """Fitness descending; ties prefer fewer connections, then earlier position."""
    population.sort(key=lambda ind: (-ind.fitness, ind.connections))


def population_mean_fitness(population: list[Individual]) -> float:
    return sum(ind.fitness for ind in population) / len(population)


def initialize_population(
    rng: np.random.Generator, params: EaParams, train, counter: EvalCounter
) -> list[Individual]:
    """Score 10 * pop_size random networks and keep the best pop_size."""
    params.validate()
    if train.pattern_count == 0:
        raise ValueError("training set is empty")
    candidates = [
        evaluate_individual(
            random_network(
                rng, train.input_count, params.max_hidden, train.class_count,
                params.weight_interval, params.link_density,
            ),
            train, counter,
        )
        for _ in range(10 * params.pop_size)
    ]
    sort_population(candidates)
    return candidates[: params.pop_size]


def temperature(ind: Individual) -> float:
    """Mutation severity scale, 1 - fitness, in [0, 1)."""
    return 1.0 - ind.fitness


def parametric_mutation(
    ind: Individual,
    state: MutationState,
    rng: np.random.Generator,
    train,
    counter: EvalCounter,
    weight_interval: tuple[float, float] = WEIGHT_INTERVAL,
) -> Individual:
    """Gaussian perturbation of every weight, annealing-gated.

    Exponents get noise with variance alpha1 * T, coefficients and biases
    variance alpha2 * T, all results clamped to the weight interval. The
    candidate is always scored (one evaluation); it replaces the parent when
    not worse (counted as a success) and otherwise survives only with
    probability exp(dA / T).
    """
    t = temperature(ind)
    lo, hi = weight_interval
    sigma1 = math.sqrt(state.alpha1 * t)
    sigma2 = math.sqrt(state.alpha2 * t)
    net = ind.net
    exponents = net.exponents + rng.normal(0.0, sigma1, net.exponents.shape) * net.exponent_mask
    coefficients = (
        net.coefficients + rng.normal(0.0, sigma2, net.coefficients.shape) * net.coefficient_mask
    )
    biases = net.biases + rng.normal(0.0, sigma2, net.biases.shape)
    candidate_net = PunnNetwork(
        net.input_count,
        net.class_count,
        np.clip(exponents, lo, hi),
        net.exponent_mask.copy(),
        np.clip(coefficients, lo, hi),
        net.coefficient_mask.copy(),
        np.clip(biases, lo, hi),
    )
    candidate = evaluate_individual(candidate_net, train, counter, ind.origin)
    state.attempts += 1
    if candidate.fitness >= ind.fitness:
        state.successes += 1
        return candidate
    if t > 0.0 and rng.random() < math.exp((candidate.fitness - ind.fitness) / t):
        return candidate
    return ind


def adapt_variances(state: MutationState) -> None:
    """Rechenberg one-fifth rule over the closed window: grow both step sizes
    when more than a fifth of the mutations succeeded, shrink them when fewer
    did, then reset the window. No attempts, no change."""
    if state.attempts == 0:
        return
    ratio = state.successes / state.attempts
    if ratio > 0.2:
        factor = 1.0 / ONE_FIFTH_FACTOR
    elif ratio < 0.2:
        factor = ONE_FIFTH_FACTOR
    else:
        factor = 1.0
    state.alpha1 = min(max(state.alpha1 * factor, state.alpha_min), state.alpha_max)
    state.alpha2 = min(max(state.alpha2 * factor, state.alpha_min), state.alpha_max)
    state.successes = 0
    state.attempts = 0


def _draw_count(rng: np.random.Generator, params: EaParams) -> int:
    lo, hi = params.node_op_count_range
    return int(rng.integers(lo, hi + 1))


def _add_node(net: PunnNetwork, rng: np.random.Generator, params: EaParams) -> PunnNetwork:
    wanted = _draw_count(rng, params)
    room = params.max_hidden - net.hidden_count
    add = min(wanted, room)
    if add <= 0:
        return net
    lo, hi = params.weight_interval
    new_exponents = []
    new_masks = []
    for _ in range(add):
        row, mask = random_node_links(rng, net.input_count, params.weight_interval, params.link_density)
        new_exponents.append(row)
        new_masks.append(mask)
    new_coefficients = rng.uniform(lo, hi, (net.output_count, add))
    return PunnNetwork(
        net.input_count,
        net.class_count,
        np.vstack([net.exponents, new_exponents]),
        np.vstack([net.exponent_mask, new_masks]),
        np.hstack([net.coefficients, new_coefficients]),
        np.hstack([net.coefficient_mask, np.ones((net.output_count, add), dtype=bool)]),
        net.biases.copy(),
    )


def _keep_nodes(net: PunnNetwork, keep: np.ndarray) -> PunnNetwork:
    """Child holding the hidden nodes where the boolean mask keep is True."""
    return PunnNetwork(
        net.input_count,
        net.class_count,
        net.exponents[keep],
        net.exponent_mask[keep],
        net.coefficients[:, keep],
        net.coefficient_mask[:, keep],
        net.biases.copy(),
    )


def _delete_node(net: PunnNetwork, rng: np.random.Generator, params: EaParams) -> PunnNetwork:
    wanted = _draw_count(rng, params)
    removable = min(wanted, net.hidden_count - 1)  # a network keeps at least one node
    if removable <= 0:
        return net
    keep = np.ones(net.hidden_count, dtype=bool)
    keep[rng.choice(net.hidden_count, size=removable, replace=False)] = False
    return _keep_nodes(net, keep)


def _link_pool(net: PunnNetwork, existing: bool) -> np.ndarray:
    """Flat indices over both connection layers in a fixed scan order: values
    below exponent_mask.size address that matrix, the rest the coefficients."""
    exp_mask = net.exponent_mask if existing else ~net.exponent_mask
    coef_mask = net.coefficient_mask if existing else ~net.coefficient_mask
    return np.concatenate([
        np.flatnonzero(exp_mask.ravel()),
        np.flatnonzero(coef_mask.ravel()) + exp_mask.size,
    ])


def _edit_connections(
    net: PunnNetwork, rng: np.random.Generator, params: EaParams, existing: bool
) -> PunnNetwork:
    """Delete existing connections (existing=True) or add absent ones with
    weights uniform in the weight interval (existing=False). The links are
    drawn without replacement from both layers' pool; an empty pool is a
    no-op."""
    wanted = _draw_count(rng, params)
    pool = _link_pool(net, existing)
    if pool.size == 0:
        return net
    picks = pool[rng.choice(pool.size, size=min(wanted, pool.size), replace=False)]
    if existing:
        weights = np.zeros(picks.size)
    else:
        lo, hi = params.weight_interval
        weights = rng.uniform(lo, hi, picks.size)
    out = net.clone()
    split = out.exponent_mask.size
    in_exponents = picks < split
    in_coefficients = ~in_exponents
    exp_flat = picks[in_exponents]
    coef_flat = picks[in_coefficients] - split
    out.exponents.flat[exp_flat] = weights[in_exponents]
    out.exponent_mask.flat[exp_flat] = not existing
    out.coefficients.flat[coef_flat] = weights[in_coefficients]
    out.coefficient_mask.flat[coef_flat] = not existing
    return out


def _fuse_nodes(net: PunnNetwork, rng: np.random.Generator, params: EaParams) -> PunnNetwork:
    if net.hidden_count < 2:
        return net
    lo, hi = params.weight_interval
    a, b = (int(v) for v in rng.choice(net.hidden_count, size=2, replace=False))
    keep, drop = min(a, b), max(a, b)

    in_a = net.exponent_mask[a]
    in_b = net.exponent_mask[b]
    both = in_a & in_b
    single = in_a ^ in_b
    mask = both.copy()
    # a connection held by one parent survives half the time, one draw per
    # such input in index order
    mask[single] = rng.random(np.count_nonzero(single)) < 0.5
    row_a = net.exponents[a]
    row_b = net.exponents[b]
    exponents = np.where(both, 0.5 * (row_a + row_b), np.where(in_a, row_a, row_b))
    exponents[~mask] = 0.0

    coef_mask = net.coefficient_mask[:, a] | net.coefficient_mask[:, b]
    summed = net.coefficients[:, a] + net.coefficients[:, b]
    coefficients = np.where(coef_mask, np.clip(summed, lo, hi), 0.0)

    nodes = np.ones(net.hidden_count, dtype=bool)
    nodes[drop] = False
    out = _keep_nodes(net, nodes)  # drop > keep, so keep's row index is unchanged
    out.exponents[keep] = exponents
    out.exponent_mask[keep] = mask
    out.coefficients[:, keep] = coefficients
    out.coefficient_mask[:, keep] = coef_mask
    return out


_OPERATORS = {
    "add_node": _add_node,
    "delete_node": _delete_node,
    "add_connection": partial(_edit_connections, existing=False),
    "delete_connection": partial(_edit_connections, existing=True),
    "fuse_nodes": _fuse_nodes,
}


def structural_mutation(
    ind: Individual, rng: np.random.Generator, params: EaParams
) -> PunnNetwork:
    """Topology change: the enabled operators are tried in their fixed order,
    each firing independently with probability T; if none fired, one is chosen
    uniformly and applied. Degenerate cases (size bound hit, nothing to add or
    remove) are explicit no-ops. Returns a network the caller must re-score."""
    ops = [_OPERATORS[name] for name in params.structural_ops]
    if not ops:
        return ind.net
    t = temperature(ind)
    net = ind.net
    fired = False
    for op in ops:
        if rng.random() < t:
            fired = True
            net = op(net, rng, params)
    if not fired:
        net = ops[int(rng.integers(len(ops)))](net, rng, params)
    return net


def generation_split(pop_size: int) -> tuple[int, int, int]:
    """(elite copies, parametric count, structural count) for one generation.

    The mutated working set is the top floor(0.9 N); the elite copies fill the
    rest, so exactly floor(0.9 N) evaluations happen per generation. Within
    the working set a tenth (at least one) is mutated parametrically, the
    remainder structurally.
    """
    working = (9 * pop_size) // 10
    elite = pop_size - working
    parametric = min(max(1, working // 10), working)
    return elite, parametric, working - parametric


def evolve_generation(
    population: list[Individual],
    state: MutationState,
    rng: np.random.Generator,
    params: EaParams,
    train,
    counter: EvalCounter,
) -> list[Individual]:
    """One generational step on a sorted population; returns the next sorted
    population of the same size. Step sizes adapt at the end of the step."""
    n = len(population)
    n_elite, n_param, n_struct = generation_split(n)
    elite = population[:n_elite]
    next_population: list[Individual] = []
    for ind in population[:n_param]:
        next_population.append(
            parametric_mutation(ind, state, rng, train, counter, params.weight_interval)
        )
    for ind in population[n_param : n_param + n_struct]:
        mutated = structural_mutation(ind, rng, params)
        next_population.append(evaluate_individual(mutated, train, counter, ind.origin))
    next_population.extend(elite)
    adapt_variances(state)
    sort_population(next_population)
    return next_population


def run_evolution(
    population: list[Individual],
    state: MutationState,
    rng: np.random.Generator,
    params: EaParams,
    train,
    counter: EvalCounter,
    early_stopping: bool = True,
    on_generation=None,
) -> tuple[list[Individual], int]:
    """Main loop: evolve until the generation budget runs out or, when early
    stopping is on, until neither the best fitness nor the population mean
    fitness has beaten its historical maximum by more than the improvement
    epsilon for gen_without_improving consecutive generations.

    Returns (final population, generations executed); the best individual is
    the first element of the returned population.
    """
    best_high = population[0].fitness
    mean_high = population_mean_fitness(population)
    stalled = 0
    executed = 0
    for gen_index in range(1, params.gen + 1):
        population = evolve_generation(population, state, rng, params, train, counter)
        executed = gen_index
        best = population[0].fitness
        mean = population_mean_fitness(population)
        eps = params.improvement_epsilon
        improved = best > best_high + eps or mean > mean_high + eps
        best_high = max(best_high, best)
        mean_high = max(mean_high, mean)
        stalled = 0 if improved else stalled + 1
        if on_generation is not None:
            on_generation(gen_index, population, counter)
        if early_stopping and stalled >= params.gen_without_improving:
            break
    return population, executed
