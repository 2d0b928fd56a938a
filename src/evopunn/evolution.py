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
from functools import lru_cache, partial
from typing import ClassVar

import numpy as np

from .network import (
    PunnNetwork,
    WEIGHT_INTERVAL,
    count_connections,
    fitness,
    random_network,
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
MAX_OP_COUNT = 2  # an operator adds or deletes 1 to MAX_OP_COUNT nodes or links
ONE_FIFTH_FACTOR = 0.9
IMPROVEMENT_EPSILON = 1e-9  # a gain this small does not reset the stall counter
SEEDING_FACTOR = 10  # random networks scored per population slot at initialisation


@dataclass
class EaParams:
    gen: int                       # generation budget
    max_hidden: int                # hidden-node cap
    pop_size: int = 1000
    alpha2: float = 1.0            # initial coefficient/bias-noise variance scale
    gen_without_improving: int = 20
    structural_ops: tuple[str, ...] = STRUCTURAL_OPS
    # fixed by the method, not settable
    alpha1: ClassVar[float] = 0.5  # initial exponent-noise variance scale
    weight_interval: ClassVar[tuple[float, float]] = WEIGHT_INTERVAL
    link_density: ClassVar[float] = 0.5  # input-link probability of a new node

    def validate(self) -> None:
        if self.gen < 0:
            raise ValueError("gen must be nonnegative")
        if self.pop_size < 1:
            raise ValueError("pop_size must be positive")
        if self.max_hidden < 1:
            raise ValueError("max_hidden must be at least 1")
        if self.alpha2 < 0:
            raise ValueError("alpha2 must be nonnegative")
        if self.gen_without_improving < 1:
            raise ValueError("gen_without_improving must be positive")
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


@dataclass(slots=True)
class EvalCounter:
    """Counts fitness evaluations; incremented once per network scored."""
    total: int = 0

    def add(self, n: int = 1) -> None:
        self.total += n


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
    """Score SEEDING_FACTOR * pop_size random networks; keep the best pop_size."""
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
        for _ in range(SEEDING_FACTOR * params.pop_size)
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
    # noise first, then mask, add and clip in place: the same three draws and,
    # addition being commutative, the same bits as parent + noise * mask
    exponents = rng.normal(0.0, sigma1, net.exponents.shape)
    exponents *= net.exponent_mask
    exponents += net.exponents
    coefficients = rng.normal(0.0, sigma2, net.coefficients.shape)
    coefficients *= net.coefficient_mask
    coefficients += net.coefficients
    biases = rng.normal(0.0, sigma2, net.biases.shape)
    biases += net.biases
    for arr in (exponents, coefficients, biases):
        np.clip(arr, lo, hi, out=arr)
    candidate_net = PunnNetwork(
        net.input_count,
        net.class_count,
        exponents,
        net.exponent_mask.copy(),
        coefficients,
        net.coefficient_mask.copy(),
        biases,
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
    state.alpha1 = min(max(state.alpha1 * factor, ALPHA_MIN), ALPHA_MAX)
    state.alpha2 = min(max(state.alpha2 * factor, ALPHA_MIN), ALPHA_MAX)
    state.successes = 0
    state.attempts = 0


def _draw_count(rng: np.random.Generator) -> int:
    return int(rng.integers(1, MAX_OP_COUNT, endpoint=True))


def _sample(rng: np.random.Generator, n: int, size: int) -> list[int]:
    """rng.choice(n, size, replace=False) as a list, from the same draws, for
    size 1 or 2 (no operator asks for more than MAX_OP_COUNT picks).

    numpy draws so small a sample by Floyd's algorithm and then shuffles it:
    one or three Generator.integers calls, a fraction of a choice call."""
    if size == 1:
        return [int(rng.integers(0, n))]
    first = int(rng.integers(0, n - 1))
    second = int(rng.integers(0, n))
    if second == first:
        second = n - 1
    return [first, second] if rng.integers(0, 2) else [second, first]


# Every operator takes (net, rng, params, owned=False) and returns the child,
# or net itself when it changes nothing. With owned=True, net is a child that
# structural_mutation built earlier for the same individual: the operator may
# edit its arrays in place and share its biases. Otherwise net belongs to a
# parent, which is never written, and a changed child gets arrays of its own.

def _add_node(
    net: PunnNetwork, rng: np.random.Generator, params: EaParams, owned: bool = False
) -> PunnNetwork:
    """Append up to the drawn count of nodes, as room under the cap allows.

    Each new node's input connections exist independently with probability
    link_density (an all-absent draw is redone, so every node has an input)
    and their exponents are drawn straight into the node's row; then one
    draw gives every output a coefficient to every new node."""
    wanted = _draw_count(rng)
    room = params.max_hidden - net.hidden_count
    add = min(wanted, room)
    if add <= 0:
        return net
    lo, hi = params.weight_interval
    m, k = net.exponents.shape
    exponents = np.zeros((m + add, k))
    exponent_mask = np.zeros((m + add, k), dtype=bool)
    exponents[:m] = net.exponents
    exponent_mask[:m] = net.exponent_mask
    for row in range(m, m + add):
        mask = exponent_mask[row]
        np.less(rng.random(k), params.link_density, out=mask)
        links = np.count_nonzero(mask)
        while not links:
            np.less(rng.random(k), params.link_density, out=mask)
            links = np.count_nonzero(mask)
        exponents[row][mask] = rng.uniform(lo, hi, links)
    coefficients = np.empty((net.output_count, m + add))
    coefficient_mask = np.empty((net.output_count, m + add), dtype=bool)
    coefficients[:, :m] = net.coefficients
    coefficient_mask[:, :m] = net.coefficient_mask
    coefficients[:, m:] = rng.uniform(lo, hi, (net.output_count, add))
    coefficient_mask[:, m:] = True
    return PunnNetwork(
        net.input_count, net.class_count, exponents, exponent_mask,
        coefficients, coefficient_mask, net.biases if owned else net.biases.copy(),
    )


def _keep_nodes(net: PunnNetwork, kept: list[int], owned: bool) -> PunnNetwork:
    """Child holding the hidden nodes whose indices, ascending, are in kept."""
    return PunnNetwork(
        net.input_count,
        net.class_count,
        net.exponents.take(kept, axis=0),
        net.exponent_mask.take(kept, axis=0),
        net.coefficients.take(kept, axis=1),
        net.coefficient_mask.take(kept, axis=1),
        net.biases if owned else net.biases.copy(),
    )


def _delete_node(
    net: PunnNetwork, rng: np.random.Generator, params: EaParams, owned: bool = False
) -> PunnNetwork:
    wanted = _draw_count(rng)
    m = net.hidden_count
    removable = min(wanted, m - 1)  # a network keeps at least one node
    if removable <= 0:
        return net
    victims = _sample(rng, m, removable)
    return _keep_nodes(net, [j for j in range(m) if j not in victims], owned)


def _edit_connections(
    net: PunnNetwork, rng: np.random.Generator, params: EaParams, owned: bool = False,
    *, existing: bool,
) -> PunnNetwork:
    """Delete existing connections (existing=True) or add absent ones with
    weights uniform in the weight interval (existing=False). The links are
    drawn without replacement from both layers' pool, the exponents then the
    coefficients in C order; an empty pool is a no-op."""
    wanted = _draw_count(rng)
    pools = [
        (links if existing else ~links).nonzero()[0]
        for links in (net.exponent_mask.ravel(), net.coefficient_mask.ravel())
    ]
    split = pools[0].size
    size = split + pools[1].size
    if size == 0:
        return net
    picks = _sample(rng, size, min(wanted, size))
    child = net if owned else net.clone()
    if existing:
        weights = [0.0] * len(picks)
    else:
        lo, hi = params.weight_interval
        weights = rng.uniform(lo, hi, len(picks))
    for pick, weight in zip(picks, weights):
        if pick < split:
            at = pools[0][pick]
            child.exponents.flat[at] = weight
            child.exponent_mask.flat[at] = not existing
        else:
            at = pools[1][pick - split]
            child.coefficients.flat[at] = weight
            child.coefficient_mask.flat[at] = not existing
    return child


def _fuse_nodes(
    net: PunnNetwork, rng: np.random.Generator, params: EaParams, owned: bool = False
) -> PunnNetwork:
    m = net.hidden_count
    if m < 2:
        return net
    lo, hi = params.weight_interval
    a, b = _sample(rng, m, 2)
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
    coefficients = np.where(coef_mask, summed.clip(lo, hi), 0.0)

    # drop > keep, so keep's index is the same in the child
    out = _keep_nodes(net, [j for j in range(m) if j != drop], owned)
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


@lru_cache(maxsize=None)
def _operator_sequence(names: tuple[str, ...]) -> tuple:
    """The operators named, in order; resolved once per structural_ops value."""
    return tuple(_OPERATORS[name] for name in names)


def structural_mutation(
    ind: Individual, rng: np.random.Generator, params: EaParams
) -> PunnNetwork:
    """Topology change: the enabled operators are tried in their fixed order,
    each firing independently with probability T; if none fired, one is chosen
    uniformly and applied. Degenerate cases (size bound hit, nothing to add or
    remove) are explicit no-ops, so the parent's own network comes back when
    nothing changed. Returns a network the caller must re-score.

    The parent's arrays are copied at most once: the first operator that
    changes something builds the child, later connection edits write into
    it, and later node-count changes resize it."""
    ops = _operator_sequence(params.structural_ops)
    parent = ind.net
    if not ops:
        return parent
    t = temperature(ind)
    net = parent
    fired = False
    for op in ops:
        if rng.random() < t:
            fired = True
            net = op(net, rng, params, net is not parent)
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
    stage: str = "run",
) -> tuple[list[Individual], int]:
    """Main loop: evolve until the generation budget runs out or, when early
    stopping is on, until neither the best fitness nor the population mean
    fitness has beaten its historical maximum by more than
    IMPROVEMENT_EPSILON for gen_without_improving consecutive generations.

    After each generation, on_generation (if given) is called as
    on_generation(stage, gen_index, population, counter), with gen_index
    counting from 1 within this call and population sorted best first.

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
        improved = (best > best_high + IMPROVEMENT_EPSILON
                    or mean > mean_high + IMPROVEMENT_EPSILON)
        best_high = max(best_high, best)
        mean_high = max(mean_high, mean)
        stalled = 0 if improved else stalled + 1
        if on_generation is not None:
            on_generation(stage, gen_index, population, counter)
        if early_stopping and stalled >= params.gen_without_improving:
            break
    return population, executed
