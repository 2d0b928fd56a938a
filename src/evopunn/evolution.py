"""Evolutionary programming engine for product-unit networks.

Generational loop without crossover: every generation, copies of the best
tenth overwrite the worst tenth and pass through unchanged; the surviving
individuals are mutated (the best few in parameter space under a simulated
annealing schedule, the rest structurally) and re-evaluated. Mutation
severity is driven by each individual's temperature 1 - fitness, and the
parametric step sizes adapt with Rechenberg's one-fifth success rule.
A generation runs in phases: the parametric children, each scored as it is
made; every structural child, drawn in one DrawStream block, then scored
(scoring takes no draw); then the elite copies, the step sizes and the sort.
run_evolution is one stage, the single path from a seed to an evolved
population: it seeds unless handed a population, then loops over generations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import compress, count, islice
from operator import and_, ne, not_, or_
from typing import ClassVar

import numpy as np

from .draws import DrawStream
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
STALL_GENERATIONS = 20  # stalled generations after which early stopping ends a run
SEEDING_FACTOR = 10  # random networks scored per population slot at initialisation


@dataclass(frozen=True)
class EaParams:
    """Engine settings, checked when built, so also by every replace()."""
    gen: int                       # generation budget
    max_hidden: int                # hidden-node cap
    pop_size: int = 1000
    alpha2: float = 1.0            # initial coefficient/bias-noise variance scale
    structural_ops: tuple[str, ...] = STRUCTURAL_OPS
    # fixed by the method, not settable
    alpha1: ClassVar[float] = 0.5  # initial exponent-noise variance scale
    weight_interval: ClassVar[tuple[float, float]] = WEIGHT_INTERVAL
    link_density: ClassVar[float] = 0.5  # input-link probability of a new node

    def __post_init__(self) -> None:
        if self.gen < 0:
            raise ValueError("gen must be nonnegative")
        if self.pop_size < 1:
            raise ValueError("pop_size must be positive")
        if self.max_hidden < 1:
            raise ValueError("max_hidden must be at least 1")
        if self.alpha2 < 0:
            raise ValueError("alpha2 must be nonnegative")
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

    def add(self) -> None:
        self.total += 1


@dataclass
class Individual:
    """A network with its cached score. Neither it nor its network's arrays
    are written once built, so an instance may appear in several population
    lists, and a population handed to a caller stays as it was handed out."""
    net: PunnNetwork
    fitness: float
    connections: int
    origin: str | None = None


def evaluate_individual(
    net: PunnNetwork, train, counter: EvalCounter, origin: str | None = None,
    connections: int | None = None,
) -> Individual:
    """Score net (one evaluation). connections, given when net has the masks
    of a network already counted, saves counting them again."""
    score = fitness(net, train)
    counter.add()
    if connections is None:
        connections = count_connections(net)
    return Individual(net, score, connections, origin)


def sort_population(population: list[Individual]) -> None:
    """Fitness descending; ties prefer fewer connections, then earlier position."""
    population.sort(key=lambda ind: (-ind.fitness, ind.connections))


def population_mean_fitness(population: list[Individual]) -> float:
    return sum(ind.fitness for ind in population) / len(population)


def initialize_population(
    rng: np.random.Generator, params: EaParams, train, counter: EvalCounter
) -> list[Individual]:
    """Draw SEEDING_FACTOR * pop_size random networks, score them and keep
    the best pop_size."""
    networks = [
        random_network(rng, train.input_count, params.max_hidden, train.class_count,
                       params.weight_interval, params.link_density)
        for _ in range(SEEDING_FACTOR * params.pop_size)
    ]
    candidates = [evaluate_individual(net, train, counter) for net in networks]
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
        exponents, net.exponent_mask, coefficients, net.coefficient_mask, biases
    )
    candidate = evaluate_individual(candidate_net, train, counter, ind.origin, ind.connections)
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


def _sample(draws: DrawStream, n: int, size: int) -> list[int]:
    """Generator.choice(n, size, replace=False) as a list, from the same draws,
    for size 1 or 2 (no operator asks for more than MAX_OP_COUNT picks).

    numpy draws so small a sample by Floyd's algorithm and then shuffles it:
    one or three bounded integers."""
    if size == 1:
        return [draws.integers(n)]
    first = draws.integers(n - 1)
    second = draws.integers(n)
    if second == first:
        second = n - 1
    return [first, second] if draws.integers(2) else [second, first]


class _Node:
    """A hidden node of a child being built. src is the parent node it
    started as, or -1 for a new or fused node. mask and cmask are its input
    and output links as bool lists, kept current; row and col are its
    exponents and coefficients as float lists, or None while they are still
    the parent's. A node's mask differs from the parent's only when it owns
    that row or column, since every link edit also writes a weight, so the
    child takes every other row and column, masks too, from the parent."""

    __slots__ = ("src", "mask", "cmask", "row", "col")

    def __init__(self, src: int, mask: list, cmask: list, row=None, col=None):
        self.src = src
        self.mask = mask
        self.cmask = cmask
        self.row = row
        self.col = col


class _Child:
    """A structural child under construction: the operators edit its node
    list, draw from the stream and set changed, and network() builds its
    arrays once. It shares the parent's biases, which nothing writes; a child
    that nothing changed is the parent's network itself."""

    __slots__ = ("parent", "nodes", "changed")

    def __init__(self, parent: PunnNetwork):
        self.parent = parent
        self.nodes = list(map(_Node, count(), parent.exponent_mask.tolist(),
                              parent.coefficient_mask.T.tolist()))
        self.changed = False

    def row(self, node: _Node) -> list[float]:
        """node's exponents, which it owns from the first call on."""
        if node.row is None:
            node.row = self.parent.exponents[node.src].tolist()
        return node.row

    def col(self, node: _Node) -> list[float]:
        """node's coefficients, which it owns from the first call on."""
        if node.col is None:
            node.col = self.parent.coefficients[:, node.src].tolist()
        return node.col

    def network(self) -> PunnNetwork:
        parent = self.parent
        if not self.changed:
            return parent
        # a new or fused node takes the parent's last node as a placeholder
        kept = np.array([node.src for node in self.nodes])
        exponents = parent.exponents.take(kept, 0)
        exponent_mask = parent.exponent_mask.take(kept, 0)
        coefficients = parent.coefficients.take(kept, 1)
        coefficient_mask = parent.coefficient_mask.take(kept, 1)
        for r, node in enumerate(self.nodes):
            if node.row is not None:
                exponents[r] = node.row
                exponent_mask[r] = node.mask
            if node.col is not None:
                coefficients[:, r] = node.col
                coefficient_mask[:, r] = node.cmask
        return PunnNetwork(exponents, exponent_mask, coefficients, coefficient_mask,
                           parent.biases)


# Every operator takes (child, draws, params), draws what the operator draws
# and edits the child; an operator with nothing to do draws its count only,
# or nothing, and leaves the child as it was. A count 1 + integers(MAX_OP_COUNT)
# is one draw, the one numpy makes for integers(1, MAX_OP_COUNT, endpoint=True).

def _add_node(child: _Child, draws: DrawStream, params: EaParams) -> None:
    """Append up to the drawn count of nodes, as room under the cap allows.

    Each new node's input connections exist independently with probability
    link_density (an all-absent draw is redone, so every node has an input)
    and then draw their exponents in input order; then one draw gives every
    output a coefficient to every new node, in (output, node) order."""
    wanted = 1 + draws.integers(MAX_OP_COUNT)
    nodes = child.nodes
    add = min(wanted, params.max_hidden - len(nodes))
    if add <= 0:
        return
    lo, hi = params.weight_interval
    k, outputs = len(nodes[0].mask), len(nodes[0].cmask)
    new = []
    for _ in range(add):
        mask = draws.below(k, params.link_density)
        while True not in mask:
            mask = draws.below(k, params.link_density)
        weights = iter(draws.uniforms(lo, hi, mask.count(True)))
        row = [next(weights) if linked else 0.0 for linked in mask]
        new.append(_Node(-1, mask, [True] * outputs, row))
    coefficients = draws.uniforms(lo, hi, outputs * add)
    for a, node in enumerate(new):
        node.col = coefficients[a::add]
    nodes += new
    child.changed = True


def _delete_node(child: _Child, draws: DrawStream, params: EaParams) -> None:
    wanted = 1 + draws.integers(MAX_OP_COUNT)
    nodes = child.nodes
    removable = min(wanted, len(nodes) - 1)  # a network keeps at least one node
    if removable <= 0:
        return
    for j in sorted(_sample(draws, len(nodes), removable), reverse=True):
        del nodes[j]
    child.changed = True


def _locate(nodes: list[_Node], counts: list[int], pick: int, existing: bool
            ) -> tuple[_Node, bool, int]:
    """(node, in the input layer, input or output index) of the pick-th link
    of the pool: the input links that are (existing) or are not, in (node,
    input) order, counts[j] of them at node j, then such output links in
    (output, node) order."""
    for node, links in zip(nodes, counts):
        if pick < links:
            pool = compress(count(), node.mask if existing else map(not_, node.mask))
            return node, True, next(islice(pool, pick, None))
        pick -= links
    for o in range(len(nodes[0].cmask)):
        for node in nodes:
            if node.cmask[o] == existing:
                if not pick:
                    return node, False, o
                pick -= 1
    raise ValueError("pick outside the pool")


def _edit_connections(
    existing: bool, child: _Child, draws: DrawStream, params: EaParams
) -> None:
    """Delete existing connections (existing=True) or add absent ones with
    weights uniform in the weight interval (existing=False). The links are
    drawn without replacement from both layers' pool, then the added links'
    weights in pick order; an empty pool is a no-op."""
    wanted = 1 + draws.integers(MAX_OP_COUNT)
    nodes = child.nodes
    counts = [node.mask.count(existing) for node in nodes]
    size = sum(counts) + sum([node.cmask.count(existing) for node in nodes])
    if size == 0:
        return
    # every pick is placed in the pool as it was before any edit
    places = [_locate(nodes, counts, pick, existing)
              for pick in _sample(draws, size, min(wanted, size))]
    lo, hi = params.weight_interval
    linked = not existing
    for node, in_exponents, at in places:
        weight = 0.0 if existing else draws.uniform(lo, hi)
        if in_exponents:
            node.mask[at] = linked
            child.row(node)[at] = weight
        else:
            node.cmask[at] = linked
            child.col(node)[at] = weight
    child.changed = True


def _fuse_nodes(child: _Child, draws: DrawStream, params: EaParams) -> None:
    nodes = child.nodes
    m = len(nodes)
    if m < 2:
        return
    lo, hi = params.weight_interval
    a, b = _sample(draws, m, 2)
    keep, drop = min(a, b), max(a, b)
    node_a, node_b = nodes[a], nodes[b]
    row_a, row_b = child.row(node_a), child.row(node_b)
    in_a, in_b = node_a.mask, node_b.mask
    mask = list(map(and_, in_a, in_b))
    row = [0.0] * len(mask)
    for at in compress(count(), mask):
        row[at] = 0.5 * (row_a[at] + row_b[at])
    # a connection held by one parent survives half the time, one draw per
    # such input in index order
    single = list(compress(count(), map(ne, in_a, in_b)))
    for at in compress(single, draws.below(len(single), 0.5)):
        mask[at] = True
        row[at] = row_a[at] if in_a[at] else row_b[at]
    cmask = list(map(or_, node_a.cmask, node_b.cmask))
    col = [min(max(x + y, lo), hi) if linked else 0.0
           for x, y, linked in zip(child.col(node_a), child.col(node_b), cmask)]
    # drop > keep, so keep's index is the same in the child
    nodes[keep] = _Node(-1, mask, cmask, row, col)
    del nodes[drop]
    child.changed = True


_OPERATORS = {
    "add_node": _add_node,
    "delete_node": _delete_node,
    "add_connection": partial(_edit_connections, False),
    "delete_connection": partial(_edit_connections, True),
    "fuse_nodes": _fuse_nodes,
}

STRUCTURAL_WORDS = 16  # opening block per structural child; the stream doubles it when used up


def structural_mutation(
    ind: Individual, draws: DrawStream | np.random.Generator, params: EaParams
) -> PunnNetwork:
    """Topology change: the enabled operators are tried in their fixed order,
    each firing independently with probability T; if none fired, one is chosen
    uniformly and applied. Degenerate cases (size bound hit, nothing to add or
    remove) are explicit no-ops, so the parent's own network comes back when
    nothing changed. Returns a network the caller must re-score.

    draws is a stream open on the run's generator, or the generator itself,
    over which a stream is opened and closed for this one call."""
    if isinstance(draws, np.random.Generator):
        with DrawStream(draws) as stream:
            return _mutate(ind, stream, params)
    return _mutate(ind, draws, params)


def _mutate(ind: Individual, draws: DrawStream, params: EaParams) -> PunnNetwork:
    names = params.structural_ops
    if not names:
        return ind.net
    t = temperature(ind)
    child = _Child(ind.net)
    fired = False
    for name in names:
        if draws.random() < t:
            fired = True
            _OPERATORS[name](child, draws, params)
    if not fired:
        _OPERATORS[names[draws.integers(len(names))]](child, draws, params)
    return child.network()


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
    n_elite, n_param, n_struct = generation_split(len(population))
    # a parametric child's acceptance draw depends on its score
    next_population = [
        parametric_mutation(ind, state, rng, train, counter, params.weight_interval)
        for ind in population[:n_param]
    ]
    parents = population[n_param : n_param + n_struct]
    with DrawStream(rng, STRUCTURAL_WORDS * n_struct) as draws:
        children = [structural_mutation(ind, draws, params) for ind in parents]
    # a child that nothing changed is its parent's network, links and all
    next_population += [
        evaluate_individual(net, train, counter, ind.origin,
                            ind.connections if net is ind.net else None)
        for net, ind in zip(children, parents)
    ]
    next_population += population[:n_elite]
    adapt_variances(state)
    sort_population(next_population)
    return next_population


def run_evolution(
    stage: str,
    params: EaParams,
    rng: np.random.Generator,
    train,
    counter: EvalCounter,
    on_generation=None,
    early_stopping: bool = True,
    population: list[Individual] | None = None,
) -> tuple[list[Individual], int]:
    """One stage under params, drawing from rng: seed a population whose
    individuals are tagged stage, a tag every descendant inherits, unless a
    sorted population is given, then apply the main loop with fresh step
    sizes. The loop evolves until the generation budget runs out or, when
    early stopping is on, until neither the best fitness nor the population
    mean fitness has beaten its historical maximum by more than
    IMPROVEMENT_EPSILON for STALL_GENERATIONS consecutive generations.

    After each generation, on_generation (if given) is called as
    on_generation(stage, gen_index, population, counter), with gen_index
    counting from 1 within this call and population sorted best first.
    Neither that list nor the one passed in is written afterwards.

    Returns (final population, generations executed); the best individual is
    the first element of the returned population.
    """
    if population is None:
        seeds = initialize_population(rng, params, train, counter)
        population = [replace(ind, origin=stage) for ind in seeds]
    state = MutationState(params.alpha1, params.alpha2)
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
        if early_stopping and stalled >= STALL_GENERATIONS:
            break
    return population, executed
