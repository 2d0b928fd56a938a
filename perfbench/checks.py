"""Output checks computed apart from the program.

Nothing here imports evopunn. The checks read the program's outputs in
their published forms (the model document, the processed-dataset text file,
run records as plain numbers) and recompute what the method prescribes:
product units as explicit powers, a softmax with a zero reference output,
the evaluation count in closed form, and the Balance Scale enumeration.
Every check raises CheckError on a mismatch.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np

FITNESS_TOLERANCE = 1e-9
TIE_MARGIN = 1e-9          # outputs closer than this may order differently
WEIGHT_BOUNDS = (-5.0, 5.0)
STALL_GENERATIONS = 20     # early stopping needs this many stalled generations
STAGE_ONE = ("stage1-a", "stage1-b")  # stage labels the program reports


class CheckError(AssertionError):
    pass


class Findings:
    """Runs checks and keeps the message of each that fails."""

    def __init__(self):
        self.errors: list[str] = []

    def __call__(self, check, *args) -> None:
        try:
            check(*args)
        except CheckError as exc:
            self.errors.append(f"{check.__name__}: {exc}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- processed datasets -----------------------------------------------------

def read_dat(path) -> tuple[np.ndarray, np.ndarray]:
    """(patterns, labels) parsed from a processed-dataset text file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index("data") + 1
    rows = [line.split(",") for line in lines[start:] if line]
    patterns = np.array([[float(c) for c in row[:-1]] for row in rows])
    labels = np.array([int(row[-1]) for row in rows], dtype=np.int64)
    return patterns, labels


def check_bit_exact(name: str, expected: np.ndarray, actual: np.ndarray) -> None:
    expected = np.ascontiguousarray(expected)
    actual = np.ascontiguousarray(actual)
    _require(
        expected.dtype == actual.dtype and expected.shape == actual.shape
        and expected.tobytes() == actual.tobytes(),
        f"{name}: arrays differ bit for bit",
    )


def check_pattern_range(patterns: np.ndarray) -> None:
    _require(bool(np.all(np.isfinite(patterns))), "patterns contain non-finite values")
    lo, hi = float(patterns.min()), float(patterns.max())
    _require(1.0 <= lo and hi <= 2.0, f"patterns span [{lo}, {hi}], outside [1, 2]")


def check_split(sizes: tuple[int, int], expected: tuple[int, int]) -> None:
    _require(tuple(sizes) == tuple(expected), f"split {sizes} != published {expected}")


def check_partition(full: np.ndarray, parts: list[np.ndarray]) -> None:
    """The split sets together hold exactly the full set's rows."""
    joined = np.concatenate(parts)
    _require(joined.shape == full.shape, "split sets do not add up to the full set")
    order = lambda a: a[np.lexsort(a.T[::-1])]
    _require(bool(np.array_equal(order(full), order(joined))),
             "split sets are not a partition of the full set")


def balance_enumeration() -> tuple[np.ndarray, np.ndarray]:
    """All 625 Balance Scale rows rescaled into [1, 2], labels in the
    declared order B, L, R."""
    rows, labels = [], []
    for lw, ld, rw, rd in itertools.product(range(1, 6), repeat=4):
        left, right = lw * ld, rw * rd
        labels.append(0 if left == right else (1 if left > right else 2))
        rows.append([1.0 + (v - 1) / 4.0 for v in (lw, ld, rw, rd)])
    return np.array(rows), np.array(labels, dtype=np.int64)


def check_balance_dataset(patterns: np.ndarray, labels: np.ndarray) -> None:
    ref_patterns, ref_labels = balance_enumeration()
    counts = np.bincount(labels, minlength=3).tolist()
    ref_counts = np.bincount(ref_labels, minlength=3).tolist()
    _require(ref_counts == [49, 288, 288], f"enumeration gives {ref_counts}")
    _require(counts == ref_counts, f"class counts {counts} != enumeration {ref_counts}")
    _require(bool(np.array_equal(patterns, ref_patterns)) and bool(np.array_equal(labels, ref_labels)),
             "Balance Scale rows differ from the rescaled enumeration")


# --- networks ---------------------------------------------------------------

def check_network(doc: dict, max_hidden: int, bounds=WEIGHT_BOUNDS) -> None:
    """Hidden-node cap and weight interval of a model document."""
    hidden = len(doc["hidden_nodes"])
    _require(1 <= hidden <= max_hidden, f"{hidden} hidden nodes, cap is {max_hidden}")
    lo, hi = bounds
    weights = [w for node in doc["hidden_nodes"] for _, w in node]
    for out in doc["outputs"]:
        weights.append(out["bias"])
        weights.extend(c for _, c in out["links"])
    _require(all(lo <= w <= hi for w in weights), "a weight lies outside [-5, 5]")
    _require(len(doc["outputs"]) == doc["class_count"] - 1, "output count != classes - 1")
    for node in doc["hidden_nodes"]:
        _require(all(0 <= i < doc["input_count"] for i, _ in node), "input index out of range")
    for out in doc["outputs"]:
        _require(all(0 <= j < hidden for j, _ in out["links"]), "hidden index out of range")


def reference_outputs(doc: dict, patterns: np.ndarray) -> np.ndarray:
    """(N, L) outputs: explicit products of powers per hidden node, linear
    outputs, and the reference class's output fixed at zero in the last column."""
    n = patterns.shape[0]
    hidden = np.ones((n, len(doc["hidden_nodes"])))
    for j, node in enumerate(doc["hidden_nodes"]):
        for i, w in node:
            hidden[:, j] *= np.power(patterns[:, i], w)
    outputs = np.zeros((n, doc["class_count"]))
    for l, out in enumerate(doc["outputs"]):
        outputs[:, l] = out["bias"]
        for j, c in out["links"]:
            outputs[:, l] += c * hidden[:, j]
    return outputs


def reference_fitness(doc: dict, patterns: np.ndarray, labels: np.ndarray) -> float:
    """1 / (1 + mean cross-entropy of the softmax); 0 when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        f = reference_outputs(doc, patterns)
        top = f.max(axis=1, keepdims=True)
        log_norm = top[:, 0] + np.log(np.exp(f - top).sum(axis=1))
        error = float(np.mean(log_norm - f[np.arange(len(labels)), labels]))
    return 1.0 / (1.0 + max(error, 0.0)) if math.isfinite(error) else 0.0


def check_fitness(doc: dict, patterns, labels, fitness: float) -> None:
    expected = reference_fitness(doc, patterns, labels)
    _require(abs(expected - fitness) <= FITNESS_TOLERANCE,
             f"fitness {fitness!r} != reference {expected!r}")


def check_ccr(doc: dict, patterns, labels, ccr: float) -> None:
    """Exact CCR; a pattern whose two best outputs lie within TIE_MARGIN may
    count either way, since the program computes powers through exp/log."""
    f = reference_outputs(doc, patterns)
    predicted = np.argmax(f, axis=1)
    ordered = np.sort(f, axis=1)
    ties = int(np.sum(ordered[:, -1] - ordered[:, -2] < TIE_MARGIN))
    hits = int(np.sum(predicted == labels))
    n = len(labels)
    allowed = {100.0 * (h / n) for h in range(max(0, hits - ties), min(n, hits + ties) + 1)}
    _require(ccr in allowed, f"CCR {ccr!r} != reference {100.0 * (hits / n)!r}")


def check_above_majority(ccr: float, labels: np.ndarray) -> None:
    majority = 100.0 * np.bincount(labels).max() / len(labels)
    _require(ccr > majority, f"test CCR {ccr} not above the majority-class rate {majority:.2f}")


# --- evolutionary runs ------------------------------------------------------

class GenerationLog:
    """on_generation callback keeping what the checks and the sampler need:
    the best fitness of every generation per stage, each stage's first and
    last population, the evaluation counter, and the main loop's population
    at sample_generation."""

    def __init__(self, sample_generation: int):
        self.sample_generation = sample_generation
        self.best: dict[str, list[float]] = defaultdict(list)
        self.first: dict[str, list] = {}
        self.last: dict[str, list] = {}
        self.sample: list | None = None
        self.evaluations = 0

    def __call__(self, stage, gen_index, population, counter):
        self.best[stage].append(population[0].fitness)
        if gen_index == 1:
            self.first[stage] = population
        self.last[stage] = population
        if gen_index == self.sample_generation and stage not in STAGE_ONE:
            self.sample = population
        self.evaluations = counter.total


def working_set(pop_size: int) -> int:
    """Individuals scored per generation: all but the elite tenth."""
    return (9 * pop_size) // 10


def expected_evaluations(method: str, pop_size: int, stage_generations: dict) -> int:
    """Closed form: each initial population scores 10 * pop_size random
    networks, every generation scores the working set."""
    populations = 2 if method == "tsea" else 1
    return 10 * pop_size * populations + working_set(pop_size) * sum(stage_generations.values())


def check_evaluations(method: str, pop_size: int, stage_generations: dict, counted: int) -> None:
    expected = expected_evaluations(method, pop_size, stage_generations)
    _require(counted == expected, f"{counted} evaluations counted, closed form gives {expected}")


def check_stage_generations(method: str, gen: int, stage_generations: dict, reported: int) -> None:
    """Stage one runs exactly gen // 10 generations per population; the main
    loop runs until the budget or at least STALL_GENERATIONS generations."""
    main = [s for s in stage_generations if s not in STAGE_ONE]
    _require(len(main) == 1, f"expected one main-loop stage, saw {sorted(stage_generations)}")
    if method == "tsea":
        for stage in STAGE_ONE:
            _require(stage_generations.get(stage) == gen // 10,
                     f"{stage} ran {stage_generations.get(stage)} generations, expected {gen // 10}")
    else:
        _require(len(stage_generations) == 1, "a single-population run reported stage one")
    g = stage_generations[main[0]]
    _require(min(gen, STALL_GENERATIONS) <= g <= gen, f"main loop ran {g} generations of {gen}")
    _require(sum(stage_generations.values()) == reported,
             f"reported {reported} generations, observed {sum(stage_generations.values())}")


def check_elitism(best_by_stage: dict) -> None:
    """Best fitness never falls from one generation to the next of a stage."""
    for stage, series in best_by_stage.items():
        for g in range(1, len(series)):
            _require(series[g] >= series[g - 1],
                     f"{stage}: best fitness fell at generation {g + 1}")


def population_tuples(population) -> list[tuple]:
    """(identity, fitness, connections, origin) of each individual."""
    return [(id(ind), ind.fitness, ind.connections, ind.origin) for ind in population]


def _merge_order(individuals: list[tuple]) -> list[tuple]:
    """Fitness descending, then fewer connections, then earlier position."""
    return sorted(individuals, key=lambda ind: (-ind[1], ind[2]))


def check_merge(pop_a: list[tuple], pop_b: list[tuple], first_generation: list[tuple]) -> None:
    """Stage two starts from the best half of each stage-one population.

    Individuals are (identity, fitness, connections, origin). The merge is
    seen through the first stage-two generation: its elite copies are the
    merged population's best, and every member descends from one merged
    individual, so the origin tags count exactly as in the merged population's
    working set plus its elite.
    """
    size = len(pop_a)
    _require(size == len(pop_b) == len(first_generation) and size % 2 == 0,
             "stage-one and stage-two population sizes disagree")
    half = size // 2
    merged = _merge_order(pop_a[:half] + pop_b[:half])
    tag_a, tag_b = pop_a[0][3], pop_b[0][3]
    _require(tag_a is not None and tag_b is not None and tag_a != tag_b,
             "merged halves are not tagged by source")
    _require(all(ind[3] == tag_a for ind in pop_a[:half])
             and all(ind[3] == tag_b for ind in pop_b[:half]),
             "a merged individual carries the wrong source tag")
    working = working_set(size)
    elite = size - working
    expected = [ind[3] for ind in merged[:working] + merged[:elite]]
    seen = [ind[3] for ind in first_generation]
    _require(sorted(seen) == sorted(expected),
             f"stage two does not descend from {half} + {half} merged individuals")
    present = {ind[0] for ind in first_generation}
    _require(all(ind[0] in present for ind in merged[:elite]),
             "the merged population's best did not pass into stage two unchanged")


def check_repeat(first: tuple, again: tuple, what: str) -> None:
    _require(first == again, f"{what}: a repeated run differs: {first} vs {again}")
