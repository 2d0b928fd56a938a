"""Span tracing from outside the program.

The tracer wraps evopunn's public functions by rebinding the module
attributes their callers look up, records one span (name, start, end,
parent) per call in memory, and restores the originals on exit. Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict

from evopunn import evolution, experiment, twostage

# (module whose attribute a caller looks up, attribute, span name)
PATCHES = (
    (evolution, "fitness", "network.fitness"),
    (evolution, "random_network", "network.random_network"),
    (evolution, "evaluate_individual", "evolution.evaluate_individual"),
    (evolution, "parametric_mutation", "evolution.parametric_mutation"),
    (evolution, "structural_mutation", "evolution.structural_mutation"),
    (evolution, "sort_population", "evolution.sort_population"),
    (evolution, "evolve_generation", "evolution.evolve_generation"),
    (evolution, "initialize_population", "evolution.initialize_population"),
    (twostage, "initialize_population", "evolution.initialize_population"),
    (twostage, "sort_population", "evolution.sort_population"),
    (twostage, "run_evolution", "evolution.run_evolution"),
    (twostage, "merge_populations", "twostage.merge_populations"),
    (experiment, "initialize_population", "evolution.initialize_population"),
    (experiment, "run_evolution", "evolution.run_evolution"),
    (experiment, "run_two_stage", "twostage.run_two_stage"),
    (experiment, "run_single", "experiment.run_single"),
)


class Tracer:
    """Context manager; spans are kept in parallel lists."""

    def __init__(self, train_patterns: int):
        self.train_patterns = train_patterns
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._saved = []

    def __enter__(self) -> "Tracer":
        for module, attr, name in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        observe = {
            "network.fitness": self._observe_fitness,
            "evolution.structural_mutation": self._observe_structural_mutation,
            "evolution.parametric_mutation": self._observe_parametric_mutation,
        }.get(name)

        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.starts[index] = start
                self.ends[index] = end
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # Counters taken at the layer boundary.
    def _observe_fitness(self, args, result) -> None:
        self.counts["hidden_nodes"] += args[0].hidden_count

    def _observe_structural_mutation(self, args, result) -> None:
        self.counts["structural_unchanged"] += result is args[0].net

    def _observe_parametric_mutation(self, args, result) -> None:
        self.counts["parametric_accepted"] += result is not args[0]

    def spans(self, name: str, parent: str | None = None) -> list[int]:
        return [
            i for i, n in enumerate(self.names)
            if n == name and (parent is None or
                              (self.parents[i] >= 0 and self.names[self.parents[i]] == parent))
        ]

    def self_times(self) -> list[float]:
        times = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                times[p] -= self.ends[i] - self.starts[i]
        return times

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        def duration(name, parent=None):
            return [self.ends[i] - self.starts[i] for i in self.spans(name, parent)]

        fitness_calls = len(self.spans("network.fitness"))
        structural = self.spans("evolution.structural_mutation")
        parametric = self.spans("evolution.parametric_mutation")
        stage1, stage2 = [], []
        for run in self.spans("twostage.run_two_stage"):
            merge = next(i for i in range(run + 1, len(self.names))
                         if self.names[i] == "twostage.merge_populations")
            stage1.append(self.starts[merge] - self.starts[run])
            stage2.append(self.ends[run] - self.ends[merge])
        per_call = max(fitness_calls, 1)
        return {
            "network.fitness_us": 1e6 * mean(duration("network.fitness")),
            "network.fitness_calls": fitness_calls,
            "network.exp_per_eval": self.train_patterns * self.counts["hidden_nodes"] / per_call,
            "network.random_network_us": 1e6 * mean(duration("network.random_network")),
            "evolution.structural_mutation_us": 1e6 * mean([own[i] for i in structural]),
            "evolution.parametric_mutation_us": 1e6 * mean([own[i] for i in parametric]),
            "evolution.sort_population_us": 1e6 * mean(
                duration("evolution.sort_population", "evolution.evolve_generation")),
            "evolution.generation_ms": 1e3 * mean(duration("evolution.evolve_generation")),
            "evolution.initialize_population_s": mean(duration("evolution.initialize_population")),
            "evolution.structural_unchanged_ratio":
                self.counts["structural_unchanged"] / max(len(structural), 1),
            "evolution.parametric_accept_ratio":
                self.counts["parametric_accepted"] / max(len(parametric), 1),
            "evolution.hidden_nodes_mean": self.counts["hidden_nodes"] / per_call,
            "twostage.stage1_s": mean(stage1),
            "twostage.stage2_s": mean(stage2),
            "twostage.merge_populations_us": 1e6 * mean(duration("twostage.merge_populations")),
        }
