"""Layer sampler: times public functions one by one on a fixed sample of
networks, the population of a seeded run at a fixed generation.

Evolved networks are small (mean hidden-node count near 1.3 on Balance),
while random_network draws its node count uniformly up to the cap, so the
sample comes from a run rather than from random_network. Each structural
operator is timed alone by passing EaParams(structural_ops=(op,)) to
structural_mutation, which then applies exactly that operator once.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from evopunn import evolution, network


def _mean_us(call, items, repeats: int) -> float:
    start = time.perf_counter()
    for item in items:
        for _ in range(repeats):
            call(item)
    return 1e6 * (time.perf_counter() - start) / (repeats * len(items))


def sample_layers(sample: list, params, train, repeats: int, seed: int) -> dict[str, float]:
    """Mean µs per call over the sample; params are the EaParams the sample
    evolved under, and seed drives the mutations' random draws."""
    rng = np.random.default_rng(seed)
    out = {
        "sampler.hidden_nodes_mean": sum(ind.net.hidden_count for ind in sample) / len(sample),
        "sampler.fitness_us": _mean_us(lambda ind: network.fitness(ind.net, train), sample, repeats),
    }
    for op in evolution.STRUCTURAL_OPS:
        single = replace(params, structural_ops=(op,))
        out[f"evolution.op.{op}_us"] = _mean_us(
            lambda ind: evolution.structural_mutation(ind, rng, single), sample, repeats)
    state = evolution.MutationState(params.alpha1, params.alpha2)
    counter = evolution.EvalCounter()
    out["sampler.parametric_mutation_us"] = _mean_us(
        lambda ind: evolution.parametric_mutation(
            ind, state, rng, train, counter, params.weight_interval),
        sample, repeats)
    out["sampler.random_network_us"] = _mean_us(
        lambda _: network.random_network(
            rng, train.input_count, params.max_hidden, train.class_count,
            params.weight_interval, params.link_density),
        sample, repeats)
    return out
