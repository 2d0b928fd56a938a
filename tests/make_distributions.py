"""Operator-level distributions, and the script that writes them to
tests/distributions.json, the fixture of test_distributions.py.

Each table counts what the engine made in DRAWS draws under one seed:
- For each of two benchmark shapes, eight fixed parents whose temperatures
  spread over (0, 1) give DRAWS structural children, drawn in one DrawStream
  block as evolve_generation draws them. That is done for each structural
  operator alone, through EaParams(structural_ops=(op,)), and for all five
  together, the engine's default. A child is tabulated by (parent, hidden
  count, exponent links, coefficient links).
- For each shape, random_network draws DRAWS seed networks with its default
  density and weight interval, tabulated by (hidden count, exponent links).

The parents are built here from numpy alone, so a change to the engine's
seeding cannot move the operators' tables.

    PYTHONPATH=src python tests/make_distributions.py

The fixture records today's distributions, not today's draws. A change that
alters how the engine draws while meaning to keep what it draws, such as a
stream that draws each generation's randomness in fixed-shape arrays, must
pass this fixture as committed and must not regenerate it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from evopunn.draws import DrawStream
from evopunn.evolution import (
    STRUCTURAL_WORDS, EaParams, Individual, structural_mutation,
)
from evopunn.network import PunnNetwork, count_connections, random_network

FIXTURE = Path(__file__).resolve().parent / "distributions.json"
DRAWS = 10_000
SEED = 1  # the fixture's; test_distributions.py draws under another
PARENT_SEED = 20100


class Shape(NamedTuple):
    inputs: int
    classes: int
    cap: int  # hidden-node cap


SHAPES = {"k4": Shape(4, 3, 6), "k40": Shape(40, 3, 4)}
OPERATORS = ("add_node", "delete_node", "add_connection", "delete_connection", "fuse_nodes")
CONFIGS = {op: (op,) for op in OPERATORS} | {"all": None}  # None: the default operators
TABLES = [f"{shape}/{config}" for shape in SHAPES for config in [*CONFIGS, "seeding"]]


def fixed_parents(shape: Shape) -> list[Individual]:
    """Eight parents with hidden counts cycling through 1..cap, about half
    the input links and three quarters of the output links present, and
    temperatures (i + 0.5) / 8."""
    rng = np.random.default_rng(PARENT_SEED)
    parents = []
    for i in range(8):
        m, outputs = i % shape.cap + 1, shape.classes - 1
        exponent_mask = rng.random((m, shape.inputs)) < 0.5
        exponent_mask[np.arange(m), rng.integers(shape.inputs, size=m)] = True
        coefficient_mask = rng.random((outputs, m)) < 0.75
        net = PunnNetwork(
            np.where(exponent_mask, rng.uniform(-5.0, 5.0, exponent_mask.shape), 0.0),
            exponent_mask,
            np.where(coefficient_mask, rng.uniform(-5.0, 5.0, coefficient_mask.shape), 0.0),
            coefficient_mask,
            rng.uniform(-5.0, 5.0, outputs),
        )
        parents.append(Individual(net, 1.0 - (i + 0.5) / 8, count_connections(net)))
    return parents


def counts(net: PunnNetwork) -> tuple[int, int, int]:
    """(hidden count, exponent links, coefficient links) of net."""
    return (net.hidden_count, int(np.count_nonzero(net.exponent_mask)),
            int(np.count_nonzero(net.coefficient_mask)))


def children_table(shape: Shape, ops: tuple[str, ...] | None, rng) -> Counter:
    parents = fixed_parents(shape)
    params = EaParams(gen=0, max_hidden=shape.cap)
    if ops is not None:
        params = replace(params, structural_ops=ops)
    order = [p for _ in range(DRAWS // len(parents)) for p in range(len(parents))]
    with DrawStream(rng, STRUCTURAL_WORDS * len(order)) as draws:
        children = (structural_mutation(parents[p], draws, params) for p in order)
        return Counter(",".join(map(str, (p, *counts(child)))) for p, child in zip(order, children))


def seeding_table(shape: Shape, rng) -> Counter:
    networks = (random_network(rng, shape.inputs, shape.cap, shape.classes) for _ in range(DRAWS))
    return Counter(",".join(map(str, counts(net)[:2])) for net in networks)


def tables(seed: int) -> dict[str, Counter]:
    """Every table of TABLES, each drawn from its own generator under seed."""
    drawn = {}
    for index, name in enumerate(TABLES):
        shape_name, _, config = name.partition("/")
        shape, rng = SHAPES[shape_name], np.random.default_rng([seed, index])
        drawn[name] = (seeding_table(shape, rng) if config == "seeding"
                       else children_table(shape, CONFIGS[config], rng))
    return drawn


def main() -> None:
    lines = [f"{json.dumps(name)}: {json.dumps(dict(sorted(table.items())))}"
             for name, table in tables(SEED).items()]
    FIXTURE.write_text(f'{{"draws": {DRAWS}, "seed": {SEED}, "tables": {{\n'
                       + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
