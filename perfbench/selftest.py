"""Self-tests of the output checks: each check accepts the program's real
output and rejects a corrupted copy of it.

    python3 perfbench/selftest.py      # from the root of the checkout

The training process of every benchmark run also calls run_selftests()
before it measures anything.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from evopunn import data, datasets, experiment, network  # noqa: E402

import checks  # noqa: E402


def _tiny_run():
    """A small real two-stage run with its generation log."""
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, 80)
    patterns = 1.0 + rng.random((80, 4))
    patterns[:, 0] = 1.0 + labels / 2.0  # learnable: class is in the first input
    train = data.ProcessedDataset(patterns, labels, ["a", "b", "c", "d"], ["x", "y", "z"])
    config = experiment.make_config("1star", neu=2, gen=30, pop_size=10, n_runs=1)
    log = checks.GenerationLog(sample_generation=10)
    record, best = experiment.run_single(config, train, train, 3, on_generation=log)
    return train, record, best, log


def _cases():
    """(name, check, good arguments, corrupted arguments)."""
    train, record, best, log = _tiny_run()
    doc = json.loads(network.serialize_network(best.net))
    stages = {stage: len(series) for stage, series in log.best.items()}
    pop_a, pop_b = (checks.population_tuples(log.last[s]) for s in checks.STAGE_ONE)
    first = checks.population_tuples(log.first["stage2"])
    lopsided = [ind[:3] + (pop_a[0][3],) for ind in first]  # every child from stage1-a
    elite_lost = [(-1,) + ind[1:] for ind in first]

    moved = copy.deepcopy(doc)
    node = next(n for n in moved["hidden_nodes"] if n)
    node[0][1] += 1e-3
    too_wide = copy.deepcopy(doc)
    too_wide["outputs"][0]["bias"] = 5.5

    rows = datasets.balance_scale_rows()
    balance, _ = data.fit_apply_normalization(np.array([r[:4] for r in rows], dtype=float))
    balance_labels = np.array(["BLR".index(r[4]) for r in rows], dtype=np.int64)
    flipped = balance_labels.copy()
    flipped[0] = 1

    nudged = balance.copy()
    nudged[3, 2] = np.nextafter(nudged[3, 2], 3.0)
    above = balance.copy()
    above[0, 0] = 2.0000001
    p, l, g = train.patterns, train.labels, record.ccr_train
    step = 100.0 / len(l)
    majority = 100.0 * np.bincount(l).max() / len(l)
    gens = record.generations
    return [
        ("fitness", checks.check_fitness, (doc, p, l, best.fitness), (doc, p, l, best.fitness + 1e-7)),
        ("fitness of a moved weight", checks.check_fitness,
         (doc, p, l, best.fitness), (moved, p, l, best.fitness)),
        ("ccr", checks.check_ccr, (doc, p, l, g), (doc, p, l, g - step if g >= step else g + step)),
        ("evaluations", checks.check_evaluations,
         ("tsea", 10, stages, record.evaluations), ("tsea", 10, stages, record.evaluations - 1)),
        ("stage generations", checks.check_stage_generations,
         ("tsea", 30, stages, gens), ("tsea", 30, dict(stages, **{"stage1-a": 4}), gens + 1)),
        ("elitism", checks.check_elitism,
         (log.best,), ({"stage2": log.best["stage2"][:3] + [log.best["stage2"][2] - 1e-6]},)),
        ("network bounds", checks.check_network, (doc, 3), (too_wide, 3)),
        ("hidden-node cap", checks.check_network, (doc, 3), (doc, len(doc["hidden_nodes"]) - 1)),
        ("merge", checks.check_merge, (pop_a, pop_b, first), (pop_a, pop_b, lopsided)),
        ("merge elite", checks.check_merge, (pop_a, pop_b, first), (pop_a, pop_b, elite_lost)),
        ("above majority", checks.check_above_majority, (g, l), (majority, l)),
        ("balance counts", checks.check_balance_dataset,
         (balance, balance_labels), (balance, flipped)),
        ("split", checks.check_split, ((469, 156), (469, 156)), ((470, 155), (469, 156))),
        ("pattern range", checks.check_pattern_range, (balance,), (above,)),
        ("bit-exact round trip", checks.check_bit_exact,
         ("patterns", balance, balance.copy()), ("patterns", balance, nudged)),
        ("partition", checks.check_partition,
         (balance, [balance[:400], balance[400:]]), (balance, [balance[:400], balance[399:624]])),
        ("repeat", checks.check_repeat, ((gens,), (gens,), "run"), ((gens,), (gens + 1,), "run")),
    ]


def run_selftests() -> list[str]:
    """Messages for every check that rejects a good output or accepts a
    corrupted one; empty when all behave."""
    problems = []
    for name, check, good, bad in _cases():
        try:
            check(*good)
        except checks.CheckError as exc:
            problems.append(f"self-test {name}: rejects the program's output: {exc}")
        try:
            check(*bad)
            problems.append(f"self-test {name}: accepts a corrupted output")
        except checks.CheckError:
            pass
    return problems


if __name__ == "__main__":
    found = run_selftests()
    for problem in found:
        print(problem)
    print("all checks accept good outputs and reject corrupted ones" if not found
          else f"{len(found)} problems")
    sys.exit(1 if found else 0)
