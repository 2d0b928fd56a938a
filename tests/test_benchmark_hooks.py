"""The benchmark in perfbench/ reaches into the library: its tracer rebinds
module attributes, its checks read stage-one individuals by identity and
tag, and its sampler calls the mutation operators one by one. These tests
run those hooks on a tiny problem, so a refactor that breaks them fails here
rather than only in a benchmark run. Nothing in perfbench/ is edited."""

import sys
from pathlib import Path

import numpy as np
import pytest

from evopunn import data, experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import sampler  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture
def tiny_train():
    """Three learnable classes over four inputs in [1, 2]."""
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, 60)
    patterns = 1.0 + rng.random((60, 4))
    patterns[:, 0] = 1.0 + labels / 2.0
    return data.ProcessedDataset(patterns, labels, ["a", "b", "c", "d"], ["x", "y", "z"])


def test_every_attribute_the_tracer_rebinds_exists():
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.PATCHES
               if not hasattr(module, attr)]
    assert missing == [], (
        f"perfbench's tracer (tracing.PATCHES) rebinds {missing}; keep these names "
        "importable from their modules, or every traced benchmark run fails"
    )


def test_output_checks_pass_their_self_tests():
    assert selftest.run_selftests() == []


@pytest.mark.parametrize("config_id", ["1star", "1"])
def test_traced_run_and_layer_sampler(tiny_train, config_id):
    config = experiment.make_config(config_id, neu=2, gen=30, pop_size=10, n_runs=1)
    log = checks.GenerationLog(sample_generation=10)
    with tracing.Tracer(tiny_train.pattern_count) as tracer:
        record, _ = experiment.run_single(config, tiny_train, tiny_train, 3, on_generation=log)
    metrics = tracer.layer_metrics()
    assert metrics["network.fitness_calls"] == record.evaluations == log.evaluations
    # the tracer finds seeding, the stages and the merge only under the module
    # attributes it rebinds; a refactor that moves them zeroes these metrics
    two_stage = config_id == "1star"
    assert len(tracer.spans("evolution.initialize_population")) == (2 if two_stage else 1)
    assert metrics["evolution.initialize_population_s"] > 0
    if two_stage:
        assert metrics["twostage.stage1_s"] > 0
        assert metrics["twostage.stage2_s"] > 0
        assert metrics["twostage.merge_populations_us"] > 0
    assert log.sample is not None
    layers = sampler.sample_layers(log.sample, config.ea_params(), tiny_train, 1, 1)
    assert all(np.isfinite(value) for value in layers.values())
