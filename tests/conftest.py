import math

import numpy as np
import pytest

from evopunn.data import NormalizationParams, ProcessedDataset
from evopunn.network import PunnNetwork


def build_net(input_count, class_count, hidden, outputs) -> PunnNetwork:
    """Network from {input: exponent} dicts per node and (bias, {hidden: coeff})
    pairs per output."""
    m = len(hidden)
    exponents = np.zeros((m, input_count))
    exponent_mask = np.zeros((m, input_count), dtype=bool)
    for j, links in enumerate(hidden):
        for i, w in links.items():
            exponents[j, i] = w
            exponent_mask[j, i] = True
    n_out = class_count - 1
    coefficients = np.zeros((n_out, m))
    coefficient_mask = np.zeros((n_out, m), dtype=bool)
    biases = np.zeros(n_out)
    for l, (bias, links) in enumerate(outputs):
        biases[l] = bias
        for j, c in links.items():
            coefficients[l, j] = c
            coefficient_mask[l, j] = True
    return PunnNetwork(exponents, exponent_mask, coefficients, coefficient_mask, biases)


def make_dataset(patterns, labels, class_count=None) -> ProcessedDataset:
    """ProcessedDataset straight from arrays, for engine and scoring tests."""
    patterns = np.asarray(patterns, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if class_count is None:
        class_count = int(labels.max()) + 1
    return ProcessedDataset(
        patterns,
        labels,
        [f"x{i}" for i in range(patterns.shape[1])],
        [f"c{i}" for i in range(class_count)],
        NormalizationParams(np.zeros(patterns.shape[1]), np.ones(patterns.shape[1])),
    )


def random_dataset(rng, n=20, k=3, class_count=2) -> ProcessedDataset:
    """Random patterns in [1, 2] with labels covering every class."""
    patterns = rng.uniform(1.0, 2.0, (n, k))
    labels = rng.integers(0, class_count, n)
    labels[:class_count] = np.arange(class_count)  # keep every class populated
    return make_dataset(patterns, labels, class_count)


def hand_outputs(doc: dict, pattern) -> list[float]:
    """Brute-force forward pass straight off the serialized model document,
    multiplying out each product term with math.pow. Independent of the
    library's log-space evaluation."""
    outputs = []
    for out in doc["outputs"]:
        total = out["bias"]
        for j, coefficient in out["links"]:
            product = 1.0
            for i, exponent in doc["hidden_nodes"][j]:
                product *= math.pow(pattern[i], exponent)
            total += coefficient * product
        outputs.append(total)
    return outputs


def hand_cross_entropy(net, dataset) -> float:
    """Direct definition: softmax probabilities, then -mean(log p_true)."""
    from evopunn.network import evaluate_outputs

    total = 0.0
    for pattern, label in zip(dataset.patterns, dataset.labels):
        f = list(evaluate_outputs(net, pattern)) + [0.0]
        mx = max(f)
        exps = [math.exp(v - mx) for v in f]
        probs = [v / sum(exps) for v in exps]
        total += -math.log(probs[label])
    return total / dataset.pattern_count


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def toy_train(rng):
    """Small separable two-class problem in the [1, 2] domain."""
    n = 12
    patterns = np.empty((n, 2))
    patterns[: n // 2] = rng.uniform(1.0, 1.4, (n // 2, 2))
    patterns[n // 2 :] = rng.uniform(1.6, 2.0, (n // 2, 2))
    labels = np.array([0] * (n // 2) + [1] * (n // 2))
    return make_dataset(patterns, labels, 2)
