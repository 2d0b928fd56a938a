"""Product-unit network model.

A network maps k strictly positive inputs through m hidden product units
(each computes a product of inputs raised to real exponents) to L-1 linear
outputs; the L-th class is the reference with its output fixed at zero.
Class probabilities come from a softmax over the L outputs.

Representation: dense (m, k) exponent and (L-1, m) coefficient matrices with
boolean masks marking which connections exist. Entries whose mask is False
are kept at exactly 0.0 so the forward pass needs no masking.

Layout of the batch forward pass: pattern-major. The dataset caches its log
patterns transposed, as a C-contiguous (k, N) matrix, so one network's class
outputs over all N patterns come out as an (L, N) matrix whose rows are
contiguous: the L-1 trainable outputs C @ exp(E @ log(X)^T) + b, then the
reference class's row of zeros. Every reduction over classes is then an
elementwise ufunc over whole rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

WEIGHT_INTERVAL = (-5.0, 5.0)

MODEL_FORMAT = "punn-model"
MODEL_VERSION = 1


@dataclass
class PunnNetwork:
    exponents: np.ndarray         # (m, k) float64, input -> hidden weights
    exponent_mask: np.ndarray     # (m, k) bool
    coefficients: np.ndarray      # (L-1, m) float64, hidden -> output weights
    coefficient_mask: np.ndarray  # (L-1, m) bool
    biases: np.ndarray            # (L-1,) float64

    @property
    def input_count(self) -> int:
        return self.exponents.shape[1]

    @property
    def hidden_count(self) -> int:
        return self.exponents.shape[0]

    @property
    def output_count(self) -> int:
        return self.biases.shape[0]

    @property
    def class_count(self) -> int:
        return self.biases.shape[0] + 1

    def validate(self, weight_interval: tuple[float, float] | None = None) -> None:
        """Raise ValueError if the structural invariants are broken."""
        m, k = self.exponents.shape
        if m < 1:
            raise ValueError("network has no hidden node")
        if self.exponent_mask.shape != (m, k):
            raise ValueError("exponent mask shape mismatch")
        if self.coefficients.shape != (self.output_count, m):
            raise ValueError("coefficient matrix shape mismatch")
        if self.coefficient_mask.shape != (self.output_count, m):
            raise ValueError("coefficient mask shape mismatch")
        if self.biases.shape != (self.output_count,):
            raise ValueError("bias vector shape mismatch")
        if np.any(self.exponents[~self.exponent_mask] != 0.0):
            raise ValueError("absent input connection carries a nonzero exponent")
        if np.any(self.coefficients[~self.coefficient_mask] != 0.0):
            raise ValueError("absent output connection carries a nonzero coefficient")
        if weight_interval is not None:
            lo, hi = weight_interval
            for arr in (self.exponents, self.coefficients, self.biases):
                if np.any(arr < lo) or np.any(arr > hi):
                    raise ValueError("weight outside the configured interval")


def evaluate_outputs(net: PunnNetwork, pattern) -> np.ndarray:
    """Raw outputs of the L-1 trainable output nodes for one pattern.

    A hidden node with no input connections contributes the empty product 1;
    a hidden node not connected to an output contributes 0 there. The
    reference class output is identically 0 and is not returned.
    """
    x = np.asarray(pattern, dtype=float)
    if x.shape != (net.input_count,):
        raise ValueError(
            f"pattern has {x.size} components, network expects {net.input_count}"
        )
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("pattern components must be finite and strictly positive")
    hidden = np.exp(net.exponents @ np.log(x))
    return net.coefficients @ hidden + net.biases


def class_outputs(net: PunnNetwork, dataset) -> np.ndarray:
    """(L, N) outputs of every class for every pattern of a processed dataset.

    Row c < L-1 holds trainable output c, computed pattern-major as
    C @ exp(E @ log(X)^T) + b; the last row is the reference class's zero.
    """
    hidden = net.exponents @ dataset.log_patterns_t
    np.exp(hidden, out=hidden)
    outputs = np.zeros((net.class_count, dataset.pattern_count))
    np.matmul(net.coefficients, hidden, out=outputs[:-1])
    outputs[:-1] += net.biases[:, None]
    return outputs


def class_probabilities(outputs) -> np.ndarray:
    """Softmax class distribution from the L-1 raw outputs.

    The implicit zero output of the reference class is appended before the
    softmax. Shift-stable: the maximum is subtracted first, which leaves the
    distribution unchanged.
    """
    f = np.asarray(outputs, dtype=float)
    if f.ndim != 1:
        raise ValueError("outputs must be a flat vector")
    if not np.all(np.isfinite(f)):
        raise ValueError("outputs contain non-finite values")
    full = np.append(f, 0.0)
    e = np.exp(full - full.max())
    return e / e.sum()


def predict_classes(net: PunnNetwork, dataset) -> np.ndarray:
    """Predicted class index per pattern of a processed dataset; ties resolve
    to the lowest index. Non-finite outputs have no class and raise ValueError."""
    _check_compatible(net, dataset)
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = class_outputs(net, dataset)
    if not np.isfinite(outputs).all():
        raise ValueError("network outputs are not finite on this dataset")
    return np.argmax(outputs, axis=0)


def _check_compatible(net: PunnNetwork, dataset) -> None:
    if dataset.pattern_count == 0:
        raise ValueError("dataset is empty")
    if dataset.input_count != net.input_count:
        raise ValueError(
            f"dataset has {dataset.input_count} inputs, network expects {net.input_count}"
        )
    if dataset.class_count != net.class_count:
        raise ValueError(
            f"dataset has {dataset.class_count} classes, network expects {net.class_count}"
        )


def cross_entropy_error(net: PunnNetwork, dataset) -> float:
    """Mean cross-entropy of the softmax distribution over the dataset.

    Computed as mean_i(lse_i - f_{y_i}(x_i)), which is algebraically
    identical to -mean_i(log g_{y_i}(x_i)), with the max-shifted
    log-sum-exp lse_i = m_i + log(sum_c exp(f_c(x_i) - m_i)) over all L
    outputs (the reference output included at 0) and
    m_i = max(0, f_1(x_i), ..., f_{L-1}(x_i)). The largest term of the sum
    is exactly 1, so lse_i >= m_i >= f_{y_i}(x_i) and the error is never
    negative. Outputs that overflow make it non-finite. The mean is the
    pairwise sum over patterns divided by N, as ndarray.mean computes it.
    """
    _check_compatible(net, dataset)
    with np.errstate(over="ignore", invalid="ignore"):
        f = class_outputs(net, dataset)
        target = np.take(f, dataset.target_index)
        shift = np.maximum.reduce(f, axis=0)
        f -= shift
        np.exp(f, out=f)
        lse = np.log(np.add.reduce(f, axis=0))
        lse += shift
        lse -= target
        return float(np.add.reduce(lse)) / dataset.pattern_count


def fitness(net: PunnNetwork, dataset) -> float:
    """Fitness 1 / (1 + error), in (0, 1] and strictly decreasing in the error.

    Networks whose outputs overflow to non-finite values get fitness 0.0,
    the limit of the formula for unbounded error.
    """
    err = cross_entropy_error(net, dataset)
    if not math.isfinite(err):
        return 0.0
    return 1.0 / (1.0 + err)


def correct_classification_rate(net: PunnNetwork, dataset) -> float:
    """Percentage of dataset patterns whose predicted class is the true class."""
    predicted = predict_classes(net, dataset)
    return 100.0 * float(np.mean(predicted == dataset.labels))


def count_connections(net: PunnNetwork) -> int:
    """Existing input->hidden plus hidden->output connections plus the L-1 biases."""
    links = np.count_nonzero(net.exponent_mask) + np.count_nonzero(net.coefficient_mask)
    return int(links) + net.output_count


def random_network(
    rng: np.random.Generator,
    input_count: int,
    max_hidden: int,
    class_count: int,
    weight_interval: tuple[float, float] = WEIGHT_INTERVAL,
    link_density: float = 0.5,
) -> PunnNetwork:
    """Random network: hidden node count uniform in [1, max_hidden], sparse
    random input connections per node, every node connected to every output,
    all weights uniform in the weight interval."""
    if input_count < 1:
        raise ValueError("input_count must be at least 1")
    if max_hidden < 1:
        raise ValueError("max_hidden must be at least 1")
    if class_count < 2:
        raise ValueError("class_count must be at least 2")
    if not 0.0 < link_density <= 1.0:
        raise ValueError("link_density must be in (0, 1]")
    lo, hi = weight_interval
    if lo > hi:
        raise ValueError("weight interval is empty")

    m = int(rng.integers(1, max_hidden + 1))
    exponent_mask = rng.random((m, input_count)) < link_density
    empty = np.flatnonzero(~exponent_mask.any(axis=1))
    while empty.size:  # same per-node redraw rule as evolution._add_node
        exponent_mask[empty] = rng.random((empty.size, input_count)) < link_density
        empty = np.flatnonzero(~exponent_mask.any(axis=1))
    exponents = np.zeros((m, input_count))
    exponents[exponent_mask] = rng.uniform(lo, hi, int(exponent_mask.sum()))
    outputs = class_count - 1
    coefficients = rng.uniform(lo, hi, (outputs, m))
    coefficient_mask = np.ones((outputs, m), dtype=bool)
    biases = rng.uniform(lo, hi, outputs)
    return PunnNetwork(exponents, exponent_mask, coefficients, coefficient_mask, biases)


def network_document(
    net: PunnNetwork,
    max_hidden: int | None = None,
    class_names: list[str] | None = None,
    feature_names: list[str] | None = None,
) -> dict:
    """Versioned, JSON-ready description of a network.

    Each hidden node lists its existing input connections as [input index,
    exponent] pairs and each output its hidden connections as [hidden index,
    coefficient] pairs, indices ascending. Floats survive a round trip
    bit-exactly (repr emits the shortest decimal that parses back to the same
    double, never more than 17 significant digits).
    """
    def links(weights: np.ndarray, mask: np.ndarray) -> list[tuple[int, float]]:
        return [(int(i), float(weights[i])) for i in np.flatnonzero(mask)]

    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "input_count": net.input_count,
        "class_count": net.class_count,
        "max_hidden": max_hidden if max_hidden is not None else net.hidden_count,
        "hidden_nodes": [
            links(net.exponents[j], net.exponent_mask[j]) for j in range(net.hidden_count)
        ],
        "outputs": [
            {
                "bias": float(net.biases[l]),
                "links": links(net.coefficients[l], net.coefficient_mask[l]),
            }
            for l in range(net.output_count)
        ],
    }
    if class_names is not None:
        doc["class_names"] = list(class_names)
    if feature_names is not None:
        doc["feature_names"] = list(feature_names)
    return doc


def serialize_network(net: PunnNetwork, **metadata) -> str:
    return json.dumps(network_document(net, **metadata), indent=2)


def _field(mapping, key: str, where: str):
    """mapping[key] of a parsed model document; ValueError naming the key
    when it is absent or the mapping is not a JSON object."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"{where} lacks {key!r}")
    return mapping[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} is not a list")
    return value


def _count(doc: dict, key: str, least: int) -> int:
    """doc[key] when it is a JSON integer of at least least, bool excluded."""
    value = _field(doc, key, "model document")
    if type(value) is not int or value < least:
        raise ValueError(f"model document: {key} {value!r} is not an integer >= {least}")
    return value


def _names(doc: dict, key: str, count: int) -> None:
    """ValueError naming key when doc has it and it is not a list of count
    strings (a string would be indexed character by character)."""
    if key not in doc:
        return
    value = doc[key]
    if not (isinstance(value, list) and len(value) == count
            and all(isinstance(name, str) for name in value)):
        raise ValueError(f"model document: {key} is not a list of {count} strings")


def _finite(value, what: str) -> float:
    """A JSON number that a double holds finitely, as a float; ValueError
    naming what otherwise (json also parses NaN, Infinity and 1e400)."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} {value!r} is not a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the double range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} {value!r} is not finite")
    return number


def _links(links, where: str) -> list[tuple[int, float]]:
    """The (index, weight) pairs of a node's or an output's link list;
    ValueError naming where when the list or an entry has the wrong shape."""
    pairs = []
    for entry in _list(links, f"{where}: links"):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError(f"{where}: link {entry!r} is not an [index, weight] pair")
        index, weight = entry
        if type(index) is not int:
            raise ValueError(f"{where}: link index {index!r} is not an integer")
        pairs.append((index, _finite(weight, f"{where}: link weight")))
    return pairs


def network_from_document(doc: dict) -> PunnNetwork:
    if not isinstance(doc, dict):
        raise ValueError("model document is not a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a recognized model document")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    k = _count(doc, "input_count", 1)
    outputs = _count(doc, "class_count", 2) - 1
    _names(doc, "feature_names", k)
    _names(doc, "class_names", outputs + 1)
    nodes = _list(_field(doc, "hidden_nodes", "model document"), "hidden_nodes")
    if not nodes:
        raise ValueError("hidden_nodes is empty: a network has at least one hidden node")
    m = len(nodes)
    exponents = np.zeros((m, k))
    exponent_mask = np.zeros((m, k), dtype=bool)
    for j, links in enumerate(nodes):
        for i, w in _links(links, f"hidden node {j}"):
            if not 0 <= i < k:
                raise ValueError(f"hidden node {j}: input index {i} out of range")
            if exponent_mask[j, i]:
                raise ValueError(f"hidden node {j}: input index {i} listed twice")
            exponents[j, i] = w
            exponent_mask[j, i] = True
    coefficients = np.zeros((outputs, m))
    coefficient_mask = np.zeros((outputs, m), dtype=bool)
    biases = np.zeros(outputs)
    output_docs = _list(_field(doc, "outputs", "model document"), "outputs")
    if len(output_docs) != outputs:
        raise ValueError("output node count disagrees with class count")
    for l, out in enumerate(output_docs):
        biases[l] = _finite(_field(out, "bias", f"output {l}"), f"output {l}: bias")
        for j, c in _links(_field(out, "links", f"output {l}"), f"output {l}"):
            if not 0 <= j < m:
                raise ValueError(f"output {l}: hidden index {j} out of range")
            if coefficient_mask[l, j]:
                raise ValueError(f"output {l}: hidden index {j} listed twice")
            coefficients[l, j] = c
            coefficient_mask[l, j] = True
    return PunnNetwork(exponents, exponent_mask, coefficients, coefficient_mask, biases)


def deserialize_network(text: str) -> tuple[PunnNetwork, dict]:
    """Parse a serialized model; returns the network and the full document."""
    doc = json.loads(text)
    return network_from_document(doc), doc
