import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evopunn.network import (
    PunnNetwork,
    class_outputs,
    class_probabilities,
    correct_classification_rate,
    count_connections,
    cross_entropy_error,
    deserialize_network,
    evaluate_outputs,
    fitness,
    network_document,
    predict_classes,
    random_network,
    serialize_network,
)

from conftest import build_net, hand_cross_entropy, hand_outputs, make_dataset, random_dataset


def predict_class(net, pattern) -> int:
    """Most probable class index of one pattern by the scalar oracle; ties
    resolve to the lowest index."""
    return int(np.argmax(class_probabilities(evaluate_outputs(net, pattern))))


class TestEvaluateOutputs:
    def test_hand_example(self):
        net = build_net(2, 2, [{0: 1.0, 1: 2.0}], [(1.0, {0: 2.0})])
        f = evaluate_outputs(net, [1.5, 2.0])
        assert f == pytest.approx([13.0], abs=1e-12)

    def test_all_zero_weights(self):
        net = build_net(2, 3, [{0: 1.0}], [(0.0, {}), (0.0, {})])
        net.coefficients[:] = 0.0
        assert evaluate_outputs(net, [1.3, 1.7]) == pytest.approx([0.0, 0.0])

    def test_empty_product_is_one(self):
        net = build_net(2, 2, [{}], [(1.0, {0: 3.0})])
        assert evaluate_outputs(net, [1.9, 1.1]) == pytest.approx([4.0])

    def test_unconnected_hidden_node_contributes_zero(self):
        net = build_net(2, 2, [{0: 2.0}, {1: 1.0}], [(0.5, {0: 2.0})])
        f = evaluate_outputs(net, [1.5, 1.9])
        assert f == pytest.approx([0.5 + 2.0 * 1.5**2], rel=1e-12)

    def test_dimension_error(self):
        net = build_net(2, 2, [{0: 1.0}], [(0.0, {0: 1.0})])
        with pytest.raises(ValueError, match="components"):
            evaluate_outputs(net, [1.0, 1.0, 1.0])

    def test_domain_error_on_nonpositive(self):
        net = build_net(2, 2, [{0: 1.0}], [(0.0, {0: 1.0})])
        with pytest.raises(ValueError, match="positive"):
            evaluate_outputs(net, [0.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            evaluate_outputs(net, [-1.0, 1.0])

    def test_against_brute_force_oracle(self, rng):
        for _ in range(1000):
            k = int(rng.integers(1, 4))
            net = random_network(rng, k, 3, int(rng.integers(2, 4)))
            doc = network_document(net)
            x = rng.uniform(1.0, 2.0, k)
            expected = hand_outputs(doc, x)
            got = evaluate_outputs(net, x)
            for a, b in zip(got, expected):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


class TestClassProbabilities:
    def test_symmetric_binary(self):
        assert class_probabilities([0.0]) == pytest.approx([0.5, 0.5])

    def test_binary_closed_form(self):
        assert class_probabilities([math.log(3)]) == pytest.approx([0.75, 0.25])

    def test_three_way_uniform(self):
        assert class_probabilities([0.0, 0.0]) == pytest.approx([1 / 3] * 3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            class_probabilities([float("inf")])

    def test_sum_and_shift_invariance(self, rng):
        for _ in range(1000):
            outputs = rng.uniform(-30, 30, int(rng.integers(1, 6)))
            p = class_probabilities(outputs)
            assert abs(p.sum() - 1.0) < 1e-9
            assert np.all(p > 0)
            # softmax of every logit (reference zero included) shifted by a
            # constant, computed independently, must match
            shift = rng.uniform(-20, 20)
            shifted = np.append(outputs, 0.0) + shift
            e = np.exp(shifted - shifted.max())
            assert np.max(np.abs(p - e / e.sum())) < 1e-12


class TestPredictClass:
    def test_confident_first_class(self):
        net = build_net(1, 2, [{}], [(2.0, {})])
        assert predict_class(net, [1.5]) == 0

    def test_reference_class_wins(self):
        net = build_net(1, 2, [{}], [(-2.0, {})])
        assert predict_class(net, [1.5]) == 1

    def test_tie_breaks_low(self):
        net = build_net(1, 3, [{}], [(0.0, {}), (0.0, {})])
        assert predict_class(net, [1.5]) == 0

    def test_argmax_invariant_under_monotone_transforms(self, rng):
        for _ in range(200):
            net = random_network(rng, 2, 3, int(rng.integers(2, 5)))
            x = rng.uniform(1.0, 2.0, 2)
            p = class_probabilities(evaluate_outputs(net, x))
            chosen = predict_class(net, x)
            for transform in (np.sqrt, np.log, lambda v: 3.0 * v - 1.0):
                assert int(np.argmax(transform(p))) == chosen


class TestCrossEntropy:
    def test_single_pattern_mid(self):
        net = build_net(1, 2, [{}], [(0.0, {})])
        ds = make_dataset([[1.5]], [0], 2)
        assert cross_entropy_error(net, ds) == pytest.approx(math.log(2), abs=1e-12)

    def test_single_pattern_reference_class(self):
        net = build_net(1, 2, [{}], [(0.0, {})])
        ds = make_dataset([[1.5]], [1], 2)
        assert cross_entropy_error(net, ds) == pytest.approx(math.log(2), abs=1e-12)

    def test_two_pattern_closed_form(self):
        net = build_net(1, 2, [{}], [(math.log(3), {})])
        ds = make_dataset([[1.5], [1.5]], [0, 1], 2)
        expected = (-math.log(0.75) - math.log(0.25)) / 2
        assert cross_entropy_error(net, ds) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.836988, abs=1e-6)

    def test_empty_dataset_rejected(self):
        net = build_net(1, 2, [{}], [(0.0, {})])
        ds = make_dataset(np.empty((0, 1)), np.empty(0, dtype=int), 2)
        with pytest.raises(ValueError, match="empty"):
            cross_entropy_error(net, ds)

    def test_agrees_with_direct_definition(self, rng):
        # weights kept moderate so the direct softmax-then-log route stays
        # finitely computable; the two forms are algebraically identical
        for _ in range(1000):
            k = int(rng.integers(1, 4))
            class_count = int(rng.integers(2, 5))
            net = random_network(rng, k, 3, class_count, weight_interval=(-1.5, 1.5))
            ds = random_dataset(rng, n=int(rng.integers(4, 12)), k=k, class_count=class_count)
            assert cross_entropy_error(net, ds) == pytest.approx(
                hand_cross_entropy(net, ds), abs=1e-9
            )


class TestPatternMajorKernel:
    """The batch kernel against the per-pattern oracle (evaluate_outputs and
    class_probabilities), at binary, 3-class and 5-class widths."""

    @pytest.mark.parametrize("class_count", [2, 3, 5])
    def test_matches_per_pattern_oracle(self, rng, class_count):
        for _ in range(100):
            k = int(rng.integers(1, 6))
            net = random_network(rng, k, 4, class_count, weight_interval=(-1.5, 1.5))
            ds = random_dataset(rng, n=int(rng.integers(class_count, 40)), k=k,
                                class_count=class_count)
            outputs = class_outputs(net, ds)
            assert outputs.shape == (class_count, ds.pattern_count)
            assert np.all(outputs[-1] == 0.0)
            oracle_error = 0.0
            for i, (pattern, label) in enumerate(zip(ds.patterns, ds.labels)):
                f = evaluate_outputs(net, pattern)
                np.testing.assert_allclose(outputs[:-1, i], f, rtol=1e-12, atol=1e-12)
                oracle_error -= math.log(class_probabilities(f)[label])
            oracle_error /= ds.pattern_count
            assert cross_entropy_error(net, ds) == pytest.approx(oracle_error, rel=1e-12)
            assert np.array_equal(
                predict_classes(net, ds), [predict_class(net, x) for x in ds.patterns]
            )

    def test_error_never_negative(self, rng):
        # full weight interval: margins are often large enough for a
        # pattern's error to round to zero, never below it
        for _ in range(300):
            k = int(rng.integers(1, 6))
            class_count = int(rng.integers(2, 6))
            net = random_network(rng, k, 4, class_count)
            ds = random_dataset(rng, n=12, k=k, class_count=class_count)
            assert cross_entropy_error(net, ds) >= 0.0

    def test_overflow_gives_fitness_zero(self):
        # 2 ** 2000 overflows the hidden unit, so the outputs are infinite
        net = build_net(1, 3, [{0: 2000.0}], [(0.0, {0: 1.0}), (0.0, {0: -1.0})])
        ds = make_dataset([[2.0], [1.5]], [0, 2], 3)
        assert not np.isfinite(cross_entropy_error(net, ds))
        assert fitness(net, ds) == 0.0

    def test_true_class_at_minus_infinity_gives_fitness_zero(self):
        net = build_net(1, 2, [{0: 2000.0}], [(0.0, {0: -1.0})])
        ds = make_dataset([[2.0]], [0], 2)
        assert fitness(net, ds) == 0.0

    def test_ties_resolve_to_lowest_index(self):
        # all outputs equal: every pattern goes to class 0
        flat = build_net(1, 3, [{}], [(0.0, {}), (0.0, {})])
        ds = make_dataset([[1.2], [1.7], [1.9]], [0, 1, 2], 3)
        assert predict_classes(flat, ds).tolist() == [0, 0, 0]
        # class 1 ties with the reference class: the lower index wins
        tied = build_net(1, 3, [{}], [(-1.0, {}), (0.0, {})])
        assert predict_classes(tied, ds).tolist() == [1, 1, 1]


class TestFitness:
    def test_boundary_values(self):
        net = build_net(1, 2, [{}], [(0.0, {})])
        ds = make_dataset([[1.5]], [0], 2)
        # error is ln 2 here, so fitness is 1/(1 + ln 2)
        assert fitness(net, ds) == pytest.approx(1 / (1 + math.log(2)), abs=1e-12)
        assert fitness(net, ds) == pytest.approx(0.59061, abs=1e-5)

    def test_zero_error_gives_fitness_one(self):
        # in-interval weights produce a margin large enough that the
        # cross-entropy underflows to exactly zero
        net = build_net(2, 2, [{0: 5.0, 1: 5.0}], [(0.0, {0: 5.0})])
        ds = make_dataset([[2.0, 2.0]], [0], 2)
        assert cross_entropy_error(net, ds) == 0.0
        assert fitness(net, ds) == 1.0

    def test_monotone_in_error(self, rng):
        ds = random_dataset(rng, n=10, k=2, class_count=2)
        pairs = []
        for _ in range(50):
            net = random_network(rng, 2, 3, 2)
            pairs.append((cross_entropy_error(net, ds), fitness(net, ds)))
        for (e1, f1) in pairs:
            assert 0.0 < f1 <= 1.0
            for (e2, f2) in pairs:
                if e1 < e2:
                    assert f1 > f2


class TestCcr:
    def test_all_correct(self):
        net = build_net(1, 2, [{}], [(2.0, {})])
        ds = make_dataset([[1.5], [1.2]], [0, 0], 2)
        assert correct_classification_rate(net, ds) == 100.0

    def test_half_correct(self):
        net = build_net(1, 2, [{}], [(2.0, {})])
        ds = make_dataset([[1.5], [1.2]], [0, 1], 2)
        assert correct_classification_rate(net, ds) == 50.0

    def test_none_correct(self):
        net = build_net(1, 2, [{}], [(2.0, {})])
        ds = make_dataset([[1.5], [1.2], [1.4], [1.9]], [1, 1, 1, 1], 2)
        assert correct_classification_rate(net, ds) == 0.0

    def test_non_finite_outputs_raise(self):
        # (1e300) ** 5 overflows the hidden unit; the fitness path still
        # maps this to 0.0, but there is no class to predict
        net = build_net(1, 3, [{0: 5.0}], [(0.0, {0: 1.0}), (0.0, {0: -1.0})])
        ds = make_dataset([[1e300], [1.5]], [0, 2], 3)
        assert fitness(net, ds) == 0.0
        with pytest.raises(ValueError, match="not finite"):
            predict_classes(net, ds)
        with pytest.raises(ValueError, match="not finite"):
            correct_classification_rate(net, ds)


class TestCountsFromShapes:
    def test_network_is_its_five_arrays(self):
        net = build_net(4, 3, [{0: 1.0}, {2: -1.0}], [(0.5, {0: 1.0}), (0.0, {1: 2.0})])
        assert [f.name for f in fields(net)] == [
            "exponents", "exponent_mask", "coefficients", "coefficient_mask", "biases"]
        counts = (net.input_count, net.hidden_count, net.output_count, net.class_count)
        assert counts == (4, 2, 2, 3)


class TestConnections:
    def test_small_example(self):
        net = build_net(2, 2, [{0: 1.0, 1: 2.0}], [(1.0, {0: 2.0})])
        assert count_connections(net) == 4  # 2 exponents + 1 coefficient + 1 bias

    def test_isolated_node_still_counts_bias(self):
        net = build_net(2, 2, [{}], [(1.0, {})])
        assert count_connections(net) == 1

    def test_upper_bound_at_pima_scale(self, rng):
        # 8 inputs, at most 4 hidden nodes, 2 classes: 8*4 + 4 + 1 = 37
        bound = 8 * 4 + 4 + 1
        assert bound == 37
        for _ in range(200):
            net = random_network(rng, 8, 4, 2)
            assert count_connections(net) <= bound


# Reference copies of the scoring code as it was before its per-call overhead
# was trimmed: ndarray.mean for the error, np.isfinite in fitness,
# ndarray.sum over the masks. The forward pass is copied too, so the test pins
# every bit of a fitness value, not only the final reduction.

def _reference_cross_entropy_error(net, dataset):
    with np.errstate(over="ignore", invalid="ignore"):
        hidden = net.exponents @ dataset.log_patterns_t
        np.exp(hidden, out=hidden)
        f = np.zeros((net.class_count, dataset.pattern_count))
        np.matmul(net.coefficients, hidden, out=f[:-1])
        f[:-1] += net.biases[:, None]
        target = np.take(f, dataset.target_index)
        shift = np.maximum.reduce(f, axis=0)
        f -= shift
        np.exp(f, out=f)
        lse = np.log(np.add.reduce(f, axis=0))
        lse += shift
        lse -= target
        return float(lse.mean())


def _reference_fitness(net, dataset):
    err = _reference_cross_entropy_error(net, dataset)
    if not np.isfinite(err):
        return 0.0
    return 1.0 / (1.0 + err)


def _reference_count_connections(net):
    return int(net.exponent_mask.sum()) + int(net.coefficient_mask.sum()) + net.output_count


# (N, k, L) of the Balance Scale training split and of Waveform's
SCORING_DATA = {
    "balance": random_dataset(np.random.default_rng(469), n=469, k=4, class_count=3),
    "waveform": random_dataset(np.random.default_rng(3750), n=3750, k=40, class_count=3),
}


class TestScoringMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.sampled_from(sorted(SCORING_DATA)),
        net_seed=st.integers(0, 2**32 - 1),
        max_hidden=st.integers(1, 8),
        link_density=st.sampled_from([0.1, 0.5, 1.0]),
        coefficient_density=st.sampled_from([0.0, 0.5, 1.0]),
        exponent_scale=st.sampled_from([1.0, 50.0]),  # 50 overflows the hidden units
    )
    def test_bit_identical_fitness_and_count(
        self, data, net_seed, max_hidden, link_density, coefficient_density, exponent_scale,
    ):
        dataset = SCORING_DATA[data]
        net_rng = np.random.default_rng(net_seed)
        net = random_network(net_rng, dataset.input_count, max_hidden, dataset.class_count,
                             link_density=link_density)
        dropped = net_rng.random(net.coefficients.shape) >= coefficient_density
        net.coefficients[dropped] = 0.0
        net.coefficient_mask[dropped] = False
        net.exponents *= exponent_scale

        expected = _reference_fitness(net, dataset)
        got = fitness(net, dataset)
        assert type(got) is float
        assert got.hex() == expected.hex()
        connections = count_connections(net)
        assert type(connections) is int
        assert connections == _reference_count_connections(net)


class TestRandomNetwork:
    def test_full_density_is_fully_connected(self, rng):
        net = random_network(rng, 5, 1, 3, link_density=1.0)
        assert net.hidden_count == 1
        assert net.exponent_mask.all()
        assert net.coefficient_mask.all()
        net.validate(weight_interval=(-5.0, 5.0))

    def test_same_seed_same_network(self):
        a = random_network(np.random.default_rng(7), 4, 3, 3)
        b = random_network(np.random.default_rng(7), 4, 3, 3)
        assert np.array_equal(a.exponents, b.exponents)
        assert np.array_equal(a.exponent_mask, b.exponent_mask)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.biases, b.biases)

    def test_hidden_count_uniform(self, rng):
        draws = 10000
        counts = np.bincount(
            [random_network(rng, 3, 4, 2).hidden_count for _ in range(draws)],
            minlength=5,
        )[1:]
        sigma = math.sqrt(0.25 * 0.75 / draws)
        for c in counts:
            assert abs(c / draws - 0.25) < 4 * sigma

    def test_weights_respect_interval(self, rng):
        for _ in range(200):
            net = random_network(rng, 6, 4, 3)
            net.validate(weight_interval=(-5.0, 5.0))
            assert net.exponent_mask.sum(axis=1).min() >= 1  # every node keeps an input

    def test_invalid_arguments(self, rng):
        with pytest.raises(ValueError):
            random_network(rng, 3, 0, 2)
        with pytest.raises(ValueError):
            random_network(rng, 3, 2, 1)
        with pytest.raises(ValueError):
            random_network(rng, 3, 2, 2, link_density=0.0)


class TestSerialization:
    def test_round_trip_bit_exact(self, rng):
        for _ in range(50):
            net = random_network(rng, int(rng.integers(1, 6)), 4, int(rng.integers(2, 5)))
            text = serialize_network(net)
            restored, doc = deserialize_network(text)
            assert np.array_equal(net.exponents, restored.exponents)
            assert np.array_equal(net.exponent_mask, restored.exponent_mask)
            assert np.array_equal(net.coefficients, restored.coefficients)
            assert np.array_equal(net.coefficient_mask, restored.coefficient_mask)
            assert np.array_equal(net.biases, restored.biases)
            # a second round trip through text is byte-identical
            assert serialize_network(restored) == text

    def test_document_metadata(self, rng):
        net = random_network(rng, 2, 3, 2)
        text = serialize_network(net, max_hidden=3, class_names=["a", "b"])
        doc = json.loads(text)
        assert doc["max_hidden"] == 3
        assert doc["class_names"] == ["a", "b"]
        assert doc["version"] == 1

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            deserialize_network(json.dumps({"format": "something-else", "version": 1}))

    @pytest.mark.parametrize("key", ["input_count", "class_count", "hidden_nodes", "outputs"])
    def test_missing_key_is_named(self, rng, key):
        doc = network_document(random_network(rng, 3, 2, 3))
        del doc[key]
        with pytest.raises(ValueError, match=f"^model document lacks '{key}'$"):
            deserialize_network(json.dumps(doc))

    @pytest.mark.parametrize("key", ["bias", "links"])
    def test_output_missing_key_is_named(self, rng, key):
        doc = network_document(random_network(rng, 3, 2, 3))
        del doc["outputs"][1][key]
        with pytest.raises(ValueError, match=f"^output 1 lacks '{key}'$"):
            deserialize_network(json.dumps(doc))

    def test_output_that_is_not_an_object(self, rng):
        doc = network_document(random_network(rng, 3, 2, 3))
        doc["outputs"][0] = [0.5, []]
        with pytest.raises(ValueError, match="^output 0 lacks 'bias'$"):
            deserialize_network(json.dumps(doc))

    @pytest.mark.parametrize("key", ["hidden_nodes", "outputs"])
    @pytest.mark.parametrize("value", [5, {"0": []}, "links", None])
    def test_part_that_is_not_a_list_is_named(self, rng, key, value):
        doc = network_document(random_network(rng, 3, 2, 3))
        doc[key] = value
        with pytest.raises(ValueError, match=f"^{key} is not a list$"):
            deserialize_network(json.dumps(doc))

    @pytest.mark.parametrize("links, message", [
        (7, "links is not a list"),
        ({"0": 1.0}, "links is not a list"),
        ([0.5], r"link 0\.5 is not an \[index, weight\] pair"),
        ([[0]], r"link \[0\] is not an \[index, weight\] pair"),
        ([[0, 1.0, 2.0]], r"link \[0, 1\.0, 2\.0\] is not an \[index, weight\] pair"),
        ([[0.0, 1.0]], r"link index 0\.0 is not an integer"),
        ([["0", 1.0]], "link index '0' is not an integer"),
        ([[True, 1.0]], "link index True is not an integer"),
        ([[0, None]], "link weight None is not a number"),
        ([[0, "1.5"]], "link weight '1.5' is not a number"),
        # every entry is checked before any is placed, so a malformed entry
        # is reported ahead of an earlier index that is out of range
        ([[99, 1.0], [0]], r"link \[0\] is not an \[index, weight\] pair"),
    ])
    def test_malformed_links_name_their_node_or_output(self, rng, links, message):
        net = random_network(rng, 3, 2, 3)
        node = network_document(net)
        node["hidden_nodes"][net.hidden_count - 1] = links
        output = network_document(net)
        output["outputs"][1]["links"] = links
        for doc, where in ((node, f"hidden node {net.hidden_count - 1}"), (output, "output 1")):
            with pytest.raises(ValueError, match=f"^{where}: {message}$"):
                deserialize_network(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [
        *((key, value) for key in ("input_count", "class_count")
          for value in (None, [3], 3.7, 3.0, "3", True)),
        ("input_count", 0),
        ("class_count", 1),
    ])
    def test_count_that_is_not_an_integer_in_range_is_named(self, rng, key, value):
        doc = network_document(random_network(rng, 3, 2, 3))
        doc[key] = value
        least = 1 if key == "input_count" else 2
        message = f"model document: {key} {value!r} is not an integer >= {least}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            deserialize_network(json.dumps(doc))

    @pytest.mark.parametrize("text, shown, problem", [
        ("NaN", "nan", "is not finite"),
        ("Infinity", "inf", "is not finite"),
        ("-Infinity", "-inf", "is not finite"),
        ("1e400", "inf", "is not finite"),
        ("1" + "0" * 400, "1" + "0" * 400, "is not finite"),
        ("null", "None", "is not a number"),
        ("true", "True", "is not a number"),
        ('"0.5"', "'0.5'", "is not a number"),
    ])
    def test_bias_and_link_weight_must_be_finite_numbers(self, rng, text, shown, problem):
        net = random_network(rng, 3, 2, 3)
        bias, node, output, bias_first = (network_document(net) for _ in range(4))
        bias["outputs"][1]["bias"] = "@"
        node["hidden_nodes"][0] = [[0, "@"]]
        output["outputs"][0]["links"] = [[0, "@"]]
        # an output's bias is read before its links, whose index is out of range here
        bias_first["outputs"][1].update(bias="@", links=[[99, 1.0]])
        for doc, where in ((bias, "output 1: bias"), (node, "hidden node 0: link weight"),
                           (output, "output 0: link weight"), (bias_first, "output 1: bias")):
            message = f"{where} {shown} {problem}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                deserialize_network(json.dumps(doc).replace('"@"', text))

    def test_link_listed_twice_is_rejected(self, rng):
        net = random_network(rng, 3, 2, 3)
        node, output = network_document(net), network_document(net)
        node["hidden_nodes"][0] = output["outputs"][0]["links"] = [[0, 1.0], [0, 2.0]]
        for doc, message in ((node, "hidden node 0: input index 0 listed twice"),
                             (output, "output 0: hidden index 0 listed twice")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                deserialize_network(json.dumps(doc))

    @pytest.mark.parametrize("i", [3, -1])
    def test_input_index_out_of_range_names_the_node(self, rng, i):
        net = random_network(rng, 3, 2, 3)
        doc = network_document(net)
        doc["hidden_nodes"][0] = [[i, 1.0]]
        with pytest.raises(ValueError, match=f"^hidden node 0: input index {i} out of range$"):
            deserialize_network(json.dumps(doc))

    @pytest.mark.parametrize("j", [2, -1])
    def test_hidden_index_out_of_range_names_the_output(self, rng, j):
        net = random_network(rng, 3, 2, 3)
        doc = network_document(net)
        doc["outputs"][1]["links"] = [[j, 1.0]]
        with pytest.raises(ValueError, match=f"^output 1: hidden index {j} out of range$"):
            deserialize_network(json.dumps(doc))

    def test_empty_hidden_layer_is_rejected(self, rng):
        doc = network_document(random_network(rng, 3, 2, 3))
        doc["hidden_nodes"] = []
        for output in doc["outputs"]:
            output["links"] = []
        message = "hidden_nodes is empty: a network has at least one hidden node"
        with pytest.raises(ValueError, match=f"^{message}$"):
            deserialize_network(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [
        ("class_names", ["B"]),
        ("class_names", ["B", "L", "R", "X"]),
        ("class_names", "BLR"),
        ("class_names", ["B", 1, "R"]),
        ("class_names", None),
        ("feature_names", ["a", "b"]),
        ("feature_names", "abc"),
        ("feature_names", {"a": 0, "b": 1, "c": 2}),
    ])
    def test_names_must_be_one_string_per_class_or_input(self, rng, key, value):
        doc = network_document(random_network(rng, 3, 2, 3), class_names=["B", "L", "R"],
                               feature_names=["a", "b", "c"])
        doc[key] = value
        message = f"model document: {key} is not a list of 3 strings"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            deserialize_network(json.dumps(doc))

    def test_names_are_optional(self, rng):
        net = random_network(rng, 2, 2, 3)
        named = network_document(net, class_names=["B", "L", "R"], feature_names=["a", "b"])
        _, doc = deserialize_network(json.dumps(named))
        assert (doc["class_names"], doc["feature_names"]) == (["B", "L", "R"], ["a", "b"])
        _, doc = deserialize_network(serialize_network(net))
        assert "class_names" not in doc and "feature_names" not in doc

    def test_integer_weights_load_as_floats(self):
        doc = network_document(build_net(2, 2, [{0: 1.0}], [(0.0, {0: 1.0})]))
        doc["hidden_nodes"][0] = [[1, -3]]
        doc["outputs"][0]["bias"] = 2
        net, _ = deserialize_network(json.dumps(doc))
        assert net.exponents.tolist() == [[0.0, -3.0]] and net.biases.tolist() == [2.0]

    @pytest.mark.parametrize("text", ["[]", "3", '"punn-model"', "null"])
    def test_document_that_is_not_an_object(self, text):
        with pytest.raises(ValueError, match="^model document is not a JSON object$"):
            deserialize_network(text)
