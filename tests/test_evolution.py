from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evopunn import evolution
from evopunn.draws import DrawStream
from evopunn.evolution import (
    EaParams,
    EvalCounter,
    Individual,
    MutationState,
    adapt_variances,
    evaluate_individual,
    evolve_generation,
    generation_split,
    initialize_population,
    parametric_mutation,
    run_evolution,
    sort_population,
    structural_mutation,
    temperature,
)
from evopunn.network import (
    PunnNetwork,
    count_connections,
    fitness,
    random_network,
    serialize_network,
)

from conftest import build_net, make_dataset, random_dataset


def clone(net):
    """A network with copies of all five of its arrays."""
    return PunnNetwork(*(getattr(net, f.name).copy() for f in fields(net)))


def params_for(train, **overrides):
    defaults = dict(gen=10, max_hidden=3, pop_size=10)
    defaults.update(overrides)
    return EaParams(**defaults)


def evaluated(net, train):
    return Individual(net, fitness(net, train), count_connections(net))


REJECTED_SETTINGS = [
    ({"gen": -1}, "gen must be nonnegative"),
    ({"pop_size": 0}, "pop_size must be positive"),
    ({"max_hidden": 0}, "max_hidden must be at least 1"),
    ({"alpha2": -0.1}, "alpha2 must be nonnegative"),
    ({"structural_ops": ("typo",)}, r"unknown structural operators: \['typo'\]"),
]


class TestEaParams:
    @pytest.mark.parametrize("setting, message", REJECTED_SETTINGS)
    def test_rejected_at_construction(self, setting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EaParams(**{"gen": 10, "max_hidden": 3, **setting})

    @pytest.mark.parametrize("setting, message", REJECTED_SETTINGS)
    def test_rejected_through_replace(self, setting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(EaParams(gen=10, max_hidden=3), **setting)

    def test_frozen_with_the_settable_fields_only(self):
        params = EaParams(gen=10, max_hidden=3)
        assert [f.name for f in fields(params)] == [
            "gen", "max_hidden", "pop_size", "alpha2", "structural_ops"]
        with pytest.raises(FrozenInstanceError):
            params.gen = 5
        assert evolution.STALL_GENERATIONS == 20


class TestInitialize:
    def test_toy_counts_and_selection(self, rng, toy_train):
        params = params_for(toy_train, pop_size=4)
        counter = EvalCounter()
        # recreate the candidate pool independently to check the selection
        pool_rng = np.random.default_rng(55)
        pop = initialize_population(np.random.default_rng(55), params, toy_train, counter)
        assert counter.total == 40
        assert len(pop) == 4
        scores = [
            fitness(random_network(pool_rng, toy_train.input_count, 3,
                                   toy_train.class_count, link_density=0.5), toy_train)
            for _ in range(40)
        ]
        scores.sort(reverse=True)
        assert pop[0].fitness == pytest.approx(scores[0])
        assert min(ind.fitness for ind in pop) >= max(scores[4:])

    def test_sorted_descending(self, rng, toy_train):
        pop = initialize_population(rng, params_for(toy_train), toy_train, EvalCounter())
        fits = [ind.fitness for ind in pop]
        assert fits == sorted(fits, reverse=True)

    def test_deterministic(self, toy_train):
        params = params_for(toy_train, pop_size=6)
        a = initialize_population(np.random.default_rng(3), params, toy_train, EvalCounter())
        b = initialize_population(np.random.default_rng(3), params, toy_train, EvalCounter())
        for x, y in zip(a, b):
            assert x.fitness == y.fitness
            assert np.array_equal(x.net.exponents, y.net.exponents)

    def test_empty_training_set_rejected_before_counting(self, rng):
        empty = make_dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), 2)
        counter = EvalCounter()
        with pytest.raises(ValueError, match="^dataset is empty$"):
            initialize_population(rng, params_for(empty), empty, counter)
        assert counter.total == 0

    def test_full_scale_accounting(self, rng, toy_train):
        params = params_for(toy_train, pop_size=1000)
        counter = EvalCounter()
        pop = initialize_population(rng, params, toy_train, counter)
        assert counter.total == 10000
        assert len(pop) == 1000


class TestTemperature:
    @pytest.mark.parametrize("fit,expected", [(1.0, 0.0), (0.5, 0.5), (0.59061, 0.40939)])
    def test_values(self, fit, expected):
        ind = Individual(None, fit, 0)
        assert temperature(ind) == pytest.approx(expected, abs=1e-9)


class TestParametricMutation:
    def test_zero_variance_is_identity_and_success(self, rng, toy_train):
        net = random_network(rng, 2, 3, 2)
        ind = evaluated(net, toy_train)
        state = MutationState(0.0, 0.0)
        counter = EvalCounter()
        out = parametric_mutation(ind, state, rng, toy_train, counter)
        assert np.array_equal(out.net.exponents, net.exponents)
        assert np.array_equal(out.net.coefficients, net.coefficients)
        assert out.fitness == ind.fitness
        assert (state.attempts, state.successes) == (1, 1)
        assert counter.total == 1  # the unchanged candidate is still scored

    def test_weights_clamped_to_interval(self, rng, toy_train):
        state = MutationState(5.0, 5.0)
        hit_bound = False
        ds = random_dataset(rng, n=10, k=3, class_count=2)
        for _ in range(200):
            ind = evaluated(random_network(rng, 3, 3, 2), ds)
            out = parametric_mutation(ind, state, rng, ds, EvalCounter())
            for arr in (out.net.exponents, out.net.coefficients, out.net.biases):
                assert np.all(arr >= -5.0) and np.all(arr <= 5.0)
            if abs(out.net.exponents).max() == 5.0 or abs(out.net.biases).max() == 5.0:
                hit_bound = True
        assert hit_bound  # with step variance this large some weight must clamp

    def test_rejected_candidate_reverts_but_counts(self, rng, toy_train):
        # near-converged parent: tiny temperature makes accepting worse moves
        # vanishingly unlikely, so a worse candidate reverts
        ds = random_dataset(rng, n=8, k=2, class_count=2)
        reverted = 0
        counter = EvalCounter()
        state = MutationState(0.5, 1.0)
        for _ in range(300):
            ind = evaluated(random_network(rng, 2, 2, 2), ds)
            out = parametric_mutation(ind, state, rng, ds, counter)
            if out is ind:
                reverted += 1
        assert counter.total == 300
        assert reverted > 0
        assert state.attempts == 300
        assert 0 < state.successes < 300


class TestAdaptVariances:
    def test_all_failures_shrink(self):
        state = MutationState(1.0, 2.0, successes=0, attempts=10)
        adapt_variances(state)
        assert state.alpha1 == pytest.approx(0.9)
        assert state.alpha2 == pytest.approx(1.8)
        assert (state.successes, state.attempts) == (0, 0)

    def test_all_successes_grow(self):
        state = MutationState(1.0, 2.0, successes=10, attempts=10)
        adapt_variances(state)
        assert state.alpha1 == pytest.approx(1.0 / 0.9)
        assert state.alpha2 == pytest.approx(2.0 / 0.9)

    def test_exact_fifth_unchanged(self):
        state = MutationState(1.0, 2.0, successes=18, attempts=90)
        adapt_variances(state)
        assert (state.alpha1, state.alpha2) == (1.0, 2.0)

    def test_clamped(self):
        low = MutationState(1.1e-4, 1.1e-4, successes=0, attempts=5)
        adapt_variances(low)
        assert low.alpha1 == 1e-4
        high = MutationState(4.9, 4.9, successes=5, attempts=5)
        adapt_variances(high)
        assert high.alpha2 == 5.0

    def test_no_attempts_noop(self):
        state = MutationState(1.0, 2.0)
        adapt_variances(state)
        assert (state.alpha1, state.alpha2) == (1.0, 2.0)

    def test_ratio_preserved(self):
        state = MutationState(0.5, 1.5, successes=9, attempts=10)
        adapt_variances(state)
        assert state.alpha2 / state.alpha1 == pytest.approx(3.0)


class TestStructuralOperators:
    def ind_for(self, net, fitness_value=0.3):
        return Individual(net, fitness_value, count_connections(net))

    def test_single_node_never_deleted(self, rng, toy_train):
        net = build_net(2, 2, [{0: 1.0}], [(0.0, {0: 1.0})])
        params = EaParams(gen=1, max_hidden=3, structural_ops=("delete_node",))
        for _ in range(20):
            out = structural_mutation(self.ind_for(net), rng, params)
            assert out.hidden_count == 1

    def test_node_addition_respects_cap(self, rng):
        net = build_net(2, 2, [{0: 1.0}, {1: 1.0}], [(0.0, {0: 1.0, 1: 1.0})])
        params = EaParams(gen=1, max_hidden=2, structural_ops=("add_node",))
        for _ in range(20):
            out = structural_mutation(self.ind_for(net), rng, params)
            assert out.hidden_count == 2

    def test_node_addition_grows_not_past_cap(self, rng):
        net = build_net(2, 2, [{0: 1.0}], [(0.0, {0: 1.0})])
        params = EaParams(gen=1, max_hidden=3, structural_ops=("add_node",))
        seen = set()
        for _ in range(100):
            out = structural_mutation(self.ind_for(net), rng, params)
            seen.add(out.hidden_count)
            assert out.hidden_count <= 3
        assert seen == {2, 3}  # one or two nodes added

    def test_connection_addition_fills_up(self, rng):
        net = build_net(2, 2, [{0: 1.0}], [(0.0, {0: 1.0})])
        params = EaParams(gen=1, max_hidden=1, structural_ops=("add_connection",))
        out = net
        for _ in range(30):
            out = structural_mutation(self.ind_for(out), rng, params)
        assert out.exponent_mask.all() and out.coefficient_mask.all()
        # fully connected network is a no-op from here on
        again = structural_mutation(self.ind_for(out), rng, params)
        assert np.array_equal(again.exponents, out.exponents)

    def test_connection_deletion_empties(self, rng):
        net = build_net(2, 2, [{0: 1.0, 1: 2.0}], [(0.5, {0: 1.0})])
        params = EaParams(gen=1, max_hidden=1, structural_ops=("delete_connection",))
        out = net
        for _ in range(30):
            out = structural_mutation(self.ind_for(out), rng, params)
        assert not out.exponent_mask.any() and not out.coefficient_mask.any()
        assert np.all(out.exponents == 0.0) and np.all(out.coefficients == 0.0)
        again = structural_mutation(self.ind_for(out), rng, params)
        assert not again.exponent_mask.any()

    def test_fusion_mean_rule(self, rng):
        net = build_net(
            2, 2,
            [{0: 2.0}, {0: 4.0}],
            [(0.0, {0: 1.0, 1: 1.5})],
        )
        params = EaParams(gen=1, max_hidden=2, structural_ops=("fuse_nodes",))
        out = structural_mutation(self.ind_for(net), rng, params)
        assert out.hidden_count == 1
        assert out.exponents[0, 0] == pytest.approx(3.0)   # mean of shared exponents
        assert out.coefficients[0, 0] == pytest.approx(2.5)  # sum of coefficients

    def test_fusion_sum_clamped(self, rng):
        net = build_net(2, 2, [{0: 1.0}, {0: 1.0}], [(0.0, {0: 4.0, 1: 4.0})])
        params = EaParams(gen=1, max_hidden=2, structural_ops=("fuse_nodes",))
        out = structural_mutation(self.ind_for(net), rng, params)
        assert out.coefficients[0, 0] == 5.0

    def test_fusion_exclusive_links_are_coin_flips(self, rng):
        net = build_net(
            2, 2,
            [{0: 2.0}, {1: 4.0}],
            [(0.0, {0: 1.0, 1: 1.0})],
        )
        params = EaParams(gen=1, max_hidden=2, structural_ops=("fuse_nodes",))
        kept_counts = []
        for _ in range(300):
            out = structural_mutation(self.ind_for(net), rng, params)
            kept_counts.append(int(out.exponent_mask.sum()))
        assert set(kept_counts) == {0, 1, 2}
        # each exclusive link survives about half the time
        assert 200 < sum(kept_counts) < 400

    def test_single_node_fusion_noop(self, rng):
        net = build_net(2, 2, [{0: 1.0}], [(0.0, {0: 1.0})])
        params = EaParams(gen=1, max_hidden=2, structural_ops=("fuse_nodes",))
        out = structural_mutation(self.ind_for(net), rng, params)
        assert out is net

    def test_bounds_hold_over_many_mutations(self, rng):
        ds = random_dataset(rng, n=6, k=4, class_count=3)
        params = EaParams(gen=1, max_hidden=4)
        for _ in range(2000):
            net = random_network(rng, 4, 4, 3)
            ind = Individual(net, float(rng.uniform(0.05, 0.95)), count_connections(net))
            out = structural_mutation(ind, rng, params)
            assert 1 <= out.hidden_count <= 4
            out.validate(weight_interval=(-5.0, 5.0))

    def test_disabled_ops_mean_identity(self, rng):
        net = build_net(2, 2, [{0: 1.0}], [(0.0, {0: 1.0})])
        params = EaParams(gen=1, max_hidden=3, structural_ops=())
        out = structural_mutation(self.ind_for(net), rng, params)
        assert out is net


# Reference copies of the structural operators as they were written before
# they were rewritten for speed: per-pick and per-input Python loops with one
# scalar draw each, clone plus np.delete for the child, vstack/hstack of the
# new nodes' rows. The rewrites must give bit-identical children and leave
# the generator in the same state.

def _reference_node_links(rng, input_count, weight_interval, link_density):
    lo, hi = weight_interval
    mask = rng.random(input_count) < link_density
    while not mask.any():
        mask = rng.random(input_count) < link_density
    exponents = np.zeros(input_count)
    exponents[mask] = rng.uniform(lo, hi, int(mask.sum()))
    return exponents, mask


def _reference_add_node(net, rng, params):
    wanted = int(rng.integers(1, 3))
    add = min(wanted, params.max_hidden - net.hidden_count)
    if add <= 0:
        return net
    lo, hi = params.weight_interval
    new_exponents = []
    new_masks = []
    for _ in range(add):
        row, mask = _reference_node_links(rng, net.input_count, params.weight_interval,
                                          params.link_density)
        new_exponents.append(row)
        new_masks.append(mask)
    new_coefficients = rng.uniform(lo, hi, (net.output_count, add))
    return PunnNetwork(
        np.vstack([net.exponents, new_exponents]),
        np.vstack([net.exponent_mask, new_masks]),
        np.hstack([net.coefficients, new_coefficients]),
        np.hstack([net.coefficient_mask, np.ones((net.output_count, add), dtype=bool)]),
        net.biases.copy(),
    )


def _reference_delete_node(net, rng, params):
    wanted = int(rng.integers(1, 3))
    removable = min(wanted, net.hidden_count - 1)
    if removable <= 0:
        return net
    victims = rng.choice(net.hidden_count, size=removable, replace=False)
    return PunnNetwork(
        np.delete(net.exponents, victims, axis=0),
        np.delete(net.exponent_mask, victims, axis=0),
        np.delete(net.coefficients, victims, axis=1),
        np.delete(net.coefficient_mask, victims, axis=1),
        net.biases.copy(),
    )


def _reference_link_pool(net, existing):
    exp_mask = net.exponent_mask if existing else ~net.exponent_mask
    coef_mask = net.coefficient_mask if existing else ~net.coefficient_mask
    return np.concatenate([
        np.flatnonzero(exp_mask.ravel()),
        np.flatnonzero(coef_mask.ravel()) + exp_mask.size,
    ])


def _reference_add_connection(net, rng, params):
    wanted = int(rng.integers(1, 3))
    pool = _reference_link_pool(net, existing=False)
    if pool.size == 0:
        return net
    lo, hi = params.weight_interval
    picks = rng.choice(pool, size=min(wanted, pool.size), replace=False)
    out = clone(net)
    split = out.exponent_mask.size
    for flat in picks:
        flat = int(flat)
        weight = rng.uniform(lo, hi)
        if flat < split:
            out.exponents.flat[flat] = weight
            out.exponent_mask.flat[flat] = True
        else:
            out.coefficients.flat[flat - split] = weight
            out.coefficient_mask.flat[flat - split] = True
    return out


def _reference_delete_connection(net, rng, params):
    wanted = int(rng.integers(1, 3))
    pool = _reference_link_pool(net, existing=True)
    if pool.size == 0:
        return net
    picks = rng.choice(pool, size=min(wanted, pool.size), replace=False)
    out = clone(net)
    split = out.exponent_mask.size
    for flat in picks:
        flat = int(flat)
        if flat < split:
            out.exponents.flat[flat] = 0.0
            out.exponent_mask.flat[flat] = False
        else:
            out.coefficients.flat[flat - split] = 0.0
            out.coefficient_mask.flat[flat - split] = False
    return out


def _reference_fuse_nodes(net, rng, params):
    if net.hidden_count < 2:
        return net
    lo, hi = params.weight_interval
    a, b = (int(v) for v in rng.choice(net.hidden_count, size=2, replace=False))
    keep, drop = min(a, b), max(a, b)
    exponents = np.zeros(net.input_count)
    mask = np.zeros(net.input_count, dtype=bool)
    for i in range(net.input_count):
        in_a = net.exponent_mask[a, i]
        in_b = net.exponent_mask[b, i]
        if in_a and in_b:
            mask[i] = True
            exponents[i] = 0.5 * (net.exponents[a, i] + net.exponents[b, i])
        elif in_a or in_b:
            if rng.random() < 0.5:
                mask[i] = True
                exponents[i] = net.exponents[a, i] if in_a else net.exponents[b, i]
    coefficients = np.zeros(net.output_count)
    coef_mask = net.coefficient_mask[:, a] | net.coefficient_mask[:, b]
    summed = net.coefficients[:, a] + net.coefficients[:, b]
    coefficients[coef_mask] = np.clip(summed[coef_mask], lo, hi)
    out = clone(net)
    out.exponents[keep] = exponents
    out.exponent_mask[keep] = mask
    out.coefficients[:, keep] = coefficients
    out.coefficient_mask[:, keep] = coef_mask
    return PunnNetwork(
        np.delete(out.exponents, drop, axis=0),
        np.delete(out.exponent_mask, drop, axis=0),
        np.delete(out.coefficients, drop, axis=1),
        np.delete(out.coefficient_mask, drop, axis=1),
        out.biases,
    )


REFERENCE_OPERATORS = {
    "add_node": _reference_add_node,
    "delete_node": _reference_delete_node,
    "add_connection": _reference_add_connection,
    "delete_connection": _reference_delete_connection,
    "fuse_nodes": _reference_fuse_nodes,
}

NET_ARRAYS = ("exponents", "exponent_mask", "coefficients", "coefficient_mask", "biases")


class TestOperatorsMatchReference:
    @settings(max_examples=400, deadline=None)
    @given(
        op=st.sampled_from(sorted(REFERENCE_OPERATORS)),
        net_seed=st.integers(0, 2**32 - 1),
        op_seed=st.integers(0, 2**32 - 1),
        input_count=st.sampled_from([1, 2, 4, 9, 40]),
        class_count=st.integers(2, 5),
        max_hidden=st.integers(1, 6),
        link_density=st.sampled_from([0.1, 0.5, 1.0]),
        coefficient_density=st.sampled_from([0.0, 0.5, 1.0]),
        room=st.integers(0, 3),
    )
    def test_bit_identical_child_and_generator_state(
        self, op, net_seed, op_seed, input_count, class_count, max_hidden,
        link_density, coefficient_density, room,
    ):
        net_rng = np.random.default_rng(net_seed)
        net = random_network(net_rng, input_count, max_hidden, class_count,
                             link_density=link_density)
        # thin the output layer too, so both pools span both layers
        dropped = net_rng.random(net.coefficients.shape) >= coefficient_density
        net.coefficients[dropped] = 0.0
        net.coefficient_mask[dropped] = False
        before = {name: getattr(net, name).copy() for name in NET_ARRAYS}
        # room > 0 leaves add_node space above the largest network drawn
        params = EaParams(gen=1, max_hidden=max_hidden + room)

        expected_rng = np.random.default_rng(op_seed)
        got_rng = np.random.default_rng(op_seed)
        expected = REFERENCE_OPERATORS[op](net, expected_rng, params)
        with DrawStream(got_rng) as draws:
            child = evolution._Child(net)
            evolution._OPERATORS[op](child, draws, params)
            got = child.network()

        assert (got is net) == (expected is net)
        for name in NET_ARRAYS:
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
            assert np.array_equal(getattr(net, name), before[name])  # parent untouched
        assert got_rng.bit_generator.state == expected_rng.bit_generator.state
        assert got_rng.random() == expected_rng.random()


def _reference_structural_mutation(ind, rng, params):
    """One rng.random() < T coin per enabled operator in order, the fallback
    through rng.integers(len(ops)), each step a reference operator."""
    t = 1.0 - ind.fitness
    ops = [REFERENCE_OPERATORS[name] for name in params.structural_ops]
    net = ind.net
    fired = False
    for op in ops:
        if rng.random() < t:
            fired = True
            net = op(net, rng, params)
    if not fired:
        net = ops[int(rng.integers(len(ops)))](net, rng, params)
    return net


class TestStructuralMutationMatchesReference:
    """Composition: later operators edit the child that earlier ones built,
    so an operator that writes into its parent or reads arrays an earlier
    operator replaced shows up here, not in the one-operator test above."""

    @settings(max_examples=400, deadline=None)
    @given(
        order=st.permutations(evolution.STRUCTURAL_OPS),
        net_seed=st.integers(0, 2**32 - 1),
        op_seed=st.integers(0, 2**32 - 1),
        input_count=st.sampled_from([1, 2, 4, 9, 40]),
        class_count=st.integers(2, 5),
        max_hidden=st.integers(1, 6),
        link_density=st.sampled_from([0.1, 0.5, 1.0]),
        coefficient_density=st.sampled_from([0.0, 0.5, 1.0]),
        room=st.integers(0, 3),
        fitness_value=st.floats(0.0, 0.5),
    )
    def test_bit_identical_child_and_generator_state(
        self, order, net_seed, op_seed, input_count, class_count, max_hidden,
        link_density, coefficient_density, room, fitness_value,
    ):
        net_rng = np.random.default_rng(net_seed)
        net = random_network(net_rng, input_count, max_hidden, class_count,
                             link_density=link_density)
        dropped = net_rng.random(net.coefficients.shape) >= coefficient_density
        net.coefficients[dropped] = 0.0
        net.coefficient_mask[dropped] = False
        before = {name: getattr(net, name).copy() for name in NET_ARRAYS}
        # T = 1 - fitness >= 0.5, so most children pass through several operators
        ind = Individual(net, fitness_value, count_connections(net))
        params = EaParams(gen=1, max_hidden=max_hidden + room, structural_ops=tuple(order))

        expected_rng = np.random.default_rng(op_seed)
        got_rng = np.random.default_rng(op_seed)
        expected = _reference_structural_mutation(ind, expected_rng, params)
        got = structural_mutation(ind, got_rng, params)

        assert (got is net) == (expected is net)
        for name in NET_ARRAYS:
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name
            assert np.array_equal(getattr(net, name), before[name])  # parent untouched
        assert got_rng.bit_generator.state == expected_rng.bit_generator.state


class TestSample:
    """evolution._sample against Generator.choice(n, size, replace=False).

    The identity is numpy's algorithm for small samples without replacement:
    Floyd's algorithm, then a Fisher-Yates shuffle of the picks, every draw a
    bounded integer from the same 32-bit stream as Generator.integers. A
    numpy that draws these samples differently fails here instead of
    changing training results silently."""

    @settings(max_examples=600, deadline=None)
    @given(
        size=st.integers(1, evolution.MAX_OP_COUNT),
        n=st.integers(1, 10**4),
        seed=st.integers(0, 2**32 - 1),
        half_used=st.booleans(),
    )
    @example(size=1, n=1, seed=0, half_used=False)
    @example(size=2, n=2, seed=0, half_used=True)
    @example(size=2, n=10**4, seed=0, half_used=False)
    def test_same_picks_and_generator_state(self, size, n, seed, half_used):
        n = max(n, size)
        expected_rng = np.random.default_rng(seed)
        got_rng = np.random.default_rng(seed)
        if half_used:  # leave half of a 64-bit output in the 32-bit buffer
            expected_rng.integers(0, 2**32, dtype=np.uint32)
            got_rng.integers(0, 2**32, dtype=np.uint32)
        expected = expected_rng.choice(n, size, replace=False).tolist()
        with DrawStream(got_rng) as draws:
            assert evolution._sample(draws, n, size) == expected
        assert got_rng.bit_generator.state == expected_rng.bit_generator.state


class TestGenerationSplit:
    def test_full_scale(self):
        assert generation_split(1000) == (100, 90, 810)

    def test_toy_scale(self):
        assert generation_split(10) == (1, 1, 8)

    def test_odd_sizes_keep_eval_count(self):
        for n in (7, 15, 23, 99, 101, 1001):
            elite, parametric, structural = generation_split(n)
            assert elite + parametric + structural == n
            assert parametric + structural == (9 * n) // 10


class TestEvolveGeneration:
    def run_one(self, rng, train, pop_size=10, **overrides):
        params = params_for(train, pop_size=pop_size, **overrides)
        counter = EvalCounter()
        pop = initialize_population(rng, params, train, counter)
        state = MutationState(params.alpha1, params.alpha2)
        counter2 = EvalCounter()
        new_pop = evolve_generation(pop, state, rng, params, train, counter2)
        return pop, new_pop, counter2

    def test_size_preserved_and_sorted(self, rng, toy_train):
        _, new_pop, _ = self.run_one(rng, toy_train, pop_size=10)
        assert len(new_pop) == 10
        fits = [ind.fitness for ind in new_pop]
        assert fits == sorted(fits, reverse=True)

    def test_eval_count_exact(self, rng, toy_train):
        for n in (10, 15, 20):
            _, _, counter = self.run_one(rng, toy_train, pop_size=n)
            assert counter.total == (9 * n) // 10

    def test_structural_children_are_all_drawn_then_scored(self, rng, toy_train, monkeypatch):
        params = params_for(toy_train, pop_size=20)
        pop = initialize_population(rng, params, toy_train, EvalCounter())
        state = MutationState(params.alpha1, params.alpha2)
        calls = []

        def logged(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(evolution, "fitness", logged("F", evolution.fitness))
        monkeypatch.setattr(evolution, "structural_mutation",
                            logged("S", evolution.structural_mutation))
        evolve_generation(pop, state, rng, params, toy_train, EvalCounter())
        _, n_param, n_struct = generation_split(20)
        assert calls == ["F"] * n_param + ["S"] * n_struct + ["F"] * n_struct

    def test_elitism_never_worsens_best(self, rng, toy_train):
        params = params_for(toy_train, pop_size=10, gen=1)
        counter = EvalCounter()
        pop = initialize_population(rng, params, toy_train, counter)
        state = MutationState(params.alpha1, params.alpha2)
        for _ in range(25):
            before = pop[0].fitness
            pop = evolve_generation(pop, state, rng, params, toy_train, counter)
            assert pop[0].fitness >= before

    def test_node_bounds_hold_through_generations(self, rng, toy_train):
        params = params_for(toy_train, pop_size=10, max_hidden=2)
        counter = EvalCounter()
        pop = initialize_population(rng, params, toy_train, counter)
        state = MutationState(params.alpha1, params.alpha2)
        for _ in range(20):
            pop = evolve_generation(pop, state, rng, params, toy_train, counter)
            for ind in pop:
                assert 1 <= ind.net.hidden_count <= 2
                ind.net.validate(weight_interval=params.weight_interval)

    def test_cached_fitness_coherent(self, rng, toy_train):
        params = params_for(toy_train, pop_size=10)
        counter = EvalCounter()
        pop = initialize_population(rng, params, toy_train, counter)
        state = MutationState(params.alpha1, params.alpha2)
        for _ in range(5):
            pop = evolve_generation(pop, state, rng, params, toy_train, counter)
            for ind in pop:
                assert ind.fitness == pytest.approx(fitness(ind.net, toy_train), abs=1e-12)
                assert ind.connections == count_connections(ind.net)


class TestRunEvolution:
    def test_zero_generations(self, rng, toy_train):
        params = params_for(toy_train, gen=0, pop_size=10)
        counter = EvalCounter()
        pop = initialize_population(rng, params, toy_train, counter)
        best_before = pop[0]
        final, executed = run_evolution("run", params, rng, toy_train, counter,
                                        population=pop)
        assert executed == 0
        assert final[0] is best_before
        assert counter.total == 100

    def test_forced_stagnation_stops_after_window(self, rng, toy_train, monkeypatch):
        # identical individuals, zero variances, no structural operators: the
        # population can never improve, so the stop fires after the window
        monkeypatch.setattr(evolution, "ALPHA_MIN", 0.0)
        monkeypatch.setattr(EaParams, "alpha1", 0.0)
        params = params_for(toy_train, gen=100, pop_size=10, structural_ops=(), alpha2=0.0)
        net = random_network(rng, 2, 3, 2)
        ind = evaluate_individual(net, toy_train, EvalCounter())
        pop = [Individual(clone(ind.net), ind.fitness, ind.connections) for _ in range(10)]
        final, executed = run_evolution("run", params, rng, toy_train, EvalCounter(),
                                        population=pop)
        assert executed == 20

    def test_noop_generation_keeps_population_content(self, rng, toy_train, monkeypatch):
        monkeypatch.setattr(evolution, "ALPHA_MIN", 0.0)
        monkeypatch.setattr(EaParams, "alpha1", 0.0)
        params = params_for(toy_train, gen=5, pop_size=10, structural_ops=(), alpha2=0.0)
        net = random_network(rng, 2, 3, 2)
        ind = evaluate_individual(net, toy_train, EvalCounter())
        pop = [Individual(clone(ind.net), ind.fitness, ind.connections) for _ in range(10)]
        reference = serialize_network(pop[0].net)
        final, _ = run_evolution("run", params, rng, toy_train, EvalCounter(),
                                 early_stopping=False, population=pop)
        assert len(final) == 10
        for ind in final:
            assert serialize_network(ind.net) == reference

    def test_eval_budget_without_early_stop(self, rng, toy_train):
        params = params_for(toy_train, gen=7, pop_size=10)
        counter = EvalCounter()
        pop = initialize_population(rng, params, toy_train, counter)
        run_evolution("run", params, rng, toy_train, counter, early_stopping=False,
                      population=pop)
        assert counter.total == 10 * 10 + 7 * 9

    def test_deterministic_runs(self, toy_train):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(1234)
            params = params_for(toy_train, gen=8, pop_size=10)
            counter = EvalCounter()
            pop = initialize_population(rng, params, toy_train, counter)
            final, executed = run_evolution("run", params, rng, toy_train, counter,
                                            population=pop)
            results.append((serialize_network(final[0].net), counter.total, executed))
        assert results[0] == results[1]

    def test_best_fitness_monotone_over_seeds(self, toy_train):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = params_for(toy_train, gen=15, pop_size=10)
            counter = EvalCounter()
            pop = initialize_population(rng, params, toy_train, counter)
            state = MutationState(params.alpha1, params.alpha2)
            best_so_far = pop[0].fitness
            for _ in range(15):
                pop = evolve_generation(pop, state, rng, params, toy_train, counter)
                assert pop[0].fitness >= best_so_far - 1e-15
                best_so_far = max(best_so_far, pop[0].fitness)


class TestSortPopulation:
    def test_tie_breaks_by_connections_then_stable(self, rng):
        net_a = build_net(2, 2, [{0: 1.0, 1: 1.0}], [(0.0, {0: 1.0})])
        net_b = build_net(2, 2, [{0: 1.0}], [(0.0, {0: 1.0})])
        first = Individual(net_a, 0.5, count_connections(net_a))
        second = Individual(net_b, 0.5, count_connections(net_b))
        third = Individual(clone(net_b), 0.5, count_connections(net_b))
        pop = [first, second, third]
        sort_population(pop)
        assert pop[0] is second and pop[1] is third and pop[2] is first
