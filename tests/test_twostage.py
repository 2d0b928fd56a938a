from dataclasses import replace

import numpy as np
import pytest

from evopunn import evolution
from evopunn.evolution import EaParams, EvalCounter, Individual, run_evolution
from evopunn.network import count_connections, random_network, serialize_network
from evopunn.twostage import (
    expected_evaluations,
    final_hidden_cap,
    merge_populations,
    run_two_stage,
)

from conftest import StageLog, make_dataset


def two_stage_params(pop_size=10, gen=10, neu=2, **overrides):
    """Two-stage runs take the smaller hidden-node cap, neu, as max_hidden."""
    return EaParams(gen=gen, max_hidden=neu, pop_size=pop_size, **overrides)


class TestExpectedEvaluations:
    @pytest.mark.parametrize(
        "gen,tsea,edd_pair,reduction",
        [
            (100, 128000, 200000, 36),
            (120, 149600, 236000, 37),
            (150, 182000, 290000, 37),
            (300, 344000, 560000, 39),
            (500, 560000, 920000, 39),
        ],
    )
    def test_published_rows(self, gen, tsea, edd_pair, reduction):
        counts = expected_evaluations(1000, gen)
        assert counts["tsea"] == tsea
        assert counts["edd_pair"] == edd_pair
        assert counts["reduction_percent"] == reduction
        assert counts["edd_single"] * 2 == edd_pair

    def test_exact_integers(self):
        for pop_size, gen in ((1000, 150), (12, 10), (10, 15), (20, 25)):
            counts = expected_evaluations(pop_size, gen)
            assert all(type(v) is int for v in counts.values()), (pop_size, gen)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expected_evaluations(0, 10)
        with pytest.raises(ValueError, match="even"):
            expected_evaluations(11, 10)


class TestMerge:
    """The merge only selects and sorts: run_two_stage tags stage-one
    individuals at birth, so the inputs here carry their tags already."""

    def fake_population(self, fits, rng, origin):
        pop = []
        for f in fits:
            net = random_network(rng, 2, 2, 2)
            pop.append(Individual(net, f, count_connections(net), origin))
        return pop

    @staticmethod
    def snapshot(population):
        return [(id(ind), ind.fitness, ind.connections, ind.origin) for ind in population]

    def test_merge_takes_best_halves(self, rng):
        a = self.fake_population([0.9, 0.8, 0.7, 0.6], rng, "stage1-a")
        b = self.fake_population([0.85, 0.75, 0.65, 0.55], rng, "stage1-b")
        before = self.snapshot(a), self.snapshot(b)
        merged = merge_populations(a, b)
        assert [ind.fitness for ind in merged] == [0.9, 0.85, 0.8, 0.75]
        assert [ind.origin for ind in merged] == ["stage1-a", "stage1-b", "stage1-a", "stage1-b"]
        assert (self.snapshot(a), self.snapshot(b)) == before

    def test_merge_rejects_odd(self, rng):
        a = self.fake_population([0.9, 0.8, 0.7], rng, "stage1-a")
        b = self.fake_population([0.85, 0.75, 0.65], rng, "stage1-b")
        with pytest.raises(ValueError, match="even"):
            merge_populations(a, b)

    def test_merge_sorted(self, rng):
        a = self.fake_population(list(np.linspace(0.9, 0.1, 6)), rng, "stage1-a")
        b = self.fake_population(list(np.linspace(0.95, 0.15, 6)), rng, "stage1-b")
        before = self.snapshot(a), self.snapshot(b)
        merged = merge_populations(a, b)
        fits = [ind.fitness for ind in merged]
        assert fits == sorted(fits, reverse=True)
        assert sum(ind.origin == "stage1-a" for ind in merged) == 3
        assert sum(ind.origin == "stage1-b" for ind in merged) == 3
        assert (self.snapshot(a), self.snapshot(b)) == before


class TestRunTwoStage:
    def test_odd_population_rejected(self, toy_train):
        params = two_stage_params(pop_size=5)
        with pytest.raises(ValueError, match="even"):
            run_two_stage(params, np.random.default_rng(0), toy_train, EvalCounter())

    def test_merged_population_structure(self, rng, toy_train):
        params = two_stage_params(pop_size=10, gen=20, neu=2)
        log = StageLog()
        run_two_stage(params, rng, toy_train, EvalCounter(), on_generation=log)
        merged = log.merged()
        assert len(merged) == 10
        assert sum(ind.origin == "stage1-a" for ind in merged) == 5
        assert sum(ind.origin == "stage1-b" for ind in merged) == 5
        fits = [ind.fitness for ind in merged]
        assert fits == sorted(fits, reverse=True)
        for ind in merged:
            assert ind.net.hidden_count <= params.max_hidden + 1

    def test_stages_run_at_their_caps(self, toy_train):
        # add_node alone pushes every population up against its cap
        params = two_stage_params(pop_size=10, gen=20, neu=2, structural_ops=("add_node",))
        largest = {}

        def log(stage, gen_index, population, counter):
            size = max(ind.net.hidden_count for ind in population)
            largest[stage] = max(largest.get(stage, 0), size)

        run_two_stage(params, np.random.default_rng(9), toy_train, EvalCounter(),
                      on_generation=log)
        assert final_hidden_cap(2) == 3
        assert largest == {"stage1-a": 2, "stage1-b": 3, "stage2": 3}

    def test_stage1_length(self, toy_train):
        params = two_stage_params(gen=20)
        log = StageLog()
        _, generations = run_two_stage(params, np.random.default_rng(3), toy_train,
                                       EvalCounter(), on_generation=log)
        assert log.last["stage1-a"][0] == log.last["stage1-b"][0] == 2
        assert generations == 2 * 2 + log.last["stage2"][0]

    # (pop, gen, tsea, edd_single) with early stopping off: seeding 10 * pop,
    # floor(0.9 * pop) evaluations per generation, gen // 10 stage-one
    # generations per population
    SCHEDULES = [(10, 10, 308, 190), (12, 10, 360, 220), (10, 15, 353, 235), (20, 25, 922, 650)]

    @pytest.mark.parametrize("pop_size,gen,tsea,edd_single", SCHEDULES)
    def test_counter_matches_closed_form(
        self, toy_train, monkeypatch, pop_size, gen, tsea, edd_single
    ):
        # early stopping only exists in stage 2; disable it via a huge window
        monkeypatch.setattr(evolution, "STALL_GENERATIONS", 10_000)
        params = two_stage_params(pop_size=pop_size, gen=gen, neu=2)
        counter, log = EvalCounter(), StageLog()
        _, generations = run_two_stage(params, np.random.default_rng(5), toy_train, counter,
                                       on_generation=log)
        assert counter.total == expected_evaluations(pop_size, gen)["tsea"] == tsea
        assert log.last["stage2"][0] == gen
        assert generations == 2 * (gen // 10) + gen

    @pytest.mark.parametrize("pop_size,gen,tsea,edd_single", SCHEDULES)
    def test_single_run_counter_matches_closed_form(
        self, toy_train, pop_size, gen, tsea, edd_single
    ):
        params = EaParams(gen=gen, max_hidden=2, pop_size=pop_size)
        counter = EvalCounter()
        _, executed = run_evolution("run", params, np.random.default_rng(5), toy_train,
                                    counter, early_stopping=False)
        assert executed == gen
        assert counter.total == expected_evaluations(pop_size, gen)["edd_single"] == edd_single

    def test_given_population_is_evolved_without_seeding(self, toy_train):
        params = EaParams(gen=7, max_hidden=2, pop_size=12)
        seeds, _ = run_evolution("seeds", replace(params, gen=0), np.random.default_rng(1),
                                 toy_train, EvalCounter())
        counter = EvalCounter()
        final, executed = run_evolution("next", params, np.random.default_rng(2), toy_train,
                                        counter, early_stopping=False, population=seeds)
        assert executed == 7
        assert counter.total == 7 * 10  # floor(0.9 * 12) children a generation, no seeding
        # a given population keeps its tags: nothing is seeded under the new label
        assert {ind.origin for ind in final} == {"seeds"}

    def test_deterministic(self, toy_train):
        outcomes = []
        for _ in range(2):
            params = two_stage_params(pop_size=10, gen=10, neu=2)
            counter = EvalCounter()
            population, _ = run_two_stage(params, np.random.default_rng(77), toy_train, counter)
            outcomes.append((serialize_network(population[0].net), counter.total))
        assert outcomes[0] == outcomes[1]

    def test_best_at_least_as_good_as_merge(self, rng, toy_train):
        params = two_stage_params(pop_size=10, gen=15, neu=2)
        log = StageLog()
        population, _ = run_two_stage(params, rng, toy_train, EvalCounter(), on_generation=log)
        assert population[0].fitness >= log.merged()[0].fitness - 1e-15
