"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (visible
with `pytest -s`). The two accuracy cells that need non-distributable UCI
files (diabetes, breast cancer) activate when the user drops the public CSVs
into data/uci/ and skip with an explanation otherwise; the balance cell runs
on exact generated data unconditionally.
"""

import contextlib
import math
import os
import sys

import numpy as np
import pytest

import evopunn as e
from evopunn.cli import main as cli_main
from evopunn.datasets import write_balance_scale, write_waveform
from evopunn.network import network_document

from conftest import (
    StageLog,
    build_net,
    hand_cross_entropy,
    hand_outputs,
    make_dataset,
    random_dataset,
)
import uci_data

WORKERS = max(1, os.cpu_count() or 1)
MASTER_SEED = 20100


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {label}: PASS", flush=True)


def small_train(rng, n=16, k=2):
    patterns = rng.uniform(1.0, 2.0, (n, k))
    labels = (patterns[:, 0] > 1.5).astype(np.int64)
    labels[:2] = [0, 1]
    return make_dataset(patterns, labels, 2)


# --------------------------------------------------------------------------
# 1. Evaluation accounting, exact
# --------------------------------------------------------------------------

class TestCriterion1Accounting:
    def test_closed_form_rows_bit_exact(self, capsys):
        rows = {
            100: ("128000", "200000", "36"),
            120: ("149600", "236000", "37"),
            150: ("182000", "290000", "37"),
            300: ("344000", "560000", "39"),
            500: ("560000", "920000", "39"),
        }
        with criterion("1a (closed-form evaluation table)"):
            for gen, (tsea, edd_pair, reduction) in rows.items():
                cli_main(["evals", "--pop", "1000", "--gen", str(gen)])
                lines = capsys.readouterr().out.strip().splitlines()
                assert lines[1] == f"{tsea}\t{edd_pair}\t{reduction}", f"gen={gen}"

    def test_instrumented_two_stage_matches_closed_form(self, rng):
        train = small_train(rng)
        params = e.EaParams(gen=10, max_hidden=2, pop_size=1000)
        with criterion("1b (instrumented run matches closed form)"):
            counter, log = e.EvalCounter(), StageLog()
            _, generations = e.run_two_stage(
                params, np.random.default_rng(MASTER_SEED), train, counter, log
            )
            expected = e.expected_evaluations(1000, 10)["tsea"]
            assert log.last["stage2"][0] == 10  # no early stop happened
            assert generations == 2 * (10 // 10) + 10
            assert counter.total == expected


# --------------------------------------------------------------------------
# 2. Desk-scale accuracy reproduction (stochastic, stated tolerances)
# --------------------------------------------------------------------------

def run_cell(dataset, config_id, published, tolerance, label):
    train, test = e.stratified_holdout(dataset, 0.75, seed=MASTER_SEED)
    config = e.make_config(
        config_id, preset=label, n_runs=30, master_seed=MASTER_SEED
    )
    records = e.run_experiment(config, train, test, workers=WORKERS)
    summary = e.summarize(records)
    with criterion(
        f"2 ({label} config {config_id}: mean {summary.mean_ccr_test:.2f} "
        f"vs {published} +- {tolerance})"
    ):
        assert abs(summary.mean_ccr_test - published) <= tolerance
    return summary


class TestCriterion2Accuracy:
    @pytest.mark.slow
    def test_balance_cell(self, tmp_path):
        csv_path, schema_path = write_balance_scale(tmp_path)
        dataset = e.preprocess_file(csv_path, schema_path)
        run_cell(dataset, "1star", published=96.20, tolerance=3.0, label="balance")

    @pytest.mark.slow
    def test_pima_cell(self, tmp_path):
        prepared = uci_data.prepare_pima(tmp_path)
        if prepared is None:
            pytest.skip(
                "data/uci/pima.csv not present; the environment cannot fetch UCI "
                "data - drop in the public file to activate this cell"
            )
        dataset = e.preprocess_file(prepared, uci_data.UCI_DIR / "pima.schema")
        assert dataset.pattern_count == 768 and dataset.input_count == 8
        run_cell(dataset, "1star", published=78.63, tolerance=3.0, label="pima")

    @pytest.mark.slow
    def test_cancer_cell(self, tmp_path):
        prepared = uci_data.prepare_cancer(tmp_path)
        if prepared is None:
            pytest.skip(
                "data/uci/cancer.csv not present; the environment cannot fetch UCI "
                "data - drop in the public file to activate this cell"
            )
        dataset = e.preprocess_file(prepared, uci_data.UCI_DIR / "cancer.schema")
        assert dataset.pattern_count == 699 and dataset.input_count == 9
        run_cell(dataset, "2star", published=98.98, tolerance=1.5, label="cancer")


# --------------------------------------------------------------------------
# 3. Pipeline fidelity: published split sizes and encoder widths
# --------------------------------------------------------------------------

class TestCriterion3Pipeline:
    def split_sizes(self, class_sizes, rng):
        labels = np.concatenate([np.full(n, c) for c, n in enumerate(class_sizes)])
        ds = make_dataset(rng.uniform(1, 2, (labels.size, 2)), labels, len(class_sizes))
        train, test = e.stratified_holdout(ds, 0.75, seed=3)
        return train.pattern_count, test.pattern_count

    def test_split_sizes_match_published_table(self, tmp_path, rng):
        with criterion("3a (published split sizes)"):
            csv_path, schema_path = write_balance_scale(tmp_path)
            balance = e.preprocess_file(csv_path, schema_path)
            train, test = e.stratified_holdout(balance, 0.75, seed=MASTER_SEED)
            assert (train.pattern_count, test.pattern_count) == (469, 156)

            csv_path, schema_path = write_waveform(tmp_path, n=5000, seed=2)
            waveform = e.preprocess_file(csv_path, schema_path)
            train, test = e.stratified_holdout(waveform, 0.75, seed=MASTER_SEED)
            assert (train.pattern_count, test.pattern_count) == (3750, 1250)

            # per-class counts of the published datasets; the resulting split
            # sizes depend only on the labels
            assert self.split_sizes([500, 268], rng) == (576, 192)     # pima
            assert self.split_sizes([458, 241], rng) == (525, 174)     # cancer
            assert self.split_sizes([307, 383], rng) == (517, 173)     # australian
            assert self.split_sizes([164, 139], rng) == (227, 76)      # heart
            assert self.split_sizes([225, 126], rng) == (263, 88)      # ionos
            assert self.split_sizes([145, 200], rng) == (259, 86)      # liver
            # 3/4 of the total is integral for these, so the global pass pins
            # the totals no matter how the classes are distributed
            assert self.split_sizes([232, 136], rng) == (276, 92)      # horse
            assert self.split_sizes([3481, 194, 95, 2], rng) == (2829, 943)  # hypothyroid

    def test_documented_one_off_splits(self, rng):
        # hepatitis and newthyroid publish 117 and 161 train patterns; no
        # single consistent per-class rounding reproduces those, see README -
        # the declared rule lands one below on both and within one everywhere
        with criterion("3b (documented split deviations)"):
            assert self.split_sizes([32, 123], rng) == (116, 39)       # hepatitis: 117 published
            assert self.split_sizes([150, 35, 30], rng) == (160, 55)   # newthyroid: 161 published

    def test_encoder_widths(self, tmp_path):
        with criterion("3c (encoder input widths)"):
            csv_path, schema_path = write_balance_scale(tmp_path)
            assert e.preprocess_file(csv_path, schema_path).input_count == 4
            csv_path, schema_path = write_waveform(tmp_path, n=200, seed=4)
            assert e.preprocess_file(csv_path, schema_path).input_count == 40
            prepared = uci_data.prepare_pima(tmp_path)
            if prepared is not None:
                ds = e.preprocess_file(prepared, uci_data.UCI_DIR / "pima.schema")
                assert ds.input_count == 8
            prepared = uci_data.prepare_cancer(tmp_path)
            if prepared is not None:
                ds = e.preprocess_file(prepared, uci_data.UCI_DIR / "cancer.schema")
                assert ds.input_count == 9

    def test_indicator_expansion_convention(self, tmp_path):
        # one indicator column per nominal value, the convention that takes
        # 27 mixed attributes to 83 inputs on the published horse table
        with criterion("3d (indicator expansion convention)"):
            schema = tmp_path / "s"
            schema.write_text("a,nominal\nb,continuous\nclass,class\n")
            data = tmp_path / "d.csv"
            data.write_text("a,b,class\nx,1,p\ny,2,q\nz,3,p\n")
            ds = e.preprocess_file(data, schema)
            assert ds.input_count == 4  # three indicators + one continuous


# --------------------------------------------------------------------------
# 4. Property suite
# --------------------------------------------------------------------------

class TestCriterion4Properties:
    def test_softmax_properties(self, rng):
        with criterion("4a (softmax sum and shift invariance, 1e3 cases)"):
            for _ in range(1000):
                outputs = rng.uniform(-40, 40, int(rng.integers(1, 7)))
                p = e.class_probabilities(outputs)
                assert abs(p.sum() - 1.0) < 1e-9
                shift = rng.uniform(-25, 25)
                full = np.append(outputs, 0.0) + shift
                ref = np.exp(full - full.max())
                ref /= ref.sum()
                assert np.max(np.abs(p - ref)) < 1e-12

    def test_error_forms_agree(self, rng):
        with criterion("4b (stable vs direct cross-entropy, 1e3 cases, 1e-9)"):
            for _ in range(1000):
                k = int(rng.integers(1, 4))
                class_count = int(rng.integers(2, 5))
                net = e.random_network(rng, k, 3, class_count, weight_interval=(-1.5, 1.5))
                ds = random_dataset(rng, n=int(rng.integers(4, 10)), k=k,
                                    class_count=class_count)
                direct = hand_cross_entropy(net, ds)
                assert abs(e.cross_entropy_error(net, ds) - direct) < 1e-9

    def test_forward_pass_vs_brute_force(self, rng):
        with criterion("4c (forward pass vs brute-force oracle, 1e3 cases, 1e-12)"):
            for _ in range(1000):
                k = int(rng.integers(1, 4))
                net = e.random_network(rng, k, 3, int(rng.integers(2, 4)))
                doc = network_document(net)
                x = rng.uniform(1.0, 2.0, k)
                for got, want in zip(e.evaluate_outputs(net, x), hand_outputs(doc, x)):
                    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)

    def test_elitism_monotone_100_seeds(self):
        with criterion("4d (elitism monotone over 50 generations, 100 seeds)"):
            for seed in range(100):
                rng = np.random.default_rng(seed)
                train = small_train(rng, n=12)
                params = e.EaParams(gen=50, max_hidden=3, pop_size=10)
                counter = e.EvalCounter()
                pop = e.initialize_population(rng, params, train, counter)
                state = e.MutationState(params.alpha1, params.alpha2)
                best = pop[0].fitness
                for _ in range(50):
                    pop = e.evolve_generation(pop, state, rng, params, train, counter)
                    assert pop[0].fitness >= best
                    best = max(best, pop[0].fitness)
                assert counter.total == 100 + 50 * 9

    def test_structural_mutations_respect_bounds_1e4(self, rng):
        with criterion("4e (structural mutations respect bounds, 1e4 cases)"):
            params = e.EaParams(gen=1, max_hidden=4)
            for _ in range(10_000):
                k = int(rng.integers(1, 5))
                net = e.random_network(rng, k, 4, int(rng.integers(2, 4)))
                ind = e.Individual(net, float(rng.uniform(0.02, 0.98)),
                                   e.count_connections(net))
                out = e.structural_mutation(ind, rng, params)
                assert 1 <= out.hidden_count <= 4
                out.validate(weight_interval=params.weight_interval)

    def test_determinism_identical_serializations_and_counters(self, rng):
        train = small_train(rng)
        with criterion("4f (seeded determinism of full runs)"):
            outcomes = []
            for _ in range(2):
                run_rng = np.random.default_rng(424242)
                params = e.EaParams(gen=12, max_hidden=3, pop_size=10)
                counter = e.EvalCounter()
                pop = e.initialize_population(run_rng, params, train, counter)
                state = e.MutationState(params.alpha1, params.alpha2)
                pop, _ = e.run_evolution(pop, state, run_rng, params, train, counter)
                outcomes.append((e.serialize_network(pop[0].net), counter.total))
            assert outcomes[0] == outcomes[1]

            two_stage = []
            for _ in range(2):
                params = e.EaParams(gen=10, max_hidden=2, pop_size=10)
                counter = e.EvalCounter()
                population, _ = e.run_two_stage(
                    params, np.random.default_rng(424242), train, counter
                )
                two_stage.append((e.serialize_network(population[0].net), counter.total))
            assert two_stage[0] == two_stage[1]

    def test_stratified_partition_100_datasets(self, rng):
        with criterion("4g (stratified split partition, 1e2 datasets)"):
            for _ in range(100):
                n = int(rng.integers(10, 200))
                class_count = int(rng.integers(2, 6))
                labels = rng.integers(0, class_count, n)
                for c in range(class_count):
                    labels[2 * c] = c
                    labels[2 * c + 1] = c
                ds = make_dataset(rng.uniform(1, 2, (n, 2)), labels, class_count)
                train, test = e.stratified_holdout(ds, 0.75,
                                                   seed=int(rng.integers(1 << 30)))
                assert train.pattern_count + test.pattern_count == n
                full = np.bincount(ds.labels, minlength=class_count)
                kept = np.bincount(train.labels, minlength=class_count)
                assert np.all(kept + np.bincount(test.labels, minlength=class_count) == full)
                assert np.all(np.abs(kept - 0.75 * full) <= 1.0)


# --------------------------------------------------------------------------
# 5. Two-stage merge structure
# --------------------------------------------------------------------------

class TestCriterion5MergeStructure:
    def test_merged_population_structure_full_size(self, rng):
        train = small_train(rng)
        neu = 2
        params = e.EaParams(gen=10, max_hidden=neu, pop_size=1000)
        with criterion("5 (merged population structure at N=1000)"):
            log = StageLog()
            e.run_two_stage(params, np.random.default_rng(MASTER_SEED), train,
                            e.EvalCounter(), log)
            merged = log.merged()
            assert len(merged) == 1000
            assert sum(ind.origin == "stage1-a" for ind in merged) == 500
            assert sum(ind.origin == "stage1-b" for ind in merged) == 500
            fits = [ind.fitness for ind in merged]
            assert fits == sorted(fits, reverse=True)
            assert all(ind.net.hidden_count <= neu + 1 for ind in merged)
            assert all(
                ind.net.hidden_count <= neu
                for ind in merged if ind.origin == "stage1-a"
            )
