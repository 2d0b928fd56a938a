import concurrent.futures
import csv
import os
import statistics
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

import evopunn
from evopunn.data import ProcessedDataset, fit_apply_normalization
from evopunn.datasets import waveform_rows
from evopunn.experiment import (
    CONFIGURATIONS,
    PRESETS,
    ExperimentConfig,
    RunRecord,
    make_config,
    run_experiment,
    run_single,
    summarize,
    write_report,
)


PUBLISHED_BUDGETS = {
    "australian": (4, 100),
    "balance": (5, 150),
    "cancer": (2, 100),
    "heart": (3, 300),
    "hepatitis": (3, 100),
    "horse": (4, 300),
    "hypothyroid": (3, 500),
    "ionos": (4, 500),
    "liver": (4, 300),
    "newthyroid": (3, 300),
    "pima": (3, 120),
    "waveform": (3, 500),
}


class TestPresets:
    def test_budgets_match_published_table(self):
        for name, (neu, gen) in PUBLISHED_BUDGETS.items():
            preset = PRESETS[name]
            assert (preset.hidden_nodes, preset.generations) == (neu, gen), name
            assert preset.available

    def test_proprietary_presets_disabled(self):
        for name in ("btx", "listeria"):
            assert not PRESETS[name].available
            with pytest.raises(ValueError, match="disabled"):
                make_config("1", preset=name)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            make_config("1", preset="nope")


class TestConfigurations:
    def test_method_mapping(self):
        assert {cid: CONFIGURATIONS[cid][0] for cid in CONFIGURATIONS} == {
            "1": "edd", "2": "edd", "3": "edd", "4": "edd",
            "1star": "tsea", "2star": "tsea",
        }

    @pytest.mark.parametrize(
        "cid,offset,alpha2",
        [("1", 0, 1.0), ("2", 1, 1.0), ("3", 0, 1.5), ("4", 1, 1.5)],
    )
    def test_full_run_configurations(self, cid, offset, alpha2):
        config = make_config(cid, preset="pima")
        assert config.method == CONFIGURATIONS[cid][0]
        params = config.ea_params()
        assert params.max_hidden == 3 + offset
        assert params.alpha2 == alpha2
        assert params.gen == 120
        assert params.pop_size == 1000

    @pytest.mark.parametrize("cid,alpha2", [("1star", 1.0), ("2star", 1.5)])
    def test_two_stage_configurations(self, cid, alpha2):
        config = make_config(cid, preset="pima")
        assert config.method == CONFIGURATIONS[cid][0]
        params = config.ea_params()
        assert params.max_hidden == 3  # stage-two cap is neu + 1 inside the runner
        assert params.alpha2 == alpha2
        assert params.gen == 120
        assert params.pop_size == 1000

    def test_explicit_budget_overrides(self):
        config = make_config("1star", neu=2, gen=30, pop_size=10)
        assert (config.neu, config.gen, config.pop_size) == (2, 30, 10)

    def test_config_without_budget_rejected(self):
        with pytest.raises(ValueError, match="preset or explicit"):
            make_config("1")

    def test_unknown_configuration_rejected_when_built(self):
        with pytest.raises(ValueError, match=r"^unknown configuration '9'; choose from \["):
            ExperimentConfig("9", 3, 10)

    @pytest.mark.parametrize("changes, message", [
        ({"n_runs": 0}, "n_runs must be at least 1"),
        ({"pop_size": 0}, "pop_size must be positive"),
        ({"gen": -1}, "gen must be nonnegative"),
        ({"neu": 0}, "max_hidden must be at least 1"),
    ], ids=["n_runs", "pop_size", "gen", "neu"])
    def test_replace_is_checked(self, changes, message):
        config = make_config("1", neu=2, gen=4, pop_size=10)
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(config, **changes)

    def test_two_stage_rejects_an_odd_population_when_built(self):
        assert make_config("1", preset="balance", pop_size=3).pop_size == 3
        for config_id in ("1star", "2star"):
            with pytest.raises(ValueError, match=r"^pop_size must be even \(the merge takes "
                                                 r"half of each population\)$"):
                make_config(config_id, preset="balance", pop_size=3)

    def test_is_frozen(self):
        config = make_config("1", neu=2, gen=4, pop_size=10)
        with pytest.raises(FrozenInstanceError):
            config.n_runs = 5


class TestRunExperiment:
    def small_config(self, cid="1", runs=3, seed=100):
        return make_config(cid, neu=2, gen=4, n_runs=runs, master_seed=seed, pop_size=10)

    def test_records_in_run_order_with_derived_seeds(self, toy_train):
        config = self.small_config(runs=4)
        records = run_experiment(config, toy_train, toy_train)
        assert [r.run_index for r in records] == [0, 1, 2, 3]
        assert [r.seed for r in records] == [100, 101, 102, 103]
        assert len({r.seed for r in records}) == 4
        for r in records:
            assert 0.0 <= r.ccr_train <= 100.0
            assert 0.0 <= r.ccr_test <= 100.0
            assert r.evaluations > 0

    def test_single_run_deterministic(self, toy_train):
        config = self.small_config(runs=1)
        a = run_experiment(config, toy_train, toy_train)[0]
        b = run_experiment(config, toy_train, toy_train)[0]
        assert (a.ccr_train, a.ccr_test, a.connections, a.evaluations, a.generations) == (
            b.ccr_train, b.ccr_test, b.connections, b.evaluations, b.generations
        )

    def test_two_stage_method_runs(self, toy_train):
        config = make_config("1star", neu=2, gen=10, n_runs=1, master_seed=5, pop_size=10)
        records = run_experiment(config, toy_train, toy_train)
        assert records[0].evaluations > 0
        assert records[0].generations >= 2  # at least the two stage-one phases

    def test_workers_do_not_change_results(self, toy_train):
        config = self.small_config(runs=4)
        sequential = run_experiment(config, toy_train, toy_train, workers=1)
        parallel = run_experiment(config, toy_train, toy_train, workers=2)
        for a, b in zip(sequential, parallel):
            assert (a.seed, a.ccr_train, a.ccr_test, a.connections, a.evaluations) == (
                b.seed, b.ccr_train, b.ccr_test, b.connections, b.evaluations
            )

    @pytest.mark.parametrize("runs, workers, started", [(2, 4, 2), (4, 2, 2), (3, 3, 3)])
    def test_pool_starts_no_more_workers_than_runs(self, toy_train, monkeypatch,
                                                   runs, workers, started):
        # a forked pool starts max_workers processes at its first submit
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        config = self.small_config(runs=runs)
        records = run_experiment(config, toy_train, toy_train, workers=workers)
        assert sizes == [started]
        assert [r.seed for r in records] == [100 + i for i in range(runs)]

    def test_import_does_not_load_the_process_pool(self):
        # only a pooled run_experiment imports it; a fresh process shows it
        src = str(Path(evopunn.__file__).resolve().parent.parent)
        code = ("import sys, evopunn.experiment; "
                "print('concurrent.futures.process' in sys.modules)")
        result = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert result.stdout == "False\n"

    def test_different_master_seeds_complete(self, toy_train):
        for seed in (1, 2):
            config = self.small_config(runs=2, seed=seed)
            assert len(run_experiment(config, toy_train, toy_train)) == 2


class TestGenerationCallback:
    """run_single reports every generation as (stage, gen_index, population,
    counter), whichever method the configuration selects."""

    def run_logged(self, config_id, train):
        config = make_config(config_id, neu=2, gen=20, n_runs=1, pop_size=10)
        events, origins = [], set()

        def log(stage, gen_index, population, counter):
            assert len(population) == 10
            events.append((stage, gen_index, counter.total))
            origins.update(ind.origin for ind in population)

        record, _ = run_single(config, train, train, seed=4, on_generation=log)
        return record, events, origins

    def test_two_stage_events(self, toy_train):
        record, events, origins = self.run_logged("1star", toy_train)
        assert origins == {"stage1-a", "stage1-b"}
        n = record.generations - 4  # stage one runs gen // 10 = 2 per population
        assert n >= 1
        assert [(stage, g) for stage, g, _ in events] == (
            [("stage1-a", 1), ("stage1-a", 2), ("stage1-b", 1), ("stage1-b", 2)]
            + [("stage2", g) for g in range(1, n + 1)]
        )
        assert events[-1][2] == record.evaluations

    def test_single_run_events(self, toy_train):
        record, events, origins = self.run_logged("1", toy_train)
        assert origins == {"run"}  # a full-length run is one stage, "run"
        assert [(stage, g) for stage, g, _ in events] == [
            ("run", g) for g in range(1, record.generations + 1)
        ]
        assert events[-1][2] == record.evaluations

    @pytest.mark.parametrize("config_id", ["1star", "1"])
    def test_nothing_written_after_hand_out(self, toy_train, config_id):
        """Every list and individual the callback receives, and every array
        of their networks, reads at the end of the run as it did when first
        handed out; the merge included."""
        config = make_config(config_id, neu=2, gen=30, n_runs=1, pop_size=10)
        handed = []  # (list, its members' ids at hand-out)
        first_seen = {}  # id -> (individual, its state at first hand-out)

        def state(ind):
            net = ind.net
            arrays = (net.exponents, net.exponent_mask, net.coefficients,
                      net.coefficient_mask, net.biases)
            return (ind.fitness, ind.connections, ind.origin,
                    tuple(a.tobytes() for a in arrays))

        def probe(stage, gen_index, population, counter):
            handed.append((population, [id(ind) for ind in population]))
            for ind in population:
                first_seen.setdefault(id(ind), (ind, state(ind)))

        run_single(config, toy_train, toy_train, seed=4, on_generation=probe)
        changed = [ind for ind, before in first_seen.values() if state(ind) != before]
        assert len(first_seen) > 100
        assert changed == []
        assert all([id(ind) for ind in population] == ids for population, ids in handed)


class TestGoldenRun:
    """A fixed seed gives a fixed run. Any change to the order in which the
    generator is consumed, or to the bits of a fitness value, moves these
    figures; such a change must re-run the balance cell and then update them.
    They hold for numpy 2.4 with its bundled OpenBLAS on x86-64."""

    @pytest.mark.parametrize("config_id, evaluations, generations, best_hex", [
        ("1star", 1264, 48, "0x1.ffff51abe476bp-1"),
        ("1", 920, 40, "0x1.ffd82cbac788ep-1"),
    ])
    def test_pinned_outcome(self, toy_train, config_id, evaluations, generations, best_hex):
        config = make_config(config_id, neu=3, gen=40, n_runs=1, pop_size=20)
        record, best = run_single(config, toy_train, toy_train, seed=11)
        assert (record.evaluations, record.generations) == (evaluations, generations)
        assert best.fitness.hex() == best_hex

    @pytest.mark.parametrize("config_id, evaluations, generations, best_hex", [
        ("1star", 1048, 36, "0x1.00fbfe645fc46p-1"),
        ("1", 740, 30, "0x1.faced38b14858p-2"),
    ])
    def test_pinned_outcome_wide(self, config_id, evaluations, generations, best_hex):
        # 40 inputs and 3 classes: new nodes draw 40-long link and weight rows
        attrs, labels = waveform_rows(n=300, seed=4)
        patterns, normalization = fit_apply_normalization(attrs)
        train = ProcessedDataset(patterns, labels, [f"x{i}" for i in range(40)],
                                 ["a", "b", "c"], normalization)
        config = make_config(config_id, neu=3, gen=30, n_runs=1, pop_size=20)
        record, best = run_single(config, train, train, seed=11)
        assert (record.evaluations, record.generations) == (evaluations, generations)
        assert best.fitness.hex() == best_hex


def record(i, ccr_test, connections=10):
    return RunRecord(i, 100 + i, 75.0, ccr_test, connections, 1000, 5, 0.25)


class TestSummarize:
    def test_pair(self):
        summary = summarize([record(0, 80.0), record(1, 90.0)])
        assert summary.mean_ccr_test == pytest.approx(85.0)
        assert summary.sd_ccr_test == pytest.approx(7.0711, abs=1e-4)

    def test_identical_values(self):
        summary = summarize([record(i, 88.0) for i in range(5)])
        assert summary.sd_ccr_test == 0.0

    def test_single_record(self):
        summary = summarize([record(0, 88.0, connections=7)])
        assert summary.mean_ccr_test == 88.0
        assert summary.sd_ccr_test == 0.0
        assert summary.mean_connections == 7.0
        assert summary.sd_connections == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_equals_the_report_rows(self, tmp_path):
        # 141 and 142 of 156 test patterns: the unrounded mean, 90.7051...,
        # prints 90.71, while the printed cells 90.38 and 91.03 average 90.70
        records = [record(0, 100 * 141 / 156), record(1, 100 * 142 / 156)]
        write_report(records, tmp_path / "report.csv")
        with open(tmp_path / "report.csv", newline="") as fh:
            mean_row, sd_row = list(csv.reader(fh))[-2:]
        summary = summarize(records)
        printed = [f"{summary.mean_ccr_test:.2f}", f"{summary.sd_ccr_test:.2f}"]
        assert printed == [mean_row[3], sd_row[3]] == ["90.70", "0.46"]


class TestWriteReport:
    def test_shape_and_self_consistency(self, tmp_path):
        records = [record(i, 80.0 + i * 0.537, connections=10 + i % 7) for i in range(30)]
        path = tmp_path / "report.csv"
        write_report(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, data, mean_row, sd_row = rows[0], rows[1:-2], rows[-2], rows[-1]
        assert len(data) == 30
        assert mean_row[0] == "mean" and sd_row[0] == "sd"
        # summary rows equal statistics recomputed from the emitted cells
        for col in range(2, len(header)):
            emitted = [float(r[col]) for r in data]
            digits = len(mean_row[col].split(".")[1])
            assert mean_row[col] == f"{statistics.fmean(emitted):.{digits}f}"
            assert sd_row[col] == f"{statistics.stdev(emitted):.{digits}f}"

    def test_round_trip_precision(self, tmp_path):
        records = [record(0, 81.256789)]
        path = tmp_path / "report.csv"
        write_report(records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][3] == "81.26"  # test accuracy at two decimals

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report([], tmp_path / "r.csv")
