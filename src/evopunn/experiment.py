"""Experiment orchestration: benchmark presets, repeated seeded runs,
summary statistics and report files."""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .evolution import EaParams, EvalCounter, Individual, run_evolution
# unused here: perfbench's tracer (tracing.PATCHES) rebinds this name
from .evolution import initialize_population  # noqa: F401
from .network import correct_classification_rate
from .twostage import _require_even, run_two_stage


@dataclass(frozen=True)
class DatasetPreset:
    """Per-dataset training budget: hidden-node base count and generations."""
    hidden_nodes: int
    generations: int
    available: bool = True
    note: str = ""


PRESETS: dict[str, DatasetPreset] = {
    "australian": DatasetPreset(4, 100),
    "balance": DatasetPreset(5, 150),
    "cancer": DatasetPreset(2, 100),
    "heart": DatasetPreset(3, 300),
    "hepatitis": DatasetPreset(3, 100),
    "horse": DatasetPreset(4, 300),
    "hypothyroid": DatasetPreset(3, 500),
    "ionos": DatasetPreset(4, 500),
    "liver": DatasetPreset(4, 300),
    "newthyroid": DatasetPreset(3, 300),
    "pima": DatasetPreset(3, 120),
    "waveform": DatasetPreset(3, 500),
    "btx": DatasetPreset(5, 500, available=False, note="proprietary data, no public source"),
    "listeria": DatasetPreset(4, 300, available=False, note="proprietary data, no public source"),
}

# configuration id -> (method, hidden-node offset, coefficient-noise scale)
CONFIGURATIONS: dict[str, tuple[str, int, float]] = {
    "1": ("edd", 0, 1.0),
    "2": ("edd", 1, 1.0),
    "3": ("edd", 0, 1.5),
    "4": ("edd", 1, 1.5),
    "1star": ("tsea", 0, 1.0),
    "2star": ("tsea", 0, 1.5),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell, checked when built, so also by every replace()."""
    config_id: str
    neu: int
    gen: int
    pop_size: int = 1000
    n_runs: int = 30
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.config_id not in CONFIGURATIONS:
            raise ValueError(f"unknown configuration {self.config_id!r}; "
                             f"choose from {sorted(CONFIGURATIONS)}")
        if self.n_runs < 1:
            raise ValueError("n_runs must be at least 1")
        self.ea_params()  # EaParams checks neu, gen and pop_size
        if self.method == "tsea":
            _require_even(self.pop_size)

    @property
    def method(self) -> str:
        """The method, "edd" (single full-length run) or "tsea" (two-stage
        seeding), read from CONFIGURATIONS so it always agrees with config_id."""
        return CONFIGURATIONS[self.config_id][0]

    def ea_params(self) -> EaParams:
        """Engine parameters. The hidden cap is neu plus the configuration's
        offset; "tsea" rows have offset 0, so theirs is neu, the smaller cap."""
        _, offset, alpha2 = CONFIGURATIONS[self.config_id]
        return EaParams(gen=self.gen, max_hidden=self.neu + offset,
                        pop_size=self.pop_size, alpha2=alpha2)


def make_config(
    config_id: str,
    preset: str | None = None,
    neu: int | None = None,
    gen: int | None = None,
    n_runs: int = 30,
    master_seed: int = 0,
    pop_size: int = 1000,
) -> ExperimentConfig:
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        ps = PRESETS[preset]
        if not ps.available:
            raise ValueError(f"preset {preset!r} is disabled: {ps.note}")
        neu = ps.hidden_nodes if neu is None else neu
        gen = ps.generations if gen is None else gen
    if neu is None or gen is None:
        raise ValueError("either a preset or explicit neu and gen values are required")
    return ExperimentConfig(config_id=config_id, neu=neu, gen=gen, pop_size=pop_size,
                            n_runs=n_runs, master_seed=master_seed)


@dataclass
class RunRecord:
    run_index: int
    seed: int
    ccr_train: float
    ccr_test: float
    connections: int
    evaluations: int
    generations: int
    wall_time: float


@dataclass
class Summary:
    mean_ccr_test: float
    sd_ccr_test: float
    mean_connections: float
    sd_connections: float


def run_single(
    config: ExperimentConfig, train, test, seed: int, run_index: int = 0,
    on_generation=None,
) -> tuple[RunRecord, Individual]:
    """One seeded training run; measures accuracy of the best individual."""
    rng = np.random.default_rng(seed)
    counter = EvalCounter()
    params = config.ea_params()
    started = time.perf_counter()
    if config.method == "tsea":
        population, generations = run_two_stage(params, rng, train, counter, on_generation)
    else:
        population, generations = run_evolution("run", params, rng, train, counter, on_generation)
    best = population[0]
    elapsed = time.perf_counter() - started
    record = RunRecord(
        run_index=run_index,
        seed=seed,
        ccr_train=correct_classification_rate(best.net, train),
        ccr_test=correct_classification_rate(best.net, test),
        connections=best.connections,
        evaluations=counter.total,
        generations=generations,
        wall_time=elapsed,
    )
    return record, best


def _run_for_pool(args) -> RunRecord:
    config, train, test, seed, index = args
    record, _ = run_single(config, train, test, seed, index)
    return record


def run_experiment(
    config: ExperimentConfig, train, test, workers: int = 1
) -> list[RunRecord]:
    """n_runs independent runs with seeds master_seed + i, reported in run
    order. Runs are independent, so they may execute on several processes;
    the records are identical either way."""
    tasks = [
        (config, train, test, config.master_seed + i, i) for i in range(config.n_runs)
    ]
    if workers <= 1 or config.n_runs == 1:
        return [_run_for_pool(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor  # a serial run never loads it

    # a forked pool starts all its workers at the first submit, so it gets no
    # more of them than there are runs
    with ProcessPoolExecutor(max_workers=min(workers, config.n_runs)) as pool:
        return list(pool.map(_run_for_pool, tasks))


def summarize(records: list[RunRecord]) -> Summary:
    """Mean and sample standard deviation of test accuracy and connection
    count, read from the cells write_report prints, so the summary equals
    the report's mean and sd rows."""
    if not records:
        raise ValueError("no records to summarize")
    rows = [_report_cells(r) for r in records]
    return Summary(*_statistics(rows, "ccr_test"), *_statistics(rows, "connections"))


_REPORT_COLUMNS = (
    ("run", None),
    ("seed", None),
    ("ccr_train", 2),
    ("ccr_test", 2),
    ("connections", 2),
    ("evaluations", 2),
    ("generations", 2),
    ("wall_time_s", 3),
)


def _report_cells(r: RunRecord) -> list[str]:
    return [str(r.run_index), str(r.seed), f"{r.ccr_train:.2f}", f"{r.ccr_test:.2f}",
            str(r.connections), str(r.evaluations), str(r.generations), f"{r.wall_time:.3f}"]


def _statistics(rows: list[list[str]], name: str) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1) of a column's printed cells;
    a single run has deviation 0 by convention."""
    col = [column for column, _ in _REPORT_COLUMNS].index(name)
    values = [float(row[col]) for row in rows]
    return statistics.fmean(values), statistics.stdev(values) if len(values) > 1 else 0.0


def write_report(records: list[RunRecord], path) -> None:
    """Comma-separated report: header, one row per run, then mean and sd rows.

    Accuracy and connection counts are printed with two decimals. The summary
    rows are computed from the per-run values exactly as printed, so
    recomputing the statistics from the file reproduces them.
    """
    if not records:
        raise ValueError("no records to report")
    rows = [_report_cells(r) for r in records]
    mean_row, sd_row = ["mean", ""], ["sd", ""]
    for name, digits in _REPORT_COLUMNS[2:]:
        mean, sd = _statistics(rows, name)
        mean_row.append(f"{mean:.{digits}f}")
        sd_row.append(f"{sd:.{digits}f}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(name for name, _ in _REPORT_COLUMNS)
        writer.writerows(rows + [mean_row, sd_row])
