"""Fingerprints of the benchmark's training runs, and the script that writes
them to tests/fingerprints.json, the fixture of test_fingerprints.py.

For seed list 0 of every workload in perfbench/workloads.py, the data is
built as perfbench/setup_child.py builds it, saved with save_dataset and read
back with load_dataset, and each seed is trained in this process with
experiment.run_single: 11 runs in all. A run's fingerprint holds its outcome
(evaluations, generations, train and test CCR, connections), the best
fitness in hex and a sha256 over every generation's stage, index, evaluation
count and best-fitness hex.

    PYTHONPATH=src python tests/make_fingerprints.py

Regenerate the fixture only for a change meant to alter what a seed draws,
and name the regenerated file in CHANGES.md.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from evopunn import data, datasets, experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from workloads import (  # noqa: E402
    SPLIT_RATIO, SPLIT_SEED, WAVEFORM_ROWS, WAVEFORM_SEED, WORKLOADS, training_seeds,
)

FIXTURE = Path(__file__).resolve().parent / "fingerprints.json"
OUTCOME = ("seed", "evaluations", "generations", "ccr_train", "ccr_test", "connections")
FITNESS_BITS = ("best_fitness", "generations_sha256")


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS chose for this CPU, or "unknown"
    for a numpy without one. Fitness bits depend on it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def workload_data(name: str, work: Path):
    """(train, test) of a workload, built as the benchmark's set-up builds
    them and read back from the train.dat and test.dat written in work."""
    dataset = WORKLOADS[name].dataset
    if dataset == "waveform":
        csv_path, schema_path = datasets.write_waveform(work / "raw", WAVEFORM_ROWS, WAVEFORM_SEED)
    else:
        csv_path, schema_path = datasets.GENERATORS[dataset](work / "raw")
    full = data.preprocess_file(csv_path, schema_path)
    parts = data.stratified_holdout(full, SPLIT_RATIO, SPLIT_SEED)
    for part, fname in zip(parts, ("train.dat", "test.dat")):
        data.save_dataset(part, work / fname)
    return data.load_dataset(work / "train.dat"), data.load_dataset(work / "test.dat")


def fingerprints(name: str, work: Path) -> list[dict]:
    """The fingerprint of every seed of the workload's seed list 0."""
    workload = WORKLOADS[name]
    seeds = training_seeds(workload, 0)
    config = experiment.make_config(workload.config, preset=workload.dataset, n_runs=len(seeds),
                                    master_seed=seeds[0], pop_size=workload.pop_size)
    train, test = workload_data(name, work)
    runs = []
    for index, seed in enumerate(seeds):
        digest = hashlib.sha256()

        def on_generation(stage, gen_index, population, counter):
            line = f"{stage} {gen_index} {counter.total} {population[0].fitness.hex()}\n"
            digest.update(line.encode())

        record, best = experiment.run_single(config, train, test, seed, index, on_generation)
        runs.append({key: getattr(record, key) for key in OUTCOME}
                    | {"best_fitness": best.fitness.hex(), "generations_sha256": digest.hexdigest()})
    return runs


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workloads = {}
        for name in WORKLOADS:
            work = Path(tmp) / name
            work.mkdir()
            workloads[name] = fingerprints(name, work)
    FIXTURE.write_text(json.dumps({"blas_core": blas_core(), "workloads": workloads}, indent=1)
                       + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
