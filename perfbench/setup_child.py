"""One set-up in a fresh process: everything before the first fitness
evaluation. Times the import, the CSV generation, preprocess_file,
stratified_holdout and the save_dataset/load_dataset round trip, writes
train.dat and test.dat for the training process, checks every output, and
prints one JSON line.

    python3 perfbench/setup_child.py <workload> <work dir>
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import evopunn  # noqa: E402
from evopunn import data, datasets  # noqa: E402

import checks  # noqa: E402
from workloads import SPLIT_RATIO, SPLIT_SEED, WAVEFORM_ROWS, WAVEFORM_SEED, WORKLOADS  # noqa: E402


def main() -> None:
    name, work = sys.argv[1], Path(sys.argv[2])
    workload = WORKLOADS[name]
    marks = {"import": time.perf_counter()}
    raw_dir = work / "raw"
    if workload.dataset == "waveform":
        csv_path, schema_path = datasets.write_waveform(raw_dir, WAVEFORM_ROWS, WAVEFORM_SEED)
    else:
        csv_path, schema_path = datasets.GENERATORS[workload.dataset](raw_dir)
    marks["generate"] = time.perf_counter()
    full = data.preprocess_file(csv_path, schema_path)
    marks["preprocess_file"] = time.perf_counter()
    train, test = data.stratified_holdout(full, SPLIT_RATIO, SPLIT_SEED)
    marks["stratified_holdout"] = time.perf_counter()
    data.save_dataset(train, work / "train.dat")
    data.save_dataset(test, work / "test.dat")
    marks["save_dataset"] = time.perf_counter()
    loaded = [data.load_dataset(work / "train.dat"), data.load_dataset(work / "test.dat")]
    marks["load_dataset"] = time.perf_counter()

    # Checks run after the timed span; a failed one is reported, not raised.
    check = checks.Findings()
    if Path(evopunn.__file__).resolve().parent != ROOT / "src" / "evopunn":
        raise SystemExit(f"evopunn imported from {evopunn.__file__}, not from this checkout")
    if workload.dataset == "balance":
        check(checks.check_balance_dataset, full.patterns, full.labels)
    check(checks.check_pattern_range, full.patterns)
    check(checks.check_split, (train.pattern_count, test.pattern_count), workload.split)
    check(checks.check_partition, full.patterns, [train.patterns, test.patterns])
    for part, again, fname in zip((train, test), loaded, ("train.dat", "test.dat")):
        patterns, labels = checks.read_dat(work / fname)
        for label, arrays in (("load_dataset", (again.patterns, again.labels)),
                              ("file text", (patterns, labels))):
            check(checks.check_bit_exact, f"{fname} patterns via {label}", part.patterns, arrays[0])
            check(checks.check_bit_exact, f"{fname} labels via {label}", part.labels, arrays[1])

    previous = T0
    layers = {}
    for stage, mark in marks.items():
        layers[stage] = mark - previous
        previous = mark
    digest = hashlib.sha256()
    for fname in ("train.dat", "test.dat"):
        digest.update((work / fname).read_bytes())
    print(json.dumps({
        "setup_s": marks["load_dataset"] - T0,
        "layers": layers,
        "digest": digest.hexdigest(),
        "errors": check.errors,
    }))


if __name__ == "__main__":
    main()
