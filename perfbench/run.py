"""Benchmark entry point; run from the root of an evopunn checkout.

    python3 perfbench/run.py --workload balance-tsea --seed 1 --seconds 20 --trace 0

Starts the workload's set-up processes one after another, then one training
process, each with the BLAS pool pinned to one thread, and prints one JSON
object as its last line: `correct`, `attempted`, `failed` and the metrics
BENCHMARK.json lists (end-to-end with --trace 0, per-layer with --trace 1).
Exits non-zero without a result when the checkout has no src/evopunn or a
child process fails.

The training inputs are fixed per workload (see workloads.py); --seed seeds
the layer sampler's random draws and --seed-list picks another, disjoint
list of training seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_LAYERS = {
    "import": "setup.import_ms",
    "generate": "datasets.generate_ms",
    "preprocess_file": "data.preprocess_file_ms",
    "stratified_holdout": "data.stratified_holdout_ms",
    "save_dataset": "data.save_dataset_ms",
    "load_dataset": "data.load_dataset_ms",
}


class ChildFailed(Exception):
    pass


def run_child(script: str, args: list, deadline: float) -> dict:
    """Run one child in its own process group; return its last stdout line
    as JSON. On timeout the whole group, pool workers too, is killed."""
    env = dict(os.environ, **PINNED_THREADS)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *map(str, args)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{script} exceeded the time limit") from None
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise ChildFailed(f"{script} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-list", type=int, default=0,
                        help="training seed list; list j holds 1000 j + 1 onwards")
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "evopunn" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/evopunn to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = [run_child("setup_child.py", [args.workload, work], deadline)
                  for _ in range(workload.setups)]
        train = run_child("train_child.py", [args.workload, args.seed, args.seed_list,
                                             args.seconds, args.trace, work], deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for s in setups for e in s["errors"]] + train["errors"]
    if len({s["digest"] for s in setups}) != 1:
        errors.append("set-up processes wrote different train/test files")
    values = dict(train["metrics"])
    values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    for stage, name in SETUP_LAYERS.items():
        values[name] = 1e3 * statistics.median(s["layers"][stage] for s in setups)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": train["attempted"],
        "failed": train["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
