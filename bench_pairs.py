"""Paired benchmark runs of two trees of this repository, written as one BENCH file.

Extracts each tree with `git archive` into a work directory, then alternates
`python3 perfbench/run.py --workload W --seed 1 --seconds T --trace 0` between
the parent and the change (the parent first in even pairs, the change first in
odd ones), with T the `run_seconds` of BENCHMARK.json, and records for every
end-to-end metric of BENCHMARK.json both medians, the parent's interquartile
range, the change's wins out of n and every raw value. Uses the standard
library only and imports nothing from the trees it runs.

    python3 bench_pairs.py --parent <tree-ish> --change <tree-ish> --work <dir> \\
        --out BENCH_<label>.json [--pairs 10] [--workload W ...] [--seed-list L ...]

A tree-ish is a commit or a tree id; `git add -A && git write-tree` gives one
for an uncommitted change. Each (workload, seed list) is one entry of "runs".
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SEED = 1


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(treeish: str, into: Path) -> Path:
    """The files of treeish under into/<id>, extracted with git archive."""
    ident = git("rev-parse", treeish)
    target = into / ident
    if not target.exists():
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ident],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(target, filter="data")
    return target


def run_once(tree: Path, workload: str, seconds: float, seed_list: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0", "--seed-list", str(seed_list)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def numpy_versions() -> dict:
    """numpy's and its BLAS's versions, and the OpenBLAS core numpy loaded, on
    which fitness bits depend (tests/make_fingerprints.blas_core), read in a
    child interpreter."""
    code = ("import json, sys, numpy; sys.path[:0] = sys.argv[1:]; "
            "from make_fingerprints import blas_core; "
            "c = numpy.show_config(mode='dicts'); "
            "b = c['Build Dependencies']['blas']; "
            "print(json.dumps({'numpy': numpy.__version__, 'blas': b.get('name'), "
            "'blas_version': b.get('version'), 'blas_core': blas_core()}))")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "tests"), str(ROOT / "src")],
                         capture_output=True, text=True)
    return json.loads(out.stdout) if out.returncode == 0 else {"error": out.stderr.strip()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed-list", type=int, action="append")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2, for the parent's quartiles, not {args.pairs}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seed_lists = args.seed_list or [0]
    args.work.mkdir(parents=True, exist_ok=True)
    trees = {"parent": extract(args.parent, args.work), "change": extract(args.change, args.work)}

    report = {
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", args.change),
        "src": {"parent": git("rev-parse", f"{args.parent}:src"),
                "change": git("rev-parse", f"{args.change}:src")},
        "command": (f"perfbench/run.py --workload <W> --seed {SEED} --seconds "
                    f"{seconds:g} --trace 0 --seed-list <L>"),
        "pairs": args.pairs,
        "order": "parent first in even pairs, change first in odd pairs",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **numpy_versions(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS_in_runs": "1, set by perfbench/run.py for its child processes",
        # set, every fresh process compiles each module it imports: setup_s reads
        # about 10-15 ms higher than with cached bytecode
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "runs": [],
    }
    for workload in workloads:
        for seed_list in seed_lists:
            raw: dict[str, list[dict]] = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    out = run_once(trees[side], workload, seconds, seed_list)
                    raw[side].append(out)
                    print(f"{workload} list {seed_list} pair {pair} {side}: "
                          f"wall_s {out['metrics']['wall_s']['value']:.3f}",
                          file=sys.stderr, flush=True)
            entry = {"workload": workload, "seed_list": seed_list,
                     "correct": {side: [r["correct"] for r in raw[side]] for side in raw},
                     "failed": {side: [r["failed"] for r in raw[side]] for side in raw},
                     "metrics": {}}
            for metric in metrics:
                name = metric["name"]
                values = {side: [r["metrics"][name]["value"] for r in raw[side]] for side in raw}
                lower = metric["better"] == "lower"
                wins = sum((c < p) if lower else (c > p)
                           for p, c in zip(values["parent"], values["change"]))
                q1, q3 = quartiles(values["parent"])
                parent_median = statistics.median(values["parent"])
                change_median = statistics.median(values["change"])
                entry["metrics"][name] = {
                    "unit": metric["unit"], "better": metric["better"],
                    "parent_median": parent_median, "change_median": change_median,
                    "change_pct": 100.0 * (change_median - parent_median) / parent_median
                    if parent_median else None,
                    "parent_iqr": q3 - q1,
                    "wins": wins, "n": args.pairs,
                    "parent": values["parent"], "change": values["change"],
                }
            report["runs"].append(entry)
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
