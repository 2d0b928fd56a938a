"""Training process of one benchmark run.

Loads the set-up's train.dat and test.dat, then repeats identical rounds
(one seeded training run per seed of the workload's list) until the run
length is used, timing each round through the library's public functions.
Every output is checked against computations in checks.py. With --trace 1
it instead runs one untraced and one traced pass and samples single layers.
Prints one JSON line.

    python3 perfbench/train_child.py <workload> <seed> <seed list> <seconds> <trace> <work dir>
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from evopunn import data, experiment, network  # noqa: E402

import checks  # noqa: E402
import sampler  # noqa: E402
import tracing  # noqa: E402
from selftest import run_selftests  # noqa: E402
from workloads import SAMPLE_GENERATION, WORKLOADS, training_seeds  # noqa: E402

SAMPLER_REPEATS = 20
MIN_ROUNDS = 3  # a median over three rounds survives one disturbed round


@dataclass
class Outcome:
    record: experiment.RunRecord
    best: object = None          # Individual; absent for pool runs
    log: checks.GenerationLog | None = None

    def fingerprint(self) -> tuple:
        r = self.record
        return (r.seed, r.ccr_train, r.ccr_test, r.connections, r.evaluations, r.generations)


class Context:
    def __init__(self, name: str, seed: int, seed_list: int, work: Path):
        self.workload = WORKLOADS[name]
        self.sampler_seed = seed
        self.seeds = training_seeds(self.workload, seed_list)
        self.config = experiment.make_config(
            self.workload.config, preset=self.workload.dataset, n_runs=len(self.seeds),
            master_seed=self.seeds[0], pop_size=self.workload.pop_size,
        )
        self.tsea = self.config.method == "tsea"
        # tsea runs its main loop under the larger of its two caps
        self.params = replace(self.config.ea_params(),
                              max_hidden=self.config.ea_params().max_hidden + self.tsea)
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.train = data.load_dataset(work / "train.dat")
        self.test = data.load_dataset(work / "test.dat")
        self.ref_train = checks.read_dat(work / "train.dat")
        self.ref_test = checks.read_dat(work / "test.dat")
        self.failed = 0
        self.attempted = 0


def usage_seconds() -> float:
    """CPU seconds of this process and of its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run_one(ctx: Context, index: int) -> tuple[Outcome | None, tuple[float, float]]:
    """run_single on one seed in this process, logging every generation;
    returns the outcome (None when it raised) and its (wall, CPU) seconds."""
    ctx.attempted += 1
    log = checks.GenerationLog(SAMPLE_GENERATION)
    wall0, cpu0 = time.perf_counter(), usage_seconds()
    try:
        record, best = experiment.run_single(
            ctx.config, ctx.train, ctx.test, ctx.seeds[index], index, on_generation=log)
    except Exception:
        traceback.print_exc()
        ctx.failed += 1
        return None, (0.0, 0.0)
    return Outcome(record, best, log), (time.perf_counter() - wall0, usage_seconds() - cpu0)


def serial_pass(ctx: Context) -> tuple[list[Outcome], list[tuple[float, float]]]:
    """The seeds one after another in this process, one timing unit each."""
    runs = [run_one(ctx, index) for index in range(len(ctx.seeds))]
    return [o for o, _ in runs if o is not None], [u for o, u in runs if o is not None]


def pool_pass(ctx: Context) -> tuple[list[Outcome], list[tuple[float, float]]]:
    """The seeds as one run_experiment cell on the process pool; one timing
    unit covers the whole cell, worker start-up included."""
    ctx.attempted += len(ctx.seeds)
    wall0, cpu0 = time.perf_counter(), usage_seconds()
    try:
        records = experiment.run_experiment(ctx.config, ctx.train, ctx.test, ctx.workers)
    except Exception:
        traceback.print_exc()
        ctx.failed += len(ctx.seeds)
        return [], []
    return [Outcome(r) for r in records], [(time.perf_counter() - wall0, usage_seconds() - cpu0)]


def timed_round(ctx: Context):
    return pool_pass(ctx) if ctx.workload.pool else serial_pass(ctx)


def check_outcome(check: checks.Findings, ctx: Context, outcome: Outcome) -> None:
    record, best, log = outcome.record, outcome.best, outcome.log
    method, pop, gen = ctx.config.method, ctx.config.pop_size, ctx.config.gen
    stages = {stage: len(series) for stage, series in log.best.items()}
    check(checks.check_stage_generations, method, gen, stages, record.generations)
    check(checks.check_evaluations, method, pop, stages, record.evaluations)
    check(checks.check_evaluations, method, pop, stages, log.evaluations)
    check(checks.check_elitism, log.best)
    doc = json.loads(network.serialize_network(best.net))
    check(checks.check_network, doc, ctx.params.max_hidden)
    check(checks.check_fitness, doc, *ctx.ref_train, best.fitness)
    check(checks.check_ccr, doc, *ctx.ref_train, record.ccr_train)
    check(checks.check_ccr, doc, *ctx.ref_test, record.ccr_test)
    check(checks.check_above_majority, record.ccr_test, ctx.ref_test[1])
    if ctx.tsea:
        a, b = (checks.population_tuples(log.last[stage]) for stage in checks.STAGE_ONE)
        main_stage = next(s for s in log.first if s not in checks.STAGE_ONE)
        check(checks.check_merge, a, b, checks.population_tuples(log.first[main_stage]))


def check_same(check, reference: list[Outcome], other: list[Outcome], what: str) -> None:
    check(checks.check_repeat, [o.fingerprint() for o in reference],
          [o.fingerprint() for o in other], what)
    if reference and other and reference[0].best is not None and other[0].best is not None:
        check(checks.check_repeat, [o.best.fitness for o in reference],
              [o.best.fitness for o in other], what + " best fitness")


def makespan(durations: list[float], workers: int) -> float:
    """Finish time of the durations handed in order to the first free worker."""
    free = [0.0] * workers
    for d in durations:
        free[free.index(min(free))] += d
    return max(free)


def measure(ctx: Context, seconds: float, check: checks.Findings) -> dict[str, float]:
    """Rounds until the run length is used, at least MIN_ROUNDS. Each timing
    unit (a seeded run, or the whole pool cell) takes its median over the
    rounds, and wall_s and cpu_s sum those medians."""
    deadline = time.perf_counter() + seconds
    first, units = timed_round(ctx)
    rounds = [units]
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        # later rounds are only compared, so memory does not grow with their number
        again, units = timed_round(ctx)
        check_same(check, first, again, "round")
        rounds.append(units)
    peak = peak_rss_mb()
    verified = first
    if ctx.workload.pool:
        verified, _ = serial_pass(ctx)
        check_same(check, first, verified, "pool against in-process")
    for outcome in verified:
        check_outcome(check, ctx, outcome)
    per_unit = list(zip(*rounds))
    wall = sum(statistics.median(u[0] for u in unit) for unit in per_unit)
    cpu = sum(statistics.median(u[1] for u in unit) for unit in per_unit)
    evaluations = sum(o.record.evaluations for o in first)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "us_per_eval": 1e6 * wall / max(evaluations, 1),
        "peak_rss_mb": peak,
        "ccr_test": statistics.fmean(o.record.ccr_test for o in first),
        "best_fitness": statistics.fmean(o.best.fitness for o in verified),
    }


def trace(ctx: Context, check: checks.Findings) -> dict[str, float]:
    """Each seed runs untraced and then traced, back to back, so a drift in
    machine speed touches both alike; then the sampler runs. The pool
    workload first runs its cell once, untraced, for the pool's overhead."""
    out: dict[str, float] = {"experiment.pool_overhead_s": 0.0}
    pool_outcomes, pool_units = pool_pass(ctx) if ctx.workload.pool else ([], [])
    tracer = tracing.Tracer(ctx.train.pattern_count)
    plain, durations, traced, traced_durations = [], [], [], []
    for index in range(len(ctx.seeds)):
        outcome, (wall, _) = run_one(ctx, index)
        with tracer:
            again, (traced_wall, _) = run_one(ctx, index)
        if outcome is not None and again is not None:
            plain.append(outcome)
            durations.append(wall)
            traced.append(again)
            traced_durations.append(traced_wall)
    if ctx.workload.pool:
        check_same(check, pool_outcomes, plain, "pool against in-process")
        out["experiment.pool_overhead_s"] = pool_units[0][0] - makespan(durations, ctx.workers)
    check_same(check, plain, traced, "traced against untraced")
    for outcome in plain:
        check_outcome(check, ctx, outcome)

    out.update(tracer.layer_metrics())
    check(checks.check_repeat, sum(o.record.evaluations for o in traced),
          out["network.fitness_calls"], "fitness calls against evaluations")
    out["trace.overhead_pct"] = 100.0 * (sum(traced_durations) / sum(durations) - 1.0)
    out["experiment.run_single_s"] = statistics.fmean(durations)
    out["experiment.generations_mean"] = statistics.fmean(o.record.generations for o in plain)
    out["twostage.stage2_generations"] = statistics.fmean(
        len(o.log.best.get("stage2", [])) for o in plain)
    out.update(sampler.sample_layers(
        plain[0].log.sample, ctx.params, ctx.train, SAMPLER_REPEATS, ctx.sampler_seed))
    return out


def main() -> None:
    name, seed, seed_list, seconds, traced, work = sys.argv[1:7]
    ctx = Context(name, int(seed), int(seed_list), Path(work))
    check = checks.Findings()
    check.errors.extend(run_selftests())
    if traced == "1":
        metrics = trace(ctx, check)
    else:
        metrics = measure(ctx, float(seconds), check)
    print(json.dumps({
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "errors": check.errors,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
