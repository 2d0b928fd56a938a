"""Command-line interface.

Verbs: gendata (write a built-in benchmark as CSV + schema), preprocess,
split, train, experiment, evals, predict. All state flows through flags and
files; no environment variables are consulted. Only the verbs that train
import the engine, so gendata, preprocess and split never load it.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from contextlib import nullcontext
from pathlib import Path

from . import datasets
from .data import load_dataset, preprocess_file, save_dataset, stratified_holdout


def _add_gendata(sub):
    p = sub.add_parser("gendata", allow_abbrev=False,
                       help="write a built-in benchmark dataset as CSV + schema")
    p.add_argument("--preset", required=True, choices=sorted(datasets.GENERATORS))
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="generator seed (waveform only; default 1)")
    p.add_argument("--n", type=int, help="row count (waveform only; default 5000)")


def _add_preprocess(sub):
    p = sub.add_parser("preprocess", allow_abbrev=False,
                       help="impute, encode and rescale a CSV dataset")
    p.add_argument("--data", required=True, help="CSV file with header")
    p.add_argument("--schema", required=True, help="schema text file")
    p.add_argument("--out", required=True, help="output directory (writes processed.dat)")


def _add_split(sub):
    p = sub.add_parser("split", allow_abbrev=False,
                       help="stratified holdout split of a processed dataset")
    p.add_argument("--data", required=True, help="directory containing processed.dat")
    p.add_argument("--ratio", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory (writes train.dat, test.dat)")


def _add_train(sub):
    p = sub.add_parser("train", allow_abbrev=False, help="single seeded training run")
    p.add_argument("--config", required=True, choices=sorted(datasets.CONFIGURATIONS))
    p.add_argument("--preset", choices=sorted(datasets.PRESETS))
    p.add_argument("--neu", type=int, help="hidden-node base count (overrides preset)")
    p.add_argument("--gen", type=int, help="generation budget (overrides preset)")
    p.add_argument("--train", required=True, help="training set (.dat)")
    p.add_argument("--test", required=True, help="test set (.dat)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--model-out", required=True, help="where to write the best model")
    p.add_argument("--trace", help="optional per-generation trace file")
    p.add_argument("--pop-size", type=int, default=1000)


def _add_experiment(sub):
    p = sub.add_parser("experiment", allow_abbrev=False,
                       help="repeated seeded runs with a summary report")
    p.add_argument("--preset", required=True, choices=sorted(datasets.PRESETS))
    p.add_argument("--config", required=True, choices=sorted(datasets.CONFIGURATIONS))
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--train", help="training set (.dat); default data/<preset>/train.dat")
    p.add_argument("--test", help="test set (.dat); default data/<preset>/test.dat")
    p.add_argument("--pop-size", type=int, default=1000)


def _add_evals(sub):
    p = sub.add_parser("evals", allow_abbrev=False,
                       help="closed-form evaluation-count comparison")
    p.add_argument("--pop", type=int, default=1000)
    p.add_argument("--gen", type=int, required=True)


def _add_predict(sub):
    p = sub.add_parser("predict", allow_abbrev=False,
                       help="classify the rows of a processed dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="processed dataset (.dat)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evopunn",
        allow_abbrev=False,
        description="Train product-unit network classifiers by evolutionary programming.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    _add_gendata(sub)
    _add_preprocess(sub)
    _add_split(sub)
    _add_train(sub)
    _add_experiment(sub)
    _add_evals(sub)
    _add_predict(sub)
    return parser


def _cmd_gendata(args) -> int:
    options = {name: value for name in ("n", "seed") if (value := getattr(args, name)) is not None}
    if options and args.preset != "waveform":
        raise ValueError(f"--{next(iter(options))} applies to --preset waveform only")
    csv_path, schema_path = datasets.GENERATORS[args.preset](args.out, **options)
    print(f"wrote {csv_path} and {schema_path}")
    return 0


def _cmd_preprocess(args) -> int:
    dataset = preprocess_file(args.data, args.schema)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "processed.dat"
    save_dataset(dataset, out_path)
    print(
        f"wrote {out_path}: {dataset.pattern_count} patterns, "
        f"{dataset.input_count} inputs, {dataset.class_count} classes"
    )
    return 0


def _cmd_split(args) -> int:
    dataset = load_dataset(Path(args.data) / "processed.dat")
    train, test = stratified_holdout(dataset, ratio=args.ratio, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset(train, out_dir / "train.dat")
    save_dataset(test, out_dir / "test.dat")
    print(f"wrote {out_dir / 'train.dat'} ({train.pattern_count} patterns) "
          f"and {out_dir / 'test.dat'} ({test.pattern_count} patterns)")
    return 0


def _trace_writer(fh, train):
    """Per-generation trace: index, best fitness, mean fitness, best training
    accuracy, evaluations so far, stage label; tab-separated, one line per
    generation."""
    from .evolution import population_mean_fitness
    from .network import correct_classification_rate

    line_numbers = itertools.count(1)

    def on_generation(stage, gen_index, population, counter):
        best = population[0]
        mean = population_mean_fitness(population)
        ccr = correct_classification_rate(best.net, train)
        fh.write(
            f"{next(line_numbers)}\t{best.fitness:.10g}\t{mean:.10g}"
            f"\t{ccr:.2f}\t{counter.total}\t{stage}\n"
        )

    return on_generation


def _require_directory(path, flag: str) -> None:
    """Refuse, before any run, an output path whose directory is missing."""
    directory = Path(path).parent
    if not directory.is_dir():
        raise ValueError(f"{flag} {path}: directory {directory} does not exist")


def _cmd_train(args) -> int:
    from .experiment import make_config, run_single
    from .network import serialize_network
    from .twostage import final_hidden_cap

    config = make_config(
        args.config, preset=args.preset, neu=args.neu, gen=args.gen,
        n_runs=1, master_seed=args.seed, pop_size=args.pop_size,
    )
    _require_directory(args.model_out, "--model-out")
    train = load_dataset(args.train)
    test = load_dataset(args.test)

    with open(args.trace, "w", encoding="utf-8") if args.trace else nullcontext() as trace:
        on_generation = _trace_writer(trace, train) if args.trace else None
        record, best = run_single(config, train, test, args.seed, on_generation=on_generation)

    max_hidden = config.ea_params().max_hidden
    if config.method == "tsea":
        max_hidden = final_hidden_cap(max_hidden)
    model_text = serialize_network(
        best.net,
        max_hidden=max_hidden,
        class_names=train.class_names,
        feature_names=train.feature_names,
    )
    Path(args.model_out).write_text(model_text, encoding="utf-8")
    print(f"ccr_train={record.ccr_train:.2f} ccr_test={record.ccr_test:.2f} "
          f"connections={record.connections} evaluations={record.evaluations} "
          f"generations={record.generations}")
    print(f"model written to {args.model_out}")
    return 0


def _cmd_experiment(args) -> int:
    from .experiment import make_config, run_experiment, summarize, write_report

    config = make_config(
        args.config, preset=args.preset, n_runs=args.runs,
        master_seed=args.seed, pop_size=args.pop_size,
    )
    _require_directory(args.out, "--out")
    train_path = args.train or Path("data") / args.preset / "train.dat"
    test_path = args.test or Path("data") / args.preset / "test.dat"
    train = load_dataset(train_path)
    test = load_dataset(test_path)
    records = run_experiment(config, train, test, workers=args.workers)
    write_report(records, args.out)
    summary = summarize(records)
    print(f"{args.preset} config {args.config}: "
          f"ccr_test {summary.mean_ccr_test:.2f} +- {summary.sd_ccr_test:.2f}, "
          f"connections {summary.mean_connections:.2f} +- {summary.sd_connections:.2f} "
          f"({len(records)} runs)")
    print(f"report written to {args.out}")
    return 0


def _cmd_evals(args) -> int:
    from .twostage import expected_evaluations

    counts = expected_evaluations(args.pop, args.gen)
    print("tsea\tedd\treduction_percent")
    print(f"{counts['tsea']}\t{counts['edd_pair']}\t{counts['reduction_percent']}")
    print(f"# single full-length run: {counts['edd_single']} evaluations")
    return 0


def _check_names(doc, dataset) -> None:
    """A model that records its names serves only a dataset with the same
    names in the same order: preprocess numbers the classes in order of first
    appearance, so another file of the same data may number them otherwise.
    The counts already agree (predict_classes checks them)."""
    for key, what in (("class_names", "class"), ("feature_names", "feature")):
        recorded, actual = doc.get(key), getattr(dataset, key)
        if recorded is not None and recorded != actual:
            i = next(i for i, (a, b) in enumerate(zip(recorded, actual)) if a != b)
            raise ValueError(
                f"dataset {what} {i} is {actual[i]!r}, the model's is {recorded[i]!r}"
            )


def _cmd_predict(args) -> int:
    from .network import deserialize_network, predict_classes

    net, doc = deserialize_network(Path(args.model).read_text(encoding="utf-8"))
    dataset = load_dataset(args.data)
    names = doc.get("class_names")
    predictions = predict_classes(net, dataset)
    _check_names(doc, dataset)
    for index in predictions:
        print(names[index] if names else int(index))
    print(f"ccr={100.0 * float((predictions == dataset.labels).mean()):.2f}")
    return 0


_COMMANDS = {
    "gendata": _cmd_gendata,
    "preprocess": _cmd_preprocess,
    "split": _cmd_split,
    "train": _cmd_train,
    "experiment": _cmd_experiment,
    "evals": _cmd_evals,
    "predict": _cmd_predict,
}


def main(argv=None) -> int:
    """Run one verb. A ValueError, which the library raises for input it
    rejects, and an OSError, such as a missing input file, are reported as
    one line on stderr with exit status 2, the status argparse gives a usage
    error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog} {args.verb}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
