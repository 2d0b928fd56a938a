import csv
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from evopunn import cli
from evopunn.cli import main
from evopunn.data import load_dataset
from evopunn.evolution import EvalCounter, Individual
from evopunn import network
from evopunn.network import correct_classification_rate, predict_classes, serialize_network
from evopunn.twostage import final_hidden_cap

from conftest import build_net


@pytest.fixture
def balance_splits(tmp_path):
    """gendata -> preprocess -> split, returning the split directory."""
    raw = tmp_path / "raw"
    proc = tmp_path / "proc"
    main(["gendata", "--preset", "balance", "--out", str(raw)])
    main([
        "preprocess", "--data", str(raw / "balance.csv"),
        "--schema", str(raw / "balance.schema"), "--out", str(proc),
    ])
    main(["split", "--data", str(proc), "--ratio", "0.75", "--seed", "11", "--out", str(proc)])
    return proc


def assert_one_line_error(capsys, verb, message):
    """A rejected input ends in one stderr line and nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"evopunn {verb}: error: {message}\n"


def walkthrough_commands():
    """The evopunn commands of README's "CLI walkthrough" code block, each
    with its continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI walkthrough\n+```\n(.*?)^```", readme, re.S | re.M).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("evopunn ")]


class TestReadmeWalkthrough:
    def test_every_command_parses_to_a_served_verb(self):
        commands = walkthrough_commands()
        assert len(commands) == 7
        verbs = []
        for command in commands:
            args = cli.build_parser().parse_args(shlex.split(command)[1:])
            assert args.verb in cli._COMMANDS, command
            verbs.append(args.verb)
        assert sorted(verbs) == sorted(cli._COMMANDS)


class TestOptionNames:
    """A long option is taken only as spelt in full, so predict's --model is
    not train's --model-out and a shortened README flag does not parse."""

    @pytest.mark.parametrize("argv, message", [
        (["train", "--config", "1", "--train", "a.dat", "--test", "b.dat", "--seed", "1",
          "--model", "m.json"], "the following arguments are required: --model-out"),
        (["split", "--data", "d", "--out", "o", "--rat", "0.5"],
         "unrecognized arguments: --rat 0.5"),
    ], ids=["train-model", "split-rat"])
    def test_abbreviated_option_exits_with_status_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(f": error: {message}\n")


class TestPipelineVerbs:
    def test_full_flow(self, balance_splits, capsys):
        train = load_dataset(balance_splits / "train.dat")
        test = load_dataset(balance_splits / "test.dat")
        assert train.pattern_count == 469
        assert test.pattern_count == 156
        assert train.input_count == 4

    def test_preprocess_reports_shape(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        main(["gendata", "--preset", "balance", "--out", str(raw)])
        capsys.readouterr()
        main([
            "preprocess", "--data", str(raw / "balance.csv"),
            "--schema", str(raw / "balance.schema"), "--out", str(tmp_path / "p"),
        ])
        out = capsys.readouterr().out
        assert "625 patterns" in out and "4 inputs" in out and "3 classes" in out

    @pytest.mark.parametrize("n", [0, -3])
    def test_waveform_without_rows_is_one_line(self, tmp_path, capsys, n):
        out = tmp_path / "raw"
        code = main(["gendata", "--preset", "waveform", "--n", str(n), "--out", str(out)])
        assert code == 2
        assert_one_line_error(capsys, "gendata", f"row count n must be at least 1, got {n}")
        assert not out.exists()

    @pytest.mark.parametrize("flags, digest", [
        ([], "dfb8866eb8134e4420ddd8399232d19deb87dd635891343eed28ca09a1c15b72"),
        (["--n", "200", "--seed", "4"],
         "19c78408ef44501ec17a1b21903126c4fb6d314e79a3c9fbca0c982d9c216552"),
    ], ids=["defaults", "given"])
    def test_waveform_flags_reach_the_generator(self, tmp_path, capsys, flags, digest):
        # the digests of tests/test_data.py's pinned waveform files: 5000
        # rows with seed 1 when no flag is given
        main(["gendata", "--preset", "waveform", *flags, "--out", str(tmp_path)])
        csv_bytes = (tmp_path / "waveform.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == digest

    @pytest.mark.parametrize("flag, value", [("--n", "3"), ("--seed", "9")])
    def test_balance_with_a_waveform_flag_is_one_line(self, tmp_path, capsys, flag, value):
        out = tmp_path / "raw"
        code = main(["gendata", "--preset", "balance", flag, value, "--out", str(out)])
        assert code == 2
        assert_one_line_error(capsys, "gendata", f"{flag} applies to --preset waveform only")
        assert not out.exists()

    def test_non_finite_cell_is_one_line(self, tmp_path, capsys):
        schema = tmp_path / "s"
        schema.write_text("a,continuous\nclass,class\n")
        data = tmp_path / "d.csv"
        data.write_text("a,class\n1,x\nnan,y\n")
        code = main(["preprocess", "--data", str(data), "--schema", str(schema),
                     "--out", str(tmp_path / "p")])
        assert code == 2
        assert_one_line_error(capsys, "preprocess",
                              f"{data}:3: 'nan' is not a finite number for column 'a'")

    @pytest.mark.parametrize("body, message", [
        ("-1e308,x\n1e308,y\n0,x\n", "column 'a' spans more than the largest float"),
        ("1e308,x\n1e308,y\n?,x\n", "the mean of column 'a' overflows"),
    ], ids=["span", "mean"])
    def test_overflowing_column_is_one_line(self, tmp_path, capsys, body, message):
        # a numpy RuntimeWarning would be an error under the test settings
        schema = tmp_path / "s"
        schema.write_text("a,continuous\nclass,class\n")
        data = tmp_path / "d.csv"
        data.write_text("a,class\n" + body)
        code = main(["preprocess", "--data", str(data), "--schema", str(schema),
                     "--out", str(tmp_path / "p")])
        assert code == 2
        assert_one_line_error(capsys, "preprocess", message)

    def test_name_with_a_line_break_is_one_line(self, tmp_path, capsys):
        schema = tmp_path / "s"
        schema.write_text("a,continuous\nclass,class\n")
        data = tmp_path / "d.csv"
        data.write_text('a,class\n1,"x\ny"\n2,z\n')
        code = main(["preprocess", "--data", str(data), "--schema", str(schema),
                     "--out", str(tmp_path / "p")])
        assert code == 2
        assert_one_line_error(capsys, "preprocess", "name 'x\\ny' contains a line break")

    def test_nameless_column_is_one_line(self, tmp_path, capsys):
        schema = tmp_path / "s"
        schema.write_text(",continuous\nc,class\n")
        data = tmp_path / "d.csv"
        data.write_text(",c\n1,x\n2,y\n")
        code = main(["preprocess", "--data", str(data), "--schema", str(schema),
                     "--out", str(tmp_path / "p")])
        assert code == 2
        assert_one_line_error(capsys, "preprocess", f"{schema}:1: column name is empty")
        assert not (tmp_path / "p").exists()

    def test_label_past_int64_is_one_line(self, tmp_path, capsys):
        proc = tmp_path / "proc"
        proc.mkdir()
        dat = proc / "processed.dat"
        dat.write_text("punn-dataset 1\nk 2\nL 2\nN 2\nfeatures a,b\nclasses no,yes\ndata\n"
                       "1.0,2.0,0\n1.5,1.5,99999999999999999999\n")
        code = main(["split", "--data", str(proc), "--out", str(tmp_path / "s")])
        assert code == 2
        assert_one_line_error(capsys, "split", f"{dat}: label index out of range")


class TestEvalsVerb:
    @pytest.mark.parametrize(
        "gen,row",
        [
            (100, "128000\t200000\t36"),
            (120, "149600\t236000\t37"),
            (150, "182000\t290000\t37"),
            (300, "344000\t560000\t39"),
            (500, "560000\t920000\t39"),
        ],
    )
    def test_published_rows_bit_exact(self, gen, row, capsys):
        main(["evals", "--pop", "1000", "--gen", str(gen)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "tsea\tedd\treduction_percent"
        assert lines[1] == row

    def test_off_multiples_of_ten(self, capsys):
        # floor(0.9 * 12) = 10 evaluations per generation, one stage-one generation
        main(["evals", "--pop", "12", "--gen", "10"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == ["360\t440\t18", "# single full-length run: 220 evaluations"]

    def test_odd_population_rejected(self, capsys):
        assert main(["evals", "--pop", "11", "--gen", "10"]) == 2
        assert_one_line_error(
            capsys, "evals", "pop_size must be even (the merge takes half of each population)"
        )

    def test_negative_generations_rejected(self, capsys):
        assert main(["evals", "--pop", "10", "--gen", "-1"]) == 2
        assert_one_line_error(
            capsys, "evals", "pop_size must be positive and gen nonnegative"
        )


class TestTrainAndPredict:
    def test_train_writes_model_and_trace(self, balance_splits, tmp_path, capsys):
        model = tmp_path / "model.json"
        trace = tmp_path / "trace.tsv"
        code = main([
            "train", "--config", "1",
            "--neu", "2", "--gen", "3",
            "--train", str(balance_splits / "train.dat"),
            "--test", str(balance_splits / "test.dat"),
            "--seed", "42", "--model-out", str(model),
            "--trace", str(trace), "--pop-size", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ccr_train=" in out and "ccr_test=" in out
        doc = json.loads(model.read_text())
        assert doc["format"] == "punn-model"
        assert doc["input_count"] == 4
        assert doc["class_names"] == ["B", "L", "R"]
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 6
            assert fields[5] == "run"

    def test_two_stage_trace_names_its_stages(self, balance_splits, tmp_path, capsys):
        trace = tmp_path / "trace.tsv"
        code = main([
            "train", "--config", "1star",
            "--neu", "2", "--gen", "20",
            "--train", str(balance_splits / "train.dat"),
            "--test", str(balance_splits / "test.dat"),
            "--seed", "7", "--model-out", str(tmp_path / "model.json"),
            "--trace", str(trace), "--pop-size", "10",
        ])
        assert code == 0
        rows = [line.split("\t") for line in trace.read_text().splitlines()]
        stage2 = len(rows) - 4  # stage one runs gen // 10 = 2 per population
        assert stage2 >= 1
        assert [row[5] for row in rows] == ["stage1-a"] * 2 + ["stage1-b"] * 2 + ["stage2"] * stage2
        assert [row[0] for row in rows] == [str(i) for i in range(1, len(rows) + 1)]

    def test_failed_run_closes_a_complete_trace(self, balance_splits, tmp_path, capsys,
                                                monkeypatch):
        net = build_net(4, 3, [{0: 1.0}], [(0.5, {0: 1.0}), (-0.5, {0: 2.0})])
        population = [Individual(net, 0.75, 3), Individual(net, 0.25, 3)]

        def failing_run(config, train, test, seed, on_generation):
            on_generation("run", 0, population, EvalCounter(12))
            raise ValueError("the run failed")

        monkeypatch.setattr(cli, "run_single", failing_run)
        model = tmp_path / "model.json"
        trace = tmp_path / "trace.tsv"
        code = main([
            "train", "--config", "1", "--preset", "balance",
            "--train", str(balance_splits / "train.dat"),
            "--test", str(balance_splits / "test.dat"),
            "--seed", "42", "--model-out", str(model), "--trace", str(trace),
        ])
        assert code == 2
        assert_one_line_error(capsys, "train", "the run failed")
        assert not model.exists()
        ccr = correct_classification_rate(net, load_dataset(balance_splits / "train.dat"))
        assert trace.read_text(encoding="utf-8") == f"1\t0.75\t0.5\t{ccr:.2f}\t12\trun\n"

    def test_two_stage_train_and_predict(self, balance_splits, tmp_path, capsys):
        model = tmp_path / "model.json"
        main([
            "train", "--config", "1star",
            "--neu", "2", "--gen", "10",
            "--train", str(balance_splits / "train.dat"),
            "--test", str(balance_splits / "test.dat"),
            "--seed", "7", "--model-out", str(model), "--pop-size", "10",
        ])
        capsys.readouterr()
        # the saved model records stage two's cap
        assert json.loads(model.read_text())["max_hidden"] == final_hidden_cap(2)
        main(["predict", "--model", str(model), "--data", str(balance_splits / "test.dat")])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 156 + 1  # one class per row plus the accuracy line
        assert set(lines[:-1]) <= {"B", "L", "R"}
        assert lines[-1].startswith("ccr=")

    def test_predict_scores_the_dataset_once(self, balance_splits, tmp_path, capsys,
                                             monkeypatch):
        net = build_net(4, 3, [{0: 1.0, 1: -0.5}, {2: 2.0}],
                        [(0.1, {0: 1.0}), (-0.2, {0: 0.5, 1: -1.0})])
        model = tmp_path / "model.json"
        model.write_text(serialize_network(net, class_names=["B", "L", "R"]))
        test = load_dataset(balance_splits / "test.dat")
        expected = [["B", "L", "R"][c] for c in predict_classes(net, test)]
        expected.append(f"ccr={correct_classification_rate(net, test):.2f}")
        calls = []
        scored = network.class_outputs

        def counted(*args):
            calls.append(args)
            return scored(*args)

        monkeypatch.setattr(network, "class_outputs", counted)
        capsys.readouterr()
        assert main(["predict", "--model", str(model),
                     "--data", str(balance_splits / "test.dat")]) == 0
        assert capsys.readouterr().out == "\n".join(expected) + "\n"
        assert len(calls) == 1

    def test_input_count_mismatch_is_one_line(self, balance_splits, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(serialize_network(build_net(3, 3, [{0: 1.0}], [(0.0, {0: 1.0})] * 2)))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(balance_splits / "test.dat")])
        assert code == 2
        assert_one_line_error(capsys, "predict", "dataset has 4 inputs, network expects 3")

    def test_missing_model_is_one_line(self, balance_splits, tmp_path, capsys):
        model = tmp_path / "nope.json"
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(balance_splits / "test.dat")])
        assert code == 2
        assert_one_line_error(capsys, "predict", f"[Errno 2] No such file or directory: '{model}'")

    def test_model_without_weights_is_one_line(self, balance_splits, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"format": "punn-model", "version": 1}))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(balance_splits / "test.dat")])
        assert code == 2
        assert_one_line_error(capsys, "predict", "model document lacks 'input_count'")

    def test_model_of_the_wrong_shape_is_one_line(self, balance_splits, tmp_path, capsys):
        doc = json.loads(serialize_network(build_net(4, 3, [{0: 1.0}], [(0.0, {0: 1.0})] * 2)))
        doc["hidden_nodes"] = 5
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(balance_splits / "test.dat")])
        assert code == 2
        assert_one_line_error(capsys, "predict", "hidden_nodes is not a list")

    def test_model_without_hidden_nodes_is_one_line(self, balance_splits, tmp_path, capsys):
        doc = json.loads(serialize_network(build_net(4, 3, [{0: 1.0}], [(0.0, {0: 1.0})] * 2)))
        doc["hidden_nodes"] = []
        for output in doc["outputs"]:
            output["links"] = []
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(balance_splits / "test.dat")])
        assert code == 2
        assert_one_line_error(
            capsys, "predict", "hidden_nodes is empty: a network has at least one hidden node"
        )

    def test_model_with_a_non_finite_weight_is_one_line(self, balance_splits, tmp_path, capsys):
        text = serialize_network(build_net(4, 3, [{0: 1.0}], [(0.0, {0: 1.0})] * 2))
        model = tmp_path / "model.json"
        model.write_text(text.replace('"bias": 0.0', '"bias": NaN', 1))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(balance_splits / "test.dat")])
        assert code == 2
        assert_one_line_error(capsys, "predict", "output 0: bias nan is not finite")

    @pytest.mark.parametrize("key, value, message", [
        ("class_names", ["B"], "model document: class_names is not a list of 3 strings"),
        ("class_names", "BLR", "model document: class_names is not a list of 3 strings"),
        ("feature_names", ["a"], "model document: feature_names is not a list of 4 strings"),
    ])
    def test_model_with_malformed_names_is_one_line(self, balance_splits, tmp_path, capsys,
                                                    key, value, message):
        doc = json.loads(serialize_network(build_net(4, 3, [{0: 1.0}], [(0.0, {0: 1.0})] * 2)))
        doc[key] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(balance_splits / "test.dat")])
        assert code == 2
        assert_one_line_error(capsys, "predict", message)

    @pytest.mark.parametrize("key, recorded, message", [
        ("class_names", ["R", "L", "B"], "dataset class 0 is 'B', the model's is 'R'"),
        ("feature_names", ["left_weight", "left_distance", "right_distance", "right_weight"],
         "dataset feature 2 is 'right_weight', the model's is 'right_distance'"),
    ])
    def test_dataset_with_other_names_is_one_line(self, balance_splits, tmp_path, capsys,
                                                  key, recorded, message):
        dataset = load_dataset(balance_splits / "test.dat")
        names = {"class_names": dataset.class_names, "feature_names": dataset.feature_names}
        names[key] = recorded
        model = tmp_path / "model.json"
        model.write_text(serialize_network(
            build_net(4, 3, [{0: 1.0}], [(0.0, {0: 1.0})] * 2), **names))
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(balance_splits / "test.dat")])
        assert code == 2
        assert_one_line_error(capsys, "predict", message)

    @pytest.mark.parametrize("budget, message", [
        (["--neu", "0", "--gen", "4"], "max_hidden must be at least 1"),
        (["--neu", "2", "--gen", "-1"], "gen must be nonnegative"),
    ])
    def test_rejected_setting_is_one_line(self, balance_splits, tmp_path, capsys,
                                          budget, message):
        capsys.readouterr()
        code = main([
            "train", "--config", "1star", *budget,
            "--train", str(balance_splits / "train.dat"),
            "--test", str(balance_splits / "test.dat"),
            "--seed", "7", "--model-out", str(tmp_path / "m.json"), "--pop-size", "10",
        ])
        assert code == 2
        assert_one_line_error(capsys, "train", message)
        assert not (tmp_path / "m.json").exists()

    def test_train_determinism(self, balance_splits, tmp_path, capsys):
        texts = []
        for name in ("a.json", "b.json"):
            main([
                "train", "--config", "1",
                "--neu", "2", "--gen", "4",
                "--train", str(balance_splits / "train.dat"),
                "--test", str(balance_splits / "test.dat"),
                "--seed", "9", "--model-out", str(tmp_path / name), "--pop-size", "10",
            ])
            texts.append((tmp_path / name).read_text())
        capsys.readouterr()
        assert texts[0] == texts[1]


class TestExperimentVerb:
    def test_small_experiment_writes_report(self, balance_splits, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main([
            "experiment", "--preset", "balance", "--config", "1",
            "--runs", "2", "--seed", "3", "--out", str(report),
            "--train", str(balance_splits / "train.dat"),
            "--test", str(balance_splits / "test.dat"),
            "--pop-size", "10",
        ])
        assert code == 0
        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 + 2  # header, two runs, mean and sd
        assert rows[-2][0] == "mean"
        out = capsys.readouterr().out
        assert "balance config 1" in out

    def test_disabled_preset_is_one_line(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main([
            "experiment", "--config", "1", "--preset", "btx",
            "--seed", "1", "--out", str(report),
        ])
        assert code == 2
        assert_one_line_error(
            capsys, "experiment", "preset 'btx' is disabled: proprietary data, no public source"
        )
        assert not report.exists()

    def test_missing_train_set_is_one_line(self, balance_splits, tmp_path, capsys):
        train = tmp_path / "absent" / "train.dat"
        report = tmp_path / "report.csv"
        capsys.readouterr()
        code = main([
            "experiment", "--preset", "balance", "--config", "1",
            "--seed", "1", "--out", str(report),
            "--train", str(train), "--test", str(balance_splits / "test.dat"),
        ])
        assert code == 2
        assert_one_line_error(
            capsys, "experiment", f"[Errno 2] No such file or directory: '{train}'"
        )
        assert not report.exists()
