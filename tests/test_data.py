import hashlib
import math
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evopunn.data import (
    ColumnSpec,
    NormalizationParams,
    ProcessedDataset,
    _train_counts,
    fit_apply_normalization,
    load_dataset,
    load_schema,
    load_table,
    preprocess,
    preprocess_file,
    save_dataset,
    stratified_holdout,
)
from evopunn.datasets import GENERATORS, write_balance_scale, write_waveform

from conftest import make_dataset


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASIC_SCHEMA = "a,continuous\ncolour,nominal\nclass,class\n"


class TestProcessedDataset:
    """The type checks itself, whether loaded from a file or built in code."""

    def build(self, patterns=None, labels=(0, 1, 1), feature_names=("a", "b")):
        if patterns is None:
            patterns = [[1.0, 2.0], [1.5, 1.5], [2.0, 1.25]]
        return ProcessedDataset(np.array(patterns, dtype=float), np.asarray(labels),
                                list(feature_names), ["no", "yes"])

    def test_a_valid_and_an_empty_dataset_build(self):
        assert self.build().pattern_count == 3
        empty = self.build(np.empty((0, 2)), np.empty(0, dtype=np.int64))
        assert empty.pattern_count == 0

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.5, math.nan, math.inf, -math.inf])
    def test_rejects_values_outside_the_log_domain(self, value):
        with pytest.raises(ValueError, match="^data row 1 has a value that is not finite "
                                             "and strictly positive$"):
            self.build([[1.0, 2.0], [1.5, value], [2.0, 1.25]])

    @pytest.mark.parametrize("labels", [(0, -1, 1), (0, 2, 1)], ids=["negative", "L"])
    def test_rejects_a_label_outside_the_classes(self, labels):
        with pytest.raises(ValueError, match="^label index out of range$"):
            self.build(labels=labels)

    @pytest.mark.parametrize("labels", [(0.0, 1.0, 1.0), (0, 1), ((0, 1, 1),)],
                             ids=["float", "short", "two-dimensional"])
    def test_rejects_labels_that_are_not_an_integer_vector(self, labels):
        with pytest.raises(ValueError, match=r"^labels are not an integer array of shape \(3,\)$"):
            self.build(labels=labels)

    @pytest.mark.parametrize("patterns", [
        [1.0, 2.0, 1.5], [[1, 2], [2, 1], [1, 1]], [[[1.0, 2.0]], [[1.5, 1.5]], [[2.0, 1.25]]],
    ], ids=["one-dimensional", "integer", "three-dimensional"])
    def test_rejects_patterns_that_are_not_a_float_matrix(self, patterns):
        with pytest.raises(ValueError, match="^patterns are not a two-dimensional float array$"):
            ProcessedDataset(np.array(patterns), np.array([0, 1, 1]), ["a", "b"], ["no", "yes"])

    def test_rejects_patterns_that_are_not_an_array(self):
        with pytest.raises(ValueError, match="^patterns are not a two-dimensional float array$"):
            ProcessedDataset([[1.0, 2.0], [1.5, 1.5], [2.0, 1.25]], np.array([0, 1, 1]),
                             ["a", "b"], ["no", "yes"])

    def test_rejects_labels_that_are_not_an_array(self):
        patterns = np.array([[1.0, 2.0], [1.5, 1.5], [2.0, 1.25]])
        with pytest.raises(ValueError, match=r"^labels are not an integer array of shape \(3,\)$"):
            ProcessedDataset(patterns, [0, 1, 1], ["a", "b"], ["no", "yes"])

    def test_rejects_a_missing_feature_name(self):
        with pytest.raises(ValueError, match="^1 feature names for 2 inputs$"):
            self.build(feature_names=["a"])

    def test_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            self.build().labels = np.array([1, 1, 0])


class TestLoadSchema:
    @pytest.mark.parametrize("line, value", [
        ("class,class,B|L|B", "B"),
        ("a,nominal,x| x", "x"),
    ], ids=["class", "nominal"])
    def test_rejects_a_value_listed_twice(self, tmp_path, line, value):
        path = write(tmp_path, "s", f"w,continuous\n{line}\n")
        with pytest.raises(ValueError) as caught:
            load_schema(path)
        assert str(caught.value) == f"{path}:2: value {value!r} is listed twice"

    @pytest.mark.parametrize("line", ["c,class,", "c,nominal,|"], ids=["class", "nominal"])
    def test_rejects_an_empty_vocabulary(self, tmp_path, line):
        path = write(tmp_path, "s", f"w,continuous\n{line}\n")
        with pytest.raises(ValueError) as caught:
            load_schema(path)
        assert str(caught.value) == f"{path}:2: column 'c' declares no values"

    @pytest.mark.parametrize("line", [",continuous", " ,class", ",nominal,x|y"],
                             ids=["continuous", "class", "nominal"])
    def test_rejects_an_empty_column_name(self, tmp_path, line):
        path = write(tmp_path, "s", f"w,continuous\n{line}\n")
        with pytest.raises(ValueError) as caught:
            load_schema(path)
        assert str(caught.value) == f"{path}:2: column name is empty"


class TestLoadTable:
    def test_three_rows(self, tmp_path):
        schema = load_schema(write(tmp_path, "s", BASIC_SCHEMA))
        data = write(tmp_path, "d.csv", "a,colour,class\n1,red,x\n2,blue,y\n3,red,x\n")
        raw = load_table(data, schema)
        assert [len(column) for column in raw.cells] == [3, 3, 3]
        assert raw.class_labels == ["x", "y"]
        assert raw.columns[1].vocabulary == ["red", "blue"]

    def test_missing_markers(self, tmp_path):
        schema = load_schema(write(tmp_path, "s", BASIC_SCHEMA))
        data = write(tmp_path, "d.csv", "a,colour,class\n?,red,x\n2,,y\n")
        raw = load_table(data, schema)
        assert raw.cells[0][0] is None
        assert raw.cells[1][1] is None

    def test_column_count_mismatch(self, tmp_path):
        schema = load_schema(write(tmp_path, "s", BASIC_SCHEMA))
        data = write(tmp_path, "d.csv", "a,colour\n1,red\n")
        with pytest.raises(ValueError, match="columns"):
            load_table(data, schema)

    def test_ragged_row(self, tmp_path):
        schema = load_schema(write(tmp_path, "s", BASIC_SCHEMA))
        data = write(tmp_path, "d.csv", "a,colour,class\n1,red\n")
        with pytest.raises(ValueError, match="cells"):
            load_table(data, schema)

    def test_unknown_nominal_value(self, tmp_path):
        schema = load_schema(write(tmp_path, "s", "a,continuous\ncolour,nominal,red|blue\nclass,class\n"))
        data = write(tmp_path, "d.csv", "a,colour,class\n1,green,x\n2,red,y\n")
        with pytest.raises(ValueError, match="vocabulary"):
            load_table(data, schema)

    def test_bad_number(self, tmp_path):
        schema = load_schema(write(tmp_path, "s", BASIC_SCHEMA))
        data = write(tmp_path, "d.csv", "a,colour,class\nxyz,red,x\n1,red,y\n")
        with pytest.raises(ValueError, match="numeric"):
            load_table(data, schema)

    def test_first_bad_cell_in_file_order(self, tmp_path):
        # line 2 is bad in its last feature column, line 3 in its first: a
        # parse that went column by column would report line 3
        schema = load_schema(write(tmp_path, "s", "a,continuous\nb,continuous\nclass,class\n"))
        data = write(tmp_path, "d.csv", "a,b,class\n1,xyz,x\nabc,2,y\n")
        with pytest.raises(ValueError, match=r"d\.csv:2: 'xyz' is not numeric for column 'b'$"):
            load_table(data, schema)

    def test_continuous_column_with_missing_cells(self, tmp_path):
        # float() of the stripped cell, with "?", "" and blanks as missing
        schema = load_schema(write(tmp_path, "s", "a,continuous\nclass,class\n"))
        data = write(tmp_path, "d.csv", "a,class\n 1.5 ,x\n?,y\n,x\n  ,y\n1_000,y\n")
        a = load_table(data, schema).cells[0]
        assert a == [1.5, None, None, None, 1000.0]

    def test_continuous_column_without_missing_cells(self, tmp_path):
        # float() of each cell as it stands, with the same results
        schema = load_schema(write(tmp_path, "s", "a,continuous\nclass,class\n"))
        data = write(tmp_path, "d.csv", "a,class\n 1.5 ,x\n1_000,x\n-2e-3\t,y\n")
        a = load_table(data, schema).cells[0]
        assert a == [1.5, 1000.0, -0.002]

    @pytest.mark.parametrize("cell", ["nan", "-inf", "Infinity", "1e999"])
    @pytest.mark.parametrize("first", ["1", "?"], ids=["no-missing-cell", "a-missing-cell"])
    def test_non_finite_number_rejected(self, tmp_path, cell, first):
        # a missing cell in column a skips its fast path; either way line 3
        # holds the first bad cell, before the one in column b on line 4
        schema = load_schema(write(tmp_path, "s", "a,continuous\nb,continuous\nclass,class\n"))
        data = write(tmp_path, "d.csv", f"a,b,class\n{first},2,x\n {cell} ,3,y\n4,inf,x\n")
        with pytest.raises(ValueError,
                           match=rf"d\.csv:3: '{cell}' is not a finite number for column 'a'$"):
            load_table(data, schema)

    def test_finite_column_whose_sum_overflows(self, tmp_path):
        # the sum is infinite, but every cell is finite
        schema = load_schema(write(tmp_path, "s", "a,continuous\nclass,class\n"))
        data = write(tmp_path, "d.csv", "a,class\n1e308,x\n1e308,y\n")
        assert load_table(data, schema).cells[0] == [1e308, 1e308]

    @pytest.mark.parametrize("body, message", [
        ("1,xyz,x\n2,2,\n", r"d\.csv:2: 'xyz' is not numeric for column 'b'"),
        ("1,2,\n2,xyz,y\n", r"d\.csv:2: class value is missing"),
        ("1,xyz,x\n2,2\n", r"d\.csv:2: 'xyz' is not numeric for column 'b'"),
        ("1,2,x\n2,2\nxyz,3,y\n", r"d\.csv:3: row has 2 cells, expected 3"),
    ], ids=["bad-number-before-missing-class", "missing-class-before-bad-number",
            "bad-number-before-ragged-row", "ragged-row-before-bad-number"])
    def test_first_fault_in_file_order_across_kinds(self, tmp_path, body, message):
        schema = load_schema(write(tmp_path, "s", "a,continuous\nb,continuous\nclass,class\n"))
        data = write(tmp_path, "d.csv", "a,b,class\n" + body)
        with pytest.raises(ValueError, match=f"{message}$"):
            load_table(data, schema)

    def test_single_class_rejected(self, tmp_path):
        schema = load_schema(write(tmp_path, "s", BASIC_SCHEMA))
        data = write(tmp_path, "d.csv", "a,colour,class\n1,red,x\n2,red,x\n")
        with pytest.raises(ValueError, match="class labels"):
            load_table(data, schema)


class TestImpute:
    """Missing cells are filled inside preprocess; the rescaled patterns show
    the fill: x in [1, 3] maps to 1 + (x - 1) / 2, an indicator to 1 or 2."""

    def make_raw(self, tmp_path, body):
        schema = load_schema(write(tmp_path, "s", BASIC_SCHEMA))
        data = write(tmp_path, "d.csv", "a,colour,class\n" + body)
        return load_table(data, schema)

    def test_continuous_mean(self, tmp_path):
        ds = preprocess(self.make_raw(tmp_path, "1,red,x\n?,red,y\n3,red,x\n"))
        assert ds.patterns[:, 0].tolist() == [1.0, 1.5, 2.0]  # the mean 2.0

    def test_nominal_mode(self, tmp_path):
        ds = preprocess(self.make_raw(tmp_path, "1,a,x\n1,a,y\n1,b,x\n1,?,y\n"))
        assert ds.feature_names == ["a", "colour=a", "colour=b"]
        assert ds.patterns[3, 1:].tolist() == [2.0, 1.0]  # the mode a

    def test_mode_tie_breaks_by_vocabulary_order(self, tmp_path):
        ds = preprocess(self.make_raw(tmp_path, "1,a,x\n1,b,y\n1,?,x\n"))
        assert ds.patterns[2, 1:].tolist() == [2.0, 1.0]  # first appearance wins the tie

    def test_fully_missing_column(self, tmp_path):
        raw = self.make_raw(tmp_path, "?,red,x\n?,red,y\n")
        with pytest.raises(ValueError, match="column 'a' has no values at all"):
            preprocess(raw)

    def test_mean_that_overflows(self, tmp_path):
        # the sum of the present cells is infinite, so the mean would be too
        raw = self.make_raw(tmp_path, "1e308,red,x\n1e308,red,y\n?,red,x\n")
        with pytest.raises(ValueError, match="^the mean of column 'a' overflows$"):
            preprocess(raw)

    def test_original_untouched(self, tmp_path):
        raw = self.make_raw(tmp_path, "1,red,x\n?,red,y\n")
        preprocess(raw)
        assert raw.cells[0] == [1.0, None]


class TestEncode:
    def test_three_value_nominal(self, tmp_path):
        schema = load_schema(write(tmp_path, "s", BASIC_SCHEMA))
        data = write(
            tmp_path, "d.csv",
            "a,colour,class\n1,red,x\n2,green,y\n3,blue,x\n",
        )
        ds = preprocess(load_table(data, schema))
        assert ds.feature_names == ["a", "colour=red", "colour=green", "colour=blue"]
        assert ds.patterns.shape == (3, 4)
        assert ds.patterns[:, 1].tolist() == [2.0, 1.0, 1.0]
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.class_names == ["x", "y"]

    def test_binary_nominal_gets_two_columns(self, tmp_path):
        schema = load_schema(write(tmp_path, "s", "flag,nominal\nclass,class\n"))
        data = write(tmp_path, "d.csv", "flag,class\nyes,x\nno,y\n")
        ds = preprocess(load_table(data, schema))
        assert ds.feature_names == ["flag=yes", "flag=no"]
        assert ds.patterns.shape == (2, 2)


class TestNormalization:
    def test_column_whose_span_overflows(self, tmp_path):
        schema = load_schema(write(tmp_path, "s", "a,continuous\nclass,class\n"))
        data = write(tmp_path, "d.csv", "a,class\n-1e308,x\n1e308,y\n0,x\n")
        with pytest.raises(ValueError, match="^column 'a' spans more than the largest float$"):
            preprocess(load_table(data, schema))

    def test_column_of_equal_huge_values(self, tmp_path):
        schema = load_schema(write(tmp_path, "s", "a,continuous\nclass,class\n"))
        data = write(tmp_path, "d.csv", "a,class\n1e308,x\n1e308,y\n")
        assert preprocess(load_table(data, schema)).patterns.tolist() == [[1.0], [1.0]]

    def test_simple_feature(self):
        out, params = fit_apply_normalization(np.array([[0.0], [5.0], [10.0]]))
        assert list(out[:, 0]) == [1.0, 1.5, 2.0]

    def test_constant_feature(self):
        out, _ = fit_apply_normalization(np.array([[7.0], [7.0], [7.0]]))
        assert list(out[:, 0]) == [1.0, 1.0, 1.0]

    def test_indicator_feature(self):
        out, _ = fit_apply_normalization(np.array([[0.0], [1.0]]))
        assert list(out[:, 0]) == [1.0, 2.0]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_apply_normalization(np.array([[np.inf], [1.0]]))

    def test_reapply_is_bit_exact(self, rng):
        matrix = rng.normal(0, 10, (30, 4))
        out, params = fit_apply_normalization(matrix)
        again = params.apply(matrix)
        assert np.array_equal(out, again)


class TestStratifiedHoldout:
    def test_balanced_exact(self, rng):
        ds = make_dataset(rng.uniform(1, 2, (8, 2)), [0, 0, 0, 0, 1, 1, 1, 1], 2)
        train, test = stratified_holdout(ds, 0.75, seed=3)
        assert train.pattern_count == 6 and test.pattern_count == 2
        assert list(np.bincount(train.labels)) == [3, 3]
        assert list(np.bincount(test.labels)) == [1, 1]

    def test_pima_shape(self, rng):
        # class sizes of the diabetes benchmark: 500 + 268 = 768 patterns
        labels = np.array([0] * 500 + [1] * 268)
        ds = make_dataset(rng.uniform(1, 2, (768, 3)), labels, 2)
        train, test = stratified_holdout(ds, 0.75, seed=1)
        assert (train.pattern_count, test.pattern_count) == (576, 192)

    def test_balance_shape(self, rng):
        # class sizes of the balance benchmark: 288 + 288 + 49 = 625 patterns
        labels = np.array([0] * 288 + [1] * 288 + [2] * 49)
        ds = make_dataset(rng.uniform(1, 2, (625, 2)), labels, 3)
        train, test = stratified_holdout(ds, 0.75, seed=1)
        assert (train.pattern_count, test.pattern_count) == (469, 156)

    def test_partition_and_proportionality(self, rng):
        for _ in range(100):
            n = int(rng.integers(12, 120))
            class_count = int(rng.integers(2, 5))
            labels = rng.integers(0, class_count, n)
            for c in range(class_count):  # ensure the precondition of >= 2 per class
                labels[2 * c] = c
                labels[2 * c + 1] = c
            ds = make_dataset(rng.uniform(1, 2, (n, 2)), labels, class_count)
            train, test = stratified_holdout(ds, 0.75, seed=int(rng.integers(1 << 30)))
            assert train.pattern_count + test.pattern_count == n
            joined = np.concatenate([train.patterns, test.patterns])
            assert sorted(map(tuple, joined)) == sorted(map(tuple, ds.patterns))
            class_sizes = np.bincount(ds.labels, minlength=class_count)
            train_sizes = np.bincount(train.labels, minlength=class_count)
            for c in range(class_count):
                assert abs(train_sizes[c] - 0.75 * class_sizes[c]) <= 1.0

    def test_deterministic(self, rng):
        ds = make_dataset(rng.uniform(1, 2, (40, 2)), rng.integers(0, 2, 40).clip(0, 1), 2)
        ds.labels[:2] = [0, 1]
        a_train, a_test = stratified_holdout(ds, 0.75, seed=9)
        b_train, b_test = stratified_holdout(ds, 0.75, seed=9)
        assert np.array_equal(a_train.patterns, b_train.patterns)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_singleton_class_rejected(self, rng):
        ds = make_dataset(rng.uniform(1, 2, (5, 2)), [0, 0, 0, 0, 1], 2)
        with pytest.raises(ValueError, match="at least 2"):
            stratified_holdout(ds, 0.75, seed=0)


def _reference_train_counts(class_sizes, ratio):
    """The nudge as a loop: each step moves the unmoved class with the
    largest gap one pattern towards the exact total."""
    exact = [ratio * s for s in class_sizes]
    counts = [min(int(round(e)), s) for e, s in zip(exact, class_sizes)]
    total_exact = ratio * sum(class_sizes)
    if abs(total_exact - round(total_exact)) < 1e-9:
        target = int(round(total_exact))
        adjusted = set()
        while sum(counts) != target:
            over = sum(counts) > target
            candidates = [
                (counts[i] - exact[i] if over else exact[i] - counts[i],
                 class_sizes[i], -i, i)
                for i in range(len(counts))
                if i not in adjusted
                and (counts[i] > 0 if over else counts[i] < class_sizes[i])
            ]
            if not candidates:
                raise ValueError("cannot reconcile per-class counts with the split ratio")
            _, _, _, pick = max(candidates)
            counts[pick] += -1 if over else 1
            adjusted.add(pick)
    return counts


def _counts_or_error(class_sizes, ratio, counts_of):
    try:
        return counts_of(list(class_sizes), ratio)
    except ValueError as exc:
        return str(exc)


RATIOS = st.one_of(
    st.sampled_from([0.75, 0.5, 2 / 3]),
    st.integers(2, 20).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: p / q)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


class TestTrainCountsMatchReference:
    @settings(max_examples=500, deadline=None)
    @given(class_sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=8), ratio=RATIOS)
    @example(class_sizes=[1], ratio=2.0)  # cannot be reconciled: both raise
    @example(class_sizes=[288, 288, 49], ratio=0.75)
    @example(class_sizes=[1, 1, 1, 1], ratio=0.5)
    def test_same_counts_or_same_error(self, class_sizes, ratio):
        assert (_counts_or_error(class_sizes, ratio, _train_counts)
                == _counts_or_error(class_sizes, ratio, _reference_train_counts))

    def test_the_error_case(self):
        with pytest.raises(ValueError, match="cannot reconcile"):
            _train_counts([1], 2.0)


class TestPipeline:
    def test_balance_end_to_end(self, tmp_path):
        csv_path, schema_path = write_balance_scale(tmp_path)
        ds = preprocess_file(csv_path, schema_path)
        assert ds.pattern_count == 625
        assert ds.input_count == 4
        assert ds.class_count == 3
        assert ds.patterns.min() == 1.0 and ds.patterns.max() == 2.0
        counts = dict(zip(ds.class_names, np.bincount(ds.labels)))
        assert counts == {"B": 49, "L": 288, "R": 288}
        train, test = stratified_holdout(ds, 0.75, seed=5)
        assert (train.pattern_count, test.pattern_count) == (469, 156)

    def test_waveform_end_to_end(self, tmp_path):
        csv_path, schema_path = write_waveform(tmp_path, n=5000, seed=3)
        ds = preprocess_file(csv_path, schema_path)
        assert ds.pattern_count == 5000
        assert ds.input_count == 40
        assert ds.class_count == 3
        train, test = stratified_holdout(ds, 0.75, seed=5)
        assert (train.pattern_count, test.pattern_count) == (3750, 1250)

    def test_everything_in_unit_window(self, tmp_path, rng):
        csv_path, schema_path = write_waveform(tmp_path, n=300, seed=8)
        ds = preprocess_file(csv_path, schema_path)
        assert np.all(ds.patterns >= 1.0) and np.all(ds.patterns <= 2.0)

    def test_hand_computed_table(self, tmp_path):
        # x misses one cell (mean 3.0); colour declares its values out of
        # first-appearance order and misses one cell (mode red); size infers
        # its values and misses one cell (mode small); class infers b, a, c
        schema = write(
            tmp_path, "s",
            "x,continuous\ncolour,nominal,blue|red|green\nsize,nominal\nclass,class\n",
        )
        data = write(
            tmp_path, "d.csv",
            "x,colour,size,class\n1,red,small,b\n?,green,large,a\n3,blue,small,c\n"
            "5,red,,a\n2,red,large,b\n4,,small,c\n",
        )
        ds = preprocess_file(data, schema)
        assert ds.feature_names == [
            "x", "colour=blue", "colour=red", "colour=green", "size=small", "size=large",
        ]
        assert ds.class_names == ["b", "a", "c"]
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [0, 1, 2, 1, 0, 2]
        assert ds.patterns.tolist() == [
            [1.0, 1.0, 2.0, 1.0, 2.0, 1.0],
            [1.5, 1.0, 1.0, 2.0, 1.0, 2.0],
            [1.5, 2.0, 1.0, 1.0, 2.0, 1.0],
            [2.0, 1.0, 2.0, 1.0, 2.0, 1.0],
            [1.25, 1.0, 2.0, 1.0, 1.0, 2.0],
            [1.75, 1.0, 2.0, 1.0, 2.0, 1.0],
        ]
        assert ds.normalization.mins.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert ds.normalization.maxs.tolist() == [5.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("n, seed, digest", [
        (200, 4, "19c78408ef44501ec17a1b21903126c4fb6d314e79a3c9fbca0c982d9c216552"),
        (5000, 1, "dfb8866eb8134e4420ddd8399232d19deb87dd635891343eed28ca09a1c15b72"),
    ])
    def test_waveform_file_bytes_are_pinned(self, tmp_path, n, seed, digest):
        csv_path, _ = write_waveform(tmp_path, n=n, seed=seed)
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("dataset, digest", [
        ("balance", "b2b5501315a5a102b9f141a76187449a63fd5788d1581f4633b4127bab45775f"),
        ("waveform", "a640a773d5207e9f6014b6c37edc437d559be63ab1b8bce0c0634bf53f78375f"),
    ])
    def test_benchmark_split_files_are_pinned(self, tmp_path, dataset, digest):
        # the benchmark's set-up: generate (waveform 5000 rows, generator
        # seed 1), preprocess, split 3/4 with seed 20100, save both halves
        if dataset == "waveform":
            csv_path, schema_path = write_waveform(tmp_path / "raw", 5000, 1)
        else:
            csv_path, schema_path = GENERATORS[dataset](tmp_path / "raw")
        train, test = stratified_holdout(preprocess_file(csv_path, schema_path), 0.75, 20100)
        save_dataset(train, tmp_path / "train.dat")
        save_dataset(test, tmp_path / "test.dat")
        files = (tmp_path / "train.dat").read_bytes() + (tmp_path / "test.dat").read_bytes()
        assert hashlib.sha256(files).hexdigest() == digest

    def test_deterministic_given_inputs(self, tmp_path):
        csv_path, schema_path = write_balance_scale(tmp_path)
        a = preprocess_file(csv_path, schema_path)
        b = preprocess_file(csv_path, schema_path)
        assert np.array_equal(a.patterns, b.patterns)
        assert np.array_equal(a.labels, b.labels)


class TestDatasetFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        csv_path, schema_path = write_balance_scale(tmp_path)
        ds = preprocess_file(csv_path, schema_path)
        path = tmp_path / "out.dat"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(ds.patterns, loaded.patterns)
        assert np.array_equal(ds.labels, loaded.labels)
        assert ds.feature_names == loaded.feature_names
        assert ds.class_names == loaded.class_names
        assert np.array_equal(ds.normalization.mins, loaded.normalization.mins)
        assert np.array_equal(ds.normalization.maxs, loaded.normalization.maxs)

    def test_round_trip_without_features(self, tmp_path):
        # a schema holding only the class column preprocesses to k = 0, and
        # each saved row is then its label alone
        schema = write(tmp_path, "s", "c,class\n")
        data = write(tmp_path, "d.csv", "c\nno\nyes\nyes\nno\n")
        ds = preprocess_file(data, schema)
        path = tmp_path / "out.dat"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.patterns.shape == (4, 0)
        assert loaded.labels.tolist() == ds.labels.tolist()
        assert loaded.class_names == ds.class_names

    def test_saved_text_is_pinned(self, tmp_path):
        values = [0.1, 1 / 3, 1e-300, 5e-324, 2.0]
        ds = ProcessedDataset(
            np.array([values, values[::-1]]), np.array([1, 0]), list("abcde"), ["no", "yes"],
            NormalizationParams(np.array([0.1, -1 / 3, 0.0, -2.5, 1e-300]),
                                np.array([2.0, 1 / 3, 1.0, 5e-324, 7.0])),
        )
        path = tmp_path / "h.dat"
        save_dataset(ds, path)
        assert path.read_text(encoding="utf-8") == (
            "punn-dataset 1\nk 5\nL 2\nN 2\nfeatures a,b,c,d,e\nclasses no,yes\n"
            "normalization 0.1:2.0 -0.3333333333333333:0.3333333333333333 0.0:1.0 "
            "-2.5:5e-324 1e-300:7.0\n"
            "data\n"
            "0.1,0.3333333333333333,1e-300,5e-324,2.0,1\n"
            "2.0,5e-324,1e-300,0.3333333333333333,0.1,0\n"
        )
        loaded = load_dataset(path)
        assert loaded.patterns.tobytes() == ds.patterns.tobytes()
        assert loaded.labels.tolist() == [1, 0]

    def test_normalization_reapplies_to_training_rows(self, tmp_path, rng):
        matrix = rng.normal(0, 3, (50, 4))
        normalized, params = fit_apply_normalization(matrix)
        subset = rng.choice(50, size=30, replace=False)
        assert np.array_equal(params.apply(matrix[subset]), normalized[subset])

    @pytest.mark.parametrize("line_break", ["\n", "\r"], ids=["lf", "cr"])
    def test_rejects_a_name_with_a_line_break(self, tmp_path, line_break):
        # a quoted CSV cell may hold one, and the saved header line would split
        schema = write(tmp_path, "s", "a,continuous\nclass,class\n")
        data = write(tmp_path, "d.csv", f'a,class\n1,"x{line_break}y"\n2,z\n')
        ds = preprocess_file(data, schema)
        message = f"name {'x' + line_break + 'y'!r} contains a line break"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_dataset(ds, tmp_path / "out.dat")

    def test_rejects_garbage(self, tmp_path):
        path = write(tmp_path, "bad.dat", "not a dataset\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    DAT_HEADER = "punn-dataset 1\nk 2\nL 2\nN 3\nfeatures a,b\nclasses no,yes\ndata\n"

    def test_reads_a_hand_written_file(self, tmp_path):
        path = write(tmp_path, "ok.dat", self.DAT_HEADER + "1.0,2.0,0\n1.5,1e-300,1\n2.0,1.25,1\n")
        loaded = load_dataset(path)
        assert loaded.patterns.tolist() == [[1.0, 2.0], [1.5, 1e-300], [2.0, 1.25]]
        assert loaded.labels.tolist() == [0, 1, 1]

    def test_cells_parse_as_float_and_int(self, tmp_path):
        # values parse with float() and labels with int(): underscores,
        # blanks around a number and a signed label all load
        rows = "1_0,2.0,0\n 1.5,1e-300 ,+1\n2.0,1.25, 1\n"
        path = write(tmp_path, "ok.dat", self.DAT_HEADER + rows)
        loaded = load_dataset(path)
        assert loaded.patterns.tolist() == [[10.0, 2.0], [1.5, 1e-300], [2.0, 1.25]]
        assert loaded.labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("rows, message", [
        ("1.0,2.0,0\n1.0,2.0\n2.0,1.25,1\n", "data row 1 has 2 cells, expected 3"),
        ("1.0,2.0,0\n1.5,2.0,1,1\n2.0,1.25,1\n", "data row 1 has 4 cells, expected 3"),
        ("1.0,x,0\n1.0,2.0\n2.0,1.25,1\n", "data row 0 has a value that is not a number"),
        ("1.0,2.0,0\n1.0,2.0\n2.0,x,1\n", "data row 1 has 2 cells, expected 3"),
        ("1.0,2.0,x\n1.0,y,0\n2.0,1.25,1\n", "data row 0 label 'x' is not an integer"),
        ("1.0,2.0,x\n1.0,2.0\n2.0,1.25,1\n", "data row 0 label 'x' is not an integer"),
    ], ids=["short", "long", "bad-cell-before-ragged", "ragged-before-bad-cell",
            "bad-label-before-bad-cell", "bad-label-before-ragged"])
    def test_first_bad_row_in_file_order(self, tmp_path, rows, message):
        path = write(tmp_path, "bad.dat", self.DAT_HEADER + rows)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_dataset(path)

    @pytest.mark.parametrize("header,message", [
        ("punn-dataset\n", "unsupported dataset version ''"),
        ("punn-dataset one\n" + DAT_HEADER.partition("\n")[2], "unsupported dataset version 'one'"),
        (DAT_HEADER.replace("k 2\n", ""), "header lacks 'k'"),
        (DAT_HEADER.replace("L 2\n", ""), "header lacks 'L'"),
        (DAT_HEADER.replace("N 3\n", ""), "header lacks 'N'"),
        (DAT_HEADER.replace("classes no,yes\n", ""), "header lacks 'classes'"),
        (DAT_HEADER.replace("N 3\n", "N three\n"), "header 'N' is 'three', not a count"),
        (DAT_HEADER.replace("k 2\n", "k -2\n"), "header 'k' is '-2', not a count"),
    ], ids=["no-version", "bad-version", "no-k", "no-L", "no-N", "no-classes", "bad-N", "negative-k"])
    def test_rejects_a_malformed_header(self, tmp_path, header, message):
        path = write(tmp_path, "bad.dat", header + "1.0,2.0,0\n1.5,1.5,1\n2.0,1.25,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_dataset(path)

    @pytest.mark.parametrize("ranges, message", [
        ("0.0:1.0", "1 normalization ranges for 2 inputs"),
        ("0.0:1.0 0.0:1.0 0.0:1.0", "3 normalization ranges for 2 inputs"),
        ("", "0 normalization ranges for 2 inputs"),
        ("0.0:1.0 abc", "normalization range 'abc' is not min:max"),
        ("0.0:x 0.0:1.0", "normalization range '0.0:x' is not min:max"),
        ("0.0:1.0 2.0", "normalization range '2.0' is not min:max"),
    ], ids=["short", "long", "empty", "no-colon", "bad-max", "no-max"])
    def test_rejects_a_normalization_header_that_does_not_fit(self, tmp_path, ranges, message):
        header = self.DAT_HEADER.replace("data\n", f"normalization {ranges}\ndata\n")
        path = write(tmp_path, "bad.dat", header + "1.0,2.0,0\n1.5,1.5,1\n2.0,1.25,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_dataset(path)

    def test_reads_a_normalization_header(self, tmp_path):
        header = self.DAT_HEADER.replace("data\n", "normalization 0.0:1.0 -2.5:3.0\ndata\n")
        path = write(tmp_path, "ok.dat", header + "1.0,2.0,0\n1.5,1.5,1\n2.0,1.25,1\n")
        loaded = load_dataset(path)
        assert loaded.normalization.mins.tolist() == [0.0, -2.5]
        assert loaded.normalization.maxs.tolist() == [1.0, 3.0]
        assert loaded.normalization.apply(np.array([[0.5, 3.0]])).tolist() == [[1.5, 2.0]]

    @pytest.mark.parametrize("row,message", [
        ("1.0,x,0", "data row 1 has a value that is not a number"),
        (",1.5,1", "data row 1 has a value that is not a number"),
        ("1.0,0x10,1", "data row 1 has a value that is not a number"),
        ("1.0,#,1", "data row 1 has a value that is not a number"),
        ("1.0,1.0#x,1", "data row 1 has a value that is not a number"),
        ("1.0,1.5,1.5", "data row 1 label '1.5' is not an integer"),
        ("1.0,1.5,yes", "data row 1 label 'yes' is not an integer"),
        ("1.0,1.5,", "data row 1 label '' is not an integer"),
        ("1.0,x,y", "data row 1 has a value that is not a number"),
    ], ids=["letter", "empty-cell", "hex", "hash", "trailing-hash", "fractional-label",
            "named-label", "empty-label", "bad-value-and-label"])
    def test_rejects_a_cell_that_does_not_parse(self, tmp_path, row, message):
        path = write(tmp_path, "bad.dat", self.DAT_HEADER + f"1.0,2.0,0\n{row}\n2.0,1.25,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_dataset(path)

    def test_checks_every_label_of_a_file_without_features(self, tmp_path):
        header = "punn-dataset 1\nk 0\nL 2\nN 2\nclasses no,yes\ndata\n"
        path = write(tmp_path, "bad.dat", header + "0\nx\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: data row 1 label')}"):
            load_dataset(path)
        assert load_dataset(write(tmp_path, "ok.dat", header + "0\n1\n")).labels.tolist() == [0, 1]

    @pytest.mark.parametrize("label", ["2", "99999999999999999999", "-99999999999999999999"],
                             ids=["L", "past-int64", "below-int64"])
    def test_rejects_a_label_outside_the_classes(self, tmp_path, label):
        rows = f"1.0,2.0,0\n1.5,1.5,{label}\n2.0,1.25,1\n"
        path = write(tmp_path, "bad.dat", self.DAT_HEADER + rows)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: label index out of range')}$"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["0.0", "-0.0", "-1.5", "nan", "inf", "-inf"])
    def test_rejects_values_outside_the_log_domain(self, tmp_path, value):
        rows = f"1.0,2.0,0\n1.5,{value},1\n2.0,1.25,1\n"
        path = write(tmp_path, "bad.dat", self.DAT_HEADER + rows)
        with pytest.raises(ValueError, match="row 1 .*finite and strictly positive"):
            load_dataset(path)
