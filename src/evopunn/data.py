"""Dataset ingestion and preprocessing.

Pipeline: CSV + schema -> load_table -> RawDataset -> one pass per column
(fill missing cells, then encode: a nominal column becomes 0/1 indicators)
-> per-feature rescaling into [1, 2] -> ProcessedDataset, plus a seeded
stratified holdout split. A RawDataset holds its table by column, the layout
that pass reads. Statistics for filling and rescaling are always computed
over the full dataset, before any splitting.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

COLUMN_KINDS = ("continuous", "nominal", "class")
MISSING_MARKERS = ("", "?")

DATASET_FORMAT = "punn-dataset"
DATASET_VERSION = 1


@dataclass
class ColumnSpec:
    name: str
    kind: str
    vocabulary: list[str] | None = None  # declared for nominal/class, else inferred


@dataclass
class RawDataset:
    columns: list[ColumnSpec]
    cells: list[list]  # cells[j] is column j in row order; cell = float | str | None (missing)

    @property
    def class_labels(self) -> list[str]:
        return next(list(c.vocabulary) for c in self.columns if c.kind == "class")


@dataclass
class NormalizationParams:
    """Per-feature ranges of the full dataset, kept so any rows can be mapped
    with the exact same affine transform later."""
    mins: np.ndarray
    maxs: np.ndarray

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=float)
        span = self.maxs - self.mins
        out = np.ones_like(matrix)
        varying = span > 0
        out[:, varying] = 1.0 + (matrix[:, varying] - self.mins[varying]) / span[varying]
        return out


@dataclass(frozen=True)
class ProcessedDataset:
    """Patterns and labels, checked when built, whether loaded or made in code."""
    patterns: np.ndarray        # (N, k) float64, finite and > 0; in [1, 2] after preprocess
    labels: np.ndarray          # (N,) integer class indices in [0, L)
    feature_names: list[str]
    class_names: list[str]
    normalization: NormalizationParams | None = None

    def __post_init__(self) -> None:
        if (not isinstance(self.patterns, np.ndarray) or self.patterns.ndim != 2
                or self.patterns.dtype.kind != "f"):
            raise ValueError("patterns are not a two-dimensional float array")
        n, k = self.patterns.shape
        if (not isinstance(self.labels, np.ndarray) or self.labels.shape != (n,)
                or self.labels.dtype.kind not in "iu"):
            raise ValueError(f"labels are not an integer array of shape ({n},)")
        if len(self.feature_names) != k:
            raise ValueError(f"{len(self.feature_names)} feature names for {k} inputs")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.class_count:
            raise ValueError("label index out of range")
        # product units take the log of every input: outside (0, inf) it is NaN or -inf
        outside = ~(np.isfinite(self.patterns) & (self.patterns > 0.0)).all(axis=1)
        if outside.any():
            raise ValueError(f"data row {int(np.argmax(outside))} has a value that is not "
                             "finite and strictly positive")

    @property
    def pattern_count(self) -> int:
        return self.patterns.shape[0]

    @property
    def input_count(self) -> int:
        return self.patterns.shape[1]

    @property
    def class_count(self) -> int:
        return len(self.class_names)

    @cached_property
    def log_patterns_t(self) -> np.ndarray:
        """log(patterns) transposed to a C-contiguous (k, N) matrix, the
        layout of the pattern-major forward pass."""
        return np.ascontiguousarray(np.log(self.patterns).T)

    @cached_property
    def target_index(self) -> np.ndarray:
        """Flat index of each pattern's true-class entry in a C-ordered
        (L, N) matrix of class outputs: label * N + pattern index."""
        n = self.pattern_count
        return self.labels * n + np.arange(n)


def load_schema(path) -> list[ColumnSpec]:
    """Schema file: one line per column, "name,kind" with an optional third
    field declaring the value vocabulary as pipe-separated entries."""
    columns = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 'name,kind[,values]'")
            name, kind = parts[0], parts[1]
            if not name:
                raise ValueError(f"{path}:{lineno}: column name is empty")
            if kind not in COLUMN_KINDS:
                raise ValueError(f"{path}:{lineno}: unknown column kind {kind!r}")
            vocabulary = None
            if len(parts) == 3:
                if kind == "continuous":
                    raise ValueError(f"{path}:{lineno}: continuous column cannot declare values")
                vocabulary = [v.strip() for v in parts[2].split("|") if v.strip()]
                if not vocabulary:
                    raise ValueError(f"{path}:{lineno}: column {name!r} declares no values")
                repeated = [v for i, v in enumerate(vocabulary) if v in vocabulary[:i]]
                if repeated:
                    raise ValueError(f"{path}:{lineno}: value {repeated[0]!r} is listed twice")
            columns.append(ColumnSpec(name, kind, vocabulary))
    if not columns:
        raise ValueError(f"{path}: schema file declares no columns")
    return columns


def load_table(path, schema: list[ColumnSpec]) -> RawDataset:
    """Parse a headered CSV file against a schema.

    Missing cells are marked "?" or left empty. Cell values in nominal and
    class columns must belong to the declared vocabulary when one is given;
    otherwise the vocabulary is inferred in order of first appearance.
    The first bad cell in file order is the one reported.
    """
    class_columns = [c for c in schema if c.kind == "class"]
    if len(class_columns) != 1:
        raise ValueError(f"schema must declare exactly one class column, found {len(class_columns)}")
    columns = [replace(c, vocabulary=None if c.kind == "continuous" else list(c.vocabulary or ()))
               for c in schema]

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        if len(header) != len(columns):
            raise ValueError(
                f"{path}: header has {len(header)} columns, schema declares {len(columns)}"
            )
        for cell, col in zip(header, columns):
            if cell.strip() != col.name:
                raise ValueError(f"{path}: header column {cell.strip()!r} != schema {col.name!r}")
        rows = list(reader)

    # rows before the first ragged one are parsed column by column; the first
    # bad cell among them, by row and then column, precedes the ragged row
    ragged = next((r for r, row in enumerate(rows) if len(row) != len(columns)), None)
    texts = list(zip(*rows[:ragged])) or [()] * len(columns)
    parsed = [_parse_column(path, col, text) for col, text in zip(columns, texts)]
    faults = [(fault[0], j, fault[1]) for j, (_, fault) in enumerate(parsed) if fault]
    if faults:
        raise min(faults)[2]
    if ragged is not None:
        raise ValueError(
            f"{path}:{ragged + 2}: row has {len(rows[ragged])} cells, expected {len(columns)}"
        )

    dataset = RawDataset(columns, [values for values, _ in parsed])
    if len(dataset.class_labels) < 2:
        raise ValueError(f"{path}: fewer than two class labels present")
    return dataset


def _parse_column(path, col: ColumnSpec, text: tuple[str, ...]):
    """(values, fault) for one column's cells in row order: the cells parsed
    into col's kind, and None or (row, error) for its first bad cell. An
    empty col.vocabulary grows in order of first appearance; a declared one
    is fixed."""
    fixed = bool(col.vocabulary)
    if col.kind == "continuous":
        try:
            values = list(map(float, text))  # float() strips like str.strip()
        except ValueError:
            pass  # a missing or bad cell: scan for it
        else:
            if math.isfinite(sum(values)):  # a NaN or an infinity makes it non-finite
                return values, None
    values = []
    for r, cell in enumerate(text):
        cell = cell.strip()
        if cell in MISSING_MARKERS:
            if col.kind == "class":
                return values, (r, ValueError(f"{path}:{r + 2}: class value is missing"))
            values.append(None)
        elif col.kind == "continuous":
            try:
                value = float(cell)
            except ValueError:
                return values, (r, ValueError(
                    f"{path}:{r + 2}: {cell!r} is not numeric for column {col.name!r}"
                ))
            if not math.isfinite(value):
                return values, (r, ValueError(
                    f"{path}:{r + 2}: {cell!r} is not a finite number for column {col.name!r}"
                ))
            values.append(value)
        else:
            if cell not in col.vocabulary:
                if fixed:
                    return values, (r, ValueError(
                        f"{path}:{r + 2}: value {cell!r} not in vocabulary of {col.name!r}"
                    ))
                col.vocabulary.append(cell)
            values.append(cell)
    return values, None


def _filled(col: ColumnSpec, column: list) -> list:
    """column with its missing cells filled: a continuous column with its
    mean, a nominal one with its mode (ties go to vocabulary order). A column
    with no missing cell is returned as it is."""
    if None not in column:
        return column
    present = [v for v in column if v is not None]
    if not present:
        raise ValueError(f"column {col.name!r} has no values at all")
    if col.kind == "continuous":
        fill = sum(present) / len(present)
        if not math.isfinite(fill):
            raise ValueError(f"the mean of column {col.name!r} overflows")
    else:
        counts = Counter(present)
        fill = max(col.vocabulary, key=counts.__getitem__)  # max keeps the first of a tie
    return [fill if v is None else v for v in column]


def fit_apply_normalization(matrix: np.ndarray) -> tuple[np.ndarray, NormalizationParams]:
    """Rescale each feature affinely into [1, 2] using its min/max over the
    whole matrix; a constant feature maps to 1.0 everywhere."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix contains non-finite values")
    params = NormalizationParams(matrix.min(axis=0), matrix.max(axis=0))
    return params.apply(matrix), params


def preprocess(raw: RawDataset) -> ProcessedDataset:
    """Full pipeline from a loaded raw dataset in one pass per column: fill
    missing cells, then encode (continuous as is, nominal as one 0/1 indicator
    per vocabulary value, class as labels by vocabulary order); then rescale."""
    feature_names: list[str] = []
    features: list[list[float]] = []
    for col, column in zip(raw.columns, raw.cells):
        column = _filled(col, column)
        if col.kind == "class":
            index_of = {v: i for i, v in enumerate(col.vocabulary)}
            labels = np.array([index_of[v] for v in column], dtype=np.int64)
        elif col.kind == "continuous":
            feature_names.append(col.name)
            features.append(column)
        else:
            for value in col.vocabulary:
                feature_names.append(f"{col.name}={value}")
                features.append([1.0 if v == value else 0.0 for v in column])
    # (F, N) even with no feature, then C-ordered (N, F)
    matrix = np.array(features, dtype=float).reshape(len(features), len(labels)).T.copy()
    # a span past the largest float would rescale the column to NaN
    with np.errstate(over="ignore"):
        wide = np.isinf(matrix.max(axis=0) - matrix.min(axis=0))
    if wide.any():
        raise ValueError(f"column {feature_names[wide.argmax()]!r} spans more than the "
                         "largest float")
    patterns, params = fit_apply_normalization(matrix)
    return ProcessedDataset(patterns, labels, feature_names, raw.class_labels, params)


def preprocess_file(data_path, schema_path) -> ProcessedDataset:
    return preprocess(load_table(data_path, load_schema(schema_path)))


def _train_counts(class_sizes: list[int], ratio: float) -> list[int]:
    """Per-class train-set sizes.

    Each class contributes round(ratio * size) patterns (Python round,
    half to even). When ratio * total is integral the counts are nudged by a
    largest-remainder pass so the train total equals it exactly; every class
    stays within one pattern of exact proportionality either way.
    """
    exact = [ratio * s for s in class_sizes]
    counts = [min(int(round(e)), s) for e, s in zip(exact, class_sizes)]
    total_exact = ratio * sum(class_sizes)
    if abs(total_exact - round(total_exact)) < 1e-9:
        # each class moves at most once, the largest gap first: ties go to
        # the larger class, then to the lower index
        excess = sum(counts) - int(round(total_exact))
        over = excess > 0
        movable = sorted(
            ((counts[i] - exact[i] if over else exact[i] - counts[i], class_sizes[i], -i, i)
             for i in range(len(counts)) if (counts[i] > 0 if over else counts[i] < class_sizes[i])),
            reverse=True,
        )
        if len(movable) < abs(excess):
            raise ValueError("cannot reconcile per-class counts with the split ratio")
        for *_, i in movable[:abs(excess)]:
            counts[i] += -1 if over else 1
    return counts


def stratified_holdout(
    dataset: ProcessedDataset, ratio: float = 0.75, seed: int = 0
) -> tuple[ProcessedDataset, ProcessedDataset]:
    """Split into train/test keeping each class's share of the two sets as
    close to the full-set share as integer counts allow. Shuffling within each
    class is driven by the seed; rows keep their original relative order in
    the emitted sets."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    class_indices = [np.flatnonzero(dataset.labels == c) for c in range(dataset.class_count)]
    for c, idx in enumerate(class_indices):
        if len(idx) < 2:
            raise ValueError(
                f"class {dataset.class_names[c]!r} has {len(idx)} pattern(s); need at least 2"
            )
    counts = _train_counts([len(idx) for idx in class_indices], ratio)

    train_rows: list[np.ndarray] = []
    test_rows: list[np.ndarray] = []
    for idx, take in zip(class_indices, counts):
        shuffled = rng.permutation(idx)
        train_rows.append(shuffled[:take])
        test_rows.append(shuffled[take:])
    train_idx = np.sort(np.concatenate(train_rows))
    test_idx = np.sort(np.concatenate(test_rows))

    return tuple(replace(dataset, patterns=dataset.patterns[idx], labels=dataset.labels[idx])
                 for idx in (train_idx, test_idx))


def save_dataset(dataset: ProcessedDataset, path) -> None:
    """Versioned text format: header with dimensions, names and normalization
    ranges, then one comma-separated row per pattern (k values + label index).
    Floats are written with repr, so a reload is bit-exact."""
    for name in dataset.feature_names + dataset.class_names:
        if "," in name:
            raise ValueError(f"name {name!r} contains a comma")
        if "\n" in name or "\r" in name:
            raise ValueError(f"name {name!r} contains a line break")
    lines = [
        f"{DATASET_FORMAT} {DATASET_VERSION}",
        f"k {dataset.input_count}",
        f"L {dataset.class_count}",
        f"N {dataset.pattern_count}",
        "features " + ",".join(dataset.feature_names),
        "classes " + ",".join(dataset.class_names),
    ]
    if dataset.normalization is not None:
        ranges = " ".join(
            f"{repr(float(lo))}:{repr(float(hi))}"
            for lo, hi in zip(dataset.normalization.mins, dataset.normalization.maxs)
        )
        lines.append("normalization " + ranges)
    lines.append("data")
    lines += [",".join([*map(repr, row), str(label)])
              for row, label in zip(dataset.patterns.tolist(), dataset.labels.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> ProcessedDataset:
    """Read a file written by save_dataset. A malformed file, or one that
    ProcessedDataset rejects, raises ValueError naming the path."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    fmt, _, version = lines[0].partition(" ") if lines else ("", "", "")
    if fmt != DATASET_FORMAT:
        raise ValueError(f"{path}: not a recognized dataset file")
    if version != str(DATASET_VERSION):
        raise ValueError(f"{path}: unsupported dataset version {version!r}")

    if "data" not in lines:
        raise ValueError(f"{path}: missing data section")
    data_start = lines.index("data")
    header = dict(line.partition(" ")[::2] for line in lines[1:data_start])

    for key in ("k", "L", "N", "classes"):
        if key not in header:
            raise ValueError(f"{path}: header lacks {key!r}")
        if key != "classes" and not header[key].isdecimal():
            raise ValueError(f"{path}: header {key!r} is {header[key]!r}, not a count")
    k, class_count, n = (int(header[key]) for key in ("k", "L", "N"))
    feature_names = header["features"].split(",") if header.get("features") else []
    class_names = header["classes"].split(",")
    if len(class_names) != class_count or len(feature_names) != k:
        raise ValueError(f"{path}: header counts disagree with name lists")

    normalization = None
    if "normalization" in header:
        ranges = header["normalization"].split()
        if len(ranges) != k:
            raise ValueError(f"{path}: {len(ranges)} normalization ranges for {k} inputs")
        mins, maxs = [], []
        for pair in ranges:
            lo, _, hi = pair.partition(":")
            try:
                mins.append(float(lo))
                maxs.append(float(hi))
            except ValueError:
                raise ValueError(f"{path}: normalization range {pair!r} is not min:max") from None
        normalization = NormalizationParams(np.asarray(mins), np.asarray(maxs))

    rows = [ln for ln in lines[data_start + 1:] if ln]
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} data rows, found {len(rows)}")
    patterns, labels = _parse_data_rows(path, rows, k)
    try:
        return ProcessedDataset(patterns, labels, feature_names, class_names, normalization)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_data_rows(path, rows: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Patterns (n, k) and labels (n,) in one pass: each row is split once and
    checked as it is parsed, shape, then k values, then label, so the first bad
    row raises ValueError naming it. A label past int64 becomes -1, out of range."""
    labels = []

    def values():
        for r, line in enumerate(rows):
            cells = line.split(",")
            if len(cells) != k + 1:
                raise ValueError(f"{path}: data row {r} has {len(cells)} cells, expected {k + 1}")
            label = cells.pop()
            try:
                row = list(map(float, cells))
            except ValueError:
                raise ValueError(f"{path}: data row {r} has a value that is not a number") from None
            try:
                label = int(label)
            except ValueError:
                raise ValueError(f"{path}: data row {r} label {label!r} is not an integer") from None
            labels.append(label if abs(label) < 2**63 else -1)
            yield row

    # with no count fromiter runs the loop to its end, also when k = 0 asks for no value
    patterns = np.fromiter(chain.from_iterable(values()), float).reshape(len(rows), k)
    return patterns, np.array(labels, np.int64)
