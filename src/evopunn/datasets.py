"""Built-in benchmark data generators.

Balance Scale is a closed-form enumeration and is reconstructed exactly:
all 625 combinations of four attributes in 1..5, labelled by comparing the
weight*distance products of the two sides. Waveform is the classic
three-base-wave generator (21 informative positions from convex combinations
of triangular waves plus unit Gaussian noise, and 19 pure-noise positions);
rows are drawn fresh from the generator, so they match the published file in
distribution, not row for row.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

BALANCE_SCHEMA = """\
left_weight,continuous
left_distance,continuous
right_weight,continuous
right_distance,continuous
class,class,B|L|R
"""

def balance_scale_rows() -> list[tuple[int, int, int, int, str]]:
    rows = []
    for lw in range(1, 6):
        for ld in range(1, 6):
            for rw in range(1, 6):
                for rd in range(1, 6):
                    left, right = lw * ld, rw * rd
                    label = "B" if left == right else ("L" if left > right else "R")
                    rows.append((lw, ld, rw, rd, label))
    return rows


def write_balance_scale(out_dir) -> tuple[Path, Path]:
    """Write balance.csv and balance.schema; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "balance.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["left_weight", "left_distance", "right_weight", "right_distance", "class"])
        writer.writerows(balance_scale_rows())
    schema_path = out_dir / "balance.schema"
    schema_path.write_text(BALANCE_SCHEMA, encoding="utf-8")
    return csv_path, schema_path


def _base_waves() -> np.ndarray:
    positions = np.arange(1, 22)
    peaks = (7, 15, 11)
    return np.stack([np.maximum(6.0 - np.abs(positions - p), 0.0) for p in peaks])


def waveform_rows(n: int = 5000, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Sample n waveform patterns; returns (attributes (n, 40), labels (n,))."""
    rng = np.random.default_rng(seed)
    waves = _base_waves()
    pairs = ((0, 1), (0, 2), (1, 2))  # wave pair combined per class
    labels = rng.integers(0, 3, n)
    mix = rng.random(n)
    attrs = rng.normal(0.0, 1.0, (n, 40))
    for c, (a, b) in enumerate(pairs):
        picked = labels == c
        u = mix[picked, None]
        attrs[picked, :21] += u * waves[a] + (1.0 - u) * waves[b]
    return attrs, labels


def write_waveform(out_dir, n: int = 5000, seed: int = 1) -> tuple[Path, Path]:
    """Write waveform.csv and waveform.schema; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    attrs, labels = waveform_rows(n, seed)
    names = [f"x{i}" for i in range(1, 41)]
    # one %-template per row, with the "\r\n" endings csv.writer writes
    template = ",".join(["%.6f"] * len(names)) + ",%d"
    lines = [",".join(names + ["class"])]
    lines += [template % (*row, label) for row, label in zip(attrs.tolist(), labels.tolist())]
    csv_path = out_dir / "waveform.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
    schema_path = out_dir / "waveform.schema"
    schema_lines = [f"{name},continuous" for name in names] + ["class,class,0|1|2"]
    schema_path.write_text("\n".join(schema_lines) + "\n", encoding="utf-8")
    return csv_path, schema_path


GENERATORS = {
    "balance": write_balance_scale,
    "waveform": write_waveform,
}
