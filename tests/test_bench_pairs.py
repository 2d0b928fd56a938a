"""bench_pairs.py checks its arguments before it extracts or runs anything,
and records the BLAS core that the fingerprints depend on."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from make_fingerprints import blas_core

SCRIPT = Path(__file__).resolve().parent.parent / "bench_pairs.py"


def test_fewer_than_two_pairs_is_refused_before_any_work(tmp_path):
    work, out = tmp_path / "work", tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", "HEAD", "--change", "HEAD",
         "--work", str(work), "--out", str(out), "--pairs", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "--pairs must be at least 2, for the parent's quartiles, not 1" in proc.stderr
    assert not out.exists() and not work.exists()


def test_header_records_the_blas_core():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    assert bench_pairs.numpy_versions()["blas_core"] == blas_core()
