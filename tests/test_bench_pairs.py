"""bench_pairs.py checks its arguments before it extracts or runs anything."""

import subprocess
import sys
from pathlib import Path

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
