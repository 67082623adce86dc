"""The benchmark's self-test runs every workload at toy size and checks its
metric sets and traced names, so a change under ``src/`` that breaks a
workload fails here rather than in a benchmark run."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_rsmi_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "rsmi_bench/run.py", "--selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
