"""Every experiment in ``repro.experiments.JOBS``, at a tiny scale.

Each experiment runs once through ``experiments.run`` (serial builds, no
Spark) with n = 1200, 10 queries per setting and 20 training epochs. Its
rows are pinned by a digest of their non-timing fields; timing fields are
the keys ending in ``_s``, ``_ms`` or ``_us`` and those starting with
``time_``. The digests were recorded by calling the ``exp_*`` functions
while RSMIa rows were still written out by hand beside RSMI's, so they
show that making RSMIa a method name left every row as it was.
``fig17_19_updates`` gained one RSMIa row per insertion step then (its
exact-query branch had never run): its pin covers the other rows. Nine
digests were re-recorded when RSMI began skipping the blocks whose MBR
cannot hold an answer: only RSMI's, RSMIa's and RSMIr's access and size
fields moved (see CHANGES.md).
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import experiments, harness

ROOT = Path(__file__).resolve().parents[1]
TIMING = re.compile(r"(_s|_ms|_us)$|^time_")

# name -> (rows, digest of the non-timing fields)
PINS = {
    "table3_n_sweep": (5, "3d8447c0d4a10019"),
    "table4_err_bounds": (5, "b7e6a48744fef9ef"),
    "fig6_7_point_by_dist": (30, "ec5cc5b09e08bbce"),
    "fig10_window_by_dist": (35, "95a3977da18f5446"),
    "fig12_window_by_size": (35, "6c2099d773888267"),
    "fig13_window_by_aspect": (35, "40e1cd219da5a8c7"),
    "fig14_knn_by_dist": (35, "eab4195cd4ea53ae"),
    "fig16_knn_by_k": (35, "83a6fa49a330b6c5"),
    "fig8_9_11_15_size_sweep": (7, "d00c41e188b42693"),
    "fig17_19_updates": (35, "39957da45b2b1bbe"),  # without its RSMIa rows
}


def _digest(rows: list[dict]) -> str:
    kept = [{k: v for k, v in r.items() if not TIMING.search(k)} for r in rows]
    return hashlib.sha256(json.dumps(kept, default=str).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The results directory of every job, run once against one cache."""
    out = tmp_path_factory.mktemp("results")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "N_DEFAULT", 1200)
        mp.setattr(harness, "SIZE_SWEEP", (1200,))
        mp.setattr(harness, "N_QUERIES", 10)
        mp.setattr(harness, "EPOCHS_LEAF", 20)
        mp.setattr(harness, "EPOCHS_INNER", 20)
        mp.setattr(harness, "RESULTS_DIR", out)
        cache = experiments.IndexCache()
        for name in experiments.JOBS:
            experiments.run(name, cache)
    return out


@pytest.fixture(scope="module")
def results(run_dir):
    """name -> rows, as saved to results/<name>.json."""
    return {
        name: json.loads((run_dir / f"{name}.json").read_text())
        for name in experiments.JOBS
    }


def test_every_job_is_pinned():
    assert set(experiments.JOBS) == set(PINS)


@pytest.mark.parametrize("name", PINS)
def test_rows_match_pin(results, name):
    rows = results[name]
    if name == "fig17_19_updates":
        rows = [r for r in rows if r["index"] != "RSMIa"]
    assert (len(rows), _digest(rows)) == PINS[name]


@pytest.mark.parametrize(
    "name", ["fig10_window_by_dist", "fig14_knn_by_dist", "fig8_9_11_15_size_sweep"]
)
def test_window_and_knn_rows_cover_the_seven_methods(results, name):
    methods = [r["index"] for r in results[name]]
    m = len(harness.METHODS)
    assert [tuple(methods[i : i + m]) for i in range(0, len(methods), m)] == [
        harness.METHODS
    ] * (len(methods) // m)


def test_updates_emit_exact_rsmia_rows(results):
    rows = [r for r in results["fig17_19_updates"] if r["index"] == "RSMIa"]
    assert [r["inserted_pct"] for r in rows] == [10, 20, 30, 40, 50]
    assert all(r["window_recall"] == r["knn_recall"] == 1.0 for r in rows)


def test_run_all_rejects_unknown_name():
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "run_all.py"), "nope"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "nope" in proc.stderr
    assert all(name in proc.stderr for name in experiments.JOBS)
