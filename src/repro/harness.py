"""Experiment harness: index factory, measurement, and table formatting.

Every experiment in :mod:`repro.experiments` and every ``benchmarks/``
target goes through these helpers so that timing/accesses/recall are
measured identically for every index. All scales are env-tunable:

* ``REPRO_SCALE``   — fraction of paper scale (default 0.01: paper's
  default n = 16M -> ours 160k).
* ``REPRO_QUERIES`` — queries per setting (paper: 1000; default 200).
* ``REPRO_EPOCHS_LEAF`` / ``REPRO_EPOCHS_INNER`` — MLP training epochs.
"""
from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro import synth_data, workloads
from repro.baselines.grid_file import GridFile
from repro.baselines.kdb_tree import KDBTree
from repro.baselines.rstar import RStarTree
from repro.baselines.rtree import HRRTree
from repro.baselines.zm import ZM, ZMParams
from repro.core.rsmi import RSMI, RSMIParams

SCALE = float(os.environ.get("REPRO_SCALE", "0.01"))
N_DEFAULT = max(1000, int(16_000_000 * SCALE))  # paper default n = 16M
N_QUERIES = int(os.environ.get("REPRO_QUERIES", "200"))
EPOCHS_LEAF = int(os.environ.get("REPRO_EPOCHS_LEAF", "500"))
EPOCHS_INNER = int(os.environ.get("REPRO_EPOCHS_INNER", "150"))
DEFAULT_DIST = "skewed"
ALL_DISTS = ("uniform", "normal", "skewed", "tiger", "osm")
# Paper sweep 1M..128M at 1/400 scale keeps all eight points tractable.
SIZE_SWEEP = tuple(int(m * 1e6 / 400) for m in (1, 2, 4, 8, 16, 32, 64, 128))

RESULTS_DIR = Path(__file__).resolve().parents[2] / "results"

INDEX_NAMES = ("Grid", "HRR", "KDB", "RR*", "RSMI", "ZM")
# The seven methods of the window and kNN figures: RSMIa is RSMI's build
# queried through its exact paths.
METHODS = tuple(sorted(INDEX_NAMES + ("RSMIa",)))


def rsmi_params(N: int = 10_000, seed: int = 0) -> RSMIParams:
    return RSMIParams(
        N=N, epochs_leaf=EPOCHS_LEAF, epochs_inner=EPOCHS_INNER, seed=seed
    )


def build_index(name: str, ids: np.ndarray, xy: np.ndarray, *, N: int = 10_000, runner=None):
    """Build one index by paper name (RSMIa/RSMIr share RSMI's build)."""
    if name in ("RSMI", "RSMIa", "RSMIr"):
        idx = RSMI(rsmi_params(N))
        return idx.build(ids, xy, runner=runner)
    if name == "ZM":
        return ZM(ZMParams(epochs=EPOCHS_INNER)).build(ids, xy)
    if name == "Grid":
        return GridFile().build(ids, xy)
    if name == "KDB":
        return KDBTree().build(ids, xy)
    if name == "HRR":
        return HRRTree().build(ids, xy)
    if name == "RR*":
        return RStarTree().build(ids, xy)
    raise ValueError(f"unknown index {name!r}")


def dataset(dist: str, n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    xy = synth_data.spatial_points_np(dist, n, seed)
    return np.arange(n, dtype=np.int64), xy


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_point_queries(index, pts: np.ndarray) -> dict:
    """Average response time (µs) and block accesses per point query."""
    index.reset_stats()
    t0 = time.perf_counter()
    hits = 0
    for x, y in pts:
        if index.point_query(float(x), float(y)) is not None:
            hits += 1
    dt = time.perf_counter() - t0
    nq = len(pts)
    return {
        "time_us": dt / nq * 1e6,
        "accesses": index.block_accesses / nq,
        "hit_rate": hits / nq,
    }


def measure_window_queries(
    index, rects: np.ndarray, truths: list[np.ndarray], exact: bool = False
) -> dict:
    """Average time (ms), accesses, and recall; asserts no false positives."""
    fn = index.window_query_exact if exact else index.window_query
    index.reset_stats()
    t0 = time.perf_counter()
    results = [fn(*map(float, r)) for r in rects]
    dt = time.perf_counter() - t0
    recalls, fps = [], 0
    for got, truth in zip(results, truths):
        ts = set(truth.tolist())
        gs = set(got.tolist())
        fps += len(gs - ts)
        if ts:
            recalls.append(len(gs & ts) / len(ts))
    nq = len(rects)
    return {
        "time_ms": dt / nq * 1e3,
        "accesses": index.block_accesses / nq,
        "recall": float(np.mean(recalls)) if recalls else 1.0,
        "false_positives": fps,
    }


def measure_knn_queries(
    index, pts: np.ndarray, k: int, truths: list[np.ndarray], exact: bool = False
) -> dict:
    fn = index.knn_query_exact if exact else index.knn_query
    index.reset_stats()
    t0 = time.perf_counter()
    results = [fn(float(p[0]), float(p[1]), k) for p in pts]
    dt = time.perf_counter() - t0
    recalls = [
        len(set(got.tolist()) & set(truth.tolist())) / max(1, len(truth))
        for got, truth in zip(results, truths)
    ]
    return {
        "time_ms": dt / len(pts) * 1e3,
        "accesses": index.block_accesses / len(pts),
        "recall": float(np.mean(recalls)),
    }


def measure_insertions(index, ids: np.ndarray, xy: np.ndarray) -> dict:
    t0 = time.perf_counter()
    for pid, (x, y) in zip(ids, xy):
        index.insert(int(pid), float(x), float(y))
    dt = time.perf_counter() - t0
    return {"time_us": dt / len(ids) * 1e6}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def fmt_table(title: str, header: list[str], rows: list[list]) -> str:
    widths = [
        max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    lines = [title, " | ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines.append("-+-".join("-" * w for w in widths))
    for r in rows:
        lines.append(" | ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def save_results(name: str, payload) -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"{name}.json"
    out.write_text(json.dumps(payload, indent=2, default=str))
    return out
