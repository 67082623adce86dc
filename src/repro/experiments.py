"""Experiment definitions — one function per paper table/figure.

Each ``exp_*`` function returns a list of row-dicts shaped like the
paper's exhibit; :data:`JOBS` names them and :func:`run` prints and saves
one (``jobs/run_all.py [name ...]`` is the spark-submit entry point).
An :class:`IndexCache` shares built indices across experiments within a
process (builds dominate wall-clock, queries are cheap). RSMIa is RSMI's
exact query mode, so it is a method name that shares RSMI's build.

RSMI builds go through the Spark runner when a SparkSession is supplied
(per-partition model training on executors); everything else builds on
the driver, mirroring the paper's single-machine competitors.
"""
from __future__ import annotations

import sys
import time

import numpy as np

from repro import harness, workloads
from repro.core.rsmi import RSMI


class IndexCache:
    """(dist, n, name) -> built index; read-only users only."""

    def __init__(self, spark=None):
        self.spark = spark
        self._data: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}
        self._idx: dict[tuple[str, int, str], object] = {}

    def data(self, dist: str, n: int):
        key = (dist, n)
        if key not in self._data:
            self._data[key] = harness.dataset(dist, n)
        return self._data[key]

    def index(self, name: str, dist: str, n: int, N: int = 10_000):
        if name == "RSMIa":
            name = "RSMI"
        key = (dist, n, f"{name}:{N}")
        if key not in self._idx:
            ids, xy = self.data(dist, n)
            runner = None
            if name == "RSMI" and self.spark is not None:
                from repro.core.rsmi_spark import spark_runner

                runner = spark_runner(self.spark)
            self._idx[key] = harness.build_index(name, ids, xy, N=N, runner=runner)
        return self._idx[key]

    def fresh(self, name: str, dist: str, n: int):
        """Uncached build (for update experiments that mutate)."""
        ids, xy = self.data(dist, n)
        return harness.build_index(name, ids, xy)


def _point_workload(xy: np.ndarray, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return xy[rng.integers(0, len(xy), harness.N_QUERIES)]


def _window_workload(ids, xy, size_pct, aspect, seed=0):
    rects = workloads.window_queries(xy, harness.N_QUERIES, size_pct, aspect, seed)
    truths = [workloads.window_truth(ids, xy, r) for r in rects]
    return rects, truths


def _knn_workload(ids, xy, k, seed=0):
    qs = workloads.knn_query_points(xy, harness.N_QUERIES, seed)
    truths = [workloads.knn_truth(ids, xy, q, k) for q in qs]
    return qs, truths


# ---------------------------------------------------------------------------
# Table 3 — impact of the partition threshold N
# ---------------------------------------------------------------------------

def exp_table3(cache: IndexCache) -> list[dict]:
    n = harness.N_DEFAULT
    ids, xy = cache.data(harness.DEFAULT_DIST, n)
    pts = _point_workload(xy)
    rows = []
    # The paper's literal N values: the partitioning-grid arity (4^k with
    # k = floor(log4 N/B)) depends on N, not on n, so the trends
    # (height/size shrink, accesses grow as N rises) appear at our scale
    # with the same thresholds.
    for N in (2500, 5000, 10_000, 20_000, 40_000):
        idx = cache.index("RSMI", harness.DEFAULT_DIST, n, N=N)
        m = harness.measure_point_queries(idx, pts)
        rows.append(
            {
                "N": N,
                "construction_s": idx.build_seconds,
                "height": idx.height,
                "index_size_mb": idx.size_bytes() / 1e6,
                "query_accesses": m["accesses"],
                "query_time_us": m["time_us"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 4 — prediction error bounds of ZM and RSMI
# ---------------------------------------------------------------------------

def exp_table4(cache: IndexCache) -> list[dict]:
    n = harness.N_DEFAULT
    rows = []
    for dist in harness.ALL_DISTS:
        zm = cache.index("ZM", dist, n)
        rsmi = cache.index("RSMI", dist, n)
        rows.append(
            {
                "dist": dist,
                "zm_err_l": zm.max_errors()[0],
                "zm_err_a": zm.max_errors()[1],
                "rsmi_err_l": rsmi.max_errors()[0],
                "rsmi_err_a": rsmi.max_errors()[1],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figs 6 + 7 — point queries / size / build time across distributions
# ---------------------------------------------------------------------------

def exp_point_by_dist(cache: IndexCache) -> list[dict]:
    n = harness.N_DEFAULT
    rows = []
    for dist in harness.ALL_DISTS:
        ids, xy = cache.data(dist, n)
        pts = _point_workload(xy)
        for name in harness.INDEX_NAMES:
            idx = cache.index(name, dist, n)
            m = harness.measure_point_queries(idx, pts)
            rows.append(
                {
                    "dist": dist,
                    "index": name,
                    "time_us": m["time_us"],
                    "accesses": m["accesses"],
                    "size_mb": idx.size_bytes() / 1e6,
                    "build_s": idx.build_seconds,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figs 8 + 9 + 11 + 15 — data-set-size sweeps (Skewed)
# ---------------------------------------------------------------------------

def exp_size_sweep(cache: IndexCache) -> list[dict]:
    rows = []
    for n in harness.SIZE_SWEEP:
        ids, xy = cache.data(harness.DEFAULT_DIST, n)
        pts = _point_workload(xy)
        rects, wtruths = _window_workload(
            ids, xy, workloads.DEFAULT_WINDOW_PCT, workloads.DEFAULT_ASPECT
        )
        qs, ktruths = _knn_workload(ids, xy, workloads.DEFAULT_K)
        for name in harness.METHODS:
            idx = cache.index(name, harness.DEFAULT_DIST, n)
            exact = name == "RSMIa"
            mp = harness.measure_point_queries(idx, pts)
            mw = harness.measure_window_queries(idx, rects, wtruths, exact=exact)
            mk = harness.measure_knn_queries(
                idx, qs, workloads.DEFAULT_K, ktruths, exact=exact
            )
            rows.append(
                {
                    "n": n,
                    "index": name,
                    "point_us": mp["time_us"],
                    "point_accesses": mp["accesses"],
                    "size_mb": idx.size_bytes() / 1e6,
                    "build_s": idx.build_seconds,
                    "window_ms": mw["time_ms"],
                    "window_recall": mw["recall"],
                    "knn_ms": mk["time_ms"],
                    "knn_recall": mk["recall"],
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figs 10 + 12 + 13 — window queries
# ---------------------------------------------------------------------------

def _window_rows(cache, dist, n, size_pct, aspect, tag) -> list[dict]:
    ids, xy = cache.data(dist, n)
    rects, truths = _window_workload(ids, xy, size_pct, aspect)
    rows = []
    for name in harness.METHODS:
        idx = cache.index(name, dist, n)
        m = harness.measure_window_queries(idx, rects, truths, exact=name == "RSMIa")
        rows.append(
            {**tag, "index": name, "time_ms": m["time_ms"], "recall": m["recall"],
             "accesses": m["accesses"], "false_positives": m["false_positives"]}
        )
    return rows


def exp_window_by_dist(cache: IndexCache) -> list[dict]:
    n = harness.N_DEFAULT
    rows = []
    for dist in harness.ALL_DISTS:
        rows += _window_rows(
            cache, dist, n, workloads.DEFAULT_WINDOW_PCT, workloads.DEFAULT_ASPECT,
            {"dist": dist},
        )
    return rows


def exp_window_by_size(cache: IndexCache) -> list[dict]:
    n = harness.N_DEFAULT
    rows = []
    for pct in workloads.WINDOW_SIZES_PCT:
        rows += _window_rows(
            cache, harness.DEFAULT_DIST, n, pct, workloads.DEFAULT_ASPECT,
            {"window_pct": pct},
        )
    return rows


def exp_window_by_aspect(cache: IndexCache) -> list[dict]:
    n = harness.N_DEFAULT
    rows = []
    for aspect in workloads.ASPECT_RATIOS:
        rows += _window_rows(
            cache, harness.DEFAULT_DIST, n, workloads.DEFAULT_WINDOW_PCT, aspect,
            {"aspect": aspect},
        )
    return rows


# ---------------------------------------------------------------------------
# Figs 14 + 16 — kNN queries
# ---------------------------------------------------------------------------

def _knn_rows(cache, dist, n, k, tag) -> list[dict]:
    ids, xy = cache.data(dist, n)
    qs, truths = _knn_workload(ids, xy, k)
    rows = []
    for name in harness.METHODS:
        idx = cache.index(name, dist, n)
        m = harness.measure_knn_queries(idx, qs, k, truths, exact=name == "RSMIa")
        rows.append(
            {**tag, "index": name, "time_ms": m["time_ms"], "recall": m["recall"],
             "accesses": m["accesses"]}
        )
    return rows


def exp_knn_by_dist(cache: IndexCache) -> list[dict]:
    n = harness.N_DEFAULT
    rows = []
    for dist in harness.ALL_DISTS:
        rows += _knn_rows(cache, dist, n, workloads.DEFAULT_K, {"dist": dist})
    return rows


def exp_knn_by_k(cache: IndexCache) -> list[dict]:
    n = harness.N_DEFAULT
    rows = []
    for k in workloads.K_VALUES:
        rows += _knn_rows(cache, harness.DEFAULT_DIST, n, k, {"k": k})
    return rows


# ---------------------------------------------------------------------------
# Figs 17–19 — update handling
# ---------------------------------------------------------------------------

def exp_updates(cache: IndexCache) -> list[dict]:
    n = harness.N_DEFAULT
    dist = harness.DEFAULT_DIST
    ids, xy = cache.data(dist, n)
    # A separate pool of points to insert, same distribution.
    ins_xy = harness.dataset(dist, n // 2, seed=1234)[1]
    ins_ids = np.arange(n, n + n // 2, dtype=np.int64)

    names = harness.METHODS + ("RSMIr",)
    indices = {name: cache.fresh(name, dist, n) for name in names}
    rows = []
    step = n // 10
    for pct in (10, 20, 30, 40, 50):
        s, e = (pct - 10) // 10 * step, pct // 10 * step
        cur_ids = np.concatenate([ids, ins_ids[:e]])
        cur_xy = np.concatenate([xy, ins_xy[:e]])
        pts = cur_xy[np.random.default_rng(pct).integers(0, len(cur_xy), harness.N_QUERIES)]
        rects = workloads.window_queries(cur_xy, harness.N_QUERIES // 2, seed=pct)
        wtruths = [workloads.window_truth(cur_ids, cur_xy, r) for r in rects]
        qs = workloads.knn_query_points(cur_xy, harness.N_QUERIES // 2, seed=pct)
        ktruths = [workloads.knn_truth(cur_ids, cur_xy, q, workloads.DEFAULT_K) for q in qs]
        for name in names:
            idx = indices[name]
            mi = harness.measure_insertions(idx, ins_ids[s:e], ins_xy[s:e])
            t_rebuild = 0.0
            if name == "RSMIr":
                t0 = time.perf_counter()
                idx.rebuild_oversized()
                t_rebuild = time.perf_counter() - t0
            mp = harness.measure_point_queries(idx, pts)
            exact = name == "RSMIa"
            mw = harness.measure_window_queries(idx, rects, wtruths, exact=exact)
            mk = harness.measure_knn_queries(
                idx, qs, workloads.DEFAULT_K, ktruths, exact=exact
            )
            amortised = mi["time_us"] + t_rebuild * 1e6 / max(1, e - s)
            rows.append(
                {
                    "inserted_pct": pct,
                    "index": name,
                    "insert_us": amortised,
                    "point_us": mp["time_us"],
                    "point_accesses": mp["accesses"],
                    "window_ms": mw["time_ms"],
                    "window_recall": mw["recall"],
                    "knn_ms": mk["time_ms"],
                    "knn_recall": mk["recall"],
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Job registry — results/<name>.json per entry
# ---------------------------------------------------------------------------

JOBS = {
    "table3_n_sweep": exp_table3,
    "table4_err_bounds": exp_table4,
    "fig6_7_point_by_dist": exp_point_by_dist,
    "fig10_window_by_dist": exp_window_by_dist,
    "fig12_window_by_size": exp_window_by_size,
    "fig13_window_by_aspect": exp_window_by_aspect,
    "fig14_knn_by_dist": exp_knn_by_dist,
    "fig16_knn_by_k": exp_knn_by_k,
    "fig8_9_11_15_size_sweep": exp_size_sweep,
    "fig17_19_updates": exp_updates,
}


def run(name: str, cache: IndexCache) -> list[dict]:
    """Run one :data:`JOBS` entry, print its rows as a table, and save
    them to ``results/<name>.json``."""
    t0 = time.perf_counter()
    rows = JOBS[name](cache)
    dt = time.perf_counter() - t0
    if rows:
        header = list(rows[0].keys())
        print(harness.fmt_table(f"== {name} ({dt:.1f}s) ==", header,
                                [[r[h] for h in header] for r in rows]))
    out = harness.save_results(name, rows)
    print(f"[{name}] {len(rows)} rows -> {out}", file=sys.stderr)
    return rows
