"""Outside-in tracing: spans around the public names each caller in
``repro`` looks up, installed only while a traced phase runs.

A span is ``(name, start_ns, end_ns, parent, op, size)``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the operation index
the benchmark was running (``"build"`` during a build) and ``size`` an
optional count taken from the call's arguments or result. Self time is a
span's duration minus that of its direct children. Executor-side work of a
Spark build runs in other processes and leaves no spans.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

from loadgen import Op


def _window_candidates(args, out):
    return len(out[0])


def _result_len(args, out):
    return len(out)


def _created_overflow(args, out):
    return int(out)


def _task_kinds(args, out):
    kinds = Counter(t["kind"] for t in args[0])
    return kinds["inner"], kinds["leaf"]


def _binary_bytes(args, out):
    return sum(len(v) for row in out for v in row if isinstance(v, (bytes, bytearray)))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []

    def traced(self, name, fn, size=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, None)
            if size is not None:
                spans[idx] = (name, t0, t1, parent, self.op, size(args, out))
            return out

        return wrapper

    @contextlib.contextmanager
    def active(self, spark_classes=None):
        """Install the wrappers for the duration of the block.

        ``spark_classes`` is ``(session class, DataFrame class)`` on a Spark
        build. The task functions that executors run are then left alone:
        cloudpickle ships a function by reference only while its module
        attribute is that very function, and a wrapper in its place would
        ship the tracer to the executors.
        """
        from repro.core import rsmi, rsmi_spark
        from repro.ml.mlp import MLP
        from repro.ml.pmf import PiecewiseCDF
        from repro.storage.blocks import Block, BlockFile

        targets = [
            (rsmi.RSMI, "build", None),
            (rsmi.RSMI, "point_query", None),
            (rsmi.RSMI, "window_query", _result_len),
            (rsmi.RSMI, "window_query_blocks", _window_candidates),
            (rsmi.RSMI, "knn_query", None),
            (rsmi.RSMI, "insert", None),
            (rsmi.RSMI, "delete", None),
            (rsmi.RSMI, "size_bytes", None),
            (rsmi.RSMI, "max_errors", None),
            (rsmi, "expansion_knn", None),
            (rsmi, "serial_runner", _task_kinds),
            (rsmi, "grid_cell_values", None),
            (rsmi, "rank_space_order_np", None),
            (MLP, "fit", None),
            (MLP, "predict", None),
            (MLP, "predict_one", None),
            (PiecewiseCDF, "slope_alpha", None),
            (BlockFile, "pack", None),
            (BlockFile, "chain", None),
            (BlockFile, "insert_into", _created_overflow),
            (BlockFile, "delete_from", None),
            (Block, "find", None),
        ]
        if spark_classes is None:
            targets += [(rsmi, "run_inner_task", None), (rsmi, "run_leaf_task", None)]
        else:
            session_cls, frame_cls = spark_classes
            targets += [
                (session_cls, "createDataFrame", None),
                (frame_cls, "toPandas", None),
                (frame_cls, "collect", _binary_bytes),
            ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        make_runner = rsmi_spark.spark_runner
        try:
            for owner, attr, size in targets:
                name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
                setattr(owner, attr, self.traced(name, getattr(owner, attr), size))
            rsmi_spark.spark_runner = lambda spark: self.traced(
                "spark.runner", make_runner(spark), _task_kinds
            )
            yield self
        finally:
            rsmi_spark.spark_runner = make_runner
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


def layer_metrics(spans, ops: list[Op], end_state, max_errors) -> dict:
    """Per-layer figures from the spans of one traced build and one traced
    pass over ``ops``. Times are in the units their names say."""
    child = np.zeros(len(spans), dtype=np.int64)
    for sp in spans:
        if sp[3] >= 0:
            child[sp[3]] += sp[2] - sp[1]
    n_ops = Counter(op.kind for op in ops)
    calls, total, self_ns = Counter(), Counter(), Counter()
    per_op = defaultdict(list)  # (name, op index) -> [(duration, self time)]
    sizes = defaultdict(list)  # (kind, name) -> sizes
    for i, (name, t0, t1, _, op, size) in enumerate(spans):
        kind = "build" if op == "build" else ops[op].kind if op is not None else "other"
        d = t1 - t0
        calls[kind, name] += 1
        total[kind, name] += d
        self_ns[kind, name] += d - child[i]
        if isinstance(op, int):
            per_op[name, op].append((d, d - child[i]))
        if size is not None:
            sizes[kind, name].append(size)

    def secs(kind, name):
        return total[kind, name] / 1e9

    def per(kind, name):
        return calls[kind, name] / max(1, n_ops[kind])

    def median_us(name, kinds=None, use_self=False):
        vals = [
            v[1 if use_self else 0]
            for (nm, op), lst in per_op.items()
            if nm == name and (kinds is None or ops[op].kind in kinds)
            for v in lst
        ]
        return float(np.median(vals)) / 1e3 if vals else 0.0

    runner_sizes = sizes["build", "rsmi.serial_runner"] + sizes["build", "spark.runner"]
    window_scan = []
    for i, op in enumerate(ops):
        if op.kind == "window":
            scan = sum(d for d, _ in per_op.get(("RSMI.window_query_blocks", i), ()))
            model = sum(d for d, _ in per_op.get(("MLP.predict_one", i), ()))
            window_scan.append(scan - model)
    results = sum(sizes["window", "RSMI.window_query"])
    knn_cands = sum(sizes["knn", "RSMI.window_query_blocks"])
    k = next((op.args[2] for op in ops if op.kind == "knn"), 1)
    # Without Arrow, toPandas collects too: count only the runner's collects.
    collects = [
        sp for sp in spans
        if sp[0] == "DataFrame.collect" and sp[3] >= 0 and spans[sp[3]][0] == "spark.runner"
    ]
    bf = end_state.bf
    return {
        "ml.fit_s": secs("build", "MLP.fit"),
        "ml.fit_calls": calls["build", "MLP.fit"],
        "ml.predict_s": secs("build", "MLP.predict"),
        "geo.rank_order_s": secs("build", "rsmi.rank_space_order_np"),
        "core.grid_cells_s": secs("build", "rsmi.grid_cell_values"),
        "storage.pack_s": secs("build", "BlockFile.pack"),
        "core.build_self_s": self_ns["build", "RSMI.build"] / 1e9,
        "core.build_leaf_tasks": sum(leaf for _, leaf in runner_sizes),
        "core.build_inner_tasks": sum(inner for inner, _ in runner_sizes),
        "core.err_l_max": max_errors[0],
        "core.err_a_max": max_errors[1],
        "spark.to_pandas_s": secs("build", "DataFrame.toPandas"),
        "spark.ship_s": secs("build", "SparkSession.createDataFrame"),
        "spark.train_collect_s": sum(sp[2] - sp[1] for sp in collects) / 1e9,
        "spark.levels": calls["build", "spark.runner"],
        "spark.payload_bytes": sum(sp[5] for sp in collects),
        "spark.driver_self_s": self_ns["build", "spark.runner"] / 1e9,
        "ml.predict_one_us": median_us("MLP.predict_one", ("point", "window", "knn")),
        "ml.predict_one_calls_point": per("point", "MLP.predict_one"),
        "ml.predict_one_calls_window": per("window", "MLP.predict_one"),
        "ml.predict_one_calls_knn": per("knn", "MLP.predict_one"),
        "storage.chain_calls_point": per("point", "BlockFile.chain"),
        "storage.chain_calls_window": per("window", "BlockFile.chain"),
        "storage.chain_calls_knn": per("knn", "BlockFile.chain"),
        "storage.find_calls_point": per("point", "Block.find"),
        "core.window_scan_us": float(np.median(window_scan)) / 1e3 if window_scan else 0.0,
        "core.window_candidates_per_result": (
            sum(sizes["window", "RSMI.window_query_blocks"]) / results if results else 0.0
        ),
        "knn.rounds": per("knn", "RSMI.window_query_blocks"),
        "knn.candidates_per_k": knn_cands / max(1, k * n_ops["knn"]),
        "knn.self_us": median_us("rsmi.expansion_knn", use_self=True),
        "ml.slope_alpha_us": median_us("PiecewiseCDF.slope_alpha"),
        "storage.insert_into_us": median_us("BlockFile.insert_into"),
        "core.insert_self_us": median_us("RSMI.insert", use_self=True),
        "storage.overflow_blocks_per_1k_inserts": (
            1000 * sum(sizes["insert", "BlockFile.insert_into"]) / max(1, n_ops["insert"])
        ),
        "storage.overflow_chain_max": max(
            (bf.overflow_len(i) for i in range(bf.n_primary)), default=0
        ),
        "storage.delete_from_calls_per_delete": per("delete", "BlockFile.delete_from"),
    }
