"""RSMI benchmark runner: one workload, one closed-loop client, no think time.

    python3 rsmi_bench/run.py --workload query-skewed --seed 1 --seconds 8 --trace 0
    python3 rsmi_bench/run.py --selftest

It builds the index from the checkout's ``src/`` (``setup_s``), replays the
workload's seeded operations in passes for ``--seconds`` seconds and checks
every answer against brute-force truth. With ``--trace 0`` the last line of
standard output reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it reports the per-layer metrics of a separate traced run,
whose exact counts must equal those of its own untraced passes. A line
before it (``{"detail": ...}``) holds sample counts, failure kinds, the
index shape and the environment.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

# Pinned before numpy loads; Spark's Python workers inherit them.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
os.environ["TMPDIR"] = str(OUT / "tmp")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402


def import_repro() -> None:
    """Load ``repro`` from this checkout's ``src/`` only; any failure ends
    the run before a result is printed."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
        from repro.core import rsmi, rsmi_spark  # noqa: F401
    except Exception as exc:  # a missing or broken package: no result
        sys.exit(f"cannot import repro from {ROOT / 'src'}: {exc!r}")
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        sys.exit(f"repro resolved outside the checkout: {repro.__file__}")


# Keeps the JVMs from writing /tmp/hsperfdata_<user>, outside the checkout.
NO_PERF_DATA = "-XX:-UsePerfData"


def start_spark(nproc: int):
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{nproc}]",
            "--driver-memory 2g",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf "
            + shlex.quote(
                f"spark.driver.extraJavaOptions=-Djava.io.tmpdir={OUT / 'tmp'} {NO_PERF_DATA}"
            ),
            "pyspark-shell",
        ]
    )
    launcher = [os.environ.get("SPARK_LAUNCHER_OPTS", ""), NO_PERF_DATA]
    os.environ["SPARK_LAUNCHER_OPTS"] = " ".join(o for o in launcher if o)
    os.environ["SPARK_LOCAL_DIRS"] = str(OUT / "spark")  # outranks spark.local.dir
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("rsmi-bench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it; the
    Python workers are the JVM's children and exit with it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    proc.stdin.close()  # the gateway server exits at end of input
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def git_commit() -> str | None:
    """HEAD of the checkout's own repository, read from ``.git`` (git itself
    would report an enclosing repository when the checkout has none)."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)), None)


def environment(spark) -> dict:
    import numpy as np
    import pyspark

    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        digest.update(f.relative_to(ROOT).as_posix().encode() + f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": pyspark.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "spark_parallelism": spark.sparkContext.defaultParallelism if spark else None,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def pct(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def make_build(wl, inp, spark):
    """The workload's build as a function, and the Spark classes the tracer
    wraps (None for a serial build). A Spark build first runs one untimed
    warm-up build: it starts the Python workers and JIT-compiles the JVM
    paths that every later build uses."""
    import pandas as pd

    from repro.core.rsmi import RSMI, RSMIParams
    from repro.core.rsmi_spark import build_rsmi_spark

    if not wl.spark:
        return (lambda: RSMI(wl.params).build(inp.ids, inp.xy)), None
    df = spark.createDataFrame(
        pd.DataFrame({"id": inp.ids, "x": inp.xy[:, 0], "y": inp.xy[:, 1]})
    )
    build_rsmi_spark(spark, df.limit(3000), RSMIParams(B=20, N=500, epochs_leaf=5, epochs_inner=5))
    return (lambda: build_rsmi_spark(spark, df, wl.params)), (type(spark), type(df))


def measure(wl, inp, build, seconds):
    """Timed builds, with the replays split among them so that they spread
    over more wall time. Returns (replays, reference, build seconds, index)."""
    from replay import replay

    rep = ref = index = None
    builds = []
    for _ in range(wl.builds):
        t0 = time.perf_counter()
        built = build()
        builds.append(time.perf_counter() - t0)
        if index is None:
            index = built
        elif (built.max_errors(), built.size_bytes()) != (index.max_errors(), index.size_bytes()):
            rep.failures["build_mismatch"] += 1
        del built
        more, ref = replay(index, inp, seconds / wl.builds, ref)
        if rep is None:
            rep = more
        else:
            rep.merge(more)
    return rep, ref, builds, index


def measure_traced(inp, build, seconds, spark_classes):
    """A traced build, untraced passes for half the time, traced passes for
    the other half. Every traced pass must repeat the untraced answers and
    access counts; the spans of the build and the first traced pass are
    kept. Returns (all replays, reference, index, tracer, untraced replays)."""
    from replay import replay
    from tracer import Tracer

    tracer = Tracer()
    tracer.op = "build"
    with tracer.active(spark_classes):
        index = build()
    tracer.op = None
    plain, ref = replay(index, inp, seconds / 2, None)
    deadline = time.perf_counter() + seconds / 2
    with tracer.active(spark_classes):
        rep, _ = replay(index, inp, 0, ref, tracer)
        keep = len(tracer.spans)
        while time.perf_counter() < deadline:
            more, _ = replay(index, inp, 0, ref, tracer)
            del tracer.spans[keep:]
            rep.merge(more)
    if rep.end_state.size_bytes() != ref.end_state.size_bytes():
        rep.failures["size_mismatch"] += 1
    return rep, ref, index, tracer, plain


def run_workload(wl, seed: int, seconds: float, trace: bool, spark=None):
    """One run of ``wl``; returns the result object and its detail."""
    import numpy as np

    from loadgen import K, make_inputs
    from tracer import layer_metrics

    inp = make_inputs(wl, seed)
    build, spark_classes = make_build(wl, inp, spark)
    kinds = np.array([op.kind for op in inp.ops])
    builds = []
    if trace:
        rep, ref, index, tracer, plain = measure_traced(inp, build, seconds, spark_classes)
        work = kinds != "pace"
        overhead = rep.latency_us()[work].sum() / plain.latency_us()[work].sum() - 1.0
        rep.merge(plain)
    else:
        rep, ref, builds, index = measure(wl, inp, build, seconds)

    latency = rep.latency_us()
    lat_us = {k: latency[kinds == k] for k in ("point", "window", "knn", "insert", "delete")}
    acc = {k: ref.accesses[kinds == k] for k in ("point", "window", "knn")}
    exact = {
        "point_accesses": float(acc["point"].mean()),
        "window_accesses": float(acc["window"].mean()),
        "knn_accesses": float(acc["knn"].mean()),
        "window_recall": ref.hits["window"] / max(1, ref.truth["window"]),
        "knn_recall": ref.hits["knn"] / max(1, ref.truth["knn"]),
        "bytes_per_point": ref.end_state.size_bytes() / inp.live_at_end,
    }
    samples = {k: int(v.size) for k, v in lat_us.items()}
    detail = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": {"dist": wl.dist, "n": wl.n, "spark": wl.spark, "k": K,
                  "ops": {k: int(v) for k, v in zip(*np.unique(kinds, return_counts=True))}},
        "passes": rep.passes,
        "pace_us": float(np.median(rep.pace_ns)) / 1e3,
        "setup_builds_s": builds,
        "exact": exact,
        "failures": dict(+rep.failures),
        "index": {"height": index.height, "max_errors": list(index.max_errors())},
        "environment": environment(spark),
    }
    if trace:
        section = "per_layer"
        spans_file = OUT / f"{wl.name}.spans.jsonl"
        tracer.write(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
        metrics = layer_metrics(tracer.spans, inp.ops, rep.end_state, index.max_errors())
        metrics["trace.overhead_pct"] = 100.0 * overhead
    else:
        section = "end_to_end"
        metrics = {"setup_s": min(builds), **exact}
    spec = {m["name"]: m for m in benchmark_spec()[section]}
    if not trace:
        for name in spec:  # <kind>_us_p<q>
            kind, _, q = name.partition("_us_p")
            if q:
                metrics[name] = pct(lat_us[kind], int(q))
        detail["metrics"] = {
            k: {"better": spec[k]["better"], "samples": sample_count(k, samples, builds)}
            for k in metrics
        }
    failed = sum(detail["failures"].values())
    result = {
        "correct": failed == 0,
        "attempted": rep.attempted + len(builds),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": spec[k]["unit"]} for k, v in metrics.items()},
    }
    return result, detail


def sample_count(metric: str, samples: dict, builds: list) -> int:
    """How many values a metric summarises: distinct operations of its
    kind, builds for setup_s, one end state for bytes_per_point."""
    if metric == "setup_s":
        return len(builds)
    kind = metric.split("_", 1)[0]
    return samples.get(kind, 1)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def toy(wl):
    """The workload at a size that builds in seconds, for the self-test."""
    from repro.core.rsmi import RSMIParams

    return replace(
        wl,
        n=3000,
        reads={k: max(1, v // 10) for k, v in wl.reads.items()},
        stream={k: max(1, v // 10) for k, v in wl.stream.items()},
        params=RSMIParams(B=20, N=500, epochs_leaf=40, epochs_inner=20),
    )


def selftest() -> int:
    """Toy-size check of the metric sets, of exact counts across traced and
    untraced runs, and of the refusal to run without a working ``repro``."""
    from loadgen import WORKLOADS

    problems = []
    spark = None
    try:
        for wl in map(toy, WORKLOADS.values()):
            if wl.spark and spark is None:
                spark = start_spark(len(os.sched_getaffinity(0)))
            runs = {t: run_workload(wl, 1, 1.0, t, spark if wl.spark else None) for t in (False, True)}
            for t, section in ((False, "end_to_end"), (True, "per_layer")):
                units = {m["name"]: m["unit"] for m in benchmark_spec()[section]}
                result, detail = runs[t]
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != units:
                    problems.append(f"{wl.name} trace={int(t)}: metrics {sorted(set(got) ^ set(units))}")
                if not result["correct"]:
                    problems.append(f"{wl.name} trace={int(t)}: failures {detail['failures']}")
            if runs[False][1]["exact"] != runs[True][1]["exact"]:
                problems.append(f"{wl.name}: exact counts differ between traced and untraced runs")
            print(f"selftest {wl.name}: ok so far, {len(problems)} problem(s)", file=sys.stderr)
    finally:
        if spark is not None:
            stop_spark(spark)
    problems += refusals()
    for p in problems:
        print("selftest FAIL:", p, file=sys.stderr)
    print("selftest", "passed" if not problems else "failed", file=sys.stderr)
    return 1 if problems else 0


def refusals() -> list[str]:
    """The runner must exit non-zero and print no result when ``src/`` is
    missing (only BENCHMARK.json and this directory) or ``repro`` is broken."""
    problems = []
    here = Path(__file__).resolve().parent
    for case in ("missing", "broken"):
        root = OUT / f"selftest-{case}"
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(here, root / here.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", root)
        if case == "broken":
            shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
            (root / "src/repro/core/rsmi.py").write_text("raise RuntimeError('broken')\n")
        proc = subprocess.run(
            [sys.executable, f"{here.name}/run.py", "--workload", "query-skewed",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append(f"{case} repro: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        shutil.rmtree(root, ignore_errors=True)
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    import_repro()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    if args.selftest:
        return selftest()
    from loadgen import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    spark = start_spark(len(os.sched_getaffinity(0))) if wl.spark else None
    try:
        result, detail = run_workload(wl, args.seed, args.seconds, bool(args.trace), spark)
    finally:
        if spark is not None:
            stop_spark(spark)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
