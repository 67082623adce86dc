#!/usr/bin/env python
"""Run the reproduction's experiments, sharing built indices.

Produces results/<name>.json — the numbers recorded in EXPERIMENTS.md.
Run: spark-submit jobs/run_all.py [name ...]   (no names: every experiment)
"""
import os
import sys

from pyspark.sql import SparkSession

from repro.experiments import JOBS, IndexCache, run


def get_spark(app: str) -> SparkSession:
    """Local session mirroring the test conftest config: Arrow on,
    broadcast joins off."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


if __name__ == "__main__":
    names = sys.argv[1:] or list(JOBS)
    unknown = [n for n in names if n not in JOBS]
    if unknown:
        sys.exit(f"unknown experiment(s): {', '.join(unknown)}\n"
                 f"valid: {', '.join(JOBS)}")
    cache = IndexCache(get_spark("run_all"))
    for name in names:
        run(name, cache)
    cache.spark.stop()
