"""Spark-parallel RSMI construction.

The RSMI build is level-synchronous: every level is a bag of independent
model-training tasks (one per partition/group), which is exactly the
shape ``groupBy().applyInPandas()`` parallelises. The driver keeps the
(cheap) routing bookkeeping — predicting group membership and assembling
the tree — while all MLP training (the dominant cost, cf. paper Fig. 7b)
runs on executors.

``spark_runner(spark)`` plugs into :meth:`repro.core.rsmi.RSMI.build`;
each task ships whole and runs through the same
:func:`repro.core.rsmi.run_task` as the serial build, so both builds get
the same routing and block layout, with weights equal up to the BLAS
summation order of the process that trains them (tested in
``tests/test_rsmi_spark.py``).
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.rsmi import RSMI, RSMIParams, run_task

_IN_SCHEMA = "gid long, task binary"
_OUT_SCHEMA = "gid long, payload binary"


def spark_runner(spark: SparkSession):
    """A ``runner(tasks, params)`` that trains one level's models on
    executors: one row per task, ``(gid, pickled task)``, one group per
    row, and the pickled payload back."""

    def runner(tasks: list[dict], params: RSMIParams) -> list[dict]:
        if not tasks:
            return []
        shipped = pd.DataFrame(
            {
                "gid": np.arange(len(tasks), dtype=np.int64),
                "task": [pickle.dumps(t) for t in tasks],
            }
        )
        sdf = spark.createDataFrame(shipped, schema=_IN_SCHEMA).repartition(
            max(len(tasks), spark.sparkContext.defaultParallelism), "gid"
        )

        def train(pdf: pd.DataFrame) -> pd.DataFrame:
            payload = run_task(pickle.loads(pdf["task"].iloc[0]), params)
            return pd.DataFrame(
                {"gid": [pdf["gid"].iloc[0]], "payload": [pickle.dumps(payload)]}
            )

        rows = (
            sdf.groupBy("gid").applyInPandas(train, schema=_OUT_SCHEMA).collect()
        )
        by_gid = {r["gid"]: pickle.loads(bytes(r["payload"])) for r in rows}
        if len(by_gid) != len(tasks):
            missing = sorted(set(range(len(tasks))) - set(by_gid))
            raise RuntimeError(f"training tasks lost in shuffle: {missing}")
        return [by_gid[g] for g in range(len(tasks))]

    return runner


def build_rsmi_spark(
    spark: SparkSession,
    df: DataFrame,
    params: RSMIParams | None = None,
) -> RSMI:
    """Build an RSMI from a Spark DataFrame ``(id, x, y)``.

    The point set is collected to the driver (the index itself is a
    driver-resident structure, as in the paper's single-machine setup);
    all per-partition model training is distributed via
    :func:`spark_runner`.
    """
    pdf = df.select("id", "x", "y").toPandas()
    ids = pdf["id"].to_numpy(np.int64)
    xy = pdf[["x", "y"]].to_numpy()
    # Canonical point order (by id) so the build is independent of Spark's
    # scan/partition order.
    order = np.argsort(ids, kind="stable")
    return RSMI(params).build(ids[order], xy[order], runner=spark_runner(spark))
