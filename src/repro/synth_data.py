"""Spatial point data for the RSMI reproduction (Qi et al., PVLDB 2020).

Paper datasets -> ours:

* Uniform / Normal / Skewed: generated as in the paper (unit square;
  Skewed raises uniform y to the power alpha=4, following HRR).
* Tiger (real, 17M) -> "tiger": seeded 64-cluster Gaussian mixture plus a
  20% uniform background (clustered geography substitute).
* OSM (real, 100M+) -> "osm": 256 Gaussian clusters with Zipf-weighted
  populations (extreme city-centred density skew substitute).

Generation is deterministic in ``seed`` and chunked into ``_N_CHUNKS``
fixed chunks, so the Spark (mapInPandas, partition-parallel) and numpy
paths produce bit-identical data for any worker count.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


SPATIAL_DISTRIBUTIONS = ("uniform", "normal", "skewed", "tiger", "osm")
_N_CHUNKS = 16


def _cluster_params(dist: str, seed: int):
    g = _rng(seed ^ 0x5EED)
    if dist == "tiger":
        k = 64
        centers = g.random((k, 2))
        sigmas = g.uniform(0.005, 0.05, k)
        weights = np.full(k, 0.8 / k)
        background = 0.2
    else:  # osm
        k = 256
        centers = g.random((k, 2))
        sigmas = g.uniform(0.002, 0.02, k)
        ranks = np.arange(1, k + 1)
        w = 1.0 / ranks**1.2
        weights = 0.95 * w / w.sum()
        background = 0.05
    return centers, sigmas, weights, background


def _gen_spatial_chunk(dist: str, count: int, seed: int, base_seed: int) -> pd.DataFrame:
    """One deterministic chunk of points in the unit square."""
    g = _rng(seed)
    if dist == "uniform":
        x, y = g.random(count), g.random(count)
    elif dist == "normal":
        x = np.clip(g.normal(0.5, 0.2, count), 0.0, 1.0)
        y = np.clip(g.normal(0.5, 0.2, count), 0.0, 1.0)
    elif dist == "skewed":
        x = g.random(count)
        y = g.random(count) ** 4  # alpha = 4, as in the paper / HRR
    elif dist in ("tiger", "osm"):
        centers, sigmas, weights, background = _cluster_params(dist, base_seed)
        k = len(centers)
        comp = g.choice(k + 1, size=count, p=np.append(weights, background))
        x = g.random(count)
        y = g.random(count)
        clustered = comp < k
        ci = comp[clustered]
        x[clustered] = centers[ci, 0] + g.normal(0, 1, clustered.sum()) * sigmas[ci]
        y[clustered] = centers[ci, 1] + g.normal(0, 1, clustered.sum()) * sigmas[ci]
        x, y = np.clip(x, 0.0, 1.0), np.clip(y, 0.0, 1.0)
    else:
        raise ValueError(f"unknown spatial distribution {dist!r}")
    return pd.DataFrame({"x": x, "y": y})


def _chunk_sizes(n: int) -> list[int]:
    base = n // _N_CHUNKS
    sizes = [base] * _N_CHUNKS
    for i in range(n - base * _N_CHUNKS):
        sizes[i] += 1
    return [s for s in sizes if s > 0] or [0]


def spatial_points_np(dist: str, n: int, seed: int = 0) -> np.ndarray:
    """``(n, 2)`` float64 array of points in the unit square (driver path)."""
    parts = []
    for ci, cnt in enumerate(_chunk_sizes(n)):
        pdf = _gen_spatial_chunk(dist, cnt, seed * 1_000_003 + ci, seed)
        parts.append(pdf[["x", "y"]].to_numpy())
    return np.concatenate(parts) if parts else np.empty((0, 2))


def spatial_points(
    spark: SparkSession, dist: str, n: int, seed: int = 0
) -> DataFrame:
    """Spark DataFrame ``(id long, x double, y double)``; generated
    partition-parallel with ``mapInPandas`` and bit-identical to
    :func:`spatial_points_np` (ids are the row positions there)."""
    sizes = _chunk_sizes(n)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    meta = spark.createDataFrame(
        pd.DataFrame(
            {
                "chunk": np.arange(len(sizes), dtype=np.int64),
                "cnt": np.asarray(sizes, dtype=np.int64),
                "off": offsets[:-1].astype(np.int64),
            }
        )
    ).repartition(len(sizes), "chunk")

    def gen(batches):
        for pdf in batches:
            for _, row in pdf.iterrows():
                out = _gen_spatial_chunk(
                    dist, int(row.cnt), seed * 1_000_003 + int(row.chunk), seed
                )
                out.insert(0, "id", np.arange(int(row.off), int(row.off) + int(row.cnt)))
                yield out

    return meta.mapInPandas(gen, schema="id long, x double, y double")
