"""Rank-space transformation (the R-tree packing ordering of [37, 38]).

Maps ``n`` points to an ``n x n`` grid in which every row and every column
contains exactly one point: a point's rank-space x-coordinate is its rank
when sorting by ``(x, y)`` and its rank-space y-coordinate its rank when
sorting by ``(y, x)`` (the secondary key breaks ties, as in the paper's
Fig. 3 example). The transform equalises gaps between curve values, which
is the property RSMI exploits to get a learnable CDF.

Two implementations: a numpy one for per-partition / leaf-level use, and a
Spark one built on window functions for dataset-scale use. Both are
oracle-tested against DuckDB's ``rank()``.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.geo import sfc


def rank_space_np(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of each point in x-order and y-order (0-based, ties broken
    by the other coordinate). Returns ``(rank_x, rank_y)`` aligned with
    the input arrays."""
    n = len(x)
    rank_x = np.empty(n, dtype=np.int64)
    rank_y = np.empty(n, dtype=np.int64)
    # lexsort: last key is primary.
    rank_x[np.lexsort((y, x))] = np.arange(n)
    rank_y[np.lexsort((x, y))] = np.arange(n)
    return rank_x, rank_y


def curve_values_np(
    x: np.ndarray, y: np.ndarray, curve: str = "hilbert"
) -> np.ndarray:
    """Curve value of every point in rank space (the leaf ordering key)."""
    rank_x, rank_y = rank_space_np(x, y)
    order = sfc.order_for(len(x))
    return sfc.curve_encode(rank_x, rank_y, order, curve)


def rank_space_order_np(
    x: np.ndarray, y: np.ndarray, curve: str = "hilbert"
) -> np.ndarray:
    """Permutation that sorts the points by rank-space curve value.

    This is the packing order: every consecutive ``B`` indices of the
    returned permutation form one block. Ties (impossible for points with
    distinct coordinates, since rank space is a permutation matrix) are
    broken by index for determinism.
    """
    cv = curve_values_np(x, y, curve)
    return np.argsort(cv, kind="stable")


def rank_space_spark(df: DataFrame, x: str = "x", y: str = "y") -> DataFrame:
    """Add 0-based ``rank_x``/``rank_y`` columns via window functions.

    ``row_number() over (order by x, y)`` matches the paper's
    tie-breaking rule exactly. The single-partition windows are fine at
    reproduction scale (<= ~1.3M rows); a production variant would use
    ``zipWithIndex``-style range partitioned sort, which Catalyst cannot
    express for global row numbering without a global window.
    """
    wx = Window.orderBy(F.col(x).asc(), F.col(y).asc())
    wy = Window.orderBy(F.col(y).asc(), F.col(x).asc())
    return df.withColumn("rank_x", F.row_number().over(wx) - F.lit(1)).withColumn(
        "rank_y", F.row_number().over(wy) - F.lit(1)
    )

