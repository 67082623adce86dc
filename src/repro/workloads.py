"""Query workload generation (paper Section 6.1).

Queries follow the data distribution: window-query centres and kNN query
points are sampled from the data set itself. Window size is expressed as
a percentage of the data-space area (paper sweep: 0.0006%–0.16%,
default 0.01%) with an aspect ratio (0.25–4, default 1).
Ground-truth helpers evaluate windows/kNN exactly over the raw arrays;
tests additionally cross-check the window truth through the DuckDB
oracle.
"""
from __future__ import annotations

import numpy as np

from repro.geo import mbr as M

WINDOW_SIZES_PCT = (0.0006, 0.0025, 0.01, 0.04, 0.16)
ASPECT_RATIOS = (0.25, 0.5, 1.0, 2.0, 4.0)
K_VALUES = (1, 5, 25, 125, 625)
DEFAULT_WINDOW_PCT = 0.01
DEFAULT_ASPECT = 1.0
DEFAULT_K = 25


def data_bbox(xy: np.ndarray) -> tuple[float, float, float, float]:
    return M.of_points(xy[:, 0], xy[:, 1])


def window_queries(
    xy: np.ndarray,
    n_queries: int,
    size_pct: float = DEFAULT_WINDOW_PCT,
    aspect: float = DEFAULT_ASPECT,
    seed: int = 0,
) -> np.ndarray:
    """``(n_queries, 4)`` rectangles (xlo, ylo, xhi, yhi) centred on
    sampled data points. ``size_pct`` is the window area as a percentage
    of the data-space area; ``aspect`` = width/height."""
    rng = np.random.default_rng(seed)
    xlo, ylo, xhi, yhi = data_bbox(xy)
    area = (xhi - xlo) * (yhi - ylo) * size_pct / 100.0
    w = np.sqrt(area * aspect)
    h = np.sqrt(area / aspect)
    centers = xy[rng.integers(0, len(xy), n_queries)]
    return np.stack(
        [
            centers[:, 0] - w / 2,
            centers[:, 1] - h / 2,
            centers[:, 0] + w / 2,
            centers[:, 1] + h / 2,
        ],
        axis=1,
    )


def knn_query_points(xy: np.ndarray, n_queries: int, seed: int = 0) -> np.ndarray:
    """Query points sampled from the data distribution."""
    rng = np.random.default_rng(seed)
    return xy[rng.integers(0, len(xy), n_queries)].copy()


def window_truth(ids: np.ndarray, xy: np.ndarray, rect) -> np.ndarray:
    """Exact ids inside the closed rectangle."""
    xlo, ylo, xhi, yhi = rect
    m = (xy[:, 0] >= xlo) & (xy[:, 0] <= xhi) & (xy[:, 1] >= ylo) & (xy[:, 1] <= yhi)
    return ids[m]


def knn_truth(ids: np.ndarray, xy: np.ndarray, q, k: int) -> np.ndarray:
    """Exact kNN ids (nearest first)."""
    d = np.hypot(xy[:, 0] - q[0], xy[:, 1] - q[1])
    k = min(k, len(ids))
    part = np.argpartition(d, k - 1)[:k]
    return ids[part[np.argsort(d[part], kind="stable")]]
