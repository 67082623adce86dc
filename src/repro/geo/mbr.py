"""Minimum bounding rectangle utilities shared by all indices.

An MBR is a 4-tuple/array ``(xlo, ylo, xhi, yhi)``. Vectorised variants
take an ``(m, 4)`` array of MBRs so tree nodes can evaluate all children
at once.
"""
from __future__ import annotations

import numpy as np

EMPTY = (np.inf, np.inf, -np.inf, -np.inf)


def of_points(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """MBR of a non-empty point set."""
    return (float(x.min()), float(y.min()), float(x.max()), float(y.max()))


def cells(b, side: int, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Column and row of each point ``(x, y)`` on a ``side x side`` grid
    over ``b``, clamped into the grid; a zero-width side counts as 1.
    The clamp comes before the cast to int, which would turn an infinite
    or huge coordinate into INT64_MIN; NaN lands in cell 0."""
    fx = (np.asarray(x) - b[0]) / ((b[2] - b[0]) or 1.0) * side
    fy = (np.asarray(y) - b[1]) / ((b[3] - b[1]) or 1.0) * side
    hi = side - 1
    return (
        np.fmin(np.fmax(fx, 0), hi).astype(np.int64),
        np.fmin(np.fmax(fy, 0), hi).astype(np.int64),
    )


def cell(b, side: int, x: float, y: float) -> tuple[int, int]:
    """:func:`cells` of one point, on Python floats and ints: the same
    IEEE operations, clamp and truncation."""
    hi = side - 1
    fx = (x - b[0]) / ((b[2] - b[0]) or 1.0) * side
    fy = (y - b[1]) / ((b[3] - b[1]) or 1.0) * side
    return int(min(hi, max(0.0, fx))), int(min(hi, max(0.0, fy)))


def merge(a, b) -> tuple[float, float, float, float]:
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def expand(a, x: float, y: float) -> tuple[float, float, float, float]:
    return (min(a[0], x), min(a[1], y), max(a[2], x), max(a[3], y))


def intersects(a, b) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def mindist(a, x: float, y: float) -> float:
    """MINDIST metric of [40]: Euclidean distance from a point to an MBR
    (0 when the point is inside)."""
    dx = max(a[0] - x, 0.0, x - a[2])
    dy = max(a[1] - y, 0.0, y - a[3])
    return float(np.hypot(dx, dy))


# -- vectorised over (m, 4) arrays of MBRs ---------------------------------

def v_intersects(m: np.ndarray, b) -> np.ndarray:
    return (m[:, 0] <= b[2]) & (b[0] <= m[:, 2]) & (m[:, 1] <= b[3]) & (b[1] <= m[:, 3])


def v_points_in(xs: np.ndarray, ys: np.ndarray, b) -> np.ndarray:
    """Mask of the points ``(xs[i], ys[i])`` inside the closed MBR ``b``."""
    return (xs >= b[0]) & (xs <= b[2]) & (ys >= b[1]) & (ys <= b[3])


def v_mindist(m: np.ndarray, x: float, y: float) -> np.ndarray:
    dx = np.maximum(np.maximum(m[:, 0] - x, 0.0), x - m[:, 2])
    dy = np.maximum(np.maximum(m[:, 1] - y, 0.0), y - m[:, 3])
    return np.hypot(dx, dy)


def v_area(m: np.ndarray) -> np.ndarray:
    return np.maximum(m[:, 2] - m[:, 0], 0.0) * np.maximum(m[:, 3] - m[:, 1], 0.0)


def v_margin(m: np.ndarray) -> np.ndarray:
    return np.maximum(m[:, 2] - m[:, 0], 0.0) + np.maximum(m[:, 3] - m[:, 1], 0.0)


def v_merge_point(m: np.ndarray, x: float, y: float) -> np.ndarray:
    """Each MBR enlarged to include point (x, y); returns a new array."""
    out = m.copy()
    out[:, 0] = np.minimum(out[:, 0], x)
    out[:, 1] = np.minimum(out[:, 1], y)
    out[:, 2] = np.maximum(out[:, 2], x)
    out[:, 3] = np.maximum(out[:, 3], y)
    return out
