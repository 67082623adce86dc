"""Piecewise mapping function — the paper's cheap CDF approximation.

Section 4.3: to size the initial kNN search region under skew, RSMI
estimates per-dimension skew parameters α_x, α_y from the slope of the
coordinate CDF at the query point (Eq. 6, Δ = 0.01). The CDF itself is
approximated by a γ-piece piecewise-linear function over equi-depth
partition boundaries (γ = 100 in the paper).

Every kNN query evaluates the CDF four times, so it runs on Python floats:
the knots are lists, the segment comes from ``bisect_right``, and the
interpolation and clamp are the IEEE operations of ``np.interp`` followed by
``np.clip``, in the same order, so the result is the same to the bit
without the cost of four numpy calls on one scalar.
"""
from __future__ import annotations

from bisect import bisect_right

import numpy as np

DEFAULT_GAMMA = 100
DEFAULT_DELTA = 0.01


class PiecewiseCDF:
    """Equi-depth piecewise-linear approximation of a 1-D CDF."""

    def __init__(self, values: np.ndarray, gamma: int = DEFAULT_GAMMA):
        values = np.sort(np.asarray(values, dtype=np.float64))
        n = len(values)
        gamma = max(1, min(gamma, n))
        # Boundary coordinates at equi-depth quantiles, plus both extremes.
        idx = np.unique(
            np.clip((np.arange(gamma + 1) * (n - 1)) // gamma, 0, n - 1)
        )
        self.xs: list[float] = values[idx].tolist()
        self.ps: list[float] = (idx / max(1, n - 1)).tolist()
        # Degenerate (constant) dimension: single knot.
        if self.xs[0] == self.xs[-1]:
            self.xs = self.xs[:1]
            self.ps = [1.0]

    def __call__(self, x: float) -> float:
        """CDF estimate, clamped to [0, 1]: ``np.clip(np.interp(x, xs, ps),
        0, 1)`` on Python floats. As there, ``x`` below the first knot
        gives the first value and at or above the last knot the last; at a
        knot it gives that knot's value (the last of repeated knots); where
        the line through the segment yields NaN it is taken from the right
        knot; NaN stays NaN."""
        xs, ps = self.xs, self.ps
        if len(xs) == 1:
            return 1.0 if x >= xs[0] else 0.0
        if x != x:
            return x
        j = bisect_right(xs, x) - 1
        if j < 0:
            v = ps[0]
        elif j >= len(xs) - 1 or xs[j] == x:
            v = ps[j]
        else:
            slope = (ps[j + 1] - ps[j]) / (xs[j + 1] - xs[j])
            v = slope * (x - xs[j]) + ps[j]
            if v != v:
                v = slope * (x - xs[j + 1]) + ps[j + 1]
                if v != v and ps[j] == ps[j + 1]:
                    v = ps[j]
        return min(max(v, 0.0), 1.0)

    def slope_alpha(self, x: float, delta: float = DEFAULT_DELTA) -> float:
        """Skew parameter α at ``x`` (Eq. 6): Δ over the local CDF rise.

        A flat region (no data mass) yields a large α so the search
        region stretches across the gap; we cap it at the full domain
        width over Δ to keep the window finite.
        """
        lo, hi = self(x), self(x + delta)
        rise = hi - lo
        span = (self.xs[-1] - self.xs[0]) if len(self.xs) > 1 else 1.0
        cap = max(1.0, span / max(delta, 1e-12))
        if rise <= 1e-12:
            return cap
        return float(min(cap, delta / rise))

    def size_bytes(self) -> int:
        return len(self.xs) * 16
