"""Vectorised space-filling curves (Z-curve and Hilbert curve).

Both curves map integer grid coordinates ``(x, y)`` with ``0 <= x, y <
2**order`` to a one-dimensional curve value in ``[0, 4**order)``. All
functions are numpy-vectorised and operate on int64 arrays; ``order`` may
be up to 31 so curve values fit in a signed 64-bit integer.

The Z-curve (Morton order) interleaves coordinate bits; the Hilbert curve
uses the standard iterative rotate-and-reflect construction. The Hilbert
curve has better locality (no long diagonal jumps), which is why RSMI
defaults to it for ordering points in rank space.
"""
from __future__ import annotations

import numpy as np

MAX_ORDER = 31


def _as_int64(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    return arr


def _check(order: int, *coords: np.ndarray) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    side = np.int64(1) << order
    for c in coords:
        if c.size and (c.min() < 0 or c.max() >= side):
            raise ValueError(
                f"coordinates out of range [0, {side}) for order {order}"
            )


# ---------------------------------------------------------------------------
# Z-curve (Morton)
# ---------------------------------------------------------------------------

def _part1by1(x: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of each value: bit i -> bit 2*i."""
    x = x & np.int64(0xFFFFFFFF)
    x = (x | (x << 16)) & np.int64(0x0000FFFF0000FFFF)
    x = (x | (x << 8)) & np.int64(0x00FF00FF00FF00FF)
    x = (x | (x << 4)) & np.int64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << 2)) & np.int64(0x3333333333333333)
    x = (x | (x << 1)) & np.int64(0x5555555555555555)
    return x


def _compact1by1(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_part1by1`: bit 2*i -> bit i."""
    x = x & np.int64(0x5555555555555555)
    x = (x | (x >> 1)) & np.int64(0x3333333333333333)
    x = (x | (x >> 2)) & np.int64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x >> 4)) & np.int64(0x00FF00FF00FF00FF)
    x = (x | (x >> 8)) & np.int64(0x0000FFFF0000FFFF)
    x = (x | (x >> 16)) & np.int64(0x00000000FFFFFFFF)
    return x


def z_encode(x, y, order: int) -> np.ndarray:
    """Morton code of ``(x, y)``: y bits at odd positions, x at even."""
    x, y = _as_int64(x), _as_int64(y)
    _check(order, x, y)
    return _part1by1(x) | (_part1by1(y) << 1)


def _spread(v: int) -> int:
    """:func:`_part1by1` of one value below ``2**32``, on Python ints."""
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    return (v | (v << 1)) & 0x5555555555555555


def z_encode_one(x: int, y: int) -> int:
    """:func:`z_encode` of one cell, on Python ints, without the range
    check: the caller passes a cell already clamped into the grid."""
    return _spread(x) | (_spread(y) << 1)


def z_decode(z, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`z_encode`; returns ``(x, y)``."""
    z = _as_int64(z)
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    return _compact1by1(z), _compact1by1(z >> 1)


# ---------------------------------------------------------------------------
# Hilbert curve
# ---------------------------------------------------------------------------

def hilbert_encode(x, y, order: int) -> np.ndarray:
    """Hilbert curve value (distance along the curve) of ``(x, y)``."""
    x, y = _as_int64(x).copy(), _as_int64(y).copy()
    _check(order, x, y)
    d = np.zeros_like(x)
    s = np.int64(1) << (order - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant so recursion sees a canonical orientation.
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        x, y = np.where(swap, y_f, x_f), np.where(swap, x_f, y_f)
        s >>= 1
    return d


def hilbert_decode(d, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`hilbert_encode`; returns ``(x, y)``."""
    d = _as_int64(d).copy()
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    x = np.zeros_like(d)
    y = np.zeros_like(d)
    t = d.copy()
    s = np.int64(1)
    top = np.int64(1) << order
    while s < top:
        rx = (t // 2) & 1
        ry = (t ^ rx) & 1
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - 1 - x, x)
        y_f = np.where(flip, s - 1 - y, y)
        x, y = np.where(swap, y_f, x_f), np.where(swap, x_f, y_f)
        x += s * rx
        y += s * ry
        t //= 4
        s <<= 1
    return x, y


def curve_encode(x, y, order: int, curve: str) -> np.ndarray:
    """Dispatch on curve name: ``'hilbert'`` or ``'z'``."""
    if curve == "hilbert":
        return hilbert_encode(x, y, order)
    if curve == "z":
        return z_encode(x, y, order)
    raise ValueError(f"unknown curve {curve!r}")


def order_for(n: int) -> int:
    """Smallest curve order whose grid side covers ``n`` distinct values."""
    if n <= 1:
        return 1
    return min(MAX_ORDER, max(1, int(np.ceil(np.log2(n)))))
