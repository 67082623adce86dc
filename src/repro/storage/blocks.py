"""In-memory block storage — the paper's "disk" substrate.

All indices store points in fixed-capacity blocks (B = 100 in the paper).
The paper runs everything in main memory and reports *block accesses* as
the external-memory cost proxy; we do the same. Every read of a block
(primary or overflow) increments ``accesses``; model invocations and
index-node arithmetic do not count, tree *node* visits are counted by the
tree indices themselves on the same counter via :meth:`charge`.

Insertion support follows Section 5: a new point goes to the block the
index predicts; when that block is full, a fresh *overflow* block is
chained after it (the learned error bounds cover primary blocks only).
Deletion swaps the victim with the last live point of its block; blocks
are never reclaimed on underflow, preserving error-bound validity.

Queries never touch blocks directly: an index names the primary blocks to
visit, in order, and :meth:`BlockFile.find`, :meth:`BlockFile.scan` or
:meth:`BlockFile.remove` reads, counts and filters their chains. Nor do
indices write them: every write goes through :class:`BlockFile`, which
keeps each chain's MBR up to date as it does.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.geo import mbr as M


@dataclass
class Block:
    """One disk block: up to ``cap`` points with ids and coordinates."""

    cap: int
    ids: np.ndarray = field(default=None)
    xs: np.ndarray = field(default=None)
    ys: np.ndarray = field(default=None)
    count: int = 0

    def __post_init__(self) -> None:
        if self.ids is None:
            self.ids = np.empty(self.cap, dtype=np.int64)
            self.xs = np.empty(self.cap, dtype=np.float64)
            self.ys = np.empty(self.cap, dtype=np.float64)

    # -- views over the live prefix ---------------------------------------
    @property
    def live_ids(self) -> np.ndarray:
        return self.ids[: self.count]

    @property
    def live_xs(self) -> np.ndarray:
        return self.xs[: self.count]

    @property
    def live_ys(self) -> np.ndarray:
        return self.ys[: self.count]

    def index_of(self, x: float, y: float) -> int:
        """Slot of the first live point at exactly (x, y), else -1: one
        compare over the live ``xs``, then ``ys`` only at its hits. As with
        ``==``, NaN matches nothing and -0.0 matches 0.0."""
        ys = self.ys
        for i in np.flatnonzero(self.xs[: self.count] == x).tolist():
            if ys[i] == y:
                return i
        return -1

    def find(self, x: float, y: float) -> int | None:
        """Id of the point with exactly these coordinates, else None."""
        i = self.index_of(x, y)
        return None if i < 0 else int(self.ids[i])

    def add(self, pid: int, x: float, y: float) -> bool:
        """Append a point; False when the block is full."""
        if self.count >= self.cap:
            return False
        self.ids[self.count] = pid
        self.xs[self.count] = x
        self.ys[self.count] = y
        self.count += 1
        return True

    def remove_at(self, i: int) -> None:
        """Swap-with-last removal (paper's deletion step inside a block)."""
        last = self.count - 1
        self.ids[i], self.xs[i], self.ys[i] = (
            self.ids[last],
            self.xs[last],
            self.ys[last],
        )
        self.count = last


class BlockFile:
    """A sequence of primary blocks plus per-block overflow chains.

    Primary block ids are dense ``0..n_primary-1`` and are exactly what the
    learned models predict. The logical scan order is primary block ``i``
    followed by its overflow chain, then ``i+1``, matching the paper's
    linked-block layout.

    ``mbrs[i]`` is the MBR of chain ``i``: set exactly whenever the chain
    is written (:meth:`pack`, :meth:`refill`), grown by
    :meth:`insert_into` and never shrunk by a delete, so it covers every
    live point of the chain. MBRs live in the index, not on disk: reading
    one costs no access.
    """

    HEADER_BYTES = 32  # next/prev pointers + count + flags
    POINT_BYTES = 24  # id (8) + x (8) + y (8)

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.blocks: list[Block] = []
        self._overflow: dict[int, list[Block]] = {}
        self._mbrs = np.empty((0, 4))  # grown by doubling; rows past n_primary unused
        self._retired = 0
        self.accesses = 0

    # -- writes --------------------------------------------------------------
    def pack(self, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> int:
        """Pack already-ordered points into ``ceil(n/cap)`` new primary
        blocks, at least one (a leaf always owns a block, maybe empty);
        returns the id of the first block created. The MBRs of the whole
        run come from one ``reduceat`` per MBR side."""
        base = len(self.blocks)
        starts = np.arange(0, max(len(ids), 1), self.cap)
        self.blocks.extend(Block(self.cap) for _ in starts)
        if len(self._mbrs) < len(self.blocks):
            self._mbrs = np.concatenate([self._mbrs, np.empty((len(self.blocks), 4))])
        for i, s in enumerate(starts.tolist(), base):
            e = s + self.cap
            self._write(i, ids[s:e], xs[s:e], ys[s:e])
        if len(ids):
            run = self._mbrs[base : len(self.blocks)]
            run[:, 0] = np.minimum.reduceat(xs, starts)
            run[:, 1] = np.minimum.reduceat(ys, starts)
            run[:, 2] = np.maximum.reduceat(xs, starts)
            run[:, 3] = np.maximum.reduceat(ys, starts)
        else:
            self._mbrs[base] = M.EMPTY
        return base

    def refill(self, i: int, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
        """Make chain ``i`` hold exactly these points (at most ``cap``), in
        order, in its primary block; its overflow blocks are dropped."""
        self._write(i, ids, xs, ys)
        self._mbrs[i] = M.of_points(xs, ys) if len(ids) else M.EMPTY

    def _write(self, i: int, ids: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> None:
        """Write chain ``i`` as :meth:`refill` does, leaving its MBR to the
        caller."""
        b = self.blocks[i]
        m = len(ids)
        b.ids[:m], b.xs[:m], b.ys[:m] = ids, xs, ys
        b.count = m
        self._overflow.pop(i, None)

    def retire(self, blocks: Iterable[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Empty the chains of ``blocks`` and stop counting them in
        :meth:`size_bytes`; returns their live points in logical order."""
        blocks = list(blocks)
        pts = self._points(b for i in blocks for b in self.chain_uncounted(i))
        none = np.empty(0)
        for i in blocks:
            self.refill(i, none, none, none)
        self._retired += len(blocks)
        return pts

    # -- access-counted reads ---------------------------------------------
    def charge(self, k: int = 1) -> None:
        """Charge ``k`` block accesses for non-data pages (tree nodes)."""
        self.accesses += k

    def chain(self, i: int) -> list[Block]:
        """Primary block ``i`` plus overflow chain, each read access-counted."""
        out = self.chain_uncounted(i)
        self.accesses += len(out)
        return out

    def find(self, blocks: Iterable[int], x: float, y: float) -> int | None:
        """Id of the first point at exactly (x, y), reading the chains of
        ``blocks`` in the given order and stopping at the hit."""
        for i in blocks:
            for b in self.chain(i):
                pid = b.find(x, y)
                if pid is not None:
                    return pid
        return None

    def scan(
        self, blocks: Iterable[int], rect=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(ids, xs, ys)`` of the chains of ``blocks``, in order;
        only those inside the closed ``rect`` when one is given."""
        ids, xs, ys = [], [], []
        for i in blocks:
            for b in self.chain(i):
                if b.count:
                    ids.append(b.live_ids)
                    xs.append(b.live_xs)
                    ys.append(b.live_ys)
        if not ids:
            e = np.empty(0)
            return e.astype(np.int64), e, e
        ids, xs, ys = np.concatenate(ids), np.concatenate(xs), np.concatenate(ys)
        if rect is None:
            return ids, xs, ys
        m = M.v_points_in(xs, ys, rect)
        return ids[m], xs[m], ys[m]

    def remove(self, blocks: Iterable[int], x: float, y: float) -> int | None:
        """Delete the first point at exactly (x, y) from the chains of
        ``blocks``, probed in order at one access each; its id, or None."""
        for i in blocks:
            self.charge()
            pid = self.delete_from(i, x, y)
            if pid is not None:
                return pid
        return None

    def meeting(self, rect, lo: int, hi: int, order: Iterable[int] | None = None):
        """The primary blocks in ``[lo, hi]`` whose chain MBR meets the
        closed ``rect`` (a point ``(x, y)`` is the rectangle ``(x, y, x,
        y)``), lazily, in ``order`` (default ascending). Free: the MBRs live
        in the index. The rows are read once, as Python floats, because
        numpy calls on a few rows cost more than the block reads they save."""
        xlo, ylo, xhi, yhi = rect
        mbrs = self._mbrs[lo : hi + 1].tolist()
        for i in range(lo, hi + 1) if order is None else order:
            mxlo, mylo, mxhi, myhi = mbrs[i - lo]
            if mxlo <= xhi and xlo <= mxhi and mylo <= yhi and ylo <= myhi:
                yield i

    def chain_uncounted(self, i: int) -> list[Block]:
        """Same as :meth:`chain` but free — for building/verification."""
        return [self.blocks[i], *self._overflow.get(i, ())]

    # -- updates -----------------------------------------------------------
    def insert_into(self, i: int, pid: int, x: float, y: float) -> bool:
        """Insert into primary block ``i`` or its chain; returns True if a
        new overflow block had to be created. The chain's MBR grows in
        place by the tests of ``min`` and ``max``, one row read as floats."""
        row = self._mbrs[i]
        xlo, ylo, xhi, yhi = row.tolist()
        if x < xlo:
            row[0] = x
        if y < ylo:
            row[1] = y
        if x > xhi:
            row[2] = x
        if y > yhi:
            row[3] = y
        for b in self.chain_uncounted(i):
            if b.add(pid, x, y):
                return False
        nb = Block(self.cap)
        nb.add(pid, x, y)
        self._overflow.setdefault(i, []).append(nb)
        return True

    def delete_from(self, i: int, x: float, y: float) -> int | None:
        """Delete the point with these coordinates from block ``i``'s
        chain; returns its id, or None when absent."""
        for b in self.chain_uncounted(i):
            j = b.index_of(x, y)
            if j >= 0:
                pid = int(b.ids[j])
                b.remove_at(j)
                return pid
        return None

    # -- introspection -----------------------------------------------------
    @property
    def n_primary(self) -> int:
        return len(self.blocks)

    @property
    def mbrs(self) -> np.ndarray:
        """``(n_primary, 4)``: row ``i`` is the MBR of chain ``i``."""
        return self._mbrs[: len(self.blocks)]

    @property
    def n_overflow(self) -> int:
        return sum(len(v) for v in self._overflow.values())

    def overflow_len(self, i: int) -> int:
        return len(self._overflow.get(i, ()))

    def size_bytes(self) -> int:
        nb = self.n_primary - self._retired + self.n_overflow
        return nb * (self.HEADER_BYTES + self.cap * self.POINT_BYTES)

    def reset_stats(self) -> None:
        self.accesses = 0

    def all_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every live point in logical order (for verification)."""
        return self._points(
            b for i in range(self.n_primary) for b in self.chain_uncounted(i)
        )

    @staticmethod
    def _points(chain_blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(ids, xs, ys)`` of the given blocks, concatenated."""
        live = [b for b in chain_blocks if b.count]
        if not live:
            e = np.empty(0)
            return e.astype(np.int64), e, e
        return (
            np.concatenate([b.live_ids for b in live]),
            np.concatenate([b.live_xs for b in live]),
            np.concatenate([b.live_ys for b in live]),
        )
