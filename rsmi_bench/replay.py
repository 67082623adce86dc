"""Replay timing. Every operation runs once per pass, each pass from an
identical index state, and is timed against the reference operation
``pace`` that ran just before it: its latency is the median over the
run's passes of its time over that pace time, times ``PACE_REF_US``.

The host this was written on (4 shared vCPUs) changes speed on two time
scales. Fast bursts of 1-3 s come and go: a pure-Python loop ran 8,500 to
16,000 iterations per 0.5 s within one minute. Slow spells of a minute or
more ran queries about 1.8x slower, and whole runs fell inside them.
Pooling every timed call let a run's share of either set its percentiles.
Taking each operation's minimum over its replays removed the bursts only
for operations whose replays caught one, which lifted p90 by up to 23% in
runs with few passes, and did nothing in a slow spell. ``pace`` is a frozen
copy of a point query's hot path; it slows with the host the way queries
do, so an operation's time over the pace time just before it hardly moves
between bursts, spells and steady periods, and the median over passes
discards the replays an interrupt or a collection disturbed.
"""
from __future__ import annotations

import copy
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from loadgen import METHOD, PACE_EVERY, Inputs, Op


class Failed:
    """An operation that raised: stands in for its result."""

    def __init__(self, exc: Exception):
        self.kind = f"error:{type(exc).__name__}"

    def __eq__(self, other):
        return isinstance(other, Failed) and other.kind == self.kind


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and np.array_equal(a, b)
        )
    return a == b


_REF = np.random.default_rng(0)
_REF_W1 = _REF.uniform(-1.0, 1.0, (2, 51))
_REF_B1 = _REF.uniform(-1.0, 1.0, 51)
_REF_W2 = _REF.uniform(-1.0, 1.0, (51, 1))
_REF_XS = _REF.random(100)
_REF_YS = _REF.random(100)


def pace() -> int:
    """A frozen copy of a point query's hot path (one model evaluation and
    one block search per level, two levels) on fixed data, timed among the
    operations like one of them. It slows with the host the way queries do,
    and no ``repro`` code runs in it, so its time gauges the host's speed
    during the run and nothing else."""
    found = 0
    for x, y in ((0.3, 0.6), (0.7, 0.2)):
        z = _REF_B1.copy()
        for c, w in zip((x, y), _REF_W1):
            z += c * w
        h = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        j = int(np.clip(round(float(h @ _REF_W2[:, 0]) * 99), 0, 99))
        hit = np.flatnonzero((_REF_XS == _REF_XS[j]) & (_REF_YS == _REF_YS[j]))
        found += int(hit[0]) if hit.size else -1
    return found


def check(op: Op, res, inp: Inputs) -> tuple[str | None, int, int]:
    """Judge one answer against truth: (failure kind or None, recall hits,
    recall denominator). Approximate misses lower recall; wrong, extra or
    missing answers are failures."""
    if isinstance(res, Failed):
        return res.kind, 0, 0
    if op.kind == "pace":
        return None, 0, 0
    if op.kind in ("point", "delete"):
        if res == op.expect:
            return None, 0, 0
        if op.expect is None:
            return f"{op.kind}_found_absent", 0, 0
        return (f"{op.kind}_missing" if res is None else f"{op.kind}_wrong"), 0, 0
    if op.kind == "insert":
        return (None if res is None else "insert_returned_value"), 0, 0
    res = np.asarray(res, dtype=np.int64)
    if np.unique(res).size != res.size:
        return f"{op.kind}_duplicate", 0, 0
    hits = int(np.intersect1d(res, op.expect).size)
    truth = op.expect.size
    if op.kind == "window":
        return (None if hits == res.size else "window_false_positive"), hits, truth
    if res.size > op.args[2] or res.size < truth:
        return "knn_wrong_count", hits, truth
    if op.on_copy:
        ok = (res < inp.born.size) & (res >= 0)
        live = ok.all() and bool(
            ((inp.born[res] < op.pos) & (inp.died[res] > op.pos)).all()
        )
    else:
        live = bool(((res >= 0) & (res < inp.ids.size)).all())
    return (None if live else "knn_false_positive"), hits, truth


# Latencies are reported at the host speed at which ``pace`` takes this long
# (about its time on the host above, in the fast bursts).
PACE_REF_US = 45.0


@dataclass
class Replays:
    """What the passes of one phase measured."""

    ratios: list = field(default_factory=list)  # per pass: op time / its pace time
    pace_ns: list = field(default_factory=list)  # per pass: median pace time
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    end_state: object = None  # the last pass's copy, or the built index

    @property
    def passes(self) -> int:
        return len(self.ratios)

    def latency_us(self) -> np.ndarray:
        """Per operation, at the reference pace."""
        return np.median(np.stack(self.ratios), axis=0) * PACE_REF_US

    def merge(self, other: "Replays") -> None:
        self.ratios += other.ratios
        self.pace_ns += other.pace_ns
        self.attempted += other.attempted
        self.failures.update(other.failures)
        self.end_state = other.end_state


@dataclass
class Reference:
    """The first pass of a run, checked against truth; later passes must
    answer exactly the same."""

    results: list
    accesses: np.ndarray
    hits: Counter
    truth: Counter
    failed_ops: frozenset
    failures: Counter
    end_state: object  # the copy after the pass, or the built index


def run_pass(index, inp: Inputs, tracer=None):
    """One timed replay of every operation, from a fresh copy of ``index``."""
    ops = inp.ops
    target = (index, copy.deepcopy(index) if any(op.on_copy for op in ops) else None)
    lat = np.empty(len(ops), dtype=np.int64)
    acc = np.empty(len(ops), dtype=np.int64)
    results = [None] * len(ops)
    clock = time.perf_counter_ns
    for i, op in enumerate(ops):
        idx = target[op.on_copy]
        fn = pace if op.kind == "pace" else getattr(idx, METHOD[op.kind])
        if tracer is not None:
            tracer.op = i
        idx.reset_stats()
        t0 = clock()
        try:
            res = fn(*op.args)
        except Exception as exc:  # a failing operation is counted, not fatal
            res = Failed(exc)
        lat[i] = clock() - t0
        acc[i] = idx.block_accesses
        results[i] = res
    if tracer is not None:
        tracer.op = None
    return lat, acc, results, target[1] if target[1] is not None else index


def reference_of(inp: Inputs, acc, results, end_state) -> Reference:
    hits, truth, failures, failed = Counter(), Counter(), Counter(), set()
    for i, (op, res) in enumerate(zip(inp.ops, results)):
        kind, h, t = check(op, res, inp)
        hits[op.kind] += h
        truth[op.kind] += t
        if kind is not None:
            failures[kind] += 1
            failed.add(i)
    return Reference(results, acc, hits, truth, frozenset(failed), failures, end_state)


def replay(index, inp: Inputs, seconds: float, ref: Reference | None, tracer=None):
    """Replay all operations in passes until ``seconds`` have passed (at
    least one pass). Returns the phase's replays and the reference, which
    the first pass of a run creates."""
    rep = Replays()
    per_pass = sum(op.kind != "pace" for op in inp.ops)
    pace_of = np.arange(len(inp.ops)) // PACE_EVERY * PACE_EVERY
    deadline = time.perf_counter() + seconds
    while rep.passes == 0 or time.perf_counter() < deadline:
        lat, acc, results, rep.end_state = run_pass(index, inp, tracer)
        rep.ratios.append(lat / lat[pace_of])
        rep.pace_ns.append(float(np.median(lat[pace_of[::PACE_EVERY]])))
        rep.attempted += per_pass
        if ref is None:
            ref = reference_of(inp, acc, results, rep.end_state)
            rep.failures.update(ref.failures)
            continue
        # Block accesses are exact: any replay, traced or not, repeats them.
        rep.failures["access_mismatch"] += int(np.count_nonzero(acc != ref.accesses))
        for i, res in enumerate(results):
            if i in ref.failed_ops:
                rep.failures[check(inp.ops[i], res, inp)[0] or "replay_mismatch"] += 1
            elif not _same(res, ref.results[i]):
                rep.failures["replay_mismatch"] += 1
    return rep, ref
