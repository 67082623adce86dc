"""Block storage substrate tests."""
import numpy as np
import pytest

from repro.geo import mbr as M
from repro.storage.blocks import Block, BlockFile


def _bf(n=95, cap=10, seed=0):
    rng = np.random.default_rng(seed)
    ids = np.arange(n, dtype=np.int64)
    xs, ys = rng.random(n), rng.random(n)
    bf = BlockFile(cap)
    bf.pack(ids, xs, ys)
    return bf, ids, xs, ys


def test_pack_block_count():
    bf, *_ = _bf(95, 10)
    assert bf.n_primary == 10  # ceil(95/10)


def test_pack_exact_multiple():
    bf, *_ = _bf(100, 10)
    assert bf.n_primary == 10
    assert all(b.count == 10 for b in bf.blocks)


def test_pack_empty_creates_one_block():
    bf = BlockFile(10)
    base = bf.pack(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
    assert base == 0 and bf.n_primary == 1 and bf.blocks[0].count == 0


def test_pack_preserves_order():
    bf, ids, xs, ys = _bf()
    got_ids, got_xs, got_ys = bf.all_points()
    assert np.array_equal(got_ids, ids)
    assert np.array_equal(got_xs, xs)
    assert np.array_equal(got_ys, ys)


def test_read_counts_accesses():
    bf, *_ = _bf()
    assert bf.accesses == 0
    bf.chain(0)
    bf.chain(3)
    assert bf.accesses == 2
    bf.reset_stats()
    assert bf.accesses == 0


def test_charge():
    bf, *_ = _bf()
    bf.charge(5)
    assert bf.accesses == 5


def test_block_find():
    bf, ids, xs, ys = _bf()
    b = bf.blocks[2]
    assert b.find(float(b.xs[3]), float(b.ys[3])) == int(b.ids[3])
    assert b.find(-1.0, -1.0) is None


def test_index_of_is_first_exact_match():
    """``index_of`` gives the first slot the two-mask rule
    ``(xs == x) & (ys == y)`` finds over the live prefix, or -1: shared
    x values, duplicates, -0.0 against 0.0, NaN and slots past ``count``."""
    pts = [(0.5, 0.1), (0.5, 0.2), (0.3, 0.2), (0.5, 0.2), (-0.0, 0.0),
           (np.nan, 0.4), (0.6, np.nan), (0.0, -0.0), (0.7, 0.7), (0.9, 0.9)]
    b = Block(12)
    for pid, (x, y) in enumerate(pts):
        b.add(100 + pid, x, y)
    b.count = 9  # (0.9, 0.9) lingers past the live prefix
    probes = pts + [(0.0, 0.0), (0.5, 0.3), (0.3, 0.1), (np.nan, np.nan), (1.0, 1.0)]
    for x, y in probes:
        hit = np.flatnonzero((b.live_xs == x) & (b.live_ys == y))
        want = int(hit[0]) if hit.size else -1
        assert b.index_of(x, y) == want, (x, y)
        assert b.find(x, y) == (None if want < 0 else 100 + want)
    assert [b.index_of(*p) for p in [(0.5, 0.2), (0.0, 0.0), (np.nan, 0.4), (0.9, 0.9)]] == [1, 4, -1, -1]


def test_insert_into_with_space():
    bf, *_ = _bf(95, 10)  # last block has 5 points
    created = bf.insert_into(9, 1000, 0.5, 0.5)
    assert not created
    assert bf.blocks[9].count == 6
    assert bf.n_overflow == 0


def test_insert_into_full_creates_overflow():
    bf, *_ = _bf(100, 10)
    created = bf.insert_into(4, 1000, 0.5, 0.5)
    assert created
    assert bf.n_overflow == 1
    assert bf.overflow_len(4) == 1
    chain = bf.chain_uncounted(4)
    assert len(chain) == 2
    assert chain[1].find(0.5, 0.5) == 1000


def test_overflow_chain_grows():
    bf, *_ = _bf(10, 10)
    for i in range(25):
        bf.insert_into(0, 100 + i, 0.1, 0.1 + i * 1e-6)
    assert bf.overflow_len(0) == 3  # 10 + 25 points over cap-10 blocks
    ids, _, _ = bf.all_points()
    assert len(ids) == 35


def test_chain_counts_accesses():
    bf, *_ = _bf(10, 10)
    bf.insert_into(0, 999, 0.5, 0.5)
    bf.reset_stats()
    chain = bf.chain(0)
    assert len(chain) == 2
    assert bf.accesses == 2


def test_find_reads_in_order_and_stops_at_hit():
    bf, ids, xs, ys = _bf()
    assert bf.find([3, 1, 2], float(xs[12]), float(ys[12])) == 12
    assert bf.accesses == 2  # blocks 3 and 1; block 2 is never read
    bf.reset_stats()
    assert bf.find(range(bf.n_primary), -1.0, -1.0) is None
    assert bf.accesses == bf.n_primary


def test_find_reads_overflow_chain():
    bf, *_ = _bf(10, 10)
    bf.insert_into(0, 999, 0.5, 0.5)
    bf.reset_stats()
    assert bf.find([0], 0.5, 0.5) == 999
    assert bf.accesses == 2


def test_scan_returns_chains_in_order():
    bf, ids, xs, ys = _bf()
    bf.insert_into(4, 999, 0.5, 0.5)
    bf.reset_stats()
    got_ids, got_xs, got_ys = bf.scan([4, 0])
    assert got_ids.tolist() == list(range(40, 50)) + [999] + list(range(10))
    assert got_xs[10] == 0.5 and got_ys[:10].tolist() == ys[40:50].tolist()
    assert bf.accesses == 3


def test_scan_filters_closed_rect():
    bf, ids, xs, ys = _bf()
    rect = (float(xs[5]), 0.0, 1.0, float(ys[5]))
    got, _, _ = bf.scan(range(bf.n_primary), rect)
    m = (xs >= rect[0]) & (xs <= rect[2]) & (ys >= rect[1]) & (ys <= rect[3])
    assert got.tolist() == ids[m].tolist() and 5 in got
    assert bf.accesses == bf.n_primary


def test_scan_nothing():
    bf, *_ = _bf()
    got_ids, got_xs, got_ys = bf.scan([])
    assert got_ids.dtype == np.int64 and len(got_ids) == len(got_xs) == len(got_ys) == 0
    got_ids, _, _ = bf.scan([0], (5.0, 5.0, 6.0, 6.0))
    assert len(got_ids) == 0


def test_remove_charges_once_per_chain_probed():
    bf, ids, xs, ys = _bf(20, 10)
    bf.insert_into(0, 999, 0.5, 0.5)
    bf.reset_stats()
    assert bf.remove([1, 0], 0.5, 0.5) == 999
    assert bf.accesses == 2
    assert bf.remove([1, 0], 0.5, 0.5) is None
    assert bf.accesses == 4


def test_delete_from():
    bf, ids, xs, ys = _bf()
    pid = bf.delete_from(1, float(xs[12]), float(ys[12]))
    assert pid == 12
    assert bf.blocks[1].count == 9
    got, _, _ = bf.all_points()
    assert 12 not in got


def test_delete_missing_returns_none():
    bf, *_ = _bf()
    assert bf.delete_from(0, -5.0, -5.0) is None


def test_delete_swaps_with_last():
    bf, ids, xs, ys = _bf(20, 10)
    last_id = int(bf.blocks[0].ids[9])
    bf.delete_from(0, float(xs[0]), float(ys[0]))
    assert int(bf.blocks[0].ids[0]) == last_id


def test_delete_then_insert_reuses_space():
    bf, ids, xs, ys = _bf(10, 10)
    bf.delete_from(0, float(xs[0]), float(ys[0]))
    created = bf.insert_into(0, 77, 0.9, 0.9)
    assert not created and bf.n_overflow == 0


def test_mbr_of_includes_overflow():
    bf, *_ = _bf(10, 10)
    bf.insert_into(0, 55, 7.0, 9.0)
    m = bf.mbrs[0]
    assert m[2] == 7.0 and m[3] == 9.0


@pytest.mark.parametrize("n", [1, 9, 10, 95, 100])
def test_pack_mbrs_equal_per_block_reference(n):
    """``pack``'s one-pass MBRs are bit for bit each block's own MBR, for a
    run appended after earlier blocks too."""
    bf, *_ = _bf(7, 10, seed=1)
    rng = np.random.default_rng(n)
    xs, ys = rng.normal(0, 1e3, n), rng.random(n)
    base = bf.pack(np.arange(n), xs, ys)
    assert base == 1
    for i in range(base, bf.n_primary):
        b = bf.blocks[i]
        assert tuple(bf.mbrs[i]) == M.of_points(b.live_xs, b.live_ys)


def test_block_mbr_empty():
    bf = BlockFile(4)
    bf.pack(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
    m = bf.mbrs[0]
    assert m[0] == np.inf and m[2] == -np.inf


def test_size_bytes_accounts_overflow():
    bf, *_ = _bf(100, 10)
    s0 = bf.size_bytes()
    bf.insert_into(0, 1, 0.5, 0.5)
    assert bf.size_bytes() == s0 + BlockFile.HEADER_BYTES + 10 * BlockFile.POINT_BYTES


def test_remove_at_boundaries():
    b = Block(4)
    for i in range(3):
        b.add(i, float(i), float(i))
    b.remove_at(2)
    assert b.count == 2 and set(b.live_ids.tolist()) == {0, 1}
    b.remove_at(0)
    assert b.count == 1


def test_add_full_block_returns_false():
    b = Block(2)
    assert b.add(0, 0.0, 0.0)
    assert b.add(1, 1.0, 1.0)
    assert not b.add(2, 2.0, 2.0)
