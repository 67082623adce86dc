"""Per-baseline behaviour tests (structure, stats, updates)."""
import numpy as np
import pytest

from repro.baselines.grid_file import GridFile
from repro.baselines.kdb_tree import KDBTree
from repro.baselines.rstar import RStarTree, _split_mbrs
from repro.baselines.rtree import HRRTree, TNode
from repro.baselines.zm import ZM, ZMParams
from repro.geo import mbr as M
from tests.conftest import _build, make_dataset

ALL = ("ZM", "Grid", "KDB", "HRR", "RR*")


# ---------------------------------------------------------------------------
# ZM specifics
# ---------------------------------------------------------------------------

def test_zm_three_levels(built_indices):
    idx = built_indices("ZM", "skewed")
    assert idx.height == 3
    assert idx.n_models == 1 + idx.m1 + idx.m2


def test_zm_model_counts_follow_paper_formula(built_indices, datasets):
    idx = built_indices("ZM", "skewed")
    n, B = len(datasets["skewed"][0]), idx.params.B
    assert idx.m2 == -(-n // (B * B))
    assert idx.m1 == int(np.ceil(np.sqrt(n / (B * B))))


def test_zm_error_bounds_bound_all_points(built_indices, datasets):
    idx = built_indices("ZM", "skewed")
    errl, erra = idx.max_errors()
    ids, xy = datasets["skewed"]
    for i in range(0, len(ids), 9):
        blk, el, ea = idx._predict(int(idx._to_z(xy[i : i + 1, 0], xy[i : i + 1, 1])[0]))
        true_blk = None
        for j in range(idx.nblk):
            if (idx.bf.blocks[j].live_ids == ids[i]).any():
                true_blk = j
                break
        assert blk - el <= true_blk <= blk + ea


def test_zm_scalar_z_equals_array_z(built_indices):
    """One point's Z-value, on Python ints, is the build's array encoding
    bit for bit, in and around the data space and at unbounded corners."""
    idx = built_indices("ZM", "skewed")
    xy = np.random.default_rng(4).uniform(-0.1, 1.1, (20_000, 2))
    far = [np.inf, -np.inf, 1e300, -1e300, 0.0, 0.3]
    xy = np.concatenate([xy, [(a, b) for a in far for b in far]])
    want = idx._to_z(xy[:, 0], xy[:, 1]).tolist()
    assert [idx._z_of(x, y) for x, y in xy.tolist()] == want


def test_zm_points_sorted_by_z(built_indices):
    idx = built_indices("ZM", "osm")
    assert np.all(np.diff(idx._z_sorted) >= 0)


def test_zm_worse_error_bounds_than_rsmi_on_skew(built_indices):
    """Paper Table 4's headline: ZM's bounds blow up under skew while
    RSMI's stay near the block scale."""
    zm = built_indices("ZM", "osm")
    rsmi = built_indices("RSMI", "osm")
    assert sum(zm.max_errors()) > sum(rsmi.max_errors())


def test_zm_insert_delete(index_factory):
    idx, ids, xy = index_factory("ZM")
    idx.insert(91234, 0.42, 0.2412)
    assert idx.point_query(0.42, 0.2412) == 91234
    assert idx.delete(0.42, 0.2412) == 91234
    assert idx.point_query(0.42, 0.2412) is None


# ---------------------------------------------------------------------------
# Grid specifics
# ---------------------------------------------------------------------------

def test_grid_cell_count_rule(built_indices, datasets):
    idx = built_indices("Grid", "uniform")
    n, B = len(datasets["uniform"][0]), idx.bf.cap
    assert idx.nc == int(np.ceil(np.sqrt(n / B)))


def test_grid_blocks_explode_under_skew(built_indices):
    """Dense cells own many blocks under skew — Grid's paper weakness."""
    uni = built_indices("Grid", "uniform")
    osm = built_indices("Grid", "osm")
    assert max(len(v) for v in osm.cell_blocks.values()) > max(
        len(v) for v in uni.cell_blocks.values()
    )


def test_grid_insert_into_empty_cell(index_factory):
    idx, _, _ = index_factory("Grid", "skewed")
    idx.insert(7777, 0.01, 0.999)  # sparse corner for skewed data
    assert idx.point_query(0.01, 0.999) == 7777


def test_grid_scalar_cell_equals_array_cells(built_indices):
    """One point's grid cell, on Python floats, is the build's array
    quantisation, in and around the data space and at unbounded or NaN
    corners, also on a zero-width bbox side."""
    idx = built_indices("Grid", "skewed")
    xy = np.random.default_rng(5).uniform(-0.1, 1.1, (20_000, 2))
    far = [np.inf, -np.inf, 1e300, -1e300, np.nan, 0.0, 0.3]
    xy = np.concatenate([xy, [(a, b) for a in far for b in far]])
    for bbox in (idx.bbox, (0.2, 0.4, 0.2, 0.9)):
        cx, cy = M.cells(bbox, idx.nc, xy[:, 0], xy[:, 1])
        want = list(zip(cx.tolist(), cy.tolist()))
        assert [M.cell(bbox, idx.nc, x, y) for x, y in xy.tolist()] == want


# ---------------------------------------------------------------------------
# Tree baselines
# ---------------------------------------------------------------------------

def test_kdb_fanout_respected(built_indices):
    idx = built_indices("KDB", "skewed")
    stack = [idx.root]
    while stack:
        n = stack.pop()
        if not n.is_leaf:
            assert len(n.children) <= idx.fanout
            stack.extend(n.children)


def test_kdb_leaves_fit_capacity(built_indices):
    idx = built_indices("KDB", "skewed")
    for b in idx.bf.blocks:
        assert b.count <= idx.bf.cap


def test_hrr_packs_full_leaves(built_indices, datasets):
    idx = built_indices("HRR", "uniform")
    n, B = len(datasets["uniform"][0]), idx.bf.cap
    assert idx.bf.n_primary == -(-n // B)
    assert all(b.count == B for b in idx.bf.blocks[:-1])


def test_hrr_root_mbr_covers_data(built_indices, datasets):
    idx = built_indices("HRR", "tiger")
    _, xy = datasets["tiger"]
    m = idx.root.mbr
    assert m[0] <= xy[:, 0].min() and m[2] >= xy[:, 0].max()


def test_rstar_node_invariants(built_indices):
    idx = built_indices("RR*", "skewed")
    stack = [(idx.root, None)]
    while stack:
        node, parent_mbr = stack.pop()
        if parent_mbr is not None:
            assert node.mbr[0] >= parent_mbr[0] - 1e-12
            assert node.mbr[2] <= parent_mbr[2] + 1e-12
        if not node.is_leaf:
            assert len(node.children) <= idx.fanout
            for c in node.children:
                stack.append((c, node.mbr))


def test_rstar_stores_all_points(built_indices, datasets):
    idx = built_indices("RR*", "skewed")
    ids, _ = datasets["skewed"]
    got, _, _ = idx.bf.all_points()
    assert sorted(got.tolist()) == sorted(ids.tolist())


def test_rstar_split_balanced():
    rng = np.random.default_rng(0)
    pts = rng.random((101, 2))
    mbrs = np.stack([pts[:, 0], pts[:, 1], pts[:, 0], pts[:, 1]], axis=1)
    li, ri = _split_mbrs(mbrs)
    assert len(li) + len(ri) == 101
    assert min(len(li), len(ri)) >= 40  # R* minimum fill 0.4


def test_rstar_build_slowest_hrr_fast():
    """Paper Fig. 7b shape: insertion-built RR* costs far more to build
    than bulk-loaded HRR."""
    ids, xy = make_dataset("skewed", 2000, 8)
    hrr = HRRTree(cap=20).build(ids, xy)
    rstar = RStarTree(cap=20).build(ids, xy)
    assert rstar.build_seconds > 5 * hrr.build_seconds


@pytest.mark.parametrize("name", ["KDB", "HRR", "RR*"])
def test_tree_insert_then_query(index_factory, name):
    idx, ids, xy = index_factory(name)
    for j, (x, y) in enumerate([(0.111, 0.222), (0.9, 0.05), (0.5, 0.5)]):
        idx.insert(50_000 + j, x, y)
    for j, (x, y) in enumerate([(0.111, 0.222), (0.9, 0.05), (0.5, 0.5)]):
        assert idx.point_query(x, y) == 50_000 + j


@pytest.mark.parametrize("name", ALL)
def test_delete_everywhere(index_factory, name):
    idx, ids, xy = index_factory(name)
    for i in (0, 100, 777):
        assert idx.delete(float(xy[i, 0]), float(xy[i, 1])) == ids[i]
        assert idx.point_query(float(xy[i, 0]), float(xy[i, 1])) is None


@pytest.mark.parametrize("name", ALL)
def test_stats_reset(built_indices, name):
    idx = built_indices(name, "uniform")
    idx.reset_stats()
    assert idx.block_accesses == 0
    idx.point_query(0.5, 0.5)
    assert idx.block_accesses > 0
    idx.reset_stats()
    assert idx.block_accesses == 0


@pytest.mark.parametrize("name", ALL + ("RSMI",))
def test_size_and_height_positive(built_indices, name):
    idx = built_indices(name, "normal")
    assert idx.size_bytes() > 0
    assert idx.height >= 1
    assert idx.build_seconds > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", ALL + ("RSMI",))
def test_build_rejects_non_finite(name, bad):
    """Every build refuses a NaN or infinite coordinate, naming the first
    bad row, instead of indexing it and losing a block of other points."""
    ids, xy = make_dataset("uniform", 400, 2)
    xy = xy.copy()
    xy[17] = (bad, 0.5)
    xy[300, 1] = bad
    with pytest.raises(ValueError, match=r"^row 17 \(id 17\) is not finite: "):
        _build(name, ids, xy)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", ALL + ("RSMI",))
def test_insert_rejects_non_finite(name, bad):
    """Every insert refuses a NaN or infinite coordinate, naming the point,
    before it writes anything: the index still finds every point and keeps
    its size."""
    ids, xy = make_dataset("uniform", 400, 2)
    idx = _build(name, ids, xy)
    size = idx.size_bytes()
    for j, (x, y) in enumerate([(bad, 0.5), (0.5, bad), (bad, bad)]):
        with pytest.raises(ValueError, match=r"^point \(.+\) is not finite$"):
            idx.insert(1000 + j, x, y)
    assert idx.size_bytes() == size and idx.n_points == len(ids)
    assert sorted(idx.bf.all_points()[0].tolist()) == ids.tolist()
    for pid, (x, y) in zip(ids.tolist(), xy.tolist()):
        assert idx.point_query(x, y) == pid
