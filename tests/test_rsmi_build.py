"""RSMI construction invariants."""
import numpy as np
import pytest

from repro.core.rsmi import (
    RSMI,
    RSMIParams,
    _Inner,
    _Leaf,
    grid_cell_values,
    path_seed,
)
from tests.conftest import DISTS, _build, make_dataset, small_rsmi_params
from tests.test_block_accesses import INDICES, new_points


def _leaves(idx):
    out, stack = [], [idx.root]
    while stack:
        n = stack.pop()
        if isinstance(n, _Leaf):
            out.append(n)
        else:
            stack.extend(n.children.values())
    return out


@pytest.mark.parametrize("dist", DISTS)
def test_all_points_stored_exactly_once(built_indices, datasets, dist):
    idx = built_indices("RSMI", dist)
    ids, xy = datasets[dist]
    got, _, _ = idx.bf.all_points()
    assert sorted(got.tolist()) == sorted(ids.tolist())


@pytest.mark.parametrize("dist", DISTS)
def test_leaf_sizes_respect_threshold(built_indices, dist):
    idx = built_indices("RSMI", dist)
    for leaf in _leaves(idx):
        # Forced leaves (degenerate splits) may exceed N, but normal
        # builds on these data sets should not produce them.
        assert leaf.n_points <= idx.params.N


@pytest.mark.parametrize("dist", DISTS)
def test_error_bounds_actually_bound(built_indices, datasets, dist):
    """For every indexed point, the leaf prediction +- (err_l, err_a)
    must cover its true block (Algorithm 1 correctness)."""
    idx = built_indices("RSMI", dist)
    for leaf in _leaves(idx):
        for j in range(leaf.nblk):
            b = idx.bf.blocks[leaf.base + j]
            for x, y in zip(b.live_xs, b.live_ys):
                pred = leaf.predict_block(float(x), float(y))
                assert pred - leaf.err_l <= j <= pred + leaf.err_a


@pytest.mark.parametrize("dist", DISTS)
def test_every_point_descends_to_its_leaf(built_indices, dist):
    """The routing half of exact bounds: queries route with the same
    model evaluation the build grouped by, so every indexed point reaches
    the leaf whose blocks hold it."""
    idx = built_indices("RSMI", dist)
    for leaf in _leaves(idx):
        for j in range(leaf.nblk):
            b = idx.bf.blocks[leaf.base + j]
            for x, y in zip(b.live_xs.tolist(), b.live_ys.tolist()):
                assert idx._descend(x, y)[0] is leaf


def test_blocks_follow_recursive_partition_order(built_indices):
    idx = built_indices("RSMI", "skewed")
    leaves = sorted(_leaves(idx), key=lambda l: l.base)
    for a, b in zip(leaves, leaves[1:]):
        assert a.base + a.nblk == b.base  # contiguous, no gaps


def test_height_and_model_count(built_indices):
    idx = built_indices("RSMI", "skewed")
    assert idx.height >= 2  # n=3000 > N=500 forces recursion
    assert idx.n_models == len(_leaves(idx)) + _count_inner(idx)


def _count_inner(idx):
    c, stack = 0, [idx.root]
    while stack:
        n = stack.pop()
        if isinstance(n, _Inner):
            c += 1
            stack.extend(n.children.values())
    return c


def test_small_dataset_single_leaf():
    ids, xy = make_dataset("uniform", 100, 1)
    idx = RSMI(small_rsmi_params()).build(ids, xy)
    assert idx.height == 1
    assert isinstance(idx.root, _Leaf)
    assert idx.root.nblk == 5  # 100 points / B=20


def test_build_deterministic():
    ids, xy = make_dataset("skewed", 1200, 2)
    a = RSMI(small_rsmi_params()).build(ids, xy)
    b = RSMI(small_rsmi_params()).build(ids, xy)
    ga, _, _ = a.bf.all_points()
    gb, _, _ = b.bf.all_points()
    assert np.array_equal(ga, gb)
    assert a.max_errors() == b.max_errors()
    assert a.height == b.height


def test_mbrs_contain_children(built_indices, datasets):
    idx = built_indices("RSMI", "tiger")
    _, xy = datasets["tiger"]
    r = idx.root.mbr
    assert r[0] <= xy[:, 0].min() and r[2] >= xy[:, 0].max()
    stack = [idx.root]
    while stack:
        n = stack.pop()
        if isinstance(n, _Inner):
            for c in n.children.values():
                assert n.mbr[0] <= c.mbr[0] and n.mbr[2] >= c.mbr[2]
                assert n.mbr[1] <= c.mbr[1] and n.mbr[3] >= c.mbr[3]
                stack.append(c)


def _assert_mbrs_cover(bf, chains):
    for i in chains:
        m = bf.mbrs[i]
        for b in bf.chain_uncounted(i):
            if b.count:
                assert m[0] <= b.live_xs.min() and m[2] >= b.live_xs.max()
                assert m[1] <= b.live_ys.min() and m[3] >= b.live_ys.max()


@pytest.mark.parametrize("name", INDICES)
def test_block_mbrs_cover_block_points(datasets, name):
    """Every chain's MBR in the block file covers its live points at
    build, after the pinned insert sequence, after its deletes, and (RSMI)
    over the live leaves after an RSMIr rebuild."""
    ids, xy = datasets["skewed"]
    idx = _build(name, ids, xy)
    _assert_mbrs_cover(idx.bf, range(idx.bf.n_primary))
    for pid, x, y in new_points(ids, xy):
        idx.insert(int(pid), float(x), float(y))
    _assert_mbrs_cover(idx.bf, range(idx.bf.n_primary))
    for x, y in xy[::5]:
        idx.delete(float(x), float(y))
    _assert_mbrs_cover(idx.bf, range(idx.bf.n_primary))
    if name == "RSMI":
        _, nxy = make_dataset("skewed", 3000, 7)
        for pid, (x, y) in enumerate(nxy, start=2 * len(ids)):
            idx.insert(pid, float(x), float(y))
        assert idx.rebuild_oversized() > 0
        for leaf in _leaves(idx):
            _assert_mbrs_cover(idx.bf, range(leaf.base, leaf.base + leaf.nblk))


def test_grid_cell_values_equidepth():
    _, xy = make_dataset("skewed", 1600, 3)
    cv, C = grid_cell_values(xy, N=500, B=20, curve="hilbert")
    assert C == 16  # floor(log4 500/20) = 2 -> 4x4 grid
    counts = np.bincount(cv, minlength=C)
    # Equi-depth grid: every cell holds ~n/C points.
    assert counts.max() <= int(np.ceil(1600 / 16)) + 2
    assert counts.min() >= 1600 // 16 - 2


def test_grid_cell_values_handles_tiny_ratio():
    _, xy = make_dataset("uniform", 200, 4)
    cv, C = grid_cell_values(xy, N=30, B=20, curve="hilbert")
    assert C == 4  # minimum 2x2 grid
    assert cv.min() >= 0 and cv.max() < C


def test_path_seed_stable_and_distinct():
    assert path_seed((1, 2), 0) == path_seed((1, 2), 0)
    assert path_seed((1, 2), 0) != path_seed((2, 1), 0)
    assert path_seed((), 0) != path_seed((), 1)


def test_construction_time_recorded(built_indices):
    idx = built_indices("RSMI", "uniform")
    assert idx.build_seconds > 0


def test_size_bytes_dominated_by_blocks(built_indices):
    idx = built_indices("RSMI", "uniform")
    assert idx.size_bytes() > idx.bf.size_bytes()
    assert idx.size_bytes() < idx.bf.size_bytes() * 2


def test_forced_leaf_on_degenerate_split():
    """Identical-x/y clusters cannot be split by the learned grid model
    beyond a point; the build must terminate via forced leaves."""
    rng = np.random.default_rng(0)
    xy = np.repeat(rng.random((3, 2)), 400, axis=0)
    xy += rng.normal(0, 1e-12, xy.shape)  # break exact ties
    ids = np.arange(len(xy))
    idx = RSMI(RSMIParams(B=20, N=100, epochs_leaf=30, epochs_inner=30)).build(ids, xy)
    got, _, _ = idx.bf.all_points()
    assert sorted(got.tolist()) == sorted(ids.tolist())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_build_rejects_non_finite_before_training(bad):
    """A NaN or infinite coordinate is refused up front, naming the first
    bad row, before any training task runs."""
    ids, xy = make_dataset("uniform", 600, 1)
    xy = xy.copy()
    xy[417, 1] = bad
    xy[500, 0] = bad
    tasks = []
    with pytest.raises(ValueError, match=r"^row 417 \(id 417\) is not finite"):
        RSMI(small_rsmi_params()).build(ids, xy, runner=lambda t, p: tasks.extend(t))
    assert tasks == []
