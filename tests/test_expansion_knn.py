"""Algorithm 3's best-k merge against the loop it replaced.

``seen_set_knn`` is the earlier ``expansion_knn``: it remembers every id a
window returned in a set and merges only ids it has not seen. The current
loop keeps no such set; these tests hold it to the same ids, in the same
order, and the same block accesses, on RSMI and ZM.
"""
import numpy as np
import pytest

from repro import workloads
from repro.baselines.api import expansion_knn
from repro.baselines.zm import ZM, ZMParams
from repro.core.rsmi import RSMI
from tests.conftest import TEST_B, TEST_N, small_rsmi_params


def seen_set_knn(x, y, k, n, pmf_x, pmf_y, window_fn, max_rounds=40):
    if k <= 0 or n == 0:
        return np.empty(0, dtype=np.int64)
    k_eff = min(k, n)
    base = np.sqrt(k_eff / max(n, 1))
    width = max(1e-9, pmf_x.slope_alpha(x) * base)
    height = max(1e-9, pmf_y.slope_alpha(y) * base)

    best_ids = np.empty(0, dtype=np.int64)
    best_d = np.empty(0)
    seen: set[int] = set()
    for _ in range(max_rounds):
        ids, xs, ys = window_fn(x - width / 2, y - height / 2, x + width / 2, y + height / 2)
        if ids.size:
            fresh = np.fromiter(
                (i for i, pid in enumerate(ids) if int(pid) not in seen),
                dtype=np.int64,
                count=-1,
            )
            if fresh.size:
                seen.update(int(p) for p in ids[fresh])
                d = np.hypot(xs[fresh] - x, ys[fresh] - y)
                best_ids = np.concatenate([best_ids, ids[fresh]])
                best_d = np.concatenate([best_d, d])
                keep = np.argsort(best_d, kind="stable")[:k_eff]
                best_ids, best_d = best_ids[keep], best_d[keep]
        if best_ids.size < k_eff:
            width *= 2
            height *= 2
        elif best_d[-1] > min(width, height) / 2:
            width = height = 2 * best_d[-1]
        else:
            break
    return best_ids


def assert_same_as_oracle(idx, queries, ks):
    for x, y in queries:
        for k in ks:
            args = (x, y, k, idx.n_points, idx.pmf_x, idx.pmf_y, idx._window_pts)
            idx.reset_stats()
            want = seen_set_knn(*args)
            want_acc = idx.block_accesses
            idx.reset_stats()
            got = idx.knn_query(x, y, k)
            assert idx.block_accesses == want_acc, (x, y, k)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want, err_msg=f"q=({x}, {y}) k={k}")
            assert np.array_equal(expansion_knn(*args), want)


OUTSIDE = [(-0.5, 0.5), (1.5, 1.5), (0.5, -3.0), (40.0, -25.0)]


@pytest.mark.parametrize("name", ["RSMI", "ZM"])
def test_same_ids_as_seen_set_loop(built_indices, datasets, name):
    idx = built_indices(name, "skewed")
    ids, xy = datasets["skewed"]
    inside = [tuple(q) for q in workloads.knn_query_points(xy, 12, seed=7).tolist()]
    n = len(ids)
    assert n == TEST_N
    assert_same_as_oracle(idx, inside + OUTSIDE, (1, 10, 25, n, n + 3))


@pytest.fixture(scope="module")
def tie_indices():
    """A 15 x 15 lattice with every point stored twice, plus a third copy
    of the centre: many points share coordinates, and a query on a lattice
    point or a cell centre is equally far from whole rings of them."""
    g = np.linspace(0.0, 1.0, 15)
    lattice = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    xy = np.concatenate([lattice, lattice, [[g[7], g[7]]]])
    ids = np.arange(len(xy), dtype=np.int64)
    return {
        "RSMI": RSMI(small_rsmi_params()).build(ids, xy),
        "ZM": ZM(ZMParams(B=TEST_B, epochs=80)).build(ids, xy),
    }, g


@pytest.mark.parametrize("name", ["RSMI", "ZM"])
def test_same_ids_as_seen_set_loop_on_ties(tie_indices, name):
    indices, g = tie_indices
    idx = indices[name]
    h = (g[1] - g[0]) / 2
    queries = [(g[7], g[7]), (g[0], g[0]), (g[3], g[11]), (g[7] + h, g[7] + h),
               (g[2] + h, g[9]), (g[14] + h, g[14] + h)] + OUTSIDE
    n = idx.n_points
    assert_same_as_oracle(idx, [(float(x), float(y)) for x, y in queries], (1, 10, 25, n, n + 3))
