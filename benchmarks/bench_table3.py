"""Table 3 benchmark: RSMI point-query latency vs partition threshold N
(paper Table 3: time is minimised near the default N)."""
import itertools

import pytest

from repro import harness

# Paper N values scaled to BENCH_N (40k) by the 16M ratio, floored to keep
# multi-block leaves (the table3_n_sweep experiment uses the literal values).
N_VALUES = (625, 1250, 2500, 5000, 10000)


@pytest.mark.parametrize("N", N_VALUES)
def test_rsmi_point_query_vs_N(benchmark, bench_data, bench_workloads, N):
    ids, xy = bench_data
    idx = harness.build_index("RSMI", ids, xy, N=N)
    pts = [(float(x), float(y)) for x, y in bench_workloads["points"]]
    it = itertools.cycle(pts)

    def op():
        x, y = next(it)
        return idx.point_query(x, y)

    benchmark.group = "table3-N-sweep"
    benchmark.extra_info["height"] = idx.height
    benchmark.extra_info["size_mb"] = round(idx.size_bytes() / 1e6, 2)
    benchmark(op)
