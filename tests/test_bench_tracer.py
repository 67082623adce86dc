"""The benchmark's tracer wraps ``repro`` attributes by name; a rename
must fail here rather than break ``rsmi_bench/run.py --trace 1``."""
from pathlib import Path

from repro.core import rsmi, rsmi_spark
from repro.ml.mlp import MLP
from repro.ml.pmf import PiecewiseCDF
from repro.storage.blocks import Block, BlockFile

OWNERS = (rsmi.RSMI, rsmi, rsmi_spark, MLP, PiecewiseCDF, BlockFile, Block)


def _attrs():
    return [dict(vars(owner)) for owner in OWNERS]


def test_tracer_wraps_and_restores_every_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "rsmi_bench"))
    from tracer import Tracer

    before = _attrs()
    with Tracer().active():
        during = _attrs()
    after = _attrs()
    wrapped = {
        (i, name)
        for i, (b, d) in enumerate(zip(before, during))
        for name in b
        if d[name] is not b[name]
    }
    assert {(OWNERS[i].__name__, name) for i, name in wrapped} >= {
        ("BlockFile", "chain"),
        ("Block", "find"),
        ("RSMI", "window_query_blocks"),
        ("repro.core.rsmi_spark", "spark_runner"),
    }
    assert all(a[name] is b[name] for a, b in zip(after, before) for name in b)
    assert [set(a) for a in after] == [set(b) for b in before]
