"""The benchmark's traced run wraps package attributes by name; they must stay wrappable."""

import sys
from pathlib import Path
from types import SimpleNamespace

from clbf import _batch, analytics, bloom, cli, optimize, protocol, simulate
from clbf.simulate import PlacementSpec, SimulationSetup, run_point

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_run_reaches_the_batch_fallback(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("layers", "tracing", "workloads"):  # bench's own modules, fresh
        monkeypatch.delitem(sys.modules, name, raising=False)
    import layers
    from tracing import Tracer

    mods = SimpleNamespace(
        cli=cli, simulate=simulate, batch=_batch, analytics=analytics,
        optimize=optimize, protocol=protocol, bloom=bloom,
    )
    # one hop pins no path down, so every trial falls back to full recovery
    setup = SimulationSetup(
        n_nodes=6, num_segments=3, road_length_m=300.0, placement=PlacementSpec("free"),
        h=1, m1=64, k1=2, m2=64, k2=2,
    )
    tracer = Tracer()
    layers.install(tracer, mods)
    try:
        result = run_point(setup, 8, base_seed=3)
    finally:
        tracer.restore()
    assert tracer.calls("batch.fallback") == result.effective == 8
    assert tracer.calls("batch.run_point_counts") == 1
    assert tracer.calls("protocol.create") == 8
    assert _batch.recover_provenance is protocol.recover_provenance  # restored


def test_cold_cache_scan_finds_the_occupancy_walk(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("layers", "tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import workloads

    assert id(analytics._occupancy_walk) in workloads.lru_caches()
