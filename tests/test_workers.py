"""The worker pool: pooled points equal one inline run, errors travel, the pool is lazy."""

import concurrent.futures
import gc
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from clbf import _batch, bloom, cli, protocol
from clbf.bloom import ParameterError
from clbf.cli import main
from clbf.scenario import _PRESET_TEXT, PRESETS, load_preset, load_scenario
from clbf.segments import ResourceCapError
from clbf.simulate import SWEEPABLE, PlacementSpec, SimulationSetup, run_point, run_sweep

SRC = str(Path(__file__).resolve().parents[1] / "src")


def setup_of(placement, n, delta, h, **filters):
    geometry = dict(m1=128, k1=2, m2=32, k2=2)
    geometry.update(filters)
    return SimulationSetup(
        n_nodes=n, num_segments=delta, road_length_m=100.0 * delta,
        placement=placement, h=h, **geometry,
    )


@pytest.fixture
def two_workers(monkeypatch):
    """Two CPUs whatever the host has, and a record of every queued range."""
    queued = []
    submit = _batch._submit
    monkeypatch.setattr(_batch, "_cpu_count", lambda: 2)
    monkeypatch.setattr(_batch, "_submit", lambda w, *a: queued.append(a[1:3]) or submit(w, *a))
    return queued


def assert_pooled_equals_inline(setup, trials, base_seed, point_tag, queued):
    codes = _batch._run(setup, 0, trials, base_seed, point_tag)
    labels = [_batch._LABELS[c] for c in codes.tolist()]
    counts = tuple(np.bincount(codes, minlength=len(_batch._LABELS)).tolist())
    assert _batch.run_point_classifications(setup, trials, base_seed, point_tag) == labels
    ranges = list(queued)
    assert len(ranges) >= 2 and ranges[0][0] == 0 and ranges[-1][1] == trials
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    queued.clear()
    assert _batch.run_point_counts(setup, trials, base_seed, point_tag) == counts
    assert queued == ranges
    return counts


@pytest.mark.parametrize("preset", PRESETS)
def test_pooled_point_equals_one_inline_run_on_presets(preset, two_workers):
    scn = load_preset(preset)
    param, values = scn.sweep
    setup = replace(scn.setup, **{SWEEPABLE[param]: values[0]})
    assert_pooled_equals_inline(setup, 1100, scn.base_seed, 3, two_workers)


def test_pooled_point_with_skipped_trials(two_workers):
    setup = setup_of(PlacementSpec("random"), 10, 4, 4)
    counts = assert_pooled_equals_inline(setup, 1100, 17, 1, two_workers)
    assert counts[3] > 0  # about one trial in ten finds no staffable sequence


def test_pooled_point_with_scalar_redos(two_workers, monkeypatch):
    # the rank draw rejects about 43% of its 32-bit draws: those trials are
    # redone on the scalar path
    setup = setup_of(PlacementSpec("free"), 40, 17, 33, m1=4096, k1=3, m2=512)
    redone = []
    scalar = _batch.draw_trial_path
    monkeypatch.setattr(_batch, "draw_trial_path", lambda *a: redone.append(1) or scalar(*a))
    _batch._run(setup, 0, 1030, 5, 0)
    assert len(redone) > 300
    assert_pooled_equals_inline(setup, 1030, 5, 0, two_workers)


@pytest.mark.parametrize("trials", [700, 1201])
def test_pooled_point_off_the_range_size(trials, two_workers):
    # 700 cuts at one batch (512); 1201 cuts at 601, inside a batch
    setup = setup_of(PlacementSpec("uniform_per_segment", per_segment=2), 8, 4, 5)
    assert trials % _batch._ranges(trials, 2)[0][1]
    assert_pooled_equals_inline(setup, trials, 9, 2, two_workers)


def simulate_csv(tmp_path, name, cpus, monkeypatch):
    monkeypatch.setattr(_batch, "_cpu_count", lambda: cpus)
    out = tmp_path / name
    argv = ["simulate", "--preset", "hash-sweep-d8", "--trials", "300", "--out", str(out)]
    assert main(argv) == 0
    return (out / "hash-sweep-d8.csv").read_bytes()


def test_pooled_sweep_writes_the_serial_csv(tmp_path, monkeypatch, capsys):
    assert simulate_csv(tmp_path, "pooled", 2, monkeypatch) == simulate_csv(
        tmp_path, "serial", 1, monkeypatch
    )


# ---------------------------------------------------------------------------
# errors


def test_worker_error_reaches_the_caller_from_the_first_failing_point(two_workers):
    # past 2^63 feasible sequences at delta=40 and 41 alike; delta=5 is fine
    setup = setup_of(PlacementSpec("free"), 70, 5, 66, m1=4096, k1=3, m2=512)
    with pytest.raises(ParameterError) as inline:
        _batch._run(replace(setup, num_segments=40), 0, 2, 1, 1)
    with pytest.raises(ParameterError, match=r"^n=70, delta=40, hops=66: ") as err:
        run_sweep(setup, "delta", [5, 40, 41], trials=2, base_seed=1)
    assert str(err.value) == str(inline.value)
    assert len(two_workers) == 3
    assert "Traceback" in str(err.value.__cause__)  # raised in a worker


def test_cli_simulate_exits_2_on_a_worker_error(tmp_path, two_workers, capsys):
    scenario = tmp_path / "wide.ini"
    scenario.write_text(
        "[network]\nn = 70\ndelta = 40\nroad_length_m = 4000.0\nplacement = free\n"
        "hops = 66\n\n[filters]\nm1 = 4096\nk1 = 3\nm2 = 512\nk2 = 2\nseed = 7\n\n"
        "[experiment]\ntrials = 2\nbase_seed = 1\nsweep = k2:2,3\n"
    )
    rc = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)])
    assert rc == 2
    assert "n=70, delta=40, hops=66" in capsys.readouterr().err
    assert len(two_workers) == 2


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_points_run_in_full_batches(preset):
    scn = load_preset(preset)
    param, values = scn.sweep
    for value in values:
        assert _batch._batch_rows(replace(scn.setup, **{SWEEPABLE[param]: value})) == _batch.BATCH


def test_batches_shrink_to_the_memory_budget():
    free = PlacementSpec("free")
    half = _batch.BATCH_BYTES // 2
    assert _batch._batch_rows(setup_of(free, 6, 3, 4, m1=half)) == 1
    assert _batch._batch_rows(setup_of(free, 6, 3, 4, m1=_batch.BATCH_BYTES // 100)) == 99
    # the random placement's per-trial completion tables count too
    random_rows = _batch._batch_rows(setup_of(PlacementSpec("random"), 256, 200, 255))
    assert random_rows < _batch._batch_rows(setup_of(free, 256, 200, 255)) < _batch.BATCH
    with pytest.raises(ResourceCapError, match="BATCH_BYTES"):
        _batch._batch_rows(setup_of(free, 6, 3, 4, m1=_batch.BATCH_BYTES))


def test_cli_simulate_exits_4_on_a_filter_no_batch_holds(tmp_path, two_workers, capsys, monkeypatch):
    monkeypatch.setattr(_batch, "_run", None)  # refused before any range is queued
    scenario = tmp_path / "huge.ini"
    scenario.write_text(
        "[network]\nn = 6\ndelta = 3\nroad_length_m = 300.0\nplacement = free\n\n"
        f"[filters]\nm1 = {2**32 - 1}\nk1 = 3\nm2 = 64\nk2 = 2\n\n"
        "[experiment]\ntrials = 600\nbase_seed = 1\n"
    )
    rc = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 4
    assert "BATCH_BYTES" in err and "Traceback" not in err
    assert two_workers == []


def test_cli_trace_exits_4_on_a_filter_no_batch_holds(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "trial_packet", None)  # refused before the packet is built
    scenario = tmp_path / "huge.ini"
    scenario.write_text(
        "[network]\nn = 6\ndelta = 3\nroad_length_m = 300.0\nplacement = free\n\n"
        f"[filters]\nm1 = {2**32 - 1}\nk1 = 3\nm2 = 64\nk2 = 2\n\n"
        "[experiment]\ntrials = 600\nbase_seed = 1\n"
    )
    rc = main(["trace", "--scenario", str(scenario), "--trial", "0"])
    err = capsys.readouterr().err
    assert rc == 4
    assert "BATCH_BYTES" in err and "Traceback" not in err


def test_an_engine_cap_error_names_the_trial_that_trace_replays(tmp_path, capsys, monkeypatch):
    # hash-sweep-d8 through a narrow edge filter: many trials fall back to full recovery
    scenario = tmp_path / "narrow.ini"
    text = _PRESET_TEXT["hash-sweep-d8"].replace("m1 = 2048", "m1 = 64").replace("k1 = 8", "k1 = 2")
    scenario.write_text(text)
    scn = load_scenario(scenario)
    param, values = scn.sweep
    point = 3
    setup = replace(scn.setup, **{SWEEPABLE[param]: values[point]})
    monkeypatch.setattr(protocol, "PATH_CAP", 100)
    with pytest.raises(ResourceCapError) as info:
        _batch.run_point_counts(setup, 256, scn.base_seed, point)  # one range: runs inline
    match = re.fullmatch(
        r"point 3 trial (\d+) \(replay: clbf trace --point 3 --trial \1\): "
        r"path search exceeded its cap of 100",
        str(info.value),
    )
    assert match
    argv = ["trace", "--scenario", str(scenario), "--point", "3", "--trial", match[1]]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "path search exceeded its cap of 100" in err and "Traceback" not in err


def test_pool_is_rebuilt_after_a_worker_dies(two_workers):
    setup = setup_of(PlacementSpec("balanced_prefix"), 9, 5, 6)
    values = [1, 2, 3]
    first = run_sweep(setup, "k2", values, trials=600, base_seed=4)
    pool = _batch._pool
    victim = pool.submit(os.getpid).result(timeout=60)
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:  # until the pool has seen it die and reaped it
        try:
            os.kill(victim, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    assert run_sweep(setup, "k2", values, trials=600, base_seed=4) == first
    assert _batch._pool is not pool


# ---------------------------------------------------------------------------
# lifecycle


def test_import_starts_no_process():
    code = (
        "import sys, clbf, clbf.cli, clbf._batch\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
        "import multiprocessing\n"
        "assert not multiprocessing.active_children()\n"
        "assert clbf._batch._pool is None\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr


def test_one_cpu_builds_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built on one CPU")

    monkeypatch.setattr(_batch, "_cpu_count", lambda: 1)
    monkeypatch.setattr(_batch, "_pool", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    setup = setup_of(PlacementSpec("balanced_prefix"), 9, 5, 6)
    rows = run_sweep(setup, "k2", [1, 2, 3], trials=1200, base_seed=4)
    assert [r.result.trials for r in rows] == [1200] * 3
    assert run_point(replace(setup, k2=1), 1200, base_seed=4) == rows[0].result
    assert _batch._pool is None


def test_one_batch_makes_no_pool_call(monkeypatch):
    def no_call(*args):
        raise AssertionError("a job of one batch went to the pool")

    monkeypatch.setattr(_batch, "_cpu_count", lambda: 2)
    monkeypatch.setattr(_batch, "_submit", no_call)
    setup = setup_of(PlacementSpec("balanced_prefix"), 9, 5, 6)
    assert run_point(setup, _batch.BATCH, base_seed=4).trials == _batch.BATCH
    assert len(_batch.run_point_classifications(setup, 8, 4, 0)) == 8
    assert run_sweep(setup, "k2", [2], trials=_batch.BATCH, base_seed=4)[0].result.trials == 512


def test_reused_scratch_carries_nothing_from_one_point_to_the_next():
    # points of different filter widths, hop counts and batch rows, back to
    # back on one scratch, in both orders and over poisoned buffers
    points = [
        # two batches, of 512 rows and of 188
        (setup_of(PlacementSpec("free"), 8, 3, 5, m1=512, k1=3, m2=64, k2=6), 700),
        (setup_of(PlacementSpec("random"), 10, 4, 4, m1=64, k1=2, m2=200, k2=9), 130),
        (setup_of(PlacementSpec("free"), 6, 2, 2, m1=2048, k1=8, m2=24, k2=12), 40),
        (setup_of(PlacementSpec("balanced_prefix"), 12, 5, 9, m1=128, k1=4, m2=32, k2=3), 300),
        (setup_of(PlacementSpec("uniform_per_segment", per_segment=3), 9, 3, 1), 50),  # one hop
    ]
    fresh = [_batch._run(setup, 0, trials, 9, tag) for tag, (setup, trials) in enumerate(points)]
    scratch = bloom.Scratch()
    for order in (range(len(points)), reversed(range(len(points)))):
        for tag in order:
            setup, trials = points[tag]
            assert np.array_equal(_batch._run(setup, 0, trials, 9, tag, scratch), fresh[tag])
            for buf in scratch._bufs.values():
                buf.fill(0xA5)


def test_an_inline_run_holds_no_scratch_after_it_returns(monkeypatch):
    monkeypatch.setattr(_batch, "_cpu_count", lambda: 1)
    setup = setup_of(PlacementSpec("balanced_prefix"), 9, 5, 6)
    assert run_point(setup, 1200, base_seed=4).trials == 1200
    assert run_sweep(setup, "k2", [1, 2], trials=600, base_seed=4)[1].result.trials == 600
    gc.collect()
    assert _batch._worker_scratch is None
    assert not [obj for obj in gc.get_objects() if isinstance(obj, bloom.Scratch)]
