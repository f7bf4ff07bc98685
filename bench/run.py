"""Benchmark of the clbf package: three closed-loop workloads, one caller each.

Run from the repository root:

    python3 bench/run.py --workload rsu-decode --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` spends half the window untraced and half with every
cross-layer call wrapped, and reports the per-layer metrics instead. The
last line of standard output is one JSON object: correct, attempted,
failed, metrics. Human-readable lines above it repeat every metric with
its unit and record the host. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import pkgutil
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import layers
from tracing import Tracer
from workloads import WORKLOADS, Tally

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
SETUP_REPEATS = 5

MODULES = {
    "bloom": "bloom", "segments": "segments", "analytics": "analytics", "optimize": "optimize",
    "protocol": "protocol", "simulate": "simulate", "batch": "_batch", "scenario": "scenario",
    "cli": "cli",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def fresh_import() -> SimpleNamespace:
    """Import the package from this checkout's `src`, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "clbf" or n.startswith("clbf.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        mods = {key: importlib.import_module(f"clbf.{mod}") for key, mod in MODULES.items()}
        # every submodule, so that the cache scan at set-up sees all of them
        for info in pkgutil.iter_modules(sys.modules["clbf"].__path__, "clbf."):
            importlib.import_module(info.name)
    except ImportError as exc:
        raise BenchError(f"cannot import clbf from {SRC}: {exc}") from None
    origin = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if origin != os.path.join(SRC, "clbf"):
        raise BenchError(f"clbf was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def host() -> str:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (
        f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} "
        f"python={platform.python_version()} numpy={numpy.__version__}"
    )


def run_window(wl, tally, seconds: float, start: int, tracer=None) -> int:
    """Run passes until ``seconds`` have gone by; returns the next pass index."""
    deadline = time.perf_counter() + seconds
    index = start
    while True:
        if tracer is None:
            wl.run_pass(index, tally)
        else:
            with tracer.region("bench.pass", "bench"):
                wl.run_pass(index, tally)
        index += 1
        if time.perf_counter() >= deadline:
            return index


def inputs_digest(wl) -> str:
    return hashlib.sha256(repr(wl.inputs).encode()).hexdigest()


def set_up(cls, seed: int):
    """Import, preset load and input generation, repeated; returns the last workload."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = fresh_import()
        pins = load_json(os.path.join(BENCH, "pins.json"))
        wl = cls(mods, ROOT, seed, pins)
        times.append(time.perf_counter() - t0)
        digests.add(inputs_digest(wl))
    return wl, statistics.median(times), digests


def digest_elsewhere(workload: str, seed: int) -> str:
    """The inputs' digest from one set-up in a child process with another string-hash seed."""
    hash_seed = (int(os.environ.get("PYTHONHASHSEED", "0") or 0) + 1) % 2**32
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--inputs-digest"]
    try:
        child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        return "timeout"
    lines = child.stdout.split()
    return lines[-1] if child.returncode == 0 and lines else f"exit {child.returncode}"


def measure(args) -> tuple[dict, dict]:
    wl, setup_s, digests = set_up(WORKLOADS[args.workload], args.seed)
    other = digest_elsewhere(args.workload, args.seed)
    info = {"host": host(), "inputs_sha256": sorted(digests), "checks": {}}
    info["checks"]["inputs identical across set-ups"] = len(digests) == 1
    info["checks"]["inputs identical under another PYTHONHASHSEED"] = digests == {other}
    if not args.trace:
        tally = Tally()
        run_window(wl, tally, args.seconds, 0)
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **wl.end_to_end(tally),
        }
        tallies = [tally]
    else:
        plain, traced = Tally(), Tally()
        nxt = run_window(wl, plain, args.seconds / 2, 0)
        tracer = Tracer()
        layers.install(tracer, wl.mods)
        wl.tracer = tracer
        try:
            run_window(wl, traced, args.seconds / 2, nxt, tracer)
        finally:
            tracer.restore()
            wl.tracer = None
        cost = [sum(s for _, s in t.passes) / sum(w for w, _ in t.passes) for t in (plain, traced)]
        overhead = cost[1] / cost[0] - 1.0
        presets = wl.mods.scenario.PRESETS
        metrics = layers.layer_metrics(tracer, traced, plain, presets, overhead, layers.probes(wl.mods))
        out = os.path.join(BENCH, "out")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "fields": [
            "id", "parent", "name", "context", "start_ns", "end_ns"]})
        info["trace"] = path
        info["self_s"] = {layer: tracer.self_ns.get(layer, 0) / 1e9 for layer in layers.LAYERS}
        info["fallbacks"] = tracer.calls("batch.fallback")
        info["spans"] = len(tracer.spans)
        tallies = [plain, traced]
    info["checks"]["caches cold at every call"] = all(t.cold_violations == 0 for t in tallies)
    info["attempted"] = sum(t.attempted for t in tallies)
    info["failed"] = sum(t.failed for t in tallies)
    info["errors"] = [e for t in tallies for e in t.errors][:8]
    info["unit"] = wl.unit
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs-digest", action="store_true",
                    help="set up once, print the SHA-256 of the generated inputs and stop")
    args = ap.parse_args(argv)
    if args.inputs_digest:
        try:
            wl = WORKLOADS[args.workload](fresh_import(), ROOT, args.seed,
                                          load_json(os.path.join(BENCH, "pins.json")))
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        print(inputs_digest(wl))
        return 0
    try:
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        metrics, info = measure(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    info["checks"]["metric names match BENCHMARK.json"] = set(metrics) == set(units)
    if set(metrics) != set(units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# host: {info['host']}")
    print(f"# inputs sha256: {' '.join(info['inputs_sha256'])}")
    print(f"# work unit: {info['unit']}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    if args.trace:
        for layer, seconds in info["self_s"].items():
            print(f"# self time {layer}: {seconds:.6f} s")
        print(f"# fallback trials in the traced half: {info['fallbacks']}")
        print(f"# {info['spans']} spans written to {os.path.relpath(info['trace'], ROOT)}")
    failed, attempted = info["failed"], info["attempted"]
    print(f"failed_ratio = {failed / attempted!r} ({failed}/{attempted})")
    for check, ok in info["checks"].items():
        print(f"# self-check {'ok  ' if ok else 'FAIL'} {check}")
    for err in info["errors"]:
        print(f"# failure: {err}")
    result = {
        "correct": failed == 0 and all(info["checks"].values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
