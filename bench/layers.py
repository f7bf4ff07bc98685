"""Per-layer metrics: the attributes the traced run wraps, and what it derives from them.

Layers are the package's modules. A traced run wraps the module attributes
through which one layer calls another (see `install`), and also times a few
public functions directly on fixed inputs (`probes`), for calls too small
and too frequent to wrap without changing them.
"""

from __future__ import annotations

import statistics
import time

from workloads import MODEL_BACKENDS, SIZING

LAYERS = ("cli", "simulate", "batch", "analytics", "segments", "optimize", "bloom", "protocol", "bench")


def _on_fp(tracer, args, result, ns):
    tracer.counters[f"evals.{result.backend}"] += 1
    tracer.counters[f"fp_ns.{result.backend}"] += ns
    tracer.counters["clamped"] += bool(result.clamped)


def _on_recovery(tracer, args, result, ns):
    tracer.counters["packets"] += 1
    tracer.counters["arrangements"] += len(result.arrangements)


def _on_edges(tracer, args, result, ns):
    tracer.counters["true_edges"] += args[0].hop_count - 1
    tracer.counters["positive_edges"] += len(result)


def _eager(walk):
    # the oracle consumes `_walk` lazily; listing it inside the span charges
    # the enumeration to `segments` instead of interleaving it with `analytics`
    return lambda *args: iter(list(walk(*args)))


def install(tracer, mods) -> None:
    """Wrap the cross-layer attributes of `clbf`; `tracer.restore()` undoes it."""
    cli, sim, batch, an, opt, proto = mods.cli, mods.simulate, mods.batch, mods.analytics, mods.optimize, mods.protocol
    p = tracer.patch
    p(cli, "main", "cli.main", "cli")
    p(cli, "run_sweep", "simulate.run_sweep", "simulate")
    p(cli, "fp_probability", "analytics.fp_probability", "analytics", hook=_on_fp)
    p(cli, "optimize_k2", "optimize.optimize_k2", "optimize")
    p(cli, "split_budget", "optimize.split_budget", "optimize")
    p(sim, "run_point", "simulate.run_point", "simulate")
    p(sim, "fp_probability", "analytics.fp_probability", "analytics", hook=_on_fp)
    p(batch, "run_point_counts", "batch.run_point_counts", "batch")
    p(batch, "trial_rng", "simulate.trial_rng", "simulate")
    p(batch, "draw_trial_path", "simulate.draw_trial_path", "simulate")
    p(batch, "recover_provenance", "batch.fallback", "protocol", hook=_on_recovery)
    p(opt, "optimize_k2", "optimize.optimize_k2", "optimize")
    p(opt, "fp_probability", "analytics.fp_probability", "analytics", hook=_on_fp)
    p(an, "occupancy_pmf_vector", "analytics.occupancy_pmf_vector", "analytics")
    p(an, "critical_pair_histogram", "analytics.critical_pair_histogram", "analytics")
    p(an, "critical_pair_histogram_closed", "analytics.critical_pair_histogram_closed", "analytics")
    p(an, "fp_subset_totals", "analytics.fp_subset_totals", "analytics")
    p(an, "count_valid_sequences", "segments.count_valid_sequences", "segments")
    p(an, "_walk", "segments.enumerate", "segments", adapt=_eager)
    p(proto, "recover_provenance", "protocol.recover_provenance", "protocol", hook=_on_recovery)
    p(proto, "recover_edges", "protocol.recover_edges", "protocol", hook=_on_edges)
    p(proto, "recover_paths", "protocol.recover_paths", "protocol")
    p(proto, "recover_locations", "protocol.recover_locations", "protocol")
    clbf = proto.Clbf
    p(clbf, "create", "protocol.create", "protocol")
    p(clbf, "to_bytes", "protocol.to_bytes", "protocol")
    p(clbf, "from_bytes", "protocol.from_bytes", "protocol")
    # called 15 to 400 times per packet: totals only, no span per call
    p(clbf, "embed_source", "protocol.embed_source", "protocol", record=False)
    p(clbf, "embed_forward", "protocol.embed_forward", "protocol", record=False)
    p(mods.bloom.BloomFilter, "insert", "bloom.insert", "bloom", record=False)
    p(mods.bloom.BloomFilter, "contains", "bloom.contains", "bloom", record=False)


def _ns_per_call(fn, items, repeats: int = 5) -> float:
    """Median over repeats of the mean time of ``fn(item)``, in ns."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for item in items:
            fn(item)
        runs.append((time.perf_counter_ns() - t0) / len(items))
    return statistics.median(runs)


def probes(mods) -> dict[str, float]:
    """Direct timings of small public functions, at the rsu-decode geometry."""
    bloom, proto = mods.bloom, mods.protocol
    keys = [proto.edge_key(a, b, pid) for pid in range(8) for a in range(16) for b in range(16) if a != b]
    edge = bloom.BloomFilter(128, 3, 7)
    for key in keys[:14]:
        edge.insert(key)
    fresh = bloom.BloomFilter(200, 8, 8)
    occ_trials, occ_h = 2048, 15
    occupancy = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        mods.batch.occupancy_counts(200, 8, occ_h, occ_trials)
        occupancy.append((time.perf_counter_ns() - t0) / (occ_trials * occ_h))
    return {
        "bloom.contains_ns": _ns_per_call(edge.contains, keys),
        "bloom.insert_ns": _ns_per_call(fresh.insert, keys),
        "bloom.hash_indices_ns": _ns_per_call(lambda k: bloom.hash_indices(k, 200, 8, 8), keys),
        "batch.occupancy_counts_ns_per_key": statistics.median(occupancy),
    }


def _per(total: float, count: float, scale: float) -> float:
    return total / count / scale if count else 0.0


def layer_metrics(tracer, traced, plain, presets, overhead: float, probe: dict) -> dict[str, float]:
    """Per-layer metrics from a traced window (``traced``) and its untraced twin (``plain``)."""
    t, c = tracer, tracer.counters
    m: dict[str, float] = {}
    batch_trials = 0
    for preset in presets:
        trials = traced.work_by_label.get(preset, 0)
        batch_trials += trials
        sample = t.total_ns("simulate.trial_rng", preset) + t.total_ns("simulate.draw_trial_path", preset)
        total = t.total_ns("batch.run_point_counts", preset)
        m[f"simulate.sample_us_per_trial.{preset}"] = _per(sample, trials, 1e3)
        m[f"batch.run_point_counts_us_per_trial.{preset}"] = _per(total, trials, 1e3)
        m[f"batch.non_sampling_us_per_trial.{preset}"] = _per(total - sample, trials, 1e3)
    m["simulate.trial_rng_us"] = _per(t.total_ns("simulate.trial_rng"), t.calls("simulate.trial_rng"), 1e3)
    m["batch.fallback_ratio"] = _per(t.calls("batch.fallback"), batch_trials, 1)
    m["batch.occupancy_counts_ns_per_key"] = probe["batch.occupancy_counts_ns_per_key"]
    model_column = sum(t.total_ns("analytics.fp_probability", preset) for preset in presets)
    sim_passes = len(traced.passes) if batch_trials else 0
    m["cli.model_column_s"] = _per(model_column, sim_passes, 1e9)

    evals = sum(c[f"evals.{b}"] for b in MODEL_BACKENDS)
    m["analytics.occupancy_pmf_vector_ms"] = _per(t.total_ns("analytics.occupancy_pmf_vector"), evals, 1e6)
    m["analytics.critical_pair_histogram_ms"] = _per(
        t.total_ns("analytics.critical_pair_histogram"), c["evals.oracle"], 1e6
    )
    m["analytics.critical_pair_histogram_closed_ms"] = _per(
        t.total_ns("analytics.critical_pair_histogram_closed"), c["evals.closed_form"], 1e6
    )
    m["analytics.fp_subset_totals_ms"] = _per(t.total_ns("analytics.fp_subset_totals"), evals, 1e6)
    for backend in MODEL_BACKENDS:
        m[f"analytics.fp_probability_ms.{backend}"] = _per(c[f"fp_ns.{backend}"], c[f"evals.{backend}"], 1e6)
    m["analytics.clamped_eval_ratio"] = _per(c["clamped"], evals, 1)
    m["segments.count_valid_sequences_us"] = _per(
        t.total_ns("segments.count_valid_sequences"), t.calls("segments.count_valid_sequences"), 1e3
    )
    m["segments.enumerate_valid_sequences_ms"] = _per(
        t.total_ns("segments.enumerate"), t.calls("segments.enumerate"), 1e6
    )
    m["optimize.optimize_k2_s"] = _per(
        t.total_ns("optimize.optimize_k2", "k2-only"), t.calls("optimize.optimize_k2", "k2-only"), 1e9
    )
    m["optimize.split_budget_s"] = _per(t.total_ns("optimize.split_budget"), t.calls("optimize.split_budget"), 1e9)
    sizing_calls = sum(t.calls("cli.main", label) for label in SIZING)
    sizing_evals = sum(t.calls("analytics.fp_probability", label) for label in SIZING)
    m["optimize.fp_evals_per_call"] = _per(sizing_evals, sizing_calls, 1)

    m.update({k: v for k, v in probe.items() if k.startswith("bloom.")})
    packets = c["packets"]
    m["protocol.recover_edges_ms"] = _per(t.total_ns("protocol.recover_edges"), packets, 1e6)
    m["protocol.recover_paths_us"] = _per(t.total_ns("protocol.recover_paths"), packets, 1e3)
    m["protocol.recover_locations_us"] = _per(t.total_ns("protocol.recover_locations"), packets, 1e3)
    m["protocol.from_bytes_us"] = _per(t.total_ns("protocol.from_bytes"), t.calls("protocol.from_bytes"), 1e3)
    m["protocol.extra_edges_per_packet"] = _per(
        c["positive_edges"] - c["true_edges"], t.calls("protocol.recover_edges"), 1
    )
    m["protocol.arrangements_per_packet"] = _per(c["arrangements"], packets, 1)
    m["protocol.true_edge_ratio"] = _per(c["true_edges"], c["positive_edges"], 1)
    m["protocol.embed_forward_us"] = _per(
        t.total_ns("protocol.embed_forward"), t.calls("protocol.embed_forward"), 1e3
    )
    builds = plain.calls.get("build")
    m["protocol.build_p50_us"] = statistics.median(builds) * 1e6 if builds else 0.0

    for layer, share in t.self_shares(LAYERS).items():
        m[f"self_share.{layer}"] = share
    m["trace.overhead_ratio"] = overhead
    m["trace.spans_per_unit"] = _per(len(t.spans), sum(w for w, _ in traced.passes), 1)
    return m
