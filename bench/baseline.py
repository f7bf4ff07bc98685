"""Time the ROADMAP "Baseline" figures directly, untraced, beside the ROADMAP values.

    python3 bench/baseline.py

Runs once, in about a minute (split_budget alone takes ~25 s). Each figure
is the median of a few cold repeats; split_budget runs once. The batch
figures use each preset's default point (no sweep applied) at 2048 trials.
"""

from __future__ import annotations

import statistics
import time

from run import fresh_import

BATCH_TRIALS = 2048

# (figure, ROADMAP value, unit)
ROADMAP = {
    "batch total hash-sweep-d8": (133, "us/trial"),
    "batch sampling hash-sweep-d8": (71, "us/trial"),
    "batch total hash-sweep-d16": (161, "us/trial"),
    "batch sampling hash-sweep-d16": (70, "us/trial"),
    "batch total width-sweep": (91, "us/trial"),
    "batch sampling width-sweep": (42, "us/trial"),
    "batch total segment-sweep": (175, "us/trial"),
    "batch sampling segment-sweep": (78, "us/trial"),
    "trial_rng": (19, "us"),
    "oracle histogram delta=16 L=15": (125, "ms"),
    "occupancy m2=3854 throws=640": (1448, "ms"),
    "split_budget(4096, h=10, n=16, delta=4)": (23.5, "s"),
}
SCALE = {"us/trial": 1e6, "us": 1e6, "ms": 1e3, "s": 1.0}


def timed(fn, repeats: int = 3, before=None) -> float:
    runs = []
    for _ in range(repeats):
        if before:
            before()
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def main() -> None:
    mods = fresh_import()
    sim, an = mods.simulate, mods.analytics
    measured = {}
    for preset in mods.scenario.PRESETS:
        scn = mods.scenario.load_preset(preset)
        setup, seg = scn.setup, scn.setup.segment_dictionary()

        def sample(setup=setup, seg=seg, base=scn.base_seed):
            for t in range(BATCH_TRIALS):
                rng = sim.trial_rng(sim.derive_trial_seed(base, 0, t))
                sim.draw_trial_path(setup.placement, setup.n_nodes, seg, setup.h, rng)

        total = timed(lambda: mods.batch.run_point_counts(setup, BATCH_TRIALS, scn.base_seed, 0))
        measured[f"batch total {preset}"] = total / BATCH_TRIALS
        measured[f"batch sampling {preset}"] = timed(sample) / BATCH_TRIALS
    measured["trial_rng"] = timed(lambda: [sim.trial_rng(s) for s in range(20000)]) / 20000

    def clear():
        for fn in (an._occupancy_exact, an.critical_pair_histogram, an.critical_pair_histogram_closed,
                   an.fp_subset_totals):
            fn.cache_clear()

    measured["oracle histogram delta=16 L=15"] = timed(lambda: an.critical_pair_histogram(16, 15), before=clear)
    measured["occupancy m2=3854 throws=640"] = timed(lambda: an.occupancy_pmf_vector(3854, 64, 10), before=clear)
    measured["split_budget(4096, h=10, n=16, delta=4)"] = timed(
        lambda: mods.optimize.split_budget(4096, 10, 16, 4), repeats=1, before=clear
    )

    print(f"{'figure':42s} {'ROADMAP':>10s} {'measured':>10s}  unit      measured/ROADMAP")
    for name, (ref, unit) in ROADMAP.items():
        value = measured[name] * SCALE[unit]
        print(f"{name:42s} {ref:10.4g} {value:10.4g}  {unit:9s} {value / ref:.2f}")


if __name__ == "__main__":
    main()
