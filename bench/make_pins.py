"""Write bench/pins.json: the outputs the benchmark's correctness checks expect.

    python3 bench/make_pins.py

The pins were taken once, from the package at the commit that added the
benchmark. Rerun this only for a change that is meant to alter outputs,
and say so in that change.
"""

from __future__ import annotations

import json
import os
import re

from run import BENCH, ROOT, fresh_import
from workloads import RSU_PINNED, SIZING, ModelSizing, RsuDecode, SimulatePresets, Tally


def main() -> None:
    mods = fresh_import()
    tally = Tally()
    pins: dict = {"simulate": {}, "model": {"curves": {}, "sizing": {}}, "rsu": []}

    sim = SimulatePresets(mods, ROOT, 0, pins)
    _, seeds = sim.inputs[0]
    for preset, base_seed in seeds:
        rc, rows, _ = sim.observe(preset, base_seed, tally)
        if rc != 0:
            raise SystemExit(f"{preset}: exit {rc!r}")
        # value, unique, false_positive, miss, skipped, model_fp
        pins["simulate"][preset] = [[r[0], r[2], r[3], r[4], r[5], r[6]] for r in rows]

    model = ModelSizing(mods, ROOT, 0, pins)
    for label in model.commands:
        rc, parsed, _ = model.observe(label, tally)
        if rc != 0 or not parsed:
            raise SystemExit(f"{label}: exit {rc!r}")
        pins["model"]["sizing" if label in SIZING else "curves"][label] = parsed

    rsu = RsuDecode(mods, ROOT, 0, pins)
    for j in range(RSU_PINNED):
        outcome, round_trip, _, _ = rsu.observe(j)
        if not (round_trip and outcome.truth_recovered):
            raise SystemExit(f"packet {j}: round trip {round_trip}, truth {outcome.truth_recovered}")
        pins["rsu"].append([outcome.classification, len(outcome.arrangements)])

    # one pinned row per line
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(pins, indent=1))
    with open(os.path.join(BENCH, "pins.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


if __name__ == "__main__":
    main()
