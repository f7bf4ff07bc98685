"""Scenario files: an INI dialect describing one simulation campaign.

Three sections. [network] fixes the road and the fleet, [filters] the
packet geometry, [experiment] the trial budget and an optional parameter
sweep. Unknown sections or keys are fatal; a scenario that silently
ignored a typo would report numbers for the wrong experiment.

    [network]
    n = 16                  ; nodes including the roadside unit
    delta = 8               ; road fragments
    road_length_m = 2000.0
    placement = uniform_per_segment:2
    hops = 15               ; optional, default n-1

    [filters]
    m1 = 2048
    k1 = 8
    m2 = 200
    k2 = 8
    seed = 0                ; optional, packet seed used by `clbf trace`

    [experiment]
    trials = 10000
    base_seed = 1001
    sweep = k2:2..30        ; optional: <param>:<a..b | v,v,...>

Placement grammar: `uniform_per_segment:<c>`, `balanced_prefix`, `random`,
`free`, or `explicit:<fragment,fragment,...>` (one per vehicle).
Sweepable parameters: k2, m2, delta; a sweep lists at most `SWEEP_VALUES`
values, checked before any is built.

The bundled presets are campaigns the test suite and the `figures`
subcommand rely on; `preset_text` returns their INI source so they can be
copied and edited as starting points.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Optional

from .simulate import SWEEPABLE, PlacementSpec, SimulationSetup

__all__ = [
    "PRESETS",
    "Scenario",
    "ScenarioError",
    "load_preset",
    "load_scenario",
    "parse_scenario",
    "parse_sweep_spec",
    "preset_text",
]


class ScenarioError(ValueError):
    """A scenario file that does not follow the dialect."""


_SECTIONS = {
    "network": {"n", "delta", "road_length_m", "placement", "hops"},
    "filters": {"m1", "k1", "m2", "k2", "seed"},
    "experiment": {"trials", "base_seed", "sweep"},
}
_REQUIRED = {
    "network": {"n", "delta", "road_length_m", "placement"},
    "filters": {"m1", "k1", "m2", "k2"},
    "experiment": {"trials", "base_seed"},
}


@dataclass(frozen=True)
class Scenario:
    setup: SimulationSetup
    trials: int
    base_seed: int
    sweep: Optional[tuple[str, tuple[int, ...]]] = None
    filter_seed: int = 0


def _parse_placement(text: str) -> PlacementSpec:
    policy, sep, arg = text.strip().partition(":")
    policy = policy.strip()
    if policy == "uniform_per_segment":
        if not arg:
            raise ScenarioError("uniform_per_segment needs a per-fragment count")
        return PlacementSpec("uniform_per_segment", per_segment=_int(arg, "placement"))
    if policy == "explicit":
        if not arg:
            raise ScenarioError("explicit placement needs a fragment list")
        frags = tuple(_int(x, "placement fragment") for x in arg.split(","))
        return PlacementSpec("explicit", segments=frags)
    spec = PlacementSpec(policy)  # refuses an unknown policy
    if sep:
        raise ScenarioError(f"placement {policy} takes no argument, got {text.strip()!r}")
    return spec


# values one sweep may list; each is a point whose model, and under
# `simulate` whose trials, run in turn
SWEEP_VALUES = 100_000


def _check_sweep_length(name: str, count: int) -> None:
    if count > SWEEP_VALUES:
        raise ScenarioError(
            f"sweep of {name} lists {count} values, past SWEEP_VALUES = {SWEEP_VALUES}"
        )


def parse_sweep_spec(text: str) -> tuple[str, tuple[int, ...]]:
    name, sep, body = text.strip().partition(":")
    name = name.strip()
    if not sep or not body.strip():
        raise ScenarioError(f"sweep {text!r} is not <param>:<values>")
    if name not in SWEEPABLE:
        raise ScenarioError(f"sweep parameter {name!r} not one of {sorted(SWEEPABLE)}")
    body = body.strip()
    if ".." in body:
        lo_s, _, hi_s = body.partition("..")
        lo, hi = _int(lo_s, "sweep bound"), _int(hi_s, "sweep bound")
        if hi < lo:
            raise ScenarioError(f"sweep range {body!r} is empty")
        _check_sweep_length(name, hi - lo + 1)
        values = tuple(range(lo, hi + 1))
    else:
        raw = body.split(",")
        _check_sweep_length(name, len(raw))
        values = tuple(_int(x, "sweep value") for x in raw)
    if not values:
        raise ScenarioError("sweep has no values")
    return name, values


def _int(raw: str, what: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ScenarioError(f"{what} {raw.strip()!r} is not an integer") from None


def _float(raw: str, what: str) -> float:
    try:
        return float(raw.strip())
    except ValueError:
        raise ScenarioError(f"{what} {raw.strip()!r} is not a number") from None


def parse_scenario(text: str, name: str = "<inline>") -> Scenario:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ScenarioError(f"{name}: {exc}") from None
    sections = set(parser.sections())
    unknown = sections - set(_SECTIONS)
    if unknown:
        raise ScenarioError(f"{name}: unknown section(s) {sorted(unknown)}")
    missing = set(_SECTIONS) - sections
    if missing:
        raise ScenarioError(f"{name}: missing section(s) {sorted(missing)}")
    for section, allowed in _SECTIONS.items():
        keys = set(parser[section])
        bad = keys - allowed
        if bad:
            raise ScenarioError(f"{name}: [{section}] unknown key(s) {sorted(bad)}")
        absent = _REQUIRED[section] - keys
        if absent:
            raise ScenarioError(f"{name}: [{section}] missing key(s) {sorted(absent)}")

    net, flt, exp = parser["network"], parser["filters"], parser["experiment"]
    n = _int(net["n"], "n")
    try:
        setup = SimulationSetup(
            n_nodes=n,
            num_segments=_int(net["delta"], "delta"),
            road_length_m=_float(net["road_length_m"], "road_length_m"),
            placement=_parse_placement(net["placement"]),
            h=_int(net["hops"], "hops") if "hops" in net else n - 1,
            m1=_int(flt["m1"], "m1"),
            k1=_int(flt["k1"], "k1"),
            m2=_int(flt["m2"], "m2"),
            k2=_int(flt["k2"], "k2"),
        )
    except ValueError as exc:
        raise ScenarioError(f"{name}: {exc}") from None
    return Scenario(
        setup=setup,
        trials=_int(exp["trials"], "trials"),
        base_seed=_int(exp["base_seed"], "base_seed"),
        sweep=parse_sweep_spec(exp["sweep"]) if "sweep" in exp else None,
        filter_seed=_int(flt["seed"], "seed") if "seed" in flt else 0,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), name=path)


# Bundled campaigns. The two hash sweeps locate the best location-filter
# hash count on a dense and on a sparse road; the width sweep walks the
# location filter's size at fixed hash count; the fragment sweep varies how
# finely the same road is carved.
_PRESET_TEXT = {
    "hash-sweep-d8": """\
[network]
n = 16
delta = 8
road_length_m = 2000.0
placement = uniform_per_segment:2

[filters]
m1 = 2048
k1 = 8
m2 = 200
k2 = 8

[experiment]
trials = 10000
base_seed = 1001
sweep = k2:2..30
""",
    "hash-sweep-d16": """\
[network]
n = 16
delta = 16
road_length_m = 2000.0
placement = balanced_prefix

[filters]
m1 = 2048
k1 = 8
m2 = 200
k2 = 8

[experiment]
trials = 10000
base_seed = 2002
sweep = k2:2..30
""",
    "width-sweep": """\
[network]
n = 11
delta = 15
road_length_m = 2000.0
placement = free

[filters]
m1 = 2048
k1 = 8
m2 = 200
k2 = 5

[experiment]
trials = 10000
base_seed = 1004
sweep = m2:100,150,200,250,300,400,500
""",
    "segment-sweep": """\
[network]
n = 16
delta = 16
road_length_m = 2000.0
placement = free

[filters]
m1 = 2048
k1 = 8
m2 = 100
k2 = 5

[experiment]
trials = 10000
base_seed = 1005
sweep = delta:2,4,6,8,10,12,14,16
""",
}

PRESETS = tuple(_PRESET_TEXT)


def preset_text(name: str) -> str:
    try:
        return _PRESET_TEXT[name]
    except KeyError:
        raise ScenarioError(
            f"unknown preset {name!r}, available: {', '.join(PRESETS)}"
        ) from None


def load_preset(name: str) -> Scenario:
    return parse_scenario(preset_text(name), name=name)
