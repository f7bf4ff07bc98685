"""Monte Carlo driver for the recovery false-positive rate.

One trial is a full packet life cycle: place vehicles on the road, draw a
relay path, embed every hop, then run recovery at the roadside unit and
classify the outcome (unique / false positive / miss). Points aggregate
trials; sweeps aggregate points over one varied parameter and carry the
closed-form model value alongside each empirical rate.

Determinism contract: a (base_seed, point_tag, trial_index) triple fixes a
trial completely. The per-trial seed comes from a splitmix64 chain over the
triple, the per-trial RNG is Philox keyed with that seed, and the packet
seed and pid are derived from the same triple, so any single trial can be
replayed in isolation. Results never depend on execution order, batching
or the number of worker processes.

`run_point` runs every point on the vectorized `_batch` engine. `run_trial`
is the plain reference it must match: `trial_packet` draws the path and
embeds every hop into a packet object, and full recovery classifies it (the
engine's fallback runs the same recovery on `Clbf.from_bits`); the test
suite holds the two to per-trial equality. `run_sweep` queues all of its
points on the engine's worker pool at once and computes the model column
while the workers run; its rows come back in sweep order, and a point's
error is raised in that order too. The scalar draws here
(`trial_rng` + `draw_trial_path`) stay the definition of a trial's path:
the batch engine replays the same Philox stream over arrays and comes back
to them only for a trial whose draws hit a Lemire rejection or whose
sequence count reaches 2^32 (numpy then draws 64-bit words).

The sequence rank is drawn as an int64, so a route with 2^63 or more
feasible fragment sequences is refused with a `ParameterError` naming n,
delta and hops. Where the placement fixes that count (every policy but
`random`) the batch engine refuses the point before any trial; otherwise
the scalar draw refuses the first trial that reaches it.

Path sampling, all in `draw_trial_path`, is uniform over the feasible
fragment sequences (those whose per-fragment multiplicities the placement
can staff), then uniform over the vehicle assignments of the chosen
sequence. Counting and unranking use the suffix table D(l, r) = sum over b
of D(l+1, r-b), b up to the fragment's capacity, D(l, 0) = 1. A placement
that fixes positions gives each fragment its population as capacity and
its own vehicles as the pool a block draws from. The `free` policy is the
same law with capacity h in every fragment and one pool of every vehicle:
the fragment sequence is uniform over every admissible sequence and the
relays are drawn from the whole fleet, which is exactly the averaging the
closed-form error model performs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .analytics import ModelParams, fp_curve, fp_probability
from .bloom import GAMMA, ParameterError, check_geometry, mix64
from .protocol import MAX_HOPS, Clbf, RecoveryOutcome, recover_provenance
from .segments import SegmentDictionary

__all__ = [
    "NoValidPath",
    "PlacementSpec",
    "PointResult",
    "SimulationSetup",
    "SweepRow",
    "Z95",
    "derive_trial_seed",
    "draw_trial_path",
    "generate_network",
    "run_point",
    "run_sweep",
    "run_trial",
    "sample_occupancy",
    "trial_packet",
    "wilson_interval",
]

_MASK64 = (1 << 64) - 1

RANK_LIMIT = 1 << 63  # Generator.integers draws the sequence rank as an int64

Z95 = 1.959963984540054

PLACEMENT_POLICIES = (
    "uniform_per_segment",
    "balanced_prefix",
    "random",
    "explicit",
    "free",
)

SWEEPABLE = {"k2": "k2", "m2": "m2", "delta": "num_segments"}


class NoValidPath(RuntimeError):
    """The placement cannot staff any admissible fragment sequence."""


@dataclass(frozen=True)
class PlacementSpec:
    """How vehicles are distributed over the road fragments.

    uniform_per_segment: every fragment holds `per_segment` nodes and the
    roadside unit occupies one slot of fragment 1, so it needs
    n_nodes == per_segment * num_segments.
    balanced_prefix: the n_nodes-1 vehicles spread as evenly as possible,
    fragments 1..(V mod count) taking the extra one.
    random: each vehicle draws its fragment uniformly, per trial.
    explicit: the caller pins fragments directly, or road coordinates that
    the segment dictionary converts.
    free: no pinned positions at all; each trial draws its fragment
    sequence uniformly over every admissible sequence and staffs it from
    the whole vehicle pool.
    """

    policy: str
    per_segment: Optional[int] = None
    segments: Optional[tuple[int, ...]] = None
    coordinates: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.policy not in PLACEMENT_POLICIES:
            raise ParameterError(f"unknown placement policy {self.policy!r}")
        if self.policy == "uniform_per_segment" and (
            self.per_segment is None or self.per_segment < 1
        ):
            raise ParameterError("uniform_per_segment needs per_segment >= 1")
        if self.policy == "explicit" and self.segments is None and self.coordinates is None:
            raise ParameterError("explicit placement needs segments or coordinates")


def generate_network(
    placement: PlacementSpec,
    n_nodes: int,
    segdict: SegmentDictionary,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Realize a placement: the fragment of each vehicle, vehicle v at index v-1.

    Node 0 is the roadside unit, in fragment 1. Only the `random` policy
    consumes randomness.
    """
    delta = segdict.count
    vehicles = n_nodes - 1
    if vehicles < 1:
        raise ParameterError("need at least one vehicle besides the roadside unit")
    if placement.policy == "free":
        raise ParameterError(
            "free placement fixes no positions; draw paths with draw_trial_path"
        )
    if placement.policy == "uniform_per_segment":
        c = placement.per_segment
        assert c is not None
        if n_nodes != c * delta:
            raise ParameterError(
                f"uniform_per_segment({c}) over {delta} fragments needs "
                f"{c * delta} nodes, got {n_nodes}"
            )
        segs = [1] * (c - 1)
        for s in range(2, delta + 1):
            segs.extend([s] * c)
    elif placement.policy == "balanced_prefix":
        q, r = divmod(vehicles, delta)
        segs = []
        for s in range(1, delta + 1):
            segs.extend([s] * (q + (1 if s <= r else 0)))
    elif placement.policy == "random":
        segs = [int(x) for x in rng.integers(1, delta + 1, size=vehicles)]
    else:
        if placement.segments is not None:
            segs = list(placement.segments)
        else:
            assert placement.coordinates is not None
            segs = [segdict.locate(x) for x in placement.coordinates]
        if len(segs) != vehicles:
            raise ParameterError(
                f"explicit placement lists {len(segs)} vehicles, network has {vehicles}"
            )
        for s in segs:
            if not 1 <= s <= delta:
                raise ParameterError(f"explicit fragment {s} outside 1..{delta}")
    return tuple(segs)


@lru_cache(maxsize=512)
def _completion_table(counts: tuple[int, ...], h: int) -> tuple[tuple[int, ...], ...]:
    """D[l][r]: staffable sequence tails using fragments l+1.. with r slots left."""
    delta = len(counts)
    table = [[0] * (h + 1) for _ in range(delta + 1)]
    table[delta][0] = 1
    for l in range(delta - 1, -1, -1):
        table[l][0] = 1
        for rem in range(1, h + 1):
            total = 0
            for b in range(1, min(counts[l], rem) + 1):
                total += table[l + 1][rem - b]
            table[l][rem] = total
    return tuple(tuple(row) for row in table)


def count_feasible_sequences(counts: Sequence[int], h: int) -> int:
    """Admissible length-h sequences the given per-fragment populations can staff."""
    return _completion_table(tuple(counts), h)[0][h]


def check_sequence_count(total: int, n_nodes: int, num_segments: int, h: int) -> None:
    """Refuse a feasible-sequence count the int64 rank draw cannot cover."""
    if total >= RANK_LIMIT:
        raise ParameterError(
            f"n={n_nodes}, delta={num_segments}, hops={h}: {total} feasible fragment "
            "sequences exceed the rank draw's int64 range; use fewer hops or fragments"
        )


def _unrank_blocks(
    counts: tuple[int, ...], h: int, table: tuple[tuple[int, ...], ...], u: int
) -> list[int]:
    """Fragment block sizes of the u-th feasible sequence, fragment 1 first."""
    blocks: list[int] = []
    rem = h
    l = 0
    while rem > 0:
        for b in range(1, min(counts[l], rem) + 1):
            w = table[l + 1][rem - b]
            if u < w:
                blocks.append(b)
                rem -= b
                l += 1
                break
            u -= w
        else:
            raise AssertionError("sequence unranking left the table")
    return blocks


def draw_trial_path(
    placement: PlacementSpec,
    n_nodes: int,
    segdict: SegmentDictionary,
    h: int,
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Draw one trial's relay path of h vehicles, listed RSU-outward.

    Returns (nodes, fragments). Both engines route through here. The
    fragment sequence is uniform over the feasible admissible sequences;
    the relays of each fragment block are then drawn without replacement,
    uniformly over ordered selections. A `free` placement staffs up to h
    relays in every fragment and draws all h from the whole vehicle pool.
    """
    if h < 1:
        raise ParameterError(f"path length {h} must be >= 1")
    if h > n_nodes - 1:
        raise NoValidPath(f"{h} hops need {h} vehicles, placement has {n_nodes - 1}")
    delta = segdict.count
    if placement.policy == "free":
        members = None
        counts = (h,) * delta
    else:
        members = [[] for _ in range(delta)]
        for v, s in enumerate(generate_network(placement, n_nodes, segdict, rng), 1):
            members[s - 1].append(v)
        counts = tuple(map(len, members))
    table = _completion_table(counts, h)
    total = table[0][h]
    if total == 0:
        raise NoValidPath("no admissible fragment sequence is staffable")
    check_sequence_count(total, n_nodes, delta, h)
    blocks = _unrank_blocks(counts, h, table, int(rng.integers(total)))
    pools = [range(1, n_nodes)] if members is None else members
    sizes = [h] if members is None else blocks
    # partial Fisher-Yates in each block; one `integers` call draws every
    # offset, reading the stream as one scalar call per offset would
    bounds = [len(pool) - i for pool, b in zip(pools, sizes) for i in range(b)]
    offsets = iter(rng.integers(bounds).tolist())
    path = []
    for pool, b in zip(pools, sizes):
        work = list(pool)
        for i in range(b):
            j = i + next(offsets)
            work[i], work[j] = work[j], work[i]
        path += work[:b]
    seq = [s for s, b in enumerate(blocks, 1) for _ in range(b)]
    return tuple(path), tuple(seq)


# ---------------------------------------------------------------------------
# seeding


def derive_trial_seed(base_seed: int, point_tag: int, trial_index: int) -> int:
    """Splitmix chain over (base_seed, point_tag, trial_index)."""
    if not 0 <= base_seed <= _MASK64:
        raise ParameterError(f"base seed {base_seed} outside u64 range")
    a = mix64((base_seed + (point_tag + 1) * GAMMA) & _MASK64)
    return mix64((a + (trial_index + 1) * GAMMA) & _MASK64)


def trial_rng(trial_seed: int) -> np.random.Generator:
    """Counter-based RNG keyed directly with the trial seed (no seed-sequence)."""
    key = np.array([trial_seed, mix64(trial_seed ^ GAMMA)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trial_pid(point_tag: int, trial_index: int) -> int:
    if not 0 <= point_tag < 2**32:
        raise ParameterError(f"point_tag {point_tag} outside u32 range")
    if not 0 <= trial_index < 2**32:
        raise ParameterError(f"trial_index {trial_index} outside u32 range")
    return (point_tag << 32) | trial_index


# ---------------------------------------------------------------------------
# trials


@dataclass(frozen=True)
class SimulationSetup:
    """Everything a trial needs except the seed triple."""

    n_nodes: int
    num_segments: int
    road_length_m: float
    placement: PlacementSpec
    h: int
    m1: int
    k1: int
    m2: int
    k2: int

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ParameterError("need the roadside unit plus at least one vehicle")
        # node ids and fragments are u16 key fields on the wire
        if self.n_nodes > 0x10000:
            raise ParameterError(f"n={self.n_nodes} exceeds the 65536 u16 node ids")
        if self.num_segments > 0xFFFF:
            raise ParameterError(f"delta={self.num_segments} exceeds the u16 fragment limit 65535")
        if not 1 <= self.h <= self.n_nodes - 1:
            raise ParameterError(
                f"h={self.h} outside 1..{self.n_nodes - 1} (one vehicle per hop)"
            )
        if self.h > MAX_HOPS:
            raise ParameterError(f"h={self.h} exceeds the packet's hop counter ({MAX_HOPS})")
        # each filter must be one the packet can build
        for name, m, k in (("edge", self.m1, self.k1), ("location", self.m2, self.k2)):
            try:
                check_geometry(m, k)
            except ParameterError as exc:
                raise ParameterError(f"{name} filter: {exc}") from None

    def segment_dictionary(self) -> SegmentDictionary:
        return SegmentDictionary(self.road_length_m, self.num_segments)

    def model_params(self) -> ModelParams:
        return ModelParams(m2=self.m2, k2=self.k2, h=self.h, delta=self.num_segments)


def trial_packet(
    setup: SimulationSetup, seed: int, pid: int
) -> tuple[tuple[int, ...], tuple[int, ...], Clbf]:
    """One packet's life up to the receiver: (path, fragments, packet).

    The path is drawn from `trial_rng(seed)`, RSU-outward, and every hop
    is embedded into a packet keyed by ``seed`` and ``pid``. Raises
    NoValidPath when the placement staffs no admissible sequence.
    """
    rng = trial_rng(seed)
    path, seq = draw_trial_path(
        setup.placement, setup.n_nodes, setup.segment_dictionary(), setup.h, rng
    )
    pkt = Clbf.create(setup.m1, setup.k1, setup.m2, setup.k2, seed, pid)
    pkt.embed_path(path, seq)
    return path, seq, pkt


def run_trial(
    setup: SimulationSetup, base_seed: int, point_tag: int, trial_index: int
) -> RecoveryOutcome:
    """Reference engine: one full packet life cycle through the object layer."""
    path, seq, pkt = trial_packet(
        setup,
        derive_trial_seed(base_seed, point_tag, trial_index),
        trial_pid(point_tag, trial_index),
    )
    return recover_provenance(
        pkt, list(range(setup.n_nodes)), setup.num_segments, rsu=0, truth=(path, seq)
    )


@dataclass(frozen=True)
class PointResult:
    """Aggregate of one parameter point."""

    trials: int
    unique: int
    false_positive: int
    miss: int
    skipped: int

    def __post_init__(self) -> None:
        if self.unique + self.false_positive + self.miss + self.skipped != self.trials:
            raise AssertionError(f"tallies do not add up to {self.trials} trials: {self}")

    @property
    def effective(self) -> int:
        return self.trials - self.skipped

    @property
    def fp_rate(self) -> float:
        return self.false_positive / self.effective if self.effective else 0.0

    def fp_interval(self) -> tuple[float, float]:
        return wilson_interval(self.false_positive, self.effective)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at z = `Z95`; (0, 1) when there are no trials."""
    if trials <= 0:
        return 0.0, 1.0
    z = Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def run_point(
    setup: SimulationSetup,
    trials: int,
    base_seed: int,
    point_tag: int = 0,
) -> PointResult:
    """Run `trials` independent trials of one parameter point."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    from . import _batch

    unique, fp, miss, skipped = _batch.run_point_counts(setup, trials, base_seed, point_tag)
    return PointResult(trials, unique, fp, miss, skipped)


@dataclass(frozen=True)
class SweepRow:
    """One point of a sweep, with the model value for the same parameters."""

    parameter: str
    value: int
    result: PointResult
    model_fp: float


def run_sweep(
    setup: SimulationSetup,
    parameter: str,
    values: Iterable[int],
    trials: int,
    base_seed: int,
    backend: str = "closed_form",
) -> list[SweepRow]:
    """Sweep one parameter; each point gets its own tag (its sweep index)."""
    if parameter not in SWEEPABLE:
        raise ParameterError(
            f"parameter {parameter!r} not sweepable, pick one of {sorted(SWEEPABLE)}"
        )
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    from . import _batch

    field = SWEEPABLE[parameter]
    values = [int(v) for v in values]
    points = [replace(setup, **{field: value}) for value in values]
    # every point is queued first; the model column is computed meanwhile
    counts = _batch.map_point_counts(
        [(point, trials, base_seed, i) for i, point in enumerate(points)]
    )
    if field == "k2":  # one walk and one array pass for the whole curve
        curve = fp_curve(setup.m2, setup.h, setup.num_segments, values, backend=backend)
        models = [total for total, _ in curve]
    else:
        models = [fp_probability(p.model_params(), backend=backend).total for p in points]
    return [
        SweepRow(
            parameter=parameter,
            value=value,
            result=PointResult(trials, *next(counts)),
            model_fp=model,
        )
        for model, value in zip(models, values)
    ]


def sample_occupancy(
    m2: int, k2: int, h: int, trials: int, base_seed: int = 0
) -> np.ndarray:
    """Occupied-slot counts of `trials` location filters after h insertions each."""
    from . import _batch

    return _batch.occupancy_counts(m2, k2, h, trials, base_seed)
