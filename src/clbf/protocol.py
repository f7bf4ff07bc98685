"""In-packet provenance: paired filters, embedding ops, and recovery.

A packet carries two Bloom filters of fixed size. The edge filter collects
(previous, current, packet id) relay edges; the location filter collects
(node, fragment, packet id) pairs. The originating node embeds only its
location; every relaying node embeds the edge it received on plus its own
location; the roadside unit receiving the final hop embeds nothing. After
h hops the packet therefore holds h location pairs and h-1 edges, and its
hop counter reads h.

Recovery runs entirely on the receiver, in one joint search
(`recover_provenance`): hash every ordered relay pair and every (relay,
fragment) cell as arrays, probe each filter once, then run one level
sweep, RSU-outward, over pairs (relay chain, fragment prefix). Packets
decoded over one node universe share every key byte but the pid's, so
the hash state before the pid of that key grid (`_key_grid`, its one
builder, which the simulation engine calls too) is computed once and kept
in a small bounded cache (`RELAY_GRIDS` universes, keyed by the distinct
node ids, the RSU id and the fragment count); a packet then folds in its
8 pid bytes. Only the receiver caches a grid, and never a packet's state.
Each level extends every pair by one predecessor whose edge into the
chain and whose location cell are both positive, so a chain that carries
no fragment sequence dies at the first position it cannot fill. Every
pair made, the one-node pairs included, counts against `PATH_CAP` (read
at each call); a search that passes it raises ResourceCapError. Each
surviving pair is one provenance candidate ("arrangement"). Exactly one
arrangement means unambiguous provenance; several mean a false positive;
a missing true arrangement can never happen because the filters have no
false negatives.

The two-stage form of the same search stays public: `recover_edges`
probes the edge filter, `recover_paths` lists every simple chain over the
positive edges, `location_table` probes (node, fragment) cells and
`recover_locations` lists one path's admissible fragment sequences. Both
searches are level sweeps whose tuples count against `PATH_CAP` and
`SEQUENCE_CAP` respectively. Composed, they give `recover_provenance`'s
arrangements exactly, but only after listing every chain the edge filter
admits, most of which carry no fragment sequence on a narrow edge filter.

Node paths are listed RSU-outward (first element = the final relay,
last element = the source), matching the segment-sequence convention.

Keys are (u16, u16, u64 pid) field tuples under `encode_key`: `edge_key`
and `location_key` build one key's bytes, and `key_hashes` hashes the same
layout over arrays of fields, for the receiver's probes here and for the
simulation engine. It is the composition of `_key_prefix`, the state
after the 10 bytes no pid changes (both fields and the pid's length
prefix), and `_fold_pid`, the pid's 8 bytes.

Wire format, all little-endian: pid u64, hop_count u8, m1 u32, m2 u32,
k1 u16, k2 u16, seed u64 (29 bytes), then the raw packed bits of the edge
filter and the location filter. The two filters derive their seeds from
the packet seed as (seed, seed + 1).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np

from .bloom import BloomFilter, ParameterError, _fnv, encode_key
from .segments import ResourceCapError, is_valid_sequence

__all__ = [
    "Clbf",
    "ProtocolError",
    "RecoveryOutcome",
    "edge_key",
    "key_hashes",
    "location_key",
    "location_table",
    "recover_edges",
    "recover_locations",
    "recover_paths",
    "recover_provenance",
]

_MASK64 = (1 << 64) - 1
_HEADER = struct.Struct("<QBIIHHQ")

MAX_HOPS = 0xFF  # hop_count is a u8 on the wire

PATH_CAP = 1_000_000
SEQUENCE_CAP = 1_000_000

UNIQUE = "unique"
FALSE_POSITIVE = "false_positive"
MISS = "miss"


class ProtocolError(RuntimeError):
    """An embedding call that the relay protocol does not allow."""


def _u16(value: int, what: str) -> bytes:
    if not 0 <= value <= 0xFFFF:
        raise ParameterError(f"{what} {value} outside u16 range")
    return value.to_bytes(2, "little")


def _u64(value: int, what: str) -> bytes:
    if not 0 <= value <= _MASK64:
        raise ParameterError(f"{what} {value} outside u64 range")
    return value.to_bytes(8, "little")


def edge_key(prev: int, curr: int, pid: int) -> bytes:
    """Canonical key of one relay edge (transmitter, receiver, packet)."""
    return encode_key(_u16(prev, "node id"), _u16(curr, "node id"), _u64(pid, "pid"))


def location_key(node: int, segment: int, pid: int) -> bytes:
    """Canonical key of one (node, fragment, packet) location claim."""
    return encode_key(_u16(node, "node id"), _u16(segment, "segment"), _u64(pid, "pid"))


@dataclass
class Clbf:
    """The provenance payload of one packet."""

    pid: int
    seed: int
    edge_filter: BloomFilter
    location_filter: BloomFilter
    hop_count: int = 0

    @classmethod
    def create(cls, m1: int, k1: int, m2: int, k2: int, seed: int, pid: int) -> "Clbf":
        _u64(pid, "pid")
        _u64(seed, "seed")
        return cls(
            pid=pid,
            seed=seed,
            edge_filter=BloomFilter(m1, k1, seed),
            location_filter=BloomFilter(m2, k2, (seed + 1) & _MASK64),
        )

    def embed_source(self, node: int, segment: int) -> None:
        """Origin step: record the source's location, start the hop count."""
        if self.hop_count != 0:
            raise ProtocolError(
                f"source embedding on a packet with hop_count={self.hop_count}"
            )
        self.location_filter.insert(location_key(node, segment, self.pid))
        self.hop_count = 1

    def embed_forward(self, prev: int, curr: int, segment: int) -> None:
        """Relay step: record the incoming edge and the relay's location."""
        if self.hop_count < 1:
            raise ProtocolError("forward embedding before the source embedding")
        if self.hop_count >= MAX_HOPS:
            raise ProtocolError("hop counter exhausted (u8)")
        if prev == curr:
            raise ProtocolError(f"self-edge {prev}->{curr}")
        self.edge_filter.insert(edge_key(prev, curr, self.pid))
        self.location_filter.insert(location_key(curr, segment, self.pid))
        self.hop_count += 1

    def embed_path(self, path: Sequence[int], seq: Sequence[int]) -> None:
        """Every hop of a relay path listed RSU-outward, in forwarding order.

        ``path[-1]`` is the source and ``seq[i]`` the fragment of ``path[i]``:
        the source embeds first, then each relay its incoming edge.
        """
        if not path or len(path) != len(seq):
            raise ParameterError(f"{len(path)} nodes, {len(seq)} fragments: need as many, at least one")
        self.embed_source(path[-1], seq[-1])
        for i in range(len(path) - 2, -1, -1):
            self.embed_forward(path[i + 1], path[i], seq[i])

    def to_bytes(self) -> bytes:
        bf1, bf2 = self.edge_filter, self.location_filter
        header = _HEADER.pack(
            self.pid, self.hop_count, bf1.m, bf2.m, bf1.k, bf2.k, self.seed
        )
        return header + bf1.raw_bits() + bf2.raw_bits()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Clbf":
        if len(blob) < _HEADER.size:
            raise ParameterError("packet image shorter than its 29-byte header")
        pid, hops, m1, m2, k1, k2, seed = _HEADER.unpack_from(blob)
        n1, n2 = (m1 + 7) // 8, (m2 + 7) // 8
        body = blob[_HEADER.size :]
        if len(body) != n1 + n2:
            raise ParameterError(
                f"packet image has {len(body)} filter bytes, geometry needs {n1 + n2}"
            )
        return cls.from_bits(m1, k1, m2, k2, seed, pid, hops, body[:n1], body[n1:])

    @classmethod
    def from_bits(
        cls, m1: int, k1: int, m2: int, k2: int, seed: int, pid: int,
        hop_count: int, edge_bits: bytes, location_bits: bytes,
    ) -> "Clbf":
        """A packet from its geometry, hop count and both filters' packed bits."""
        if not 0 <= hop_count <= MAX_HOPS:
            raise ParameterError(f"hop_count {hop_count} outside u8 range")
        out = cls.create(m1, k1, m2, k2, seed, pid)
        out.edge_filter.load_bits(edge_bits)
        out.location_filter.load_bits(location_bits)
        out.hop_count = hop_count
        return out

    def wire_size(self) -> int:
        return _HEADER.size + (self.edge_filter.m + 7) // 8 + (self.location_filter.m + 7) // 8


# ---------------------------------------------------------------------------
# recovery


def _universe(nodes: Iterable[int]) -> tuple[int, ...]:
    """The distinct ids of ``nodes``, ascending, checked against the u16 range."""
    ids = sorted(set(nodes))
    if ids:
        _u16(ids[0], "node id")
        _u16(ids[-1], "node id")
    return tuple(ids)


def _node_ids(nodes: Iterable[int]) -> np.ndarray:
    """`_universe` as a uint64 array; its range check comes before the
    cast, which would wrap a negative id."""
    return np.array(_universe(nodes), dtype=np.uint64)


def _field_bytes(value, width: int, what: str) -> list:
    """One `encode_key` field as key-byte columns: its u16 length prefix, then
    the value little-endian. An int gives plain, range-checked bytes; an
    array gives one array per byte, not range-checked."""
    if isinstance(value, int):
        data = (_u16 if width == 2 else _u64)(value, what)
    else:
        data = [(value >> np.uint64(8 * j)) & np.uint64(0xFF) for j in range(width)]
    return [width, 0, *data]


def _key_prefix(first, second) -> np.ndarray:
    """FNV-1a state of `key_hashes` keys after the bytes no pid changes.

    Those are both fields and the pid's ``8, 0`` length prefix, 10 of a
    key's 18 bytes; the state has the broadcast shape of the two fields.
    """
    fields = _field_bytes(first, 2, "key field") + _field_bytes(second, 2, "key field")
    return _fnv(fields + [8, 0])


def _pid_bytes(pid) -> list:
    """The pid's 8 key bytes, little-endian. An int gives range-checked
    bytes. An unsigned array gives an array for byte 0 and for each byte
    that varies, and an int for each byte above them, which every pid
    shares: every byte above the highest bit where its smallest and largest
    pids differ."""
    if isinstance(pid, int) or np.size(pid) == 0 or np.asarray(pid).dtype.kind != "u":
        return _field_bytes(pid, 8, "pid")[2:]
    lo = int(pid.min())
    varying = max(1, ((lo ^ int(pid.max())).bit_length() + 7) // 8)
    return [
        (pid >> np.uint64(8 * j)) & np.uint64(0xFF) if j < varying else lo >> 8 * j & 0xFF
        for j in range(8)
    ]


def _fold_pid(prefix: np.ndarray, pid) -> np.ndarray:
    """The keys' hashes: `_key_prefix` states continued over the pid's 8 bytes.

    Only byte 0 and the pid bytes that vary cost a pass (`_pid_bytes`); byte
    0 brings the result to the broadcast shape of ``prefix`` and an array
    ``pid``. ``prefix`` is read, never written.
    """
    return _fnv(_pid_bytes(pid), prefix)


def key_hashes(first, second, pid) -> np.ndarray:
    """FNV-1a hashes of `edge_key`/`location_key` keys over arrays.

    Each field is a Python int or a uint64 array, and the three broadcast
    together: ``key_hashes(ids[:, None], ids, pid)`` hashes every ordered
    pair of ``ids``. Bytes shared along an axis are hashed once. An int
    field gives plain, range-checked bytes, whose zeros cost no XOR; array
    fields are not range-checked. It is `_key_prefix` followed by
    `_fold_pid`, so a receiver that keeps the prefix of a fixed key grid
    pays only the pid's bytes per packet.
    """
    return _fold_pid(_key_prefix(first, second), pid)


def recover_edges(clbf: Clbf, nodes: Sequence[int]) -> set[tuple[int, int]]:
    """All ordered node pairs that test positive in the edge filter."""
    ids = _node_ids(nodes)
    member = clbf.edge_filter.contains_hashes(key_hashes(ids[:, None], ids, clbf.pid))
    np.fill_diagonal(member, False)
    a, b = np.nonzero(member)
    return set(zip(ids[a].tolist(), ids[b].tolist()))


def _level(tuples: Iterable[tuple], room: int, search: str, cap: int) -> tuple[list[tuple], int]:
    """The next level of a search and the room its cap leaves after it.

    Each tuple made costs one unit of ``room``. Drawing through `islice`
    stops at ``room + 1`` tuples, one past the cap: ResourceCapError.
    """
    level = list(islice(tuples, room + 1))
    room -= len(level)
    if room < 0:
        raise ResourceCapError(f"{search} exceeded its cap of {cap}")
    return level, room


def recover_paths(
    edges: Iterable[tuple[int, int]], candidates: Sequence[int], length: int
) -> list[tuple[int, ...]]:
    """Simple ``length``-node chains over the recovered edges, RSU-outward.

    A level sweep in forwarding direction from every candidate source: each
    level grows every chain by one hop. Each complete chain is reversed so
    its first element is the final relay. Raises ResourceCapError once the
    chains made, the one-node starts included, pass `PATH_CAP`.
    """
    if length < 1:
        raise ParameterError(f"path length {length} must be >= 1")
    allowed = set(candidates)
    succ: dict[int, list[int]] = {}
    for a, b in edges:
        if a in allowed and b in allowed:
            succ.setdefault(a, []).append(b)
    for nexts in succ.values():
        nexts.sort()
    cap = PATH_CAP
    level, room = _level(((start,) for start in sorted(allowed)), cap, "path search", cap)
    for _ in range(length - 1):
        level, room = _level(
            (c + (n,) for c in level for n in succ.get(c[-1], ()) if n not in c),
            room, "path search", cap,
        )
    return sorted(c[::-1] for c in level)


def location_table(
    clbf: Clbf, nodes: Iterable[int], num_segments: int
) -> dict[int, set[int]]:
    """Each node's fragments 1..num_segments whose (node, fragment) key tests positive.

    One array probe of the location filter over every (node, fragment) cell.
    A fragment count outside 1..65535 raises ParameterError.
    """
    if not 1 <= num_segments <= 0xFFFF:
        raise ParameterError(f"segment count {num_segments} outside 1..65535")
    ids = _node_ids(nodes)
    segments = np.arange(1, num_segments + 1, dtype=np.uint64)
    member = clbf.location_filter.contains_hashes(key_hashes(ids[:, None], segments, clbf.pid))
    return {
        node: {s for s, hit in enumerate(row, 1) if hit}
        for node, row in zip(ids.tolist(), member.tolist())
    }


def recover_locations(
    clbf: Clbf,
    path: Sequence[int],
    num_segments: int,
    table: Optional[dict[int, set[int]]] = None,
) -> list[tuple[int, ...]]:
    """Admissible fragment sequences supported by the location filter.

    ``path`` is RSU-outward; position i's candidate fragments are those
    whose (node, fragment) pair tests positive. A level sweep grows every
    admissible prefix by one position: position 0 must be fragment 1, and
    each next fragment repeats or increments the previous one. ``table``
    is a `location_table` of this packet over ``num_segments`` fragments,
    covering the path's nodes; without one the path's nodes are probed
    here. An empty path, or a fragment count outside 1..65535 with no
    table, raises ParameterError; ResourceCapError means the prefixes
    made, the empty one included, passed `SEQUENCE_CAP`.
    """
    if not path:
        raise ParameterError("empty path: a packet crosses at least one hop")
    if table is None:
        table = location_table(clbf, path, num_segments)
    first, *rest = [table[node] for node in path]
    cap = SEQUENCE_CAP
    level, room = _level([()], cap, "sequence search", cap)  # the empty prefix
    level, room = _level([(1,)] if 1 in first else [], room, "sequence search", cap)
    for allowed in rest:
        level, room = _level(
            (p + (s,) for p in level for s in (p[-1], p[-1] + 1) if s <= num_segments and s in allowed),
            room, "sequence search", cap,
        )
    for seq in level:
        if not is_valid_sequence(seq, num_segments):
            raise AssertionError(f"location sweep produced inadmissible sequence {seq}")
    return level


def _key_grid(relays: Sequence[int], width: int) -> np.ndarray:
    """The `_key_prefix` grid, uncached, of every key probed over ``relays``.

    Row i is relay i: its first r columns pair it, as the first key field,
    with each relay (edge keys), the next ``width`` with fragments
    1..width (location keys). No entry depends on a packet.
    """
    column = np.array(relays, dtype=np.uint64)
    fragments = np.arange(1, width + 1, dtype=np.uint64)
    return _key_prefix(column[:, None], np.concatenate([column, fragments]))


# node universes whose key grid the receiver keeps; one serves a roadside
# unit that decodes over a fixed universe, as every caller here does
RELAY_GRIDS = 4


@lru_cache(maxsize=RELAY_GRIDS)
def _relay_grid(ids: tuple[int, ...], rsu: int, width: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The relays of a node universe and their `_key_grid`, read-only.

    ``ids`` is a `_universe`; the relays are its ids other than ``rsu``.
    The receiver's cache of grids: only `recover_provenance` calls it.
    """
    relays = tuple(n for n in ids if n != rsu)
    grid = _key_grid(relays, width)
    grid.flags.writeable = False
    return relays, grid


@dataclass(frozen=True)
class RecoveryOutcome:
    """Everything the receiver can say about one packet's provenance.

    ``arrangements`` lists every (path, fragment sequence) pair that both
    filters admit, in lexicographic order; ``paths`` lists the distinct
    relay paths among them, sorted. A chain that the edge filter admits
    but that carries no fragment sequence is not a path here.
    """

    paths: tuple[tuple[int, ...], ...]
    arrangements: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    classification: str
    truth_recovered: Optional[bool] = None


def recover_provenance(
    clbf: Clbf,
    nodes: Sequence[int],
    num_segments: int,
    rsu: int,
    truth: Optional[tuple[Sequence[int], Sequence[int]]] = None,
) -> RecoveryOutcome:
    """Full recovery pipeline and its classification.

    ``nodes`` is the whole universe the receiver probes (the RSU id
    included); relay chains are searched over the non-RSU nodes only.
    ``truth`` is the embedded (path, sequence) when the caller knows it,
    e.g. in simulation; without it a miss is only detectable as an empty
    arrangement set.

    The keys of every ordered relay pair and every cell (relay,
    1..min(num_segments, hop count)) form the universe's `_key_grid`,
    hashed up to the pid once per universe and cached (`_relay_grid`);
    the packet folds in its pid, and each filter is probed once. A level
    sweep, RSU-outward, then grows pairs (chain, fragment prefix):
    level 0 holds the relays whose (relay, 1) cell is positive, and each
    level extends a pair by a predecessor p not yet on the chain whose
    edge p -> chain[-1] is positive, with a next fragment s in
    {q[-1], q[-1] + 1}, s <= num_segments, whose (p, s) cell is positive.
    A pair with no extension drops out. It gives exactly the arrangements
    of `recover_paths` followed by `recover_locations` on every path.

    Raises ParameterError when the packet's hop count is 0 (nothing was
    embedded) or exceeds the number of distinct relay candidates (no
    simple chain of that length exists over ``nodes``), when an id in
    ``nodes`` is outside the u16 range, or when ``num_segments`` is
    outside 1..65535, in that order.
    Raises ResourceCapError once the pairs made, level 0 included, pass
    `PATH_CAP`.
    """
    universe = set(nodes)
    if clbf.hop_count < 1:
        raise ParameterError("packet hop_count is 0: no hop was embedded")
    r = len(universe) - (rsu in universe)
    if clbf.hop_count > r:
        raise ParameterError(
            f"packet hop_count {clbf.hop_count} exceeds the {r} "
            "relay candidates among the probed nodes"
        )
    ids = _universe(universe)  # every id range-checked, the RSU's included
    if not 1 <= num_segments <= 0xFFFF:
        raise ParameterError(f"segment count {num_segments} outside 1..65535")
    relays, prefix = _relay_grid(ids, rsu, min(num_segments, clbf.hop_count))
    keys = _fold_pid(prefix, clbf.pid)
    edge = clbf.edge_filter.contains_hashes(keys[:, :r])
    np.fill_diagonal(edge, False)
    # pred[b]: the relays a whose edge a -> b tests positive, ascending;
    # cells[i]: the fragments whose (relay i, fragment) cell tests positive
    pred: list[list[int]] = [[] for _ in range(r)]
    for b, a in zip(*(axis.tolist() for axis in np.nonzero(edge.T))):
        pred[b].append(a)
    located = clbf.location_filter.contains_hashes(keys[:, r:])
    cells: list[set[int]] = [set() for _ in range(r)]
    for i, s in zip(*(axis.tolist() for axis in np.nonzero(located))):
        cells[i].add(s + 1)

    cap = PATH_CAP
    level, room = _level((((i,), (1,)) for i in range(r) if 1 in cells[i]), cap, "path search", cap)
    for _ in range(clbf.hop_count - 1):
        level, room = _level(
            (
                (c + (p,), q + (s,))
                for c, q in level
                for p in pred[c[-1]]
                if p not in c
                for s in (q[-1], q[-1] + 1)
                if s in cells[p]
            ),
            room, "path search", cap,
        )
    arrangements = sorted((tuple(relays[i] for i in c), q) for c, q in level)
    paths = tuple(dict.fromkeys(p for p, _ in arrangements))
    truth_recovered = None if truth is None else (tuple(truth[0]), tuple(truth[1])) in arrangements
    missed = truth_recovered is False or not arrangements
    classification = MISS if missed else FALSE_POSITIVE if len(arrangements) > 1 else UNIQUE
    return RecoveryOutcome(paths, tuple(arrangements), classification, truth_recovered)
