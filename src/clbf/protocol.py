"""In-packet provenance: paired filters, embedding ops, and recovery.

A packet carries two Bloom filters of fixed size. The edge filter collects
(previous, current, packet id) relay edges; the location filter collects
(node, fragment, packet id) pairs. The originating node embeds only its
location; every relaying node embeds the edge it received on plus its own
location; the roadside unit receiving the final hop embeds nothing. After
h hops the packet therefore holds h location pairs and h-1 edges, and its
hop counter reads h.

Recovery runs entirely on the receiver: probe all ordered node pairs
against the edge filter, chain the positives into simple h-node relay
paths, probe every (path node, fragment) pair against the location filter,
and keep the fragment sequences that are admissible. Each surviving
(path, sequence) combination is one provenance candidate ("arrangement").
Exactly one arrangement means unambiguous provenance; several mean a false
positive; a missing true arrangement can never happen because the filters
have no false negatives.

Node paths are listed RSU-outward (first element = the final relay,
last element = the source), matching the segment-sequence convention.

Wire format, all little-endian: pid u64, hop_count u8, m1 u32, m2 u32,
k1 u16, k2 u16, seed u64 (29 bytes), then the raw packed bits of the edge
filter and the location filter. The two filters derive their seeds from
the packet seed as (seed, seed + 1).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .bloom import BloomFilter, ParameterError, encode_key
from .segments import ResourceCapError, is_valid_sequence

__all__ = [
    "Clbf",
    "ProtocolError",
    "RecoveryOutcome",
    "edge_key",
    "location_key",
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
        if not 0 <= pid <= _MASK64:
            raise ParameterError(f"pid {pid} outside u64 range")
        if not 0 <= seed <= _MASK64:
            raise ParameterError(f"seed {seed} outside u64 range")
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
        out = cls.create(m1, k1, m2, k2, seed, pid)
        out.edge_filter.load_bits(body[:n1])
        out.location_filter.load_bits(body[n1:])
        out.hop_count = hops
        return out

    def wire_size(self) -> int:
        return _HEADER.size + len(self.edge_filter.raw_bits()) + len(
            self.location_filter.raw_bits()
        )


# ---------------------------------------------------------------------------
# recovery


def recover_edges(clbf: Clbf, nodes: Sequence[int]) -> set[tuple[int, int]]:
    """All ordered node pairs that test positive in the edge filter."""
    bf, pid = clbf.edge_filter, clbf.pid
    out = set()
    for a in nodes:
        for b in nodes:
            if a != b and bf.contains(edge_key(a, b, pid)):
                out.add((a, b))
    return out


def recover_paths(
    edges: Iterable[tuple[int, int]],
    candidates: Sequence[int],
    length: int,
    cap: int = PATH_CAP,
) -> list[tuple[int, ...]]:
    """Simple ``length``-node chains over the recovered edges, RSU-outward.

    A depth-first walk in forwarding direction from every candidate source;
    each complete chain is reversed so its first element is the final relay.
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
    out: list[tuple[int, ...]] = []
    budget = cap
    chain: list[int] = []
    on_chain: set[int] = set()

    def extend() -> None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise ResourceCapError(f"path search exceeded its cap of {cap}")
        if len(chain) == length:
            out.append(tuple(reversed(chain)))
            return
        for nxt in succ.get(chain[-1], ()):
            if nxt not in on_chain:
                chain.append(nxt)
                on_chain.add(nxt)
                extend()
                on_chain.remove(nxt)
                chain.pop()

    for start in sorted(allowed):
        chain = [start]
        on_chain = {start}
        extend()
    return sorted(out)


def recover_locations(
    clbf: Clbf,
    path: Sequence[int],
    num_segments: int,
    cap: int = SEQUENCE_CAP,
) -> list[tuple[int, ...]]:
    """Admissible fragment sequences supported by the location filter.

    ``path`` is RSU-outward; position i's candidate fragments are those
    whose (node, fragment) pair tests positive. The admissibility rules
    prune the product walk: position 0 must be fragment 1, and each next
    fragment repeats or increments the previous one.
    """
    bf, pid = clbf.location_filter, clbf.pid
    cands: list[list[int]] = []
    for node in path:
        cands.append(
            [s for s in range(1, num_segments + 1) if bf.contains(location_key(node, s, pid))]
        )
    out: list[tuple[int, ...]] = []
    budget = cap

    def extend(prefix: list[int]) -> None:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise ResourceCapError(f"sequence search exceeded its cap of {cap}")
        i = len(prefix)
        if i == len(path):
            out.append(tuple(prefix))
            return
        options = (1,) if i == 0 else (prefix[-1], prefix[-1] + 1)
        for s in options:
            if s <= num_segments and s in cands[i]:
                prefix.append(s)
                extend(prefix)
                prefix.pop()

    extend([])
    for seq in out:
        if not is_valid_sequence(seq, num_segments):
            raise AssertionError(f"location walk produced inadmissible sequence {seq}")
    return out


@dataclass(frozen=True)
class RecoveryOutcome:
    """Everything the receiver can say about one packet's provenance."""

    paths: tuple[tuple[int, ...], ...]
    arrangements: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    classification: str
    truth_recovered: Optional[bool] = field(default=None)

    @property
    def ambiguous(self) -> bool:
        return self.classification == FALSE_POSITIVE


def recover_provenance(
    clbf: Clbf,
    nodes: Sequence[int],
    num_segments: int,
    rsu: int,
    truth: Optional[tuple[Sequence[int], Sequence[int]]] = None,
    path_cap: int = PATH_CAP,
    sequence_cap: int = SEQUENCE_CAP,
) -> RecoveryOutcome:
    """Full recovery pipeline and its classification.

    ``nodes`` is the whole universe the receiver probes (the RSU id
    included); relay chains are searched over the non-RSU nodes only.
    ``truth`` is the embedded (path, sequence) when the caller knows it,
    e.g. in simulation; without it a miss is only detectable as an empty
    arrangement set.
    """
    edges = recover_edges(clbf, nodes)
    candidates = [n for n in nodes if n != rsu]
    paths = recover_paths(edges, candidates, clbf.hop_count, cap=path_cap)
    arrangements = []
    for path in paths:
        for seq in recover_locations(clbf, path, num_segments, cap=sequence_cap):
            arrangements.append((path, seq))
    truth_recovered: Optional[bool] = None
    if truth is not None:
        truth_pair = (tuple(truth[0]), tuple(truth[1]))
        truth_recovered = truth_pair in arrangements
        if not truth_recovered:
            classification = MISS
        elif len(arrangements) > 1:
            classification = FALSE_POSITIVE
        else:
            classification = UNIQUE
    else:
        if not arrangements:
            classification = MISS
        elif len(arrangements) > 1:
            classification = FALSE_POSITIVE
        else:
            classification = UNIQUE
    return RecoveryOutcome(
        paths=tuple(paths),
        arrangements=tuple(arrangements),
        classification=classification,
        truth_recovered=truth_recovered,
    )
