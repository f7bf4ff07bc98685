"""Seeded Bloom filters over canonically encoded keys.

A filter is a fixed-size bit array plus k index functions. Keys are byte
strings; composite keys are built with :func:`encode_key`, which
length-prefixes each field so distinct field tuples can never collide as
bytes.

Index derivation
----------------
Every key is first reduced to a 64-bit content hash with FNV-1a. Slot
indices are then drawn independently per slot by passing the content hash,
a seed tag, and the slot number through the splitmix64 finalizer:

    idx_L = mix64(h0 ^ seed_tag ^ (L + 1) * GAMMA) mod m      L = 0 .. k-1

where ``seed_tag = mix64(seed + GAMMA)``. The finalizer has full avalanche,
so for fixed m the k indices of a key behave like independent uniform draws
over [0, m). That property is what the occupancy analysis downstream
assumes, and the test suite checks it directly against the exact occupancy
distribution. Classic double hashing (h_a + L * h_b) was rejected: it pins
the per-key index set to two degrees of freedom, which visibly distorts the
occupied-bit distribution on small filters (two hashes of one key can then
never land on the same bit).

The scheme's only vectorized form lives here too: FNV-1a over columns of
key bytes, the seeded slots of every level (levels first: row L holds slot
L of every key), and a probe that tests arrays of key hashes level by
level, computing slot L only for the keys still positive after L levels.
None of them takes a buffer: each call makes its own arrays. The receiver
(`BloomFilter.contains_hashes`) and the simulation engine both use the
probe; a property test keeps it equal to the scalar `contains` key by
key. The receiver unpacks its filter to one byte per bit for the probe,
within `segments.BUDGET_BYTES`. The byte columns of the protocol's keys
are laid out by one function, `protocol.key_hashes`.

A filter has no wire image of its own: its ceil(m / 8) bytes of bits,
packed LSB-first (`raw_bits`, `load_bits`), travel inside the packet image
that `protocol` describes.
"""

from __future__ import annotations

import numpy as np

from .segments import BUDGET_BYTES, ResourceCapError

__all__ = [
    "BloomFilter",
    "ParameterError",
    "check_geometry",
    "encode_key",
    "fnv1a64",
    "hash_indices",
    "mix64",
]

_MASK64 = (1 << 64) - 1

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

MAX_BITS = 2**32 - 1

_U64 = np.uint64
_OFFSET = _U64(FNV_OFFSET)
_GAMMA = _U64(GAMMA)
_A = _U64(_MIX_A)
_B = _U64(_MIX_B)


class ParameterError(ValueError):
    """A structural parameter is out of its documented domain."""


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a content hash of ``data``."""
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


def mix64(x: int) -> int:
    """splitmix64 finalizer; bijective on 64-bit integers."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def encode_key(*fields: bytes) -> bytes:
    """Concatenate fields, each preceded by its u16 little-endian length.

    The prefix makes the encoding injective over field tuples:
    ('ab', 'c') and ('a', 'bc') map to different byte strings.
    """
    parts = []
    for field in fields:
        if len(field) > 0xFFFF:
            raise ParameterError("key field longer than 65535 bytes")
        parts.append(len(field).to_bytes(2, "little"))
        parts.append(field)
    return b"".join(parts)


def _seed_tag(seed: int) -> int:
    return mix64((seed + GAMMA) & _MASK64)


def hash_indices(key: bytes, m: int, k: int, seed: int) -> list[int]:
    """The k slot indices of ``key`` in a filter of geometry (m, k, seed)."""
    h0 = fnv1a64(key)
    tag = _seed_tag(seed)
    return [mix64(h0 ^ tag ^ (((L + 1) * GAMMA) & _MASK64)) % m for L in range(k)]


# ---------------------------------------------------------------------------
# the same hashes over uint64 arrays. Each call makes its own arrays and
# works in place on them where it can: measured over whole runs, a fresh
# array of key hashes, slots or temporaries costs no more than one reused
# from call to call


def _mix(x: np.ndarray) -> np.ndarray:
    """`mix64` of array ``x``, computed in place."""
    t = np.right_shift(x, _U64(30))
    x ^= t
    x *= _A
    x ^= np.right_shift(x, _U64(27), out=t)
    x *= _B
    x ^= np.right_shift(x, _U64(31), out=t)
    return x


def _fnv(terms, acc=None) -> np.ndarray:
    """`fnv1a64` state after key bytes ``terms``, continued from ``acc``.

    Each term is one key byte: a scalar or an array. ``acc`` is an FNV-1a
    state (the offset basis when None) and is never written to. The state
    only grows to the broadcast shape of the terms seen so far, so bytes
    shared along an axis are hashed once. A zero byte costs no XOR, so a
    run of them is one multiply by the prime's power (mod 2^64).
    """
    acc = np.array(_OFFSET if acc is None else acc)
    power = 1  # the prime's power owed by the zero bytes since the last XOR
    for t in terms:
        if isinstance(t, np.ndarray) or t:
            if power != 1:
                acc *= _U64(power)
            grown = isinstance(t, np.ndarray) and np.broadcast(acc, t).shape
            if grown and grown != acc.shape:
                acc = np.bitwise_xor(acc, t)
            else:
                acc ^= t
            power = FNV_PRIME
        else:
            power = power * FNV_PRIME & _MASK64
    if power != 1:
        acc *= _U64(power)
    return acc


def _slots(base: np.ndarray, m: int, first: int, stop: int) -> np.ndarray:
    """Slots first..stop-1 of seeded key hashes `base` (= h0 ^ seed tag) in an
    m-bit filter, levels first: out[j] is slot first + j of every key;
    `hash_indices` for first=0, stop=k."""
    levels = np.arange(first + 1, stop + 1, dtype=np.uint64) * _GAMMA  # (L + 1) * GAMMA mod 2^64
    levels = levels.reshape((-1,) + (1,) * np.ndim(base))
    x = _mix(np.bitwise_xor(base, levels))
    if m & (m - 1):
        q = np.floor_divide(x, _U64(m))  # through libdivide; np.remainder is not
        q *= _U64(m)
        x -= q
    else:
        x &= _U64(m - 1)
    return x.view(np.int64)


# Slots hashed per probe pass. A pass over few live keys hashes several
# levels at once: below this many slots a pass costs more in per-call
# overhead than the slots of keys that an earlier level would have dropped.
_PASS_SLOTS = 4096


def _probe(bits: np.ndarray, keys: np.ndarray, k: int, stored: np.ndarray | None = None) -> np.ndarray:
    """Filter membership of seeded key hashes (h0 ^ seed tag), level by level.

    bits: (rows, m) bool, one filter per row; keys: (rows, ...). A pass
    hashes the next levels only for the keys still positive, and as many
    levels as fit `_PASS_SLOTS` (at least one), so no (k, keys) index array
    exists for many keys and a sparse filter costs about one level: a pass
    holds at most max(keys, `_PASS_SLOTS`) slots. ``stored`` holds flat
    indices of keys the caller put in the filter: they are probed in the
    first pass only and keep its answer, so later passes hash only keys of
    unknown fate; a stored key's answer reads only the first pass's levels.
    """
    rows, m = bits.shape
    flat = bits.ravel()
    per_row = keys[0].size
    keys = keys.reshape(rows, per_row)
    stop = min(k, max(1, _PASS_SLOTS // max(keys.size, 1)))
    idx = _slots(keys, m, 0, stop)
    if rows > 1:
        idx += np.arange(0, rows * m, m)[:, None]
    hit = _gather_all(flat, idx)
    if stop == k:
        return hit
    hit = hit.ravel()
    if stored is not None:
        known = hit[stored]
        hit[stored] = False
    live = np.flatnonzero(hit)
    keys = keys.ravel()
    while stop < k and len(live):
        level, stop = stop, min(k, stop + max(1, _PASS_SLOTS // len(live)))
        idx = _slots(keys[live], m, level, stop)
        if rows > 1:
            idx += live // per_row * m
        live = live[_gather_all(flat, idx)]
    out = np.zeros(rows * per_row, dtype=bool)
    out[live] = True
    if stored is not None:
        out[stored] = known
    return out.reshape(rows, per_row)


def _gather_all(flat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Whether every level of idx (levels first) indexes a set bit of `flat`."""
    got = flat[idx]
    return got[0] if len(got) == 1 else got.all(axis=0)


def check_geometry(m: int, k: int) -> None:
    """Refuse a filter geometry outside 1 <= k <= m <= 2^32-1."""
    if not 1 <= m <= MAX_BITS:
        raise ParameterError(f"bit count m={m} outside [1, 2^32-1]")
    if not 1 <= k <= m:
        raise ParameterError(f"hash count k={k} outside [1, m={m}]")


class BloomFilter:
    """Fixed-geometry Bloom filter.

    No false negatives: a key that was inserted always tests positive.
    False positives occur with a rate governed by the load and k.
    """

    __slots__ = ("m", "k", "seed", "_bits", "_tag")

    def __init__(self, m: int, k: int, seed: int = 0):
        check_geometry(m, k)
        if not 0 <= seed <= _MASK64:
            raise ParameterError(f"seed {seed} outside u64 range")
        self.m = m
        self.k = k
        self.seed = seed
        self._bits = bytearray((m + 7) // 8)
        self._tag = _seed_tag(seed)

    def _indices(self, key: bytes) -> list[int]:
        h0 = fnv1a64(key)
        m, tag = self.m, self._tag
        return [mix64(h0 ^ tag ^ (((L + 1) * GAMMA) & _MASK64)) % m for L in range(self.k)]

    def insert(self, key: bytes) -> None:
        for idx in self._indices(key):
            self._bits[idx >> 3] |= 1 << (idx & 7)

    def contains(self, key: bytes) -> bool:
        bits = self._bits
        return all(bits[idx >> 3] & (1 << (idx & 7)) for idx in self._indices(key))

    def contains_hashes(self, h0: np.ndarray) -> np.ndarray:
        """`contains` of every key whose FNV-1a hash is in `h0` (uint64), elementwise.

        Unpacks the filter to one byte per bit for the call, which is small
        at in-packet sizes; an image past `BUDGET_BYTES` raises
        ResourceCapError before any of it is made.
        """
        if self.m > BUDGET_BYTES:
            raise ResourceCapError(
                f"unpacking a filter of m={self.m} bits needs {self.m} bytes, "
                f"past BUDGET_BYTES = {BUDGET_BYTES}"
            )
        bits = np.unpackbits(
            np.frombuffer(self._bits, dtype=np.uint8), count=self.m, bitorder="little"
        ).view(bool)
        keys = (h0 ^ _U64(self._tag)).reshape(1, -1)
        return _probe(bits[None, :], keys, self.k).reshape(np.shape(h0))

    def popcount(self) -> int:
        """Number of set bits."""
        return int.from_bytes(self._bits, "little").bit_count()

    def fill(self) -> None:
        """Set every bit (saturate). Mainly useful for adversarial tests."""
        for i in range(len(self._bits)):
            self._bits[i] = 0xFF
        self._mask_padding()

    def _mask_padding(self) -> None:
        tail = self.m & 7
        if tail:
            self._bits[-1] &= (1 << tail) - 1

    def raw_bits(self) -> bytes:
        """The packed bit array (LSB-first)."""
        return bytes(self._bits)

    def load_bits(self, data: bytes) -> None:
        if len(data) != len(self._bits):
            raise ParameterError(
                f"bit image is {len(data)} bytes, geometry needs {len(self._bits)}"
            )
        tail = self.m & 7
        if tail and data[-1] >> tail:
            raise ParameterError("padding bits beyond m are set")
        self._bits = bytearray(data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.m == other.m
            and self.k == other.k
            and self.seed == other.seed
            and self._bits == other._bits
        )

    def __repr__(self) -> str:
        return f"BloomFilter(m={self.m}, k={self.k}, seed={self.seed}, set={self.popcount()})"
