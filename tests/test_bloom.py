"""Bit-level behavior of the filter core: hashing, membership, wire image."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clbf import bloom
from clbf.bloom import (
    GAMMA,
    BloomFilter,
    ParameterError,
    encode_key,
    fnv1a64,
    hash_indices,
    mix64,
)
from clbf.protocol import key_hashes
from clbf.segments import ResourceCapError

KEY = bytes([2, 0, 2, 0, 2, 0, 3, 0, 8, 0, 5, 0, 0, 0, 0, 0, 0, 0])


def test_fnv1a64_reference_vectors():
    # published test vectors for the 64-bit variant
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_mix64_is_a_bijection_sample():
    seen = {mix64(x) for x in range(4096)}
    assert len(seen) == 4096
    assert mix64(0) == 0  # splitmix finalizer fixes zero


def test_hash_indices_frozen():
    # recomputed independently from the published FNV-1a / splitmix64 chains
    assert fnv1a64(KEY) == 0x7AE947EAEDF7F171
    assert hash_indices(KEY, 64, 4, seed=0) == [9, 5, 61, 2]
    assert hash_indices(KEY, 200, 8, seed=12345) == [181, 151, 21, 82, 174, 139, 122, 88]


def test_hash_indices_depend_on_seed_and_level():
    a = hash_indices(KEY, 1 << 20, 8, seed=1)
    b = hash_indices(KEY, 1 << 20, 8, seed=2)
    assert a != b
    assert len(set(a)) > 1  # levels decorrelated, not an arithmetic ladder


def test_encode_key_length_prefixed():
    assert encode_key(b"\x07", b"ab") == b"\x01\x00\x07\x02\x00ab"
    # fields must not be mergeable: (b"a", b"b") differs from (b"ab",)
    assert encode_key(b"a", b"b") != encode_key(b"ab")


def test_insert_then_contains():
    bf = BloomFilter(m=128, k=4, seed=9)
    keys = [encode_key(bytes([i]), b"x") for i in range(10)]
    for key in keys:
        bf.insert(key)
    assert all(bf.contains(k) for k in keys)
    absent = sum(bf.contains(encode_key(bytes([i]), b"y")) for i in range(50))
    assert absent < 50  # sparse filter can't accept everything


def test_no_false_negatives_even_when_saturated():
    bf = BloomFilter(m=16, k=3, seed=0)
    bf.fill()
    assert bf.popcount() == 16
    assert bf.contains(b"anything")


def test_popcount_counts_set_bits():
    bf = BloomFilter(m=40, k=2, seed=0)
    assert bf.popcount() == 0
    bf.insert(b"k")
    assert 1 <= bf.popcount() <= 2


def test_geometry_validation():
    with pytest.raises(ParameterError):
        BloomFilter(m=0, k=1)
    with pytest.raises(ParameterError):
        BloomFilter(m=8, k=9)  # k must not exceed m
    with pytest.raises(ParameterError):
        BloomFilter(m=8, k=0)
    with pytest.raises(ParameterError):
        BloomFilter(m=8, k=1, seed=1 << 64)


def test_padding_bits_must_stay_clear():
    bf = BloomFilter(m=9, k=2, seed=0)
    with pytest.raises(ParameterError):
        bf.load_bits(bytes([0, 0x02]))


def test_load_bits_length_checked():
    bf = BloomFilter(m=16, k=2, seed=0)
    with pytest.raises(ParameterError):
        bf.load_bits(b"\x00")


def test_fill_masks_padding():
    bf = BloomFilter(m=13, k=1, seed=0)
    bf.fill()
    assert bf.popcount() == 13
    bf.load_bits(bf.raw_bits())  # refuses an image with padding bits set


def test_seed_changes_the_bit_pattern():
    a = BloomFilter(m=64, k=3, seed=1)
    b = BloomFilter(m=64, k=3, seed=2)
    a.insert(b"key")
    b.insert(b"key")
    assert a.raw_bits() != b.raw_bits()
    assert a != b


def test_unpacked_filter_past_the_budget_is_refused(monkeypatch):
    from clbf import _batch, segments

    assert bloom.BUDGET_BYTES == _batch.BATCH_BYTES == segments.BUDGET_BYTES == 1 << 26
    h0 = np.arange(5, dtype=np.uint64)
    big = BloomFilter(segments.BUDGET_BYTES + 1, 1)
    with pytest.raises(ResourceCapError) as exc:
        big.contains_hashes(h0)
    assert str(exc.value) == (
        "unpacking a filter of m=67108865 bits needs 67108865 bytes, past BUDGET_BYTES = 67108864"
    )
    monkeypatch.setattr(bloom, "BUDGET_BYTES", 64)
    at = BloomFilter(64, 2)
    at.fill()
    assert at.contains_hashes(h0).all()  # exactly the budget
    with pytest.raises(ResourceCapError, match="m=65 bits"):
        BloomFilter(65, 2).contains_hashes(h0)


def test_gamma_is_odd():
    # an even increment would collapse the level constants' low bits
    assert GAMMA % 2 == 1


# ---------------------------------------------------------------------------
# the array probe against the scalar one

U64_MAX = (1 << 64) - 1
node_ids = st.sampled_from([0, 0xFFFF]) | st.integers(0, 0xFFFF)


def drawn_filter(data, m, k):
    bf = BloomFilter(m, k, data.draw(st.sampled_from([0, U64_MAX]) | st.integers(0, U64_MAX)))
    fill = data.draw(st.sampled_from(["empty", "random", "full"]))
    if fill == "full":
        bf.fill()
    elif fill == "random":
        image = bytearray(data.draw(st.binary(min_size=(m + 7) // 8, max_size=(m + 7) // 8)))
        if m & 7:
            image[-1] &= (1 << (m & 7)) - 1
        bf.load_bits(bytes(image))
    return bf


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_array_probe_matches_scalar_contains(data):
    m = data.draw(st.integers(1, 4096) | st.sampled_from([1, 7, 9, 4095]))
    k = data.draw(st.integers(1, min(m, 64)))
    pid = data.draw(st.sampled_from([0, U64_MAX]) | st.integers(0, U64_MAX))
    firsts = data.draw(st.lists(node_ids, min_size=1, max_size=10))
    seconds = data.draw(st.lists(node_ids, min_size=1, max_size=10))
    keys = [
        [encode_key(a.to_bytes(2, "little"), b.to_bytes(2, "little"), pid.to_bytes(8, "little"))
         for b in seconds]
        for a in firsts
    ]
    filters = [drawn_filter(data, m, k) for _ in range(data.draw(st.integers(1, 3)))]
    for bf in filters:  # some keys were stored, so some probes are true positives
        for a, b in data.draw(st.lists(st.tuples(st.integers(0, len(firsts) - 1),
                                                 st.integers(0, len(seconds) - 1)), max_size=4)):
            bf.insert(keys[a][b])

    # FNV-1a over byte columns, the first field broadcast down, the second across
    a, b = np.array(firsts, dtype=np.uint64)[:, None], np.array(seconds, dtype=np.uint64)
    h0 = key_hashes(a, b, pid)
    assert h0.tolist() == [[fnv1a64(key) for key in row] for row in keys]
    assert key_hashes(a, b, np.array([[pid]], dtype=np.uint64)).tolist() == h0.tolist()

    expected = [[[bf.contains(key) for key in row] for row in keys] for bf in filters]
    for bf, want in zip(filters, expected):
        assert bf.contains_hashes(h0).tolist() == want
    # one filter per row, as the simulation engine probes a batch of packets;
    # small pass budgets force the level-by-level passes a large batch takes
    bits = np.array(
        [np.unpackbits(np.frombuffer(bf.raw_bits(), np.uint8), count=m, bitorder="little")
         for bf in filters], dtype=bool,
    )
    seeded = np.stack([h0 ^ np.uint64(bloom._seed_tag(bf.seed)) for bf in filters])
    default = bloom._PASS_SLOTS
    try:
        for budget in (1, 5, default):
            bloom._PASS_SLOTS = budget
            got = bloom._probe(bits, seeded, k).reshape(seeded.shape)
            assert got.tolist() == expected
    finally:
        bloom._PASS_SLOTS = default


def test_probe_of_stored_keys_matches_the_full_probe():
    # a key the caller stored keeps its first-pass answer; every other key
    # is probed at every level, whatever the pass budget
    rng = np.random.default_rng(7)
    rows, per_row, m, k = 6, 40, 256, 9
    keys = rng.integers(0, 2**64, size=(rows, per_row), dtype=np.uint64)
    bits = rng.random((rows, m)) < 0.6
    stored = rng.random((rows, per_row)) < 0.3
    r, c = np.nonzero(stored)
    bits[r[None, :], bloom._slots(keys[r, c], m, 0, k)] = True
    default = bloom._PASS_SLOTS
    try:
        for budget in (1, 5, default):
            bloom._PASS_SLOTS = budget
            want = bloom._probe(bits, keys, k)
            assert want[stored].all()
            got = bloom._probe(bits, keys, k, stored=np.flatnonzero(stored))
            assert got.tolist() == want.tolist()
    finally:
        bloom._PASS_SLOTS = default


def test_probe_of_a_saturated_filter_stays_within_its_pass_budget():
    # every key survives every level of an all-ones filter, so no pass can
    # shrink: each must still hold at most max(keys, _PASS_SLOTS) slots
    import tracemalloc

    bf = BloomFilter(4096, 3000)
    bf.fill()
    h0 = np.arange(2000, dtype=np.uint64)
    bits = np.ones((50, 512), dtype=bool)
    keys = np.arange(50 * 100, dtype=np.uint64).reshape(50, 100)
    tracemalloc.start()
    try:
        assert bf.contains_hashes(h0).all()
        _, peak = tracemalloc.get_traced_memory()
        assert peak < 1 << 20, peak  # (3000, 2000) int64 slots would be 48 MB
        tracemalloc.reset_peak()
        assert bloom._probe(bits, keys, 500).all()
        _, peak = tracemalloc.get_traced_memory()
        assert peak < 1 << 20, peak  # (500, 5000) int64 slots would be 20 MB
    finally:
        tracemalloc.stop()
