"""Road fragmentation and the admissible-sequence combinatorics."""

import math

import pytest

from clbf import segments
from clbf.segments import (
    ENUMERATION_CAP,
    CoverageError,
    ResourceCapError,
    SegmentDictionary,
    count_valid_sequences,
    enumerate_valid_sequences,
    is_valid_sequence,
)


def test_dictionary_basics():
    d = SegmentDictionary(road_length_m=2000.0, count=8)
    assert d.count == 8
    assert d.segment_length_m == 250.0


def test_locate_half_open_intervals():
    d = SegmentDictionary(1000.0, 4)
    assert d.locate(0.0) == 1
    assert d.locate(249.999) == 1
    assert d.locate(250.0) == 2
    assert d.locate(999.999) == 4
    with pytest.raises(CoverageError):
        d.locate(1000.0)
    with pytest.raises(CoverageError):
        d.locate(-0.1)


def test_locate_clamps_float_boundary_drift():
    # 3 * (L/3) can exceed L in floats; the last fragment must still claim it
    d = SegmentDictionary(0.3, 3)
    assert d.locate(0.3 * 0.9999999) == 3


def test_dictionary_validation():
    with pytest.raises(ValueError):
        SegmentDictionary(100.0, 0)
    with pytest.raises(ValueError):
        SegmentDictionary(0.0, 3)
    with pytest.raises(ValueError):
        SegmentDictionary(-5.0, 3)


@pytest.mark.parametrize(
    "seq,r,ok",
    [
        ((1,), 1, True),
        ((1, 1, 2, 2, 3), 3, True),
        ((1, 2, 3, 4), 4, True),
        ((2, 3), 3, False),  # must start at the receiver's fragment
        ((1, 3), 3, False),  # no skipping
        ((1, 2, 1), 3, False),  # no turning back
        ((1, 2, 3), 2, False),  # out of range
        ((), 3, False),
    ],
)
def test_is_valid_sequence(seq, r, ok):
    assert is_valid_sequence(seq, r) is ok


def test_enumeration_matches_direct_walk():
    seqs = enumerate_valid_sequences(3, 4)
    assert all(is_valid_sequence(s, 3) for s in seqs)
    assert len(seqs) == len(set(seqs))
    assert seqs == sorted(seqs)
    assert (1, 1, 2, 3) in seqs and (1, 2, 3, 3) in seqs


def test_count_closed_form_is_a_binomial_sum():
    # reaching i distinct fragments places i-1 steps among L-1 slots
    for r in (1, 2, 5):
        for length in (1, 3, 7):
            expected = sum(
                math.comb(length - 1, i - 1) for i in range(1, min(r, length) + 1)
            )
            assert count_valid_sequences(r, length) == expected


def test_count_equals_enumeration_on_a_grid():
    for r in range(1, 9):
        for length in range(1, 11):
            assert count_valid_sequences(r, length) == len(
                enumerate_valid_sequences(r, length)
            )


def test_count_saturates_at_power_of_two():
    # once r >= L every step pattern is admissible
    assert count_valid_sequences(10, 10) == 2**9
    assert count_valid_sequences(64, 10) == 2**9


def test_enumeration_cap_guards_blowup(monkeypatch):
    assert ENUMERATION_CAP == 10_000_000
    monkeypatch.setattr(segments, "ENUMERATION_CAP", 1000)
    with pytest.raises(ResourceCapError, match="cap of 1000"):
        enumerate_valid_sequences(40, 40)
    monkeypatch.setattr(segments, "ENUMERATION_CAP", count_valid_sequences(3, 4))
    assert len(enumerate_valid_sequences(3, 4)) == count_valid_sequences(3, 4)
    monkeypatch.setattr(segments, "ENUMERATION_CAP", count_valid_sequences(3, 4) - 1)
    with pytest.raises(ResourceCapError):
        enumerate_valid_sequences(3, 4)


def test_degenerate_sizes():
    assert count_valid_sequences(1, 5) == 1
    assert enumerate_valid_sequences(1, 5) == [(1, 1, 1, 1, 1)]
    assert count_valid_sequences(5, 1) == 1
    with pytest.raises(ValueError):
        count_valid_sequences(0, 3)
    with pytest.raises(ValueError):
        count_valid_sequences(3, 0)
