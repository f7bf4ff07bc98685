"""Monte Carlo driver: sampling laws, seeding, and engine agreement."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clbf import _batch, bloom
from clbf.bloom import ParameterError, fnv1a64, mix64, _seed_tag
from clbf.protocol import (
    FALSE_POSITIVE, MISS, UNIQUE, Clbf, _key_grid, edge_key, key_hashes, location_key,
    recover_provenance,
)
from clbf.scenario import PRESETS, load_preset
from clbf.segments import ResourceCapError, SegmentDictionary, enumerate_valid_sequences, is_valid_sequence
from clbf.simulate import (
    PLACEMENT_POLICIES,
    SWEEPABLE,
    NoValidPath,
    PlacementSpec,
    PointResult,
    SimulationSetup,
    Z95,
    count_feasible_sequences,
    derive_trial_seed,
    draw_trial_path,
    generate_network,
    run_point,
    run_sweep,
    run_trial,
    sample_occupancy,
    trial_packet,
    trial_pid,
    trial_rng,
    wilson_interval,
)

SEGDICT = SegmentDictionary(1000.0, 4)


def small_setup(**kw):
    base = dict(
        n_nodes=8,
        num_segments=4,
        road_length_m=1000.0,
        placement=PlacementSpec("uniform_per_segment", per_segment=2),
        h=5,
        m1=128,
        k1=2,
        m2=32,
        k2=2,
    )
    base.update(kw)
    return SimulationSetup(**base)


# ---------------------------------------------------------------------------
# placements


def test_uniform_per_segment_reserves_a_receiver_slot():
    segs = generate_network(
        PlacementSpec("uniform_per_segment", per_segment=2), 8, SEGDICT, trial_rng(0)
    )
    assert segs == (1, 2, 2, 3, 3, 4, 4)  # vehicle 1 shares fragment 1 with the unit
    with pytest.raises(ParameterError):
        generate_network(
            PlacementSpec("uniform_per_segment", per_segment=2), 9, SEGDICT, trial_rng(0)
        )


def test_balanced_prefix_spreads_the_remainder_forward():
    segs = generate_network(PlacementSpec("balanced_prefix"), 7, SEGDICT, trial_rng(0))
    assert segs == (1, 1, 2, 2, 3, 4)  # 6 vehicles over 4 fragments


def test_random_placement_is_seeded():
    spec = PlacementSpec("random")
    a = generate_network(spec, 10, SEGDICT, trial_rng(5))
    b = generate_network(spec, 10, SEGDICT, trial_rng(5))
    c = generate_network(spec, 10, SEGDICT, trial_rng(6))
    assert a == b
    assert a != c
    assert len(a) == 9 and all(1 <= s <= 4 for s in a)


def test_explicit_placement_by_fragments_and_coordinates():
    spec = PlacementSpec("explicit", segments=(2, 1, 4))
    assert generate_network(spec, 4, SEGDICT, trial_rng(0)) == (2, 1, 4)
    spec = PlacementSpec("explicit", coordinates=(10.0, 990.0, 400.0))
    assert generate_network(spec, 4, SEGDICT, trial_rng(0)) == (1, 4, 2)
    with pytest.raises(ParameterError):
        generate_network(PlacementSpec("explicit", segments=(1, 2)), 4, SEGDICT, trial_rng(0))
    with pytest.raises(ParameterError):
        generate_network(PlacementSpec("explicit", segments=(0, 2, 3)), 4, SEGDICT, trial_rng(0))


def test_placement_spec_validation():
    with pytest.raises(ParameterError):
        PlacementSpec("clustered")
    with pytest.raises(ParameterError):
        PlacementSpec("uniform_per_segment")
    with pytest.raises(ParameterError):
        PlacementSpec("explicit")


def test_free_placement_has_no_network_realization():
    with pytest.raises(ParameterError):
        generate_network(PlacementSpec("free"), 8, SEGDICT, trial_rng(0))


# ---------------------------------------------------------------------------
# path sampling


def brute_feasible(counts, h):
    delta = len(counts)
    total = 0
    for seq in enumerate_valid_sequences(delta, h):
        if all(seq.count(s + 1) <= counts[s] for s in range(delta)):
            total += 1
    return total


@pytest.mark.parametrize(
    "counts,h",
    [((1, 2, 1), 3), ((2, 2, 2), 4), ((1, 1, 1, 1), 4), ((3, 0, 1), 3), ((2, 3), 5)],
)
def test_count_feasible_sequences_matches_enumeration(counts, h):
    assert count_feasible_sequences(counts, h) == brute_feasible(counts, h)


def test_draw_trial_path_respects_the_placement():
    spec = PlacementSpec("explicit", segments=(1, 1, 2, 2, 3))
    segdict = SegmentDictionary(900.0, 3)
    for seed in range(40):
        path, seq = draw_trial_path(spec, 6, segdict, 4, trial_rng(seed))
        assert len(path) == len(seq) == 4
        assert len(set(path)) == 4
        assert is_valid_sequence(seq, 3)
        for node, seg in zip(path, seq):
            assert spec.segments[node - 1] == seg


def test_generate_path_infeasible_staffing():
    # the pinned-placement law of draw_trial_path
    segdict = SegmentDictionary(900.0, 3)
    # nobody in the receiver's fragment: no admissible sequence can start
    spec = PlacementSpec("explicit", segments=(2, 2, 3))
    with pytest.raises(NoValidPath):
        draw_trial_path(spec, 4, segdict, 2, trial_rng(0))
    with pytest.raises(NoValidPath):  # more hops than vehicles
        draw_trial_path(PlacementSpec("explicit", segments=(1, 2)), 3, segdict, 3, trial_rng(0))


def test_generate_free_path_needs_enough_vehicles():
    # the free-placement law of draw_trial_path
    segdict = SegmentDictionary(900.0, 3)
    with pytest.raises(NoValidPath):  # more hops than vehicles
        draw_trial_path(PlacementSpec("free"), 4, segdict, 4, trial_rng(0))
    with pytest.raises(ParameterError):
        draw_trial_path(PlacementSpec("free"), 4, segdict, 0, trial_rng(0))


@pytest.mark.parametrize(
    "spec,n",
    [
        # 122 needs two vehicles in fragment 2
        pytest.param(PlacementSpec("explicit", segments=(1, 1, 1, 2, 2, 2)), 7, id="explicit"),
        pytest.param(PlacementSpec("free"), 8, id="free"),
    ],
)
def test_draw_trial_path_sequence_frequencies_are_uniform(spec, n):
    # admissible sequences of length 3 over two fragments: 111, 112, 122
    segdict = SegmentDictionary(1000.0, 2)
    rng = trial_rng(2024)
    seen = {}
    for _ in range(3000):
        path, seq = draw_trial_path(spec, n, segdict, 3, rng)
        assert len(set(path)) == 3
        assert all(1 <= v < n for v in path)
        seen[seq] = seen.get(seq, 0) + 1
    assert set(seen) == {(1, 1, 1), (1, 1, 2), (1, 2, 2)}
    for count in seen.values():
        assert 850 <= count <= 1150  # ~4 sigma around 1000


def test_draw_trial_path_dispatch():
    rng = trial_rng(7)
    path, seq = draw_trial_path(PlacementSpec("free"), 8, SEGDICT, 5, rng)
    assert len(path) == 5 and is_valid_sequence(seq, 4)
    rng = trial_rng(7)
    spec = PlacementSpec("uniform_per_segment", per_segment=2)
    path2, seq2 = draw_trial_path(spec, 8, SEGDICT, 5, rng)
    segs = generate_network(spec, 8, SEGDICT, trial_rng(7))
    assert all(segs[n - 1] == s for n, s in zip(path2, seq2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    bounds=st.lists(
        st.integers(1, 3) | st.integers(1, 40) | st.integers(2**31 - 5, 2**31 + 5)
        | st.integers(1, 2**40),
        min_size=1, max_size=40,
    ),
)
def test_one_array_bound_draw_reads_the_stream_as_scalar_draws(seed, bounds):
    # `draw_trial_path` draws all of a trial's Fisher-Yates offsets in one
    # call: bound-1 draws read nothing, bounds near 2^31 reject about half of
    # their 32-bit words, and bounds past 2^32 take 64-bit words
    one, each = trial_rng(seed), trial_rng(seed)
    assert one.integers(bounds).tolist() == [int(each.integers(b)) for b in bounds]
    # and leaves the stream, its buffered 32-bit half included, where they do
    assert [int(one.integers(5)), int(one.integers(2**40))] == [
        int(each.integers(5)), int(each.integers(2**40))]


# ---------------------------------------------------------------------------
# seeding


def test_trial_seed_chain_frozen():
    assert derive_trial_seed(1, 2, 3) == 1072907043932612987
    assert derive_trial_seed(1, 2, 3) != derive_trial_seed(1, 3, 2)


def test_trial_rng_streams_are_decorrelated():
    a = trial_rng(1).integers(0, 1 << 32, size=8)
    b = trial_rng(2).integers(0, 1 << 32, size=8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, trial_rng(1).integers(0, 1 << 32, size=8))


def test_trial_pid_packs_tag_and_index():
    assert trial_pid(3, 17) == (3 << 32) | 17
    with pytest.raises(ParameterError):
        trial_pid(1 << 32, 0)
    with pytest.raises(ParameterError):
        trial_pid(0, -1)


# ---------------------------------------------------------------------------
# batch engine agreement


def test_batch_key_streams_match_the_reference_keys():
    prev, curr, node, seg = 5, 2, 7, 3
    pids = [(11 << 32) | 4, 0, 2**64 - 1]
    arr = lambda *v: np.array(v, dtype=np.uint64)
    # an int pid
    for pid in pids:
        assert int(key_hashes(arr(prev), arr(curr), pid)[0]) == fnv1a64(edge_key(prev, curr, pid))
        assert int(key_hashes(arr(node), seg, pid)[0]) == fnv1a64(location_key(node, seg, pid))
    # an array pid, broadcast against the fields: one row per pid
    edge = key_hashes(arr(prev, curr), arr(curr, prev), arr(*pids)[:, None])
    assert edge.tolist() == [
        [fnv1a64(edge_key(prev, curr, pid)), fnv1a64(edge_key(curr, prev, pid))] for pid in pids
    ]
    loc = key_hashes(arr(node), arr(seg), arr(*pids)[:, None])
    assert loc.tolist() == [[fnv1a64(location_key(node, seg, pid))] for pid in pids]
    for bad in (-1, 2**64):
        with pytest.raises(ParameterError):
            key_hashes(arr(prev), arr(curr), bad)


def test_batch_slot_indices_match_the_scalar_hash():
    h0 = fnv1a64(edge_key(1, 2, 3))
    seed = 991
    base = np.array([h0 ^ _seed_tag(seed)], dtype=np.uint64)
    idx = bloom._slots(base, m=97, first=0, stop=5)
    assert idx[:, 0].tolist() == bloom.hash_indices(edge_key(1, 2, 3), 97, 5, seed)
    assert bloom._slots(base, m=97, first=2, stop=5)[:, 0].tolist() == idx[2:, 0].tolist()


# ---------------------------------------------------------------------------
# batch sampler: numpy's Philox stream, replayed over arrays


def test_philox_words_match_random_raw():
    keys = np.random.default_rng(3).integers(0, 2**64, size=(200, 2), dtype=np.uint64)
    keys[:3] = [[0, 0], [2**64 - 1, 2**64 - 1], [1, 2**63]]
    words = _batch.philox_words(keys, 3)
    for key, row in zip(keys, words):
        assert np.array_equal(row, np.random.Philox(key=key).random_raw(12))


def test_lemire_draws_match_integers_and_flag_rejections():
    # bounds just past 2^31 reject close to half of all 32-bit draws; bound
    # 1 reads nothing, so the following bound-5 draw reads the first half
    keys = np.random.default_rng(4).integers(0, 2**64, size=(400, 2), dtype=np.uint64)
    half = _batch.half_words(keys, 2)
    bound = 2**31 + 12345
    values, rejected = _batch.lemire(half[:, 0], np.full(len(keys), bound))
    again, _ = _batch.lemire(half[:, 0], np.full(len(keys), 5))
    assert 100 < rejected.sum() < 300
    for i, key in enumerate(keys):
        gen = np.random.Generator(np.random.Philox(key=key))
        got = int(gen.integers(bound))
        if not rejected[i]:
            assert got == values[i]
        gen = np.random.Generator(np.random.Philox(key=key))
        assert int(gen.integers(1)) == 0 and int(gen.integers(5)) == again[i]


def assert_sampler_matches_draw_trial_path(setup, trials, base_seed, monkeypatch):
    """The batch sampler's (path, fragments, skipped) equals the scalar draw, trial by trial.

    Returns how many trials the sampler sent back through the scalar path.
    """
    redone = []
    scalar = _batch.draw_trial_path
    monkeypatch.setattr(_batch, "draw_trial_path", lambda *a: redone.append(1) or scalar(*a))
    law = _batch._PathLaw(setup)
    seeds = _batch._trial_seeds(base_seed, 1, np.arange(trials, dtype=np.uint64))
    assert [int(s) for s in seeds] == [derive_trial_seed(base_seed, 1, t) for t in range(trials)]
    segdict = setup.segment_dictionary()
    for t0 in range(0, trials, law.batch):
        drawn, paths, seqs = law.sample(seeds[t0 : t0 + law.batch])
        for i, seed in enumerate(seeds[t0 : t0 + law.batch]):
            rng = trial_rng(int(seed))
            try:
                path, seq = scalar(setup.placement, setup.n_nodes, segdict, setup.h, rng)
            except NoValidPath:
                assert not drawn[i]
                continue
            assert drawn[i]
            assert (tuple(paths[i]), tuple(seqs[i])) == (path, seq)
    return len(redone)


SAMPLER_CASES = [
    (PlacementSpec("uniform_per_segment", per_segment=2), 8, 4, 5),
    (PlacementSpec("balanced_prefix"), 9, 5, 6),
    (PlacementSpec("balanced_prefix"), 9, 1, 3),
    (PlacementSpec("random"), 10, 4, 4),  # about one trial in ten is skipped
    (PlacementSpec("random"), 10, 1, 4),  # one fragment: the placement draws nothing
    (PlacementSpec("random"), 10, 4, 1),
    (PlacementSpec("random"), 67, 6, 64),
    (PlacementSpec("explicit", segments=(1, 2, 2, 3, 3, 4)), 7, 4, 5),
    (PlacementSpec("explicit", segments=(2, 2, 3)), 4, 3, 2),  # nobody in fragment 1
    (PlacementSpec("free"), 8, 6, 5),
    (PlacementSpec("free"), 8, 3, 1),
    (PlacementSpec("free"), 70, 5, 66),
]


@pytest.mark.parametrize("placement,n,delta,h", SAMPLER_CASES)
def test_batch_sampler_matches_draw_trial_path(placement, n, delta, h, monkeypatch):
    setup = small_setup(placement=placement, n_nodes=n, num_segments=delta, h=h)
    assert assert_sampler_matches_draw_trial_path(setup, 600, 17, monkeypatch) == 0


@pytest.mark.parametrize("preset", PRESETS)
def test_batch_sampler_matches_draw_trial_path_on_presets(preset, monkeypatch):
    scn = load_preset(preset)
    param, values = scn.sweep
    for value in values if param == "delta" else values[:1]:
        setup = replace(scn.setup, **{SWEEPABLE[param]: value})
        redone = assert_sampler_matches_draw_trial_path(setup, 512, scn.base_seed, monkeypatch)
        assert redone == 0


def test_batch_sampler_redoes_rejected_draws_on_the_scalar_path(monkeypatch):
    # sum of C(32, j) for j <= 16 = 2^31 + 300540195 sequences: the rank
    # draw rejects about 43% of its 32-bit draws, and numpy draws again
    setup = small_setup(placement=PlacementSpec("free"), n_nodes=40, num_segments=17, h=33)
    redone = assert_sampler_matches_draw_trial_path(setup, 200, 5, monkeypatch)
    assert 50 < redone < 130


def test_batch_sampler_redoes_64_bit_rank_draws(monkeypatch):
    # 2^33 - 1 sequences: numpy draws the rank from full 64-bit words
    setup = small_setup(placement=PlacementSpec("free"), n_nodes=40, num_segments=33, h=34)
    assert assert_sampler_matches_draw_trial_path(setup, 40, 5, monkeypatch) == 40


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_batch_sampler_matches_on_drawn_setups(data):
    policy = data.draw(st.sampled_from(PLACEMENT_POLICIES))
    delta = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(2, 24))
    if policy == "uniform_per_segment":
        per = data.draw(st.integers(1 + (delta == 1), 4))
        n, placement = per * delta, PlacementSpec(policy, per_segment=per)
    else:
        segs = st.lists(st.integers(1, delta), min_size=n - 1, max_size=n - 1)
        segments = tuple(data.draw(segs)) if policy == "explicit" else None
        placement = PlacementSpec(policy, segments=segments)
    setup = small_setup(
        placement=placement, n_nodes=n, num_segments=delta, h=data.draw(st.integers(1, n - 1))
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_sampler_matches_draw_trial_path(
            setup, 64, data.draw(st.integers(0, 2**32 - 1)), monkeypatch
        )


def test_sequence_count_past_int64_is_refused_before_any_trial(monkeypatch):
    # sum of C(65, j) for j < 40 admissible sequences, about 2^65
    setup = small_setup(placement=PlacementSpec("free"), n_nodes=70, num_segments=40, h=66)
    monkeypatch.setattr(_batch, "trial_rng", None)  # no trial may start
    with pytest.raises(ParameterError, match="n=70, delta=40, hops=66"):
        run_point(setup, 4, base_seed=1)
    monkeypatch.undo()
    with pytest.raises(ParameterError, match="n=70, delta=40, hops=66"):
        run_trial(setup, 1, 0, 0)


def reference_labels(setup, trials, base_seed, point_tag):
    labels = []
    for t in range(trials):
        try:
            labels.append(run_trial(setup, base_seed, point_tag, t).classification)
        except NoValidPath:
            labels.append(_batch.SKIPPED)
    return labels


@pytest.mark.parametrize(
    "placement,n,delta,h",
    [
        (PlacementSpec("uniform_per_segment", per_segment=2), 8, 4, 5),
        (PlacementSpec("balanced_prefix"), 9, 5, 6),
        (PlacementSpec("random"), 10, 4, 4),
        (PlacementSpec("explicit", segments=(1, 2, 2, 3, 3, 4)), 7, 4, 5),
        (PlacementSpec("free"), 8, 6, 5),
        (PlacementSpec("random"), 10, 4, 1),  # single hop: every trial falls back
        (PlacementSpec("free"), 8, 3, 1),
        (PlacementSpec("random"), 67, 6, 64),
        (PlacementSpec("free"), 70, 5, 66),
    ],
)
def test_engines_agree_per_trial(placement, n, delta, h):
    # long paths need wider filters, or the reference's path search blows up
    wide = dict(m1=4096, k1=3, m2=512, k2=2) if h > 60 else {}
    setup = small_setup(placement=placement, n_nodes=n, num_segments=delta, h=h, **wide)
    trials = 300 if h <= 60 else 30
    assert reference_labels(setup, trials, 31, 2) == _batch.run_point_classifications(
        setup, trials, base_seed=31, point_tag=2
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_engines_agree_on_drawn_setups(data):
    policy = data.draw(st.sampled_from(PLACEMENT_POLICIES))
    delta = data.draw(st.integers(1, 6))
    if policy == "uniform_per_segment":
        # the unit takes one slot of fragment 1, so one fragment needs two
        per = data.draw(st.integers(1 + (delta == 1), 3))
        n, placement = per * delta, PlacementSpec(policy, per_segment=per)
    else:
        n = data.draw(st.integers(2, 9))
        segs = st.lists(st.integers(1, delta), min_size=n - 1, max_size=n - 1)
        segments = tuple(data.draw(segs)) if policy == "explicit" else None
        placement = PlacementSpec(policy, segments=segments)
    setup = SimulationSetup(
        n_nodes=n,
        num_segments=delta,
        road_length_m=100.0 * delta,
        placement=placement,
        h=data.draw(st.integers(1, min(7, n - 1))),
        m1=8 * data.draw(st.integers(8, 64)),
        k1=data.draw(st.integers(1, 4)),
        m2=8 * data.draw(st.integers(1, 16)),
        k2=data.draw(st.integers(1, 4)),
    )
    seed = data.draw(st.integers(0, 2**32 - 1))
    labels = _batch.run_point_classifications(setup, 20, base_seed=seed, point_tag=0)
    assert labels == reference_labels(setup, 20, seed, 0)


def test_batch_fallback_rebuilds_the_reference_packet(monkeypatch):
    # a narrow edge filter sends nearly every trial to the fallback, whose
    # packet must hold exactly the bits the relays embed hop by hop
    setup = SimulationSetup(
        n_nodes=12, num_segments=5, road_length_m=500.0, placement=PlacementSpec("free"),
        h=7, m1=40, k1=2, m2=64, k2=3,
    )
    rebuilt = []

    class Recording(Clbf):
        @classmethod
        def from_bits(cls, *args):
            rebuilt.append(args)
            return Clbf.from_bits(*args)

    monkeypatch.setattr(_batch, "Clbf", Recording)
    _batch._run(setup, 0, 300, 0, 0)
    assert len(rebuilt) > 250
    for m1, k1, m2, k2, seed, pid, hops, edge_bits, location_bits in rebuilt:
        _, _, pkt = trial_packet(setup, seed, pid)
        assert (m1, k1, m2, k2, hops) == (setup.m1, setup.k1, setup.m2, setup.k2, setup.h)
        assert edge_bits == pkt.edge_filter.raw_bits()
        assert location_bits == pkt.location_filter.raw_bits()


def test_batch_arrangement_count_saturates():
    # a lit-out location filter admits ~2^65 sequences at h=66 over 40
    # fragments, past int64: only the saturated count stays right
    setup = small_setup(
        placement=PlacementSpec("uniform_per_segment", per_segment=2),
        n_nodes=80, num_segments=40, h=66, m1=8192, k1=6, m2=8, k2=4,
    )
    assert set(_batch.run_point_classifications(setup, 8, base_seed=1, point_tag=0)) == {
        FALSE_POSITIVE
    }


def seed_tags(seeds):
    return np.array([_seed_tag(int(s)) for s in seeds], dtype=np.uint64)


def full_cell_codes(setup, seeds, pids, paths, seqs):
    """The engine's outcome codes with every admissible location cell probed
    and every admissible sequence counted (capped at 2): the location
    certificate's oracle. Also returns the rows whose neighbour cell (the
    other of {s_{i-1}, s_{i-1} + 1} at some position i) is positive."""
    n, h, delta = setup.n_nodes, setup.h, setup.num_segments
    width = min(delta, h)
    batch = len(paths)
    at = np.arange(batch)[:, None]

    def filled(keys, m, k):
        bits = np.zeros((batch, m), dtype=bool)
        bits[at, bloom._slots(keys, m, 0, k).transpose(1, 0, 2).reshape(batch, -1)] = True
        return bits

    def columns(layout, rows):
        """Each row's tuples as columns of `layout`, a (batch, len(row)) array."""
        index = {key: j for j, key in enumerate(layout)}
        return np.array([[index[key] for key in row] for row in rows], dtype=np.int64).reshape(
            batch, -1
        )

    pairs = [(a, b) for a in range(1, n) for b in range(1, n) if a != b]
    a, b = np.array(pairs, dtype=np.uint64).reshape(-1, 2).T
    edge = key_hashes(a, b, pids[:, None]) ^ seed_tags(seeds)[:, None]
    true_pos = columns(pairs, ([(p[i + 1], p[i]) for i in range(h - 1)] for p in paths.tolist()))
    bits1 = filled(edge[at, true_pos], setup.m1, setup.k1)
    clean = (bloom._probe(bits1, edge, setup.k1).sum(axis=1) == h - 1) & (h >= 2)

    # admissible cells: fragment s at position i only for s <= i + 1
    cells = [(i, s) for i in range(h) for s in range(1, min(i + 1, width) + 1)]
    pos, seg = np.array(cells).T
    loc = key_hashes(paths[:, pos], seg.astype(np.uint64), pids[:, None])
    loc ^= seed_tags(seeds + np.uint64(1))[:, None]
    bits2 = filled(loc[at, columns(cells, map(enumerate, seqs.tolist()))], setup.m2, setup.k2)
    reach = np.zeros((batch, h, width), dtype=bool)
    reach[:, pos, seg - 1] = bloom._probe(bits2, loc, setup.k2)
    cur = np.zeros((batch, width + 1), dtype=np.int64)
    cur[:, 1] = reach[:, 0, 0]
    for i in range(1, h):
        cur[:, 1:] = np.minimum(reach[:, i, :] * (cur[:, 1:] + cur[:, :-1]), 2)
    codes = np.where(cur.sum(axis=1) > 1, 1, 0)
    for r in np.flatnonzero(~clean):
        pkt = Clbf.from_bits(
            setup.m1, setup.k1, setup.m2, setup.k2, int(seeds[r]), int(pids[r]), h,
            np.packbits(bits1[r], bitorder="little").tobytes(),
            np.packbits(bits2[r], bitorder="little").tobytes(),
        )
        truth = (tuple(map(int, paths[r])), tuple(map(int, seqs[r])))
        label = recover_provenance(pkt, list(range(n)), delta, rsu=0, truth=truth).classification
        codes[r] = _batch._LABELS.index(label)
    frag = seqs.astype(np.int64) - 1
    near = 2 * frag[:, :-1] + 1 - frag[:, 1:]
    hit = np.take_along_axis(reach[:, 1:], np.minimum(near, width - 1)[:, :, None], axis=2)
    return codes, (hit[:, :, 0] & (near < width)).any(axis=1)


def test_location_certificate_matches_the_full_cell_oracle():
    # small, crowded location filters, so that both a row whose neighbours
    # are all negative and a row that must count its sequences come up
    certified, widened = [], []
    probe = _batch._probe
    scratch = _batch.Scratch()  # one for every example, as a worker keeps it

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        policies = ["free", "random", "balanced_prefix", "uniform_per_segment"]
        policy = data.draw(st.sampled_from(policies))
        delta = data.draw(st.sampled_from([1, 2]) | st.integers(1, 5))
        h = data.draw(st.sampled_from([1, 2]) | st.integers(1, 7))
        if policy == "uniform_per_segment":
            per = data.draw(st.integers(1 + (delta == 1), 4))
            n, placement = per * delta, PlacementSpec(policy, per_segment=per)
            h = min(h, n - 1)
        else:
            n, placement = data.draw(st.integers(h + 1, h + 4)), PlacementSpec(policy)
        m2 = data.draw(st.integers(2, 64))
        setup = SimulationSetup(
            n_nodes=n, num_segments=delta, road_length_m=100.0 * delta, placement=placement, h=h,
            m1=8 * data.draw(st.integers(8, 32)), k1=data.draw(st.integers(1, 4)),
            m2=m2, k2=data.draw(st.integers(max(1, m2 // 4), m2)),
        )
        trials = np.arange(64, dtype=np.uint64)
        seeds = _batch._trial_seeds(data.draw(st.integers(0, 2**32 - 1)), 3, trials)
        drawn, paths, seqs = _batch._PathLaw(setup).sample(seeds)
        args = (
            seeds[drawn], (np.uint64(3 << 32) | trials)[drawn],
            paths[drawn].astype(np.uint64), seqs[drawn].astype(np.uint64),
        )
        if not drawn.any():
            return
        calls = []
        grid = _key_grid(range(1, n), min(delta, h))
        _batch._probe = lambda bits, *a, **kw: calls.append(len(bits)) or probe(bits, *a, **kw)
        try:
            codes = _batch._classify(setup, grid, *args, scratch)
        finally:
            _batch._probe = probe
        want, positive_neighbour = full_cell_codes(setup, *args)
        assert codes.tolist() == want.tolist()
        # edge probe, certificate probe, then the widened rows' probe if any
        wide = calls[2] if len(calls) == 3 else 0
        assert wide == positive_neighbour.sum()
        certified.append(int(drawn.sum()) - wide)
        widened.append(wide)

    check()
    assert sum(certified) > 0 and sum(widened) > 0


def test_engine_edge_columns_hold_each_relay_pairs_key(monkeypatch):
    # one two-hop row per ordered relay pair (a, b): the edge filter is
    # filled from the engine's column of a -> b, which must hash that key
    fill = _batch._fill
    filled = []
    monkeypatch.setattr(
        _batch, "_fill", lambda bits, keys, *a: filled.append(keys.copy()) or fill(bits, keys, *a)
    )
    rng = np.random.default_rng(7)
    for n in (3, 4, 7, 12):
        setup = small_setup(n_nodes=n, h=2, placement=PlacementSpec("free"))
        relays = range(1, n)
        pairs = np.array([(a, b) for a in relays for b in relays if a != b], dtype=np.uint64)
        for pid_bits in (8, 40, 64):
            seeds = rng.integers(0, 2**64, len(pairs), dtype=np.uint64)
            pids = rng.integers(0, 2**pid_bits, len(pairs), dtype=np.uint64)
            filled.clear()
            _batch._classify(
                setup, _key_grid(range(1, n), 2), seeds, pids, pairs[:, ::-1].copy(),
                np.ones((len(pairs), 2), dtype=np.uint64), _batch.Scratch(),
            )
            want = key_hashes(pairs[:, 0], pairs[:, 1], pids) ^ seed_tags(seeds)
            assert filled[0][:, 0].tolist() == want.tolist()


def assert_point_matches_reference(setup, trials, seed):
    labels = reference_labels(setup, trials, seed, 0)
    result = run_point(setup, trials, base_seed=seed)
    assert result == PointResult(
        trials,
        labels.count(UNIQUE),
        labels.count(FALSE_POSITIVE),
        labels.count(MISS),
        labels.count(_batch.SKIPPED),
    )
    assert result.miss == 0
    return result


def test_run_point_engines_aggregate_identically():
    assert_point_matches_reference(small_setup(), 400, 5)


def test_single_hop_points_use_the_reference_engine():
    # h=1 points go through the batch engine like every other point; their
    # tally must be the one the per-trial reference engine gives.
    setup = small_setup(h=1, placement=PlacementSpec("balanced_prefix"))
    result = assert_point_matches_reference(setup, 400, 5)
    assert result.trials == 400
    assert run_point(setup, 50, base_seed=3).miss == 0


def test_run_point_is_reproducible():
    setup = small_setup(placement=PlacementSpec("random"), n_nodes=10)
    assert run_point(setup, 200, base_seed=9) == run_point(setup, 200, base_seed=9)
    assert run_point(setup, 200, base_seed=9) != run_point(setup, 200, base_seed=10)


# ---------------------------------------------------------------------------
# aggregation


def test_point_result_rates():
    r = PointResult(trials=10, unique=6, false_positive=2, miss=0, skipped=2)
    assert r.effective == 8
    assert r.fp_rate == pytest.approx(0.25)
    lo, hi = r.fp_interval()
    assert lo < 0.25 < hi
    empty = PointResult(trials=3, unique=0, false_positive=0, miss=0, skipped=3)
    assert empty.fp_rate == 0.0
    assert empty.fp_interval() == (0.0, 1.0)


def test_point_result_tally_check_survives_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "from clbf.simulate import PointResult; PointResult(3, 1, 1, 1, 1)"
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode != 0
    assert "AssertionError: tallies do not add up to 3 trials" in run.stderr


def test_wilson_interval_frozen():
    lo, hi = wilson_interval(5, 100)
    assert lo == pytest.approx(0.02154367915436796, rel=1e-12)
    assert hi == pytest.approx(0.11175046923191913, rel=1e-12)
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert wilson_interval(0, 50)[0] == pytest.approx(0.0, abs=1e-12)
    assert wilson_interval(50, 50)[1] == pytest.approx(1.0, abs=1e-12)
    assert Z95 == pytest.approx(1.959963984540054)


def test_run_sweep_carries_the_model_column():
    from clbf.analytics import ModelParams, fp_probability

    setup = small_setup(m1=512, k1=3)
    rows = run_sweep(setup, "k2", [1, 2, 3], trials=100, base_seed=11)
    assert [r.value for r in rows] == [1, 2, 3]
    for row in rows:
        params = ModelParams(m2=setup.m2, k2=row.value, h=setup.h, delta=setup.num_segments)
        assert row.model_fp == fp_probability(params).total
        assert row.result.trials == 100
    with pytest.raises(ParameterError):
        run_sweep(setup, "m1", [64], trials=10, base_seed=1)


def test_setup_validation():
    with pytest.raises(ParameterError):
        small_setup(h=8)  # more hops than vehicles
    with pytest.raises(ParameterError):
        small_setup(n_nodes=1, h=1)
    with pytest.raises(ParameterError):  # the wire format counts hops in a u8
        small_setup(n_nodes=300, h=256)
    assert small_setup(n_nodes=300, h=255).h == 255
    for m, k in ((4, 8), (0, 1), (2**32, 1), (8, 0)):
        with pytest.raises(ParameterError):  # the packet's own filters
            bloom.BloomFilter(m, k)
        with pytest.raises(ParameterError, match="location filter"):
            small_setup(m2=m, k2=k)
        with pytest.raises(ParameterError, match="edge filter"):
            small_setup(m1=m, k1=k)
    assert small_setup(m2=2**32 - 1, k2=2**32 - 1).k2 == 2**32 - 1


def test_sweep_refuses_a_bad_geometry_before_any_trial(monkeypatch):
    monkeypatch.setattr(_batch, "_run", None)  # no trial may start
    monkeypatch.setattr(_batch, "trial_rng", None)
    with pytest.raises(ParameterError, match=r"k=5 outside \[1, m=3\]"):
        run_sweep(small_setup(k2=5), "m2", [3, 100], trials=8, base_seed=1)
    with pytest.raises(ParameterError, match="k=300"):
        run_sweep(small_setup(), "k2", [2, 300], trials=8, base_seed=1)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**65 - 1])
def test_base_seeds_outside_u64_are_refused(seed, monkeypatch):
    with pytest.raises(ParameterError, match="base seed"):
        derive_trial_seed(seed, 0, 0)
    with pytest.raises(ParameterError, match="base seed"):
        run_trial(small_setup(), seed, 0, 0)
    with pytest.raises(ParameterError, match="base seed"):
        sample_occupancy(32, 3, 4, 50, seed)
    monkeypatch.setattr(_batch, "_run", None)  # refused before any trial
    with pytest.raises(ParameterError, match="base seed"):
        run_point(small_setup(), 4, seed)
    monkeypatch.undo()
    assert run_point(small_setup(), 4, 2**64 - 1).trials == 4
    assert sample_occupancy(32, 3, 4, 50, 2**64 - 1).shape == (50,)


def dense_occupancy(m2, k2, h, trials, base_seed):
    """The lit bits of one dense filter per trial, h location keys each."""
    counts = []
    for t in range(trials):
        f = bloom.BloomFilter(m2, k2, derive_trial_seed(base_seed, 0, t))
        for node in range(h):
            f.insert(location_key(node, 1, t))
        counts.append(f.popcount())
    return counts


@pytest.mark.parametrize(
    "m2,k2,h,trials,base_seed",
    [(32, 3, 4, 4100, 8), (200, 8, 15, 40, 1), (1, 1, 3, 5, 0), (7, 7, 9, 30, 2),
     (4096, 64, 10, 20, 3), (100000, 3, 2, 60, 5)],
)
def test_sample_occupancy_equals_a_dense_count(m2, k2, h, trials, base_seed):
    assert sample_occupancy(m2, k2, h, trials, base_seed).tolist() == dense_occupancy(
        m2, k2, h, trials, base_seed
    )


def test_sample_occupancy_builds_no_filter_sized_array():
    tracemalloc.start()
    try:
        assert sample_occupancy(2**32 - 1, 1, 1, 1).tolist() == [1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a dense row would be 4 GiB


def test_sample_occupancy_refuses_a_row_past_the_batch_budget():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="one trial needs 8589934592 bytes, past BATCH_BYTES"):
            sample_occupancy(2**32 - 1, 2**30, 1, 1)  # 8 GiB of slots in one row
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before any slot array exists


def test_sample_occupancy_frees_each_block_before_the_next():
    # 8 192 rows of 10 slots make two full blocks of 4 096 rows, 320 KiB of
    # slots each: a block's slots and the hash's temporary fit the bound only
    # if the first block's arrays are gone before the second is hashed
    sample_occupancy(2**32 - 1, 10, 1, 1)  # the engine's module is imported
    tracemalloc.start()
    try:
        counts = sample_occupancy(2**32 - 1, 10, 1, 8192, base_seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for t in (0, 4095, 4096, 8191):  # the rows on each side of the block boundary
        slots = bloom.hash_indices(location_key(0, 1, t), 2**32 - 1, 10, derive_trial_seed(5, 0, t))
        assert counts[t] == len(set(slots))


# SHA-256 of the benchmark probe's counts, (m2, k2, h, trials) = (200, 8, 15, 2048)
# at base seed 0, as little-endian int64
OCCUPANCY_PROBE_DIGEST = "7369de8e39badf2b1345bc84720dfe518d1f9f35771fdf5a339744fd15fc07ee"


def test_sample_occupancy_blocks_leave_the_counts_unchanged(monkeypatch):
    counts = sample_occupancy(200, 8, 15, 2048)
    assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == OCCUPANCY_PROBE_DIGEST
    monkeypatch.setattr(_batch, "BATCH_BYTES", 7 * 15 * 8 * 8)  # blocks of 7 rows
    assert np.array_equal(sample_occupancy(200, 8, 15, 2048), counts)


def test_sample_occupancy_deterministic_and_bounded():
    a = sample_occupancy(32, 3, 4, trials=500, base_seed=8)
    b = sample_occupancy(32, 3, 4, trials=500, base_seed=8)
    assert np.array_equal(a, b)
    assert a.shape == (500,)
    assert a.min() >= 1 and a.max() <= 12  # at most k2*h slots lit
    with pytest.raises(ValueError):
        sample_occupancy(0, 1, 1, 5)
    # only filters the packet can build: 1 <= k2 <= m2 <= 2^32 - 1
    with pytest.raises(ParameterError, match="hash count k=9"):
        sample_occupancy(4, 9, 3, 5)
    with pytest.raises(ParameterError, match="bit count"):
        sample_occupancy(2**33, 1, 1, 1)  # refused before any allocation
