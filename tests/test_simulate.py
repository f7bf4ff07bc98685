"""Monte Carlo driver: sampling laws, seeding, and engine agreement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clbf import _batch
from clbf.bloom import ParameterError, fnv1a64, mix64, _seed_tag
from clbf.protocol import FALSE_POSITIVE, MISS, UNIQUE, edge_key, location_key
from clbf.segments import SegmentDictionary, enumerate_valid_sequences, is_valid_sequence
from clbf.simulate import (
    PLACEMENT_POLICIES,
    Network,
    NoValidPath,
    PlacementSpec,
    PointResult,
    SimulationSetup,
    Z95,
    count_feasible_sequences,
    derive_trial_seed,
    draw_trial_path,
    generate_free_path,
    generate_network,
    generate_path,
    run_point,
    run_sweep,
    run_trial,
    sample_occupancy,
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
    net = generate_network(
        PlacementSpec("uniform_per_segment", per_segment=2), 8, SEGDICT, trial_rng(0)
    )
    assert net.segment_counts() == (1, 2, 2, 2)
    assert net.n_nodes == 8
    assert net.segment_members(1) == (1,)
    with pytest.raises(ParameterError):
        generate_network(
            PlacementSpec("uniform_per_segment", per_segment=2), 9, SEGDICT, trial_rng(0)
        )


def test_balanced_prefix_spreads_the_remainder_forward():
    net = generate_network(PlacementSpec("balanced_prefix"), 7, SEGDICT, trial_rng(0))
    assert net.segment_counts() == (2, 2, 1, 1)  # 6 vehicles over 4 fragments


def test_random_placement_is_seeded():
    spec = PlacementSpec("random")
    a = generate_network(spec, 10, SEGDICT, trial_rng(5))
    b = generate_network(spec, 10, SEGDICT, trial_rng(5))
    c = generate_network(spec, 10, SEGDICT, trial_rng(6))
    assert a == b
    assert a != c
    assert all(1 <= s <= 4 for s in a.vehicle_segments)


def test_explicit_placement_by_fragments_and_coordinates():
    spec = PlacementSpec("explicit", segments=(2, 1, 4))
    net = generate_network(spec, 4, SEGDICT, trial_rng(0))
    assert net.vehicle_segments == (2, 1, 4)
    spec = PlacementSpec("explicit", coordinates=(10.0, 990.0, 400.0))
    net = generate_network(spec, 4, SEGDICT, trial_rng(0))
    assert net.vehicle_segments == (1, 4, 2)
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


def test_generate_path_respects_the_placement():
    net = Network(num_segments=3, vehicle_segments=(1, 1, 2, 2, 3))
    for seed in range(40):
        path, seq = generate_path(net, 4, trial_rng(seed))
        assert len(path) == len(seq) == 4
        assert len(set(path)) == 4
        assert is_valid_sequence(seq, 3)
        for node, seg in zip(path, seq):
            assert net.vehicle_segments[node - 1] == seg


def test_generate_path_infeasible_staffing():
    # nobody in the receiver's fragment: no admissible sequence can start
    net = Network(num_segments=3, vehicle_segments=(2, 2, 3))
    with pytest.raises(NoValidPath):
        generate_path(net, 2, trial_rng(0))
    with pytest.raises(NoValidPath):  # more hops than vehicles
        generate_path(Network(3, (1, 2)), 3, trial_rng(0))


def test_generate_path_sequence_frequencies_are_uniform():
    net = Network(num_segments=2, vehicle_segments=(1, 1, 1, 2, 2, 2))
    # feasible sequences of length 3: 111, 112, 122 (122 needs two in f2)
    rng = trial_rng(2024)
    seen = {}
    for _ in range(3000):
        _, seq = generate_path(net, 3, rng)
        seen[seq] = seen.get(seq, 0) + 1
    assert set(seen) == {(1, 1, 1), (1, 1, 2), (1, 2, 2)}
    for count in seen.values():
        assert 850 <= count <= 1150  # ~4 sigma around 1000


def test_generate_free_path_covers_all_sequences():
    rng = trial_rng(99)
    seen = {}
    for _ in range(3000):
        path, seq = generate_free_path(8, 2, 3, rng)
        assert len(set(path)) == 3
        assert all(1 <= v <= 7 for v in path)
        assert is_valid_sequence(seq, 2)
        seen[seq] = seen.get(seq, 0) + 1
    assert set(seen) == set(map(tuple, ([1, 1, 1], [1, 1, 2], [1, 2, 2])))
    for count in seen.values():
        assert 850 <= count <= 1150


def test_generate_free_path_needs_enough_vehicles():
    with pytest.raises(NoValidPath):
        generate_free_path(4, 3, 4, trial_rng(0))


def test_draw_trial_path_dispatch():
    rng = trial_rng(7)
    path, seq = draw_trial_path(PlacementSpec("free"), 8, SEGDICT, 5, rng)
    assert len(path) == 5 and is_valid_sequence(seq, 4)
    rng = trial_rng(7)
    spec = PlacementSpec("uniform_per_segment", per_segment=2)
    path2, seq2 = draw_trial_path(spec, 8, SEGDICT, 5, rng)
    net = generate_network(spec, 8, SEGDICT, trial_rng(7))
    assert all(net.vehicle_segments[n - 1] == s for n, s in zip(path2, seq2))


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
    prev, curr, node, seg, pid = 5, 2, 7, 3, (11 << 32) | 4
    pid_bytes = [np.uint64((pid >> (8 * j)) & 0xFF) for j in range(8)]
    arr = lambda v: np.array([v], dtype=np.uint64)
    edge = _batch._fnv(
        (1,),
        [*_batch._u16_field(arr(prev)), *_batch._u16_field(arr(curr)),
         *_batch._u64_field(pid_bytes)],
    )
    assert int(edge[0]) == fnv1a64(edge_key(prev, curr, pid))
    loc = _batch._fnv(
        (1,),
        [*_batch._u16_field(arr(node)), *_batch._u16_field(arr(seg)),
         *_batch._u64_field(pid_bytes)],
    )
    assert int(loc[0]) == fnv1a64(location_key(node, seg, pid))


def test_batch_slot_indices_match_the_scalar_hash():
    h0 = fnv1a64(edge_key(1, 2, 3))
    seed = 991
    idx = _batch._slot_indices(
        np.array([h0], dtype=np.uint64), np.array([_seed_tag(seed)], dtype=np.uint64),
        m=97, k=5,
    )
    from clbf.bloom import hash_indices
    assert idx[0].tolist() == hash_indices(edge_key(1, 2, 3), 97, 5, seed)


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


def test_sample_occupancy_deterministic_and_bounded():
    a = sample_occupancy(32, 3, 4, trials=500, base_seed=8)
    b = sample_occupancy(32, 3, 4, trials=500, base_seed=8)
    assert np.array_equal(a, b)
    assert a.shape == (500,)
    assert a.min() >= 1 and a.max() <= 12  # at most k2*h slots lit
    with pytest.raises(ValueError):
        sample_occupancy(0, 1, 1, 5)
