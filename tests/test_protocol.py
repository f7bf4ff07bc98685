"""Packet life cycle: key layout, wire image, embedding, recovery."""

import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clbf import protocol
from clbf.bloom import ParameterError, fnv1a64
from clbf.protocol import (
    FALSE_POSITIVE,
    MISS,
    UNIQUE,
    Clbf,
    ProtocolError,
    edge_key,
    key_hashes,
    location_key,
    location_table,
    recover_edges,
    recover_locations,
    recover_paths,
    recover_provenance,
)
from clbf.segments import ResourceCapError, count_valid_sequences, is_valid_sequence


def make_packet(m1=256, k1=3, m2=64, k2=3, seed=42, pid=7):
    return Clbf.create(m1, k1, m2, k2, seed, pid)


# Scalar oracles: the receiver's probes key by key through
# `BloomFilter.contains`, and its searches as depth-first walks that spend
# one unit of budget per chain or prefix, as the level sweeps must
# reproduce them.


def scalar_edges(pkt, nodes):
    return {
        (a, b)
        for a in nodes
        for b in nodes
        if a != b and pkt.edge_filter.contains(edge_key(a, b, pkt.pid))
    }


def scalar_paths(edges, candidates, length, cap):
    """The chain walk, one unit of `cap` per chain, starts included; None past `cap`."""
    allowed = set(candidates)
    succ = {}
    for a, b in sorted(edges):
        if a in allowed and b in allowed:
            succ.setdefault(a, []).append(b)
    out, budget = [], [cap]

    def extend(chain):
        budget[0] -= 1
        if budget[0] < 0:
            return False
        if len(chain) == length:
            out.append(tuple(reversed(chain)))
            return True
        return all(extend(chain + [n]) for n in succ.get(chain[-1], ()) if n not in chain)

    return sorted(out) if all(extend([start]) for start in sorted(allowed)) else None


def two_stage(pkt, nodes, num_segments, rsu, truth=None):
    """(arrangements, classification, truth_recovered) of the two-stage search.

    Every chain the edge filter admits first, then each chain's fragment
    sequences over one location table: the public searches, composed.
    """
    candidates = [n for n in nodes if n != rsu]
    paths = recover_paths(recover_edges(pkt, nodes), candidates, pkt.hop_count)
    table = location_table(pkt, {node for path in paths for node in path}, num_segments)
    arrangements = tuple(
        (path, seq) for path in paths for seq in recover_locations(pkt, path, num_segments, table=table)
    )
    recovered = None if truth is None else (tuple(truth[0]), tuple(truth[1])) in arrangements
    missed = recovered is False or not arrangements
    label = MISS if missed else FALSE_POSITIVE if len(arrangements) > 1 else UNIQUE
    return arrangements, label, recovered


def scalar_locations(pkt, path, num_segments, cap):
    """The location walk with one `contains` per (position, fragment); None past `cap`."""
    table = {
        node: {s for s in range(1, num_segments + 1)
               if pkt.location_filter.contains(location_key(node, s, pkt.pid))}
        for node in path
    }
    return walk_locations(table, path, num_segments, cap)


def walk_locations(table, path, num_segments, cap):
    """Admissible sequences over `table`, one unit of `cap` per prefix; None past `cap`."""
    out, budget = [], [cap]

    def extend(prefix):
        budget[0] -= 1
        if budget[0] < 0:
            return False
        if len(prefix) == len(path):
            out.append(tuple(prefix))
            return True
        options = (1,) if not prefix else (prefix[-1], prefix[-1] + 1)
        return all(
            extend(prefix + [s])
            for s in options
            if s <= num_segments and s in table[path[len(prefix)]]
        )

    return out if extend([]) else None


def test_key_layouts_are_length_prefixed_le():
    assert edge_key(2, 3, 5) == bytes(
        [2, 0, 2, 0, 2, 0, 3, 0, 8, 0, 5, 0, 0, 0, 0, 0, 0, 0]
    )
    assert location_key(1, 4, 0x0102) == bytes(
        [2, 0, 1, 0, 2, 0, 4, 0, 8, 0, 2, 1, 0, 0, 0, 0, 0, 0]
    )
    # edge and location keys with equal fields must not alias
    assert edge_key(1, 4, 0x0102) == location_key(1, 4, 0x0102)  # same bytes...
    pkt = make_packet()
    pkt.location_filter.insert(location_key(1, 4, pkt.pid))
    assert not pkt.edge_filter.contains(edge_key(1, 4, pkt.pid))  # ...different filter


def test_key_range_validation():
    with pytest.raises(ParameterError):
        edge_key(-1, 2, 0)
    with pytest.raises(ParameterError):
        edge_key(1, 1 << 16, 0)
    with pytest.raises(ParameterError):
        location_key(1, 2, 1 << 64)


def test_embedding_accounting():
    pkt = make_packet()
    pkt.embed_path(path=(3, 1, 2), seq=(1, 1, 2))
    assert pkt.hop_count == 3
    assert pkt.location_filter.popcount() <= 3 * pkt.location_filter.k
    assert pkt.edge_filter.popcount() <= 2 * pkt.edge_filter.k
    # stored content always tests positive
    assert pkt.edge_filter.contains(edge_key(1, 3, pkt.pid))
    assert pkt.edge_filter.contains(edge_key(2, 1, pkt.pid))
    for node, seg in zip((3, 1, 2), (1, 1, 2)):
        assert pkt.location_filter.contains(location_key(node, seg, pkt.pid))


def test_embedding_order_is_enforced():
    pkt = make_packet()
    with pytest.raises(ProtocolError):
        pkt.embed_forward(1, 2, 1)  # no source yet
    pkt.embed_source(5, 1)
    with pytest.raises(ProtocolError):
        pkt.embed_source(5, 1)  # only one origin
    with pytest.raises(ProtocolError):
        pkt.embed_forward(3, 3, 1)  # self-edge


def test_embed_path_needs_one_fragment_per_node():
    pkt = make_packet()
    for path, seq in (((), ()), ((3, 1), (1,)), ((3,), (1, 1))):
        with pytest.raises(ParameterError, match="need as many"):
            pkt.embed_path(path, seq)
    assert pkt.hop_count == 0 and pkt.edge_filter.popcount() == 0


def test_hop_counter_is_capped():
    pkt = make_packet(m1=1 << 14, k1=2, m2=64, k2=2)
    pkt.embed_source(0, 1)
    pkt.hop_count = 0xFE
    pkt.embed_forward(1, 2, 1)
    with pytest.raises(ProtocolError):
        pkt.embed_forward(2, 3, 1)


def test_wire_header_layout():
    pkt = Clbf.create(16, 2, 8, 1, seed=3, pid=0x0A0B)
    blob = pkt.to_bytes()
    assert blob[:29] == bytes(
        [0x0B, 0x0A, 0, 0, 0, 0, 0, 0]  # pid u64le
        + [0]  # hop count
        + [16, 0, 0, 0]  # edge width u32le
        + [8, 0, 0, 0]  # location width u32le
        + [2, 0]  # edge hash count u16le
        + [1, 0]  # location hash count u16le
        + [3, 0, 0, 0, 0, 0, 0, 0]  # seed u64le
    )
    assert len(blob) == pkt.wire_size() == 29 + 2 + 1


def test_wire_roundtrip_preserves_everything():
    pkt = make_packet(m1=100, k1=4, m2=33, k2=2, seed=99, pid=123456789)
    pkt.embed_path((4, 2, 7, 1), (1, 2, 2, 3))
    blob = pkt.to_bytes()
    back = Clbf.from_bytes(blob)
    assert back.pid == pkt.pid and back.seed == pkt.seed
    assert back.hop_count == 4
    assert back.edge_filter == pkt.edge_filter
    assert back.location_filter == pkt.location_filter
    # the packed bits alone rebuild the same packet
    edge_bits, location_bits = blob[29:42], blob[42:]
    rebuilt = Clbf.from_bits(100, 4, 33, 2, 99, 123456789, 4, edge_bits, location_bits)
    assert rebuilt.to_bytes() == blob
    with pytest.raises(ParameterError, match="hop_count 256"):
        Clbf.from_bits(100, 4, 33, 2, 99, 123456789, 256, edge_bits, location_bits)


def test_wire_size_is_constant_under_embedding():
    pkt = make_packet()
    before = pkt.wire_size()
    pkt.embed_path((5, 4, 3, 2, 1), (1, 1, 2, 3, 3))
    assert pkt.wire_size() == before


def test_from_bytes_rejects_wrong_body_length():
    blob = make_packet().to_bytes()
    with pytest.raises(ParameterError):
        Clbf.from_bytes(blob[:-1])
    with pytest.raises(ParameterError):
        Clbf.from_bytes(blob + b"\x00")


def test_recover_edges_sees_all_stored_pairs():
    pkt = make_packet(m1=4096, k1=4)
    pkt.embed_path((3, 1, 2), (1, 1, 2))
    edges = recover_edges(pkt, nodes=range(5))
    assert {(1, 3), (2, 1)} <= edges  # forwarding direction: outward -> inward


def test_recover_edges_rejects_ids_outside_u16():
    pkt = make_packet()
    pkt.embed_path((3, 1, 2), (1, 1, 2))
    # a cast to uint64 would wrap -1 to 2^64 - 1 without a word
    for nodes in ([1, -1], [1, 1 << 16], [-1]):
        with pytest.raises(ParameterError, match="node id"):
            recover_edges(pkt, nodes)
    with pytest.raises(ParameterError, match="node id"):
        recover_locations(pkt, (3, -1), num_segments=2)
    for num_segments in (0, 1 << 16):  # fragment numbers are u16, and at least one
        with pytest.raises(ParameterError, match="segment count"):
            recover_locations(pkt, (3, 1), num_segments=num_segments)
        with pytest.raises(ParameterError, match="segment count"):
            location_table(pkt, (3, 1), num_segments)
        with pytest.raises(ParameterError, match="segment count"):
            recover_provenance(pkt, range(4), num_segments, rsu=0, truth=((3, 1, 2), (1, 1, 2)))


def test_recover_locations_rejects_an_empty_path():
    pkt = make_packet()
    pkt.embed_path((3, 1, 2), (1, 1, 2))
    with pytest.raises(ParameterError, match="empty path"):
        recover_locations(pkt, (), num_segments=3)


def test_recover_edges_matches_the_pairwise_probe():
    pkt = make_packet(m1=32, k1=1)  # narrow: false edges come back too
    pkt.embed_path((3, 1, 2, 6, 5), (1, 1, 2, 2, 3))
    edges = recover_edges(pkt, range(9))
    assert edges == scalar_edges(pkt, range(9))
    assert len(edges) > 4
    assert recover_edges(pkt, [5, 2, 2, 8, 0, 1, 3, 3, 6, 7, 4, 5]) == edges
    assert recover_edges(pkt, [1, 2]) == scalar_edges(pkt, [1, 2])
    assert recover_edges(pkt, []) == set()


def test_multi_path_arrangements_match_a_per_path_walk():
    pkt = make_packet(m2=96, k2=2)
    path, seq = (3, 1, 2, 6), (1, 2, 2, 3)
    pkt.embed_path(path, seq)
    pkt.edge_filter.fill()  # every chain over the relays is a candidate path
    nodes = range(7)
    out = recover_provenance(pkt, nodes, num_segments=4, rsu=0, truth=(path, seq))
    chains = scalar_paths(scalar_edges(pkt, nodes), range(1, 7), 4, 10**6)
    assert len(chains) == 6 * 5 * 4 * 3
    expected = tuple((p, s) for p in chains for s in scalar_locations(pkt, p, 4, 10**6))
    assert out.arrangements == expected
    assert out.paths == tuple(dict.fromkeys(p for p, _ in expected))
    assert len({p for p, _ in expected}) > 1
    assert out.classification == FALSE_POSITIVE and out.truth_recovered is True


def test_location_walk_spends_its_budget_as_the_per_key_walk(monkeypatch):
    pkt = make_packet(m2=16, k2=1)
    path = (5, 4, 3, 2, 1, 7, 8)
    pkt.embed_path(path, (1, 1, 2, 2, 3, 3, 4))
    need = next(c for c in range(1, 10**4) if scalar_locations(pkt, path, 4, c) is not None)
    assert need > 30
    monkeypatch.setattr(protocol, "SEQUENCE_CAP", need)
    assert recover_locations(pkt, path, 4) == scalar_locations(pkt, path, 4, need)
    monkeypatch.setattr(protocol, "SEQUENCE_CAP", need - 1)
    with pytest.raises(ResourceCapError, match=f"cap of {need - 1}"):
        recover_locations(pkt, path, 4)


def test_joint_sweep_charges_every_pair_it_makes(monkeypatch):
    pkt = make_packet()
    pkt.embed_path((1, 2, 3, 4), (1, 1, 1, 1))
    pkt.edge_filter.fill()
    pkt.location_filter.fill()
    # pairs (chain, prefix) per level: 6 * 1, 30 * 2, 120 * 4, 360 * 8
    need = 6 + 60 + 480 + 2880
    monkeypatch.setattr(protocol, "PATH_CAP", need)
    out = recover_provenance(pkt, range(7), num_segments=4, rsu=0)
    assert len(out.arrangements) == 2880 and len(out.paths) == 360
    assert out.arrangements == two_stage(pkt, range(7), 4, rsu=0)[0]
    monkeypatch.setattr(protocol, "PATH_CAP", need - 1)
    with pytest.raises(ResourceCapError, match=f"path search exceeded its cap of {need - 1}"):
        recover_provenance(pkt, range(7), num_segments=4, rsu=0)


def test_joint_sweep_finishes_where_the_chain_search_passes_its_cap(monkeypatch):
    pkt = make_packet(m2=4096, k2=8)
    path, seq = (3, 1, 2, 6, 5, 4, 8, 7), tuple(range(1, 9))  # one fragment per relay
    pkt.embed_path(path, seq)
    pkt.edge_filter.fill()  # every simple chain of 8 over 9 relays: 623 529 made
    monkeypatch.setattr(protocol, "PATH_CAP", 1000)
    with pytest.raises(ResourceCapError):
        two_stage(pkt, range(10), 8, rsu=0)
    out = recover_provenance(pkt, range(10), num_segments=8, rsu=0, truth=(path, seq))
    assert out.arrangements == ((path, seq),) and out.paths == (path,)
    assert out.classification == UNIQUE


def test_recover_paths_walks_chains():
    edges = {(1, 2), (2, 3), (9, 9)}
    assert recover_paths(edges, candidates=[1, 2, 3], length=3) == [(3, 2, 1)]
    # branch: 1->2, 1->4, 4->3, 2->3 gives two 3-chains into 3
    edges = {(1, 2), (1, 4), (4, 3), (2, 3)}
    assert recover_paths(edges, [1, 2, 3, 4], 3) == [(3, 2, 1), (3, 4, 1)]
    # candidates exclude nodes from chains entirely
    assert recover_paths({(1, 2), (2, 3)}, [1, 2], 2) == [(2, 1)]


def test_recover_paths_never_revisits_a_node():
    edges = {(1, 2), (2, 1)}
    assert recover_paths(edges, [1, 2], 3) == []


def test_recover_paths_cap(monkeypatch):
    # complete digraph on 9 nodes explodes combinatorially
    edges = {(a, b) for a in range(9) for b in range(9) if a != b}
    monkeypatch.setattr(protocol, "PATH_CAP", 500)
    with pytest.raises(ResourceCapError):
        recover_paths(edges, list(range(9)), 8)


def test_an_exploding_search_draws_at_most_one_tuple_past_its_cap(monkeypatch):
    drawn = []  # tuples each level's generator handed to `islice`

    def counting_islice(tuples, stop):
        drawn.append(0)

        def pulled():
            for t in tuples:
                drawn[-1] += 1
                yield t

        return itertools.islice(pulled(), stop)

    monkeypatch.setattr(protocol, "islice", counting_islice)
    monkeypatch.setattr(protocol, "PATH_CAP", 500)
    edges = {(a, b) for a in range(9) for b in range(9) if a != b}
    with pytest.raises(ResourceCapError, match="path search exceeded its cap of 500"):
        recover_paths(edges, list(range(9)), 8)
    # 9 starts and 72 two-node chains fit; the 504 three-node chains do not
    assert drawn == [9, 72, 500 - 9 - 72 + 1]
    drawn.clear()
    monkeypatch.setattr(protocol, "SEQUENCE_CAP", 100)
    pkt = make_packet()
    pkt.location_filter.fill()
    with pytest.raises(ResourceCapError, match="sequence search exceeded its cap of 100"):
        recover_locations(pkt, tuple(range(1, 13)), num_segments=12)
    assert max(drawn) <= 100 + 1 and sum(drawn) == 100 + 1


def test_recover_locations_prunes_to_admissible():
    pkt = make_packet(m2=512, k2=4)
    pkt.embed_path((3, 1, 2), (1, 2, 2))
    seqs = recover_locations(pkt, (3, 1, 2), num_segments=4)
    assert (1, 2, 2) in seqs
    for seq in seqs:
        assert seq[0] == 1
        assert all(b - a in (0, 1) for a, b in zip(seq, seq[1:]))


def test_recover_locations_saturated_filter_yields_every_sequence():
    pkt = make_packet()
    pkt.location_filter.fill()
    seqs = recover_locations(pkt, (9, 8, 7, 6), num_segments=5)
    assert len(seqs) == count_valid_sequences(5, 4)


def test_recover_locations_cap(monkeypatch):
    pkt = make_packet()
    pkt.location_filter.fill()
    monkeypatch.setattr(protocol, "SEQUENCE_CAP", 100)
    with pytest.raises(ResourceCapError):
        recover_locations(pkt, tuple(range(1, 13)), num_segments=12)


def test_recover_provenance_unique_on_roomy_filters():
    pkt = make_packet(m1=4096, k1=6, m2=2048, k2=6)
    path, seq = (3, 1, 2), (1, 1, 2)
    pkt.embed_path(path, seq)
    out = recover_provenance(pkt, nodes=range(4), num_segments=3, rsu=0, truth=(path, seq))
    assert out.classification == UNIQUE
    assert out.truth_recovered is True
    assert out.arrangements == ((path, seq),)


def test_recover_provenance_flags_ambiguity():
    pkt = make_packet(m1=4096, k1=6)
    path, seq = (3, 1, 2), (1, 1, 2)
    pkt.embed_path(path, seq)
    pkt.location_filter.fill()  # forces extra admissible arrangements
    out = recover_provenance(pkt, nodes=range(4), num_segments=3, rsu=0, truth=(path, seq))
    assert out.classification == FALSE_POSITIVE
    assert out.truth_recovered is True
    assert len(out.arrangements) > 1


def test_recover_provenance_without_truth():
    pkt = make_packet(m1=4096, k1=6, m2=2048, k2=6)
    pkt.embed_path((3, 1, 2), (1, 1, 2))
    out = recover_provenance(pkt, nodes=range(4), num_segments=3, rsu=0)
    assert out.classification == UNIQUE
    assert out.truth_recovered is None


def test_recover_provenance_excludes_the_receiver_from_chains():
    pkt = make_packet(m1=4096, k1=6, m2=2048, k2=6)
    pkt.embed_path((3, 1, 2), (1, 1, 2))
    out = recover_provenance(pkt, nodes=range(4), num_segments=3, rsu=0, truth=((3, 1, 2), (1, 1, 2)))
    for path in out.paths:
        assert 0 not in path


def test_recover_provenance_rejects_a_packet_without_hops():
    pkt = make_packet()
    with pytest.raises(ParameterError, match="hop_count is 0"):
        recover_provenance(pkt, nodes=range(4), num_segments=3, rsu=0)


def test_recover_provenance_rejects_more_hops_than_relay_candidates():
    pkt = make_packet(m1=4096, k1=6, m2=2048, k2=6)
    pkt.embed_path((3, 1, 2), (1, 1, 2))
    # nodes 0..2 leave two relays besides the receiver, too few for 3 hops;
    # a listed twice is still one relay
    for nodes in (range(3), [0, 1, 1, 2], [2, 1, 2, 0, 1]):
        with pytest.raises(ParameterError, match="hop_count 3 exceeds the 2 relay candidates"):
            recover_provenance(pkt, nodes=nodes, num_segments=3, rsu=0)
    # a receiver absent from the universe leaves all of it to the relays
    with pytest.raises(ParameterError, match="hop_count 3 exceeds the 2 relay candidates"):
        recover_provenance(pkt, nodes=[1, 2, 2], num_segments=3, rsu=9)
    assert recover_provenance(pkt, nodes=[1, 2, 3, 3], num_segments=3, rsu=9).classification == UNIQUE


def test_recover_provenance_errors_keep_their_order():
    # each case also breaks every rule checked after the one it expects
    pkt = make_packet(m1=4096, k1=6, m2=2048, k2=6)
    pkt.embed_path((3, 1, 2), (1, 1, 2))
    cases = [
        (make_packet(), [0, 1, -1], 0, "packet hop_count is 0: no hop was embedded"),
        (pkt, [0, 1, 1, -1], 0, "packet hop_count 3 exceeds the 2 relay candidates among the probed nodes"),
        (pkt, [0, 1, 2, 1 << 16], 0, "node id 65536 outside u16 range"),
        (pkt, [-1, 0, 1, 2], 1 << 16, "node id -1 outside u16 range"),
        (pkt, range(4), 1 << 16, "segment count 65536 outside 1..65535"),
        (pkt, range(4), 0, "segment count 0 outside 1..65535"),
    ]
    for warm in (False, True):
        for packet, nodes, num_segments, message in cases:
            if warm:  # the universe's grid is cached; no error depends on it
                recover_provenance(pkt, [n for n in range(4)], 3, rsu=0)
            else:
                protocol._relay_grid.cache_clear()
            with pytest.raises(ParameterError) as exc:
                recover_provenance(packet, nodes, num_segments, rsu=0)
            assert str(exc.value) == message


def test_key_grid_cache_is_bounded_and_read_only():
    protocol._relay_grid.cache_clear()
    assert protocol._relay_grid.cache_info().maxsize == protocol.RELAY_GRIDS
    pkt = make_packet(m1=4096, k1=6, m2=2048, k2=6)
    pkt.embed_path((3, 1, 2), (1, 1, 2))
    for extra in range(2 * protocol.RELAY_GRIDS + 1):
        out = recover_provenance(pkt, [0, 1, 2, 3, 10 + extra], 3, rsu=0, truth=((3, 1, 2), (1, 1, 2)))
        assert out.classification == UNIQUE
        assert protocol._relay_grid.cache_info().currsize <= protocol.RELAY_GRIDS
    relays, grid = protocol._relay_grid((0, 1, 2, 3), 0, 3)
    assert relays == (1, 2, 3) and grid.shape == (3, 3 + 3)
    assert not grid.flags.writeable
    protocol._relay_grid.cache_clear()


def test_classification_labels():
    assert (UNIQUE, FALSE_POSITIVE, MISS) == ("unique", "false_positive", "miss")


# ---------------------------------------------------------------------------
# properties over drawn packets

U64 = st.integers(0, (1 << 64) - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_packet_images_parse_or_raise_parameter_error(data):
    kind = data.draw(st.sampled_from(["bytes", "header", "packet"]))
    if kind == "bytes":
        blob = data.draw(st.binary(max_size=80))
    elif kind == "packet":  # a packet's image, perhaps with one byte overwritten
        m1, m2 = data.draw(st.integers(1, 70)), data.draw(st.integers(1, 70))
        pkt = Clbf.create(
            m1, data.draw(st.integers(1, m1)), m2, data.draw(st.integers(1, m2)),
            data.draw(U64), data.draw(U64),
        )
        pkt.embed_path((2, 1), (1, 1))
        image = bytearray(pkt.to_bytes())
        if data.draw(st.booleans()):
            image[data.draw(st.integers(0, len(image) - 1))] = data.draw(st.integers(0, 0xFF))
        blob = bytes(image)
    else:  # a header declaring some geometry, then a body near the size it needs
        widths = st.integers(0, 70) | st.sampled_from([(1 << 32) - 1])
        m1, m2 = data.draw(widths), data.draw(widths)
        k1, k2 = (data.draw(st.integers(0, 80) | st.integers(0, 0xFFFF)) for _ in "kk")
        header = struct.pack(
            "<QBIIHHQ", data.draw(U64), data.draw(st.integers(0, 0xFF)), m1, m2, k1, k2,
            data.draw(U64),
        )
        size = (m1 + 7) // 8 + (m2 + 7) // 8 + data.draw(st.sampled_from([-1, 0, 0, 1]))
        size = size if 0 <= size <= 40 else data.draw(st.integers(0, 40))
        blob = header + data.draw(st.binary(min_size=size, max_size=size))
    try:
        pkt = Clbf.from_bytes(blob)
    except ParameterError:
        return
    assert pkt.to_bytes() == blob
    # whatever a parsed image holds, recovery ends in an outcome or a documented error
    nodes = range(data.draw(st.integers(0, 7)))
    num_segments = data.draw(st.integers(0, 7) | st.sampled_from([0xFFFF, 0x10000]))
    rsu = data.draw(st.integers(-1, 7))
    try:
        out = recover_provenance(pkt, nodes, num_segments, rsu=rsu)
    except (ParameterError, ResourceCapError):
        return
    assert out.classification in (UNIQUE, FALSE_POSITIVE, MISS)
    assert out.paths == tuple(dict.fromkeys(p for p, _ in out.arrangements))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_embedding_is_never_missed(data):
    n = data.draw(st.integers(2, 10))
    relays = data.draw(st.lists(st.integers(1, 0xFFFF), min_size=n - 1, max_size=n - 1, unique=True))
    h = data.draw(st.integers(1, min(6, n - 1)))
    delta = data.draw(st.integers(1, 6))
    path = tuple(data.draw(st.permutations(relays))[:h])
    seq = [1]
    for _ in range(h - 1):
        seq.append(min(delta, seq[-1] + data.draw(st.integers(0, 1))))
    # narrow edge filters return false edges, hence several candidate paths
    m1 = data.draw(st.integers(64, 128) | st.integers(1, 4096))
    m2 = data.draw(st.integers(1, 1024))
    pkt = Clbf.create(
        m1, data.draw(st.integers(1, min(m1, 8))), m2, data.draw(st.integers(1, min(m2, 8))),
        data.draw(U64), data.draw(U64),
    )
    pkt.embed_path(path, seq)
    received = Clbf.from_bytes(pkt.to_bytes())
    out = recover_provenance(received, [0, *relays], delta, rsu=0, truth=(path, tuple(seq)))
    assert out.truth_recovered is True
    assert out.classification != MISS


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_level_sweeps_match_the_depth_first_walks(data):
    n = data.draw(st.integers(1, 8))
    pairs = [(a, b) for a in range(n) for b in range(n)]  # self-edges too
    if data.draw(st.booleans()):  # sparse
        edges = set(data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    else:  # about half of all pairs: long chains, and searches that pass their cap
        edges = {pair for pair in pairs if data.draw(st.booleans())}
    candidates = data.draw(st.lists(st.integers(0, n), max_size=n + 1) | st.just(range(n)))
    length = data.draw(st.integers(1, n) | st.integers(1, 8))
    cap = data.draw(st.integers(0, 120) | st.integers(0, 20_000))
    expected = scalar_paths(edges, candidates, length, cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "PATH_CAP", cap)
        if expected is None:
            with pytest.raises(ResourceCapError):
                recover_paths(edges, candidates, length)
        else:
            assert recover_paths(edges, candidates, length) == expected

    delta = data.draw(st.integers(1, 5))
    path = tuple(data.draw(st.permutations(range(8)))[: data.draw(st.integers(1, 8))])
    fragments = st.sets(st.integers(1, delta))
    table = {node: data.draw(fragments | st.just(set(range(1, delta + 1)))) for node in path}
    expected = walk_locations(table, path, delta, cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "SEQUENCE_CAP", cap)
        if expected is None:
            with pytest.raises(ResourceCapError):
                recover_locations(make_packet(), path, delta, table=table)
        else:
            assert recover_locations(make_packet(), path, delta, table=table) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_joint_sweep_equals_the_two_stage_search(data):
    n = data.draw(st.integers(2, 8))
    relays = data.draw(st.lists(st.integers(1, 300), min_size=n - 1, max_size=n - 1, unique=True))
    h = data.draw(st.integers(1, min(7, n - 1)))
    delta = data.draw(st.integers(1, 6))
    path = tuple(data.draw(st.permutations(relays))[:h])
    seq = [1]
    for _ in range(h - 1):
        seq.append(min(delta, seq[-1] + data.draw(st.integers(0, 1))))
    m1, m2 = data.draw(st.integers(16, 128)), data.draw(st.integers(1, 256))
    pkt = Clbf.create(
        m1, data.draw(st.integers(1, 3)), m2, data.draw(st.integers(1, min(m2, 4))),
        data.draw(U64), data.draw(U64),
    )
    pkt.embed_path(path, seq)
    fill = data.draw(st.sampled_from(["", "edge", "location", "both"]))
    if fill in ("edge", "both"):
        pkt.edge_filter.fill()
    if fill in ("location", "both"):
        pkt.location_filter.fill()
    nodes = [0, *relays]
    truth = (path, tuple(seq)) if data.draw(st.booleans()) else None
    out = recover_provenance(pkt, nodes, delta, rsu=0, truth=truth)
    assert (out.arrangements, out.classification, out.truth_recovered) == two_stage(
        pkt, nodes, delta, rsu=0, truth=truth
    )
    assert out.paths == tuple(sorted({p for p, _ in out.arrangements}))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_key_hashes_is_the_prefix_then_the_pid_fold(data):
    def field(bits):
        scalar = st.integers(0, (1 << bits) - 1)
        return scalar | st.lists(scalar, min_size=1, max_size=4).map(lambda v: np.array(v, dtype=np.uint64))

    first, second, pid = data.draw(field(16)), data.draw(field(16)), data.draw(field(64))
    if isinstance(first, np.ndarray) and isinstance(second, np.ndarray):
        first = first[:, None]  # an axis of its own, as the receiver's grid pairs them
    if isinstance(pid, np.ndarray):
        pid = pid.reshape((-1,) + (1,) * np.ndim(np.broadcast(first, second)))
    shape = np.broadcast_shapes(np.shape(first), np.shape(second), np.shape(pid))
    prefix = protocol._key_prefix(first, second)
    before = prefix.copy()
    folded = np.broadcast_to(protocol._fold_pid(prefix, pid), shape)
    assert np.array_equal(prefix, before)  # the fold reads its prefix only
    got = key_hashes(first, second, pid)
    assert got.shape == shape and np.array_equal(got, folded)
    a, b, p = np.broadcast_arrays(np.uint64(first), np.uint64(second), np.uint64(pid))
    for index in np.ndindex(shape):
        assert int(got[index]) == fnv1a64(edge_key(int(a[index]), int(b[index]), int(p[index])))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_decoding_with_a_cold_key_grid_equals_decoding_with_a_warm_one(data):
    relays = data.draw(st.lists(st.integers(1, 300), min_size=1, max_size=7, unique=True))
    rsu = data.draw(st.sampled_from([0, 301]))  # 301 is in no universe
    nodes = relays + data.draw(st.lists(st.sampled_from(relays), max_size=3))  # duplicates
    nodes = data.draw(st.permutations(nodes + [0] * data.draw(st.integers(0, 2))))
    universe = set(nodes) - {rsu}
    delta = data.draw(st.integers(1, 6))
    m1, m2 = data.draw(st.integers(16, 128)), data.draw(st.integers(8, 256))
    k1, k2 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    packets = []
    for pid in data.draw(st.lists(U64, min_size=2, max_size=4, unique=True)):
        h = data.draw(st.integers(1, min(len(universe), 7)))  # below, at and above delta
        path = tuple(data.draw(st.permutations(sorted(universe)))[:h])
        seq = [1]
        for _ in range(h - 1):
            seq.append(min(delta, seq[-1] + data.draw(st.integers(0, 1))))
        pkt = Clbf.create(m1, k1, m2, k2, data.draw(U64), pid)
        pkt.embed_path(path, seq)
        packets.append((pkt, (path, tuple(seq)) if data.draw(st.booleans()) else None))

    protocol._relay_grid.cache_clear()
    warm = [recover_provenance(pkt, nodes, delta, rsu=rsu, truth=truth) for pkt, truth in packets]
    # one grid per fragment count served every pid
    widths = {min(delta, pkt.hop_count) for pkt, _ in packets}
    assert protocol._relay_grid.cache_info().hits == len(packets) - len(widths)
    cold = []
    for pkt, truth in packets:
        protocol._relay_grid.cache_clear()
        cold.append(recover_provenance(pkt, nodes, delta, rsu=rsu, truth=truth))
    assert warm == cold
    for out, (pkt, truth) in zip(warm, packets):
        assert (out.arrangements, out.classification, out.truth_recovered) == two_stage(
            pkt, nodes, delta, rsu=rsu, truth=truth
        )
        assert truth is None or out.truth_recovered is True


def test_pid_fold_xors_only_the_varying_bytes_and_keeps_the_shape():
    first = np.array([1, 300, 65535], dtype=np.uint64)[:, None]
    second = np.array([2, 7], dtype=np.uint64)
    cases = [
        ([0x0102030405060708] * 3, 0),  # every byte shared: all fold to ints
        ([0, 0], 0),  # zero bytes only
        ([2**64 - 1], 0),  # one pid
        ([5 << 32, 5 << 32 | 1, 5 << 32 | 255], 1),  # the trial's low byte varies
        ([7 << 32 | 255, 7 << 32 | 256], 2),  # the low byte and the one above it
        ([1 << 56, 255 << 56 | 1], 8),  # the top byte varies: no byte is shared
    ]
    prefix = protocol._key_prefix(first, second)
    for pids, varying in cases:
        pid = np.array(pids, dtype=np.uint64)
        assert sum(isinstance(b, np.ndarray) for b in protocol._pid_bytes(pid)) == varying
        pid = pid.reshape(-1, 1, 1)
        want = [
            [[fnv1a64(edge_key(a, b, p)) for b in (2, 7)] for a in (1, 300, 65535)] for p in pids
        ]
        got = key_hashes(first, second, pid)
        assert got.shape == (len(pids), 3, 2) and got.tolist() == want
        folded = protocol._fold_pid(prefix, pid)
        assert folded.shape == (len(pids), 3, 2) and folded.tolist() == want
        out = np.zeros((len(pids), 3, 2), dtype=np.uint64)
        assert protocol._fold_pid(prefix, pid, out) is out and out.tolist() == want
