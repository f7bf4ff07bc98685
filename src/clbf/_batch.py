"""Vectorized trial engine.

Numerically identical to the reference path in `simulate`/`protocol`: the
same per-trial RNG draws the same placement and path, and the hash pipeline
below reproduces `bloom.hash_indices` bit for bit over arrays. Trials are
processed in fixed-size batches; results never depend on the batch size.

The batch classification rests on one structural fact: when a path of two
or more hops gets exactly its true relay edges back from the edge filter,
the edge set is a single directed chain, so the only simple path of full
length is the true one, and counting provenance candidates reduces to a
dynamic program, saturating at 2, over the location filter's (position,
fragment) membership matrix. Single-hop trials, and trials where the edge
filter returned anything extra, fall back to the reference recovery on a
packet rebuilt from the very same filter bits.

Key byte layouts are frozen here as flat streams (u16 length prefix before
every field, values little-endian); a unit test pins them against
`protocol.edge_key`/`location_key`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .bloom import FNV_OFFSET, FNV_PRIME, GAMMA, _MIX_A, _MIX_B, mix64
from .protocol import FALSE_POSITIVE, MISS, UNIQUE, Clbf, recover_provenance
from .simulate import (
    NoValidPath,
    SimulationSetup,
    derive_trial_seed,
    draw_trial_path,
    trial_pid,
    trial_rng,
)

__all__ = ["occupancy_counts", "run_point_classifications", "run_point_counts"]

_MASK64 = (1 << 64) - 1
_U64 = np.uint64
_OFFSET = _U64(FNV_OFFSET)
_PRIME = _U64(FNV_PRIME)
_GAMMA = _U64(GAMMA)
_A = _U64(_MIX_A)
_B = _U64(_MIX_B)

SKIPPED = "skipped"

BATCH = 512


def _mix(x: np.ndarray) -> np.ndarray:
    x = (x ^ (x >> _U64(30))) * _A
    x = (x ^ (x >> _U64(27))) * _B
    return x ^ (x >> _U64(31))


def _fnv(shape: tuple[int, ...], terms) -> np.ndarray:
    acc = np.full(shape, _OFFSET, dtype=np.uint64)
    for t in terms:
        if not isinstance(t, np.ndarray):
            t = _U64(t)
        acc = (acc ^ t) * _PRIME
    return acc


def _le_bytes(values: np.ndarray, width: int) -> list[np.ndarray]:
    return [(values >> _U64(8 * j)) & _U64(0xFF) for j in range(width)]


def _u16_field(values: np.ndarray) -> list:
    # u16 length prefix (2, 0) then the two value bytes, little-endian
    return [2, 0, *_le_bytes(values, 2)]


def _u64_field(values_bytes: list) -> list:
    return [8, 0, *values_bytes]


def _slot_indices(h0: np.ndarray, tag: np.ndarray, m: int, k: int) -> np.ndarray:
    out = np.empty(h0.shape + (k,), dtype=np.int64)
    base = h0 ^ tag
    for level in range(k):
        c = _U64(((level + 1) * GAMMA) & _MASK64)
        out[..., level] = (_mix(base ^ c) % _U64(m)).astype(np.int64)
    return out


def _pair_universe(n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ordered node pairs, their 10-byte key-prefix hashes, and a lookup."""
    a = np.repeat(np.arange(n_nodes, dtype=np.uint64), n_nodes)
    b = np.tile(np.arange(n_nodes, dtype=np.uint64), n_nodes)
    keep = a != b
    a, b = a[keep], b[keep]
    prefix = _fnv(a.shape, [*_u16_field(a), *_u16_field(b), 8, 0])
    lookup = np.full(n_nodes * n_nodes, -1, dtype=np.int64)
    lookup[(a * _U64(n_nodes) + b).astype(np.int64)] = np.arange(len(a))
    return prefix, lookup, a


def _run(
    setup: SimulationSetup,
    trials: int,
    base_seed: int,
    point_tag: int,
    labels: Optional[list[str]],
) -> tuple[int, int, int, int]:
    n = setup.n_nodes
    h = setup.h
    delta = setup.num_segments
    m1, k1, m2, k2 = setup.m1, setup.k1, setup.m2, setup.k2
    segdict = setup.segment_dictionary()
    pair_prefix, pair_lookup, _ = _pair_universe(n)
    seg_axis = np.arange(1, delta + 1, dtype=np.uint64)[None, None, :]
    pos_axis = np.arange(h, dtype=np.int64)[None, :]
    n_unique = n_fp = n_miss = n_skip = 0

    for t0 in range(0, trials, BATCH):
        t1 = min(t0 + BATCH, trials)
        seeds_l, pids_l, paths_l, seqs_l, idx_l = [], [], [], [], []
        for t in range(t0, t1):
            seed = derive_trial_seed(base_seed, point_tag, t)
            rng = trial_rng(seed)
            try:
                path, seq = draw_trial_path(setup.placement, n, segdict, h, rng)
            except NoValidPath:
                n_skip += 1
                if labels is not None:
                    labels[t] = SKIPPED
                continue
            seeds_l.append(seed)
            pids_l.append(trial_pid(point_tag, t))
            paths_l.append(path)
            seqs_l.append(seq)
            idx_l.append(t)
        if not seeds_l:
            continue
        batch = len(seeds_l)
        rows = np.arange(batch)
        seeds = np.array(seeds_l, dtype=np.uint64)
        pids = np.array(pids_l, dtype=np.uint64)
        path_arr = np.array(paths_l, dtype=np.uint64)
        seq_arr = np.array(seqs_l, dtype=np.uint64)
        pid_bytes = _le_bytes(pids, 8)

        tag_edge = _mix(seeds + _GAMMA)
        tag_loc = _mix(seeds + _U64(1) + _GAMMA)

        # embed: h-1 relay edges, h location pairs
        prev, curr = path_arr[:, 1:], path_arr[:, :-1]
        pid_2d = [b[:, None] for b in pid_bytes]
        edge_h0 = _fnv(
            (batch, h - 1),
            [*_u16_field(prev), *_u16_field(curr), *_u64_field(pid_2d)],
        )
        loc_h0 = _fnv(
            (batch, h),
            [*_u16_field(path_arr), *_u16_field(seq_arr), *_u64_field(pid_2d)],
        )
        bits1 = np.zeros((batch, m1), dtype=bool)
        bits1[rows[:, None, None], _slot_indices(edge_h0, tag_edge[:, None], m1, k1)] = True
        bits2 = np.zeros((batch, m2), dtype=bool)
        bits2[rows[:, None, None], _slot_indices(loc_h0, tag_loc[:, None], m2, k2)] = True

        # probe every ordered pair; continue the cached prefix with pid bytes
        acc = pair_prefix[None, :]
        for j in range(8):
            acc = (acc ^ pid_bytes[j][:, None]) * _PRIME
        probe_idx = _slot_indices(acc, tag_edge[:, None], m1, k1)
        edge_member = bits1[rows[:, None, None], probe_idx].all(axis=2)

        true_pos = pair_lookup[(prev * _U64(n) + curr).astype(np.int64)]
        if not (true_pos >= 0).all():
            raise AssertionError("relay path holds a self-edge")
        if not edge_member[rows[:, None], true_pos].all():
            raise AssertionError("edge filter dropped a stored edge")
        # one hop has no edge to pin the path down: every node is a candidate
        clean = (edge_member.sum(axis=1) == h - 1) & (h >= 2)

        # probe every (position, fragment) pair of the true path
        node3 = path_arr[:, :, None]
        pid_3d = [b[:, None, None] for b in pid_bytes]
        loc_probe_h0 = _fnv(
            (batch, h, delta),
            [*_u16_field(node3), *_u16_field(seg_axis), *_u64_field(pid_3d)],
        )
        loc_idx = _slot_indices(loc_probe_h0, tag_loc[:, None, None], m2, k2)
        reach = bits2[rows[:, None, None, None], loc_idx].all(axis=3)
        truth_cols = (seq_arr - _U64(1)).astype(np.int64)
        if not reach[rows[:, None], pos_axis, truth_cols].all():
            raise AssertionError("location filter dropped a stored pair")

        # admissible-sequence count over the membership matrix, capped at 2
        cur = np.zeros((batch, delta + 1), dtype=np.int64)
        cur[:, 1] = reach[:, 0, 0]
        for i in range(1, h):
            nxt = np.zeros_like(cur)
            nxt[:, 1:] = np.minimum(reach[:, i, :] * (cur[:, 1:] + cur[:, :-1]), 2)
            cur = nxt
        arrangements = cur.sum(axis=1)
        if not (arrangements[clean] >= 1).all():
            raise AssertionError("location filter lost the true arrangement")

        for b in range(batch):
            if clean[b]:
                label = FALSE_POSITIVE if arrangements[b] > 1 else UNIQUE
            else:
                # extra edges recovered: replay full recovery on these bits
                pkt = Clbf.create(m1, k1, m2, k2, int(seeds[b]), int(pids[b]))
                pkt.edge_filter.load_bits(
                    np.packbits(bits1[b], bitorder="little").tobytes()
                )
                pkt.location_filter.load_bits(
                    np.packbits(bits2[b], bitorder="little").tobytes()
                )
                pkt.hop_count = h
                label = recover_provenance(
                    pkt,
                    list(range(n)),
                    delta,
                    rsu=0,
                    truth=(paths_l[b], seqs_l[b]),
                ).classification
            if label == UNIQUE:
                n_unique += 1
            elif label == FALSE_POSITIVE:
                n_fp += 1
            else:
                n_miss += 1
            if labels is not None:
                labels[idx_l[b]] = label
    return n_unique, n_fp, n_miss, n_skip


def run_point_counts(
    setup: SimulationSetup, trials: int, base_seed: int, point_tag: int
) -> tuple[int, int, int, int]:
    """(unique, false_positive, miss, skipped) over `trials` trials."""
    return _run(setup, trials, base_seed, point_tag, labels=None)


def run_point_classifications(
    setup: SimulationSetup, trials: int, base_seed: int, point_tag: int
) -> list[str]:
    """Per-trial classification labels, indexed by trial number."""
    labels: list[str] = [""] * trials
    _run(setup, trials, base_seed, point_tag, labels=labels)
    assert all(labels)
    return labels


def occupancy_counts(
    m2: int, k2: int, h: int, trials: int, base_seed: int = 0
) -> np.ndarray:
    """Occupied-slot count of `trials` independent filters, h keys each.

    Keys mimic the location-filter workload: nearly consecutive ids under
    a per-trial seed, so the sampled distribution is the one the deployed
    filter actually exhibits.
    """
    if m2 < 1 or k2 < 1 or h < 1 or trials < 1:
        raise ValueError("m2, k2, h, trials must all be positive")
    out = np.empty(trials, dtype=np.int64)
    stage = mix64((base_seed + GAMMA) & _MASK64)
    node_axis = np.arange(h, dtype=np.uint64)[None, :]
    for t0 in range(0, trials, 4096):
        t1 = min(t0 + 4096, trials)
        t_arr = np.arange(t0, t1, dtype=np.uint64)
        seeds = _mix(_U64(stage) + (t_arr + _U64(1)) * _GAMMA)
        tags = _mix(seeds + _GAMMA)
        pid_bytes = [b[:, None] for b in _le_bytes(t_arr, 8)]
        h0 = _fnv(
            (t1 - t0, h),
            [*_u16_field(node_axis), 2, 0, 1, 0, *_u64_field(pid_bytes)],
        )
        idx = _slot_indices(h0, tags[:, None], m2, k2)
        bits = np.zeros((t1 - t0, m2), dtype=bool)
        bits[np.arange(t1 - t0)[:, None, None], idx] = True
        out[t0:t1] = bits.sum(axis=1)
    return out
