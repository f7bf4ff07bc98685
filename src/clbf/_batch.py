"""Vectorized trial engine.

Numerically identical to the reference path in `simulate`/`protocol`. A
point runs in batches of trials, as many as fit the memory budget
`BATCH_BYTES`, and results never depend on the batch size. Each batch
passes through two stages.

Sample. The batch sampler replays, over arrays, the stream each trial's
`trial_rng` generator would produce: numpy's Philox4x64-10 blocks (counter
incremented before each block, 64x64->128 multiplies on 32-bit limbs), cut
into 32-bit halves low half first, and Lemire's bounded draws on those
halves, in the order the scalar `draw_trial_path` makes them: the `random`
placement's fragment draws, the sequence rank, then the partial
Fisher-Yates draws, block by block from each fragment's pool (`free`
draws all h from one pool of every vehicle). A draw of bound 1 consumes
nothing. Unranking and Fisher-Yates run as array operations; what a point
shares (a fixed placement's vehicle fragments, the fragment pools, the
completion table) is built once per point. A trial goes back through the
scalar `trial_rng` + `draw_trial_path` only when one of its draws hit a
Lemire rejection, or when its sequence count reaches 2^32, which numpy
draws from full 64-bit words.

Hash, embed and probe. Each probed key's FNV-1a hash is computed once per
batch: its state over the bytes no packet id changes is built once per run
(`protocol._key_grid`, uncached), and a batch folds in only the packet-id
bytes that vary across its rows. Every ordered pair of relays is probed. The
true path's edge and cell keys are among the probed keys, so their hashes
set the filter bits `simulate.trial_packet` embeds hop by hop; then the
keys go through `bloom`'s level-by-level probe, the one the receiver runs:
slot L is computed only for keys still positive after L levels, and a key
stored in the filter is probed in the first pass only. The location
filter is probed at a row's h true cells and at most h - 1 neighbour
cells, the other member of {s_{i-1}, s_{i-1} + 1} at each position i > 0.
When no neighbour is positive the true fragment sequence is the only
admissible one; only a row with a positive neighbour probes every
admissible (position, fragment) cell. When a path of two or more hops
gets exactly its true relay edges back from the edge filter, the edge set
is a single directed chain, so the only simple path of full length is the
true one, and counting provenance candidates reduces to that certificate,
or to a dynamic program, saturating at 2, over the widened row's
membership matrix. Single-hop trials, and trials where the edge filter
returned anything extra, fall back to the reference recovery on a packet
that `Clbf.from_bits` rebuilds from the very same filter bits. The large
per-batch arrays (key hashes, slot indices, both filters' bits) live in
`bloom.Scratch` buffers that a pool worker keeps for its whole life, so
their pages are faulted in once, not once per batch. The buffers keep the
size of the largest batch the worker has run until the pool is dropped: the
key hashes, the slots and `_mix`'s temporary can each come near
BATCH_BYTES, so a worker can hold about three times BATCH_BYTES after one
large point.

Workers. A point's trials split into contiguous ranges, and since no
result depends on where a batch starts, the ranges can run anywhere and be
concatenated back in trial order. `map_point_codes` queues every range of
a list of points on one pool of forked worker processes, one per CPU this
process may run on, built on first use and kept for the life of the
process (rebuilt if a worker dies). A point is cut into one range per
worker, each at least a batch long; a list that makes a single range, or
a host with one CPU, runs inline in the caller. Results are the same for
any worker count.
"""

from __future__ import annotations

import atexit
import itertools
import os
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .bloom import GAMMA, _GAMMA, Scratch, _mix, _probe, _slots, check_geometry, mix64
from .protocol import (
    FALSE_POSITIVE, MISS, UNIQUE, Clbf, _fold_pid, _key_grid, key_hashes, recover_provenance,
)
from .segments import BUDGET_BYTES, ResourceCapError, count_valid_sequences
from .simulate import (
    NoValidPath,
    SimulationSetup,
    check_sequence_count,
    count_feasible_sequences,
    derive_trial_seed,
    draw_trial_path,
    generate_network,
    trial_pid,
    trial_rng,
)

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = [
    "map_point_counts",
    "occupancy_counts",
    "run_point_classifications",
    "run_point_counts",
]

_MASK64 = (1 << 64) - 1
_U64 = np.uint64
_LO32 = _U64(0xFFFFFFFF)
_32 = _U64(32)

SKIPPED = "skipped"
_LABELS = (UNIQUE, FALSE_POSITIVE, MISS, SKIPPED)  # outcome codes 0..3

BATCH = 512
# Bytes one batch may hold. A trial row costs both filters' bits (a byte
# each), a uint64 hash per probed key (every relay pair and at most h *
# min(delta, h) location cells) and, under the `random` placement, its own
# int64 completion table. A batch takes BATCH rows or as many as fit; a
# point whose one row does not fit is refused with `ResourceCapError`.
BATCH_BYTES = BUDGET_BYTES

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (_U64(0x9E3779B97F4A7C15), _U64(0xBB67AE8584CAA73B))
_HALVES_PER_BLOCK = 8
# a rank bound at or past this takes numpy's 64-bit draw: scalar path
_RANK_CAP = 1 << 32


def _trial_seeds(base_seed: int, point_tag: int, trials: np.ndarray) -> np.ndarray:
    """`simulate.derive_trial_seed` over an array of trial indices."""
    a = mix64((base_seed + (point_tag + 1) * GAMMA) & _MASK64)
    return _mix(_U64(a) + (trials + _U64(1)) * _GAMMA)


# ---------------------------------------------------------------------------
# sample: numpy's per-trial Philox stream, replayed over a batch


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product a * b, from 32-bit limbs."""
    a_lo, a_hi = _U64(a & 0xFFFFFFFF), _U64(a >> 32)
    b_lo, b_hi = b & _LO32, b >> _32
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> _32) + (lh & _LO32) + (hl & _LO32)
    hi = a_hi * b_hi + (lh >> _32) + (hl >> _32) + (mid >> _32)
    return hi, _U64(a) * b


def philox_words(keys: np.ndarray, n_blocks: int) -> np.ndarray:
    """`np.random.Philox(key=row).random_raw(4 * n_blocks)` for every row of `keys`.

    keys: (rows, 2) uint64. A fresh Philox bit generator starts at counter
    zero and increments the counter before each block, so block i is keyed
    at counter (i + 1, 0, 0, 0).
    """
    k0, k1 = keys[:, :1], keys[:, 1:]
    shape = (len(keys), n_blocks)
    x0 = np.broadcast_to(np.arange(1, n_blocks + 1, dtype=np.uint64), shape)
    x1 = x2 = x3 = np.zeros(shape, dtype=np.uint64)
    for rnd in range(10):
        if rnd:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack([x0, x1, x2, x3], axis=-1).reshape(len(keys), 4 * n_blocks)


def half_words(keys: np.ndarray, count: int) -> np.ndarray:
    """The first `count` 32-bit draws of each row's generator, low half first."""
    words = philox_words(keys, -(-count // _HALVES_PER_BLOCK))
    halves = np.stack([words & _LO32, words >> _32], axis=-1)
    return halves.reshape(len(keys), -1)[:, :count]


def lemire(half: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`Generator.integers(bound)` on 32-bit draws `half`, for 1 <= bound < 2^32.

    Returns (values, rejected). Where `rejected` is set numpy would have
    drawn again; those values are void. A bound of 1 consumes no draw: its
    value is 0 and it is never rejected, whatever `half` holds.
    """
    bound = bound.astype(np.uint64)
    m = half * bound
    threshold = (_U64(1 << 32) - bound) % bound
    return (m >> _32).astype(np.int64), (m & _LO32) < threshold


def _completion_prefix(caps: np.ndarray, h: int) -> np.ndarray:
    """Prefix sums over r of the completion table D(l, r), saturated at 2^32.

    caps: (rows, width) largest block each fragment can staff. Returns
    pre (rows, width + 1, h + 2) with pre[:, l, r] the sum over r' < r of
    min(D(l, r'), 2^32), so D(l, r) = pre[:, l, r + 1] - pre[:, l, r] below
    the cap. A sum of saturated terms saturates exactly where the true sum
    does, and a rank bound at the cap goes to the scalar draw.
    """
    rows, width = caps.shape
    rem = np.arange(h + 1)
    pre = np.zeros((rows, width + 1, h + 2), dtype=np.int64)
    pre[:, width, 1:] = 1  # D(width, 0) = 1, D(width, r > 0) = 0
    for l in range(width - 1, -1, -1):
        nxt = pre[:, l + 1]
        low = np.maximum(rem - caps[:, l : l + 1], 0)
        d = nxt[:, : h + 1] - np.take_along_axis(nxt, low, axis=1)
        d[:, 0] = 1
        np.cumsum(np.minimum(d, _RANK_CAP), axis=1, out=pre[:, l, 1:])
    return pre


def _unrank(pre: np.ndarray, g: np.ndarray, u: np.ndarray, h: int) -> np.ndarray:
    """Block sizes (rows, width) of the u-th feasible sequence, fragment 1 first.

    `simulate._unrank_blocks` over a batch, row i reading table g[i]: at
    each fragment the block size is the first b whose cumulative weight
    D(l+1, rem-1) + ... + D(l+1, rem-b) = P[rem] - P[rem-b] exceeds u, for
    P = pre[g, l+1]. As P is non-decreasing, rem - b is the last j with
    P[j] < P[rem] - u, and u < D(l, rem) keeps b within the fragment's cap.
    Every row needs u < D(0, h) < 2^32.
    """
    rows, width = len(u), pre.shape[1] - 1
    at = np.arange(rows)
    blocks = np.zeros((rows, width), dtype=np.int64)
    rem = np.full(rows, h)
    for l in range(width):
        if not rem.any():
            break
        if len(pre) == 1:  # one table for every row: a sorted search
            P = pre[0, l + 1]
            top = P[rem]
            j = np.searchsorted(P, top - u) - 1
            u = u - (top - P[j + 1])
        else:
            P = pre[g, l + 1]
            top = P[at, rem]
            j = (P < (top - u)[:, None]).sum(axis=1) - 1
            u = u - (top - P[at, j + 1])
        b = np.where(rem > 0, rem - j, 0)
        blocks[:, l] = b
        rem = rem - b
    if rem.any():
        raise AssertionError("sequence unranking left the table")
    return blocks


def _rows_within(row: int, most: int) -> int:
    """Rows of `row` bytes each that a block holds: `most`, or as many as fit BATCH_BYTES."""
    if row > BATCH_BYTES:
        raise ResourceCapError(f"one trial needs {row} bytes, past BATCH_BYTES = {BATCH_BYTES}")
    return min(most, BATCH_BYTES // row)


def _batch_rows(setup: SimulationSetup) -> int:
    """Trials per batch: BATCH, or as many as fit BATCH_BYTES."""
    n, h = setup.n_nodes, setup.h
    width = min(setup.num_segments, h)
    row = setup.m1 + setup.m2 + 8 * ((n - 1) * (n - 2) + h * width)
    if setup.placement.policy == "random":
        row += 8 * (width + 1) * (h + 2)
    return _rows_within(row, BATCH)


class _PathLaw:
    """A point's path draw, with what its trials share built once.

    `pools` holds, per fragment l below `width` (a length-h sequence reaches
    at most fragment h): `caps`, the largest block the rank table allows
    there; `start`, where fragment l's Fisher-Yates pool begins in `order`
    (vehicle ids by fragment, ascending); and `pre`, the completion table.
    The `free` placement draws the whole path from one pool of every
    vehicle. The `random` placement draws its vehicles' fragments per
    trial, so its pools are built per trial, one row each.
    """

    def __init__(self, setup: SimulationSetup):
        n, h, delta = setup.n_nodes, setup.h, setup.num_segments
        policy = setup.placement.policy
        self.setup = setup
        self.segdict = setup.segment_dictionary()
        self.width = min(delta, h)
        self.batch = _batch_rows(setup)
        self.pools = None
        if policy == "free":
            check_sequence_count(count_valid_sequences(delta, h), n, delta, h)
            caps = np.full((1, self.width), h)
            self.pools = (caps, None, np.arange(1, n)[None, :], _completion_prefix(caps, h))
        elif policy != "random":
            segs = np.array(generate_network(setup.placement, n, self.segdict, rng=None))
            counts = np.bincount(segs - 1, minlength=delta)
            check_sequence_count(count_feasible_sequences(counts.tolist(), h), n, delta, h)
            self.pools = self._pools(segs[None, :])

    def _pools(self, segs: np.ndarray) -> tuple:
        """(caps, start, order, pre) of placements `segs` (rows, vehicles)."""
        rows, delta = len(segs), self.setup.num_segments
        counts = np.bincount(
            (segs - 1 + delta * np.arange(rows)[:, None]).ravel(), minlength=rows * delta
        ).reshape(rows, delta)[:, : self.width]
        order = np.argsort(segs, axis=1, kind="stable") + 1
        start = np.cumsum(counts, axis=1) - counts
        return counts, start, order, _completion_prefix(counts, self.setup.h)

    def sample(self, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Paths of the trials keyed by `seeds`, as `draw_trial_path` draws them.

        Returns (drawn, paths, seqs): `drawn` marks the trials that have a
        path; the others found no staffable sequence (`NoValidPath`).
        """
        setup, h, delta = self.setup, self.setup.h, self.setup.num_segments
        rows = len(seeds)
        keys = np.stack([seeds, _mix(seeds ^ _GAMMA)], axis=1)
        pools = self.pools
        # the random placement first draws every vehicle's fragment
        place = setup.n_nodes - 1 if pools is None and delta > 1 else 0
        half = half_words(keys, place + 1 + h)
        redo = np.zeros(rows, dtype=bool)
        if pools is None:
            segs = np.ones((rows, setup.n_nodes - 1), dtype=np.int64)
            if place:
                draws, rejected = lemire(half[:, :place], np.full(place, delta))
                segs += draws
                redo |= rejected.any(axis=1)
            pools = self._pools(segs)
        pre = pools[3]
        total = np.broadcast_to(pre[:, 0, h + 1] - pre[:, 0, h], (rows,))
        redo |= total >= _RANK_CAP
        drawn = redo | (total > 0)
        live = np.flatnonzero(~redo & (total > 0))
        paths = np.zeros((rows, h), dtype=np.int64)
        seqs = np.zeros((rows, h), dtype=np.int64)
        if len(live):
            g = live if len(pre) > 1 else np.zeros(len(live), dtype=np.int64)
            paths[live], seqs[live], rejected = self._draw(
                half[live], total[live], pools, g, place
            )
            redo[live] |= rejected
        for i in np.flatnonzero(redo):
            rng = trial_rng(int(seeds[i]))
            try:
                path, seq = draw_trial_path(setup.placement, setup.n_nodes, self.segdict, h, rng)
            except NoValidPath:
                drawn[i] = False
                continue
            paths[i], seqs[i] = path, seq
        return drawn, paths, seqs

    def _draw(
        self, half: np.ndarray, total: np.ndarray, pools: tuple, g: np.ndarray, place: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank, unrank and Fisher-Yates for rows with 0 < total < 2^32.

        Returns (paths, seqs, rejected); a rejected row's path is void.
        """
        caps, start, order, pre = pools
        h = self.setup.h
        rows = len(half)
        rank, rejected = lemire(half[:, place], total)
        blocks = _unrank(pre, g, rank, h)
        frag = np.repeat(np.tile(np.arange(self.width), rows), blocks.ravel()).reshape(rows, h)
        if start is None:  # free: one pool, drawn position by position
            at = np.broadcast_to(np.arange(h), (rows, h))
            bound = order.shape[1] - at
        else:
            ends = np.cumsum(blocks, axis=1)
            i = np.arange(h) - np.take_along_axis(ends - blocks, frag, axis=1)
            at = start[g[:, None], frag] + i
            bound = caps[g[:, None], frag] - i
        # a draw of bound 1 consumes nothing: each draw reads the next unread half
        consumed = bound > 1
        read = place + (total > 1)[:, None] + np.cumsum(consumed, axis=1) - consumed
        offset, fy_rejected = lemire(np.take_along_axis(half, read, axis=1), bound)
        rejected |= fy_rejected.any(axis=1)

        # partial Fisher-Yates on every row's own copy of its pools
        work = order[g]
        flat = work.ravel()
        row_base = (np.arange(rows) * work.shape[1])[:, None]
        lo_at = (row_base + at).T.copy()
        hi_at = (row_base + at + offset).T.copy()
        paths = np.empty((h, rows), dtype=np.int64)
        for p in range(h):
            a, b = lo_at[p], hi_at[p]
            picked = flat[b]
            flat[b] = flat[a]
            flat[a] = picked
            paths[p] = picked
        return paths.T, frag + 1, rejected


# ---------------------------------------------------------------------------
# hash, embed and probe


def _fill(bits: np.ndarray, keys: np.ndarray, k: int, scratch: Scratch) -> None:
    """Clear `bits` (rows, m), then set the k slots of each seeded key hash
    in `keys` (rows, c) in its own row, by flat index."""
    rows, m = bits.shape
    bits.fill(False)
    idx = _slots(keys, m, 0, k, scratch)
    idx += np.arange(0, rows * m, m)[:, None]
    bits.ravel()[idx] = True


def _classify(
    setup: SimulationSetup, grid: np.ndarray, seeds, pids, paths, seqs, scratch: Scratch
) -> np.ndarray:
    """Outcome codes (indices into `_LABELS`) of one batch of drawn trials.

    Each row is one trial: its seed and pid, and its path and fragments
    (uint64, RSU-outward). ``grid`` is the `protocol._key_grid` of relays
    1..n-1 over fragments 1..min(delta, h): the keys the receiver probes.
    Both filters are filled from the probed keys' own hashes, then probed.
    Every ordered relay pair is probed, the grid's edge columns off its
    diagonal, a-major. Of the location cells, a row probes its h true cells
    and, at each position i > 0, the neighbour cell: the other member of
    {s_{i-1}, s_{i-1} + 1}. With no neighbour positive, the true sequence
    is the only admissible one, by induction over positions: a sequence
    that leaves the true one first does so through a neighbour. Only a row
    with a positive neighbour probes all its admissible cells, fragment s
    at position i for s <= i + 1, and counts its sequences.

    A stored key is hashed past the probe's first pass only to fill, so
    the two stored-key self-checks ("dropped a stored edge", "dropped a
    stored pair") read only the levels of that first pass: a single level
    for a batch of 4 096 keys or more. Probing the stored keys at every
    level as well took about 18% off the throughput of `clbf simulate`
    over the bundled presets at 256 trials a point.
    """
    n, h, delta = setup.n_nodes, setup.h, setup.num_segments
    r = n - 1
    width = grid.shape[1] - r
    batch = len(paths)

    # hash every relay pair; the true edges' hashes fill the edge filter
    edge_prefix = grid[:, :r][~np.eye(r, dtype=bool)]
    pairs = len(edge_prefix)
    edge = _fold_pid(edge_prefix, pids[:, None], scratch.take("keys", (batch, pairs)))
    edge ^= _mix(seeds + _GAMMA)[:, None]
    a, b = paths[:, 1:].astype(np.int64), paths[:, :-1].astype(np.int64)
    if not (a != b).all():
        raise AssertionError("relay path holds a self-edge")
    true_pos = (a - 1) * (r - 1) + (b - 1) - (b > a)  # the column of edge a -> b
    bits1 = scratch.take("bits1", (batch, setup.m1), bool)
    _fill(bits1, np.take_along_axis(edge, true_pos, axis=1), setup.k1, scratch)
    true_pos += np.arange(batch)[:, None] * pairs  # flat, row by row
    edge_member = _probe(bits1, edge, setup.k1, scratch, stored=true_pos.ravel())
    if not edge_member.ravel()[true_pos].all():
        raise AssertionError("edge filter dropped a stored edge")
    # one hop has no edge to pin the path down: every node is a candidate
    clean = (edge_member.sum(axis=1) == h - 1) & (h >= 2)

    # the true cells fill the location filter, then are probed with their neighbours
    cell_prefix = grid[:, r:]  # row node - 1, column fragment - 1
    rows = paths - _U64(1)
    frag = (seqs - _U64(1)).astype(np.int64)
    if not (frag <= np.minimum(np.arange(h), width - 1)).all():
        raise AssertionError("a true cell lies outside the probed cells")
    near = 2 * frag[:, :-1] + 1 - frag[:, 1:]  # the other of {s_{i-1}, s_{i-1} + 1}, 0-based
    tag = _mix(seeds + _U64(1) + _GAMMA)[:, None]
    cells = np.concatenate([frag, np.minimum(near, width - 1)], axis=1)
    loc = _fold_pid(cell_prefix[rows[:, np.r_[0:h, 1:h]], cells], pids[:, None])
    loc ^= tag
    bits2 = scratch.take("bits2", (batch, setup.m2), bool)
    _fill(bits2, loc[:, :h], setup.k2, scratch)
    stored = (np.arange(batch)[:, None] * loc.shape[1] + np.arange(h)).ravel()
    loc_member = _probe(bits2, loc, setup.k2, scratch, stored)
    if not loc_member[:, :h].all():
        raise AssertionError("location filter dropped a stored pair")
    wide = np.flatnonzero((loc_member[:, h:] & (near < width)).any(axis=1))

    # admissible-sequence count, capped at 2, where a neighbour is positive
    arrangements = np.ones(batch, dtype=np.int64)
    if len(wide):
        pos, seg = np.nonzero(np.arange(width) <= np.arange(h)[:, None])  # admissible cells
        keys = _fold_pid(cell_prefix[rows[wide][:, pos], seg], pids[wide, None])
        keys ^= tag[wide]
        # a true cell's column: its position's first column plus its fragment
        stored = np.searchsorted(pos, np.arange(h)) + frag[wide]
        stored += np.arange(len(wide))[:, None] * keys.shape[1]
        reach = np.zeros((len(wide), h, width), dtype=bool)
        reach[:, pos, seg] = _probe(bits2[wide], keys, setup.k2, stored=stored.ravel())
        cur = np.zeros((len(wide), width + 1), dtype=np.uint8)
        cur[:, 1] = reach[:, 0, 0]
        for i in range(1, h):
            cur[:, 1:] = np.minimum(reach[:, i, :] * (cur[:, 1:] + cur[:, :-1]), 2)
        arrangements[wide] = cur.sum(axis=1)
    if not (arrangements[clean] >= 1).all():
        raise AssertionError("location filter lost the true arrangement")

    codes = np.where(arrangements > 1, 1, 0)
    for b in np.flatnonzero(~clean):
        # extra edges recovered: replay full recovery on these bits
        pkt = Clbf.from_bits(
            setup.m1, setup.k1, setup.m2, setup.k2, int(seeds[b]), int(pids[b]), h,
            np.packbits(bits1[b], bitorder="little").tobytes(),
            np.packbits(bits2[b], bitorder="little").tobytes(),
        )
        truth = (tuple(map(int, paths[b])), tuple(map(int, seqs[b])))
        try:
            label = recover_provenance(pkt, list(range(n)), delta, rsu=0, truth=truth).classification
        except ResourceCapError as exc:
            tag, trial = divmod(int(pids[b]), 1 << 32)  # the pid is `trial_pid(tag, trial)`
            raise ResourceCapError(
                f"point {tag} trial {trial} (replay: clbf trace --point {tag} --trial {trial}): {exc}"
            ) from exc
        codes[b] = _LABELS.index(label)
    return codes


def _run(
    setup: SimulationSetup, start: int, stop: int, base_seed: int, point_tag: int,
    scratch: Optional[Scratch] = None,
) -> np.ndarray:
    """Outcome codes (indices into `_LABELS`) of trials start..stop-1.

    ``scratch`` holds the large per-batch arrays; without one, the call
    makes its own and lets it go on return.
    """
    law = _PathLaw(setup)
    grid = _key_grid(range(1, setup.n_nodes), law.width)
    scratch = Scratch() if scratch is None else scratch
    codes = np.full(stop - start, _LABELS.index(SKIPPED))
    for t0 in range(start, stop, law.batch):
        t = np.arange(t0, min(t0 + law.batch, stop), dtype=np.uint64)
        seeds = _trial_seeds(base_seed, point_tag, t)
        drawn, paths, seqs = law.sample(seeds)
        if drawn.any():
            codes[t0 - start + np.flatnonzero(drawn)] = _classify(
                setup, grid, seeds[drawn], (_U64(point_tag << 32) | t)[drawn],
                paths[drawn].astype(np.uint64), seqs[drawn].astype(np.uint64), scratch,
            )
    return codes


# ---------------------------------------------------------------------------
# the worker pool: a job's trial ranges run anywhere, tallied in trial order
#
# `multiprocessing` and `concurrent.futures` are imported on first use: a
# process that never runs a pool (a decode, a model sweep) does not pay
# their import time and memory.

_pool: Optional[ProcessPoolExecutor] = None
_pool_pid = 0  # the process that built `_pool`; a forked child never reuses it
# a pool worker's buffers, kept across every range it runs; a process that
# only runs jobs inline never makes one
_worker_scratch: Optional[Scratch] = None


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ranges(trials: int, workers: int) -> list[tuple[int, int]]:
    """A point's contiguous trial ranges: one per worker, each at least a batch."""
    size = max(BATCH, -(-trials // workers))
    return [(a, min(a + size, trials)) for a in range(0, max(trials, 1), size)]


def _run_pooled(*args) -> np.ndarray:
    """`_run` in a pool worker, on the worker's own scratch buffers."""
    global _worker_scratch
    if _worker_scratch is None:
        _worker_scratch = Scratch()
    return _run(*args, scratch=_worker_scratch)


def _drop_pool() -> None:
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
    _pool = None


def _submit(workers: int, *args) -> Future:
    """Queue one `_run` call on the pool, building the pool on first use.

    Workers are forked, so they start with the caller's modules already
    imported and need no `__main__` to re-import. A pool that broke (a
    worker died) is replaced before the call is queued.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    global _pool, _pool_pid
    if _pool is not None and _pool_pid == os.getpid():
        try:
            return _pool.submit(_run_pooled, *args)
        except BrokenProcessPool:
            _drop_pool()
    if _pool_pid != os.getpid():
        # let go of the pool before interpreter teardown, which would leave
        # its clean-up code without the modules it calls
        atexit.register(_drop_pool)
    _pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    _pool_pid = os.getpid()
    return _pool.submit(_run_pooled, *args)


def map_point_codes(jobs: Sequence[tuple]) -> Iterator[np.ndarray]:
    """Outcome codes of each job (setup, trials, base_seed, point_tag), in job order.

    Every range of every job is queued before this returns, so the caller
    can work while the pool runs them; each job's ranges are concatenated
    back in trial order, and a job's error is raised when its turn comes.
    A lone range, or a host with one CPU, runs inline, job by job, as the
    iterator is consumed.
    """
    jobs = list(jobs)
    for setup, trials, base_seed, point_tag in jobs:
        trial_pid(point_tag, max(trials - 1, 0))  # both fields must fit their u32 halves
        derive_trial_seed(base_seed, point_tag, 0)  # the base seed must fit a u64
        _batch_rows(setup)  # one trial row must fit a batch
    workers = _cpu_count()
    spans = [_ranges(job[1], workers) for job in jobs]
    if workers < 2 or sum(map(len, spans)) < 2:
        return _inline(jobs)
    futures = [
        [_submit(workers, setup, a, b, seed, tag) for a, b in span]
        for (setup, _, seed, tag), span in zip(jobs, spans)
    ]
    return _gather(futures)


def _inline(jobs: list[tuple]) -> Iterator[np.ndarray]:
    """Each job's codes, run here in turn on buffers that last the iteration."""
    scratch = Scratch()
    for setup, trials, base_seed, point_tag in jobs:
        yield _run(setup, 0, trials, base_seed, point_tag, scratch)


def _gather(futures: list[list[Future]]) -> Iterator[np.ndarray]:
    from concurrent.futures.process import BrokenProcessPool

    try:
        for parts in futures:
            yield np.concatenate([f.result() for f in parts])
    except BrokenProcessPool:
        _drop_pool()  # the next call builds a fresh pool
        raise
    finally:
        for f in itertools.chain.from_iterable(futures):
            f.cancel()


def map_point_counts(jobs: Sequence[tuple]) -> Iterator[tuple[int, int, int, int]]:
    """(unique, false_positive, miss, skipped) of each job, as `map_point_codes`."""
    return (
        tuple(np.bincount(codes, minlength=len(_LABELS)).tolist())
        for codes in map_point_codes(jobs)
    )


def run_point_counts(
    setup: SimulationSetup, trials: int, base_seed: int, point_tag: int
) -> tuple[int, int, int, int]:
    """(unique, false_positive, miss, skipped) over `trials` trials."""
    return next(map_point_counts([(setup, trials, base_seed, point_tag)]))


def run_point_classifications(
    setup: SimulationSetup, trials: int, base_seed: int, point_tag: int
) -> list[str]:
    """Per-trial classification labels, indexed by trial number."""
    codes = next(map_point_codes([(setup, trials, base_seed, point_tag)]))
    return [_LABELS[code] for code in codes.tolist()]


def occupancy_counts(
    m2: int, k2: int, h: int, trials: int, base_seed: int = 0
) -> np.ndarray:
    """Occupied-slot count of `trials` independent filters, h keys each.

    Keys mimic the location-filter workload: nearly consecutive ids under
    a per-trial seed, so the sampled distribution is the one the deployed
    filter actually exhibits. A row's count is that of its distinct slots,
    so no m2-sized array is built. The filter must be one the packet can
    build (`check_geometry`); h and trials must be positive. Rows run in
    blocks of at most 4 096 whose h * k2 uint64 slots fit BATCH_BYTES; a
    row that does not fit alone raises ResourceCapError before any array
    is built.
    """
    check_geometry(m2, k2)
    if h < 1 or trials < 1:
        raise ValueError(f"h={h} and trials={trials} must both be positive")
    derive_trial_seed(base_seed, 0, 0)  # the base seed must fit a u64
    block = _rows_within(8 * h * k2, 4096)
    out = np.empty(trials, dtype=np.int64)
    for t0 in range(0, trials, block):
        t1 = min(t0 + block, trials)
        out[t0:t1] = _occupied(m2, k2, h, base_seed, np.arange(t0, t1, dtype=np.uint64))
    return out


def _occupied(m2: int, k2: int, h: int, base_seed: int, trials: np.ndarray) -> np.ndarray:
    """`occupancy_counts` of one block of trials, all of its arrays freed on return.

    The slots are counted without a row-major copy: offset by row, they
    sort into one run per row, and a row's count is the changes in its run.
    """
    rows = len(trials)
    tags = _mix(_trial_seeds(base_seed, 0, trials) + _GAMMA)
    h0 = key_hashes(np.arange(h, dtype=np.uint64), 1, trials[:, None])
    idx = _slots(h0 ^ tags[:, None], m2, 0, k2)  # (k2, rows, h)
    idx += np.arange(rows)[:, None] * m2  # row r's slots in [r * m2, (r + 1) * m2)
    flat = idx.ravel()
    if rows * m2 <= 1 << 31:
        flat = flat.astype(np.int32)  # half the bytes, and a faster sort
    flat.sort()
    # a slot counts where it differs from the one before; a row's first
    # always does, as rows never share a value
    new = np.empty(flat.size, dtype=bool)
    new[0] = True
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    return new.reshape(rows, -1).sum(axis=1)
