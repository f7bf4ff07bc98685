"""Closed-form false-positive model for location recovery, plus oracles.

The recovery side tests every (node, fragment) pair of a candidate chain
against the location filter. Pairs that were never embedded but test
positive ("false pairs") can combine into an alternative admissible
segment sequence, making provenance ambiguous. This module computes the
probability of that event two ways:

* a closed-form route: the occupancy law for the number of lit filter
  bits, a per-pair collision probability conditioned on it, and a fitted
  histogram of per-sequence critical pairs;
* an oracle route: the same pipeline but with the exact critical-pair
  histogram, counted by a transfer DP over admissible sequences.

A "critical pair" of a sequence is a false pair that already yields an
alternative admissible sequence when it is the only extra recovery. The
model counts these single-position confusions only: a sequence with J of
them is counted ambiguous when at least one tests positive, with
probability 1 - miss^J, and the histogram mean of that over admissible
sequences is the modeled conditional ambiguity probability. The receiver
also reports ambiguity when an alternative sequence differing in several
positions has all its false pairs positive with no critical pair among
them, so the model is a lower bound on the receiver's event (its gap is of
second order in the hit probability). "Exact" describes the oracle's
histogram, not the event. As hit + miss = 1, the conditional value
equals the subset-counting sum over a pool of F >= J false pairs
(`fp_subset_count`, `fp_subset_totals`), which is kept as a tested
identity. The fitted histogram can overshoot the sequence count, so the
conditional value is clamped into [0, 1] and the clamp is flagged.

Counting conventions: C(n, 0) = 1 for every n including negatives,
C(n, k) = 0 when k < 0, k > n >= 0, or n < 0 with k > 0; empty sums are 0.
Under them a bracketed sum sum_l C(a, l) * C(b, l) of the fitted histogram
is C(a + b, a) for b >= 0 and 1 for b < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .bloom import check_geometry
from .protocol import MAX_HOPS
from .segments import ResourceCapError, count_valid_sequences
from .segments import _walk  # noqa: F401  bench/layers.py wraps _walk

__all__ = [
    "BackendComparison",
    "FpBreakdown",
    "ModelParams",
    "binom",
    "compare_backends",
    "count_critical_pairs",
    "critical_pair_histogram",
    "critical_pair_histogram_closed",
    "fp_curve",
    "fp_probability",
    "fp_subset_count",
    "fp_subset_totals",
    "occupancy_pmf_vector",
]

BACKENDS = ("closed_form", "oracle")


def binom(n: int, k: int) -> int:
    """Binomial coefficient under the conventions documented above."""
    if k < 0:
        return 0
    if k == 0:
        return 1
    if n < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_fragment_field(delta: int) -> None:
    if delta > 0xFFFF:  # past the packet's u16 fragment field
        raise ValueError(f"delta={delta} exceeds the u16 fragment limit 65535")


@dataclass(frozen=True)
class ModelParams:
    """Inputs to the false-positive model."""

    m2: int
    k2: int
    h: int
    delta: int

    def __post_init__(self):
        check_geometry(self.m2, self.k2)  # a location filter the packet can build
        if self.h < 1:
            raise ValueError(f"h={self.h} must be >= 1")
        if self.h > MAX_HOPS:
            raise ValueError(f"h={self.h} exceeds the packet's hop counter ({MAX_HOPS})")
        if self.delta < 1:
            raise ValueError(f"delta={self.delta} must be >= 1")
        _check_fragment_field(self.delta)

    @property
    def false_pool(self) -> int:
        """Pairs tested but never embedded: h * (delta - 1)."""
        return self.h * (self.delta - 1)


# ---------------------------------------------------------------------------
# occupancy of the location filter


# cell updates (throws times support cells) one call may ask of the occupancy
# walk: about 1.3 s at the ~1.2 ns a cell update took on a 2-vCPU Xeon
WALK_CELLS = 1 << 30


@lru_cache(maxsize=64)
def _occupancy_walk(m2: int) -> list:
    """Frontier [throws, pmf] of the one occupancy walk kept per filter width."""
    return [0, np.ones(1)]


def _occupancy_rows(m2: int, h: int, k2s: list[int]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k2, Pr(alpha lit bits) for alpha = 1..min(m2, k2*h)) per k2.

    ``k2s`` is distinct and ascending.

    Each of the k2*h throws lands on a lit bit with probability alpha/m2,
    so p_{t+1}(a) = p_t(a)*a/m2 + p_t(a-1)*(m2-a+1)/m2.

    The law depends on m2 and the throw count only, so one walk per m2
    serves every k2 and h: a call continues from the last call's throws
    and restarts from zero only when asked for fewer. Sharing is exact.
    Entry a reads entries <= a only, its factors a/m2 and (m2-a+1)/m2 do
    not depend on the array length, and every entry past t throws is an
    exact zero, so zero-padding the frontier changes no bit.

    A row is a view of the walk's array, valid until the next row is
    drawn. The whole walk is checked against WALK_CELLS when this is
    called, before the first throw; past it, ResourceCapError.
    """
    throws = k2s[-1] * h
    top = min(m2, throws)
    walk = _occupancy_walk(m2)
    done, pmf = walk
    if k2s[0] * h < done:
        done, pmf = 0, np.ones(1)
    updates = (throws - done) * (top + 1)
    if updates > WALK_CELLS:
        raise ResourceCapError(
            f"the occupancy walk needs {throws - done} throws over a support of {top + 1} cells, "
            f"{updates} cell updates, past WALK_CELLS = {WALK_CELLS}"
        )
    return _walk_rows(walk, m2, h, k2s, done, pmf)


def _walk_rows(
    walk: list, m2: int, h: int, k2s: list[int], done: int, pmf: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """`_occupancy_rows`' walk from ``done`` throws and frontier ``pmf``."""
    throws = k2s[-1] * h
    top = min(m2, throws)
    # walk a copy and publish it whole, so a concurrent call never reads a
    # frontier that is half a throw along
    pmf = np.concatenate((pmf, np.zeros(top + 1 - len(pmf))))
    lit = np.arange(top + 1)
    stay = lit[1:] / m2
    grow = (m2 - lit[:-1]) / m2
    kept, moved = np.empty(top), np.empty(top)
    # a throw updates cells 1..n only: after t throws every cell past t is an
    # exact zero that stays zero until a throw reaches it, so n need only
    # exceed t, and it grows 256 cells at a time
    n = 0
    for k2 in k2s:
        for t in range(done, k2 * h):
            if n <= t and n < top:
                n = min(top, t + 256)
                cur, prev, s, g = pmf[1 : n + 1], pmf[:n], stay[:n], grow[:n]
                a, b = kept[:n], moved[:n]
            np.multiply(cur, s, out=a)
            np.multiply(prev, g, out=b)
            np.add(a, b, out=cur)
            pmf[0] = 0.0
        done = k2 * h
        if done == throws:  # publish before the last row, so no caller need drain
            walk[:] = throws, pmf
        yield k2, pmf[1 : min(m2, done) + 1]


def occupancy_pmf_vector(m2: int, k2: int, h: int) -> tuple[float, ...]:
    """Pr(alpha lit bits) for alpha = 1..min(m2, k2*h), index alpha-1.

    One row of the shared per-width walk (`_occupancy_rows`); a walk past
    WALK_CELLS raises ResourceCapError.
    """
    if m2 < 1 or k2 < 1 or h < 1:
        raise ValueError("m2, k2 and h must all be >= 1")
    ((_, row),) = _occupancy_rows(m2, h, [k2])
    return tuple(row.tolist())


# ---------------------------------------------------------------------------
# critical pairs per sequence: exact count


def count_critical_pairs(sequence: tuple[int, ...], num_segments: int) -> int:
    """Critical pairs of one admissible sequence.

    A substitution at one position stays admissible iff the new value still
    fits both neighbors, so each position admits at most one alternative
    and only local checks are needed.
    """
    n = len(sequence)
    j = 0
    for i in range(1, n):
        prev = sequence[i - 1]
        cur = sequence[i]
        if i + 1 < n:
            nxt = sequence[i + 1]
            lo = max(prev, nxt - 1)
            hi = min(prev + 1, nxt)
        else:
            lo, hi = prev, prev + 1
        for v in range(lo, hi + 1):
            if v != cur and 1 <= v <= num_segments:
                j += 1
    return j


@lru_cache(maxsize=64)
def critical_pair_histogram(num_segments: int, seq_len: int) -> tuple[int, ...]:
    """Exact histogram f[J-1] = #sequences with J critical pairs.

    Index runs over J = 1..2*num_segments-2. Sequences with J = 0 exist
    only for single-position or single-segment inputs and are simply not
    recorded; they can never create ambiguity.

    `count_critical_pairs` only reads a (prev, cur, next) window: an
    interior position has a substitute iff exactly one of its two steps
    climbs, the last one iff its step climbs or it is below the top
    fragment. So a transfer DP over (fragment, last step) counts exactly.
    """
    if num_segments < 1 or seq_len < 1:
        raise ValueError(f"need num_segments >= 1 and seq_len >= 1, got {num_segments}, {seq_len}")
    width = 2 * num_segments - 1  # J = 0..2*num_segments-2, never more
    # (fragment, step into it) -> counts by J over every position but the last
    ways = {(1, None): [1] + [0] * (width - 1)}
    for _ in range(seq_len - 1):
        nxt = {}
        for (cur, step), counts in ways.items():
            for climb in range(1 + (cur < num_segments)):  # no climb past the top
                turn = step is not None and step != climb
                acc = nxt.setdefault((cur + climb, climb), [0] * width)
                for j in range(turn, width):
                    acc[j] += counts[j - turn]
        ways = nxt
    hist = [0] * width
    for (cur, step), counts in ways.items():
        last = step is not None and (step == 1 or cur < num_segments)
        for j in range(last, width):
            hist[j] += counts[j - last]
    return tuple(hist[1:])


# ---------------------------------------------------------------------------
# critical pairs per sequence: fitted closed form


def _paired_sum(a: int, b: int) -> int:
    """S(a, b) = sum_{l=0..a} C(a, l) * C(b, l), a >= 0: C(a + b, a), or 1 if b < 0."""
    return math.comb(a + b, a) if b >= 0 else 1


@lru_cache(maxsize=64)
def critical_pair_histogram_closed(delta: int, h: int) -> tuple[int, ...]:
    """Fitted histogram over J = 1..2*delta-2; odd J maps to order 2*(J//2).

    The paper's fit: f(0) = delta and, for i >= 1, one term for sequences
    reaching every fragment plus one per highest fragment r < delta,

        f(2i) = S(i-1, delta-i-1) * S(i, h-delta-i+1)
                + sum_{r=1..delta-1} S(i-1, r-i-1) * S(i-1, h-r-i+1),

    where each bracketed sum S (`_paired_sum`) is one binomial by
    Vandermonde's identity; the tests keep the paper's sums as the oracle.

    This is a regression-style fit, not a count: it can disagree with the
    exact oracle (including overshooting the number of admissible
    sequences), which is why downstream values are clamped and the backend
    comparison is reported rather than asserted.
    """
    if delta < 1:
        raise ValueError(f"delta={delta} must be >= 1")
    if h < 1:
        raise ValueError(f"h={h} must be >= 1")
    out = [delta, delta]
    for i in range(1, delta):  # J = 2i and 2i + 1 share order 2i
        val = _paired_sum(i - 1, delta - i - 1) * _paired_sum(i, h - delta - i + 1)
        val += sum(
            _paired_sum(i - 1, r - i - 1) * _paired_sum(i - 1, h - r - i + 1)
            for r in range(1, delta)
        )
        out += (val, val)
    return tuple(out[1 : 2 * delta - 1])


# ---------------------------------------------------------------------------
# subset counting and the conditional ambiguity probability


def fp_subset_count(j: int, critical: int, pool: int) -> int:
    """Size-j subsets of ``pool`` false pairs hitting >= 1 of ``critical``.

    Computed as the telescoping sum_{l=1..critical} C(pool-l, j-1); equal
    to C(pool, j) - C(pool-critical, j).
    """
    if j < 1:
        raise ValueError(f"subset size j={j} must be >= 1")
    if critical < 0 or pool < 0 or critical > pool:
        raise ValueError(f"critical={critical} outside [0, pool={pool}]")
    return sum(binom(pool - l, j - 1) for l in range(1, critical + 1))


def fp_subset_totals(
    f_histogram: tuple[int, ...], delta: int, seq_len: int
) -> tuple[int, ...]:
    """C_j for j = 1..pool: sum_J f_J * sum_{l=1..J} C(pool-l, j-1)."""
    pool = seq_len * (delta - 1)
    return tuple(
        sum(f * binom(pool - l, j - 1)
            for J, f in enumerate(f_histogram, start=1) for l in range(1, J + 1))
        for j in range(1, pool + 1)
    )


@dataclass(frozen=True)
class FpBreakdown:
    """Full evaluation trail of one false-positive probability."""

    params: ModelParams
    backend: str
    n_sequences: int
    occupancy: tuple[float, ...]
    critical_histogram: tuple[int, ...]
    conditional: tuple[float, ...]
    total: float
    clamped: bool


# term evaluations one call may ask of the array pass after the walk: a
# cell of occupancy law costs one per nonzero J term, plus CELL_TERMS for
# its own hit, log, clamp and sum; about 1.2 s at the ~4.5 ns a term
# evaluation took on a 2-vCPU Xeon
EVAL_TERMS = 1 << 28
CELL_TERMS = 20

# cells of occupancy law one evaluation block holds; rows are packed whole,
# and a row longer than this gets a block of its own
BLOCK_CELLS = 1 << 14


def _histogram(backend: str, delta: int, h: int) -> tuple[int, ...]:
    if backend not in BACKENDS:
        raise ValueError(f"backend {backend!r} not in {BACKENDS}")
    # one position has no substitute: the exact histogram is all zeros there
    if backend == "closed_form" and h > 1:
        return critical_pair_histogram_closed(delta, h)
    return critical_pair_histogram(delta, h)


def _fp_rows(
    m2: int, h: int, k2s: list[int], hist: tuple[int, ...], n_seq: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, float, bool]]:
    """Yield (k2, occupancy, conditional, total, clamped) per k2 of ``k2s``.

    ``k2s`` is distinct and ascending.

    The rows of one walk are packed end to end into blocks of about
    BLOCK_CELLS cells, and each block takes one pass of the formula in
    `fp_probability`. Every step is elementwise, so a row's cells, total
    and clamp flag do not depend on the block it shares. Before the first
    throw, the walk is checked against WALK_CELLS and then the pass
    against EVAL_TERMS; past either, ResourceCapError.
    """
    sizes = [min(m2, k2 * h) for k2 in k2s]
    terms = [(j, f) for j, f in enumerate(hist, start=1) if f]
    rows = _occupancy_rows(m2, h, k2s)  # the walk's own check comes first
    support = sum(sizes)
    cost = support * (len(terms) + CELL_TERMS)
    if cost > EVAL_TERMS:
        raise ResourceCapError(
            f"the model evaluation needs {support} cells of occupancy law times {len(terms)} J terms "
            f"(+ {CELL_TERMS} per cell), {cost} term evaluations, past EVAL_TERMS = {EVAL_TERMS}"
        )
    base = np.arange(1, max(sizes) + 1) / m2
    first = 0
    while first < len(k2s):
        last, cells = first + 1, sizes[first]
        while last < len(k2s) and cells + sizes[last] <= BLOCK_CELLS:
            cells += sizes[last]
            last += 1
        occ, hit = np.empty(cells), np.empty(cells)
        spans = []
        at = 0
        for size in sizes[first:last]:
            k2, row = next(rows)
            occ[at : at + size] = row
            hit[at : at + size] = base[:size] ** k2
            spans.append((k2, at, at + size))
            at += size
        with np.errstate(divide="ignore"):  # alpha = m2 lights every probe
            log_miss = np.log1p(-hit)
        raw, term = np.zeros(cells), hit  # hit is spent: its cells hold each term
        for j, f in terms:  # raw += f * -expm1(j * log_miss), in place
            np.multiply(log_miss, j, out=term)
            np.expm1(term, out=term)
            np.negative(term, out=term)
            np.multiply(term, f, out=term)
            raw += term
        raw /= n_seq
        conditional = np.minimum(raw, 1.0)
        weighted = np.multiply(occ, conditional, out=term)
        for k2, a, b in spans:
            total = min(1.0, math.fsum(weighted[a:b].tolist()))
            yield k2, occ[a:b], conditional[a:b], total, bool((raw[a:b] > 1.0).any())
        first = last


def fp_probability(params: ModelParams, backend: str = "closed_form") -> FpBreakdown:
    """Modeled ambiguity probability, averaged over the occupancy law.

    Given alpha lit bits a never-embedded pair tests positive with
    probability hit = (alpha / m2)^k2, and a sequence with J critical pairs
    is counted ambiguous unless all of them miss. The value counts these
    single-position confusions only, so it is a lower bound on the
    receiver's false-positive event (see the module docstring); under
    either backend only the histogram is exact. Over the |P| admissible
    sequences, f_J of which have J critical pairs:

        Pr(ambiguous | alpha) = min(1, (1 / |P|) * sum_J f_J * (1 - (1 - hit)^J))

    with a clamp flag; 1 - (1 - hit)^J is taken as -expm1(J * log1p(-hit)),
    since a hit below machine epsilon would otherwise round it to 0. The
    total is sum_alpha Pr(alpha) * Pr(ambiguous | alpha), capped at 1.
    """
    hist = _histogram(backend, params.delta, params.h)
    n_seq = count_valid_sequences(params.delta, params.h)
    ((_, occ, conditional, total, clamped),) = _fp_rows(
        params.m2, params.h, [params.k2], hist, n_seq
    )
    return FpBreakdown(
        params=params,
        backend=backend,
        n_sequences=n_seq,
        occupancy=tuple(occ.tolist()),
        critical_histogram=hist,
        conditional=tuple(conditional.tolist()),
        total=total,
        clamped=clamped,
    )


def fp_curve(
    m2: int, h: int, delta: int, k2s: Iterable[int], backend: str = "closed_form"
) -> list[tuple[float, bool]]:
    """(total, clamped) of `fp_probability` at each k2 of ``k2s``, in their order.

    One walk of the occupancy law and one block pass per ~BLOCK_CELLS cells
    serve the whole curve; every value equals the per-point one.
    """
    k2s = list(k2s)
    if not k2s:
        return []
    distinct = sorted(set(k2s))
    for k2 in distinct:
        ModelParams(m2=m2, k2=k2, h=h, delta=delta)
    hist = _histogram(backend, delta, h)
    n_seq = count_valid_sequences(delta, h)
    rows = _fp_rows(m2, h, distinct, hist, n_seq)
    got = {k2: (total, clamped) for k2, _, _, total, clamped in rows}
    return [got[k2] for k2 in k2s]


# ---------------------------------------------------------------------------
# backend agreement report


@dataclass(frozen=True)
class BackendComparison:
    """Fitted vs exact critical-pair histograms for one (delta, h)."""

    delta: int
    h: int
    n_sequences: int
    closed: tuple[int, ...]
    exact: tuple[int, ...]

    @property
    def max_abs_diff(self) -> int:
        return max(
            (abs(a - b) for a, b in zip(self.closed, self.exact)), default=0
        )

    def rows(self) -> list[tuple[int, int, int]]:
        """(J, fitted, enumerated) rows."""
        return [
            (j + 1, self.closed[j], self.exact[j]) for j in range(len(self.closed))
        ]

    def csv_text(self) -> str:
        lines = [
            "# schema: clbf.fj-comparison.v1",
            # seq_len_mode is a field of the v1 schema; sequences have length h
            f"# delta={self.delta} h={self.h} seq_len_mode=h"
            f" n_sequences={self.n_sequences}",
            "J,fitted,enumerated,abs_diff",
        ]
        for j, fit, ex in self.rows():
            lines.append(f"{j},{fit},{ex},{abs(fit - ex)}")
        lines.append(
            f"# sum fitted={sum(self.closed)} enumerated={sum(self.exact)}"
            f" max_abs_diff={self.max_abs_diff}"
        )
        return "\n".join(lines) + "\n"


def compare_backends(delta: int, h: int) -> BackendComparison:
    _check_fragment_field(delta)
    return BackendComparison(
        delta=delta,
        h=h,
        n_sequences=count_valid_sequences(delta, h),
        closed=critical_pair_histogram_closed(delta, h),
        exact=critical_pair_histogram(delta, h),
    )
