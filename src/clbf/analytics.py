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
alternative admissible sequence when it is the only extra recovery. A
sequence with J of them turns ambiguous when at least one tests positive,
with probability 1 - miss^J; the histogram mean of that over admissible
sequences is the conditional ambiguity probability. As hit + miss = 1, it
equals the subset-counting sum over a pool of F >= J false pairs
(`fp_subset_count`, `fp_subset_totals`), which is kept as a tested
identity. The fitted histogram can overshoot the sequence count, so the
conditional value is clamped into [0, 1] and the clamp is flagged.

Counting conventions: C(n, 0) = 1 for every n including negatives,
C(n, k) = 0 when k < 0, k > n >= 0, or n < 0 with k > 0; empty sums are 0.
The fitted histogram terms additionally treat their bracketed sums as 1
when the even order is 0 (the odd-order fallthrough).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bloom import check_geometry
from .protocol import MAX_HOPS
from .segments import _walk, count_valid_sequences  # noqa: F401  bench/layers.py wraps _walk

__all__ = [
    "BackendComparison",
    "FpBreakdown",
    "ModelParams",
    "binom",
    "compare_backends",
    "count_critical_pairs",
    "critical_pair_histogram",
    "critical_pair_histogram_closed",
    "critical_pair_range",
    "even_full_coverage_term",
    "even_partial_coverage_term",
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

    @property
    def false_pool(self) -> int:
        """Pairs tested but never embedded: h * (delta - 1)."""
        return self.h * (self.delta - 1)


# ---------------------------------------------------------------------------
# occupancy of the location filter


@lru_cache(maxsize=64)
def _occupancy_walk(m2: int) -> list:
    """Frontier [throws, pmf] of the one occupancy walk kept per filter width."""
    return [0, np.ones(1)]


def occupancy_pmf_vector(m2: int, k2: int, h: int) -> tuple[float, ...]:
    """Pr(alpha lit bits) for alpha = 1..min(m2, k2*h), index alpha-1.

    Each of the k2*h throws lands on a lit bit with probability alpha/m2,
    so p_{t+1}(a) = p_t(a)*a/m2 + p_t(a-1)*(m2-a+1)/m2.

    The law depends on m2 and the throw count only, so one walk per m2
    serves every k2 and h: a call continues from the last call's throws
    and restarts from zero only when asked for fewer. Sharing is exact.
    Entry a reads entries <= a only, its factors a/m2 and (m2-a+1)/m2 do
    not depend on the array length, and every entry past t throws is an
    exact zero, so zero-padding the frontier changes no bit.
    """
    if m2 < 1 or k2 < 1 or h < 1:
        raise ValueError("m2, k2 and h must all be >= 1")
    throws = k2 * h
    top = min(m2, throws)
    walk = _occupancy_walk(m2)
    done, pmf = walk
    if throws < done:
        done, pmf = 0, np.ones(1)
    # walk a copy and publish it whole, so a concurrent call never reads a
    # frontier that is half a throw along
    pmf = np.concatenate((pmf, np.zeros(top + 1 - len(pmf))))
    lit = np.arange(top + 1)
    stay = lit[1:] / m2
    grow = (m2 - lit[:-1]) / m2
    for _ in range(throws - done):
        pmf[1:] = pmf[1:] * stay + pmf[:-1] * grow
        pmf[0] = 0.0
    walk[:] = throws, pmf
    return tuple(pmf[1:].tolist())


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


def critical_pair_range(delta: int) -> range:
    """Admissible J values; empty when a single fragment leaves no slack."""
    if delta < 1:
        raise ValueError(f"delta={delta} must be >= 1")
    return range(1, 2 * delta - 1)


# ---------------------------------------------------------------------------
# critical pairs per sequence: fitted closed form


def even_full_coverage_term(j_even: int, delta: int, h: int) -> int:
    """Fitted count for sequences that reach every fragment (even order).

    Order 0 is the odd-order fallthrough: its bracketed sums are defined
    as 1.
    """
    _check_even_order(j_even)
    if delta < 1:
        raise ValueError(f"delta={delta} must be >= 1")
    half = j_even // 2
    if j_even == 0:
        first = 1
    else:
        first = sum(binom(half - 1, i) * binom(delta - half - 1, i) for i in range(half))
    second = sum(binom(half, i) * binom(h - delta - half + 1, i) for i in range(half + 1))
    return first * second


def even_partial_coverage_term(j_even: int, reach: int, h: int) -> int:
    """Fitted count for sequences whose highest fragment is ``reach``."""
    _check_even_order(j_even)
    if reach < 1:
        raise ValueError(f"reach={reach} must be >= 1")
    half = j_even // 2
    if j_even == 0:
        return 1
    first = sum(binom(half - 1, i) * binom(reach - half - 1, i) for i in range(half))
    second = sum(binom(half - 1, i) * binom(h - reach - half + 1, i) for i in range(half))
    return first * second


def _check_even_order(j_even: int) -> None:
    # orders past what a reach can support are legal: their binomials
    # vanish (or collapse to the fit's constant tail) on their own
    if j_even % 2:
        raise ValueError(f"order {j_even} is odd; only even orders are defined")
    if j_even < 0:
        raise ValueError(f"order {j_even} must be >= 0")


@lru_cache(maxsize=64)
def critical_pair_histogram_closed(delta: int, h: int) -> tuple[int, ...]:
    """Fitted histogram over J = 1..2*delta-2; odd J maps to order 2*(J//2).

    This is a regression-style fit, not a count: it can disagree with the
    exact oracle (including overshooting the number of admissible
    sequences), which is why downstream values are clamped and the backend
    comparison is reported rather than asserted.
    """
    if delta < 1:
        raise ValueError(f"delta={delta} must be >= 1")
    if h < 1:
        raise ValueError(f"h={h} must be >= 1")
    out = []
    for order in range(0, 2 * delta - 1, 2):  # J = order and order + 1 share it
        val = even_full_coverage_term(order, delta, h)
        val += sum(even_partial_coverage_term(order, reach, h) for reach in range(1, delta))
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


def fp_probability(params: ModelParams, backend: str = "closed_form") -> FpBreakdown:
    """Unconditional ambiguity probability, averaged over the occupancy law.

    Given alpha lit bits a never-embedded pair tests positive with
    probability hit = (alpha / m2)^k2, and a sequence with J critical pairs
    turns ambiguous unless all of them miss. Over the |P| admissible
    sequences, f_J of which have J critical pairs:

        Pr(ambiguous | alpha) = min(1, (1 / |P|) * sum_J f_J * (1 - (1 - hit)^J))

    with a clamp flag; 1 - (1 - hit)^J is taken as -expm1(J * log1p(-hit)),
    since a hit below machine epsilon would otherwise round it to 0. The
    total is sum_alpha Pr(alpha) * Pr(ambiguous | alpha), capped at 1.
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend {backend!r} not in {BACKENDS}")
    # one position has no substitute: the exact histogram is all zeros there
    if backend == "closed_form" and params.h > 1:
        hist = critical_pair_histogram_closed(params.delta, params.h)
    else:
        hist = critical_pair_histogram(params.delta, params.h)
    n_seq = count_valid_sequences(params.delta, params.h)
    occ = occupancy_pmf_vector(params.m2, params.k2, params.h)
    hit = (np.arange(1, len(occ) + 1) / params.m2) ** params.k2
    with np.errstate(divide="ignore"):  # alpha = m2 lights every probe
        log_miss = np.log1p(-hit)
    raw = np.zeros(len(occ))
    for j, f in enumerate(hist, start=1):
        if f:
            raw += f * -np.expm1(j * log_miss)
    raw /= n_seq
    conditional = np.minimum(raw, 1.0).tolist()
    return FpBreakdown(
        params=params,
        backend=backend,
        n_sequences=n_seq,
        occupancy=occ,
        critical_histogram=hist,
        conditional=tuple(conditional),
        total=min(1.0, math.fsum(p * value for p, value in zip(occ, conditional))),
        clamped=bool((raw > 1.0).any()),
    )


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
    return BackendComparison(
        delta=delta,
        h=h,
        n_sequences=count_valid_sequences(delta, h),
        closed=critical_pair_histogram_closed(delta, h),
        exact=critical_pair_histogram(delta, h),
    )
