"""Error-model checks, each against an independent brute-force route."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbf import analytics
from clbf.analytics import (
    BACKENDS,
    ModelParams,
    binom,
    compare_backends,
    count_critical_pairs,
    critical_pair_histogram,
    critical_pair_histogram_closed,
    fp_curve,
    fp_probability,
    fp_subset_count,
    fp_subset_totals,
    occupancy_pmf_vector,
)
from clbf.optimize import optimize_k2
from clbf.segments import (
    ResourceCapError,
    count_valid_sequences,
    enumerate_valid_sequences,
    is_valid_sequence,
)


def brute_critical_pairs(seq, num_segments):
    """(position, fragment) swaps that leave the sequence admissible."""
    hits = 0
    for i in range(len(seq)):
        for v in range(1, num_segments + 1):
            if v == seq[i]:
                continue
            mutated = list(seq)
            mutated[i] = v
            if is_valid_sequence(mutated, num_segments):
                hits += 1
    return hits


# ---------------------------------------------------------------------------
# generalized binomials


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(0, 0) == 1
    assert binom(-3, 0) == 1  # empty product, any n
    assert binom(-3, 2) == 0
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0


# ---------------------------------------------------------------------------
# occupancy law


def exact_occupancy(m2, throws):
    """Pr(alpha lit bits) for alpha = 1..min(m2, throws), in exact rationals.

    C(m2, alpha) * sum_g (-1)^g C(alpha, g) (alpha-g)^throws / m2^throws;
    the alternating sum counts surjections of the throws onto a fixed
    alpha-subset of bits.
    """
    top = min(m2, throws)
    powers = [pow(j, throws) for j in range(top + 1)]
    den = pow(m2, throws)
    law = []
    for alpha in range(1, top + 1):
        surjections = sum(
            (-1) ** g * math.comb(alpha, g) * powers[alpha - g] for g in range(alpha + 1)
        )
        law.append(Fraction(math.comb(m2, alpha) * surjections, den))
    assert sum(law) == 1
    return law


@pytest.mark.parametrize(
    "m2,k2,h",
    [(4, 2, 2), (16, 3, 4), (100, 5, 15), (200, 30, 15), (500, 8, 10),
     (3975, 64, 5), (3854, 64, 10)],
)
def test_occupancy_recurrence_matches_exact_law(m2, k2, h):
    vec = occupancy_pmf_vector(m2, k2, h)
    law = exact_occupancy(m2, k2 * h)
    assert len(vec) == len(law)
    checked = 0
    for got, exact in zip(vec, law):
        if exact > Fraction(1, 10**290):
            assert abs(Fraction(got) - exact) <= exact * Fraction(1, 10**12)
            checked += 1
    assert checked > 0


def test_occupancy_sums_to_one():
    for m2, k2, h in ((8, 2, 2), (16, 3, 4), (200, 5, 15)):
        vec = occupancy_pmf_vector(m2, k2, h)
        assert abs(math.fsum(vec) - 1.0) <= 1e-9
        assert all(p >= 0.0 for p in vec)
        assert len(vec) == min(m2, k2 * h)


def test_occupancy_against_exhaustive_throws():
    # 2 keys * 2 slots each = 4 uniform throws into 4 slots, all 256 outcomes
    m2, throws = 4, 4
    counts = [0] * (m2 + 1)
    for assign in itertools.product(range(m2), repeat=throws):
        counts[len(set(assign))] += 1
    vec = occupancy_pmf_vector(m2=4, k2=2, h=2)
    for alpha in range(1, m2 + 1):
        assert vec[alpha - 1] == pytest.approx(counts[alpha] / m2**throws, rel=1e-12)


def walk_from_zero(m2, k2, h):
    """The occupancy recurrence over all k2*h throws, sharing nothing."""
    top = min(m2, k2 * h)
    lit = np.arange(top + 1)
    stay = lit[1:] / m2
    grow = (m2 - lit[:-1]) / m2
    pmf = np.zeros(top + 1)
    pmf[0] = 1.0
    for _ in range(k2 * h):
        pmf[1:] = pmf[1:] * stay + pmf[:-1] * grow
        pmf[0] = 0.0
    return tuple(pmf[1:].tolist())


WIDTH_SWEEP_M2 = (100, 150, 200, 250, 300, 400, 500)


@pytest.mark.parametrize(
    "calls",
    [
        [(200, k2, 15) for k2 in range(1, 65)],
        [(200, k2, 15) for k2 in range(64, 0, -1)],
        [(3975, k2, 5) for k2 in range(1, 65)],
        [(3975, k2, 5) for k2 in range(64, 0, -1)],
        # the width-sweep's model column, widths interleaved point by point
        [(m2, k2, 10) for k2 in (5, 6) for m2 in WIDTH_SWEEP_M2],
        [(64, 3, 4), (64, 3, 4), (64, 2, 4), (64, 3, 4), (64, 1, 1), (64, 40, 4)],
    ],
    ids=["m2=200-up", "m2=200-down", "m2=3975-up", "m2=3975-down", "widths", "repeat-and-back"],
)
def test_shared_walk_is_bit_identical_to_a_walk_from_zero(calls):
    analytics._occupancy_walk.cache_clear()
    for m2, k2, h in calls:
        assert occupancy_pmf_vector(m2, k2, h) == walk_from_zero(m2, k2, h), (m2, k2, h)


def test_shared_walk_starts_over_after_cache_clear():
    occupancy_pmf_vector(200, 30, 15)
    assert analytics._occupancy_walk(200)[0] == 450
    analytics._occupancy_walk.cache_clear()
    assert analytics._occupancy_walk.cache_info().currsize == 0
    assert occupancy_pmf_vector(200, 2, 15) == walk_from_zero(200, 2, 15)
    assert analytics._occupancy_walk(200)[0] == 30  # walked 30 throws, not 450
    analytics._occupancy_walk.cache_clear()
    assert occupancy_pmf_vector(200, 31, 15) == walk_from_zero(200, 31, 15)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from((1, 2, 7, 64, 200)), st.integers(1, 12),
                          st.integers(1, 12)), min_size=1, max_size=8))
def test_shared_walk_matches_from_zero_on_any_call_sequence(calls):
    analytics._occupancy_walk.cache_clear()
    for m2, k2, h in calls:
        assert occupancy_pmf_vector(m2, k2, h) == walk_from_zero(m2, k2, h)


def test_walk_past_its_cell_budget_is_refused_before_it_starts(monkeypatch):
    monkeypatch.setattr(analytics, "WALK_CELLS", 30 * 31)
    analytics._occupancy_walk.cache_clear()
    # 30 throws over cells 0..30: exactly the budget
    assert occupancy_pmf_vector(200, 2, 15) == walk_from_zero(200, 2, 15)
    # a continuation pays for its new throws only: 15 * 46, then 15 * 61
    assert occupancy_pmf_vector(200, 3, 15) == walk_from_zero(200, 3, 15)
    assert occupancy_pmf_vector(200, 4, 15) == walk_from_zero(200, 4, 15)
    with pytest.raises(ResourceCapError) as exc:
        occupancy_pmf_vector(200, 5, 15)  # 15 * 76
    assert str(exc.value) == (
        "the occupancy walk needs 15 throws over a support of 76 cells, "
        "1140 cell updates, past WALK_CELLS = 930"
    )
    assert analytics._occupancy_walk(200)[0] == 60  # the frontier did not move
    for call in (lambda: fp_curve(200, 15, 4, [1, 5]), lambda: optimize_k2(200, 15, 4)):
        with pytest.raises(ResourceCapError):
            call()
    analytics._occupancy_walk.cache_clear()


def test_model_evaluation_past_its_budget_is_refused_before_the_walk(monkeypatch):
    analytics._occupancy_walk.cache_clear()
    # k2 = 1..4 at h = 15 over m2 = 200: 15 + 30 + 45 + 60 cells, and
    # delta = 4 gives the histogram 6 nonzero J terms
    assert sum(1 for f in analytics._histogram("closed_form", 4, 15) if f) == 6
    expected = fp_curve(200, 15, 4, [1, 2, 3, 4])
    analytics._occupancy_walk.cache_clear()
    monkeypatch.setattr(analytics, "EVAL_TERMS", 150 * 26)
    assert fp_curve(200, 15, 4, [1, 2, 3, 4]) == expected  # exactly the budget
    analytics._occupancy_walk.cache_clear()
    with pytest.raises(ResourceCapError) as exc:
        fp_curve(200, 15, 4, [1, 2, 3, 5])
    assert str(exc.value) == (
        "the model evaluation needs 165 cells of occupancy law times 6 J terms (+ 20 per cell), "
        "4290 term evaluations, past EVAL_TERMS = 3900"
    )
    assert analytics._occupancy_walk(200)[0] == 0  # refused before the first throw
    # a call past both budgets reports the walk's
    monkeypatch.setattr(analytics, "WALK_CELLS", 10)
    with pytest.raises(ResourceCapError, match="the occupancy walk needs 75 throws"):
        fp_curve(200, 15, 4, [1, 2, 3, 5])
    analytics._occupancy_walk.cache_clear()


def test_occupancy_trivial_cases():
    assert occupancy_pmf_vector(2, 1, 1) == (pytest.approx(1.0),)
    vec = occupancy_pmf_vector(2, 1, 2)
    assert vec == (pytest.approx(0.5), pytest.approx(0.5))
    with pytest.raises(ValueError):
        occupancy_pmf_vector(0, 2, 2)


# ---------------------------------------------------------------------------
# critical pairs, enumerated


def test_count_critical_pairs_matches_brute_force():
    for delta, length in ((2, 3), (3, 4), (4, 5), (5, 3)):
        for seq in enumerate_valid_sequences(delta, length):
            assert count_critical_pairs(seq, delta) == brute_critical_pairs(seq, delta), seq


@pytest.mark.parametrize(
    "seq,delta,expected",
    [
        ((1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8), 8, 13),
        (tuple(range(1, 16)), 16, 1),
        ((1, 1, 2, 2, 3, 3), 3, 4),
    ],
)
def test_count_critical_pairs_frozen(seq, delta, expected):
    assert count_critical_pairs(seq, delta) == expected


def test_histogram_oracle_frozen():
    assert critical_pair_histogram(2, 3) == (2, 1)
    hist = critical_pair_histogram(3, 4)
    assert sum(hist) == len(enumerate_valid_sequences(3, 4))
    assert len(hist) == 2 * 3 - 2
    # ~5.5e11 sequences, far past anything enumeration can list
    assert sum(critical_pair_histogram(30, 40)) == count_valid_sequences(30, 40)


def test_histogram_oracle_matches_brute_force():
    for delta in range(1, 9):
        for length in range(1, 13):
            hist = [0] * (2 * delta - 2)
            for seq in enumerate_valid_sequences(delta, length):
                j = brute_critical_pairs(seq, delta)
                if j:  # one position or one fragment: nothing to substitute
                    hist[j - 1] += 1
            assert critical_pair_histogram(delta, length) == tuple(hist), (delta, length)


# ---------------------------------------------------------------------------
# critical pairs, fitted curve


def paper_full_term(j_even, delta, h):
    """The paper's term for sequences that reach every fragment (even order).

    Order 0 is the odd-order fallthrough: its bracketed sums are 1.
    """
    half = j_even // 2
    if j_even == 0:
        first = 1
    else:
        first = sum(binom(half - 1, i) * binom(delta - half - 1, i) for i in range(half))
    second = sum(binom(half, i) * binom(h - delta - half + 1, i) for i in range(half + 1))
    return first * second


def paper_partial_term(j_even, reach, h):
    """The paper's term for sequences whose highest fragment is ``reach``."""
    half = j_even // 2
    if j_even == 0:
        return 1
    first = sum(binom(half - 1, i) * binom(reach - half - 1, i) for i in range(half))
    second = sum(binom(half - 1, i) * binom(h - reach - half + 1, i) for i in range(half))
    return first * second


def paper_histogram(delta, h):
    """The long form: every J sums its own even order's terms."""
    per_j = []
    for j in range(1, 2 * delta - 1):
        order = 2 * (j // 2)
        per_j.append(paper_full_term(order, delta, h) + sum(
            paper_partial_term(order, reach, h) for reach in range(1, delta)))
    return tuple(per_j)


def test_fitted_terms_frozen():
    assert paper_full_term(2, delta=4, h=6) == 3
    assert paper_full_term(2, delta=3, h=6) == 4
    assert paper_full_term(0, delta=5, h=9) == 1  # empty bracket
    assert paper_partial_term(0, reach=3, h=9) == 1


def test_fitted_histogram_frozen():
    assert critical_pair_histogram_closed(2, 3) == (2, 3)
    hist = critical_pair_histogram_closed(8, 15)
    assert hist[0] == 8  # every road has delta single-swap-tolerant sequences
    assert hist[1] == 15
    assert len(hist) == 14


def test_fitted_histogram_equals_a_sum_per_critical_pair_count():
    # past the grid: h < delta leaves brackets with a negative lower argument
    # (their sum is 1); long routes over many fragments take the binomial
    far_out = [(12, 3), (20, 7), (30, 1), (30, 29), (30, 31), (30, 90), (30, 200), (25, 150), (17, 200)]
    for delta, h in itertools.chain(itertools.product(range(1, 12), range(1, 20)), far_out):
        assert critical_pair_histogram_closed(delta, h) == paper_histogram(delta, h), (delta, h)


def test_backend_comparison_report():
    cmp = compare_backends(2, 3)
    assert cmp.closed == (2, 3)
    assert cmp.exact == (2, 1)
    assert cmp.max_abs_diff == 2
    text = cmp.csv_text()
    assert text.startswith("# schema: clbf.fj-comparison.v1")
    assert text == compare_backends(2, 3).csv_text()  # deterministic


# ---------------------------------------------------------------------------
# ambiguous-subset counting


def brute_subset_count(j, critical, pool):
    marked = set(range(critical))
    return sum(
        1
        for combo in itertools.combinations(range(pool), j)
        if marked & set(combo)
    )


def test_subset_count_small_pools_exhaustive():
    for pool in range(0, 13):
        for critical in range(0, pool + 1):
            for j in range(1, pool + 1):
                assert fp_subset_count(j, critical, pool) == brute_subset_count(
                    j, critical, pool
                ), (j, critical, pool)


def test_subset_count_is_a_binomial_difference():
    assert fp_subset_count(3, 4, 10) == binom(10, 3) - binom(6, 3)
    assert fp_subset_count(2, 0, 8) == 0
    with pytest.raises(ValueError):
        fp_subset_count(1, 5, 4)


def test_subset_totals_frozen():
    hist = critical_pair_histogram(2, 3)
    totals = fp_subset_totals(hist, delta=2, seq_len=3)
    assert totals == (4, 7, 3)
    # the single-pair total is the histogram's first moment
    assert totals[0] == sum((j + 1) * f for j, f in enumerate(hist))


def test_subset_totals_match_direct_double_sum():
    for delta, seq_len in ((2, 4), (3, 3), (4, 5)):
        hist = critical_pair_histogram(delta, seq_len)
        pool = seq_len * (delta - 1)
        totals = fp_subset_totals(hist, delta, seq_len)
        for j in range(1, pool + 1):
            direct = sum(
                f * fp_subset_count(j, J, pool)
                for J, f in enumerate(hist, start=1)
            )
            assert totals[j - 1] == direct


# ---------------------------------------------------------------------------
# conditional and total false-positive probability


def subset_total_conditional(alpha, params, hist):
    """The long form, unclamped: (1/|P|) * sum_j hit^j * miss^(F-j) * C_j."""
    hit = (alpha / params.m2) ** params.k2
    miss = 1.0 - hit
    totals = fp_subset_totals(hist, params.delta, params.h)
    pool = params.false_pool
    terms = [hit**j * miss ** (pool - j) * c for j, c in enumerate(totals, start=1)]
    return math.fsum(terms) / count_valid_sequences(params.delta, params.h)


BUDGET_SPLIT = ModelParams(m2=3975, k2=64, h=5, delta=15)  # hit < 1e-70 for every alpha


def test_conditional_fp_equals_subset_total_sum():
    geometries = (
        ModelParams(m2=32, k2=2, h=4, delta=3),
        ModelParams(m2=24, k2=3, h=6, delta=4),
        ModelParams(m2=200, k2=8, h=15, delta=8),
        BUDGET_SPLIT,
    )
    saw_clamp = False
    for params in geometries:
        top = min(params.m2, params.k2 * params.h)
        for backend in BACKENDS:
            bd = fp_probability(params, backend=backend)
            assert len(bd.conditional) == top
            for alpha in sorted({1, 2, top // 3, top // 2, top}):
                got = bd.conditional[alpha - 1]
                want = subset_total_conditional(alpha, params, bd.critical_histogram)
                assert got > 0.0  # a hit far below machine epsilon still counts
                if want > 1.0:
                    assert bd.clamped, (params, backend, alpha)
                    saw_clamp = True
                assert math.isclose(got, min(want, 1.0), rel_tol=1e-12), (params, alpha)
    assert saw_clamp  # the fitted histogram overshoots at m2=24, h=6


def test_conditional_fp_saturates_cleanly():
    # the support reaches alpha = m2, where every probe hits: log1p(-1) = -inf
    params = ModelParams(m2=6, k2=1, h=6, delta=4)
    for backend in BACKENDS:
        bd = fp_probability(params, backend=backend)
        assert len(bd.conditional) == params.m2
        assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in bd.conditional)
        assert bd.conditional[-1] == 1.0
    assert not fp_probability(params, backend="oracle").clamped


def test_total_fp_oracle_matches_sequence_expectation():
    # full dual route: average 1-(1-hit)^J over sequences and occupancy
    params = ModelParams(m2=24, k2=2, h=5, delta=3)
    seqs = enumerate_valid_sequences(params.delta, params.h)
    occ = occupancy_pmf_vector(params.m2, params.k2, params.h)
    expected = 0.0
    for alpha, p_alpha in enumerate(occ, start=1):
        hit = (alpha / params.m2) ** params.k2
        per_seq = [
            1.0 - (1.0 - hit) ** brute_critical_pairs(s, params.delta) for s in seqs
        ]
        expected += p_alpha * math.fsum(per_seq) / len(seqs)
    got = fp_probability(params, backend="oracle")
    assert got.total == pytest.approx(expected, rel=1e-9)
    assert not got.clamped


def test_fp_probability_breakdown_shape():
    params = ModelParams(m2=64, k2=3, h=6, delta=4)
    for backend in BACKENDS:
        bd = fp_probability(params, backend=backend)
        assert bd.backend == backend
        assert 0.0 <= bd.total <= 1.0
        assert len(bd.occupancy) == min(params.m2, params.k2 * params.h)
        assert len(bd.conditional) == len(bd.occupancy)
    with pytest.raises(ValueError):
        fp_probability(params, backend="guess")


def test_single_fragment_road_never_ambiguous():
    bd = fp_probability(ModelParams(m2=16, k2=2, h=4, delta=1))
    assert bd.total == 0.0
    # neither is a single-hop route: one position has no substitute
    for backend in BACKENDS:
        bd = fp_probability(ModelParams(m2=64, k2=1, h=1, delta=3), backend=backend)
        assert bd.total == 0.0 and not bd.clamped
