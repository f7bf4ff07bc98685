"""Parameter-selection rules: hash-count argmin and bit-budget split."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_analytics import walk_from_zero

from clbf import analytics
from clbf.analytics import (
    BACKENDS,
    ModelParams,
    critical_pair_histogram,
    critical_pair_histogram_closed,
    fp_curve,
    fp_probability,
)
from clbf.optimize import (
    K2_SCAN_MAX,
    MIN_EDGE_BITS,
    BudgetSplit,
    InfeasibleError,
    edge_query_fp,
    optimize_k2,
    split_budget,
)
from clbf.segments import count_valid_sequences


def per_point(m2, k2, h, delta, backend="closed_form"):
    """The model at one k2 as the per-point loop evaluated it, sharing nothing.

    Returns (total, clamped, occupancy, conditional).
    """
    if backend == "closed_form" and h > 1:
        hist = critical_pair_histogram_closed(delta, h)
    else:
        hist = critical_pair_histogram(delta, h)
    n_seq = count_valid_sequences(delta, h)
    occ = walk_from_zero(m2, k2, h)
    hit = (np.arange(1, len(occ) + 1) / m2) ** k2
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-hit)
    raw = np.zeros(len(occ))
    for j, f in enumerate(hist, start=1):
        if f:
            raw += f * -np.expm1(j * log_miss)
    raw /= n_seq
    conditional = tuple(np.minimum(raw, 1.0).tolist())
    total = min(1.0, math.fsum(p * value for p, value in zip(occ, conditional)))
    return total, bool((raw > 1.0).any()), occ, conditional


def per_point_argmin(m2, h, delta):
    """`optimize_k2` as the per-point loop: one model evaluation per k2."""
    best_k, best_fp = None, math.inf
    for k2 in range(1, min(m2, K2_SCAN_MAX) + 1):
        fp = per_point(m2, k2, h, delta)[0]
        if fp < best_fp:
            best_k, best_fp = k2, fp
    return best_k, best_fp


def assert_curve_is_per_point(m2, h, delta, k2s, backend):
    want = [per_point(m2, k2, h, delta, backend) for k2 in k2s]
    assert fp_curve(m2, h, delta, k2s, backend) == [w[:2] for w in want]
    for k2, w in zip(k2s, want):
        bd = fp_probability(ModelParams(m2=m2, k2=k2, h=h, delta=delta), backend)
        assert (bd.total, bd.clamped, bd.occupancy, bd.conditional) == w, k2


@pytest.mark.parametrize(
    "m2,h,delta",
    [(64, 4, 3), (200, 15, 16), (3975, 5, 15), (3854, 10, 15), (32, 4, 1), (24, 6, 4)],
)
def test_optimize_k2_equals_the_per_point_scan(m2, h, delta):
    analytics._occupancy_walk.cache_clear()
    assert optimize_k2(m2, h, delta) == per_point_argmin(m2, h, delta)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_curve_equals_the_per_point_model(data):
    m2 = data.draw(st.one_of(st.integers(1, 64), st.integers(65, 30_000)), label="m2")
    h = data.draw(st.integers(1, 60), label="h")
    delta = data.draw(st.integers(1, 12), label="delta")
    backend = data.draw(st.sampled_from(BACKENDS), label="backend")
    top = max(1, min(m2, 600 // h))  # the oracle walks every k2 from zero
    k2s = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=8), label="k2s")
    # the per-width walk: cold, or left by an earlier call below or past the curve
    frontier = data.draw(
        st.one_of(st.none(), st.integers(1, max(k2s) * h), st.integers(max(k2s) * h, 700)),
        label="frontier",
    )
    analytics._occupancy_walk.cache_clear()
    if frontier is not None:
        analytics.occupancy_pmf_vector(m2, 1, frontier)
    assert_curve_is_per_point(m2, h, delta, k2s, backend)


@pytest.mark.parametrize(
    "m2,h,k2s",
    [
        (64, 5, [1, 2, 3, 4, 5]),  # 5 + 10 + 15 + 20 cells fill a block of 50, then one more row
        (64, 5, [4, 3, 2, 1]),  # exactly one full block
        (300, 6, [1, 20, 2, 9]),  # rows of 120 and 54 cells, each longer than a block
        (300, 6, [20]),  # one row longer than a block, alone
    ],
)
def test_curve_across_block_edges(m2, h, k2s, monkeypatch):
    monkeypatch.setattr(analytics, "BLOCK_CELLS", 50)
    for backend in BACKENDS:
        analytics._occupancy_walk.cache_clear()
        assert_curve_is_per_point(m2, h, 6, k2s, backend)


def test_curve_rows_that_exactly_fill_a_block():
    # k2 = 1..14 and 23 at h = 128: 128 * 128 cells, one BLOCK_CELLS block;
    # k2 = 24 starts the next
    assert analytics.BLOCK_CELLS == 128 * 128
    k2s = list(range(1, 15)) + [23, 24]
    analytics._occupancy_walk.cache_clear()
    assert_curve_is_per_point(4000, 128, 5, k2s, "closed_form")


def test_optimize_k2_is_the_grid_argmin():
    m2, h, delta = 64, 4, 3
    k2, fp = optimize_k2(m2, h, delta)
    curve = {
        k: fp_probability(ModelParams(m2=m2, k2=k, h=h, delta=delta)).total
        for k in range(1, min(m2, 64) + 1)
    }
    assert fp == min(curve.values())
    assert curve[k2] == fp
    assert all(curve[k] > fp for k in curve if k < k2)  # ties go to smaller k


def test_optimize_k2_flat_curve_picks_cheapest():
    # delta=1 admits one sequence, the curve is identically zero
    k2, fp = optimize_k2(32, 4, delta=1)
    assert (k2, fp) == (1, 0.0)


def test_edge_query_fp_standard_form():
    assert edge_query_fp(1024, 3, 10) == pytest.approx(
        (1.0 - math.exp(-30 / 1024)) ** 3
    )
    assert edge_query_fp(8, 1, 1) < edge_query_fp(8, 1, 100)
    with pytest.raises(ValueError):
        edge_query_fp(0, 1, 1)


def test_split_budget_vacuous_bound_takes_the_floor():
    split = split_budget(m=512, h=10, n_nodes=16, delta=4, eps1=1.0)
    assert isinstance(split, BudgetSplit)
    assert split.m1 == MIN_EDGE_BITS == 8
    assert split.k1 == max(1, int(8 / 10 * math.log(2) + 0.5))
    assert split.m2 == 512 - 8
    assert split.edge_fp_bound <= 1.0


def test_split_budget_meets_the_edge_tolerance():
    split = split_budget(m=4096, h=10, n_nodes=16, delta=4, eps1=1e-3)
    assert split.edge_fp_bound <= 1e-3
    assert split.m1 + split.m2 == 4096
    assert split.location_fp == optimize_k2(split.m2, 10, 4)[1]
    # the scan takes the smallest adequate edge filter
    k1_prev = max(1, int((split.m1 - 1) / 10 * math.log(2) + 0.5))
    assert min(1.0, 240 * edge_query_fp(split.m1 - 1, k1_prev, 10)) > 1e-3


def test_split_budget_infeasible():
    with pytest.raises(InfeasibleError):
        split_budget(m=64, h=10, n_nodes=64, delta=4, eps1=1e-9)
    # malformed input is a plain ValueError, not "infeasible"
    for kwargs in ({"n_nodes": 1}, {"n_nodes": 16, "eps1": 0.0}, {"n_nodes": 10}):
        with pytest.raises(ValueError) as exc:
            split_budget(m=512, h=10, delta=4, **kwargs)
        assert exc.type is ValueError


def test_split_budget_leaves_room_for_the_location_filter():
    # a budget barely above the floor still yields a usable second filter
    split = split_budget(m=10, h=2, n_nodes=3, delta=2, eps1=1.0)
    assert split.m2 >= 1
    assert split.k2 >= 1
