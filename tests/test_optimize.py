"""Parameter-selection rules: hash-count argmin and bit-budget split."""

import math

import pytest

from clbf.analytics import ModelParams, fp_probability
from clbf.optimize import (
    MIN_EDGE_BITS,
    BudgetSplit,
    InfeasibleError,
    edge_query_fp,
    optimize_k2,
    split_budget,
)


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
