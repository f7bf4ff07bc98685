"""Parameter selection for the paired filters.

Two knobs matter in practice. `optimize_k2` picks the hash count of the
location filter by scanning the closed-form false-positive curve, which is
not convex in general, so a grid argmin is the honest answer. `split_budget`
divides a total bit budget between the two filters: the edge filter gets the
smallest width whose union-bounded recovery error stays inside the caller's
tolerance, every remaining bit goes to the location filter, and the hash
counts follow (the classic m/n*ln2 rule for the edge side, the grid argmin
for the location side).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytics import ModelParams, fp_probability

__all__ = ["BudgetSplit", "InfeasibleError", "edge_query_fp", "optimize_k2", "split_budget"]

MIN_EDGE_BITS = 8


class InfeasibleError(ValueError):
    """No parameter choice inside the search space meets the constraint."""


def optimize_k2(
    m2: int,
    h: int,
    delta: int,
    k_range: range | None = None,
) -> tuple[int, float]:
    """Hash count minimizing the modeled false-positive probability.

    Returns ``(k2, fp)``. Ties resolve to the smaller hash count, so a flat
    stretch of the curve (including the all-zero curve at delta=1) yields
    the cheapest filter.
    """
    if m2 < 1:
        raise ValueError(f"m2={m2} must be >= 1")
    if k_range is None:
        k_range = range(1, min(m2, 64) + 1)
    if len(k_range) == 0:
        raise InfeasibleError("empty hash-count search range")
    best_k, best_fp = None, math.inf
    for k2 in k_range:
        params = ModelParams(m2=m2, k2=k2, h=h, delta=delta)
        fp = fp_probability(params).total
        if fp < best_fp:
            best_k, best_fp = k2, fp
    assert best_k is not None
    return best_k, best_fp


def edge_query_fp(m1: int, k1: int, h: int) -> float:
    """Standard Bloom false-positive rate after h-1 edge insertions.

    The h-1 is folded into the caller-facing contract: a packet that made
    h hops holds h-1 edges, but the sizing rule below budgets for h keys,
    which is the conservative round number.
    """
    if m1 < 1 or k1 < 1 or h < 1:
        raise ValueError("m1, k1, h must all be positive")
    return (1.0 - math.exp(-k1 * h / m1)) ** k1


@dataclass(frozen=True)
class BudgetSplit:
    """One feasible division of the packet's bit budget."""

    m1: int
    k1: int
    m2: int
    k2: int
    edge_fp_bound: float
    location_fp: float


def split_budget(
    m: int,
    h: int,
    n_nodes: int,
    delta: int,
    eps1: float = 1e-3,
) -> BudgetSplit:
    """Divide ``m`` total bits between the edge and location filters.

    The receiver probes all n*(n-1) ordered node pairs, so the edge-side
    requirement is the union bound min(1, n*(n-1)*fp) <= eps1. The scan
    takes the smallest edge filter that satisfies it (never below
    MIN_EDGE_BITS), leaving the rest of the budget for the location side.
    """
    if h < 1:
        raise ValueError(f"h={h} must be >= 1")
    if n_nodes < 2:
        raise InfeasibleError("need at least two nodes for an edge query")
    if not 0.0 < eps1 <= 1.0:
        raise InfeasibleError(f"eps1 {eps1} outside (0, 1]")
    pairs = n_nodes * (n_nodes - 1)
    for m1 in range(MIN_EDGE_BITS, m):
        # round-half-up; Python's round() would go to even
        k1 = max(1, int(m1 / h * math.log(2) + 0.5))
        bound = min(1.0, pairs * edge_query_fp(m1, k1, h))
        if bound <= eps1:
            m2 = m - m1
            if m2 < 1:
                break
            k2, fp2 = optimize_k2(m2, h, delta)
            return BudgetSplit(
                m1=m1, k1=k1, m2=m2, k2=k2, edge_fp_bound=bound, location_fp=fp2
            )
    raise InfeasibleError(
        f"no edge-filter width in [{MIN_EDGE_BITS}, {m}) meets eps1={eps1} "
        f"with {pairs} ordered pairs over {h} hops"
    )
