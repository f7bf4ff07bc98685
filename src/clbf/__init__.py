"""Spatial provenance for multi-hop relay packets over a fragmented road.

Each packet carries a pair of fixed-size Bloom filters: one accumulates the
relay edges it traveled, the other the (node, road-fragment) pairs it saw.
A roadside unit recovers the packet's path and fragment sequence from those
bits alone. The package provides the packet layer (`protocol`), the filters
and their hashing (`bloom`), the road-fragment dictionary (`segments`), a
closed-form model of the recovery false-positive probability next to an
exact oracle (`analytics`), parameter selection (`optimize`), a
deterministic Monte Carlo driver (`simulate`), and scenario files plus a
CLI (`scenario`, `cli`).
"""

from .analytics import (
    BACKENDS,
    BackendComparison,
    FpBreakdown,
    ModelParams,
    compare_backends,
    count_critical_pairs,
    critical_pair_histogram,
    critical_pair_histogram_closed,
    fp_probability,
    occupancy_pmf_vector,
)
from .bloom import BloomFilter, ParameterError, encode_key, hash_indices
from .optimize import BudgetSplit, InfeasibleError, optimize_k2, split_budget
from .protocol import (
    Clbf,
    ProtocolError,
    RecoveryOutcome,
    edge_key,
    location_key,
    recover_edges,
    recover_locations,
    recover_paths,
    recover_provenance,
)
from .scenario import PRESETS, Scenario, ScenarioError, load_preset, load_scenario
from .segments import (
    CoverageError,
    ResourceCapError,
    SegmentDictionary,
    count_valid_sequences,
    enumerate_valid_sequences,
    is_valid_sequence,
)
from .simulate import (
    NoValidPath,
    PlacementSpec,
    PointResult,
    SimulationSetup,
    SweepRow,
    run_point,
    run_sweep,
    run_trial,
    sample_occupancy,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "BACKENDS",
    "BackendComparison",
    "BloomFilter",
    "BudgetSplit",
    "Clbf",
    "CoverageError",
    "FpBreakdown",
    "InfeasibleError",
    "ModelParams",
    "NoValidPath",
    "PRESETS",
    "ParameterError",
    "PlacementSpec",
    "PointResult",
    "ProtocolError",
    "RecoveryOutcome",
    "ResourceCapError",
    "Scenario",
    "ScenarioError",
    "SegmentDictionary",
    "SimulationSetup",
    "SweepRow",
    "compare_backends",
    "count_critical_pairs",
    "count_valid_sequences",
    "critical_pair_histogram",
    "critical_pair_histogram_closed",
    "edge_key",
    "encode_key",
    "enumerate_valid_sequences",
    "fp_probability",
    "hash_indices",
    "is_valid_sequence",
    "load_preset",
    "load_scenario",
    "location_key",
    "occupancy_pmf_vector",
    "optimize_k2",
    "recover_edges",
    "recover_locations",
    "recover_paths",
    "recover_provenance",
    "run_point",
    "run_sweep",
    "run_trial",
    "sample_occupancy",
    "split_budget",
    "wilson_interval",
    "__version__",
]
