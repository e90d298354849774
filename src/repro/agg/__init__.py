"""Answer aggregation: the paper's mean or reliability weighting.

See :mod:`repro.agg.base` for the strategy names and determinism
contract, :mod:`repro.agg.reliability` for the T-Crowd-style joint
worker-reliability inference.
"""

from repro.agg.base import (
    AGGREGATORS,
    UNATTRIBUTED,
    effective_sample_size,
    make_aggregator,
    weighted_mean,
)
from repro.agg.reliability import ReliabilityAggregator, ReliabilityModel

__all__ = [
    "AGGREGATORS",
    "ReliabilityAggregator",
    "ReliabilityModel",
    "UNATTRIBUTED",
    "effective_sample_size",
    "make_aggregator",
    "weighted_mean",
]
