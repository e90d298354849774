"""Answer aggregation: the paper's plain mean or reliability weighting.

The paper's online phase buys ``b(a)`` answers per attribute per object
and averages them uniformly — one spammy or colluding worker therefore
degrades every estimate their answers touch.  Two strategies register
in :data:`AGGREGATORS`:

``uniform``
    The paper's arithmetic mean.  It is represented by ``None``: every
    caller keeps its byte-exact ``np.mean`` path (the whole serving
    tier's determinism gates compare against it, so it must never
    change).
``reliability``
    Precision-weighted mean using per-worker reliabilities learned by
    :class:`~repro.agg.reliability.ReliabilityModel` from
    cross-attribute residual consistency (T-Crowd-style joint
    inference).  Needs worker-attributed answers.

Determinism contract (load-bearing for crash-resume byte-identity and
for answers that arrive in any order):

* Weighted sums go through :func:`weighted_mean`, which uses
  :func:`math.fsum` — *exactly rounded*, hence permutation-invariant in
  answer arrival order without sorting.
* When every weight is equal the weighted mean falls through to
  ``float(np.mean(values))`` on the arrival-order array, so a
  reliability aggregator whose learned precisions are all equal is
  *bitwise* equal to ``uniform`` (property-tested).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.agg.reliability import ReliabilityAggregator, ReliabilityModel

#: Legal ``--aggregator`` / ``DisQParams.aggregator`` values.
AGGREGATORS = ("uniform", "reliability")

#: Sentinel worker id for answers with no recorded provenance (old
#: journals, pre-seeded caches).  Aggregators give it neutral weight.
UNATTRIBUTED = -1


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Exactly-rounded weighted mean, permutation-invariant.

    ``fsum`` computes the correctly rounded sum of the product multiset,
    so any arrival order of ``(value, weight)`` pairs yields the same
    float.  The equal-weights branch returns ``float(np.mean(values))``
    on the arrival-order array instead — *that* is what makes
    reliability-with-flat-precisions bitwise equal to the historical
    uniform mean (the system never reorders answer tapes, so arrival
    order is itself canonical there).
    """
    if not len(values):
        raise ConfigurationError("cannot aggregate an empty answer set")
    first = float(weights[0])
    if all(float(w) == first for w in weights):
        return float(np.mean(np.asarray(values, dtype=np.float64)))
    num = math.fsum(float(v) * float(w) for v, w in zip(values, weights))
    den = math.fsum(float(w) for w in weights)
    if den <= 0.0:
        return float(np.mean(np.asarray(values, dtype=np.float64)))
    return num / den


def row_means(rows: Sequence[np.ndarray]) -> np.ndarray:
    """``float(np.mean(row))`` of every non-empty row, bit for bit.

    Rows of equal length share one axis mean: numpy's pairwise
    summation over a contiguous row is bit-identical to ``np.mean`` of
    that row alone.
    """
    means = np.empty(len(rows), dtype=np.float64)
    by_length: dict[int, list[int]] = {}
    for index, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(index)
    for indices in by_length.values():
        group = np.array([rows[index] for index in indices], dtype=np.float64)
        means[indices] = np.mean(group, axis=1)
    return means


def effective_sample_size(weights: Sequence[float]) -> float:
    """Kish effective sample size ``(Σw)² / Σw²`` (fsum, exact)."""
    total = math.fsum(float(w) for w in weights)
    square = math.fsum(float(w) * float(w) for w in weights)
    if square <= 0.0:
        return 0.0
    return (total * total) / square


def make_aggregator(
    name: str, *, model: ReliabilityModel | None = None
) -> ReliabilityAggregator | None:
    """Build an aggregator by name: ``None`` for ``uniform``.

    ``reliability`` aggregators carry a
    :class:`~repro.agg.reliability.ReliabilityModel`; pass ``model`` to
    share one across planner/engine, otherwise a fresh model is made.
    """
    from repro.agg.reliability import ReliabilityAggregator

    if name not in AGGREGATORS:
        raise ConfigurationError(
            f"unknown aggregator {name!r}; choose from {', '.join(AGGREGATORS)}"
        )
    if name == "uniform":
        return None
    return ReliabilityAggregator(model)
