"""Joint per-worker reliability inference (T-Crowd style).

The model learns one precision ``rho_w`` per worker from *residual
consistency across attributes*: every answer after the first on a
``(object, attribute)`` tape is compared against the running mean of
the answers before it, the squared residual is variance-normalised for
the prefix length, and the normalised residuals are pooled per worker
across every attribute the worker ever touched.  A worker who is noisy
(or colluding on a shared bias) on *any* attribute accumulates large
residuals everywhere they answer — exactly the cross-attribute signal
T-Crowd exploits on tabular crowd data.

Precisions are crowd-relative: ``rho_w`` is the ratio of the crowd's
mean squared residual to worker ``w``'s, shrunk toward 1 by an
inverse-gamma-style prior so thin evidence cannot produce extreme
weights, and clamped to ``[floor, ceil]``.  An honest homogeneous crowd
therefore learns *equal* precisions and (via the equal-weights
fall-through in :func:`~repro.agg.base.weighted_mean`) aggregates
bitwise-identically to ``uniform``.

Two ingestion paths share the same state:

:meth:`observe`
    Streaming, prefix-residual form used by the serving engine's
    *serial sorted-key commit phase*.  Residuals depend only on the
    answer tape prefix — never on batch boundaries — so a resumed run
    that absorbs a journal tail and then re-purchases the remainder
    replays the *identical* float-addition sequence as an
    uninterrupted run (byte-identical checkpoints; property-tested).
:meth:`fit`
    Batch EM over complete recorded tapes, used offline by the planner:
    precision-weighted centers and per-worker residual moments are
    re-estimated alternately for a fixed iteration count.

Everything is deterministic: per-worker sums are plain serial float
accumulation in canonical (sorted-key, tape-index) order, and every
cross-worker reduction goes through ``math.fsum`` over sorted worker
ids, so no dict iteration order or arrival permutation can leak into
the result.

The clamped precision map is memoized: every mutator (:meth:`observe`
when it records a residual, :meth:`fit`, :meth:`restore_state`) drops
the memo and the next read rebuilds it with the same arithmetic, so
reads cost O(len(worker_ids)) instead of O(observed workers) and
return bit-identical floats.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.agg.base import (
    UNATTRIBUTED,
    effective_sample_size,
    row_means,
    weighted_mean,
)
from repro.errors import ConfigurationError


class ReliabilityModel:
    """Per-worker precision estimates from pooled residual moments."""

    #: Fixed sweep count for the batch :meth:`fit`.
    EM_ITERATIONS = 5
    #: Pseudo-observations shrinking every precision toward 1; thin
    #: evidence stays near neutral instead of exploding.
    PRIOR_STRENGTH = 2.0
    #: Hard clamp on learned precisions, bounding how much any single
    #: worker can be down- or up-weighted.
    FLOOR = 0.05
    CEIL = 20.0
    #: Upper clamp on the allocator's effective-sample-size gain.
    GAIN_CAP = 4.0

    def __init__(self) -> None:
        #: Residual-observation count per worker id.
        self._n: dict[int, float] = {}
        #: Normalised squared-residual sum per worker id.
        self._ss: dict[int, float] = {}
        #: Memoized clamped precisions; ``None`` after any mutation.
        #: Only the serving engine's serial commit and restore phases
        #: mutate, never while its evaluation phase reads, so readers
        #: racing on a cleared memo can at most each build the same
        #: dict — a complete dict is published by one assignment.
        self._rho: dict[int, float] | None = None

    # -- ingestion ----------------------------------------------------

    def observe(
        self,
        values: Sequence[float] | np.ndarray,
        worker_ids: Sequence[int],
        start: int,
        from_index: int | None = None,
    ) -> int:
        """Absorb the tail of one key's answer tape, streaming.

        ``worker_ids`` aligns with ``values[start:]``.  Only indices
        ``>= max(from_index, start, 1)`` contribute (index 0 has no
        prefix to disagree with; ``from_index`` lets a resumed caller
        skip answers already absorbed).  Returns how many residuals
        were recorded.
        """
        first = max(int(from_index) if from_index is not None else 0, start, 1)
        total = len(values)
        if first >= total:
            return 0
        # Serial prefix sum in tape-index order: the same floats in the
        # same order no matter how purchases were chunked into waves.
        acc = 0.0
        for j in range(first):
            acc += float(values[j])
        recorded = 0
        for i in range(first, total):
            value = float(values[i])
            residual = value - acc / i
            u = (residual * residual) / (1.0 + 1.0 / i)
            wid = int(worker_ids[i - start])
            if wid != UNATTRIBUTED:
                self._rho = None
                self._n[wid] = self._n.get(wid, 0.0) + 1.0
                self._ss[wid] = self._ss.get(wid, 0.0) + u
                recorded += 1
            acc += value
        return recorded

    def fit(
        self,
        groups: Iterable[tuple[Sequence[float], Sequence[int]]],
        reset: bool = True,
    ) -> dict[int, float]:
        """Batch EM over complete tapes; returns the learned precisions.

        ``groups`` yields ``(values, worker_ids)`` per key — iterate
        them in a canonical (sorted-key) order for determinism.  Each
        sweep re-centers every key with the current precisions, then
        re-pools per-worker residual moments; :attr:`EM_ITERATIONS` sweeps
        run unconditionally (no float-noise-sensitive stopping test).
        """
        tapes = [
            (np.asarray(values, dtype=np.float64), [int(w) for w in worker_ids])
            for values, worker_ids in groups
        ]
        if reset:
            self._n = {}
            self._ss = {}
        rho: dict[int, float] = {}
        for _ in range(self.EM_ITERATIONS):
            n: dict[int, float] = {}
            ss: dict[int, float] = {}
            for values, worker_ids in tapes:
                count = values.size
                if count < 2:
                    continue
                weights = [rho.get(w, 1.0) if w != UNATTRIBUTED else 1.0
                           for w in worker_ids]
                center = weighted_mean(values, weights)
                # Finite-sample correction: with a uniform center,
                # E[(x_i - mean)^2] = sigma^2 (1 - 1/n).
                correction = count / (count - 1.0)
                for value, wid in zip(values.tolist(), worker_ids):
                    if wid == UNATTRIBUTED:
                        continue
                    residual = value - center
                    n[wid] = n.get(wid, 0.0) + 1.0
                    ss[wid] = ss.get(wid, 0.0) + residual * residual * correction
            self._n, self._ss = n, ss
            self._rho = None
            rho = self.precisions()
        return rho

    # -- estimates ----------------------------------------------------

    def _mean_square(self) -> float:
        """Crowd-wide mean normalised squared residual (fsum, sorted)."""
        wids = sorted(self._n)
        total_n = math.fsum(self._n[w] for w in wids)
        if total_n <= 0.0:
            return 0.0
        return math.fsum(self._ss[w] for w in wids) / total_n

    def _precisions(self) -> dict[int, float]:
        """The memoized precision map (shared: callers must not mutate)."""
        rho = self._rho
        if rho is None:
            s_bar = self._mean_square()
            if s_bar <= 0.0:
                rho = {wid: 1.0 for wid in self._n}
            else:
                a0 = self.PRIOR_STRENGTH
                rho = {}
                for wid in self._n:
                    value = ((self._n[wid] + 2.0 * a0) * s_bar) / (
                        self._ss[wid] + 2.0 * a0 * s_bar
                    )
                    rho[wid] = min(max(value, self.FLOOR), self.CEIL)
            self._rho = rho
        return rho

    def precisions(self) -> dict[int, float]:
        """Clamped crowd-relative precision per observed worker (a copy)."""
        return dict(self._precisions())

    def weight(self, worker_id: int) -> float:
        """Aggregation weight for one worker (1.0 when unobserved)."""
        return self._precisions().get(int(worker_id), 1.0)

    def weights(self, worker_ids: Sequence[int]) -> list[float]:
        """Aggregation weights for one answer tape's worker ids."""
        rho = self._precisions()
        return [rho.get(int(w), 1.0) for w in worker_ids]

    @property
    def observed_workers(self) -> int:
        """How many distinct workers have contributed residuals."""
        return len(self._n)

    @property
    def observations(self) -> float:
        """Total residual observations absorbed (all workers)."""
        return math.fsum(self._n[w] for w in sorted(self._n))

    def gain(self, worker_ids: Sequence[int] | None = None) -> float:
        """Effective-sample-size gain of weighting over uniform.

        With per-worker variances ``s / rho_w``, a uniform mean over a
        worker multiset has variance ``~ mean(1/rho) * s / n`` while
        the precision-weighted mean has ``~ s / (n * mean(rho))`` — so
        one weighted answer is worth ``mean(rho) * mean(1/rho) >= 1``
        (AM–HM) uniform answers.  Pass the multiset of worker ids that
        answered one attribute for a per-attribute gain; default is the
        gain over all observed workers.  Clamped to ``[1, GAIN_CAP]``.
        """
        rho_map = self._precisions()
        if worker_ids is None:
            rhos = [rho_map[w] for w in sorted(rho_map)]
        else:
            rhos = [rho_map.get(int(w), 1.0) for w in worker_ids]
        if not rhos:
            return 1.0
        mean_rho = math.fsum(rhos) / len(rhos)
        mean_inv = math.fsum(1.0 / r for r in rhos) / len(rhos)
        return min(max(mean_rho * mean_inv, 1.0), self.GAIN_CAP)

    # -- durability ---------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot (floats round-trip exactly via repr)."""
        return {
            "n": [[wid, self._n[wid]] for wid in sorted(self._n)],
            "ss": [[wid, self._ss[wid]] for wid in sorted(self._ss)],
        }

    def restore_state(self, state: dict) -> None:
        self._n = {int(wid): float(value) for wid, value in state.get("n", [])}
        self._ss = {int(wid): float(value) for wid, value in state.get("ss", [])}
        self._rho = None


class ReliabilityAggregator:
    """Precision-weighted mean over a shared :class:`ReliabilityModel`."""

    def __init__(self, model: ReliabilityModel | None = None) -> None:
        self.model = model if model is not None else ReliabilityModel()

    def aggregate(self, values, worker_ids=None) -> float:
        """Collapse one key's answers into a single estimate."""
        if worker_ids is None:
            raise ConfigurationError(
                "reliability aggregation needs worker-attributed answers; "
                "the answer source provides no worker ids"
            )
        return weighted_mean(values, self.model.weights(worker_ids))

    def aggregate_many(
        self, tapes: Sequence[tuple[np.ndarray, Sequence[int]]]
    ) -> np.ndarray:
        """:meth:`aggregate` of many non-empty ``(answers, worker_ids)`` tapes.

        Returns one estimate per tape, each bit for bit what
        :meth:`aggregate` returns for it.  Weights come from one model
        lookup per distinct worker id and products from one array
        multiply, which rounds as ``float * float`` does.  A tape whose
        weights are all equal (every length-1 tape among them) takes
        :func:`~repro.agg.base.row_means`, the arrival-order mean; any
        other tape divides the ``fsum`` of its products by the ``fsum``
        of its weights, the exactly rounded sums
        :func:`~repro.agg.base.weighted_mean` takes.
        """
        if not len(tapes):
            return np.empty(0, dtype=np.float64)
        lengths = np.array([len(answers) for answers, _ in tapes], dtype=np.int64)
        if int(lengths.min()) == 0:
            raise ConfigurationError("cannot aggregate an empty answer set")
        values = np.concatenate([answers for answers, _ in tapes], dtype=np.float64)
        distinct, inverse = np.unique(
            np.concatenate([ids for _, ids in tapes], dtype=np.int64),
            return_inverse=True,
        )
        weights = np.array(self.model.weights(distinct.tolist()))[inverse]
        starts = np.cumsum(lengths) - lengths
        equal = np.minimum.reduceat(weights, starts) == np.maximum.reduceat(
            weights, starts
        )
        estimates = np.empty(len(tapes), dtype=np.float64)
        flat = np.flatnonzero(equal)
        estimates[flat] = row_means([tapes[tape][0] for tape in flat.tolist()])
        products = (values * weights).tolist()
        weight_list = weights.tolist()
        begins = starts.tolist()
        ends = (starts + lengths).tolist()
        for tape in np.flatnonzero(~equal).tolist():
            begin, end = begins[tape], ends[tape]
            den = math.fsum(weight_list[begin:end])
            if den <= 0.0:
                estimates[tape] = np.mean(values[begin:end])
            else:
                estimates[tape] = math.fsum(products[begin:end]) / den
        return estimates

    def effective_count(self, values, worker_ids=None) -> float:
        """How many uniform answers this tape is worth (for intervals)."""
        if worker_ids is None:
            return float(len(values))
        return effective_sample_size(self.model.weights(worker_ids))
