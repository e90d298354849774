"""Deterministic per-key value-answer streams for the serving engine.

The offline platform draws a fresh worker from a *shared* RNG for every
question, which makes answers depend on global question order — fine
for a research script that asks every question itself, fatal for a
serving engine that coalesces questions across queries, buys only
what its cache lacks and resumes from a journal, so that the same
answer must come out whichever query or wave first asks for it.
:class:`DeterministicValueStream` removes the shared state: answer
``i`` for ``(object, attribute)`` is a pure function of
``(seed, object_id, attribute, i)``.  Each answer derives its own
:class:`numpy.random.Generator` from that tuple, draws a worker index
from it (uniform over the pool, matching
:meth:`~repro.crowd.pool.WorkerPool.draw`), and asks that worker for a
*stateless* answer (:meth:`~repro.crowd.worker.Worker.
answer_value_stateless`) using the same generator.

Consequences, all load-bearing for the serving engine:

* **order independence** — purchase order, batch coalescing and wave
  composition cannot change any answer;
* **resumability** — a crashed run's cache can be rebuilt from the
  journal and the stream continues at index ``len(cache)`` with the
  exact answers an uninterrupted run would have produced;
* **replay determinism** — re-reading any prefix re-derives identical
  values, so two runs over the same seed are comparable the way the
  paper's recorded-answer database made its experiments comparable.

Attribute names are folded in via ``zlib.crc32`` (stable across
processes and Python versions), never ``hash()`` (salted per process).

:class:`BatchedValueStream` keeps the per-coordinate generators as the
source of truth but derives a whole wave's draws at once through the
vectorized kernels in :mod:`repro.serve.vecrng`: one entropy matrix row
per answer coordinate, one batched PCG64 step per draw, and the worker
math applied as array ops over the whole wave
(:meth:`BatchedValueStream._worker_math`).  Lanes the kernels cannot
finish exactly — ziggurat wedge/tail rejections, Lemire redraws,
worker types without a vectorized contract — are replayed through the
scalar :meth:`DeterministicValueStream.answer`, so the batched stream
is byte-identical to the scalar one on every lane.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from repro.crowd.platform import CrowdPlatform
from repro.crowd.worker import HonestWorker, SpamWorker
from repro.domains.base import Domain
from repro.serve.vecrng import (
    CoordinateStreams,
    lemire_integers,
    uniform_doubles,
    ziggurat_normals,
)

_U32_BOUND = 1 << 32
_U64_BOUND = 1 << 64


def _attribute_key(attribute: str) -> int:
    """A process-stable 32-bit key for one attribute name."""
    return zlib.crc32(attribute.encode("utf-8")) & 0xFFFFFFFF


class DeterministicValueStream:
    """Pure-function value answers over one platform's domain and pool.

    Parameters
    ----------
    platform:
        Supplies the domain, the worker population and attribute-name
        resolution (synonym surface forms map to the same canonical
        attribute, hence the same stream).
    seed:
        Stream seed; defaults to the platform's own seed so a serving
        run is pinned by the same single number as everything else.
    """

    def __init__(self, platform: CrowdPlatform, seed: int | None = None) -> None:
        self.platform = platform
        self.domain: Domain = platform.domain
        self.seed = int(platform._seed if seed is None else seed)
        self._workers = platform.pool.workers
        # Canonical resolution is pure; memoize it off the hot path.
        self._canonical: dict[str, str] = {}
        self._attr_keys: dict[str, int] = {}

    def _resolve(self, attribute: str) -> tuple[str, int]:
        canonical = self._canonical.get(attribute)
        if canonical is None:
            canonical = self.platform.resolve(attribute)
            self._canonical[attribute] = canonical
            self._attr_keys[attribute] = _attribute_key(canonical)
        return canonical, self._attr_keys[attribute]

    def resolve(self, attribute: str) -> tuple[str, int]:
        """``(canonical name, stable 32-bit key)`` for one attribute.

        Public so stream wrappers (the fault-injected serve stream)
        derive their per-answer generators from the *same* coordinates
        this stream uses.
        """
        return self._resolve(attribute)

    @property
    def workers(self):
        """The worker population answers are drawn from (pool order)."""
        return self._workers

    def answer(self, object_id: int, attribute: str, index: int) -> float:
        """Answer ``index`` of the ``(object, attribute)`` stream."""
        canonical, attr_key = self._resolve(attribute)
        rng = np.random.default_rng([self.seed, int(object_id), attr_key, int(index)])
        worker = self._workers[int(rng.integers(0, len(self._workers)))]
        return worker.answer_value_stateless(self.domain, object_id, canonical, rng)

    def answers(
        self, object_id: int, attribute: str, start: int, count: int
    ) -> np.ndarray:
        """Answers ``start .. start+count`` of one key's stream.

        Per-index generators (rather than one generator advanced
        ``count`` times) keep every answer independent of how purchases
        are split into batches.  Returns a float64 ndarray so scalar
        and batched paths share one answer type end to end.
        """
        return np.array(
            [
                self.answer(object_id, attribute, index)
                for index in range(start, start + count)
            ],
            dtype=np.float64,
        )

    def worker_ids(
        self, object_id: int, attribute: str, start: int, count: int
    ) -> list[int]:
        """Worker ids behind answers ``start .. start+count`` of one key.

        Re-derives the per-answer worker draw from the same coordinate
        generator :meth:`answer` uses, without generating the answers —
        provenance for any cached span is a pure function of the stream
        seed, so reliability state can be rebuilt for tapes whose
        purchase-time attribution was not recorded.
        """
        _, attr_key = self._resolve(attribute)
        n = len(self._workers)
        ids: list[int] = []
        for index in range(start, start + count):
            rng = np.random.default_rng(
                [self.seed, int(object_id), attr_key, int(index)]
            )
            ids.append(self._workers[int(rng.integers(0, n))].worker_id)
        return ids


class _KeyMeta:
    """Hoisted per-(object, attribute) constants for batched generation."""

    __slots__ = (
        "attr_key",
        "truth",
        "noise_var",
        "binary",
        "low",
        "high",
    )

    def __init__(
        self,
        attr_key: int,
        truth: float,
        noise_var: float,
        binary: bool,
        low: float,
        high: float,
    ) -> None:
        self.attr_key = attr_key
        self.truth = truth
        self.noise_var = noise_var
        self.binary = binary
        self.low = low
        self.high = high


# Worker-archetype codes for the batched kernels.  Only *exact* types
# are classified — a subclass may override the scalar method, so its
# lanes take the scalar fallback rather than silently diverging.
_KIND_HONEST = 0
_KIND_SPAM = 1
_KIND_OPAQUE = 2


class BatchedValueStream(DeterministicValueStream):
    """Wave-batched answer generation, bit-identical to the scalar stream.

    The per-coordinate generator contract is untouched — answer ``i``
    of ``(object, attribute)`` is still defined by
    ``default_rng([seed, object, crc32(attr), i])`` — but the
    derivation runs through :class:`~repro.serve.vecrng.
    CoordinateStreams` for a whole wave of coordinates at once: one
    batched draw for the worker index (Lemire), one for the noise
    variate (ziggurat normal, reinterpreted as a unit uniform on spam
    lanes — both consume exactly one raw draw on accept), then the
    worker math as array ops grouped by attribute.

    Fallback rules (each replays the affected scope through the scalar
    path, preserving byte identity):

    * seed of ``2**64`` or more, or object/index outside uint32 →
      whole batch;
    * Lemire or ziggurat rejection → that lane;
    * worker whose exact type has no vectorized contract → that lane.
    """

    def __init__(self, platform: CrowdPlatform, seed: int | None = None) -> None:
        super().__init__(platform, seed)
        self._key_meta: dict[tuple[int, str], _KeyMeta] = {}
        self._attr_info: dict[
            str, tuple[int, np.ndarray, float, bool, float, float]
        ] = {}
        self._kinds: np.ndarray | None = None
        self._skills: np.ndarray | None = None
        self._worker_ids: np.ndarray | None = None
        self._proneness: np.ndarray | None = None

    def _attr_constants(
        self, attribute: str
    ) -> tuple[int, np.ndarray, float, bool, float, float]:
        """Attribute-level constants, resolved against the domain once.

        A wave touches the same few attributes across many objects, so
        everything except the per-object truth is hoisted here and
        per-key meta construction reduces to one array index.
        """
        info = self._attr_info.get(attribute)
        if info is None:
            canonical, attr_key = self.resolve(attribute)
            domain = self.domain
            low, high = domain.answer_range(canonical)
            info = (
                attr_key,
                np.asarray(domain.true_values(canonical), dtype=np.float64),
                float(domain.difficulty(canonical)),
                bool(domain.is_binary(canonical)),
                float(low),
                float(high),
            )
            self._attr_info[attribute] = info
        return info

    def _meta(self, object_id: int, attribute: str) -> _KeyMeta:
        key = (object_id, attribute)
        meta = self._key_meta.get(key)
        if meta is None:
            attr_key, truths, noise_var, binary, low, high = (
                self._attr_constants(attribute)
            )
            meta = _KeyMeta(
                attr_key,
                float(truths[object_id]),
                noise_var,
                binary,
                low,
                high,
            )
            self._key_meta[key] = meta
        return meta

    def key_meta(self, object_id: int, attribute: str) -> _KeyMeta:
        """Hoisted per-key constants (public for the fault fast path)."""
        return self._meta(object_id, attribute)

    def _worker_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Pool-order ``(kind, skill)`` columns (built once, lazily)."""
        if self._kinds is None:
            kinds = np.empty(len(self._workers), dtype=np.int64)
            skills = np.zeros(len(self._workers), dtype=np.float64)
            for i, worker in enumerate(self._workers):
                kind = {
                    HonestWorker: _KIND_HONEST,
                    SpamWorker: _KIND_SPAM,
                }.get(type(worker), _KIND_OPAQUE)
                kinds[i] = kind
                if kind == _KIND_HONEST:
                    skills[i] = worker.skill
            self._kinds = kinds
            self._skills = skills
        assert self._skills is not None
        return self._kinds, self._skills

    def fault_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Pool-order ``(worker_id, fault_proneness)`` columns."""
        if self._worker_ids is None:
            self._worker_ids = np.array(
                [worker.worker_id for worker in self._workers], dtype=np.int64
            )
            self._proneness = np.array(
                [worker.fault_proneness for worker in self._workers],
                dtype=np.float64,
            )
        assert self._proneness is not None
        return self._worker_ids, self._proneness

    def _worker_math(
        self,
        metas: Sequence[_KeyMeta],
        counts: np.ndarray,
        widx: np.ndarray,
        raw: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Answer values from one raw draw per lane, grouped by worker kind.

        Honest lanes read the draw as a ziggurat normal, spam lanes as
        a unit uniform — each consumes exactly one raw draw on its
        accept path.  Returns ``(values, ok)``; ``ok`` is False on
        ziggurat-rejected normal lanes and on lanes whose worker's
        exact type has no vectorized contract (the caller replays
        those scalar — the values written there are scratch).
        """
        normals, normal_ok = ziggurat_normals(raw)
        kinds, skills = self._worker_tables()
        lane_kind = kinds[widx]
        spam = lane_kind == _KIND_SPAM
        ok = normal_ok | spam
        ok &= lane_kind != _KIND_OPAQUE

        truth = np.repeat(
            np.array([meta.truth for meta in metas], dtype=np.float64), counts
        )
        noise_var = np.repeat(
            np.array([meta.noise_var for meta in metas], dtype=np.float64), counts
        )
        binary = np.repeat(
            np.array([meta.binary for meta in metas], dtype=bool), counts
        )

        # Honest math over every lane (spam lanes get overwritten, and
        # not-ok lanes are replayed by the caller, so scratch values
        # there are harmless).
        noise_sd = np.sqrt(skills[widx] * noise_var)
        values = np.multiply(noise_sd, normals)
        values += 0.0
        values += truth
        np.clip(values, 0.0, 1.0, out=values, where=binary)

        if spam.any():
            low = np.repeat(
                np.array([meta.low for meta in metas], dtype=np.float64), counts
            )
            high = np.repeat(
                np.array([meta.high for meta in metas], dtype=np.float64), counts
            )
            spam_vals = (high - low) * uniform_doubles(raw)
            spam_vals += low
            values[spam] = spam_vals[spam]

        return values, ok

    def batch_lanes(
        self,
        requests: Sequence[tuple[int, str, int, int]],
        metas: Sequence[_KeyMeta],
        seed: int,
        attempt_column: bool = False,
    ):
        """Per-lane coordinate tape for one request list, or ``None``.

        Expands the requests into one lane per answer coordinate
        (request-major), builds the batched PCG64 streams over
        ``[seed, object, attr_key, index]`` rows (plus a zero attempt
        column for the fault stream) and performs the batched worker
        draw.  A seed in ``[2**32, 2**64)`` enters the rows as its two
        little-endian uint32 words, exactly as ``SeedSequence`` splits
        it.  Returns ``(counts, index_lane, tape, widx, ok)`` or
        ``None`` when the seed is ``2**64`` or more, or an object or
        index falls outside uint32 — the caller must then use the
        scalar path.
        """
        seed = int(seed)
        counts = np.array([count for _, _, _, count in requests], dtype=np.int64)
        total = int(counts.sum())
        starts = np.array([start for _, _, start, _ in requests], dtype=np.int64)
        obj_col = np.array([obj for obj, _, _, _ in requests], dtype=np.int64)
        if (
            not 0 <= seed < _U64_BOUND
            or int(obj_col.min()) < 0
            or int(obj_col.max()) >= _U32_BOUND
            or int(starts.min()) < 0
            or int((starts + counts).max()) > _U32_BOUND
        ):
            return None

        offsets = np.cumsum(counts) - counts
        index_lane = np.arange(total, dtype=np.int64)
        index_lane += np.repeat(starts - offsets, counts)
        seed_words = [seed] if seed < _U32_BOUND else [seed & 0xFFFFFFFF, seed >> 32]
        col = len(seed_words)
        entropy = np.empty((total, col + (4 if attempt_column else 3)), dtype=np.uint64)
        entropy[:, :col] = np.array(seed_words, dtype=np.uint64)
        entropy[:, col] = np.repeat(obj_col, counts).astype(np.uint64)
        entropy[:, col + 1] = np.repeat(
            np.array([meta.attr_key for meta in metas], dtype=np.uint64), counts
        )
        entropy[:, col + 2] = index_lane.astype(np.uint64)
        if attempt_column:
            entropy[:, col + 3] = 0
        tape = CoordinateStreams(entropy)

        # Draw 1: worker index (consumes nothing when the pool has one
        # worker, exactly like the scalar Generator.integers(0, 1)).
        n_workers = len(self._workers)
        if n_workers > 1:
            widx, ok = lemire_integers(tape.next64(), n_workers)
        else:
            widx = np.zeros(total, dtype=np.int64)
            ok = np.ones(total, dtype=bool)
        return counts, index_lane, tape, widx, ok

    def answers_many(
        self, requests: Sequence[tuple[int, str, int, int]]
    ) -> list[np.ndarray]:
        """Batched :meth:`answers` over many ``(obj, attr, start, count)``.

        Returns one float64 array per request, in request order, each
        byte-identical to the scalar ``answers`` for the same span.
        """
        if not requests:
            return []
        metas = [self._meta(obj, attr) for obj, attr, _, _ in requests]
        if not sum(count for _, _, _, count in requests):
            empty = np.empty(0, dtype=np.float64)
            return [empty[:0] for _ in requests]
        lanes = self.batch_lanes(requests, metas, self.seed)
        if lanes is None:
            return [
                self.answers(obj, attr, start, count)
                for obj, attr, start, count in requests
            ]
        counts, index_lane, tape, widx, accepted = lanes

        # Draw 2: the noise variate.  Honest lanes read it as a
        # ziggurat normal, spam lanes as a unit uniform — both consume
        # exactly one raw draw on the accept path.
        values, math_ok = self._worker_math(metas, counts, widx, tape.next64())
        accepted &= math_ok

        rejected = ~accepted
        if rejected.any():
            request_lane = np.repeat(
                np.arange(len(requests), dtype=np.int64), counts
            )
            for lane in np.flatnonzero(rejected):
                obj, attr, _, _ = requests[request_lane[lane]]
                values[lane] = self.answer(obj, attr, int(index_lane[lane]))

        ends = np.cumsum(counts).tolist()
        return [values[end - count : end] for end, count in zip(ends, counts.tolist())]
