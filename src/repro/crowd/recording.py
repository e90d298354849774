"""Answer recording and replay.

The paper stresses that crowd answers collected in early experiments
were *recorded in a database and reused in following experiments, so
that results of multiple runs/algorithms may be compared in equivalent
settings*.  :class:`AnswerRecorder` is that database: it stores, per
question key, the full sequence of answers ever generated, and hands
out stable prefixes.

Sharing one recorder across several :class:`~repro.crowd.platform.
CrowdPlatform` instances guarantees that two algorithms asking the same
questions receive byte-identical answers, which removes crowd variance
from algorithm comparisons exactly as in the paper.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator, TypeVar

T = TypeVar("T")

#: Worker id recorded for answers with no provenance (kept equal to
#: :data:`repro.agg.base.UNATTRIBUTED`; duplicated here so the crowd
#: layer needs no import of the aggregation package).
UNATTRIBUTED = -1

#: A recorded example: (object id, {target attribute: true value}).
ExampleRecord = tuple[int, dict[str, float]]


class AnswerRecorder:
    """Append-only store of crowd answers keyed by question identity."""

    def __init__(self) -> None:
        self._values: dict[tuple[int, str], list[float]] = {}
        self._dismantles: dict[str, list[str]] = {}
        self._votes: dict[tuple[str, str], list[bool]] = {}
        self._examples: dict[tuple[str, ...], list[ExampleRecord]] = {}
        #: Per-key worker ids aligned with ``_values`` from index 0.  A
        #: tape may be *shorter* than its answer tape — missing suffix
        #: positions mean :data:`UNATTRIBUTED` (see
        #: :meth:`value_worker_ids`), so pre-attribution answers need no
        #: retroactive padding.
        self._value_workers: dict[tuple[int, str], list[int]] = {}

    # ------------------------------------------------------------------
    # Generic prefix access
    # ------------------------------------------------------------------

    def _extend_to(
        self,
        store: dict[Hashable, list[T]],
        key: Hashable,
        length: int,
        generate: Callable[[], T],
    ) -> list[T]:
        sequence = store.setdefault(key, [])
        while len(sequence) < length:
            sequence.append(generate())
        return sequence

    # ------------------------------------------------------------------
    # Per-question-type access (used by the platform)
    # ------------------------------------------------------------------

    def value_answers(
        self,
        object_id: int,
        attribute: str,
        start: int,
        count: int,
        generate: Callable[[], float],
    ) -> list[float]:
        """Answers ``start .. start+count`` for one (object, attribute)."""
        sequence = self._extend_to(
            self._values, (object_id, attribute), start + count, generate
        )
        return sequence[start : start + count]

    def value_answers_attributed(
        self,
        object_id: int,
        attribute: str,
        start: int,
        count: int,
        generate: Callable[[], tuple[float, int]],
    ) -> tuple[list[float], list[int]]:
        """Like :meth:`value_answers`, with per-answer worker provenance.

        ``generate`` returns ``(answer, worker_id)`` pairs; the worker
        id is kept on a parallel tape so reliability inference can pool
        residuals per worker.  Replayed prefixes return whatever
        provenance was recorded when they were first generated
        (:data:`UNATTRIBUTED` for answers that predate attribution).
        """
        key = (object_id, attribute)
        sequence = self._values.setdefault(key, [])
        workers = self._value_workers.setdefault(key, [])
        while len(sequence) < start + count:
            answer, worker = generate()
            # Pad the provenance tape up to this index first, so the
            # fresh id lands aligned even after unattributed history.
            while len(workers) < len(sequence):
                workers.append(UNATTRIBUTED)
            sequence.append(answer)
            workers.append(int(worker))
        return (
            sequence[start : start + count],
            self.value_worker_ids(object_id, attribute, start, count),
        )

    def value_worker_ids(
        self, object_id: int, attribute: str, start: int, count: int
    ) -> list[int]:
        """Worker ids for one key's answers, :data:`UNATTRIBUTED`-padded."""
        tape = self._value_workers.get((object_id, attribute), [])
        return [
            tape[i] if i < len(tape) else UNATTRIBUTED
            for i in range(start, start + count)
        ]

    def attributed_value_tapes(
        self,
    ) -> Iterator[tuple[tuple[int, str], list[float], list[int]]]:
        """Every value tape with aligned worker ids, in sorted key order.

        The canonical iteration order (not dict insertion order) is what
        keeps reliability fits deterministic across runs that recorded
        the same answers in different sequences.
        """
        for key in sorted(self._values):
            values = self._values[key]
            yield key, values, self.value_worker_ids(key[0], key[1], 0, len(values))

    def dismantle_answers(
        self, attribute: str, start: int, count: int, generate: Callable[[], str]
    ) -> list[str]:
        """Dismantling answers ``start .. start+count`` for one attribute."""
        sequence = self._extend_to(
            self._dismantles, attribute, start + count, generate
        )
        return sequence[start : start + count]

    def verification_votes(
        self,
        attribute: str,
        candidate: str,
        start: int,
        count: int,
        generate: Callable[[], bool],
    ) -> list[bool]:
        """Verification votes ``start .. start+count`` for one pair."""
        sequence = self._extend_to(
            self._votes, (attribute, candidate), start + count, generate
        )
        return sequence[start : start + count]

    def examples(
        self,
        targets: tuple[str, ...],
        start: int,
        count: int,
        generate: Callable[[], ExampleRecord],
    ) -> list[ExampleRecord]:
        """Example records ``start .. start+count`` for one target tuple."""
        sequence = self._extend_to(
            self._examples, targets, start + count, generate
        )
        return sequence[start : start + count]

    # ------------------------------------------------------------------
    # Introspection and persistence
    # ------------------------------------------------------------------

    def recorded_value_count(self, object_id: int, attribute: str) -> int:
        """How many value answers exist for one (object, attribute)."""
        return len(self._values.get((object_id, attribute), []))

    def recorded_dismantle_count(self, attribute: str) -> int:
        """How many dismantling answers exist for one attribute."""
        return len(self._dismantles.get(attribute, []))

    def recorded_counts(self) -> dict[str, int]:
        """Total recorded answers per question category.

        Under fault injection only *valid* answers reach the recorder,
        so comparing these counts with the ledger's question counts
        (paid) and retry counts (unpaid) audits the resilience layer.
        """
        return {
            "value": sum(len(v) for v in self._values.values()),
            "dismantle": sum(len(v) for v in self._dismantles.values()),
            "verification": sum(len(v) for v in self._votes.values()),
            "example": sum(len(v) for v in self._examples.values()),
        }

    def tape_lengths(self) -> dict[str, list]:
        """JSON-serialisable per-key tape lengths, one list per kind.

        Entry shapes: ``value`` → ``[object, attribute, length]``,
        ``dismantle`` → ``[attribute, length]``, ``verification`` →
        ``[attribute, candidate, length]``, ``example`` →
        ``[[targets...], length]``.  A compact census of what the
        recorder holds, e.g. which objects have value answers.
        """
        return {
            "value": [
                [oid, attr, len(answers)]
                for (oid, attr), answers in self._values.items()
            ],
            "dismantle": [
                [attr, len(answers)] for attr, answers in self._dismantles.items()
            ],
            "verification": [
                [attr, cand, len(votes)]
                for (attr, cand), votes in self._votes.items()
            ],
            "example": [
                [list(targets), len(records)]
                for targets, records in self._examples.items()
            ],
        }

    def snapshot(self) -> dict:
        """JSON-serialisable copy of the full recorder state."""
        return self.to_dict()

    def restore(self, payload: dict) -> None:
        """Replace all tapes with a :meth:`snapshot` payload (in place).

        How a checkpoint restore re-installs the answers bought before
        it; nothing is generated, so no answer is bought twice.
        """
        other = AnswerRecorder.from_dict(payload)
        self._values = other._values
        self._value_workers = other._value_workers
        self._dismantles = other._dismantles
        self._votes = other._votes
        self._examples = other._examples

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot of every recorded answer."""
        def _value_entry(oid: int, attr: str, answers: list[float]) -> dict:
            entry = {"object": oid, "attribute": attr, "answers": answers}
            workers = self._value_workers.get((oid, attr))
            if workers:
                # Optional key: snapshots of unattributed runs stay
                # byte-identical to the pre-attribution format.
                entry["workers"] = self.value_worker_ids(oid, attr, 0, len(answers))
            return entry

        return {
            "values": [
                _value_entry(oid, attr, answers)
                for (oid, attr), answers in self._values.items()
            ],
            "dismantles": [
                {"attribute": attr, "answers": answers}
                for attr, answers in self._dismantles.items()
            ],
            "votes": [
                {"attribute": attr, "candidate": cand, "votes": votes}
                for (attr, cand), votes in self._votes.items()
            ],
            "examples": [
                {
                    "targets": list(targets),
                    "records": [
                        {"object": oid, "values": values} for oid, values in records
                    ],
                }
                for targets, records in self._examples.items()
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AnswerRecorder":
        """Rebuild a recorder from :meth:`to_dict` output."""
        recorder = cls()
        for entry in payload.get("values", []):
            key = (int(entry["object"]), str(entry["attribute"]))
            recorder._values[key] = [float(a) for a in entry["answers"]]
            if entry.get("workers"):
                recorder._value_workers[key] = [int(w) for w in entry["workers"]]
        for entry in payload.get("dismantles", []):
            recorder._dismantles[str(entry["attribute"])] = [
                str(a) for a in entry["answers"]
            ]
        for entry in payload.get("votes", []):
            key = (str(entry["attribute"]), str(entry["candidate"]))
            recorder._votes[key] = [bool(v) for v in entry["votes"]]
        for entry in payload.get("examples", []):
            targets = tuple(str(t) for t in entry["targets"])
            recorder._examples[targets] = [
                (int(record["object"]), {k: float(v) for k, v in record["values"].items()})
                for record in entry["records"]
            ]
        return recorder
