"""Unit tests for the write-ahead answer journal."""

import json

import pytest

from repro.crowd.pricing import CostLedger
from repro.crowd.recording import AnswerRecorder
from repro.durability.journal import (
    Journal,
    read_journal,
    replay_journal,
)
from repro.errors import ConfigurationError, JournalCorruptionError


def _journal_some_answers(journal: Journal) -> None:
    journal.record_answer("value", (3, "fat"), 0, 1.25)
    journal.record_answer("value", (3, "fat"), 1, 1.5)
    journal.record_answer("dismantle", "fat", 0, "saturated fat")
    journal.record_answer("verification", ("fat", "saturated fat"), 0, True)
    journal.record_answer(
        "example", ("protein",), 0, (7, {"protein": 2.0, "fat": 1.0})
    )
    journal.record_ledger("charge", "value", 0.4, 1)
    journal.record_ledger("retry", "value", count=2)
    journal.record_ledger("abandon", "example")


class TestJournalWrites:
    def test_records_are_sequenced_and_checksummed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _journal_some_answers(journal)
        records = read_journal(path)
        assert [r["seq"] for r in records] == list(range(8))
        assert all("crc" in r for r in records)

    def test_each_record_is_flushed_immediately(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.record_answer("value", (1, "a"), 0, 0.5)
        # Readable by another handle before close: per-record durability.
        assert len(read_journal(path)) == 1
        journal.close()

    def test_unknown_kind_rejected(self, tmp_path):
        with Journal(tmp_path / "j.jsonl") as journal:
            with pytest.raises(ConfigurationError):
                journal.record_answer("bribe", (1, "a"), 0, 0.5)
            with pytest.raises(ConfigurationError):
                journal.record_ledger("refund", "value")

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.record_answer("value", (1, "a"), 0, 0.5)
        with Journal(path) as journal:
            assert journal.record_count == 1
            journal.record_answer("value", (1, "a"), 1, 0.75)
        assert [r["seq"] for r in read_journal(path)] == [0, 1]


class TestTornTail:
    def test_torn_final_record_truncated_on_open(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _journal_some_answers(journal)
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"seq": 8, "kind": "value", "obj')
        with Journal(path) as journal:
            assert journal.truncated_bytes > 0
            assert journal.record_count == 8
        assert path.read_bytes() == intact

    def test_bad_checksum_at_tail_truncated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _journal_some_answers(journal)
        lines = path.read_text().splitlines()
        tampered = json.loads(lines[-1])
        tampered["answer"] = 999
        lines[-1] = json.dumps(tampered)
        path.write_text("\n".join(lines) + "\n")
        with Journal(path) as journal:
            assert journal.record_count == 7
            assert journal.truncated_bytes > 0

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _journal_some_answers(journal)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-10]  # damage a record with records after it
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalCorruptionError):
            Journal(path)

    def test_record_cut_before_its_newline_is_terminated(self, tmp_path):
        # A crash can land between a complete record and its newline:
        # the record is kept, and the next append must start a new line
        # instead of gluing itself onto it.
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _journal_some_answers(journal)
        path.write_bytes(path.read_bytes()[:-1])
        with Journal(path) as journal:
            assert journal.record_count == 8
            journal.record_answer("value", (3, "fat"), 2, 1.75)
        assert [r["seq"] for r in read_journal(path)] == list(range(9))


class TestCommitWatermark:
    def test_truncate_drops_records_past_the_watermark(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _journal_some_answers(journal)
        kept = read_journal(path)[:5]
        with Journal(path) as journal:
            journal.truncate(5)
            assert journal.record_count == 5
            journal.record_ledger("charge", "value", 0.4, 1)
        records = read_journal(path)
        assert records[:5] == kept
        assert [r["seq"] for r in records] == list(range(6))

    def test_truncate_to_everything_is_a_no_op(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _journal_some_answers(journal)
        intact = path.read_bytes()
        with Journal(path) as journal:
            journal.truncate(8)
        assert path.read_bytes() == intact

    def test_truncate_past_the_end_rejected(self, tmp_path):
        with Journal(tmp_path / "j.jsonl") as journal:
            journal.record_ledger("charge", "value", 0.4, 1)
            with pytest.raises(ConfigurationError):
                journal.truncate(2)
            with pytest.raises(ConfigurationError):
                journal.truncate(-1)

    def test_sync_keeps_appending(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.record_ledger("charge", "value", 0.4, 1)
            journal.sync()
            assert len(read_journal(path)) == 1
            journal.record_ledger("charge", "value", 0.4, 1)
        assert [r["seq"] for r in read_journal(path)] == [0, 1]


class TestReplay:
    def test_round_trip_reconstructs_recorder_and_ledger(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        recorder = AnswerRecorder()
        ledger = CostLedger()
        with Journal(path) as journal:
            recorder.journal = journal
            ledger.journal = journal
            answers = iter([1.25, 1.5])
            recorder.value_answers(3, "fat", 0, 2, lambda: next(answers))
            recorder.dismantle_answers("fat", 0, 1, lambda: "saturated fat")
            ledger.record("value", 0.8, 2)
            ledger.record_retry("value", 2)
            ledger.record_abandon("example")
        replay = replay_journal(path)
        assert replay.recorder.to_dict() == recorder.to_dict()
        assert replay.ledger.snapshot() == ledger.snapshot()
        assert replay.resumes == 0

    def test_replay_is_idempotent_by_index(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.record_answer("value", (1, "a"), 0, 0.5)
            # The same (key, index, answer) again: applied once.
            journal.record_answer("value", (1, "a"), 0, 0.5)
            journal.record_answer("value", (1, "a"), 1, 0.75)
        replay = replay_journal(path)
        assert replay.recorder.to_dict()["values"] == [
            {"object": 1, "attribute": "a", "answers": [0.5, 0.75]}
        ]

    def test_contradictory_rewrite_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.record_answer("value", (1, "a"), 0, 0.5)
            journal.record_answer("value", (1, "a"), 0, 0.9)
        with pytest.raises(JournalCorruptionError):
            replay_journal(path)

    def test_index_gap_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.record_answer("value", (1, "a"), 2, 0.5)
        with pytest.raises(JournalCorruptionError):
            replay_journal(path)

    def test_resume_marker_rewinds_to_checkpoint_state(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        checkpointed = AnswerRecorder()
        checkpointed_ledger = CostLedger()
        with Journal(path) as journal:
            journal.record_answer("value", (1, "a"), 0, 0.5)
            journal.record_ledger("charge", "value", 0.4, 1)
            checkpointed._values[(1, "a")] = [0.5]
            checkpointed_ledger.record("value", 0.4, 1)
            # Post-checkpoint records lost to the crash's re-execution:
            journal.record_answer("value", (1, "a"), 1, 0.75)
            journal.record_ledger("charge", "value", 0.4, 1)
            journal.mark_resume("examples", checkpointed, checkpointed_ledger)
            # The resumed run deterministically re-buys index 1:
            journal.record_answer("value", (1, "a"), 1, 0.75)
            journal.record_ledger("charge", "value", 0.4, 1)
        replay = replay_journal(path)
        assert replay.resumes == 1
        assert replay.recorder._values[(1, "a")] == [0.5, 0.75]
        assert replay.ledger.questions_by_category["value"] == 2
