"""Unit tests for the append-only, checksummed journal (the serve log's format)."""

import json

import pytest

from repro.durability.journal import Journal, read_journal
from repro.errors import ConfigurationError, JournalCorruptionError

RECORDS = [
    {"kind": "header", "version": 2, "budget": 400.0},
    {"kind": "purchase", "object": 3, "attribute": "fat", "answers": [1.25, 1.5]},
    {"kind": "result", "result": {"query": "q1", "estimates": [0.5]}},
    {"kind": "commit", "ledger": {"value": 0.8}},
    {"kind": "purchase", "object": 7, "attribute": "protein", "answers": [2.0]},
    {"kind": "result", "result": {"query": "q2", "estimates": []}},
    {"kind": "commit", "ledger": {"value": 1.2}},
    {"kind": "note", "text": "ünïcode and \"quotes\""},
]


def _append_all(journal: Journal, records=RECORDS) -> None:
    for record in records:
        journal.append(record)


def _bodies(records: list[dict]) -> list[dict]:
    """Records without the journal's own ``seq`` and ``crc`` fields."""
    return [
        {key: value for key, value in record.items() if key not in ("seq", "crc")}
        for record in records
    ]


class TestJournalWrites:
    def test_records_are_sequenced_and_checksummed(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _append_all(journal)
        records = read_journal(path)
        assert [r["seq"] for r in records] == list(range(len(RECORDS)))
        assert all("crc" in r for r in records)
        assert _bodies(records) == RECORDS

    def test_each_record_is_flushed_immediately(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.append(RECORDS[0])
        # Readable by another handle before close: per-record durability.
        assert len(read_journal(path)) == 1
        journal.close()

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append(RECORDS[0])
        with Journal(path) as journal:
            assert journal.record_count == 1
            assert _bodies(journal.recovered) == RECORDS[:1]
            journal.append(RECORDS[1])
        assert [r["seq"] for r in read_journal(path)] == [0, 1]


class TestTornTail:
    def test_torn_final_record_truncated_on_open(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _append_all(journal)
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"seq": 8, "kind": "purchase", "obj')
        with Journal(path) as journal:
            assert journal.truncated_bytes > 0
            assert journal.record_count == len(RECORDS)
        assert path.read_bytes() == intact

    def test_bad_checksum_at_tail_truncated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _append_all(journal)
        lines = path.read_text().splitlines()
        tampered = json.loads(lines[-1])
        tampered["text"] = "rewritten"
        lines[-1] = json.dumps(tampered)
        path.write_text("\n".join(lines) + "\n")
        with Journal(path) as journal:
            assert journal.record_count == len(RECORDS) - 1
            assert journal.truncated_bytes > 0

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _append_all(journal)
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
            _append_all(journal)
        path.write_bytes(path.read_bytes()[:-1])
        with Journal(path) as journal:
            assert journal.record_count == len(RECORDS)
            journal.append(RECORDS[0])
        records = read_journal(path)
        assert [r["seq"] for r in records] == list(range(len(RECORDS) + 1))
        assert _bodies(records) == RECORDS + RECORDS[:1]


class TestCommitWatermark:
    def test_truncate_drops_records_past_the_watermark(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _append_all(journal)
        kept = read_journal(path)[:5]
        with Journal(path) as journal:
            journal.truncate(5)
            assert journal.record_count == 5
            journal.append(RECORDS[3])
        records = read_journal(path)
        assert records[:5] == kept
        assert [r["seq"] for r in records] == list(range(6))

    def test_truncate_to_everything_is_a_no_op(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            _append_all(journal)
        intact = path.read_bytes()
        with Journal(path) as journal:
            journal.truncate(len(RECORDS))
        assert path.read_bytes() == intact

    def test_truncate_past_the_end_rejected(self, tmp_path):
        with Journal(tmp_path / "j.jsonl") as journal:
            journal.append(RECORDS[0])
            with pytest.raises(ConfigurationError):
                journal.truncate(2)
            with pytest.raises(ConfigurationError):
                journal.truncate(-1)

    def test_sync_keeps_appending(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append(RECORDS[3])
            journal.sync()
            assert len(read_journal(path)) == 1
            journal.append(RECORDS[3])
        assert [r["seq"] for r in read_journal(path)] == [0, 1]
