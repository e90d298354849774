"""Append-only, checksummed JSONL log (the serving engine's log).

The serving engine (:mod:`repro.serve.engine`) keeps its durable state
in one file of this format, ``serve.journal.jsonl``: a ``header``
record, then per wave its ``purchase`` and ``result`` records and a
``commit`` record.  It writes them through :meth:`Journal.append` and
folds them itself on resume, from the records :class:`Journal`
scanned on open (:attr:`Journal.recovered`).  The offline planner
keeps no log: its one durable artifact is the phase-boundary
checkpoint (:mod:`repro.durability.checkpoint`).

Record format — one JSON object per line::

    {"seq": 17, "kind": "commit", ..., "crc": 2903817172}

``seq`` numbers records consecutively from 0; ``crc`` is the CRC-32 of
the record's canonical JSON without the ``crc`` field.  On open, a
journal scans itself: a record that fails to parse or checksum at the
*end* of the file is a torn write from a crash — it is truncated and
the journal continues cleanly after it.  The same damage anywhere else
is real corruption and raises
:class:`~repro.errors.JournalCorruptionError`.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

from repro.errors import ConfigurationError, JournalCorruptionError


def _canonical(record: dict) -> bytes:
    """Canonical JSON encoding used for checksumming."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


#: :func:`_canonical`'s encoding, as one encoder built once.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _members(record: dict) -> str:
    """``_canonical(record)`` without its braces, as text."""
    return _ENCODER.encode(record)[1:-1]


def _crc(record: dict) -> int:
    """CRC-32 over the record without its ``crc`` field."""
    body = {key: value for key, value in record.items() if key != "crc"}
    return zlib.crc32(_canonical(body)) & 0xFFFFFFFF


def _scan(path: Path) -> tuple[list[dict], int, int]:
    """Parse a journal file.

    Returns ``(records, valid_bytes, total_bytes)``.  A record that
    fails to parse, checksum, or sequence-check is tolerated only as
    the *final* content of the file (a torn write); ``valid_bytes`` then
    stops before it.  The same failure earlier raises
    :class:`~repro.errors.JournalCorruptionError`.
    """
    data = path.read_bytes()
    records: list[dict] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        end = len(data) if newline < 0 else newline + 1
        line = data[offset:end].strip()
        if line:
            record = _parse_line(line, expected_seq=len(records))
            if record is None:
                # Damaged record: only acceptable as the torn tail.
                if data[end:].strip():
                    raise JournalCorruptionError(
                        f"corrupt journal record at byte {offset} of {path} "
                        f"(record {len(records)}) with valid records after it"
                    )
                return records, offset, len(data)
            records.append(record)
        offset = end
    return records, len(data), len(data)


def _offset_after(data: bytes, records: int) -> int:
    """Byte offset just past the first ``records`` records of ``data``."""
    offset = 0
    while records:
        end = data.index(b"\n", offset) + 1
        if data[offset:end].strip():
            records -= 1
        offset = end
    return offset


def _parse_line(line: bytes, expected_seq: int) -> dict | None:
    """Decode one journal line; ``None`` when damaged."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or "crc" not in record or "seq" not in record:
        return None
    if record["crc"] != _crc(record):
        return None
    if record["seq"] != expected_seq:
        return None
    return record


class Journal:
    """An append-only, checksummed record log.

    Opening an existing journal scans and repairs it (truncating a torn
    final record); appends are flushed per record so the file is
    durable up to the last appended record, and :meth:`sync` forces
    them to stable storage.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.truncated_bytes = 0
        self._seq = 0
        #: The committed records found on open (empty for a new file),
        #: for an owner that folds its own log on resume.
        self.recovered: list[dict] = []
        if self.path.exists():
            records, valid_bytes, total_bytes = _scan(self.path)
            with open(self.path, "r+b") as handle:
                if valid_bytes < total_bytes:
                    handle.truncate(valid_bytes)
                    self.truncated_bytes = total_bytes - valid_bytes
                if valid_bytes:
                    # A crash can cut the write just before a complete
                    # record's newline; terminate it so the next append
                    # starts a line of its own.
                    handle.seek(valid_bytes - 1)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
            self._seq = len(records)
            self.recovered = records
        self._handle = open(self.path, "a", encoding="utf-8")

    @property
    def record_count(self) -> int:
        """Number of committed records (written and scanned)."""
        return self._seq

    def append(self, record: dict) -> None:
        """Commit one record: assign ``seq``, checksum, write, flush.

        The record is encoded once, as the members whose keys sort
        before ``"crc"`` and the members whose keys sort after it
        (``seq`` among them, so that run is never empty).  The
        checksummed body joins the two runs, and the written line joins
        them around ``"crc":N``: ``_canonical`` of the record with its
        ``seq`` and ``crc``, byte for byte.
        """
        record = {**record, "seq": self._seq}
        head = _members({key: value for key, value in record.items() if key < "crc"})
        tail = _members({key: value for key, value in record.items() if key > "crc"})
        opening = "{" + head + "," if head else "{"
        crc = zlib.crc32((opening + tail + "}").encode("utf-8")) & 0xFFFFFFFF
        self._handle.write(f'{opening}"crc":{crc},{tail}}}\n')
        self._handle.flush()
        self._seq += 1

    def sync(self) -> None:
        """Force every appended record to stable storage (flush + fsync)."""
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def truncate(self, records: int) -> None:
        """Drop every record after the first ``records``.

        For an owner that commits records in batches (the serving
        engine's log): records a crash left past the last commit were
        written but never committed.
        """
        if not 0 <= records <= self._seq:
            raise ConfigurationError(
                f"cannot keep {records} of {self._seq} journal records"
            )
        if records == self._seq:
            return
        self._handle.flush()
        offset = _offset_after(self.path.read_bytes(), records)
        with open(self.path, "r+b") as handle:
            handle.truncate(offset)
        self._seq = records

    def close(self) -> None:
        """Flush and close the underlying file handle."""
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_journal(path: str | Path) -> list[dict]:
    """All committed records of a journal file (torn tail ignored)."""
    return _scan(Path(path))[0]
