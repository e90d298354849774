"""Property-based tests: journal round-trips for arbitrary record lists.

The journal's contract is that :func:`read_journal` returns exactly the
records appended — without the journal's own ``seq`` and ``crc``
fields — whatever they hold, and that a corrupted final record (a torn
write) is discarded without affecting the committed prefix.  The writer
encodes each record once, around its ``crc`` member; every line it
writes must be the canonical encoding the reader checksums.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.journal import Journal, _canonical, _crc, read_journal

#: JSON-safe record values, nested like the serve log's records
#: (purchases carry answer lists, commits a ledger mapping).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

records = st.lists(
    st.dictionaries(
        st.text(max_size=8).filter(lambda key: key not in ("seq", "crc")),
        json_values,
        max_size=5,
    ),
    max_size=30,
)


def _keys(prefixes: tuple[str, ...], side) -> st.SearchStrategy[str]:
    """Keys on one side of ``"crc"``; prefixes make both sides likely."""
    return (
        st.tuples(st.sampled_from(prefixes), st.text(max_size=5))
        .map("".join)
        .filter(lambda key: side(key) and key != "seq")
    )


#: Keys sorting before ``"crc"`` and after it (``"crcx"`` among them).
keys_before = _keys(("", "a", "cr", "crb"), lambda key: key < "crc")
keys_after = _keys(
    ("crc", "crd", "d", "seqq", "\u00e9", "\U0001f600"), lambda key: key > "crc"
)

#: Records whose keys all sort before ``"crc"``, all after it, or both.
sided_records = st.lists(
    st.one_of(
        st.dictionaries(keys_before, json_values, min_size=1, max_size=4),
        st.dictionaries(keys_after, json_values, min_size=1, max_size=4),
        st.tuples(
            st.dictionaries(keys_before, json_values, min_size=1, max_size=3),
            st.dictionaries(keys_after, json_values, min_size=1, max_size=3),
        ).map(lambda halves: {**halves[0], **halves[1]}),
    ),
    min_size=1,
    max_size=10,
)

#: Torn-tail bytes: anything without a newline (a newline would split
#: the garbage into several lines, which the scanner rightly treats as
#: mid-file corruption rather than one torn final record).  The leading
#: ``{`` guarantees the tail is non-whitespace yet never valid JSON
#: with a matching checksum.
torn_tail = st.binary(min_size=0, max_size=60).map(
    lambda b: b"{" + b.replace(b"\n", b"x")
)


def write_records(path, appended):
    with Journal(path) as journal:
        for record in appended:
            journal.append(record)


def bodies(read):
    """Records without the journal's own ``seq`` and ``crc`` fields."""
    return [
        {key: value for key, value in record.items() if key not in ("seq", "crc")}
        for record in read
    ]


class TestJournalRoundTrip:
    @given(records, torn_tail)
    @settings(max_examples=80, deadline=None)
    def test_corrupted_final_record_is_discarded(
        self, tmp_path_factory, appended, garbage
    ):
        path = tmp_path_factory.mktemp("journal") / "journal.jsonl"
        write_records(path, appended)
        assert bodies(read_journal(path)) == appended
        path.write_bytes(path.read_bytes() + garbage)
        # Reading ignores the torn tail: the committed prefix is intact.
        assert bodies(read_journal(path)) == appended
        # Reopening truncates the tail and keeps the sequence intact.
        with Journal(path) as reopened:
            assert reopened.truncated_bytes == len(garbage)
            assert reopened.record_count == len(appended)
            assert bodies(reopened.recovered) == appended

    @given(records)
    @settings(max_examples=40, deadline=None)
    def test_truncating_final_record_loses_exactly_one_operation(
        self, tmp_path_factory, appended
    ):
        path = tmp_path_factory.mktemp("journal") / "journal.jsonl"
        write_records(path, appended)
        if not appended:
            return
        # Chop mid-way through the last record: a classic torn write.
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 3])
        survivors = read_journal(path)
        assert [r["seq"] for r in survivors] == list(range(len(appended) - 1))
        assert bodies(survivors) == appended[:-1]

    @given(sided_records)
    @settings(max_examples=80, deadline=None)
    def test_written_line_is_the_canonical_record(self, tmp_path_factory, appended):
        path = tmp_path_factory.mktemp("journal") / "journal.jsonl"
        write_records(path, appended)
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b""
        assert len(lines) == len(appended) + 1
        for seq, (record, line) in enumerate(zip(appended, lines)):
            body = {**record, "seq": seq}
            assert line == _canonical({**body, "crc": _crc(body)})
        assert bodies(read_journal(path)) == appended
