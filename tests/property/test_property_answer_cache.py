"""Property: the column-oriented answer cache against a dict-of-lists model.

Random sequences of :meth:`~repro.serve.cache.AnswerCache.add` — with
and without worker ids, empty ones, and keys spread over object ids and
tape lengths that make the rows and the width of a column grow several
times — run against a model that keeps one list of ``(answer, worker)``
pairs per key, an answer added without worker ids paired with
``UNATTRIBUTED``.  After every add the cache must agree with the model
on the start index the add returned, on ``count``, ``answers`` and
``workers`` of every key (and of keys it never saw, negative ids
among them), and on ``total_answers`` and ``len``.  Every view handed
out along the way must still read what it read when it was taken, and
must stay read-only.  Column reads
(:meth:`~repro.serve.cache.CacheReadSource.fetch_column`) must return
each row's served count and the C-contiguous blocks of the rows that
hold all ``n`` answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agg.base import UNATTRIBUTED
from repro.errors import ConfigurationError
from repro.serve.cache import AnswerCache, CacheReadSource

#: Object ids on both sides of the row-doubling boundaries, and far out.
OBJECTS = (0, 1, 2, 3, 4, 7, 8, 9, 16, 17, 33, 100)
ATTRIBUTES = ("a", "b", "c")
#: Ids with no row in any column.
ABSENT = (-1, -7, 101, 500, 2**40)


@st.composite
def additions(draw) -> list[tuple[int, str, list[float], list[int] | None]]:
    """Up to 40 adds of 0–5 answers; a third of them without worker ids."""
    adds = []
    for _ in range(draw(st.integers(1, 40), label="adds")):
        object_id = draw(st.sampled_from(OBJECTS))
        attribute = draw(st.sampled_from(ATTRIBUTES))
        length = draw(st.integers(0, 5))
        answers = draw(
            st.lists(
                st.floats(-1e3, 1e3, allow_nan=False),
                min_size=length,
                max_size=length,
            )
        )
        workers = None
        if draw(st.integers(0, 2)):
            workers = draw(
                st.lists(st.integers(0, 50), min_size=length, max_size=length)
            )
        adds.append((object_id, attribute, answers, workers))
    return adds


def assert_key(cache: AnswerCache, model, object_id: int, attribute: str) -> None:
    tape = model.get((object_id, attribute), [])
    assert cache.count(object_id, attribute) == len(tape)
    for n in {0, 1, len(tape) - 1, len(tape), len(tape) + 3}:
        if n < 0:
            continue
        prefix = tape[:n]
        answers = cache.answers(object_id, attribute, n)
        workers = cache.workers(object_id, attribute, n)
        assert answers.dtype == np.float64 and workers.dtype == np.int64
        assert answers.tolist() == [answer for answer, _ in prefix]
        assert workers.tolist() == [worker for _, worker in prefix]
        assert not answers.flags.writeable and not workers.flags.writeable


@settings(max_examples=200, deadline=None)
@given(adds=additions())
def test_cache_matches_the_dict_of_lists_model(adds):
    cache = AnswerCache()
    model: dict[tuple[int, str], list[tuple[float, int]]] = {}
    views: list[tuple[np.ndarray, list]] = []
    for object_id, attribute, answers, workers in adds:
        tape = model.setdefault((object_id, attribute), [])
        start = cache.add(object_id, attribute, answers, workers)
        assert start == len(tape)
        ids = workers if workers is not None else [UNATTRIBUTED] * len(answers)
        tape.extend(zip(answers, ids))
        for key in model:
            assert_key(cache, model, *key)
        for absent in ABSENT:
            assert_key(cache, model, absent, attribute)
        assert cache.total_answers == sum(len(tape) for tape in model.values())
        assert len(cache) == sum(1 for tape in model.values() if tape)
        # Views taken now must survive every later add and growth.
        count = len(model[(object_id, attribute)])
        views.append(
            (cache.answers(object_id, attribute, count), [a for a, _ in tape])
        )
        views.append(
            (cache.workers(object_id, attribute, count), [w for _, w in tape])
        )
    for view, expected in views:
        assert view.tolist() == expected
        assert not view.flags.writeable
        if len(view):
            with pytest.raises(ValueError):
                view[0] = 0


@settings(max_examples=200, deadline=None)
@given(
    adds=additions(),
    rows=st.lists(st.sampled_from(OBJECTS + ABSENT), max_size=12),
    n=st.integers(0, 7),
    attributed=st.booleans(),
)
def test_column_read_matches_the_per_key_reads(adds, rows, n, attributed):
    cache = AnswerCache()
    for add in adds:
        cache.add(*add)
    source = CacheReadSource(cache)
    for attribute in ATTRIBUTES + ("unseen",):
        served, answers, workers = source.fetch_column(rows, attribute, n, attributed)
        counts = [cache.count(object_id, attribute) for object_id in rows]
        assert served.tolist() == [min(n, count) for count in counts]
        full = [oid for oid, count in zip(rows, counts) if n and count >= n]
        assert len(answers) == len(full)
        if full:
            assert answers.shape == (len(full), n) and answers.flags.c_contiguous
        assert answers.tolist() == [
            cache.answers(oid, attribute, n).tolist() for oid in full
        ]
        if not attributed:
            assert workers is None
            continue
        assert len(workers) == len(full)
        assert workers.tolist() == [
            cache.workers(oid, attribute, n).tolist() for oid in full
        ]


def test_negative_and_misaligned_adds_refused():
    cache = AnswerCache()
    cache.add(3, "a", [1.0])
    with pytest.raises(ConfigurationError, match="negative"):
        cache.add(-1, "a", [2.0])
    with pytest.raises(ConfigurationError, match="worker ids"):
        cache.add(3, "a", [2.0, 3.0], [7])
    assert cache.answers(3, "a", 5).tolist() == [1.0]
    assert cache.workers(3, "a", 5).tolist() == [UNATTRIBUTED]
    assert cache.count(2, "a") == cache.count(-1, "a") == 0
    assert (cache.total_answers, len(cache)) == (1, 1)
