"""Unit tests for the answer recorder (replay store)."""

import itertools

from repro.crowd.recording import AnswerRecorder


def counter():
    numbers = itertools.count()
    return lambda: float(next(numbers))


def value_lengths(recorder: AnswerRecorder) -> dict[tuple[int, str], int]:
    """Value-tape length per (object, attribute), from ``tape_lengths``."""
    return {
        (object_id, attribute): length
        for object_id, attribute, length in recorder.tape_lengths()["value"]
    }


class TestValueAnswers:
    def test_generates_on_demand(self):
        recorder = AnswerRecorder()
        answers = recorder.value_answers(0, "a", 0, 3, counter())
        assert answers == [0.0, 1.0, 2.0]

    def test_prefix_is_stable(self):
        recorder = AnswerRecorder()
        first = recorder.value_answers(0, "a", 0, 3, counter())
        replay = recorder.value_answers(0, "a", 0, 3, lambda: 99.0)
        assert replay == first

    def test_extension_appends_not_regenerates(self):
        recorder = AnswerRecorder()
        recorder.value_answers(0, "a", 0, 2, counter())
        extended = recorder.value_answers(0, "a", 0, 4, counter())
        assert extended == [0.0, 1.0, 0.0, 1.0]  # fresh counter for the tail

    def test_offset_reads_inside_sequence(self):
        recorder = AnswerRecorder()
        recorder.value_answers(0, "a", 0, 5, counter())
        middle = recorder.value_answers(0, "a", 1, 2, lambda: -1.0)
        assert middle == [1.0, 2.0]

    def test_keys_are_independent(self):
        recorder = AnswerRecorder()
        recorder.value_answers(0, "a", 0, 2, counter())
        other = recorder.value_answers(1, "a", 0, 2, counter())
        assert other == [0.0, 1.0]
        lengths = value_lengths(recorder)
        assert lengths[(0, "a")] == 2
        assert lengths[(1, "a")] == 2
        assert lengths.get((2, "a"), 0) == 0


class TestOtherQuestionTypes:
    def test_dismantle_answers_replay(self):
        recorder = AnswerRecorder()
        names = iter(["x", "y", "z"])
        first = recorder.dismantle_answers("a", 0, 2, lambda: next(names))
        replay = recorder.dismantle_answers("a", 0, 2, lambda: "nope")
        assert first == replay == ["x", "y"]
        assert dict(recorder.tape_lengths()["dismantle"])["a"] == 2

    def test_votes_replay(self):
        recorder = AnswerRecorder()
        votes = iter([True, False, True])
        first = recorder.verification_votes("a", "b", 0, 3, lambda: next(votes))
        replay = recorder.verification_votes("a", "b", 0, 3, lambda: False)
        assert first == replay == [True, False, True]

    def test_examples_replay(self):
        recorder = AnswerRecorder()
        records = iter([(1, {"t": 2.0}), (2, {"t": 3.0})])
        first = recorder.examples(("t",), 0, 2, lambda: next(records))
        replay = recorder.examples(("t",), 0, 2, lambda: (9, {"t": 9.9}))
        assert first == replay


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        recorder = AnswerRecorder()
        recorder.value_answers(0, "a", 0, 3, counter())
        recorder.dismantle_answers("a", 0, 2, iter(["x", "y"]).__next__)
        recorder.verification_votes("a", "x", 0, 2, iter([True, False]).__next__)
        recorder.examples(("t",), 0, 1, lambda: (5, {"t": 1.5}))

        restored = AnswerRecorder.from_dict(recorder.to_dict())
        assert restored.value_answers(0, "a", 0, 3, lambda: -1) == [0.0, 1.0, 2.0]
        assert restored.dismantle_answers("a", 0, 2, lambda: "no") == ["x", "y"]
        assert restored.verification_votes("a", "x", 0, 2, lambda: True) == [
            True,
            False,
        ]
        assert restored.examples(("t",), 0, 1, lambda: (0, {})) == [(5, {"t": 1.5})]

    def test_to_dict_is_json_serialisable(self):
        import json

        recorder = AnswerRecorder()
        recorder.value_answers(3, "attr", 0, 2, counter())
        json.dumps(recorder.to_dict())
