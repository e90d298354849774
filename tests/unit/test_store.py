"""Unit tests for answer-store persistence."""

import json

import pytest

from repro.crowd.recording import AnswerRecorder
from repro.data.store import load_recorder, save_recorder


def test_round_trip(tmp_path):
    recorder = AnswerRecorder()
    recorder.value_answers(1, "a", 0, 3, iter([1.0, 2.0, 3.0]).__next__)
    recorder.dismantle_answers("a", 0, 1, lambda: "b")
    path = tmp_path / "answers.json"
    save_recorder(recorder, path)
    restored = load_recorder(path)
    assert restored.value_answers(1, "a", 0, 3, lambda: -1) == [1.0, 2.0, 3.0]
    assert dict(restored.tape_lengths()["dismantle"])["a"] == 1


def test_save_is_atomic_no_temp_left(tmp_path):
    path = tmp_path / "answers.json"
    save_recorder(AnswerRecorder(), path)
    assert path.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 999, "recorder": {}}))
    with pytest.raises(ValueError):
        load_recorder(path)


def test_platform_replay_from_disk(tmp_path, tiny_domain):
    from repro.crowd.platform import CrowdPlatform

    recorder = AnswerRecorder()
    platform = CrowdPlatform(tiny_domain, recorder=recorder, seed=0)
    original = platform.ask_value(0, "target", 4)
    path = tmp_path / "session.json"
    save_recorder(recorder, path)

    restored_platform = CrowdPlatform(tiny_domain, recorder=load_recorder(path), seed=9)
    assert restored_platform.ask_value(0, "target", 4) == original
