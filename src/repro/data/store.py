"""Persistence for recorded crowd answers.

The paper recorded all CrowdFlower answers in a database and replayed
them in later experiments.  :func:`save_recorder` / :func:`load_recorder`
provide the same durability for our
:class:`~repro.crowd.recording.AnswerRecorder`, as a single JSON file.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.crowd.recording import AnswerRecorder

#: Format marker written to every store file.
FORMAT_VERSION = 1


def save_recorder(recorder: AnswerRecorder, path: str | Path) -> None:
    """Write a recorder snapshot as JSON to ``path`` (atomically)."""
    # Imported here: repro.durability imports the planner, which
    # imports this package through repro.core.model.
    from repro.durability.checkpoint import atomic_write_text

    payload = {"version": FORMAT_VERSION, "recorder": recorder.to_dict()}
    atomic_write_text(path, json.dumps(payload))


def load_recorder(path: str | Path) -> AnswerRecorder:
    """Load a recorder snapshot written by :func:`save_recorder`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported answer-store version: {version!r}")
    return AnswerRecorder.from_dict(payload["recorder"])
