"""Shared fixtures: small fast domains and platforms.

Unit tests use a tiny hand-built domain with exactly known moments so
assertions can be sharp; integration tests use scaled-down calibrated
domains.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.domains.gaussian import GaussianDomain, GaussianDomainSpec
from repro.domains.taxonomy import DismantleTaxonomy
from repro.domains.pictures import make_pictures_domain
from repro.domains.recipes import make_recipes_domain
from repro.durability.chaos import SimulatedCrash
from repro.durability.journal import _crc


def make_tiny_spec(
    difficulties: tuple[float, ...] = (0.5, 0.2, 0.05, 0.05),
) -> GaussianDomainSpec:
    """Four attributes: a hard numeric target, a numeric helper and two
    easy binaries, with a simple correlation structure."""
    names = ("target", "helper", "flag_a", "flag_b")
    correlation = np.array(
        [
            [1.0, 0.8, 0.7, 0.1],
            [0.8, 1.0, 0.5, 0.1],
            [0.7, 0.5, 1.0, 0.1],
            [0.1, 0.1, 0.1, 1.0],
        ]
    )
    taxonomy = DismantleTaxonomy(
        edges={
            "target": {"helper": 0.5, "flag_a": 0.3},
            "helper": {"target": 0.3, "flag_a": 0.2},
            "flag_a": {"helper": 0.4},
        }
    )
    return GaussianDomainSpec(
        names=names,
        means=(10.0, 5.0, 0.5, 0.5),
        sigmas=(2.0, 1.5, 0.25, 0.25),
        correlation=correlation,
        difficulties=difficulties,
        binary=(False, False, True, True),
        taxonomy=taxonomy,
        synonyms={"flag_a": ("flagged", "marked")},
        gold_standards={"target": frozenset({"helper", "flag_a"})},
    )


@pytest.fixture
def tiny_domain() -> GaussianDomain:
    """A 4-attribute domain with 200 objects (fast, known moments)."""
    return GaussianDomain(make_tiny_spec(), n_objects=200, seed=7, name="tiny")


@pytest.fixture
def tiny_platform(tiny_domain) -> CrowdPlatform:
    """Unmetered platform over the tiny domain with a fresh recorder."""
    return CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=3)


@pytest.fixture(scope="session")
def pictures_domain() -> GaussianDomain:
    """Scaled-down calibrated Pictures domain (shared, read-only)."""
    return make_pictures_domain(n_objects=250, seed=1)


@pytest.fixture(scope="session")
def recipes_domain() -> GaussianDomain:
    """Scaled-down calibrated Recipes domain (shared, read-only)."""
    return make_recipes_domain(n_objects=250, seed=1)


class KillAtNth:
    """Chaos hook that crashes the ``nth`` time the engine crosses ``phase``."""

    def __init__(self, phase: str, nth: int) -> None:
        self.phase = phase
        self.nth = nth
        self.seen = 0

    def note_interactions(self, count: int) -> None:
        pass

    def phase_boundary(self, phase: str) -> None:
        if phase == self.phase:
            self.seen += 1
            if self.seen == self.nth:
                raise SimulatedCrash(f"at {phase} #{self.nth}", 0)


def rewrite_serve_header(directory, **fields) -> None:
    """Change a serve log's header fields, keeping its checksum valid."""
    _rewrite_serve_record(directory, "header", lambda record: record.update(fields))


def rewrite_serve_result(directory, **fields) -> None:
    """Change the serve log's first logged result, keeping its checksum valid."""
    _rewrite_serve_record(
        directory, "result", lambda record: record["result"].update(fields)
    )


def _rewrite_serve_record(directory, kind: str, edit) -> None:
    """Apply ``edit`` to the serve log's first ``kind`` record in place."""
    path = directory / "serve.journal.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    record = json.loads(lines[index])
    edit(record)
    record["crc"] = _crc(record)
    lines[index] = (
        json.dumps(record, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    )
    path.write_bytes(b"".join(lines))
