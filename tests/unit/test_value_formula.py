"""The workers' value formula against its numpy-scalar form.

Workers compute ``truth + N(0, skill * difficulty)`` with ``math.sqrt``
and clip binary answers with ``min(max(x, 0.0), 1.0)``.  The formula
was first written with ``np.sqrt`` and ``np.clip``; that form lives
here as the reference, and every answer must equal it bit for bit
(``float.hex``), on every path that produces value answers: the
stateful and stateless methods, honest workers and the collusion ring.
The domain's dict-based name checks must raise the same typed errors
as the scan of ``attributes()`` they replace.
"""

import zlib

import numpy as np
import pytest

from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.crowd.worker import CollusionRingWorker, HonestWorker
from repro.domains.base import Domain
from repro.errors import UnknownAttributeError, UnknownObjectError

SKILLS = (0.25, 1.0, 4.0)


def numpy_value(worker, domain, object_id, attribute, rng, regions=None):
    """The honest formula with numpy scalars (``np.sqrt``, ``np.clip``)."""
    truth = domain.true_value(object_id, attribute)
    noise_sd = np.sqrt(worker.skill * domain.difficulty(attribute))
    answer = truth + rng.normal(0.0, noise_sd)
    if domain.is_binary(attribute):
        if regions is not None:
            side = "below" if answer < 0.0 else "above" if answer > 1.0 else "inside"
            regions.add(side)
        answer = float(np.clip(answer, 0.0, 1.0))
    return float(answer)


def numpy_ring_value(worker, domain, object_id, attribute, rng, regions=None):
    """The ring member's answer: the honest one plus the shared error."""
    answer = numpy_value(worker, domain, object_id, attribute, rng, regions)
    noise_sd = np.sqrt(worker.skill * domain.difficulty(attribute))
    bias_rng = np.random.default_rng(
        [worker.ring_seed, zlib.crc32(attribute.encode("utf-8")), int(object_id)]
    )
    answer += float(bias_rng.normal(0.0, worker.bias_scale * noise_sd))
    if domain.is_binary(attribute):
        answer = float(np.clip(answer, 0.0, 1.0))
    return answer


def make_worker(kind: str, seed: int, skill: float):
    if kind == "ring":
        return CollusionRingWorker(
            seed, seed, ring_seed=99, bias_scale=2.0, skill=skill
        )
    return HonestWorker(seed, seed, skill=skill)


REFERENCES = {"honest": numpy_value, "ring": numpy_ring_value}


def questions(domain, attribute, count=120):
    return [(object_id % domain.n_objects(), attribute) for object_id in range(count)]


class TestValueFormula:
    @pytest.mark.parametrize("kind", ["honest", "ring"])
    @pytest.mark.parametrize("attribute", ["flag_a", "flag_b", "target", "helper"])
    def test_stateful_answers_bit_identical(self, tiny_domain, kind, attribute):
        regions: set[str] = set()
        for seed, skill in enumerate(SKILLS, start=11):
            worker = make_worker(kind, seed, skill)
            reference_rng = np.random.default_rng(seed)
            for object_id, name in questions(tiny_domain, attribute):
                ours = worker.answer_value(tiny_domain, object_id, name)
                theirs = REFERENCES[kind](
                    worker, tiny_domain, object_id, name, reference_rng, regions
                )
                assert type(ours) is float
                assert ours.hex() == theirs.hex(), (seed, object_id, name)
        if tiny_domain.is_binary(attribute):
            # Truth plus noise landed on every side of the clip.
            assert regions == {"below", "inside", "above"}

    @pytest.mark.parametrize("kind", ["honest", "ring"])
    @pytest.mark.parametrize("attribute", ["flag_a", "target"])
    def test_stateless_answers_bit_identical(self, tiny_domain, kind, attribute):
        regions: set[str] = set()
        for seed, skill in enumerate(SKILLS, start=21):
            worker = make_worker(kind, seed, skill)
            for object_id, name in questions(tiny_domain, attribute):
                coordinates = [seed, object_id, zlib.crc32(name.encode()), 0]
                ours = worker.answer_value_stateless(
                    tiny_domain, object_id, name, np.random.default_rng(coordinates)
                )
                theirs = REFERENCES[kind](
                    worker,
                    tiny_domain,
                    object_id,
                    name,
                    np.random.default_rng(coordinates),
                    regions,
                )
                assert ours.hex() == theirs.hex(), (seed, object_id, name)
        if tiny_domain.is_binary(attribute):
            assert regions == {"below", "inside", "above"}

    @pytest.mark.parametrize(
        "value",
        [-0.0, 0.0, -1e-300, 5e-324, 0.5, 1.0, 1.0000000000000002,
         float("inf"), -float("inf"), float("nan")],
    )
    @pytest.mark.parametrize("kind", ["honest", "ring"])
    def test_clip_matches_numpy_on_edge_floats(self, kind, value):
        """An answer that lands exactly on an edge float clips as
        ``np.clip`` does, signed zeros and NaN included."""

        class EdgeDomain:
            """A binary attribute whose truth is ``value``."""

            def true_value(self, object_id, attribute):
                return value

            def difficulty(self, attribute):
                return 1.0

            def is_binary(self, attribute):
                return True

        class ZeroNoise:
            """``x + -0.0 == x`` for every float ``x``, -0.0 included."""

            def normal(self, loc, scale):
                return -0.0

        worker = make_worker(kind, 3, 1.0)
        if kind == "ring":
            # The shared error is drawn from the ring seed; pin it to -0.0.
            worker._ring_biases[("flag", 0)] = -0.0
        ours = worker.answer_value_stateless(EdgeDomain(), 0, "flag", ZeroNoise())
        theirs = float(np.clip(value, 0.0, 1.0))
        assert ours.hex() == theirs.hex()
        assert np.signbit(ours) == np.signbit(theirs)


class TestTypedErrors:
    """The name→index checks raise what the scan of ``attributes()``
    raised, with the same argument."""

    @pytest.mark.parametrize("name", ["no_such_attribute", "", "Target", "flagged"])
    def test_unknown_attribute(self, tiny_domain, name):
        calls = [
            lambda: tiny_domain.true_value(0, name),
            lambda: tiny_domain.difficulty(name),
            lambda: tiny_domain.is_binary(name),
            lambda: tiny_domain.check_attribute(name),
            lambda: tiny_domain.true_values(name),
            lambda: tiny_domain.relevance("target", name),
            lambda: tiny_domain.relevance(name, "target"),
        ]
        for call in calls:
            with pytest.raises(UnknownAttributeError) as raised:
                call()
            assert raised.value.attribute == name
        with pytest.raises(UnknownAttributeError) as raised:
            Domain.check_attribute(tiny_domain, name)
        assert raised.value.attribute == name

    def test_unhashable_name_is_unknown(self, tiny_domain):
        with pytest.raises(UnknownAttributeError):
            tiny_domain.is_binary(["target"])

    @pytest.mark.parametrize("object_id", [-1, 200, 10**6])
    def test_unknown_object_checked_first(self, tiny_domain, object_id):
        for attribute in ("target", "no_such_attribute"):
            with pytest.raises(UnknownObjectError) as raised:
                tiny_domain.true_value(object_id, attribute)
            assert raised.value.object_id == object_id

    def test_platform_resolve(self, tiny_domain):
        platform = CrowdPlatform(tiny_domain, recorder=AnswerRecorder(), seed=0)
        assert platform.resolve("flagged") == "flag_a"
        assert platform.resolve("marked") == "flag_a"
        assert platform.resolve("target") == "target"
        assert platform.knows("marked") and platform.knows("helper")
        assert not platform.knows("no_such_attribute")
        for name in ("no_such_attribute", "", "Target"):
            with pytest.raises(UnknownAttributeError) as raised:
                platform.resolve(name)
            assert raised.value.attribute == name
            with pytest.raises(UnknownAttributeError):
                platform.ask_value(0, name, 1)
