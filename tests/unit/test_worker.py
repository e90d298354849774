"""Unit tests for the worker models."""

import numpy as np
import pytest

from repro.crowd.worker import HonestWorker, SpamWorker
from repro.domains import (
    DismantleTaxonomy,
    GaussianDomain,
    GaussianDomainSpec,
    make_houses_domain,
    make_laptops_domain,
    make_pictures_domain,
    make_recipes_domain,
    make_synthetic_domain,
)
from repro.domains.base import IRRELEVANT


@pytest.fixture
def honest(tiny_domain):
    return HonestWorker(worker_id=0, seed=42)


class TestHonestWorkerValues:
    def test_value_answer_is_noisy_truth(self, tiny_domain, honest):
        truth = tiny_domain.true_value(0, "target")
        answers = [honest.answer_value(tiny_domain, 0, "target") for _ in range(400)]
        # Mean converges to the truth; spread matches the difficulty.
        assert np.mean(answers) == pytest.approx(truth, abs=0.2)
        assert np.std(answers) == pytest.approx(
            np.sqrt(tiny_domain.difficulty("target")), rel=0.25
        )

    def test_binary_answers_clipped_to_unit_interval(self, tiny_domain, honest):
        answers = [honest.answer_value(tiny_domain, 1, "flag_a") for _ in range(200)]
        assert all(0.0 <= a <= 1.0 for a in answers)

    def test_skill_scales_noise(self, tiny_domain):
        sharp = HonestWorker(0, seed=1, skill=0.01)
        answers = [sharp.answer_value(tiny_domain, 3, "target") for _ in range(50)]
        assert np.std(answers) < 0.3

    def test_distinct_seeds_give_distinct_answers(self, tiny_domain):
        a = HonestWorker(0, seed=1).answer_value(tiny_domain, 0, "target")
        b = HonestWorker(1, seed=2).answer_value(tiny_domain, 0, "target")
        assert a != b


class TestHonestWorkerDismantle:
    def test_answers_follow_taxonomy(self, tiny_domain):
        worker = HonestWorker(0, seed=5, synonym_rate=0.0)
        answers = [worker.answer_dismantle(tiny_domain, "target") for _ in range(500)]
        frequencies = {name: answers.count(name) / len(answers) for name in set(answers)}
        # Taxonomy: helper 0.5, flag_a 0.3, irrelevant 0.2.
        assert frequencies.get("helper", 0) == pytest.approx(0.5, abs=0.08)
        assert frequencies.get("flag_a", 0) == pytest.approx(0.3, abs=0.08)

    def test_irrelevant_mass_lands_on_unrelated_attribute(self, tiny_domain):
        worker = HonestWorker(0, seed=5, synonym_rate=0.0)
        answers = {worker.answer_dismantle(tiny_domain, "target") for _ in range(500)}
        # flag_b is the only attribute unrelated to target (corr 0.1).
        assert "flag_b" in answers
        assert IRRELEVANT not in answers

    def test_synonyms_emitted_at_configured_rate(self, tiny_domain):
        worker = HonestWorker(0, seed=5, synonym_rate=1.0)
        answers = [worker.answer_dismantle(tiny_domain, "flag_b") for _ in range(100)]
        # flag_a is always phrased via a synonym at rate 1.0.
        assert "flag_a" not in answers
        assert any(a in ("flagged", "marked") for a in answers)


def unrelated_reference(domain, attribute: str) -> list[str]:
    """The irrelevant-answer candidates, rebuilt per answer as workers did."""
    related = set(domain.dismantle_distribution(attribute))
    candidates = [
        name
        for name in domain.attributes()
        if name != attribute
        and name not in related
        and not domain.is_relevant(attribute, name)
    ]
    if not candidates:
        candidates = [name for name in domain.attributes() if name != attribute]
    return candidates


class TestUnrelatedAttributes:
    @pytest.mark.parametrize(
        "factory",
        [
            make_recipes_domain,
            make_pictures_domain,
            make_houses_domain,
            make_laptops_domain,
            make_synthetic_domain,
        ],
    )
    def test_matches_reference_on_shipped_domains(self, factory):
        domain = factory(n_objects=100, seed=0)
        for attribute in domain.attributes():
            expected = unrelated_reference(domain, attribute)
            assert list(domain.unrelated_attributes(attribute)) == expected
            # The memoized list is the one later answers draw from.
            assert list(domain.unrelated_attributes(attribute)) == expected

    def test_fallback_when_everything_is_related(self):
        spec = GaussianDomainSpec(
            names=("x", "y", "z"),
            means=(0.0, 0.0, 0.0),
            sigmas=(1.0, 1.0, 1.0),
            correlation=np.array(
                [[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]]
            ),
            difficulties=(0.1, 0.1, 0.1),
            binary=(False, False, False),
            taxonomy=DismantleTaxonomy(edges={"x": {"z": 0.5}}),
        )
        domain = GaussianDomain(spec, n_objects=200, seed=0)
        # y co-varies with x and z is in x's taxonomy: nothing unrelated.
        assert unrelated_reference(domain, "x") == ["y", "z"]
        assert domain.unrelated_attributes("x") == ("y", "z")
        assert list(domain.unrelated_attributes("y")) == unrelated_reference(
            domain, "y"
        )

    def test_domain_with_another_taxonomy_rebuilds_the_list(self, tiny_domain):
        assert tiny_domain.unrelated_attributes("target") == ("flag_b",)
        clone = tiny_domain.with_taxonomy(
            DismantleTaxonomy(edges={"target": {"flag_b": 1.0}})
        )
        assert list(clone.unrelated_attributes("target")) == unrelated_reference(
            clone, "target"
        )
        assert tiny_domain.unrelated_attributes("target") == ("flag_b",)


class TestHonestWorkerVerification:
    def test_reliability_controls_correctness(self, tiny_domain):
        worker = HonestWorker(0, seed=9, reliability=1.0)
        # target-helper really are related (corr 0.8).
        assert worker.answer_verification(tiny_domain, "target", "helper") is True
        # target-flag_b are not (corr 0.1 < threshold 0.2).
        assert worker.answer_verification(tiny_domain, "target", "flag_b") is False

    def test_unreliable_worker_flips_votes(self, tiny_domain):
        worker = HonestWorker(0, seed=9, reliability=0.51)
        votes = [
            worker.answer_verification(tiny_domain, "target", "helper")
            for _ in range(300)
        ]
        yes_rate = sum(votes) / len(votes)
        assert yes_rate == pytest.approx(0.51, abs=0.1)


class TestExamples:
    def test_examples_report_ground_truth(self, tiny_domain, honest):
        object_id, values = honest.provide_example(tiny_domain, ("target", "helper"))
        assert values["target"] == tiny_domain.true_value(object_id, "target")
        assert values["helper"] == tiny_domain.true_value(object_id, "helper")

    def test_examples_cover_many_objects(self, tiny_domain, honest):
        ids = {honest.provide_example(tiny_domain, ("target",))[0] for _ in range(100)}
        assert len(ids) > 20


class TestSpamWorker:
    def test_value_answers_uninformative(self, tiny_domain):
        worker = SpamWorker(0, seed=1)
        low, high = tiny_domain.answer_range("target")
        answers = [worker.answer_value(tiny_domain, 0, "target") for _ in range(200)]
        assert all(low <= a <= high for a in answers)
        # Uniform over the range: variance far exceeds the honest noise.
        assert np.var(answers) > tiny_domain.difficulty("target")

    def test_dismantle_uniform_over_universe(self, tiny_domain):
        worker = SpamWorker(0, seed=1)
        answers = {worker.answer_dismantle(tiny_domain, "target") for _ in range(200)}
        assert answers == {"helper", "flag_a", "flag_b"}

    def test_verification_is_a_coin_flip(self, tiny_domain):
        worker = SpamWorker(0, seed=1)
        votes = [
            worker.answer_verification(tiny_domain, "target", "helper")
            for _ in range(400)
        ]
        assert 0.35 < sum(votes) / len(votes) < 0.65
