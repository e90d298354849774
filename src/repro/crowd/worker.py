"""Worker models.

Workers generate answers to the four question types against a ground
truth :class:`~repro.domains.base.Domain`.  The paper assumes workers
are independent and that spam filters remove malicious ones; we provide
an honest-but-noisy worker matching those assumptions, plus the two bad
workers reliability-weighted aggregation is measured against: a
spammer and a member of a colluding ring.

The honest worker's value answer is ``truth + eps`` with
``eps ~ N(0, difficulty(a))``, which makes the population statistics
the DisQ planner estimates coincide with the domain specification:
``E_O[Var(o.a^(1))] = difficulty(a)`` and the answer/target covariances
equal the true-value covariances.
"""

from __future__ import annotations

import math
import zlib
from abc import ABC, abstractmethod
from functools import cached_property

import numpy as np

from repro.domains.base import IRRELEVANT, Domain


def _clip_unit(value: float) -> float:
    """``np.clip(value, 0.0, 1.0)`` on a Python float (NaN stays NaN)."""
    return min(max(value, 0.0), 1.0)


class Worker(ABC):
    """One crowd member with a private random stream.

    Parameters
    ----------
    worker_id:
        Stable identifier (recorded as each answer's provenance).
    seed:
        Seed of the worker's private RNG; distinct seeds give the
        independent workers the paper assumes.
    """

    def __init__(self, worker_id: int, seed: int) -> None:
        self.worker_id = worker_id
        self._seed = seed
        #: Multiplier on this worker's operational fault probabilities
        #: (timeouts, abandons, garbage) under fault injection; 1.0 is
        #: an average worker.  Set by the pool when heterogeneity is
        #: configured — it concentrates faults on a few workers, which
        #: is what makes per-worker quarantine effective.
        self.fault_proneness: float = 1.0

    @cached_property
    def _rng(self) -> np.random.Generator:
        """The private stream, built from the seed on first use.

        A pool holds hundreds of workers and most serving platforms
        never ask one of them a question; the stream a worker draws
        from is the same whenever it is built.
        """
        return np.random.default_rng(self._seed)

    # -- the four question types ---------------------------------------

    @abstractmethod
    def answer_value(self, domain: Domain, object_id: int, attribute: str) -> float:
        """Estimate ``o.a`` for one object."""

    @abstractmethod
    def answer_dismantle(self, domain: Domain, attribute: str) -> str:
        """Suggest an attribute that may help estimating ``attribute``."""

    @abstractmethod
    def answer_verification(
        self, domain: Domain, attribute: str, candidate: str
    ) -> bool:
        """Vote on whether ``candidate`` helps estimating ``attribute``."""

    def provide_example(
        self, domain: Domain, targets: tuple[str, ...]
    ) -> tuple[int, dict[str, float]]:
        """Supply an example object together with true target values.

        The paper assumes example values are correct (its authors used
        lab members as a gold-standard crowd), so every worker type
        reports the ground truth here.
        """
        object_id = domain.sample_object(self._rng)
        values = {target: domain.true_value(object_id, target) for target in targets}
        return object_id, values

    def answer_value_stateless(
        self,
        domain: Domain,
        object_id: int,
        attribute: str,
        rng: np.random.Generator,
    ) -> float:
        """Value answer drawn from a caller-supplied random stream.

        The serving engine's per-key answer streams need answers that
        are a pure function of ``(seed, object, attribute, index)`` —
        independent of how concurrent purchases interleave — so this
        variant must not touch the worker's private RNG (which is
        shared mutable state).  The answer *distribution* matches
        :meth:`answer_value`; only the source of randomness differs.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support stateless value answers"
        )

    def _resolve_irrelevant(self, domain: Domain, attribute: str) -> str:
        """Pick a uniformly random attribute genuinely unrelated to ``attribute``.

        An "irrelevant" dismantling answer models a worker suggesting
        something unhelpful, so it is drawn from the attributes that do
        *not* co-vary with the one being dismantled (those would be
        legitimate answers, and the taxonomy already covers them).
        """
        return str(self._rng.choice(domain.unrelated_attributes(attribute)))

    def _surface_form(self, domain: Domain, attribute: str, synonym_rate: float) -> str:
        """Possibly replace an attribute name by one of its synonyms."""
        forms = domain.synonyms(attribute)
        if forms and self._rng.random() < synonym_rate:
            return str(self._rng.choice(forms))
        return attribute

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the worker's random stream."""
        return {"rng": self._rng.bit_generator.state}

    def restore_state(self, payload: dict) -> None:
        """Restore the worker's random stream from :meth:`state_dict`."""
        self._rng.bit_generator.state = payload["rng"]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.worker_id})"


class HonestWorker(Worker):
    """A well-meaning worker with attribute-dependent noise.

    Parameters
    ----------
    skill:
        Multiplier on the answer-noise variance; 1.0 is an average
        worker, below 1.0 is better than average.
    reliability:
        Probability of voting correctly on a verification question.
    synonym_rate:
        Probability of phrasing a dismantling answer with a synonym
        instead of the canonical attribute name.
    """

    def __init__(
        self,
        worker_id: int,
        seed: int,
        skill: float = 1.0,
        reliability: float = 0.8,
        synonym_rate: float = 0.3,
    ) -> None:
        super().__init__(worker_id, seed)
        self.skill = skill
        self.reliability = reliability
        self.synonym_rate = synonym_rate

    def answer_value(self, domain: Domain, object_id: int, attribute: str) -> float:
        return self._noisy_value(domain, object_id, attribute, self._rng)

    def answer_value_stateless(
        self,
        domain: Domain,
        object_id: int,
        attribute: str,
        rng: np.random.Generator,
    ) -> float:
        return self._noisy_value(domain, object_id, attribute, rng)

    def _noisy_value(
        self,
        domain: Domain,
        object_id: int,
        attribute: str,
        rng: np.random.Generator,
    ) -> float:
        """``truth + N(0, skill * difficulty)``, clipped on binary attributes.

        Plain float arithmetic: ``math.sqrt`` and ``np.sqrt`` are both
        correctly rounded, and ``min(max(x, 0.0), 1.0)`` equals
        ``np.clip(x, 0.0, 1.0)`` for every float, NaN and signed zeros
        included, without a numpy scalar round trip per answer.
        """
        truth = domain.true_value(object_id, attribute)
        noise_sd = math.sqrt(self.skill * domain.difficulty(attribute))
        answer = truth + rng.normal(0.0, noise_sd)
        if domain.is_binary(attribute):
            return _clip_unit(answer)
        return answer

    def answer_dismantle(self, domain: Domain, attribute: str) -> str:
        distribution = domain.dismantle_distribution(attribute)
        names = list(distribution)
        probabilities = np.array([distribution[name] for name in names], dtype=float)
        probabilities = probabilities / probabilities.sum()
        choice = str(names[self._rng.choice(len(names), p=probabilities)])
        if choice == IRRELEVANT:
            choice = self._resolve_irrelevant(domain, attribute)
        return self._surface_form(domain, choice, self.synonym_rate)

    def answer_verification(
        self, domain: Domain, attribute: str, candidate: str
    ) -> bool:
        truth = domain.is_relevant(attribute, candidate)
        if self._rng.random() < self.reliability:
            return truth
        return not truth


class CollusionRingWorker(HonestWorker):
    """A member of a colluding ring agreeing on per-question errors.

    Every ring member derives the *same* additive error for each
    (attribute, object) pair from the shared ``ring_seed`` instead of
    their private seed — the coordinated-adversary case: the ring
    agrees on a wrong answer per question, so its errors are perfectly
    correlated and a uniform mean is shifted by the full shared error
    instead of averaging it away.  Because the error varies per object
    (zero-mean across the database), no fitted intercept can calibrate
    it out the way a constant shift would be.  Per-question noise stays
    private (members answer slightly differently, so naive duplicate
    detection does not expose them).

    The shared error is a pure function of ``(ring_seed, attribute,
    object_id)``, so the stateful and stateless answer paths agree and
    the serving tier's determinism contracts hold; the batched stream
    routes these lanes through scalar replay (unknown exact type),
    which preserves byte identity by construction.
    """

    def __init__(
        self,
        worker_id: int,
        seed: int,
        ring_seed: int,
        bias_scale: float = 1.0,
        **kwargs: float,
    ) -> None:
        super().__init__(worker_id, seed, **kwargs)
        self.bias_scale = bias_scale
        self.ring_seed = int(ring_seed)
        self._ring_biases: dict[tuple[str, int], float] = {}

    def _ring_bias(self, domain: Domain, attribute: str, object_id: int) -> float:
        key = (attribute, int(object_id))
        cached = self._ring_biases.get(key)
        if cached is None:
            noise_sd = math.sqrt(self.skill * domain.difficulty(attribute))
            bias_rng = np.random.default_rng(
                [
                    self.ring_seed,
                    zlib.crc32(attribute.encode("utf-8")),
                    int(object_id),
                ]
            )
            cached = float(bias_rng.normal(0.0, self.bias_scale * noise_sd))
            self._ring_biases[key] = cached
        return cached

    def _noisy_value(
        self,
        domain: Domain,
        object_id: int,
        attribute: str,
        rng: np.random.Generator,
    ) -> float:
        """The honest answer plus the ring's shared error, clipped again
        on binary attributes."""
        answer = super()._noisy_value(domain, object_id, attribute, rng)
        answer += self._ring_bias(domain, attribute, object_id)
        if domain.is_binary(attribute):
            return _clip_unit(answer)
        return answer


class SpamWorker(Worker):
    """A malicious/lazy worker producing uninformative answers.

    Value answers are uniform over the attribute's plausible range,
    dismantling answers are uniform over the attribute universe, and
    verification votes are fair coin flips.  The paper assumes spam
    filters remove such workers before aggregation; here they are the
    bad workers reliability-weighted aggregation learns to
    down-weight.
    """

    def answer_value(self, domain: Domain, object_id: int, attribute: str) -> float:
        low, high = domain.answer_range(attribute)
        return float(self._rng.uniform(low, high))

    def answer_value_stateless(
        self,
        domain: Domain,
        object_id: int,
        attribute: str,
        rng: np.random.Generator,
    ) -> float:
        low, high = domain.answer_range(attribute)
        return float(rng.uniform(low, high))

    def answer_dismantle(self, domain: Domain, attribute: str) -> str:
        candidates = [name for name in domain.attributes() if name != attribute]
        return str(self._rng.choice(candidates))

    def answer_verification(
        self, domain: Domain, attribute: str, candidate: str
    ) -> bool:
        return bool(self._rng.random() < 0.5)
