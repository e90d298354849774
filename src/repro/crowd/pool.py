"""Worker pools.

A :class:`WorkerPool` owns a population of independent workers and
hands out a fresh random worker for each question, matching the paper's
assumption that each answer comes from an independent crowd member.
The pool's composition (fractions of honest, spam and collusion-ring
workers) is configurable so experiments can measure how reliability
weighting holds up against bad workers.
"""

from __future__ import annotations

import numpy as np

from repro.crowd.worker import (
    CollusionRingWorker,
    HonestWorker,
    SpamWorker,
    Worker,
)
from repro.errors import ConfigurationError

#: Knuth-multiplier mix deriving the collusion ring's shared seed from
#: the pool seed without consuming any pool RNG draws (so enabling a
#: ring leaves every other worker's stream byte-identical).
_RING_SEED_MIX = 0x9E3779B1


class WorkerPool:
    """A population of crowd workers with a sampling policy.

    Parameters
    ----------
    size:
        Number of distinct workers in the population.
    seed:
        Master seed; workers receive derived, independent seeds.
    spam_fraction:
        Fraction of the population that are spam workers.
    reliability:
        Verification-vote correctness probability for honest workers.
    synonym_rate:
        Probability an honest worker phrases a dismantling answer with
        a synonym surface form.
    skill_spread:
        Log-normal sigma of the per-worker skill multiplier (0 disables
        skill heterogeneity).
    fault_spread:
        Log-normal sigma of the per-worker *fault proneness* multiplier
        used by fault injection (0, the default, leaves every worker at
        proneness 1.0 and draws no extra randomness, preserving seeded
        worker streams byte-for-byte).
    colluding_fraction:
        Fraction forming a single collusion ring: every member derives
        the *same* per-(attribute, object) error from one shared ring
        seed, so their errors are perfectly correlated instead of
        averaging out (see
        :class:`~repro.crowd.worker.CollusionRingWorker`).
    collusion_bias_scale:
        Scale of the ring's shared error, in worker-noise standard
        deviations.
    """

    def __init__(
        self,
        size: int = 200,
        seed: int = 0,
        spam_fraction: float = 0.0,
        reliability: float = 0.8,
        synonym_rate: float = 0.3,
        skill_spread: float = 0.0,
        fault_spread: float = 0.0,
        colluding_fraction: float = 0.0,
        collusion_bias_scale: float = 1.0,
    ) -> None:
        if size <= 0:
            raise ConfigurationError(f"pool size must be positive, got {size}")
        fractions = {
            "spam_fraction": spam_fraction,
            "colluding_fraction": colluding_fraction,
        }
        for name, fraction in fractions.items():
            if not 0.0 <= fraction <= 1.0:
                raise ConfigurationError(
                    f"{name} must lie in [0, 1], got {fraction!r}"
                )
        if sum(fractions.values()) > 1.0:
            raise ConfigurationError(
                "worker fractions must not sum to more than 1"
            )
        self._rng = np.random.default_rng(seed)
        seeds = self._rng.integers(0, 2**63 - 1, size=size)

        n_spam = int(round(size * spam_fraction))
        n_ring = int(round(size * colluding_fraction))
        ring_seed = (int(seed) * _RING_SEED_MIX + 1) & (2**63 - 1)
        # Contiguous id bands: spam workers first, then the ring, then
        # honest workers.  With the ring fraction at 0 the composition —
        # and every worker's seeded stream — is byte-identical to the
        # historical pool.
        self._workers: list[Worker] = []
        for worker_id in range(size):
            worker_seed = int(seeds[worker_id])
            skill = 1.0
            if skill_spread > 0:
                skill = float(np.exp(self._rng.normal(0.0, skill_spread)))
            honest_kwargs = dict(
                skill=skill, reliability=reliability, synonym_rate=synonym_rate
            )
            if worker_id < n_spam:
                worker: Worker = SpamWorker(worker_id, worker_seed)
            elif worker_id < n_spam + n_ring:
                worker = CollusionRingWorker(
                    worker_id,
                    worker_seed,
                    ring_seed=ring_seed,
                    bias_scale=collusion_bias_scale,
                    **honest_kwargs,
                )
            else:
                worker = HonestWorker(worker_id, worker_seed, **honest_kwargs)
            if fault_spread > 0:
                worker.fault_proneness = float(
                    np.exp(self._rng.normal(0.0, fault_spread))
                )
            self._workers.append(worker)

    def __len__(self) -> int:
        return len(self._workers)

    @property
    def workers(self) -> tuple[Worker, ...]:
        """The full population (read-only view)."""
        return tuple(self._workers)

    def draw(self) -> Worker:
        """Sample one worker uniformly at random (with replacement).

        Drawing with replacement across questions keeps answers
        independent, as assumed throughout the paper.
        """
        index = int(self._rng.integers(0, len(self._workers)))
        return self._workers[index]

    def draw_avoiding(
        self, blocked: set[int], max_redraws: int | None = None
    ) -> Worker:
        """Sample one worker, redrawing while the draw is in ``blocked``.

        Used by the resilience layer to route around quarantined
        workers.  After ``max_redraws`` unsuccessful redraws (default:
        the population size) the last draw is returned even if blocked,
        so a fully-quarantined population degrades to normal service
        instead of deadlocking.
        """
        if not blocked:
            return self.draw()
        attempts = len(self._workers) if max_redraws is None else max_redraws
        worker = self.draw()
        for _ in range(attempts):
            if worker.worker_id not in blocked:
                return worker
            worker = self.draw()
        return worker

    def state_dict(self) -> dict:
        """JSON-serialisable snapshot of the pool and worker RNG states.

        Worker composition (types, skills, fault proneness) is fully
        determined by the constructor arguments, so only the mutable
        random state needs to travel in a checkpoint.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "workers": [worker.state_dict() for worker in self._workers],
        }

    def restore_state(self, payload: dict) -> None:
        """Restore RNG states captured by :meth:`state_dict`."""
        if len(payload["workers"]) != len(self._workers):
            raise ConfigurationError(
                f"checkpointed pool has {len(payload['workers'])} workers; "
                f"this pool has {len(self._workers)}"
            )
        self._rng.bit_generator.state = payload["rng"]
        for worker, state in zip(self._workers, payload["workers"]):
            worker.restore_state(state)
