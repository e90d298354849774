"""The benchmark's inputs, made from its ``--seed`` and nothing else.

Traffic and target tuples are generated here, not by ``repro.serve.load``,
so that a change to the program cannot change what is measured.  The
same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Target tuples plan_cold plans cold and then re-acquires as catalog
#: hits, per domain: single targets and one multi-target tuple each.
PLAN_COLD_TUPLES = {
    "recipes": (("protein",), ("calories",), ("healthy",), ("protein", "calories")),
    "pictures": (("bmi",), ("age",), ("bmi", "age")),
}
PLAN_COLD_TUPLE_COUNT = sum(len(tuples) for tuples in PLAN_COLD_TUPLES.values())


@dataclass(frozen=True)
class Arrival:
    """One query of the traffic: when it arrives and what it reads."""

    query_id: str
    at_s: float
    object_ids: tuple[int, ...]


@dataclass(frozen=True)
class Traffic:
    """Poisson arrivals with Zipf object popularity."""

    queries: int
    rate_qps: float
    population: int
    zipf_s: float
    objects_per_query: int


def zipf_probabilities(population: int, s: float) -> np.ndarray:
    """``p(rank r) ∝ 1 / (r + 1)^s`` over ``population`` ranks."""
    weights = 1.0 / np.power(np.arange(1, population + 1, dtype=float), s)
    return weights / weights.sum()


def generate_traffic(spec: Traffic, seed: int) -> list[Arrival]:
    """Arrivals for one seed, in arrival order.

    A Poisson process at ``rate_qps`` conditioned on its count: the
    ``queries`` arrival times are sorted uniform draws over the span
    ``queries / rate_qps`` (simulated seconds), so every seed serves
    the same number of dispatch intervals.  Popularity ranks map to
    object ids through a seeded permutation, so the hot set is a
    different set of objects for each seed; each query's objects are a
    without-replacement Zipf draw, sorted.
    """
    rng = np.random.default_rng([seed, 0x7A1F])
    popularity = zipf_probabilities(spec.population, spec.zipf_s)
    object_of_rank = rng.permutation(spec.population)
    arrivals = np.sort(rng.uniform(0.0, spec.queries / spec.rate_qps, size=spec.queries))
    out = []
    for index in range(spec.queries):
        ranks = rng.choice(
            spec.population, size=spec.objects_per_query, replace=False, p=popularity
        )
        objects = sorted(int(object_of_rank[rank]) for rank in ranks)
        out.append(
            Arrival(
                query_id=f"q{index:05d}",
                at_s=float(arrivals[index]),
                object_ids=tuple(objects),
            )
        )
    return out


def dispatch_batches(arrivals: list[Arrival], interval_s: float) -> list[tuple[float, list[Arrival]]]:
    """Group arrivals into waves dispatched every ``interval_s`` seconds.

    A wave is dispatched at the end of the interval its first arrival
    falls into and carries every arrival up to that instant; empty
    intervals dispatch nothing.
    """
    batches: list[tuple[float, list[Arrival]]] = []
    position = 0
    while position < len(arrivals):
        dispatch_at = (int(arrivals[position].at_s // interval_s) + 1) * interval_s
        batch = []
        while position < len(arrivals) and arrivals[position].at_s <= dispatch_at:
            batch.append(arrivals[position])
            position += 1
        batches.append((dispatch_at, batch))
    return batches


def sub_seed(seed: int, *labels: int) -> int:
    """A 31-bit seed derived from the run seed and integer labels."""
    return int(np.random.default_rng([seed, *labels]).integers(1, 2**31 - 1))


def held_out_queries(
    n_objects: int, touched: set[int], per_query: int, seed: int
) -> list[tuple[int, ...]]:
    """Every object planning never asked about, grouped into queries.

    The seed shuffles the held-out objects before they are cut into
    queries of ``per_query`` objects (each query sorted); the set of
    objects, and so the error measured over them, is the same for
    every seed.
    """
    free = np.array(sorted(set(range(n_objects)) - touched), dtype=np.int64)
    order = np.random.default_rng([seed, 0x4E1D]).permutation(free)
    return [
        tuple(sorted(int(oid) for oid in order[start : start + per_query]))
        for start in range(0, len(order), per_query)
    ]
