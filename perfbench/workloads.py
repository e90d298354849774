"""The three workloads: plan_cold, serve_zipf and serve_durable.

Every workload runs the same pipeline — domain build, cold plan into an
empty catalog, restart, catalog hit, serve — and puts a different part
of it in the timed loop:

``plan_cold``
    Times whole passes: cold-plan seven target tuples into an empty
    catalog, restart and re-acquire them as hits, and serve held-out
    objects with the hit plans.  The planner and the crowd do nearly
    all the work; serving is a short cold-cache tail.
``serve_zipf``
    Times an in-memory, fault-free serve of Poisson/Zipf traffic over a
    population far larger than the hot set, with uniform aggregation
    and no deadlines, so evaluation takes the ``estimate_objects``
    design-matrix path.  Planning happens once per set-up.
``serve_durable``
    Times the same traffic generator over a hot working set, with a
    checkpoint directory, a fault profile, the reliability aggregator
    and per-query deadlines, which send evaluation down the per-object
    ``estimate_object`` path.

A *unit* is one pass (plan_cold) or one full traffic replay on a fresh
engine (serve_*).  Units repeat until the run's seconds are used up;
every unit of a run does identical work, so each unit's deterministic
outputs must match the first unit's exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import CrowdPlatform, DisQParams, FaultProfile, Query, RetryPolicy
from repro.agg import make_aggregator
from repro.catalog import PlanCatalog, PlanRouter, serialize_plan
from repro.core.online import default_weights, query_error
from repro.crowd.faults import SimulatedClock
from repro.crowd.recording import AnswerRecorder
from repro.domains import make_pictures_domain, make_recipes_domain
from repro.obs import NULL_OBS, MetricsRegistry, Observability, Tracer
from repro.serve import QueryRequest, ServeEngine

from drift import DriftMeter
from inputs import (
    PLAN_COLD_TUPLE_COUNT,
    PLAN_COLD_TUPLES,
    Traffic,
    dispatch_batches,
    generate_traffic,
    held_out_queries,
    sub_seed,
)

DOMAIN_FACTORIES = {"recipes": make_recipes_domain, "pictures": make_pictures_domain}

#: Seeds of the ground-truth world and of the crowd.  Both belong to the
#: system under test, not to its inputs: the run seed picks the traffic
#: and how plan_cold's held-out objects form queries.  A crowd seed drawn from the run
#: seed would change every plan, and with it the planner's work, spend
#: and error, by more than any bound a timing could be held to.
WORLD_SEED = 1
CROWD_SEED = 3

#: Planning economics shared by every workload (cents).
B_OBJ_CENTS = 4.0
B_PRC_CENTS = 1500.0
PLAN_PARAMS = DisQParams(n1=40)

#: Simulated seconds between wave dispatches.
DISPATCH_INTERVAL_S = 1.0

#: Relative tolerance for ledger-vs-report spend sums (float summation).
SPEND_RTOL = 1e-9

#: One catalog-hit segment times ``HITS_PER_SEGMENT`` acquires, each on
#: a router built fresh beforehand (a restart): a sub-millisecond hit is
#: never timed alone, and a segment spans several reference samples.
HITS_PER_SEGMENT = 56


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Phase:
    """What one set-up or unit measured and produced.

    ``segments`` names groups of the meter's timed segments ("plan",
    "hit", "wave", ...); ``outputs`` are deterministic and must repeat
    exactly across units of a run.
    """

    meter: DriftMeter
    segments: dict[str, list[int]] = field(default_factory=dict)
    outputs: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[Check] = field(default_factory=list)
    #: SHA-256 of the canonical text of everything the unit produced
    #: (plans, reports, ledgers), compared across units.
    digest: str = ""
    #: Traced units only: the program's counters/gauges and phase spans.
    counters: dict[str, float] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    durable_bytes: dict[str, int] = field(default_factory=dict)
    #: Traced units only: the recorded spans.
    spans: list[list] = field(default_factory=list)

    def add(self, kind: str, index: int) -> None:
        self.segments.setdefault(kind, []).append(index)

    def corrected(self, kind: str, per: int = 1) -> list[float]:
        return [self.meter.corrected(i) / per for i in self.segments.get(kind, [])]

    def raw(self, kind: str, per: int = 1) -> list[float]:
        return [self.meter.raw(i) / per for i in self.segments.get(kind, [])]

    def all_indices(self) -> list[int]:
        return sorted(i for indices in self.segments.values() for i in indices)

    @property
    def timed_s(self) -> float:
        return sum(self.meter.corrected(i) for i in self.all_indices())

    @property
    def raw_s(self) -> float:
        return sum(self.meter.raw(i) for i in self.all_indices())

    def capture(self, obs) -> None:
        """Keep a traced unit's program counters and phase seconds."""
        self.counters = obs.metrics.counters()
        self.counters.update({f"gauge:{k}": v for k, v in obs.metrics.gauges().items()})
        self.phase_seconds = obs.tracer.phase_seconds()


def nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def wchar() -> int:
    """Bytes this process has passed to write() so far."""
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def build_domain(name: str, n_objects: int):
    return DOMAIN_FACTORIES[name](n_objects=n_objects, seed=WORLD_SEED)


def plan_text(plan) -> str:
    return json.dumps(serialize_plan(plan), sort_keys=True)


def make_router(domain, directory: Path, obs) -> tuple[PlanRouter, CrowdPlatform]:
    """A router over a fresh platform and catalog handle: a process restart."""
    platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=CROWD_SEED, obs=obs)
    catalog = PlanCatalog(directory, obs=obs)
    router = PlanRouter(catalog, domain, platform, B_OBJ_CENTS, B_PRC_CENTS, PLAN_PARAMS)
    return router, platform


def timed_hits(phase: Phase, acquires, stored: dict, label: str) -> list:
    """Time one hit segment over ``(router, platform, targets, key)`` items.

    Every router was built before the segment began (a restart), and
    every acquire must be a free catalog hit of the plan stored under
    ``key``.  Returns the routed plans.
    """
    meter = phase.meter
    meter.start()
    routed = [router.acquire(targets) for router, _, targets, _ in acquires]
    phase.add("hit", meter.stop())
    meter.probe()
    phase.attempted += len(routed)
    for (_, platform, targets, key), item in zip(acquires, routed):
        phase.checks.append(
            Check(f"{label}.restart_route_hit", item.route == "hit", f"{key}: {item.route}")
        )
        phase.checks.append(
            Check(f"{label}.hit_plan_identical", plan_text(item.plan) == stored[key], str(key))
        )
        phase.checks.append(
            Check(
                f"{label}.restart_spends_nothing",
                platform.ledger.total_spent == 0.0 and item.spent_cents == 0.0,
                f"{key}: {platform.ledger.total_spent!r}c",
            )
        )
    return routed


def served_error(domain, targets: tuple[str, ...], results) -> float:
    """Σ_t w_t·MSE_t over the distinct objects the results estimated.

    Each object counts once, with its first served estimate: under Zipf
    traffic a hot object is served many times from the same cached
    answers, and counting every serving would weigh the error by
    popularity instead of measuring the estimates.
    """
    first: dict[int, dict[str, float]] = {}
    for result in results:
        for position, object_id in enumerate(result.object_ids):
            if object_id not in first:
                first[object_id] = {
                    target: result.estimates[target][position] for target in targets
                }
    object_ids = sorted(first)
    estimates = {
        target: np.array([first[oid][target] for oid in object_ids]) for target in targets
    }
    query = Query(targets=targets, weights=default_weights(domain, targets))
    return query_error(domain, estimates, object_ids, query)


def serve_checks(report, platform, engine, submitted: int) -> list[Check]:
    """Invariants every serve run must keep."""
    accounted = report.completed + report.degraded + report.shed
    ledger = platform.ledger.total_spent
    reported = math.fsum(result.spent_cents for result in report.results)
    finite = all(
        math.isfinite(value)
        for result in report.results
        for values in result.estimates.values()
        for value in values
    )
    return [
        Check(
            "serve.accounted",
            len(report.results) == submitted and accounted == submitted,
            f"submitted {submitted}, results {len(report.results)}, "
            f"completed+degraded+shed {accounted}",
        ),
        Check(
            "serve.ledger_matches_results",
            abs(ledger - reported) <= SPEND_RTOL * max(1.0, abs(ledger)),
            f"ledger {ledger!r}c vs sum of spent_cents {reported!r}c",
        ),
        Check(
            "serve.nothing_bought_twice",
            report.fresh_answers == engine.cache.total_answers,
            f"report fresh {report.fresh_answers} vs cache {engine.cache.total_answers}",
        ),
        Check("serve.estimates_finite", finite),
    ]


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_payload(report, ledger: dict) -> dict:
    payload = report.to_dict()
    payload.pop("wall_seconds")
    return {"report": payload, "ledger": ledger}


def drive(engine, plan, targets, batches, sim, phase: Phase, deadline_s, tracer=None):
    """Feed dispatch batches through ``engine``, one wave per batch.

    A wave's time runs from its first ``submit`` to the end of its
    ``run()``; building the requests is the harness's work and is not
    timed.  The reference kernel runs after every wave.  Returns the
    final report and each query's simulated arrival→completion latency.
    """
    meter = phase.meter
    latencies: dict[str, float] = {}
    report = None
    meter.probe()
    for wave, (dispatch_at, batch) in enumerate(batches):
        if dispatch_at > sim.now:
            sim.advance(dispatch_at - sim.now)
        requests = [
            QueryRequest(
                query_id=arrival.query_id,
                targets=targets,
                object_ids=arrival.object_ids,
                deadline_s=deadline_s,
            )
            for arrival in batch
        ]
        if tracer is not None:
            tracer.group = f"wave{wave:05d}"
        meter.start()
        for request in requests:
            engine.submit(request, plan)
        report = engine.run()
        phase.add("wave", meter.stop())
        for arrival in batch:
            latencies[arrival.query_id] = sim.now - arrival.at_s
        meter.probe()
    return report, latencies


class Workload:
    name = ""
    #: Set-ups before the first unit (one more follows every unit);
    #: ``setup_s`` is the median over all of them.
    setups = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    @staticmethod
    def obs(meter: DriftMeter, traced: bool):
        """The program's own observability for a traced unit, else none.

        Its tracer times spans on the meter's work clock, which leaves
        out the meter's reference samples.
        """
        if not traced:
            return NULL_OBS
        return Observability(tracer=Tracer(clock=meter.work_clock), metrics=MetricsRegistry())

    def fresh_dir(self, label: str) -> Path:
        directory = self.workdir / label
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        return directory

    def final_checks(self) -> list[Check]:
        return []


class PlanCold(Workload):
    """Cold plans → catalog store → restart hits → held-out serve."""

    name = "plan_cold"
    setups = 15
    #: Catalog-hit segments per pass.
    hit_segments = 5
    n_objects = 500
    objects_per_query = 20

    def setup(self, meter: DriftMeter) -> Phase:
        phase = Phase(meter)
        meter.probe()
        self.domains = {}
        for name in PLAN_COLD_TUPLES:
            self.domains[name], index = meter.timed(build_domain, name, self.n_objects)
            phase.add("build", index)
            meter.probe()
        return phase

    def unit(self, meter: DriftMeter, unit_index: int, tracer=None) -> Phase:
        phase = Phase(meter)
        obs = self.obs(meter, tracer is not None)
        catalog_dir = self.fresh_dir(f"catalog-{unit_index}")
        stored: dict[tuple[str, tuple[str, ...]], str] = {}
        touched: dict[str, set[int]] = {}
        prc = 0.0
        meter.probe()
        for domain_name, tuples in PLAN_COLD_TUPLES.items():
            router, platform = make_router(self.domains[domain_name], catalog_dir, obs)
            for targets in tuples:
                label = f"{domain_name}:{'+'.join(targets)}"
                if tracer is not None:
                    tracer.group = f"plan:{label}"
                routed, index = meter.timed(router.acquire, targets)
                phase.add("plan", index)
                meter.probe()
                phase.attempted += 1
                phase.checks.append(
                    Check("plan.cold_route_fresh", routed.route == "fresh", f"{label}: {routed.route}")
                )
                stored[(domain_name, targets)] = plan_text(routed.plan)
                prc += routed.plan.preprocessing_cost
            touched[domain_name] = {
                int(oid) for oid, _, _ in platform.recorder.tape_lengths()["value"]
            }

        # Restarts: every tuple re-acquired as a hit, eight times per segment.
        hit_plans = {}
        for segment in range(self.hit_segments):
            acquires = []
            for _ in range(HITS_PER_SEGMENT // PLAN_COLD_TUPLE_COUNT):
                for domain_name, tuples in PLAN_COLD_TUPLES.items():
                    router, platform = make_router(self.domains[domain_name], catalog_dir, obs)
                    acquires.extend(
                        (router, platform, targets, (domain_name, targets))
                        for targets in tuples
                    )
            if tracer is not None:
                tracer.group = f"hits{segment}"
            routed = timed_hits(phase, acquires, stored, "plan")
            hit_plans.update({key: item.plan for (*_, key), item in zip(acquires, routed)})

        # Held-out serve with the hit plans: one engine per domain, one
        # query per wave, cold cache.
        errors = []
        spend = 0.0
        queries = 0
        served = []
        for number, (domain_name, tuples) in enumerate(PLAN_COLD_TUPLES.items()):
            domain = self.domains[domain_name]
            held = held_out_queries(
                self.n_objects, touched[domain_name], self.objects_per_query,
                sub_seed(self.seed, 2, number),
            )
            batches = [(targets, chunk) for targets in tuples for chunk in held]
            platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=CROWD_SEED, obs=obs)
            sim = SimulatedClock()
            with ServeEngine(platform, max_queue=64, clock=lambda: sim.now) as engine:
                meter.probe()
                for wave, (targets, chunk) in enumerate(batches):
                    request = QueryRequest(
                        query_id=f"h{wave:04d}", targets=targets, object_ids=chunk
                    )
                    if tracer is not None:
                        tracer.group = f"wave:{domain_name}:{wave:04d}"
                    meter.start()
                    engine.submit(request, hit_plans[(domain_name, targets)])
                    report = engine.run()
                    phase.add("wave", meter.stop())
                    meter.probe()
            queries += len(batches)
            phase.attempted += len(batches)
            phase.failed += report.shed
            phase.checks.extend(serve_checks(report, platform, engine, len(batches)))
            spend += platform.ledger.total_spent
            for targets in tuples:
                mine = [r for r, (t, _) in zip(report.results, batches) if t == targets]
                errors.append(served_error(domain, targets, mine))
            served.append(report_payload(report, platform.ledger.snapshot()))

        phase.outputs = {
            "prc_cents": prc,
            "query_error": statistics.fmean(errors),
            "cents_per_query": spend / queries,
            "queries": queries,
        }
        phase.digest = digest({"plans": sorted(map(str, stored.items())), "serve": served})
        if tracer is not None:
            phase.capture(obs)
        shutil.rmtree(catalog_dir)
        return phase


class ServeWorkload(Workload):
    """Shared set-up and unit loop of the two serve workloads."""

    domain_name = ""
    targets: tuple[str, ...] = ()
    n_objects = 0
    #: Catalog-hit segments per set-up.
    hit_segments = 2
    traffic: Traffic
    deadline_s: float | None = None
    durable = False

    def engine_kwargs(self, sim: SimulatedClock) -> dict:
        return {"max_queue": 4096, "clock": lambda: sim.now}

    def make_engine(self, platform, sim: SimulatedClock, directory: Path | None, resume=False):
        kwargs = self.engine_kwargs(sim)
        if directory is not None:
            kwargs["checkpoint_dir"] = directory
            kwargs["resume"] = resume
        return ServeEngine(platform, **kwargs)

    def serve_platform(self, obs) -> CrowdPlatform:
        return CrowdPlatform(self.domain, recorder=AnswerRecorder(), seed=CROWD_SEED, obs=obs)

    def setup(self, meter: DriftMeter) -> Phase:
        """Domain build → cold plan → store → restart hits → engine."""
        phase = Phase(meter)
        meter.probe()
        self.domain, index = meter.timed(build_domain, self.domain_name, self.n_objects)
        phase.add("build", index)
        meter.probe()
        catalog_dir = self.fresh_dir("setup-catalog")
        router, _ = make_router(self.domain, catalog_dir, NULL_OBS)
        cold, index = meter.timed(router.acquire, self.targets)
        phase.add("plan", index)
        meter.probe()
        phase.attempted += 1
        phase.checks.append(Check("setup.cold_route_fresh", cold.route == "fresh", cold.route))
        stored = {self.targets: plan_text(cold.plan)}
        for _ in range(self.hit_segments):
            acquires = [
                (*make_router(self.domain, catalog_dir, NULL_OBS), self.targets, self.targets)
                for _ in range(HITS_PER_SEGMENT)
            ]
            routed = timed_hits(phase, acquires, stored, "setup")[0]
        self.plan = routed.plan
        self.batches = dispatch_batches(
            generate_traffic(self.traffic, sub_seed(self.seed, 4)), DISPATCH_INTERVAL_S
        )
        sim = SimulatedClock()
        platform = self.serve_platform(NULL_OBS)
        engine_dir = self.fresh_dir("setup-engine") if self.durable else None
        engine, index = meter.timed(self.make_engine, platform, sim, engine_dir)
        phase.add("engine", index)
        meter.probe()
        engine.close()
        shutil.rmtree(catalog_dir)
        if engine_dir is not None:
            shutil.rmtree(engine_dir)
        phase.outputs = {"prc_cents": cold.plan.preprocessing_cost}
        phase.digest = digest(stored[self.targets])
        return phase

    def unit(self, meter: DriftMeter, unit_index: int, tracer=None) -> Phase:
        phase = Phase(meter)
        obs = self.obs(meter, tracer is not None)
        platform = self.serve_platform(obs)
        sim = SimulatedClock()
        directory = self.fresh_dir(f"engine-{unit_index % 2}") if self.durable else None
        submitted = sum(len(batch) for _, batch in self.batches)
        written_before = wchar()
        with self.make_engine(platform, sim, directory) as engine:
            report, latencies = drive(
                engine, self.plan, self.targets, self.batches, sim, phase,
                self.deadline_s, tracer,
            )
        written = wchar() - written_before
        phase.attempted = submitted
        phase.failed = report.shed
        phase.checks = serve_checks(report, platform, engine, submitted)
        ledger = platform.ledger.snapshot()
        phase.outputs = {
            "query_error": served_error(self.domain, self.targets, report.results),
            "cents_per_query": platform.ledger.total_spent / submitted,
            "degraded_share": report.degraded / submitted,
            "sim_latency_p90_s": nearest_rank(list(latencies.values()), 90),
            "queries": submitted,
            "answers": report.fresh_answers,
        }
        if self.deadline_s is not None:
            met = 0
            for res in report.results:
                by_deadline = res.degraded is not None and "deadline" in res.degraded.reasons
                if not by_deadline and latencies[res.query_id] <= self.deadline_s:
                    met += 1
            phase.outputs["deadline_hit_rate"] = met / submitted
        if directory is not None:
            phase.outputs["write_bytes_per_answer"] = written / max(1, report.fresh_answers)
            phase.durable_bytes = {
                path.name: path.stat().st_size for path in sorted(directory.iterdir())
            }
            self.last_run = (directory, report, ledger)
        phase.digest = digest(report_payload(report, ledger))
        if tracer is not None:
            phase.capture(obs)
        return phase


class ServeZipf(ServeWorkload):
    name = "serve_zipf"
    domain_name = "recipes"
    targets = ("protein", "calories")
    n_objects = 3000
    traffic = Traffic(queries=3000, rate_qps=10.0, population=3000, zipf_s=1.1, objects_per_query=4)


class ServeDurable(ServeWorkload):
    name = "serve_durable"
    domain_name = "pictures"
    targets = ("bmi", "age")
    n_objects = 250
    traffic = Traffic(queries=1000, rate_qps=10.0, population=60, zipf_s=1.1, objects_per_query=2)
    deadline_s = 2.0
    durable = True
    # Sized so the simulated crowd clock catches up once the hot set is
    # cached: a few percent of queries degrade and most meet the deadline.
    faults = FaultProfile.uniform(0.05, latency_mean=0.001)
    retry = RetryPolicy(
        max_retries=1, base_delay=0.05, multiplier=2.0, max_delay=0.5,
        jitter=0.1, question_timeout=0.2,
    )

    def engine_kwargs(self, sim: SimulatedClock) -> dict:
        kwargs = super().engine_kwargs(sim)
        kwargs.update(
            faults=self.faults,
            retry=self.retry,
            fault_clock=sim,
            aggregator=make_aggregator("reliability"),
        )
        return kwargs

    def final_checks(self) -> list[Check]:
        """Resume the last unit's directory with a fresh engine and re-serve."""
        directory, report, ledger = self.last_run
        platform = self.serve_platform(NULL_OBS)
        sim = SimulatedClock()
        with self.make_engine(platform, sim, directory, resume=True) as engine:
            for _, batch in self.batches:
                for arrival in batch:
                    engine.submit(
                        QueryRequest(
                            query_id=arrival.query_id,
                            targets=self.targets,
                            object_ids=arrival.object_ids,
                            deadline_s=self.deadline_s,
                        ),
                        self.plan,
                    )
            resumed = engine.run()

        def strip(results):
            payloads = [res.to_dict() for res in results]
            for payload in payloads:
                payload.pop("from_checkpoint")
            return payloads

        return [
            Check("resume.ledger_unchanged", platform.ledger.snapshot() == ledger),
            Check("resume.results_identical", strip(resumed.results) == strip(report.results)),
            Check(
                "resume.served_from_checkpoint",
                all(res.from_checkpoint for res in resumed.results),
            ),
        ]


WORKLOADS = {cls.name: cls for cls in (PlanCold, ServeZipf, ServeDurable)}
