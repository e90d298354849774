"""Command-line interface: plan, evaluate and reproduce from a shell.

Examples::

    python -m repro plan --domain recipes --target protein \
        --b-obj 4 --b-prc 2000
    python -m repro evaluate --domain pictures --target bmi \
        --b-obj 4 --b-prc 2500 --objects 100 --compare
    python -m repro plan --domain recipes --target protein \
        --b-obj 4 --b-prc 2000 --catalog plans/
    python -m repro query --domain recipes --requests requests.json \
        --catalog plans/
    python -m repro sweep --domain recipes --target protein \
        --axis b_obj --values 0.4,1,2,4 --b-prc 2500
    python -m repro coverage --domain laptops --target price
    python -m repro tune --domain recipes --target protein \
        --total 10000 --objects 500

All money amounts are US cents, as everywhere in the library.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from repro.agg import AGGREGATORS
from repro.catalog import (
    PlanCatalog,
    PlanRouter,
    RoutedSubQuery,
    StalenessPolicy,
    build_lineage,
    decompose,
    drift_stats,
    load_request_file,
    write_lineage,
)
from repro.core.disq import DisQParams
from repro.core.online import OnlineEvaluator, query_error
from repro.core.tuning import optimize_budget_split
from repro.crowd.faults import FaultProfile
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder
from repro.domains import (
    make_houses_domain,
    make_laptops_domain,
    make_pictures_domain,
    make_recipes_domain,
    make_synthetic_domain,
)
from repro.durability import CrashInjector, durability_summary, run_disq
from repro.errors import CatalogError, ConfigurationError, DurabilityError
from repro.experiments import (
    ExperimentConfig,
    coverage_experiment,
    render_series,
    render_table,
    sweep_b_obj,
    sweep_b_prc,
)
from repro.experiments.runner import make_query
from repro.obs import NULL_OBS, Observability
from repro.obs.manifest import build_manifest, write_manifest
from repro.serve import ServeEngine, load_query_file
from repro.serve.report import check_object_ids

#: Exit code for bad configuration (flags, budgets, checkpoint mismatch).
EXIT_CONFIGURATION_ERROR = 2
#: Exit code for an unexpected crash mid-run (incl. injected chaos);
#: distinct from configuration errors so wrappers can decide to resume.
EXIT_CRASH = 70

DOMAINS = {
    "pictures": make_pictures_domain,
    "recipes": make_recipes_domain,
    "houses": make_houses_domain,
    "laptops": make_laptops_domain,
    "synthetic": lambda n_objects, seed: make_synthetic_domain(
        n_objects=n_objects, seed=seed
    ),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--domain", choices=sorted(DOMAINS), required=True, help="ground-truth world"
    )
    parser.add_argument(
        "--target",
        action="append",
        required=True,
        help="query attribute (repeatable for multi-target queries)",
    )
    parser.add_argument("--seed", type=int, default=1, help="simulation seed")
    parser.add_argument(
        "--n-objects", type=int, default=300, help="domain size (objects)"
    )
    parser.add_argument(
        "--n1", type=int, default=80, help="statistics examples per pool (paper: 200)"
    )


def _add_manifest(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="collect metrics/phase timings and write a run-manifest JSON here",
    )


def _add_durability(parser: argparse.ArgumentParser, chaos: bool = False) -> None:
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "keep resumable state under DIR (plan/evaluate: one checkpoint "
            "rewritten at each phase boundary; serve: one append-only log; "
            "sweep: one record per finished repetition)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted run from its checkpoint (needs --checkpoint-dir)",
    )
    if chaos:
        parser.add_argument(
            "--chaos-after",
            type=int,
            metavar="N",
            default=None,
            help="fault injection: crash after N crowd interactions",
        )


def _add_aggregator(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--aggregator",
        choices=AGGREGATORS,
        default="uniform",
        help="answer aggregation strategy (uniform = the paper's mean; "
        "reliability learns per-worker trust and feeds the allocator)",
    )


def _make_obs(args) -> Observability:
    """A recording bundle when ``--manifest`` was given, else the no-op."""
    if getattr(args, "manifest", None):
        return Observability.collecting()
    return NULL_OBS


def _make_chaos(args) -> CrashInjector | None:
    """A crash injector when ``--chaos-after N`` was given, else ``None``."""
    if getattr(args, "chaos_after", None) is None:
        return None
    return CrashInjector(at_interactions=args.chaos_after)


def _validate_cents(name: str, value: float) -> float:
    """Admission-time budget validation: finite and non-negative.

    ``float("nan") < 0`` is False, so without an explicit finiteness
    check a NaN budget would sail through every downstream comparison
    and silently disable budget enforcement.
    """
    if not math.isfinite(value) or value < 0:
        raise ConfigurationError(
            f"{name} must be a finite, non-negative cent amount, got {value!r}"
        )
    return float(value)


def _parse_values(text: str) -> list[float]:
    """``--values`` as a list of validated cent amounts."""
    try:
        values = [float(value) for value in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"--values must be comma-separated cent amounts, got {text!r}"
        ) from None
    return [_validate_cents("--values", value) for value in values]


def _validate_count(name: str, value: int) -> int:
    """Admission-time count (repetitions, evaluated objects): at least 1."""
    if value < 1:
        raise ConfigurationError(f"{name} must be at least 1, got {value}")
    return value


def _parse_fault_profile(spec: str | None) -> FaultProfile | None:
    """``--fault-profile RATE[:LATENCY]`` into a uniform fault profile.

    ``RATE`` is the per-category fault rate in [0, 1); ``LATENCY`` the
    mean simulated answer latency in seconds (default 0 — faults
    without latency).  ``0`` (or omitting the flag) disables injection.
    """
    if spec is None:
        return None
    head, _, tail = spec.partition(":")
    try:
        rate = float(head)
        latency = float(tail) if tail else 0.0
    except ValueError:
        raise ConfigurationError(
            f"--fault-profile must be RATE or RATE:LATENCY, got {spec!r}"
        ) from None
    if not math.isfinite(rate) or not 0.0 <= rate < 1.0:
        raise ConfigurationError(f"fault rate must be in [0, 1), got {head!r}")
    if not math.isfinite(latency) or latency < 0:
        raise ConfigurationError(f"fault latency must be >= 0, got {tail!r}")
    if rate == 0.0 and latency == 0.0:
        return None
    return FaultProfile.uniform(rate, latency_mean=latency)


def _add_catalog(parser: argparse.ArgumentParser, staleness: bool = True) -> None:
    parser.add_argument(
        "--catalog",
        metavar="DIR",
        default=None,
        help="persistent plan catalog directory (store plans; reuse them "
        "across runs instead of re-spending B_prc)",
    )
    if staleness:
        parser.add_argument(
            "--max-age-s",
            type=float,
            default=None,
            metavar="SECONDS",
            help="catalog staleness: refresh entries older than this "
            "(default: no age limit)",
        )
        parser.add_argument(
            "--max-drift",
            type=float,
            default=None,
            metavar="Z",
            help="catalog staleness: refresh entries whose recorded target "
            "moments drifted beyond this many (recorded) sigmas "
            "(default: no drift check)",
        )


def _staleness_policy(args) -> StalenessPolicy:
    return StalenessPolicy(
        max_age_s=getattr(args, "max_age_s", None),
        max_drift=getattr(args, "max_drift", None),
    )


def _make_router(
    args, obs: Observability, domain, platform, params: DisQParams
) -> PlanRouter | None:
    """A catalog-backed plan router when ``--catalog DIR`` was given."""
    if not getattr(args, "catalog", None):
        return None
    catalog = PlanCatalog(args.catalog, policy=_staleness_policy(args), obs=obs)
    return PlanRouter(
        catalog, domain, platform, args.b_obj, args.b_prc, params
    )


def _render_routes(router: PlanRouter) -> str:
    """The catalog route table: one line per routed target tuple."""
    lines = ["catalog routes:"]
    for decision in router.decisions:
        lines.append(
            f"  {'+'.join(decision.targets):<24} {decision.describe()}"
        )
    avoided = sum(d.avoided_cents for d in router.decisions)
    spent = sum(d.spent_cents for d in router.decisions)
    lines.append(
        f"  B_prc: spent {spent:.1f}c, avoided {avoided:.1f}c via catalog hits"
    )
    return "\n".join(lines)


def _routes_summary(routed: list[RoutedSubQuery]) -> list[dict]:
    """JSON-friendly per-sub-query route records for the manifest."""
    return [
        {
            "sub_id": item.sub.sub_id,
            "target": item.sub.target,
            "route": item.routed.route,
            "avoided_cents": item.routed.avoided_cents,
            "spent_cents": item.routed.spent_cents,
            "stale_reason": item.routed.stale_reason,
            "reasoning": item.sub.reasoning,
        }
        for item in routed
    ]


def _export_lineage(args, router: PlanRouter) -> None:
    """Write one lineage graph JSON per routed target tuple."""
    if not getattr(args, "lineage_dir", None):
        return
    directory = Path(args.lineage_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for decision in router.decisions:
        name = f"{args.domain}.{'+'.join(decision.targets)}.lineage.json"
        path = write_lineage(directory / name, build_lineage(decision.plan))
        print(f"lineage graph written to {path}")


def _check_durability_flags(args) -> None:
    if getattr(args, "resume", False) and not getattr(args, "checkpoint_dir", None):
        raise ConfigurationError("--resume requires --checkpoint-dir")


def _emit_manifest(
    args, obs: Observability, label: str, plan=None, extra=None, durability=None
) -> None:
    """Write the run manifest when ``--manifest PATH`` was given."""
    if not getattr(args, "manifest", None):
        return
    manifest = build_manifest(
        label, obs, plan=plan, extra=extra, durability=durability
    )
    path = write_manifest(args.manifest, manifest)
    print(f"\nrun manifest written to {path}")


def _resume_hint(args, argv: list[str]) -> str | None:
    """A copy-pasteable resume command after a crash, when possible."""
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if not checkpoint_dir or not any(Path(checkpoint_dir).glob("*")):
        return None
    cleaned: list[str] = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        # Drop the crash injection and any prior --resume; keep the rest.
        if token == "--chaos-after":
            skip = True
            continue
        if token.startswith("--chaos-after=") or token == "--resume":
            continue
        cleaned.append(token)
    return "python -m repro " + " ".join(cleaned + ["--resume"])


def _build(args, obs: Observability | None = None) -> tuple:
    domain = DOMAINS[args.domain](n_objects=args.n_objects, seed=args.seed)
    platform = CrowdPlatform(
        domain, recorder=AnswerRecorder(), seed=args.seed, obs=obs
    )
    query = make_query(domain, tuple(args.target))
    return domain, platform, query


def cmd_plan(args) -> int:
    """Run the offline phase and print the plan."""
    _check_durability_flags(args)
    _validate_cents("--b-obj", args.b_obj)
    _validate_cents("--b-prc", args.b_prc)
    obs = _make_obs(args)
    domain, platform, query = _build(args, obs)
    params = DisQParams(n1=args.n1, aggregator=args.aggregator)
    run = run_disq(
        platform,
        query,
        args.b_obj,
        args.b_prc,
        params,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        chaos=_make_chaos(args),
    )
    plan = run.plan
    if run.resumed:
        print(f"resumed from checkpoint after phase: {run.resumed_from}")
    print(plan.describe())
    router = _make_router(args, obs, domain, platform, params)
    if router is not None:
        # Store under the same key ``repro query`` / ``repro serve``
        # will look up, so a plan built here hits there.
        targets = tuple(args.target)
        path = router.catalog.store(
            router.key_for(targets), plan, stats=drift_stats(domain, targets)
        )
        print(f"plan stored in catalog: {path}")
    _emit_manifest(
        args,
        obs,
        f"plan:{args.domain}:{','.join(args.target)}",
        plan=plan,
        durability=durability_summary(run) if args.checkpoint_dir else None,
    )
    return 0


def cmd_evaluate(args) -> int:
    """Plan, then run the online phase and report the query error."""
    _check_durability_flags(args)
    _validate_cents("--b-obj", args.b_obj)
    _validate_cents("--b-prc", args.b_prc)
    _validate_count("--objects", args.objects)
    obs = _make_obs(args)
    domain, platform, query = _build(args, obs)
    params = DisQParams(n1=args.n1, aggregator=args.aggregator)
    run = run_disq(
        platform,
        query,
        args.b_obj,
        args.b_prc,
        params,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        chaos=_make_chaos(args),
    )
    plan = run.plan
    if run.resumed:
        print(f"resumed from checkpoint after phase: {run.resumed_from}")
    print(plan.describe())
    object_ids = range(min(args.objects, domain.n_objects()))
    # The online phase reuses the planner's fitted reliability model
    # (when the strategy needs one), so the worker trust the offline
    # tapes taught carries into every online weighted mean.
    aggregator = params.build_aggregator(
        model=getattr(run.planner, "reliability_model", None)
    )
    with obs.tracer.span("online"):
        estimates = OnlineEvaluator(
            platform.fork(), plan, aggregator=aggregator
        ).evaluate(object_ids)
    error = query_error(domain, estimates, object_ids, query)
    print(f"\nDisQ weighted query error: {error:.4f}")
    extra = {"query_error": error}
    if args.compare:
        from repro.core.baselines import NaiveAverage

        naive_plan = NaiveAverage(platform.fork(), query, args.b_obj).preprocess()
        naive = OnlineEvaluator(platform.fork(), naive_plan).evaluate(object_ids)
        naive_error = query_error(domain, naive, object_ids, query)
        print(f"NaiveAverage query error:  {naive_error:.4f}")
        extra["naive_query_error"] = naive_error
    _emit_manifest(
        args, obs, f"evaluate:{args.domain}:{','.join(args.target)}",
        plan=plan, extra=extra,
        durability=durability_summary(run) if args.checkpoint_dir else None,
    )
    return 0


def cmd_serve(args) -> int:
    """Serve a query workload through the batched engine."""
    import json

    _check_durability_flags(args)
    _validate_cents("--b-obj", args.b_obj)
    _validate_cents("--b-prc", args.b_prc)
    faults = _parse_fault_profile(args.fault_profile)
    params = DisQParams(n1=args.n1, aggregator=args.aggregator)
    obs = _make_obs(args)
    domain = DOMAINS[args.domain](n_objects=args.n_objects, seed=args.seed)
    platform = CrowdPlatform(
        domain, recorder=AnswerRecorder(), seed=args.seed, obs=obs
    )
    requests = load_query_file(args.queries)
    for request in requests:
        check_object_ids(request.query_id, request.object_ids, domain.n_objects())
    router = _make_router(args, obs, domain, platform, params)
    # The engine owns the serve log; the context manager guarantees it
    # does not outlive the command.
    with ServeEngine(
        platform,
        max_queue=args.max_queue,
        wave_size=args.wave_size,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        faults=faults,
        chaos=_make_chaos(args),
        shed_expired=args.shed_expired,
        # A reliability aggregator starts neutral and learns worker
        # trust online, from the spans the engine commits.
        aggregator=params.build_aggregator(),
        # With a catalog, plan lookup happens inside submit() through
        # the router (cache hit, staleness refresh, or fresh plan).
        plan_source=router.plan_source if router is not None else None,
    ) as engine:
        if engine.resumed:
            print(
                f"resumed serving run: {engine.cache.total_answers} cached "
                f"answers restored, {engine.pending_answers} more from the "
                f"crashed wave"
            )
        # One offline plan per distinct target set; queries sharing
        # targets share the plan (and, through the cache, each other's
        # answers).  With a catalog the router resolves each set —
        # routing here keeps the plan phase's timing span honest, and
        # the engine's plan_source then hits the router's memo.
        plans: dict[tuple[str, ...], object] = {}
        with obs.tracer.span("serve.plan"):
            for request in requests:
                key = request.targets
                if key not in plans:
                    if router is not None:
                        plans[key] = router.acquire(key).plan
                    else:
                        run = run_disq(
                            platform,
                            make_query(domain, key),
                            args.b_obj,
                            args.b_prc,
                            params,
                        )
                        plans[key] = run.plan
        for request in requests:
            if router is not None:
                engine.submit(request)
            else:
                engine.submit(request, plans[request.targets])
        report = engine.run()
    print(report.render())
    if router is not None:
        print(_render_routes(router))
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        print(f"full serve report written to {out}")
    # Keep the manifest extra compact: the per-object estimate vectors
    # live in --out, not in the manifest.
    summary = report.to_dict()
    for result in summary["results"]:
        result.pop("estimates", None)
    extra: dict = {"report": summary}
    if router is not None:
        extra["routes"] = [
            {
                "targets": list(decision.targets),
                "route": decision.route,
                "avoided_cents": decision.avoided_cents,
                "spent_cents": decision.spent_cents,
                "stale_reason": decision.stale_reason,
            }
            for decision in router.decisions
        ]
    _emit_manifest(
        args, obs, f"serve:{args.domain}:{len(requests)}q", extra=extra
    )
    return 0


def cmd_query(args) -> int:
    """Serve a declarative multi-target request spec via the catalog."""
    import json

    _validate_cents("--b-obj", args.b_obj)
    _validate_cents("--b-prc", args.b_prc)
    params = DisQParams(n1=args.n1, aggregator=args.aggregator)
    obs = _make_obs(args)
    domain = DOMAINS[args.domain](n_objects=args.n_objects, seed=args.seed)
    platform = CrowdPlatform(
        domain, recorder=AnswerRecorder(), seed=args.seed, obs=obs
    )
    router = _make_router(args, obs, domain, platform, params)
    assert router is not None  # --catalog is required for this command
    specs = load_request_file(args.requests)
    for spec in specs:
        check_object_ids(spec.request_id, spec.object_ids, domain.n_objects())
    # Decompose every request into per-target sub-queries and route
    # each through the catalog *before* serving: plan money is settled
    # (hit / refresh / fresh) up front, so the serve phase below spends
    # only online B_obj cents.
    routed: list[RoutedSubQuery] = []
    with obs.tracer.span("query.route"):
        for spec in specs:
            routed.extend(router.route_all(decompose(spec)))
    with ServeEngine(
        platform,
        max_queue=args.max_queue,
        wave_size=args.wave_size,
        aggregator=params.build_aggregator(),
        plan_source=router.plan_source,
    ) as engine:
        # Submission goes through the engine's plan_source hook; the
        # router's memo guarantees each sub-query resolves to the very
        # plan its route decision recorded.
        for item in routed:
            engine.submit(item.sub.to_request())
        report = engine.run()
    print(
        f"{len(specs)} request(s) decomposed into {len(routed)} "
        f"sub-queries"
    )
    print("route table:")
    for item in routed:
        print(f"  {item.sub.sub_id:<24} {item.routed.describe()}")
    print(_render_routes(router))
    print()
    print(report.render())
    _export_lineage(args, router)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        print(f"full serve report written to {out}")
    summary = report.to_dict()
    for result in summary["results"]:
        result.pop("estimates", None)
    _emit_manifest(
        args,
        obs,
        f"query:{args.domain}:{len(specs)}r",
        extra={"report": summary, "routes": _routes_summary(routed)},
    )
    return 0


def cmd_sweep(args) -> int:
    """Sweep one budget axis across algorithms and print the series."""
    _check_durability_flags(args)
    _validate_cents("--b-obj", args.b_obj)
    _validate_cents("--b-prc", args.b_prc)
    values = _parse_values(args.values)
    config = ExperimentConfig(
        n_objects=args.n_objects,
        n1=args.n1,
        repetitions=_validate_count("--repetitions", args.repetitions),
        eval_objects=_validate_count("--objects", args.objects),
    )
    obs = _make_obs(args)
    domain, _, query = _build(args)
    algorithms = args.algorithms.split(",")
    if args.axis == "b_obj":
        series = sweep_b_obj(
            algorithms, domain, query, values, args.b_prc, config, obs=obs,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
        )
        print(render_series(series, "B_obj(c)"))
    else:
        series = sweep_b_prc(
            algorithms, domain, query, args.b_obj, values, config, obs=obs,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
        )
        print(render_series(series, "B_prc(c)"))
    _emit_manifest(
        args,
        obs,
        f"sweep:{args.axis}:{args.domain}:{','.join(args.target)}",
        extra={
            "axis": args.axis,
            "values": values,
            "algorithms": algorithms,
            # inf marks infeasible points; JSON has no inf, so use null.
            "series": {
                name: [
                    [budget, None if math.isinf(error) else error]
                    for budget, error in points
                ]
                for name, points in series.items()
            },
        },
    )
    return 0


def cmd_coverage(args) -> int:
    """Run the gold-standard coverage experiment for one target."""
    _validate_cents("--b-obj", args.b_obj)
    _validate_cents("--b-prc", args.b_prc)
    config = ExperimentConfig(
        n_objects=args.n_objects,
        n1=args.n1,
        repetitions=_validate_count("--repetitions", args.repetitions),
    )
    domain, _, _ = _build(args)
    result = coverage_experiment(
        domain, args.target[0], args.b_obj, args.b_prc, config
    )
    print(
        render_table(
            ["measure", "DisQ", "naive"],
            [
                ["per-run coverage", result.coverage_disq, result.coverage_naive],
                [
                    "union coverage",
                    result.union_coverage_disq,
                    result.union_coverage_naive,
                ],
            ],
            precision=2,
        )
    )
    missing = sorted(result.gold - result.discovered_disq)
    if missing:
        print(f"missing from DisQ: {', '.join(missing)}")
    return 0


def cmd_tune(args) -> int:
    """Auto-split one total budget into (B_prc, B_obj)."""
    domain, platform, query = _build(args)
    best, grid = optimize_budget_split(
        platform,
        domain,
        query,
        total_cents=args.total,
        n_objects=args.objects,
        params=DisQParams(n1=args.n1),
    )
    print(
        render_table(
            ["B_obj(c)", "B_prc(c)", "pilot error"],
            [[s.b_obj_cents, s.b_prc_cents, s.pilot_error] for s in grid],
            title=f"budget splits for total {args.total:g}c over {args.objects} objects",
        )
    )
    print(
        f"\nbest: B_obj={best.b_obj_cents:g}c/object, "
        f"B_prc={best.b_prc_cents:g}c (pilot error {best.pilot_error:.4f})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DisQ: dismantling complicated query attributes with crowd",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan = commands.add_parser("plan", help="run the offline phase, print the plan")
    _add_common(plan)
    plan.add_argument("--b-obj", type=float, default=4.0, help="online cents/object")
    plan.add_argument("--b-prc", type=float, default=2000.0, help="offline cents")
    _add_aggregator(plan)
    _add_manifest(plan)
    _add_durability(plan, chaos=True)
    _add_catalog(plan, staleness=False)
    plan.set_defaults(handler=cmd_plan)

    evaluate = commands.add_parser("evaluate", help="plan + online phase + error")
    _add_common(evaluate)
    evaluate.add_argument("--b-obj", type=float, default=4.0)
    evaluate.add_argument("--b-prc", type=float, default=2000.0)
    evaluate.add_argument("--objects", type=int, default=100, help="objects to evaluate")
    evaluate.add_argument(
        "--compare", action="store_true", help="also run NaiveAverage"
    )
    _add_aggregator(evaluate)
    _add_manifest(evaluate)
    _add_durability(evaluate, chaos=True)
    evaluate.set_defaults(handler=cmd_evaluate)

    serve = commands.add_parser(
        "serve", help="serve a query workload with the batched engine"
    )
    serve.add_argument(
        "--domain", choices=sorted(DOMAINS), required=True, help="ground-truth world"
    )
    serve.add_argument(
        "--queries", required=True, metavar="PATH", help="queries.json workload"
    )
    serve.add_argument(
        "--max-queue", type=int, default=64, help="backpressure bound (shed beyond)"
    )
    serve.add_argument(
        "--wave-size", type=int, default=None, help="queries per wave (default: all)"
    )
    serve.add_argument("--seed", type=int, default=1, help="simulation seed")
    serve.add_argument("--n-objects", type=int, default=300, help="domain size")
    serve.add_argument("--n1", type=int, default=80, help="statistics examples/pool")
    serve.add_argument("--b-obj", type=float, default=4.0, help="online cents/object")
    serve.add_argument("--b-prc", type=float, default=2000.0, help="offline cents")
    serve.add_argument(
        "--out", metavar="PATH", default=None, help="write the full report JSON here"
    )
    serve.add_argument(
        "--fault-profile",
        metavar="RATE[:LATENCY]",
        default=None,
        help="inject crowd faults: uniform fault rate in [0,1), optional "
        "mean simulated latency seconds (0 disables)",
    )
    serve.add_argument(
        "--shed-expired",
        action="store_true",
        help="shed (instead of degrading) queries whose deadline already "
        "passed when their wave formed",
    )
    _add_aggregator(serve)
    _add_manifest(serve)
    _add_durability(serve, chaos=True)
    _add_catalog(serve)
    serve.set_defaults(handler=cmd_serve)

    query = commands.add_parser(
        "query",
        help="serve a declarative multi-target request spec through the "
        "plan catalog",
    )
    query.add_argument(
        "--domain", choices=sorted(DOMAINS), required=True, help="ground-truth world"
    )
    query.add_argument(
        "--requests",
        required=True,
        metavar="PATH",
        help="request-spec JSON: a list of {id, targets, objects, "
        "predicates?, deadline_s?} documents",
    )
    query.add_argument(
        "--catalog",
        required=True,
        metavar="DIR",
        help="persistent plan catalog directory (created on first store)",
    )
    query.add_argument(
        "--max-age-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="catalog staleness: refresh entries older than this",
    )
    query.add_argument(
        "--max-drift",
        type=float,
        default=None,
        metavar="Z",
        help="catalog staleness: refresh entries whose recorded target "
        "moments drifted beyond this many (recorded) sigmas",
    )
    query.add_argument(
        "--max-queue", type=int, default=64, help="backpressure bound (shed beyond)"
    )
    query.add_argument(
        "--wave-size", type=int, default=None, help="queries per wave (default: all)"
    )
    query.add_argument("--seed", type=int, default=1, help="simulation seed")
    query.add_argument("--n-objects", type=int, default=300, help="domain size")
    query.add_argument("--n1", type=int, default=80, help="statistics examples/pool")
    query.add_argument("--b-obj", type=float, default=4.0, help="online cents/object")
    query.add_argument("--b-prc", type=float, default=2000.0, help="offline cents")
    query.add_argument(
        "--lineage-dir",
        metavar="DIR",
        default=None,
        help="export each routed plan's attribute-lineage graph JSON here",
    )
    query.add_argument(
        "--out", metavar="PATH", default=None, help="write the full report JSON here"
    )
    _add_aggregator(query)
    _add_manifest(query)
    query.set_defaults(handler=cmd_query)

    sweep = commands.add_parser("sweep", help="budget sweep across algorithms")
    _add_common(sweep)
    sweep.add_argument("--axis", choices=("b_obj", "b_prc"), required=True)
    sweep.add_argument("--values", required=True, help="comma-separated cents")
    sweep.add_argument("--b-obj", type=float, default=4.0)
    sweep.add_argument("--b-prc", type=float, default=2500.0)
    sweep.add_argument("--objects", type=int, default=60)
    sweep.add_argument("--repetitions", type=int, default=2)
    sweep.add_argument(
        "--algorithms", default="DisQ,SimpleDisQ,NaiveAverage",
        help="comma-separated registry names",
    )
    _add_manifest(sweep)
    _add_durability(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    coverage = commands.add_parser("coverage", help="gold-standard coverage")
    _add_common(coverage)
    coverage.add_argument("--b-obj", type=float, default=4.0)
    coverage.add_argument("--b-prc", type=float, default=6000.0)
    coverage.add_argument("--repetitions", type=int, default=3)
    coverage.set_defaults(handler=cmd_coverage)

    tune = commands.add_parser("tune", help="auto-split a total budget")
    _add_common(tune)
    tune.add_argument("--total", type=float, required=True, help="total cents")
    tune.add_argument("--objects", type=int, required=True, help="database size")
    tune.set_defaults(handler=cmd_tune)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point (``python -m repro ...``).

    Exit codes: 0 on success, :data:`EXIT_CONFIGURATION_ERROR` (2) for
    bad configuration, a damaged catalog, or a checkpoint or serve log
    that cannot be resumed, :data:`EXIT_CRASH` (70) for an unexpected
    crash mid-run — in which case a ready-to-paste ``--resume`` command
    is printed when the checkpoint directory holds recoverable state (a
    fresh plan, evaluate, serve or sweep removes an earlier run's state
    first, so what a crash leaves there is its own).
    """
    effective_argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(effective_argv)
    try:
        return args.handler(args)
    except CatalogError as exc:
        # Catalog damage or contention is an operator problem, never a
        # silently-served stale plan: same exit code as bad flags.
        print(f"catalog error: {exc}", file=sys.stderr)
        return EXIT_CONFIGURATION_ERROR
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIGURATION_ERROR
    except DurabilityError as exc:
        # A checkpoint or serve log this build cannot trust: resuming
        # it again would fail the same way, so no resume hint.
        print(f"durability error: {exc}", file=sys.stderr)
        return EXIT_CONFIGURATION_ERROR
    except Exception as exc:  # noqa: BLE001 - crash boundary by design
        print(f"crashed: {exc}", file=sys.stderr)
        hint = _resume_hint(args, effective_argv)
        if hint:
            print(f"resume with: {hint}", file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
