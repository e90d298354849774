"""Golden digests of seven cold plans and three split-pool plans.

A characterization test: it plans the recipes tuples ``protein``,
``calories``, ``healthy`` and ``protein+calories``, then the pictures
tuples ``bmi``, ``age`` and ``bmi+age``, in that order, each through a
fresh-catalog :class:`~repro.catalog.query.PlanRouter`, and pins the
SHA-256 of every serialized plan.  Those plans share one example pool
across targets; the split-pool planners of Figure 4 (``DisQSplit``,
``Full``, ``OneConnection``), whose per-target pools exercise the
pairing rule and pooled multi-pool statistics, are pinned on pictures
``bmi+age`` too, and must not depend on the string-hash seed.  The
planner's statistics memo, the crowd's answer draws and the allocator
all feed these bytes, so a speed-up that changes which arithmetic
runs, or on which inputs, fails here instead of silently moving a
coefficient.

Re-recording is legitimate only for a change that means to alter the
planner's answers or arithmetic (a new answer stream for the planner,
say, or a numpy upgrade that moves its generators).  Re-record every
digest from one commit and check that nothing else changed in the same
diff.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CrowdPlatform, DisQParams
from repro.catalog import PlanCatalog, PlanRouter, serialize_plan
from repro.crowd.recording import AnswerRecorder
from repro.domains import make_pictures_domain, make_recipes_domain
from repro.experiments.config import algorithm
from repro.experiments.runner import make_query

pytestmark = pytest.mark.catalog

#: Per tuple, in planning order: SHA-256 of the sorted-key JSON plan.
GOLDEN = {
    ("recipes", ("protein",)): (
        "4462975b45eb1be234544bbb619ce2f76309fb3be6bcf203a6bd9b047dff2b8f"
    ),
    ("recipes", ("calories",)): (
        "b9c43b97bf670226bc6cd5c4b55fc98a7c4d3e9857c3edc13072a3631c7c246c"
    ),
    ("recipes", ("healthy",)): (
        "4b5c0fb864945f5be014b0a3efa7f0e9cc61cefcdac78b31d4c28f65ad7fe2e4"
    ),
    ("recipes", ("protein", "calories")): (
        "46bb543096b1e65eb519ba213098b67028d75401ae69405c293c08d08f402573"
    ),
    ("pictures", ("bmi",)): (
        "1e1de6ca4f0abf5869963bf617bdbdf45fdd7a0e8b418a1e6f164455fd249133"
    ),
    ("pictures", ("age",)): (
        "24002d98487e9bd949d51b1717181d6d92134ee75597b255e188c08aef152568"
    ),
    ("pictures", ("bmi", "age")): (
        "bf2dcf3902b3553cde7b8de3191c97bd3ad8ee97268818aa05a707a428f6db7c"
    ),
}

#: Per split-pool planner: SHA-256 of its sorted-key JSON plan for
#: pictures ``bmi+age`` (250 objects, ``N_1`` = 40, ``B_obj`` 0.4c,
#: ``B_prc`` 5000c, platform seed 0).
SPLIT_GOLDEN = {
    "DisQSplit": (
        "2d9468b93a69aca03bb38a074ed612729081b9f4bc22f3e17ffde19ae7009aac"
    ),
    "Full": (
        "0ba6ea98921be94d9a1d80dafa3bc7390f740a471c8ce765d779628a5fa35812"
    ),
    "OneConnection": (
        "7ace28576baff5e3e9b2bc8233f05bf5fca1ce571324ebf70ca3e8a65c43e2bb"
    ),
}

#: ``PYTHONHASHSEED`` values the split-pool plans are compared under.
HASH_SEEDS = ("0", "1", "4")

DOMAINS = {"recipes": make_recipes_domain, "pictures": make_pictures_domain}


def _digest(plan) -> str:
    text = json.dumps(serialize_plan(plan), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def plan_digests(directory) -> dict[tuple[str, tuple[str, ...]], str]:
    """Cold-plan every golden tuple, one router per domain."""
    digests = {}
    for name, factory in DOMAINS.items():
        domain = factory(n_objects=500, seed=1)
        platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=3)
        router = PlanRouter(
            PlanCatalog(directory), domain, platform, 4.0, 1500.0, DisQParams(n1=40)
        )
        for domain_name, targets in GOLDEN:
            if domain_name != name:
                continue
            routed = router.acquire(targets)
            assert routed.route == "fresh"
            digests[(name, targets)] = _digest(routed.plan)
    return digests


def split_plan_digests() -> dict[str, str]:
    """Plan pictures ``bmi+age`` with every split-pool planner."""
    domain = make_pictures_domain(n_objects=250, seed=1)
    query = make_query(domain, ("bmi", "age"))
    digests = {}
    for name in SPLIT_GOLDEN:
        platform = CrowdPlatform(domain, recorder=AnswerRecorder(), seed=0)
        plan = algorithm(name)(platform, query, 0.4, 5000.0, DisQParams(n1=40))
        digests[name] = _digest(plan)
    return digests


def test_cold_plans_are_byte_identical(tmp_path):
    assert plan_digests(tmp_path) == GOLDEN


def test_split_pool_plans_are_byte_identical():
    assert split_plan_digests() == SPLIT_GOLDEN


def test_split_pool_plans_ignore_the_string_hash_seed():
    """Set iteration order follows ``PYTHONHASHSEED``; pooled statistics
    and per-pool measurements visit pools in query-target order instead,
    so every hash seed yields one plan per planner."""
    root = Path(__file__).resolve().parents[2]
    script = (
        "import json; from tests.integration.test_plan_golden import "
        "split_plan_digests; print(json.dumps(split_plan_digests()))"
    )
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=root,
            env=dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            ),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    ]
    outputs = [run.communicate(timeout=600) for run in runs]
    for run, (_, stderr) in zip(runs, outputs):
        assert run.returncode == 0, stderr
    digests = [json.loads(out) for out, _ in outputs]
    assert len(digests[0]) == len(SPLIT_GOLDEN)
    assert all(found == digests[0] for found in digests), dict(zip(HASH_SEEDS, digests))
