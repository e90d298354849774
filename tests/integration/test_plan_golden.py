"""Golden digests of seven cold plans.

A characterization test: it plans the recipes tuples ``protein``,
``calories``, ``healthy`` and ``protein+calories``, then the pictures
tuples ``bmi``, ``age`` and ``bmi+age``, in that order, each through a
fresh-catalog :class:`~repro.catalog.query.PlanRouter`, and pins the
SHA-256 of every serialized plan.  The planner's statistics memo, the
crowd's answer draws and the allocator all feed these bytes, so a
speed-up that changes which arithmetic runs, or on which inputs, fails
here instead of silently moving a coefficient.

Re-recording is legitimate only for a change that means to alter the
planner's answers or arithmetic (a new answer stream for the planner,
say, or a numpy upgrade that moves its generators).  Re-record every
digest from one commit and check that nothing else changed in the same
diff.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import CrowdPlatform, DisQParams
from repro.catalog import PlanCatalog, PlanRouter, serialize_plan
from repro.crowd.recording import AnswerRecorder
from repro.domains import make_pictures_domain, make_recipes_domain

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

DOMAINS = {"recipes": make_recipes_domain, "pictures": make_pictures_domain}


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
            text = json.dumps(serialize_plan(routed.plan), sort_keys=True)
            digests[(name, targets)] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_cold_plans_are_byte_identical(tmp_path):
    assert plan_digests(tmp_path) == GOLDEN
