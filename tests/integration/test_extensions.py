"""Integration tests wiring the extension features through real plans."""

from repro.core.disq import DisQParams, DisQPlanner
from repro.core.metrics import boolean_report
from repro.core.model import Query
from repro.core.online import OnlineEvaluator
from repro.crowd.platform import CrowdPlatform
from repro.crowd.recording import AnswerRecorder


class TestBooleanQueryPipeline:
    def test_boolean_target_scores_well(self, recipes_domain):
        platform = CrowdPlatform(recipes_domain, recorder=AnswerRecorder(), seed=1)
        query = Query(targets=("dessert",))
        params = DisQParams(n1=40)
        plan = DisQPlanner(platform, query, 2.0, 1200.0, params).preprocess()
        oids = range(60)
        estimates = OnlineEvaluator(platform.fork(), plan).evaluate(oids)
        report = boolean_report(recipes_domain, estimates["dessert"], oids, "dessert")
        assert report.f1 > 0.7
