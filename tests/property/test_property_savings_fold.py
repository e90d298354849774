"""Property tests: a wave's batched savings fold equals per-entry booking.

The serving engine books a wave's cache-hit savings with one
:meth:`~repro.crowd.pricing.CostLedger.record_savings` call over its
``(hits × price, hits)`` entries, in accounting order.  A float total
depends on the order its terms are added in, so the batch must add the
costs to the running total one by one, as one
:meth:`~repro.crowd.pricing.CostLedger.record_saving` per entry does:
the ledger snapshot (which the serve log commits and the golden digests
pin) and the ``crowd.saved.*`` counters must keep their exact bits.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.pricing import CATEGORIES, CostLedger
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry

#: Value price per attribute: the paper's binary and numeric prices and
#: a scaled price, whose products and sums round differently.
PRICES = {"flag": 0.1, "protein": 0.4, "calories": 0.4 * 1.3}

#: A wave's cache hits as (attribute, hits) spans.
spans = st.lists(
    st.tuples(st.sampled_from(sorted(PRICES)), st.integers(1, 60)), max_size=60
)

#: Savings already booked before the drawn spans (earlier waves).
earlier = st.tuples(st.floats(0.0, 1e4), st.integers(0, 10_000))


def ledger_after(start: tuple[float, int]) -> CostLedger:
    """A metered ledger that already holds ``start`` savings."""
    ledger = CostLedger(metrics=MetricsRegistry())
    cost, count = start
    ledger.record_saving("value", cost, count)
    return ledger


def entries_of(drawn: list[tuple[str, int]]) -> list[tuple[float, int]]:
    """The engine's savings entries: ``(hits * price, hits)`` per span."""
    return [(hits * PRICES[attribute], hits) for attribute, hits in drawn]


def state(ledger: CostLedger) -> tuple[str, dict]:
    """Snapshot bytes and every counter of the ledger's registry."""
    assert isinstance(ledger.metrics, MetricsRegistry)
    return json.dumps(ledger.snapshot()), ledger.metrics.counters()


class TestSavingsFold:
    @given(earlier, spans, st.lists(st.integers(0, 60), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_batches_equal_per_entry_booking(self, start, drawn, cuts):
        """Any split into per-wave batches books the per-entry bits."""
        entries = entries_of(drawn)
        per_entry = ledger_after(start)
        for cost, count in entries:
            per_entry.record_saving("value", cost, count)
        batched = ledger_after(start)
        bounds = [0, *sorted(min(cut, len(entries)) for cut in cuts), len(entries)]
        for low, high in zip(bounds, bounds[1:]):
            batched.record_savings("value", entries[low:high])
        snapshot, counters = state(batched)
        assert (snapshot, counters) == state(per_entry)
        # 1 == 1.0 in Python: pin the counters' types as well.
        assert {name: type(value) for name, value in counters.items()} == {
            name: type(value) for name, value in state(per_entry)[1].items()
        }

    @given(
        earlier,
        spans,
        st.integers(0, 60),
        st.sampled_from([(-0.1, 1), (0.4, -1), (-1e-300, 0)]),
    )
    @settings(max_examples=100, deadline=None)
    def test_negative_entry_leaves_ledger_unchanged(self, start, drawn, at, bad):
        ledger = ledger_after(start)
        before = state(ledger)
        entries = entries_of(drawn)
        entries.insert(min(at, len(entries)), bad)
        with pytest.raises(ConfigurationError):
            ledger.record_savings("value", entries)
        assert state(ledger) == before

    @given(
        earlier,
        spans,
        st.text(min_size=1, max_size=8).filter(lambda name: name not in CATEGORIES),
    )
    @settings(max_examples=100, deadline=None)
    def test_unknown_category_leaves_ledger_unchanged(self, start, drawn, category):
        ledger = ledger_after(start)
        before = state(ledger)
        with pytest.raises(ConfigurationError):
            ledger.record_savings(category, entries_of(drawn))
        assert state(ledger) == before
