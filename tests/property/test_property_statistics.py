"""Property-based tests for the statistics store invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import (
    StatisticsStore,
    variance_estimate,
)


class TestVarianceEstimateProperties:
    @given(st.lists(st.floats(-1e4, 1e4), min_size=0, max_size=12))
    def test_nonnegative(self, answers):
        assert variance_estimate(answers) >= 0.0

    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=12))
    def test_shift_invariant(self, answers):
        shifted = [a + 17.5 for a in answers]
        assert variance_estimate(shifted) == (
            __import__("pytest").approx(variance_estimate(answers), rel=1e-6, abs=1e-6)
        )

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=12),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_scale_quadratic(self, answers, scale):
        import pytest

        scaled = [a * scale for a in answers]
        assert variance_estimate(scaled) == pytest.approx(
            variance_estimate(answers) * scale**2, rel=1e-6, abs=1e-6
        )

    @given(st.floats(-1e3, 1e3), st.integers(min_value=2, max_value=10))
    def test_constant_answers_zero_variance(self, value, count):
        import pytest

        assert variance_estimate([value] * count) == pytest.approx(0.0, abs=1e-12)


@st.composite
def populated_store(draw):
    """A single-target store with 1-3 attributes of random crowd data."""
    seed = draw(st.integers(0, 10_000))
    n_attributes = draw(st.integers(1, 3))
    n_examples = draw(st.integers(5, 40))
    k = draw(st.integers(2, 3))
    rng = np.random.default_rng(seed)
    store = StatisticsStore(("t",), k=k)
    pool = store.pool("t")
    target = rng.normal(0, 2, n_examples)
    for i in range(n_examples):
        pool.add_example(i, float(target[i]))
    for index in range(n_attributes):
        name = f"a{index}"
        mixing = rng.uniform(-1, 1)
        true = mixing * target + rng.normal(0, 1, n_examples)
        noise = rng.uniform(0.05, 2.0)
        batches = [
            [float(true[i] + rng.normal(0, np.sqrt(noise))) for _ in range(k)]
            for i in range(n_examples)
        ]
        store.register_attribute(name, {"t"})
        pool.record_answers(name, batches)
    return store


class TestStoreInvariants:
    @given(populated_store())
    @settings(max_examples=40, deadline=None)
    def test_scalar_statistics_nonnegative(self, store):
        for attribute in store.attributes:
            assert store.s_c(attribute) >= 0.0
            assert store.answer_variance(attribute) > 0.0
            # S_o is signed; only its magnitude is bounded by construction.
            s_o = store.s_o_measured("t", attribute)
            assert s_o is None or abs(s_o) < 1e6

    @given(populated_store())
    @settings(max_examples=40, deadline=None)
    def test_s_a_symmetric(self, store):
        for a in store.attributes:
            for b in store.attributes:
                assert store.s_a_entry(a, b) == store.s_a_entry(b, a)

    @given(populated_store())
    @settings(max_examples=40, deadline=None)
    def test_shrunk_never_exceeds_measured(self, store):
        for attribute in store.attributes:
            measured = store.s_o_measured("t", attribute)
            shrunk = store.s_o_shrunk("t", attribute)
            if measured is not None:
                assert abs(shrunk) <= abs(measured) + 1e-12
                assert shrunk * measured >= 0.0  # sign preserved (or zero)

    @given(populated_store())
    @settings(max_examples=40, deadline=None)
    def test_assemble_consistency(self, store):
        attributes = list(store.attributes)
        s_o, s_a, s_c = store.assemble(attributes, "t")
        target_variance = store.target_variance("t")
        diag = np.diag(s_a)
        assert (diag > 0).all()
        assert np.allclose(s_a, s_a.T)
        # Cauchy-Schwarz after projection.
        cap = store.RHO_CAP
        for i in range(len(attributes)):
            assert abs(s_o[i]) <= cap * np.sqrt(diag[i] * target_variance) + 1e-9
            for j in range(len(attributes)):
                if i != j:
                    assert abs(s_a[i, j]) <= cap * np.sqrt(diag[i] * diag[j]) + 1e-9

    @given(populated_store())
    @settings(max_examples=40, deadline=None)
    def test_rho_in_unit_interval(self, store):
        for attribute in store.attributes:
            rho = store.rho("t", attribute)
            if rho is not None:
                assert -1.0 <= rho <= 1.0


# ----------------------------------------------------------------------
# The memo against a freshly computed oracle
# ----------------------------------------------------------------------

ATTRIBUTES = ("a", "b", "c")
answer_values = st.integers(-40, 40).map(lambda value: value / 4)


@st.composite
def store_steps(draw):
    """A target count and a random interleaving of store mutations.

    Answers may land on pools an attribute is not paired with, so a
    widened pairing or a re-registration changes what ``S_c`` reads.
    """
    targets = tuple(f"t{index}" for index in range(draw(st.integers(2, 3))))
    target = st.sampled_from(targets)
    attribute = st.sampled_from(ATTRIBUTES)
    # Every pool starts with a few examples, so answers have somewhere
    # to land from the first step on.
    examples = [
        ("add_example", name, value)
        for name in targets
        for value in draw(st.lists(answer_values, min_size=1, max_size=4))
    ]
    step = st.one_of(
        st.tuples(st.just("add_example"), target, answer_values),
        st.tuples(
            st.just("record_answers"),
            target,
            attribute,
            st.lists(st.lists(answer_values, max_size=3), max_size=3),
        ),
        st.tuples(
            st.just("append_to_batch"),
            target,
            attribute,
            st.integers(0, 10),
            st.lists(answer_values, min_size=1, max_size=2),
        ),
        st.tuples(
            st.just("register_attribute"),
            attribute,
            st.frozensets(target, max_size=len(targets)),
        ),
        st.tuples(st.just("drop_attribute"), attribute),
    )
    return targets, examples + draw(st.lists(step, min_size=10, max_size=30))


def apply_step(store: StatisticsStore, step: tuple) -> None:
    """Run one step; batches beyond the pool's examples are cut off."""
    kind, *args = step
    if kind == "add_example":
        target, value = args
        pool = store.pool(target)
        pool.add_example(len(pool), value)
    elif kind == "record_answers":
        target, attribute, batches = args
        pool = store.pool(target)
        room = len(pool) - pool.n_measured(attribute)
        pool.record_answers(attribute, batches[:room])
    elif kind == "append_to_batch":
        target, attribute, index, answers = args
        pool = store.pool(target)
        measured = pool.n_measured(attribute)
        if measured:
            pool.append_to_batch(attribute, index % measured, answers)
    elif kind == "register_attribute":
        attribute, paired = args
        store.register_attribute(attribute, set(paired))
    else:
        store.drop_attribute(*args)


def read_everything(store: StatisticsStore) -> list[tuple[str, object]]:
    """Every memoized statistic over the live attributes.

    Pairs are read in one fixed order: the memo shares an entry between
    ``(a, b)`` and ``(b, a)``, as it always has.
    """
    live = sorted(store.attributes)
    reads: list[tuple[str, object]] = []
    for attribute in live:
        reads.append((f"s_c {attribute}", store.s_c(attribute)))
        reads.append((f"denoised {attribute}", store._denoised_variance(attribute)))
    for target in store.targets:
        reads.append((f"target_variance {target}", store.target_variance(target)))
        for attribute in live:
            pair = f"{target} {attribute}"
            reads.append((f"s_o {pair}", store.s_o_measured(target, attribute)))
            reads.append((f"s_o_shrunk {pair}", store.s_o_shrunk(target, attribute)))
            reads.append((f"rho {pair}", store.rho(target, attribute)))
    for i, first in enumerate(live):
        for second in live[i:]:
            pair = f"{first} {second}"
            reads.append((f"s_a_entry {pair}", store.s_a_entry(first, second)))
            reads.append((f"s_a_shrunk {pair}", store._s_a_shrunk(first, second)))
    for target in store.targets:
        reads.append((f"assemble {target}", store.assemble(live, target)))
    return reads


def read_fresh(store: StatisticsStore) -> list[tuple[str, object]]:
    """:func:`read_everything` with an empty memo, which is then put back.

    Putting the memo back keeps each example's memo evolving as it would
    without the oracle, so a stale entry can surface steps later.
    """
    memo = dict(store._cache)
    aligned = {name: dict(pool._aligned) for name, pool in store.pools.items()}
    store._cache.clear()
    for pool in store.pools.values():
        pool._aligned.clear()
    try:
        return read_everything(store)
    finally:
        store._cache.clear()
        store._cache.update(memo)
        for name, pool in store.pools.items():
            pool._aligned.clear()
            pool._aligned.update(aligned[name])


def assert_identical(label: str, memoized, fresh) -> None:
    if fresh is None:
        assert memoized is None, label
    elif isinstance(fresh, tuple):
        for memoized_array, fresh_array in zip(memoized, fresh):
            assert np.array_equal(memoized_array, fresh_array), label
    else:
        assert memoized == fresh, label


class TestMemoAgainstFreshReads:
    @given(store_steps())
    @settings(max_examples=200, deadline=None)
    def test_every_read_matches_an_empty_memo(self, program):
        targets, steps = program
        store = StatisticsStore(targets, k=2)
        for step in steps:
            apply_step(store, step)
            fresh = read_fresh(store)
            memoized = read_everything(store)
            assert [label for label, _ in memoized] == [label for label, _ in fresh]
            for (label, value), (_, expected) in zip(memoized, fresh):
                assert_identical(f"{label} after {step}", value, expected)
