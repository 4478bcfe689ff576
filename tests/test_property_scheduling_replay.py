"""Property-based tests for comparison scheduling and replay schedules."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduling import (
    BubbleSortScheduler,
    FullPairScheduler,
    InsertionSortScheduler,
    MergeSortScheduler,
    drive_scheduler,
)
from repro.html.parser import parse_html
from repro.render.replay import (
    SelectorSchedule,
    UniformRandomSchedule,
    compute_reveal_times,
)

version_lists = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4),
    min_size=2,
    max_size=7,
    unique=True,
)

scheduler_classes = st.sampled_from(
    [FullPairScheduler, BubbleSortScheduler, InsertionSortScheduler, MergeSortScheduler]
)


class TestSchedulerProperties:
    @given(version_lists, scheduler_classes, st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_any_comparator_terminates_with_permutation(
        self, versions, scheduler_class, random_source
    ):
        """Even an adversarial random comparator must terminate and yield a
        permutation of the inputs."""
        scheduler = scheduler_class(versions)
        ranking = drive_scheduler(
            scheduler,
            lambda l, r: random_source.choice(["left", "right", "same"]),
        )
        assert sorted(ranking) == sorted(versions)

    @given(version_lists, scheduler_classes)
    @settings(max_examples=100)
    def test_consistent_comparator_recovers_order(self, versions, scheduler_class):
        truth = {v: i for i, v in enumerate(sorted(versions))}
        scheduler = scheduler_class(versions)
        ranking = drive_scheduler(
            scheduler, lambda l, r: "left" if truth[l] < truth[r] else "right"
        )
        assert ranking == sorted(versions)

    @given(version_lists, scheduler_classes)
    @settings(max_examples=100)
    def test_comparison_count_bounded(self, versions, scheduler_class):
        n = len(versions)
        scheduler = scheduler_class(versions)
        truth = {v: i for i, v in enumerate(sorted(versions))}
        drive_scheduler(
            scheduler, lambda l, r: "left" if truth[l] < truth[r] else "right"
        )
        full = n * (n - 1) // 2
        # Bubble sort may exceed C(n,2) but is bounded by (n-1) passes.
        bound = (n - 1) * (n - 1) if scheduler_class is BubbleSortScheduler else full
        assert scheduler.comparisons_used <= max(bound, 1)


PAGE = parse_html(
    """
<div id="a"><p>alpha text</p></div>
<div id="b"><p class="deep">beta text</p><span>gamma</span></div>
"""
)

selectors = st.sampled_from(["#a", "#b", "p", ".deep", "div", "span", "#a p"])
schedule_entries = st.lists(
    st.tuples(selectors, st.floats(0, 10_000, allow_nan=False)),
    min_size=0,
    max_size=4,
)


class TestReplayProperties:
    @given(st.floats(0, 60_000, allow_nan=False), st.integers(0, 2**31))
    @settings(max_examples=100)
    def test_uniform_times_bounded(self, duration, seed):
        times = compute_reveal_times(PAGE, UniformRandomSchedule(duration), seed=seed)
        assert all(0 <= t <= duration for t in times.values())

    @given(schedule_entries, st.floats(0, 5000, allow_nan=False))
    @settings(max_examples=150)
    def test_parent_visible_before_children(self, entries, default_ms):
        schedule = SelectorSchedule.from_pairs(entries, default_ms=default_ms)
        times = compute_reveal_times(PAGE, schedule)
        index = {key: t for key, t in times.items()}
        body = PAGE.body
        for element in body.iter_elements():
            parent = element.parent
            if parent is not None and id(parent) in index and id(element) in index:
                assert index[id(parent)] <= index[id(element)]

    @given(schedule_entries, st.floats(0, 5000, allow_nan=False))
    @settings(max_examples=100)
    def test_parameter_round_trip(self, entries, default_ms):
        from repro.render.replay import schedule_from_parameter

        schedule = SelectorSchedule.from_pairs(entries, default_ms=0.0)
        restored = schedule_from_parameter(schedule.to_parameter())
        assert restored.entries == schedule.entries

    @given(schedule_entries)
    @settings(max_examples=100)
    def test_times_within_schedule_span(self, entries):
        schedule = SelectorSchedule.from_pairs(entries, default_ms=0.0)
        times = compute_reveal_times(PAGE, schedule)
        span = max((t for _, t in entries), default=0.0)
        assert all(0 <= t <= span for t in times.values())
