"""Rate-monotonic substrate: Liu–Layland, LSD exact test, RTA equivalence."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.rm import (
    ExactRMTest,
    GroupedExactRMTest,
    hyperbolic_bound_holds,
    liu_layland_bound,
    response_time_analysis,
)
from repro.errors import MessageSetError


class TestLiuLaylandBound:
    def test_single_task(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)

    def test_two_tasks(self):
        assert liu_layland_bound(2) == pytest.approx(2 * (2 ** 0.5 - 1))

    def test_limit_is_ln2(self):
        assert liu_layland_bound(10_000) == pytest.approx(np.log(2), rel=1e-4)

    def test_monotone_decreasing(self):
        bounds = [liu_layland_bound(n) for n in range(1, 20)]
        assert bounds == sorted(bounds, reverse=True)

    def test_rejects_zero(self):
        with pytest.raises(MessageSetError):
            liu_layland_bound(0)


class TestHyperbolicBound:
    def test_single_full_task(self):
        assert hyperbolic_bound_holds([1.0])

    def test_dominates_liu_layland(self):
        # A set at the LL bound lies exactly on the hyperbolic boundary
        # (prod(1+u) == 2); back off a hair to stay clear of float noise.
        for n in (2, 3, 5, 10):
            u = liu_layland_bound(n) / n * (1 - 1e-12)
            assert hyperbolic_bound_holds([u] * n)

    def test_rejects_overload(self):
        assert not hyperbolic_bound_holds([0.8, 0.8])

    def test_rejects_negative_utilization(self):
        with pytest.raises(MessageSetError):
            hyperbolic_bound_holds([-0.1])


class TestExactTestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(MessageSetError):
            ExactRMTest([])

    def test_rejects_unsorted(self):
        with pytest.raises(MessageSetError):
            ExactRMTest([10.0, 5.0])

    def test_rejects_nonpositive_period(self):
        with pytest.raises(MessageSetError):
            ExactRMTest([0.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("cls", [ExactRMTest, GroupedExactRMTest])
    def test_rejects_non_finite_period(self, cls, bad):
        periods = [1.0, bad] if bad > 0 else [bad, 1.0]
        with pytest.raises(MessageSetError, match="finite"):
            cls(periods)

    def test_scheduling_points_single_task(self):
        test = ExactRMTest([4.0])
        assert list(test.scheduling_points(0)) == [4.0]

    def test_scheduling_points_classic(self):
        # R_3 for periods (4, 6, 10): multiples of 4 (4, 8), of 6 (6), of
        # 10 (10) up to 10.
        test = ExactRMTest([4.0, 6.0, 10.0])
        assert list(test.scheduling_points(2)) == [4.0, 6.0, 8.0, 10.0]

    def test_n_streams(self):
        assert ExactRMTest([1.0, 2.0]).n_streams == 2


class TestExactTestHandComputed:
    """The classic (C, P) = ((1,2,3), (4,6,10)) example: exactly saturated."""

    def test_schedulable(self):
        test = ExactRMTest([4.0, 6.0, 10.0])
        assert test.is_schedulable([1.0, 2.0, 3.0])

    def test_saturated_lowest_priority(self):
        test = ExactRMTest([4.0, 6.0, 10.0])
        ratio, point = test.stream_load_ratio(2, [1.0, 2.0, 3.0])
        # At t = 10: 3*1 + 2*2 + 3 = 10 -> ratio exactly 1.
        assert ratio == pytest.approx(1.0)
        assert point == 10.0

    def test_any_growth_breaks_it(self):
        test = ExactRMTest([4.0, 6.0, 10.0])
        assert not test.is_schedulable([1.0, 2.0, 3.001])
        assert not test.is_schedulable([1.001, 2.0, 3.0])

    def test_middle_stream_ratio(self):
        test = ExactRMTest([4.0, 6.0, 10.0])
        ratio, point = test.stream_load_ratio(1, [1.0, 2.0, 3.0])
        # At t = 6: 2*1 + 2 = 4 -> 4/6.
        assert ratio == pytest.approx(4.0 / 6.0)
        assert point == 6.0

    def test_blocking_shifts_verdict(self):
        test = ExactRMTest([4.0, 6.0, 10.0])
        # The set is exactly saturated, so any blocking breaks it.
        assert not test.is_schedulable([1.0, 2.0, 3.0], blocking=0.01)

    def test_details_report(self):
        test = ExactRMTest([4.0, 6.0, 10.0])
        details = test.details([1.0, 2.0, 3.0])
        assert [d.schedulable for d in details] == [True, True, True]
        assert details[0].min_load_ratio == pytest.approx(0.25)


class TestExactTestValidation:
    def test_wrong_cost_count(self):
        with pytest.raises(MessageSetError):
            ExactRMTest([1.0, 2.0]).is_schedulable([1.0])

    def test_negative_cost(self):
        with pytest.raises(MessageSetError):
            ExactRMTest([1.0]).is_schedulable([-1.0])

    def test_negative_blocking(self):
        with pytest.raises(MessageSetError):
            ExactRMTest([1.0]).is_schedulable([0.5], blocking=-1.0)

    def test_zero_costs_always_schedulable(self):
        assert ExactRMTest([1.0, 2.0, 3.0]).is_schedulable([0.0, 0.0, 0.0])


class TestResponseTimeAnalysis:
    def test_hand_computed(self):
        responses = response_time_analysis([1.0, 2.0, 3.0], [4.0, 6.0, 10.0])
        assert responses[0] == pytest.approx(1.0)
        assert responses[1] == pytest.approx(3.0)
        assert responses[2] == pytest.approx(10.0)

    def test_blocking_adds(self):
        responses = response_time_analysis([1.0], [4.0], blocking=0.5)
        assert responses[0] == pytest.approx(1.5)

    def test_overload_exceeds_deadline(self):
        responses = response_time_analysis([3.0, 4.0], [4.0, 6.0])
        assert responses[1] > 6.0

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(MessageSetError):
            response_time_analysis([1.0], [4.0, 6.0])

    def test_rejects_unsorted_periods(self):
        with pytest.raises(MessageSetError):
            response_time_analysis([1.0, 1.0], [6.0, 4.0])


@st.composite
def random_task_set(draw):
    """Small random task sets with utilizations spanning the boundary."""
    n = draw(st.integers(min_value=1, max_value=6))
    periods = sorted(
        draw(
            st.lists(
                st.floats(min_value=1.0, max_value=100.0),
                min_size=n,
                max_size=n,
            )
        )
    )
    target_u = draw(st.floats(min_value=0.1, max_value=1.3))
    shares = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
        )
    )
    total = sum(shares)
    costs = [s / total * target_u * p for s, p in zip(shares, periods)]
    blocking = draw(st.floats(min_value=0.0, max_value=5.0))
    return costs, periods, blocking


class TestLSDvsRTA:
    """The two exact characterizations must agree everywhere."""

    @settings(max_examples=200, deadline=None)
    @given(task_set=random_task_set())
    def test_equivalence(self, task_set):
        costs, periods, blocking = task_set
        lsd = ExactRMTest(periods).is_schedulable(costs, blocking)
        responses = response_time_analysis(costs, periods, blocking)
        # On the exact knife edge (a response within one relative ulp-band
        # of its deadline, e.g. C=P=1, B=1e-10) the two formulations may
        # legitimately land on opposite sides of the float boundary; the
        # equivalence claim only binds away from it.
        for r, p in zip(responses, periods):
            assume(abs(r - p) > 1e-9 * p)
        rta = all(r <= p for r, p in zip(responses, periods))
        assert lsd == rta

    @settings(max_examples=100, deadline=None)
    @given(task_set=random_task_set())
    def test_liu_layland_is_sufficient(self, task_set):
        costs, periods, _ = task_set
        utilization = sum(c / p for c, p in zip(costs, periods))
        if utilization <= liu_layland_bound(len(costs)):
            assert ExactRMTest(periods).is_schedulable(costs)

    @settings(max_examples=100, deadline=None)
    @given(task_set=random_task_set())
    def test_monotone_in_costs(self, task_set):
        """Shrinking every cost never breaks schedulability."""
        costs, periods, blocking = task_set
        test = ExactRMTest(periods)
        if test.is_schedulable(costs, blocking):
            smaller = [c * 0.5 for c in costs]
            assert test.is_schedulable(smaller, blocking)

    @settings(max_examples=100, deadline=None)
    @given(task_set=random_task_set())
    def test_utilization_above_one_unschedulable(self, task_set):
        costs, periods, blocking = task_set
        utilization = sum(c / p for c, p in zip(costs, periods))
        if utilization > 1.0 + 1e-9:
            assert not ExactRMTest(periods).is_schedulable(costs, blocking)


# -- structure byte-identity ----------------------------------------------------
#
# The per-distinct-period loops below are the scheduling-point and
# demand-matrix builders the vectorized one replaced, kept verbatim as a
# test-only reference: the structure must come out byte for byte the same,
# so every verdict, cache key and Figure 1 number is unchanged.


def _reference_exact_structure(periods):
    n = periods.size
    distinct, inverse = np.unique(periods, return_inverse=True)
    group_counts = np.bincount(inverse, minlength=distinct.size)
    offsets = np.concatenate(([0], np.cumsum(group_counts)))
    group_points: list[np.ndarray] = []
    group_coef: list[np.ndarray] = []
    for t, d_t in enumerate(distinct):
        multiples = [
            d_u * np.arange(1, int(np.floor(d_t / d_u + 1e-12)) + 1)
            for d_u in distinct[: t + 1]
        ]
        pts = np.unique(np.concatenate(multiples))
        group_points.append(pts)
        group_coef.append(
            np.ceil(pts[:, None] / distinct[None, : t + 1] - 1e-9)
        )
    segments = [group_points[t] for t in inverse]
    counts = np.array([s.size for s in segments], dtype=np.intp)
    starts = np.zeros(n, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    flat_points = np.concatenate(segments)
    matrix = np.zeros((flat_points.size, n))
    for t in range(distinct.size):
        pts = group_points[t]
        coef = group_coef[t]
        before = np.repeat(coef[:, :t], group_counts[:t], axis=1)
        own = coef[:, t]
        for g in range(group_counts[t]):
            i = offsets[t] + g
            rows = slice(starts[i], starts[i] + pts.size)
            if t > 0:
                matrix[rows, : offsets[t]] = before
            if g > 0:
                matrix[rows, offsets[t]: i] = own[:, None]
            matrix[rows, i] = 1.0
    return starts, flat_points, flat_points * (1.0 + 1e-12), matrix


def _reference_grouped_structure(periods):
    distinct = np.unique(periods)
    m = distinct.size
    group_points: list[np.ndarray] = []
    group_coef: list[np.ndarray] = []
    for g, d_g in enumerate(distinct):
        multiples = [
            d_u * np.arange(1, int(np.floor(d_g / d_u + 1e-12)) + 1)
            for d_u in distinct[: g + 1]
        ]
        pts = np.unique(np.concatenate(multiples))
        group_points.append(pts)
        group_coef.append(
            np.ceil(pts[:, None] / distinct[None, : g + 1] - 1e-9)
        )
    counts = np.array([p.size for p in group_points], dtype=np.intp)
    starts = np.zeros(m, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    flat_points = np.concatenate(group_points)
    matrix = np.zeros((flat_points.size, m))
    for g in range(m):
        rows = slice(starts[g], starts[g] + counts[g])
        matrix[rows, : g + 1] = group_coef[g]
    return starts, flat_points, flat_points * (1.0 + 1e-12), matrix


_STRUCTURE = ("_segment_starts", "_flat_points", "_flat_thresholds", "_matrix")


def _assert_byte_identical(test, reference):
    for name, expected in zip(_STRUCTURE, reference):
        actual = getattr(test, name)
        assert actual.shape == expected.shape, name
        assert actual.dtype == expected.dtype, name
        assert actual.tobytes() == expected.tobytes(), name


_HARMONIC_S = [0.008 * 2**k for k in range(6)]  # 8 .. 256 ms


@st.composite
def structure_periods(draw):
    """Period vectors (seconds, RM order) across the families where the
    scheduling-point dedupe and the ceil tolerance are exercised."""
    n = draw(st.integers(min_value=1, max_value=24))
    family = draw(
        st.sampled_from(["continuous", "harmonic", "near_integral", "tied"])
    )
    if family == "continuous":
        elements = st.floats(min_value=0.0182, max_value=0.1818)
    elif family == "harmonic":
        elements = st.sampled_from(_HARMONIC_S)
    elif family == "near_integral":
        # 0.1·k and 0.3 land just off integral multiples of 0.1.
        elements = st.sampled_from([0.1 * k for k in range(1, 13)] + [0.3])
    else:
        catalogue = draw(
            st.lists(
                st.floats(min_value=0.0182, max_value=0.1818),
                min_size=1,
                max_size=3,
            )
        )
        elements = st.sampled_from(catalogue)
    periods = draw(st.lists(elements, min_size=n, max_size=n))
    return np.sort(np.asarray(periods, dtype=float))


class TestStructureByteIdentity:
    @settings(max_examples=300, deadline=None)
    @given(periods=structure_periods())
    def test_exact_matches_reference(self, periods):
        _assert_byte_identical(
            ExactRMTest(periods), _reference_exact_structure(periods)
        )

    @settings(max_examples=300, deadline=None)
    @given(periods=structure_periods(), data=st.data())
    def test_grouped_matches_reference(self, periods, data):
        shuffled = data.draw(st.permutations(list(periods)))
        _assert_byte_identical(
            GroupedExactRMTest(shuffled), _reference_grouped_structure(periods)
        )

    @pytest.mark.parametrize(
        "periods",
        [
            [0.05],
            [0.1, 0.3],
            [0.1, 0.2, 0.3, 0.7],
            [0.04, 0.04, 0.04],
            _HARMONIC_S,
        ],
    )
    def test_pinned_vectors(self, periods):
        arr = np.asarray(periods, dtype=float)
        _assert_byte_identical(ExactRMTest(arr), _reference_exact_structure(arr))
        _assert_byte_identical(
            GroupedExactRMTest(arr), _reference_grouped_structure(arr)
        )
