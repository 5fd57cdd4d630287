"""Rate-monotonic scheduling theory (the substrate of Theorem 4.1).

The paper's PDP analysis is the Lehoczky–Sha–Ding (LSD) exact
characterization of rate-monotonic schedulability, extended with protocol
overheads (augmented message lengths ``C'_i``) and a blocking term ``B``.
This module implements the underlying theory in task-level terms:

* :func:`liu_layland_bound` — the classic sufficient utilization bound
  ``n (2^{1/n} - 1)`` of Liu & Layland.
* :func:`hyperbolic_bound_holds` — Bini's hyperbolic sufficient test, a
  tighter polynomial-time check used to seed saturation searches.
* :class:`ExactRMTest` — the LSD exact test over the scheduling points
  ``R_i = { l·P_k : k <= i, 1 <= l <= floor(P_i/P_k) }`` with an additive
  blocking term, exactly the form of the paper's equation (4).  The test
  structure (scheduling points and the ``ceil(t/P_j)`` interference
  matrices) depends only on the periods, so it is precomputed once and then
  evaluated for many cost vectors — the breakdown search and the bandwidth
  sweep both exploit this heavily.
* :func:`response_time_analysis` — the equivalent iterative fixed-point
  test, kept as an independent oracle for property tests.

Throughout, tasks/streams are indexed in rate-monotonic priority order:
index 0 has the shortest period (highest priority).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import MessageSetError

__all__ = [
    "liu_layland_bound",
    "hyperbolic_bound_holds",
    "ExactRMTest",
    "GroupedExactRMTest",
    "StreamTestDetail",
    "response_time_analysis",
]


def liu_layland_bound(n: int) -> float:
    """The Liu–Layland sufficient utilization bound ``n (2^{1/n} - 1)``.

    Any set of ``n`` independent periodic tasks with total utilization at
    or below this bound is RM-schedulable.  Tends to ``ln 2 ≈ 0.693`` as
    ``n`` grows.
    """
    if n < 1:
        raise MessageSetError(f"need at least one task, got {n!r}")
    return n * (2.0 ** (1.0 / n) - 1.0)


def hyperbolic_bound_holds(utilizations: Sequence[float]) -> bool:
    """Bini's hyperbolic sufficient test: ``prod (U_i + 1) <= 2``.

    Strictly dominates the Liu–Layland bound (never rejects a set the LL
    bound accepts).  Used as a cheap pre-filter.
    """
    product = 1.0
    for u in utilizations:
        if u < 0:
            raise MessageSetError(f"utilization must be non-negative, got {u!r}")
        product *= u + 1.0
    return product <= 2.0


@dataclass(frozen=True)
class StreamTestDetail:
    """Per-stream outcome of the exact test.

    Attributes:
        index: stream position in RM priority order.
        schedulable: whether this stream meets its deadline.
        min_load_ratio: the minimized left-hand side of equation (4) —
            strictly below 1 means unsaturated, exactly 1 saturated,
            above 1 unschedulable.
        critical_point: the scheduling point ``t`` achieving the minimum.
    """

    index: int
    schedulable: bool
    min_load_ratio: float
    critical_point: float


def _scheduling_points(distinct: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every priority level's scheduling points, in one vectorized pass.

    ``distinct`` holds the distinct periods in increasing order.  Level
    ``t``'s points are the multiples ``l·d_u`` with ``u <= t`` and
    ``1 <= l <= floor(d_t/d_u + 1e-12)``, sorted and deduplicated.
    Returns ``(points, counts)``: all levels' points concatenated in level
    order, and the number of points per level.
    """
    level, base = np.tril_indices(distinct.size)
    counts = np.floor(distinct[level] / distinct[base] + 1e-12).astype(np.intp)
    # Expand every (level, base, l) triple, l running 1..counts per pair.
    ends = np.cumsum(counts)
    multiple = np.arange(1, ends[-1] + 1) - np.repeat(ends - counts, counts)
    level = np.repeat(level, counts)
    values = np.repeat(distinct[base], counts) * multiple
    order = np.lexsort((values, level))
    values = values[order]
    level = level[order]
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = (values[1:] != values[:-1]) | (level[1:] != level[:-1])
    return values[keep], np.bincount(level[keep], minlength=distinct.size)


def _demand_matrix(
    points: np.ndarray, owner: np.ndarray, periods: np.ndarray
) -> np.ndarray:
    """The interference matrix ``ceil(t/P_j - 1e-9)`` over rows ``t``.

    Row ``r`` belongs to priority level ``owner[r]``; its columns
    ``j > owner[r]`` (lower priorities) are zero.  The tolerance keeps
    floating-point noise from pushing ``ceil`` up a step when ``t/P_j``
    is integral (``t`` is an exact multiple of some period).  One
    allocation, filled in place.
    """
    matrix = np.empty((points.size, periods.size))
    np.divide(points[:, None], periods, out=matrix)
    np.subtract(matrix, 1e-9, out=matrix)
    np.ceil(matrix, out=matrix)
    np.copyto(matrix, 0.0, where=np.arange(periods.size) > owner[:, None])
    return matrix


class ExactRMTest:
    """The Lehoczky–Sha–Ding exact test with precomputed structure.

    Construction is a fixed number of numpy calls, with no Python loop
    over streams or periods: ``O(K log K)`` to generate and deduplicate
    the ``K = sum_{u <= t} floor(d_t/d_u)`` candidate multiples over the
    ``m`` distinct periods ``d``, plus ``O(sum_i |R_i| * n)`` time and
    memory for the stacked demand matrix (the scheduling points of all
    streams in one flat matrix).  Evaluating one cost vector is a single
    matrix–vector product plus a per-stream OR-reduction, and a whole
    batch of cost vectors (:meth:`is_schedulable_batch`) is a single
    matrix–matrix product.

    Args:
        periods: task periods in *non-decreasing* order (RM priority
            order).  A non-monotone sequence is rejected: silently sorting
            would desynchronize the caller's cost vector.
    """

    def __init__(self, periods: Sequence[float]):
        periods_arr = np.asarray(periods, dtype=float)
        if periods_arr.ndim != 1 or periods_arr.size == 0:
            raise MessageSetError("periods must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(periods_arr)) or np.any(periods_arr <= 0):
            raise MessageSetError("periods must be positive and finite")
        if np.any(np.diff(periods_arr) < 0):
            raise MessageSetError(
                "periods must be in non-decreasing (rate-monotonic) order"
            )
        self._periods = periods_arr
        self._build_structure()

    # -- structure ---------------------------------------------------------------

    def _build_structure(self) -> None:
        """Precompute scheduling points and the stacked demand matrix.

        For stream ``i`` the scheduling points are all multiples ``l·P_k``
        with ``k <= i`` and ``l·P_k <= P_i`` — the times at which a
        higher-priority busy period can end.  All streams' points are
        stacked into one flat demand matrix with a row per point ``t``
        holding ``ceil(t / P_j)`` for every higher-priority stream ``j``
        and an exact 1 in column ``i`` (the stream's own cost), so that
        *one* matrix–vector product evaluates every stream's equation (4)
        demand simultaneously, and a batch of cost vectors is one
        matrix–matrix product.  ``_segment_starts`` records where each
        stream's rows begin (for the per-stream OR-reduction and the
        per-stream report slices).
        """
        periods = self._periods
        n = periods.size
        # Streams sharing a period share their scheduling points, so the
        # points are generated once per distinct period and each stream's
        # segment is gathered from its period's level.
        distinct, inverse = np.unique(periods, return_inverse=True)
        level_points, level_counts = _scheduling_points(distinct)
        level_starts = np.cumsum(level_counts) - level_counts
        counts = level_counts[inverse]
        starts = np.zeros(n, dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        owner = np.repeat(np.arange(n), counts)
        rows = np.arange(owner.size)
        flat_points = level_points[
            rows + np.repeat(level_starts[inverse] - starts, counts)
        ]
        matrix = _demand_matrix(flat_points, owner, periods)
        matrix[rows, owner] = 1.0
        self._segment_starts = starts
        self._flat_points = flat_points
        self._flat_thresholds = flat_points * (1.0 + 1e-12)
        self._matrix = matrix

    def _segment(self, index: int) -> slice:
        """Row range of stream ``index`` in the stacked structure."""
        start = self._segment_starts[index]
        end = (
            self._segment_starts[index + 1]
            if index + 1 < self._periods.size
            else self._flat_points.size
        )
        return slice(start, end)

    @property
    def periods(self) -> np.ndarray:
        """The period vector (read-only view)."""
        view = self._periods.view()
        view.flags.writeable = False
        return view

    @property
    def n_streams(self) -> int:
        """Number of streams the test was built for."""
        return self._periods.size

    def scheduling_points(self, index: int) -> np.ndarray:
        """The scheduling points ``R_i`` for stream ``index`` (a copy)."""
        return self._flat_points[self._segment(index)].copy()

    # -- evaluation --------------------------------------------------------------

    def _validate_costs(self, costs: Sequence[float]) -> np.ndarray:
        arr = np.asarray(costs, dtype=float)
        if arr.shape != self._periods.shape:
            raise MessageSetError(
                f"expected {self._periods.size} costs, got shape {arr.shape}"
            )
        if np.any(arr < 0):
            raise MessageSetError("costs must be non-negative")
        return arr

    def _stream_load_ratio(
        self, index: int, arr: np.ndarray, blocking: float
    ) -> tuple[float, float]:
        """:meth:`stream_load_ratio` on an already-validated cost array."""
        rows = self._segment(index)
        points = self._flat_points[rows]
        interference = self._matrix[rows, :index]
        demand = interference @ arr[:index] + arr[index] + blocking
        ratios = demand / points
        best = int(np.argmin(ratios))
        return float(ratios[best]), float(points[best])

    def stream_load_ratio(
        self, index: int, costs: Sequence[float], blocking: float = 0.0
    ) -> tuple[float, float]:
        """Minimized LHS of equation (4) for one stream.

        Returns ``(min_ratio, critical_point)``; the stream is schedulable
        iff ``min_ratio <= 1``.
        """
        return self._stream_load_ratio(index, self._validate_costs(costs), blocking)

    def _evaluate(self, arr: np.ndarray, blocking: float) -> bool:
        """:meth:`is_schedulable` on an already-validated cost array."""
        demand = self._matrix @ arr + blocking
        ok = demand <= self._flat_thresholds
        return bool(np.logical_or.reduceat(ok, self._segment_starts).all())

    def is_schedulable(
        self, costs: Sequence[float], blocking: float = 0.0
    ) -> bool:
        """True iff every stream passes the exact test.

        One matrix–vector product over the stacked structure evaluates
        every stream's demand at every scheduling point simultaneously; a
        per-stream OR-reduction then checks that each stream has at least
        one point where the demand fits.
        """
        arr = self._validate_costs(costs)
        if blocking < 0:
            raise MessageSetError(f"blocking must be non-negative, got {blocking!r}")
        return self._evaluate(arr, blocking)

    def is_schedulable_batch(
        self, costs_matrix: Sequence[Sequence[float]], blocking: float = 0.0
    ) -> np.ndarray:
        """Evaluate many cost vectors against the shared structure at once.

        ``costs_matrix`` has one row per candidate cost vector (shape
        ``(batch, n_streams)``); the return value is a boolean array with
        one verdict per row.  Validation runs once for the whole batch and
        the entire evaluation is a single stacked matrix product plus one
        OR-reduction, so a batch of ``B`` evaluations costs far less than
        ``B`` calls to :meth:`is_schedulable`.
        """
        mat = np.asarray(costs_matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != self._periods.size:
            raise MessageSetError(
                f"expected a (batch, {self._periods.size}) cost matrix, "
                f"got shape {mat.shape}"
            )
        if np.any(mat < 0):
            raise MessageSetError("costs must be non-negative")
        if blocking < 0:
            raise MessageSetError(f"blocking must be non-negative, got {blocking!r}")
        demand = mat @ self._matrix.T + blocking
        ok = demand <= self._flat_thresholds
        return np.logical_or.reduceat(ok, self._segment_starts, axis=1).all(axis=1)

    def details(
        self, costs: Sequence[float], blocking: float = 0.0
    ) -> list[StreamTestDetail]:
        """Full per-stream report (no early exit).

        Costs are validated once up front; the per-stream minimization runs
        on the validated array directly (re-validating per stream would
        make the report O(n²) in the stream count).
        """
        arr = self._validate_costs(costs)
        report = []
        for i in range(arr.size):
            ratio, point = self._stream_load_ratio(i, arr, blocking)
            report.append(
                StreamTestDetail(
                    index=i,
                    schedulable=ratio <= 1.0 + 1e-12,
                    min_load_ratio=ratio,
                    critical_point=point,
                )
            )
        return report


class GroupedExactRMTest:
    """The LSD exact test aggregated over *distinct* periods.

    :class:`ExactRMTest` stacks one demand-matrix segment per stream, so
    its memory is ``O(sum_i |R_i| * n)`` — terabytes for 10^6 streams even
    with a small period catalogue.  This variant exploits the structure of
    equation (4) under shared periods: every member of a period group sees
    the same scheduling points and the same ``ceil(t/P)`` coefficients,
    and within a group the *last* member in RM order is binding (its
    demand is the group base plus the full group cost sum; every earlier
    member's demand is the base plus a prefix of that sum, which is never
    larger).  The whole set is therefore schedulable iff for every
    distinct period ``d_g`` there is a scheduling point ``t <= d_g`` with

        ``sum_{u <= g} ceil(t / d_u) * S_u + B <= t``

    where ``S_u`` is the summed cost of group ``u``.  The matrix has one
    column per *distinct period* (``m`` columns, not ``n``), making the
    structure independent of stream count: evaluation is an ``O(n)``
    group-sum (one ``bincount``) plus an ``O(points x m)`` product.

    The verdict is identical to :class:`ExactRMTest` for every cost
    vector (pinned by tests and the ``columnar_equiv`` fuzz property);
    intermediate demands may differ in the last bits because group costs
    are summed before the matrix product rather than inside it.

    Unlike :class:`ExactRMTest`, construction accepts periods in *any*
    order — RM priority is derived from the period values, and cost
    vectors are aggregated positionally against the constructor order.
    """

    def __init__(self, periods: Sequence[float]):
        periods_arr = np.asarray(periods, dtype=float)
        if periods_arr.ndim != 1 or periods_arr.size == 0:
            raise MessageSetError("periods must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(periods_arr)) or np.any(periods_arr <= 0):
            raise MessageSetError("periods must be positive and finite")
        self._periods = periods_arr
        self._distinct, self._inverse = np.unique(
            periods_arr, return_inverse=True
        )
        self._build_structure()

    def _build_structure(self) -> None:
        """Precompute per-group scheduling points and the m-column matrix.

        The own-group column (``u == g``) keeps its computed coefficient
        ``ceil(t/d_g - 1e-9)``, which is exactly 1.0 for every point
        ``t <= d_g`` — precisely the binding member's own-cost
        coefficient in the dense test.
        """
        distinct = self._distinct
        m = distinct.size
        flat_points, counts = _scheduling_points(distinct)
        starts = np.zeros(m, dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        owner = np.repeat(np.arange(m), counts)
        self._segment_starts = starts
        self._flat_points = flat_points
        self._flat_thresholds = flat_points * (1.0 + 1e-12)
        self._matrix = _demand_matrix(flat_points, owner, distinct)

    @property
    def periods(self) -> np.ndarray:
        """The period vector in constructor order (read-only view)."""
        view = self._periods.view()
        view.flags.writeable = False
        return view

    @property
    def n_streams(self) -> int:
        """Number of streams the test was built for."""
        return self._periods.size

    @property
    def n_groups(self) -> int:
        """Number of distinct periods (matrix columns)."""
        return self._distinct.size

    # -- evaluation --------------------------------------------------------------

    def _validate_costs(self, costs: Sequence[float]) -> np.ndarray:
        arr = np.asarray(costs, dtype=float)
        if arr.shape != self._periods.shape:
            raise MessageSetError(
                f"expected {self._periods.size} costs, got shape {arr.shape}"
            )
        if np.any(arr < 0):
            raise MessageSetError("costs must be non-negative")
        return arr

    def _group_sums(self, arr: np.ndarray) -> np.ndarray:
        """Per-distinct-period cost sums ``S_u`` (one bincount pass)."""
        return np.bincount(
            self._inverse, weights=arr, minlength=self._distinct.size
        )

    def _evaluate_sums(self, sums: np.ndarray, blocking: float) -> bool:
        demand = self._matrix @ sums + blocking
        ok = demand <= self._flat_thresholds
        return bool(np.logical_or.reduceat(ok, self._segment_starts).all())

    def _evaluate(self, arr: np.ndarray, blocking: float) -> bool:
        """:meth:`is_schedulable` on an already-validated cost array
        (the duck-typed fast path :meth:`PDPAnalysis.scale_prober` uses)."""
        return self._evaluate_sums(self._group_sums(arr), blocking)

    def is_schedulable(
        self, costs: Sequence[float], blocking: float = 0.0
    ) -> bool:
        """True iff every stream passes the exact test (binding-member
        check per distinct-period group; see the class docstring)."""
        arr = self._validate_costs(costs)
        if blocking < 0:
            raise MessageSetError(f"blocking must be non-negative, got {blocking!r}")
        return self._evaluate_sums(self._group_sums(arr), blocking)

    def is_schedulable_batch(
        self, costs_matrix: Sequence[Sequence[float]], blocking: float = 0.0
    ) -> np.ndarray:
        """One verdict per row of a ``(batch, n_streams)`` cost matrix."""
        mat = np.asarray(costs_matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[1] != self._periods.size:
            raise MessageSetError(
                f"expected a (batch, {self._periods.size}) cost matrix, "
                f"got shape {mat.shape}"
            )
        if np.any(mat < 0):
            raise MessageSetError("costs must be non-negative")
        if blocking < 0:
            raise MessageSetError(f"blocking must be non-negative, got {blocking!r}")
        order = np.argsort(self._inverse, kind="stable")
        group_starts = np.searchsorted(
            self._inverse[order], np.arange(self._distinct.size)
        )
        sums = np.add.reduceat(mat[:, order], group_starts, axis=1)
        demand = sums @ self._matrix.T + blocking
        ok = demand <= self._flat_thresholds
        return np.logical_or.reduceat(ok, self._segment_starts, axis=1).all(axis=1)

    def is_schedulable_scaled(
        self,
        base_costs: Sequence[float],
        scales: Sequence[float],
        blocking: float = 0.0,
    ) -> np.ndarray:
        """Verdicts for ``scale * base_costs`` across many scales at once.

        Avoids materializing the ``(batch, n_streams)`` cost matrix the
        generic batch API would need — the group sums of the base costs
        are computed once and the scale factors applied to the ``m``-wide
        sums instead, so a whole scale sweep over a million-stream set
        costs one bincount plus one small matrix product.
        """
        arr = self._validate_costs(base_costs)
        scale_arr = np.asarray(scales, dtype=float)
        if scale_arr.ndim != 1:
            raise MessageSetError("scales must be a 1-D sequence")
        if np.any(scale_arr < 0):
            raise MessageSetError("scales must be non-negative")
        if blocking < 0:
            raise MessageSetError(f"blocking must be non-negative, got {blocking!r}")
        sums = self._group_sums(arr)
        demand = scale_arr[:, None] * (self._matrix @ sums)[None, :] + blocking
        ok = demand <= self._flat_thresholds
        return np.logical_or.reduceat(ok, self._segment_starts, axis=1).all(axis=1)


def response_time_analysis(
    costs: Sequence[float],
    periods: Sequence[float],
    blocking: float = 0.0,
    max_iterations: int = 10_000,
) -> list[float]:
    """Iterative response-time analysis (Joseph & Pandya / Audsley).

    Computes, for each stream in RM order, the fixed point of

        ``R = C_i + B + sum_{j<i} ceil(R / P_j) * C_j``.

    The stream is schedulable iff its response time is at most its period.
    The iteration is cut off once ``R`` exceeds the period (the exact value
    past the deadline is irrelevant) and the period+cost upper bound is
    returned in that case, capped for reporting.

    This is mathematically equivalent to the LSD test and serves as an
    independent oracle in property tests.
    """
    costs_arr = np.asarray(costs, dtype=float)
    periods_arr = np.asarray(periods, dtype=float)
    if costs_arr.shape != periods_arr.shape:
        raise MessageSetError("costs and periods must have matching shapes")
    if np.any(np.diff(periods_arr) < 0):
        raise MessageSetError("periods must be in non-decreasing order")
    if np.any(costs_arr < 0) or np.any(periods_arr <= 0) or blocking < 0:
        raise MessageSetError("costs/blocking must be >= 0 and periods > 0")

    response_times: list[float] = []
    for i in range(costs_arr.size):
        deadline = periods_arr[i]
        response = costs_arr[i] + blocking
        for _ in range(max_iterations):
            interference = np.sum(
                np.ceil(response / periods_arr[:i] - 1e-9) * costs_arr[:i]
            )
            updated = costs_arr[i] + blocking + interference
            if updated > deadline * (1.0 + 1e-12):
                response = updated
                break
            if abs(updated - response) <= 1e-12 * max(1.0, deadline):
                response = updated
                break
            response = updated
        response_times.append(float(response))
    return response_times
