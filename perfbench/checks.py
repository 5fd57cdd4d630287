"""Correctness checks and regime assertions.

Each function takes plain outputs of a run and returns :class:`Check`
records; ``perfbench/tests`` feeds each one a corrupted output to show it
fails.  A check whose inputs are missing reports ``not-run``, which the
benchmark counts as a failure, never as a pass.
"""

from __future__ import annotations

import math

from perfbench.common import Check, check

__all__ = [
    "population_checks",
    "shape_checks",
    "oracle_checks",
    "validation_checks",
    "within",
    "not_run",
]


def not_run(name: str, reason: str) -> Check:
    return Check(name, "not-run", reason)


def within(name: str, value, lo: float | None = None,
           hi: float | None = None) -> Check:
    """Regime assertion ``lo <= value <= hi`` (either bound optional)."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return not_run(name, "no value measured")
    ok = (lo is None or value >= lo) and (hi is None or value <= hi)
    bounds = f"[{'-inf' if lo is None else lo}, {'inf' if hi is None else hi}]"
    return check(name, ok, f"{value:.6g} in {bounds}")


def population_checks(ledger: dict, server: dict | None, analysis,
                      bandwidth_bps: float) -> list:
    """The served population against the client's ledger and Theorem 4.1.

    ``ledger`` maps stream id -> ``(period_s, payload_bits, station)`` for
    every admit the client saw succeed and did not release; ``server`` is
    ``{"admitted": int, "utilization": float}`` as the service reports it
    (None when it could not be read).  The ledger population must be
    schedulable under the scalar exact test (``analysis.is_schedulable``,
    one :class:`~repro.analysis.rm.ExactRMTest` evaluation).
    """
    from repro.messages.message_set import MessageSet
    from repro.messages.stream import SynchronousStream

    streams = MessageSet(
        SynchronousStream(period_s=p, payload_bits=c, station=s)
        for p, c, s in ledger.values()
    )
    checks = [
        check(
            "population.schedulable_scalar",
            analysis.is_schedulable(streams),
            f"{len(streams)} streams, utilization "
            f"{streams.utilization(bandwidth_bps):.6f}",
        )
    ]
    if server is None:
        checks.append(not_run("population.matches_ledger", "service unreadable"))
        return checks
    utilization = streams.utilization(bandwidth_bps)
    same = server.get("admitted") == len(streams) and math.isclose(
        server.get("utilization", math.nan), utilization,
        rel_tol=1e-9, abs_tol=1e-12,
    )
    checks.append(
        check(
            "population.matches_ledger",
            same,
            f"service {server.get('admitted')} streams / "
            f"{server.get('utilization')}; ledger {len(streams)} / "
            f"{utilization}",
        )
    )
    return checks


def shape_checks(report: dict | None, label: str = "") -> list:
    """Figure 1's six shape properties, each one a check."""
    if not report:
        return [not_run(f"figure1.shape{label}", "no Figure 1 result")]
    return [
        check(f"figure1.shape.{name}{label}", bool(ok))
        for name, ok in sorted(report.items())
    ]


def oracle_checks(cells: list) -> list:
    """Cell means against the scalar ``breakdown_scale`` oracle, bit for bit.

    ``cells`` holds ``(label, measured_mean, oracle_mean)`` triples.
    """
    if not cells:
        return [not_run("figure1.oracle", "no cells sampled")]
    return [
        check(
            f"figure1.oracle.{label}",
            measured == oracle,
            f"measured {measured!r} oracle {oracle!r}",
        )
        for label, measured, oracle in cells
    ]


def validation_checks(results: list) -> list:
    """Every cross-validation accepted, consistent and deadline safe.

    ``results`` holds ``(label, analysis_schedulable, consistent,
    deadline_safe)`` rows.
    """
    if not results:
        return [not_run("sim.validations", "no validation ran")]
    bad = [
        label
        for label, schedulable, consistent, safe in results
        if not (schedulable and consistent and safe)
    ]
    return [
        check(
            "sim.validations_consistent_and_safe",
            not bad,
            f"{len(results)} validations, failing: {bad[:5]}",
        )
    ]
