"""Breakdown utilization under a lossy medium: the ``loss-sweep`` experiment.

The paper's comparison assumes a fault-free medium.  This sweep repeats
the Figure-1-style Monte Carlo estimate with the retransmission-aware
criteria of :mod:`repro.faults.analysis` across a range of *loss
fractions* — the fraction of medium time the token claim/recovery process
can consume when ring faults arrive at their rate bound
(``loss_fraction = rate × T_rec``; see
:func:`repro.faults.plan.rate_for_loss_fraction`).  At fraction 0 the
fault-aware tests are identical to the original theorems, so the first
row doubles as a baseline cross-check; as the fraction grows, breakdown
utilization degrades for both protocols — the PDP pays the recovery
budget per priority level, the TTP loses whole token visits.

Outputs: a :class:`~repro.experiments.sweeps.SweepResult` table and an
ASCII breakdown-utilization-versus-loss-fraction figure for both
protocols.  ``tools/verify_smoke.py`` guards the table for a positive
fault-free baseline and monotone degradation.

Every cell reuses the paired-sampling design: the same seed — hence the
same message sets — at every loss fraction and for both protocols, so
the curves are directly comparable and deterministic under ``--jobs``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.pdp import PDPVariant
from repro.experiments.config import PaperParameters
from repro.experiments.parallel import parallel_map
from repro.experiments.reporting import ascii_plot
from repro.experiments.sweeps import SweepResult
from repro.faults.analysis import (
    FaultBudget,
    fault_aware_breakdown_scale,
    pdp_fault_aware_schedulable,
    ttp_fault_aware_schedulable,
)
from repro.faults.plan import rate_for_loss_fraction
from repro.obs import timing
from repro.units import mbps

__all__ = [
    "DEFAULT_LOSS_FRACTIONS",
    "DEFAULT_RECOVERY_S",
    "loss_sweep",
    "loss_figure",
]

#: Loss fractions swept by default; 0 pins the fault-free baseline.
DEFAULT_LOSS_FRACTIONS: tuple[float, ...] = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1)

#: Token claim/recovery latency charged per ring fault (1 ms — the order
#: of an 802.5 claim-token exchange at the paper's ring scale).
DEFAULT_RECOVERY_S = 1e-3

#: Sweep columns, shared with the CSV export.
HEADERS: tuple[str, ...] = (
    "loss fraction",
    "loss rate (Hz)",
    "IEEE 802.5",
    "stderr",
    "FDDI",
    "stderr",
)


def _loss_cell(shared, task) -> tuple[float, float]:
    """One (loss fraction, protocol) estimate: (mean, stderr)."""
    parameters, bandwidth_mbps, recovery_time_s = shared
    loss_fraction, protocol = task
    budget = FaultBudget(
        token_loss_rate_hz=(
            rate_for_loss_fraction(loss_fraction, recovery_time_s)
            if loss_fraction > 0.0
            else 0.0
        ),
        recovery_time_s=recovery_time_s,
    )
    if protocol == "pdp":
        analysis = parameters.pdp_analysis(bandwidth_mbps, PDPVariant.STANDARD)

        def accepts(message_set):
            return pdp_fault_aware_schedulable(analysis, message_set, budget)

    else:
        analysis = parameters.ttp_analysis(bandwidth_mbps)

        def accepts(message_set):
            return ttp_fault_aware_schedulable(analysis, message_set, budget)

    bandwidth = mbps(bandwidth_mbps)
    rng = np.random.default_rng(parameters.seed)
    sampler = parameters.sampler()
    utilizations: list[float] = []
    with timing.span(f"loss-sweep/{protocol}/l{loss_fraction:g}"):
        for message_set in sampler.sample_many(rng, parameters.monte_carlo_sets):
            scale = fault_aware_breakdown_scale(accepts, message_set, rel_tol=1e-3)
            utilizations.append(
                message_set.scaled(scale).utilization(bandwidth)
                if scale > 0
                else 0.0
            )
    arr = np.asarray(utilizations)
    stderr = (
        float(np.std(arr, ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    )
    return float(arr.mean()), stderr


def loss_sweep(
    parameters: PaperParameters,
    bandwidth_mbps: float,
    loss_fractions: tuple[float, ...] = DEFAULT_LOSS_FRACTIONS,
    recovery_time_s: float = DEFAULT_RECOVERY_S,
    jobs: int | None = 1,
) -> SweepResult:
    """Average breakdown utilization versus loss fraction, both protocols.

    Each cell's wall time is recorded as a ``loss-sweep/<protocol>/l<ℓ>``
    timing span.
    """
    protocols = ("pdp", "ttp")
    grid = [
        (fraction, protocol)
        for fraction in loss_fractions
        for protocol in protocols
    ]
    cells = parallel_map(
        _loss_cell,
        grid,
        shared=(parameters, bandwidth_mbps, recovery_time_s),
        jobs=jobs,
        label="loss-sweep",
    )
    by_task = dict(zip(grid, cells))
    rows = [
        (
            fraction,
            rate_for_loss_fraction(fraction, recovery_time_s)
            if fraction > 0.0
            else 0.0,
            by_task[(fraction, "pdp")][0],
            by_task[(fraction, "pdp")][1],
            by_task[(fraction, "ttp")][0],
            by_task[(fraction, "ttp")][1],
        )
        for fraction in loss_fractions
    ]
    return SweepResult(
        name=(
            f"loss-sweep@{bandwidth_mbps}Mbps "
            f"(T_rec={recovery_time_s:g}s, token-loss budget)"
        ),
        headers=HEADERS,
        rows=tuple(rows),
    )


def loss_figure(result: SweepResult) -> str:
    """The breakdown-utilization-versus-loss-fraction figure, ASCII."""
    fractions = [float(value) for value in result.column("loss fraction")]
    return ascii_plot(
        fractions,
        {
            "IEEE 802.5 (PDP, fault-aware)": [
                float(v) for v in result.column("IEEE 802.5")
            ],
            "FDDI (TTP, fault-aware)": [
                float(v) for v in result.column("FDDI")
            ],
        },
        title="breakdown utilization vs loss fraction",
    )
