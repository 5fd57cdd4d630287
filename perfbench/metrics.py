"""Per-layer metrics read off a traced run's ledger."""

from __future__ import annotations

from perfbench.common import mean, ratio
from perfbench.ledger import LAYERS, Ledger

#: Span names of the exact-test kernel's evaluation calls.
_KERNEL_CALLS = (
    "rm.ExactRMTest.is_schedulable",
    "rm.ExactRMTest.is_schedulable_batch",
    "rm.GroupedExactRMTest.is_schedulable",
    "rm.GroupedExactRMTest.is_schedulable_batch",
    "admission_incremental._level_verdicts",
)


def self_time_names() -> list:
    """``self_ms.<layer>`` for every ledger layer."""
    return [f"self_ms.{layer}" for layer in LAYERS]


def _mean_ms(nodes) -> float:
    return 1e3 * mean(node[2] for node in nodes)


def span_metrics(ledger: Ledger, ops: int) -> dict:
    """The span-derived per-layer metrics for ``ops`` operations.

    Per-call figures (``*_ms`` of one call, ratios, candidates) average
    over the calls reachable from the window's roots; ``self_ms.<layer>``
    and the per-set figures divide the layer's weighted self time by the
    operations completed.
    """
    kernel = [n for n in ledger.nodes if n[0] in _KERNEL_CALLS]
    structure = ledger.calls("pdp.PDPAnalysis._exact_test_for")
    submits = ledger.calls("batcher.MicroBatcher.submit")
    out = {
        "protocol.decode_ms": _mean_ms(ledger.calls("protocol.load_body")),
        "protocol.encode_ms": _mean_ms(ledger.calls("protocol.dump_body")),
        "batcher.queue_wait_ms": 1e3 * mean(n[3] for n in submits),
        "admission.process_batch_ms": _mean_ms(
            ledger.calls("admission.AdmissionController.process_batch")
        ),
        "cache.lookup_ms": _mean_ms(
            ledger.calls("store.ResultCache.get")
            + ledger.calls("store.ResultCache.put")
        ),
        "rm.kernel_ms": _mean_ms(kernel),
        "rm.candidates_per_call": mean(
            (n[5] or {}).get("rows", 1) for n in kernel
        ),
        "pdp.structure_hit_ratio": ratio(
            sum(1 for n in structure if n[5].get("hit")), len(structure)
        ),
        "breakdown.self_ms": 1e3 * ratio(
            ledger.self_s.get("analysis.breakdown", 0.0), ops
        ),
        "generators.sample_ms": 1e3 * ratio(
            ledger.self_s.get("messages.generators", 0.0), ops
        ),
        "sim.run_ms.pdp": _mean_ms(ledger.calls("dispatch.run_pdp")),
        "sim.run_ms.ttp": _mean_ms(ledger.calls("dispatch.run_ttp")),
        "ledger.unattributed_ratio": ledger.unattributed_ratio,
    }
    for layer in LAYERS:
        out[f"self_ms.{layer}"] = 1e3 * ratio(ledger.self_s.get(layer, 0.0), ops)
    return out
