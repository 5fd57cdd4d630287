"""The offline workloads: ``figure1_paper`` and ``sim_crossval``.

Both run in this process.  Set-up (imports plus input preparation) is
measured in fresh child processes (``run.py --setup-only``), three times,
and reported as the median; the timed window then repeats whole units of
work until ``--seconds`` have passed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

from perfbench import checks as C
from perfbench.common import (
    LEDGER_TOLERANCE,
    ROOT,
    Outcome,
    median,
    peak_rss_mb,
    ratio,
)

SETUP_REPEATS = 3

# -- figure1_paper -----------------------------------------------------------------

FIGURE1_PROTOCOLS = ("pdp_standard", "pdp_modified", "ttp")
#: Search tolerance of ``run_figure1`` (its default, the paper runs').
FIGURE1_REL_TOL = 1e-3
#: Cells per grid re-derived with the scalar oracle.
ORACLE_CELLS = 6


def _grid_seed(seed: int, rep: int) -> int:
    return seed * 1000 + rep


def figure1_prepare(seed: int):
    """Imports plus the paper-default parameters of the first grid."""
    from repro.experiments.config import PaperParameters
    from repro.experiments.figure1 import run_figure1  # noqa: F401

    return PaperParameters(seed=_grid_seed(seed, 0))


def _grid(seed: int, rep: int):
    from repro.experiments.config import PaperParameters
    from repro.experiments.figure1 import run_figure1

    # A fresh parameter object per grid: its shared exact-test structure
    # cache starts empty, so every grid runs cold.
    return run_figure1(
        PaperParameters(seed=_grid_seed(seed, rep)), rel_tol=FIGURE1_REL_TOL,
        jobs=1,
    )


def _cell_times(before: dict, after: dict) -> dict:
    """``{(bandwidth label, protocol): seconds}`` from two timing snapshots."""
    cells = {}
    for path, stats in after.items():
        parts = path.split("/")
        if len(parts) < 2 or parts[-1] not in FIGURE1_PROTOCOLS:
            continue
        if not parts[-2].startswith("bw"):
            continue
        prior = before.get(path, {"total_s": 0.0})["total_s"]
        cells[(parts[-2], parts[-1])] = stats["total_s"] - prior
    return cells


def _oracle_cells(points, grid_seed: int, seed: int) -> list:
    """Re-derive a seeded sample of cells with the scalar search."""
    import numpy as np

    from repro.analysis.breakdown import breakdown_utilization
    from repro.analysis.pdp import PDPVariant
    from repro.experiments.config import PaperParameters
    from repro.units import mbps

    params = PaperParameters(seed=grid_seed)
    rng = random.Random(seed)
    cells = []
    for k in range(ORACLE_CELLS):
        protocol = FIGURE1_PROTOCOLS[k % 3]
        point = rng.choice(points)
        bandwidth = point.bandwidth_mbps
        if protocol == "ttp":
            analysis = params.ttp_analysis(bandwidth)
        else:
            variant = (
                PDPVariant.STANDARD if protocol == "pdp_standard"
                else PDPVariant.MODIFIED
            )
            analysis = params.pdp_analysis(bandwidth, variant)
        sets = params.sampler().sample_many(
            np.random.default_rng(params.seed), params.monte_carlo_sets
        )
        samples = []
        for message_set in sets:
            br = breakdown_utilization(
                message_set, analysis, mbps(bandwidth), FIGURE1_REL_TOL
            )
            if br.scale != float("inf"):
                samples.append(br.utilization)
        oracle = float(np.mean(np.asarray(samples))) if samples else 0.0
        measured = getattr(point, protocol).mean
        cells.append((f"bw{bandwidth:g}.{protocol}", measured, oracle))
    return cells


def figure1_paper(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.obs import metrics, timing

    params = figure1_prepare(seed)
    n_sets = params.monte_carlo_sets * len(FIGURE1_PROTOCOLS) * 16
    outcome = Outcome(
        params={
            "grid": "16 bandwidths x 3 protocols, paper defaults",
            "stations": params.n_stations,
            "sets_per_cell": params.monte_carlo_sets,
            "rel_tol": FIGURE1_REL_TOL,
            "jobs": 1,
            "disk_cache": None,
            "grid_seeds": f"{_grid_seed(seed, 0)} + rep",
        }
    )
    setups = _setup_samples("figure1_paper", seed)

    def window(limit: float):
        # Keep only what the checks need: a Figure1Result holds its
        # parameters, and with them every exact-test structure of the grid.
        shapes, first, cell_times, grid_s = [], None, [], []
        start = time.monotonic()
        rep = 0
        while rep == 0 or time.monotonic() - start < limit:
            before = timing.snapshot()
            began = time.monotonic()
            try:
                result = _grid(seed, rep)
            except Exception as exc:  # noqa: BLE001 - counted as failed ops
                outcome.failed += n_sets
                outcome.notes.append(f"grid {rep} raised {exc!r}")
            else:
                grid_s.append(time.monotonic() - began)
                shapes.append(result.shape_report())
                if first is None:
                    first = (result.points, result.parameters.seed)
                del result
            cell_times.append(_cell_times(before, timing.snapshot()))
            outcome.attempted += n_sets
            rep += 1
        return shapes, first, cell_times, grid_s, start, time.monotonic()

    snap0 = metrics.snapshot()
    shapes, first, cell_times, grid_s, t0, t1 = window(seconds)
    rss = peak_rss_mb(os.getpid())
    snap1 = metrics.snapshot()
    outcome.metrics = {
        "setup_s": median(setups),
        # Both from the median grid, so one grid slowed by the shared host
        # does not move the run.
        "ops_per_s": n_sets / median(grid_s) if grid_s else 0.0,
        "latency_p50_ms": 1e3 * median(grid_s) if grid_s else 0.0,
        "peak_rss_mb": rss,
    }
    for rep, report in enumerate(shapes):
        outcome.checks += C.shape_checks(report, f".grid{rep}")
    if first is not None:
        outcome.checks += C.oracle_checks(_oracle_cells(*first, seed))
    else:
        outcome.checks += C.oracle_checks([])
    if trace:
        layer = _untraced_offline_layer(snap0, snap1)
        for protocol in FIGURE1_PROTOCOLS:
            times = [
                t for cells in cell_times for (bw, p), t in cells.items()
                if p == protocol
            ]
            layer[f"figure1.cell_s.{protocol}"] = sum(times) / len(times)
        layer["breakdown.probes_per_set"] = ratio(
            _delta(snap0, snap1, "breakdown.probes"),
            _delta(snap0, snap1, "montecarlo.sets_sampled"),
        )
        traced, traced_ops_per_s = _traced_window(outcome, window, seconds)
        layer.update(traced)
        layer["trace.overhead_ratio"] = ratio(
            outcome.metrics["ops_per_s"], traced_ops_per_s
        )
        outcome.metrics = layer
    return outcome


# -- sim_crossval ------------------------------------------------------------------

SIM_STREAMS = 20
SIM_POOL = 96
SIM_LOAD = 0.9
SIM_PDP_MBPS = 16.0
SIM_TTP_MBPS = 100.0


def sim_prepare(seed: int) -> dict:
    """Seeded 20-stream sets scaled to 0.9 of their breakdown scale (the
    breakdown search runs here, outside the timed window)."""
    import numpy as np

    from repro.analysis.breakdown import breakdown_scales_batch
    from repro.analysis.pdp import PDPVariant
    from repro.experiments.config import PaperParameters
    from repro.sim import validate  # noqa: F401

    params = PaperParameters().scaled_down(SIM_STREAMS, SIM_POOL)
    sets = params.sampler().sample_many(np.random.default_rng(seed), SIM_POOL)
    pdp = params.pdp_analysis(SIM_PDP_MBPS, PDPVariant.MODIFIED)
    ttp = params.ttp_analysis(SIM_TTP_MBPS)
    pools = {}
    for name, analysis in (("pdp", pdp), ("ttp", ttp)):
        scales = breakdown_scales_batch(sets, analysis, 1e-3)
        pools[name] = [
            ms.scaled(SIM_LOAD * scale)
            for ms, (scale, _) in zip(sets, scales)
            if 0.0 < scale < float("inf")
        ]
    return {"analyses": {"pdp": pdp, "ttp": ttp}, "pools": pools}


def _validate(inputs: dict, k: int):
    from repro.sim import validate

    protocol = ("pdp", "ttp")[k % 2]
    pool = inputs["pools"][protocol]
    message_set = pool[(k // 2) % len(pool)]
    fn = (
        validate.cross_validate_pdp if protocol == "pdp"
        else validate.cross_validate_ttp
    )
    return protocol, fn(
        inputs["analyses"][protocol], message_set, engine="auto",
        use_cache=False,
    )


def sim_crossval(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.obs import metrics

    inputs = sim_prepare(seed)
    outcome = Outcome(
        params={
            "streams": SIM_STREAMS,
            "pool_sets": {k: len(v) for k, v in inputs["pools"].items()},
            "load_of_breakdown": SIM_LOAD,
            "pdp": f"modified, {SIM_PDP_MBPS:g} Mbps",
            "ttp": f"{SIM_TTP_MBPS:g} Mbps",
            "phasing": "critical instant",
            "engine": "auto",
            "use_cache": False,
        }
    )
    setups = _setup_samples("sim_crossval", seed)

    def window(limit: float, rows=None):
        latencies = []
        start = time.monotonic()
        k = 0
        while k == 0 or time.monotonic() - start < limit:
            began = time.monotonic()
            outcome.attempted += 1
            try:
                protocol, cv = _validate(inputs, k)
            except Exception as exc:  # noqa: BLE001 - counted as failed ops
                outcome.failed += 1
                outcome.notes.append(f"validation {k} raised {exc!r}")
            else:
                latencies.append(time.monotonic() - began)
                if rows is not None:
                    rows.append((
                        f"{protocol}#{k}", cv.analysis_schedulable,
                        cv.consistent, cv.report.deadline_safe,
                    ))
            k += 1
        return latencies, start, time.monotonic()

    rows: list = []
    snap0 = metrics.snapshot()
    latencies, t0, t1 = window(seconds, rows)
    rss = peak_rss_mb(os.getpid())
    snap1 = metrics.snapshot()
    outcome.metrics = {
        "setup_s": median(setups),
        "ops_per_s": len(latencies) / (t1 - t0),
        "latency_p50_ms": 1e3 * median(latencies),
        "peak_rss_mb": rss,
    }
    outcome.checks += C.validation_checks(rows)
    fallbacks = _delta(snap0, snap1, "sim.fastpath.fallbacks")
    outcome.checks.append(C.within("regime.sim_fallbacks", fallbacks, 0, 0))
    if trace:
        layer = _untraced_offline_layer(snap0, snap1)
        traced, traced_ops_per_s = _traced_window(outcome, window, seconds)
        layer.update(traced)
        layer["trace.overhead_ratio"] = ratio(
            outcome.metrics["ops_per_s"], traced_ops_per_s
        )
        outcome.metrics = layer
    return outcome


# -- shared ------------------------------------------------------------------------


def _delta(before: dict, after: dict, name: str) -> float:
    def value(snap):
        return float(snap.get(name, {}).get("value", 0.0))

    return value(after) - value(before)


def _untraced_offline_layer(snap0: dict, snap1: dict) -> dict:
    """Counter-derived per-layer metrics of the untraced window."""
    hits = sum(
        _delta(snap0, snap1, name) for name in snap1
        if name.startswith("cache.") and name.endswith(".hits")
    )
    misses = sum(
        _delta(snap0, snap1, name) for name in snap1
        if name.startswith("cache.") and name.endswith(".misses")
    )
    visits = _delta(snap0, snap1, "sim.fastpath.ttp.visits")
    return {
        "cache.hit_ratio": ratio(hits, hits + misses),
        "sim.compression_ratio.pdp": ratio(
            _delta(snap0, snap1, "sim.fastpath.pdp.events"),
            _delta(snap0, snap1, "sim.fastpath.pdp.steps"),
        ),
        # Visits per visit actually stepped (sweeps advance the rest).
        "sim.compression_ratio.ttp": ratio(
            visits, visits - _delta(snap0, snap1, "sim.fastpath.ttp.swept")
        ),
        "sim.fallbacks": _delta(snap0, snap1, "sim.fastpath.fallbacks"),
    }


def _traced_window(outcome: Outcome, window, seconds: float):
    """Install the span wrappers here and repeat the window traced."""
    from perfbench import tracer
    from perfbench.ledger import build_ledger
    from perfbench.metrics import span_metrics

    rec = tracer.Recorder("bench")
    tracer.install(rec)
    attempted, failed = outcome.attempted, outcome.failed
    result = window(seconds)
    start, end = result[-2], result[-1]
    ops = outcome.attempted - attempted
    outcome.attempted, outcome.failed = attempted, failed

    def is_root(role, layer, name, t0, t1, attrs):
        return start <= t0 and t1 <= end

    ledger = build_ledger(
        [{"pid": os.getpid(), "role": "bench", "spans": rec.spans}],
        is_root, end - start,
    )
    metrics = span_metrics(ledger, ops)
    outcome.notes.append("ledger (seconds):\n" + ledger.table(ops))
    outcome.checks.append(
        C.within("ledger.adds_up", metrics["ledger.unattributed_ratio"],
                 0.0, LEDGER_TOLERANCE)
    )
    return metrics, ops / (end - start)


def _setup_samples(workload: str, seed: int) -> list:
    """Seconds from spawning a fresh interpreter until it has imported the
    program and prepared the workload's inputs, ``SETUP_REPEATS`` times."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("REPRO_", "PERFBENCH_"))
    }
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--setup-only", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            ready = time.monotonic() - started
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up child failed with {code}: {line!r}")
        samples.append(ready)
    return samples
