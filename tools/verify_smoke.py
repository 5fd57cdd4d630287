#!/usr/bin/env python
"""Smoke-verify the observability pipeline end to end.

Runs ``repro.experiments.runner figure1 --fast --jobs 2`` in a temporary
directory and asserts the contract the manifest and structured log are
supposed to honour:

* ``manifest.json`` exists next to the CSV with the schema version, the
  seed, the parameters, a git SHA, and a metrics snapshot whose
  exact-test cache shows *nonzero hits* (the paired-sampling design makes
  the structure cache pay off after the first bandwidth — zero hits means
  the cache or its accounting broke);
* the run is given ``--cache-dir``, so the content-addressed result
  cache must surface ``cache.breakdown.*`` traffic in the manifest
  (USAGE.md §13) — writes on the first pass, and the persisted entries
  must actually exist on disk;
* every line of the JSONL log parses as JSON and carries the mandatory
  fields;
* the CSV uses the current 10-column schema.

It then smoke-tests the verification harness itself
(:mod:`repro.verify`): the mutation smoke must flag **every**
deliberately injected off-by-one bug — a differential harness that
cannot catch known bugs would be handing out vacuous green lights.

Next the admission-service canary spawns the asyncio server in-process
(``runner loadgen --spawn``) and drives two seconds of *paced* load:
at nominal rate the service must shed nothing, see zero transport
errors, keep p99 latency under 250 ms — the operational floor of
USAGE.md §14 — and its admission result cache must come out
hit-dominated (the catalogue repeats; misses winning means the
canonical set signatures broke).  The canaries read loadgen's results
from its run manifest (``extra.loadgen``, ``extra.admission_cache``,
``extra.fleet``).

The lossy-medium canary reruns a small ``loss-sweep`` in-process and
asserts the retransmission-aware bounds stay *sound*: at loss fractions
{0, 0.01, 0.05}, every message set the fault-aware analysis accepts must
meet all deadlines when simulated against a fault plan drawn at the
budget's rate; breakdown utilization must be positive fault-free and
monotone non-increasing in the loss fraction.

The columnar scale guard runs reduced-size scale measurements
in-process: the columnar pipeline must analyse streams at least 50x
faster per stream than the object path, and the variance-reduced
streaming Monte Carlo run must reach the target CI with no more
evaluations than plain sampling (and agree with it within the combined
CI).  Both are ratios of two runs in one process, so they hold on any
host.

The cluster canary spawns a real 2-worker sharded fleet (worker
subprocesses behind the consistent-hash router) and drives paced load
through the front: zero transport errors, traffic on every shard, every
worker reachable, and sound fleet accounting — the lease total and the
jointly admitted utilization must stay within the aggregate cap.

Finally one ``runner top --once`` frame must render live telemetry.
Wall-clock performance is measured by ``perfbench/`` (same-run A/B),
not here.

Exit code 0 on success; raises (nonzero exit) with a diagnostic on any
violation.  ``make verify`` runs this after the tier-1 test suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _runner_env() -> dict:
    """The calling environment with ``src/`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH"))
        if p
    )
    return env


def _run_loadgen(label: str, *args: str) -> dict:
    """Run ``runner loadgen ARGS``; returns its manifest's ``extra`` block."""
    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
        manifest_path = os.path.join(tmp, "manifest.json")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.runner", "loadgen",
                *args,
                "--manifest", manifest_path, "--quiet", "--log-level", "error",
            ],
            cwd=tmp, env=_runner_env(), capture_output=True, text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            raise AssertionError(
                f"{label} exited {proc.returncode}\n"
                f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
            )
        with open(manifest_path, encoding="utf-8") as handle:
            return json.load(handle)["extra"]


def run_smoke() -> None:
    """Execute the smoke run and assert on its artifacts."""
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        csv_path = os.path.join(tmp, "figure1.csv")
        jsonl_path = os.path.join(tmp, "run.jsonl")
        manifest_path = os.path.join(tmp, "manifest.json")
        cache_dir = os.path.join(tmp, "result-cache")
        env = _runner_env()
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.runner",
                "figure1", "--fast", "--jobs", "2",
                "--cache-dir", cache_dir,
                "--csv", csv_path, "--log-json", jsonl_path, "--quiet",
            ],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            raise AssertionError(
                f"runner exited {proc.returncode}\n"
                f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
            )
        if proc.stdout:
            raise AssertionError(
                f"--quiet run still wrote to stdout:\n{proc.stdout}"
            )

        # -- manifest ---------------------------------------------------
        if not os.path.exists(manifest_path):
            raise AssertionError(f"no manifest at {manifest_path}")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        for key in ("schema_version", "command", "parameters", "git",
                    "metrics", "spans", "wall_time_s"):
            if key not in manifest:
                raise AssertionError(f"manifest missing {key!r}")
        if manifest["command"] != "figure1":
            raise AssertionError(f"wrong command: {manifest['command']!r}")
        if "seed" not in manifest["parameters"]:
            raise AssertionError("manifest parameters missing the seed")
        if not manifest["git"]["sha"]:
            raise AssertionError("manifest has no git SHA")
        hits = manifest["metrics"].get("pdp.exact_cache.hits", {})
        if not hits.get("value", 0) > 0:
            raise AssertionError(
                "exact-test cache shows no hits — cache or accounting broke"
            )
        if not any("/bw" in key for key in manifest["spans"]):
            raise AssertionError("manifest spans carry no per-cell timings")
        cache_writes = manifest["metrics"].get("cache.breakdown.writes", {})
        if not cache_writes.get("value", 0) > 0:
            raise AssertionError(
                "--cache-dir run shows no cache.breakdown.writes in the "
                "manifest — result-cache accounting broke"
            )
        persisted = [
            name
            for _, _, files in os.walk(os.path.join(cache_dir, "breakdown"))
            for name in files if name.endswith(".json")
        ]
        if not persisted:
            raise AssertionError(
                f"--cache-dir wrote no breakdown entries under {cache_dir}"
            )

        # A second process against the same cache dir must *hit*: the keys
        # are content-addressed, so nothing about process identity may
        # change them, and the hit rate must be visible in its manifest.
        manifest2_path = os.path.join(tmp, "manifest2.json")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.runner",
                "figure1", "--fast", "--cache-dir", cache_dir,
                "--manifest", manifest2_path, "--quiet",
            ],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=600,
        )
        if proc.returncode != 0:
            raise AssertionError(
                f"cached re-run exited {proc.returncode}\n"
                f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
            )
        with open(manifest2_path, encoding="utf-8") as handle:
            manifest2 = json.load(handle)
        cache_hits = manifest2["metrics"].get("cache.breakdown.hits", {})
        if not cache_hits.get("value", 0) > 0:
            raise AssertionError(
                "re-run against a warm --cache-dir shows no "
                "cache.breakdown.hits in the manifest"
            )

        # -- structured log ---------------------------------------------
        with open(jsonl_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines:
            raise AssertionError("JSONL log is empty")
        for number, line in enumerate(lines, 1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise AssertionError(
                    f"line {number} of the JSONL log is not JSON: {error}"
                ) from error
            for field in ("ts", "level", "logger", "msg"):
                if field not in record:
                    raise AssertionError(
                        f"line {number} missing field {field!r}: {line}"
                    )

        # -- CSV schema --------------------------------------------------
        with open(csv_path, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
        if len(header) != 10 or header[-1] != "deg_ttp":
            raise AssertionError(f"unexpected CSV schema: {header}")

    print("verify_smoke: ok (manifest, JSONL log, CSV schema, cache hits)")


def run_mutation_smoke_check() -> None:
    """Assert the fuzz harness flags every deliberately injected bug."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.verify import run_mutation_smoke

    report = run_mutation_smoke()
    if not report.all_detected:
        raise AssertionError(
            "mutation smoke missed an injected bug:\n" + report.summary()
        )
    print(
        "verify_smoke: ok (mutation smoke "
        f"{sum(report.detected.values())}/{len(report.detected)} detected)"
    )


#: Service canary load: paced (not closed-loop) so the assertion tests
#: behaviour at *nominal* load — the service must shed nothing and stay
#: comfortably under the latency bound when it is not saturated.
_SERVICE_DURATION_S = 2.0
_SERVICE_TARGET_RPS = 400.0
_SERVICE_P99_BOUND_S = 0.25


def run_service_canary() -> None:
    """Spawn the admission service, drive nominal load, check the canary.

    Runs ``runner loadgen --spawn`` (in-process server on an ephemeral
    port) and asserts the operational floor of the service layer: the
    run completes, zero requests are shed (429) or refused (503), zero
    transport errors, p99 latency under the bound, and at least half the
    paced request budget actually served — a stalled batcher cannot hide
    behind a green exit code.
    """
    extra = _run_loadgen(
        "service canary",
        "--spawn",
        "--duration", str(_SERVICE_DURATION_S),
        "--load-workers", "4",
        "--target-rps", str(_SERVICE_TARGET_RPS),
    )
    report = extra["loadgen"]
    if report["shed"] or report["draining"]:
        raise AssertionError(
            f"service shed at nominal load: shed={report['shed']} "
            f"draining={report['draining']} (target "
            f"{_SERVICE_TARGET_RPS} rps, queue should be nowhere near "
            "full)"
        )
    if report["errors"]:
        raise AssertionError(
            f"service canary saw {report['errors']} transport errors"
        )
    p99 = report["latency_s"].get("p99")
    if p99 is None or p99 > _SERVICE_P99_BOUND_S:
        raise AssertionError(
            f"service p99 latency {p99!r}s exceeds the "
            f"{_SERVICE_P99_BOUND_S}s bound at nominal load"
        )
    floor = 0.5 * _SERVICE_TARGET_RPS * _SERVICE_DURATION_S
    if report["requests"] < floor:
        raise AssertionError(
            f"service served only {report['requests']} requests; "
            f"expected at least {floor:.0f} at the paced rate"
        )
    # Hit-ratio guard: the catalogue repeats, so a warm serving mix
    # must be hit-dominated.  Miss-dominated decisions mean the
    # canonical set signatures stopped matching (the regression this
    # guard exists for — the pre-incremental keys were
    # order-sensitive and the canary ran 3:1 miss:hit).
    cache = extra["admission_cache"]
    if cache["hits"] <= cache["misses"]:
        raise AssertionError(
            "admission cache is miss-dominated at a warm serving mix: "
            f"hits={cache['hits']:.0f} misses={cache['misses']:.0f} — "
            "set signatures are not matching across decisions"
        )
    print(
        "verify_smoke: ok (service canary, "
        f"{report['requests']} requests, p99 {p99 * 1e3:.1f} ms, 0 shed, "
        f"cache hit ratio {cache['hit_ratio']:.2f})"
    )


#: Loss fractions the soundness canary probes (0 pins the fault-free path).
_LOSS_FRACTIONS = (0.0, 0.01, 0.05)
_LOSS_RECOVERY_S = 1e-3


def _assert_loss_shape(label, fractions, means) -> None:
    """Positive fault-free baseline, monotone non-increasing degradation."""
    if means[0] <= 0.0:
        raise AssertionError(
            f"{label}: fault-free breakdown utilization must be positive, "
            f"got {means[0]!r}"
        )
    for (f_lo, m_lo), (f_hi, m_hi) in zip(
        zip(fractions, means), list(zip(fractions, means))[1:]
    ):
        if m_hi > m_lo + 1e-9:
            raise AssertionError(
                f"{label}: breakdown utilization must not increase with "
                f"loss ({m_lo:.4f} @ {f_lo:g} -> {m_hi:.4f} @ {f_hi:g})"
            )


def run_loss_canary() -> None:
    """Fault-aware bounds must be sound and degrade monotonically.

    * a small in-process loss sweep must show a positive fault-free
      baseline and monotone non-increasing breakdown utilization for
      both protocols;
    * for each probed loss fraction, message sets scaled to 90% of the
      fault-aware breakdown (hence accepted non-vacuously) must meet
      every deadline when fault-injected at the declared rate.
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    import numpy as np

    from repro.analysis.pdp import PDPVariant
    from repro.experiments.config import PaperParameters
    from repro.experiments.loss_sweep import loss_sweep
    from repro.faults import (
        FaultBudget,
        FaultPlan,
        fault_aware_breakdown_scale,
        pdp_fault_aware_schedulable,
        rate_for_loss_fraction,
    )
    from repro.sim import dispatch
    from repro.sim.pdp_sim import PDPSimConfig

    params = PaperParameters().scaled_down(n_stations=8, monte_carlo_sets=4)
    result = loss_sweep(
        params,
        16.0,
        loss_fractions=_LOSS_FRACTIONS,
        recovery_time_s=_LOSS_RECOVERY_S,
    )
    for column in ("IEEE 802.5", "FDDI"):
        _assert_loss_shape(
            f"loss sweep {column}",
            [float(row[0]) for row in result.rows],
            [float(v) for v in result.column(column)],
        )

    analysis = params.pdp_analysis(16.0, PDPVariant.STANDARD)
    rng = np.random.default_rng(params.seed)
    sets = params.sampler().sample_many(rng, 3)
    checked = 0
    for fraction in _LOSS_FRACTIONS:
        budget = FaultBudget(
            token_loss_rate_hz=(
                rate_for_loss_fraction(fraction, _LOSS_RECOVERY_S)
                if fraction
                else 0.0
            ),
            recovery_time_s=_LOSS_RECOVERY_S,
        )
        for index, message_set in enumerate(sets):
            scale = fault_aware_breakdown_scale(
                lambda ms, b=budget: pdp_fault_aware_schedulable(
                    analysis, ms, b
                ),
                message_set,
            )
            if scale <= 0.0:
                continue
            probe = message_set.scaled(scale * 0.9)
            if not pdp_fault_aware_schedulable(analysis, probe, budget):
                continue
            plan = FaultPlan(
                seed=7_001 + index,
                token_loss_rate_hz=budget.token_loss_rate_hz,
                recovery_time_s=_LOSS_RECOVERY_S,
            )
            report = dispatch.run_pdp(
                analysis.ring,
                analysis.frame,
                probe,
                PDPSimConfig(faults=plan),
                4.0 * probe.max_period,
            )
            if not report.deadline_safe:
                missed = [
                    s.stream_index for s in report.streams if s.missed > 0
                ]
                raise AssertionError(
                    "fault-aware analysis accepted a set that missed "
                    f"deadlines under its own budget (loss fraction "
                    f"{fraction:g}, streams {missed}, "
                    f"faults={report.faults!r}) — the retransmission "
                    "inflation is unsound"
                )
            checked += 1
    if checked < 3:
        raise AssertionError(
            f"loss canary only exercised {checked} accepted sets; "
            "the soundness assertion is vacuous"
        )

    print(
        f"verify_smoke: ok (loss canary: {checked} accepted sets "
        f"deadline-safe under injected faults at fractions "
        f"{_LOSS_FRACTIONS})"
    )


#: Scale-guard floors.  The live columnar-vs-object throughput ratio
#: lands around 100x even at the guard's reduced sizes, so 50x trips on
#: real columnar regressions (a fallen-back scalar path runs at ~1x),
#: not on scheduler noise.  Ratios compare two pipelines measured in the
#: same process, so they hold on any host.
_SCALE_SPEEDUP_FLOOR = 50.0
_SCALE_GUARD_STREAMS = 100_000
_SCALE_GUARD_BASELINE = 256


def run_scale_guard() -> None:
    """Columnar throughput and MC variance reduction must hold.

    * a live reduced-size scale run must analyse columnar streams at
      least ``_SCALE_SPEEDUP_FLOOR`` times faster per stream than the
      object path (both pipelines run the full order + exact RM + TTP
      saturation sequence);
    * the variance-reduced streaming estimator must reach the same CI
      target with no more evaluations than plain sampling, both runs
      must converge before the cap, and their means must agree within
      the sum of their CI half-widths (they estimate the same quantity).
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.experiments.config import PaperParameters
    from repro.experiments.scale_bench import run_scale_bench

    result = run_scale_bench(
        PaperParameters(),
        n_streams=_SCALE_GUARD_STREAMS,
        baseline_streams=_SCALE_GUARD_BASELINE,
        bandwidth_mbps=10.0,
    )
    if result.speedup < _SCALE_SPEEDUP_FLOOR:
        raise AssertionError(
            f"columnar pipeline is only {result.speedup:.1f}x the object "
            f"path ({result.columnar_streams_per_sec:,.0f} vs "
            f"{result.object_streams_per_sec:,.0f} streams/s); the "
            f"{_SCALE_SPEEDUP_FLOOR:.0f}x floor means the columnar fast "
            "path has fallen back to per-stream work"
        )
    if not result.naive.converged or not result.vr.converged:
        raise AssertionError(
            "streaming estimator hit the evaluation cap before the CI "
            f"target (naive converged={result.naive.converged}, "
            f"vr converged={result.vr.converged})"
        )
    if result.vr.evaluations > result.naive.evaluations:
        raise AssertionError(
            "variance-reduced streaming run needed MORE evaluations than "
            f"plain sampling ({result.vr.evaluations} vs "
            f"{result.naive.evaluations}) to reach half-width "
            f"{result.mc_eps:g} — stratification stopped reducing variance"
        )
    tolerance = result.naive.half_width + result.vr.half_width
    if abs(result.naive.mean - result.vr.mean) > tolerance:
        raise AssertionError(
            "plain and variance-reduced estimates disagree beyond their "
            f"combined CI half-widths ({result.naive.mean:.5f} vs "
            f"{result.vr.mean:.5f}, tolerance {tolerance:.5f}) — the "
            "stratified/antithetic sampler is biased"
        )

    print(
        f"verify_smoke: ok (scale guard: {result.speedup:,.0f}x columnar "
        f"speedup live, vr {result.vr.evaluations} <= naive "
        f"{result.naive.evaluations} evaluations)"
    )


#: Cluster canary shape: a 2-worker fleet driven for a couple of paced
#: seconds — enough to prove routing, budget accounting, and per-shard
#: telemetry without turning verify into a benchmark run.
_CLUSTER_DURATION_S = 2.0
_CLUSTER_TARGET_RPS = 300.0
_CLUSTER_WORKERS = 2


def run_cluster_canary() -> None:
    """Spawn a live sharded fleet and audit its routing and accounting.

    ``runner loadgen --workers 2`` spawns two worker subprocesses behind
    the consistent-hash router and drives paced load through the front.
    The run must complete with zero transport errors, traffic must reach
    *both* shards (per-shard latency percentiles present for w0 and w1),
    every worker must be reachable at the end, and the fleet accounting
    must come back sound: lease total within the aggregate cap and joint
    admitted utilization never past it.
    """
    extra = _run_loadgen(
        "cluster canary",
        "--workers", str(_CLUSTER_WORKERS),
        "--duration", str(_CLUSTER_DURATION_S),
        "--load-workers", "4",
        "--target-rps", str(_CLUSTER_TARGET_RPS),
    )
    report = extra["loadgen"]
    fleet = extra["fleet"]
    if report["errors"]:
        raise AssertionError(
            f"cluster canary saw {report['errors']} transport errors "
            "through the router"
        )
    floor = 0.5 * _CLUSTER_TARGET_RPS * _CLUSTER_DURATION_S
    if report["requests"] < floor:
        raise AssertionError(
            f"cluster served only {report['requests']} requests; "
            f"expected at least {floor:.0f} at the paced rate"
        )
    shard_keys = set(report.get("shard_latency_s", {}))
    expected = {f"w{i}" for i in range(_CLUSTER_WORKERS)}
    if not expected <= shard_keys:
        raise AssertionError(
            "traffic did not reach every shard: per-shard latency "
            f"covers {sorted(shard_keys)}, expected at least "
            f"{sorted(expected)} — the hash router is not spreading "
            "the catalogue"
        )
    if fleet["reachable"] != _CLUSTER_WORKERS:
        raise AssertionError(
            f"only {fleet['reachable']}/{_CLUSTER_WORKERS} workers "
            "reachable at the end of the canary run"
        )
    if not fleet["fleet"]["budget_sound"]:
        raise AssertionError(
            "fleet lease ledger is unsound: granted "
            f"{fleet['fleet']['lease_granted_total']!r} vs cap "
            f"{fleet['fleet']['utilization_cap']!r}"
        )
    cap = fleet["fleet"]["utilization_cap"]
    joint = fleet["fleet"]["utilization"]
    if joint > cap + 1e-9:
        raise AssertionError(
            f"fleet jointly admitted utilization {joint:.6f} past the "
            f"aggregate cap {cap:.6f} — the lease split is not "
            "containing the workers"
        )
    print(
        "verify_smoke: ok (cluster canary: "
        f"{report['requests']} requests through the router across "
        f"{len(shard_keys)} shards, fleet budget sound)"
    )


def run_top_smoke() -> None:
    """One ``runner top --once --spawn`` frame must render live telemetry.

    Spawns the in-process server, drives the seeded burst, and asserts
    the frame actually shows traffic: the ``req/s`` line, the latency
    percentiles, and the batch-size section all come from the
    ``/metrics`` histograms, so an empty or missing section means the
    bucketed pipeline (or its delta arithmetic) broke.
    """
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.experiments.runner", "top",
            "--spawn", "--once", "--interval", "0.5",
            "--no-manifest", "--log-level", "error",
        ],
        cwd=REPO_ROOT, env=_runner_env(), capture_output=True, text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"runner top --once failed (rc={proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    for needle in ("req/s", "latency", "batches"):
        if needle not in proc.stdout:
            raise AssertionError(
                f"top frame is missing {needle!r}:\n{proc.stdout}"
            )
    print("verify_smoke: ok (runner top --once renders live telemetry)")


if __name__ == "__main__":
    run_smoke()
    run_mutation_smoke_check()
    run_service_canary()
    run_loss_canary()
    run_scale_guard()
    run_cluster_canary()
    run_top_smoke()
