"""The served workloads: ``fleet_hot`` and ``serve_churn``.

The service runs unmodified in subprocesses (``runner serve`` or
``runner cluster --workers 1``); the load comes from this process alone,
through the program's own :class:`~repro.service.client.AsyncServiceClient`
over ``nproc`` keep-alive connections.  One run:

1. set-up, three times: spawn the processes and wait for ``/healthz``
   (``setup_s`` is the median); the third deployment is measured;
2. warm-up, closed loop, not measured;
3. rounds of :data:`ROUND_S` seconds, each a closed-loop phase then an
   open-loop phase, all processes on one CPU, a different one each round
   (:meth:`Deployment.pin`):

   * closed loop: ``ops_per_s`` is the median over the closed phases of
     successful requests per second; CPU per process comes from
     ``/proc`` and counters from ``/metrics``;
   * open loop at :data:`OPEN_LOAD` of the throughput the round's closed
     phase just measured: ``latency_p50_ms`` over all open-loop requests,
     timed from when each request was due, and the generator's lateness;
4. checks: the final population against the client's ledger and the
   scalar Theorem 4.1 test, plus the workload's regime.

A traced run adds a second deployment started through the launcher
(``perfbench/launcher``) and a traced closed-loop phase; its spans feed
the ledger.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from perfbench import checks as C
from perfbench.common import (
    LEDGER_TOLERANCE,
    ROOT,
    SRC,
    Outcome,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
    ratio,
)

#: Bandwidth of the served analysis (the service default, 16 Mbps).
BANDWIDTH_BPS = 16e6
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Seconds per measurement round (a closed-loop plus an open-loop phase).
ROUND_S = 5.0
#: The CPUs the benchmark may use, read before :meth:`Deployment.pin` narrows
#: this process to one of them.
CPUS = sorted(os.sched_getaffinity(0))
#: Offered rate of an open-loop phase, as a share of the throughput the
#: closed-loop phase before it measured.  A fixed rate in requests/s sits
#: at a different load on every host: one near capacity queues, and its
#: latency then swings with every slow spell (from 2 ms to over 80 ms
#: between runs of the same code).  A quarter of the measured capacity keeps the load light
#: wherever the benchmark runs, so the median reads the service path.
OPEN_LOAD = 0.25


@dataclass(frozen=True)
class ServedSpec:
    """Traffic and regime of one served workload."""

    fleet: bool
    check: float  # share of check requests
    #: ``None``: every non-check request is an admit with probability
    #: ``admit`` / (1 - ``check``), otherwise the release of a random
    #: admitted stream.  A number: the population the mutations hold —
    #: admit below it, else release the newest stream — so the base
    #: population stays fixed and admits and releases alternate.
    hold: int | None
    admit: float
    catalogue_size: int
    harmonic: bool  # catalogue shape, see :func:`catalogue`
    #: Per-stream utilization range of a non-harmonic catalogue.
    utilization: tuple | None
    warmup_s: float
    hit_ratio: tuple  # regime band of cache.hit_ratio
    reject_ratio: tuple | None  # regime band of admission.reject_ratio
    breakdown_scale: tuple | None  # regime band of the final set's scale


SPECS = {
    "fleet_hot": ServedSpec(
        fleet=True,
        check=0.90,
        hold=16,
        admit=0.05,
        catalogue_size=32,
        harmonic=True,
        utilization=None,
        warmup_s=1.5,
        hit_ratio=(0.95, 1.0),
        reject_ratio=None,
        breakdown_scale=None,
    ),
    "serve_churn": ServedSpec(
        fleet=False,
        check=0.10,
        hold=None,
        admit=0.55,
        catalogue_size=4096,
        harmonic=False,
        utilization=(0.011, 0.034),
        warmup_s=2.0,
        hit_ratio=(0.0, 0.8),
        reject_ratio=(0.2, 0.55),
        breakdown_scale=(1.0, 1.2),
    ),
}

#: The client must stay far from saturating its core.
CLIENT_CPU_MAX = 0.5


def catalogue(spec: ServedSpec, seed: int) -> list:
    """The spec's seeded, distinct ``(period_s, payload_bits)`` candidates.

    ``fleet_hot`` draws harmonic periods (8-256 ms) and small payloads, so
    exact tests are cheap and the same decisions recur; ``serve_churn``
    draws periods uniformly over the paper's 18.2-181.8 ms range and
    payloads from a per-stream utilization range at 16 Mbps.
    """
    rng = random.Random(seed * 7919 + spec.catalogue_size)
    pairs: dict = {}
    while len(pairs) < spec.catalogue_size:
        if spec.harmonic:
            period = rng.choice((0.008, 0.016, 0.032, 0.064, 0.128, 0.256))
            payload = float(rng.randrange(64, 2048, 64))
        else:
            period = round(rng.uniform(0.2 / 11, 2.0 / 11), 6)
            utilization = rng.uniform(*spec.utilization)
            payload = float(round(utilization * period * BANDWIDTH_BPS))
        pairs[(period, payload)] = None
    return list(pairs)


# -- processes ---------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _get(port: int, path: str, timeout: float = 10.0) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return json.loads(body)
    finally:
        conn.close()


class Deployment:
    """The service processes of one workload (server, or router + worker)."""

    def __init__(self, spec: ServedSpec, rundir: str, trace_dir: str | None):
        self.spec = spec
        self.port = _free_port()
        argv = [
            sys.executable, "-m", "repro.experiments.runner",
            "cluster" if spec.fleet else "serve",
            "--port", str(self.port), "--no-manifest", "--log-level", "warning",
            # The analysis the checks re-derive: stated, not defaulted.
            "--service-protocol", "pdp", "--variant", "modified",
            "--bandwidth", f"{BANDWIDTH_BPS / 1e6:g}", "--stations", "40",
            "--policy", "exact",
        ]
        if spec.fleet:
            argv += ["--workers", "1"]
        env = {
            k: v for k, v in os.environ.items()
            if not k.startswith(("REPRO_", "PERFBENCH_"))
        }
        path = [SRC]
        if trace_dir is not None:
            path += [os.path.join(ROOT, "perfbench", "launcher"), ROOT]
            env["PERFBENCH_TRACE_DIR"] = trace_dir
        env["PYTHONPATH"] = os.pathsep.join(path)
        self.log_path = os.path.join(rundir, f"service-{self.port}.log")
        self.started = time.monotonic()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, env=env, cwd=rundir, stdout=log, stderr=log,
            )
        self.worker_pid: int | None = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Block until ``/healthz`` answers ok; returns seconds since spawn."""
        deadline = self.started + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"service exited with {self.proc.returncode}: "
                    f"{self.log_tail()}"
                )
            try:
                health = _get(self.port, "/healthz", timeout=2.0)
            except (OSError, RuntimeError, ValueError):
                time.sleep(0.01)
                continue
            if health.get("status") == "ok" and (
                not self.spec.fleet or health.get("reachable", 0) >= 1
            ):
                ready = time.monotonic() - self.started
                if self.spec.fleet:
                    shard = next(iter(health["shards"].values()))
                    self.worker_pid = int(shard["worker_pid"])
                else:
                    self.worker_pid = int(health["worker_pid"])
                return ready
            time.sleep(0.01)
        raise RuntimeError(f"service not ready in {timeout}s: {self.log_tail()}")

    def pin(self, turn: int = 0) -> None:
        """Run the service processes and this process (the load) on one
        CPU, ``CPUS[turn % len(CPUS)]``.

        Spread over two CPUs (the server alone on one, the load and the
        router on the other), every request hops between the CPUs, and
        each hop can wait for the shared host to run the other one.  On a
        2-CPU host, runs of the same code then spread 17-18% in
        ``ops_per_s`` (IQR over median, five seeds), while ``figure1_paper``
        in one process spread 6%.  On one CPU the served workloads spread
        6-9%: the closed loop keeps that CPU busy, so throughput reads the
        CPU cost of the whole request path.  Left to the scheduler, the
        processes chase each other across CPUs, and ``fleet_hot`` read
        anywhere from 1.0k to 2.4k req/s.

        The measurement rounds advance ``turn``, so a run uses each CPU
        for an equal share of its rounds: a CPU that a neighbour on the
        shared host slows for a minute moves that share of every run, not
        all the rounds of the runs that happened to land on it.
        """
        cpu = CPUS[turn % len(CPUS)]
        for pid in {os.getpid(), self.proc.pid, self.worker_pid}:
            _pin(pid, cpu)

    def log_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as handle:
                return handle.read()[-2000:].decode(errors="replace")
        except OSError:
            return ""

    def stop(self) -> None:
        """SIGTERM (the service drains and exits), then reap everything."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        pid = self.worker_pid
        if pid is not None and pid != self.proc.pid:
            deadline = time.monotonic() + 15
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)

    def metrics(self) -> dict:
        return _get(self.port, "/metrics")

    def health(self) -> dict:
        return _get(self.port, "/healthz")


def _pin(pid: int, cpu: int) -> None:
    """Pin every thread of ``pid``; threads it starts later inherit."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread exited meanwhile


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().rsplit(b")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != b"Z"


def _counter(snapshot: dict, name: str, field_name: str = "value") -> float:
    """One field of a metric from a server ``/metrics`` document, or from a
    router's merged ``fleet`` and own ``router`` sections."""
    for section in ("metrics", "fleet", "router"):
        entry = snapshot.get(section, {}).get(name)
        if entry is not None:
            return float(entry.get(field_name, 0.0))
    return 0.0


# -- traffic -----------------------------------------------------------------------


class Traffic:
    """Seeded operation choice plus the client's ledger of admitted streams."""

    def __init__(self, spec: ServedSpec, seed: int, nconn: int):
        self.spec = spec
        self.catalogue = catalogue(spec, seed)
        self.rngs = [random.Random(seed * 1_000_003 + i) for i in range(nconn)]
        self.ledger: dict = {}
        self.ledger_errors: list = []
        #: Copies of the ledger at phase boundaries (regime samples).
        self.samples: list = []

    def next_op(self, conn: int):
        spec = self.spec
        rng = self.rngs[conn]
        roll = rng.random()
        candidate = rng.choice(self.catalogue)
        if roll < spec.check:
            return "check", candidate
        if spec.hold is not None:
            admit = len(self.ledger) < spec.hold
        else:
            admit = roll < spec.check + spec.admit
        if admit or not self.ledger:
            return "admit", candidate
        if spec.hold is not None:
            stream_id = max(self.ledger)
        else:
            ids = sorted(self.ledger)
            stream_id = ids[rng.randrange(len(ids))]
        return "release", (stream_id, self.ledger.pop(stream_id))


@dataclass
class Phase:
    """Client-side record of one load phase."""

    started: float = 0.0
    ended: float = 0.0
    requests: int = 0
    ok: int = 0
    failed: int = 0
    admits: int = 0
    rejects: int = 0
    latencies: list = field(default_factory=list)
    lateness: list = field(default_factory=list)
    conn_walls: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    cpu_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


async def _one(client, traffic: Traffic, conn: int, phase: Phase) -> bool:
    from repro.errors import ServiceError

    kind, arg = traffic.next_op(conn)
    phase.requests += 1
    try:
        if kind == "release":
            stream_id, stream = arg
            outcome = await client.release(stream_id)
            if not outcome.get("released"):
                traffic.ledger_errors.append(f"release {stream_id}: {outcome}")
                raise ServiceError(f"release of admitted {stream_id} refused")
        elif kind == "admit":
            decision = await client.admit(*arg)
            phase.admits += 1
            if decision["admitted"]:
                traffic.ledger[decision["stream_id"]] = (
                    arg[0], arg[1], decision["station"]
                )
            else:
                phase.rejects += 1
        else:
            await client.check(*arg)
    except ServiceError as exc:  # includes Backoff (429/503), 404, 5xx
        phase.failed += 1
        if len(phase.errors) < 5:
            phase.errors.append(f"{kind}: {exc}")
        return False
    phase.ok += 1
    return True


async def _closed_conn(port, traffic, conn, phase, deadline):
    from repro.service.client import AsyncServiceClient

    clock = time.monotonic
    async with AsyncServiceClient("127.0.0.1", port) as client:
        first = last = None
        while clock() < deadline:
            start = clock()
            ok = await _one(client, traffic, conn, phase)
            last = clock()
            if first is None:
                first = start
            if ok:
                phase.latencies.append(last - start)
        if first is not None:
            phase.conn_walls.append(last - first)


async def _open_conn(port, traffic, conn, phase, schedule):
    from repro.service.client import AsyncServiceClient

    clock = time.monotonic
    start, rate, end = schedule["start"], schedule["rate"], schedule["end"]
    async with AsyncServiceClient("127.0.0.1", port) as client:
        while True:
            k = schedule["next"]
            schedule["next"] = k + 1
            due = start + k / rate
            if due >= end:
                break
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lateness.append(max(0.0, clock() - due))
            if await _one(client, traffic, conn, phase):
                phase.latencies.append(clock() - due)


def run_phase(port: int, traffic: Traffic, nconn: int, seconds: float,
              rate: float | None = None) -> Phase:
    """Closed loop (``rate`` None) or open loop at ``rate`` requests/s."""
    phase = Phase()

    async def main():
        phase.started = time.monotonic()
        if rate is None:
            deadline = phase.started + seconds
            jobs = [
                _closed_conn(port, traffic, i, phase, deadline)
                for i in range(nconn)
            ]
        else:
            schedule = {
                "start": phase.started + 0.05,
                "rate": rate,
                "end": phase.started + 0.05 + seconds,
                "next": 0,
            }
            jobs = [
                _open_conn(port, traffic, i, phase, schedule)
                for i in range(nconn)
            ]
        await asyncio.gather(*jobs)
        phase.ended = time.monotonic()

    cpu0 = sum(os.times()[:2])
    asyncio.run(main())
    phase.cpu_s = sum(os.times()[:2]) - cpu0
    return phase


# -- the workload ------------------------------------------------------------------


def _analysis():
    from repro.service.protocol import ServiceConfig, build_controller

    return build_controller(ServiceConfig(cache_namespace=None)).analysis


def _population(dep: Deployment) -> dict | None:
    try:
        health = dep.health()
    except (OSError, RuntimeError, ValueError):
        return None
    fleet = health.get("fleet")
    source = fleet if fleet is not None else health
    return {"admitted": source["admitted"], "utilization": source["utilization"]}


def _breakdown_scale(ledger: dict, analysis) -> float:
    from repro.analysis.breakdown import breakdown_scale
    from repro.messages.message_set import MessageSet
    from repro.messages.stream import SynchronousStream

    streams = MessageSet(
        SynchronousStream(period_s=p, payload_bits=c, station=s)
        for p, c, s in ledger.values()
    )
    return breakdown_scale(streams, analysis, rel_tol=1e-3)[0]


def _measure(dep: Deployment, traffic: Traffic, nconn: int, seconds: float,
             outcome: Outcome) -> dict:
    """Warm-up, then rounds of a closed-loop and an open-loop phase.

    Interleaving spreads both measurements over the whole run, so a slow
    spell of the shared host lands in a few phases of each kind and the
    medians over phases step over it.
    """
    spec = dep.spec
    run_phase(dep.port, traffic, nconn, spec.warmup_s)
    rounds = max(1, round(seconds / ROUND_S))
    half = seconds / rounds / 2
    closed, open_, scrapes, rates = [], [], [], []
    cpu = [0.0, 0.0]
    for k in range(rounds):
        dep.pin(turn=k)
        metrics0 = dep.metrics()
        cpu0 = (cpu_seconds(dep.proc.pid), cpu_seconds(dep.worker_pid))
        closed.append(run_phase(dep.port, traffic, nconn, half))
        cpu[0] += cpu_seconds(dep.proc.pid) - cpu0[0]
        cpu[1] += cpu_seconds(dep.worker_pid) - cpu0[1]
        scrapes.append((metrics0, dep.metrics()))
        traffic.samples.append(dict(traffic.ledger))
        rates.append(max(1.0, OPEN_LOAD * closed[-1].ok / closed[-1].wall_s))
        open_.append(run_phase(dep.port, traffic, nconn, half, rate=rates[-1]))
        traffic.samples.append(dict(traffic.ledger))
    for phase in closed + open_:
        outcome.attempted += phase.requests
        outcome.failed += phase.failed
        outcome.notes.extend(phase.errors)
    return {
        "closed": closed,
        "open": open_,
        "scrapes": scrapes,
        "cpu": cpu,
        "rates": rates,
        "peak_rss_mb": peak_rss_mb(dep.worker_pid),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    spec = SPECS[name]
    nconn = os.cpu_count() or 1
    outcome = Outcome(
        params={
            "deployment": "runner cluster --workers 1" if spec.fleet
            else "runner serve",
            "analysis": "pdp modified, 16 Mbps, 40 stations, exact policy",
            "connections": nconn,
            "check_share": spec.check,
            "hold_population": spec.hold,
            "admit_share": spec.admit if spec.hold is None else None,
            "catalogue_size": spec.catalogue_size,
            "catalogue": "harmonic periods 8-256 ms, payloads 64-1984 bits"
            if spec.harmonic else
            f"periods U(18.2, 181.8) ms, utilization U{spec.utilization}",
            "open_load_share": OPEN_LOAD,
            "warmup_s": spec.warmup_s,
        }
    )
    rundir = tempfile.mkdtemp(prefix=f"run-{name}-", dir=_scratch())
    deployments: list = []
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            dep = Deployment(spec, rundir, None)
            deployments.append(dep)
            setups.append(dep.wait_ready())
            if len(setups) < SETUP_REPEATS:
                dep.stop()
        dep = deployments[-1]
        dep.pin()
        traffic = Traffic(spec, seed, nconn)
        reading = _measure(dep, traffic, nconn, seconds, outcome)
        population = _population(dep)
        dep.stop()
        ops_per_s = median(p.ok / p.wall_s for p in reading["closed"])
        latencies = [x for p in reading["open"] for x in p.latencies]
        lateness = [x for p in reading["open"] for x in p.lateness]
        outcome.metrics = {
            "setup_s": median(setups),
            "ops_per_s": ops_per_s,
            "latency_p50_ms": 1e3 * median(latencies),
            "peak_rss_mb": reading["peak_rss_mb"],
        }
        outcome.notes.append(
            "closed loop req/s per phase: " + " ".join(
                f"{p.ok / p.wall_s:.0f}" for p in reading["closed"]
            )
        )
        outcome.notes.append(
            "open loop p50 ms per phase: " + " ".join(
                f"{1e3 * median(p.latencies):.3f}" if p.latencies else "-"
                for p in reading["open"]
            )
        )
        outcome.notes.append(
            f"open loop at {median(reading['rates']):.0f} req/s (median): "
            f"p99 {1e3 * percentile(latencies, 99):.3f} ms "
            f"over {len(latencies)} requests, generator late p99 "
            f"{1e3 * percentile(lateness, 99):.3f} ms"
        )
        analysis = _analysis()
        layer = _untraced_layer_metrics(spec, reading, traffic)
        outcome.checks += C.population_checks(
            traffic.ledger, population, analysis, BANDWIDTH_BPS
        )
        outcome.checks.append(
            C.within("ledger.no_release_refused", len(traffic.ledger_errors), 0, 0)
        )
        outcome.checks += _regime_checks(spec, layer, traffic, analysis)
        if trace:
            traced, traced_ops_per_s, table = _traced(
                spec, seed, seconds, nconn, rundir, deployments
            )
            layer.update(traced)
            layer["trace.overhead_ratio"] = ratio(ops_per_s, traced_ops_per_s)
            outcome.metrics = layer
            outcome.notes.append("ledger (operation-seconds):\n" + table)
            outcome.checks.append(
                C.within("ledger.adds_up", layer["ledger.unattributed_ratio"],
                         0.0, LEDGER_TOLERANCE)
            )
    finally:
        for dep in deployments:
            dep.stop()
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(rundir))
        except OSError:
            pass  # another run still uses it
    return outcome


def _scratch() -> str:
    path = os.path.join(ROOT, ".perfbench_run")
    os.makedirs(path, exist_ok=True)
    return path


def _untraced_layer_metrics(spec, reading, traffic) -> dict:
    closed = reading["closed"]
    front_cpu, worker_cpu = reading["cpu"]
    ok = sum(p.ok for p in closed)
    wall = sum(p.wall_s for p in closed)

    def delta(name, field_name="value"):
        return sum(
            _counter(m1, name, field_name) - _counter(m0, name, field_name)
            for m0, m1 in reading["scrapes"]
        )

    hits, misses = delta("cache.admission.hits"), delta("cache.admission.misses")
    reused = delta("admission.incremental.levels_reused")
    computed = delta("admission.incremental.levels_computed")
    lateness = [x for p in reading["open"] for x in p.lateness]
    return {
        "client.cpu_frac": sum(p.cpu_s for p in closed) / wall,
        "client.late_p99_ms": 1e3 * percentile(lateness, 99),
        "router.cpu_ms_per_req": 1e3 * front_cpu / ok if spec.fleet else 0.0,
        "router.retries": delta("cluster.router.retries"),
        "server.cpu_ms_per_req": 1e3 * worker_cpu / ok,
        "batcher.batch_size_mean": ratio(
            delta("service.batch_size", "total"),
            delta("service.batch_size", "count"),
        ),
        "batcher.shed": delta("service.shed"),
        "admission.levels_reused_ratio": ratio(reused, reused + computed),
        "admission.reject_ratio": ratio(
            sum(p.rejects for p in closed), sum(p.admits for p in closed)
        ),
        "cache.hit_ratio": ratio(hits, hits + misses),
    }


def _regime_checks(spec, layer, traffic, analysis) -> list:
    out = [
        C.within("regime.client_cpu_frac", layer["client.cpu_frac"],
                 0.0, CLIENT_CPU_MAX),
        C.within("regime.cache_hit_ratio", layer["cache.hit_ratio"],
                 *spec.hit_ratio),
        C.within("regime.batcher_shed", layer["batcher.shed"], 0, 0),
    ]
    if spec.reject_ratio is not None:
        out.append(C.within("regime.reject_ratio",
                            layer["admission.reject_ratio"], *spec.reject_ratio))
    if spec.breakdown_scale is not None:
        scales = [
            _breakdown_scale(sample, analysis)
            for sample in traffic.samples if sample
        ]
        out.append(C.within(
            "regime.population_breakdown_scale",
            median(scales) if scales else None,
            *spec.breakdown_scale,
        ))
    return out


def _traced(spec, seed, seconds, nconn, rundir, deployments) -> dict:
    """Traced deployment + traced closed-loop phase -> span metrics."""
    from perfbench import tracer
    from perfbench.ledger import build_ledger
    from perfbench.metrics import span_metrics

    trace_dir = tempfile.mkdtemp(prefix="spans-", dir=rundir)
    dep = Deployment(spec, rundir, trace_dir)
    deployments.append(dep)
    dep.wait_ready()
    dep.pin()
    rec = tracer.Recorder("bench")
    tracer.install(rec)
    traffic = Traffic(spec, seed, nconn)
    run_phase(dep.port, traffic, nconn, spec.warmup_s)
    phase = run_phase(dep.port, traffic, nconn, seconds / 2)
    dep.stop()
    dumps = [{"pid": os.getpid(), "role": "bench", "spans": rec.spans}]
    for filename in sorted(os.listdir(trace_dir)):
        if filename.endswith(".json"):
            with open(os.path.join(trace_dir, filename), encoding="utf-8") as f:
                dumps.append(json.load(f))

    def is_root(role, layer, name, t0, t1, attrs):
        return (
            role == "bench"
            and layer == "service.client"
            and phase.started <= t0
            and t1 <= phase.ended
        )

    ledger = build_ledger(dumps, is_root, sum(phase.conn_walls))
    return (
        span_metrics(ledger, phase.requests),
        phase.ok / phase.wall_s,
        ledger.table(phase.requests),
    )
