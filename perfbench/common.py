"""Shared helpers: metric names, /proc readings, statistics, provenance."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

#: Checkout root (the parent of ``perfbench/``) and the program sources.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.  A layer a workload
#: does not exercise reads 0.
PER_LAYER = {
    "client.cpu_frac": "ratio",
    "client.late_p99_ms": "ms",
    "router.cpu_ms_per_req": "ms",
    "router.retries": "count",
    "server.cpu_ms_per_req": "ms",
    "protocol.decode_ms": "ms",
    "protocol.encode_ms": "ms",
    "batcher.queue_wait_ms": "ms",
    "batcher.batch_size_mean": "count",
    "batcher.shed": "count",
    "admission.process_batch_ms": "ms",
    "admission.levels_reused_ratio": "ratio",
    "admission.reject_ratio": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.lookup_ms": "ms",
    "rm.kernel_ms": "ms",
    "rm.candidates_per_call": "count",
    "pdp.structure_hit_ratio": "ratio",
    "breakdown.probes_per_set": "count",
    "breakdown.self_ms": "ms",
    "generators.sample_ms": "ms",
    "figure1.cell_s.pdp_standard": "s",
    "figure1.cell_s.pdp_modified": "s",
    "figure1.cell_s.ttp": "s",
    "sim.run_ms.pdp": "ms",
    "sim.run_ms.ttp": "ms",
    "sim.compression_ratio.pdp": "ratio",
    "sim.compression_ratio.ttp": "ratio",
    "sim.fallbacks": "count",
    "trace.overhead_ratio": "ratio",
    "ledger.unattributed_ratio": "ratio",
}

#: Layers whose self time per operation the traced run reports as
#: ``self_ms.<layer>`` (filled in from :data:`perfbench.ledger.LAYERS`).
SELF_TIME_UNIT = "ms"

#: The stated tolerance: layer self times must add up to the wall time
#: (operation-seconds) within this share.
LEDGER_TOLERANCE = 0.05


@dataclass
class Check:
    """One correctness or regime check: passed, failed, or could not run."""

    name: str
    status: str  # "pass" | "fail" | "not-run"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def check(name: str, condition: bool, detail: str = "") -> Check:
    return Check(name, "pass" if condition else "fail", detail)


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


# -- /proc readings ---------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read().decode()
    fields = raw[raw.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- statistics -------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def ratio(num: float, den: float) -> float:
    """``num / den``, 0 when nothing was counted."""
    return num / den if den else 0.0


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- provenance -------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over every file under ``src/`` (path and content), so a
    result names the measured program even outside a git checkout."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: bool,
               params: dict) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": _git_revision(),
        "src_sha256": source_digest(),
        "argv": sys.argv[1:],
        "params": params,
    }
