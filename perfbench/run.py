"""The repository benchmark: one command, four workloads.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric; ``--trace 1`` repeats the
workload with span wrappers installed and prints every per-layer metric
(see ``perfbench/README.md``).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the provenance block.  The exit code is 0 only when every
correctness check and regime assertion passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("figure1_paper", "fleet_hot", "serve_churn", "sim_crossval")


def _run(workload: str, seed: int, seconds: float, trace: bool):
    from perfbench import offline, served

    if workload == "figure1_paper":
        return offline.figure1_paper(seed, seconds, trace)
    if workload == "sim_crossval":
        return offline.sim_crossval(seed, seconds, trace)
    return served.run(workload, seed, seconds, trace)


def _prepare(workload: str, seed: int) -> None:
    """Set-up of an offline workload (served set-up is a service spawn)."""
    from perfbench import offline

    if workload == "figure1_paper":
        offline.figure1_prepare(seed)
    elif workload == "sim_crossval":
        offline.sim_prepare(seed)
    else:
        raise SystemExit(f"--setup-only applies to offline workloads, not {workload}")


def _emit(outcome, trace: bool) -> dict:
    """The result object: every metric the mode promises, with its unit."""
    from perfbench.common import END_TO_END, PER_LAYER, SELF_TIME_UNIT
    from perfbench.metrics import self_time_names

    if trace:
        units = dict(PER_LAYER)
        units.update({name: SELF_TIME_UNIT for name in self_time_names()})
    else:
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = float(outcome.metrics.get(name, 0.0))
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value!r}")
        metrics[name] = {"value": value, "unit": unit}
    correct = all(c.ok for c in outcome.checks) and bool(outcome.checks)
    return {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and prepare inputs, print 'ready', exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(_ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [_ROOT, src]

    if args.setup_only:
        _prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    from perfbench.common import provenance

    # A terminated benchmark still stops the services it started: SIGTERM
    # unwinds through the workloads' ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    outcome = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = _emit(outcome, bool(args.trace))
    for item in outcome.checks:
        print(f"{item.status.upper():8} {item.name}  {item.detail}",
              file=sys.stderr)
    for note in outcome.notes:
        print(note, file=sys.stderr)
    print(json.dumps({"provenance": provenance(
        args.workload, args.seed, args.seconds, bool(args.trace),
        outcome.params,
    )}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
