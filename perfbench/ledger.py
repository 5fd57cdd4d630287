"""The per-layer cost ledger built from the traced run's spans.

Spans from every traced process (see :mod:`perfbench.tracer`) are joined
into one graph:

* in-process parent links (the innermost open span of the task/thread);
* socket links — a root span inside a server whose ``conn`` (peer port)
  equals the ``down`` (local port) of a request span in the process that
  sent it, and whose interval lies inside that span's interval;
* batch links — a batch on the batcher's worker thread is a child of every
  ``MicroBatcher.submit`` span whose operation it answered.

The ledger counts time in *operation-seconds*: each root (a client request
for the served workloads, a top-level call into the program for the
offline ones) has weight 1, and a node's weight is the sum of its parents'
weights, so a batch that answered ``k`` requests is charged ``k`` times —
once to each request that waited on it.  A node's self time is its
duration minus the union of its children's intervals.  Summed over all
layers, weighted self times telescope to the roots' total duration;
``wall`` minus that total is time no wrapped call covered — the
benchmark's own loop between operations — reported as ``bench``.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["LAYERS", "Ledger", "build_ledger"]

#: Layers in ledger order (``bench`` is the unattributed remainder).
LAYERS = (
    "service.client",
    "cluster.router",
    "service.server",
    "service.protocol",
    "service.batcher",
    "admission",
    "cache",
    "analysis.rm",
    "analysis.pdp",
    "analysis.ttp",
    "analysis.breakdown",
    "analysis.montecarlo",
    "messages.generators",
    "experiments.figure1",
    "sim",
    "obs",
    "bench",
)


@dataclass
class Ledger:
    """Weighted self time per layer, plus the nodes metrics are read from."""

    wall_s: float
    self_s: dict = field(default_factory=dict)
    #: ``(name, layer, duration_s, self_s, weight, attrs)`` of every node
    #: reachable from a root, in start order.
    nodes: list = field(default_factory=list)
    #: Total duration of root spans in the window that no root reached.
    orphan_s: float = 0.0

    @property
    def attributed_s(self) -> float:
        return sum(v for k, v in self.self_s.items() if k != "bench")

    @property
    def unattributed_ratio(self) -> float:
        """Share of the wall time no layer accounts for."""
        return abs(self.wall_s - self.attributed_s) / self.wall_s

    def calls(self, suffix: str) -> list:
        """Reachable nodes whose span name ends with ``suffix``."""
        return [node for node in self.nodes if node[0].endswith(suffix)]

    def table(self, ops: int) -> str:
        """Human-readable ledger: per-layer self time, share, ms per op."""
        lines = [
            f"{'layer':<22}{'self s':>10}{'share':>8}{'ms/op':>10}",
        ]
        for layer in LAYERS:
            value = self.self_s.get(layer, 0.0)
            if value == 0.0:
                continue
            lines.append(
                f"{layer:<22}{value:>10.4f}{value / self.wall_s:>8.1%}"
                f"{1e3 * value / max(ops, 1):>10.4f}"
            )
        lines.append(
            f"{'wall':<22}{self.wall_s:>10.4f}{1:>8.0%}"
            f"{1e3 * self.wall_s / max(ops, 1):>10.4f}"
        )
        lines.append(f"(unlinked root spans in the window: {self.orphan_s:.4f} s)")
        return "\n".join(lines)


#: A server may read the clock after its response write returns, by which
#: time the sender on another core can already have parsed the reply, so
#: a linked child may end this much after its parent (the overhang is
#: clipped away).
_END_SLACK_S = 0.002


def _union_length(lo: float, hi: float, intervals: list) -> float:
    covered = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a = max(a, cursor)
        b = min(b, hi)
        if b > a:
            covered += b - a
            cursor = b
    return covered


def build_ledger(dumps: list, is_root, wall_s: float) -> Ledger:
    """Join the span dumps and account every layer's self time.

    Args:
        dumps: ``{"pid", "role", "spans"}`` documents, one per process.
        is_root: ``(role, layer, name, t0, t1, attrs) -> bool`` picking the
            roots (weight 1) among spans without an in-process parent.
        wall_s: the operation-seconds the roots' time must add up to.
    """
    layer, name, t0, t1, attrs, parent = [], [], [], [], [], []
    roles, pids = [], []
    index: dict = {}
    for dump in dumps:
        pid = dump["pid"]
        for sid, psid, lyr, nm, a, b, at in dump["spans"]:
            index[(pid, sid)] = len(layer)
            layer.append(lyr)
            name.append(nm)
            t0.append(a)
            t1.append(b)
            attrs.append(at or {})
            parent.append((pid, psid) if psid is not None else None)
            roles.append(dump["role"])
            pids.append(pid)
    n = len(layer)
    children: list = [[] for _ in range(n)]
    has_parent = [False] * n
    for i in range(n):
        if parent[i] is not None:
            p = index.get(parent[i])
            if p is not None:
                children[p].append(i)
                has_parent[i] = True

    # Socket links: a server-side root on connection ``conn`` belongs to
    # the sender's span with the same local port that contains it.
    senders = defaultdict(list)
    for i in range(n):
        port = attrs[i].get("down")
        if port is not None:
            senders[port].append((t0[i], t1[i], i))
    for entries in senders.values():
        entries.sort()
    starts = {port: [e[0] for e in entries] for port, entries in senders.items()}
    for i in range(n):
        if has_parent[i]:
            continue
        port = attrs[i].get("conn")
        if port is None or port not in senders:
            continue
        k = bisect.bisect_right(starts[port], t0[i]) - 1
        if k >= 0:
            a, b, up = senders[port][k]
            if a <= t0[i] and t1[i] <= b + _END_SLACK_S and up != i:
                children[up].append(i)
                has_parent[i] = True

    # Batch links: every submit whose operation the batch answered.
    submits = defaultdict(list)
    for i in range(n):
        op = attrs[i].get("op")
        if op is not None:
            submits[(pids[i], op)].append(i)
    for i in range(n):
        ops = attrs[i].get("ops")
        if not ops:
            continue
        for op in ops:
            for s in submits.get((pids[i], op), ()):
                if t0[s] <= t0[i] and t1[i] <= t1[s]:
                    children[s].append(i)
                    has_parent[i] = True
                    break

    # A linked child is accounted only inside its parent: clip it (and so,
    # in start order, its descendants) to the parent's interval.
    order = sorted(range(n), key=lambda i: (t0[i], -t1[i]))
    for i in order:
        for c in children[i]:
            t0[c] = min(max(t0[c], t0[i]), t1[i])
            t1[c] = max(min(t1[c], t1[i]), t0[c])

    weight = [0] * n
    orphan_s = 0.0
    for i in range(n):
        if has_parent[i]:
            continue
        if is_root(roles[i], layer[i], name[i], t0[i], t1[i], attrs[i]):
            weight[i] = 1
    for i in order:
        if weight[i]:
            for c in children[i]:
                weight[c] += weight[i]

    ledger = Ledger(wall_s=wall_s)
    self_s: dict = defaultdict(float)
    for i in order:
        if not weight[i]:
            continue
        duration = t1[i] - t0[i]
        covered = _union_length(
            t0[i], t1[i], [(t0[c], t1[c]) for c in children[i]]
        )
        own = duration - covered
        self_s[layer[i]] += weight[i] * own
        ledger.nodes.append(
            (name[i], layer[i], duration, own, weight[i], attrs[i])
        )
    roots_total = sum(
        t1[i] - t0[i] for i in range(n) if weight[i] and not has_parent[i]
    )
    self_s["bench"] = wall_s - roots_total
    ledger.self_s = dict(self_s)
    window_lo = min((t0[i] for i in range(n) if weight[i]), default=0.0)
    window_hi = max((t1[i] for i in range(n) if weight[i]), default=0.0)
    for i in range(n):
        if (
            not has_parent[i]
            and not weight[i]
            and window_lo <= t0[i]
            and t1[i] <= window_hi
        ):
            orphan_s += t1[i] - t0[i]
    ledger.orphan_s = orphan_s
    return ledger
