"""Span recording for the traced benchmark runs.

The program under ``src/`` is never edited: :func:`install` replaces the
public functions and methods named in :data:`LAYER_SPECS` with wrappers
that record one span per call.  A span is the tuple

    ``(id, parent_id, layer, name, t0, t1, attrs)``

with ``t0``/``t1`` read from ``time.monotonic()`` — ``CLOCK_MONOTONIC``,
one clock for every process on the host, so spans recorded by the
benchmark client, the router and the server line up on one time axis.
The parent is the innermost open span of the same task or thread (a
context variable, so asyncio tasks and the batcher's worker thread each
keep their own nesting).

Spans that cross a process or thread boundary carry link attributes the
ledger (:mod:`perfbench.ledger`) joins on:

* ``down`` — on a span that sends a request over a socket: the socket's
  local port.  ``conn`` — on a root span inside a server: the peer port of
  the connection whose task it ran on.  Equal ports and a contained time
  interval link the two.
* ``op`` / ``ops`` — on ``MicroBatcher.submit`` and on the batch that
  answered it on the worker thread (``id()`` of the operation objects).

Spans are kept in memory and written as JSON when the process exits.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time

__all__ = ["LAYER_SPECS", "Recorder", "install", "install_from_env"]

#: Environment variable naming the directory traced processes dump to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: Peer port of the connection the current server task serves.
_CONN: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_conn", default=None
)
#: Local port of the backend connection the router last acquired.
_DOWNSTREAM: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_downstream", default=None
)


class Recorder:
    """In-memory span store of one process."""

    def __init__(self, role: str):
        self.role = role
        self.spans: list = []
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def dump(self, directory: str) -> str:
        """Write ``<directory>/<pid>.json``; returns the path."""
        path = os.path.join(directory, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(
                {"pid": os.getpid(), "role": self.role, "spans": self.spans},
                handle,
                separators=(",", ":"),
            )
        os.replace(tmp, path)
        return path


# -- link-attribute helpers ---------------------------------------------------


def _sock_port(writer, which: str):
    if writer is None:
        return None
    info = writer.get_extra_info(which)
    return info[1] if isinstance(info, tuple) else None


def _client_attrs(args, kwargs, result):
    return {"down": _sock_port(args[0]._writer, "sockname"), "path": args[2]}


def _conn_attrs(args, kwargs, result):
    return {"conn": _CONN.get()}


def _backend_attrs(args, kwargs, result):
    return {"down": _DOWNSTREAM.get()}


def _submit_attrs(args, kwargs, result):
    return {"op": id(args[1])}


def _process_attrs(args, kwargs, result):
    return {"ops": [id(op) for op in args[1]]}


def _batch_attrs(args, kwargs, result):
    return {"rows": int(len(args[1]))}


def _protocol_attrs(args, kwargs, result):
    return {"protocol": args[1][1]}


def _structure_before(args, kwargs):
    self, ordered = args[0], args[1]
    return {"hit": self._structure_key(ordered) in self._test_cache}


def _cache_get_attrs(args, kwargs, result):
    return {"hit": result is not None}


def _sim_attrs(protocol):
    def attrs(args, kwargs, result):
        return {"protocol": protocol}

    return attrs


def _evaluations_attrs(args, kwargs, result):
    return {"sets": len(args[0]), "probes": sum(int(e) for _, e in result)}


#: ``(module, attribute path, layer, after-attrs, before-attrs)`` per
#: wrapped callable.  ``after`` sees ``(args, kwargs, result)``;
#: ``before`` sees ``(args, kwargs)`` and runs before the call.
LAYER_SPECS = (
    # service.client: the benchmark's load generator side.
    ("repro.service.client", "AsyncServiceClient.request", "service.client",
     _client_attrs, None),
    # cluster.router
    ("repro.cluster.router", "ClusterRouter._route", "cluster.router",
     _conn_attrs, None),
    ("repro.cluster.router", "ClusterRouter._write_response",
     "cluster.router", _conn_attrs, None),
    ("repro.cluster.router", "ClusterRouter._backend_request",
     "cluster.router", _backend_attrs, None),
    # service.server (+ service.protocol): HTTP/JSON
    ("repro.service.server", "AdmissionServer._route", "service.server",
     _conn_attrs, None),
    ("repro.service.server", "AdmissionServer._write_response",
     "service.server", _conn_attrs, None),
    ("repro.service.protocol", "load_body", "service.protocol", None, None),
    ("repro.service.protocol", "dump_body", "service.protocol", None, None),
    ("repro.service.protocol", "parse_stream_body", "service.protocol",
     None, None),
    ("repro.service.protocol", "parse_release_body", "service.protocol",
     None, None),
    ("repro.service.protocol", "decision_to_wire", "service.protocol",
     None, None),
    ("repro.service.protocol", "release_to_wire", "service.protocol",
     None, None),
    # service.batcher: the queue and the thread hop
    ("repro.service.batcher", "MicroBatcher.submit", "service.batcher",
     _submit_attrs, None),
    ("repro.service.batcher", "MicroBatcher._process", "service.batcher",
     _process_attrs, None),
    # admission (+ admission_incremental)
    ("repro.admission", "AdmissionController.process_batch", "admission",
     None, None),
    ("repro.admission", "AdmissionController.check", "admission", None, None),
    ("repro.admission", "AdmissionController.request", "admission",
     None, None),
    # cache
    ("repro.cache.store", "ResultCache.get", "cache", _cache_get_attrs, None),
    ("repro.cache.store", "ResultCache.put", "cache", None, None),
    # analysis.rm: the exact-test kernel (the incremental engine's sliced
    # per-level product is the same kernel)
    ("repro.analysis.rm", "ExactRMTest.__init__", "analysis.rm", None, None),
    ("repro.analysis.rm", "ExactRMTest.is_schedulable", "analysis.rm",
     None, None),
    ("repro.analysis.rm", "ExactRMTest.is_schedulable_batch", "analysis.rm",
     _batch_attrs, None),
    ("repro.analysis.rm", "GroupedExactRMTest.is_schedulable",
     "analysis.rm", None, None),
    ("repro.analysis.rm", "GroupedExactRMTest.is_schedulable_batch",
     "analysis.rm", _batch_attrs, None),
    ("repro.admission_incremental", "_level_verdicts", "analysis.rm",
     None, None),
    # analysis.pdp / analysis.ttp
    ("repro.analysis.pdp", "PDPAnalysis.is_schedulable", "analysis.pdp",
     None, None),
    ("repro.analysis.pdp", "PDPAnalysis.is_schedulable_many",
     "analysis.pdp", None, None),
    ("repro.analysis.pdp", "PDPAnalysis.scale_prober", "analysis.pdp",
     None, None),
    ("repro.analysis.pdp", "PDPAnalysis._exact_test_for", "analysis.pdp",
     None, _structure_before),
    ("repro.analysis.pdp", "PDPAnalysis.augmented_lengths", "analysis.pdp",
     None, None),
    ("repro.analysis.pdp", "pdp_augmented_lengths", "analysis.pdp",
     None, None),
    ("repro.analysis.ttp", "TTPAnalysis.analyze", "analysis.ttp", None, None),
    ("repro.analysis.ttp", "TTPAnalysis.is_schedulable", "analysis.ttp",
     None, None),
    ("repro.analysis.ttp", "TTPAnalysis.is_schedulable_many",
     "analysis.ttp", None, None),
    ("repro.analysis.ttp", "TTPAnalysis.saturation_scale", "analysis.ttp",
     None, None),
    ("repro.analysis.ttp", "TTPAnalysis.saturation_scales", "analysis.ttp",
     None, None),
    # analysis.breakdown
    ("repro.analysis.breakdown", "breakdown_scale", "analysis.breakdown",
     None, None),
    ("repro.analysis.breakdown", "breakdown_scales_batch",
     "analysis.breakdown", _evaluations_attrs, None),
    ("repro.analysis.breakdown", "breakdown_utilization",
     "analysis.breakdown", None, None),
    ("repro.analysis.breakdown", "breakdown_utilizations_batch",
     "analysis.breakdown", None, None),
    # messages.generators / analysis.montecarlo
    ("repro.messages.generators", "MessageSetSampler.sample",
     "messages.generators", None, None),
    ("repro.messages.generators", "MessageSetSampler.sample_many",
     "messages.generators", None, None),
    ("repro.analysis.montecarlo", "average_breakdown_utilization",
     "analysis.montecarlo", None, None),
    ("repro.analysis.montecarlo", "breakdown_samples",
     "analysis.montecarlo", None, None),
    ("repro.analysis.montecarlo", "breakdown_samples_for_sets",
     "analysis.montecarlo", None, None),
    # experiments.figure1
    ("repro.experiments.figure1", "run_figure1", "experiments.figure1",
     None, None),
    ("repro.experiments.figure1", "_figure1_cell", "experiments.figure1",
     _protocol_attrs, None),
    # sim: dispatch, fastpath, pdp_sim, ttp_sim, validate
    ("repro.sim.validate", "cross_validate_pdp", "sim", None, None),
    ("repro.sim.validate", "cross_validate_ttp", "sim", None, None),
    ("repro.sim.validate", "default_validation_horizon", "sim", None, None),
    ("repro.sim.validate", "expected_invocations", "sim", None, None),
    ("repro.sim.dispatch", "cached_run_pdp", "sim", None, None),
    ("repro.sim.dispatch", "cached_run_ttp", "sim", None, None),
    ("repro.sim.dispatch", "run_pdp", "sim", _sim_attrs("pdp"), None),
    ("repro.sim.dispatch", "run_ttp", "sim", _sim_attrs("ttp"), None),
    ("repro.sim.fastpath", "run_pdp_fast", "sim", None, None),
    ("repro.sim.fastpath_ttp", "run_ttp_fast", "sim", None, None),
    ("repro.sim.pdp_sim", "PDPRingSimulator.run", "sim", None, None),
    ("repro.sim.ttp_sim", "TTPRingSimulator.run", "sim", None, None),
    # obs: metrics, request tracing
    ("repro.obs.metrics", "Counter.inc", "obs", None, None),
    ("repro.obs.metrics", "Gauge.set", "obs", None, None),
    ("repro.obs.metrics", "Histogram.observe", "obs", None, None),
    ("repro.obs.metrics", "MetricsRegistry.snapshot", "obs", None, None),
    ("repro.obs.tracing", "Tracer.begin", "obs", None, None),
    ("repro.obs.tracing", "Tracer.finish", "obs", None, None),
    ("repro.obs.tracing", "Span.child", "obs", None, None),
    ("repro.obs.tracing", "add", "obs", None, None),
    ("repro.obs.tracing", "annotate", "obs", None, None),
)

#: Calls that only set a link context variable (no span of their own).
_CONN_SETTERS = (
    ("repro.cluster.router", "ClusterRouter._serve_connection"),
    ("repro.service.server", "AdmissionServer._serve_connection"),
)


def _wrap(fn, layer: str, name: str, rec: Recorder, after, before):
    spans = rec.spans
    clock = time.monotonic

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            sid = rec.next_id()
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            t0 = clock()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                _CURRENT.reset(token)
                attrs = after(args, kwargs, result) if after is not None else None
                if pre:
                    attrs = {**pre, **(attrs or {})}
                if parent is None:
                    attrs = {**(attrs or {}), "conn": _CONN.get()}
                spans.append((sid, parent, layer, name, t0, t1, attrs))

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pre = before(args, kwargs) if before is not None else None
        sid = rec.next_id()
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        t0 = clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = clock()
            _CURRENT.reset(token)
            attrs = after(args, kwargs, result) if after is not None else None
            if pre:
                attrs = {**pre, **(attrs or {})}
            if parent is None:
                attrs = {**(attrs or {}), "conn": _CONN.get()}
            spans.append((sid, parent, layer, name, t0, t1, attrs))

    return wrapper


def _conn_setter(fn):
    @functools.wraps(fn)
    async def wrapper(self, reader, writer):
        _CONN.set(_sock_port(writer, "peername"))
        return await fn(self, reader, writer)

    return wrapper


def _acquire(fn):
    @functools.wraps(fn)
    async def wrapper(self):
        reader, writer = await fn(self)
        _DOWNSTREAM.set(_sock_port(writer, "sockname"))
        return reader, writer

    return wrapper


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _replace_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module's reference at the wrapper
    (``from x import f`` copies the function object into the importer)."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder, skip_modules: tuple = ()) -> None:
    """Wrap every callable of :data:`LAYER_SPECS` to record into ``rec``.

    Modules in ``skip_modules`` are neither imported nor wrapped.
    """
    for module_name, path, layer, after, before in LAYER_SPECS:
        if module_name in skip_modules:
            continue
        module, owner, attr = _resolve(module_name, path)
        name = f"{module_name.rsplit('.', 1)[-1]}.{path}"
        if inspect.isclass(owner):
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(
                    _wrap(raw.__func__, layer, name, rec, after, before)))
            else:
                setattr(owner, attr, _wrap(raw, layer, name, rec, after, before))
        else:
            original = getattr(owner, attr)
            _replace_everywhere(
                original, _wrap(original, layer, name, rec, after, before)
            )
    for module_name, path in _CONN_SETTERS:
        if module_name in skip_modules:
            continue
        _, owner, attr = _resolve(module_name, path)
        setattr(owner, attr, _conn_setter(getattr(owner, attr)))
    if "repro.cluster.router" not in skip_modules:
        from repro.cluster import router

        router._Backend.acquire = _acquire(router._Backend.acquire)
    # The lockstep breakdown search probes through the closure that
    # ``scale_prober`` returns; wrap each returned probe as well.
    from repro.analysis.pdp import PDPAnalysis

    prober = PDPAnalysis.scale_prober

    @functools.wraps(prober)
    def scale_prober(self, message_sets):
        probe = prober(self, message_sets)
        return _wrap(probe, "analysis.pdp", "pdp.probe", rec, None, None)

    PDPAnalysis.scale_prober = scale_prober


def install_from_env() -> Recorder | None:
    """Launcher entry: wrap and dump at exit when the trace dir is set.

    A cluster worker is started with ``python -m repro.cluster.worker``;
    importing the router there would import that module ahead of its
    ``__main__`` run, so the worker skips the router's wrappers (it never
    routes).
    """
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        return None
    argv = getattr(sys, "orig_argv", sys.argv)
    is_worker = "repro.cluster.worker" in argv
    skip = ("repro.cluster.router",) if is_worker else ()
    role = "worker" if is_worker else ("router" if "cluster" in argv else "server")
    rec = Recorder(role)
    install(rec, skip_modules=skip)
    atexit.register(rec.dump, directory)
    return rec
