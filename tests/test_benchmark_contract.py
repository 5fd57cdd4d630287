"""The program names the repository benchmark (``perfbench/``) relies on.

``perfbench/tracer.py`` wraps program callables by module and attribute
path when a run is traced, and the offline workloads read the timing-span
snapshot.  Renaming any of them would break ``perfbench/run.py --trace 1``
or ``figure1_paper`` with an ImportError or AttributeError while every
other test stays green, so each name is resolved here.  The benchmark's
files are only read, never changed.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer  # noqa: E402


@pytest.mark.parametrize(
    "module_name, path",
    [(spec[0], spec[1]) for spec in tracer.LAYER_SPECS]
    + list(tracer._CONN_SETTERS),
)
def test_traced_callable_resolves(module_name, path):
    _, owner, attr = tracer._resolve(module_name, path)
    assert callable(getattr(owner, attr)), f"{module_name}:{path}"


def test_router_backend_acquire_exists():
    from repro.cluster import router

    assert callable(router._Backend.acquire)


def test_timing_snapshot_exists():
    from repro.obs import timing

    assert callable(timing.snapshot)
