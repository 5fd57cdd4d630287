"""Launcher for traced benchmark runs.

The benchmark puts this directory (and the checkout root) on
``PYTHONPATH`` of the server, router and worker processes it starts for a
traced run, and names a dump directory in ``PERFBENCH_TRACE_DIR``.  Python
imports ``sitecustomize`` at start-up, so every such process — including a
cluster worker that the unmodified supervisor spawns with
``python -m repro.cluster.worker`` — installs the span wrappers before the
unmodified entry point runs, and writes its spans when it exits.  Untraced
runs never put this directory on the path.
"""

from perfbench.tracer import install_from_env

install_from_env()
