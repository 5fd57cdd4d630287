# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: help install test verify fuzz-quick bench top serve examples report fast-report figure1 all-experiments clean

help:
	@echo "Targets:"
	@echo "  install          editable install of the package"
	@echo "  test             run the unit test suite"
	@echo "  verify           tier-1 tests + runner smoke test (manifest"
	@echo "                   written, JSONL logs parse, cache hits > 0)"
	@echo "                   + fuzz-quick"
	@echo "  fuzz-quick       deterministic differential fuzz (fixed seed,"
	@echo "                   <60s) + mutation smoke: every injected bug"
	@echo "                   must be flagged; nonzero exit otherwise"
	@echo "  bench            pytest-benchmark reproductions under"
	@echo "                   benchmarks/ (they assert on reproduced numbers)"
	@echo "  (perf)           the repo benchmark is perfbench/, not a make"
	@echo "                   target: python3 perfbench/run.py --workload W"
	@echo "                   --seed N [--trace 1 for the per-layer ledger];"
	@echo "                   see perfbench/README.md"
	@echo "  top              live terminal dashboard over a spawned server"
	@echo "                   (req/s, p50/p99, cache hit ratio, batch sizes)"
	@echo "  serve            run the admission service on localhost:8787"
	@echo "  examples         run every example script"
	@echo "  figure1          full Figure 1 run, CSV output"
	@echo "  report           full markdown report"
	@echo "  fast-report      scaled-down report (seconds, same shapes)"
	@echo "  all-experiments  every experiment at paper scale"
	@echo "  clean            remove build artifacts and caches"

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

verify:
	$(PYTHON) -m pytest tests/ -x -q
	$(PYTHON) tools/verify_smoke.py
	$(MAKE) fuzz-quick

fuzz-quick:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.experiments.runner fuzz \
		--fuzz-cases 60 --mutation-smoke --no-manifest --log-level warning

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

top:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.experiments.runner top \
		--spawn --no-manifest --log-level error

serve:
	PYTHONPATH=src:$$PYTHONPATH $(PYTHON) -m repro.experiments.runner serve \
		--port 8787 --no-manifest

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

figure1:
	$(PYTHON) -m repro.experiments.runner figure1 --csv figure1_full.csv

report:
	$(PYTHON) -m repro.experiments.runner report --out report.md

fast-report:
	$(PYTHON) -m repro.experiments.runner report --fast --out report.md

all-experiments:
	$(PYTHON) -m repro.experiments.runner all

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -type d -name __pycache__ -prune -exec rm -rf {} \;
