PYTHON ?= python

.PHONY: install test lint race faults experiments sweep examples all clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The front end runs simlint and simflow once over src/ and audits stale
# suppressions; ruff runs when installed (CI installs it via the dev
# extras, bare environments may not).
lint:
	$(PYTHON) -m repro.analysis.analyze --check-suppressions src/
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src/ tests/ benchmarks/ examples/; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[dev]')"; \
	fi

# Race check: perturb DES schedules on the tiny OLTP config and fail on
# any undocumented schedule-dependent stat.
race:
	$(PYTHON) -m repro race --seeds 5

# Deterministic cross-layer fault-injection campaign (simfault), CI scale.
faults:
	$(PYTHON) -m repro faults --smoke

# Serial, uncached regeneration of EXPERIMENTS.md.
experiments:
	$(PYTHON) -m repro sweep --jobs 1 --no-cache

# Parallel, cached regeneration of EXPERIMENTS.md plus the perf artifact.
sweep:
	$(PYTHON) -m repro sweep --json BENCH_sweep.json

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

all: lint test experiments

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
