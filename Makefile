# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test test-verbose bench bench-paper bench-faults bench-parallel perfbench-selftest chaos serve-chaos figures examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-verbose:
	$(PYTHON) -m pytest tests/ -v

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-paper:
	REPRO_BENCH_FIDELITY=paper $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-faults:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_fault_sweep.py

bench-parallel:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_trials_parallel.py

perfbench-selftest:
	$(PYTHON) perfbench/selftest.py

chaos:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_chaos_exec.py tests/test_exec_supervise.py tests/test_exec_journal.py -m "slow or not slow"
	PYTHONPATH=src $(PYTHON) benchmarks/bench_chaos_exec.py

serve-chaos:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_chaos_serve.py tests/test_serve_protocol.py tests/test_serve_service.py tests/test_serve_server.py -m "slow or not slow"

figures:
	$(PYTHON) -m repro.cli experiment fig6 --ci
	$(PYTHON) -m repro.cli experiment fig7 --ci
	$(PYTHON) -m repro.cli experiment fig8 --ci

examples:
	@for ex in examples/*.py; do echo "== $$ex =="; $(PYTHON) $$ex; echo; done

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
