# Convenience targets for the SODA reproduction.

.PHONY: install test lint chaos coverage bench bench-compare bench-pytest experiments report examples examples-check obs-demo market-demo scenarios all

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src python -m pytest -x -q

lint:
	ruff check src/ tests/ examples/ benchmarks/

# Chaos soak: the seeded fault campaign over the open-loop web workload,
# run for each of the three pinned seeds (0, 7, 123).
chaos:
	PYTHONPATH=src python -m pytest tests/faults/test_chaos_soak.py -q

# Needs pytest-cov (pip install pytest-cov); the floor matches CI's.
coverage:
	PYTHONPATH=src python -m pytest -q --cov=repro --cov-report=term --cov-fail-under=80

bench:
	PYTHONPATH=src python -m repro.bench

bench-compare:
	PYTHONPATH=src python -m repro.bench --dry-run --compare

bench-pytest:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

experiments:
	PYTHONPATH=src python -m repro.experiments.runner all

report:
	PYTHONPATH=src python -m repro.experiments.runner report --out EXPERIMENTS.md

EXAMPLES := quickstart genome_service honeypot_isolation custom_switch_policy \
	capacity_planning diurnal_autoscaler sla_tiers observability market_economics

examples:
	@for name in $(EXAMPLES); do PYTHONPATH=src python examples/$$name.py || exit 1; done

# Every example's stdout must match its recording in examples/expected/
# byte for byte (fixed seeds, named RNG streams).  Re-record one with
# `PYTHONPATH=src python examples/<name>.py > examples/expected/<name>.txt`.
examples-check:
	@out=$$(mktemp -d); for name in $(EXAMPLES); do \
		PYTHONPATH=src python examples/$$name.py > $$out/$$name.txt || exit 1; \
		diff -u examples/expected/$$name.txt $$out/$$name.txt || exit 1; \
		echo "$$name: matches examples/expected/$$name.txt"; \
	done; rm -rf $$out

obs-demo:
	PYTHONPATH=src python examples/observability.py obs-demo

# The scenario library: list the catalogue, then run the fast matrix
# (scenario x policy x seed) serially and with 2 workers — byte-identical.
scenarios:
	PYTHONPATH=src python -m repro.scenario.cli list
	PYTHONPATH=src python -m repro.experiments.scenario_matrix --fast --parallel 2

# Spot pricing, bid-aware admission, and the market-vs-FCFS ablation.
market-demo:
	PYTHONPATH=src python examples/market_economics.py
	PYTHONPATH=src python -m repro.experiments.runner run ablation-market --fast

all: test bench
