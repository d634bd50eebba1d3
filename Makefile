# Convenience targets for the SODA reproduction.

.PHONY: install test lint chaos coverage bench bench-compare bench-pytest experiments report examples obs-demo market-demo scenarios all

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

examples:
	PYTHONPATH=src python examples/quickstart.py
	PYTHONPATH=src python examples/genome_service.py
	PYTHONPATH=src python examples/honeypot_isolation.py
	PYTHONPATH=src python examples/custom_switch_policy.py
	PYTHONPATH=src python examples/capacity_planning.py
	PYTHONPATH=src python examples/diurnal_autoscaler.py
	PYTHONPATH=src python examples/sla_tiers.py
	PYTHONPATH=src python examples/observability.py
	PYTHONPATH=src python examples/market_economics.py

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
