PYTHON ?= python

.PHONY: install test test-fast faults bench examples reports trace-demo workload serve-demo explain-demo capacity-json mitigation-demo capacity-ab-json capacity-overload-json capacity-consistency-json onesided-demo overload-demo antientropy-demo antientropy-json record-replay-demo profile-demo clean

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest tests/

test-fast:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest tests/ -m "not slow"

faults:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro faults --seed $${SEED:-0}

bench:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest benchmarks/ --benchmark-only

workload:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro workload --seed $${SEED:-1} --load $${LOAD:-20000}

serve-demo:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro serve

explain-demo:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro explain --seed $${SEED:-1} --requests $${REQUESTS:-80}

capacity-json:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro capacity --loads $${LOADS:-10000,40000} --requests $${REQUESTS:-120} --json BENCH_capacity.json

# The mitigation A/B from EXPERIMENTS.md "Serving capacity", at
# doc-exact arguments (tests/test_docs_links.py pins the doc's output
# block to this command's output).
mitigation-demo:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro capacity --loads 20000,40000,80000,120000,160000,240000,320000 --zipf-s 1.3 --ab

# Paired A/B sweep isolating the one-sided server bypass (docs/ONESIDED.md).
# It overwrites BENCH_capacity.json; the committed copy comes from
# capacity-overload-json below.
capacity-ab-json:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro capacity --ab --onesided --seed $${SEED:-11} --concurrency $${CONCURRENCY:-16} --requests $${REQUESTS:-2000} --loads $${LOADS:-150000,200000,250000,300000} --json BENCH_capacity.json

# Overload-control A/B (docs/OVERLOAD.md): both sides model contended
# node CPUs, only B arms admission + retry budgets + backpressure.  The
# committed BENCH_capacity.json is this target's defaults' output, and
# CI checks that it still reproduces byte for byte.
capacity-overload-json:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro capacity --overload --seed $${SEED:-11} --concurrency $${CONCURRENCY:-16} --requests $${REQUESTS:-2000} --loads $${LOADS:-20000,40000,60000,80000,120000} --json BENCH_capacity.json

# Consistency A/B (docs/REPLICATION.md): A = eventual + read-spreading
# (nonzero stale-read rate), B = quorum reads/writes + read repair
# (must serve zero stale reads at every load).
capacity-consistency-json:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro capacity --consistency --seed $${SEED:-11} --requests $${REQUESTS:-400} --keys $${KEYS:-80} --read-fraction $${READ_FRACTION:-0.7} --loads $${LOADS:-20000,40000,80000} --json BENCH_capacity.json

# The runnable example from docs/REPLICATION.md: a capped replication
# queue plus a replica-crash fault create divergence, and the Merkle
# anti-entropy sweeper heals it (the report's convergence: lines).
antientropy-demo:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro antientropy --seed $${SEED:-1}

# Same run, also writing the machine-readable convergence record
# (divergent-keys-over-time series) for the CI artifact.
antientropy-json:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro antientropy --seed $${SEED:-1} --json BENCH_antientropy.json

# The runnable examples from docs/ONESIDED.md, at doc-exact arguments.
onesided-demo:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro workload --onesided --requests 2000 --concurrency 16 --load 200000
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro explain --onesided --read-fraction 1.0 --requests 80

# The runnable example from docs/OVERLOAD.md, at doc-exact arguments:
# a controlled run at 2x the calibrated knee, showing the rejected:/
# goodput: report lines and the conservation invariant.
overload-demo:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro workload --seed 11 --requests 2000 --concurrency 16 --load 120000 --cpu-slots 1 --cpu-op-us 50 --slo-latency 1000 --admission --admit-queue 8 --admit-deadline 400 --retry-budget 1 --retry-base 50 --backpressure

# The runnable examples from docs/WORKLOADS.md "Record & replay", at
# doc-exact arguments: freeze a stream, replay it verbatim, then a
# paired A/B over the one-sided bypass on the same offered traffic.
record-replay-demo:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro record --out stream.json --seed 11 --requests 400 --load 40000
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro replay --stream stream.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro replay --stream stream.json --ab onesided_reads=true

# The runnable examples from docs/OBSERVABILITY.md "Profiles & diffs",
# at doc-exact arguments: a fleet-wide flame profile of one traced run,
# then a recorded stream replayed with the one-sided bypass as the only
# change, stage-attributing the latency delta (closure gate 5%).
profile-demo:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro profile --seed 11 --requests 120 --load 40000
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro record --out profile-stream.json --seed 11 --requests 300 --load 60000
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro diff --stream profile-stream.json --ab onesided_reads=true

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/nx_stencil.py
	$(PYTHON) examples/rpc_keyvalue.py
	$(PYTHON) examples/sockets_streaming.py
	$(PYTHON) examples/shrimp_rpc_demo.py
	$(PYTHON) examples/shared_memory.py

trace-demo:
	mkdir -p benchmarks/results
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) examples/quickstart.py --trace benchmarks/results/quickstart-trace.json
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro trace --check benchmarks/results/quickstart-trace.json

reports: bench
	@echo; echo "=== benchmark reports (benchmarks/results/) ==="; echo
	@for f in benchmarks/results/*.txt; do echo "--- $$f"; cat $$f; echo; done

# benchmarks/results/*.txt are tracked (CI diffs them); only the trace
# JSON files written there are generated.
clean:
	rm -rf .pytest_cache .hypothesis
	rm -f benchmarks/results/*.json
	find . -name __pycache__ -type d -exec rm -rf {} +
