# Dep-Miner reproduction — convenience targets.

PYTHON ?= python

.PHONY: install test test-parallel bench bench-cache bench-transversal \
	bench-columnar bench-ingest bench-serve bench-regress \
	cache-smoke trace-smoke transversal-smoke faults-smoke \
	telemetry-smoke serve-smoke experiments experiments-paper examples \
	clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The sharded execution layer: equivalence suites plus a traced
# --jobs 2 discover run whose worker spans are schema-validated.
test-parallel:
	$(PYTHON) -m pytest tests/test_parallel.py \
		tests/test_differential_miners.py tests/test_properties.py
	mkdir -p .trace-parallel
	$(PYTHON) -m repro generate -a 6 -t 500 -c 0.3 --seed 0 \
		-o .trace-parallel/data.csv
	$(PYTHON) -m repro discover .trace-parallel/data.csv --jobs 2 \
		--trace .trace-parallel/discover.jsonl --metrics > /dev/null
	$(PYTHON) scripts/check_trace.py .trace-parallel/discover.jsonl

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The artifact-cache speedup guard: asserts the warm-hit and incremental
# floors, then records the cold/warm/incremental timings.
bench-cache:
	$(PYTHON) -m pytest benchmarks/bench_cache.py -q
	$(PYTHON) benchmarks/bench_cache.py BENCH_cache.json

# The transversal-kernel speedup guard: asserts the >= 3x kernel floor
# on the wide-schema workload (with identical transversal families and
# FD covers), then records the timings.
bench-transversal:
	$(PYTHON) -m pytest benchmarks/bench_transversal_kernel.py -q
	$(PYTHON) benchmarks/bench_transversal_kernel.py BENCH_transversal.json

# The columnar-backend speedup guard: asserts the >= 5x whole-pipeline
# floor over the pure-Python path (with bit-identical FD covers across
# the backend x jobs conformance grid), then records the timings.
bench-columnar:
	$(PYTHON) -m pytest benchmarks/bench_columnar.py -q
	$(PYTHON) benchmarks/bench_columnar.py BENCH_columnar.json

# The streaming-ingest speedup guard: asserts the >= 3x end-to-end
# CSV -> cover floor over the materializing relation_from_csv path
# (with bit-identical covers and Armstrong relations across the
# ingest-path x backend x jobs grid, and warm-cache replays served
# without building the Relation), then records the timings.
bench-ingest:
	$(PYTHON) -m pytest benchmarks/bench_ingest.py -q
	$(PYTHON) benchmarks/bench_ingest.py BENCH_ingest.json

# The discovery-daemon speedup guard: asserts a warm session answers a
# cover query >= 20x faster than a cold one-shot process (and >= 2x an
# in-process cold mine), with the served cover bit-identical to
# DepMiner.run, then records the timings.
bench-serve:
	$(PYTHON) -m pytest benchmarks/bench_serve.py -q
	$(PYTHON) benchmarks/bench_serve.py BENCH_serve.json

# End-to-end kernel smoke: mine the reduction fixture (duplicated
# columns + a near-duplicate row pair) with --transversal kernel and
# assert the reduce spans and reduction counters in the trace.
transversal-smoke:
	mkdir -p .transversal-smoke
	$(PYTHON) -m repro discover scripts/fixtures/transversal_smoke.csv \
		--transversal kernel \
		--trace .transversal-smoke/discover.jsonl > /dev/null
	$(PYTHON) scripts/check_transversal.py \
		.transversal-smoke/discover.jsonl
	$(PYTHON) scripts/check_trace.py .transversal-smoke/discover.jsonl

# End-to-end cache smoke: mine with --cache-dir (cold), rerun (warm full
# hit), append rows (incremental), then assert the cache counters in the
# three traces and schema-validate them.  The columnar leg repeats the
# sequence on its own store; on both legs a cold run writes 2 artefacts
# (agree sets and cover) and an append publishes the same 2.
cache-smoke:
	mkdir -p .cache-smoke/columnar
	$(PYTHON) -m repro generate -a 6 -t 400 -c 0.5 --seed 0 \
		-o .cache-smoke/data.csv
	$(PYTHON) -m repro generate -a 6 -t 8 -c 0.5 --seed 1 \
		-o .cache-smoke/extra.csv
	$(PYTHON) -m repro discover .cache-smoke/data.csv \
		--cache-dir .cache-smoke/store \
		--trace .cache-smoke/cold.jsonl > /dev/null
	$(PYTHON) -m repro discover .cache-smoke/data.csv \
		--cache-dir .cache-smoke/store \
		--trace .cache-smoke/warm.jsonl > /dev/null
	$(PYTHON) -m repro discover .cache-smoke/data.csv \
		--cache-dir .cache-smoke/store --append .cache-smoke/extra.csv \
		--trace .cache-smoke/append.jsonl > /dev/null
	$(PYTHON) scripts/check_cache.py .cache-smoke/cold.jsonl \
		.cache-smoke/warm.jsonl .cache-smoke/append.jsonl
	$(PYTHON) scripts/check_trace.py .cache-smoke/cold.jsonl \
		.cache-smoke/warm.jsonl .cache-smoke/append.jsonl
	$(PYTHON) -m repro discover .cache-smoke/data.csv --backend columnar \
		--cache-dir .cache-smoke/columnar/store \
		--trace .cache-smoke/columnar/cold.jsonl > /dev/null
	$(PYTHON) -m repro discover .cache-smoke/data.csv --backend columnar \
		--cache-dir .cache-smoke/columnar/store \
		--trace .cache-smoke/columnar/warm.jsonl > /dev/null
	$(PYTHON) -m repro discover .cache-smoke/data.csv --backend columnar \
		--cache-dir .cache-smoke/columnar/store \
		--append .cache-smoke/extra.csv \
		--trace .cache-smoke/columnar/append.jsonl > /dev/null
	$(PYTHON) scripts/check_cache.py \
		.cache-smoke/columnar/cold.jsonl .cache-smoke/columnar/warm.jsonl \
		.cache-smoke/columnar/append.jsonl
	$(PYTHON) scripts/check_trace.py .cache-smoke/columnar/cold.jsonl \
		.cache-smoke/columnar/warm.jsonl .cache-smoke/columnar/append.jsonl

# End-to-end service smoke: boot a real `repro serve` process on an
# ephemeral port, drive register -> append -> cover/keys/armstrong over
# HTTP (cover checked against a cold in-process run), assert the warm
# repeat-registration cache hit, the typed 404 error document and the
# per-request manifests, then shut down gracefully.
serve-smoke:
	$(PYTHON) scripts/check_serve.py
	$(PYTHON) scripts/check_serve.py --backend columnar
	$(PYTHON) scripts/check_serve.py --jobs 2 --stop sigterm

# The noise-aware perf-regression gate: re-runs the obs / cache /
# transversal / columnar / ingest / serve bench suites against the
# committed BENCH_*.json baselines
# (speedup ratios, overhead budgets, per-phase fractions) and drops one
# RunManifest per suite into results/telemetry/.  Fails with REGRESSED
# lines naming the phase or ratio that moved.
bench-regress:
	$(PYTHON) scripts/check_regression.py

# End-to-end telemetry smoke: one --telemetry discover run (manifest +
# trace), then exercise every `repro trace` subcommand on the outputs
# and validate both artifacts.
telemetry-smoke:
	mkdir -p .telemetry-smoke results/telemetry
	$(PYTHON) -m repro generate -a 6 -t 300 -c 0.4 --seed 0 \
		-o .telemetry-smoke/data.csv
	$(PYTHON) -m repro discover .telemetry-smoke/data.csv \
		--telemetry results/telemetry/smoke.json \
		--trace .telemetry-smoke/discover.jsonl --metrics > /dev/null
	$(PYTHON) -m repro trace summary results/telemetry/smoke.json
	$(PYTHON) -m repro trace critical-path .telemetry-smoke/discover.jsonl
	$(PYTHON) -m repro trace diff .telemetry-smoke/discover.jsonl \
		results/telemetry/smoke.json > /dev/null
	$(PYTHON) -m repro trace export-chrome results/telemetry/smoke.json \
		-o .telemetry-smoke/chrome-trace.json
	$(PYTHON) scripts/check_trace.py .telemetry-smoke/discover.jsonl
	$(PYTHON) -c "import json, sys; \
		sys.path.insert(0, 'src'); \
		from repro.obs import validate_manifest; \
		problems = validate_manifest(json.load(open( \
			'results/telemetry/smoke.json'))); \
		sys.exit('\n'.join(problems) if problems else 0)"

# End-to-end observability smoke: trace a discover run and a tiny bench
# grid, then validate both JSONL files against the repro-trace schema.
trace-smoke:
	mkdir -p .trace-smoke
	$(PYTHON) -m repro generate -a 5 -t 200 -c 0.3 --seed 0 \
		-o .trace-smoke/data.csv
	$(PYTHON) -m repro discover .trace-smoke/data.csv \
		--trace .trace-smoke/discover.jsonl --metrics > /dev/null
	$(PYTHON) -m repro bench -e table3 --scale tiny --quiet \
		--algorithms depminer tane \
		--trace .trace-smoke/bench.jsonl > /dev/null
	$(PYTHON) scripts/check_trace.py .trace-smoke/discover.jsonl \
		.trace-smoke/bench.jsonl

# End-to-end reliability smoke: mine once fault-free, then once under
# the canned chaos plan (every pool shard attempt dies, every disk
# publish fails) and assert (a) the covers are byte-identical and (b)
# the degradation/quarantine counters prove the recovery paths ran.
# Separate cache dirs keep the faulty run from dodging the disk tier
# via a warm full hit.
faults-smoke:
	mkdir -p .faults-smoke
	$(PYTHON) -m repro generate -a 6 -t 300 -c 0.4 --seed 0 \
		-o .faults-smoke/data.csv
	$(PYTHON) -m repro discover .faults-smoke/data.csv --jobs 2 \
		--cache-dir .faults-smoke/store > .faults-smoke/plain.txt
	$(PYTHON) -m repro discover .faults-smoke/data.csv --jobs 2 \
		--cache-dir .faults-smoke/store-faulty \
		--fault-plan scripts/fault_plans/smoke.json \
		--trace .faults-smoke/faults.jsonl > .faults-smoke/faulty.txt
	$(PYTHON) scripts/check_faults.py .faults-smoke/faults.jsonl \
		.faults-smoke/plain.txt .faults-smoke/faulty.txt

# The paper's tables and figures at the laptop-friendly scale.
experiments:
	$(PYTHON) scripts/run_experiments.py --scale small --timeout 90 --isolated

# The original grid with the paper's two-hour budget (long!).
experiments-paper:
	$(PYTHON) scripts/run_experiments.py --scale paper --timeout 7200 --isolated

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/theory_tour.py
	$(PYTHON) examples/logical_tuning.py
	$(PYTHON) examples/csv_profiling.py
	$(PYTHON) examples/warehouse_audit.py
	$(PYTHON) examples/benchmark_shootout.py --rows 300 --attrs 5
	$(PYTHON) examples/large_table_sampling.py --rows 5000 --attrs 6

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks \
		.trace-smoke .trace-parallel .cache-smoke .faults-smoke \
		.transversal-smoke .telemetry-smoke .trace-columnar
	find . -name __pycache__ -type d -exec rm -rf {} +
