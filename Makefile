# Convenience targets; everything works without make too.

.PHONY: install test test-nojit bench figures figures-paper smoke lint \
	trace-demo chaos chaos-concurrent bench-gate sanitize e2e-smoke \
	e2e-profile

install:
	python setup.py develop

test:
	pytest tests/

# Full suite on the interpreter backend (the JIT-off CI leg).
test-nojit:
	REPRO_JIT=0 pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

smoke:
	python -m repro.bench --scale smoke

# The oracle-checked end-to-end workloads (paper_olap, sharded_olap,
# service_small, stream_window) as tests — tier-1 collects only tests/.
e2e-smoke:
	PYTHONPATH=src python -m pytest -q benchmarks/e2e

# The per-layer profile of the paper-scale workload (2^20 records):
# prints gpu.raster_ms, gpu.depth_quantize_ms, gpu.program_ms,
# gpu.tests_ms and the rest, and writes a Chrome trace under
# /tmp/e2e-profile/traces.  Run it on two checkouts for a before/after.
e2e-profile:
	python3 benchmarks/e2e/run.py --workload paper_olap --trace 1 \
		--seconds 10 --out /tmp/e2e-profile

figures:
	python -m repro.bench --scale quick

figures-paper:
	python -m repro.bench --scale paper --markdown

# repro-lint (pure stdlib) always runs; ruff/mypy run when installed.
lint:
	python -m compileall -q src tests benchmarks examples
	PYTHONPATH=src python -m repro.analysis.cli src/repro \
		--baseline lint-baseline.json
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else echo "ruff not installed; skipping"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		PYTHONPATH=src mypy -p repro.analysis -p repro.plan \
			-p repro.shard -p repro.service -m repro.sanitize; \
	else echo "mypy not installed; skipping"; fi

# The dynamic race sanitizer over the concurrent layers: every test in
# the shard and service suites (chaos included) runs with the process
# recorder armed and fails on any H109 it produced (see
# docs/SANITIZER.md and the autouse gate in tests/conftest.py).  The
# pipeline reference and count-index tests run armed too: every
# count-index hit is re-derived and a stale one raises H111.
sanitize:
	PYTHONPATH=src REPRO_SAN=1 python -m pytest -q \
		tests/shard tests/service tests/analysis \
		tests/gpu/test_pipeline_reference.py tests/gpu/test_count_index.py

# Every degraded path in one command: the CI chaos job's fault-profile
# suite (REPRO_CHAOS_PROFILE, default mixed), the killed-shard chaos
# tests, the killed-shard cases of the sharded differential matrix and
# the stream queries forced onto the host path.
chaos:
	PYTHONPATH=src REPRO_CHAOS_PROFILE=$${REPRO_CHAOS_PROFILE:-mixed} \
		python -m pytest -q -m chaos
	PYTHONPATH=src python -m pytest -q tests/shard/test_chaos.py
	PYTHONPATH=src python -m pytest -q tests/shard/test_differential.py \
		-k killed
	PYTHONPATH=src python -m pytest -q tests/test_streams.py \
		-k "TestResilience or TestHostPathDifferential"

# Concurrent-session chaos (REPRO_CHAOS_SESSIONS sweeps the session
# count; CI runs 2/4/8).
chaos-concurrent:
	PYTHONPATH=src REPRO_CHAOS_SESSIONS=$${REPRO_CHAOS_SESSIONS:-4} \
		python -m pytest -q -m chaos tests/service/test_chaos.py

# Regenerate the benchmark snapshot and gate it against the committed
# BENCH_<n>.json trajectory (see src/repro/bench/compare.py).
bench-gate:
	PYTHONPATH=src python -m repro.bench --snapshot /tmp/BENCH_current.json
	PYTHONPATH=src python -m repro.bench.compare /tmp/BENCH_current.json \
		--against BENCH_25.json

# Trace the figure-9 workload (selection + masked median) per pass;
# writes traces/fig9.txt (pass tree) and traces/fig9.json (load in
# chrome://tracing or https://ui.perfetto.dev).
trace-demo:
	python -m repro.bench fig9 --scale smoke --trace traces
