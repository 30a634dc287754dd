# Convenience entry points.  Everything assumes an in-tree run
# (PYTHONPATH=src) so no install step is required.

PY ?= python
export PYTHONPATH := src

.PHONY: test ci bench bench-record overhead-check serve-smoke fsck-smoke \
	store-bench-smoke scaling-smoke cluster-smoke reshard-smoke lowrank-smoke \
	kernel-smoke harness

test:
	$(PY) -m pytest tests/ -q

## What .github/workflows/ci.yml runs: the tier-1 suite plus the linter
## (skipped with a note when ruff isn't installed locally).
ci:
	$(PY) -m pytest -x -q
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/; \
	else \
		echo "ruff not installed; lint runs in CI"; \
	fi

## Timed paper benchmarks (pytest-benchmark, shape assertions included).
bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

## Record codec + container throughput and machine info into
## BENCH_pr3.json so future PRs have a trajectory to compare against
## (see benchmarks/record.py).
bench-record:
	$(PY) -m benchmarks.record

## The CI telemetry gate: fails when telemetry-enabled compress/decompress
## is >10% slower than disabled (see benchmarks/overhead_check.py).
overhead-check:
	$(PY) -m benchmarks.overhead_check --reps 7 --threshold 0.10

## End-to-end service check: boot `pastri serve` as a subprocess, round-trip
## through the client with the error bound asserted client-side, verify live
## service.* metrics, then SIGTERM and require a clean drain.  The outer
## timeout turns a wedged server into a failure, never a hung build.
serve-smoke:
	timeout 120 $(PY) scripts/serve_smoke.py

## Crash-recovery check: build a real container, truncate a copy at a
## random byte (seed printed for reproduction), run `pastri fsck` as a
## subprocess, and verify the salvaged frames round-trip within the
## error bound.  Hard timeout so a wedged salvage fails, never hangs.
fsck-smoke:
	timeout 120 $(PY) scripts/fsck_smoke.py

## Spill-store perf gate: a fixed-seed reuse workload run over the
## pre-overhaul LRU oracle backend (tests/pipeline/lru_baseline.py) and
## the store's 2Q/mmap/readahead path.  Fails unless
## the overhauled path is >=3x faster with >=4x fewer disk reads, the
## ratio is untouched, and a compacted container recovers every frame.
store-bench-smoke:
	timeout 120 $(PY) scripts/store_bench_smoke.py

## Zero-copy data-plane gate: a 2-worker compress/decompress round-trip
## over the shared-memory segment pool, byte-identical to the in-process
## codec, with telemetry proving bytes_borrowed >= bytes_copied and a
## leak check (no in-process segments, no orphaned /dev/shm entries)
## after shutdown.  Degrades to a pickle-fallback correctness check on
## hosts without POSIX shared memory.
scaling-smoke:
	timeout 120 $(PY) scripts/scaling_smoke.py

## Cluster failover gate: a 3-shard `pastri serve` fleet (replication 2)
## behind the gateway; client round-trip, SIGKILL one shard with zero
## failed reads, hints drained on rejoin, zero payload bytes copied on
## the forward path, and no leaked shm segments after teardown.
cluster-smoke:
	timeout 180 $(PY) scripts/cluster_smoke.py

## Live-reshard gate: 2-shard fleet (replication 1) under a background
## read hammer; `cluster.reshard.add` a third shard with zero failed
## reads, ~1/3 of keys moved byte-identically, then `remove` it again
## under the same traffic, and no leaked shm segments after teardown.
reshard-smoke:
	timeout 240 $(PY) scripts/reshard_smoke.py

## Low-rank codec gate: pack a structured shell-block batch into a real
## container via `pastri pack --codec lowrank` (codec revived purely from
## the embedded spec) and round-trip the same batch through a live
## `pastri serve --codec lowrank` subprocess, asserting the point-wise
## bound and a minimum ratio on both paths plus live lowrank.* telemetry.
lowrank-smoke:
	timeout 150 $(PY) scripts/lowrank_smoke.py

## Compiled index-pass gate: fails unless the C kernel built and loaded
## (hosts with gcc must never fall back to numpy silently), then checks
## the golden fixtures and a trialanine stream under every ECQ tree decode
## byte-identically through the kernel and the numpy fallback.
kernel-smoke:
	timeout 120 $(PY) scripts/kernel_smoke.py

harness:
	$(PY) -m repro.harness all
