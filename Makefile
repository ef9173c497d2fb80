# Convenience targets for the reproduction repo.  Everything assumes the
# bundled sources under src/ (no install step needed).

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: check lint test test-diff bench-e2e bench-pairs bench-hotpath bench-envstep bench-vecenv bench-policyeval bench-subproc bench-serving bench-smoke bench clean-cache

## check: tier-1 tests + one tiny end-to-end figure run (< 1 minute)
check:
	bash scripts/check.sh

## lint: reprolint project-contract static analysis (see docs/ANALYSIS.md)
## Pass extra flags via LINT_ARGS, e.g. `make lint LINT_ARGS="--cache"`
## or `make lint LINT_ARGS="--select RPL204 --format json"`.
lint:
	python -m repro.analysis src benchmarks tests $(LINT_ARGS)

## test: the tier-1 test suite only
test:
	python -m pytest -x -q

## test-diff: the SoA-vs-reference differential equivalence suite only
test-diff:
	python -m pytest -x -q tests/test_soa_equivalence.py

## bench-e2e: the end-to-end benchmark (BENCHMARK.json), untraced, on every
## workload; pick the seed with `make bench-e2e SEED=N`
SEED ?= 7
E2E_WORKLOADS := train_k1 train_k64 sweep_k6 serve_overload
bench-e2e:
	for w in $(E2E_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --seed $(SEED) --seconds 22 --trace 0 || exit 1; \
	done

## bench-pairs: alternating parent/change runs of one workload, with each
## side's median and quartiles and the change's win count, e.g.
## `make bench-pairs PARENT=HEAD~1 WORKLOAD=train_k1 SEEDS="301 302 303"`
PARENT ?= HEAD
WORKLOAD ?= train_k1
SEEDS ?= 301 302 303 304 305 306 307 308 309 310
bench-pairs:
	python3 scripts/bench_pairs.py --parent $(PARENT) --workload $(WORKLOAD) --seeds $(SEEDS)

## bench-hotpath: microbenchmark of the vectorized training hot path
bench-hotpath:
	PYTHONPATH=src:. python benchmarks/bench_hotpath.py

## bench-envstep: microbenchmark of the vectorized environment core
bench-envstep:
	PYTHONPATH=src:. python benchmarks/bench_envstep.py

## bench-vecenv: microbenchmark of the K-lane vectorized training loop
bench-vecenv:
	PYTHONPATH=src:. python benchmarks/bench_vecenv.py

## bench-policyeval: microbenchmark of batched vs serial baseline evaluation
bench-policyeval:
	PYTHONPATH=src:. python benchmarks/bench_policyeval.py

## bench-subproc: microbenchmark of the shared-memory worker env vs sync
bench-subproc:
	PYTHONPATH=src:. python benchmarks/bench_subproc.py

## bench-serving: 1M-request serving soak (memory-flat, ~25 minutes)
bench-serving:
	PYTHONPATH=src:. python benchmarks/bench_serving.py

## bench-smoke: fast perf regression guards (used by scripts/check.sh)
bench-smoke:
	PYTHONPATH=src:. python benchmarks/bench_envstep.py --smoke
	PYTHONPATH=src:. python benchmarks/bench_vecenv.py --smoke
	PYTHONPATH=src:. python benchmarks/bench_policyeval.py --smoke
	PYTHONPATH=src:. python benchmarks/bench_subproc.py --smoke --workers 2
	PYTHONPATH=src:. python benchmarks/bench_serving.py --smoke

## bench: the full figure/table benchmark suite (fast preset)
bench:
	python -m pytest benchmarks -o python_files='bench_*.py' \
		-o python_functions='bench_*' -q

## clean-cache: drop cached benchmark results (forces recomputation)
clean-cache:
	rm -rf benchmarks/results/cache
