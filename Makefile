# make check reproduces the CI gate (.github/workflows/ci.yml) locally.

GO ?= go

.PHONY: check fmt vet build falcon-vet falcon-vet-diff vet-fix test race bench-smoke bench scale

check: fmt vet build falcon-vet test race bench-smoke
	@echo "all gates passed"

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# falcon-vet runs the full suite on the parallel DAG scheduler with the
# content-addressed result cache: a warm no-change run skips
# type-checking entirely. falcon-vet-diff only re-analyzes packages with
# .go files changed since origin/main (plus reverse dependents) — the
# pre-commit-speed variant.
falcon-vet:
	$(GO) run ./cmd/falcon-vet -cache .falcon-vet-cache ./...

falcon-vet-diff:
	$(GO) run ./cmd/falcon-vet -cache .falcon-vet-cache -diff origin/main ./...

# vet-fix applies every suggested fix (stale allow-directive removal,
# errcheck explicit discards, sort.Slice modernization, frozen-map
# clone-then-swap rewrites) in place, then reports whatever is left for a
# human.
vet-fix:
	$(GO) run ./cmd/falcon-vet -fix ./...

test:
	$(GO) test ./...

# The race gate covers what concurrent tasks share: reduce tasks share one
# feature.Projection (its pooled value rows, the vectorizer's lazily built
# columns), apply scores through it, and every filters.Walker owns a
# range-probe bitmap — hence feature, model and filters beside the
# engine and the serving packages; sample_pairs' gen-pairs tasks reuse
# pooled shared-token counters across records and select_opt_seq reuses its
# index buffers across subsets, hence sample and rulesel. It also runs the
# vet engine's parallel scheduler and cache under the detector: the
# serial/parallel/cached byte-identity tests exercise every cross-task edge
# (fact shards, lock-edge streams, diagnostics sinks).
race:
	$(GO) test -race ./internal/service/... ./internal/mapreduce/... ./internal/core/... ./internal/serve/... ./internal/feature/... ./internal/model/... ./internal/filters/... ./internal/rulesel/... ./internal/sample/...
	$(GO) test -race -run 'TestParallelByteIdentical|TestVetEquality|TestSiblingLockCycle|TestCacheInvalidationMatrix|TestDiffMode' ./internal/analysis/

# bench-smoke vets and smoke-tests the repository benchmark (bash
# benchmark/run.sh, BENCHMARK.json). It is a nested module, outside
# `go build ./... && go test ./...`, and it imports falcon/internal/..., so
# this is the gate that notices an internal-API change breaking the gate
# program. About 10 s; no wall-clock assertion.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench records the executor worker-pool benchmark (speedup needs >1 CPU)
# and the falcon-vet whole-tree benchmark (the pre-flow suite, the
# flow-sensitive layer, the publish-then-freeze layer, the out-of-core
# layer, and all fifteen analyzers over the module, loading amortized). The
# blocking and serving hot paths are measured end to end and layer by layer
# by the repository benchmark instead (benchmark/README.md).
bench:
	$(GO) test -run '^$$' -bench BenchmarkExecutorWorkers -benchmem -json \
		./internal/mapreduce/ > BENCH_executor.json
	@echo "wrote BENCH_executor.json"
	$(GO) test -run '^$$' -bench 'BenchmarkVetTree$$' -benchmem -json \
		./internal/analysis/ > BENCH_vet.json
	@echo "wrote BENCH_vet.json"

# scale runs the CI-optional out-of-core long gate: a datagen 1M×1M Songs
# workload executed in-memory and spilled (results must be byte-identical),
# then re-run under an enforced GOMEMLIMIT below the in-memory path's
# measured heap peak. Records makespan + peak memory to BENCH_scale.json.
scale:
	FALCON_SCALE=1 $(GO) test -run 'TestScaleSongs1M$$' -v -timeout 45m \
		./internal/mapreduce/
	@echo "wrote BENCH_scale.json"
