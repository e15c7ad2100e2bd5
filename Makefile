# Mirrors the CI steps (.github/workflows/ci.yml) so local runs and CI
# agree on what "green" means.

GO ?= go

.PHONY: all build test race bench bench-json alloc-check fuzz fmt vet docs-check api-check wal-check repl-check serve soak golden golden-check tables-check counterfactual-check examples-check load-smoke overload-smoke

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-json records a machine-readable benchmark trajectory point:
# raw output in bench.txt, JSON (via cmd/bench2json) in BENCH_latest.json.
# Two steps (no pipeline) so a failing benchmark fails the target.
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... > bench.txt
	$(GO) run ./cmd/bench2json < bench.txt > BENCH_latest.json
	@echo "wrote bench.txt and BENCH_latest.json"

# alloc-check gates the serving hot path against the committed baseline:
# the AllocsPerRun ceilings (alloc_test.go), then a steady-state re-measure
# of the end-to-end benchmarks diffed by cmd/benchdiff. Allocation growth
# past 25% fails; wall-clock gets a loose 100% band since baselines travel
# between machines. -cpu 1 keeps benchmark names free of the -N GOMAXPROCS
# suffix, so they match the baseline's keys on any host.
ALLOC_BASELINE ?= BENCH_2026-08-07.json
alloc-check:
	$(GO) test . -run 'AllocCeiling' -count=1 -v
	$(GO) test . ./internal/serve ./internal/joinpath -run '^$$' -cpu 1 \
		-bench 'MapKeywordsIndexed|TranslateSnapshotQFG|TranslateEndToEnd|BenchmarkInfer' \
		-benchtime 100x -benchmem > bench_alloc.txt
	$(GO) run ./cmd/bench2json < bench_alloc.txt > BENCH_alloc.json
	$(GO) run ./cmd/benchdiff $(ALLOC_BASELINE) BENCH_alloc.json

fuzz:
	$(GO) test ./internal/sqlparse -fuzz 'FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/sqlparse -fuzz 'FuzzParseLog$$' -fuzztime 30s
	$(GO) test ./internal/keyword -fuzz 'FuzzParseSpec$$' -fuzztime 30s
	$(GO) test ./internal/nlidb -run '^$$' -fuzz 'FuzzCanonicalSQL$$' -fuzztime 30s
	$(GO) test ./internal/nlidb -run '^$$' -fuzz 'FuzzCanonicalSQLAST$$' -fuzztime 30s
	$(GO) test ./internal/store -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime 30s

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# docs-check guards the documentation layer: gofmt drift anywhere
# (including examples/), go vet, and no broken relative links in the
# repo's Markdown (cmd/docs-check).
docs-check: fmt vet
	$(GO) run ./cmd/docs-check

# api-check guards the public API contract: every pkg/api wire type
# round-trips through its JSON tags (reflection test), and
# docs/openapi.yaml stays in sync with the server's registered v2 routes.
api-check:
	$(GO) test ./pkg/api -run 'TestWireContract|TestErrorHelpers' -count=1
	$(GO) test ./internal/serve -run 'TestOpenAPISync|TestRoutesTable' -count=1

# wal-check guards the durability layer: the WAL package's
# crash-injection suite (every-prefix truncation, bit flips at every
# offset, compaction crash windows) plus the serve-layer durability tests
# (WAL-first acks, boot recovery, reconciliation refusals, compaction
# under a served tenant). The whole-stack kill-and-recover phase rides in
# `make soak`.
wal-check:
	$(GO) test -race ./internal/wal -count=1
	$(GO) test -race ./internal/serve -run 'TestDurable|TestAttachWAL|TestCompact|TestWALStats' -count=1
	$(GO) test ./internal/store -run 'TestWalSeq|TestDecodeV1Compat' -count=1
	$(GO) test ./internal/qfg -run 'TestReplay' -count=1

# repl-check guards the replication layer: the WAL stream codec and tail
# reader, follower bootstrap/tail/re-bootstrap with fault injection
# (unreachable primary, compacted-away gap, bit-flipped wire), the serve
# endpoints and redirect-to-primary behavior, and consistent-hash gateway
# routing (eject/readmit stability, staleness bound, write-to-primary,
# gateway-vs-direct parity). The replica-convergence soak phase rides in
# `make soak`.
repl-check:
	$(GO) test -race ./internal/repl ./internal/gateway -count=1
	$(GO) test -race ./internal/wal -run 'TestTailSince|TestRecordReader' -count=1
	$(GO) test -race ./internal/workload -run 'TestRunnerClassifiesRedirectedAppends' -count=1

serve: build
	$(GO) run ./cmd/templar-serve -datasets mas,yelp,imdb -store ./snapshots -addr :8080

# soak runs the race-enabled concurrency invariant suite: live log
# appends interleaved with query traffic across tenants, monotonic
# snapshot stats, tenant isolation, store-reload parity. Duration per
# phase comes from TEMPLAR_SOAK_MS (default ~1.2s per test; CI's
# workflow_dispatch passes a longer budget for scheduled soaks).
soak:
	$(GO) test -race ./internal/workload -run 'TestSoak' -count=1 -v

# golden regenerates the committed end-to-end golden corpora. Only commit
# the diff when the semantic change is intended — see docs/TESTING.md.
golden:
	$(GO) run ./cmd/templar-eval -golden internal/eval/testdata/golden

# golden-check replays the committed corpora through the full engine and
# fails on any semantic drift (byte-for-byte).
golden-check:
	$(GO) test ./internal/eval -run 'TestGolden' -count=1

# tables-check regenerates every paper table and figure (Table II-IV,
# Fig. 5/6, the ablations and the headline) and fails on any difference
# from the committed internal/eval/testdata/tables.txt. Regenerate that
# file only when a result change is intended.
tables-check:
	$(GO) run ./cmd/templar-eval -all > tables.txt
	diff -u internal/eval/testdata/tables.txt tables.txt

# examples-check runs each example whose output is deterministic and
# diffs it against the committed examples/<name>/output.txt. The client,
# durability and multitenant walkthroughs print loopback ports, temporary
# paths or timings, so they are only built (see CI).
examples-check:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	for ex in academic quickstart selfjoin yelp sessions; do \
		$(GO) run ./examples/$$ex > "$$out" && \
		diff -u examples/$$ex/output.txt "$$out" || \
		{ echo "examples-check: examples/$$ex output differs from examples/$$ex/output.txt" >&2; exit 1; }; \
	done && echo "examples-check: academic quickstart selfjoin yelp sessions match"

# counterfactual-check guards the learning loop: the seeded feedback
# replay must strictly improve obscured golden hit-rates on every
# dataset while Full-visibility pinned answers never regress and the
# committed Full corpora stay byte-identical (see docs/LEARNING.md).
# The deterministic counterfactual.json report is uploaded as a CI
# artifact.
counterfactual-check:
	$(GO) test ./internal/eval -run 'TestCounterfactual' -count=1
	$(GO) run ./cmd/templar-eval -counterfactual counterfactual.json

# load-smoke runs a short deterministic load against an in-process
# server and writes the bench2json-compatible latency report.
load-smoke: build
	$(GO) run ./cmd/templar-load -self -datasets mas,yelp -requests 400 -workers 8 -seed 1 -o load.json

# overload-smoke drives an open-loop burst (fixed arrival rate, not
# bounded by worker completion) into an admission-bounded in-process
# server and asserts the designed overload outcome: requests are shed
# with 429 (-expect-shed requires shed > 0) and the server never answers
# 5xx. Retries are disabled so every shed is observed, not ridden out.
overload-smoke: build
	$(GO) run ./cmd/templar-load -self -datasets mas -requests 400 -workers 32 -seed 1 \
		-rate 4000 -max-inflight 4 -retries 0 -expect-shed -o overload.json
