GO ?= go

.PHONY: build build-vet verify vet-security fmt-check test race restore-budget chaos load-smoke resume-smoke churn-smoke bench-frames bench-obs obs-demo clean

build:
	$(GO) build ./...

# Tier-1 verification (see ROADMAP.md): formatting, build, vet (stdlib
# analyzers plus the elide-vet secrecy suite), full tests, the race
# detector over the transport-heavy packages, the tracer and the
# interpreter with its EPCM bus, the restore
# instruction budget, and short-mode chaos and load smoke runs.
verify: fmt-check build
	$(GO) vet ./...
	$(MAKE) vet-security
	$(GO) test ./...
	$(GO) test -race ./internal/elide/... ./internal/sdk/... ./internal/evm/... ./internal/sgx/...
	$(GO) test -race ./internal/obs/...
	$(MAKE) bench-obs
	$(MAKE) restore-budget
	$(MAKE) chaos
	$(MAKE) load-smoke
	$(MAKE) resume-smoke
	$(MAKE) churn-smoke

# The elide-vet vettool: four analyzers (constanttime, secretflow,
# padleak, wipe) that mechanically enforce the enclave secrecy
# invariants. See DESIGN.md §12.
build-vet:
	$(GO) build -o bin/elide-vet ./cmd/elide-vet

# Run the secrecy-lint suite over the whole repo. Fails (exit 2) on any
# unsuppressed finding; audited false positives carry an
# //elide:vet-ignore <analyzer> <reason> directive at the finding site.
vet-security: build-vet
	$(GO) vet -vettool=bin/elide-vet ./...
	@echo "vet-security: constanttime secretflow padleak wipe — no unsuppressed findings"

# gofmt cleanliness: fails listing the offending files, fixes nothing.
fmt-check:
	@out="$$(gofmt -l cmd internal examples)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/elide/... ./internal/sdk/... ./internal/obs/... ./internal/evm/... ./internal/sgx/...

# Restore-cost gate: EVM instructions retired by elide_restore for each
# of the seven programs in remote- and local-data mode, against the
# committed internal/bench/testdata/restore_insns.json. Fails on any count
# above (or below: lower the file) its baseline and on two runs of one
# deployment disagreeing; -v prints the per-program table.
restore-budget:
	$(GO) test -run TestRestoreInstructionBudget -v ./internal/bench/

# Scaled-down chaos smoke: replicated servers, a mid-run kill + restart,
# scripted connection faults; every restore must succeed or fail typed.
chaos:
	$(GO) test -short -run TestChaosBenchSmoke -v ./internal/bench/

# Scaled-down open-loop load smoke: a few dozen protocol-level restores,
# pipelined and legacy, asserting 1 vs 3 wire flights per restore.
load-smoke:
	$(GO) test -short -run TestLoadBenchSmoke -v ./internal/bench/

# Scaled-down failover-resume smoke: kill the attested replica, resume
# every session on its peer; replicated resumes must cost zero extra
# attestation flights, the unreplicated baseline exactly one each.
resume-smoke:
	$(GO) test -short -run TestResumeBenchSmoke -v ./internal/bench/

# Scaled-down gossip-fleet churn smoke (race detector on, per the fleet
# membership acceptance bar): kill, cold-add and restart members under
# restore load; the cold member must converge via anti-entropy and
# resume every session with zero attestation flights.
churn-smoke:
	$(GO) test -race -short -run TestChurnBenchSmoke -v ./internal/bench/

# One elide-bench scenario at full size, writing BENCH_<name>.json:
#   bench-restore  concurrent TCP restores of 4 enclaves from one server,
#                  per-enclave release counters cross-checked
#   bench-load     open-loop load, 10k restores at 500/s, pipelined vs the
#                  paper's three-flight protocol (the committed BENCH_load.json)
#   bench-resume   kill the attested replica, resume every session on its
#                  peer: replicated (zero extra attestation flights) vs not
#   bench-chaos    restores through replica kills, a restart and scripted
#                  connection faults; every failure must be typed
#   bench-churn    restores through a gossip fleet with a kill, a cold-add
#                  and a restart; the cold member resumes every session
#                  from anti-entropy state alone
#   bench-phases   per-phase restore latency, client and server hop
# (bench-frames and bench-obs below are explicit targets, not scenarios.)
bench-%:
	$(GO) run ./cmd/elide-bench -scenario $*

# Frame read/write allocation microbenchmarks (the -benchmem numbers
# EXPERIMENTS.md quotes).
bench-frames:
	$(GO) test -run '^$$' -bench 'Frame|WriteResponse|WriteErrorFrame|HandshakeCodec' -benchmem ./internal/elide/

# Observability hot-path budget gate: span start/finish and audit emit
# must stay within 1 alloc/op at ring steady state (the AllocsPerRun
# tests fail otherwise), with -benchmem numbers alongside for the
# EXPERIMENTS.md table. Part of verify.
bench-obs:
	$(GO) test -run 'Allocs' -bench 'BenchmarkSpan|BenchmarkAudit' -benchtime=1000x -benchmem ./internal/obs/

# Cross-process tracing + audit demo: runs a traced, audited restore,
# prints the merged client+server span tree, and writes
# BENCH_trace.jsonl / BENCH_audit.jsonl (schema-validated on the way
# out). CI uploads both as artifacts.
obs-demo:
	$(GO) run ./cmd/elide-bench -scenario obs

# Removes build output and the untracked scenario artifacts. BENCH_load.json
# is the committed three-flight baseline and stays.
clean:
	rm -rf bin BENCH_restore.json BENCH_phases.json BENCH_chaos.json BENCH_churn.json BENCH_resume.json BENCH_trace.jsonl BENCH_audit.jsonl
