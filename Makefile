GO ?= go

.PHONY: all build test check bench bench-smoke eval trace-smoke evalcheck sched-smoke serve-smoke procs-diff snap-diff gen-smoke chaos-smoke cache-diff loc

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the PR gate: vet everything, run the packages that carry
# concurrency (the parallel harness, the simulator it drives, and the
# metrics registry they share) under the race detector, then smoke the
# tracing pipeline end to end.
check:
	$(GO) vet ./...
	$(GO) test -race ./internal/artifact/ ./internal/harness/ ./internal/sched/ ./internal/sim/ ./internal/snapshot/ ./internal/trace/ ./internal/gen/...
	$(MAKE) trace-smoke

# trace-smoke runs one preempted kernel with -trace and validates the
# emitted Chrome trace-event JSON (known phase types, cycle-monotone
# order) with tracecheck.
trace-smoke:
	$(GO) run ./cmd/gpusim -kernel VA -technique CTXBack -trace /tmp/ctxback-smoke.trace.json
	$(GO) run ./cmd/tracecheck /tmp/ctxback-smoke.trace.json

# sched-smoke replays a tiny contended multi-tenant trace under all
# eight techniques on the preemptive scheduler and diffs the full report
# (trace, per-technique stats, per-job tables) against the checked-in
# golden. Any nondeterminism or unintended stats change fails the diff.
# The second diff covers the fleet failover report: a two-device run
# with periodic whole-device checkpoints, a chaos kill, a warm restore
# (CTXBack) and the rerun fallback (CKPT), down to the decision log and
# the per-job slab-digest witness.
sched-smoke:
	$(GO) run ./cmd/schedsim -quick -seed 9 > /tmp/ctxback-sched-smoke.txt
	diff -u testdata/sched_smoke.golden /tmp/ctxback-sched-smoke.txt
	$(GO) run ./cmd/schedsim -quick -seed 9 -kinds CTXBack,CKPT -devices 2 -checkpoint-every 40000 -kill-device 0@80000 -warm-pool 1 -statehash > /tmp/ctxback-sched-failover.txt
	diff -u testdata/sched_failover.golden /tmp/ctxback-sched-failover.txt
	@echo "sched and failover reports byte-identical"

# serve-smoke is the long-running serving gate: a seeded open-loop
# bursty+diurnal trace (~167k arrivals over 40M cycles) drives four
# tenants through admission control, load-aware routing across two
# devices, and the online hypervisor (share re-arbitration plus one
# warm-pool rebalancing migration) to drain. The full decision log and
# SLO tables must be byte-identical to the checked-in golden, and —
# since cross-device decisions run serially at global barriers — also
# across worker counts. The golden carries 3 "shares" re-arbitrations
# and 1 "migrate" warm restore.
SERVE_SMOKE_ARGS = -serve -quick -kinds CTXBack -iters 2 -sms 2 \
	-duration 40000000 -gap 400 -tenants 4 -burst 0.25 -diurnal 0.3 \
	-admit 150 -queue 12 -hypervisor-every 20000 -report-every 400000 \
	-migrate-threshold 3 -devices 2 -warm-pool 1 -seed 42
serve-smoke:
	$(GO) run ./cmd/schedsim $(SERVE_SMOKE_ARGS) -procs 1 > /tmp/ctxback-serve-p1.txt
	diff -u testdata/serve_smoke.golden /tmp/ctxback-serve-p1.txt
	$(GO) run ./cmd/schedsim $(SERVE_SMOKE_ARGS) -procs 4 > /tmp/ctxback-serve-p4.txt
	diff -u testdata/serve_smoke.golden /tmp/ctxback-serve-p4.txt
	@echo "serve decision log and SLO tables byte-identical across -procs"

# snap-diff guards failover determinism end to end: the per-job
# slab-digest state witness must be byte-identical between an
# undisturbed fleet run, a run whose device 0 is chaos-killed at cycle
# 80000 (restored from its last whole-device checkpoint), and the same
# kill restored from the warm context pool.
snap-diff:
	$(GO) run ./cmd/schedsim -quick -seed 9 -kinds CTXBack -devices 2 -checkpoint-every 40000 -statehash | grep '^job ' > /tmp/ctxback-snap-base.txt
	$(GO) run ./cmd/schedsim -quick -seed 9 -kinds CTXBack -devices 2 -checkpoint-every 40000 -kill-device 0@80000 -statehash | grep '^job ' > /tmp/ctxback-snap-kill.txt
	$(GO) run ./cmd/schedsim -quick -seed 9 -kinds CTXBack -devices 2 -checkpoint-every 40000 -kill-device 0@80000 -warm-pool 1 -statehash | grep '^job ' > /tmp/ctxback-snap-warm.txt
	diff -u /tmp/ctxback-snap-base.txt /tmp/ctxback-snap-kill.txt
	diff -u /tmp/ctxback-snap-kill.txt /tmp/ctxback-snap-warm.txt
	@echo "failover state witness byte-identical: undisturbed vs killed, cold vs warm"

# gen-smoke is the generated-corpus differential gate: 256 seeds from
# the seeded SIMT generator run uninterrupted and under forced
# mid-flight preemption by all 8 techniques, byte-compared against the
# host-side golden interpreter, with every sampled oracle enabled
# (scan-vs-readyqueue lockstep, resume integrity, snapshot round-trip,
# fault-injection chaos). genrun exits nonzero on
# any divergence; the full ≥1000-seed sweep is `go run ./cmd/genrun`.
gen-smoke:
	$(GO) run ./cmd/genrun -n 256 -procs 8
	@echo "generated corpus differential sweep clean"

# chaos-smoke diffs the quick fault-injection sweep (checksum, oracle and
# snapshot modes at the default rates and seed) against the checked-in
# golden: every cell's outcome letter and the totals line. benchtab
# exits nonzero on any silent-wrong or unrecoverable episode; the diff
# also catches a detection that appears or disappears, such as a
# resume-integrity oracle that flags a clean resume.
chaos-smoke:
	$(GO) run ./cmd/benchtab -quick -chaos > /tmp/ctxback-chaos-quick.txt
	diff -u testdata/chaos_quick.golden /tmp/ctxback-chaos-quick.txt
	@echo "quick chaos sweep byte-identical to the golden"

# loc prints the non-test Go line count of every package, then the
# total. perfbench/ is its own module, so ./... leaves it out.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
		awk '{ n = 0; for (i = 2; i <= NF; i++) { while ((getline l < $$i) > 0) n++; close($$i) } \
		printf "%6d %s\n", n, $$1; t += n } END { printf "%6d total\n", t }'

bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/sim/ ./internal/core/ ./internal/preempt/

# bench-smoke is the CI flavor of bench: one iteration per benchmark,
# no timing thresholds — it only proves every benchmark still compiles,
# runs, and reports allocations.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem ./internal/sim/ ./internal/core/ ./internal/preempt/

# procs-diff guards evaluation-engine determinism across parallelism:
# the quick sweep must emit byte-identical output at -procs 1 and
# -procs 4 (worker count may reorder episode execution, never results).
procs-diff:
	$(GO) run ./cmd/benchtab -quick -procs 1 > /tmp/ctxback-procs1.txt
	$(GO) run ./cmd/benchtab -quick -procs 4 > /tmp/ctxback-procs4.txt
	diff -u /tmp/ctxback-procs1.txt /tmp/ctxback-procs4.txt
	@echo "quick sweep byte-identical across -procs 1/4"

# cache-diff guards the artifact store's byte-identity contract: the
# quick evaluation sweep and the serve smoke must produce identical
# bytes with the cache disabled, cold (empty directory, computes and
# publishes) and warm (second run over the same directory, loads
# everything from disk). Any drift between the three means a cached
# artifact decodes to something the cold path would not have computed.
CACHE_DIR = /tmp/ctxback-cache-diff
cache-diff:
	rm -rf $(CACHE_DIR)
	$(GO) run ./cmd/benchtab -quick > /tmp/ctxback-cache-off.txt
	$(GO) run ./cmd/benchtab -quick -cache-dir $(CACHE_DIR) > /tmp/ctxback-cache-cold.txt
	$(GO) run ./cmd/benchtab -quick -cache-dir $(CACHE_DIR) > /tmp/ctxback-cache-warm.txt
	diff -u /tmp/ctxback-cache-off.txt /tmp/ctxback-cache-cold.txt
	diff -u /tmp/ctxback-cache-cold.txt /tmp/ctxback-cache-warm.txt
	$(GO) run ./cmd/schedsim $(SERVE_SMOKE_ARGS) -cache-dir $(CACHE_DIR) > /tmp/ctxback-cache-serve-cold.txt
	diff -u testdata/serve_smoke.golden /tmp/ctxback-cache-serve-cold.txt
	$(GO) run ./cmd/schedsim $(SERVE_SMOKE_ARGS) -cache-dir $(CACHE_DIR) > /tmp/ctxback-cache-serve-warm.txt
	diff -u testdata/serve_smoke.golden /tmp/ctxback-cache-serve-warm.txt
	@echo "eval sweep and serve golden byte-identical: cache disabled, cold and warm"

# Regenerate EXPERIMENTS.md from a full evaluation sweep.
eval:
	$(GO) run ./cmd/benchtab -all -samples 3 > eval_output.txt
	./mk_experiments.sh

# evalcheck guards the observability layer's zero-overhead contract:
# with tracing and metrics disabled (the default), a full evaluation
# sweep must reproduce eval_output.txt byte for byte.
evalcheck:
	$(GO) run ./cmd/benchtab -all -samples 3 > /tmp/ctxback-evalcheck.txt
	diff -u eval_output.txt /tmp/ctxback-evalcheck.txt
	@echo "eval output byte-identical"
