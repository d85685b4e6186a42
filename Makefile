GO ?= go

.PHONY: ci fmt vet lint build test test-parallel test-checked fuzz-smoke perfbench-check forensics-smoke prof-smoke mutate

# Full gate: formatting, go vet, build, hpnlint determinism/invariant rules,
# tests under the race detector (a default pass and a GOMAXPROCS=4 pass), the
# checked-handle pass over the pooled engine layers, a short fuzz of the
# artifact parsers and the tracer, the perfbench module's vet and tests,
# the in-band forensics smoke run and the self-profiler smoke run. Perf
# regressions are perfbench's job (perfbench/README.md); ci runs no
# comparator of its own. make mutate, the mutation pricing of the tests,
# stays out of ci: ci only vets its harness.
ci: fmt vet build lint test test-parallel test-checked fuzz-smoke perfbench-check forensics-smoke prof-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	$(GO) vet -tags mutate ./internal/lint

# hpnlint: the repo's own static-analysis suite (cmd/hpnlint) enforcing
# simulator determinism invariants — see the lint-rules table in README.md.
# It lints every package of the module, cmd/ and examples/ included
# (TestRepoIsClean asserts they are loaded), and prints each finding with
# its full interprocedural taint chain, not just the sink line. The analysis must finish inside 10s of wall time or the
# target fails with exit 3 — a creeping-cost tripwire, not a perf benchmark.
lint:
	$(GO) run ./cmd/hpnlint

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Parallel gate: the netsim suite (differential + property tests) under the
# race detector with real parallelism available, plus the golden
# determinism tests — which include the sharded engine's serial-vs-parallel
# window byte comparison — and the sharded route-cache differential test,
# whose pods bump the shared topology's usability generation from parallel
# windows, so a scheduling-dependent result can never land green.
test-parallel:
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/netsim/...
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestGoldenDeterminism|TestRouteCacheMatchesWalkSharded' .

# Checked handles: the layers that hold pooled sim.Events and netsim.Flows,
# the fabric event stream's replaying and detecting subscribers (memo,
# health), plus the root package's end-to-end suites, built with the
# hpncheck tag. Released events and flows are then never reused; any later
# Cancel, Reschedule, Done, AbortFlow or reroute on one panics with its
# release stamp, and a released flow's fields read as poison. A test that
# keeps a handle past its release without Pin fails here even though the
# default build silently aliases it. Every fabric event delivery also
# panics if a subscriber modifies the event it is handed or publishes from
# inside the delivery, and every allocator recompute panics if the
# contention components it carried differ from a decomposition and refill
# from scratch, if two flows on one path in a carried component carry
# different rates (a flow that took a departed flow's place on the same
# connection must carry its rate), if a flow leaving such a place is off
# its connection's path, or if a vacated place outlives the recompute.
test-checked:
	$(GO) test -tags hpncheck ./internal/sim/... ./internal/netsim/... ./internal/collective/... ./internal/rdma/... ./internal/workload/... ./internal/memo/... ./internal/health/... .

# Fuzz smoke: ~10s of native fuzzing for each artifact parser (inband and
# health ParseTSV, prof ParseProfile), seeded from the run artifacts in
# their testdata/, and for the tracer against its emission-time renderer
# (FuzzTracerMatchesOracle). A failing input is saved under testdata/fuzz/
# to be committed as a regression seed. Minimization is capped so a new
# interesting input does not eat the budget.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParseTSV$$' -fuzztime=10s -fuzzminimizetime=100x -parallel=2 ./internal/inband
	$(GO) test -run='^$$' -fuzz='^FuzzParseTSV$$' -fuzztime=10s -fuzzminimizetime=100x -parallel=2 ./internal/health
	$(GO) test -run='^$$' -fuzz='^FuzzParseProfile$$' -fuzztime=10s -fuzzminimizetime=100x -parallel=2 ./internal/prof
	$(GO) test -run='^$$' -fuzz='^FuzzTracerMatchesOracle$$' -fuzztime=10s -fuzzminimizetime=100x -parallel=2 ./internal/telemetry

# perfbench is its own Go module, so the root `go vet ./...` and
# `go test ./...` never compile it: an internal API change it depends on
# (memo.RecorderOf, health.MonitorOf, Sim.AttachProfiler, ...) would
# otherwise break it silently.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Smoke the in-band forensics pipeline end to end: one quick experiment
# with in-band telemetry on, then hpnview over the exported per-hop stream.
# fig13 also runs link probes and the sampler, whose samples.csv must hold
# the sampled ToR uplink ports' util_bps and queue_bytes rows. Everything lands in a throwaway directory; the run fails if any stage
# errors. hpnview exits 3 on a polarization verdict — a legitimate analysis
# outcome, not a failure, so that exit is folded to success.
forensics-smoke:
	@tmp=$$(mktemp -d); \
	set -e; \
	$(GO) run ./cmd/hpnbench -exp fig13 -scale quick -inband $$tmp/artifacts >/dev/null; \
	grep -q '^tor-[^,]*/up[0-9]*/util_bps,' $$tmp/artifacts/samples.csv; \
	grep -q '^tor-[^,]*/up[0-9]*/queue_bytes,' $$tmp/artifacts/samples.csv; \
	$(GO) run ./cmd/hpnview -in $$tmp/artifacts/inband.tsv -out $$tmp/forensics >/dev/null || [ $$? -eq 3 ]; \
	ls $$tmp/forensics/heatmap.csv $$tmp/forensics/contended.tsv \
	   $$tmp/forensics/imbalance.tsv $$tmp/forensics/polarization.tsv >/dev/null; \
	rm -rf $$tmp; \
	echo "forensics-smoke: OK"

# Self-profiler smoke: one quick experiment with -prof on, then assert the
# profiler artifacts landed, hpnprof renders the prof.json report, and the
# core engine phases actually accumulated: every row of hpnprof's table
# (phase and count in its first two columns, after a summary line and a
# header) must carry a nonzero count — zero-count phases are omitted by
# contract, so a zero here means the export path broke. The in-band
# artifacts go to a directory of their own, written before the profile's,
# so prof.json carries their per-exporter artifact/<name> phases.
prof-smoke:
	@tmp=$$(mktemp -d); \
	set -e; \
	$(GO) run ./cmd/hpnbench -exp fig13 -scale quick -inband $$tmp/inband -prof $$tmp/artifacts >/dev/null; \
	ls $$tmp/artifacts/prof.json $$tmp/artifacts/flight.tsv >/dev/null; \
	$(GO) run ./cmd/hpnprof $$tmp/artifacts/prof.json >$$tmp/report.txt; \
	awk 'NR>2 { seen[$$1]=1; if ($$2+0 <= 0) { print "prof-smoke: zero-count phase " $$1; bad=1 } } \
		END { n=split("sim/run sim/dispatch netsim/recompute netsim/decompose netsim/fill netsim/fill_reused netsim/regathered netsim/handoffs netsim/heap_ops artifact/inband.tsv artifact/inband.json", req, " "); \
		for (i=1; i<=n; i++) if (!seen[req[i]]) { print "prof-smoke: phase " req[i] " missing from the hpnprof table"; bad=1 } exit bad }' \
		$$tmp/report.txt; \
	rm -rf $$tmp; \
	echo "prof-smoke: OK"

# Mutation pricing: internal/lint's mutate-tagged TestMutate flips
# relational operators, negates if conditions, drops statements, turns +=
# into = and returns zero values early, one mutant at a time, in the
# simulator's hot files (its mutateScope). Each mutant runs its package's
# tests through go test -overlay, the tree untouched, and a survivor then
# test-checked's packages, the root package among them, in the default
# build and under hpncheck. A survivor the harness does not list as
# equivalent, with its reason, fails the run. The harness stops at its
# own fixed budget (mutateBudget, three hours); a full run takes about
# two hours on two cores.
mutate:
	$(GO) test -tags mutate -run '^TestMutate$$' -count=1 -timeout 4h -v ./internal/lint
