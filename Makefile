# Developer entry points. `make verify` is the full local gate; `make tier1`
# is the minimal build-and-test check the roadmap pins.

GO ?= go

.PHONY: all tier1 vet cross loc knobs race short test bench bench-smoke sim-golden mem-smoke waste-smoke bench-e2e bench-e2e-smoke bench-e2e-test offload-probe cover fuzz-smoke shuffle faultnet-soak flake-census fobsd-smoke verify

all: verify

# The roadmap's tier-1 gate: everything builds, every test passes.
tier1:
	$(GO) build ./...
	$(GO) test ./...

# Static checks: go vet plus a gofmt cleanliness gate (gofmt -l prints
# nothing when the tree is formatted; any output fails the target).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The build-tag surfaces of internal/batchio: 64-bit linux has the
# sendmmsg/recvmmsg path with datagram trains, everything else the stubs of
# mmsg_unsupported.go. Cross-build and vet one target of each kind (CI's
# vet-matrix does the same over the whole tree). Two riders on the 386 leg:
# internal/core, whose content-identity leaf arithmetic must not assume a
# 64-bit int, and the instrumentation spine with the three instruments on
# it, whose ring is 64-bit atomics inside structs (sync/atomic's types align
# themselves; a plain uint64 moved in there would not).
cross:
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/core ./internal/batchio ./internal/udprt
	GOOS=linux GOARCH=386 $(GO) vet ./internal/core ./internal/batchio ./internal/udprt ./internal/spine ./internal/metrics ./internal/flight ./internal/obs
	GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/core ./internal/batchio ./internal/udprt

# Go line counts per package directory — non-test files, then test files —
# for the root module and for benchmark/ (a module of its own), each with its
# total: the size figure ROADMAP.md's deletion aim, CHANGES.md and the issues
# quote, from one place instead of by hand. Lines are `wc -l` lines: comments
# and blanks count, so a reduction bought by stripping them shows up in review,
# not here.
loc:
	@find . -name '*.go' -not -path './.bench_build/*' -print0 | xargs -0 wc -l | awk ' \
		$$2 == "total" { next } \
		{ f = substr($$2, 3); dir = f; if (!sub(/\/[^\/]*$$/, "", dir)) dir = "."; \
		  mod = (f ~ /^benchmark\//) ? "benchmark" : "root"; \
		  col = (f ~ /_test\.go$$/) ? "test" : "code"; \
		  n[mod " " dir " " col] += $$1; n[mod " ~total " col] += $$1; seen[mod " " dir]; seen[mod " ~total"] } \
		END { for (k in seen) printf "%s %7d %7d\n", k, n[k " code"], n[k " test"] }' \
	| sort | awk '{ sub(/^~/, "", $$2); printf "%-10s %-28s %7d non-test %7d test\n", $$1, $$2, $$3, $$4 }'

# The knob census (EXPERIMENTS.md, "Knob census"): TestKnobCensus holds
# the table to the exported fields of fobs.Options and fobs.Config and to the
# flag sets of fobs-send, fobs-recv and fobs-cp as cmd/internal/cli builds
# them, and logs how many each has, so a new knob shows up in the log and
# fails until it has a row.
knobs:
	$(GO) test ./cmd/internal/cli -run '^TestKnobCensus$$' -count=1 -v

# The concurrency-heavy packages (real sockets, fault injection, server
# demux) must stay clean under the race detector.
race:
	$(GO) test -race ./...

# Quick signal: skips the fault-injection and real-socket heavyweights.
short:
	$(GO) test -short ./...

test: tier1

# Smoke-run every benchmark in the tree once. The real-socket heavyweights
# honour -short and are skipped here; drop the flag for real numbers.
bench:
	$(GO) test -short -bench=. -benchtime=1x -run=^$$ ./...

# One pass of the striped loopback benchmark: a quick end-to-end signal
# that 1/2/4-stream transfers all complete on this machine. Informational
# (CI runs it non-gating) — loopback numbers vary too much to gate on.
bench-smoke:
	$(GO) test ./internal/udprt -run '^$$' -bench BenchmarkStripedLoopback -benchtime=1x

# Rewrite internal/experiments/testdata/sim_tables.golden — what `fobs-bench
# -ext -related -sharing -size 4194304` prints, timing lines stripped — from
# this tree. TestSimTablesGolden (tier1; skipped under -short) compares against
# it: the file pins greedy FOBS, Backoff, Hybrid and sabul.Run on the
# simulator's deterministic clock, so rewriting it is a decision that a table
# was meant to move, never the fix for a diff.
sim-golden:
	$(GO) test ./internal/experiments -run '^TestSimTablesGolden$$' -count=1 -update

# The memory budgets in one place: the tests that pin them — one object-sized
# allocation per received object once the content cache is at its bound, a
# send ring that holds headers rather than packets, a small Send that pays
# for its object and not for its packet size (ack buffers sized by the status
# map, the sender's I/O kit pooled — shared safely by concurrent and striped
# Sends — and every ack fitting its slot), both cache bounds at run
# time and at start-up with transfers in flight holding reservations, a
# recycled landing buffer that never leaks an evicted object's bytes nor is
# taken while a dedup hit reads it, a checkpoint written without copying the
# object, a Send that keeps nothing of the object once it returns, a fobsd
# mover that reads each task into the one buffer it keeps (never over its
# cap) — then two-second untraced bulk_32k, small_objects and fobsd_tasks
# runs of the end-to-end benchmark, printing the two ledger rows they keep
# down.
# Informational (CI runs it non-gating): the tests gate in tier1 already,
# and two seconds of loopback is a reading, not a measurement.
mem-smoke:
	$(GO) test ./internal/udprt -count=1 -v -run 'TestReceiveAllocBudget|TestSendRingAllocBudget|TestSmallSendAllocBudget|TestAckFitsSenderSlot|TestConcurrentSendsSharePooledKits|TestContentCacheEviction|TestOversizeObjectIsNotCached|TestCacheLoadReplaysWithinBounds|TestRecycledLandingRetainsNoEvictedBytes|TestDedupHitsNeverShareARecycledBuffer|TestServerReservationsWithinBounds|TestSendKeepsNothingOfObj'
	$(GO) test ./internal/checkpoint -count=1 -v -run 'TestSaveStreamsTheObject'
	$(GO) test ./internal/tasks -count=1 -v -run 'TestMoverReadMatchesReadFile|TestDaemonOversizeFileSentNotKept|TestMoverTaskAllocBudget'
	bash benchmark/run.sh --workload bulk_32k --seed 1 --seconds 2 --trace 0 | grep -E '^(# |alloc_kib_per_op |rss_peak_mib )'
	bash benchmark/run.sh --workload small_objects --seed 1 --seconds 2 --trace 0 | grep -E '^(# |alloc_kib_per_op |rss_peak_mib )'
	bash benchmark/run.sh --workload fobsd_tasks --seed 1 --seconds 2 --trace 0 | grep -E '^(# |alloc_kib_per_op |rss_peak_mib )'

# The paper's headline number — packets sent beyond the object's own,
# "approximately 3%" — read off real loopback sockets through the public API:
# 16 MiB at 1 KiB and 32 MiB at 32 KiB, one discarded push then three
# measured, failing above 25% / 10% waste or when the receiver's socket buffer
# dropped anything (IOCounters.RecvOverflow): the sender has stopped being
# held to the window the receiver advertised. CI gates on it: the bounds sit
# far above the 0–3% it reads, so a failure is a sender that lost the window,
# not a noisy machine.
waste-smoke:
	FOBS_WASTE_SMOKE=1 $(GO) test . -run '^TestWasteSmoke$$' -count=1 -v

# The repository's end-to-end benchmark (BENCHMARK.json, benchmark/README.md):
# every workload untraced then traced, built into .bench_build/. The smoke
# variant runs one-second windows. benchmark/ is a module of its own, outside
# `go build ./... && go test ./...`, so its tests have their own target —
# and `verify` runs it, because the harness imports internal/udprt and a
# change there that breaks it would otherwise surface only when the
# benchmark is next run.
bench-e2e:
	bash benchmark/run.sh

bench-e2e-smoke:
	bash benchmark/run.sh -smoke

bench-e2e-test:
	cd benchmark && $(GO) test ./...

# Does this kernel take datagram trains? Prints whether it accepted
# UDP_SEGMENT and UDP_GRO on loopback and how one real train travelled, so a
# run whose senders fell back to plain datagrams (SendTrains 0 in -io-stats)
# can be told from its log. Informational: CI runs it non-gating.
offload-probe:
	$(GO) test ./internal/batchio -run '^TestOffloadProbe$$' -count=1 -v | grep -E 'offload-probe|^(ok|FAIL|---)'

# Statement coverage with a per-package summary. The full profile lands in
# cover.out for `go tool cover -html=cover.out`; the summary totals are
# recorded in DESIGN.md's testing section.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@echo "per-package:"
	@$(GO) test -count=1 -cover ./... 2>/dev/null | awk '/coverage:/ {printf "  %-40s %s\n", $$2, $$5}'

# Order-independence gate: the whole suite with test order shuffled. Tests
# that secretly depend on a predecessor (a leaked socket, a package-level
# registry, a leftover checkpoint file) fail here before they flake in CI.
shuffle:
	$(GO) test -shuffle=on -count=1 ./...

# Extended fault-injection soak: the sever/flap/resume suites and the proxy
# itself, raced and repeated, to surface the low-probability interleavings a
# single run misses — and with them internal/core, whose ContentID hashes
# leaves on several goroutines, the instrumentation spine and its three
# instruments, whose ring is pushed, drained and snapshotted concurrently,
# and the two halves of the content cache: internal/udprt's
# TestContentCacheRecycleRace (lookups and in-flight saves against adds that
# evict and recycle the buffers they read) and internal/checkpoint's
# streaming writer under it. internal/udprt also brings the receive window's
# real-socket tests (window_test.go): ack-clocked senders against small
# buffers, a 50 ms path and one that dies, where a race detector's slowdown is
# the busy host the forgiveness rule has to survive. The window's account
# itself is internal/core's (flow.go), soaked with it here; its simulated
# transfers are internal/simrun's, deterministic and not worth repeating.
# Scheduled CI runs this non-gating; it is too slow for the per-push gate
# (where `make race` covers every package once).
faultnet-soak:
	$(GO) test -race -count=10 ./internal/core ./internal/checkpoint ./internal/udprt ./internal/faultnet ./internal/spine ./internal/metrics ./internal/flight ./internal/obs

# The flake census: every test of the three packages with real-socket tests
# (internal/udprt, internal/tasks, cmd/fobsd), twenty times unraced and
# twenty times raced, each top-level test's passes and failures counted — a
# floor that fails one run in eight shows here as a count, not as a red run
# nobody can reproduce. TestCongestionWasteSweep is left out: it alone is
# about 129 s of each run, and the sans-IO item on the roadmap moves it to the
# simulator. The sealer's abort row logs how many datagrams a sender's ABORT
# left unread in the endpoint's data socket; the census counts those lines
# too. Every test of those packages is in it by package, the endpoint matrix
# and the kept-connection tests (TestKeptConn*) included. Informational:
# scheduled CI runs it non-gating.
flake-census:
	@for race in "" -race; do \
		echo "# $(GO) test $$race -count=20, TestCongestionWasteSweep skipped"; \
		$(GO) test $$race -count=20 -timeout 90m -v -skip '^TestCongestionWasteSweep$$' ./internal/udprt ./internal/tasks ./cmd/fobsd 2>&1 \
		| grep -E '^(--- (PASS|FAIL)|ok|FAIL)|datagrams unread at the ABORT' \
		| sed -E 's/ \([0-9.]+s\)$$//; s/^ +[a-z_]+\.go:[0-9]+: //' | sort | uniq -c; \
	done

# End-to-end daemon crash drill against the real binary: build fobsd,
# submit three tasks over loopback, SIGKILL it mid-flight, restart it over
# the same state directory, and require every task to complete with
# bit-identical objects and restored (not resent) packets.
fobsd-smoke:
	$(GO) test ./cmd/fobsd -run TestFobsdSmokeSIGKILL -count=1 -v

# Short fuzz pass over every decoder fuzz target: the committed seed corpus
# plus 10 seconds of exploration each. A format regression that survives the
# unit tests rarely survives this.
fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeData -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeAck -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeControl -fuzztime 10s
	$(GO) test ./internal/xfer -run '^$$' -fuzz FuzzDecodeManifest -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzReadEvents -fuzztime 10s
	$(GO) test ./internal/flight -run '^$$' -fuzz FuzzReadRecording -fuzztime 10s
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 10s
	$(GO) test ./internal/tasks -run '^$$' -fuzz FuzzReplayJournal -fuzztime 10s

verify: tier1 vet cross race shuffle fuzz-smoke bench-e2e-test
