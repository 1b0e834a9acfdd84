# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build test repeat fuzz bench bench-check loc lint study clean

all: build

build:
	$(GO) build ./...

# -count=1: a cached "ok" once hid a package that failed four runs in five.
# benchmark/ is its own module, which the root ./... does not reach; its
# build is what proves the exported surface it drives still compiles. The
# last step is `make repeat`.
test:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race -count=1 ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) --no-print-directory repeat

# The tests that pin the partitioned drivers' contract under a truncating
# limit, across kill-and-resume and under donation, the failure-retention
# oracles (an Executor's failure record is rewritten by its next failing run)
# and the buggy-run merge property, twenty times over: they are statements
# about every interleaving, so run them enough times to meet a few. CI runs
# this target too, so the pattern lives only here.
repeat:
	$(GO) test -count=20 -run 'TestKillAndResume|Truncat|TestPeriodic|TestDistDrainResume|TestDistDonation|TestDistDrainAfterPeriodic|Retention|TestMergeRunsMatchOffsets' ./internal/explore/ ./internal/dist/

# The decoders that cross a trust boundary, fuzzed for ten seconds each:
# checkpoint files, the coordinator's request bodies, witness files and
# corpus entries.
fuzz:
	$(GO) test -run xxx -fuzz '^FuzzLoadCheckpoint$$' -fuzztime 10s ./internal/explore/
	$(GO) test -run xxx -fuzz '^FuzzCoordinatorBodies$$' -fuzztime 10s ./internal/dist/
	$(GO) test -run xxx -fuzz '^FuzzDecodeWitness$$' -fuzztime 10s ./internal/sched/
	$(GO) test -run xxx -fuzz '^FuzzCorpusEntry$$' -fuzztime 10s ./internal/corpus/

bench:
	$(GO) test -run xxx -bench . -benchtime 3x .

# The ledger as a gate: the four benchmark/ workloads at BASE (default
# HEAD~1) and at the working tree, PAIRS (default 3) alternating runs each,
# then benchmark/run.sh -compare; fails on a REGRESSED metric, a drifted
# count or a failed operation. `make bench-check BASE=HEAD PAIRS=1` — make
# passes command-line variables on to scripts/bench-check.sh.
bench-check:
	bash scripts/bench-check.sh

# Size, reproducibly: non-test, non-generated Go lines per package at REV
# (default HEAD~1) and in the working tree, with the difference — the figure
# a CHANGES.md "Size:" line quotes. `make loc REV=<rev>`.
loc:
	bash scripts/loc.sh $(REV)

lint:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) vet ./...

# The full empirical study (Tables 2-3, Figures 2-4); see EXPERIMENTS.md.
study:
	$(GO) run ./cmd/sctbench

clean:
	$(GO) clean ./...
