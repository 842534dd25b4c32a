# Developer entry points. CI runs the same commands (plus staticcheck
# and govulncheck, which need network to install — see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: build test vet fmt check loc knobs knobs-check bench-pairs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet = the toolchain's standard passes + the repo's invariant
# analyzers (docs/INVARIANTS.md).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/tkij-vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

# check is the pre-push gate: everything a PR must pass locally.
check: fmt build vet knobs-check test
	@echo "check: OK"

# loc prints the figure ROADMAP.md and CHANGES.md quote for the size of
# the engine: lines of non-test Go outside the benchmark module and its
# build directory.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# knobs prints the number of exported fields across the engine's
# option structs (every `type …Options struct` in non-test Go outside
# the benchmark module) — the count of independently named settings a
# simplicity PR quotes before and after. A field of struct type counts
# once, whatever it holds.
knobs:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 awk ' \
		/^type [A-Za-z]*Options struct \{/ { open = 1; next } \
		open && /^\}/ { open = 0 } \
		open && match($$0, /^\t[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)* /) { n += split(substr($$0, RSTART, RLENGTH), f, ",") } \
		END { print n }'

# knobs-check fails when `make knobs` exceeds KNOBS_BUDGET, so an option
# can only come back through an edit of this line. Lower the budget with
# every change that removes options.
KNOBS_BUDGET = 26
knobs-check:
	@n=$$($(MAKE) -s --no-print-directory knobs); \
	if [ "$$n" -gt $(KNOBS_BUDGET) ]; then \
		echo "knobs: $$n option fields exceed the budget of $(KNOBS_BUDGET)"; exit 1; fi; \
	echo "knobs: $$n of $(KNOBS_BUDGET)"

# bench-pairs runs one benchmark workload on REF and on the working tree
# in alternating pairs and prints medians, wins and REF's quartile
# distance — the evidence docs/PERF.md asks of any performance claim.
REF ?= HEAD~1
WORKLOAD ?= warm_hit
PAIRS ?= 10
SECONDS ?= 10
bench-pairs:
	bash scripts/bench_pairs.sh $(REF) $(WORKLOAD) $(PAIRS) $(SECONDS)
