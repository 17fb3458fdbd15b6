GO ?= go

# Tier-1 verification: everything CI (and the next PR's author) must keep
# green. `race` exercises the experiment engine's worker pool across all
# packages; the exp tests include worker-count-invariance and golden-file
# checks, so this target is the full reproducibility gate. `lint` is the
# invariant gate: sniclint builds the whole-module call graph and
# enforces the isolation-boundary, transitive-determinism,
# lock-discipline, factory, seed, and stdlib-only rules the goldens
# depend on (see DESIGN.md "Enforced invariants").
.PHONY: verify
verify: build vet lint test race fleet resume

.PHONY: build
build:
	$(GO) build ./...

.PHONY: vet
vet:
	$(GO) vet ./...

# Static invariant checks (sniclint -list describes each check ID).
.PHONY: lint
lint:
	$(GO) run ./cmd/sniclint ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# Fleet scenario gate: the numbered end-to-end suite under the race
# detector (a live snicd API served over real HTTP per scenario), plus a
# coverage floor on the control plane. The floor is deliberately below
# the current number — it catches a PR that deletes the scenario or
# property suites, not normal drift. Regenerate scenario goldens after
# an intentional control-plane change with:
#   go test ./internal/fleet/scenarios -update
FLEET_COVER_FLOOR ?= 70
.PHONY: fleet
fleet:
	$(GO) test -race -coverprofile=fleet.cover -coverpkg=./internal/fleet/... ./internal/fleet/...
	@total=$$($(GO) tool cover -func=fleet.cover | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	rm -f fleet.cover; \
	echo "internal/fleet coverage: $$total% (floor $(FLEET_COVER_FLOOR)%)"; \
	awk -v t="$$total" -v floor="$(FLEET_COVER_FLOOR)" 'BEGIN { exit (t+0 < floor+0) ? 1 : 0 }' || \
		{ echo "internal/fleet coverage $$total% fell below the $(FLEET_COVER_FLOOR)% floor" >&2; exit 1; }

# Checkpoint-resume gate: run the replay experiment with a deliberate
# per-shard interrupt (-stop-after, the deterministic "kill"), expect
# exit 3 with a checkpoint saved, resume to completion from the file
# alone, and byte-compare against an uninterrupted run. Catches any
# state that fails to round-trip through a shard cursor.
.PHONY: resume
resume:
	$(GO) build -o /tmp/snicbench.resume ./cmd/snicbench
	@rm -f /tmp/snic.resume.ckpt /tmp/snic.resume.out /tmp/snic.resume.want
	/tmp/snicbench.resume -experiment replay -scale small > /tmp/snic.resume.want
	@/tmp/snicbench.resume -experiment replay -scale small \
		-checkpoint /tmp/snic.resume.ckpt -stop-after 2000 > /dev/null; \
	st=$$?; if [ $$st -ne 3 ]; then \
		echo "resume gate: interrupted run exited $$st, want 3" >&2; exit 1; fi
	@test -s /tmp/snic.resume.ckpt || \
		{ echo "resume gate: no checkpoint written" >&2; exit 1; }
	/tmp/snicbench.resume -experiment replay -scale small \
		-checkpoint /tmp/snic.resume.ckpt > /tmp/snic.resume.out
	cmp /tmp/snic.resume.want /tmp/snic.resume.out
	@rm -f /tmp/snicbench.resume /tmp/snic.resume.ckpt /tmp/snic.resume.out /tmp/snic.resume.want
	@echo "resume gate: interrupted replay resumed byte-identically"

.PHONY: fmt
fmt:
	gofmt -w .

# Regenerate the committed golden renderings after an intentional change
# to a model constant, a workload, or a table format.
.PHONY: golden
golden:
	$(GO) test ./internal/exp -update

# Repository-level benchmarks: one per table/figure, plus ablations and
# the engine parallel-vs-serial speedup pair. The run is recorded as a
# stdlib-only JSON summary in the current PR's BENCH file (section
# "post" by convention; record a pre-change tree with
# BENCH_SECTION=baseline) and compared with `snicperf` — see
# EXPERIMENTS.md "Benchmark trajectory".
BENCH_FILE ?= BENCH_17.json
BENCH_SECTION ?= post
BENCH_PR ?= 17
BENCH_PATTERN ?= .
.PHONY: bench
bench:
	$(GO) test -bench='$(BENCH_PATTERN)' -benchmem . | tee /dev/stderr | \
		$(GO) run ./cmd/snicperf -record -o $(BENCH_FILE) -section $(BENCH_SECTION) -pr $(BENCH_PR)
