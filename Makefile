# Developer entry points. CI runs the same commands; keep them in sync
# with .github/workflows/ci.yml.

GO ?= go

.PHONY: build cross test race vet barriervet fuzz-smoke barrierbench-smoke perfbench-test

build:
	$(GO) build ./...

# Builds for platforms other than the host's linux/amd64: the resend
# pacer's timerfd sleeper is Linux-only (pacer_linux.go), with a portable
# fallback elsewhere, so a non-Linux and a 32-bit Linux build keep both
# files compiling. (Windows is not a target: internal/bench uses SIGSTOP.)
cross:
	GOOS=darwin $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet is the full static gate: the stock toolchain vet plus barriervet,
# the repo's own invariant analyzers (see internal/analyzers).
vet:
	$(GO) vet ./... && $(GO) run ./cmd/barriervet ./...

barriervet:
	$(GO) run ./cmd/barriervet ./...

fuzz-smoke:
	$(GO) test ./internal/transport -run '^$$' -fuzz '^FuzzTransport$$' -fuzztime 10s

# The CI cluster-load gate: loopback TCP, 16 groups x 8 procs, 30s of
# open-loop traffic under a seed-deterministic chaos schedule; exits
# non-zero unless the SLO verdict is PASS.
barrierbench-smoke:
	$(GO) run ./cmd/barrierbench -profile smoke

# perfbench is a nested module, invisible to the root `go test ./...`.
# Its tests include a short tcp-ring run, the end-to-end check that
# NewLoopbackRing still serves the benchmark.
perfbench-test:
	cd perfbench && $(GO) test ./...
