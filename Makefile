# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); `make check` is the pre-push bundle.

GO ?= go
BIN := bin/mfbc-lint

.PHONY: all build lint lint-standalone test race bench bench-module examples tidy-check fmt-check deps-check ci-names loc surface exports check clean

all: build

build:
	$(GO) build ./...

$(BIN): FORCE
	$(GO) build -o $(BIN) ./cmd/mfbc-lint

FORCE:

## lint: run the custom determinism/concurrency analyzers through go vet
## (cached and parallel per package).
lint: $(BIN)
	$(GO) vet -vettool=$(CURDIR)/$(BIN) ./...

## lint-standalone: same suite via the source-loading driver (no build
## cache involved; useful when iterating on the analyzers themselves).
lint-standalone: $(BIN)
	./$(BIN) ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: the paper's experiment driver in quick mode.
bench:
	$(GO) run ./cmd/mfbc-bench -exp fig1a -quick

## bench-module: benchmarks/ is a module of its own, outside the root
## `go test ./...`; build, vet and test it against the current API so a
## removal in the root module cannot break the repo benchmark unseen.
bench-module:
	cd benchmarks && $(GO) build -o /dev/null ./... && $(GO) vet ./... && $(GO) test ./...

## examples: run every walkthrough under examples/ to completion, each
## under a timeout (`go build ./...` only compiles them, so an example that
## panics, hangs or fails its own max |Δ| check would otherwise go unseen).
EXAMPLES := quickstart commtuning streaming
examples:
	@for e in $(EXAMPLES); do \
		echo "examples/$$e"; \
		timeout 300 $(GO) run ./examples/$$e >/dev/null || { echo "examples/$$e failed" >&2; exit 1; }; \
	done

tidy-check:
	$(GO) mod tidy -diff

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

## deps-check: the import edges that must stay cut. The library links
## neither the paper harness nor a TCP mesh it never starts, the paper
## harness knows no streaming engine and no server, the metrics/tracing
## package knows no machine (phase labels are the registry's own names),
## and internal/testkit is imported by _test.go files only.
deps-check:
	@nodep() { if $(GO) list -deps $$1 | grep -E "repro/internal/($$2)\$$"; then echo "$$1 must not import the above" >&2; exit 1; fi; }; \
	nodep . 'bench|machine/tcpnet' && nodep ./internal/bench 'dynamic|server' && nodep ./internal/obs 'machine' && \
	if $(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -v '^repro/internal/testkit:' | grep -E ' repro/internal/testkit( |$$)'; then \
		echo "only _test.go files may import repro/internal/testkit" >&2; exit 1; fi

## ci-names: every alternative of a quoted `-run '…'` pattern in the CI
## workflow matches some `func Test…`/`Fuzz…` declaration, so renaming a
## test cannot silently drop it from the steps that select tests by name.
ci-names:
	@names=$$(grep -rhoE --include='*_test.go' --exclude-dir=testdata '^func (Test|Fuzz)[A-Za-z0-9_]*' . | sed 's/^func //'); \
	bad=0; \
	for alt in $$(grep -oE -- "-run '[^']*'" .github/workflows/ci.yml | sed -E "s/^-run '(.*)'$$/\1/" | tr '|' ' '); do \
		printf '%s\n' "$$names" | grep -qE -- "$$alt" || { echo ".github/workflows/ci.yml: -run alternative $$alt matches no Test/Fuzz function" >&2; bad=1; }; \
	done; \
	exit $$bad

## loc: the non-test Go line count the ROADMAP's simplicity targets are
## stated in (*.go outside benchmarks/ and */testdata/*, no *_test.go), for
## the repository, internal/core and internal/bench. internal/testkit (the
## tests' shared fixtures) is reported on its own and left out of the
## repository count. Every simplicity PR reports these.
loc:
	@count() { find $$1 -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path '*/testdata/*' ! -path './internal/testkit/*' -exec cat {} + | wc -l; }; \
	echo "non-test Go lines: repository $$(count .), internal/core $$(count ./internal/core), internal/bench $$(count ./internal/bench); internal/testkit $$(find ./internal/testkit -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"

## surface: the settable-surface counts every simplicity PR reports
## beside `make loc` — flag definitions under cmd/ (package-level flag.X
## calls and the same methods on a FlagSet, which is named fs by
## convention), exported fields of the four option structs, exported struct
## types declared in the root package (aliases are not declarations) — and
## the backend settings: exported fields of tcpnet.Options and methods of
## machine.Transport. All over non-test sources.
surface:
	@members() { awk -v t="type $$2 $${3:-struct} {" '$$0 == t {in_t = 1; next} in_t && /^}/ {in_t = 0} in_t && /^\t[A-Z][A-Za-z0-9]*( |\(|$$)/ {n++} END {print n + 0}' $$1; }; \
	flags=$$(find cmd -name '*.go' ! -name '*_test.go' | xargs grep -hoE '\<(flag|fs)\.(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration|Text)?(Var|Func)?\(' | wc -l); \
	opts=$$(( $$(members repro.go Options) + $$(members internal/dynamic/dynamic.go Config) + $$(members internal/core/dist.go DistOptions) + $$(members internal/server/server.go Config) )); \
	structs=$$(ls *.go | grep -v '_test\.go$$' | xargs cat | grep -cE '^type [A-Z][A-Za-z0-9]* struct'); \
	echo "surface: cmd flags $$flags, option fields $$opts, root exported structs $$structs; backend: tcpnet.Options fields $$(members internal/machine/tcpnet/tcpnet.go Options), machine.Transport methods $$(members internal/machine/machine.go Transport interface)"

## exports: the production API each package shows `go doc` — the line
## count of `go doc -short` for the root package and every non-test package
## under internal/ (internal/testkit and the lint fixtures excluded).
exports:
	@for p in . $$($(GO) list ./internal/... | grep -v -e /testkit -e /testdata/ | sed 's|^repro/|./|'); do \
		printf '%-28s %3d\n' "$$p" "$$($(GO) doc -short $$p | wc -l)"; done

check: build fmt-check tidy-check deps-check ci-names lint test bench-module examples

clean:
	rm -rf bin
