// Command mfbc-serve runs the betweenness-centrality query service as an
// HTTP/JSON server: a registry of named graphs, a result cache keyed by
// graph version and query parameters, single-flight deduplication of
// concurrent identical queries, and streaming updates — PATCH a graph with
// a mutation batch and the per-graph dynamic engine refreshes scores
// incrementally, re-running only the affected pivots (see internal/server
// and internal/dynamic).
//
// Examples:
//
//	mfbc-serve -addr :8080
//	mfbc-serve -addr :8080 -preload social=graph.txt -cache 512 -workers 0 -dirty 0.25
//	mfbc-serve -addr :8080 -dyn-procs 16 -dyn-cache-sets 4
//	mfbc-serve -addr :8080 -trace-out traces.jsonl -slow-query 500ms -debug-addr 127.0.0.1:6060
//
// Then:
//
//	curl -X POST localhost:8080/graphs/demo -d '{"kind":"rmat","scale":10,"edge_factor":8,"seed":42}'
//	curl -X POST localhost:8080/query -d '{"graph":"demo","k":10}'
//	curl -X PATCH localhost:8080/graphs/demo -d '{"mutations":[{"op":"add_edge","u":3,"v":9,"w":1}]}'
//	curl -X POST localhost:8080/query -d '{"graph":"demo","k":10}'   # warm hit on the new version
//
// With -dyn-procs p, each PATCH re-runs its affected pivots on the
// simulated p-processor machine (stationary operands stay resident and are
// delta-patched between batches) and the response carries the modeled
// communication: {"procs":16,"plan":"4x2x2/X=B/YZ=AB","comm":{"bytes":...}}.
//
// The listener is a hardened http.Server (header/read/idle timeouts guard
// against slow-drip clients; see -read-header-timeout and friends) and
// SIGINT/SIGTERM drain in-flight requests for -shutdown-grace before the
// process exits.
//
// Observability: GET /metrics serves the Prometheus-text metric registry
// and GET /debug/traces the recent request traces as JSONL (bounded ring,
// -trace-buf entries; -trace-buf 0 disables tracing). -trace-sample keeps
// a probabilistic subset of traces under production rates — error and slow
// requests always survive the sampler, and the duration histograms carry
// exemplar trace/span IDs pointing into the retained traces. -trace-out
// streams every kept trace to a JSONL file as it completes. -slow-query
// logs a structured warning for any request slower than the threshold
// (and force-keeps its trace). -debug-addr
// opens a second, operator-only listener carrying net/http/pprof plus
// /metrics and /debug/traces — keep it off the public address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/machine/tcpnet"
	"repro/internal/obs"
	"repro/internal/rankrun"
	"repro/internal/server"
)

func main() { os.Exit(run()) }

// run is main with an exit status, so that every deferred cleanup — above
// all the tcp worker fleet's ordered shutdown — runs on every exit path.
// Whatever can fail without a backend (flag combinations, binding the
// listeners, opening the trace file) fails before buildServer brings one
// up.
func run() int {
	// Flags the service itself reads are bound straight into its Config;
	// serveConfig holds the rest of what buildServer needs.
	var scfg server.Config
	var cfg serveConfig
	addr := flag.String("addr", ":8080", "listen address")
	flag.IntVar(&scfg.Workers, "workers", 0, "local kernel threads per compute (0 = all cores, 1 = sequential)")
	flag.IntVar(&scfg.CacheSize, "cache", 256, "max cached results (negative disables caching)")
	preload := flag.String("preload", "", "comma-separated name=path edge-list files to register at startup")
	flag.Float64Var(&scfg.DirtyThreshold, "dirty", 0, "mutation dirtiness threshold: affected-source fraction above which a PATCH recomputes fully (0 = default 0.25, negative = always incremental)")
	flag.IntVar(&scfg.DynProcs, "dyn-procs", 0, "run mutation re-computation on the simulated distributed machine with this many processors (≤1 = shared-memory path); PATCH responses then report modeled communication, per-phase stats, and the plan chosen")
	flag.StringVar(&cfg.transport, "transport", "sim", "machine backend for distributed mutation re-computation: 'sim' (in-process simulated machine) or 'tcp' (rank-per-process mesh; this server is rank 0 and every other -peers entry must run cmd/mfbc-rank)")
	flag.StringVar(&cfg.peers, "peers", "", "with -transport tcp: comma-separated host:port of every rank in rank order; entry 0 is this server's machine endpoint (distinct from -addr)")
	flag.DurationVar(&cfg.rendezvous, "rendezvous", 0, "with -transport tcp: how long to keep retrying the mesh connect while ranks start (0 = 15s default)")
	flag.IntVar(&scfg.DynCacheSets, "dyn-cache-sets", 0, "bound each simulated rank's stationary-operand cache to this many working sets per matrix (LRU across plans; 0 = unbounded); evictions appear as mfbc_dyn_operand_evictions in /metrics")
	flag.StringVar(&scfg.IngestDurability, "ingest-durability", "applied", "default PATCH acknowledgment level: 'applied' (block until the batch's group commit lands) or 'enqueued' (202 on enqueue; per-request override via the request's durability field)")
	flag.IntVar(&scfg.IngestMaxDepth, "ingest-max-depth", 256, "pending-batch bound of each graph's write-ahead queue; beyond it PATCHes shed with 429 + Retry-After (negative = unbounded)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "max time to read a request's headers (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "max time to read a full request including the body")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time per connection")
	writeTimeout := flag.Duration("write-timeout", 0, "max time to write a response (0 = unlimited; exact queries on large graphs can be slow)")
	shutdownGrace := flag.Duration("shutdown-grace", 30*time.Second, "how long SIGINT/SIGTERM waits for in-flight requests to drain before forcing exit")
	flag.IntVar(&cfg.traceBuf, "trace-buf", 256, "request traces retained for GET /debug/traces (0 disables tracing)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 1, "head-sampling probability for request traces in [0,1]: each trace is kept with this probability, except error (status ≥ 400) and slow (-slow-query) requests, which are always kept (1 = keep everything)")
	traceOut := flag.String("trace-out", "", "append every finished request trace to this JSONL file")
	flag.DurationVar(&scfg.SlowQuery, "slow-query", 0, "log a structured warning for requests slower than this (0 = off)")
	debugAddr := flag.String("debug-addr", "", "operator-only listener with net/http/pprof, /metrics, and /debug/traces (empty = off)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "mfbc-serve:", err)
		return 1
	}

	if *traceOut != "" && cfg.traceBuf <= 0 {
		return fail(errors.New("-trace-out needs tracing enabled (-trace-buf > 0)"))
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	defer l.Close()
	var dl net.Listener
	if *debugAddr != "" {
		if dl, err = net.Listen("tcp", *debugAddr); err != nil {
			return fail(err)
		}
		defer dl.Close()
	}
	var traceSink *os.File
	if *traceOut != "" {
		if traceSink, err = os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return fail(err)
		}
		defer traceSink.Close()
	}

	scfg.Logger = logger
	s, cleanup, err := buildServer(scfg, cfg, *preload)
	if err != nil {
		return fail(err)
	}
	defer cleanup()
	if traceSink != nil {
		s.Tracer().SetSink(traceSink)
		logger.Info("streaming traces", "path", *traceOut)
	}
	for _, info := range s.Graphs() {
		logger.Info("preloaded graph", "name", info.Name, "n", info.N, "m", info.M,
			"directed", info.Directed, "weighted", info.Weighted,
			"version", fmt.Sprintf("%016x", info.Version))
	}

	srv := newHTTPServer(server.NewMux(s), httpTimeouts{
		readHeader: *readHeaderTimeout, read: *readTimeout,
		write: *writeTimeout, idle: *idleTimeout,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if dl != nil {
		dsrv := &http.Server{Handler: debugMux(s), ReadHeaderTimeout: *readHeaderTimeout}
		go func() {
			if err := dsrv.Serve(dl); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
		defer dsrv.Close()
		logger.Info("debug listener on", "addr", dl.Addr().String())
	}

	logger.Info("mfbc-serve listening", "addr", l.Addr().String())
	if err := serve(ctx, srv, l, *shutdownGrace); err != nil {
		logger.Error("mfbc-serve", "err", err)
		return 1
	}
	logger.Info("mfbc-serve: drained and shut down")
	return 0
}

// debugMux is the operator-only surface served on -debug-addr: the pprof
// endpoints plus the same /metrics and /debug/traces the API mux carries,
// so a locked-down deployment can keep all three off the public address.
func debugMux(s *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", s.Registry().Handler())
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if tr := s.Tracer(); tr != nil {
			tr.Handler().ServeHTTP(w, r)
			return
		}
		http.NotFound(w, r)
	})
	return mux
}

// httpTimeouts carries the connection-hardening knobs into newHTTPServer.
type httpTimeouts struct {
	readHeader, read, write, idle time.Duration
}

// newHTTPServer wraps the mux in a production-configured http.Server: a
// bare http.ListenAndServe has no header/read/idle timeouts, so a single
// slow-drip client (slowloris) can pin connections forever.
func newHTTPServer(h http.Handler, t httpTimeouts) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: t.readHeader,
		ReadTimeout:       t.read,
		WriteTimeout:      t.write,
		IdleTimeout:       t.idle,
	}
}

// serve runs srv on l until ctx is canceled, then drains in-flight
// requests for up to grace before forcing the remaining connections
// closed. A nil error means a clean drain (or a clean server close).
func serve(ctx context.Context, srv *http.Server, l net.Listener, grace time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		err := srv.Shutdown(sctx)
		// Serve has returned ErrServerClosed by now; surface only the
		// drain outcome (context.DeadlineExceeded if the grace ran out).
		<-errc
		return err
	}
}

// serveConfig carries into buildServer the flag values server.Config has no
// field for: which machine backend to bring up, and how to build the tracer.
type serveConfig struct {
	transport, peers string
	rendezvous       time.Duration
	traceBuf         int
	// traceSample is the head-sampling keep probability handed to the
	// tracer (clamped to [0,1]). Note the zero value means "keep only
	// error/slow traces" — tests that assert on retained traces must set
	// it to 1 explicitly, matching the flag default.
	traceSample float64
}

// buildServer wires flags into a ready service; split from main so the
// end-to-end test drives the exact production configuration. scfg is the
// service's own Config as the flags filled it; buildServer adds the
// registry, the tracer and — on -transport tcp — the engine factory. The
// serving binary is the one place the Go-runtime gauges are registered:
// library constructors keep the registry deterministic for byte-identical
// scrape tests.
//
// The returned cleanup shuts down whatever backend the transport flags
// brought up (the worker fleet on -transport tcp); call it after the
// HTTP listener drains.
func buildServer(scfg server.Config, cfg serveConfig, preload string) (*server.Server, func(), error) {
	scfg.Metrics = obs.NewRegistry()
	obs.RegisterRuntimeMetrics(scfg.Metrics)
	if cfg.traceBuf > 0 {
		scfg.Tracer = obs.NewTracer(cfg.traceBuf)
		scfg.Tracer.SetSampleRate(cfg.traceSample)
	}
	logger := scfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	switch scfg.IngestDurability {
	case "", server.DurabilityApplied, server.DurabilityEnqueued:
	default:
		return nil, nil, fmt.Errorf("unknown -ingest-durability %q (want %q or %q)",
			scfg.IngestDurability, server.DurabilityApplied, server.DurabilityEnqueued)
	}
	cleanup := func() {}
	switch cfg.transport {
	case "", "sim":
		// In-process simulated machine: the library default.
	case "tcp":
		peers := splitPeers(cfg.peers)
		if len(peers) < 2 {
			return nil, nil, fmt.Errorf("-transport tcp needs -peers with at least two host:port entries, got %q", cfg.peers)
		}
		if scfg.DynProcs != 0 && scfg.DynProcs != len(peers) {
			return nil, nil, fmt.Errorf("-dyn-procs %d conflicts with %d-rank -peers list (omit -dyn-procs or make them equal)", scfg.DynProcs, len(peers))
		}
		scfg.DynProcs = len(peers)
		tr, err := tcpnet.Coordinate(peers, tcpnet.Options{Rendezvous: cfg.rendezvous})
		if err != nil {
			return nil, nil, fmt.Errorf("-transport tcp: %w", err)
		}
		driver, err := rankrun.NewDriver(tr)
		if err != nil {
			tr.Close()
			return nil, nil, err
		}
		scfg.NewDynamic = tcpDynFactory(driver)
		cleanup = func() {
			if err := driver.Shutdown(); err != nil {
				logger.Warn("worker shutdown", "err", err)
			}
			tr.Close()
		}
		logger.Info("tcp machine mesh up", "ranks", len(peers), "endpoint", peers[0])
	default:
		return nil, nil, fmt.Errorf("unknown -transport %q (want sim or tcp)", cfg.transport)
	}
	s := server.New(scfg)
	for _, pair := range strings.Split(preload, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, path, ok := strings.Cut(pair, "=")
		if !ok || name == "" || path == "" {
			cleanup()
			return nil, nil, fmt.Errorf("bad -preload entry %q (want name=path)", pair)
		}
		if _, err := s.LoadGraph(name, path); err != nil {
			cleanup()
			return nil, nil, fmt.Errorf("preload %q: %w", name, err)
		}
	}
	return s, cleanup, nil
}

// tcpDynFactory builds the server's streaming engines on the replicated
// worker fleet. It keeps the per-name engine registry so a graph replaced
// or evicted on the server also drops its replicas on the workers before
// a same-named engine is rebuilt.
func tcpDynFactory(driver *rankrun.Driver) func(string, *repro.Graph, repro.DynamicOptions) (server.DynEngine, error) {
	var mu sync.Mutex
	engines := make(map[string]*rankrun.Engine)
	return func(name string, g *repro.Graph, opt repro.DynamicOptions) (server.DynEngine, error) {
		mu.Lock()
		defer mu.Unlock()
		if old := engines[name]; old != nil {
			if err := old.Close(); err != nil {
				return nil, fmt.Errorf("dropping stale replicas of %q: %w", name, err)
			}
			delete(engines, name)
		}
		opt.Procs = driver.Size()
		eng, err := driver.NewEngine(name, g, opt)
		if err != nil {
			return nil, err
		}
		engines[name] = eng
		return eng, nil
	}
}

// splitPeers parses the comma-separated peer list, trimming blanks.
func splitPeers(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}
