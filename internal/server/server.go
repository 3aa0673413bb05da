// Package server is an embeddable, concurrency-safe betweenness-centrality
// query service on top of the repro engines.
//
// It keeps a registry of named graphs (generated on demand from a
// GraphSpec, or handed in by the embedding program: AddGraph, or LoadGraph
// for an edge-list file, which is how mfbc-serve -preload loads one; no
// HTTP route names a file), a bounded LRU cache of computed results keyed
// by the graph's structural version and every score-relevant query
// parameter, and single-flight deduplication so
// N concurrent identical queries trigger exactly one underlying compute —
// the expensive SpGEMM sweeps are amortized across all callers.
//
// Queries support exact BC on any engine, sampling-based approximate BC
// (the Bader et al. estimator via repro.ApproximateBC, answered with its
// err_bound) as the cheap path for interactive use, top-k extraction, and per-query stats: cache hit,
// request coalescing, compute wall time, and the modeled communication
// report of distributed runs.
//
// cmd/mfbc-serve wraps this package in an HTTP/JSON front end (see http.go
// for the routes).
package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/machine"
	"repro/internal/obs"
)

// ErrGraphNotFound is returned by Query and Evict when the named graph is
// not registered.
var ErrGraphNotFound = errors.New("server: graph not found")

// ErrGraphConflict is returned by MutateCtx when the named graph was replaced
// or evicted while the mutation batch was being computed; the mutation did
// not take effect.
var ErrGraphConflict = errors.New("server: graph replaced during mutation")

// ErrIngestBackpressure is returned by MutateCtx when the graph's ingestion
// queue is at its depth bound (the applier has fallen behind); the HTTP
// layer maps it to 429 + Retry-After. The batch was not enqueued.
var ErrIngestBackpressure = errors.New("server: ingest queue full")

// ErrInternal is returned by MutateCtx when the group commit carrying the
// batch panicked (the batch did not take effect), and by Query when the
// engine run it led or coalesced onto panicked; the panic was contained
// and the HTTP layer maps it to 500.
var ErrInternal = errors.New("server: internal error")

// Config parameterizes a Server.
type Config struct {
	// Workers is the shared-memory parallelism handed to every compute
	// (repro.Options.Workers): 0 = all host cores, 1 = sequential kernels.
	// One knob for the whole server keeps many concurrent queries from
	// oversubscribing the host.
	Workers int
	// CacheSize bounds the result cache (LRU eviction). 0 selects the
	// default of 256 entries; negative disables caching (every query
	// computes, though concurrent identical queries still coalesce).
	CacheSize int
	// DirtyThreshold is handed to each graph's dynamic engine: the
	// affected-source fraction above which a mutation batch falls back to
	// full recomputation (0 = library default 0.25, negative = always
	// incremental).
	DirtyThreshold float64
	// DynProcs > 1 runs each graph's dynamic engine in distributed mode:
	// mutation batches re-run their affected pivots on the simulated
	// machine with this many processors, keeping the stationary adjacency
	// operands resident and delta-patched across PATCHes, and the PATCH
	// response carries the modeled communication and plan.
	DynProcs int
	// Metrics is the observability registry the server's counters, gauges,
	// and histograms register on (exposed at GET /metrics). nil creates a
	// private registry. Each Server needs its own registry — metric names
	// are registered once and duplicate registration panics.
	Metrics *obs.Registry
	// Tracer enables request tracing: every instrumented HTTP request
	// becomes a root span, with child spans down through the dynamic engine
	// into the machine regions (modeled cost + measured wall-clock per
	// phase). nil disables tracing at near-zero cost.
	Tracer *obs.Tracer
	// Logger receives structured logs (encode failures, slow requests).
	// nil uses slog.Default().
	Logger *slog.Logger
	// SlowQuery, when positive, logs any instrumented HTTP request that
	// takes at least this long as a warning with route and latency.
	SlowQuery time.Duration
	// IngestDurability is the default acknowledgment level for mutations,
	// which all go through a per-graph write-ahead queue with group-commit
	// applies (see ingest.go): DurabilityApplied (block until the group
	// commit lands — the default) or DurabilityEnqueued (acknowledge on
	// enqueue; the response carries queued=true and the pre-commit
	// version). Per-request override via MutateRequest.
	IngestDurability string
	// IngestMaxDepth bounds each graph's queue to this many pending
	// batches; enqueues beyond it fail with ErrIngestBackpressure
	// (HTTP 429). 0 selects the default of 256; negative = unbounded.
	IngestMaxDepth int
	// NewDynamic overrides streaming-engine construction. cmd/mfbc-serve
	// uses it in -transport tcp mode to build engines whose applies are
	// replicated across the worker ranks (internal/rankrun); nil
	// constructs the default in-process repro.DynamicBC. The name is the
	// graph's registry name; implementations that hold per-name state
	// must tolerate re-construction under the same name (the previous
	// engine was orphaned by eviction or replacement).
	NewDynamic func(name string, g *repro.Graph, opt repro.DynamicOptions) (DynEngine, error)
}

// DynEngine is the streaming-engine surface the server drives for PATCH
// mutations: apply a batch, snapshot the scores, report counters.
// *repro.DynamicBC is the canonical implementation.
type DynEngine interface {
	ApplyCtx(ctx context.Context, batch []repro.Mutation) (repro.ApplyReport, error)
	Scores() repro.DynamicSnapshot
	Stats() repro.DynamicStats
}

const defaultCacheSize = 256

// seedTopKLen is how many ranked vertices each warm-seeded cache entry
// precomputes, so post-mutation top-k queries skip even the partial
// selection.
const seedTopKLen = 64

// Server is the query service. All methods are safe for concurrent use.
type Server struct {
	// cfg is the Config New was given with its defaults resolved (CacheSize
	// ≥ 0 is the bound itself, 0 = caching off; Metrics, Logger and
	// NewDynamic non-nil; IngestDurability one of the two levels;
	// IngestMaxDepth ≤ 0 = unbounded). Immutable after New.
	cfg Config

	// computeExact/computeApprox are repro.Compute/repro.ApproximateBC,
	// replaceable by tests to observe or stall computations.
	computeExact  func(*repro.Graph, repro.Options) (*repro.Result, error)
	computeApprox func(*repro.Graph, int, int64, repro.Options) (*repro.Result, error)

	m serverMetrics // registered on cfg.Metrics (exposed at /metrics)

	mu       sync.Mutex
	graphs   map[string]*graphEntry   // guarded by mu
	cache    map[string]*list.Element // guarded by mu; cache key → element of lru
	lru      *list.List               // guarded by mu; front = most recently used *cacheEntry
	flight   map[string]*flightCall   // guarded by mu; cache key → in-flight computation
	mutLocks map[string]*sync.Mutex   // guarded by mu; graph name → mutation serializer (never deleted; see Evict)
	queues   map[string]*ingestQueue  // guarded by mu; graph name → write-ahead mutation queue (deleted + closed on Evict)
}

type graphEntry struct {
	g        *repro.Graph
	version  uint64 // repro.Fingerprint at registration
	loadedAt time.Time
	// dyn is the graph's streaming engine, created on the first mutation
	// and carried across versions so incremental applies keep warm scores.
	dyn DynEngine
}

type cacheEntry struct {
	key   string
	graph string        // registry name, for purge on eviction/replacement
	res   *repro.Result // immutable once stored; BC is never written again
	wall  time.Duration // wall time of the compute that produced it
	// topk is an optional precomputed descending ranking (warm-seeded
	// entries): requests with K ≤ len(topk) serve a prefix instead of
	// re-selecting. Written once before the entry is published, never
	// after.
	topk []int
}

// flightCall is one in-flight computation; waiters block on done. entry and
// err are written exactly once before done is closed.
type flightCall struct {
	done  chan struct{}
	entry *cacheEntry
	err   error
}

// Stats is the four-counter snapshot the repository benchmark reads
// in-process (benchmarks/traced.go, which BENCHMARK.json freezes). It is
// not a second counter surface: every other reader — tests, operators —
// reads the registry (GET /metrics; tests parse it with testkit.ParseText).
type Stats struct {
	Queries   int64 // mfbc_queries_total
	CacheHits int64 // mfbc_query_cache_hits_total
	Coalesced int64 // mfbc_query_coalesced_total
	WarmSeeds int64 // mfbc_warm_seeds_total over the exact, normalized and distributed variants
}

// New creates a Server.
func New(cfg Config) *Server {
	switch {
	case cfg.CacheSize == 0:
		cfg.CacheSize = defaultCacheSize
	case cfg.CacheSize < 0:
		cfg.CacheSize = 0
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.IngestDurability != DurabilityEnqueued {
		cfg.IngestDurability = DurabilityApplied
	}
	if cfg.IngestMaxDepth == 0 {
		cfg.IngestMaxDepth = defaultIngestMaxDepth
	}
	if cfg.NewDynamic == nil {
		cfg.NewDynamic = func(_ string, g *repro.Graph, opt repro.DynamicOptions) (DynEngine, error) {
			return repro.NewDynamicBC(g, opt)
		}
	}
	reg := cfg.Metrics
	s := &Server{
		cfg:           cfg,
		computeExact:  repro.Compute,
		computeApprox: repro.ApproximateBC,
		m:             newServerMetrics(reg),
		graphs:        make(map[string]*graphEntry),
		cache:         make(map[string]*list.Element),
		lru:           list.New(),
		flight:        make(map[string]*flightCall),
		mutLocks:      make(map[string]*sync.Mutex),
		queues:        make(map[string]*ingestQueue),
	}
	// Registry-size gauges are computed at scrape time under s.mu; the
	// exposition renderer never holds s.mu, so there is no lock cycle.
	reg.GaugeFunc("mfbc_graphs", "Registered graphs.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.graphs))
	})
	reg.GaugeFunc("mfbc_cache_entries", "Resident cached results.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.lru.Len())
	})
	reg.GaugeFunc("mfbc_in_flight", "Computations running now.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.flight))
	})
	// Dynamic-engine aggregates over the registered graphs' engines (an
	// evicted graph takes its engine's share with it, hence gauges).
	dynSum := func(field func(repro.DynamicStats) int64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			var sum int64
			for _, ge := range s.graphs {
				if ge.dyn != nil {
					sum += field(ge.dyn.Stats())
				}
			}
			return float64(sum)
		}
	}
	reg.GaugeFunc("mfbc_dyn_fused_applies", "Incremental applies that ran as one fused machine region.",
		dynSum(func(ds repro.DynamicStats) int64 { return ds.FusedApplies }))
	reg.GaugeFunc("mfbc_dyn_two_region_applies", "Incremental applies on the two-region path (vertex growth, or no affected source).",
		dynSum(func(ds repro.DynamicStats) int64 { return ds.TwoRegionApplies }))
	return s
}

// Registry returns the server's metric registry (the /metrics exposition).
func (s *Server) Registry() *obs.Registry { return s.cfg.Metrics }

// Tracer returns the server's tracer, nil when tracing is disabled.
func (s *Server) Tracer() *obs.Tracer { return s.cfg.Tracer }

// serverMetrics is the observability surface of the server: its counters
// and gauges, the latency/size histograms and the modeled-vs-measured
// phase telemetry. Counters are atomic — they need
// no lock, though some are incremented while s.mu happens to be held.
type serverMetrics struct {
	queries         *obs.Counter
	cacheHits       *obs.Counter
	coalesced       *obs.Counter
	computes        *obs.Counter
	evictions       *obs.Counter
	mutations       *obs.Counter
	mutateConflicts *obs.Counter
	computeErrors   *obs.Counter
	encodeErrors    *obs.Counter
	warmSeeds       *obs.CounterVec // variant: exact|normalized|distributed|topk

	queryDur  *obs.HistogramVec // source: cache|coalesced|compute
	mutateDur *obs.HistogramVec // strategy: incremental|full

	// Write-path telemetry (ingest.go): queue depth, batches
	// enqueued/rejected/failed, group commits and their coalescing win,
	// and how long batches waited queued before their commit started.
	ingestEnqueued    *obs.Counter
	ingestRejected    *obs.Counter
	ingestBatchErrors *obs.Counter
	ingestCoalesced   *obs.Counter
	ingestCommits     *obs.Counter
	ingestDepth       *obs.Gauge
	ingestGroupSize   *obs.Histogram
	ingestQueueWait   *obs.Histogram
	panics            *obs.CounterVec // site; contained panics

	httpReqs  *obs.CounterVec   // route, code
	httpDur   *obs.HistogramVec // route
	httpBytes *obs.HistogramVec // route; response body bytes

	// Modeled-vs-measured cost telemetry, accumulated per applied mutation
	// batch: the α-β-γ model's seconds next to host wall-clock, per machine
	// phase and per whole apply — the roofline comparison ROADMAP item 3
	// asks for, as counters.
	applyModelSec *obs.Counter
	applyWallSec  *obs.Counter
	phaseModelSec *obs.CounterVec // phase
	phaseWallSec  *obs.CounterVec // phase
	phaseBytes    *obs.CounterVec // phase
	phaseMsgs     *obs.CounterVec // phase
	phaseFlops    *obs.CounterVec // phase
}

// httpRoutes is the fixed route-label vocabulary of the HTTP middleware,
// pre-registered so the first scrape already shows every route at zero.
var httpRoutes = []string{"healthz", "graphs", "graph", "register", "mutate", "evict", "query"}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	m := serverMetrics{
		queries:         reg.Counter("mfbc_queries_total", "Total Query calls against registered graphs."),
		cacheHits:       reg.Counter("mfbc_query_cache_hits_total", "Queries served from the result cache."),
		coalesced:       reg.Counter("mfbc_query_coalesced_total", "Queries that piggybacked on an in-flight compute."),
		computes:        reg.Counter("mfbc_computes_total", "Underlying engine runs started."),
		evictions:       reg.Counter("mfbc_cache_evictions_total", "Cache entries dropped (LRU or purge)."),
		mutations:       reg.Counter("mfbc_mutations_total", "Mutation batches applied."),
		mutateConflicts: reg.Counter("mfbc_mutate_conflicts_total", "Mutations lost to a concurrent graph replacement."),
		computeErrors:   reg.Counter("mfbc_compute_errors_total", "Engine runs that returned an error."),
		encodeErrors:    reg.Counter("mfbc_encode_errors_total", "HTTP responses whose JSON encoding failed."),
		warmSeeds:       reg.CounterVec("mfbc_warm_seeds_total", "Cache entries seeded from dynamic-engine scores.", "variant"),
		queryDur:        reg.HistogramVec("mfbc_query_duration_seconds", "Query latency by answer source.", nil, "source"),
		mutateDur:       reg.HistogramVec("mfbc_mutate_duration_seconds", "Mutation batch latency by engine strategy.", nil, "strategy"),
		ingestEnqueued:  reg.Counter("mfbc_ingest_enqueued_total", "Mutation batches accepted into a write-ahead queue."),
		ingestRejected:  reg.Counter("mfbc_ingest_rejected_total", "Mutation batches rejected by queue backpressure."),
		ingestBatchErrors: reg.Counter("mfbc_ingest_batch_errors_total",
			"Queued mutation batches that failed (validation, eviction, conflict)."),
		ingestCoalesced: reg.Counter("mfbc_ingest_coalesced_total", "Queued mutation batches merged into group commits."),
		ingestCommits:   reg.Counter("mfbc_ingest_group_commits_total", "Group-commit applies executed by queue drainers."),
		ingestDepth:     reg.Gauge("mfbc_ingest_queue_depth", "Mutation batches queued and not yet drained, across graphs."),
		ingestGroupSize: reg.Histogram("mfbc_ingest_group_commit_size", "Batches coalesced per group commit.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		ingestQueueWait: reg.Histogram("mfbc_ingest_queue_wait_seconds",
			"Time batches spent queued before their group commit started.", nil),
		panics:        reg.CounterVec("mfbc_panics_total", "Panics contained without taking the service down.", "site"),
		httpReqs:      reg.CounterVec("mfbc_http_requests_total", "HTTP requests by route and status code.", "route", "code"),
		httpDur:       reg.HistogramVec("mfbc_http_request_duration_seconds", "HTTP request latency by route.", nil, "route"),
		httpBytes:     reg.HistogramVec("mfbc_http_response_bytes", "HTTP response body size by route.", obs.SizeBuckets(), "route"),
		applyModelSec: reg.Counter("mfbc_apply_model_seconds_total", "Modeled α-β-γ seconds of applied mutation batches."),
		applyWallSec:  reg.Counter("mfbc_apply_wall_seconds_total", "Measured wall-clock seconds of applied mutation batches."),
		phaseModelSec: reg.CounterVec("mfbc_phase_model_seconds_total", "Modeled seconds per machine phase.", "phase"),
		phaseWallSec:  reg.CounterVec("mfbc_phase_wall_seconds_total", "Measured wall-clock seconds per machine phase.", "phase"),
		phaseBytes:    reg.CounterVec("mfbc_phase_bytes_total", "Modeled critical-path bytes per machine phase.", "phase"),
		phaseMsgs:     reg.CounterVec("mfbc_phase_msgs_total", "Modeled critical-path messages per machine phase.", "phase"),
		phaseFlops:    reg.CounterVec("mfbc_phase_flops_total", "Modeled critical-path flops per machine phase.", "phase"),
	}
	// Pre-register the fixed label vocabularies so scrapes are complete
	// (and byte-stable) from the start, not only after first use.
	for _, v := range []string{"exact", "normalized", "distributed", "topk"} {
		m.warmSeeds.With(v)
	}
	for _, src := range []string{"cache", "coalesced", "compute"} {
		m.queryDur.With(src)
	}
	for _, st := range []string{"incremental", "full"} {
		m.mutateDur.With(st)
	}
	for _, site := range []string{"ingest.commit", "query.compute"} {
		m.panics.With(site)
	}
	for _, r := range httpRoutes {
		m.httpReqs.With(r, "2xx")
		m.httpDur.With(r)
		m.httpBytes.With(r)
	}
	for _, ph := range machine.CanonicalPhases() {
		m.phaseModelSec.With(ph)
		m.phaseWallSec.With(ph)
		m.phaseBytes.With(ph)
		m.phaseMsgs.With(ph)
		m.phaseFlops.With(ph)
	}
	return m
}

// recordApplyTelemetry folds one apply report into the modeled-vs-measured
// counters.
func (s *Server) recordApplyTelemetry(rep repro.ApplyReport) {
	s.m.applyModelSec.Add(rep.Comm.ModelSec)
	s.m.applyWallSec.Add(rep.WallMS / 1e3)
	for _, ph := range rep.Phases {
		s.m.phaseModelSec.With(ph.Name).Add(ph.ModelSec)
		s.m.phaseWallSec.With(ph.Name).Add(ph.WallMS / 1e3)
		s.m.phaseBytes.With(ph.Name).Add(float64(ph.Bytes))
		s.m.phaseMsgs.With(ph.Name).Add(float64(ph.Msgs))
		s.m.phaseFlops.With(ph.Name).Add(float64(ph.Flops))
	}
}

// GraphInfo describes one registered graph.
type GraphInfo struct {
	Name     string    `json:"name"`
	N        int       `json:"n"`
	M        int       `json:"m"`
	Directed bool      `json:"directed"`
	Weighted bool      `json:"weighted"`
	Version  uint64    `json:"version"` // structural fingerprint
	LoadedAt time.Time `json:"loaded_at"`
}

func (ge *graphEntry) info(name string) GraphInfo {
	return GraphInfo{
		Name: name, N: ge.g.N, M: ge.g.M(),
		Directed: ge.g.Directed, Weighted: ge.g.Weighted,
		Version: ge.version, LoadedAt: ge.loadedAt,
	}
}

// AddGraph registers g under name, replacing any previous graph with that
// name (stale cache entries for the name are purged; the version in cache
// keys makes them unreachable anyway). The server takes ownership of g: the
// caller must not mutate it afterwards.
func (s *Server) AddGraph(name string, g *repro.Graph) (GraphInfo, error) {
	if name == "" {
		return GraphInfo{}, errors.New("server: empty graph name")
	}
	if g == nil {
		return GraphInfo{}, errors.New("server: nil graph")
	}
	if err := g.Validate(); err != nil {
		return GraphInfo{}, err
	}
	ge := &graphEntry{g: g, version: repro.Fingerprint(g), loadedAt: time.Now()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, replacing := s.graphs[name]; replacing {
		s.purgeLocked(name)
	}
	s.graphs[name] = ge
	return ge.info(name), nil
}

// LoadGraph reads an edge-list file and registers it under name.
func (s *Server) LoadGraph(name, path string) (GraphInfo, error) {
	g, err := repro.LoadGraph(path)
	if err != nil {
		return GraphInfo{}, err
	}
	return s.AddGraph(name, g)
}

// GenerateGraph builds a graph from spec and registers it under name.
func (s *Server) GenerateGraph(name string, spec GraphSpec) (GraphInfo, error) {
	g, err := spec.Build()
	if err != nil {
		return GraphInfo{}, err
	}
	return s.AddGraph(name, g)
}

// Evict removes the named graph and purges its cached results. In-flight
// computations against the old graph finish normally for their waiters.
//
// The per-name mutation serializer (mutLocks) deliberately survives the
// eviction: an in-flight MutateCtx may hold or be queued on it, and if the
// name is re-registered, a freshly minted mutex would let two mutation
// batches for one graph run concurrently — the queued batch would then
// lose the install race and fail with a spurious ErrGraphConflict. Keeping
// the serializer keyed by name for the server's lifetime preserves
// per-graph ordering across evict/re-register cycles; the map grows only
// with the set of distinct names ever mutated.
//
// The graph's write-ahead queue, by contrast, dies with the graph: it is
// removed from the registry here and closed, every batch still queued
// fails with ErrGraphNotFound, and a re-registered graph under the same
// name gets a fresh empty queue — an evicted graph's pending mutations
// are never resurrected. A group commit already past Drain fails at
// install time with ErrGraphConflict (the entry it read is no longer
// registered).
func (s *Server) Evict(name string) error {
	s.mu.Lock()
	if _, ok := s.graphs[name]; !ok {
		s.mu.Unlock()
		return ErrGraphNotFound
	}
	delete(s.graphs, name)
	s.purgeLocked(name)
	q := s.queues[name]
	delete(s.queues, name)
	s.mu.Unlock()
	if q != nil {
		orphans := q.Close()
		s.m.ingestDepth.Add(-float64(len(orphans)))
		s.failBatches(orphans, fmt.Errorf("%w: %q", ErrGraphNotFound, name))
	}
	return nil
}

// putCacheLocked inserts ce at the front of the LRU, evicting past the
// bound. Callers hold s.mu and have checked s.cfg.CacheSize > 0.
func (s *Server) putCacheLocked(ce *cacheEntry) {
	s.cache[ce.key] = s.lru.PushFront(ce)
	for s.lru.Len() > s.cfg.CacheSize {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.cache, oldest.Value.(*cacheEntry).key)
		s.m.evictions.Inc()
	}
}

// purgeLocked drops every cache entry belonging to the named graph.
// Caller holds s.mu.
func (s *Server) purgeLocked(name string) {
	for el := s.lru.Front(); el != nil; {
		next := el.Next()
		if ce := el.Value.(*cacheEntry); ce.graph == name {
			s.lru.Remove(el)
			delete(s.cache, ce.key)
			s.m.evictions.Inc()
		}
		el = next
	}
}

// MutateRequest is one mutation batch for a registered graph, the body of
// PATCH /graphs/{name}.
type MutateRequest struct {
	Mutations []repro.Mutation `json:"mutations"`
	// Durability overrides the server's default acknowledgment level:
	// "applied" blocks until the group commit lands, "enqueued"
	// acknowledges as soon as the batch is queued (202, with queued=true
	// and the pre-commit version). Empty uses the server default.
	Durability string `json:"durability,omitempty"`
}

// MutateResult reports one applied batch: the engine's apply report
// (strategy, affected sources, new version and size, and — in distributed
// mode — modeled communication, phases and plan; README "The apply report")
// beside what only the service knows: the graph's name, the version the
// batch started from, and its trip through the write-ahead queue.
// ComputeMS is the report's WallMS under the key the response has always
// carried.
type MutateResult struct {
	Graph      string `json:"graph"`
	OldVersion uint64 `json:"old_version"`
	repro.ApplyReport
	ComputeMS float64 `json:"compute_ms"`
	// Write-ahead-queue fields. Queued marks an enqueued-durability ack:
	// the batch is in the write-ahead queue (at QueueDepth) but not yet
	// applied, and Version still reports the pre-commit fingerprint. For
	// applied-durability batches, CoalescedBatches is how many queued
	// batches the group commit that carried this one merged (Applied is
	// then the post-coalescing op count of the whole group, and Version
	// spans from OldVersion over every batch in it), and QueueWaitMS is
	// the time this batch waited queued before that commit started.
	Queued           bool    `json:"queued,omitempty"`
	QueueDepth       int     `json:"queue_depth,omitempty"`
	CoalescedBatches int     `json:"coalesced_batches,omitempty"`
	QueueWaitMS      float64 `json:"queue_wait_ms,omitempty"`
}

// mutLockFor returns the per-graph mutation serializer, creating it on
// first use. Mutations to different graphs proceed concurrently; batches
// for one graph apply in order.
func (s *Server) mutLockFor(name string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	lk, ok := s.mutLocks[name]
	if !ok {
		lk = &sync.Mutex{}
		s.mutLocks[name] = lk
	}
	return lk
}

// MutateCtx atomically applies a mutation batch to the named graph through
// its dynamic engine (created, with an initial exact compute, on the first
// valid mutation). On success the registry entry is replaced with the new
// version, only that graph's cache entries are purged, and the engine's
// maintained exact vector is seeded into the cache under the default
// exact query key, so the next query after a
// mutation is a warm hit instead of a recompute. Queries concurrent with
// MutateCtx see either the old or the new version, never a torn state.
//
// The batch goes through the graph's write-ahead queue and group-commit
// pipeline at the server's default durability — see MutateDurable. When
// ctx carries an obs span (the HTTP middleware's root span) and the batch's
// group commits on the caller's goroutine, the apply reports itself and its
// machine regions as child spans pairing modeled cost with wall-clock.
func (s *Server) MutateCtx(ctx context.Context, name string, muts []repro.Mutation) (*MutateResult, error) {
	return s.MutateDurable(ctx, name, muts, "")
}

// applyCommitted runs one group's coalesced mutations (of the given
// number of batches) through the graph's dynamic engine and installs the
// new (graph, scores) version. The caller holds the per-graph mutation
// serializer and passes the registry entry it decided to mutate; if the
// registry moved past it meanwhile, the install fails with
// ErrGraphConflict and the engine's work is orphaned. start is when the
// group commit began.
func (s *Server) applyCommitted(ctx context.Context, name string, ge *graphEntry, muts []repro.Mutation, batches int, start time.Time) (*MutateResult, error) {
	ctx, span := obs.StartSpan(ctx, "server.mutate")
	defer span.End()
	span.SetAttr("graph", name).SetAttr("mutations", len(muts)).SetAttr("batches", batches)

	s.mu.Lock()
	oldVersion := ge.version
	dyn := ge.dyn
	s.mu.Unlock()

	if dyn == nil {
		var err error
		dyn, err = s.cfg.NewDynamic(name, ge.g, repro.DynamicOptions{
			Workers: s.cfg.Workers, DirtyThreshold: s.cfg.DirtyThreshold,
			Procs: s.cfg.DynProcs,
		})
		if err != nil {
			return nil, err
		}
		// Attach the engine (and its expensive initial exact compute) to the
		// live entry right away, so a failing batch below doesn't force the
		// next PATCH to redo the base computation.
		s.mu.Lock()
		if s.graphs[name] == ge {
			ge.dyn = dyn
		}
		s.mu.Unlock()
	}
	rep, err := dyn.ApplyCtx(ctx, muts)
	if err != nil {
		return nil, err
	}
	snap := dyn.Scores()
	ne := &graphEntry{g: snap.Graph, version: snap.Version, loadedAt: ge.loadedAt, dyn: dyn}
	// The O(n) warm-seed transforms (partial top-k selection, normalized
	// copy) run before taking s.mu so concurrent queries never stall on
	// them; cacheSize is immutable after New.
	var seed *warmSeed
	if s.cfg.CacheSize > 0 {
		seed = prepareWarmSeed(snap.BC)
	}

	s.mu.Lock()
	if s.graphs[name] != ge {
		// Evicted or replaced while the batch computed; the engine's state
		// is orphaned with it and the caller must retry against whatever is
		// registered now.
		s.m.mutateConflicts.Inc()
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrGraphConflict, name)
	}
	s.purgeLocked(name) // delta-aware: only this graph's entries drop
	s.graphs[name] = ne
	s.m.mutations.Inc()
	if seed != nil {
		s.seedWarmLocked(name, snap, rep, seed)
	}
	s.mu.Unlock()

	observeSpanExemplar(s.m.mutateDur.With(rep.Strategy), time.Since(start).Seconds(), span)
	s.recordApplyTelemetry(rep)
	span.SetAttr("strategy", rep.Strategy).SetAttr("affected", rep.Affected).
		SetAttr("fused", rep.Fused).SetAttr("version", rep.Version)

	return &MutateResult{Graph: name, OldVersion: oldVersion, ApplyReport: rep, ComputeMS: rep.WallMS}, nil
}

// warmSeed carries the precomputed cheap transforms of the maintained
// vector, built outside the server lock.
type warmSeed struct {
	topk []int     // descending ranking prefix; scale-invariant, shared by all variants
	norm []float64 // scores scaled by 1/((n−1)(n−2))
}

func prepareWarmSeed(bc []float64) *warmSeed {
	ws := &warmSeed{topk: repro.TopK(bc, seedTopKLen)}
	if n := len(bc); n > 2 {
		scale := 1 / (float64(n-1) * float64(n-2))
		ws.norm = make([]float64, n)
		for v, x := range bc {
			ws.norm[v] = x * scale
		}
	} else {
		ws.norm = bc // Compute skips normalization below n=3
	}
	return ws
}

// seedWarmLocked seeds the engine's maintained exact vector into the cache
// under every cheap-transform variant of the default query, so the queries
// that typically follow a mutation are warm hits instead of recomputes:
//
//   - the default exact key (the raw maintained vector);
//   - the normalized key (the same vector scaled by 1/((n−1)(n−2)));
//   - with DynProcs > 1, the procs-variant of both — the engine's scores
//     were produced at that processor count, so a query asking for the
//     same distributed configuration is answered by them directly;
//   - a precomputed top-seedTopKLen ranking attached to each entry (top-k
//     is presentation-only in the cache key, so k-requests already land on
//     these entries; the attached ranking removes the remaining selection
//     work).
//
// Variants are inserted in ascending priority so that on a cache bound
// smaller than the variant count the LRU evicts the optional siblings,
// never the default exact entry (inserted last, most recently used).
// Callers hold s.mu.
func (s *Server) seedWarmLocked(name string, snap repro.DynamicSnapshot, rep repro.ApplyReport, ws *warmSeed) {
	wall := time.Duration(rep.WallMS * float64(time.Millisecond))
	put := func(req QueryRequest, res *repro.Result, variant string) {
		req.Graph = name
		req.normalize()
		key := cacheKey(name, snap.Version, req)
		if _, dup := s.cache[key]; dup {
			return
		}
		s.putCacheLocked(&cacheEntry{key: key, graph: name, res: res, wall: wall, topk: ws.topk})
		s.m.warmSeeds.With(variant).Inc()
		s.m.warmSeeds.With("topk").Inc()
	}
	if s.cfg.DynProcs > 1 {
		put(QueryRequest{Procs: s.cfg.DynProcs, Normalize: true},
			&repro.Result{BC: ws.norm, Engine: repro.EngineMFBC, Procs: s.cfg.DynProcs, Plan: snap.Plan, Comm: rep.Comm},
			"distributed")
		put(QueryRequest{Procs: s.cfg.DynProcs},
			&repro.Result{BC: snap.BC, Engine: repro.EngineMFBC, Procs: s.cfg.DynProcs, Plan: snap.Plan, Comm: rep.Comm},
			"distributed")
	}
	put(QueryRequest{Normalize: true}, &repro.Result{BC: ws.norm, Engine: repro.EngineMFBC, Procs: 1}, "normalized")
	put(QueryRequest{}, &repro.Result{BC: snap.BC, Engine: repro.EngineMFBC, Procs: 1}, "exact")
}

// GraphInfoFor returns the registered graph's description.
func (s *Server) GraphInfoFor(name string) (GraphInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ge, ok := s.graphs[name]
	if !ok {
		return GraphInfo{}, ErrGraphNotFound
	}
	return ge.info(name), nil
}

// Graphs lists the registered graphs sorted by name.
func (s *Server) Graphs() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for name, ge := range s.graphs {
		out = append(out, ge.info(name))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats reads the benchmark's four counters back from the registry.
func (s *Server) Stats() Stats {
	seeds := 0.0
	for _, v := range []string{"exact", "normalized", "distributed"} {
		seeds += s.m.warmSeeds.With(v).Value()
	}
	return Stats{
		Queries:   int64(s.m.queries.Value()),
		CacheHits: int64(s.m.cacheHits.Value()),
		Coalesced: int64(s.m.coalesced.Value()),
		WarmSeeds: int64(seeds),
	}
}

// QueryRequest selects a graph, an engine configuration, and the view of
// the result to return. Engine parameters mirror repro.Options; parameters
// that change scores form the cache key, while K and IncludeScores are
// presentation-only and served from the same cached result.
type QueryRequest struct {
	Graph  string       `json:"graph"`
	Engine repro.Engine `json:"engine,omitempty"` // default mfbc
	Procs  int          `json:"procs,omitempty"`  // simulated processors (default 1)
	Batch  int          `json:"batch,omitempty"`  // sources per sweep (0 = engine default)
	// Samples > 0 selects sampling-based approximate BC with this source
	// budget (the cheap path: only the sampled sources are swept, on the
	// route Procs selects, so cost ≈ Samples/n of exact). 0 = exact.
	Samples int `json:"samples,omitempty"`
	// Seed seeds the sample-source selection; only meaningful with Samples.
	Seed      int64 `json:"seed,omitempty"`
	Normalize bool  `json:"normalize,omitempty"`
	// K asks for the top-K central vertices (0 = none).
	K int `json:"k,omitempty"`
	// IncludeScores returns the full BC vector (potentially large).
	IncludeScores bool `json:"include_scores,omitempty"`
}

// VertexScore is one ranked vertex.
type VertexScore struct {
	Vertex int     `json:"vertex"`
	Score  float64 `json:"score"`
}

// QueryStats is the per-query metadata of the tentpole: where the answer
// came from and what it cost.
type QueryStats struct {
	CacheHit  bool    `json:"cache_hit"` // served from the result cache
	Coalesced bool    `json:"coalesced"` // waited on another caller's compute
	ComputeMS float64 `json:"compute_ms"`
	// Comm is the modeled communication report of distributed runs
	// (zero-valued for sequential computes).
	Comm repro.CommReport `json:"comm"`
}

// QueryResult is the answer to one query.
type QueryResult struct {
	Graph      string       `json:"graph"`
	Version    uint64       `json:"version"`
	Engine     repro.Engine `json:"engine"`
	Procs      int          `json:"procs"`
	Plan       string       `json:"plan,omitempty"`
	Iterations int          `json:"iterations"`
	Samples    int          `json:"samples,omitempty"`
	// ErrBound is a samples query's 95% half-width per vertex
	// (repro.Result.ErrBound); absent on exact answers.
	ErrBound float64       `json:"err_bound,omitempty"`
	TopK     []VertexScore `json:"topk,omitempty"`
	Scores   []float64     `json:"scores,omitempty"`
	Stats    QueryStats    `json:"stats"`
}

// normalize canonicalizes score-equivalent requests onto one cache key:
// default engine, procs floor, and a zero seed when sampling is off.
func (r *QueryRequest) normalize() {
	if r.Engine == "" {
		r.Engine = repro.EngineMFBC
	}
	if r.Procs < 1 {
		r.Procs = 1
	}
	if r.Batch < 0 {
		r.Batch = 0
	}
	if r.Samples <= 0 {
		r.Samples = 0
		r.Seed = 0
	}
}

func cacheKey(graph string, version uint64, r QueryRequest) string {
	return fmt.Sprintf("%s@%016x|%s|p%d|b%d|n%t|s%d|seed%d",
		graph, version, r.Engine, r.Procs, r.Batch, r.Normalize, r.Samples, r.Seed)
}

// Query answers one centrality query, consulting the cache first and
// coalescing with identical in-flight computations.
func (s *Server) Query(req QueryRequest) (*QueryResult, error) {
	return s.QueryCtx(context.Background(), req)
}

// QueryCtx is Query with trace propagation: when ctx carries an obs span,
// the query reports itself (graph, answer source) and any underlying
// compute as child spans.
func (s *Server) QueryCtx(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	ctx, span := obs.StartSpan(ctx, "server.query")
	defer span.End()
	start := time.Now()
	req.normalize()
	if req.K < 0 {
		return nil, fmt.Errorf("server: negative k %d", req.K)
	}
	span.SetAttr("graph", req.Graph)

	s.mu.Lock()
	ge, ok := s.graphs[req.Graph]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrGraphNotFound, req.Graph)
	}
	if req.Samples >= ge.g.N {
		// A full-or-larger sample budget degenerates to the exact
		// computation (repro.ApproximateBC short-circuits it), so collapse
		// every such request onto the exact cache entry.
		req.Samples, req.Seed = 0, 0
	}
	key := cacheKey(req.Graph, ge.version, req)
	s.m.queries.Inc()

	if el, hit := s.cache[key]; hit {
		s.lru.MoveToFront(el)
		ce := el.Value.(*cacheEntry)
		s.m.cacheHits.Inc()
		s.mu.Unlock()
		observeSpanExemplar(s.m.queryDur.With("cache"), time.Since(start).Seconds(), span)
		span.SetAttr("source", "cache")
		return render(req, ge.version, ce, true, false), nil
	}
	if fc, inflight := s.flight[key]; inflight {
		s.m.coalesced.Inc()
		s.mu.Unlock()
		<-fc.done
		if fc.err != nil {
			return nil, fc.err
		}
		observeSpanExemplar(s.m.queryDur.With("coalesced"), time.Since(start).Seconds(), span)
		span.SetAttr("source", "coalesced")
		return render(req, ge.version, fc.entry, false, true), nil
	}
	fc := &flightCall{done: make(chan struct{})}
	s.flight[key] = fc
	s.m.computes.Inc()
	s.mu.Unlock()

	_, cspan := obs.StartSpan(ctx, "server.compute")
	cspan.SetAttr("engine", string(req.Engine)).SetAttr("procs", req.Procs).
		SetAttr("samples", req.Samples)
	cstart := time.Now()
	res, err := s.compute(ge.g, req)
	wall := time.Since(cstart)
	cspan.End()

	s.mu.Lock()
	delete(s.flight, key)
	if err != nil {
		s.m.computeErrors.Inc()
		s.mu.Unlock()
		fc.err = err
		close(fc.done)
		return nil, err
	}
	ce := &cacheEntry{key: key, graph: req.Graph, res: res, wall: wall}
	fc.entry = ce
	// Don't insert if the graph was evicted or replaced while we computed:
	// purgeLocked already ran and a new insert would leave unreachable
	// residue occupying an LRU slot. Waiters still get this result.
	if s.graphs[req.Graph] != ge {
		s.mu.Unlock()
		close(fc.done)
		observeSpanExemplar(s.m.queryDur.With("compute"), time.Since(start).Seconds(), span)
		span.SetAttr("source", "compute")
		return render(req, ge.version, ce, false, false), nil
	}
	if s.cfg.CacheSize > 0 {
		s.putCacheLocked(ce)
	}
	s.mu.Unlock()
	close(fc.done)
	observeSpanExemplar(s.m.queryDur.With("compute"), time.Since(start).Seconds(), span)
	span.SetAttr("source", "compute")
	return render(req, ge.version, ce, false, false), nil
}

// compute runs the engine for one single-flight leader. A panic inside
// the engine is contained here and returned as ErrInternal: net/http would
// recover the leader's goroutine anyway, but only the leader's normal
// return path resolves the flight, so an escaping panic would park every
// coalesced waiter — and every later query for the key — forever.
func (s *Server) compute(g *repro.Graph, req QueryRequest) (res *repro.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.m.panics.With("query.compute").Inc()
			s.cfg.Logger.Error("panic in query compute", "graph", req.Graph, "panic", r, "stack", string(debug.Stack()))
			res, err = nil, fmt.Errorf("%w: panic computing %q: %v", ErrInternal, req.Graph, r)
		}
	}()
	opt := repro.Options{
		Engine:    req.Engine,
		Procs:     req.Procs,
		Batch:     req.Batch,
		Workers:   s.cfg.Workers,
		Normalize: req.Normalize,
	}
	if req.Samples > 0 {
		return s.computeApprox(g, req.Samples, req.Seed, opt)
	}
	return s.computeExact(g, opt)
}

// render builds the caller-facing view of a (possibly shared) cache entry.
// ce.res.BC is shared across callers and never mutated; the Scores slice
// handed out is a copy.
func render(req QueryRequest, version uint64, ce *cacheEntry, hit, coalesced bool) *QueryResult {
	out := &QueryResult{
		Graph:      req.Graph,
		Version:    version,
		Engine:     ce.res.Engine,
		Procs:      ce.res.Procs,
		Plan:       ce.res.Plan,
		Iterations: ce.res.Iterations,
		Samples:    req.Samples,
		ErrBound:   ce.res.ErrBound,
		Stats: QueryStats{
			CacheHit:  hit,
			Coalesced: coalesced,
			ComputeMS: float64(ce.wall.Microseconds()) / 1e3,
			Comm:      ce.res.Comm,
		},
	}
	if req.K > 0 {
		// Warm-seeded entries carry a precomputed descending ranking whose
		// prefixes agree with TopK for every k (the selection order is
		// total: score desc, index asc).
		var idx []int
		if len(ce.topk) >= req.K {
			idx = ce.topk[:req.K]
		} else {
			idx = repro.TopK(ce.res.BC, req.K)
		}
		out.TopK = make([]VertexScore, len(idx))
		for i, v := range idx {
			out.TopK[i] = VertexScore{Vertex: v, Score: ce.res.BC[v]}
		}
	}
	if req.IncludeScores {
		out.Scores = append([]float64(nil), ce.res.BC...)
	}
	return out
}
