package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/obs"
)

// NewMux returns the HTTP/JSON API over s, the front end served by
// cmd/mfbc-serve:
//
//	GET    /healthz          liveness probe
//	GET    /metrics          Prometheus text exposition of the metric registry (every server counter)
//	GET    /debug/traces     recent request traces as JSONL (404 if tracing off)
//	GET    /graphs           list registered graphs
//	POST   /graphs/{name}    register a graph from a GraphSpec body
//	GET    /graphs/{name}    describe one graph
//	PATCH  /graphs/{name}    apply a MutateRequest mutation batch
//	DELETE /graphs/{name}    evict a graph (and its cached results)
//	POST   /query            answer a QueryRequest body with a QueryResult
//
// Every response body is JSON; errors are {"error": "..."} with a 4xx/5xx
// status (404 for unknown graphs, 409 when a mutation raced a replacement,
// 413 for oversized request bodies, 429 + Retry-After when a graph's write
// queue is full, 500 for a contained panic, 400 for malformed requests).
//
// Every API handler runs behind s.instrument, which counts the request,
// observes its latency and response size, and — when the server has a
// tracer — opens the root "http.<route>" span that the query/mutate paths
// hang their child spans off. /metrics and /debug/traces themselves stay
// uninstrumented so scraping does not perturb what it observes.
func NewMux(s *Server) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))

	mux.Handle("GET /metrics", s.cfg.Metrics.Handler())

	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Tracer == nil {
			http.NotFound(w, r)
			return
		}
		s.cfg.Tracer.Handler().ServeHTTP(w, r)
	})

	mux.HandleFunc("GET /graphs", s.instrument("graphs", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]any{"graphs": s.Graphs()})
	}))

	mux.HandleFunc("POST /graphs/{name}", s.instrument("register", func(w http.ResponseWriter, r *http.Request) {
		var spec GraphSpec
		if err := decodeJSON(w, r, &spec); err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		info, err := s.GenerateGraph(r.PathValue("name"), spec)
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		s.writeJSON(w, http.StatusCreated, info)
	}))

	mux.HandleFunc("GET /graphs/{name}", s.instrument("graph", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.GraphInfoFor(r.PathValue("name"))
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		s.writeJSON(w, http.StatusOK, info)
	}))

	mux.HandleFunc("PATCH /graphs/{name}", s.instrument("mutate", func(w http.ResponseWriter, r *http.Request) {
		var req MutateRequest
		if err := decodeJSON(w, r, &req); err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		res, err := s.MutateDurable(r.Context(), r.PathValue("name"), req.Mutations, req.Durability)
		if err != nil {
			code := statusFor(err)
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			s.writeError(w, code, err)
			return
		}
		// Enqueued-durability acks report 202: the batch is queued, not
		// yet applied.
		code := http.StatusOK
		if res.Queued {
			code = http.StatusAccepted
		}
		s.writeJSON(w, code, res)
	}))

	mux.HandleFunc("DELETE /graphs/{name}", s.instrument("evict", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Evict(r.PathValue("name")); err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))

	mux.HandleFunc("POST /query", s.instrument("query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if err := decodeJSON(w, r, &req); err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		res, err := s.QueryCtx(r.Context(), req)
		if err != nil {
			s.writeError(w, statusFor(err), err)
			return
		}
		s.writeJSON(w, http.StatusOK, res)
	}))

	return mux
}

// respWriter captures the status code and body size flowing through a
// handler so instrument can label the request counter and feed the size
// histogram without buffering the response.
type respWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (rw *respWriter) WriteHeader(status int) {
	if rw.status == 0 {
		rw.status = status
	}
	rw.ResponseWriter.WriteHeader(status)
}

func (rw *respWriter) Write(b []byte) (int, error) {
	if rw.status == 0 {
		rw.status = http.StatusOK
	}
	n, err := rw.ResponseWriter.Write(b)
	rw.bytes += int64(n)
	return n, err
}

// instrument wraps an API handler with the request counter, latency and
// response-size histograms, the tracer's root span, and the slow-request
// log. route must be a member of httpRoutes (pre-registered label values).
//
// Trace retention: error responses (status ≥ 400) and slow requests
// (elapsed ≥ SlowQuery, when set) force-keep their trace past the tracer's
// head sampler, so the interesting traces survive any -trace-sample rate.
// The duration histogram gets the root span's IDs as a bucket exemplar
// whenever the trace is retained.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		var span *obs.Span
		if s.cfg.Tracer != nil {
			ctx, span = s.cfg.Tracer.Start(ctx, "http."+route)
			span.SetAttr("method", r.Method).SetAttr("path", r.URL.Path)
		}
		rw := &respWriter{ResponseWriter: w}
		start := time.Now()
		h(rw, r.WithContext(ctx))
		elapsed := time.Since(start)

		if rw.status == 0 {
			rw.status = http.StatusOK
		}
		if rw.status >= 400 || (s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery) {
			span.ForceKeep()
		}
		s.m.httpReqs.With(route, statusText(rw.status)).Inc()
		observeSpanExemplar(s.m.httpDur.With(route), elapsed.Seconds(), span)
		s.m.httpBytes.With(route).Observe(float64(rw.bytes))
		if span != nil {
			span.SetAttr("status", rw.status).End()
		}
		if s.cfg.SlowQuery > 0 && elapsed >= s.cfg.SlowQuery {
			s.cfg.Logger.Warn("slow request",
				"route", route, "method", r.Method, "path", r.URL.Path,
				"status", rw.status, "bytes", rw.bytes,
				"elapsed_ms", float64(elapsed.Microseconds())/1e3)
		}
	}
}

// observeSpanExemplar records v on h, attaching the span's trace/span IDs
// as the owning bucket's exemplar when the span's trace will be retained.
// Sampled-out traces contribute no exemplar: a /metrics reader must be
// able to follow every exemplar into /debug/traces.
func observeSpanExemplar(h *obs.Histogram, v float64, span *obs.Span) {
	if span != nil && span.Kept() {
		tid, sid := span.IDs()
		h.ObserveExemplar(v, tid, sid)
		return
	}
	h.Observe(v)
}

// statusText buckets a status code into the fixed label vocabulary
// ("2xx"/"4xx"/"5xx"/...) so the code label stays low-cardinality.
func statusText(status int) string {
	switch {
	case status >= 200 && status < 300:
		return "2xx"
	case status >= 300 && status < 400:
		return "3xx"
	case status >= 400 && status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

func statusFor(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, ErrGraphNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrGraphConflict):
		return http.StatusConflict
	case errors.Is(err, ErrIngestBackpressure):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrInternal):
		return http.StatusInternalServerError
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeJSON parses a bounded request body. The ResponseWriter is threaded
// through to MaxBytesReader so it can close the connection on overflow,
// and the resulting *http.MaxBytesError reaches statusFor as a 413 rather
// than a generic 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// writeJSON writes v as the JSON response body. Encode errors (a closed
// connection mid-write, or an unencodable value — both invisible to the
// client) are counted on mfbc_encode_errors_total and logged rather than
// silently dropped.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.m.encodeErrors.Inc()
		s.cfg.Logger.Error("response encode failed", "status", status, "err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}
