package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/server"
)

// Outcome is one request's result as the driver saw it: the HTTP status
// (0 when the transport failed before a status existed) and any
// transport-level error.
type Outcome struct {
	Status int
	Err    error
	// Mutate-only fields decoded from the PATCH response: whether the ack
	// was enqueued-durability (202, not yet applied) and how long the
	// batch waited queued before its group commit started. Zero elsewhere.
	Queued      bool
	QueueWaitMS float64
}

// OK reports whether the request succeeded end to end.
func (o Outcome) OK() bool { return o.Err == nil && o.Status >= 200 && o.Status < 400 }

// Target abstracts where the load lands: a live server over HTTP or an
// in-process handler. Do must be safe for concurrent use.
type Target interface {
	// Do executes one request and reports its outcome.
	Do(r *Request) Outcome
	// Register installs a graph under the given spec (the server-side
	// half of a SeededGraph).
	Register(name string, spec server.GraphSpec) error
	// ServerStats scrapes the service's cumulative counters (/stats).
	ServerStats() (server.Stats, error)
	// Close releases client-side resources.
	Close()
}

// Seed registers every workload graph on the target.
func Seed(tg Target, graphs []*SeededGraph) error {
	for _, sg := range graphs {
		if err := tg.Register(sg.Name, sg.Spec); err != nil {
			return err
		}
	}
	return nil
}

// encode returns the method, path, and JSON body of a request.
func encode(r *Request) (method, path string, body []byte, err error) {
	switch r.Op {
	case OpQuery:
		if r.Query == nil {
			return "", "", nil, fmt.Errorf("load: query request without a query body")
		}
		body, err = json.Marshal(r.Query)
		return http.MethodPost, "/query", body, err
	case OpMutate:
		if len(r.Mutations) == 0 {
			return "", "", nil, fmt.Errorf("load: mutate request without mutations")
		}
		body, err = json.Marshal(server.MutateRequest{Mutations: r.Mutations})
		return http.MethodPatch, "/graphs/" + r.Graph, body, err
	}
	return "", "", nil, fmt.Errorf("load: unknown op %q", r.Op)
}

// HTTPTarget drives a live server at a base URL with a connection-pooled
// client sized for the harness's concurrency.
type HTTPTarget struct {
	base   string
	client *http.Client
}

// NewHTTPTarget targets the server at baseURL (e.g. "http://host:8080").
// maxConns bounds pooled connections per host (default 128).
func NewHTTPTarget(baseURL string, maxConns int) *HTTPTarget {
	if maxConns <= 0 {
		maxConns = 128
	}
	tr := &http.Transport{
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     0, // open-loop bursts may exceed the idle pool
		IdleConnTimeout:     90 * time.Second,
	}
	return &HTTPTarget{
		base:   strings.TrimRight(baseURL, "/"),
		client: &http.Client{Transport: tr},
	}
}

func (t *HTTPTarget) roundTrip(method, path string, body []byte, out any) Outcome {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return Outcome{Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return Outcome{Err: err}
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return Outcome{Status: resp.StatusCode, Err: err}
		}
	}
	// Drain so the connection returns to the pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	return Outcome{Status: resp.StatusCode}
}

// mutateAck is the slice of the PATCH response the harness keeps: the
// write-queue fields that separate queue time from apply time.
type mutateAck struct {
	Queued      bool    `json:"queued"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
}

func (t *HTTPTarget) Do(r *Request) Outcome {
	method, path, body, err := encode(r)
	if err != nil {
		return Outcome{Err: err}
	}
	if r.Op == OpMutate {
		var ack mutateAck
		out := t.roundTrip(method, path, body, &ack)
		out.Queued, out.QueueWaitMS = ack.Queued, ack.QueueWaitMS
		return out
	}
	return t.roundTrip(method, path, body, nil)
}

func (t *HTTPTarget) Register(name string, spec server.GraphSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	out := t.roundTrip(http.MethodPost, "/graphs/"+name, body, nil)
	if out.Err != nil {
		return out.Err
	}
	if out.Status != http.StatusCreated {
		return fmt.Errorf("load: register %q: status %d", name, out.Status)
	}
	return nil
}

func (t *HTTPTarget) ServerStats() (server.Stats, error) {
	var st server.Stats
	out := t.roundTrip(http.MethodGet, "/stats", nil, &st)
	if out.Err != nil {
		return server.Stats{}, out.Err
	}
	if out.Status != http.StatusOK {
		return server.Stats{}, fmt.Errorf("load: /stats: status %d", out.Status)
	}
	return st, nil
}

// MetricsText scrapes GET /metrics (the MetricsScraper face).
func (t *HTTPTarget) MetricsText() (string, error) {
	resp, err := t.client.Get(t.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("load: /metrics: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func (t *HTTPTarget) Close() { t.client.CloseIdleConnections() }

// InprocTarget drives a server in the same process through its HTTP
// handler — no sockets, no listener — so CI runs are hermetic and fast
// while still exercising the full mux/decode/status surface.
type InprocTarget struct {
	s   *server.Server
	mux http.Handler
}

// NewInprocTarget builds a fresh in-process service under cfg.
func NewInprocTarget(cfg server.Config) *InprocTarget {
	s := server.New(cfg)
	return &InprocTarget{s: s, mux: server.NewMux(s)}
}

// Server exposes the underlying service (tests register graphs directly).
func (t *InprocTarget) Server() *server.Server { return t.s }

func (t *InprocTarget) Do(r *Request) Outcome {
	method, path, body, err := encode(r)
	if err != nil {
		return Outcome{Err: err}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rw := httptest.NewRecorder()
	t.mux.ServeHTTP(rw, req)
	out := Outcome{Status: rw.Code}
	if r.Op == OpMutate && rw.Code < 300 {
		var ack mutateAck
		if json.Unmarshal(rw.Body.Bytes(), &ack) == nil {
			out.Queued, out.QueueWaitMS = ack.Queued, ack.QueueWaitMS
		}
	}
	return out
}

func (t *InprocTarget) Register(name string, spec server.GraphSpec) error {
	_, err := t.s.GenerateGraph(name, spec)
	return err
}

func (t *InprocTarget) ServerStats() (server.Stats, error) { return t.s.Stats(), nil }

// MetricsText renders the in-process registry directly (no HTTP hop).
func (t *InprocTarget) MetricsText() (string, error) { return t.s.Registry().Text(), nil }

func (t *InprocTarget) Close() {}
