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

	"repro/internal/obs"
	"repro/internal/server"
)

// Outcome is one request's result as the driver saw it: the HTTP status
// (0 when the transport failed before a status existed) and any
// transport-level error.
type Outcome struct {
	Status int
	Err    error
	// QueueWaitMS is decoded from PATCH responses only: how long the batch
	// waited queued before its group commit started. Zero elsewhere.
	QueueWaitMS float64
}

// OK reports whether the request succeeded end to end.
func (o Outcome) OK() bool { return o.Err == nil && o.Status >= 200 && o.Status < 400 }

// Client is how the harness reaches the service: the HTTP/JSON API, over a
// socket (NewClient) or straight into a handler (NewHandlerClient). Both
// forms share every line of request encoding and response decoding. Safe
// for concurrent use.
type Client struct {
	base string
	http *http.Client
}

// NewClient targets the live server at baseURL (e.g. "http://host:8080")
// with a connection pool sized for the harness's concurrency. maxConns
// bounds pooled connections per host (default 128).
func NewClient(baseURL string, maxConns int) *Client {
	if maxConns <= 0 {
		maxConns = 128
	}
	tr := &http.Transport{
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     0, // open-loop bursts may exceed the idle pool
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: &http.Client{Transport: tr}}
}

// NewHandlerClient targets a service in the same process — typically
// server.NewMux(server.New(cfg)) — with no sockets and no listener, so CI
// runs are hermetic and fast while still exercising the full
// mux/decode/status surface.
func NewHandlerClient(h http.Handler) *Client {
	return &Client{base: "http://inproc", http: &http.Client{Transport: handlerTransport{h}}}
}

// handlerTransport is the in-process http.RoundTripper: it serves each
// request from the handler on the caller's goroutine.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rw := httptest.NewRecorder()
	t.h.ServeHTTP(rw, req)
	return rw.Result(), nil
}

// roundTrip sends one request and returns the status with the response
// body, fully read so a pooled connection is reusable.
func (c *Client) roundTrip(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
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

// Do executes one generated request and reports its outcome.
func (c *Client) Do(r *Request) Outcome {
	method, path, body, err := encode(r)
	if err != nil {
		return Outcome{Err: err}
	}
	status, reply, err := c.roundTrip(method, path, body)
	out := Outcome{Status: status, Err: err}
	if err == nil && r.Op == OpMutate && status < 300 {
		// The slice of the PATCH response the harness keeps: the field
		// that separates queue time from apply time.
		var ack struct {
			QueueWaitMS float64 `json:"queue_wait_ms"`
		}
		if out.Err = json.Unmarshal(reply, &ack); out.Err == nil {
			out.QueueWaitMS = ack.QueueWaitMS
		}
	}
	return out
}

// Seed registers every workload graph on the service (the server-side
// half of each SeededGraph).
func (c *Client) Seed(graphs []*SeededGraph) error {
	for _, sg := range graphs {
		body, err := json.Marshal(sg.Spec)
		if err != nil {
			return err
		}
		status, _, err := c.roundTrip(http.MethodPost, "/graphs/"+sg.Name, body)
		if err != nil {
			return fmt.Errorf("load: register %q: %w", sg.Name, err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("load: register %q: status %d", sg.Name, status)
		}
	}
	return nil
}

// Metrics scrapes GET /metrics, the service's one counter surface.
func (c *Client) Metrics() (obs.Samples, error) {
	status, text, err := c.roundTrip(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("load: /metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("load: /metrics: status %d", status)
	}
	return obs.ParseText(string(text))
}

// Close releases pooled connections.
func (c *Client) Close() { c.http.CloseIdleConnections() }
