package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// serveOperands is one running service: the server under test behind its
// mux on a loopback listener, the HTTP calibrator on another, both graphs
// registered and warmed.
type serveOperands struct {
	srv       *server.Server
	tracer    *obs.Tracer
	ts, calTS *httptest.Server
	shadow    *graph.Graph // the benchmark's own copy of "hot", mutated in step with the server
	batches   [][]graph.Mutation
	burst     int
	calibReps int

	oracle      brandes
	want        []float64
	hotVersion  uint64
	coldVersion uint64

	w, r client
}

// client is one closed-loop HTTP client with its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) client {
	return client{base: base, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// do sends one JSON request and decodes the 2xx reply into out.
func (c client) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, msg)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

var (
	hitBodies = [2][]byte{[]byte(`{"graph":"hot","k":10}`), []byte(`{"graph":"cold","k":10}`)}
	// A non-default batch is not warm-seeded after a write, so this query
	// misses the cache and runs the full sequential compute.
	missBody   = []byte(`{"graph":"hot","batch":32,"k":10}`)
	scoresBody = []byte(`{"graph":"hot","include_scores":true}`)
)

const (
	hitsPerCalib = 8                     // the reader issues one calib-http per this many hits
	stallLimit   = 1e-3                  // a hit slower than this (seconds) counts as stalled
	thinkTime    = 20 * time.Millisecond // client W's pause between cycles
)

// newService starts the server (all defaults but Workers: 1), registers
// both graphs and runs the warm-up: the first query per graph, one full
// write cycle (the first PATCH builds hot's dynamic engine), one calib-http.
func newService(hot, cold *graph.Graph, batches [][]graph.Mutation, burst, calibReps int, tracer *obs.Tracer) (*serveOperands, error) {
	o := &serveOperands{
		shadow: hot.Clone(), batches: batches, burst: burst, calibReps: calibReps, tracer: tracer,
		want: make([]float64, hot.N),
	}
	o.srv = server.New(server.Config{Workers: 1, Tracer: tracer})
	o.ts = httptest.NewServer(server.NewMux(o.srv))
	o.calTS = httptest.NewServer(calibHTTPHandler())
	o.w, o.r = newClient(o.ts.URL), newClient(o.ts.URL)
	if err := o.warmUp(hot, cold); err != nil {
		o.close()
		return nil, err
	}
	return o, nil
}

func (o *serveOperands) warmUp(hot, cold *graph.Graph) error {
	hi, err := o.srv.AddGraph("hot", hot.Clone())
	if err != nil {
		return err
	}
	ci, err := o.srv.AddGraph("cold", cold.Clone())
	if err != nil {
		return err
	}
	o.hotVersion, o.coldVersion = hi.Version, ci.Version
	for _, body := range hitBodies {
		if err := o.r.do("POST", "/query", body, &server.QueryResult{}); err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
	}
	if _, err := o.writeCycle(nil, nil, o.batches[0], nil); err != nil {
		return fmt.Errorf("warm-up cycle: %w", err)
	}
	if err := o.calibClient().do("POST", "/", hitBodies[0], &calibHTTPReply{}); err != nil {
		return fmt.Errorf("warm-up calib-http: %w", err)
	}
	return nil
}

// calibClient talks to the HTTP calibrator over the reader's client.
func (o *serveOperands) calibClient() client { return client{hc: o.r.hc, base: o.calTS.URL} }

func (o *serveOperands) close() {
	o.w.hc.CloseIdleConnections()
	o.r.hc.CloseIdleConnections()
	o.ts.Close()
	o.calTS.Close()
}

// cycleResult is one write cycle of client W, round trips in seconds.
type cycleResult struct {
	visible, miss float64
	topk          []server.VertexScore
	bursts        []burstResult
}

// writeCycle is client W's unit of work: PATCH one reweight and read the
// new version back, then ask a question the cache cannot answer. Each of
// the two phases starts after an untimed GC; phase, when set, wraps it
// (the reader's burst runs beside it there).
func (o *serveOperands) writeCycle(rec *recorder, parent *span, batch []graph.Mutation, phase func(func()) burstResult) (cycleResult, error) {
	var c cycleResult
	body, err := json.Marshal(server.MutateRequest{Mutations: batch})
	if err != nil {
		return c, err
	}
	if phase == nil {
		phase = func(f func()) burstResult { f(); return burstResult{} }
	}
	before := o.hotVersion

	var mr server.MutateResult
	var gi server.GraphInfo
	runtime.GC()
	b := phase(func() {
		sp := rec.begin(parent, "http.write_visible", "PATCH+GET /graphs/hot")
		t0 := time.Now()
		if err = o.w.do("PATCH", "/graphs/hot", body, &mr); err == nil {
			err = o.w.do("GET", "/graphs/hot", nil, &gi)
		}
		c.visible = time.Since(t0).Seconds()
		sp.end()
		o.mergeLast(rec, sp, "http.mutate")
	})
	if err != nil {
		return c, err
	}
	if gi.Version != mr.Version || mr.OldVersion != before || mr.Version == before {
		return c, fmt.Errorf("PATCH moved version %x→%x (expected from %x) but GET reads %x",
			mr.OldVersion, mr.Version, before, gi.Version)
	}
	o.hotVersion = mr.Version
	if _, err := o.shadow.ApplyAll(batch); err != nil {
		return c, err
	}
	if err := b.verify(before, mr.Version, o.coldVersion); err != nil {
		return c, err
	}
	c.bursts = append(c.bursts, b)

	var qr server.QueryResult
	runtime.GC()
	b = phase(func() {
		sp := rec.begin(parent, "http.miss", "POST /query batch:32")
		t0 := time.Now()
		err = o.w.do("POST", "/query", missBody, &qr)
		c.miss = time.Since(t0).Seconds()
		sp.end()
		o.mergeLast(rec, sp, "http.query")
	})
	if err != nil {
		return c, err
	}
	if qr.Stats.CacheHit || qr.Version != mr.Version || len(qr.TopK) != 10 {
		return c, fmt.Errorf("miss query: cache_hit=%v version=%x (want %x) topk=%d",
			qr.Stats.CacheHit, qr.Version, mr.Version, len(qr.TopK))
	}
	if err := b.verify(mr.Version, mr.Version, o.coldVersion); err != nil {
		return c, err
	}
	c.bursts = append(c.bursts, b)
	c.topk = qr.TopK
	return c, nil
}

// mergeLast hangs the newest server-side trace whose root is called root
// and that did real work (more than the bare root span, i.e. not one of
// the reader's hits) under the client span that caused it.
func (o *serveOperands) mergeLast(rec *recorder, sp *span, root string) {
	if rec == nil || o.tracer == nil {
		return
	}
	traces := o.tracer.Traces()
	for i := len(traces) - 1; i >= 0; i-- {
		tr := traces[i]
		if len(tr) > 2 && tr[len(tr)-1].Name == root {
			rec.mergeObs(sp, traces[i:i+1])
			return
		}
	}
}

// quietTrip is the round trip of a burst when nothing interferes: its
// lower quartile. On this two-core box a burst now and then has every
// other request (all of one graph's) take twice as long for no reason the
// server shows; the median of such a burst falls between the two modes,
// the lower quartile stays in the undisturbed one.
func quietTrip(trips []float64) float64 { return percentile(trips, 0.25) }

// burstResult is one burst of client R: hit and calib-http round trips in
// seconds, and what the replies said.
type burstResult struct {
	hits, cal []float64
	hotSeen   []uint64 // distinct consecutive versions of "hot" the hits reported
	coldSeen  []uint64
	notHit    int
	err       error
}

// verify checks a burst that ran while "hot" moved from version from to
// version to (equal when no write was in flight).
func (b burstResult) verify(from, to, cold uint64) error {
	if b.err != nil {
		return b.err
	}
	if b.notHit > 0 {
		return fmt.Errorf("%d of %d reads were not cache hits", b.notHit, len(b.hits))
	}
	for _, v := range b.coldSeen {
		if v != cold {
			return fmt.Errorf("cold read version %x, want %x", v, cold)
		}
	}
	want := []uint64{from, to}
	for _, v := range b.hotSeen {
		for len(want) > 0 && want[0] != v {
			want = want[1:]
		}
		if len(want) == 0 {
			return fmt.Errorf("hot reads saw versions %x, want %x then %x", b.hotSeen, from, to)
		}
	}
	return nil
}

// readBurst is client R's unit of work: o.burst top-10 queries alternating
// hot and cold with zero think time, one calib-http after every
// hitsPerCalib of them.
func (o *serveOperands) readBurst() burstResult {
	var b burstResult
	cal := o.calibClient()
	var qr server.QueryResult
	var cr calibHTTPReply
	seen := [2]*[]uint64{&b.hotSeen, &b.coldSeen}
	for i := 0; i < o.burst; i++ {
		qr = server.QueryResult{}
		t0 := time.Now()
		err := o.r.do("POST", "/query", hitBodies[i%2], &qr)
		b.hits = append(b.hits, time.Since(t0).Seconds())
		if err != nil {
			b.err = err
			return b
		}
		if !qr.Stats.CacheHit || len(qr.TopK) != 10 {
			b.notHit++
		}
		if s := seen[i%2]; len(*s) == 0 || (*s)[len(*s)-1] != qr.Version {
			*s = append(*s, qr.Version)
		}
		if i%hitsPerCalib == hitsPerCalib-1 {
			t0 = time.Now()
			err = cal.do("POST", "/", hitBodies[0], &cr)
			b.cal = append(b.cal, time.Since(t0).Seconds())
			if err != nil {
				b.err = err
				return b
			}
		}
	}
	return b
}

// serveRun drives the closed loop with two clients. Client W performs
// cycles write cycles (PATCH → version read back → miss → calib → think);
// client R runs one burst of hits beside each PATCH, one beside each miss
// and one while W thinks, so both clients do the same number of requests
// in every run. Reads beside a compute share two cores with it and their
// latency is mostly scheduling (series "hit_busy": reported per layer);
// the reads in the think slot time the read path itself (series "hit").
func serveRun(o *serveOperands, cycles int, rec *recorder) (*runData, error) {
	d := newRunData()
	start := make(chan *span)
	done := make(chan burstResult)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for parent := range start {
			sp := rec.begin(parent, "http.hit_burst", "POST /query k:10")
			b := o.readBurst()
			sp.end()
			done <- b
		}
	}()
	defer func() {
		close(start)
		wg.Wait()
	}()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.start = since(rec)
	for i := 0; i < cycles; i++ {
		it := rec.begin(nil, "cycle", "")
		c, err := o.writeCycle(rec, it, o.batches[i+1], func(f func()) burstResult {
			start <- it
			f()
			return <-done
		})
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
		d.op = append(d.op, c.visible+c.miss)
		d.series["visible"] = append(d.series["visible"], c.visible)
		d.series["miss"] = append(d.series["miss"], c.miss)
		for _, b := range c.bursts {
			d.series["hit_busy"] = append(d.series["hit_busy"], b.hits...)
			d.attempted += len(b.hits)
		}
		d.attempted += 3 // PATCH, GET, miss: writeCycle returns an error when any of them is wrong

		sp := rec.begin(it, "calib", "brandes.all")
		o.oracle.load(o.shadow)
		d.calib = append(d.calib, calibPass(&o.oracle, nil, o.want, o.calibReps))
		sp.end()

		ok := true
		for k, vs := range c.topk {
			ok = ok && closeEnough(vs.Score, o.want[vs.Vertex]) && (k == 0 || vs.Score <= c.topk[k-1].Score)
		}
		d.check(ok)

		// W thinks; R reads from a server that is doing nothing else.
		start <- it
		time.Sleep(thinkTime)
		b := <-done
		if err := b.verify(o.hotVersion, o.hotVersion, o.coldVersion); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
		d.series["hit"] = append(d.series["hit"], b.hits...)
		d.series["calib_http"] = append(d.series["calib_http"], b.cal...)
		d.series["burst_ratio"] = append(d.series["burst_ratio"], quietTrip(b.cal)/quietTrip(b.hits))
		d.attempted += len(b.hits)
		it.end()
	}
	d.end = since(rec)
	runtime.ReadMemStats(&after)
	d.allocBytes = after.TotalAlloc - before.TotalAlloc
	d.allocObjs = after.Mallocs - before.Mallocs

	var qr server.QueryResult
	if err := o.w.do("POST", "/query", scoresBody, &qr); err != nil {
		return nil, fmt.Errorf("final scores query: %w", err)
	}
	d.check(qr.Version == o.hotVersion && scoresMatch(qr.Scores, o.want))
	return d, nil
}
