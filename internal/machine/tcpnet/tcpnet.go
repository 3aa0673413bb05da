// Package tcpnet is the rank-per-process machine backend: each rank of
// the machine lives in its own OS process and the collectives in
// internal/machine move real bytes over a full mesh of TCP connections,
// one per rank pair.
//
// Topology and rendezvous are static: every process is given the same
// ordered peer list (rank i listens on peers[i]), rank i dials every
// lower rank and accepts from every higher rank, and rank 0 then acts as
// coordinator, shipping its cost model and watchdog timeout to all
// workers and collecting readiness before the transport is handed to the
// caller. After the mesh is up, rank 0 can also drive workers through
// the opaque operation channel (OpBroadcast/OpCollect on the
// coordinator, NextOp/AckOp on workers) — the session layer uses it to
// replicate region requests before entering machine.Transport.Run on
// every rank.
//
// The BSP superstep maps onto the mesh directly: in a collective over a
// group, every member sends one frame to every other member (payload
// frames where the collective's Enc addresses that peer, cost-only
// frames otherwise) and receives one frame from each. Because regions
// are SPMD, any two ranks observe their common groups' supersteps in the
// same program order, so per-pair FIFO delivery is sufficient ordering —
// frames need no group or superstep tags. Modeled α–β–γ cost rides along
// in every frame header, which keeps the critical-path join (§7.4 of the
// paper) bit-identical to the simulated backend; wall-clock time is
// whatever the network really took.
//
// Failure handling mirrors machine/sim: the first failure (a region
// panic, a lost link, a watchdog timeout) poisons the transport, an
// abort frame is broadcast best-effort so remote ranks unwind instead of
// deadlocking, and Run returns the failure as an error everywhere. A
// poisoned transport stays poisoned — streams may have died mid-frame —
// so callers rebuild the mesh rather than reuse it.
package tcpnet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
)

// Options configures one rank's endpoint.
type Options struct {
	// Model overrides the α–β–γ constants; nil keeps machine.DefaultModel.
	// Only the coordinator's value matters: the rendezvous handshake ships
	// rank 0's model to every worker.
	Model *machine.CostModel
	// Timeout is the per-collective watchdog (and per-write deadline).
	// Zero keeps the 2-minute default; negative disables the watchdog.
	// Like Model, the coordinator's value wins.
	Timeout time.Duration
	// Rendezvous bounds mesh establishment (dial retries plus accepts).
	// Zero keeps the 15-second default.
	Rendezvous time.Duration
	// Listener, when non-nil, is a pre-bound listener for this rank's
	// peers[rank] address (useful for ephemeral-port harnesses). The
	// transport takes ownership and closes it once the mesh is up.
	Listener net.Listener
}

const (
	defaultTimeout    = 2 * time.Minute
	defaultRendezvous = 15 * time.Second
)

var errClosed = errors.New("tcpnet: transport closed")

// Transport is one rank's endpoint of the TCP machine. It implements
// machine.Transport; Run executes the region body for this rank only,
// synchronizing with the peer processes over the mesh.
type Transport struct {
	rank    int
	p       int
	peers   []string
	model   machine.CostModel
	timeout time.Duration

	ln    net.Listener
	conns []*conn // indexed by world rank; conns[rank] == nil

	closed    atomic.Bool
	leaving   atomic.Bool
	abortOnce sync.Once
	abort     chan struct{}
	failMu    sync.Mutex
	failErr   error
}

// Coordinate brings up rank 0: it joins the mesh, ships its model and
// timeout to every worker, and returns once all workers acknowledged.
func Coordinate(peers []string, opt Options) (*Transport, error) {
	return start(0, peers, opt)
}

// Join brings up a worker rank: it joins the mesh, adopts the
// coordinator's model and timeout, and acknowledges readiness.
func Join(rank int, peers []string, opt Options) (*Transport, error) {
	if rank == 0 {
		return nil, errors.New("tcpnet: rank 0 must call Coordinate")
	}
	return start(rank, peers, opt)
}

func start(rank int, peers []string, opt Options) (*Transport, error) {
	p := len(peers)
	if p < 1 {
		return nil, errors.New("tcpnet: empty peer list")
	}
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("tcpnet: rank %d outside peer list of %d", rank, p)
	}
	t := &Transport{
		rank:    rank,
		p:       p,
		peers:   append([]string(nil), peers...),
		model:   machine.DefaultModel(),
		timeout: defaultTimeout,
		abort:   make(chan struct{}),
		conns:   make([]*conn, p),
	}
	if opt.Model != nil {
		t.model = *opt.Model
	}
	if opt.Timeout != 0 {
		t.timeout = opt.Timeout
		if t.timeout < 0 {
			t.timeout = 0 // watchdog disabled
		}
	}
	window := opt.Rendezvous
	if window <= 0 {
		window = defaultRendezvous
	}
	if p > 1 {
		if err := t.connectMesh(opt.Listener, window); err != nil {
			t.Close()
			return nil, err
		}
		for _, cn := range t.conns {
			if cn != nil {
				go t.readLoop(cn)
			}
		}
		if err := t.handshake(); err != nil {
			t.Close()
			return nil, err
		}
	} else if opt.Listener != nil {
		opt.Listener.Close()
	}
	return t, nil
}

// connectMesh establishes the rank-pair connections: dial every lower
// rank (with retries inside the rendezvous window, since peers start in
// any order), accept from every higher rank.
func (t *Transport) connectMesh(ln net.Listener, window time.Duration) error {
	var err error
	if ln == nil {
		ln, err = net.Listen("tcp", t.peers[t.rank])
		if err != nil {
			return fmt.Errorf("tcpnet: rank %d listen %s: %w", t.rank, t.peers[t.rank], err)
		}
	}
	t.ln = ln
	deadline := time.Now().Add(window)
	acceptDone := make(chan error, 1)
	go func() { acceptDone <- t.acceptPeers(ln, deadline) }()
	dialErr := t.dialPeers(deadline)
	if dialErr != nil {
		ln.Close() // unblock the accept loop
	}
	acceptErr := <-acceptDone
	ln.Close()
	t.ln = nil
	if dialErr != nil {
		return dialErr
	}
	return acceptErr
}

func (t *Transport) acceptPeers(ln net.Listener, deadline time.Time) error {
	expect := t.p - 1 - t.rank
	for got := 0; got < expect; got++ {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("tcpnet: rank %d accepting peers (%d/%d arrived): %w", t.rank, got, expect, err)
		}
		peer, err := readHello(c, deadline)
		if err != nil {
			c.Close()
			return fmt.Errorf("tcpnet: rank %d handshaking inbound peer: %w", t.rank, err)
		}
		if peer <= t.rank || peer >= t.p || t.conns[peer] != nil {
			c.Close()
			return fmt.Errorf("tcpnet: rank %d got unexpected hello from rank %d", t.rank, peer)
		}
		t.conns[peer] = newConn(peer, c)
	}
	return nil
}

func (t *Transport) dialPeers(deadline time.Time) error {
	for peer := 0; peer < t.rank; peer++ {
		backoff := 25 * time.Millisecond
		for {
			c, err := net.DialTimeout("tcp", t.peers[peer], time.Until(deadline))
			if err == nil {
				if err := writeHello(c, t.rank, deadline); err != nil {
					c.Close()
					return fmt.Errorf("tcpnet: rank %d hello to rank %d: %w", t.rank, peer, err)
				}
				t.conns[peer] = newConn(peer, c)
				break
			}
			if !time.Now().Add(backoff).Before(deadline) {
				return fmt.Errorf("tcpnet: rank %d dialing rank %d at %s: %w", t.rank, peer, t.peers[peer], err)
			}
			time.Sleep(backoff)
			if backoff < 400*time.Millisecond {
				backoff *= 2
			}
		}
	}
	return nil
}

// wireConfig is the coordinator's CONFIG payload: the settings every
// rank must share for modeled costs to agree.
type wireConfig struct {
	Model   machine.CostModel
	Timeout time.Duration
}

// handshake distributes rank 0's configuration and synchronizes
// readiness, reusing the operation channel (the CONFIG broadcast is the
// mesh's first op, READY its ack).
func (t *Transport) handshake() error {
	if t.rank == 0 {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(wireConfig{Model: t.model, Timeout: t.timeout}); err != nil {
			return fmt.Errorf("tcpnet: encoding config: %w", err)
		}
		if err := t.OpBroadcast(buf.Bytes()); err != nil {
			return fmt.Errorf("tcpnet: config broadcast: %w", err)
		}
		if err := t.OpCollect(); err != nil {
			return fmt.Errorf("tcpnet: waiting for workers: %w", err)
		}
		return nil
	}
	op, err := t.NextOp()
	if err != nil {
		return fmt.Errorf("tcpnet: waiting for config: %w", err)
	}
	var cfg wireConfig
	if err := gob.NewDecoder(bytes.NewReader(op)).Decode(&cfg); err != nil {
		t.AckOp(err)
		return fmt.Errorf("tcpnet: decoding config: %w", err)
	}
	t.model = cfg.Model
	t.timeout = cfg.Timeout
	return t.AckOp(nil)
}

// Size returns the world size p.
func (t *Transport) Size() int { return t.p }

// Rank returns this process's world rank.
func (t *Transport) Rank() int { return t.rank }

// Model returns the α–β–γ constants charged by this transport.
func (t *Transport) Model() machine.CostModel { return t.model }

// SetModel replaces the cost model. It is process-local: in a real
// deployment every rank must apply the identical model (the SPMD program
// replicates its configuration), exactly as the handshake seeded it.
func (t *Transport) SetModel(m machine.CostModel) { t.model = m }

// SetTimeout replaces the collective watchdog; 0 disables it. Like
// SetModel it is process-local.
func (t *Transport) SetTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.timeout = d
}

// fail records the transport's first failure, wakes every local waiter,
// and broadcasts an abort frame so remote ranks unwind too.
func (t *Transport) fail(err error) {
	if err == nil {
		return
	}
	t.failMu.Lock()
	if t.failErr == nil {
		t.failErr = err
	}
	msg := t.failErr.Error()
	t.failMu.Unlock()
	t.abortOnce.Do(func() {
		close(t.abort)
		for _, cn := range t.conns {
			if cn != nil {
				t.writeAbort(cn, []byte(msg))
			}
		}
	})
}

// err returns the recorded failure, if any.
func (t *Transport) err() error {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	return t.failErr
}

// Close tears down the mesh. Idempotent; the transport is unusable
// afterwards.
func (t *Transport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.abortOnce.Do(func() { close(t.abort) })
	if t.ln != nil {
		t.ln.Close()
	}
	for _, cn := range t.conns {
		if cn != nil {
			cn.c.Close()
		}
	}
	return nil
}

// Leave declares the session over on this rank: from here on a peer
// closing its links is the expected end of the mesh, not a failure. An
// orderly teardown has every rank call Leave before any rank closes — the
// session layer's shutdown op is acknowledged by every worker after its
// Leave, and only then does the coordinator release them (see
// rankrun.Driver.Shutdown) — so ranks may close in any order without
// poisoning a slower peer that is still waiting on the coordinator.
func (t *Transport) Leave() { t.leaving.Store(true) }

// OpBroadcast ships one opaque operation from the coordinator to every
// worker. The session layer encodes region requests with it so all ranks
// enter the same Run. Coordinator only.
func (t *Transport) OpBroadcast(op []byte) error {
	if t.rank != 0 {
		return errors.New("tcpnet: OpBroadcast called on a worker rank")
	}
	for peer := 1; peer < t.p; peer++ {
		if err := t.writeFrame(t.conns[peer], frameCtrl, op); err != nil {
			t.fail(err)
			return err
		}
	}
	return nil
}

// OpCollect waits for every worker's acknowledgement of the last
// broadcast operation and returns the first reported failure.
// Coordinator only.
func (t *Transport) OpCollect() error {
	if t.rank != 0 {
		return errors.New("tcpnet: OpCollect called on a worker rank")
	}
	var firstErr error
	for peer := 1; peer < t.p; peer++ {
		body, err := t.recvCtrl(peer)
		if err != nil {
			return err
		}
		if len(body) < 1 {
			return fmt.Errorf("tcpnet: malformed ack from rank %d", peer)
		}
		if body[0] == 0 && firstErr == nil {
			firstErr = fmt.Errorf("tcpnet: rank %d: %s", peer, body[1:])
		}
	}
	return firstErr
}

// NextOp blocks until the coordinator broadcasts the next operation.
// Worker ranks only; it returns an error once the transport fails or is
// closed.
func (t *Transport) NextOp() ([]byte, error) {
	if t.rank == 0 {
		return nil, errors.New("tcpnet: NextOp called on the coordinator")
	}
	return t.recvCtrl(0)
}

// AckOp reports this worker's result for the last operation to the
// coordinator. A nil error acknowledges success.
func (t *Transport) AckOp(opErr error) error {
	if t.rank == 0 {
		return errors.New("tcpnet: AckOp called on the coordinator")
	}
	body := []byte{1}
	if opErr != nil {
		body = append([]byte{0}, opErr.Error()...)
	}
	if err := t.writeFrame(t.conns[0], frameCtrl, body); err != nil {
		t.fail(err)
		return err
	}
	return nil
}

func (t *Transport) recvCtrl(peer int) ([]byte, error) {
	cn := t.conns[peer]
	select {
	case b := <-cn.ctrl:
		return b, nil
	case <-t.abort:
		// The mesh is tearing down, but the frame may already be ahead of
		// the failure in the stream — e.g. shutdown acks racing the peers'
		// own closes (each peer's FIN arrives after its ack, but another
		// peer's FIN can poison the transport first). Give the frame one
		// bounded grace window before reporting the failure.
		select {
		case b := <-cn.ctrl:
			return b, nil
		case <-time.After(abortWriteTimeout):
		}
		if err := t.err(); err != nil {
			return nil, err
		}
		return nil, errClosed
	}
}

// hello frames carry the dialer's rank so the accepter can index the
// connection; they are exchanged synchronously before readLoop starts.

func writeHello(c net.Conn, rank int, deadline time.Time) error {
	buf := make([]byte, 9)
	binary.LittleEndian.PutUint32(buf, 5)
	buf[4] = frameHello
	binary.LittleEndian.PutUint32(buf[5:], uint32(rank))
	c.SetWriteDeadline(deadline)
	_, err := c.Write(buf)
	c.SetWriteDeadline(time.Time{})
	return err
}

func readHello(c net.Conn, deadline time.Time) (int, error) {
	buf := make([]byte, 9)
	c.SetReadDeadline(deadline)
	if _, err := io.ReadFull(c, buf); err != nil {
		return 0, err
	}
	c.SetReadDeadline(time.Time{})
	if binary.LittleEndian.Uint32(buf) != 5 || buf[4] != frameHello {
		return 0, errors.New("not a hello frame")
	}
	return int(binary.LittleEndian.Uint32(buf[5:])), nil
}
