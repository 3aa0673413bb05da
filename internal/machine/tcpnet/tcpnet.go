// Package tcpnet is the rank-per-process machine backend: each rank of
// the machine lives in its own OS process and the collectives in
// internal/machine move real bytes over a full mesh of TCP connections,
// one per rank pair.
//
// Topology and rendezvous are static: every process is given the same
// ordered peer list (rank i listens on peers[i]), rank i dials every
// lower rank and accepts from every higher rank, and rank 0 then acts as
// coordinator, collecting every worker's readiness before the transport
// is handed to the caller. The rendezvous ships no configuration: every
// rank prices with machine.DefaultModel and starts from the same
// watchdog default. After the mesh is up, rank 0 can also drive workers
// through the opaque operation channel (OpBroadcast/OpCollect on the
// coordinator, NextOp/AckOp on workers) — the session layer uses it to
// replicate region requests before entering machine.Transport.Run on
// every rank.
//
// The BSP superstep maps onto the mesh directly: in a collective over a
// group, every member sends one frame to every other member (payload
// frames where the posted header's Encode addresses that peer, cost-only
// frames otherwise) and receives one frame from each. Because regions
// are SPMD, any two ranks observe their common groups' supersteps in the
// same program order, so per-pair FIFO delivery is sufficient ordering —
// frames need no group or superstep tags. Modeled α–β–γ cost rides along
// in every frame header, which keeps the critical-path join (§7.4 of the
// paper) bit-identical to the simulated backend; wall-clock time is
// whatever the network really took.
//
// A transport ends one way, as a machine/sim region does: its context is
// cancelled with the first cause, and every wait (a collective's receive,
// the operation channel, the read loops) selects on its Done channel. A
// failure — a region panic or Abort, a Proc.Fail such as a caller's
// cancelled ctx, a lost link, a watchdog timeout — also broadcasts an abort
// frame best-effort so remote ranks unwind instead of deadlocking, and Run
// returns the cause as an error everywhere. Close, and the coordinator's
// link ending after Leave, end the transport with errClosed and send no
// abort frame. An ended transport stays ended — streams may have died
// mid-frame — so callers rebuild the mesh rather than reuse it.
package tcpnet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// Options configures how one rank's endpoint joins the mesh; nothing in
// it outlives the rendezvous.
type Options struct {
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

// Transport is one rank's endpoint of the TCP machine: its wire to every
// peer, the collective watchdog (a 2-minute default, per process, until
// SetTimeout), and the cause that ends it for good. It implements
// machine.Transport; Run executes the region body for this rank only,
// synchronizing with the peer processes over the mesh.
type Transport struct {
	rank    int
	p       int
	peers   []string
	timeout time.Duration // the collective watchdog and write deadline; 0 disables

	conns []*conn // indexed by world rank; conns[rank] == nil

	ctx     context.Context // cancelled with the transport's first cause; every wait selects on its Done
	end     context.CancelCauseFunc
	leaving atomic.Bool
}

// Coordinate brings up rank 0: it joins the mesh and returns once every
// worker acknowledged readiness.
func Coordinate(peers []string, opt Options) (*Transport, error) {
	return start(0, peers, opt)
}

// Join brings up a worker rank: it joins the mesh and acknowledges
// readiness to the coordinator.
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
		timeout: defaultTimeout,
		conns:   make([]*conn, p),
	}
	t.ctx, t.end = context.WithCancelCause(context.Background())
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
	deadline := time.Now().Add(window)
	acceptDone := make(chan error, 1)
	go func() { acceptDone <- t.acceptPeers(ln, deadline) }()
	dialErr := t.dialPeers(deadline)
	if dialErr != nil {
		ln.Close() // unblock the accept loop
	}
	acceptErr := <-acceptDone
	ln.Close()
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

// handshake is the mesh's readiness barrier, the first round trip on the
// operation channel: the coordinator broadcasts an empty operation, and
// every worker's READY acknowledgement ends it.
func (t *Transport) handshake() error {
	if t.rank == 0 {
		if err := t.OpBroadcast(nil); err != nil {
			return fmt.Errorf("tcpnet: readiness broadcast: %w", err)
		}
		if err := t.OpCollect(); err != nil {
			return fmt.Errorf("tcpnet: waiting for workers: %w", err)
		}
		return nil
	}
	if _, err := t.NextOp(); err != nil {
		return fmt.Errorf("tcpnet: waiting for the coordinator: %w", err)
	}
	return t.AckOp(nil)
}

// Size returns the world size p.
func (t *Transport) Size() int { return t.p }

// Rank returns this process's world rank.
func (t *Transport) Rank() int { return t.rank }

// SetTimeout replaces the collective watchdog; 0 disables it. It is
// process-local: the handshake ships no setting.
func (t *Transport) SetTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.timeout = d
}

// failure is one fail call's cause, boxed so that the call can tell by
// pointer identity whether it was the one that ended the transport (the
// error inside need not be comparable).
type failure struct{ error }

func (f *failure) Unwrap() error { return f.error }

// fail ends the transport with err as its cause and, if this call ended
// it, broadcasts err in an abort frame so remote ranks unwind too. A
// transport that an earlier failure or Close had ended sends nothing.
func (t *Transport) fail(err error) {
	cause := &failure{err}
	t.end(cause)
	if context.Cause(t.ctx) != error(cause) {
		return
	}
	msg := []byte(err.Error())
	for _, cn := range t.conns {
		if cn != nil {
			t.writeAbort(cn, msg)
		}
	}
}

// Close tears down the mesh: it ends the transport with errClosed, sending
// no abort frame, and closes every link. Idempotent; the transport is
// unusable afterwards.
func (t *Transport) Close() error {
	t.end(errClosed)
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
// Worker ranks only; it returns the transport's cause once it has ended.
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
	case <-t.ctx.Done():
		// The mesh is tearing down, but the frame may already be ahead of
		// the failure in the stream — e.g. shutdown acks racing the peers'
		// own closes (each peer's FIN arrives after its ack, but another
		// peer's FIN can poison the transport first). Give the frame one
		// bounded grace window before reporting the failure; it ends early
		// once the link's reader has stopped (at an abort frame, or the
		// link's end), after which no frame can arrive but one it queued.
		select {
		case b := <-cn.ctrl:
			return b, nil
		case <-cn.read:
			select {
			case b := <-cn.ctrl:
				return b, nil
			default:
			}
		case <-time.After(abortWriteTimeout):
		}
		return nil, context.Cause(t.ctx)
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
