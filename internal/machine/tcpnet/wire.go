// Wire protocol: every message is one frame, [uint32 length][1-byte
// type][body], length covering type + body. Data frames additionally
// carry a per-connection sequence number (a desync check: per-pair FIFO
// is the protocol's only ordering guarantee, so a gap means the stream
// is corrupt), the sender's modeled cost vector, its posted collective
// size, and an optional payload.

package tcpnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/machine"
)

const (
	frameHello byte = 1 // body: uint32 dialer rank
	frameData  byte = 2 // body: data header + payload
	frameCtrl  byte = 3 // body: opaque operation / ack bytes
	frameAbort byte = 4 // body: failure message
)

// dataHeader is seq(8) + cost(3×8) + size(8) + payload-present(1).
const dataHeader = 8 + 3*8 + 8 + 1

// maxFrame bounds a frame body; anything larger indicates corruption.
const maxFrame = 1 << 30

// abortWriteTimeout bounds best-effort abort broadcasts so the failure
// path cannot hang on a dead connection.
const abortWriteTimeout = 2 * time.Second

// conn is one rank-pair connection. Writes are serialized by wmu (the
// region goroutine and the abort path share the stream); reads belong
// exclusively to the readLoop goroutine, which demultiplexes data and
// control frames into the channels and closes read when it stops: no
// frame arrives from the link after that.
type conn struct {
	peer   int
	c      net.Conn
	wmu    sync.Mutex
	seqOut uint64 // guarded by wmu
	seqIn  uint64 // readLoop only
	data   chan dataFrame
	ctrl   chan []byte
	read   chan struct{} // closed when readLoop returns
	// watchdog is recvData's timer, made by the first receive and reset by
	// every later one: only the region goroutine receives.
	watchdog *time.Timer
}

func newConn(peer int, c net.Conn) *conn {
	return &conn{peer: peer, c: c, data: make(chan dataFrame, 1024), ctrl: make(chan []byte, 16), read: make(chan struct{})}
}

// dataFrame is one received superstep contribution.
type dataFrame struct {
	seq     uint64
	cost    machine.Cost
	size    int64
	payload []byte // nil when the frame carried cost bookkeeping only
}

// writeFrame sends one framed message. Each write attempt runs under the
// transport's deadline; a deadline miss with partial progress continues
// with a fresh window (the stream stays consistent — the remainder picks
// up where the kernel left off), while a zero-progress miss is retried
// once before giving up.
func (t *Transport) writeFrame(cn *conn, typ byte, body []byte) error {
	if len(body)+1 > maxFrame {
		return fmt.Errorf("tcpnet: frame to rank %d exceeds %d bytes", cn.peer, maxFrame)
	}
	buf := make([]byte, 5+len(body))
	binary.LittleEndian.PutUint32(buf, uint32(1+len(body)))
	buf[4] = typ
	copy(buf[5:], body)
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	return t.writeLocked(cn, buf)
}

func (t *Transport) writeLocked(cn *conn, buf []byte) error {
	retries := 1
	for {
		if t.timeout > 0 {
			cn.c.SetWriteDeadline(time.Now().Add(t.timeout))
		}
		n, err := cn.c.Write(buf)
		buf = buf[n:]
		if len(buf) == 0 && err == nil {
			return nil
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if n > 0 {
					continue // progress made; fresh deadline window
				}
				if retries > 0 {
					retries--
					continue
				}
			}
			return fmt.Errorf("machine: write to rank %d failed: %w", cn.peer, err)
		}
	}
}

// sendData sends one superstep contribution, framed in one buffer: the
// frame header, the data header and the payload, copied once. The sequence
// number is allocated under the write lock so concurrent control traffic
// cannot reorder data frames.
func (t *Transport) sendData(worldRank int, cost machine.Cost, size int64, payload []byte) error {
	cn := t.conns[worldRank]
	buf := make([]byte, 5+dataHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(1+dataHeader+len(payload)))
	buf[4] = frameData
	body := buf[5:]
	binary.LittleEndian.PutUint64(body[8:], uint64(cost.Bytes))
	binary.LittleEndian.PutUint64(body[16:], uint64(cost.Msgs))
	binary.LittleEndian.PutUint64(body[24:], uint64(cost.Flops))
	binary.LittleEndian.PutUint64(body[32:], uint64(size))
	if payload != nil {
		body[40] = 1
		copy(body[dataHeader:], payload)
	}
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	cn.seqOut++
	binary.LittleEndian.PutUint64(body, cn.seqOut)
	return t.writeLocked(cn, buf)
}

// writeAbort best-effort pushes an abort frame. It must never block the
// failure path on a busy stream: when a concurrent write holds it, a
// goroutine writes the frame once that write ends — under the transport's
// write deadline, or at Close — rather than skip it, which would leave the
// peer's control waits on this link to sit out their grace window.
func (t *Transport) writeAbort(cn *conn, msg []byte) {
	buf := make([]byte, 5+len(msg))
	binary.LittleEndian.PutUint32(buf, uint32(1+len(msg)))
	buf[4] = frameAbort
	copy(buf[5:], msg)
	if cn.wmu.TryLock() {
		defer cn.wmu.Unlock()
		writeAbortLocked(cn, buf)
		return
	}
	go func() {
		cn.wmu.Lock()
		defer cn.wmu.Unlock()
		writeAbortLocked(cn, buf)
	}()
}

// writeAbortLocked writes an abort frame under its own deadline; the
// caller holds cn.wmu.
func writeAbortLocked(cn *conn, buf []byte) {
	cn.c.SetWriteDeadline(time.Now().Add(abortWriteTimeout))
	cn.c.Write(buf)
}

// readLoop owns the connection's read side for the transport's lifetime,
// demultiplexing frames into the conn's channels. Reads carry no
// deadline — sessions idle between regions for arbitrarily long — and
// collective-level starvation is the recv watchdog's job, not the
// stream's.
func (t *Transport) readLoop(cn *conn) {
	defer close(cn.read)
	br := bufio.NewReaderSize(cn.c, 64<<10)
	hdr := make([]byte, 5)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			t.linkLost(cn, err)
			return
		}
		n := binary.LittleEndian.Uint32(hdr)
		if n < 1 || n > maxFrame {
			t.linkLost(cn, fmt.Errorf("bad frame length %d", n))
			return
		}
		body := make([]byte, n-1)
		if _, err := io.ReadFull(br, body); err != nil {
			t.linkLost(cn, err)
			return
		}
		switch hdr[4] {
		case frameData:
			df, err := parseData(body)
			if err != nil {
				t.linkLost(cn, err)
				return
			}
			cn.seqIn++
			if df.seq != cn.seqIn {
				t.linkLost(cn, fmt.Errorf("stream desync: frame seq %d, want %d", df.seq, cn.seqIn))
				return
			}
			select {
			case cn.data <- df:
			case <-t.ctx.Done():
				return
			}
		case frameCtrl:
			select {
			case cn.ctrl <- body:
			case <-t.ctx.Done():
				return
			}
		case frameAbort:
			t.fail(fmt.Errorf("machine: aborted by rank %d: %s", cn.peer, body))
			return
		default:
			t.linkLost(cn, fmt.Errorf("unknown frame type %d", hdr[4]))
			return
		}
	}
}

func parseData(body []byte) (dataFrame, error) {
	if len(body) < dataHeader {
		return dataFrame{}, fmt.Errorf("short data frame (%d bytes)", len(body))
	}
	df := dataFrame{
		seq: binary.LittleEndian.Uint64(body),
		cost: machine.Cost{
			Bytes: int64(binary.LittleEndian.Uint64(body[8:])),
			Msgs:  int64(binary.LittleEndian.Uint64(body[16:])),
			Flops: int64(binary.LittleEndian.Uint64(body[24:])),
		},
		size: int64(binary.LittleEndian.Uint64(body[32:])),
	}
	if body[40] == 1 {
		df.payload = body[dataHeader:]
		if df.payload == nil {
			df.payload = []byte{}
		}
	}
	return df, nil
}

// linkLost surfaces a dead connection as a machine failure, unless the
// transport has already ended (closing, or failed) or the session is over
// (peers tearing down produce expected EOFs). After Leave only the
// coordinator's link ending matters: it ends the transport with errClosed,
// which wakes a worker still waiting for its release.
func (t *Transport) linkLost(cn *conn, err error) {
	select {
	case <-t.ctx.Done():
		return
	default:
	}
	if t.leaving.Load() {
		if cn.peer == 0 {
			t.end(errClosed)
		}
		return
	}
	t.fail(fmt.Errorf("machine: link to rank %d lost: %w", cn.peer, err))
}

// recvData waits for the next superstep frame from worldRank. The wait
// ends the region with the transport's cause once the transport has ended,
// and with a timeout after two watchdog windows (the sim backend's barrier
// watchdog, translated to message passing); with the watchdog off it has
// no timer. The link's one timer serves every receive: since Go 1.23 a
// Reset leaves no stale tick in its channel.
func (t *Transport) recvData(worldRank int) dataFrame {
	cn := t.conns[worldRank]
	var watchdog <-chan time.Time
	if t.timeout > 0 {
		if cn.watchdog == nil {
			cn.watchdog = time.NewTimer(2 * t.timeout)
		} else {
			cn.watchdog.Reset(2 * t.timeout)
		}
		defer cn.watchdog.Stop()
		watchdog = cn.watchdog.C
	}
	select {
	case df := <-cn.data:
		return df
	case <-t.ctx.Done():
		machine.Abort(context.Cause(t.ctx))
	case <-watchdog:
		machine.Abort(fmt.Errorf("machine: receive from rank %d timed out after %v (collective deadlock: mismatched collective calls across ranks?)", worldRank, 2*t.timeout))
	}
	panic("unreachable")
}
