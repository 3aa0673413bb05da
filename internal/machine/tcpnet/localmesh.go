// LocalMesh: a whole p-rank TCP machine inside one process, each rank on
// its own loopback endpoint. It exists for tests, the conformance suite,
// and loopback differentials — production deployments run one rank per
// process (cmd/mfbc-rank) and never touch it.

package tcpnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/machine"
)

// LocalMesh bundles p loopback Transports behind the machine.Transport
// interface: Run executes the region on every rank concurrently, exactly
// as p separate processes would, and returns rank 0's statistics (all
// ranks compute identical stats modulo wall clock).
type LocalMesh struct {
	ranks []*Transport
}

// StartLocalMesh brings up a full loopback mesh on ephemeral 127.0.0.1
// ports: rank 0 coordinates, all others join, concurrently, as separate
// processes would.
func StartLocalMesh(p int, opt Options) (*LocalMesh, error) {
	if p < 1 {
		return nil, fmt.Errorf("tcpnet: mesh needs at least 1 rank, got %d", p)
	}
	lns := make([]net.Listener, p)
	peers := make([]string, p)
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("tcpnet: loopback listen: %w", err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	trs := make([]*Transport, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := opt
			o.Listener = lns[r]
			if r == 0 {
				trs[r], errs[r] = Coordinate(peers, o)
			} else {
				trs[r], errs[r] = Join(r, peers, o)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, tr := range trs {
				if tr != nil {
					tr.Close()
				}
			}
			return nil, err
		}
	}
	return &LocalMesh{ranks: trs}, nil
}

// Size returns the world size p.
func (m *LocalMesh) Size() int { return len(m.ranks) }

// SetTimeout applies the watchdog on every rank.
func (m *LocalMesh) SetTimeout(d time.Duration) {
	for _, tr := range m.ranks {
		tr.SetTimeout(d)
	}
}

// Run executes fn on every rank concurrently and returns rank 0's
// statistics; any rank's failure surfaces as the error.
func (m *LocalMesh) Run(fn func(p *machine.Proc)) (machine.RunStats, error) {
	stats := make([]machine.RunStats, len(m.ranks))
	errs := make([]error, len(m.ranks))
	var wg sync.WaitGroup
	for i, tr := range m.ranks {
		wg.Add(1)
		go func(i int, tr *Transport) {
			defer wg.Done()
			stats[i], errs[i] = tr.Run(fn)
		}(i, tr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return machine.RunStats{}, err
		}
	}
	return stats[0], nil
}

// Rank exposes a single rank's endpoint (for control-plane tests).
func (m *LocalMesh) Rank(r int) *Transport { return m.ranks[r] }

// Close tears down every rank.
func (m *LocalMesh) Close() error {
	for _, tr := range m.ranks {
		tr.Close()
	}
	return nil
}
