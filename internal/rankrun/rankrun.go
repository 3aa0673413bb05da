// Package rankrun replicates streaming-engine sessions across a
// rank-per-process TCP machine (internal/machine/tcpnet).
//
// The dynamic engine's host-side decisions — strategy selection, affected
// sources, batch diffs — are deterministic functions of (initial graph,
// options, batch sequence). rankrun exploits that: every process runs a
// complete replica of the engine, and only the op stream (engine creation,
// mutation batches, teardown) travels over the coordinator's control
// plane. When a replicated engine enters a machine region, all ranks enter the same region over the shared mesh,
// each contributing its own rank's shard of the collectives; scores and
// modeled statistics come out identical on every process.
//
// The coordinator (rank 0, e.g. mfbc-serve) drives engines through
// Driver; workers (cmd/mfbc-rank) loop in ServeWorker. Each op is
// broadcast before the coordinator's local call, so worker replicas enter
// the region concurrently with it, and acknowledged by every worker after
// it, so the op channel never skews by more than one op.
//
// A failed machine region poisons the underlying transport (peer streams
// may have died mid-frame); the driver surfaces the error and the
// deployment must rebuild the mesh — there is no in-place recovery. A
// cancelled region is one of them: an Engine.ApplyCtx whose ctx has ended,
// before its region or during it, ends the region on every rank with
// ctx's cause and poisons the mesh like any other region failure.
package rankrun

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"

	"repro"
	"repro/internal/graph"
	"repro/internal/machine/tcpnet"
)

// Op kinds of the replication wire protocol.
const (
	opEngine   = "engine"   // build a replica engine (graph + options)
	opApply    = "apply"    // apply one mutation batch on the named engine
	opDrop     = "drop"     // discard the named engine
	opShutdown = "shutdown" // end the worker loop
)

// op is one replicated operation, gob-encoded onto the control plane.
// Opt travels with a nil Transport (the field is process-local; each rank
// substitutes its own endpoint).
type op struct {
	Kind  string
	Name  string
	Graph *graph.Graph         // opEngine
	Opt   repro.DynamicOptions // opEngine
	Batch []graph.Mutation     // opApply
}

func encodeOp(o op) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(o); err != nil {
		return nil, fmt.Errorf("rankrun: encoding %s op: %w", o.Kind, err)
	}
	return buf.Bytes(), nil
}

// Driver is the coordinator's handle on the replicated worker fleet. All
// engine-building and apply traffic across every graph funnels through
// one driver, serialized by its mutex: the mesh is a single shared
// machine, and interleaving two engines' regions on it would corrupt the
// superstep streams.
type Driver struct {
	tr *tcpnet.Transport
	mu sync.Mutex
}

// NewDriver wraps the coordinator's transport (rank 0 of the mesh).
func NewDriver(tr *tcpnet.Transport) (*Driver, error) {
	if tr.Rank() != 0 {
		return nil, fmt.Errorf("rankrun: driver needs the coordinator rank, got rank %d", tr.Rank())
	}
	return &Driver{tr: tr}, nil
}

// Size returns the mesh's world size p.
func (d *Driver) Size() int { return d.tr.Size() }

// do broadcasts one op, runs the coordinator's local share, then collects
// every worker's acknowledgement. The local error wins (a region failure
// usually fails the collect too); a worker-only failure means the
// replicas diverged, which is fatal to the session.
func (d *Driver) do(o op, local func() error) error {
	raw, err := encodeOp(o)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.tr.OpBroadcast(raw); err != nil {
		return err
	}
	localErr := local()
	collectErr := d.tr.OpCollect()
	if localErr != nil {
		return localErr
	}
	if collectErr != nil {
		return fmt.Errorf("rankrun: replicas diverged on %s op: %w", o.Kind, collectErr)
	}
	return nil
}

// Engine is one replicated streaming engine: a local repro.DynamicBC
// whose applies are mirrored on every worker rank. Reads (Scores) are
// host-side and served locally.
type Engine struct {
	d    *Driver
	name string
	bc   *repro.DynamicBC
}

// NewEngine builds the named engine on every rank of the mesh. opt.Procs
// must equal the mesh size (every sweep runs one shard per process);
// opt.Transport is ignored and replaced per rank.
func (d *Driver) NewEngine(name string, g *graph.Graph, opt repro.DynamicOptions) (*Engine, error) {
	if opt.Procs != d.tr.Size() {
		return nil, fmt.Errorf("rankrun: engine %q wants %d procs on a %d-rank mesh", name, opt.Procs, d.tr.Size())
	}
	opt.Transport = nil
	var bc *repro.DynamicBC
	err := d.do(op{Kind: opEngine, Name: name, Graph: g, Opt: opt}, func() error {
		lopt := opt
		lopt.Transport = d.tr
		var lerr error
		bc, lerr = repro.NewDynamicBC(g, lopt)
		return lerr
	})
	if err != nil {
		return nil, err
	}
	return &Engine{d: d, name: name, bc: bc}, nil
}

// ApplyCtx applies one mutation batch on every replica. The batch is
// broadcast before the local apply, so all ranks run the machine regions
// of this apply together. ctx ends the coordinator's region, and with it
// every rank's (see the package doc: the mesh is then poisoned).
func (e *Engine) ApplyCtx(ctx context.Context, batch []graph.Mutation) (repro.ApplyReport, error) {
	var rep repro.ApplyReport
	err := e.d.do(op{Kind: opApply, Name: e.name, Batch: batch}, func() error {
		var lerr error
		rep, lerr = e.bc.ApplyCtx(ctx, batch)
		return lerr
	})
	if err != nil {
		return repro.ApplyReport{}, err
	}
	return rep, nil
}

// Scores returns the coordinator replica's consistent snapshot.
func (e *Engine) Scores() repro.DynamicSnapshot { return e.bc.Scores() }

// Close drops the engine on every worker, releasing the replica state.
// The coordinator's local replica is released with the Engine itself.
func (e *Engine) Close() error {
	return e.d.do(op{Kind: opDrop, Name: e.name}, func() error { return nil })
}

// Shutdown ends every worker's ServeWorker loop. The mesh itself stays
// up; close the transport separately.
//
// Teardown is ordered in two steps so that ranks may then close in any
// order. The shutdown op is acknowledged by each worker only after it has
// declared the session over (tcpnet's Leave), and workers keep their links
// open until the coordinator, holding every acknowledgement, releases them
// with one more frame. Without the second step a fast worker's close
// reaches a slower worker — and the coordinator, whose abort then overtakes
// the shutdown op on the slower worker's stream — as a lost link while the
// slower worker is still blocked waiting for the op.
func (d *Driver) Shutdown() error {
	if err := d.do(op{Kind: opShutdown}, func() error { return nil }); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tr.Leave()
	return d.tr.OpBroadcast(nil)
}

// ServeWorker runs one worker rank's replication loop: receive an op,
// mirror it on the local replicas, acknowledge, repeat until a shutdown
// op or a transport failure. It returns nil on orderly shutdown.
func ServeWorker(tr *tcpnet.Transport) error {
	if tr.Rank() == 0 {
		return errors.New("rankrun: ServeWorker called on the coordinator rank")
	}
	engines := make(map[string]*repro.DynamicBC)
	for {
		raw, err := tr.NextOp()
		if err != nil {
			return err
		}
		var o op
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&o); err != nil {
			// An undecodable op means the control stream is corrupt; tell
			// the coordinator and bail out.
			err = fmt.Errorf("rankrun: rank %d decoding op: %w", tr.Rank(), err)
			tr.AckOp(err)
			return err
		}
		var opErr error
		switch o.Kind {
		case opEngine:
			lopt := o.Opt
			lopt.Transport = tr
			var bc *repro.DynamicBC
			bc, opErr = repro.NewDynamicBC(o.Graph, lopt)
			if opErr == nil {
				engines[o.Name] = bc
			}
		case opApply:
			bc := engines[o.Name]
			if bc == nil {
				opErr = fmt.Errorf("rankrun: rank %d has no engine %q", tr.Rank(), o.Name)
			} else {
				_, opErr = bc.Apply(o.Batch)
			}
		case opDrop:
			delete(engines, o.Name)
		case opShutdown:
			// Ordered teardown (see Driver.Shutdown): leave, acknowledge,
			// and hold the links open until the coordinator's release. A
			// coordinator that vanishes instead ends the wait the same way.
			tr.Leave()
			if err := tr.AckOp(nil); err != nil {
				return err
			}
			_, _ = tr.NextOp()
			return nil
		default:
			opErr = fmt.Errorf("rankrun: rank %d: unknown op kind %q", tr.Rank(), o.Kind)
		}
		// Replica-side failures are acknowledged, not fatal here: a
		// validation error rejects the batch identically on every rank
		// (lockstep holds), and a region failure poisons the transport,
		// which ends the loop through the next NextOp anyway.
		if err := tr.AckOp(opErr); err != nil {
			return err
		}
	}
}
