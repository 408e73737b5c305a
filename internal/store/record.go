package store

import (
	"context"
	"sync"

	"objmig/internal/core"
	"objmig/internal/wire"
)

// Status is the lifecycle of a hosted object record.
type Status int

const (
	// StatusActive: the object lives here and accepts invocations.
	StatusActive Status = iota + 1
	// StatusPaused: the object is being linearised for migration; new
	// invocations wait.
	StatusPaused
	// StatusGone: the object left; MovedTo names the next hop. A
	// departed record is no longer in the object table — only those
	// still holding it see this status.
	StatusGone
)

// Record is a hosted object: instance, policy state, attachment
// adjacency and the monitor/pause machinery. The record's own mutex
// serialises per-object state; the shard lock of the owning Store only
// guards table membership. Lock order is shard table lock → Record.Mu →
// shard location lock; Record.Mu may be taken with or without a shard
// lock held, never the other way around. Several Record.Mu are held at
// once only in ascending OID order: by a relocation whose working set
// stays where it is (the members it stamps, no shard lock taken while
// any is held) and by InstallBatch (the records it replaces, in the
// migration's canonical member order).
type Record struct {
	ID       core.OID // the object's cluster-unique identity
	TypeName string   // registered type that reinstantiates the object
	// StateBytes approximates the instance's resident size: the
	// encoded snapshot-state length at install time (zero for locally
	// created objects that never migrated). Set once before the record
	// is published into a Store and immutable afterwards, so readers
	// need no lock; it feeds the node's load-gossip byte gauge.
	StateBytes int64
	// Gen is the object's departure generation: how many migrations it
	// has survived. The migration coordinator bumps it on every shipped
	// snapshot, so location reports carry a total order and a delayed
	// report can never roll the directory backwards. Set before the
	// record is published into a Store and immutable while hosted, so
	// readers need no lock.
	Gen uint64

	Mu   sync.Mutex // guards every mutable field below
	cond *sync.Cond // broadcast on every status/busy transition

	Inst     interface{}   // the live user instance
	Pol      core.ObjState // migration-policy state (locks, fixed flag)
	edges    map[core.OID]map[core.AllianceID]bool
	Status   Status      // live, paused or gone
	Token    uint64      // pause token while StatusPaused
	MovedTo  core.NodeID // next hop while StatusGone
	MovedGen uint64      // generation of that departure while StatusGone
	busy     bool        // an invocation is executing (objects are monitors)
}

// NewRecord returns a fresh active record hosting inst.
func NewRecord(id core.OID, typeName string, inst interface{}) *Record {
	r := &Record{
		ID:       id,
		TypeName: typeName,
		Inst:     inst,
		Status:   StatusActive,
		edges:    make(map[core.OID]map[core.AllianceID]bool),
	}
	r.cond = sync.NewCond(&r.Mu)
	return r
}

// Acquire waits until the object is free for an invocation and marks it
// busy. It fails with a moved-error when the object leaves while
// waiting, and respects context cancellation.
func (r *Record) Acquire(ctx context.Context) error {
	return r.Await(ctx, func() (bool, error) {
		switch {
		case r.Status == StatusGone:
			return true, r.movedLocked()
		case r.Status == StatusActive && !r.busy:
			r.busy = true
			return true, nil
		}
		return false, nil
	})
}

// Await runs try under Mu until it reports done, sleeping on the
// record's condition between attempts, and gives up with ctx's error
// once ctx is cancelled. Every status transition (pause, unpause,
// departure) and every release wakes it: a caller parks on the record
// instead of polling it. The cancellation hook that wakes a sleeping
// waiter is registered only when the first attempt has to wait, so an
// uncontended call costs the lock and nothing else.
func (r *Record) Await(ctx context.Context, try func() (done bool, err error)) error {
	var stop func() bool
	defer func() {
		if stop != nil {
			stop()
		}
	}()
	r.Mu.Lock()
	defer r.Mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if done, err := try(); done {
			return err
		}
		if stop == nil {
			// Registered with Mu held: a cancellation landing right now
			// blocks in the hook until Wait releases the lock, so its
			// broadcast cannot be missed.
			stop = context.AfterFunc(ctx, func() {
				r.Mu.Lock()
				r.cond.Broadcast()
				r.Mu.Unlock()
			})
		}
		r.cond.Wait()
	}
}

// movedLocked is the redirect a departed record answers with. Caller
// holds Mu.
func (r *Record) movedLocked() error {
	return &wire.RemoteError{Code: wire.CodeMoved, Msg: "object " + r.ID.String() + " moved", To: r.MovedTo, Gen: r.MovedGen}
}

// Release ends an invocation.
func (r *Record) Release() {
	r.Mu.Lock()
	r.busy = false
	r.cond.Broadcast()
	r.Mu.Unlock()
}

// Pause transitions an active, idle object to StatusPaused for
// migration token. It waits for a running invocation to drain but fails
// immediately if the object is gone or already paused — the latter with
// CodeMigrating, for the caller to wait that migration out where it
// holds no pause (pause never waits on pause, so concurrent group
// migrations cannot deadlock).
func (r *Record) Pause(ctx context.Context, token uint64) error {
	return r.Await(ctx, func() (bool, error) {
		switch r.Status {
		case StatusGone:
			return true, r.movedLocked()
		case StatusPaused:
			return true, wire.Errorf(wire.CodeMigrating, "object %s is being migrated", r.ID)
		case StatusActive:
			if !r.busy {
				r.Status = StatusPaused
				r.Token = token
				return true, nil
			}
		}
		return false, nil
	})
}

// Unpause rolls a pause back (migration aborted or its lease expired),
// reporting whether this call actually resumed the object. Departed
// records, active records and pauses under a different token are left
// alone.
func (r *Record) Unpause(token uint64) bool {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	if r.Status == StatusPaused && r.Token == token {
		r.Status = StatusActive
		r.Token = 0
		r.cond.Broadcast()
		return true
	}
	return false
}

// depart flips a record paused by token into a departed one, reporting
// whether it did. entry writes the departure's location entry and names
// the redirect the record answers with from then on. Store.Depart runs
// it under the table lock, so the record leaves the table in the same
// step.
func (r *Record) depart(token uint64, entry func() (core.NodeID, uint64)) bool {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	if r.Status != StatusPaused || r.Token != token {
		return false
	}
	r.goneLocked(entry())
	return true
}

// goneLocked marks the record departed towards to at departure
// generation gen, dropping the instance, and wakes every waiter: they
// fail with a redirect to to that carries gen. Caller holds Mu.
func (r *Record) goneLocked(to core.NodeID, gen uint64) {
	r.Status = StatusGone
	r.Token = 0
	r.MovedTo = to
	r.MovedGen = gen
	r.Inst = nil
	r.edges = nil
	r.cond.Broadcast()
}

// Snapshot linearises the object. Caller must hold the pause (the
// record must be StatusPaused) — the instance cannot change
// concurrently. encode is the object type's state encoder.
func (r *Record) Snapshot(encode func(inst interface{}) ([]byte, error)) (wire.Snapshot, error) {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	state, err := encode(r.Inst)
	if err != nil {
		return wire.Snapshot{}, err
	}
	return wire.Snapshot{
		ID:    r.ID,
		Type:  r.TypeName,
		State: state,
		Pol:   r.Pol.Clone(),
		Edges: r.EdgeListLocked(),
		Gen:   r.Gen,
	}, nil
}

// sortEdgeRecs orders edges canonically for deterministic wire images.
func sortEdgeRecs(es []wire.EdgeRec) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && edgeLess(es[j], es[j-1]); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

func edgeLess(a, b wire.EdgeRec) bool {
	if a.Other != b.Other {
		return a.Other.Less(b.Other)
	}
	return a.Alliance < b.Alliance
}

// EdgeListLocked returns the record's adjacency in canonical order.
// Caller holds Mu (an EdgeOp callback, or Snapshot).
func (r *Record) EdgeListLocked() []wire.EdgeRec {
	out := make([]wire.EdgeRec, 0, len(r.edges))
	for other, als := range r.edges {
		for al := range als {
			out = append(out, wire.EdgeRec{Other: other, Alliance: al})
		}
	}
	sortEdgeRecs(out)
	return out
}

// Degree returns the number of distinct attachment partners.
func (r *Record) Degree() int {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	return len(r.edges)
}

// DegreeLocked is Degree for callers already holding the record lock
// (EdgeOp callbacks).
func (r *Record) DegreeLocked() int { return len(r.edges) }

// PairedWith reports whether the record has any edge to other.
func (r *Record) PairedWith(other core.OID) bool {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	return len(r.edges[other]) > 0
}

// PairedWithLocked is PairedWith for callers already holding the record
// lock (EdgeOp callbacks).
func (r *Record) PairedWithLocked(other core.OID) bool {
	return len(r.edges[other]) > 0
}

// AddEdge records half an attachment.
func (r *Record) AddEdge(other core.OID, al core.AllianceID) {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	r.AddEdgeLocked(other, al)
}

// AddEdgeLocked is AddEdge under an already-held record lock.
func (r *Record) AddEdgeLocked(other core.OID, al core.AllianceID) {
	set, ok := r.edges[other]
	if !ok {
		set = make(map[core.AllianceID]bool)
		r.edges[other] = set
	}
	set[al] = true
}

// DelEdge removes half an attachment, reporting whether it existed.
func (r *Record) DelEdge(other core.OID, al core.AllianceID) bool {
	r.Mu.Lock()
	defer r.Mu.Unlock()
	return r.DelEdgeLocked(other, al)
}

// DelEdgeLocked is DelEdge under an already-held record lock.
func (r *Record) DelEdgeLocked(other core.OID, al core.AllianceID) bool {
	set, ok := r.edges[other]
	if !ok || !set[al] {
		return false
	}
	delete(set, al)
	if len(set) == 0 {
		delete(r.edges, other)
	}
	return true
}

// EdgeOp runs an edge read or mutation atomically against a live
// record: it waits out a migration pause (an edge added after the
// snapshot was taken would be lost with the transfer, and a list read
// during one may be stale by the time that migration commits), fails
// with a redirect when the object has left, and otherwise runs op under
// the record lock.
func (r *Record) EdgeOp(ctx context.Context, op func() *wire.RemoteError) error {
	return r.Await(ctx, func() (bool, error) {
		switch r.Status {
		case StatusGone:
			return true, r.movedLocked()
		case StatusActive:
			if re := op(); re != nil {
				return true, re
			}
			return true, nil
		}
		return false, nil
	})
}
