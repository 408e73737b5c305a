package objmig

import (
	"objmig/internal/store"
	"objmig/internal/wire"
)

// The per-object record machinery (monitor locks, pause/depart
// lifecycle, attachment adjacency) lives in internal/store together
// with the lock-striped object table; this file keeps the node-level
// glue: snapshot decoding.

// decodeSnapshot reinstantiates one linearised object as a fresh local
// record: type lookup, state decode, policy state and attachment edges.
func (n *Node) decodeSnapshot(snap *wire.Snapshot) (*store.Record, error) {
	t, ok := n.typeByName(snap.Type)
	if !ok {
		return nil, wire.Errorf(wire.CodeUnknownType, "node %s cannot host type %q", n.id, snap.Type)
	}
	inst, err := t.decodeState(snap.State)
	if err != nil {
		return nil, wire.Errorf(wire.CodeInternal, "reinstall %s: %v", snap.ID, err)
	}
	rec := store.NewRecord(snap.ID, snap.Type, inst)
	rec.Pol = snap.Pol
	rec.Gen = snap.Gen
	rec.StateBytes = int64(len(snap.State))
	for _, e := range snap.Edges {
		rec.AddEdge(e.Other, e.Alliance)
	}
	return rec, nil
}
