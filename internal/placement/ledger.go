package placement

// The reservation ledger closes admission's check-then-act window.
//
// The overload veto alone is a snapshot predicate: a target reads its
// hosted counts, decides there is headroom, and answers — but the
// objects only land later, when the transfer closes. Two coordinators
// racing the same target can both pass the check before either lands,
// and the node overshoots its capacity even though every individual
// decision was correct. The ledger makes admission a *claim*: the
// opening install frame atomically checks projected utilisation (hosted
// + already-reserved + incoming, in both the object-count and byte
// dimensions) and records the incoming group's (objects, bytes) under
// the session key, all under one mutex. The closing frame converts the
// claim to residency (the installed objects now show up in the hosted
// counts, so the claim is simply released — after the install, never
// before, so the sum of hosted and reserved never dips below the
// truth). An abort or the expiry of the migration's record releases the
// claim without installing. The caller's record is the claim's only
// owner: the ledger keeps no clock of its own.
//
// The hosted counts are read through a callback *inside* the ledger's
// critical section: a sample read before the lock could miss a claim
// that was converted to residency in between, and the veto would
// undercount. With the callback, every admission sees each in-flight
// group exactly once — as a reservation before its install, as
// residency after.

import (
	"sync"

	"objmig/internal/core"
)

// ClaimKey identifies one reservation: the coordinator and its session
// token — the same pair that keys the target's staging session.
type ClaimKey struct {
	From  core.NodeID
	Token uint64
}

// Claim is the reserved footprint of one in-flight migration.
type Claim struct {
	Objects int64
	Bytes   int64
}

// Ledger is one node's admission ledger. Safe for concurrent use; the
// zero value is not ready, use NewLedger.
type Ledger struct {
	mu       sync.Mutex
	claims   map[ClaimKey]Claim
	reserved Claim // running sum over claims
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{claims: make(map[ClaimKey]Claim)}
}

// Admit atomically runs the overload veto against hosted-plus-reserved
// load and, if the group fits, records the claim. hosted is invoked
// under the ledger lock and must return the node's authoritative local
// sample (objects, bytes, capacities); ratio <= 0 selects the default
// 1. A re-admission under an existing key replaces the old claim, so
// one key never holds two. Reports whether the claim was recorded.
func (l *Ledger) Admit(key ClaimKey, c Claim, ratio float64, hosted func() Sample) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if old, ok := l.claims[key]; ok {
		l.reserved.Objects -= old.Objects
		l.reserved.Bytes -= old.Bytes
		delete(l.claims, key)
	}
	s := hosted()
	s.Objects += l.reserved.Objects
	s.Bytes += l.reserved.Bytes
	if Overloaded(s, int(c.Objects), c.Bytes, ratio) {
		return false
	}
	l.claims[key] = c
	l.reserved.Objects += c.Objects
	l.reserved.Bytes += c.Bytes
	return true
}

// Release drops the claim under key (commit after install, abort, or
// expiry alike) and reports whether one existed.
func (l *Ledger) Release(key ClaimKey) (Claim, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.claims[key]
	if !ok {
		return Claim{}, false
	}
	delete(l.claims, key)
	l.reserved.Objects -= c.Objects
	l.reserved.Bytes -= c.Bytes
	return c, true
}

// Reserved returns the current reserved totals (the
// objmig_placement_reserved_bytes gauge's source).
func (l *Ledger) Reserved() Claim {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reserved
}

// ShedTarget elects the peer an overloaded host should push a group
// to, or reports (ok=false) that no peer has room. Where Score is
// affinity-first (load only discounts), shedding is headroom-first:
// the elected peer is the one whose projected utilisation after
// receiving the group is lowest, and any peer whose projection would
// reach shedRatio (<= 0 selects 1) is excluded — a shed never pushes
// its target past the target's own shed threshold, which is what
// keeps two shedding nodes from ping-ponging a closure. Affinity
// breaks projection ties (prefer the node that also wants the group),
// then the lexically smaller node, so identical inputs elect
// identically regardless of view iteration order. Peers without a
// fresh sample are skipped: no headroom evidence, no shed. Peers that
// are not healthy (degraded or critical) are vetoed — shedding exists
// to relieve pressure, and a sick receiver would just convert one
// overload into another incident.
func ShedTarget(g Group, v *View, shedRatio float64) (Decision, bool) {
	if shedRatio <= 0 {
		shedRatio = 1
	}
	var dec Decision
	bestUtil, bestAff := 0.0, int64(0)
	for _, s := range v.Snapshot() { // sorted by node: deterministic
		if s.Node == g.Self {
			continue
		}
		if s.Health >= HealthDegraded {
			dec.Vetoed = append(dec.Vetoed, s.Node)
			continue
		}
		util := Utilisation(s, g.Members, g.Bytes)
		if util >= shedRatio {
			dec.Vetoed = append(dec.Vetoed, s.Node)
			continue
		}
		aff := g.PerNode[s.Node]
		if dec.Target == "" || util < bestUtil ||
			(util == bestUtil && aff > bestAff) {
			if dec.Target != "" && dec.Score > dec.RunnerUp {
				dec.RunnerUp = dec.Score
			}
			dec.Target, dec.Score = s.Node, 1-util
			bestUtil, bestAff = util, aff
		} else if score := 1 - util; score > dec.RunnerUp {
			dec.RunnerUp = score
		}
	}
	return dec, dec.Target != ""
}
