package objmig

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"objmig/internal/health"
)

// EventKind classifies runtime events.
type EventKind int

const (
	// EventInvoke: a method executed on a hosted object.
	EventInvoke EventKind = iota + 1
	// EventMoveDecision: a move-request was decided at this node
	// (Outcome: granted, stayed, denied).
	EventMoveDecision
	// EventEnd: an end-request was processed here.
	EventEnd
	// EventMigration: this node coordinated a transfer batch
	// (Objects lists the working set, Target the destination).
	EventMigration
	// EventInstall: objects arrived and were reinstantiated here.
	EventInstall
	// EventFix: an object's fixed flag changed here.
	EventFix
	// EventAttach: an attachment half-edge was added or removed here.
	EventAttach
	// EventAutopilot: the autopilot migrated an object group towards
	// its heaviest caller (Obj is the elected object, Target the
	// destination, Objects the full group that travelled).
	EventAutopilot
	// EventMigrateStream: a group transfer changed state. Every
	// transfer emits the same outcomes whatever its frame count. At the
	// target: "begin" when the opening frame is admitted, then exactly
	// one of "commit" (installed), "abort" (dropped by the coordinator's
	// abort or by a frame that failed to stage) or "expire" (dropped
	// when the migration's lease ran out); Bytes counts the staged snapshot bytes. At the
	// coordinator: "streamed" once the group is installed; Bytes counts
	// the snapshot bytes its InstallReq frames carried. Source hosts
	// add "lease-committed", "lease-resumed" or "lease-retry" when the
	// lease over the objects they paused runs out.
	EventMigrateStream
	// EventPlacement: the placement engine acted here. Outcome
	// "migrate" (the autopilot's group-scored election) or "origin"
	// (the origin pre-placement pass) announce an engine-driven group
	// migration — Obj is the scored root, Target the elected node and
	// Objects the full attachment closure that travelled as a unit.
	// Outcome "veto" reports a migration this node refused as a target
	// because admitting the group would push it past its capacity
	// (Objects lists the refused members, Target the coordinator).
	EventPlacement
	// EventChase: a location chase exceeded the hop budget (4 remote
	// hops) — the directory's hints for Obj were stale enough to cost
	// Hops remote calls. Outcome is "over-budget".
	EventChase
	// EventJob: a migration job changed state on its coordinator.
	// Outcome is the lifecycle edge — "plan" (move list computed),
	// "resume" (re-created from a checkpoint), "wave" (a wave started;
	// Wave carries its index), "wave-done" (the wave's moves all
	// settled; Objects lists what travelled, Bytes what it weighed),
	// "retarget" (a vetoed move was re-pointed against the live view;
	// Target names the new receiver), then exactly one of "done",
	// "cancelled" or "failed".
	EventJob
	// EventHealth: the health engine changed this node's state.
	// Outcome is the new state ("healthy", "degraded" or "critical");
	// Hops carries the previous state's numeric value (0/1/2) so
	// observers can tell a recovery from an escalation without
	// parsing.
	EventHealth
	// EventObserverOverflow: the bounded async event sink has been
	// dropping events. Emitted synchronously (it must not itself ride
	// the overflowing queue), rate-limited to at most once per minute;
	// Bytes carries the cumulative drop count at emission time.
	EventObserverOverflow

	// eventKindEnd is one past the last kind. New kinds go above it;
	// the drift test walks [1, eventKindEnd) and fails on any kind
	// String() does not know.
	eventKindEnd
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventInvoke:
		return "invoke"
	case EventMoveDecision:
		return "move-decision"
	case EventEnd:
		return "end"
	case EventMigration:
		return "migration"
	case EventInstall:
		return "install"
	case EventFix:
		return "fix"
	case EventAttach:
		return "attach"
	case EventAutopilot:
		return "autopilot"
	case EventMigrateStream:
		return "migrate-stream"
	case EventPlacement:
		return "placement"
	case EventChase:
		return "chase"
	case EventJob:
		return "job"
	case EventHealth:
		return "health"
	case EventObserverOverflow:
		return "observer-overflow"
	default:
		return "unknown"
	}
}

// Event is one observable runtime occurrence at a node. Events are
// emitted synchronously on the hot path: observers must be fast and
// must not call back into the node.
type Event struct {
	Kind    EventKind // what happened (see the EventKind constants)
	Node    NodeID    // the node the event happened on
	Obj     Ref       // primary object (zero for pure batch events)
	Target  NodeID    // destination (migrations) or requester (moves)
	Outcome string    // granted / stayed / denied / fixed / unfixed / ...
	Objects []Ref     // batch members (migrations, installs)
	Bytes   int64     // snapshot bytes (streaming migration events)
	Hops    int       // remote hops of the chase (EventChase)
	Wave    int       // wave index (EventJob wave progress)
	Time    time.Time // when the node emitted the event
}

// String renders the event compactly for logs.
func (e Event) String() string {
	s := fmt.Sprintf("[%s] %s %s", e.Node, e.Kind, e.Obj)
	if e.Outcome != "" {
		s += " " + e.Outcome
	}
	if e.Target != "" {
		s += " -> " + string(e.Target)
	}
	if len(e.Objects) > 0 {
		s += fmt.Sprintf(" (%d objects)", len(e.Objects))
	}
	if e.Bytes > 0 {
		s += fmt.Sprintf(" (%d bytes)", e.Bytes)
	}
	if e.Hops > 0 {
		s += fmt.Sprintf(" (%d hops)", e.Hops)
	}
	return s
}

// Observer receives runtime events. See Config.Observer.
type Observer func(Event)

// emit delivers an event to the node's observer, if any: directly on
// the caller's goroutine by default, or through the bounded async sink
// when Config.ObserverBuffer is set. While the health engine runs,
// every event (bar the high-rate EventInvoke) is additionally mirrored
// into the recorder ring, so a dump carries the recent event history
// even with no observer set.
func (n *Node) emit(e Event) {
	rec := n.tel.flightRec.Load()
	if n.observer == nil && rec == nil {
		return
	}
	e.Node = n.id
	e.Time = time.Now()
	if rec != nil && e.Kind != EventInvoke {
		label := e.Kind.String()
		if e.Outcome != "" {
			label += ":" + e.Outcome
		}
		rec.Record(health.Entry{
			At: e.Time.UnixNano(), Kind: health.EntryEvent,
			Label: label, Node: string(e.Target),
			Values: [4]int64{e.Bytes, int64(e.Hops), int64(e.Wave), int64(len(e.Objects))},
		})
	}
	if n.observer == nil {
		return
	}
	if n.events != nil {
		n.events.emit(e)
		return
	}
	n.observer(e)
}

// eventSink decouples event delivery from the hot path: emit enqueues
// into a bounded channel (dropping, and counting the drop, when the
// observer cannot keep up) and one goroutine drains the queue into the
// observer in order. See Config.ObserverBuffer.
type eventSink struct {
	fn   Observer
	ch   chan Event
	done chan struct{}

	mu      sync.RWMutex // guards closed against concurrent emits
	closed  bool
	dropped atomic.Int64
	// lastNotify is the UnixNano of the last synchronous
	// EventObserverOverflow, the ≤ once-per-minute rate limit.
	lastNotify atomic.Int64
}

func newEventSink(fn Observer, buffer int) *eventSink {
	s := &eventSink{fn: fn, ch: make(chan Event, buffer), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *eventSink) run() {
	defer close(s.done)
	for e := range s.ch {
		s.fn(e)
	}
}

// emit enqueues without ever blocking: a full queue (or a closed sink)
// sheds the event and counts it. A shed additionally surfaces as a
// synchronous EventObserverOverflow — delivered on the caller's
// goroutine, bypassing the full queue — at most once per minute, so
// operators learn the observer is losing events without polling
// Stats.
func (s *eventSink) emit(e Event) {
	s.mu.RLock()
	if s.closed {
		s.dropped.Add(1)
		s.mu.RUnlock()
		return
	}
	var notify int64
	select {
	case s.ch <- e:
	default:
		d := s.dropped.Add(1)
		if s.shouldNotify(e.Time.UnixNano()) {
			notify = d
		}
	}
	s.mu.RUnlock()
	if notify > 0 {
		s.fn(Event{
			Kind:    EventObserverOverflow,
			Node:    e.Node,
			Outcome: "overflow",
			Bytes:   notify,
			Time:    e.Time,
		})
	}
}

// shouldNotify claims the once-per-minute overflow-notification slot
// (CAS so concurrent droppers elect exactly one notifier).
func (s *eventSink) shouldNotify(now int64) bool {
	last := s.lastNotify.Load()
	return now-last >= int64(time.Minute) && s.lastNotify.CompareAndSwap(last, now)
}

// close drains the queue into the observer and stops the goroutine.
// Emits arriving after close are counted as dropped.
func (s *eventSink) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.ch)
	<-s.done
}
