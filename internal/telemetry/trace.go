// Migration tracing: a TraceID minted at each migration decision rides
// the wire bodies, and every node that touches the migration records
// fixed-size Spans into its bounded TraceLog. Merging the logs of the
// participating nodes (the /debug/migrations endpoint for one node,
// tests and operators across nodes) reconstructs the migration's
// timeline: which phase ran when, for how long, and how many bytes and
// objects it carried.

package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Phase names one stage of a migration's life. The coordinator records
// PhasePause, PhaseStream and PhaseCommit; the pausing source records
// PhaseSnapshot; the target records PhaseStage and PhaseInstall; the
// old host and the origin record PhaseDirUpdate.
type Phase uint8

const (
	// PhasePause is the coordinator's pause round trip to one source
	// host: the request, the source-side pause wait and snapshot
	// encode, and the reply carrying the snapshots.
	PhasePause Phase = iota + 1
	// PhaseSnapshot is the source-side component of the pause: waiting
	// for in-flight invocations to drain plus encoding the state.
	PhaseSnapshot
	// PhaseStream is one coordinator transfer to the target: the round
	// trip of one InstallReq frame that carries snapshots. Bytes is the
	// encoded snapshot size.
	PhaseStream
	// PhaseStage is the target-side decode-and-stage of one such frame.
	PhaseStage
	// PhaseInstall is the target-side commit of the staged snapshots
	// into the store.
	PhaseInstall
	// PhaseCommit is the coordinator's commit fan-out: every old host
	// deletes its copies and plants forwards.
	PhaseCommit
	// PhaseDirUpdate is a directory write downstream of the commit:
	// the old host's departure bookkeeping, or an origin applying a
	// HomeUpdate.
	PhaseDirUpdate

	// phaseEnd is one past the last phase (sizing arrays, drift tests).
	phaseEnd
)

// NumPhases is the number of declared phases; phase p satisfies
// 1 <= p < 1+NumPhases, so [NumPhases+1]T arrays index directly by
// phase.
const NumPhases = int(phaseEnd) - 1

func (p Phase) String() string {
	switch p {
	case PhasePause:
		return "pause"
	case PhaseSnapshot:
		return "snapshot"
	case PhaseStream:
		return "stream"
	case PhaseStage:
		return "stage"
	case PhaseInstall:
		return "install"
	case PhaseCommit:
		return "commit"
	case PhaseDirUpdate:
		return "dir-update"
	default:
		return "unknown"
	}
}

// Span is one recorded phase execution. The struct is fixed-size — no
// strings, no slices — so recording into the preallocated ring
// allocates nothing.
type Span struct {
	Trace   uint64 // the migration's TraceID
	Phase   Phase  // which stage ran
	Start   int64  // UnixNano at phase start
	End     int64  // UnixNano at phase end
	Bytes   int64  // payload bytes the phase carried (0 when n/a)
	Objects int32  // objects the phase carried (0 when n/a)
}

// Duration returns the span's elapsed time.
func (s Span) Duration() time.Duration { return time.Duration(s.End - s.Start) }

// String formats one span for the /debug/migrations listing.
func (s Span) String() string {
	return fmt.Sprintf("%-10s %8.3fms  %7dB  %4d objs  @%s",
		s.Phase, float64(s.End-s.Start)/1e6, s.Bytes, s.Objects,
		time.Unix(0, s.Start).UTC().Format("15:04:05.000000"))
}

// DefaultTraceSpans is the default TraceLog capacity: enough for the
// ~9 spans of a few hundred recent migrations.
const DefaultTraceSpans = 4096

// TraceLog is a bounded ring of spans. Record is allocation-free and
// safe for concurrent use; when the ring is full the oldest span is
// overwritten.
type TraceLog struct {
	mu      sync.Mutex
	spans   []Span
	next    int
	n       int   // live spans, ≤ cap
	total   int64 // spans ever recorded
	evicted int64 // spans overwritten before ever being read
}

// NewTraceLog returns a ring holding up to capacity spans
// (DefaultTraceSpans when capacity <= 0).
func NewTraceLog(capacity int) *TraceLog {
	if capacity <= 0 {
		capacity = DefaultTraceSpans
	}
	return &TraceLog{spans: make([]Span, capacity)}
}

// Record appends one span, overwriting the oldest when full.
// Allocation-free.
func (l *TraceLog) Record(s Span) {
	l.mu.Lock()
	if l.n == len(l.spans) {
		l.evicted++
	}
	l.spans[l.next] = s
	l.next = (l.next + 1) % len(l.spans)
	if l.n < len(l.spans) {
		l.n++
	}
	l.total++
	l.mu.Unlock()
}

// Evicted returns the number of spans the ring has overwritten. A
// non-zero value means timelines reconstructed from Spans may be
// missing their oldest phases.
func (l *TraceLog) Evicted() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}

// Total returns the number of spans ever recorded (including
// overwritten ones).
func (l *TraceLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Spans copies the live spans, oldest first.
func (l *TraceLog) Spans() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Span, 0, l.n)
	start := l.next - l.n
	if start < 0 {
		start += len(l.spans)
	}
	for i := 0; i < l.n; i++ {
		out = append(out, l.spans[(start+i)%len(l.spans)])
	}
	return out
}

// Timeline is every known span of one migration, sorted by start time.
type Timeline struct {
	Trace uint64
	Spans []Span
}

// Start returns the timeline's earliest span start.
func (t Timeline) Start() int64 {
	if len(t.Spans) == 0 {
		return 0
	}
	return t.Spans[0].Start
}

// Timelines groups spans (possibly merged from several nodes' logs) by
// trace, each timeline's spans sorted by start, the timelines
// themselves newest-first. Spans with trace 0 — untraced work — are
// dropped.
func Timelines(spans []Span) []Timeline {
	byTrace := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Trace == 0 {
			continue
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	out := make([]Timeline, 0, len(byTrace))
	for tr, ss := range byTrace {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].Phase < ss[j].Phase
		})
		out = append(out, Timeline{Trace: tr, Spans: ss})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start() != out[j].Start() {
			return out[i].Start() > out[j].Start()
		}
		return out[i].Trace > out[j].Trace
	})
	return out
}
