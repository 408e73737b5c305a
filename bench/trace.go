package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"objmig"
	"objmig/internal/telemetry"
)

// Span names: one per top-level API call the harness makes.
const (
	spanOp uint8 = iota // one whole operation; every other span is its child
	spanCall
	spanMoveRequest // Move entry until the block body starts
	spanEnd         // block body return until Move returns
	spanMigrate     // a 4-object closure (invoke-churn's migrator)
	spanMigrateBulk // the 4 MiB closure of migrate-bulk
	spanTouch
	numSpanNames
)

var spanNames = [numSpanNames]string{"op", "call", "move-request", "end", "migrate", "migrate-bulk", "touch"}

// Span outcomes: how the program served the call, as the harness model
// predicts it.
const (
	outNone uint8 = iota
	outLocal
	outRemote
	outStayed
	outGranted
	outDenied
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"", "local", "remote", "stayed", "granted", "denied"}

// span is one traced API call. Times are nanoseconds since the traced
// window began. Parent is the id of the op span that caused it (0 for
// an op span); all spans of one operation share Op.
type span struct {
	ID, Parent, Op uint64
	Name, Outcome  uint8
	Start, End     int64
}

// traceRing is how many spans each goroutine keeps for the trace file.
// The per-name totals below cover the whole window regardless.
const traceRing = 1 << 15

// tracer records the spans of one goroutine into a preallocated ring
// and keeps running totals per (name, outcome). A nil tracer records
// nothing: untraced runs pay one nil check per call.
type tracer struct {
	base   time.Time
	ring   []span
	n      uint64 // spans recorded
	opID   uint64 // span id of the open op
	opSeq  uint64
	opKids int64 // child time inside the open op
	totals [numSpanNames][numOutcomes]spanTotal
}

type spanTotal struct {
	Count         int64
	TotalNs, Self int64
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, ring: make([]span, traceRing)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

func (t *tracer) put(s span) uint64 {
	t.n++
	s.ID = t.n
	t.ring[(t.n-1)%traceRing] = s
	return s.ID
}

// beginOp opens the op span; the spans recorded until endOp are its
// children.
func (t *tracer) beginOp() {
	if t == nil {
		return
	}
	t.opSeq++
	t.opKids = 0
	t.opID = t.put(span{Op: t.opSeq, Name: spanOp})
}

func (t *tracer) endOp(start, end int64) {
	if t == nil {
		return
	}
	s := &t.ring[(t.opID-1)%traceRing]
	if s.ID == t.opID { // still in the ring
		s.Start, s.End = start, end
	}
	tot := &t.totals[spanOp][outNone]
	tot.Count++
	tot.TotalNs += end - start
	tot.Self += end - start - t.opKids
}

// add records one child span of the open op.
func (t *tracer) add(name, outcome uint8, start, end int64) {
	if t == nil {
		return
	}
	t.put(span{Parent: t.opID, Op: t.opSeq, Name: name, Outcome: outcome, Start: start, End: end})
	t.opKids += end - start
	tot := &t.totals[name][outcome]
	tot.Count++
	tot.TotalNs += end - start
	tot.Self += end - start // leaf spans have no children
}

// mergeTotals sums the tracers' per-name totals.
func mergeTotals(trs []*tracer) (sum [numSpanNames][numOutcomes]spanTotal) {
	for _, t := range trs {
		for n := range t.totals {
			for o, v := range t.totals[n] {
				sum[n][o].Count += v.Count
				sum[n][o].TotalNs += v.TotalNs
				sum[n][o].Self += v.Self
			}
		}
	}
	return sum
}

// meanUs is the mean span duration in microseconds, 0 when none ran.
func (s spanTotal) meanUs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalNs) / float64(s.Count) / 1e3
}

type spanSummary struct {
	Name    string  `json:"name"`
	Outcome string  `json:"outcome,omitempty"`
	Count   int64   `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
	MeanUs  float64 `json:"mean_us"`
}

func summarise(tot [numSpanNames][numOutcomes]spanTotal) []spanSummary {
	var out []spanSummary
	for n := range tot {
		for o, v := range tot[n] {
			if v.Count == 0 {
				continue
			}
			out = append(out, spanSummary{
				Name: spanNames[n], Outcome: outcomeNames[o], Count: v.Count,
				TotalUs: float64(v.TotalNs) / 1e3, SelfUs: float64(v.Self) / 1e3, MeanUs: v.meanUs(),
			})
		}
	}
	return out
}

// writeTrace writes the traced window to dir/trace-<workload>.json: the
// span summary (self time = span minus children), the Stats deltas per
// node, the program's own migration timelines, and the last traceRing
// spans of every goroutine.
func writeTrace(dir, workload string, seed int64, trs []*tracer, deltas map[objmig.NodeID]objmig.Stats, lines []telemetry.Timeline) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	head := struct {
		Workload  string                         `json:"workload"`
		Seed      int64                          `json:"seed"`
		Summary   []spanSummary                  `json:"summary"`
		Stats     map[objmig.NodeID]objmig.Stats `json:"stats_delta"`
		Timelines []telemetry.Timeline           `json:"timelines"`
	}{workload, seed, summarise(mergeTotals(trs)), deltas, lines}
	hb, err := json.Marshal(head)
	if err != nil {
		f.Close()
		return "", err
	}
	// The spans are appended by hand as one more member of the head
	// object: tens of thousands of them through encoding/json would
	// allocate as much as the workload did.
	w.Write(hb[:len(hb)-1])
	w.WriteString(`,"spans":[`)
	first := true
	for g, t := range trs {
		kept := t.n
		if kept > traceRing {
			kept = traceRing
		}
		for i := t.n - kept; i < t.n; i++ {
			s := t.ring[i%traceRing]
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n{\"g\":%d,\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%q,\"outcome\":%q,\"start_ns\":%d,\"end_ns\":%d}",
				g, s.ID, s.Parent, s.Op, spanNames[s.Name], outcomeNames[s.Outcome], s.Start, s.End)
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
