// Package health is the runtime's judgment layer: a sliding-window
// SLO evaluator that turns the telemetry core's cumulative histograms
// and counters into a per-node health state, and a black-box flight
// recorder that preserves the evidence around a state transition.
//
// The evaluator is deliberately dumb about time: the caller feeds it
// one cumulative Sample per tick and it keeps a preallocated ring of
// the last WindowTicks samples. The windowed value of each signal is
// the difference between the newest and oldest retained sample —
// histogram signals go through HistSnapshot.Delta and report the
// window's p99, counter signals are plain subtraction — so a burst
// that ended a window ago stops counting against the node. Tick is
// allocation-free (CI-enforced by BenchmarkHealthTick); everything is
// value arithmetic over fixed-size arrays.
//
// State transitions are hysteretic: the instantaneous level (the worst
// threshold any signal breaches this tick) must persist for RaiseAfter
// consecutive ticks to raise the state and stay clear for ClearAfter
// consecutive ticks to lower it, so a node flickering around a bound
// does not flap between states.
package health

import "objmig/internal/telemetry"

// State is a node's health classification.
type State uint8

const (
	// Healthy means every signal is inside its warn bound.
	Healthy State = iota
	// Degraded means at least one signal breached its warn bound for
	// RaiseAfter consecutive ticks. Placement discounts degraded
	// nodes; planners stop electing them as receivers.
	Degraded
	// Critical means at least one signal breached its critical bound
	// for RaiseAfter consecutive ticks. Placement vetoes critical
	// nodes outright and rebalance plans drain them first.
	Critical
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return "unknown"
	}
}

// Signal names one monitored input. The first NumHists signals are
// windowed-p99 histogram signals (microseconds); the rest are
// per-window counter deltas.
type Signal uint8

const (
	// SigInvokeLocalP99 is the window's p99 local invoke latency (µs).
	SigInvokeLocalP99 Signal = iota
	// SigInvokeRemoteP99 is the window's p99 remote invoke latency (µs).
	SigInvokeRemoteP99
	// SigChaseP99 is the window's p99 location-chase latency (µs).
	SigChaseP99
	// SigMigrationPhaseP99 is the window's p99 over every migration
	// phase duration, all phases merged (µs).
	SigMigrationPhaseP99
	// SigStreamAborts counts streamed migration sessions aborted in
	// the window.
	SigStreamAborts
	// SigPauseExpiries counts pause leases that expired unresolved in
	// the window.
	SigPauseExpiries
	// SigChasesOverBudget counts location chases that passed the hop
	// alarm (more than 4 remote hops) in the window.
	SigChasesOverBudget
	// SigEventsDropped counts observer events shed by the async event
	// sink in the window.
	SigEventsDropped

	sigEnd
)

// NumSignals is the number of monitored signals.
const NumSignals = int(sigEnd)

// NumHists is how many of the signals (the first ones) are histogram
// p99 signals; Sample.Hists is indexed by Signal directly.
const NumHists = 4

// NumCounters is how many signals are counter deltas; Sample.Counters
// is indexed by Signal − NumHists.
const NumCounters = NumSignals - NumHists

func (s Signal) String() string {
	switch s {
	case SigInvokeLocalP99:
		return "invoke_local_p99_us"
	case SigInvokeRemoteP99:
		return "invoke_remote_p99_us"
	case SigChaseP99:
		return "chase_p99_us"
	case SigMigrationPhaseP99:
		return "migration_phase_p99_us"
	case SigStreamAborts:
		return "stream_aborts"
	case SigPauseExpiries:
		return "pause_expiries"
	case SigChasesOverBudget:
		return "chases_over_budget"
	case SigEventsDropped:
		return "events_dropped"
	default:
		return "unknown"
	}
}

// Threshold bounds one signal. A zero bound disables that level for
// the signal; a signal whose windowed value is ≥ the bound breaches
// it.
type Threshold struct {
	Warn int64
	Crit int64
}

// Config parameterises an Evaluator.
type Config struct {
	// WindowTicks is how many consecutive samples the ring retains;
	// the evaluation window is (WindowTicks−1) tick intervals.
	// Minimum (and default when ≤ 1) is 2.
	WindowTicks int
	// RaiseAfter is how many consecutive ticks the instantaneous
	// level must exceed the current state before the state rises.
	// Default 1 (raise immediately).
	RaiseAfter int
	// ClearAfter is how many consecutive ticks the instantaneous
	// level must sit below the current state before the state drops.
	// Default 1 (clear immediately).
	ClearAfter int
	// Thresholds holds the per-signal bounds, indexed by Signal.
	Thresholds [NumSignals]Threshold
}

func (c Config) withDefaults() Config {
	if c.WindowTicks <= 1 {
		if c.WindowTicks == 0 {
			c.WindowTicks = 30
		} else {
			c.WindowTicks = 2
		}
	}
	if c.RaiseAfter < 1 {
		c.RaiseAfter = 1
	}
	if c.ClearAfter < 1 {
		c.ClearAfter = 1
	}
	return c
}

// Sample is one tick's cumulative reading: lifetime histogram
// snapshots and lifetime counter values. The evaluator differences
// consecutive window edges itself; callers never pre-subtract.
type Sample struct {
	// At is the sample time (UnixNano); carried into verdicts and
	// dumps, not used in the evaluation arithmetic.
	At int64
	// Hists holds the cumulative histogram snapshots, indexed by the
	// histogram Signals.
	Hists [NumHists]telemetry.HistSnapshot
	// Counters holds the cumulative counter values, indexed by
	// Signal − NumHists.
	Counters [NumCounters]int64
}

// Verdict is one Tick's outcome.
type Verdict struct {
	// State is the node's (hysteresis-filtered) state after the tick.
	State State
	// Prev is the state before the tick; Changed reports State != Prev.
	Prev    State
	Changed bool
	// Level is the instantaneous level this tick's window implied,
	// before hysteresis.
	Level State
	// Worst is the signal that set Level (meaningful when Level >
	// Healthy).
	Worst Signal
	// Values holds every signal's windowed value this tick.
	Values [NumSignals]int64
	// At echoes the sample time.
	At int64
}

// Evaluator turns a stream of cumulative samples into a hysteretic
// health state. Not safe for concurrent use; the health daemon is the
// single caller.
type Evaluator struct {
	cfg  Config
	ring []Sample // preallocated, len == cfg.WindowTicks
	next int
	n    int

	state State
	raise int // consecutive ticks at a level above state
	clear int // consecutive ticks at a level below state
}

// NewEvaluator returns an evaluator with its sample ring preallocated.
func NewEvaluator(cfg Config) *Evaluator {
	cfg = cfg.withDefaults()
	return &Evaluator{cfg: cfg, ring: make([]Sample, cfg.WindowTicks)}
}

// State returns the current hysteresis-filtered state.
func (e *Evaluator) State() State { return e.state }

// Tick feeds one cumulative sample and returns the verdict.
// Allocation-free.
func (e *Evaluator) Tick(s Sample) Verdict {
	e.ring[e.next] = s
	e.next = (e.next + 1) % len(e.ring)
	if e.n < len(e.ring) {
		e.n++
	}

	v := Verdict{Prev: e.state, At: s.At}

	// Window edges: the sample just written is the newest; the oldest
	// retained sample is the slot next will overwrite (or slot 0 while
	// the ring is still filling).
	oldest := 0
	if e.n == len(e.ring) {
		oldest = e.next
	}
	if e.n >= 2 {
		old := &e.ring[oldest]
		for i := 0; i < NumHists; i++ {
			v.Values[i] = s.Hists[i].Delta(old.Hists[i]).Quantile(0.99)
		}
		for i := 0; i < NumCounters; i++ {
			if d := s.Counters[i] - old.Counters[i]; d > 0 {
				v.Values[NumHists+i] = d
			}
		}
	}

	// Instantaneous level: the worst bound any signal breaches. The
	// worst signal is the first critical breach, else the first warn
	// breach.
	for i := 0; i < NumSignals; i++ {
		t := e.cfg.Thresholds[i]
		switch {
		case t.Crit > 0 && v.Values[i] >= t.Crit:
			if v.Level < Critical {
				v.Level = Critical
				v.Worst = Signal(i)
			}
		case t.Warn > 0 && v.Values[i] >= t.Warn:
			if v.Level < Degraded {
				v.Level = Degraded
				v.Worst = Signal(i)
			}
		}
	}

	// Hysteresis: a level away from the current state must persist to
	// move it; matching the state resets both streaks.
	switch {
	case v.Level > e.state:
		e.raise++
		e.clear = 0
		if e.raise >= e.cfg.RaiseAfter {
			e.state = v.Level
			e.raise, e.clear = 0, 0
		}
	case v.Level < e.state:
		e.clear++
		e.raise = 0
		if e.clear >= e.cfg.ClearAfter {
			e.state = v.Level
			e.raise, e.clear = 0, 0
		}
	default:
		e.raise, e.clear = 0, 0
	}

	v.State = e.state
	v.Changed = v.State != v.Prev
	return v
}
