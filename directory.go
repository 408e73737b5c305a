package objmig

import "time"

// DirectoryConfig tunes the node's location directory: the hint-cache
// bound, forwarding-state retirement, closure-level location records
// and the chase-hop observability budget. The zero value selects the
// documented defaults.
type DirectoryConfig struct {
	// HintCacheCap bounds the foreign-object hint cache (total entries
	// across shards, evicted per shard). 0 selects the default
	// (store.DefaultHintCacheCap, 64Ki entries); negative disables the
	// bound.
	HintCacheCap int
	// ForwardTTL ages out forwarding pointers (and their stubs) that
	// were never confirmed by the origin — the backstop for lost home
	// updates. 0 selects the default (store.DefaultForwardTTL, 10m);
	// negative disables TTL compaction.
	ForwardTTL time.Duration
	// ChaseHopBudget is the observability threshold for chase length:
	// a chase using more remote hops than this counts towards
	// Stats.ChasesOverBudget and emits an EventChase. 0 selects the
	// default (4); negative disables the event.
	ChaseHopBudget int
}

// Defaults mirrored from internal/store so callers of the public API
// never import it.
const (
	defaultChaseHopBudget = 4
	defaultHintCacheCap   = 65536
	defaultForwardTTL     = 10 * time.Minute
)

func (c DirectoryConfig) withDefaults() DirectoryConfig {
	if c.HintCacheCap == 0 {
		c.HintCacheCap = defaultHintCacheCap
	}
	if c.ForwardTTL == 0 {
		c.ForwardTTL = defaultForwardTTL
	}
	if c.ChaseHopBudget == 0 {
		c.ChaseHopBudget = defaultChaseHopBudget
	}
	return c
}

// CompactDirectory runs one forward-compaction sweep immediately: TTL
// expiry of unconfirmed forwarding pointers, stub retirement and
// closure-record reaping. The node triggers this automatically every
// few thousand departures; the explicit hook exists for tests and
// operational tooling. Returns the number of forwarding entries
// removed.
func (n *Node) CompactDirectory() int { return n.store.CompactForwards() }
