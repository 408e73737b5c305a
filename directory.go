package objmig

// chaseHopBudget is the observability threshold for chase length: a
// chase using more remote hops than this counts towards
// Stats.ChasesOverBudget and emits an EventChase — an alarm, not a
// limit. The directory's other bounds, the hint-cache cap and the
// forward TTL, are internal/store's defaults.
const chaseHopBudget = 4

// CompactDirectory runs one forward-compaction sweep immediately: TTL
// expiry of unconfirmed forwarding pointers. The node triggers this automatically every few thousand
// departures; the explicit hook exists for tests and operational
// tooling. Returns the number of forwarding entries removed.
func (n *Node) CompactDirectory() int { return n.store.CompactForwards() }
