package wire

import (
	"maps"
	"sync"
	"sync/atomic"
)

// The name table: node IDs, method and type names recur in almost every
// body, and a cluster has few of them, so the decoder keeps one copy of
// each instead of allocating it afresh per message. Reads are one
// atomic load and a map read; a name not yet known copies the table
// once. The table stops growing at maxNames; past that bound, and for
// any name longer than maxNameLen, a name is allocated as any string
// field is.
const (
	maxNames   = 4096
	maxNameLen = 64
)

var names struct {
	mu    sync.Mutex // serialises additions
	table atomic.Pointer[map[string]string]
}

// intern returns b as a string, the table's copy when it has one.
func intern(b []byte) string {
	if len(b) == 0 || len(b) > maxNameLen {
		return string(b)
	}
	if t := names.table.Load(); t != nil {
		if s, ok := (*t)[string(b)]; ok {
			return s
		}
	}
	return internSlow(b)
}

func internSlow(b []byte) string {
	names.mu.Lock()
	defer names.mu.Unlock()
	var next map[string]string
	if t := names.table.Load(); t != nil {
		if s, ok := (*t)[string(b)]; ok {
			return s // added since the caller looked
		}
		if len(*t) >= maxNames {
			return string(b)
		}
		next = make(map[string]string, len(*t)+1)
		maps.Copy(next, *t)
	} else {
		next = make(map[string]string)
	}
	s := string(b)
	next[s] = s
	names.table.Store(&next)
	return s
}
