package metrics

import (
	"fmt"
	"sort"

	"floatfl/internal/device"
	"floatfl/internal/opt"
)

// IDCount is one (client ID, count) pair of a tally's serialized form.
type IDCount struct {
	ID int `json:"id"`
	N  int `json:"n"`
}

// Export returns the nonzero counts as (id, count) pairs in the same
// deterministic shard-major, sorted-within-shard order Counts uses, so
// serialized ledgers are byte-stable across processes.
func (s *ShardedCounts) Export() []IDCount {
	out := make([]IDCount, 0, s.n)
	ids := make([]int, 0, 64)
	for _, m := range s.shards {
		ids = ids[:0]
		for id := range m {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			out = append(out, IDCount{ID: id, N: m[id]})
		}
	}
	return out
}

// Restore replaces the counter's contents with the exported pairs.
// Non-positive counts are dropped (Inc can never have produced them).
func (s *ShardedCounts) Restore(items []IDCount) {
	s.shards = [countShards]map[int]int{}
	s.n = 0
	for _, it := range items {
		if it.N <= 0 {
			continue
		}
		m := s.shardFor(it.ID)
		if _, ok := m[it.ID]; !ok {
			s.n++
		}
		m[it.ID] = it.N
	}
}

// LedgerState is a ledger's complete serializable state. The int-typed
// enum keys (device.DropReason, opt.Technique) round-trip through JSON as
// quoted integers, keeping the format free of string parsing.
type LedgerState struct {
	Clients int `json:"clients"`
	// Sparse is always true. Older builds also kept a dense ledger whose
	// state carried false here; such a state cannot be restored.
	Sparse          bool                      `json:"sparse"`
	SelectedSparse  []IDCount                 `json:"selected_sparse,omitempty"`
	CompletedSparse []IDCount                 `json:"completed_sparse,omitempty"`
	DropsByReason   map[device.DropReason]int `json:"drops_by_reason,omitempty"`
	TotalDrops      int                       `json:"total_drops"`
	TotalRounds     int                       `json:"total_rounds"`
	TechSuccess     map[opt.Technique]int     `json:"tech_success,omitempty"`
	TechFailure     map[opt.Technique]int     `json:"tech_failure,omitempty"`
	Discarded       int                       `json:"discarded"`
	Wasted          Inefficiency              `json:"wasted"`
	Useful          Inefficiency              `json:"useful"`
	WallClock       float64                   `json:"wall_clock_seconds"`
}

// CheckpointState captures the ledger. All containers are deep-copied, so
// the state stays valid while the live ledger keeps accumulating.
func (l *Ledger) CheckpointState() *LedgerState {
	st := &LedgerState{
		Clients:       l.clients,
		Sparse:        true,
		DropsByReason: copyMap(l.DropsByReason),
		TotalDrops:    l.TotalDrops,
		TotalRounds:   l.TotalRounds,
		TechSuccess:   copyMap(l.TechSuccess),
		TechFailure:   copyMap(l.TechFailure),
		Discarded:     l.Discarded,
		Wasted:        l.Wasted,
		Useful:        l.Useful,
		WallClock:     l.WallClockSeconds,
	}
	st.SelectedSparse = l.selectedS.Export()
	st.CompletedSparse = l.completedS.Export()
	return st
}

// RestoreCheckpoint replaces the ledger's state with a captured one. The
// ledger must have been constructed for the same population size; on
// error nothing is modified.
func (l *Ledger) RestoreCheckpoint(st *LedgerState) error {
	if st == nil {
		return fmt.Errorf("metrics: nil ledger state")
	}
	if st.Clients != l.clients {
		return fmt.Errorf("metrics: ledger state for %d clients, ledger has %d", st.Clients, l.clients)
	}
	if !st.Sparse {
		return fmt.Errorf("metrics: dense ledger state; only the sparse ledger can be restored")
	}
	l.selectedS.Restore(st.SelectedSparse)
	l.completedS.Restore(st.CompletedSparse)
	l.DropsByReason = copyMap(st.DropsByReason)
	if l.DropsByReason == nil {
		l.DropsByReason = make(map[device.DropReason]int)
	}
	l.TechSuccess = copyMap(st.TechSuccess)
	if l.TechSuccess == nil {
		l.TechSuccess = make(map[opt.Technique]int)
	}
	l.TechFailure = copyMap(st.TechFailure)
	if l.TechFailure == nil {
		l.TechFailure = make(map[opt.Technique]int)
	}
	l.TotalDrops = st.TotalDrops
	l.TotalRounds = st.TotalRounds
	l.Discarded = st.Discarded
	l.Wasted = st.Wasted
	l.Useful = st.Useful
	l.WallClockSeconds = st.WallClock
	return nil
}

// copyMap shallow-copies an enum-keyed tally map (nil in, nil out).
func copyMap[K comparable](m map[K]int) map[K]int {
	if m == nil {
		return nil
	}
	out := make(map[K]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
