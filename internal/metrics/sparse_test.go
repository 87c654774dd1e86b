package metrics

import (
	"math/rand"
	"testing"

	"floatfl/internal/device"
	"floatfl/internal/opt"
)

// TestSparseLedgerMatchesDense feeds an outcome stream into the ledger
// and into a dense per-client tally kept by the test, and requires every
// aggregate to agree bit-for-bit with the dense reference — the sharded
// tallies are a representation choice, not a semantic one.
func TestSparseLedgerMatchesDense(t *testing.T) {
	const clients = 500
	l := NewLedger(clients)
	selected := make([]int, clients)
	completed := make([]int, clients)
	drops, discarded := 0, 0

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		id := rng.Intn(clients / 3) // skewed participation
		out := device.Outcome{
			Completed: rng.Float64() < 0.7,
			Cost:      device.Cost{ComputeSeconds: rng.Float64() * 100, CommSeconds: rng.Float64() * 10},
		}
		if !out.Completed {
			out.Reason = device.DropDeadline
		}
		selected[id]++
		if rng.Float64() < 0.1 {
			l.RecordDiscarded(id, opt.TechNone, out)
			discarded++
			continue
		}
		l.Record(id, opt.TechNone, out)
		if out.Completed {
			completed[id]++
		} else {
			drops++
		}
	}

	type agg struct {
		neverSel, neverComp, gini, jain, dropRate float64
		totalRounds, totalDrops, discarded        int
	}
	zeros := func(xs []int) float64 {
		n := 0
		for _, x := range xs {
			if x == 0 {
				n++
			}
		}
		return float64(n) / float64(len(xs))
	}
	want := agg{
		neverSel:    zeros(selected),
		neverComp:   zeros(completed),
		gini:        giniWithZeros(selected, 0),
		jain:        jainWithZeros(selected, 0),
		dropRate:    float64(drops) / 2000,
		totalRounds: 2000,
		totalDrops:  drops,
		discarded:   discarded,
	}
	got := agg{
		neverSel:    l.NeverSelectedFraction(),
		neverComp:   l.NeverCompletedFraction(),
		gini:        l.SelectionGini(),
		jain:        l.SelectionJainIndex(),
		dropRate:    l.DropRate(),
		totalRounds: l.TotalRounds,
		totalDrops:  l.TotalDrops,
		discarded:   l.Discarded,
	}
	if got != want {
		t.Fatalf("ledger aggregates deviate from the dense reference:\ndense  %+v\nledger %+v", want, got)
	}
	for id := 0; id < clients; id++ {
		if selected[id] != l.SelectedCount(id) {
			t.Fatalf("client %d: selected %d dense vs %d ledger", id, selected[id], l.SelectedCount(id))
		}
		if completed[id] != l.CompletedCount(id) {
			t.Fatalf("client %d: completed %d dense vs %d ledger", id, completed[id], l.CompletedCount(id))
		}
	}
}

// TestShardedCountsDeterministicOrder pins the fixed iteration order the
// float-order-sensitive aggregates (Jain) rely on.
func TestShardedCountsDeterministicOrder(t *testing.T) {
	build := func(order []int) []int {
		s := NewShardedCounts()
		for _, id := range order {
			s.Inc(id)
		}
		return s.Counts()
	}
	a := build([]int{700, 3, 64, 3, 128, 9001, 64, 700})
	b := build([]int{64, 9001, 700, 64, 3, 128, 700, 3})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("position %d: %d vs %d (insertion order leaked into iteration order)", i, a[i], b[i])
		}
	}
}

// TestSparseLedgerEmpty guards the degenerate aggregates.
func TestSparseLedgerEmpty(t *testing.T) {
	l := NewLedger(0)
	if l.NeverSelectedFraction() != 0 || l.SelectionGini() != 0 || l.SelectionJainIndex() != 0 {
		t.Fatal("empty ledger aggregates must be zero")
	}
	l2 := NewLedger(10)
	if got := l2.NeverSelectedFraction(); got != 1 {
		t.Fatalf("untouched ledger never-selected %v, want 1", got)
	}
}
