package metrics

import (
	"encoding/json"
	"testing"

	"floatfl/internal/device"
	"floatfl/internal/opt"
)

// exercise drives a ledger through a representative mix of outcomes.
func exercise(l *Ledger) {
	l.Record(3, opt.TechNone, device.Outcome{Completed: true, Cost: device.Cost{ComputeSeconds: 360, CommSeconds: 36}})
	l.Record(70, opt.TechQuant8, device.Outcome{Completed: false, Reason: device.DropDeadline, Cost: device.Cost{ComputeSeconds: 720}})
	l.Record(3, opt.TechPrune50, device.Outcome{Completed: true})
	l.RecordDiscarded(129, opt.TechNone, device.Outcome{Cost: device.Cost{CommSeconds: 90}})
	l.WallClockSeconds = 123.25
}

// aggregates collects every order-sensitive derived statistic.
func aggregates(l *Ledger) [6]float64 {
	return [6]float64{
		l.SelectionGini(), l.SelectionJainIndex(),
		l.NeverSelectedFraction(), l.NeverCompletedFraction(),
		l.DropRate(), l.WallClockSeconds,
	}
}

// TestLedgerCheckpointRoundTrip proves state → JSON → restore reproduces
// every tally and aggregate exactly.
func TestLedgerCheckpointRoundTrip(t *testing.T) {
	src := NewLedger(200)
	exercise(src)
	blob, err := json.Marshal(src.CheckpointState())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var st LedgerState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	dst := NewLedger(200)
	if err := dst.RestoreCheckpoint(&st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if aggregates(dst) != aggregates(src) {
		t.Fatalf("aggregates diverge: %v vs %v", aggregates(dst), aggregates(src))
	}
	for _, id := range []int{0, 3, 70, 129, 199} {
		if dst.SelectedCount(id) != src.SelectedCount(id) || dst.CompletedCount(id) != src.CompletedCount(id) {
			t.Fatalf("client %d tallies diverge", id)
		}
	}
	if dst.DropsByReason[device.DropDeadline] != 1 || dst.TechSuccess[opt.TechPrune50] != 1 ||
		dst.TechFailure[opt.TechQuant8] != 1 || dst.Discarded != 1 {
		t.Fatalf("categorical tallies diverge: %+v", dst)
	}
	// The restored ledger must keep accumulating identically.
	exercise(src)
	exercise(dst)
	if aggregates(dst) != aggregates(src) {
		t.Fatal("post-restore accumulation diverges")
	}
}

// TestLedgerRestoreRejectsMismatch pins the compat checks: a different
// population size, and a dense-ledger state written by an older build,
// are both rejected without touching the ledger.
func TestLedgerRestoreRejectsMismatch(t *testing.T) {
	src := NewLedger(10)
	exercise(src)
	st := src.CheckpointState()
	if err := NewLedger(11).RestoreCheckpoint(st); err == nil {
		t.Fatal("restore into a different population size succeeded")
	}
	var dense LedgerState
	if err := json.Unmarshal([]byte(`{"clients":10,"sparse":false,"selected":[0,1,0,0,0,0,0,0,0,0],"completed":[0,1,0,0,0,0,0,0,0,0],"total_rounds":1}`), &dense); err != nil {
		t.Fatal(err)
	}
	dst := NewLedger(10)
	if err := dst.RestoreCheckpoint(&dense); err == nil {
		t.Fatal("restore of a dense ledger state succeeded")
	}
	if dst.TotalRounds != 0 || dst.SelectedCount(1) != 0 {
		t.Fatal("rejected restore mutated the ledger")
	}
}

// TestShardedCountsExportRestore covers the sparse container directly,
// including the deterministic export order.
func TestShardedCountsExportRestore(t *testing.T) {
	s := NewShardedCounts()
	for _, id := range []int{5, 1000003, 5, 64, 0, 977} {
		s.Inc(id)
	}
	exp := s.Export()
	r := NewShardedCounts()
	r.Restore(exp)
	if r.Distinct() != s.Distinct() {
		t.Fatalf("Distinct = %d, want %d", r.Distinct(), s.Distinct())
	}
	for _, id := range []int{5, 1000003, 64, 0, 977, 12345} {
		if r.Get(id) != s.Get(id) {
			t.Fatalf("Get(%d) = %d, want %d", id, r.Get(id), s.Get(id))
		}
	}
	exp2 := r.Export()
	if len(exp2) != len(exp) {
		t.Fatalf("re-export length %d, want %d", len(exp2), len(exp))
	}
	for i := range exp {
		if exp[i] != exp2[i] {
			t.Fatalf("export order unstable at %d: %v vs %v", i, exp[i], exp2[i])
		}
	}
}
